"""Stein-Thompson circle groups: descriptors, exact membership, transitivity.

A descriptor lists integers n1, ..., nk (each >= 2).  It determines
lam = n1 * ... * nk, the coordinate ring Y = Z[1/lam] / Z on the circle,
and the multiplicative slope group P generated by the ni inside the
positive rationals.  A PL circle map belongs to the group when all of its
breakpoints and their images lie in Y and every slope lies in P.

`tuple_map` realizes transitivity on cyclically ordered tuples of Y-points:
both tuples are embedded in the grid of multiples of lam**-q, arcs between
consecutive marked points are equalized by inserting midpoints (halving
the leftmost largest gap of the arc with fewer points), and the result
interpolates linearly.  Midpoints stay inside Y and keep gap ratios in P
exactly when 2 lies in P, which holds for the shipped descriptors.

Each descriptor builds an echelon basis of its slope lattice once, and a
slope query reduces its prime exponent vector against it in one pass.
When the basis has a pivot of 1 or -1 on every prime, as for T_2 and
T_{2,3}, the lattice is everything and a slope is a member when its
numerator and denominator both divide a power of lam.  That test, which
also decides whether a coordinate lies in Y, is one modular power and no
trial division.

`is_member` works on the map's kernel grid of (numerator, denominator)
pairs, one reduced pair per slope; it builds a Fraction only to report a
violation.  The public descriptor methods convert their input at entry.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import NamedTuple

from . import _core as core
from .maps import (
    PLCircleMap,
    PLLineMap,
    RationalLike,
    as_fraction,
    compose,
    identity_map,
    invert,
    lift,
    rotation_map,
)


# Factoring is trial division, so descriptors are bounded: at most
# MAX_GENERATORS generators of at most MAX_GENERATOR_BITS bits each keeps
# it to about 2**16 divisions per generator.
MAX_GENERATORS = 16
MAX_GENERATOR_BITS = 32


def _prime_factors(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _lattice_basis(factors, primes):
    """(prime index, pivot) pairs of an echelon basis of the exponent lattice.

    Per prime, in order, the unused exponent vectors are Euclid-reduced until
    at most one is nonzero there: the pivot, zero on every earlier prime.
    """
    rest = [[f.get(p, 0) for p in primes] for f in factors]
    basis = []
    for i in range(len(primes)):
        live = [v for v in rest if v[i]]
        rest = [v for v in rest if not v[i]]
        while len(live) > 1:
            live.sort(key=lambda v: abs(v[i]))
            pivot = live[0]
            reduced = [pivot]
            for v in live[1:]:
                c = v[i] // pivot[i]
                v = [a - c * b for a, b in zip(v, pivot)]
                (reduced if v[i] else rest).append(v)
            live = reduced
        basis += [(i, tuple(v)) for v in live]  # the pivot, if the prime has one
    return tuple(basis)


class GroupDescriptor:
    """Generators n1, ..., nk of a Stein-Thompson circle group."""

    __slots__ = ("_generators", "_lam", "_primes", "_basis", "_all_slopes")

    def __init__(self, *generators: int):
        if not generators:
            raise ValueError("a descriptor needs at least one generator")
        for n in generators:
            if isinstance(n, bool) or not isinstance(n, int) or n < 2:
                raise ValueError("generators must be integers >= 2")
        if len(generators) > MAX_GENERATORS:
            raise ValueError(
                "%d slope generators exceed the budget of %d"
                % (len(generators), MAX_GENERATORS)
            )
        for n in generators:
            if n.bit_length() > MAX_GENERATOR_BITS:
                raise ValueError(
                    "a slope generator of %d bits exceeds the budget of %d bits"
                    % (n.bit_length(), MAX_GENERATOR_BITS)
                )
        self._generators = tuple(generators)
        lam = 1
        for n in generators:
            lam *= n
        self._lam = lam
        # lam's factors are the generators' factors, so only the bounded
        # generators are ever factored
        factors = [_prime_factors(n) for n in generators]
        self._primes = tuple(sorted(set().union(*factors)))
        self._basis = _lattice_basis(factors, self._primes)
        # a pivot of 1 or -1 on every prime: every product of them is a slope
        self._all_slopes = len(self._basis) == len(self._primes) and all(
            abs(pivot[i]) == 1 for i, pivot in self._basis
        )

    @property
    def generators(self) -> tuple:
        return self._generators

    @property
    def lam(self) -> int:
        """Product of the generators; Y = Z[1/lam] mod 1."""
        return self._lam

    @property
    def prime_support(self) -> tuple:
        return self._primes

    def _divides_power(self, n: int) -> bool:
        # n > 0 divides some power of lam exactly when it divides
        # lam**n.bit_length(), as every prime exponent of n is below that
        return not pow(self._lam, n.bit_length(), n)

    def contains_coordinate(self, x: RationalLike) -> bool:
        """x in Z[1/lam] (as a circle coordinate, any representative)."""
        return self._divides_power(as_fraction(x).denominator)

    def coordinate_depth(self, x: RationalLike) -> int:
        """Least q with x a multiple of lam**-q (x must lie in Y)."""
        den = as_fraction(x).denominator
        if not self._divides_power(den):
            raise ValueError("%s is not a Z[1/%d] point" % (x, self._lam))
        q = 0
        power = 1
        while power % den:
            power *= self._lam
            q += 1
        return q

    def slope_in_group(self, s: RationalLike) -> bool:
        """s in the multiplicative group generated by n1, ..., nk."""
        sf = as_fraction(s)
        return self._has_slope(sf.numerator, sf.denominator)

    def _has_slope(self, num: int, den: int) -> bool:
        # num/den in lowest terms with den > 0
        if num <= 0:
            return False
        if self._all_slopes:
            return self._divides_power(num) and self._divides_power(den)
        exps = []
        for p in self._primes:
            e = 0
            while num % p == 0:
                e += 1
                num //= p
            while den % p == 0:
                e -= 1
                den //= p
            exps.append(e)
        if num != 1 or den != 1:
            return False
        for i, pivot in self._basis:
            c = exps[i] // pivot[i]
            exps = [a - c * b for a, b in zip(exps, pivot)]
        return not any(exps)

    def __eq__(self, other):
        if not isinstance(other, GroupDescriptor):
            return NotImplemented
        return self._generators == other._generators

    def __hash__(self):
        return hash(self._generators)

    def __repr__(self):
        return "GroupDescriptor(%s)" % ", ".join(str(n) for n in self._generators)

    def __str__(self):
        return "T_{%s}" % ",".join(str(n) for n in self._generators)


THOMPSON = GroupDescriptor(2)
STEIN_2_3 = GroupDescriptor(2, 3)


class Violation(NamedTuple):
    kind: str  # breakpoint-not-in-Y | image-not-in-Y | slope-not-in-P
    where: Fraction


class MembershipReport(NamedTuple):
    member: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.member


def is_member(f: PLCircleMap, descriptor: GroupDescriptor) -> MembershipReport:
    """Exact membership of a circle map, with per-item violations."""
    xs, ys = f._xs, f._ys
    violations = []
    for j in range(core.first_breakpoint(xs, ys), len(xs) - 1):
        if not descriptor._divides_power(xs[j][1]):
            violations.append(Violation("breakpoint-not-in-Y", Fraction(*xs[j])))
        n, d = ys[j]
        if not descriptor._divides_power(d):
            where = Fraction(n - d if n >= d else n, d)
            violations.append(Violation("image-not-in-Y", where))
    for n, d in dict.fromkeys(core.slopes(xs, ys)):
        if not descriptor._has_slope(n, d):
            violations.append(Violation("slope-not-in-P", Fraction(n, d)))
    return MembershipReport(not violations, tuple(violations))


def _cyclic_rotation_to_increasing(values) -> int:
    """Index r so that values[r:] + values[:r] is strictly increasing, else -1."""
    m = len(values)
    if m == 1:
        return 0
    descents = [i for i in range(m - 1) if values[i + 1] <= values[i]]
    for i in descents:
        if values[i + 1] == values[i]:
            return -1
    if not descents:
        return 0
    if len(descents) > 1 or values[0] <= values[-1]:
        return -1
    return descents[0] + 1


class TupleMapReport(NamedTuple):
    map: PLCircleMap
    refinement_depth: int


def tuple_map_report(xtuple, ytuple, descriptor: GroupDescriptor) -> TupleMapReport:
    """tuple_map plus the refinement depth its bookkeeping guarantees.

    Every breakpoint of the result is a multiple of lam**-depth, where the
    depth starts at the embedding depth q and each midpoint insertion into
    a gap of depth t contributes at most t + 1.
    """
    xs = [as_fraction(x) for x in xtuple]
    ys = [as_fraction(y) for y in ytuple]
    if len(xs) != len(ys):
        raise ValueError("tuples must have equal length")
    p = len(xs)
    if p == 0:
        raise ValueError("tuples must be nonempty")
    for e in xs + ys:
        if not 0 <= e < 1:
            raise ValueError("tuple entries live in [0, 1); got %s" % e)
        if not descriptor.contains_coordinate(e):
            raise ValueError("%s is not a Z[1/%d] point" % (e, descriptor.lam))
    if not descriptor.slope_in_group(2):
        raise ValueError(
            "descriptor %s cannot halve grid gaps (2 is not a product of the "
            "generators), so the tuple construction is unavailable" % descriptor
        )
    rx = _cyclic_rotation_to_increasing(xs)
    if rx < 0:
        raise ValueError("source tuple is not positively cyclically ordered")
    if _cyclic_rotation_to_increasing(ys) < 0:
        raise ValueError("target tuple is not positively cyclically ordered")
    # rotate both by the same index shift: pairing x_i -> y_i is preserved,
    # and the source becomes strictly increasing
    xs = xs[rx:] + xs[:rx]
    ys = ys[rx:] + ys[:rx]
    # the target is then a rotation of an increasing sequence; unwrap it to
    # linear coordinates on [ys[0], ys[0] + 1) so arcs are plain intervals
    ys_lin = [ys[0]] + [v if v > ys[0] else v + 1 for v in ys[1:]]

    q = max(1, max(descriptor.coordinate_depth(e) for e in xs + ys))
    lam_q = descriptor.lam**q

    def grid_arcs(points):
        # per arc, the interior lam**-q grid points in linear coordinates,
        # as mutable [value, depth] records; the final arc wraps past the
        # first point plus 1
        out = []
        for i in range(p):
            a = points[i]
            b = points[i + 1] if i + 1 < p else points[0] + 1
            ka = int(a * lam_q)  # entries are exact grid multiples
            kb = int(b * lam_q)
            out.append([[Fraction(k, lam_q), q] for k in range(ka + 1, kb)])
        return out

    xarcs = grid_arcs(xs)
    yarcs = grid_arcs(ys_lin)

    depth_used = q

    def equalize(short, short_lo, short_hi, want):
        # halve the leftmost largest gap until the arc has `want` interior
        # points; a heap keyed by (-gap, left endpoint) realizes exactly
        # that order, since gaps are disjoint and only ever split
        nonlocal depth_used
        need = want - len(short)
        if need <= 0:
            return
        pts = [(short_lo, q)] + [tuple(e) for e in short] + [(short_hi, q)]
        heap = [
            (a - b, a, b, da, db) for (a, da), (b, db) in zip(pts, pts[1:])
        ]
        heapq.heapify(heap)
        added = []
        for _ in range(need):
            _, a, b, da, db = heapq.heappop(heap)
            mid = (a + b) / 2
            d = max(da, db) + 1
            if d > depth_used:
                depth_used = d
            added.append([mid, d])
            heapq.heappush(heap, (a - mid, a, mid, da, d))
            heapq.heappush(heap, (mid - b, mid, b, d, db))
        short[:] = sorted(short + added)

    for i in range(p):
        cx = len(xarcs[i])
        cy = len(yarcs[i])
        if cx < cy:
            lo = xs[i]
            hi = xs[i + 1] if i + 1 < p else xs[0] + 1
            equalize(xarcs[i], lo, hi, cy)
        elif cy < cx:
            lo = ys_lin[i]
            hi = ys_lin[i + 1] if i + 1 < p else ys_lin[0] + 1
            equalize(yarcs[i], lo, hi, cx)

    pairs = []
    for i in range(p):
        pairs.append((xs[i], ys_lin[i]))
        for (xv, _), (yv, _) in zip(xarcs[i], yarcs[i]):
            pairs.append((xv, yv))
    pairs = [(x % 1, y % 1) for x, y in pairs]
    pairs.sort()
    result = PLCircleMap([x for x, _ in pairs], [y for _, y in pairs])
    return TupleMapReport(result, depth_used)


def tuple_map(xtuple, ytuple, descriptor: GroupDescriptor) -> PLCircleMap:
    """A member map sending x_i to y_i for cyclically ordered Y-tuples."""
    return tuple_map_report(xtuple, ytuple, descriptor).map


def irrational_candidate_g0() -> PLCircleMap:
    """The two-piece member of T_{2,3} with slopes 2 and 2/3.

    It doubles [0, 1/4) onto [1/2, 1) and maps [1/4, 1) affinely onto
    [0, 1/2).  In the multiplicative model of the circle (positive reals
    modulo tripling, with the logarithmic chart) this map is doubling, so
    its rotation number is log 2 / log 3.  The library only certifies
    exact finite facts about it: translation brackets and the absence of
    small rational rotation numbers.
    """
    return PLCircleMap(
        (Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(0))
    )


def center_generator_z() -> PLLineMap:
    """Unit translation x -> x + 1, the center of the lifted groups."""
    return lift(identity_map(), 1)


def torsion_rotation(descriptor: GroupDescriptor, p: int, q: int) -> PLCircleMap:
    """Rotation by p/q as a group member; p/q must lie in Z[1/lam] mod 1."""
    if isinstance(p, bool) or isinstance(q, bool):
        raise TypeError("p and q must be ints")
    if not isinstance(p, int) or not isinstance(q, int) or q <= 0:
        raise ValueError("need integers p and q with q > 0")
    r = Fraction(p, q) % 1
    if not descriptor.contains_coordinate(r):
        raise ValueError(
            "%s is not a Z[1/%d] point, so this rotation is not a member"
            % (r, descriptor.lam)
        )
    return rotation_map(r)


def random_tuple_pair(descriptor, rng, max_len=6, max_depth=4):
    """Aligned random (source, target) tuples on the lam**-q grid.

    Both tuples are sampled strictly increasing and then rotated by a
    common random shift, which preserves the pairing and exercises the
    cyclic normalization.  Returns (source, target, q).
    """
    q = rng.randint(1, max_depth)
    n = descriptor.lam**q
    p = rng.randint(1, min(max_len, n))
    xs = sorted(rng.sample(range(n), p))
    ys = sorted(rng.sample(range(n), p))
    shift = rng.randrange(p)
    xs = xs[shift:] + xs[:shift]
    ys = ys[shift:] + ys[:shift]
    return (
        tuple(Fraction(k, n) for k in xs),
        tuple(Fraction(k, n) for k in ys),
        q,
    )


def random_member(descriptor, rng, max_len=4, max_depth=3) -> PLCircleMap:
    """Random group member: a tuple_map image, sometimes twisted.

    Mixes in a grid rotation or an inverse so samples are not all of the
    same squint; the result is always an exact member.
    """
    xs, ys, q = random_tuple_pair(descriptor, rng, max_len, max_depth)
    f = tuple_map(xs, ys, descriptor)
    style = rng.randrange(4)
    if style == 0:
        n = descriptor.lam**q
        f = compose(f, rotation_map(Fraction(rng.randrange(n), n)))
    elif style == 1:
        f = invert(f)
    return f
