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
interpolates linearly.  Each entry becomes its integer index on that grid,
and the cyclic-order checks, the common rotation, the target's unwrap and
every arc's bounds run on those indices.  Only the short side of an arc
that needs midpoints is made of Fractions: every starting gap is lam**-q,
and halving a gap leaves two gaps one level deeper, so a gap whose deeper
end has depth t has size lam**-q / 2**(t - q): the halving order is a heap
keyed by that integer depth and the left end, and no Fraction difference
is taken.  Arcs hold bare points: a midpoint's depth is only folded into
the report.  Midpoints stay inside Y and keep gap ratios in P exactly when
2 lies in P, which holds for the shipped descriptors.  Every other point
goes from its index to a lowest-terms kernel pair with one gcd, and the
construction emits the result's kernel grid itself, in x order from the
grid point 0 with integer unit shifts on pairs, so its points are never
reduced mod 1, sorted or checked again by the map constructor.

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
Only positive verdicts are cached: each map remembers the one descriptor
object it last passed the full check against (identity, not equality),
so a word that repeats an element checks it once per descriptor.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from . import _core as core
from .maps import (
    PLCircleMap,
    PLLineMap,
    RationalLike,
    _shown,
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


def _valuation(n: int, p: int) -> int:
    """The exponent of the prime p in n > 0, in O(log) big divisions."""
    if p == 2:
        return (n & -n).bit_length() - 1
    # p**(2**i) while it divides n; the exponent is below 2**i for the
    # last i, and its binary digits come off the ladder from the top
    ladder = [p]
    while n % ladder[-1] == 0:
        ladder.append(ladder[-1] * ladder[-1])
    e = 0
    for i in range(len(ladder) - 2, -1, -1):
        if n % ladder[i] == 0:
            n //= ladder[i]
            e += 1 << i
    return e


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
            raise ValueError("%s is not a Z[1/%d] point" % (_shown(x, str), self._lam))
        return self._depth(den)

    def _depth(self, den: int) -> int:
        # least q with den dividing lam**q; den must divide a power of lam,
        # so q is the largest ceil(v_p(den) / v_p(lam)) over lam's primes p
        q = 0
        for p in self._primes:
            e = _valuation(den, p)
            if e:
                q = max(q, -(-e // _valuation(self._lam, p)))
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


_MEMBER = MembershipReport(True, ())


def is_member(f: PLCircleMap, descriptor: GroupDescriptor) -> MembershipReport:
    """Exact membership of a circle map, with per-item violations.

    A positive verdict is cached on the map, keyed by the descriptor's
    identity: asking again with the same descriptor object returns at
    once, while an equal but distinct descriptor, or any other, runs the
    full check.  Maps and descriptors are immutable, so a cached verdict
    never goes stale, and threads racing on one map can only replace one
    true verdict with another.  A non-member is never cached: every check
    that finds violations reports them afresh.
    """
    if f._member_of is descriptor:
        return _MEMBER
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
    if violations:
        return MembershipReport(False, tuple(violations))
    f._member_of = descriptor
    return _MEMBER


def _cyclic_rotation_to_increasing(values) -> int:
    """Index r so that values[r:] + values[:r] is strictly increasing, else -1."""
    # a repeated value counts as a descent: a lone one leaves the values
    # nondecreasing, so the values[0] <= values[-1] test refuses it
    descents = [i for i in range(len(values) - 1) if values[i + 1] <= values[i]]
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
    lam = descriptor.lam
    den = 1
    for e in xs + ys:
        num, d = e.numerator, e.denominator
        if not 0 <= num < d:
            raise ValueError("tuple entries live in [0, 1); got %s" % _shown(e, str))
        if not descriptor._divides_power(d):
            raise ValueError("%s is not a Z[1/%d] point" % (_shown(e, str), lam))
        den = lcm(den, d)
    q = max(1, descriptor._depth(den))
    if not descriptor._has_slope(2, 1):
        raise ValueError(
            "descriptor %s cannot halve grid gaps (2 is not a product of the "
            "generators), so the tuple construction is unavailable" % descriptor
        )
    # every entry as its index on the lam**-q grid
    n = lam**q
    kx = [e.numerator * (n // e.denominator) for e in xs]
    ky = [e.numerator * (n // e.denominator) for e in ys]
    rx = _cyclic_rotation_to_increasing(kx)
    if rx < 0:
        raise ValueError("source tuple is not positively cyclically ordered")
    if _cyclic_rotation_to_increasing(ky) < 0:
        raise ValueError("target tuple is not positively cyclically ordered")
    # rotate both by the same index shift: pairing x_i -> y_i is preserved,
    # and the source becomes strictly increasing
    kx = kx[rx:] + kx[:rx]
    ky = ky[rx:] + ky[:rx]
    # the target is then a rotation of an increasing sequence; unwrap it to
    # linear coordinates on [ky[0], ky[0] + n) so arcs are plain intervals,
    # and close both with the first point plus 1
    ky = [ky[0]] + [k if k > ky[0] else k + n for k in ky[1:]]
    kx.append(kx[0] + n)
    ky.append(ky[0] + n)

    depth_used = q

    def equalize(short, short_lo, short_hi, want):
        # halve the leftmost largest gap until the arc has `want` interior
        # points, more than it has.  A gap is keyed by t, the depth of its
        # deeper end: starting gaps are lam**-q with ends of depth q, and
        # halving a gap keyed t leaves two halves keyed t + 1 (the
        # midpoint's depth), so its size is lam**-q / 2**(t - q) and a heap
        # on (t, left endpoint) pops in exactly that order.  Gaps are
        # disjoint and only ever split, so no two entries tie on both.
        # Only this short side of an arc is made of Fractions, and its
        # points are bare: a midpoint's depth only feeds depth_used.
        nonlocal depth_used
        need = want - len(short)
        pts = [short_lo, *short, short_hi]
        heap = [(q, a, b) for a, b in zip(pts, pts[1:])]
        heapq.heapify(heap)
        added = []
        for _ in range(need):
            t, a, b = heapq.heappop(heap)
            mid = (a + b) / 2
            d = t + 1
            if d > depth_used:
                depth_used = d
            added.append(mid)
            heapq.heappush(heap, (d, a, mid))
            heapq.heappush(heap, (d, mid, b))
        short[:] = sorted(short + added)

    def side(lo, hi, want):
        # kernel pairs of one side of an arc between grid indices lo < hi:
        # its start and `want` interior points, the grid points in between
        # plus midpoints when the side has fewer
        if hi - lo - 1 == want:
            return [(k // (g := gcd(k, n)), n // g) for k in range(lo, hi)]
        short = [Fraction(k, n) for k in range(lo + 1, hi)]
        equalize(short, Fraction(lo, n), Fraction(hi, n), want)
        g = gcd(lo, n)
        return [(lo // g, n // g)] + [(f.numerator, f.denominator) for f in short]

    # the graph's points in x order and linear coordinates, from
    # (kx[0], ky[0]) up to the last arc's wrap past 1
    gx, gy = [], []
    for i in range(p):
        want = max(kx[i + 1] - kx[i], ky[i + 1] - ky[i]) - 1
        gx += side(kx[i], kx[i + 1], want)
        gy += side(ky[i], ky[i + 1], want)
    # the kernel grid starts at x = 1, which is 0 on the circle: a grid
    # point inside the last arc, or, when kx[0] is 0, the first point plus
    # 1, whose value has floor 1.  The points from x = 1 on (the head)
    # move down by 1 in x and by k in y, where k is the floor of the
    # graph's value at x = 1, so y(0) lies in [0, 1); the points before
    # x = 1 (the tail) move down by k - 1 in y.  A pair stays in lowest
    # terms under an integer shift, and the emitted grid is already sorted.
    w = gx.index(core.ONE) if kx[0] else len(gx)
    k = gy[w][0] // gy[w][1] if kx[0] else 1
    gx = [(a - b, b) for a, b in gx[w:]] + gx[:w]
    gy = [(a - k * b, b) for a, b in gy[w:]] + [(a - (k - 1) * b, b) for a, b in gy[:w]]
    gx.append(core.ONE)
    gy.append((gy[0][0] + gy[0][1], gy[0][1]))
    result = PLCircleMap._from_grid(*core.canon_grid(gx, gy))
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
    return PLCircleMap._from_grid(((0, 1), (1, 4), (1, 1)), ((1, 2), (1, 1), (3, 2)))


def center_generator_z() -> PLLineMap:
    """Unit translation x -> x + 1, the center of the lifted groups."""
    return center_power(1)


def center_power(k: int) -> PLLineMap:
    """z**k: the translation x -> x + k, the lift of the identity with offset k."""
    return lift(identity_map(), k)


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
            % (_shown(r, str), descriptor.lam)
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
