"""Certified rotation and translation numbers for exact PL maps.

Everything here reduces to one exact primitive: for a lift fbar, the
displacement interval of fbar**n brackets n times the translation number,
and the bracket width stays below 1/n after dividing by n.  An integer in
the n-th displacement interval is equivalent to the translation number
being rational with denominator dividing n, and the witness equation
fbar**n (x) == x + p can be solved exactly on the grid.  Iterating the
test gives either an exact rational value with a periodic witness or a
certificate that no small-denominator rational is the value, together
with a shrinking bracket around it.

`rotation_number` first descends the Stern-Brocot tree toward the value:
between Farey neighbours a/b < tau < c/d every fraction has a
denominator of at least b + d, and the mediant's test needs the
(b+d)-th iterate, one composition of the two ends' iterates.  So the
descent finds a value p/q with q <= max_denominator, or proves that there
is none, in compositions that follow the path (a run of steps to one side
is searched by doubling), not q.  When it proves there is none, the
iterate loop runs the test for every q up to depth and builds the
certificate's bracket.

The same brackets drive `PowerDetector`, which decides whether a map is
an integer power of a fixed base map: brackets isolate finitely many
plausible exponents and exact structural equality confirms or rejects
each, so the answer has no numerical error in either direction.  A
candidate's first bracket is fbar(0) +- 1, read off its grid's first
image and its offset, since fbar(0) lies in the displacement interval of
width below 1; its grid is walked only when that bracket leaves too many
exponents.

`log_ratio_bounds` pins down ratios log(a)/log(b) between rationals using
only integer power comparisons, which is how irrational rotation numbers
of multiplicatively defined maps are matched against their brackets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from . import _core as core
from .maps import (
    DisplacementInterval,
    PLCircleMap,
    PLLineMap,
    compose,
    lift,
    power,
)


# PowerDetector's budgets and the bound of its power cache
ZERO_EXCLUSION_DEPTH = 64
CANDIDATE_LIMIT = 32
REFINE_LIMIT = 4096
POWER_CACHE_LIMIT = 64


class ZeroBracketError(ValueError):
    """Raised when iteration cannot separate a translation number from zero."""


class RationalRotation(NamedTuple):
    """Exact rational translation number with a periodic witness.

    ``value`` is in lowest terms, and ``witness`` is a point in [0, 1)
    with fbar**q (witness) == witness + p for p/q = value, which forces
    the translation number to equal p/q.
    """

    value: Fraction
    witness: Fraction

    @property
    def circle_value(self) -> Fraction:
        """Rotation number of the underlying circle map, in [0, 1)."""
        return self.value % 1


class NonRationalCertificate(NamedTuple):
    """Certificate that no rational with small denominator is the value.

    For every q up to ``max_denominator`` the q-th iterate's displacement
    interval contained no integer, which rules out every rational value
    with denominator at most ``max_denominator``.  ``bracket`` is the
    intersection of the per-iterate brackets and contains the true value.
    """

    max_denominator: int
    bracket: DisplacementInterval


def _as_lift(f) -> PLLineMap:
    if isinstance(f, PLLineMap):
        return f
    if isinstance(f, PLCircleMap):
        return lift(f, 0)
    raise TypeError("expected a circle map or a line map")


def _check_positive_int(value, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError("%s must be a positive integer" % name)


def translation_bracket(f, n: int = 1) -> DisplacementInterval:
    """Exact bracket around the translation number from the n-th iterate.

    The displacement interval of fbar**n divided by n; its width is below
    1/n and it always contains the translation number.  Circle maps are
    lifted with offset 0.
    """
    _check_positive_int(n, "n")
    g = power(_as_lift(f), n)
    lo, hi = _bracket(g.base._xs, g.base._ys, g.offset, n)
    return DisplacementInterval(Fraction(*lo), Fraction(*hi))


def _crossing_point(xs, ys, k: int, p: int) -> Fraction:
    """Exact x in [0, 1) with y(x) + k == x + p on the anchored grid.

    Requires p to lie in the displacement interval of the lift; the
    displacement is affine between grid points, so a sign change pins
    the crossing down by one interpolation of x against it.
    """
    t = p - k
    # y(x) - x - t at every grid point, unreduced over yd * xd > 0
    ds = [
        (yn * xd - xn * yd - t * yd * xd, yd * xd)
        for (xn, xd), (yn, yd) in zip(xs, ys)
    ]
    for i in range(len(ds) - 1):
        if ds[i][0] == 0:
            return Fraction(*xs[i])
        if ds[i][0] * ds[i + 1][0] < 0:
            x = core._interp(ds[i], ds[i + 1], xs[i], xs[i + 1], core.ZERO)
            return Fraction(*x)
    raise ValueError("%d is outside the displacement interval" % p)


def rational_rotation_test(f, q: int) -> Optional[RationalRotation]:
    """Decide whether the translation number is p/q for some integer p.

    The q-th iterate translates by q times the value, which lies in its
    displacement interval; the interval has width below 1, so it contains
    an integer exactly when the value is a fraction over q, and the
    crossing witness makes that exact.  Returns None when no integer is
    in the interval.
    """
    _check_positive_int(q, "q")
    fbar = _as_lift(f)
    g = power(fbar, q)
    (ln, ld), (hn, hd) = _bracket(g.base._xs, g.base._ys, g.offset)
    p = -(-ln // ld)
    if p * hd > hn:
        return None
    if math.gcd(p, q) > 1:
        return _rational(fbar, Fraction(p, q))
    return RationalRotation(Fraction(p, q), _crossing_point(g.base._xs, g.base._ys, g.offset, p))


def _rational(fbar: PLLineMap, value: Fraction) -> RationalRotation:
    """The translation number p/q = value, witnessed at fbar**q (lowest terms)."""
    g = power(fbar, value.denominator)
    return RationalRotation(
        value, _crossing_point(g.base._xs, g.base._ys, g.offset, value.numerator)
    )


def _side(node) -> int:
    """Where the translation number lies against a node's fraction.

    A node is (m, n, xs, ys, k): the fraction m/n and the lift's n-th
    iterate, a kernel grid with offset k.  Returns 1 when the iterate's
    displacement interval lies above m (the value is above m/n), -1 when
    it lies below, and 0 when it holds m, which makes the value m/n.
    """
    m, _, xs, ys, k = node
    (ln, ld), (hn, hd) = core.displacement(xs, ys)
    t = m - k
    if ln > t * ld:
        return 1
    if hn < t * hd:
        return -1
    return 0


def _mediant(u, v) -> tuple:
    """The node of the mediant of nodes u and v: one composition of iterates."""
    xs, ys, carry = core.compose(u[2], u[3], v[2], v[3])
    return (u[0] + v[0], u[1] + v[1], xs, ys, u[4] + v[4] + carry)


def _farey_descent(fxs, fys, fk: int, max_denominator: int) -> Optional[RationalRotation]:
    """The translation number p/q with q <= max_denominator, if there is one.

    A Stern-Brocot descent over Farey pairs a/b < tau < c/d of the lift
    (fxs, fys, fk), with nodes as in `_side`: the mediant (a+c)/(b+d) is
    tested with the (b+d)-th iterate, one `core.compose` of the two ends'
    iterates, and replaces the end on its side of tau, until b + d passes
    max_denominator.  Every fraction strictly between Farey neighbours
    has a denominator of at least b + d, so none up to max_denominator is
    then the value.  A run of steps that moves the same end, u + j v for
    the other end v, is searched one step at a time up to j = 4, then by
    doubling and bisection over the iterates of v**(2**i), so the
    compositions follow the logarithms of the value's partial quotients,
    not q.

    A hit is the reduced p/q with the q-th iterate, so it returns what the
    iterate loop of `rotation_number` returns at its first hit.  Returns
    None when the first iterate decides (its displacement interval holds
    an integer or is pinched), which the loop does at once, and when no
    p/q with q <= max_denominator is the value.
    """
    (ln, ld), (hn, hd) = _bracket(fxs, fys, fk)
    a = ln // ld
    if max_denominator < 2 or a * ld == ln or (a + 1) * hd <= hn or (ln, ld) == (hn, hd):
        return None
    # a/1 < tau < (a + 1)/1, both ends with the lift itself
    left, right = (a, 1, fxs, fys, fk), (a + 1, 1, fxs, fys, fk)
    node = _mediant(left, right)
    side = _side(node)
    fixed = right if side > 0 else left
    while side:
        # node, on tau's side, is step 1 of a run that adds `fixed` to the
        # moving end; step lo is on tau's side and step hi is not, or is
        # past max_denominator while hi_node is None
        lo, lo_node = 1, node
        hi, hi_node = (max_denominator - node[1]) // fixed[1] + 2, None
        powers = [fixed]  # the nodes of 2**i times fixed
        i = 0
        while hi - lo > 1:
            if lo + (1 << i) >= hi:
                i = (hi - lo - 1).bit_length() - 1
            elif i == len(powers):
                powers.append(_mediant(powers[-1], powers[-1]))
            node = _mediant(lo_node, powers[i])
            found = _side(node)
            if found == side:
                lo, lo_node = lo + (1 << i), node
                # the first steps go one at a time: most partial quotients
                # are small, and a square pays only in a longer run
                i += lo >= 4
            elif found:
                hi, hi_node = lo + (1 << i), node
            else:
                return _node_rotation(node)
        if hi_node is None:
            return None
        # tau lies between steps lo and lo + 1, so step lo + 1 is step 1
        # of a run the other way, which adds step lo
        fixed, node, side = lo_node, hi_node, -side
    return _node_rotation(node)


def _node_rotation(node) -> RationalRotation:
    """The value m/n of a node whose iterate's interval holds m, witnessed."""
    m, n, xs, ys, k = node
    return RationalRotation(Fraction(m, n), _crossing_point(xs, ys, k, m))


def rotation_number(
    f, max_denominator: int = 50, depth: int = 200
) -> Union[RationalRotation, NonRationalCertificate]:
    """Certified translation number (rotation number for circle maps).

    On the lift (offset 0 for a circle map), `_farey_descent` first
    decides whether a rational p/q with q <= ``max_denominator`` is the
    value: it composes one iterate per Stern-Brocot node on the path to
    the value (runs searched by doubling), not one per denominator, and
    a hit returns an exact RationalRotation.  When the first iterate
    already decides, or the descent proves no such p/q, the iterate loop
    runs the denominator-q test for q = 1, 2, ..., depth.  Its first hit
    returns an exact RationalRotation (with ``max_denominator`` < q <=
    depth after a descent that found none); a pinched (width zero)
    bracket also resolves the value exactly.  Otherwise the result is a
    NonRationalCertificate for ``max_denominator`` whose bracket
    intersects all depth iterate brackets.  Requires depth >=
    max_denominator so the certificate's claim is actually checked.

    The loop runs on kernel grids: the n-th iterate is a grid and an
    integer offset, composed with `core.compose`, and its displacement
    interval stays a pair of unreduced (numerator, denominator) pairs, so
    the integer point, the pinch test and the running bracket (kept over
    denominators d*n) are integer arithmetic.  Maps and Fractions are
    built only for the returned result.  Every iterate is composed with
    the same base grid, so its `core.window` table (its corners, their
    images and its segments' line constants) is built once per call and
    passed to each `core.compose`, which then redoes none of the base's
    set-up.
    """
    _check_positive_int(max_denominator, "max_denominator")
    _check_positive_int(depth, "depth")
    if depth < max_denominator:
        raise ValueError("depth must be at least max_denominator")
    fbar = _as_lift(f)
    fxs = fbar.base._xs
    fys = fbar.base._ys
    fk = fbar.offset
    found = _farey_descent(fxs, fys, fk, max_denominator)
    if found is not None:
        return found
    xs, ys, k = fxs, fys, fk
    window = core.window(fxs, fys)
    for n in range(1, depth + 1):
        # the n-th iterate's displacement interval, unreduced
        (ln, ld), (hn, hd) = _bracket(xs, ys, k)
        p = -(-ln // ld)
        if p * hd <= hn:
            # first hit: no integer appeared at any q < n, so p/n cannot
            # reduce (a reduced denominator would have fired earlier)
            return RationalRotation(Fraction(p, n), _crossing_point(xs, ys, k, p))
        if ln == hn and ld == hd:
            # the n-th iterate is a rigid translation by a non-integer,
            # so the value is exactly ln / (ld n); a witness exists at the
            # reduced denominator.  The unreduced ends have equal values
            # only on a rigid grid of two points, both read off its anchor
            return _rational(fbar, Fraction(ln, ld * n))
        nlo = (ln, ld * n)
        nhi = (hn, hd * n)
        lo, hi = (nlo, nhi) if n == 1 else _meet(lo, hi, nlo, nhi)
        if n < depth:
            xs, ys, carry = core.compose(xs, ys, fxs, fys, window)
            k += fk + carry
    bracket = DisplacementInterval(Fraction(*lo), Fraction(*hi))
    return NonRationalCertificate(max_denominator, bracket)


def is_translation(f) -> bool:
    """True when the map is rigid: x -> x + c for a constant c."""
    if isinstance(f, PLLineMap):
        f = f.base
    if not isinstance(f, PLCircleMap):
        raise TypeError("expected a circle map or a line map")
    # a canonical grid keeps an interior point only at a corner
    return len(f._xs) == 2


def log_ratio_bounds(a: int, b: int, denominator: int) -> tuple:
    """Exact bounds p/q <= log(a)/log(b) < (p+1)/q with q = denominator.

    Built from integer power comparisons only: p/q <= log(a)/log(b) is
    equivalent to b**p <= a**q, so the returned pair is a certificate and
    not a floating point estimate.  A float seed speeds up the search but
    never decides the answer.  The left bound is attained only when the
    ratio is exactly p/q; for multiplicatively independent a and b both
    inequalities are strict.
    """
    for name, v in (("a", a), ("b", b)):
        if isinstance(v, bool) or not isinstance(v, int) or v < 2:
            raise ValueError("%s must be an integer >= 2" % name)
    _check_positive_int(denominator, "denominator")
    q = denominator
    target = a**q
    p = int(q * math.log(a) / math.log(b))
    while p > 0 and b**p > target:
        p -= 1
    while b ** (p + 1) <= target:
        p += 1
    return (Fraction(p, q), Fraction(p + 1, q))


def _bracket(xs, ys, k: int, n: int = 1) -> tuple:
    """Displacement interval of the lift (xs, ys, k) divided by n.

    Two (numerator, denominator) pairs with positive denominators, not in
    lowest terms: callers compare them, floor-divide them or build a
    Fraction from them.
    """
    (ln, ld), (hn, hd) = core.displacement(xs, ys)
    return (ln + k * ld, ld * n), (hn + k * hd, hd * n)


def _meet(lo, hi, nlo, nhi) -> tuple:
    """Intersection of the brackets [lo, hi] and [nlo, nhi] of kernel pairs."""
    if core.rcmp(nlo, lo) > 0:
        lo = nlo
    if core.rcmp(nhi, hi) < 0:
        hi = nhi
    return lo, hi


def _candidates(a, b, lo, hi) -> tuple:
    """Exponents k != 0 for which k times [a, b] meets [lo, hi].

    All four ends are (numerator, denominator) pairs with positive
    denominators, and 0 < a <= b.  Returns the positive and the negative
    exponents as two ranges, found by integer floor and ceiling division.
    """
    an, ad = a
    bn, bd = b
    ln, ld = lo
    hn, hd = hi
    # positive k: k*[a, b] meets [lo, hi] iff lo/b <= k <= hi/a
    positive = range(max(1, -(-ln * bd // (ld * bn))), hn * ad // (hd * an) + 1)
    # negative k: [k*b, k*a] meets [lo, hi] iff lo/a <= k <= hi/b
    negative = range(-(-ln * ad // (ld * an)), min(-1, hn * bd // (hd * bn)) + 1)
    return positive, negative


class _BracketRefiner:
    """Doubling bracket for the translation number of one map.

    Tracks fbar**n for n = 1, 2, 4, ... and intersects the per-n brackets
    (see `_bracket`); the current bracket always contains the translation
    number and its width is below 1/n.  Building one walks the map's grid
    once (`core.displacement`) and each refinement composes a square, so
    `PowerDetector.detect` builds one for a candidate only when the
    grid-free bracket fbar(0) +- 1 leaves too many exponents.
    """

    __slots__ = ("power_map", "n", "lo", "hi")

    def __init__(self, fbar: PLLineMap):
        self.power_map = fbar
        self.n = 1
        self.lo, self.hi = _bracket(fbar.base._xs, fbar.base._ys, fbar.offset)

    def refine(self) -> None:
        g = self.power_map = compose(self.power_map, self.power_map)
        self.n *= 2
        nlo, nhi = _bracket(g.base._xs, g.base._ys, g.offset, self.n)
        self.lo, self.hi = _meet(self.lo, self.hi, nlo, nhi)


class PowerDetector:
    """Decides whether maps are integer powers of a fixed line map.

    The base map must have translation number separated from zero: its
    bracket is refined by repeated squaring, and ZeroBracketError is
    raised if zero survives ZERO_EXCLUSION_DEPTH iterates.  Once zero is
    out, squaring goes on to that depth, so the base bracket is narrower
    than 1 / ZERO_EXCLUSION_DEPTH.  ``detect`` brackets the candidate's
    translation number and keeps the finitely many exponents k for which
    k times the base bracket meets it.  The first bracket is fbar(0) +- 1:
    fbar(0) is the grid's first image plus the offset, and it lies in the
    displacement interval, whose width is below 1, so the bracket costs
    no pass over the grid and leaves about (2 + |k| w) / tau(base)
    exponents for base**k, w the base bracket's width.  Only while more
    than CANDIDATE_LIMIT survive does the candidate's grid come in: its
    displacement interval (which lies inside fbar(0) +- 1) and then both
    brackets refined by squaring, up to REFINE_LIMIT iterates.  Each
    survivor is confirmed by exact structural equality, so both positive
    and negative answers are exact, and at most one can match:
    base**j == base**k with j != k would give base**(j - k) translation
    number 0, but tau(base) != 0.  A negative base is handled through its
    inverse, whose bracket is the negated base bracket at every iterate.
    ``power`` is the one cache of base powers, shared by detection and the
    amalgam's edge elements; it keeps base**k for |k| <= POWER_CACHE_LIMIT
    only.
    """

    def __init__(self, base: PLLineMap):
        if not isinstance(base, PLLineMap):
            raise TypeError("base must be a line map")
        ref = _BracketRefiner(base)
        while ref.lo[0] <= 0 <= ref.hi[0]:
            if ref.n >= ZERO_EXCLUSION_DEPTH:
                raise ZeroBracketError(
                    "translation number bracket still contains 0 after "
                    "%d iterates" % ref.n
                )
            ref.refine()
        # squaring on to that depth narrows the base bracket, and with it
        # the exponents that a candidate's grid-free bracket leaves
        while ref.n < ZERO_EXCLUSION_DEPTH:
            ref.refine()
        self._base = base
        self._ref = ref
        self._sign = 1 if ref.lo[0] > 0 else -1
        self._powers = {}

    def power(self, k: int) -> PLLineMap:
        """base**k, cached for |k| <= POWER_CACHE_LIMIT."""
        cached = self._powers.get(k)
        if cached is None:
            cached = power(self._base, k)
            if abs(k) <= POWER_CACHE_LIMIT:
                self._powers[k] = cached
        return cached

    def detect(self, candidate: PLLineMap) -> Optional[int]:
        """k with candidate == base**k, or None when no power matches."""
        if not isinstance(candidate, PLLineMap):
            raise TypeError("candidate must be a line map")
        # the candidate's slots are read directly: Britton reduction
        # detects once per right-factor syllable
        ys = candidate._base._ys
        offset = candidate._offset
        if offset == 0 and ys == candidate._base._xs:
            return 0
        ref = self._ref
        # the first rung, fbar(0) +- 1 with fbar(0) = ys[0] + offset, reads
        # no grid; the displacement interval lies inside it
        yn, yd = ys[0]
        lo, hi = (yn + (offset - 1) * yd, yd), (yn + (offset + 1) * yd, yd)
        wref = None
        while True:
            a, b = ref.lo, ref.hi
            if self._sign < 0:
                # the inverse's bracket: the base bracket negated
                a, b = (-b[0], b[1]), (-a[0], a[1])
            positive, negative = _candidates(a, b, lo, hi)
            if len(positive) + len(negative) <= CANDIDATE_LIMIT:
                break
            if wref is None:
                wref = _BracketRefiner(candidate)
            elif wref.n >= REFINE_LIMIT:
                raise ValueError(
                    "cannot isolate candidate exponents within the "
                    "refinement limit"
                )
            else:
                wref.refine()
                ref.refine()
            lo, hi = wref.lo, wref.hi
        for k in sorted((*positive, *negative), key=abs):
            if self.power(self._sign * k) == candidate:
                return self._sign * k
        return None


def is_power_of(candidate: PLLineMap, base: PLLineMap) -> Optional[int]:
    """Exponent k with candidate == base**k, or None; see PowerDetector."""
    return PowerDetector(base).detect(candidate)
