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

The same brackets drive `PowerDetector`, which decides whether a map is
an integer power of a fixed base map: brackets isolate finitely many
plausible exponents and exact structural equality confirms or rejects
each, so the answer has no numerical error in either direction.

`log_ratio_bounds` pins down ratios log(a)/log(b) between rationals using
only integer power comparisons, which is how irrational rotation numbers
of multiplicatively defined maps are matched against their brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import _core as core
from .maps import (
    DisplacementInterval,
    PLCircleMap,
    PLLineMap,
    compose,
    displacement_interval,
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


@dataclass(frozen=True, slots=True)
class RationalRotation:
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


@dataclass(frozen=True, slots=True)
class NonRationalCertificate:
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
    lo, hi = _bracket(power(_as_lift(f), n), n)
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
    p = displacement_interval(power(fbar, q)).integer_point()
    return None if p is None else _rational(fbar, Fraction(p, q))


def _rational(fbar: PLLineMap, value: Fraction) -> RationalRotation:
    """The translation number p/q = value, witnessed at fbar**q (lowest terms)."""
    g = power(fbar, value.denominator)
    return RationalRotation(
        value, _crossing_point(g.base._xs, g.base._ys, g.offset, value.numerator)
    )


def rotation_number(
    f, max_denominator: int = 50, depth: int = 200
) -> Union[RationalRotation, NonRationalCertificate]:
    """Certified translation number (rotation number for circle maps).

    Runs the denominator-q test for q = 1, 2, ..., depth on the lift
    (offset 0 for a circle map).  The first hit returns an exact
    RationalRotation; a pinched (width zero) bracket also resolves the
    value exactly.  Otherwise the result is a NonRationalCertificate for
    ``max_denominator`` whose bracket intersects all depth iterate
    brackets.  Requires depth >= max_denominator so the certificate's
    claim is actually checked.

    The loop runs on kernel grids: the n-th iterate is a grid and an
    integer offset, composed with `core.compose`, and its displacement
    interval stays a pair of (numerator, denominator) pairs, so the
    integer point, the pinch test and the running bracket (kept over
    denominators d*n) are integer arithmetic.  Maps and Fractions are
    built only for the returned result.
    """
    _check_positive_int(max_denominator, "max_denominator")
    _check_positive_int(depth, "depth")
    if depth < max_denominator:
        raise ValueError("depth must be at least max_denominator")
    fbar = _as_lift(f)
    fxs = fbar.base._xs
    fys = fbar.base._ys
    fk = fbar.offset
    xs, ys, k = fxs, fys, fk
    for n in range(1, depth + 1):
        # ln/ld + k and hn/hd + k: lowest terms, as the kernel's are
        (ln, ld), (hn, hd) = core.displacement(xs, ys)
        ln += k * ld
        hn += k * hd
        p = -(-ln // ld)
        if p * hd <= hn:
            # first hit: no integer appeared at any q < n, so p/n cannot
            # reduce (a reduced denominator would have fired earlier)
            return RationalRotation(Fraction(p, n), _crossing_point(xs, ys, k, p))
        if ln == hn and ld == hd:
            # the n-th iterate is a rigid translation by a non-integer,
            # so the value is exactly ln / (ld n); a witness exists at the
            # reduced denominator
            return _rational(fbar, Fraction(ln, ld * n))
        nlo = (ln, ld * n)
        nhi = (hn, hd * n)
        lo, hi = (nlo, nhi) if n == 1 else _meet(lo, hi, nlo, nhi)
        if n < depth:
            xs, ys, carry = core.compose(xs, ys, fxs, fys)
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


def _bracket(fbar: PLLineMap, n: int) -> tuple:
    """Displacement interval of fbar divided by n, as two kernel pairs.

    The pairs (numerator, denominator) have positive denominators but are
    not reduced; they are only compared and floor-divided.
    """
    (ln, ld), (hn, hd) = core.displacement(fbar.base._xs, fbar.base._ys)
    k = fbar.offset
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
    number and its width is below 1/n.
    """

    __slots__ = ("power_map", "n", "lo", "hi")

    def __init__(self, fbar: PLLineMap):
        self.power_map = fbar
        self.n = 1
        self.lo, self.hi = _bracket(fbar, 1)

    def refine(self) -> None:
        self.power_map = compose(self.power_map, self.power_map)
        self.n *= 2
        self.lo, self.hi = _meet(self.lo, self.hi, *_bracket(self.power_map, self.n))


class PowerDetector:
    """Decides whether maps are integer powers of a fixed line map.

    The base map must have translation number separated from zero: its
    bracket is refined by repeated squaring, and ZeroBracketError is
    raised if zero survives ZERO_EXCLUSION_DEPTH iterates.  ``detect``
    brackets the candidate's translation number, keeps the finitely many
    exponents k for which k times the base bracket meets it (refining
    both brackets while more than CANDIDATE_LIMIT survive, up to
    REFINE_LIMIT iterates), and confirms each survivor by exact
    structural equality, so both positive and negative answers are exact.
    A negative base is handled through its inverse, whose bracket is the
    negated base bracket at every iterate.  ``power`` is the one cache of
    base powers, shared by detection and the amalgam's edge elements; it
    keeps base**k for |k| <= POWER_CACHE_LIMIT only.
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
        self._base = base
        self._ref = ref
        self._sign = 1 if ref.lo[0] > 0 else -1
        self._powers = {}

    @property
    def base(self) -> PLLineMap:
        return self._base

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
        if candidate.is_identity():
            return 0
        ref = self._ref
        wref = _BracketRefiner(candidate)
        while True:
            a, b = ref.lo, ref.hi
            if self._sign < 0:
                # the inverse's bracket: the base bracket negated
                a, b = (-b[0], b[1]), (-a[0], a[1])
            positive, negative = _candidates(a, b, wref.lo, wref.hi)
            if len(positive) + len(negative) <= CANDIDATE_LIMIT:
                break
            if wref.n >= REFINE_LIMIT:
                raise ValueError(
                    "cannot isolate candidate exponents within the "
                    "refinement limit"
                )
            wref.refine()
            ref.refine()
        for k in sorted((*positive, *negative), key=abs):
            if self.power(self._sign * k) == candidate:
                return self._sign * k
        return None


def is_power_of(candidate: PLLineMap, base: PLLineMap) -> Optional[int]:
    """Exponent k with candidate == base**k, or None; see PowerDetector."""
    return PowerDetector(base).detect(candidate)
