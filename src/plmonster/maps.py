"""Exact piecewise linear circle maps and their lifts to the line.

A circle map here is an orientation preserving piecewise linear bijection
of R/Z (degree 1), described by finitely many breakpoints in [0, 1) and
their images.  A line map is a lift: a PL homeomorphism of R commuting
with the unit translation, determined by a circle map together with an
integer offset k via  fbar(0) = f(0) + k  (taking the representative of
f(0) in [0, 1)).  All coordinates are arbitrary-precision rationals;
floats are rejected everywhere.

Composition convention: ``compose(f, g)`` applies ``f`` first, then ``g``,
so ``compose(f, g)(x) == g(f(x))``.  The product ``f * g`` follows the
same left-to-right order, as do words in the amalgam module.

Maps are kept in canonical form (no breakpoint whose removal leaves the
same function), and equality is structural equality of canonical forms,
which coincides with equality as functions.

Inside, a map is its kernel grid of (numerator, denominator) pairs: the
constructor turns each input into a pair once and validates and unrolls
on pairs, as the document reader does on the pairs it parses.  Fractions
exist only at the API edge: `as_fraction` for input, the breakpoint,
image, slope and vertex views, evaluation results, and error messages.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from . import _core as core

RationalLike = Union[Fraction, int, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce int, ``'p/q'`` string, or Fraction; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coordinate")
    if isinstance(value, float):
        raise TypeError("refusing float %r; pass a Fraction or 'p/q' string" % (value,))
    return Fraction(value)


def _pair(fr: Fraction):
    return (fr.numerator, fr.denominator)


def _frac(pair) -> Fraction:
    return Fraction(pair[0], pair[1])


# an integer of more digits than this is named in a message, not shown:
# 640 is the least int/str digit limit a host can set, so a message is
# the same bytes under every limit
_SHOWN_BOUND = 10**640


def _shown(value, render=repr) -> str:
    """render(value) for an error message about value.

    A value holding an integer of more than 640 digits, alone or inside a
    Fraction, a list or a dict, is named instead of shown.
    """
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, Fraction):
            stack += (v.numerator, v.denominator)
        elif isinstance(v, int):
            if abs(v) >= _SHOWN_BOUND:
                return "a value too large to show"
        elif isinstance(v, dict):
            stack += v.values()
        elif isinstance(v, list):
            stack += v
    return render(value)


def _checked_grid(breaks, imgs):
    """The canonical grid through lowest-terms breakpoint and image pairs
    (d > 0); the one validator of the constructor and the document reader."""
    if len(breaks) != len(imgs):
        raise ValueError("breakpoints and images must have equal length")
    if not breaks:
        raise ValueError("a map needs at least one breakpoint")
    # lowest-terms pairs, d > 0: 0 <= n/d < 1 is 0 <= n < d, equality
    # is tuple equality, and order is cross-multiplication
    for b in breaks:
        if not 0 <= b[0] < b[1]:
            raise ValueError("breakpoint %s outside [0, 1)" % _shown(_frac(b), str))
    for v in imgs:
        if not 0 <= v[0] < v[1]:
            raise ValueError("image %s outside [0, 1)" % _shown(_frac(v), str))
    for (an, ad), (bn, bd) in zip(breaks, breaks[1:]):
        if bn * ad <= an * bd:
            raise ValueError("breakpoints must be strictly increasing")

    tilde = imgs
    if len(imgs) > 1:
        descents = []
        for i, ((an, ad), (bn, bd)) in enumerate(zip(imgs, imgs[1:])):
            if an == bn and ad == bd:
                raise ValueError("images must be distinct")
            if bn * ad < an * bd:
                descents.append(i)
        if descents:
            (fn, fd), (ln, ld) = imgs[0], imgs[-1]
            if len(descents) > 1 or fn * ld <= ln * fd:
                raise ValueError("images are not cyclically increasing (winding != 1)")
            i = descents[0] + 1
            tilde = imgs[:i] + [(n + d, d) for n, d in imgs[i:]]

    tn, td = tilde[0]
    if breaks[0] == core.ZERO:
        grid_x = breaks + [core.ONE]
        grid_y = tilde + [(tn + td, td)]
    else:
        # value of the unrolled graph at x = 1, inside the closing segment
        bn, bd = breaks[0]
        hn, hd = core._interp(
            breaks[-1], (bn + bd, bd), tilde[-1], (tn + td, td), core.ONE
        )
        grid_x = [core.ZERO] + breaks + [core.ONE]
        grid_y = [(hn - hd, hd)] + tilde + [(hn, hd)]
        if hn < hd:
            grid_y = [(n + d, d) for n, d in grid_y]

    return core.canon_grid(grid_x, grid_y)


class PLCircleMap:
    """Orientation preserving PL bijection of the circle R/Z.

    Constructed from parallel sequences of breakpoints and image points,
    both in [0, 1); the image sequence must be cyclically strictly
    increasing (the map winds exactly once).  Between breakpoints the map
    interpolates affinely, wrapping once around the circle.
    """

    # _member_of is the last descriptor `stein.is_member` found this map a
    # member of, or None; only that function reads or writes it
    __slots__ = ("_xs", "_ys", "_member_of")

    def __init__(self, breakpoints, images):
        breaks = [_pair(as_fraction(b)) for b in breakpoints]
        self._xs, self._ys = _checked_grid(breaks, [_pair(as_fraction(v)) for v in images])
        self._member_of = None

    @classmethod
    def _from_grid(cls, xs, ys) -> "PLCircleMap":
        self = object.__new__(cls)
        self._xs = xs
        self._ys = ys
        self._member_of = None
        return self

    def _corners(self):
        """Pairs of the canonical breakpoints and of their images in [0, 1)."""
        xs, ys = self._xs, self._ys
        i = core.first_breakpoint(xs, ys)
        return xs[i:-1], [(n - d, d) if n >= d else (n, d) for n, d in ys[i:-1]]

    @property
    def breakpoints(self) -> tuple:
        """Canonical breakpoints: genuine corners, or (0,) for a rotation."""
        return tuple(map(_frac, self._corners()[0]))

    @property
    def images(self) -> tuple:
        """Circle images of the canonical breakpoints."""
        return tuple(map(_frac, self._corners()[1]))

    def segment_slopes(self) -> tuple:
        """Slopes of the grid segments (duplicates possible across x = 0)."""
        return tuple(_frac(s) for s in core.slopes(self._xs, self._ys))

    def is_identity(self) -> bool:
        return self._ys == self._xs

    def __call__(self, x: RationalLike) -> Fraction:
        return evaluate_circle(self, x)

    def __mul__(self, other):
        if isinstance(other, PLCircleMap):
            return compose(self, other)
        return NotImplemented

    def __pow__(self, n: int):
        return power(self, n)

    def __invert__(self):
        return invert(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLCircleMap):
            return NotImplemented
        return self._xs == other._xs and self._ys == other._ys

    def __hash__(self) -> int:
        return hash((self._xs, self._ys))

    def __repr__(self) -> str:
        b = ", ".join(str(x) for x in self.breakpoints)
        v = ", ".join(str(x) for x in self.images)
        return "PLCircleMap([%s] -> [%s])" % (b, v)


class PLLineMap:
    """Lift of a circle map: a PL homeomorphism of R commuting with x -> x + 1.

    Determined by the base circle map and an integer offset k, with
    fbar(0) = f(0) + k for the representative f(0) in [0, 1).
    """

    __slots__ = ("_base", "_offset")

    def __init__(self, base: PLCircleMap, offset: int):
        if not isinstance(base, PLCircleMap):
            raise TypeError("base must be a PLCircleMap")
        if isinstance(offset, bool) or not isinstance(offset, int):
            raise TypeError("offset must be an int")
        self._base = base
        self._offset = offset

    @classmethod
    def _from_parts(cls, base: PLCircleMap, offset: int) -> "PLLineMap":
        """The lift of base with offset, with neither argument checked.

        For products the library computed itself, as `PLCircleMap._from_grid`
        is for grids: base is a circle map and offset an int by construction.
        """
        self = object.__new__(cls)
        self._base = base
        self._offset = offset
        return self

    @property
    def base(self) -> PLCircleMap:
        return self._base

    @property
    def offset(self) -> int:
        return self._offset

    def is_identity(self) -> bool:
        return self._offset == 0 and self._base.is_identity()

    def graph_vertices(self) -> tuple:
        """Vertices (x, fbar(x)) of the graph over [0, 1], as Fractions.

        The map is affine between consecutive vertices and repeats with
        period 1 via fbar(x + 1) = fbar(x) + 1, so this determines it.
        """
        k = self._offset
        return tuple(
            (_frac(x), _frac(y) + k)
            for x, y in zip(self._base._xs, self._base._ys)
        )

    def __call__(self, x: RationalLike) -> Fraction:
        return evaluate_line(self, x)

    def __mul__(self, other):
        if isinstance(other, PLLineMap):
            return compose(self, other)
        return NotImplemented

    def __pow__(self, n: int):
        return power(self, n)

    def __invert__(self):
        return invert(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLLineMap):
            return NotImplemented
        return self._offset == other._offset and self._base == other._base

    def __hash__(self) -> int:
        return hash((self._base, self._offset))

    def __repr__(self) -> str:
        return "PLLineMap(base=%r, offset=%d)" % (self._base, self._offset)


class DisplacementInterval(NamedTuple):
    """Exact range [lo, hi] of fbar(x) - x; its width is always < 1."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, value) -> bool:
        v = as_fraction(value)
        return self.lo <= v <= self.hi

    def integer_point(self) -> Optional[int]:
        """The unique integer in [lo, hi], if any (width < 1 ensures unicity)."""
        p = math.ceil(self.lo)
        return p if p <= self.hi else None


def evaluate_circle(f: PLCircleMap, x: RationalLike) -> Fraction:
    """f(x) for x in [0, 1); the result is again in [0, 1)."""
    xf = as_fraction(x)
    if not 0 <= xf < 1:
        raise ValueError("circle points live in [0, 1); got %s" % _shown(xf, str))
    y = _frac(core.eval_lift(f._xs, f._ys, _pair(xf)))
    return y - 1 if y >= 1 else y


def evaluate_line(fbar: PLLineMap, x: RationalLike) -> Fraction:
    """fbar(x) for any rational x."""
    xf = as_fraction(x)
    n = math.floor(xf)
    y = _frac(core.eval_lift(fbar.base._xs, fbar.base._ys, _pair(xf - n)))
    return y + n + fbar.offset


def compose(f, g):
    """Apply ``f`` first, then ``g`` (both circle maps or both line maps).

    One `core.compose` of the two grids; a product of line maps adds the
    two offsets and the kernel's carry, floor(g~(f~(0))), to get its own.
    Both read the operands' slots and build the result with no
    constructor's checks, as Britton reduction makes one product per merge.
    """
    if isinstance(f, PLCircleMap) and isinstance(g, PLCircleMap):
        xs, ys, _ = core.compose(f._xs, f._ys, g._xs, g._ys)
        return PLCircleMap._from_grid(xs, ys)
    if isinstance(f, PLLineMap) and isinstance(g, PLLineMap):
        fb = f._base
        gb = g._base
        xs, ys, carry = core.compose(fb._xs, fb._ys, gb._xs, gb._ys)
        return PLLineMap._from_parts(
            PLCircleMap._from_grid(xs, ys), f._offset + g._offset + carry
        )
    raise TypeError("compose needs two circle maps or two line maps")


def invert(f):
    if isinstance(f, PLCircleMap):
        xs, ys, _ = core.invert(f._xs, f._ys)
        return PLCircleMap._from_grid(xs, ys)
    if isinstance(f, PLLineMap):
        xs, ys, carry = core.invert(f._base._xs, f._base._ys)
        return PLLineMap._from_parts(PLCircleMap._from_grid(xs, ys), carry - f._offset)
    raise TypeError("invert needs a circle map or a line map")


def power(f, n: int):
    """f composed with itself n times (negative n inverts first).

    Repeated squaring from the first factor (the identity only for n = 0);
    every intermediate product is canonicalized by the kernel, which keeps
    conjugate-shaped powers from blowing up.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError("exponent must be an int")
    if not isinstance(f, (PLCircleMap, PLLineMap)):
        raise TypeError("power needs a circle map or a line map")
    if n == 0:
        one = identity_map()
        return one if isinstance(f, PLCircleMap) else PLLineMap(one, 0)
    if n < 0:
        f = invert(f)
        n = -n
    acc = None
    base = f
    while n:
        if n & 1:
            acc = base if acc is None else compose(acc, base)
        n >>= 1
        if n:
            base = compose(base, base)
    return acc


def rotation_map(r: RationalLike) -> PLCircleMap:
    """Rigid rotation x -> x + r (mod 1); r is reduced mod 1."""
    rf = as_fraction(r) % 1
    xs = (core.ZERO, core.ONE)
    ys = (_pair(rf), _pair(rf + 1))
    return PLCircleMap._from_grid(xs, ys)


def identity_map() -> PLCircleMap:
    return rotation_map(0)


def lift(f: PLCircleMap, k: int) -> PLLineMap:
    """The unique lift of f with fbar(0) = f(0) + k (f(0) taken in [0, 1))."""
    return PLLineMap(f, k)


def project(fbar: PLLineMap) -> PLCircleMap:
    """The circle map induced by a lift; forgets the offset."""
    return fbar.base


def displacement_interval(fbar: PLLineMap) -> DisplacementInterval:
    """Exact [min, max] of fbar(x) - x, attained at breakpoints."""
    lo, hi = core.displacement(fbar.base._xs, fbar.base._ys)
    k = fbar.offset
    return DisplacementInterval(_frac(lo) + k, _frac(hi) + k)
