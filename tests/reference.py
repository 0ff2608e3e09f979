"""Fraction-only oracles for the library's exact verdicts, each written once.

A lift is a pair of Fraction lists (xs, ys): a line map's graph over
[0, 1], with xs[0] == 0, xs[-1] == 1 and ys[-1] == ys[0] + 1, its integer
offset included in ys.  `lift_of` reads one off a map's kernel grid; the
oracles work on lifts, Fractions and generator tuples with schoolbook
formulas, so none shares code with what it checks.  From the library this
module imports only the types, exceptions and message helper an answer
must equal, which `test_package.py` checks.
"""

import heapq
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from functools import lru_cache
from math import ceil, floor

from plmonster import (
    DisplacementInterval,
    DocumentError,
    MembershipReport,
    NonRationalCertificate,
    RationalRotation,
    Syllable,
    Violation,
)
from plmonster.maps import _shown

IDENTITY = ([F(0), F(1)], [F(0), F(1)])


def lift_of(f):
    """The lift of a circle map (offset 0) or of a line map."""
    offset = getattr(f, "offset", 0)
    grid = getattr(f, "base", f)
    return [F(*x) for x in grid._xs], [F(*y) + offset for y in grid._ys]


def pairs_of(values):
    """Fractions as the kernel's (numerator, denominator) pairs."""
    return tuple((v.numerator, v.denominator) for v in values)


def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError or TypeError it raises."""
    try:
        return fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def at(f, t):
    """f(t) for any rational t."""
    xs, ys = f
    k = floor(t)
    x = t - k if k else t
    j = bisect_right(xs, x) - 1
    y = ys[j] + (x - xs[j]) * (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    return y + k if k else y


def preimage(f, v):
    """The t with at(f, t) == v, for any rational v."""
    xs, ys = f
    m = floor(v - ys[0])
    v = v - m if m else v
    j = bisect_right(ys, v) - 1
    t = xs[j] + (v - ys[j]) * (xs[j + 1] - xs[j]) / (ys[j + 1] - ys[j])
    return t + m if m else t


def canon(xs, ys):
    """The ends and exactly the points where the slope changes."""
    slopes = [(ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) for j in range(len(xs) - 1)]
    keep = [0] + [j for j in range(1, len(xs) - 1) if slopes[j - 1] != slopes[j]]
    keep.append(len(xs) - 1)
    return [xs[j] for j in keep], [ys[j] for j in keep]


def anchored(f):
    """(xs, ys, carry): the kernel's form, f(0) brought into [0, 1)."""
    carry = floor(f[1][0])
    return f[0], [y - carry for y in f[1]], carry


def compose(f, g):
    """f first, then g: corners at f's, and where f meets one of g's."""
    (fx, fy), (gx, gy) = f, g
    points = {x: at(g, y) for x, y in zip(fx, fy)}
    for m in range(floor(fy[0]), floor(fy[-1]) + 1):
        # g's corners b with b + m strictly inside f's range
        lo, hi = bisect_right(gx, fy[0] - m), bisect_left(gx, fy[-1] - m)
        for b, c in zip(gx[lo:hi], gy[lo:hi]):
            points[preimage(f, b + m)] = c + m
    xs = sorted(points)
    return canon(xs, [points[x] for x in xs])


def invert(f):
    """Corners at f's values brought back into [0, 1]."""
    xs = sorted({y - floor(y) for y in f[1]} | {F(0), F(1)})
    return canon(xs, [preimage(f, x) for x in xs])


def power(f, n):
    """f composed with itself n times, by squaring (n < 0 inverts first)."""
    if n < 0:
        f, n = invert(f), -n
    acc = IDENTITY
    while n:
        if n % 2:
            acc = compose(acc, f)
        f, n = compose(f, f), n // 2
    return acc


def displacement(f):
    """min and max of f(x) - x, over the vertices."""
    d = [y - x for x, y in zip(*f)]
    return min(d), max(d)


def _rational(value):
    # as_fraction's coercion, and its messages
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coordinate")
    if isinstance(value, float):
        raise TypeError("refusing float %r; pass a Fraction or 'p/q' string" % (value,))
    return F(value)


def circle_grid(breakpoints, images):
    """`PLCircleMap(breakpoints, images)`'s canonical lift, or its error."""
    breaks = [_rational(b) for b in breakpoints]
    imgs = [_rational(v) for v in images]
    if len(breaks) != len(imgs):
        raise ValueError("breakpoints and images must have equal length")
    if not breaks:
        raise ValueError("a map needs at least one breakpoint")
    for name, values in (("breakpoint", breaks), ("image", imgs)):
        for v in values:
            if not 0 <= v < 1:
                raise ValueError("%s %s outside [0, 1)" % (name, _shown(v, str)))
    if any(b <= a for a, b in zip(breaks, breaks[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    if any(a == b for a, b in zip(imgs, imgs[1:])):
        raise ValueError("images must be distinct")
    descents = [i for i in range(len(imgs) - 1) if imgs[i + 1] < imgs[i]]
    if descents and (len(descents) > 1 or imgs[0] <= imgs[-1]):
        raise ValueError("images are not cyclically increasing (winding != 1)")
    return _unroll(breaks, imgs)


def _unroll(breaks, imgs):
    """The canonical lift through (breaks[i], imgs[i]), which wind once."""
    i = next((i + 1 for i in range(len(imgs) - 1) if imgs[i + 1] < imgs[i]), len(imgs))
    imgs = imgs[:i] + [v + 1 for v in imgs[i:]]
    if breaks[0] == 0:
        xs, ys = breaks + [F(1)], imgs + [imgs[0] + 1]
    else:
        slope = (imgs[0] + 1 - imgs[-1]) / (breaks[0] + 1 - breaks[-1])
        h1 = imgs[-1] + (1 - breaks[-1]) * slope
        xs, ys = [F(0)] + breaks + [F(1)], [h1 - 1] + imgs + [h1]
    if ys[0] < 0:
        ys = [v + 1 for v in ys]
    return canon(xs, ys)


def crossing_point(f, p):
    """The first x over the vertices with f(x) - x == p."""
    verts = list(zip(*f))
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        d0, d1 = y0 - x0, y1 - x1
        if d0 == p:
            return x0
        if (d0 - p) * (d1 - p) < 0:
            return x0 + (p - d0) / (d1 - d0) * (x1 - x0)
    raise ValueError("%d is outside the displacement interval" % p)


def rotation_number(f, max_denominator, depth):
    """The certificate loop, with the n-th iterate kept as a running product:
    its displacement over n brackets the value, and the certificate's bracket
    is the running intersection."""
    g = f
    lo = hi = None
    for n in range(1, depth + 1):
        dlo, dhi = displacement(g)
        p = ceil(dlo)
        if p <= dhi:
            return RationalRotation(F(p, n), crossing_point(g, p))
        if dlo == dhi:
            value = dlo / n
            witness = crossing_point(power(f, value.denominator), value.numerator)
            return RationalRotation(value, witness)
        lo = dlo / n if lo is None else max(lo, dlo / n)
        hi = dhi / n if hi is None else min(hi, dhi / n)
        g = compose(g, f)
    return NonRationalCertificate(max_denominator, DisplacementInterval(lo, hi))


def fraction_candidates(a, b, lo, hi):
    """Exponents k != 0 with k [a, b] meeting [lo, hi], for 0 < a <= b."""
    positive = range(max(1, ceil(lo / b)), (floor(hi / a) if hi > 0 else 0) + 1)
    negative = range(ceil(lo / a) if lo < 0 else 0, min(-1, floor(hi / b)) + 1)
    return positive, negative


class PowerReference:
    """The exponent k with candidate == base**k, or None.

    The base's bracket is the displacement of base**n over n, intersected
    over n = 1, 2, 4, ... until its width is at most a quarter of its
    distance from 0; a candidate's is its displacement.  Each exponent that
    `fraction_candidates` keeps is compared with base**k, a running product.
    """

    def __init__(self, base):
        self.up, self.down = [IDENTITY, base], [IDENTITY, invert(base)]
        iterate, n = base, 1
        lo, hi = displacement(base)
        while lo <= 0 <= hi or 4 * (hi - lo) > min(abs(lo), abs(hi)):
            iterate, n = compose(iterate, iterate), 2 * n
            dlo, dhi = displacement(iterate)
            lo, hi = max(lo, dlo / n), min(hi, dhi / n)
        self.sign, self.a, self.b = (1, lo, hi) if lo > 0 else (-1, -hi, -lo)

    def power(self, k):
        seq = self.up if k >= 0 else self.down
        while len(seq) <= abs(k):
            seq.append(compose(seq[-1], seq[1]))
        return seq[abs(k)]

    def detect(self, candidate):
        candidate = canon(*candidate)
        if candidate == IDENTITY:
            return 0
        positive, negative = fraction_candidates(self.a, self.b, *displacement(candidate))
        ks = [self.sign * k for k in (*positive, *negative)]
        return next((k for k in ks if self.power(k) == candidate), None)


@lru_cache(maxsize=None)
def _primes(generators):
    """The primes dividing some generator, by trial division."""
    primes = set()
    for n in generators:
        d = 2
        while d * d <= n:
            if n % d:
                d += 1
            else:
                primes.add(d)
                n //= d
        primes.add(n)
    return tuple(sorted(primes - {1}))


def _exponents(value, primes):
    """The exponent of each prime in value, or None when others divide it."""
    num, den = value.numerator, value.denominator
    exps = []
    for p in primes:
        e = 0
        while num % p == 0:
            num, e = num // p, e + 1
        while den % p == 0:
            den, e = den // p, e - 1
        exps.append(e)
    return exps if num == den == 1 else None


def in_ring(x, generators):
    """x in Z[1/lam]: no prime but lam's divides its denominator."""
    return _exponents(F(1, F(x).denominator), _primes(generators)) is not None


def coordinate_depth(x, lam):
    """The least q with x lam**q an integer; x must lie in Z[1/lam]."""
    q = 0
    while (x * lam**q).denominator != 1:
        q += 1
    return q


@lru_cache(maxsize=None)
def _pivots(generators):
    """Per prime, the pivot of the generators' exponent vectors in Hermite
    form, found by extended gcds (all zero where the prime has none)."""
    primes = _primes(generators)
    rows = [_exponents(F(g), primes) for g in generators]
    pivots = []
    for col in range(len(primes)):
        pivot = [0] * len(primes)
        for r in [r for r in rows if r[col]]:
            g, u, v = _egcd(pivot[col], r[col])
            a, b = pivot[col] // g, r[col] // g
            rows.append([a * y - b * x for x, y in zip(pivot, r)])
            pivot = [u * x + v * y for x, y in zip(pivot, r)]
        rows = [r for r in rows if not r[col]]
        pivots.append(tuple(pivot))
    return tuple(pivots)


def _egcd(a, b):
    """(g, u, v) with u a + v b == g == gcd(a, b)."""
    (r0, u0, v0), (r1, u1, v1) = (a, 1, 0), (b, 0, 1)
    while r1:
        c = r0 // r1
        (r0, u0, v0), (r1, u1, v1) = (r1, u1, v1), (r0 - c * r1, u0 - c * u1, v0 - c * v1)
    return (r0, u0, v0) if r0 > 0 else (-r0, -u0, -v0)


def in_slope_group(s, generators):
    """s in the group the generators span: its exponent vector reduces to 0
    against the pivots."""
    exps = _exponents(F(s), _primes(generators)) if s > 0 else None
    if exps is None:
        return False
    for col, pivot in enumerate(_pivots(generators)):
        c, rest = divmod(exps[col], pivot[col]) if pivot[col] else (0, exps[col])
        if rest:
            return False
        exps = [e - c * x for e, x in zip(exps, pivot)]
    return True


def slope_products(generators, bound):
    """Every product of generator powers with exponents in -bound..bound."""
    out = {F(1)}
    for g in generators:
        out = {v * F(g) ** e for v in out for e in range(-bound, bound + 1)}
    return out


def is_member(f, generators):
    """`is_member`'s report on a lift: corners and their images in Z[1/lam],
    then each distinct segment slope in the slope group, in grid order."""
    xs, ys = canon(*f)
    slopes = [(ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) for j in range(len(xs) - 1)]
    # the anchor 0 is a breakpoint when it is a corner or the map is rigid
    first = 0 if len(xs) == 2 or slopes[0] != slopes[-1] else 1
    violations = []
    for x, y in zip(xs[first:-1], ys[first:-1]):
        if not in_ring(x, generators):
            violations.append(Violation("breakpoint-not-in-Y", x))
        if not in_ring(y, generators):
            violations.append(Violation("image-not-in-Y", y - floor(y)))
    for s in dict.fromkeys(slopes):
        if not in_slope_group(s, generators):
            violations.append(Violation("slope-not-in-P", s))
    return MembershipReport(not violations, tuple(violations))


def tuple_map(xtuple, ytuple, lam):
    """The tuple construction: (its lift, its refinement depth).

    Embeds both tuples in the lam**-q grid, equalizes each arc pair by
    halving the leftmost largest gap of the shorter one with a heap (a
    midpoint is one deeper than its gap), then reduces every point mod 1,
    sorts the points and unrolls them as `circle_grid` does.  The input
    must be valid; no check is repeated.
    """
    xs, ys = [F(x) for x in xtuple], [F(y) for y in ytuple]
    p = len(xs)
    depth = q = max([1] + [coordinate_depth(e, lam) for e in xs + ys])
    n = lam**q
    r = xs.index(min(xs))
    xs, ys = xs[r:] + xs[:r] + [xs[r] + 1], ys[r:] + ys[:r]
    ys = [ys[0]] + [v if v > ys[0] else v + 1 for v in ys[1:]] + [ys[0] + 1]
    points = []
    for i in range(p):
        arcs = [[F(k, n) for k in range(int(e[i] * n) + 1, int(e[i + 1] * n))] for e in (xs, ys)]
        j = 0 if len(arcs[0]) <= len(arcs[1]) else 1
        short, ends = arcs[j], (xs, ys)[j]
        heap = [(a - b, a, b, q) for a, b in zip([ends[i]] + short, short + [ends[i + 1]])]
        heapq.heapify(heap)
        for _ in range(len(arcs[1 - j]) - len(short)):
            _, a, b, d = heapq.heappop(heap)
            mid = (a + b) / 2
            depth = max(depth, d + 1)
            short.append(mid)
            heapq.heappush(heap, (a - mid, a, mid, d + 1))
            heapq.heappush(heap, (mid - b, mid, b, d + 1))
        short.sort()
        points += [(xs[i], ys[i])] + list(zip(*arcs))
    points = sorted((x % 1, y % 1) for x, y in points)
    return _unroll([x for x, _ in points], [y for _, y in points]), depth


def closed_form_depth(xtuple, ytuple, lam):
    """`tuple_map`'s refinement depth in O(p) integer steps, with no walk.

    On the lam**-q grid an arc pair has N gaps on its short side and M on
    its long one.  When M > N, halving the leftmost largest gap takes all
    N gaps r = floor(log2(M / N)) levels down and then splits m = M - 2**r N
    of them once more, so the arc reaches depth q + r, plus 1 when m > 0.
    """
    pairs = [(F(e).numerator, F(e).denominator) for e in (*xtuple, *ytuple)]
    q = 1
    while any(lam**q % den for _, den in pairs):
        q += 1
    n = lam**q
    ks = [num * (n // den) for num, den in pairs]
    p = len(ks) // 2
    s = ks.index(min(ks[:p]))
    kx, ky = ks[s:p] + ks[:s], ks[p + s :] + ks[p : p + s]
    kx = kx + [kx[0] + n]
    ky = [ky[0]] + [k if k > ky[0] else k + n for k in ky[1:]] + [ky[0] + n]
    depth = q
    for i in range(p):
        short, long = sorted((kx[i + 1] - kx[i], ky[i + 1] - ky[i]))
        if long > short:
            r = (long // short).bit_length() - 1
            m = long - (short << r)
            depth = max(depth, q + r + (m > 0))
    return depth


def britton_reduce(ops, syllables):
    """Britton reduction by whole-word passes.

    Each pass merges adjacent same-factor syllables and drops identity
    syllables over the whole word; once a pass changes nothing, the
    leftmost edge-subgroup syllable is flipped into the other factor and
    the passes start again from the first syllable.
    """
    sylls = list(syllables)
    while True:
        merged = []
        changed = False
        for s in sylls:
            if ops.is_identity(s.factor, s.element):
                changed = True
            elif merged and merged[-1].factor == s.factor:
                element = ops.compose(s.factor, merged[-1].element, s.element)
                merged[-1] = Syllable(s.factor, element)
                changed = True
            else:
                merged.append(s)
        sylls = merged
        if changed:
            continue
        if len(sylls) < 2:
            return tuple(sylls)
        for i, s in enumerate(sylls):
            k = ops.edge_coefficient(s.factor, s.element)
            if k is not None:
                sylls[i] = Syllable(s.factor.other, ops.edge_element(s.factor.other, k))
                break
        else:
            return tuple(sylls)


def str_to_fraction(text):
    """`Fraction(text)`, canonical when formatting it gives text back (so
    under the host's int/str limit, at most 4,300 digits)."""
    if not isinstance(text, str) or not re.match(r"^-?\d+(/\d+)?$", text):
        raise DocumentError("expected a fraction string like '3' or '-1/4', got %s" % _shown(text))
    try:
        value = F(text)
    except ZeroDivisionError:
        raise DocumentError("zero denominator in %r" % text) from None
    if str(value) != text:
        raise DocumentError(
            "%r is not in canonical lowest-terms form (expected %r)" % (text, str(value))
        )
    return value
