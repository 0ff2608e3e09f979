"""Pure-Python kernel for exact piecewise linear circle map grids.

A map is stored as the graph of its anchored lift over [0, 1]: parallel
tuples ``xs``, ``ys`` of rationals encoded as ``(numerator, denominator)``
pairs of Python ints.  Grid invariants:

    xs[0] == (0, 1),  xs[-1] == (1, 1),  xs strictly increasing,
    ys strictly increasing,  ys[-1] == ys[0] + 1,  0 <= ys[0] < 1.

Every pair is kept in lowest terms with a positive denominator, so equal
rationals are identical tuples and grid equality is plain tuple equality.
The circle map is x -> y(x) mod 1; the lift with integer offset k is
x -> y(x) + k.  A grid is canonical when no interior point sits on the
segment spanned by its neighbours.

Grids are canonical by construction: `compose` and `invert` take
canonical grids and emit canonical ones in the same walk, testing only
the few vertices that can be straight, with no second pass.
`canon_grid` is for grids that come from outside (the map constructor).

`compose` walks g's corners through the window [t0, t0 + 1], t0 = f~(0),
in one merge walk that reads them from one of two sources.  A one-shot
product reads g's grid in place: an index runs over g's corners from t0
up to 1 and then, shifted by one as each is read, from 0 up to t0, so
the call builds no table and no shifted copy of g.  A caller that
composes many maps with the same g builds `window(gxs, gys)` once, g's
grid stretched over [0, 2] with the line constants of each segment, and
passes it to every call; the walk then reads the table with no shift,
no anchor test and no per-segment differences.  Building that table
costs about twice a one-shot walk, so single products read in place.

The grid operations reduce each coordinate they emit once: intermediate
differences, products and slopes stay unreduced integers, compared by
cross-multiplication.  Adding an integer to a lowest-terms pair keeps it
in lowest terms, so the unit and carry shifts take no gcd at all.  An
image through a g segment takes two gcds against that segment's line
constants instead of one on its full numerator and denominator, and
`displacement`'s extremes stay unreduced.

This module is the only kernel: the map, rotation and stein layers call
it as ``plmonster._core``.
"""

from math import gcd

# the kernel's name, public as plmonster.BACKEND
BACKEND = "pure"

ZERO = (0, 1)
ONE = (1, 1)


def rat(n, d):
    """Lowest-terms pair with a positive denominator."""
    if d == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g > 1:
        return (n // g, d // g)
    return (n, d)


def rcmp(a, b):
    t = a[0] * b[1] - b[0] * a[1]
    if t > 0:
        return 1
    if t < 0:
        return -1
    return 0


def canon_grid(xs, ys):
    """Drop interior grid points whose neighbours are collinear with them.

    Endpoints are always kept; the anchor at x = 0 stays even when the two
    segments around it (cyclically) share a slope.
    """
    kept_x = [xs[0]]
    kept_y = [ys[0]]
    # unreduced slope of the last kept segment; a dropped point merges two
    # segments of equal slope, so at most one point goes per new point
    sn = sd = None
    xan, xad = xs[0]
    yan, yad = ys[0]
    for j in range(1, len(xs)):
        xj = xs[j]
        yj = ys[j]
        xbn, xbd = xj
        ybn, ybd = yj
        n = (ybn * yad - yan * ybd) * xbd * xad
        d = (xbn * xad - xan * xbd) * ybd * yad
        if sd is not None and n * sd == sn * d:
            kept_x[-1] = xj
            kept_y[-1] = yj
        else:
            kept_x.append(xj)
            kept_y.append(yj)
            sn = n
            sd = d
        xan, xad = xbn, xbd
        yan, yad = ybn, ybd
    return tuple(kept_x), tuple(kept_y)


def slopes(xs, ys):
    """Slope of every grid segment, in order, each reduced once."""
    out = []
    for j in range(1, len(xs)):
        (xan, xad), (xbn, xbd) = xs[j - 1], xs[j]
        (yan, yad), (ybn, ybd) = ys[j - 1], ys[j]
        n = (ybn * yad - yan * ybd) * xbd * xad
        out.append(rat(n, (xbn * xad - xan * xbd) * ybd * yad))
    return out


def _segment(xs, x):
    # rightmost j < len(xs) - 1 with xs[j] <= x
    lo = 0
    hi = len(xs) - 1
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if rcmp(xs[mid], x) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def _interp(xa, xb, ya, yb, x):
    # ya + (x - xa) * (yb - ya) / (xb - xa) for xa != xb, reduced once: rat
    # moves den's sign (that of xb - xa), so rotation's xa > xb calls are exact
    xan, xad = xa
    xbn, xbd = xb
    yan, yad = ya
    ybn, ybd = yb
    xn, xd = x
    den = xd * ybd * (xbn * xad - xan * xbd)
    num = (xn * xad - xan * xd) * (ybn * yad - yan * ybd) * xbd
    return rat(yan * den + num, yad * den)


def eval_lift(xs, ys, x):
    """Value of the anchored lift at x in [0, 1]."""
    j = _segment(xs, x)
    if xs[j] == x:
        return ys[j]
    return _interp(xs[j], xs[j + 1], ys[j], ys[j + 1], x)


def _slope(xa, xb, ya, yb):
    # unreduced slope (n, d) of the segment from (xa, ya) to (xb, yb), d > 0
    xan, xad = xa
    xbn, xbd = xb
    yan, yad = ya
    ybn, ybd = yb
    return (ybn * yad - yan * ybd) * xbd * xad, (xbn * xad - xan * xbd) * ybd * yad


def anchor_is_straight(xs, ys):
    """True when the first and the last segment share a slope (as one does)."""
    n1, d1 = _slope(xs[0], xs[1], ys[0], ys[1])
    n2, d2 = _slope(xs[-2], xs[-1], ys[-2], ys[-1])
    return n1 * d2 == n2 * d1


def first_breakpoint(xs, ys):
    """Index in the grid of the map's first canonical breakpoint.

    The canonical breakpoints are the interior grid points, and the
    anchor 0 when it is a corner or the map is a rotation (one segment).
    """
    return 0 if len(xs) == 2 or not anchor_is_straight(xs, ys) else 1


def window(gxs, gys):
    """g's grid stretched over [0, 2], for `compose` calls that share g.

    Three parallel sequences (xs, ys, hs): xs holds g's anchor 0, every
    corner c of g's lift in (0, 2] in increasing order, and one sentinel
    past 2 (g's first grid point after 0, shifted by two); the anchors 1
    and 2 are entries only when g has a corner there.  ys holds g~(c),
    and hs holds (h1, h2, h3), reduced by their common gcd with h3 > 0,
    such that g~(x) = (h1 + x h2) / h3 on the g segment ending at c,
    which starts at the entry before (none for the anchor).  A rotation
    (one segment) has only the anchor and the sentinel.
    """
    sg = len(gxs) - 1
    xs = list(gxs[:sg])
    ys = list(gys[:sg])
    if not anchor_is_straight(gxs, gys):
        xs.append(ONE)
        ys.append(gys[sg])
    # unit shifts keep lowest terms
    xs += [(n + d, d) for n, d in xs[1:]]
    ys += [(n + d, d) for n, d in ys[1:]]
    (n, d), (m, e) = gxs[1], gys[1]
    xs.append((n + 2 * d, d))
    ys.append((m + 2 * e, e))

    hs = [None]
    an, ad = ZERO
    un, ud = gys[0]
    for k in range(1, len(xs)):
        cn, cd = xs[k]
        vn, vd = ys[k]
        g1 = vd * (cn * ad - an * cd)
        g2 = (vn * ud - un * vd) * cd
        h1 = un * g1 - an * g2
        h2 = ad * g2
        h3 = ud * g1
        g = gcd(gcd(h1, h2), h3)
        hs.append((h1 // g, h2 // g, h3 // g))
        an, ad, un, ud = cn, cd, vn, vd
    return tuple(xs), tuple(ys), tuple(hs)


def compose(fxs, fys, gxs, gys, window=None):
    """Grid and integer carry of "apply f, then g".

    Returns (xs, ys, carry) where (xs, ys) is the anchored canonical grid
    of the composite circle map and carry = floor(g~(f~(0))) records how the
    anchored lifts stack (0 or 1); lift offsets add it on top of their own.

    One merge walk, with no search: g's corners in the window
    (t0, t0 + 1], t0 = f~(0), form a sorted stream, and the window end
    t0 + 1 closes it; f's images increase through the same window and
    end there, so the walk ends on the first stream point at or past
    t0 + 1.  Each f breakpoint below a stream point takes g~ from the g
    segment that point closes; the stream point then lands on an f
    breakpoint, or emits a vertex pulled back through the f segment
    around it.  The work is linear in the sizes of the two grids.

    The stream has one of two sources, and only where it stops and where
    a g segment's constants come from depend on which.  With
    ``window=None`` it is read in place from g's grid, shifted by one
    past 1, and each segment's constants are taken from its two ends; no
    table or shifted grid is built.  A ``window`` is `window(gxs, gys)`,
    built by the caller once for many products with the same g: the
    stream is then its entries from the first past t0, with no shift,
    and each segment's constants are read from the entry that closes it,
    the window end's from the first entry past t0 + 1.

    The inputs must be canonical, and then so is the output, with no
    second pass: an interior corner of f, or one of g strictly inside an
    f segment, is a corner of the composite.  So the stream leaves out
    g's anchor when g is straight there, and the only vertices tested
    are f breakpoints landing exactly on a corner of g, where the two
    slope changes may cancel.
    """
    if window is None:
        sx, sy, hs = gxs, gys, None
    else:
        sx, sy, hs = window
    t0 = fys[0]
    tn, td = t0
    # the stream source's segment around t0: sx[i - 1] <= t0 < sx[i]
    i = 1
    while sx[i][0] * td <= tn * sx[i][1]:
        i += 1  # g's grid point 1, or the table's sentinel, stops the scan
    if sx[i - 1] == t0:
        y0 = sy[i - 1]
    elif hs is None:
        y0 = _interp(gxs[i - 1], gxs[i], gys[i - 1], gys[i], t0)
    else:
        h1, h2, h3 = hs[i]  # reduced as the images below
        n = td * h1 + tn * h2
        g = gcd(h2, td)
        n, d = n // g, td // g
        g = gcd(n, h3)
        y0 = (n // g, d * (h3 // g))

    # the stream index q runs over sx[i:top]; in place, it then runs as
    # q - wrap over gxs[1:i], shifted by one (unit shifts keep lowest
    # terms).  From stop on it reads the window end
    if hs is None:
        # g's anchor at 1 is inside the window when t0 > 0, and a corner
        # unless g is straight there
        sg = len(gxs) - 1
        top = sg if tn == 0 or anchor_is_straight(gxs, gys) else sg + 1
        wrap = top - 1
        stop = top + i - 1
    else:
        # the table holds each corner of (0, 1] once more in (1, 2], so
        # the first entry past t0 + 1 is that many entries on
        stop = top = i + (len(sx) - 2) // 2

    out_x = [fxs[0]]
    out_y = [y0]
    landed = []
    sf = len(fxs) - 1
    j = 1  # the next f breakpoint, with image (bn, bd)
    bn, bd = fys[1]
    seg = 0  # the f segment whose pull-back constants are held
    # the current stream point c = (cn, cd) has g~(c) = v; the one before
    # it is a = (an, ad), with g~(a) = u
    an, ad = t0
    u = y0
    q = i
    while True:
        if q < top:
            cn, cd = sx[q]
            v = sy[q]
        elif q < stop:
            cn, cd = gxs[q - wrap]
            cn += cd
            vn, vd = gys[q - wrap]
            v = (vn + vd, vd)
        else:
            cn, cd = tn + td, td
            v = (y0[0] + y0[1], y0[1])

        s = bn * cd - cn * bd
        if s < 0:
            # f breakpoints below the stream point: g~ on the g segment
            # from (a, u) to (c, v), (h1 + x h2) / h3.  f's last image is
            # t0 + 1, at or above every stream point, so this stops by
            # j = sf
            if hs is None:
                un, ud = u
                vn, vd = v
                g1 = vd * (cn * ad - an * cd)
                g2 = (vn * ud - un * vd) * cd
                h1 = un * g1 - an * g2
                h2 = ad * g2
                h3 = ud * g1
            else:
                h1, h2, h3 = hs[q]
            while True:
                out_x.append(fxs[j])
                n = bd * h1 + bn * h2
                # gcd(n, bd) = gcd(h2, bd) as bn is prime to bd, and what
                # is left of n is prime to what is left of bd: two gcds on
                # smaller operands (Knuth, TAOCP 4.5.1)
                g = gcd(h2, bd)
                if g > 1:
                    n //= g
                    bd //= g
                g = gcd(n, h3)
                out_y.append((n // g, bd * (h3 // g)) if g > 1 else (n, bd * h3))
                j += 1
                bn, bd = fys[j]
                s = bn * cd - cn * bd
                if s >= 0:
                    break
        if s == 0:
            if j == sf:
                break  # the window end, on f's last image
            # lands exactly on a corner of g: both factors break, so the
            # vertex is tested once its right neighbour is out
            out_x.append(fxs[j])
            landed.append(len(out_y))
            out_y.append(v)
            j += 1
            bn, bd = fys[j]
        else:
            # strictly inside f's segment j - 1: pull the point back,
            # with the segment's differences taken once
            if seg != j:
                seg = j
                pn, pd = fxs[j - 1]
                rn, rd = fxs[j]
                sn, sd = fys[j - 1]
                e1 = rd * (bn * sd - sn * bd)
                e2 = (rn * pd - pn * rd) * bd
                e3 = pn * e1 - sn * e2
                e4 = sd * e2
                e5 = pd * e1
            n = cd * e3 + cn * e4
            d = cd * e5
            g = gcd(n, d)
            out_x.append((n // g, d // g) if g > 1 else (n, d))
            out_y.append(v)
        q += 1
        an, ad = cn, cd
        u = v
    out_x.append(fxs[sf])
    out_y.append(v)

    # a landed vertex goes when its neighbours are collinear with it;
    # the emitted points hold every corner, so raw neighbours will do
    for m in reversed(landed):
        x0n, x0d = out_x[m - 1]
        x1n, x1d = out_x[m]
        x2n, x2d = out_x[m + 1]
        y0n, y0d = out_y[m - 1]
        y1n, y1d = out_y[m]
        y2n, y2d = out_y[m + 1]
        # (y1 - y0)(x2 - x1) == (y2 - y1)(x1 - x0), common x1d y1d dropped
        if (y1n * y0d - y0n * y1d) * (x2n * x1d - x1n * x2d) * x0d * y2d == (
            y2n * y1d - y1n * y2d
        ) * (x1n * x0d - x0n * x1d) * y0d * x2d:
            del out_x[m]
            del out_y[m]

    # the raw walk ran from g~(f~(0)) = y0; the anchored grid starts in [0, 1)
    carry = y0[0] // y0[1]
    if carry:
        return tuple(out_x), tuple([(n - carry * d, d) for n, d in out_y]), carry
    return tuple(out_x), tuple(out_y), carry


def invert(xs, ys):
    """Grid and carry of the inverse circle map.

    The anchored lift L of the inverse satisfies L = (anchored inverse
    grid) + carry, with carry = 0 when y(0) = 0 and -1 otherwise; a lift
    with offset j inverts to offset carry - j.

    The input must be canonical, and then so is the output, with no
    second pass: swapping the axes keeps every corner a corner, and when
    y(0) = 0 the swapped grid is the answer.  Otherwise the input's
    anchor becomes an interior vertex, kept only if it is a corner.
    """
    s = len(xs) - 1
    if ys[0] == ZERO:
        return ys, xs, 0

    # the graph crosses 1 on segment c, ys[c] <= 1 < ys[c + 1], since
    # 0 < ys[0] < 1 < ys[s]; a is the last grid point below 1
    c = _segment(ys, ONE)
    if ys[c] == ONE:
        xc = xs[c]
        a = c - 1
    else:
        xc = _interp(ys[c], ys[c + 1], xs[c], xs[c + 1], ONE)
        a = c
    start = c + 1

    out_x = [ZERO]
    out_y = [xc]
    # j = s is the input's anchor, shifted: (ys[0], 1)
    end = s if anchor_is_straight(xs, ys) else s + 1
    for j in range(start, end):
        n, d = ys[j]
        out_x.append((n - d, d))
        out_y.append(xs[j])
    for j in range(1, a + 1):
        n, d = xs[j]
        out_x.append(ys[j])
        out_y.append((n + d, d))
    out_x.append(ONE)
    out_y.append((xc[0] + xc[1], xc[1]))
    return tuple(out_x), tuple(out_y), -1


def displacement(xs, ys):
    """Exact min and max of y(x) - x over [0, 1] (attained at grid points).

    Both come back unreduced, as (yn xd - xn yd, yd xd) with a positive
    denominator: callers compare them, floor-divide them or build a
    Fraction from them, so no gcd is taken.
    """
    xn, xd = xs[0]
    yn, yd = ys[0]
    lo_n = hi_n = yn * xd - xn * yd
    lo_d = hi_d = yd * xd
    for j in range(1, len(xs) - 1):
        xn, xd = xs[j]
        yn, yd = ys[j]
        n = yn * xd - xn * yd
        d = yd * xd
        if n * lo_d < lo_n * d:
            lo_n, lo_d = n, d
        elif n * hi_d > hi_n * d:
            hi_n, hi_d = n, d
    return (lo_n, lo_d), (hi_n, hi_d)
