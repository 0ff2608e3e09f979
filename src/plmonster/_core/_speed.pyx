# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled kernel for exact piecewise linear circle map grids.

Twin of the contract of ``plmonster/_core/pure.py``, not of its
algorithm: grids are parallel tuples of lowest-terms ``(numerator,
denominator)`` pairs of Python ints (arbitrary precision), anchored at
x = 0 and x = 1, and every function returns the same values as its pure
counterpart.  See the pure module for the grid invariants.  This file
keeps the earlier algorithm, which reduces every intermediate sum,
difference and product to lowest terms; the pure module reduces each
emitted coordinate once.
"""

from math import gcd

BACKEND_NAME = "compiled"

ZERO = (0, 1)
ONE = (1, 1)


cpdef tuple rat(n, d):
    """Lowest-terms pair with a positive denominator."""
    if d == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if d < 0:
        n = -n
        d = -d
    g = gcd(n, d)
    if g > 1:
        return (n // g, d // g)
    return (n, d)


cpdef tuple radd(tuple a, tuple b):
    return rat(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


cpdef tuple rsub(tuple a, tuple b):
    return rat(a[0] * b[1] - b[0] * a[1], a[1] * b[1])


cpdef tuple rmul(tuple a, tuple b):
    return rat(a[0] * b[0], a[1] * b[1])


cpdef tuple rdiv(tuple a, tuple b):
    return rat(a[0] * b[1], a[1] * b[0])


cpdef int rcmp(tuple a, tuple b):
    t = a[0] * b[1] - b[0] * a[1]
    if t > 0:
        return 1
    if t < 0:
        return -1
    return 0


cpdef rfloor(tuple a):
    return a[0] // a[1]


cpdef tuple canon_grid(xs, ys):
    """Drop interior grid points whose neighbours are collinear with them.

    Endpoints are always kept; the anchor at x = 0 stays even when the two
    segments around it (cyclically) share a slope.
    """
    cdef Py_ssize_t j, n = len(xs)
    cdef list kept_x = [xs[0]]
    cdef list kept_y = [ys[0]]
    for j in range(1, n):
        xj = xs[j]
        yj = ys[j]
        while len(kept_x) >= 2:
            x1 = kept_x[len(kept_x) - 1]
            y1 = kept_y[len(kept_y) - 1]
            lhs = rmul(rsub(y1, kept_y[len(kept_y) - 2]), rsub(xj, x1))
            rhs = rmul(rsub(yj, y1), rsub(x1, kept_x[len(kept_x) - 2]))
            if lhs == rhs:
                kept_x.pop()
                kept_y.pop()
            else:
                break
        kept_x.append(xj)
        kept_y.append(yj)
    return tuple(kept_x), tuple(kept_y)


cdef Py_ssize_t _segment(tuple xs, tuple x):
    # rightmost j < len(xs) - 1 with xs[j] <= x
    cdef Py_ssize_t lo = 0
    cdef Py_ssize_t hi = len(xs) - 1
    cdef Py_ssize_t mid
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if rcmp(xs[mid], x) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


cpdef tuple eval_lift(tuple xs, tuple ys, tuple x):
    """Value of the anchored lift at x in [0, 1]."""
    cdef Py_ssize_t j = _segment(xs, x)
    if xs[j] == x:
        return ys[j]
    num = rmul(rsub(x, xs[j]), rsub(ys[j + 1], ys[j]))
    return radd(ys[j], rdiv(num, rsub(xs[j + 1], xs[j])))


cdef tuple _ext(tuple gxs, tuple gys, tuple t):
    # anchored lift extended to [0, 2) by the unit-translation rule
    if rcmp(t, ONE) <= 0:
        return eval_lift(gxs, gys, t)
    return radd(eval_lift(gxs, gys, rsub(t, ONE)), ONE)


def compose(tuple fxs, tuple fys, tuple gxs, tuple gys):
    """Grid and integer carry of "apply f, then g".

    Returns (xs, ys, carry) where (xs, ys) is the anchored canonical grid
    of the composite circle map and carry = floor(g~(f~(0))) records how the
    anchored lifts stack (0 or 1); lift offsets add it on top of their own.
    """
    cdef Py_ssize_t sg = len(gxs) - 1
    cdef Py_ssize_t sf = len(fxs) - 1
    cdef Py_ssize_t i, j, k, ns
    cdef bint t0_zero

    t0 = fys[0]
    t0_zero = t0 == ZERO

    # breakpoints of g pulled into the open window (t0, t0 + 1)
    cdef list stream_t = []
    cdef list stream_v = []
    for i in range(1, sg + 1):
        if rcmp(gxs[i], t0) > 0 and not (i == sg and t0_zero):
            stream_t.append(gxs[i])
            stream_v.append(gys[i])
    for i in range(1, sg):
        if rcmp(gxs[i], t0) < 0:
            stream_t.append(radd(gxs[i], ONE))
            stream_v.append(radd(gys[i], ONE))

    cdef list out_x = [fxs[0]]
    cdef list out_y = [_ext(gxs, gys, t0)]
    ns = len(stream_t)
    k = 0
    for j in range(sf):
        tj = fys[j]
        tj1 = fys[j + 1]
        while k < ns and rcmp(stream_t[k], tj) <= 0:
            k += 1  # lands exactly on the vertex emitted already
        if k < ns and rcmp(stream_t[k], tj1) < 0:
            xj = fxs[j]
            dx = rsub(fxs[j + 1], xj)
            dt = rsub(tj1, tj)
            while k < ns and rcmp(stream_t[k], tj1) < 0:
                step = rdiv(rmul(rsub(stream_t[k], tj), dx), dt)
                out_x.append(radd(xj, step))
                out_y.append(stream_v[k])
                k += 1
        if j + 1 < sf:
            out_x.append(fxs[j + 1])
            out_y.append(_ext(gxs, gys, tj1))
        else:
            out_x.append(fxs[sf])
            out_y.append(radd(out_y[0], ONE))

    carry = rfloor(out_y[0])
    if carry:
        c = (carry, 1)
        out_y = [rsub(y, c) for y in out_y]
    xs, ys = canon_grid(out_x, out_y)
    return xs, ys, carry


def invert(tuple xs, tuple ys):
    """Grid and carry of the inverse circle map.

    The anchored lift L of the inverse satisfies L = (anchored inverse
    grid) + carry, with carry = 0 when y(0) = 0 and -1 otherwise; a lift
    with offset j inverts to offset carry - j.
    """
    cdef Py_ssize_t s = len(xs) - 1
    cdef Py_ssize_t lo, hi, mid, a, start, j

    if ys[0] == ZERO:
        ixs, iys = canon_grid(ys, xs)
        return ixs, iys, 0

    # rightmost a with ys[a] < 1
    lo = 0
    hi = s
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if rcmp(ys[mid], ONE) < 0:
            lo = mid
        else:
            hi = mid
    a = lo
    if ys[hi] == ONE:
        xc = xs[hi]
        start = hi + 1
    else:
        num = rmul(rsub(ONE, ys[a]), rsub(xs[hi], xs[a]))
        xc = radd(xs[a], rdiv(num, rsub(ys[hi], ys[a])))
        start = hi

    cdef list out_x = [ZERO]
    cdef list out_y = [xc]
    for j in range(start, s + 1):
        out_x.append(rsub(ys[j], ONE))
        out_y.append(xs[j])
    for j in range(1, a + 1):
        out_x.append(ys[j])
        out_y.append(radd(xs[j], ONE))
    out_x.append(ONE)
    out_y.append(radd(xc, ONE))
    ixs, iys = canon_grid(out_x, out_y)
    return ixs, iys, -1


def displacement(tuple xs, tuple ys):
    """Exact min and max of y(x) - x over [0, 1] (attained at grid points)."""
    cdef Py_ssize_t j, n = len(xs)
    cdef int c
    lo = rsub(ys[0], xs[0])
    hi = lo
    for j in range(1, n - 1):
        d = rsub(ys[j], xs[j])
        c = rcmp(d, lo)
        if c < 0:
            lo = d
        elif c > 0 and rcmp(d, hi) > 0:
            hi = d
    return lo, hi
