"""The grid kernel against an independent Fraction reference.

The reference below shares no code with the kernel: it evaluates anchored
lifts with `Fraction`, finds the corners of composites and inverses by
solving for preimages of breakpoints, and keeps exactly the points where
the slope changes.  Each kernel output must equal it tuple for tuple,
which also pins lowest terms and positive denominators, and must satisfy
the grid invariants of `plmonster._core`.
"""

import random
from fractions import Fraction as F
from math import floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmonster import _core
from plmonster.maps import compose, invert, rotation_map
from plmonster.stein import (
    STEIN_2_3,
    THOMPSON,
    irrational_candidate_g0,
    random_member,
    tuple_map,
)

def fracs(pairs):
    return [F(n, d) for n, d in pairs]


def pair(q):
    return (q.numerator, q.denominator)


def pairs(values):
    return tuple(pair(q) for q in values)


def lift_at(xs, ys, t):
    """Anchored lift of the grid (Fractions) at any rational t."""
    k = floor(t)
    x = t - k
    for j in range(len(xs) - 1):
        if xs[j] <= x <= xs[j + 1]:
            s = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
            return ys[j] + (x - xs[j]) * s + k
    raise AssertionError("grid does not cover %s" % x)


def ref_canon(xs, ys):
    keep = [0]
    for j in range(1, len(xs) - 1):
        left = (ys[j] - ys[j - 1]) / (xs[j] - xs[j - 1])
        right = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        if left != right:
            keep.append(j)
    keep.append(len(xs) - 1)
    return [xs[j] for j in keep], [ys[j] for j in keep]


def lift_inverse_at(xs, ys, v):
    """The t with lift_at(xs, ys, t) == v, for any rational v."""
    m = floor(v - ys[0])
    v -= m
    for j in range(len(xs) - 1):
        if ys[j] <= v <= ys[j + 1]:
            return xs[j] + (v - ys[j]) * (xs[j + 1] - xs[j]) / (ys[j + 1] - ys[j]) + m
    raise AssertionError("grid does not cover %s" % v)


def ref_compose(f, g):
    fx, fy = f
    gx, gy = g
    # corners of g(f(x)): those of f, and where f's lift meets one of g's
    cuts = set(fx)
    for m in range(floor(fy[0]), floor(fy[-1]) + 1):
        for b in gx:
            if fy[0] < b + m < fy[-1]:
                cuts.add(lift_inverse_at(fx, fy, b + m))
    xs = sorted(cuts)
    hs = [lift_at(gx, gy, lift_at(fx, fy, x)) for x in xs]
    carry = floor(hs[0])
    xs, ys = ref_canon(xs, [h - carry for h in hs])
    return xs, ys, carry


def ref_invert(f):
    fx, fy = f
    # corners of the inverse: f's grid values brought back into [0, 1]
    xs = sorted({y - floor(y) for y in fy} | {F(0), F(1)})
    inv = [lift_inverse_at(fx, fy, x) for x in xs]
    carry = floor(inv[0])
    xs, ys = ref_canon(xs, [v - carry for v in inv])
    return xs, ys, carry


def assert_canonical(xs, ys):
    for n, d in xs + ys:
        assert d > 0 and gcd(n, d) == 1
    fx, fy = fracs(xs), fracs(ys)
    assert fx[0] == 0 and fx[-1] == 1
    assert 0 <= fy[0] < 1 and fy[-1] == fy[0] + 1
    assert all(a < b for a, b in zip(fx, fx[1:]))
    assert all(a < b for a, b in zip(fy, fy[1:]))
    assert ref_canon(fx, fy) == (fx, fy)


def check_kernel(f, g):
    fx, fy = f
    gx, gy = g
    assert _core.canon_grid(fx, fy) == (fx, fy)

    xs, ys, carry = _core.compose(fx, fy, gx, gy)
    assert_canonical(xs, ys)
    rx, ry, rc = ref_compose((fracs(fx), fracs(fy)), (fracs(gx), fracs(gy)))
    assert (xs, ys, carry) == (pairs(rx), pairs(ry), rc)

    xs, ys, carry = _core.invert(fx, fy)
    assert_canonical(xs, ys)
    rx, ry, rc = ref_invert((fracs(fx), fracs(fy)))
    assert (xs, ys, carry) == (pairs(rx), pairs(ry), rc)

    lo, hi = _core.displacement(fx, fy)
    d = [y - x for x, y in zip(fracs(fx), fracs(fy))]
    assert (lo, hi) == (pair(min(d)), pair(max(d)))

    for x in fracs(fx + gx + gy[:-1]):
        x -= floor(x)
        assert _core.eval_lift(fx, fy, pair(x)) == pair(lift_at(fracs(fx), fracs(fy), x))


def member_grids(descriptor, count, seed):
    rng = random.Random(seed)
    maps = [random_member(descriptor, rng, max_len=6, max_depth=3) for _ in range(count)]
    return [(f._xs, f._ys) for f in maps]


@pytest.mark.parametrize("descriptor", [THOMPSON, STEIN_2_3], ids=["thompson", "stein23"])
def test_kernel_matches_reference_on_member_grids(descriptor):
    grids = member_grids(descriptor, 24, seed=descriptor.lam)
    for f in grids:
        for g in grids[:6]:
            check_kernel(f, g)


def test_kernel_matches_reference_on_g0_iterates():
    g0 = irrational_candidate_g0()
    g = f = (g0._xs, g0._ys)
    for _ in range(60):
        check_kernel(f, g)
        f = _core.compose(f[0], f[1], g[0], g[1])[:2]
    assert max(abs(v).bit_length() for v in sum(f[0] + f[1], ())) > 60


def test_canon_grid_drops_exactly_the_collinear_points():
    rng = random.Random(7)
    for f in member_grids(STEIN_2_3, 30, seed=9):
        fx, fy = fracs(f[0]), fracs(f[1])
        for _ in range(4):
            j = rng.randrange(len(fx) - 1)
            t = F(rng.randint(1, 9), rng.choice([10, 7, 1 << 40]))
            fx.insert(j + 1, fx[j] + t * (fx[j + 1] - fx[j]))
            fy.insert(j + 1, fy[j] + t * (fy[j + 1] - fy[j]))
        assert _core.canon_grid(pairs(fx), pairs(fy)) == f


@st.composite
def big_grids(draw):
    m = draw(st.sampled_from([64, 3**20, 2**70]))
    cuts = draw(st.sets(st.integers(1, m - 1), max_size=6))
    xs = [F(0)] + [F(c, m) for c in sorted(cuts)] + [F(1)]
    vals = draw(
        st.sets(st.integers(0, 3 * m - 1), min_size=len(xs) - 1, max_size=len(xs) - 1)
    )
    ys = [F(v, 3 * m) for v in sorted(vals)]
    ys.append(ys[0] + 1)
    xs, ys = ref_canon(xs, ys)
    return pairs(xs), pairs(ys)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(f=big_grids(), g=big_grids())
def test_kernel_matches_reference_on_big_grids(f, g):
    check_kernel(f, g)


def hitting_grid(rng, g, t0):
    """An f grid from t0 to t0 + 1 whose images hit g's breakpoints.

    The images are every breakpoint of g's lift inside (t0, t0 + 1),
    those past 1 included, plus two more points, over random cuts.
    """
    window = {b + m for b in fracs(g[0]) for m in (0, 1) if t0 < b + m < t0 + 1}
    window |= {t0 + F(rng.randint(1, 98), 99) for _ in range(2)}
    ys = [t0] + sorted(window) + [t0 + 1]
    cuts = sorted(rng.sample(range(1, 1000), len(ys) - 2))
    xs, ys = ref_canon([F(0)] + [F(c, 1000) for c in cuts] + [F(1)], ys)
    return pairs(xs), pairs(ys)


def rigid(value):
    return ((0, 1), (1, 1)), (pair(value), pair(value + 1))


def test_compose_matches_reference_on_breakpoint_hits():
    rng = random.Random(11)
    gs = member_grids(STEIN_2_3, 6, seed=5) + member_grids(THOMPSON, 6, seed=6)
    gs += [rigid(F(0)), rigid(F(1, 3)), rigid(F(3, 4))]
    for g in gs:
        # t0 == 0, t0 on each of g's breakpoints, and t0 between them
        starts = {F(0), F(1, 7)} | {b for b in fracs(g[0])[:-1]}
        for t0 in sorted(starts):
            f = hitting_grid(rng, g, t0)
            check_kernel(f, g)
            check_kernel(g, f)


def conjugate_of_g0(rng, descriptor, depth, length):
    """h^-1 g0 h for a tuple map h of `length` points on the lam^-depth grid."""
    n = descriptor.lam**depth
    xs = sorted(rng.sample(range(n), length))
    ys = sorted(rng.sample(range(n), length))
    shift = rng.randrange(length)
    h = tuple_map(
        [F(k, n) for k in xs[shift:] + xs[:shift]],
        [F(k, n) for k in ys[shift:] + ys[:shift]],
        descriptor,
    )
    c = compose(compose(invert(h), irrational_candidate_g0()), h)
    return c._xs, c._ys


def dropped_landings(f, g, xs):
    """Corners of f landing on a corner of g that the composite grid xs lacks."""
    corners = set(fracs(g[0]))
    kept = set(fracs(xs))
    return sum(
        1
        for x, y in zip(fracs(f[0])[1:-1], fracs(f[1])[1:-1])
        if y - floor(y) in corners and x not in kept
    )


@pytest.mark.parametrize(
    "descriptor, depth, length",
    [(THOMPSON, 3, 3), (STEIN_2_3, 2, 2)],
    ids=["thompson", "stein23"],
)
def test_kernel_matches_reference_on_conjugate_iterates(descriptor, depth, length):
    # the g0 conjugates whose rotation numbers get certified: along their
    # iterates, corners of f^n land exactly on corners of f and the two
    # slope changes cancel
    g = f = conjugate_of_g0(random.Random(depth), descriptor, depth, length)
    dropped = 0
    for _ in range(60):
        check_kernel(f, g)
        xs, ys, _ = _core.compose(f[0], f[1], g[0], g[1])
        dropped += dropped_landings(f, g, xs)
        f = xs, ys
    assert dropped > 0


def test_kernel_matches_reference_on_straight_anchors_and_fixed_zero():
    rng = random.Random(13)
    ms = []
    for d in (THOMPSON, STEIN_2_3):
        members = (random_member(d, rng, max_len=6, max_depth=3) for _ in range(100))
        ms += [m for m in members if len(m._xs) > 2][:8]
    # x -> m(x + 1/7) - 1/7 is straight at 0, as m has no corner at 1/7
    a = rotation_map(F(1, 7))
    straight = [compose(compose(a, m), invert(a)) for m in ms]
    # m, then the rotation by -m(0), fixes 0
    fixed = [compose(m, rotation_map(-F(*m._ys[0]))) for m in ms]
    assert all(_core.anchor_is_straight(c._xs, c._ys) for c in straight)
    assert all(c._ys[0] == (0, 1) for c in fixed)
    gs = [(c._xs, c._ys) for c in straight]
    for f in gs + [(c._xs, c._ys) for c in fixed + ms]:
        # check_kernel also inverts f
        for g in gs[::4]:
            check_kernel(f, g)



def shifted_to(grid, t0):
    """The grid followed by the rotation that moves its f~(0) to t0 in [0, 1)."""
    r = t0 - F(*grid[1][0])
    return grid[0], pairs(y + r for y in fracs(grid[1]))


def test_compose_matches_reference_on_window_shapes():
    # compose reads g's corners in place, from g's segment around t0 up to
    # 1 and then shifted past 1; these windows put the start of that walk
    # at each end of g's grid
    rng = random.Random(17)
    ms = [
        random_member(d, rng, max_len=6, max_depth=3)
        for d in (THOMPSON, STEIN_2_3)
        for _ in range(20)
    ]
    grids = [(m._xs, m._ys) for m in ms]
    cornered = [g for g in grids if not _core.anchor_is_straight(*g)][:6]
    # x -> m(x + 1/7) - 1/7 is straight at 0, as m has no corner at 1/7
    a = rotation_map(F(1, 7))
    conjugates = (compose(compose(a, m), invert(a)) for m in ms)
    straight = [(c._xs, c._ys) for c in conjugates if len(c._xs) > 2][:6]
    # one interior corner (the anchor is then a corner too), as g0 has
    one_corner = [
        (((0, 1), pair(c), (1, 1)), pairs([y, y + w, y + 1]))
        for c, y, w in [
            (F(1, 4), F(1, 2), F(1, 2)),
            (F(2, 3), F(0), F(1, 9)),
            (F(5, 7), F(3, 8), F(7, 8)),
        ]
    ]
    fs = member_grids(STEIN_2_3, 4, seed=23) + member_grids(THOMPSON, 4, seed=24)
    assert all(_core.anchor_is_straight(*g) for g in straight)
    for g in cornered + straight + one_corner:
        gx = fracs(g[0])
        last = gx[-2]
        # inside g's last segment, where every stream point but g's anchor
        # comes from the shifted part, and on g's last interior corner
        starts = [last + (1 - last) * F(k, 5) for k in (1, 4)] + [last]
        if g in straight:
            starts += [F(1, 3), gx[1]]  # t0 > 0 with g straight at 1
        for t0 in starts:
            for f in [hitting_grid(rng, g, t0)] + [shifted_to(m, t0) for m in fs]:
                check_kernel(f, g)
