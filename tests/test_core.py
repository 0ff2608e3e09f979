"""The grid kernel against an independent Fraction reference.

The reference (`reference.py`) shares no code with the kernel: it
evaluates lifts with `Fraction`, finds the corners of composites and
inverses by solving for preimages of breakpoints, and keeps exactly the
points where the slope changes.  Each kernel grid must equal it tuple for
tuple, which also pins lowest terms and positive denominators, and must
satisfy the grid invariants of `plmonster._core`; displacement extremes,
which the kernel leaves unreduced, must equal it in value.
"""

import random
from fractions import Fraction as F
from math import floor, gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import reference as ref
from plmonster import _core
from plmonster.maps import compose, invert, rotation_map
from plmonster.stein import (
    STEIN_2_3,
    THOMPSON,
    GroupDescriptor,
    irrational_candidate_g0,
    random_member,
    random_tuple_pair,
    tuple_map,
)
from pools import certify_conjugator, member_grids
from reference import pairs_of as pairs


def fracs(pairs):
    return [F(n, d) for n, d in pairs]


def pair(q):
    return (q.numerator, q.denominator)


def assert_canonical(xs, ys):
    for n, d in xs + ys:
        assert d > 0 and gcd(n, d) == 1
    fx, fy = fracs(xs), fracs(ys)
    assert fx[0] == 0 and fx[-1] == 1
    assert 0 <= fy[0] < 1 and fy[-1] == fy[0] + 1
    assert all(a < b for a, b in zip(fx, fx[1:]))
    assert all(a < b for a, b in zip(fy, fy[1:]))
    assert ref.canon(fx, fy) == (fx, fy)


def check_kernel(f, g):
    fx, fy = f
    gx, gy = g
    assert _core.canon_grid(fx, fy) == (fx, fy)

    rf, rg = (fracs(fx), fracs(fy)), (fracs(gx), fracs(gy))
    xs, ys, carry = _core.compose(fx, fy, gx, gy)
    assert_canonical(xs, ys)
    rx, ry, rc = ref.anchored(ref.compose(rf, rg))
    assert (xs, ys, carry) == (pairs(rx), pairs(ry), rc)
    assert _core.compose(fx, fy, gx, gy, window=_core.window(gx, gy)) == (xs, ys, carry)

    xs, ys, carry = _core.invert(fx, fy)
    assert_canonical(xs, ys)
    rx, ry, rc = ref.anchored(ref.invert(rf))
    assert (xs, ys, carry) == (pairs(rx), pairs(ry), rc)

    # displacement extremes are exact values over positive denominators,
    # not lowest-terms pairs
    lo, hi = _core.displacement(fx, fy)
    assert lo[1] > 0 and hi[1] > 0
    assert (F(*lo), F(*hi)) == ref.displacement(rf)

    for x in fracs(fx + gx + gy[:-1]):
        x -= floor(x)
        assert _core.eval_lift(fx, fy, pair(x)) == pair(ref.at(rf, x))


@pytest.mark.parametrize("descriptor", [THOMPSON, STEIN_2_3], ids=["thompson", "stein23"])
def test_kernel_matches_reference_on_member_grids(descriptor):
    grids = member_grids(descriptor, 24, seed=descriptor.lam)
    for f in grids:
        for g in grids[:6]:
            check_kernel(f, g)


@pytest.mark.parametrize(
    "descriptor",
    [THOMPSON, STEIN_2_3, GroupDescriptor(2, 5), GroupDescriptor(2, 3, 5)],
    ids=["thompson", "stein23", "stein25", "stein235"],
)
def test_tuple_maps_are_canonical_grids(descriptor):
    # tuple_map builds its kernel grid itself, with no constructor checks
    rng = random.Random(descriptor.lam)
    starts = set()
    for _ in range(40):
        xs, ys, _ = random_tuple_pair(descriptor, rng, max_len=6, max_depth=2)
        f = tuple_map(xs, ys, descriptor)
        assert_canonical(f._xs, f._ys)
        assert _core.canon_grid(f._xs, f._ys) == (f._xs, f._ys)
        starts.add(min(xs) == 0)
    # sources through 0 and sources whose grid starts inside the last arc
    assert starts == {True, False}


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
    xs, ys = ref.canon(xs, ys)
    return pairs(xs), pairs(ys)


@seed(0x8a4c5b423561fbb42f1dae2c2651f5c956bdf4e80bc53b0b133d82b922512a95abf2eb0f26445c3a250a9cabdbf37f33)
@settings(max_examples=60)
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
    xs, ys = ref.canon([F(0)] + [F(c, 1000) for c in cuts] + [F(1)], ys)
    return pairs(xs), pairs(ys)


def rigid(value):
    return ((0, 1), (1, 1)), (pair(value), pair(value + 1))


def test_compose_matches_reference_on_breakpoint_hits():
    rng = random.Random(11)
    gs = list(member_grids(STEIN_2_3, 6, seed=5) + member_grids(THOMPSON, 6, seed=6))
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
    h = certify_conjugator(rng, descriptor, depth, length)
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
