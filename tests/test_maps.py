"""Exact PL circle and line map kernel: evaluation, algebra, lifts."""

import random
from fractions import Fraction as F

import pytest

import reference as ref
from plmonster import _core as core
from plmonster import (
    DisplacementInterval,
    PLCircleMap,
    compose,
    displacement_interval,
    evaluate_circle,
    evaluate_line,
    identity_map,
    invert,
    lift,
    power,
    project,
    rotation_map,
)
from plmonster.stein import irrational_candidate_g0 as g0
from pools import g0bar, random_maps, z


def test_evaluate_circle_identity():
    assert evaluate_circle(identity_map(), F(1, 3)) == F(1, 3)


def test_evaluate_circle_g0_doubling_piece():
    assert evaluate_circle(g0(), F(1, 8)) == F(3, 4)


def test_evaluate_circle_g0_contracting_piece():
    assert evaluate_circle(g0(), F(1, 2)) == F(1, 6)


def test_evaluate_circle_rotation_wraps():
    assert evaluate_circle(rotation_map(F(1, 3)), F(5, 6)) == F(1, 6)


def test_evaluate_circle_rejects_points_outside_domain():
    with pytest.raises(ValueError):
        evaluate_circle(identity_map(), F(3, 2))
    with pytest.raises(ValueError):
        evaluate_circle(identity_map(), F(-1, 2))
    # a point past the host's int/str digit limit is named, not shown
    with pytest.raises(ValueError, match=r"^circle points live in \[0, 1\); got a value too large"):
        evaluate_circle(g0(), F(10**5000))


def test_evaluate_line_unit_translation():
    assert evaluate_line(z(), F(5, 7)) == F(12, 7)


def test_evaluate_line_g0_lift_at_zero():
    assert evaluate_line(g0bar(), 0) == F(1, 2)


def test_evaluate_line_commutes_with_unit_translation():
    assert evaluate_line(g0bar(), 1) == F(3, 2)


def test_compose_with_identity():
    f = g0()
    assert compose(f, identity_map()) == f
    assert compose(identity_map(), f) == f


def test_compose_rotations_add():
    r = rotation_map(F(1, 3))
    assert compose(r, r) == rotation_map(F(2, 3))


def test_compose_with_inverse_is_identity():
    f = g0()
    assert compose(f, invert(f)).is_identity()
    assert compose(invert(f), f).is_identity()


def test_compose_is_left_to_right():
    # apply g0 first, then the rotation: 1/8 -> 3/4 -> 1/4
    f = compose(g0(), rotation_map(F(1, 2)))
    assert evaluate_circle(f, F(1, 8)) == F(1, 4)


def test_operators_are_their_functions_and_mixed_types_raise():
    f, g = g0(), rotation_map(F(1, 3))
    assert f(F(1, 8)) == evaluate_circle(f, F(1, 8))
    assert f * g == compose(f, g)
    assert f**-3 == power(f, -3)
    assert ~f == invert(f)
    fbar, gbar = g0bar(), lift(g, -1)
    assert fbar(F(-9, 4)) == evaluate_line(fbar, F(-9, 4))
    assert fbar * gbar == compose(fbar, gbar)
    assert fbar**5 == power(fbar, 5)
    assert ~fbar == invert(fbar)
    for a, b in ((f, fbar), (fbar, f)):
        with pytest.raises(TypeError):
            a * b
        with pytest.raises(TypeError):
            compose(a, b)
    for other in (F(1, 2), 3, None):
        with pytest.raises(TypeError):
            compose(f, other)
        with pytest.raises(TypeError):
            invert(other)
        with pytest.raises(TypeError):
            power(other, 2)
    for n in (F(2), 2.0, True, "2"):
        for h in (f, fbar):
            with pytest.raises(TypeError):
                h**n


def test_invert_identity():
    assert invert(identity_map()) == identity_map()


def test_invert_rotation():
    assert invert(rotation_map(F(1, 4))) == rotation_map(F(3, 4))


def test_invert_g0_undoes_g0():
    assert evaluate_circle(invert(g0()), F(1, 2)) == 0


def test_power_zero_is_identity():
    assert power(g0(), 0) == identity_map()
    assert power(g0bar(), 0) == lift(identity_map(), 0)


def test_power_of_center_translates():
    z5 = power(z(), 5)
    assert z5.offset == 5
    assert z5.base == identity_map()
    assert evaluate_line(z5, F(1, 3)) == F(16, 3)


def test_power_of_g0_lift_at_zero():
    assert evaluate_line(power(g0bar(), 2), 0) == F(7, 6)


def test_power_negative_is_power_of_inverse():
    f = g0()
    assert power(f, -3) == power(invert(f), 3)


def test_rotation_map_zero_is_identity():
    assert rotation_map(0) == identity_map()


def test_rotation_map_half_has_order_two():
    r = rotation_map(F(1, 2))
    assert compose(r, r).is_identity()


def test_rotation_map_is_canonical_two_vertex_grid():
    assert rotation_map(F(2, 7)).breakpoints == (F(0),)


def test_lift_identity_gives_center_generator():
    assert lift(identity_map(), 1) == z()


def test_lift_g0_evaluates_by_construction():
    assert evaluate_line(lift(g0(), 0), 0) == F(1, 2)


def test_lift_of_half_rotation_squares_to_center():
    h = lift(rotation_map(F(1, 2)), 0)
    assert power(h, 2) == z()


def test_project_center_is_identity():
    assert project(z()).is_identity()
    assert project(power(z(), -3)).is_identity()


def test_project_round_trip():
    assert project(g0bar()) == g0()


def test_displacement_of_center():
    d = displacement_interval(z())
    assert (d.lo, d.hi) == (1, 1)


def test_displacement_of_g0_lift():
    d = displacement_interval(g0bar())
    assert (d.lo, d.hi) == (F(1, 2), F(3, 4))


def test_displacement_of_rigid_rotation():
    d = displacement_interval(lift(rotation_map(F(1, 3)), 0))
    assert (d.lo, d.hi) == (F(1, 3), F(1, 3))


def test_displacement_interval_queries():
    d = DisplacementInterval(F(1, 2), F(3, 4))
    assert d.width == F(1, 4)
    assert F(2, 3) in d and F(1, 4) not in d
    assert d.integer_point() is None
    assert DisplacementInterval(F(1, 2), F(3, 2)).integer_point() == 1
    assert F(6309297535714574, 10**16) in d
    assert F(1, 10) not in d


def test_redundant_breakpoint_is_dropped():
    # the middle vertex is collinear with its neighbors, and the anchor 0
    # is not a genuine corner either (equal first and last slopes)
    f = PLCircleMap([0, F(1, 4), F(1, 2)], [0, F(1, 6), F(2, 3)])
    assert f.breakpoints == (F(1, 4), F(1, 2))
    g = PLCircleMap([F(1, 4), F(1, 2)], [F(1, 6), F(2, 3)])
    assert f == g


def test_constructor_validation():
    with pytest.raises(ValueError):
        PLCircleMap([0, 0], [0, F(1, 2)])  # not strictly increasing
    with pytest.raises(ValueError):
        PLCircleMap([0, F(3, 2)], [0, F(1, 2)])  # breakpoint outside [0,1)
    with pytest.raises(ValueError):
        PLCircleMap([0, F(1, 2)], [0])  # length mismatch
    with pytest.raises(ValueError):
        PLCircleMap([0, F(1, 4), F(1, 2)], [0, F(3, 4), F(1, 2)])  # not cyclic
    with pytest.raises(TypeError):
        lift(g0(), F(1, 2))  # offsets are integers


def _random_constructor_input(rng):
    # small denominators make ties common, and now and then a coordinate
    # falls outside [0, 1), the order is shuffled or the lengths differ,
    # so every rejection reason occurs
    den = rng.choice((4, 6, 12, 97, 2**40))
    m = rng.randint(1, 7)

    def coordinate():
        return F(rng.randint(-1, den) if rng.random() < 0.05 else rng.randrange(den), den)

    breaks = sorted(coordinate() for _ in range(m))
    imgs = sorted(coordinate() for _ in range(m))
    cut = rng.randint(0, m)  # one cyclic descent, as a valid map has
    imgs = imgs[cut:] + imgs[:cut]
    for seq in (breaks, imgs):
        if rng.random() < 0.1:
            rng.shuffle(seq)
    if rng.random() < 0.05:
        imgs.append(F(1, 2))
    return breaks, imgs


def test_constructor_matches_fraction_reference():
    rng = random.Random(110)
    rejected = 0
    for _ in range(4000):
        breaks, imgs = _random_constructor_input(rng)
        expected = ref.outcome(ref.circle_grid, breaks, imgs)
        got = ref.outcome(PLCircleMap, breaks, imgs)
        if isinstance(expected[0], type):
            rejected += 1
            assert got == expected
        else:
            assert (got._xs, got._ys) == tuple(map(ref.pairs_of, expected))
    assert 500 < rejected < 3500
    # every message the constructor raises, and the inexact-type errors
    for breaks, imgs in (
        ([0, F(1, 2)], [0]),
        ([], []),
        ([F(-1, 3)], [0]),
        ([0], [F(5, 4)]),
        ([F(1, 2), F(1, 2)], [0, F(1, 2)]),
        ([0, F(1, 2)], [F(1, 3), F(1, 3)]),
        ([0, F(1, 4), F(1, 2)], [0, F(3, 4), F(1, 2)]),
        ([0, F(1, 4), F(1, 2)], [F(1, 2), F(3, 4), F(5, 8)]),
        ([0, F(1, 2)], [0.5, 0]),
        ([True], [0]),
    ):
        expected = ref.outcome(ref.circle_grid, breaks, imgs)
        assert isinstance(expected[0], type)
        assert ref.outcome(PLCircleMap, breaks, imgs) == expected


def test_graph_vertices_of_g0_lift():
    assert g0bar().graph_vertices() == (
        (F(0), F(1, 2)),
        (F(1, 4), F(1)),
        (F(1), F(3, 2)),
    )


def test_maps_are_hashable_and_comparable():
    table = {g0(): "edge", identity_map(): "id"}
    assert table[g0()] == "edge"
    assert g0() != g0bar()
    assert lift(g0(), 0) != lift(g0(), 1)


def test_power_addition_on_random_maps():
    rng = random.Random(103)
    for f in random_maps(rng, 10):
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        assert power(f, m + n) == compose(power(f, m), power(f, n))


def test_power_starts_from_its_first_factor(monkeypatch):
    calls = []
    kernel_compose = core.compose

    def counted(*args):
        calls.append(args)
        return kernel_compose(*args)

    monkeypatch.setattr(core, "compose", counted)
    rng = random.Random(105)
    for f in [g0(), g0bar()] + random_maps(rng, 6):
        if isinstance(f, PLCircleMap) and rng.randrange(2):
            f = lift(f, rng.randint(-3, 3))
        for n, composes in ((0, 0), (1, 0), (-1, 0), (2, 1), (3, 2), (4, 2)):
            product = power(f, n)
            calls.clear()
            assert power(f, n) == product
            assert len(calls) == composes, (f, n)
        # the same grids as a running product from the identity
        one = identity_map() if isinstance(f, PLCircleMap) else lift(identity_map(), 0)
        for n in (-3, 5):
            running = one
            for _ in range(abs(n)):
                running = compose(running, f if n > 0 else invert(f))
            assert power(f, n) == running

