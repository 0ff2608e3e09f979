"""Stein-Thompson descriptors, membership, and tuple transitivity."""

import math
import random
import time
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmonster import (
    GroupDescriptor,
    STEIN_2_3,
    THOMPSON,
    PLCircleMap,
    center_generator_z,
    compose,
    displacement_interval,
    evaluate_circle,
    identity_map,
    invert,
    irrational_candidate_g0,
    is_member,
    lift,
    power,
    random_member,
    rotation_map,
    torsion_rotation,
    tuple_map,
    tuple_map_report,
)
from plmonster.serialize import BudgetError, map_from_document, map_to_document
from plmonster.stein import MembershipReport, Violation, random_tuple_pair


def test_descriptor_basic_fields():
    d = GroupDescriptor(2, 3)
    assert d.generators == (2, 3)
    assert d.lam == 6
    assert d.prime_support == (2, 3)
    assert THOMPSON.lam == 2 and STEIN_2_3.lam == 6
    assert GroupDescriptor(2, 3) == STEIN_2_3
    assert hash(GroupDescriptor(2)) == hash(THOMPSON)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        GroupDescriptor()
    with pytest.raises(ValueError):
        GroupDescriptor(1)
    with pytest.raises((TypeError, ValueError)):
        GroupDescriptor("2")


def test_coordinate_membership_and_depth():
    assert STEIN_2_3.contains_coordinate(F(5, 36))
    assert not STEIN_2_3.contains_coordinate(F(1, 5))
    assert THOMPSON.contains_coordinate(F(3, 8))
    assert not THOMPSON.contains_coordinate(F(1, 6))
    assert STEIN_2_3.coordinate_depth(F(5, 36)) == 2
    assert STEIN_2_3.coordinate_depth(F(1, 2)) == 1
    assert STEIN_2_3.coordinate_depth(F(2)) == 0


def test_slope_membership_in_shipped_descriptors():
    for s in (F(2), F(3), F(2, 3), F(4, 9), F(6), F(1), F(9, 8)):
        assert STEIN_2_3.slope_in_group(s)
    for s in (F(5), F(3, 5), F(7, 6)):
        assert not STEIN_2_3.slope_in_group(s)
    for s in (F(1), F(2), F(1, 4), F(8)):
        assert THOMPSON.slope_in_group(s)
    for s in (F(3), F(3, 2), F(6)):
        assert not THOMPSON.slope_in_group(s)


def _brute_slope_group(generators, bound=7):
    # every product of generator powers with exponents in -bound..bound:
    # the exhaustive, independent oracle for the lattice reduction
    return {
        math.prod(F(g) ** e for g, e in zip(generators, exps))
        for exps in product(range(-bound, bound + 1), repeat=len(generators))
    }


def test_slope_solver_matches_brute_force_on_dependent_generators():
    # 4 and 8 are powers of 2 with gcd(2, 3) = 1 on exponents, so the
    # group is all powers of 2; 6 and 10 interact on the prime 2
    d48 = GroupDescriptor(4, 8)
    d610 = GroupDescriptor(6, 10)
    g48 = _brute_slope_group((4, 8))
    g610 = _brute_slope_group((6, 10))
    cases = [F(2), F(4), F(1, 2), F(3), F(6), F(4, 1), F(60), F(90), F(5, 3), F(9, 25)]
    for v in cases:
        assert d48.slope_in_group(v) == (v in g48)
        assert d610.slope_in_group(v) == (v in g610)
    assert d610.slope_in_group(F(60))  # 6 * 10
    assert not d610.slope_in_group(F(4))  # needs exponent sum 2 on prime 2 alone
    # dependent sets: bound 7 covers every member whose prime exponents
    # lie in -3..3, so random slopes of that size get exact verdicts
    rng = random.Random(808)
    members = 0
    for gens in ((4, 6), (6, 10, 15), (12, 18), (45, 75), (2, 4, 8), (9, 6, 4)):
        d = GroupDescriptor(*gens)
        group = _brute_slope_group(gens)
        for exps in product(range(-4, 5), repeat=len(gens)):
            assert d.slope_in_group(math.prod(F(g) ** e for g, e in zip(gens, exps)))
        primes = d.prime_support + (7,)
        for _ in range(150):
            v = math.prod(F(q) ** rng.randint(-3, 3) for q in primes)
            v = rng.choice((v, -v))
            assert d.slope_in_group(v) == (v in group), (gens, v)
            members += v in group
    assert 20 < members < 200


def test_g0_is_member_of_stein_2_3():
    report = is_member(irrational_candidate_g0(), STEIN_2_3)
    assert report.member and report.violations == ()
    assert bool(report)


def test_rotation_by_fifth_is_not_member():
    report = is_member(rotation_map(F(1, 5)), STEIN_2_3)
    assert not report.member
    assert [(v.kind, v.where) for v in report.violations] == [
        ("image-not-in-Y", F(1, 5))
    ]


def test_identity_is_member_of_any_descriptor():
    for d in (THOMPSON, STEIN_2_3, GroupDescriptor(4, 8)):
        assert is_member(identity_map(), d).member


def test_membership_reports_every_violation_kind():
    f = PLCircleMap([0, F(1, 5)], [0, F(1, 2)])
    report = is_member(f, THOMPSON)
    kinds = {v.kind for v in report.violations}
    assert "breakpoint-not-in-Y" in kinds
    assert "slope-not-in-P" in kinds
    assert not report.member


def test_member_flag_iff_no_violations():
    rng = random.Random(201)
    for i in range(40):
        d = THOMPSON if i % 2 == 0 else STEIN_2_3
        f = random_member(d, rng) if i % 3 else rotation_map(F(1, 5))
        report = is_member(f, d)
        assert report.member == (len(report.violations) == 0)


def reference_is_member(f, descriptor):
    """Membership through the Fraction views and public methods, as a reference."""
    violations = []
    for b, v in zip(f.breakpoints, f.images):
        if not descriptor.contains_coordinate(b):
            violations.append(Violation("breakpoint-not-in-Y", b))
        if not descriptor.contains_coordinate(v):
            violations.append(Violation("image-not-in-Y", v))
    seen = set()
    for s in f.segment_slopes():
        if s in seen:
            continue
        seen.add(s)
        if not descriptor.slope_in_group(s):
            violations.append(Violation("slope-not-in-P", s))
    return MembershipReport(not violations, tuple(violations))


def test_is_member_matches_reference():
    rng = random.Random(203)
    descriptors = (THOMPSON, STEIN_2_3, GroupDescriptor(3), GroupDescriptor(2, 5),
                   GroupDescriptor(4, 6))
    pools = [random_member(d, rng) for d in (THOMPSON, STEIN_2_3) for _ in range(20)]
    pools += [rotation_map(F(k, 30)) for k in range(0, 30, 7)]
    for _ in range(60):
        # arbitrary rationals: most are non-members of every descriptor
        den = rng.choice((5, 12, 30, 97, 2**20 * 3))
        xs = sorted(rng.sample(range(den), rng.randint(1, 4)))
        ys = sorted(rng.sample(range(den), len(xs)))
        cut = rng.randrange(len(ys))
        pools.append(PLCircleMap([F(x, den) for x in xs],
                                 [F(y, den) for y in ys[cut:] + ys[:cut]]))
    pools += [compose(rng.choice(pools), rng.choice(pools)) for _ in range(40)]
    members = 0
    for f in pools:
        for d in descriptors:
            report = is_member(f, d)
            assert report == reference_is_member(f, d)
            members += report.member
    assert 80 < members < len(pools) * len(descriptors) - 200


def _strip(n, primes):
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def trial_division_coordinate(descriptor, x):
    """x in Z[1/lam]: its denominator is 1 once the primes of lam are divided out."""
    return _strip(F(x).denominator, descriptor.prime_support) == 1


def trial_division_slope(descriptor, s):
    """s in P: the exponent vector of s reduces to zero against the lattice basis."""
    s = F(s)
    if s <= 0:
        return False
    num, den = s.numerator, s.denominator
    exps = []
    for p in descriptor.prime_support:
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
    for i, pivot in descriptor._basis:
        c = exps[i] // pivot[i]
        exps = [a - c * b for a, b in zip(exps, pivot)]
    return not any(exps)


def trial_division_member(f, descriptor):
    violations = []
    for b, v in zip(f.breakpoints, f.images):
        if not trial_division_coordinate(descriptor, b):
            violations.append(Violation("breakpoint-not-in-Y", b))
        if not trial_division_coordinate(descriptor, v):
            violations.append(Violation("image-not-in-Y", v))
    for s in dict.fromkeys(f.segment_slopes()):
        if not trial_division_slope(descriptor, s):
            violations.append(Violation("slope-not-in-P", s))
    return MembershipReport(not violations, tuple(violations))


# (2) and (2, 3) have a pivot of 1 on every prime, as does (2, 6) after a
# reduction step; the others generate a proper sublattice
MEMBERSHIP_DESCRIPTORS = [
    GroupDescriptor(*g) for g in ((2,), (2, 3), (4,), (6,), (2, 9), (4, 6), (2, 6))
]


@st.composite
def smooth_rationals(draw):
    """Signed rationals over the primes 2, 3, 5 and 7, mostly built from 2 and 3."""
    num = draw(st.sampled_from((1, 1, 1, 5, 7, 25, 35)))
    value = F(num, draw(st.sampled_from((1, 1, 1, 5, 7))))
    for p in (2, 3):
        value *= F(p) ** draw(st.integers(-40, 40))
    return draw(st.sampled_from((1, 1, 1, -1))) * value


@st.composite
def rational_maps(draw):
    """Circle maps whose points and slopes are drawn from a few denominators."""
    den = draw(st.sampled_from((2, 4, 6, 9, 12, 36, 10, 2**30 * 3**5, 7 * 2**5)))
    count = draw(st.integers(1, min(5, den)))
    points = st.sets(st.integers(0, den - 1), min_size=count, max_size=count)
    xs = sorted(draw(points))
    ys = sorted(draw(points))
    cut = draw(st.integers(0, count - 1))
    ys = ys[cut:] + ys[:cut]
    return PLCircleMap([F(x, den) for x in xs], [F(y, den) for y in ys])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=smooth_rationals(), f=rational_maps())
def test_membership_matches_trial_division(value, f):
    for d in MEMBERSHIP_DESCRIPTORS:
        assert d.slope_in_group(value) == trial_division_slope(d, value), (d, value)
        x = value % 1
        assert d.contains_coordinate(x) == trial_division_coordinate(d, x), (d, x)
        if trial_division_coordinate(d, x):
            q = d.coordinate_depth(x)
            assert (x * d.lam**q).denominator == 1
            assert q == 0 or (x * d.lam ** (q - 1)).denominator > 1
        else:
            with pytest.raises(ValueError):
                d.coordinate_depth(x)
        assert is_member(f, d) == trial_division_member(f, d), (d, f)


def test_membership_rejects_slopes_and_denominators_outside_the_group():
    slope_3 = PLCircleMap([0, F(1, 4)], [0, F(3, 4)])  # slopes 3 and 1/3
    assert [(v.kind, v.where) for v in is_member(slope_3, THOMPSON).violations] == [
        ("slope-not-in-P", F(3)),
        ("slope-not-in-P", F(1, 3)),
    ]
    assert is_member(slope_3, GroupDescriptor(2, 3)).member
    assert not THOMPSON.slope_in_group(3)
    fifth = rotation_map(F(2, 5))
    for d in MEMBERSHIP_DESCRIPTORS:
        assert not d.contains_coordinate(F(1, 5))
        assert not is_member(fifth, d).member
    slope_2 = PLCircleMap([0, F(1, 4), F(1, 2)], [0, F(1, 2), F(3, 4)])  # 2, 1, 1/2
    d4 = GroupDescriptor(4)
    assert d4.contains_coordinate(F(3, 4)) and not d4.slope_in_group(2)
    assert [(v.kind, v.where) for v in is_member(slope_2, d4).violations] == [
        ("slope-not-in-P", F(2)),
        ("slope-not-in-P", F(1, 2)),
    ]
    assert is_member(slope_2, THOMPSON).member


def test_members_are_closed_under_the_group_operations():
    rng = random.Random(202)
    for d in (THOMPSON, STEIN_2_3):
        for _ in range(15):
            f, g = random_member(d, rng), random_member(d, rng)
            assert is_member(compose(f, g), d).member
            assert is_member(invert(f), d).member


def test_tuple_map_two_points_stein():
    f = tuple_map([0, F(1, 2)], [0, F(1, 4)], STEIN_2_3)
    assert evaluate_circle(f, 0) == 0
    assert evaluate_circle(f, F(1, 2)) == F(1, 4)
    assert is_member(f, STEIN_2_3).member


def test_tuple_map_three_points_thompson():
    xs = [0, F(1, 4), F(1, 2)]
    ys = [0, F(1, 2), F(3, 4)]
    f = tuple_map(xs, ys, THOMPSON)
    for a, b in zip(xs, ys):
        assert evaluate_circle(f, a) == b
    assert is_member(f, THOMPSON).member


def test_tuple_map_frozen_two_point_output():
    # deterministic tie-breaking makes the output reproducible
    f = tuple_map([0, F(1, 2)], [F(1, 4), 0], THOMPSON)
    assert f.breakpoints == (F(0), F(1, 4), F(1, 2))
    assert f.images == (F(1, 4), F(3, 4), F(0))
    assert f.segment_slopes() == (F(2), F(1), F(1, 2))


def test_tuple_map_singleton():
    f = tuple_map([F(1, 2)], [F(1, 2)], THOMPSON)
    assert evaluate_circle(f, F(1, 2)) == F(1, 2)
    assert is_member(f, THOMPSON).member


def test_tuple_map_wrapped_target():
    # the target tuple passes through 0 between its entries
    xs = [0, F(1, 4)]
    ys = [F(2, 3), F(1, 6)]
    f = tuple_map(xs, ys, STEIN_2_3)
    for a, b in zip(xs, ys):
        assert evaluate_circle(f, a) == b
    assert is_member(f, STEIN_2_3).member


def test_tuple_map_report_depth_bounds_grid():
    xs = [0, F(1, 36), F(1, 2)]
    ys = [F(1, 6), F(1, 4), F(5, 6)]
    report = tuple_map_report(xs, ys, STEIN_2_3)
    n = STEIN_2_3.lam**report.refinement_depth
    for b in report.map.breakpoints:
        assert (b * n).denominator == 1
    for a, b in zip(xs, ys):
        assert evaluate_circle(report.map, a) == b


def test_tuple_map_errors():
    with pytest.raises(ValueError):
        tuple_map([0, F(1, 2)], [0], THOMPSON)  # length mismatch
    with pytest.raises(ValueError):
        tuple_map([0, F(1, 5)], [0, F(1, 2)], THOMPSON)  # 1/5 outside Y
    with pytest.raises(ValueError):
        tuple_map([0, F(1, 2), F(1, 4)], [0, F(1, 4), F(1, 2)], THOMPSON)
    with pytest.raises(ValueError):
        tuple_map([], [], THOMPSON)


def test_tuple_map_random_pairs_exact():
    rng = random.Random(203)
    for i in range(60):
        d = THOMPSON if i % 2 == 0 else STEIN_2_3
        xs, ys, _ = random_tuple_pair(d, rng, max_len=6, max_depth=4)
        f = tuple_map(xs, ys, d)
        for a, b in zip(xs, ys):
            assert evaluate_circle(f, a) == b
        assert is_member(f, d).member


def test_g0_definition_and_sanity():
    g0 = irrational_candidate_g0()
    assert g0.breakpoints == (F(0), F(1, 4))
    assert g0.images == (F(1, 2), F(0))
    assert evaluate_circle(g0, 0) == F(1, 2)
    assert evaluate_circle(g0, F(1, 4)) == 0
    d = displacement_interval(lift(g0, 0))
    assert (d.lo, d.hi) == (F(1, 2), F(3, 4))
    assert d.integer_point() is None  # no fixed point on the circle


def test_center_generator():
    z = center_generator_z()
    assert z.offset == 1 and z.base.is_identity()
    assert displacement_interval(z).lo == 1


def test_torsion_rotation():
    r2 = torsion_rotation(THOMPSON, 1, 2)
    assert power(r2, 2).is_identity() and not r2.is_identity()
    r6 = torsion_rotation(STEIN_2_3, 1, 6)
    assert power(r6, 6).is_identity()
    assert not power(r6, 3).is_identity()
    with pytest.raises(ValueError):
        torsion_rotation(THOMPSON, 1, 3)  # 1/3 has no dyadic representative


def test_random_member_is_deterministic_member():
    a = random_member(STEIN_2_3, random.Random(7))
    b = random_member(STEIN_2_3, random.Random(7))
    assert a == b
    assert is_member(a, STEIN_2_3).member


def test_descriptor_budget_bounds_factoring_time():
    # the largest accepted descriptor: 16 generators, each a 32-bit prime
    start = time.perf_counter()
    d = GroupDescriptor(*[4294967291] * 15, 4294967279)
    assert time.perf_counter() - start < 1
    assert d.prime_support == (4294967279, 4294967291)
    assert d.slope_in_group(F(4294967291, 4294967279))
    with pytest.raises(ValueError, match="budget"):
        GroupDescriptor(2**32)
    with pytest.raises(ValueError, match="budget"):
        GroupDescriptor(*[2] * 17)


def test_document_slope_generators_over_budget_are_budget_errors():
    doc = map_to_document(irrational_candidate_g0(), STEIN_2_3)
    doc["slopes"] = [2, 1000000000000000003]
    doc["lambda"] = None
    with pytest.raises(BudgetError, match="budget of 32 bits"):
        map_from_document(doc)
