"""Certified rotation numbers, brackets, and power detection."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import reference as ref
from plmonster import (
    NonRationalCertificate,
    PowerDetector,
    RationalRotation,
    ZeroBracketError,
    compose,
    default_context,
    evaluate_line,
    identity_map,
    invert,
    irrational_candidate_g0,
    is_power_of,
    is_translation,
    lift,
    log_ratio_bounds,
    power,
    random_member,
    rational_rotation_test,
    rotation_map,
    rotation_number,
    translation_bracket,
    tuple_map,
)
from plmonster import rotation
from plmonster.maps import displacement_interval
from plmonster.rotation import _candidates, _crossing_point
from plmonster.stein import STEIN_2_3, THOMPSON, random_tuple_pair
from pools import (
    CERTIFY_CONJUGATORS,
    certify_conjugator,
    default_edge_pool,
    g0bar,
    random_maps,
    small_rotation_bases,
    small_rotation_pool,
    stein_members,
    z,
)
from reference import fraction_candidates


def test_translation_bracket_of_center():
    for n in (1, 2, 5):
        d = translation_bracket(z(), n)
        assert (d.lo, d.hi) == (1, 1)


def test_translation_bracket_of_g0():
    d = translation_bracket(g0bar(), 1)
    assert (d.lo, d.hi) == (F(1, 2), F(3, 4))


def test_translation_bracket_of_rigid_rotation():
    d = translation_bracket(lift(rotation_map(F(1, 3)), 0), 2)
    assert (d.lo, d.hi) == (F(1, 3), F(1, 3))


def test_translation_bracket_widths_shrink():
    fbar = g0bar()
    prev = None
    for n in (1, 2, 4, 8):
        d = translation_bracket(fbar, n)
        assert d.hi - d.lo <= F(1, n)
        if prev is not None:
            # brackets all contain the translation number, so they overlap
            assert d.lo <= prev.hi and prev.lo <= d.hi
        prev = d


def test_rational_rotation_test_g0_has_no_denominator_one():
    assert rational_rotation_test(irrational_candidate_g0(), 1) is None


def test_rational_rotation_test_reuses_the_iterate_unless_p_over_q_reduces(monkeypatch):
    calls = []
    power_of = rotation.power

    def counting_power(f, n):
        calls.append(n)
        return power_of(f, n)

    monkeypatch.setattr(rotation, "power", counting_power)
    half = rotation_map(F(1, 2))
    for q, expected in ((2, [2]), (4, [4, 2]), (3, [3])):
        calls.clear()
        result = rational_rotation_test(half, q)
        assert calls == expected, q
        assert (None if result is None else result.value) == (None if q == 3 else F(1, 2))


def test_rational_rotation_test_identity():
    result = rational_rotation_test(identity_map(), 1)
    assert result is not None
    assert result.value == 0 and result.witness == 0


def test_rotation_number_witness_is_exact_for_fixed_points():
    f = tuple_map([0, F(1, 4)], [0, F(1, 2)], THOMPSON)  # fixes 0
    result = rotation_number(f, 1, 1)
    assert isinstance(result, RationalRotation)
    assert result.value == 0
    assert evaluate_line(lift(f, 0), result.witness) == result.witness


def test_rotation_number_parameter_validation():
    with pytest.raises(ValueError):
        rotation_number(identity_map(), 0, 10)
    with pytest.raises(ValueError):
        rotation_number(identity_map(), 50, 10)  # depth below denominator bound
    with pytest.raises(ValueError):
        rational_rotation_test(identity_map(), 0)


def test_translation_bracket_of_power_scales():
    fbar = g0bar()
    for n in (2, 3):
        outer = translation_bracket(power(fbar, n), 1)
        inner = translation_bracket(fbar, n)
        assert outer.lo == n * inner.lo and outer.hi == n * inner.hi


def test_is_translation():
    assert is_translation(z())
    assert is_translation(power(z(), -4))
    assert not is_translation(g0bar())
    # rigid but non-integer translations are still translations
    assert is_translation(lift(rotation_map(F(1, 3)), 0))


def test_log_ratio_bounds_are_exact_and_tight():
    lo, hi = log_ratio_bounds(2, 3, 1000)
    assert hi - lo == F(1, 1000)
    assert lo == F(630, 1000) and hi == F(631, 1000)
    p = 630
    assert 3**p <= 2**1000 < 3 ** (p + 1)
    assert float(lo) <= math.log(2) / math.log(3) <= float(hi)


@pytest.mark.parametrize("shift", [-2, 2])
@pytest.mark.parametrize("a, b, q", [(2, 3, 50), (3, 2, 7), (10, 7, 13), (7, 2, 3)])
def test_log_ratio_bounds_corrects_a_wrong_float_seed(monkeypatch, a, b, q, shift):
    # the float seed p = int(q log a / log b) only starts the search: with
    # math.log bent so that the seed is off by two either way, the integer
    # correction loops must still land on the largest p with b**p <= a**q
    p = 0
    while b ** (p + 1) <= a**q:
        p += 1
    real_log = math.log

    def bent_log(x):
        return (p + shift + 0.5) * real_log(b) / q if x == a else real_log(x)

    monkeypatch.setattr(math, "log", bent_log)
    assert int(q * math.log(a) / math.log(b)) == p + shift >= 0
    assert log_ratio_bounds(a, b, q) == (F(p, q), F(p + 1, q))


def test_is_power_of_planted_powers():
    base = g0bar()
    for k in (-3, -1, 0, 1, 3, 7):
        assert is_power_of(power(base, k), base) == k


def test_is_power_of_rejects_center():
    # translation number 1 leaves candidates near 3/2, none of which are
    # exact powers of the edge map
    assert is_power_of(z(), g0bar()) is None


def test_power_detector_caches_and_repeats():
    detector = PowerDetector(g0bar())
    assert detector.detect(power(g0bar(), 5)) == 5
    assert detector.detect(power(g0bar(), 5)) == 5
    assert detector.detect(z()) is None


def test_zero_bracket_error_for_fixed_point_maps():
    # a nonidentity map with a fixed point has translation number 0, so
    # the bracket can never exclude 0
    f = tuple_map([0, F(1, 4)], [0, F(1, 2)], THOMPSON)
    with pytest.raises(ZeroBracketError):
        PowerDetector(lift(f, 0))
    with pytest.raises(ZeroBracketError):
        is_power_of(z(), lift(identity_map(), 0))


def test_rotation_number_accepts_line_maps():
    result = rotation_number(lift(rotation_map(F(1, 3)), 2), 10, 10)
    assert isinstance(result, RationalRotation)
    assert result.value == F(7, 3)  # translation number includes the offset
    assert result.circle_value == F(1, 3)


def test_detector_finds_every_edge_power():
    detector = PowerDetector(g0bar())
    for k in range(-40, 41):
        assert detector.detect(power(g0bar(), k)) == k


def test_detector_rejects_edge_powers_times_stein_members():
    # each member has a rational rotation number and is not the identity,
    # so no edge power times it is an edge power again
    detector = PowerDetector(g0bar())
    for m in stein_members():
        for offset in (-1, 0, 1):
            h = lift(m, offset)
            assert not h.is_identity()
            for k in (-25, -3, 0, 1, 4, 31):
                assert detector.detect(compose(power(g0bar(), k), h)) is None
                assert detector.detect(compose(h, power(g0bar(), k))) is None


def test_detector_refines_past_the_candidate_limit(monkeypatch):
    # a limit of one exponent forces the refinement loop on every power
    monkeypatch.setattr(rotation, "CANDIDATE_LIMIT", 1)
    detector = PowerDetector(g0bar())
    reference = ref.PowerReference(ref.lift_of(g0bar()))
    for k in (-17, -2, 3, 29):
        assert detector.detect(power(g0bar(), k)) == k
        assert reference.detect(ref.lift_of(power(g0bar(), k))) == k
    assert detector.detect(z()) is None
    assert reference.detect(ref.lift_of(z())) is None


def test_detector_on_negative_bases():
    # a base with negative translation number is detected through the
    # negated bracket
    # the half turn and the two tuple maps among the Stein members
    m = stein_members()
    members = [lift(m[0], 0), lift(m[2], 1), lift(m[3], -1)]
    for offset in (-3, -2, -1):
        base = lift(irrational_candidate_g0(), offset)
        detector = PowerDetector(base)
        for j in (*range(-30, 31), -500, 1000):
            assert detector.detect(power(base, j)) == j
        for h in members:
            for j in (-9, -1, 0, 2, 13):
                assert detector.detect(compose(power(base, j), h)) is None
                assert detector.detect(compose(h, power(base, j))) is None


def test_power_cache_is_bounded():
    detector = PowerDetector(g0bar())
    for k in range(100, 201):
        assert detector.detect(power(g0bar(), k)) == k
    assert all(abs(k) <= rotation.POWER_CACHE_LIMIT for k in detector._powers)
    for k in (-3, 150):
        assert detector.power(k) == power(g0bar(), k)
    assert -3 in detector._powers and 150 not in detector._powers


def assert_detects_as_reference(base, pool, sign=1):
    detector = PowerDetector(base)
    reference = ref.PowerReference(ref.lift_of(base))
    hits = 0
    for candidate, k in pool:
        found = detector.detect(candidate)
        assert found == reference.detect(ref.lift_of(candidate))
        if k is not None:
            assert found == sign * k
        hits += found is not None
    return hits


def test_detector_matches_reference_on_the_default_edge():
    hits = assert_detects_as_reference(default_context().edge, default_edge_pool())
    assert hits > 141  # every power, and the random words' edge syllables


def test_detector_matches_reference_on_the_inverse_edge():
    # a negative base: edge**k is its (-k)-th power
    base = invert(default_context().edge)
    assert assert_detects_as_reference(base, default_edge_pool(), -1) > 141


@pytest.mark.parametrize("which", [0, 1])
def test_detector_matches_reference_on_small_rotation_bases(which):
    # the rigid base also has the torsion rotations' products among its
    # powers: a half turn is its 20th
    base = small_rotation_bases()[which]
    assert assert_detects_as_reference(base, small_rotation_pool(base)) >= 8


def test_default_edge_detection_reads_no_grid(monkeypatch):
    # fbar(0) +- 1 against the edge bracket of the 64th iterate (width
    # about 0.004) leaves at most CANDIDATE_LIMIT exponents, so no grid is
    # walked for any cached power, their products with Stein members or
    # the random words' syllables
    detector = default_context()._detector

    def no_grid(*args):
        raise AssertionError("core.displacement was called")

    monkeypatch.setattr(rotation.core, "displacement", no_grid)
    for candidate, k in default_edge_pool():
        if k is None or abs(k) <= rotation.POWER_CACHE_LIMIT:
            detector.detect(candidate)
    monkeypatch.undo()
    # a counting stub: the edge's powers up to |k| = 3000 stop at the cheap
    # bracket, while a small rotation base's candidates reach the
    # displacement rung, and for the conjugate base the squaring rung
    calls = {"displacement": 0, "refine": 0}
    displacement = rotation.core.displacement
    refine = rotation._BracketRefiner.refine

    def counting_displacement(*args):
        calls["displacement"] += 1
        return displacement(*args)

    def counting_refine(self):
        calls["refine"] += 1
        return refine(self)

    edge = default_context().edge
    bases = small_rotation_bases()
    pools = [[(power(edge, k), k) for k in (-3000, -1000, -70, 70, 1000, 3000)]]
    pools += [small_rotation_pool(base) for base in bases]
    seen = []
    for base, pool in zip([edge, *bases], pools):
        detector = PowerDetector(base)
        monkeypatch.setattr(rotation.core, "displacement", counting_displacement)
        monkeypatch.setattr(rotation._BracketRefiner, "refine", counting_refine)
        calls.update(displacement=0, refine=0)
        for candidate, k in pool:
            found = detector.detect(candidate)
            assert k is None or found == k
        seen.append(dict(calls))
        monkeypatch.undo()
    assert seen[0] == {"displacement": 0, "refine": 0}
    # every candidate of a small rotation base reaches the displacement rung
    assert all(c["displacement"] >= len(pool) for c, pool in zip(seen[1:], pools[1:]))
    assert seen[1]["refine"] == 0 and seen[2]["refine"] > 0


def pairs(numerators):
    return st.tuples(numerators, st.integers(1, 10**6))


@seed(0x7e0629b78c416efd4374855a00d44bb9da07ab34daceba94f5aae8df41321387e46699f1421589b3915e71e0bf956a3d)
@settings(max_examples=400)
@given(
    a=pairs(st.integers(1, 10**6)),
    b_extra=pairs(st.integers(0, 10**6)),
    lo=pairs(st.integers(-(10**7), 10**7)),
    width=pairs(st.integers(0, 10**6)),
)
def test_integer_candidates_match_fraction_formula(a, b_extra, lo, width):
    fa = F(*a)
    fb = fa + F(*b_extra)
    flo = F(*lo)
    fhi = flo + F(*width)
    b = (fb.numerator * 3, fb.denominator * 3)  # unreduced pairs are fine
    hi = (fhi.numerator, fhi.denominator)
    # ranges compare as sequences, so two empty ranges are equal
    assert _candidates(a, b, lo, hi) == fraction_candidates(fa, fb, flo, fhi)


def test_crossing_point_matches_reference():
    rng = random.Random(311)
    maps = [irrational_candidate_g0(), rotation_map(F(2, 7)), identity_map()]
    maps += random_maps(rng, 40)
    found = 0
    for f in maps:
        for n in (1, 2, 3, 5):
            g = power(lift(f, rng.randint(-2, 2)), n)
            d = displacement_interval(g)
            for p in range(math.floor(d.lo) - 1, math.ceil(d.hi) + 2):
                expected = ref.outcome(ref.crossing_point, ref.lift_of(g), p)
                got = ref.outcome(_crossing_point, g.base._xs, g.base._ys, g.offset, p)
                assert got == expected
                found += not isinstance(expected, tuple)
    assert found > 50


def assert_matches_reference(f, max_denominator, depth):
    result = rotation_number(f, max_denominator, depth)
    expected = ref.rotation_number(ref.lift_of(f), max_denominator, depth)
    assert result == expected and repr(result) == repr(expected)
    return result


def test_rotation_number_matches_reference_on_conjugated_rationals():
    rng = random.Random(303)
    hits = 0
    for q in range(2, 41):
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        h = tuple_map(*random_tuple_pair(STEIN_2_3, rng, 4, 2)[:2], STEIN_2_3)
        f = compose(compose(invert(h), rotation_map(F(p, q))), h)
        k = rng.randint(-2, 2)
        result = assert_matches_reference(lift(f, k), 40, 45)
        hits += result.value == F(p, q) + k
    assert hits == 39
    # powers of the lifts; values past Q, which the iterate loop finds
    # after the descent missed; and 1/q, (q - 1)/q and 2/q, whose
    # Stern-Brocot paths are one long run
    rng = random.Random(304)
    for q in range(3, 201, 7):
        h = tuple_map(*random_tuple_pair(STEIN_2_3, rng, 4, 2)[:2], STEIN_2_3)
        hinv = invert(h)
        for p in (1, q - 1, 2 if q % 2 else rng.choice([1, q - 1])):
            fbar = lift(compose(compose(hinv, rotation_map(F(p, q))), h), rng.randint(-3, 3))
            assert assert_matches_reference(fbar, 200, 200).value == F(p, q) + fbar.offset
        if q <= 60:
            e = rng.choice([2, -2, 3, -3])
            fbar = power(lift(compose(compose(hinv, rotation_map(F(2, q))), h), 1), e)
            result = assert_matches_reference(fbar, q, q + 5)
            assert result.value == e * (F(2, q) + 1)
            assert assert_matches_reference(fbar, max(1, q // 2), 2 * q) == result


def test_farey_descent_finds_each_value_up_to_q_and_none_past_it():
    # the descent alone, without the iterate loop that would mask a miss:
    # it returns p/q with a periodic witness when q <= Q, and None below q;
    # g0 in the conjugator keeps every conjugate bent, and a rigid one
    # would be decided at the first iterate
    rng = random.Random(305)
    g0 = irrational_candidate_g0()
    for q in range(2, 201, 3):
        h = compose(tuple_map(*random_tuple_pair(THOMPSON, rng, 4, 3)[:2], THOMPSON), g0)
        for p in sorted({1, q - 1, rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])}):
            fbar = lift(compose(compose(invert(h), rotation_map(F(p, q))), h), rng.randint(-2, 2))
            assert not is_translation(fbar)
            grid = (fbar.base._xs, fbar.base._ys, fbar.offset)
            value = F(p, q) + fbar.offset
            found = rotation._farey_descent(*grid, rng.randint(q, 200))
            assert found is not None and found.value == value, (p, q)
            assert evaluate_line(power(fbar, q), found.witness) == found.witness + value * q
            assert rotation._farey_descent(*grid, q - 1) is None, (p, q)


def test_farey_descent_composes_along_the_path_not_q(monkeypatch):
    # 1234/4001 = [0; 3, 4, 7, 1, 6, 1, 1, 2]: the iterate loop composes
    # 4,000 times before its hit, the descent a few times per partial
    # quotient
    g0 = irrational_candidate_g0()
    f = compose(compose(invert(g0), rotation_map(F(1234, 4001))), g0)
    calls = []
    compose_grids = rotation.core.compose

    def counted(*args):
        calls.append(None)
        return compose_grids(*args)

    monkeypatch.setattr(rotation.core, "compose", counted)
    result = rotation_number(f, 5000, 5000)
    assert result.value == F(1234, 4001)
    assert len(calls) <= 64
    # 1/997 = [0; 997]: one run of 996 steps, which the descent crosses by
    # doubling its step
    f = compose(compose(invert(g0), rotation_map(F(1, 997))), g0)
    calls.clear()
    assert rotation_number(f, 1000, 1000).value == F(1, 997)
    assert len(calls) <= 64


def test_rotation_number_matches_reference_on_rigid_translations():
    # a rigid translation by a non-integer pinches its first bracket
    for k in range(-2, 3):
        for value in (F(1, 2), F(2, 7), F(39, 40), F(1, 1000), F(999, 1000)):
            result = assert_matches_reference(lift(rotation_map(value), k), 10, 10)
            assert result.value == value + k
        assert assert_matches_reference(lift(identity_map(), k), 10, 10).value == k


def test_rotation_number_matches_reference_at_bracket_ends():
    # f fixes 0 and moves every other point up, so the integer of the
    # first bracket is its lower end; the inverse puts it at the upper end
    f = tuple_map([0, F(1, 4)], [0, F(1, 2)], THOMPSON)
    for g in (f, invert(f), compose(f, rotation_map(F(1, 2)))):
        for k in range(-2, 3):
            assert_matches_reference(lift(g, k), 10, 20)


def test_rotation_number_matches_reference_on_g0_lifts():
    g0 = irrational_candidate_g0()
    for k in range(-2, 3):
        for depth in (50, 200):
            result = assert_matches_reference(lift(g0, k), 50, depth)
            assert isinstance(result, NonRationalCertificate)
            assert result.bracket.hi - result.bracket.lo <= F(1, depth)
    rng = random.Random(7)
    for k in (-1, 2):
        h = random_member(THOMPSON, rng)
        f = compose(compose(invert(h), g0), h)
        assert isinstance(assert_matches_reference(lift(f, k), 20, 50), NonRationalCertificate)
    # the rotation-certify benchmark's shapes, certified at depth 200
    for descriptor, depth, length in CERTIFY_CONJUGATORS:
        h = certify_conjugator(rng, descriptor, depth, length)
        f = compose(compose(invert(h), g0), h)
        assert len(f.breakpoints) > 3
        assert isinstance(assert_matches_reference(f, 50, 200), NonRationalCertificate)


def test_rotation_number_matches_reference_on_the_certify_pool():
    # the rotation-certify benchmark's pool: conjugates of rotations by
    # p/q, q <= 40, certified to Q = 40 at depth 45, and of g0, to Q = 50
    # at depth 200, under the conjugators of both descriptors; most
    # conjugates bend at more than 3 points
    rng = random.Random(941)
    bent = 0
    for i, q in enumerate(range(2, 41)):
        h = certify_conjugator(rng, *CERTIFY_CONJUGATORS[i % 2])
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        f = compose(compose(invert(h), rotation_map(F(p, q))), h)
        bent += len(f.breakpoints) > 3
        assert assert_matches_reference(f, 40, 45).value == F(p, q)
    assert bent >= 35
    g0 = irrational_candidate_g0()
    bent = 0
    for i in range(6):
        h = certify_conjugator(rng, *CERTIFY_CONJUGATORS[i % 2])
        f = compose(compose(invert(h), g0), h)
        bent += len(f.breakpoints) > 3
        assert isinstance(assert_matches_reference(f, 50, 200), NonRationalCertificate)
    assert bent >= 5
