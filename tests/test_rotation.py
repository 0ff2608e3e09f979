"""Certified rotation numbers, brackets, and power detection."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmonster import (
    NonRationalCertificate,
    PLLineMap,
    PowerDetector,
    RationalRotation,
    ZeroBracketError,
    compose,
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
from plmonster.maps import DisplacementInterval, displacement_interval
from plmonster.rotation import _candidates, _crossing_point
from plmonster.stein import STEIN_2_3, THOMPSON, random_tuple_pair, torsion_rotation


def g0bar():
    return lift(irrational_candidate_g0(), 0)


def z():
    return PLLineMap(identity_map(), 1)


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


def test_rational_rotation_test_half_rotation():
    result = rational_rotation_test(rotation_map(F(1, 2)), 2)
    assert result is not None and result.value == F(1, 2)
    fbar = lift(rotation_map(F(1, 2)), 0)
    w = result.witness
    assert evaluate_line(power(fbar, 2), w) == w + 1


def test_rational_rotation_test_g0_has_no_denominator_one():
    assert rational_rotation_test(irrational_candidate_g0(), 1) is None


def test_rational_rotation_test_identity():
    result = rational_rotation_test(identity_map(), 1)
    assert result is not None
    assert result.value == 0 and result.witness == 0


def test_rotation_number_of_rigid_rotation():
    result = rotation_number(rotation_map(F(2, 5)), 10, 10)
    assert isinstance(result, RationalRotation)
    assert result.value == F(2, 5)
    fbar = lift(rotation_map(F(2, 5)), 0)
    assert evaluate_line(power(fbar, 5), result.witness) == result.witness + 2


def test_rotation_number_witness_is_exact_for_fixed_points():
    f = tuple_map([0, F(1, 4)], [0, F(1, 2)], THOMPSON)  # fixes 0
    result = rotation_number(f, 1, 1)
    assert isinstance(result, RationalRotation)
    assert result.value == 0
    assert evaluate_line(lift(f, 0), result.witness) == result.witness


def test_rotation_number_resolves_tiny_rigid_rotations_exactly():
    # the displacement interval pinches to a point, giving the exact value
    # even though 1000 far exceeds the requested denominator bound
    result = rotation_number(rotation_map(F(1, 1000)), 10, 10)
    assert isinstance(result, RationalRotation)
    assert result.value == F(1, 1000)


def test_rotation_number_of_conjugated_torsion():
    rng = random.Random(301)
    r = rotation_map(F(3, 8))
    for _ in range(5):
        h = random_member(THOMPSON, rng)
        conj = compose(compose(invert(h), r), h)
        result = rotation_number(conj, 10, 20)
        assert isinstance(result, RationalRotation)
        assert result.value == F(3, 8)


def test_rotation_number_certifies_g0():
    result = rotation_number(irrational_candidate_g0(), 50, 200)
    assert isinstance(result, NonRationalCertificate)
    assert result.max_denominator == 50
    lo, hi = result.bracket.lo, result.bracket.hi
    assert hi - lo <= F(1, 200)
    # exact containment of log 2 / log 3 via integer power comparisons
    p_over_q, next_over_q = log_ratio_bounds(2, 3, 10**5)
    assert lo < p_over_q and next_over_q < hi
    assert F(6309297535714574, 10**16) in result.bracket


def test_rotation_number_parameter_validation():
    with pytest.raises(ValueError):
        rotation_number(identity_map(), 0, 10)
    with pytest.raises(ValueError):
        rotation_number(identity_map(), 50, 10)  # depth below denominator bound
    with pytest.raises(ValueError):
        rational_rotation_test(identity_map(), 0)


def test_rotation_value_of_power_is_multiplied():
    f = rotation_map(F(2, 5))
    for n in (2, 3, 7):
        result = rotation_number(power(f, n), 10, 10)
        assert isinstance(result, RationalRotation)
        assert result.circle_value == F(2 * n, 5) % 1


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


def test_is_power_of_planted_powers():
    base = g0bar()
    for k in (-3, -1, 0, 1, 3, 7):
        assert is_power_of(power(base, k), base) == k


def test_is_power_of_rejects_center():
    # translation number 1 leaves candidates near 3/2, none of which are
    # exact powers of the edge map
    assert is_power_of(z(), g0bar()) is None


def test_is_power_of_rejects_generic_elements():
    rng = random.Random(302)
    base = g0bar()
    for _ in range(5):
        h = lift(random_member(STEIN_2_3, rng), rng.choice((0, 1)))
        k = is_power_of(h, base)
        if k is not None:
            assert h == power(base, k)


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
    members = [
        torsion_rotation(STEIN_2_3, 1, 2),
        torsion_rotation(STEIN_2_3, 5, 6),
        tuple_map([0, F(1, 4)], [0, F(1, 2)], STEIN_2_3),
        tuple_map([0, F(1, 3), F(1, 2)], [0, F(1, 6), F(2, 3)], STEIN_2_3),
    ]
    detector = PowerDetector(g0bar())
    for m in members:
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
    for k in (-17, -2, 3, 29):
        assert detector.detect(power(g0bar(), k)) == k
    assert detector.detect(z()) is None


def test_detector_on_negative_bases():
    # a base with negative translation number is detected through the
    # negated bracket
    members = [
        lift(torsion_rotation(STEIN_2_3, 1, 2), 0),
        lift(tuple_map([0, F(1, 4)], [0, F(1, 2)], STEIN_2_3), 1),
        lift(tuple_map([0, F(1, 3), F(1, 2)], [0, F(1, 6), F(2, 3)], STEIN_2_3), -1),
    ]
    for offset in (-3, -2, -1):
        base = lift(irrational_candidate_g0(), offset)
        detector = PowerDetector(base)
        for j in range(-30, 31):
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


def fraction_candidates(a, b, lo, hi):
    """The exponent ranges of the detector, computed on Fractions."""
    k_lo = max(1, math.ceil(lo / b))
    k_hi = math.floor(hi / a) if hi > 0 else 0
    positive = range(k_lo, k_hi + 1)
    k_lo = math.ceil(lo / a) if lo < 0 else 0
    k_hi = min(-1, math.floor(hi / b))
    negative = range(k_lo, k_hi + 1)
    return positive, negative


def pairs(numerators):
    return st.tuples(numerators, st.integers(1, 10**6))


@settings(max_examples=400, deadline=None, derandomize=True)
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


def reference_crossing_point(gbar, p):
    """The witness search on Fraction graph vertices, as a reference."""
    verts = gbar.graph_vertices()
    for i in range(len(verts) - 1):
        x0, y0 = verts[i]
        x1, y1 = verts[i + 1]
        d0 = y0 - x0
        d1 = y1 - x1
        if d0 == p:
            return x0
        if (d0 - p) * (d1 - p) < 0:
            t = (p - d0) / (d1 - d0)
            return x0 + t * (x1 - x0)
    raise ValueError("%d is outside the displacement interval" % p)


def crossing_outcome(crossing, *args):
    try:
        return crossing(*args)
    except ValueError as exc:
        return str(exc)


def test_crossing_point_matches_reference():
    rng = random.Random(311)
    maps = [irrational_candidate_g0(), rotation_map(F(2, 7)), identity_map()]
    maps += [random_member(STEIN_2_3 if i % 2 else THOMPSON, rng) for i in range(40)]
    found = 0
    for f in maps:
        for n in (1, 2, 3, 5):
            g = power(lift(f, rng.randint(-2, 2)), n)
            d = displacement_interval(g)
            for p in range(math.floor(d.lo) - 1, math.ceil(d.hi) + 2):
                expected = crossing_outcome(reference_crossing_point, g, p)
                got = crossing_outcome(_crossing_point, g.base._xs, g.base._ys, g.offset, p)
                assert got == expected
                found += not isinstance(expected, str)
    assert found > 50


def reference_rotation_number(f, max_denominator, depth):
    """The certificate loop on PLLineMaps and Fractions, as a reference.

    Every iterate is a map from `compose`, every bracket a
    DisplacementInterval of Fractions; `rotation_number` must return equal
    results from kernel grids and integer pairs.
    """
    fbar = f if isinstance(f, PLLineMap) else lift(f, 0)
    g = fbar
    lo = hi = None
    for n in range(1, depth + 1):
        d = displacement_interval(g)
        p = d.integer_point()
        if p is not None:
            return RationalRotation(F(p, n), reference_crossing_point(g, p))
        if d.width == 0:
            value = d.lo / n
            g = power(fbar, value.denominator)
            return RationalRotation(value, reference_crossing_point(g, value.numerator))
        lo = d.lo / n if lo is None else max(lo, d.lo / n)
        hi = d.hi / n if hi is None else min(hi, d.hi / n)
        if n < depth:
            g = compose(g, fbar)
    return NonRationalCertificate(max_denominator, DisplacementInterval(lo, hi))


def assert_matches_reference(f, max_denominator, depth):
    result = rotation_number(f, max_denominator, depth)
    expected = reference_rotation_number(f, max_denominator, depth)
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
