"""Mutation table of plmonster: each row is a fault that a test must catch.

A row is (id, path, old, new, selector).  path names a tracked file, old
is a snippet that occurs in it exactly once, new is what the mutant puts
in its place, and selector holds the pytest node ids, separated by
spaces, of which at least one must fail on the mutant.  Every mutation
that a CHANGES.md entry cites becomes a row, as long as its snippet
applies; a mutant that no test kills is recorded in CHANGES.md as a
FOUND, not kept here as a row.

The runner copies the tracked files (`git ls-files`) to a temporary
directory per row, applies the row, and runs pytest there:

    python tests/mutants.py              # each row's selector must fail
    python tests/mutants.py --all        # full tier-1 per row: the ids it fails
    python tests/mutants.py ID [ID ...]  # only the rows named

The default mode exits 1 unless every row is killed by its selector.
`--all` prints, per row, every tier-1 test the mutant fails (its kill
set), and exits 1 if a row fails none.  There each test is stopped after
TEST_TIMEOUT seconds; a stopped test is printed apart, as `stopped`, and
is no kill.  A test may go, or be merged into another, only when its
kill set over the rows is non-empty and inside the kill set of a test
that stays, and each of its asserts is made by a kept check.
`tests/test_package.py` checks in tier-1 that ids are unique and that
every old snippet matches exactly once, so a refactor that moves a
snippet fails at once.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = {"selector": 120, "all": 1200}
# with --all, a test still running after this many seconds is stopped
# (about ten times tier-1's slowest test), so one test whose grids a
# mutant blows up cannot use up its row's TIMEOUT
TEST_TIMEOUT = 30
JOBS = 2  # mutants run at once, one per vCPU of a CI runner
# the table's own check fails on every mutant, which changes a snippet
HYGIENE = "tests/test_package.py::test_every_mutant_row_applies_exactly_once"
# pytest with its address space capped at 2 GiB, so a mutant whose
# integers blow up fails with MemoryError instead of exhausting the host.
# Its plugin prints a line `FAILED id` or `STOPPED id` as each test that
# failed, or was stopped at the time limit given as the first argument,
# ends, so a row stopped at its own TIMEOUT keeps what it found.  The
# stop is a BaseException raised by SIGALRM: neither the test nor
# hypothesis catches it, so it ends the whole test and no example is
# shrunk.
PYTEST = r"""
import resource, signal, sys
import pytest

resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
limit = float(sys.argv.pop(1))
# only whether a test fails counts here, so a failing property test stops
# at its first failing example; tests/conftest.py's profile inherits this
from hypothesis import Phase, settings
settings.register_profile("mutant", phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)])
settings.load_profile("mutant")


class Stopped(BaseException):
    pass


def stop(signum, frame):
    raise Stopped("stopped after %g s" % limit)


class Lines:
    def pytest_configure(self, config):
        self.config = config

    def write(self, kind, nodeid):
        self.config.pluginmanager.get_plugin("terminalreporter").write("\n%s %s\n" % (kind, nodeid))

    def pytest_collectreport(self, report):
        if report.failed:
            self.write("FAILED", report.nodeid)

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item):
        if limit:
            signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return (yield)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_makereport(self, item, call):
        report = yield
        if report.failed:
            stopped = call.excinfo is not None and call.excinfo.errisinstance(Stopped)
            self.write("STOPPED" if stopped else "FAILED", item.nodeid)
        return report


signal.signal(signal.SIGALRM, stop)
sys.exit(pytest.main(sys.argv[1:], plugins=[Lines()]))
"""


def _rows(path, test_file, *rows):
    """Full rows for one file: selector `name` means tests/test_file::name,
    and `test_x.py::name` means tests/test_x.py::name."""
    return [
        (row_id, path, old, new, " ".join(
            "tests/" + (s if "::" in s else test_file + "::" + s) for s in selector.split()
        ))
        for row_id, old, new, selector in rows
    ]


ROWS = [
    *_rows("src/plmonster/_core.py", "test_core.py",
        ("core-rat-sign", "n, d = -n, -d", "n, d = n, -d", "test_rotation.py::test_crossing_point_matches_reference"),
        ("core-rat-unreduced", "    if g > 1:\n        return (n // g, d // g)\n    return (n, d)", "    return (n, d)", "test_kernel_matches_reference_on_member_grids"),
        ("core-rcmp-never-above", "    if t > 0:\n        return 1\n", "    if t > 0:\n        return 0\n", "test_kernel_matches_reference_on_member_grids"),
        ("core-canon-numerators", "if sd is not None and n * sd == sn * d:", "if sd is not None and n == sn:", "test_canon_grid_drops_exactly_the_collinear_points"),
        ("core-slopes-denominator", "out.append(rat(n, (xbn * xad - xan * xbd) * ybd * yad))", "out.append(rat(n, (xbn * xad - xan * xbd) * ybd))", "test_cli.py::test_golden_transcript"),
        ("core-interp-factor", "(ybn * yad - yan * ybd) * xbd\n    return rat(", "(ybn * yad - yan * ybd) * xad\n    return rat(", "test_kernel_matches_reference_on_member_grids"),
        ("core-eval-at-breakpoint", "    if xs[j] == x:\n        return ys[j]\n", "    if xs[j] == x:\n        return ys[j + 1]\n", "test_cli.py::test_verify_all_output_is_pinned"),
        ("core-anchor-straight-uncrossed", "return n1 * d2 == n2 * d1", "return n1 * d1 == n2 * d2", "test_maps.py::test_power_starts_from_its_first_factor"),
        ("core-first-breakpoint-rotation", "return 0 if len(xs) == 2 or not anchor_is_straight", "return 0 if not anchor_is_straight", "test_cli.py::test_rot_rational"),
        # g's straight anchor kept as a table entry
        ("core-window-keeps-straight-anchor", "    if not anchor_is_straight(gxs, gys):\n        xs.append(ONE)", "    if True:\n        xs.append(ONE)", "test_kernel_matches_reference_on_member_grids"),
        ("core-window-no-rotation-sentinel", "    (n, d), (m, e) = gxs[1], gys[1]\n    xs.append((n + 2 * d, d))\n    ys.append((m + 2 * e, e))", "    if sg > 1:\n        (n, d), (m, e) = gxs[1], gys[1]\n        xs.append((n + 2 * d, d))\n        ys.append((m + 2 * e, e))", "test_compose_matches_reference_on_breakpoint_hits"),
        # landed vertices never dropped, or always dropped
        ("core-compose-keeps-landed", "            del out_x[m]\n            del out_y[m]", "            pass", "test_kernel_matches_reference_on_conjugate_iterates"),
        ("core-compose-drops-landed", "        if (y1n * y0d - y0n * y1d)", "        if True or (y1n * y0d - y0n * y1d)", "test_amalgam.py::test_words_equal"),
        ("core-compose-straight-anchor-in-stream", "top = sg if tn == 0 or anchor_is_straight(gxs, gys) else sg + 1", "top = sg if tn == 0 else sg + 1", "test_compose_matches_reference_on_breakpoint_hits"),
        ("core-compose-anchor-never-in-stream", "top = sg if tn == 0 or anchor_is_straight(gxs, gys) else sg + 1", "top = sg", "test_kernel_matches_reference_on_g0_iterates"),
        ("core-compose-no-h2-gcd", "                g = gcd(h2, bd)\n                if g > 1:\n                    n //= g\n                    bd //= g\n", "", "test_maps.py::test_power_starts_from_its_first_factor"),
        ("core-compose-no-h3-gcd", "                g = gcd(n, h3)\n                out_y.append((n // g, bd * (h3 // g)) if g > 1 else (n, bd * h3))", "                out_y.append((n, bd * h3))", "test_cli.py::test_verify_all_output_is_pinned"),
        # hs[q] -> hs[q - 1], and y0 from hs[i - 1]
        ("core-compose-table-segment-before", "                h1, h2, h3 = hs[q]\n", "                h1, h2, h3 = hs[q - 1]\n", "test_kernel_matches_reference_on_member_grids"),
        ("core-compose-y0-segment-before", "h1, h2, h3 = hs[i]  # reduced", "h1, h2, h3 = hs[i - 1]  # reduced", "test_amalgam.py::test_context_mismatch_raises"),
        # the table stop and the in-place stop one short
        ("core-compose-table-stop-short", "stop = top = i + (len(sx) - 2) // 2", "stop = top = i + (len(sx) - 2) // 2 - 1", "test_amalgam.py::test_context_mismatch_raises"),
        ("core-compose-stop-short", "        stop = top + i - 1\n", "        stop = top + i - 2\n", "test_amalgam.py::test_context_mismatch_raises"),
        # an unshifted window-end value
        ("core-compose-window-end-unshifted", "            v = (y0[0] + y0[1], y0[1])", "            v = y0", "test_amalgam.py::test_context_mismatch_raises"),
        ("core-compose-carry-misses-one", "carry = y0[0] // y0[1]\n", "carry = y0[0] // y0[1] if y0[0] > y0[1] else 0\n", "test_amalgam.py::test_britton_reduce_matches_reference_on_pl_words"),
        # invert keeping a straight anchor or always dropping it
        ("core-invert-keeps-straight-anchor", "end = s if anchor_is_straight(xs, ys) else s + 1", "end = s + 1", "test_compose_matches_reference_on_breakpoint_hits"),
        ("core-invert-drops-anchor", "end = s if anchor_is_straight(xs, ys) else s + 1", "end = s", "test_amalgam.py::test_britton_reduce_matches_reference_on_pl_words"),
        # `a = c` and `start = c` in invert
        ("core-invert-a-is-c", "        xc = xs[c]\n        a = c - 1\n", "        xc = xs[c]\n        a = c\n", "test_amalgam.py::test_britton_reduce_matches_reference_on_pl_words"),
        ("core-invert-start-is-c", "    start = c + 1\n", "    start = c\n", "test_amalgam.py::test_britton_reduce_matches_reference_on_pl_words"),
        ("core-displacement-skips-last", "    for j in range(1, len(xs) - 1):\n        xn, xd = xs[j]\n        yn, yd = ys[j]\n        n = yn", "    for j in range(1, len(xs) - 2):\n        xn, xd = xs[j]\n        yn, yd = ys[j]\n        n = yn", "test_amalgam.py::test_context_mismatch_raises"),
    ),
    *_rows("src/plmonster/maps.py", "test_maps.py",
        ("maps-as-fraction-bool", "    if isinstance(value, bool):\n        raise", "    if False:\n        raise", "test_constructor_matches_fraction_reference"),
        ("maps-shown-unnamed", "            if abs(v) >= _SHOWN_BOUND:", "            if False:", "test_amalgam.py::test_syllable_membership_is_checked"),
        ("maps-shown-skips-lists", "        elif isinstance(v, list):\n            stack += v\n", "", "test_serialize.py::test_values_of_more_than_640_digits_are_named"),
        # the constructor edits: range end, strict increase, winding,
        # unroll index, closing interpolation end and closing-vertex shift test
        ("maps-grid-breakpoint-range", "        if not 0 <= b[0] < b[1]:", "        if not 0 <= b[0] <= b[1]:", "test_constructor_matches_fraction_reference"),
        ("maps-grid-image-range", "        if not 0 <= v[0] < v[1]:", "        if not 0 <= v[0] <= v[1]:", "test_constructor_matches_fraction_reference"),
        ("maps-grid-strict-increase", "        if bn * ad <= an * bd:", "        if bn * ad < an * bd:", "test_constructor_validation"),
        ("maps-grid-distinct-images", "            if an == bn and ad == bd:\n                raise", "            if False:\n                raise", "test_serialize.py::test_map_document_errors"),
        ("maps-grid-winding", "if len(descents) > 1 or fn * ld <= ln * fd:", "if len(descents) > 1 or fn * ld < ln * fd:", "test_constructor_matches_fraction_reference"),
        ("maps-grid-unroll-index", "            i = descents[0] + 1\n", "            i = descents[0]\n", "test_documents.py::test_a_word_document_finds_its_context_without_fractions"),
        ("maps-grid-closing-end", "breaks[-1], (bn + bd, bd), tilde[-1]", "breaks[-1], (bn, bd), tilde[-1]", "test_redundant_breakpoint_is_dropped"),
        ("maps-grid-closing-shift", "        if hn < hd:\n", "        if hn <= hd:\n", "test_redundant_breakpoint_is_dropped"),
        ("maps-corners-image-one", "(n - d, d) if n >= d else (n, d) for n, d in ys[i:-1]", "(n - d, d) if n > d else (n, d) for n, d in ys[i:-1]", "test_cli.py::test_golden_transcript"),
        ("maps-circle-identity-anchor-only", "        return self._ys == self._xs\n", "        return self._ys[0] == self._xs[0]\n", "test_rotation.py::test_detector_rejects_edge_powers_times_stein_members"),
        ("maps-circle-eq-breakpoints-only", "return self._xs == other._xs and self._ys == other._ys", "return self._xs == other._xs", "test_rotation.py::test_detector_rejects_edge_powers_times_stein_members"),
        ("maps-line-eq-ignores-offset", "return self._offset == other._offset and self._base == other._base", "return self._base == other._base", "test_maps_are_hashable_and_comparable"),
        ("maps-interval-contains-open", "        return self.lo <= v <= self.hi", "        return self.lo < v <= self.hi", "test_package.py::test_displacement_interval_contains_the_closed_range"),
        ("maps-integer-point-floor", "        p = math.ceil(self.lo)", "        p = math.floor(self.lo)", "test_displacement_interval_queries"),
        ("maps-evaluate-circle-wrap", "    return y - 1 if y >= 1 else y", "    return y - 1 if y > 1 else y", "test_cli.py::test_verify_all_output_is_pinned"),
        ("maps-evaluate-line-ceil", "    n = math.floor(xf)\n", "    n = math.ceil(xf)\n", "test_acceptance.py::test_acceptance_6_structural_suite"),
        ("maps-compose-no-carry", "f._offset + g._offset + carry", "f._offset + g._offset", "test_cli.py::test_verify_all_output_is_pinned"),
        ("maps-invert-no-carry", "carry - f._offset)", "-f._offset)", "test_amalgam.py::test_context_supplies_the_reduction_operations"),
        ("maps-power-negative-uninverted", "    if n < 0:\n        f = invert(f)\n        n = -n", "    if n < 0:\n        n = -n", "test_cli.py::test_verify_all_output_is_pinned"),
        # power squaring once past its last factor
        ("maps-power-extra-square", "        if n:\n            base = compose(base, base)", "        base = compose(base, base)", "test_power_starts_from_its_first_factor"),
        ("maps-rotation-unreduced", "    rf = as_fraction(r) % 1\n", "    rf = as_fraction(r)\n", "test_cli.py::test_flag_rationals_follow_one_grammar"),
        ("maps-identity-tiny-rotation", "    return rotation_map(0)\n", "    return rotation_map(Fraction(1, 2**40))\n", "test_amalgam.py::test_context_supplies_the_reduction_operations"),
        ("maps-lift-negated", "    return PLLineMap(f, k)\n", "    return PLLineMap(f, -k)\n", "test_cli.py::test_element_z_and_rotation"),
        ("maps-project-to-identity", "    return fbar.base\n", "    return identity_map()\n", "test_cli.py::test_verify_all_output_is_pinned"),
        ("maps-displacement-hi-no-offset", "_frac(lo) + k, _frac(hi) + k)", "_frac(lo) + k, _frac(hi))", "test_cli.py::test_verify_all_output_is_pinned"),
        # tuple containment for DisplacementInterval, a mutable Syllable and no Syllable.__repr__
        ("maps-interval-tuple-containment", "    def __contains__(self, value) -> bool:", "    def _unused_contains(self, value) -> bool:", "test_package.py::test_displacement_interval_contains_the_closed_range"),
    ),
    *_rows("src/plmonster/rotation.py", "test_rotation.py",
        ("rot-circle-value-unreduced", "        return self.value % 1\n", "        return self.value\n", "test_cli.py::test_golden_transcript"),
        ("rot-positive-int-zero", "or value < 1:\n        raise ValueError(\"%s must be a positive", "or value < 0:\n        raise ValueError(\"%s must be a positive", "test_rotation_number_parameter_validation"),
        ("rot-translation-bracket-undivided", "lo, hi = _bracket(g.base._xs, g.base._ys, g.offset, n)", "lo, hi = _bracket(g.base._xs, g.base._ys, g.offset)", "test_translation_bracket_of_center"),
        # crossing offset sign and interpolation target
        ("rot-crossing-offset-sign", "    t = p - k\n", "    t = p + k\n", "test_cli.py::test_word_multiply_builds_one_default_context"),
        ("rot-crossing-target", "xs[i], xs[i + 1], core.ZERO)", "xs[i], xs[i + 1], core.ONE)", "test_crossing_point_matches_reference"),
        ("rot-rational-test-floor", "    p = -(-ln // ld)\n    if p * hd > hn:", "    p = ln // ld\n    if p * hd > hn:", "test_rational_rotation_test_reuses_the_iterate_unless_p_over_q_reduces"),
        ("rot-rational-test-unreduced", "    if math.gcd(p, q) > 1:\n", "    if False:\n", "test_rational_rotation_test_reuses_the_iterate_unless_p_over_q_reduces"),
        ("rot-rational-witness-power", "    g = power(fbar, value.denominator)\n", "    g = power(fbar, value.denominator + 1)\n", "test_rotation_number_matches_reference_on_rigid_translations"),
        # the side test with `hn <= t * hd` for `<`, and `>=` for `>`
        ("rot-side-high-inclusive", "    if hn < t * hd:\n        return -1", "    if hn <= t * hd:\n        return -1", "test_farey_descent_composes_along_the_path_not_q"),
        ("rot-side-low-inclusive", "    if ln > t * ld:\n        return 1", "    if ln >= t * ld:\n        return 1", "test_farey_descent_composes_along_the_path_not_q"),
        ("rot-mediant-no-carry", "u[4] + v[4] + carry", "u[4] + v[4]", "test_farey_descent_composes_along_the_path_not_q"),
        ("rot-descent-run-end-short", "hi, hi_node = (max_denominator - node[1]) // fixed[1] + 2, None", "hi, hi_node = (max_denominator - node[1]) // fixed[1] + 1, None", "test_farey_descent_composes_along_the_path_not_q"),
        # the descent's doubling dropped: one step at a time again
        ("rot-descent-no-doubling", "                i += lo >= 4\n", "", "test_farey_descent_composes_along_the_path_not_q"),
        # the bisection loop `while hi - lo > 2`
        ("rot-descent-bisection-stops-early", "        while hi - lo > 1:\n", "        while hi - lo > 2:\n", "test_farey_descent_composes_along_the_path_not_q"),
        # rotation_number one iterate short (golden row rot-at-depth)
        ("rot-loop-one-iterate-short", "    for n in range(1, depth + 1):\n", "    for n in range(1, depth):\n", "test_rotation_number_witness_is_exact_for_fixed_points"),
        ("rot-loop-no-pinch", "        if ln == hn and ld == hd:\n", "        if False:\n", "test_rotation_number_matches_reference_on_rigid_translations"),
        ("rot-loop-no-meet", "lo, hi = (nlo, nhi) if n == 1 else _meet(lo, hi, nlo, nhi)", "lo, hi = nlo, nhi", "test_rotation_number_matches_reference_on_g0_lifts"),
        # `_bracket(xs, ys, k, n)` in rotation_number
        ("rot-loop-bracket-divided", "        (ln, ld), (hn, hd) = _bracket(xs, ys, k)\n        p = -(-ln // ld)\n        if p * hd <= hn:", "        (ln, ld), (hn, hd) = _bracket(xs, ys, k, n)\n        p = -(-ln // ld)\n        if p * hd <= hn:", "test_cli.py::test_a_failing_verify_check_exits_1"),
        ("rot-is-translation-three", "    return len(f._xs) == 2\n", "    return len(f._xs) <= 3\n", "test_is_translation"),
        # either correction loop of log_ratio_bounds removed
        ("rot-log-ratio-no-lowering", "    while p > 0 and b**p > target:\n        p -= 1\n", "", "test_log_ratio_bounds_corrects_a_wrong_float_seed"),
        ("rot-log-ratio-no-raising", "    while b ** (p + 1) <= target:\n        p += 1\n", "", "test_log_ratio_bounds_corrects_a_wrong_float_seed"),
        # a flipped `_meet` comparison
        ("rot-meet-flipped", "    if core.rcmp(nlo, lo) > 0:", "    if core.rcmp(nlo, lo) < 0:", "test_rotation_number_matches_reference_on_g0_lifts"),
        # off-by-one edits in `_candidates`
        ("rot-candidates-positive-short", "hn * ad // (hd * an) + 1)", "hn * ad // (hd * an))", "test_integer_candidates_match_fraction_formula"),
        ("rot-candidates-negative-short", "min(-1, hn * bd // (hd * bn)) + 1)", "min(-1, hn * bd // (hd * bn)))", "test_integer_candidates_match_fraction_formula"),
        ("rot-candidates-zero", "positive = range(max(1, ", "positive = range(max(0, ", "test_integer_candidates_match_fraction_formula"),
        ("rot-detector-no-deep-squaring", "        while ref.n < ZERO_EXCLUSION_DEPTH:\n            ref.refine()\n", "", "test_default_edge_detection_reads_no_grid"),
        ("rot-detector-unsigned-confirmation", "if self.power(self._sign * k) == candidate:", "if self.power(k) == candidate:", "test_detector_on_negative_bases"),
        ("rot-detector-negated-unswapped", "a, b = (-b[0], b[1]), (-a[0], a[1])", "a, b = (-a[0], a[1]), (-b[0], b[1])", "test_detector_on_negative_bases"),
        ("rot-detector-unbounded-cache", "            if abs(k) <= POWER_CACHE_LIMIT:\n", "            if True:\n", "test_power_cache_is_bounded"),
        # dropping the identity test, and the first bracket without the offset
        ("rot-detector-no-identity-test", "        if offset == 0 and ys == candidate._base._xs:\n            return 0\n", "", "test_amalgam.py::test_context_supplies_the_reduction_operations"),
        ("rot-detector-first-rung-no-offset", "lo, hi = (yn + (offset - 1) * yd, yd), (yn + (offset + 1) * yd, yd)", "lo, hi = (yn - yd, yd), (yn + yd, yd)", "test_detector_matches_reference_on_the_default_edge"),
        ("rot-is-power-of-swapped", "    return PowerDetector(base).detect(candidate)", "    return PowerDetector(candidate).detect(base)", "test_is_power_of_planted_powers"),
    ),
    *_rows("src/plmonster/stein.py", "test_stein.py",
        ("stein-prime-factors-square", "    while d * d <= n:\n", "    while d * d < n:\n", "test_cli.py::test_golden_transcript"),
        ("stein-valuation-two", "return (n & -n).bit_length() - 1", "return (n & -n).bit_length()", "test_amalgam.py::test_britton_reduce_matches_reference_on_pl_words"),
        ("stein-valuation-ladder-bottom", "    for i in range(len(ladder) - 2, -1, -1):", "    for i in range(len(ladder) - 2, 0, -1):", "test_amalgam.py::test_multiply_empty_is_reduce"),
        # dropping reduced vectors, and every lattice taken as full
        ("stein-basis-drops-reduced", "(reduced if v[i] else rest).append(v)", "v[i] and reduced.append(v)", "test_slope_solver_matches_brute_force_on_dependent_generators"),
        ("stein-every-lattice-full", "abs(pivot[i]) == 1 for i, pivot in self._basis", "abs(pivot[i]) >= 1 for i, pivot in self._basis", "test_cli.py::test_golden_transcript"),
        ("stein-generator-count-budget", "        if len(generators) > MAX_GENERATORS:", "        if len(generators) > MAX_GENERATORS + 1:", "test_descriptor_budget_bounds_factoring_time"),
        ("stein-generator-bits-budget", "            if n.bit_length() > MAX_GENERATOR_BITS:", "            if n.bit_length() > MAX_GENERATOR_BITS + 1:", "test_descriptor_budget_bounds_factoring_time"),
        ("stein-lam-sum", "            lam *= n\n", "            lam += n\n", "test_descriptor_budget_bounds_factoring_time"),
        # `bit_length() // 3` as the power
        ("stein-divides-power-short", "return not pow(self._lam, n.bit_length(), n)", "return not pow(self._lam, n.bit_length() // 3, n)", "test_amalgam.py::test_context_mismatch_raises"),
        ("stein-coordinate-numerator", "return self._divides_power(as_fraction(x).denominator)", "return self._divides_power(as_fraction(x).numerator)", "test_coordinate_membership_and_depth"),
        ("stein-depth-floor", "q = max(q, -(-e // _valuation(self._lam, p)))", "q = max(q, e // _valuation(self._lam, p))", "test_membership_matches_trial_division"),
        ("stein-depth-unchecked", "        if not self._divides_power(den):\n            raise", "        if False:\n            raise", "test_coordinate_membership_and_depth"),
        # the numerator not tested, and the pivot not checked
        ("stein-slope-numerator-untested", "        if num != 1 or den != 1:", "        if den != 1:", "test_is_member_matches_reference"),
        ("stein-slope-full-lattice-denominator-only", "return self._divides_power(num) and self._divides_power(den)", "return self._divides_power(den)", "test_cli.py::test_golden_transcript"),
        ("stein-slope-pivot-unchecked", "        return not any(exps)\n", "        return True\n", "test_cli.py::test_golden_transcript"),
        ("stein-descriptor-str", "\"T_{%s}\" % \",\"", "\"T_%s\" % \",\"", "test_amalgam.py::test_word_product_operator_and_reprs"),
        # first index, image mod 1 and slope de-duplication
        ("stein-member-first-index", "    for j in range(core.first_breakpoint(xs, ys), len(xs) - 1):", "    for j in range(1, len(xs) - 1):", "test_amalgam.py::test_non_members_are_refused_after_many_valid_words"),
        ("stein-member-image-unreduced", "where = Fraction(n - d if n >= d else n, d)", "where = Fraction(n, d)", "test_is_member_matches_reference"),
        ("stein-member-slopes-repeated", "for n, d in dict.fromkeys(core.slopes(xs, ys)):", "for n, d in core.slopes(xs, ys):", "test_is_member_matches_reference"),
        ("stein-member-cache-any-descriptor", "    if f._member_of is descriptor:", "    if f._member_of is not None:", "test_a_cached_member_verdict_is_per_descriptor"),
        ("stein-cyclic-repeat-allowed", "values[i + 1] <= values[i]]", "values[i + 1] < values[i]]", "test_tuple_map_errors"),
        ("stein-cyclic-wrap-allowed", "if len(descents) > 1 or values[0] <= values[-1]:", "if len(descents) > 1 or values[0] < values[-1]:", "test_tuple_map_errors"),
        ("stein-tuple-depth-zero", "    q = max(1, descriptor._depth(den))\n    if not", "    q = descriptor._depth(den)\n    if not", "test_tuple_map_matches_the_fraction_reference"),
        ("stein-tuple-no-halving-check", "    if not descriptor._has_slope(2, 1):\n", "    if False:\n", "test_cli.py::test_usage_errors_exit_2"),
        # the pushed keys `d` made `t`, and `d = t`
        ("stein-tuple-left-key", "heapq.heappush(heap, (d, a, mid))", "heapq.heappush(heap, (t, a, mid))", "test_cli.py::test_verify_all_output_is_pinned"),
        ("stein-tuple-right-key", "heapq.heappush(heap, (d, mid, b))", "heapq.heappush(heap, (t, mid, b))", "test_cli.py::test_verify_all_output_is_pinned"),
        ("stein-tuple-midpoint-depth", "            d = t + 1\n", "            d = t\n", "test_cli.py::test_verify_all_output_is_pinned"),
        # the tail's shift k - 2 and k, and the head's k + 1
        ("stein-tuple-tail-shift-two", "(a - (k - 1) * b, b) for a, b in gy[:w]", "(a - (k - 2) * b, b) for a, b in gy[:w]", "test_amalgam.py::test_multiply_empty_is_reduce"),
        ("stein-tuple-tail-shift-k", "(a - (k - 1) * b, b) for a, b in gy[:w]", "(a - k * b, b) for a, b in gy[:w]", "test_amalgam.py::test_multiply_empty_is_reduce"),
        ("stein-tuple-head-shift", "gy = [(a - k * b, b) for a, b in gy[w:]]", "gy = [(a - (k + 1) * b, b) for a, b in gy[w:]]", "test_tuple_map_matches_the_fraction_reference"),
        ("stein-tuple-map-swapped", "    return tuple_map_report(xtuple, ytuple, descriptor).map", "    return tuple_map_report(ytuple, xtuple, descriptor).map", "test_cli.py::test_golden_transcript"),
        ("stein-g0-breakpoint", "(((0, 1), (1, 4), (1, 1)), ((1, 2), (1, 1), (3, 2)))", "(((0, 1), (1, 3), (1, 1)), ((1, 2), (1, 1), (3, 2)))", "test_g0_definition_and_sanity"),
        ("stein-center-generator-inverse", "    return center_power(1)\n", "    return center_power(-1)\n", "test_cli.py::test_verify_all_output_is_pinned"),
        ("stein-center-power-negated", "    return lift(identity_map(), k)\n", "    return lift(identity_map(), -k)\n", "test_cli.py::test_verify_all_output_is_pinned"),
        ("stein-torsion-unchecked", "    if not descriptor.contains_coordinate(r):\n", "    if False:\n", "test_torsion_rotation"),
        ("stein-random-pair-fixed-depth", "    q = rng.randint(1, max_depth)\n", "    q = max_depth\n", "test_cli.py::test_output_is_deterministic"),
        ("stein-random-member-no-inverse", "    elif style == 1:\n        f = invert(f)\n", "    elif style == 1:\n        pass\n", "test_cli.py::test_output_is_deterministic"),
        # the pivot count not checked, every lattice taken as full, and non-divisible reduction steps skipped
        ("stein-pivot-count-unchecked", "self._all_slopes = len(self._basis) == len(self._primes) and all(", "self._all_slopes = all(", "test_slope_solver_matches_brute_force_on_dependent_generators"),
        ("stein-every-lattice-full-always", "self._all_slopes = len(self._basis) == len(self._primes) and all(", "self._all_slopes = True or all(", "test_cli.py::test_golden_transcript"),
    ),
    *_rows("src/plmonster/amalgam.py", "test_amalgam.py",
        ("amalgam-other-constant", "return Factor.G2 if self is Factor.G1 else Factor.G1", "return Factor.G2", "test_word_product_operator_and_reprs"),
        # `Syllable.__eq__` without the class test
        ("amalgam-syllable-eq-any-class", "        if other.__class__ is not self.__class__:\n            return NotImplemented\n", "", "test_package.py::test_syllables_compare_only_with_syllables"),
        ("amalgam-context-member-gate", "        if not report.member:\n            raise ContextError(", "        if False:\n            raise ContextError(", "test_serialize.py::test_messages_about_long_values_are_document_errors"),
        ("amalgam-context-rational-gate", "        if isinstance(rot, RationalRotation):\n", "        if False:\n", "test_cli.py::test_word_multiply_builds_one_default_context"),
        ("amalgam-context-descriptor-swapped", "return self._left if factor is Factor.G1 else self._right", "return self._right if factor is Factor.G1 else self._left", "test_syllable_membership_is_checked"),
        ("amalgam-identity-ignores-offset", "        return a._offset == 0 and base._ys == base._xs\n", "        return base._ys == base._xs\n", "test_britton_reduce_matches_reference_on_pl_words"),
        # a G1 edge test that accepts any rotation
        ("amalgam-g1-edge-any-rotation", "return a._offset if base._ys == base._xs else None", "return a._offset if len(base._xs) == 2 else None", "test_britton_reduce_matches_reference_on_pl_words"),
        # `edge_element` returning `power(-k)`
        ("amalgam-edge-element-negated", "        return self._detector.power(k)\n", "        return self._detector.power(-k)\n", "test_context_supplies_the_reduction_operations"),
        ("amalgam-center-element-negated", "            return center_power(k)\n", "            return center_power(-k)\n", "test_britton_reduce_matches_reference_on_pl_words"),
        # no default-context reuse
        ("amalgam-no-default-reuse", "lift(irrational_candidate_g0(), 0)):\n        return default_context()", "lift(irrational_candidate_g0(), 0)):\n        return _other_context(left, right, edge)", "test_documents.py::test_a_word_document_finds_its_context_without_fractions"),
        # keeping merged identities, resetting `checked` to 0 and dropping
        # its reset on a merge
        ("amalgam-britton-keeps-merged-identity", "            if is_identity(s.factor, s.element):\n                continue\n        stack.append(s)", "        stack.append(s)", "test_britton_reduce_matches_reference_on_pl_words"),
        ("amalgam-britton-checked-zero", "        checked = i\n", "        checked = 0\n", "test_britton_reduce_edge_tests_each_syllable_once"),
        ("amalgam-britton-checked-not-reset", "                if len(stack) < checked:\n                    checked = len(stack)\n", "", "test_britton_reduce_matches_reference_on_long_pl_words"),
        ("amalgam-britton-merge-order", "            s = Syllable(s.factor, compose(s.factor, top.element, s.element))\n            if is_identity(s.factor, s.element):\n                continue", "            s = Syllable(s.factor, compose(s.factor, s.element, top.element))\n            if is_identity(s.factor, s.element):\n                continue", "test_words_equal"),
        ("amalgam-word-membership-unchecked", "            if not report.member:\n                raise SyllableError(", "            if False:\n                raise SyllableError(", "test_syllable_membership_is_checked"),
        ("amalgam-trivial-one-syllable", "        return not self.reduce()._syllables\n", "        return len(self.reduce()._syllables) <= 1\n", "test_acceptance.py::test_acceptance_4_word_problem_planted_and_perturbed"),
        ("amalgam-multiply-context-unchecked", "        if self._context != other._context:\n", "        if False:\n", "test_context_mismatch_raises"),
        ("amalgam-multiply-order", "self._context, self._syllables + other._syllables", "self._context, other._syllables + self._syllables", "test_acceptance.py::test_acceptance_7_monster_evidence_report"),
        ("amalgam-invert-unreversed", "for s in reversed(self._syllables)", "for s in self._syllables", "test_multiply_and_inverse_cancel"),
        ("amalgam-project-order", "acc = f if acc is None else compose(acc, f)", "acc = f if acc is None else compose(f, acc)", "test_acceptance.py::test_acceptance_7_monster_evidence_report"),
        ("amalgam-word-eq-ignores-syllables", "            self._context == other._context\n            and self._syllables == other._syllables\n", "            self._context == other._context\n", "test_word_equality_is_structural"),
        ("amalgam-words-equal-uninverted", "    return u.multiply(v.invert_word()).is_trivial()", "    return u.multiply(v).is_trivial()", "test_words_equal"),
        ("amalgam-relator-unnegated", "context.edge_element(Factor.G2, -k)", "context.edge_element(Factor.G2, k)", "test_britton_reduce_matches_reference_on_pl_words"),
        # one more draw in random_word (golden word rows)
        ("amalgam-random-word-one-more-draw", "    rng = random.Random(seed)\n    factor = rng.choice(", "    rng = random.Random(seed)\n    rng.random()\n    factor = rng.choice(", "test_cli.py::test_output_is_deterministic"),
        # five styles of syllable instead of six (golden row word-random-seed-1)
        ("amalgam-random-word-styles", "        style = rng.randrange(6)\n", "        style = rng.randrange(5)\n", "test_cli.py::test_golden_transcript"),
        # `S-` given exponent 1, the edge exponents swapped and the oracle's
        # mismatch append dropped
        ("amalgam-finite-s-inverse", "\"S-\": (Factor.G1, 3,", "\"S-\": (Factor.G1, 1,", "test_finite_instance_basics"),
        ("amalgam-finite-edges-swapped", "_FACTORS = {Factor.G1: (4, 2), Factor.G2: (6, 3)}", "_FACTORS = {Factor.G1: (4, 3), Factor.G2: (6, 2)}", "test_finite_instance_basics"),
        ("amalgam-finite-oracle-no-append", "                mismatches.append(letters)\n", "                pass\n", "test_finite_oracle_reports_mismatches"),
        ("amalgam-finite-oracle-short", "    for n in range(1, max_length + 1):\n", "    for n in range(1, max_length):\n", "test_finite_oracle_reports_mismatches"),
        ("amalgam-syllable-mutable", "    def __setattr__(self, name, value):\n        raise AttributeError(\"cannot assign to field %r\" % name)", "    def __setattr__(self, name, value):\n        object.__setattr__(self, name, value)", "test_package.py::test_records_are_immutable_values"),
        ("amalgam-syllable-no-repr", "    def __repr__(self):\n        return \"Syllable(", "    def _unused_repr(self):\n        return \"Syllable(", "test_package.py::test_records_are_immutable_values"),
    ),
    *_rows("src/plmonster/serialize.py", "test_serialize.py",
        # `>=` for `>` in the size check
        ("ser-document-size-inclusive", "    if len(data) > MAX_DOCUMENT_BYTES:", "    if len(data) >= MAX_DOCUMENT_BYTES:", "test_cli.py::test_document_and_word_length_budgets_exit_2_before_parsing"),
        # the run budget off by one, and native int() for every length
        ("ser-int-budget-off-by-one", "    if len(text.lstrip(\"-\")) > MAX_DIGITS:", "    if len(text.lstrip(\"-\")) > MAX_DIGITS + 1:", "test_cli.py::test_flag_rationals_follow_one_grammar"),
        ("ser-int-native", "    if len(text) <= _SHORT_DIGITS:\n", "    if True:\n", "test_cli.py::test_integer_flags_ignore_the_host_digit_limit"),
        # native str() for every length, `zfill` dropped and no exact digit
        # count after formatting
        ("ser-digits-native", "    if bits <= _SHORT_BITS:\n", "    if True:\n", "test_cli.py::test_integer_flags_ignore_the_host_digit_limit"),
        ("ser-digits-no-zfill", "_digits(lo).zfill(k)", "_digits(lo)", "test_cli.py::test_integer_flags_ignore_the_host_digit_limit"),
        ("ser-digits-no-exact-count", "    if len(text) > MAX_DIGITS:\n        raise BudgetError(_OVER_BUDGET)\n    return text", "    return text", "test_dumped_documents_write_long_integers_at_any_depth"),
        ("ser-integer-as-fraction", "return _digits(n) if d == 1 else", "return _digits(n) if d == 0 else", "test_cli.py::test_golden_transcript"),
        # denominator 1 accepted, leading zeros accepted, lowest terms not
        # checked and `$` for `\Z`
        ("ser-denominator-one", " or den == \"1\" or ", " or ", "test_canonical_check_matches_the_reference"),
        ("ser-leading-zeros", "_CANONICAL_RE = re.compile(r\"(0|-?[1-9][0-9]*)", "_CANONICAL_RE = re.compile(r\"(0|-?[0-9]+)", "test_canonical_check_matches_the_reference"),
        ("ser-lowest-terms-unchecked", " or math.gcd(numerator, denominator) != 1:", ":", "test_canonical_check_matches_the_reference"),
        ("ser-canonical-dollar", "(/[1-9][0-9]*)?\\Z\")", "(/[1-9][0-9]*)?$\")", "test_canonical_check_matches_the_reference"),
        ("ser-zero-denominator", "    if denominator == 0:\n        raise DocumentError", "    if False:\n        raise DocumentError", "test_canonical_check_matches_the_reference"),
        # losing BudgetError for a descriptor over budget
        ("ser-descriptor-budget-kind", "        raise BudgetError(\"%s: %s\" % (where or key, exc))", "        raise DocumentError(\"%s: %s\" % (where or key, exc))", "test_map_descriptor_errors_name_the_field"),
        ("ser-lambda-unchecked", "return _checked_descriptor(slopes, doc.get(\"lambda\"), None,", "return _checked_descriptor(slopes, None, None,", "test_map_descriptor_errors_name_the_field"),
        ("ser-map-no-lambda", "\"lambda\": None if descriptor is None else descriptor.lam,", "\"lambda\": None,", "test_cli.py::test_golden_transcript"),
        ("ser-map-format-unchecked", "    if fmt != MAP_FORMAT:\n", "    if fmt is None:\n", "test_map_document_errors"),
        ("ser-offset-bool", "    if isinstance(offset, bool) or not isinstance(offset, int):\n        raise DocumentError", "    if not isinstance(offset, int):\n        raise DocumentError", "test_fuzz.py::test_mutated_word_documents_raise_only_document_errors"),
        ("ser-dump-no-newline", "    return _json_text(doc, \"\\n\") + \"\\n\"", "    return _json_text(doc, \"\\n\")", "test_documents.py::test_the_writer_writes_what_json_dumps_writes"),
        ("ser-dump-one-space-indent", "    inner = newline + \"  \"\n", "    inner = newline + \" \"\n", "test_documents.py::test_the_writer_writes_what_json_dumps_writes"),
        ("ser-load-native-ints", "json.loads(text, parse_int=_int)", "json.loads(text)", "test_cli.py::test_golden_transcript"),
        ("ser-load-recursion-uncaught", "    except RecursionError:\n", "    except MemoryError:\n", "test_cli.py::test_a_document_that_is_not_utf8_is_a_parse_error"),
        ("ser-word-edge-unlifted", "\"edge\": map_to_document(ctx.edge),", "\"edge\": map_to_document(ctx.edge.base),", "test_documents.py::test_documents_round_trip_without_fractions"),
        ("ser-word-factor-unchecked", "        if factor not in (Factor.G1.value, Factor.G2.value):\n", "        if False:\n", "test_word_document_rejects_bad_syllables"),
    ),
    *_rows("src/plmonster/__init__.py", "test_package.py",
        # unknown names returning None, and caching in __getattr__
        ("pkg-unknown-name-none", "        raise AttributeError(\"module %r has no attribute %r\" % (__name__, name))", "        return None", "test_unknown_names_raise_attribute_error"),
        ("pkg-getattr-caches", "    return getattr(_import_module(\".\" + home, __name__), name)", "    value = globals()[name] = getattr(_import_module(\".\" + home, __name__), name)\n    return value", "test_lookups_are_not_cached"),
    ),
    *_rows("src/plmonster/cli.py", "test_cli.py",
        # `_write` without the size check, and opening the file before it
        ("cli-write-unchecked", "    data = check_document_size(text.encode(\"utf-8\"), out_path or \"the output\")\n", "    data = text.encode(\"utf-8\")\n", "test_writers_refuse_documents_over_the_budget"),
        ("cli-write-opens-first", "    data = check_document_size(text.encode(\"utf-8\"), out_path or \"the output\")\n    if out_path is None:\n        sys.stdout.write(text)\n    else:\n        with open(out_path, \"wb\") as handle:\n            handle.write(data)", "    if out_path is None:\n        data = check_document_size(text.encode(\"utf-8\"), \"the output\")\n        sys.stdout.write(text)\n    else:\n        with open(out_path, \"wb\") as handle:\n            handle.write(check_document_size(text.encode(\"utf-8\"), out_path))", "test_writers_refuse_documents_over_the_budget"),
        # `_Lazy` building its parser at once, and no matcher override
        ("cli-lazy-builds-at-once", "        self._populate, self._kwargs, self._parser = populate, kwargs, None\n", "        self._populate, self._kwargs, self._parser = populate, kwargs, _Parser(**kwargs)\n        populate(self._parser)\n", "test_a_command_loads_only_what_it_runs"),
        ("cli-no-matcher-override", "        self._negative_number_matcher = re.compile(", "        self._unused_matcher = re.compile(", "test_negative_rationals_are_values"),
        # `member` returning 0 for a non-member, `word trivial` returning 0
        # for a nontrivial word
        ("cli-member-exit-zero", "    return 0 if report.member else 1\n", "    return 0\n", "test_member_verdict_exit_codes"),
        ("cli-trivial-exit-zero", "    return 0 if trivial else 1\n", "    return 0\n", "test_word_trivial_verdicts"),
        ("cli-depth-zero-accepted", "_bounded(\"--depth\", args.depth, 1, MAX_ROTATION_DEPTH)", "_bounded(\"--depth\", args.depth, 0, MAX_ROTATION_DEPTH)", "test_bad_rotation_flags_are_usage_errors_before_the_map_is_read"),
        ("cli-document-errors-runtime", "    except DocumentError as exc:\n        return _emit_error(\"parse\", str(exc))\n", "", "test_word_multiply_builds_one_default_context"),
        # catching the wrong exception in rot, a plain parser, no help for rot
        ("cli-rot-wrong-exception", "        except OverflowError:  # a lift", "        except ZeroDivisionError:  # a lift", "test_rot_bracket_past_float_range"),
        ("cli-lazy-plain-parser", "            self._parser = _Parser(**self._kwargs)", "            self._parser = argparse.ArgumentParser(**self._kwargs)", "test_integer_flags_ignore_the_host_digit_limit"),
        ("cli-no-command-help", "sub.add_parser(name, help=summary, populate=populate)", "sub.add_parser(name, populate=populate)", "test_help_lists_every_command_and_action"),
        # verify imported at module top
        ("cli-verify-imported-at-top", "# amalgam, rotation and verify are imported where a command first needs", "from . import verify  # noqa: F401\n# amalgam, rotation and verify are imported where a command first needs", "test_a_command_loads_only_what_it_runs"),
        # the budget check replaced by `if False:`
        ("cli-budget-unchecked", "    if value > budget:\n", "    if False:\n", "test_document_and_word_length_budgets_exit_2_before_parsing"),
        # a message without its flag, the map read before the flags, tuple-map usage without the flags
        ("cli-depth-message-without-flag", "\"--depth %d is below --max-denominator %d;", "\"%d is below --max-denominator %d;", "test_bad_rotation_flags_are_usage_errors_before_the_map_is_read"),
        ("cli-rot-reads-map-first", "    _bounded(\"--max-denominator\", args.max_denominator, 1, MAX_ROTATION_DEPTH)\n", "    value = _read(args.map, parse_map)\n    _bounded(\"--max-denominator\", args.max_denominator, 1, MAX_ROTATION_DEPTH)\n", "test_bad_rotation_flags_are_usage_errors_before_the_map_is_read"),
        ("cli-tuple-map-usage-without-flags", "raise _UsageError(\"%s: %s\" % (\" \".join(flags), exc))", "raise _UsageError(str(exc))", "test_usage_errors_exit_2"),
    ),
    *_rows("src/plmonster/verify.py", "test_cli.py",
        # `--suite all` running its suites in reverse
        ("verify-all-reversed", "        for suite in SUITES:\n", "        for suite in reversed(SUITES):\n", "test_a_wrong_center_bracket_fails_both_center_checks"),
        # the bracket property dropped from `_center_power_failures`
        ("verify-center-bracket-dropped", "            and br.lo == k\n            and br.hi == k\n", "", "test_a_wrong_center_bracket_fails_both_center_checks"),
        # what `verify --seed` means
        ("verify-arith-seed-shifted", "    \"\"\"Group axioms, power laws, lift coherence, displacement containment.\"\"\"\n    rng = random.Random(seed)", "    \"\"\"Group axioms, power laws, lift coherence, displacement containment.\"\"\"\n    rng = random.Random(seed + 1)", "test_verify_seed_seeds_the_suites_own_generator"),
    ),
]


def tracked(root=ROOT):
    """The tracked files of the checkout, as relative paths."""
    listed = subprocess.run(
        ["git", "ls-files", "-z"], cwd=root, capture_output=True, check=True
    ).stdout.decode()
    return [name for name in listed.split("\0") if name and (root / name).is_file()]


def problems(rows=ROWS, root=ROOT):
    """What is wrong with the table: repeated ids, rows that change
    nothing, and old snippets that do not occur exactly once."""
    found = []
    seen = set()
    for row_id, path, old, new, selector in rows:
        if row_id in seen:
            found.append("%s: repeated id" % row_id)
        seen.add(row_id)
        if old == new or not selector:
            found.append("%s: changes nothing or names no test" % row_id)
        count = (root / path).read_text().count(old)
        if count != 1:
            found.append("%s: old snippet occurs %d times in %s" % (row_id, count, path))
    return found


def _ended(output, kind):
    """The test ids that the plugin in PYTEST printed as `kind`."""
    return set(re.findall(r"^%s (.+)$" % kind, output, re.M))


def run_row(row, every, files):
    """(row id, status, failed test ids, stopped test ids) for one mutant
    in a fresh copy."""
    row_id, path, old, new, selector = row
    with tempfile.TemporaryDirectory() as tmp:
        for name in files:
            Path(tmp, name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(ROOT / name, Path(tmp, name))
        target = Path(tmp, path)
        target.write_text(target.read_text().replace(old, new, 1))
        args = ["--continue-on-collection-errors", "--deselect", HYGIENE] if every else ["-x", *selector.split()]
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        limit = TEST_TIMEOUT if every else 0
        command = [sys.executable, "-c", PYTEST, str(limit), "-q", "--tb=no", "-rN", "-p", "no:cacheprovider", *args]
        try:
            done = subprocess.run(
                command, cwd=tmp, env=env, capture_output=True,
                timeout=TIMEOUT["all" if every else "selector"],
            )
            output, returncode = done.stdout, done.returncode
        except subprocess.TimeoutExpired as stop:
            output, returncode = stop.stdout or b"", None
    output = output.decode(errors="replace")
    stopped = _ended(output, "STOPPED")
    failed = sorted(_ended(output, "FAILED") - stopped)
    if returncode is None:
        status = "killed (row timeout)" if every and failed else "timeout"
    elif every:
        # exit code 1 with only stopped tests: tier-1 ran and nothing failed
        status = "killed" if failed else "survived" if returncode in (0, 1) else "exit %d" % returncode
    else:
        # exit code 1: tests ran and one failed; anything else is no kill
        status = "killed" if returncode == 1 and failed else "survived (exit %d)" % returncode
    return row_id, status, failed, sorted(stopped)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run the mutation table.")
    parser.add_argument("ids", nargs="*", help="run only these rows")
    parser.add_argument("--all", action="store_true", help="run full tier-1 per row and print its kill set")
    args = parser.parse_args(argv)
    broken = problems()
    if broken:
        print("\n".join(broken))
        return 1
    rows = [row for row in ROWS if not args.ids or row[0] in args.ids]
    files = tracked()
    start = time.monotonic()
    bad = 0
    with ThreadPoolExecutor(JOBS) as pool:
        # each row is printed when it ends, so a long run shows its progress
        runs = [pool.submit(run_row, row, args.all, files) for row in rows]
        for done in as_completed(runs):
            row_id, status, failed, stopped = done.result()
            bad += not status.startswith("killed")
            line = "%s %s" % (row_id, status)
            if args.all:
                line += ": " + " ".join(failed)
                if stopped:
                    line += "; stopped: " + " ".join(stopped)
            print(line, flush=True)
    print("%d rows, %d not killed, %.0f s" % (len(rows), bad, time.monotonic() - start))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
