"""End-to-end acceptance checks, one per shipped guarantee.

Every test computes its verdict first, prints a single visible
``ACCEPTANCE <n> PASS|FAIL <summary>`` line, and only then asserts, so
the one-line scoreboard survives in the log either way.
"""

import json
import random
import time
from fractions import Fraction as F

from plmonster import (
    compose,
    default_context,
    evaluate_line,
    finite_oracle_check,
    invert,
    lift,
    log_ratio_bounds,
    power,
    rotation_map,
    rotation_number,
)
from plmonster.cli import main as cli_main
from plmonster.rotation import RationalRotation
from plmonster.stein import STEIN_2_3, THOMPSON, random_member
from plmonster.verify import (
    MONSTER_DISCLAIMER,
    monster_evidence_report,
    perturb_word,
    planted_trivial_word,
    run_arith,
    run_centrality,
    run_rot_invariance,
    run_tuple,
)

SCOREBOARD = "ACCEPTANCE %d %s %s"


def announce(capsys, number, ok, summary):
    with capsys.disabled():
        print(SCOREBOARD % (number, "PASS" if ok else "FAIL", summary), flush=True)


def test_acceptance_1_g0_rotation_certificate(capsys, tmp_path):
    """g0 has no rational rotation number with denominator <= 50; the CLI
    emits an exact bracket of width <= 1/200 around log(2)/log(3), in
    bounded time."""
    g0_path = str(tmp_path / "g0.json")
    assert cli_main(["element", "g0", "-o", g0_path]) == 0
    capsys.readouterr()

    started = time.perf_counter()
    code = cli_main(
        ["rot", "--map", g0_path, "--max-denominator", "50", "--depth", "200"]
    )
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    doc = json.loads(out)

    lo = F(doc["bracket"][0]) if code == 0 else None
    hi = F(doc["bracket"][1]) if code == 0 else None
    target = F(0.6309297535714574)
    tight = log_ratio_bounds(2, 3, 10**5)
    ok = (
        code == 0
        and doc["kind"] == "nonrational-certified"
        and doc["max_denominator"] == 50
        and hi - lo <= F(1, 200)
        and lo <= target <= hi
        and lo <= tight[0] and tight[1] <= hi
        and elapsed <= 10.0
    )
    announce(
        capsys,
        1,
        ok,
        "g0 certified nonrational up to q=50, bracket width %.3e <= 1/200, "
        "contains log(2)/log(3), %.2fs <= 10s" % (float(hi - lo), elapsed),
    )
    assert ok, doc


def test_acceptance_2_rational_rotation_exactness(capsys):
    """Random rotations and their conjugates by tuple-map elements get
    exact rational rotation numbers with exact periodic witnesses."""

    def witness_holds(f, cert):
        q = cert.value.denominator
        p = cert.value.numerator
        fbar_q = power(lift(f, 0), q)
        return evaluate_line(fbar_q, cert.witness) == cert.witness + p

    rng = random.Random(42)
    failures = []
    checked = 0
    for i in range(300):
        q = rng.randint(1, 40)
        p = rng.randint(0, q - 1)
        f = rotation_map(F(p, q))
        if i >= 200:  # a conjugate, whose lift by 0 may translate by p/q plus an integer
            h = random_member(THOMPSON if i % 2 else STEIN_2_3, rng)
            f = compose(compose(invert(h), f), h)
        cert = rotation_number(f, max_denominator=40, depth=45)
        checked += 1
        if not (
            isinstance(cert, RationalRotation)
            and (cert.value if i < 200 else cert.circle_value) == F(p, q)
            and witness_holds(f, cert)
        ):
            failures.append(("rotation" if i < 200 else "conjugate", p, q))

    ok = checked == 300 and not failures
    announce(
        capsys,
        2,
        ok,
        "300 rational rotation numbers exact with exact witnesses"
        if ok
        else "%d of 300 failed: %r" % (len(failures), failures[:3]),
    )
    assert ok, failures


def test_acceptance_3_finite_oracle_equivalence(capsys):
    """Britton reduction agrees with the 2x2 integer matrix oracle on all
    5460 words of length <= 6 in the finite validation amalgam."""
    report = finite_oracle_check(max_length=6)
    ok = report.words_checked == 5460 and report.mismatches == ()
    announce(
        capsys,
        3,
        ok,
        "%d words of length <= 6, %d mismatches"
        % (report.words_checked, len(report.mismatches)),
    )
    assert ok, report.mismatches[:3]


def test_acceptance_4_word_problem_planted_and_perturbed(capsys):
    """500 planted-trivial words reduce to the identity, their 500
    perturbed variants do not, within the time budget."""
    ctx = default_context()
    rng = random.Random(42)
    started = time.perf_counter()
    wrong_trivial = 0
    wrong_nontrivial = 0
    for _ in range(500):
        word = planted_trivial_word(ctx, rng, max_syllables=12)
        if not word.is_trivial():
            wrong_trivial += 1
        if perturb_word(word, rng).is_trivial():
            wrong_nontrivial += 1
    elapsed = time.perf_counter() - started
    ok = wrong_trivial == 0 and wrong_nontrivial == 0 and elapsed <= 60.0
    announce(
        capsys,
        4,
        ok,
        "500 planted trivial + 500 perturbed nontrivial, %.2fs <= 60s"
        % elapsed,
    )
    assert ok, (wrong_trivial, wrong_nontrivial, elapsed)


def test_acceptance_5_tuple_transitivity(capsys):
    """1000 random tuple pairs produce group members mapping the source
    tuple to the target tuple exactly, over both slope groups."""
    results = run_tuple(samples=1000, seed=42)
    failed = [r for r in results if not r.passed]
    ok = not failed
    announce(
        capsys,
        5,
        ok,
        "1000 tuple pairs: exact membership and exact pointwise mapping"
        if ok
        else "; ".join("%s (%s)" % (r.name, r.detail) for r in failed),
    )
    assert ok, failed


def test_acceptance_6_structural_suite(capsys):
    """Group axioms, lift/project coherence, centrality, conjugacy
    invariance of rotation numbers, and displacement containment hold
    exactly on seeded random samples."""
    results = (
        run_arith(samples=1000, seed=42)
        + run_centrality(samples=100, seed=42)
        + run_rot_invariance(samples=1000, seed=42)
    )
    failed = [r for r in results if not r.passed]
    ok = not failed
    announce(
        capsys,
        6,
        ok,
        "%d structural checks, zero failures" % len(results)
        if ok
        else "; ".join("%s (%s)" % (r.name, r.detail) for r in failed),
    )
    assert ok, failed


def test_acceptance_7_monster_evidence_report(capsys):
    """The monster-evidence report passes end to end, carries the
    non-verified-theorem disclaimer verbatim, and the CLI agrees."""
    report = monster_evidence_report()
    code = cli_main(["verify", "--suite", "monster-evidence"])
    out = capsys.readouterr().out
    ok = (
        report.ok
        and report.disclaimer == MONSTER_DISCLAIMER
        and report.disclaimer.startswith("Disclaimer:")
        and code == 0
        and MONSTER_DISCLAIMER in out
    )
    announce(
        capsys,
        7,
        ok,
        "monster-evidence report ok with explicit disclaimer; CLI exit 0",
    )
    assert ok, (report.ok, code)
