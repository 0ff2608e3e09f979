"""Batch verification suites for the exact PL circle-map stack.

Each suite runs a deterministic set of property checks (seeded sampling,
exact assertions, no tolerances) and returns structured results the CLI
renders one line per check.  The monster-evidence report bundles the
machine-checkable ingredients behind the shipped amalgam: the center
projects to the identity, the edge map's rotation number is certified
away from small rationals and bracketed around log 2 / log 3, the center
commutes exactly, the defining relator words reduce to nothing, and the
projection onto the left circle group is a homomorphism.  The report
always carries a disclaimer that the global theorem it supports is about
all actions of the group and is not machine-verified.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .amalgam import (
    EDGE_ROTATION_DEPTH,
    AmalgamContext,
    AmalgamWord,
    Syllable,
    default_context,
    finite_oracle_check,
    random_word,
    relator_word,
)
from .maps import (
    PLLineMap,
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
from .rotation import (
    RationalRotation,
    log_ratio_bounds,
    rotation_number,
    translation_bracket,
)
from .stein import (
    STEIN_2_3,
    THOMPSON,
    center_generator_z,
    is_member,
    random_member,
    random_tuple_pair,
    tuple_map_report,
)

MONSTER_DISCLAIMER = (
    "Disclaimer: the checks above certify finite, machine-checkable "
    "ingredients only. The global dynamical property they support "
    "quantifies over every fixed point-free action of the amalgamated "
    "group on the line and rests on an abstract argument; it is not, and "
    "cannot be, established by the finite computations in this report."
)


class CheckResult(NamedTuple):
    """One property check: a stable name, a verdict, and a detail line."""

    name: str
    passed: bool
    detail: str = ""


def _outcome(name, failures, total):
    if failures:
        shown = "; ".join(repr(c) for c in failures[:3])
        return CheckResult(
            name, False, "%d of %d failed, e.g. %s" % (len(failures), total, shown)
        )
    return CheckResult(name, True, "%d checks" % total)


def _alternating_descriptor(i):
    return THOMPSON if i % 2 == 0 else STEIN_2_3


def _random_lift(rng, descriptor) -> PLLineMap:
    return lift(random_member(descriptor, rng), rng.choice((-1, 0, 1)))


def run_arith(samples: int = 1000, seed: int = 42):
    """Group axioms, power laws, lift coherence, displacement containment."""
    rng = random.Random(seed)
    heavy = max(1, samples // 10)
    results = []

    failures = []
    for i in range(heavy):
        d = _alternating_descriptor(i)
        f, g, h = (random_member(d, rng) for _ in range(3))
        if compose(compose(f, g), h) != compose(f, compose(g, h)):
            failures.append((f, g, h))
    results.append(_outcome("compose-associative", failures, heavy))

    failures = []
    for i in range(heavy):
        d = _alternating_descriptor(i)
        f = random_member(d, rng)
        ident = identity_map()
        if not (
            compose(f, invert(f)).is_identity()
            and compose(invert(f), f).is_identity()
            and compose(f, ident) == f
            and compose(ident, f) == f
        ):
            failures.append(f)
    results.append(_outcome("identity-and-inverse", failures, heavy))

    failures = []
    for i in range(heavy):
        d = _alternating_descriptor(i)
        f = random_member(d, rng)
        a = rng.randint(-4, 4)
        b = rng.randint(-4, 4)
        if compose(power(f, a), power(f, b)) != power(f, a + b):
            failures.append((f, a, b))
    results.append(_outcome("power-additive", failures, heavy))

    failures = []
    for i in range(heavy):
        d = _alternating_descriptor(i)
        fbar = _random_lift(rng, d)
        f = project(fbar)
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        ok = (
            project(lift(f, fbar.offset)) == f
            and lift(project(fbar), fbar.offset) == fbar
            and evaluate_line(fbar, x + 1) == evaluate_line(fbar, x) + 1
        )
        if not ok:
            failures.append((fbar, x))
    results.append(_outcome("lift-coherence", failures, heavy))

    failures = []
    pool = [_random_lift(rng, _alternating_descriptor(i)) for i in range(8)]
    for i in range(samples):
        fbar = pool[i % len(pool)]
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 50))
        if evaluate_line(fbar, x) - x not in displacement_interval(fbar):
            failures.append((fbar, x))
    results.append(_outcome("displacement-contains", failures, samples))

    failures = []
    for i in range(heavy):
        d = _alternating_descriptor(i)
        f, g = random_member(d, rng), random_member(d, rng)
        x = Fraction(rng.randint(0, 99), 100)
        if evaluate_circle(compose(f, g), x) != evaluate_circle(
            g, evaluate_circle(f, x)
        ):
            failures.append((f, g, x))
    results.append(_outcome("compose-pointwise", failures, heavy))
    return results


def _center_commutes(rng, samples) -> CheckResult:
    """The unit translation commutes exactly with `samples` drawn lifts."""
    z = center_generator_z()
    failures = []
    for i in range(samples):
        fbar = _random_lift(rng, _alternating_descriptor(i))
        if compose(z, fbar) != compose(fbar, z):
            failures.append(fbar)
    return _outcome("center-commutes", failures, samples)


def _center_power_failures(ks) -> list:
    """The k in ks at which z**k does not project to the identity, with
    rotation number exactly 0, or has a translation bracket other than [k, k]."""
    z = center_generator_z()
    failures = []
    for k in ks:
        zk = power(z, k)
        rot = rotation_number(project(zk), 10, 10)
        br = translation_bracket(zk, 1)
        if not (
            project(zk).is_identity()
            and isinstance(rot, RationalRotation)
            and rot.value == 0
            and br.lo == k
            and br.hi == k
        ):
            failures.append(k)
    return failures


def run_centrality(samples: int = 1000, seed: int = 42):
    """The unit translation commutes exactly with every sampled lift."""
    return [_center_commutes(random.Random(seed), samples)]


def run_rot_invariance(samples: int = 1000, seed: int = 42):
    """Rotation numbers: conjugacy invariance, offset shifts, center quotient."""
    rng = random.Random(seed)
    pairs = max(1, samples // 5)
    results = []

    failures = []
    for i in range(pairs):
        d = _alternating_descriptor(i)
        q = rng.randint(1, 12)
        p = rng.randrange(q)
        r = rotation_map(Fraction(p, q))
        h = random_member(d, rng)
        conj = compose(compose(invert(h), r), h)
        got = rotation_number(conj, 50, 60)
        if not (
            isinstance(got, RationalRotation) and got.value == Fraction(p, q) % 1
        ):
            failures.append((p, q, h))
    results.append(_outcome("conjugacy-invariant", failures, pairs))

    failures = []
    for i in range(pairs):
        d = _alternating_descriptor(i)
        fbar = _random_lift(rng, d)
        k = rng.randint(-3, 3)
        shifted = compose(fbar, power(center_generator_z(), k))
        d0 = displacement_interval(fbar)
        d1 = displacement_interval(shifted)
        if not (d1.lo == d0.lo + k and d1.hi == d0.hi + k):
            failures.append((fbar, k))
    results.append(_outcome("offset-shifts-bracket", failures, pairs))

    failures = _center_power_failures(range(-5, 6))
    results.append(_outcome("center-quotient-rot", failures, 11))
    return results


def run_tuple(samples: int = 1000, seed: int = 42):
    """Tuple transitivity: membership, pointwise mapping, grid stability."""
    rng = random.Random(seed)
    point_failures = []
    member_failures = []
    grid_failures = []
    for i in range(samples):
        d = _alternating_descriptor(i)
        xs, ys, _ = random_tuple_pair(d, rng, max_len=6, max_depth=4)
        report = tuple_map_report(xs, ys, d)
        f = report.map
        for a, b in zip(xs, ys):
            if evaluate_circle(f, a) != b:
                point_failures.append((d, xs, ys))
                break
        if not is_member(f, d).member:
            member_failures.append((d, xs, ys))
        n = d.lam**report.refinement_depth
        if any((b * n).denominator != 1 for b in f.breakpoints):
            grid_failures.append((d, xs, ys))
    return [
        _outcome("tuple-pointwise", point_failures, samples),
        _outcome("tuple-membership", member_failures, samples),
        _outcome("tuple-grid-stable", grid_failures, samples),
    ]


def planted_trivial_word(
    context: AmalgamContext, rng: random.Random, max_syllables: int = 12
) -> AmalgamWord:
    """A trivial word built as a conjugated defining relator.

    Takes a random word u and a relator z**k edge**-k, and returns the
    unreduced concatenation u (relator) u**-1, which has at most
    max_syllables syllables and represents the identity.
    """
    budget = max(0, (max_syllables - 2) // 2)
    u = random_word(context, rng.randint(0, budget), seed=rng.randrange(1 << 30))
    k = rng.choice((-2, -1, 1, 2))
    mid = relator_word(context, k)
    inverted = tuple(
        Syllable(s.factor, invert(s.element)) for s in reversed(u.syllables)
    )
    return AmalgamWord(context, u.syllables + mid.syllables + inverted)


def perturb_word(word: AmalgamWord, rng: random.Random) -> AmalgamWord:
    """Multiply one syllable by a nontrivial factor element.

    Replacing a syllable s with s*e in a trivial word produces a
    conjugate of e, so the perturbed word is nontrivial exactly because
    e is a nontrivial member of its factor.
    """
    if not word.syllables:
        raise ValueError("cannot perturb an empty word")
    context = word.context
    i = rng.randrange(len(word.syllables))
    target = word.syllables[i]
    descriptor = context.descriptor(target.factor)
    e = random_member(descriptor, rng)
    while e.is_identity():
        e = random_member(descriptor, rng)
    bumped = Syllable(target.factor, compose(target.element, lift(e, 0)))
    syllables = list(word.syllables)
    syllables[i] = bumped
    return AmalgamWord(context, syllables)


def _projection_failures(context, rng, rounds) -> list:
    """Drawn word pairs (u, v) on which projecting to G1 is not multiplicative."""
    failures = []
    for _ in range(rounds):
        u = random_word(context, rng.randint(0, 4), seed=rng.randrange(1 << 30))
        v = random_word(context, rng.randint(0, 4), seed=rng.randrange(1 << 30))
        lhs = u.multiply(v).project_to_g1()
        rhs = compose(u.project_to_g1(), v.project_to_g1())
        if lhs != rhs:
            failures.append((u, v))
    return failures


def run_amalgam_oracle(samples: int = 1000, seed: int = 42):
    """Finite-instance oracle agreement plus word-problem properties."""
    rng = random.Random(seed)
    rounds = max(1, samples // 20)
    results = []

    report = finite_oracle_check(6)
    results.append(
        CheckResult(
            "finite-oracle-agreement",
            report.ok,
            "%d words, %d mismatches" % (report.words_checked, len(report.mismatches)),
        )
    )

    context = default_context()
    failures = []
    for _ in range(rounds):
        w = planted_trivial_word(context, rng)
        if not w.is_trivial():
            failures.append(w)
    results.append(_outcome("planted-trivial", failures, rounds))

    failures = []
    for _ in range(rounds):
        w = perturb_word(planted_trivial_word(context, rng), rng)
        if w.is_trivial():
            failures.append(w)
    results.append(_outcome("perturbed-nontrivial", failures, rounds))

    failures = []
    for _ in range(rounds):
        u = random_word(context, rng.randint(0, 5), seed=rng.randrange(1 << 30))
        if not u.multiply(u.invert_word()).is_trivial():
            failures.append(u)
    results.append(_outcome("word-inverse-cancels", failures, rounds))

    failures = _projection_failures(context, rng, rounds)
    results.append(_outcome("projection-homomorphism", failures, rounds))
    return results


class MonsterEvidenceReport(NamedTuple):
    """Sections of the evidence report plus the fixed disclaimer."""

    sections: tuple
    disclaimer: str

    @property
    def ok(self) -> bool:
        return all(s.passed for s in self.sections)


def monster_evidence_report(
    samples: int = 20, seed: int = 42
) -> MonsterEvidenceReport:
    """Machine-checkable ingredients for the shipped amalgam, bundled.

    Sections: (a) the center's powers z**k project to the identity circle
    map with rotation number exactly 0 and translate by exactly k; (b)
    the edge map's rotation number is certified nonrational for all
    denominators up to 50, with an exact bracket that provably contains
    log 2 / log 3; (c) the center commutes with sampled lifts; (d)
    relator words reduce to the empty word; (e) the projection to the
    left circle group is a homomorphism on sampled words.  Section (b)
    reports the certificate that the context's edge gate computed when it
    was built (`AmalgamContext.edge_certificate`); nothing recomputes it.
    The disclaimer is part of the report contract.
    """
    rng = random.Random(seed)
    context = default_context()
    sections = []

    failures = _center_power_failures(range(-3, 4))
    sections.append(_outcome("center-projects-to-identity", failures, 7))

    cert = context.edge_certificate
    lo, hi = cert.bracket.lo, cert.bracket.hi
    lob, hib = log_ratio_bounds(2, 3, 10**5)
    contains_log = lo < lob and hib < hi
    tight = hi - lo <= Fraction(1, EDGE_ROTATION_DEPTH)
    sections.append(
        CheckResult(
            "edge-rotation-certified",
            contains_log and tight,
            "no rational with denominator <= %d; bracket width %.3e "
            "contains log 2 / log 3" % (cert.max_denominator, float(hi - lo)),
        )
    )

    sections.append(_center_commutes(rng, samples))

    failures = []
    for k in range(-5, 6):
        if not relator_word(context, k).is_trivial():
            failures.append(k)
    sections.append(_outcome("relator-words-trivial", failures, 11))

    failures = []
    if not relator_word(context, 1).project_to_g1().is_identity():
        failures.append("relator")
    failures += _projection_failures(context, rng, samples)
    sections.append(_outcome("projection-homomorphism", failures, samples + 1))

    return MonsterEvidenceReport(tuple(sections), MONSTER_DISCLAIMER)


def run_monster_evidence(samples: int = 1000, seed: int = 42):
    """Suite adapter: evidence sections plus a disclaimer-presence check."""
    report = monster_evidence_report(samples=min(samples, 50), seed=seed)
    results = list(report.sections)
    results.append(
        CheckResult("disclaimer-present", bool(report.disclaimer), report.disclaimer)
    )
    return results


SUITES = {
    "arith": run_arith,
    "centrality": run_centrality,
    "rot-invariance": run_rot_invariance,
    "tuple": run_tuple,
    "amalgam-oracle": run_amalgam_oracle,
    "monster-evidence": run_monster_evidence,
}


def run_suite(name: str, samples: int = 1000, seed: int = 42):
    """Run one named suite, or every suite for "all".

    Returns (suite, CheckResult) pairs in a fixed deterministic order.
    """
    if name == "all":
        out = []
        for suite in SUITES:
            out.extend((suite, r) for r in SUITES[suite](samples, seed))
        return out
    if name not in SUITES:
        raise ValueError(
            "unknown suite %r (expected one of %s or 'all')"
            % (name, ", ".join(sorted(SUITES)))
        )
    return [(name, r) for r in SUITES[name](samples, seed)]

