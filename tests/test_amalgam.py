"""Amalgam words, Britton reduction, the word problem, and the oracle."""

import itertools
import random
from fractions import Fraction as F

import pytest

from plmonster import (
    AmalgamContext,
    AmalgamWord,
    ContextError,
    Factor,
    PLLineMap,
    Syllable,
    SyllableError,
    compose,
    default_context,
    finite_oracle_check,
    identity_map,
    invert,
    irrational_candidate_g0,
    lift,
    power,
    random_member,
    random_word,
    relator_word,
    rotation_map,
    word_from_syllables,
    words_equal,
)
from plmonster.amalgam import FiniteAmalgamInstance, britton_reduce
from plmonster.stein import STEIN_2_3, THOMPSON
from plmonster.verify import perturb_word, planted_trivial_word


def ctx():
    return default_context()


def zline(k=1):
    return PLLineMap(identity_map(), k)


def test_factor_tags():
    assert Factor.G1.other is Factor.G2
    assert Factor.G2.other is Factor.G1
    assert Factor("G1") is Factor.G1


def test_default_context_shape():
    c = ctx()
    assert c.left_descriptor == THOMPSON
    assert c.right_descriptor == STEIN_2_3
    assert c.edge == lift(irrational_candidate_g0(), 0)
    assert c.descriptor(Factor.G1) == THOMPSON
    assert c.descriptor(Factor.G2) == STEIN_2_3
    assert c == AmalgamContext()
    assert hash(c) == hash(AmalgamContext())


def test_context_rejects_rational_edge():
    with pytest.raises(ContextError):
        AmalgamContext(edge=lift(rotation_map(F(1, 2)), 0))


def test_context_rejects_identity_edge():
    with pytest.raises(ContextError):
        AmalgamContext(edge=lift(identity_map(), 0))


def test_context_rejects_non_member_edge():
    with pytest.raises(ContextError):
        AmalgamContext(edge=lift(rotation_map(F(1, 5)), 0))


def test_syllable_membership_is_checked():
    c = ctx()
    # a rotation by 1/5 is in neither factor
    bad = lift(rotation_map(F(1, 5)), 0)
    with pytest.raises(SyllableError) as info:
        AmalgamWord(c, [(Factor.G1, zline()), (Factor.G2, bad)])
    assert "1" in str(info.value)  # failing syllable index
    # a map with slope 3 is in G2 but not G1
    g2_only = lift(irrational_candidate_g0(), 0)
    with pytest.raises(SyllableError):
        AmalgamWord(c, [(Factor.G1, g2_only)])
    AmalgamWord(c, [(Factor.G2, g2_only)])  # fine on the other side


def test_empty_word_is_trivial():
    w = word_from_syllables([], ctx())
    assert len(w) == 0 and w.is_trivial()


def test_single_syllable_words():
    c = ctx()
    w = AmalgamWord(c, [(Factor.G1, zline())])
    assert len(w) == 1 and not w.is_trivial()
    assert not AmalgamWord(c, [(Factor.G2, c.edge)]).is_trivial()


def test_relator_reduces_to_empty():
    w = relator_word(ctx(), 1)
    assert [s.factor for s in w.syllables] == [Factor.G1, Factor.G2]
    assert w.reduce().syllables == ()
    assert w.is_trivial()


def test_relator_powers_are_trivial():
    c = ctx()
    for k in range(-5, 6):
        assert relator_word(c, k).is_trivial()


def test_free_cancellation_within_a_factor():
    c = ctx()
    g = c.edge
    w = AmalgamWord(c, [(Factor.G2, g), (Factor.G2, invert(g))])
    assert w.reduce().syllables == ()


def test_merge_then_edge_flip_then_cancel():
    c = ctx()
    w = AmalgamWord(
        c,
        [
            (Factor.G1, zline(2)),
            (Factor.G2, power(c.edge, -1)),
            (Factor.G2, power(c.edge, -1)),
        ],
    )
    assert w.is_trivial()


def test_reduction_is_idempotent():
    c = ctx()
    for seed in range(6):
        w = random_word(c, 5, seed)
        r = w.reduce()
        assert r.reduce() == r


def test_reduced_words_alternate_factors():
    c = ctx()
    for seed in range(8):
        r = random_word(c, 6, seed).reduce()
        tags = [s.factor for s in r.syllables]
        assert all(a != b for a, b in zip(tags, tags[1:]))


def test_planted_trivial_words():
    c = ctx()
    rng = random.Random(401)
    for _ in range(15):
        w = planted_trivial_word(c, rng, max_syllables=12)
        assert len(w) <= 12
        assert w.is_trivial()


def test_perturbed_words_are_nontrivial():
    c = ctx()
    rng = random.Random(402)
    for _ in range(15):
        w = perturb_word(planted_trivial_word(c, rng), rng)
        assert not w.is_trivial()


def test_context_with_a_negative_edge():
    # the edge g0 - 1 has negative translation number, so edge tests and
    # edge elements on the right go through its inverse's bracket
    c = AmalgamContext(THOMPSON, STEIN_2_3, lift(irrational_candidate_g0(), -1))
    for k in range(-3, 4):
        assert relator_word(c, k).is_trivial()
    rng = random.Random(403)
    for _ in range(20):
        w = planted_trivial_word(c, rng, max_syllables=16)
        assert w.reduce().syllables == ()
        assert perturb_word(w, rng).reduce().syllables != ()


def test_context_supplies_the_reduction_operations():
    c = ctx()
    assert not hasattr(c, "__dict__")
    assert c.edge_element(Factor.G1, -2) == zline(-2)
    for k in range(-3, 4):
        assert c.edge_element(Factor.G2, k) == power(c.edge, k)
        assert c.edge_coefficient(Factor.G2, power(c.edge, k)) == k
        assert c.edge_coefficient(Factor.G1, zline(k)) == k
    assert c.edge_coefficient(Factor.G2, zline(1)) is None


def test_multiply_and_inverse_cancel():
    c = ctx()
    for seed in range(10):
        u = random_word(c, 4, seed)
        assert u.multiply(u.invert_word()).is_trivial()
        assert u.invert_word().multiply(u).is_trivial()


def test_multiply_empty_is_reduce():
    c = ctx()
    u = random_word(c, 4, 9)
    empty = AmalgamWord(c)
    assert u.multiply(empty) == u.reduce()


def test_invert_relator_is_trivial():
    w = relator_word(ctx(), 1).invert_word()
    assert w.is_trivial()


def test_context_mismatch_raises():
    other = AmalgamContext(left=STEIN_2_3)
    u = AmalgamWord(ctx(), [(Factor.G1, zline())])
    v = AmalgamWord(other, [(Factor.G1, zline())])
    with pytest.raises(ContextError):
        u.multiply(v)


def test_words_equal():
    c = ctx()
    u = random_word(c, 3, 11)
    assert words_equal(u, u)
    assert words_equal(relator_word(c, 2), AmalgamWord(c))
    assert not words_equal(u.multiply(relator_word(c, 0)), u.multiply(u))


def test_project_relator_to_identity():
    assert relator_word(ctx(), 1).project_to_g1().is_identity()


def test_project_kills_offsets():
    c = ctx()
    rng = random.Random(403)
    f = random_member(THOMPSON, rng)
    w = AmalgamWord(c, [(Factor.G1, lift(f, 2))])
    assert w.project_to_g1() == f


def test_project_drops_right_syllables():
    c = ctx()
    rng = random.Random(404)
    f, h = random_member(THOMPSON, rng), random_member(THOMPSON, rng)
    w = AmalgamWord(
        c,
        [(Factor.G1, lift(f, 0)), (Factor.G2, c.edge), (Factor.G1, lift(h, 0))],
    )
    assert w.project_to_g1() == compose(f, h)


def test_projection_is_a_homomorphism():
    c = ctx()
    for seed in range(8):
        u = random_word(c, 3, seed)
        v = random_word(c, 3, seed + 100)
        lhs = u.multiply(v).project_to_g1()
        rhs = compose(u.project_to_g1(), v.project_to_g1())
        assert lhs == rhs


def test_reduction_preserves_projection():
    c = ctx()
    for seed in range(8):
        w = random_word(c, 5, seed)
        assert w.reduce().project_to_g1() == w.project_to_g1()


def test_random_word_determinism_and_shape():
    c = ctx()
    assert len(random_word(c, 0, 1)) == 0
    assert random_word(c, 5, 42) == random_word(c, 5, 42)
    w = random_word(c, 6, 42)
    assert len(w) == 6
    tags = [s.factor for s in w.syllables]
    assert all(a != b for a, b in zip(tags, tags[1:]))
    assert not w.is_trivial()


def test_word_equality_is_structural():
    c = ctx()
    a = AmalgamWord(c, [(Factor.G1, zline())])
    b = AmalgamWord(c, [(Factor.G1, zline())])
    assert a == b and hash(a) == hash(b)
    assert a != AmalgamWord(c, [(Factor.G2, c.edge)])


def test_finite_instance_basics():
    inst = FiniteAmalgamInstance()
    s4 = [inst.syllable("S")] * 4
    assert britton_reduce(inst, s4) == ()
    assert inst.is_trivial_by_matrices(["S"] * 4)
    # the edge relation: S^2 = R^3
    w = [inst.syllable("S")] * 2 + [inst.syllable("R-")] * 3
    assert britton_reduce(inst, w) == ()
    assert inst.is_trivial_by_matrices(["S", "S", "R-", "R-", "R-"])
    sr = [inst.syllable("S"), inst.syllable("R")]
    assert britton_reduce(inst, sr) != ()
    assert not inst.is_trivial_by_matrices(["S", "R"])


def test_finite_oracle_small_enumeration():
    report = finite_oracle_check(7)
    assert report.words_checked == 4 + 16 + 64 + 256 + 1024 + 4096 + 16384
    assert report.mismatches == ()
    assert report.ok


# ---------------------------------------------------------------------------
# britton_reduce against a reference algorithm


def reference_britton_reduce(ops, syllables):
    """Britton reduction as whole-word passes, independent of the library.

    Each pass merges adjacent same-factor syllables and drops identity
    syllables over the whole word; once a pass changes nothing, the
    leftmost edge-subgroup syllable is flipped into the other factor and
    the passes start again from the first syllable.
    """
    sylls = list(syllables)
    while True:
        merged = []
        changed = False
        for s in sylls:
            if ops.is_identity(s.factor, s.element):
                changed = True
                continue
            if merged and merged[-1].factor == s.factor:
                merged[-1] = Syllable(
                    s.factor, ops.compose(s.factor, merged[-1].element, s.element)
                )
                changed = True
            else:
                merged.append(s)
        sylls = merged
        if changed:
            continue
        if len(sylls) < 2:
            return tuple(sylls)
        flipped = False
        for i, s in enumerate(sylls):
            k = ops.edge_coefficient(s.factor, s.element)
            if k is not None:
                other = s.factor.other
                sylls[i] = Syllable(other, ops.edge_element(other, k))
                flipped = True
                break
        if not flipped:
            return tuple(sylls)


def pl_syllable_lists():
    """Over a thousand PL syllable sequences, most with flips to make.

    Building words is bound by tuple maps, so a pool of random words is
    built once and reused in concatenations.
    """
    c = ctx()
    pool = [random_word(c, length, seed) for length in range(1, 13) for seed in range(12)]
    for u in pool:
        inverse = tuple(Syllable(s.factor, invert(s.element)) for s in reversed(u.syllables))
        yield u.syllables
        yield u.syllables + inverse
    rng = random.Random(2024)
    for _ in range(600):
        u, v = rng.choice(pool), rng.choice(pool)
        yield u.syllables + v.syllables
    for _ in range(80):
        w = planted_trivial_word(c, rng, 24)
        yield w.syllables
        yield perturb_word(w, rng).syllables


def test_britton_reduce_matches_reference_on_pl_words():
    ops = ctx()
    count = trivial = 0
    for sylls in pl_syllable_lists():
        expected = reference_britton_reduce(ops, sylls)
        assert britton_reduce(ops, sylls) == expected
        count += 1
        trivial += not expected
    assert count >= 1000
    assert 200 <= trivial < count


def test_britton_reduce_matches_reference_on_finite_words():
    inst = FiniteAmalgamInstance()
    for n in range(1, 8):
        for letters in itertools.product(inst.LETTERS, repeat=n):
            word = [inst.syllable(letter) for letter in letters]
            assert britton_reduce(inst, word) == reference_britton_reduce(inst, word)


class _Fresh(int):
    """A finite-instance element that is a new object each time it is made."""


class _CountingInstance(FiniteAmalgamInstance):
    """The finite instance with fresh elements and a log of edge tests."""

    def __init__(self):
        self.tested = []  # keeps every tested element alive, so ids stay unique

    def syllable(self, letter):
        s = super().syllable(letter)
        return Syllable(s.factor, _Fresh(s.element))

    def compose(self, factor, a, b):
        return _Fresh(super().compose(factor, a, b))

    def edge_element(self, factor, k):
        return _Fresh(super().edge_element(factor, k))

    def edge_coefficient(self, factor, a):
        self.tested.append(a)
        return super().edge_coefficient(factor, a)


def repeated_edge_tests(reduce, letters):
    inst = _CountingInstance()
    result = reduce(inst, [inst.syllable(letter) for letter in letters])
    assert (not result) == inst.is_trivial_by_matrices(letters)
    return len(inst.tested) - len({id(a) for a in inst.tested})


def test_britton_reduce_edge_tests_each_syllable_once():
    reference_repeats = 0
    for n in range(1, 8):
        for letters in itertools.product(FiniteAmalgamInstance.LETTERS, repeat=n):
            assert repeated_edge_tests(britton_reduce, letters) == 0
            reference_repeats += repeated_edge_tests(reference_britton_reduce, letters)
    # the count would see repeats: the whole-word passes make them
    assert reference_repeats > 0
