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
    default_context,
    finite_oracle_check,
    identity_map,
    invert,
    irrational_candidate_g0,
    lift,
    power,
    random_word,
    relator_word,
    rotation_map,
    word_from_syllables,
    words_equal,
)
from plmonster.amalgam import FiniteAmalgamInstance, britton_reduce
from plmonster.stein import STEIN_2_3, THOMPSON, GroupDescriptor
from plmonster.verify import perturb_word, planted_trivial_word
from pools import pl_word_pool, word_pool
from reference import britton_reduce as reference_britton_reduce


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
    # a factor past the host's int/str digit limit is named, not shown
    with pytest.raises(SyllableError, match="^syllable 0: unknown factor a value too large"):
        AmalgamWord(c, [(10**5000, zline(0))])


def test_word_stores_each_factor_as_its_member():
    c = ctx()
    tagged = Syllable(Factor.G1, zline())
    w = AmalgamWord(c, [tagged, ("G2", c.edge), Syllable("G1", zline(1))])
    assert w.syllables[0] is tagged
    assert [s.factor for s in w.syllables] == [Factor.G1, Factor.G2, Factor.G1]
    assert all(s.factor.__class__ is Factor for s in w.syllables)
    assert w.syllables[1:] == (Syllable(Factor.G2, c.edge), Syllable(Factor.G1, zline(1)))


def test_word_building_checks_each_element_once(monkeypatch):
    from plmonster import stein

    c = ctx()
    pool = word_pool()
    checked = []
    slopes = stein.core.slopes

    def counting(xs, ys):
        checked.append((xs, ys))
        return slopes(xs, ys)

    monkeypatch.setattr(stein.core, "slopes", counting)
    rng = random.Random(9)
    built = []
    for n in range(200):
        factor = rng.choice(list(Factor))
        sylls = []
        for _ in range(1 + n % 8):
            sylls.append(Syllable(factor, rng.choice(pool[factor])))
            factor = factor.other
        built.append((sylls, AmalgamWord(c, sylls)))
    # the full grid check ran once per distinct (element, descriptor)
    assert len(checked) == 4
    # a syllable already tagged with a Factor member is kept as given
    for sylls, word in built:
        assert all(a is b for a, b in zip(word.syllables, sylls))


def test_non_members_are_refused_after_many_valid_words():
    c = ctx()
    pool = word_pool()
    g2_only = lift(irrational_candidate_g0(), 0)
    for _ in range(50):
        AmalgamWord(c, [(Factor.G2, g2_only)] + [(f, e) for f in Factor for e in pool[f]])
    # a verdict cached for the right factor says nothing about the left one
    for sylls in (
        [(Factor.G1, g2_only)],
        [(Factor.G1, pool[Factor.G2][0])],
        [(Factor.G2, lift(rotation_map(F(1, 5)), 0))] * 2,
    ):
        with pytest.raises(SyllableError, match="not a member"):
            AmalgamWord(c, sylls)


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


def test_project_words_without_left_syllables_to_identity():
    c = ctx()
    assert AmalgamWord(c).project_to_g1() == identity_map()
    assert AmalgamWord(c, [(Factor.G2, c.edge)]).project_to_g1() == identity_map()


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


def test_word_product_operator_and_reprs():
    c = ctx()
    u, v = random_word(c, 3, 1), random_word(c, 3, 2)
    assert u * v == u.multiply(v)
    with pytest.raises(TypeError):
        u * 3
    assert repr(c) == (
        "AmalgamContext(left=T_{2}, right=T_{2,3}, "
        "edge=PLLineMap(base=PLCircleMap([0, 1/4] -> [1/2, 0]), offset=0))"
    )
    assert (repr(u), repr(AmalgamWord(c))) == ("AmalgamWord(G1 G2 G1)", "AmalgamWord(empty)")
    assert repr(GroupDescriptor(2, 3)) == "GroupDescriptor(2, 3)"


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
    assert [inst.syllable(letter) for letter in inst.LETTERS] == [
        Syllable(Factor.G1, 1),
        Syllable(Factor.G1, 3),
        Syllable(Factor.G2, 1),
        Syllable(Factor.G2, 5),
    ]
    for letter in ("T", "s", ""):
        with pytest.raises(ValueError, match="unknown letter"):
            inst.syllable(letter)
        with pytest.raises(ValueError, match="unknown letter"):
            inst.matrix(letter)


def test_finite_oracle_small_enumeration():
    report = finite_oracle_check(7)
    assert report.words_checked == 4 + 16 + 64 + 256 + 1024 + 4096 + 16384
    assert report.mismatches == ()
    assert report.ok


def test_finite_oracle_reports_mismatches(monkeypatch):
    # an edge test that never answers never flips a syllable across the
    # edge, so words trivial only through S**2 = R**3 stay unreduced: the
    # matrix oracle must catch that
    monkeypatch.setattr(
        FiniteAmalgamInstance, "edge_coefficient", lambda self, factor, a: None
    )
    report = finite_oracle_check(5)
    assert not report.ok
    assert ("S", "S", "R-", "R-", "R-") in report.mismatches
    assert ("S", "S", "S", "S") not in report.mismatches


# ---------------------------------------------------------------------------
# britton_reduce against a reference algorithm


def inverse_syllables(syllables):
    return tuple(Syllable(s.factor, invert(s.element)) for s in reversed(syllables))


def pl_syllable_lists():
    """Over a thousand PL syllable sequences, most with flips to make."""
    c = ctx()
    pool = pl_word_pool()
    for u in pool:
        yield u
        yield u + inverse_syllables(u)
    rng = random.Random(2024)
    for _ in range(600):
        u, v = rng.choice(pool), rng.choice(pool)
        yield u + v
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


class _FlipCounter:
    """An amalgam's operations, passed through, with a count of flips."""

    def __init__(self, ops):
        self.ops = ops
        self.flips = 0

    def __getattr__(self, name):
        return getattr(self.ops, name)

    def edge_element(self, factor, k):
        self.flips += 1
        return self.ops.edge_element(factor, k)


def test_britton_reduce_matches_reference_on_long_pl_words():
    # concatenated pool words of a few hundred syllables, and planted
    # trivial words v (u1 r1 u1**-1) ... (u4 r4 u4**-1) v**-1 around
    # relators r: each flip has a long suffix to put back
    c = ctx()
    pool = pl_word_pool()
    rng = random.Random(2025)

    def concatenation(count):
        return sum((rng.choice(pool) for _ in range(count)), ())

    words = [concatenation(60) for _ in range(4)]
    for _ in range(3):
        v = concatenation(15)
        middle = ()
        for _ in range(4):
            u = concatenation(10)
            r = relator_word(c, rng.choice((-2, -1, 1, 2))).syllables
            middle += u + r + inverse_syllables(u)
        words.append(v + middle + inverse_syllables(v))
    for i, sylls in enumerate(words):
        assert len(sylls) >= 300
        ops = _FlipCounter(c)
        expected = reference_britton_reduce(c, sylls)
        assert britton_reduce(ops, sylls) == expected
        assert (not expected) == (i >= 4)
        assert ops.flips >= 50


def test_britton_reduce_matches_reference_on_finite_words():
    inst = FiniteAmalgamInstance()
    for n in range(1, 8):
        for letters in itertools.product(inst.LETTERS, repeat=n):
            word = [inst.syllable(letter) for letter in letters]
            assert britton_reduce(inst, word) == reference_britton_reduce(inst, word)


class _Fresh(int):
    """A finite-instance element that is a new object each time it is made."""


class _CountingInstance(FiniteAmalgamInstance):
    """The finite instance with fresh elements and logs of its operations.

    The logs keep every tested element alive, so their ids stay unique.
    """

    def __init__(self):
        self.tested = []
        self.identity_tested = []
        self.merges = 0
        self.flips = 0

    def syllable(self, letter):
        s = super().syllable(letter)
        return Syllable(s.factor, _Fresh(s.element))

    def compose(self, factor, a, b):
        self.merges += 1
        return _Fresh(super().compose(factor, a, b))

    def is_identity(self, factor, a):
        self.identity_tested.append(a)
        return super().is_identity(factor, a)

    def edge_element(self, factor, k):
        self.flips += 1
        return _Fresh(super().edge_element(factor, k))

    def edge_coefficient(self, factor, a):
        self.tested.append(a)
        return super().edge_coefficient(factor, a)


def counted_reduction(reduce, letters):
    """The counting instance after it reduced the word, checked by matrices."""
    inst = _CountingInstance()
    result = reduce(inst, [inst.syllable(letter) for letter in letters])
    assert (not result) == inst.is_trivial_by_matrices(letters)
    return inst


def repeats(log):
    return len(log) - len({id(a) for a in log})


def repeated_edge_tests(reduce, letters):
    return repeats(counted_reduction(reduce, letters).tested)


def test_britton_reduce_edge_tests_each_syllable_once():
    reference_repeats = 0
    for n in range(1, 8):
        for letters in itertools.product(FiniteAmalgamInstance.LETTERS, repeat=n):
            assert repeated_edge_tests(britton_reduce, letters) == 0
            reference_repeats += repeated_edge_tests(reference_britton_reduce, letters)
    # the count would see repeats: the whole-word passes make them
    assert reference_repeats > 0


def test_britton_reduce_identity_tests_each_element_once():
    # a flip takes back only its merge cascade: the rest of the suffix,
    # already reduced, is not identity-tested again
    reference_repeats = 0
    for n in range(1, 7):
        for letters in itertools.product(FiniteAmalgamInstance.LETTERS, repeat=n):
            assert repeats(counted_reduction(britton_reduce, letters).identity_tested) == 0
            reference = counted_reduction(reference_britton_reduce, letters)
            reference_repeats += repeats(reference.identity_tested)
    assert reference_repeats > 0


def test_britton_reduce_identity_tests_follow_syllables_and_merges():
    rng = random.Random(19)
    flips = 0
    for n in (2000, 2001):
        letters = [rng.choice(FiniteAmalgamInstance.LETTERS) for _ in range(n)]
        inst = counted_reduction(britton_reduce, letters)
        assert len(inst.identity_tested) <= len(letters) + inst.merges
        flips += inst.flips
    assert flips >= 100
