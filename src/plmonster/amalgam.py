"""Words in an amalgamated product of two lifted circle groups.

The left factor is the group of lifts of members of one Stein-Thompson
group, the right factor the lifts of another, and the amalgam glues the
unit translation z (central in both) to a designated right-factor map
with translation number separated from zero and from all rationals with
small denominator.  Under that gate, membership in the edge subgroup is
exactly decidable on both sides (rigid integer translations on the left,
power detection on the right), so Britton-style reduction solves the
word problem with no numerical error.

The reduction engine calls four operations of the concrete amalgam
(see `britton_reduce`) and is shared verbatim by a finite validation
instance: two cyclic groups of orders 4 and 6 glued along their
order-two subgroups, which is isomorphic to the group of
determinant-one integer 2x2 matrices generated by S = [[0,-1],[1,0]]
and R = [[0,-1],[1,1]].  The matrix product gives a triviality oracle
wholly independent of the reduction code, and `finite_oracle_check`
compares the two on every short word.
"""

from __future__ import annotations

import enum
import itertools
import random
from functools import lru_cache
from typing import NamedTuple, Optional

from .maps import (
    PLCircleMap,
    PLLineMap,
    _shown,
    compose,
    identity_map,
    invert,
    lift,
    project,
)
from .rotation import (
    NonRationalCertificate,
    PowerDetector,
    RationalRotation,
    rotation_number,
)
from .stein import (
    GroupDescriptor,
    STEIN_2_3,
    THOMPSON,
    center_power,
    irrational_candidate_g0,
    is_member,
    random_member,
    torsion_rotation,
)

# the context constructor certifies the edge map against these bounds
EDGE_MAX_DENOMINATOR = 50
EDGE_ROTATION_DEPTH = 200


class ContextError(ValueError):
    """Raised when an amalgam context fails its validation gates."""


class SyllableError(ValueError):
    """Raised when a syllable fails factor membership or typing."""


class Factor(str, enum.Enum):
    """Tag naming the factor a syllable lives in."""

    G1 = "G1"
    G2 = "G2"

    @property
    def other(self) -> "Factor":
        return Factor.G2 if self is Factor.G1 else Factor.G1


class Syllable:
    """One letter of an amalgam word: a factor tag and a factor element.

    For the PL amalgam the element is a PLLineMap; the finite validation
    instance stores small integers instead.  The reduction engine only
    touches elements through the amalgam's operations.

    Immutable.  Britton reduction reads both fields of every syllable and
    builds one per merge, so the fields are slots, which read faster than
    a NamedTuple's, and are set through the slots' own setters.
    """

    __slots__ = ("factor", "element")

    def __init__(self, factor: Factor, element: object):
        _set_factor(self, factor)
        _set_element(self, element)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factor == other.factor and self.element == other.element

    def __hash__(self):
        return hash((self.factor, self.element))

    def __repr__(self):
        return "Syllable(factor=%r, element=%r)" % (self.factor, self.element)

    def __reduce__(self):
        return Syllable, (self.factor, self.element)


_set_factor = Syllable.factor.__set__
_set_element = Syllable.element.__set__


def _violation_text(report) -> str:
    """A membership report's violations, as "kind at where" items."""
    return "; ".join("%s at %s" % (v.kind, _shown(v.where, str)) for v in report.violations)


class AmalgamContext:
    """Two factor groups glued along z = edge, with Britton's operations.

    Construction validates two gates: the edge map's underlying circle
    map must belong to the right factor's group, and its translation
    number must not be rational with denominator up to
    EDGE_ROTATION_DEPTH (`rotation_number` finds every rational value
    with a denominator up to that depth, so the gate is stricter than the
    EDGE_MAX_DENOMINATOR its certificate states).  The second gate also makes power detection
    conclusive: at the first iterate it rejects every edge whose
    displacement interval holds an integer or is pinched, so an accepted
    edge's first bracket excludes 0, and the `PowerDetector` built on it
    reads that same bracket and never needs to refine it to exclude 0.
    Edge membership and edge powers on the right both go through that
    one detector.  The second gate's `NonRationalCertificate` is kept as
    the read-only `edge_certificate`, which the monster-evidence report
    shows.  The defaults glue Thompson's circle group to the (2,3) Stein
    group along the two-slope map with irrational rotation number.
    """

    __slots__ = ("_left", "_right", "_edge", "_certificate", "_detector")

    def __init__(
        self,
        left: GroupDescriptor = THOMPSON,
        right: GroupDescriptor = STEIN_2_3,
        edge: Optional[PLLineMap] = None,
    ):
        if not isinstance(left, GroupDescriptor) or not isinstance(
            right, GroupDescriptor
        ):
            raise ContextError("left and right must be group descriptors")
        if edge is None:
            edge = lift(irrational_candidate_g0(), 0)
        if not isinstance(edge, PLLineMap):
            raise ContextError("edge must be a line map")
        report = is_member(edge.base, right)
        if not report.member:
            raise ContextError(
                "edge map is not a member of the right factor %s: %s"
                % (right, _violation_text(report))
            )
        rot = rotation_number(edge, EDGE_MAX_DENOMINATOR, EDGE_ROTATION_DEPTH)
        if isinstance(rot, RationalRotation):
            raise ContextError(
                "edge map has rational translation number %s; the edge "
                "subgroup must be separated from all small rationals for "
                "power detection to stay conclusive" % _shown(rot.value, str)
            )
        self._left = left
        self._right = right
        self._edge = edge
        self._certificate = rot
        self._detector = PowerDetector(edge)

    @property
    def left_descriptor(self) -> GroupDescriptor:
        return self._left

    @property
    def right_descriptor(self) -> GroupDescriptor:
        return self._right

    @property
    def edge(self) -> PLLineMap:
        return self._edge

    @property
    def edge_certificate(self) -> NonRationalCertificate:
        """The edge gate's nonrationality certificate, kept from construction."""
        return self._certificate

    def descriptor(self, factor: Factor) -> GroupDescriptor:
        return self._left if factor is Factor.G1 else self._right

    def compose(self, factor, a, b):
        return compose(a, b)

    # is_identity and edge_coefficient run once per syllable and merge of
    # every reduction, so they read the line map's slots directly

    def is_identity(self, factor, a):
        base = a._base
        return a._offset == 0 and base._ys == base._xs

    def edge_coefficient(self, factor, a):
        if factor is Factor.G1:
            # left edge subgroup: integer translations z**k, the lifts of
            # the identity circle map, with k their offset
            base = a._base
            return a._offset if base._ys == base._xs else None
        return self._detector.detect(a)

    def edge_element(self, factor, k):
        if factor is Factor.G1:
            return center_power(k)
        return self._detector.power(k)

    def __eq__(self, other):
        if not isinstance(other, AmalgamContext):
            return NotImplemented
        return (
            self._left == other._left
            and self._right == other._right
            and self._edge == other._edge
        )

    def __hash__(self):
        return hash((self._left, self._right, self._edge))

    def __repr__(self):
        return "AmalgamContext(left=%s, right=%s, edge=%r)" % (
            self._left,
            self._right,
            self._edge,
        )


@lru_cache(maxsize=1)
def default_context() -> AmalgamContext:
    """The shipped context: Thompson and (2,3) Stein glued along g0's lift."""
    return AmalgamContext()


def _context_for(left, right, edge) -> AmalgamContext:
    """`default_context()` when the parts are its own, else another context.

    The last other context is kept, so that the documents of one word
    operation share a context and its gates run once.
    """
    if (left, right, edge) == (THOMPSON, STEIN_2_3, lift(irrational_candidate_g0(), 0)):
        return default_context()
    return _other_context(left, right, edge)


@lru_cache(maxsize=1)
def _other_context(left, right, edge) -> AmalgamContext:
    return AmalgamContext(left, right, edge)


def britton_reduce(ops, syllables) -> tuple:
    """Reduce a syllable sequence to Britton-reduced form.

    ``ops`` is the concrete amalgam, an `AmalgamContext` or a
    `FiniteAmalgamInstance`.  Reduction touches elements only through its
    methods ``compose(factor, a, b)``, ``is_identity(factor, a)``,
    ``edge_coefficient(factor, a)`` and ``edge_element(factor, k)``.
    `edge_coefficient` must return the exponent k when the element equals
    the k-th power of that factor's edge generator, and None otherwise;
    soundness of the word problem rests on it having no false answers in
    either direction.

    Free reduction is one pass over a stack: each syllable of the word
    is dropped if it is the identity, merged into the top of the stack if
    the factors match (the merged syllable is popped when it is the
    identity), and pushed otherwise, so the stack always alternates
    factors with no identity syllable.  The reduced stack is then
    edge-tested from index ``checked``: every syllable below it is one
    that an earlier scan already rejected and no merge has touched since,
    and an edge test depends on the syllable alone.  The leftmost
    edge-subgroup syllable is flipped into the other factor: the stack is
    truncated at it, and the flipped syllable takes the factor of its
    left neighbor (or, leftmost, of its right one), so it merges at once.

    The Python-level work of a flip is its merge cascade plus one slice.
    The suffix after the flipped syllable is already reduced: it
    alternates, and none of it is the identity.  So its syllables are
    taken back one at a time only while the next one shares the factor
    of the stack's top, which happens only after a merge or an identity
    pop; the first one that does not goes back with the rest of the
    suffix in one slice, and no suffix syllable is identity-tested again.
    Nor is the flipped syllable: it is a nonzero power of the edge, since
    the syllable it replaces was not the identity.  A word of n syllables
    whose reduction merges m times thus makes n + m identity tests.

    Terminates because every merge removes a syllable and every flip is
    followed by a merge, so the syllable count drops between flips.  The
    result alternates factors and contains no identity syllable and,
    unless it is a single syllable, no edge-subgroup syllable; by the
    normal form theorem for amalgamated products it is empty exactly
    when the word represents the identity.
    """
    is_identity = ops.is_identity
    compose = ops.compose
    stack = []
    for s in syllables:
        if is_identity(s.factor, s.element):
            continue
        if stack and stack[-1].factor == s.factor:
            top = stack.pop()
            s = Syllable(s.factor, compose(s.factor, top.element, s.element))
            if is_identity(s.factor, s.element):
                continue
        stack.append(s)
    checked = 0
    while len(stack) >= 2:
        for i in range(checked, len(stack)):
            s = stack[i]
            k = ops.edge_coefficient(s.factor, s.element)
            if k is not None:
                break
        else:
            break
        other = s.factor.other
        suffix = stack[i + 1 :]
        del stack[i:]
        checked = i
        # the merge cascade: s merges into the top or is pushed, and the
        # suffix's next syllable follows it only when it shares the top's
        # factor; the suffix is reduced, so once one does not, none does
        s = Syllable(other, ops.edge_element(other, k))
        j = 0
        while True:
            if stack and stack[-1].factor == s.factor:
                top = stack.pop()
                if len(stack) < checked:
                    checked = len(stack)
                s = Syllable(s.factor, compose(s.factor, top.element, s.element))
                if is_identity(s.factor, s.element):
                    if j == len(suffix):
                        break
                    s = suffix[j]
                    j += 1
                    continue
            stack.append(s)
            if j == len(suffix) or suffix[j].factor != s.factor:
                break
            s = suffix[j]
            j += 1
        stack += suffix[j:]
    return tuple(stack)


class AmalgamWord:
    """A word in the amalgamated product, as an immutable syllable tuple.

    Construction validates every syllable: the element must be a line
    map whose underlying circle map belongs to the syllable's factor
    group.  `is_member` caches a positive verdict on the circle map, so
    words over a fixed set of elements check each distinct element once
    per descriptor, however many words repeat it.  Words are stored as
    given, a `Syllable` already tagged with a `Factor` member as the same
    object; `reduce` returns the Britton-reduced word, and
    `multiply`/`invert_word` reduce their results.  Structural equality
    compares stored syllables; equality in the group is `words_equal`,
    which reduces the quotient, because reduced forms are canonical only
    up to shuffles of edge-subgroup elements across syllables.
    """

    __slots__ = ("_context", "_syllables")

    def __init__(self, context: AmalgamContext, syllables=()):
        if not isinstance(context, AmalgamContext):
            raise TypeError("context must be an AmalgamContext")
        cooked = []
        for i, raw in enumerate(syllables):
            if isinstance(raw, Syllable):
                factor, element = raw.factor, raw.element
            else:
                try:
                    factor, element = raw
                except (TypeError, ValueError):
                    raise SyllableError(
                        "syllable %d: expected Syllable or (factor, element)" % i
                    ) from None
            if factor.__class__ is not Factor:
                try:
                    factor = Factor(factor)
                except ValueError:
                    raise SyllableError(
                        "syllable %d: unknown factor %s" % (i, _shown(factor))
                    ) from None
            if not isinstance(element, PLLineMap):
                raise SyllableError("syllable %d: element must be a line map" % i)
            report = is_member(element.base, context.descriptor(factor))
            if not report.member:
                raise SyllableError(
                    "syllable %d: element is not a member of factor %s (%s)"
                    % (i, factor.value, _violation_text(report))
                )
            if raw.__class__ is not Syllable or raw.factor is not factor:
                raw = Syllable(factor, element)
            cooked.append(raw)
        self._context = context
        self._syllables = tuple(cooked)

    @classmethod
    def _reduced(cls, context, syllables) -> "AmalgamWord":
        # internal fast path: syllables come from the reduction engine,
        # whose operations preserve factor membership
        self = object.__new__(cls)
        self._context = context
        self._syllables = tuple(syllables)
        return self

    @property
    def context(self) -> AmalgamContext:
        return self._context

    @property
    def syllables(self) -> tuple:
        return self._syllables

    def __len__(self) -> int:
        return len(self._syllables)

    def reduce(self) -> "AmalgamWord":
        reduced = britton_reduce(self._context, self._syllables)
        return AmalgamWord._reduced(self._context, reduced)

    def is_trivial(self) -> bool:
        return not self.reduce()._syllables

    def multiply(self, other: "AmalgamWord") -> "AmalgamWord":
        if not isinstance(other, AmalgamWord):
            raise TypeError("can only multiply by another word")
        if self._context != other._context:
            raise ContextError("words come from different contexts")
        joined = AmalgamWord._reduced(
            self._context, self._syllables + other._syllables
        )
        return joined.reduce()

    def invert_word(self) -> "AmalgamWord":
        flipped = [
            Syllable(s.factor, invert(s.element)) for s in reversed(self._syllables)
        ]
        return AmalgamWord._reduced(self._context, flipped).reduce()

    def project_to_g1(self) -> PLCircleMap:
        """The induced circle map in the left group.

        Left syllables map to their underlying circle maps (offsets die),
        right syllables map to the identity, and the images compose in
        word order.  This respects the edge identification because the
        unit translation also projects to the identity, so it descends
        to a homomorphism of the whole amalgam onto the left circle
        group.
        """
        acc = None
        for s in self._syllables:
            if s.factor is Factor.G1:
                f = project(s.element)
                acc = f if acc is None else compose(acc, f)
        return identity_map() if acc is None else acc

    def __mul__(self, other):
        if isinstance(other, AmalgamWord):
            return self.multiply(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AmalgamWord):
            return NotImplemented
        return (
            self._context == other._context
            and self._syllables == other._syllables
        )

    def __hash__(self):
        return hash((self._context, self._syllables))

    def __repr__(self):
        tags = " ".join(s.factor.value for s in self._syllables) or "empty"
        return "AmalgamWord(%s)" % tags


def word_from_syllables(syllables, context: AmalgamContext) -> AmalgamWord:
    """Validated word construction; see AmalgamWord."""
    return AmalgamWord(context, syllables)


def words_equal(u: AmalgamWord, v: AmalgamWord) -> bool:
    """Equality in the group: the quotient word reduces to the identity."""
    return u.multiply(v.invert_word()).is_trivial()


def relator_word(context: AmalgamContext, k: int = 1) -> AmalgamWord:
    """The word z**k followed by edge**-k, trivial by the identification."""
    return AmalgamWord(
        context,
        [
            Syllable(Factor.G1, context.edge_element(Factor.G1, k)),
            Syllable(Factor.G2, context.edge_element(Factor.G2, -k)),
        ],
    )


def random_word(context: AmalgamContext, length: int, seed: int) -> AmalgamWord:
    """Deterministic pseudorandom word with alternating factor tags.

    Elements are drawn per factor from a fixed pool: images of the tuple
    construction on random aligned grid tuples (the bulk), lifted torsion
    rotations on the factor's grid, and powers of the factor's edge
    generator; every lift offset is drawn from {-1, 0, 1}.  Words of
    positive length are almost never trivial.  Requires both descriptors
    to support the tuple construction (2 in the slope group), which the
    shipped context does.
    """
    if isinstance(length, bool) or not isinstance(length, int) or length < 0:
        raise ValueError("length must be a nonnegative integer")
    rng = random.Random(seed)
    factor = rng.choice((Factor.G1, Factor.G2))
    syllables = []
    for _ in range(length):
        desc = context.descriptor(factor)
        style = rng.randrange(6)
        if style == 0:
            element = context.edge_element(factor, rng.choice((-2, -1, 1, 2)))
        elif style == 1:
            q = desc.lam ** rng.randint(1, 2)
            element = lift(
                torsion_rotation(desc, rng.randrange(q), q),
                rng.choice((-1, 0, 1)),
            )
        else:
            element = lift(random_member(desc, rng), rng.choice((-1, 0, 1)))
        syllables.append(Syllable(factor, element))
        factor = factor.other
    return AmalgamWord(context, syllables)


# ---------------------------------------------------------------------------
# finite validation instance


_MAT_ID = ((1, 0), (0, 1))


def _mat_mul(a, b):
    return (
        (
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ),
        (
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ),
    )


class FiniteAmalgamInstance:
    """Cyclic groups of orders 4 and 6 glued along their 2-element centers.

    Left elements are exponents mod 4 of a generator s, right elements
    exponents mod 6 of a generator r, and the edge identifies s**2 with
    r**3.  The instance is isomorphic to the group of integer matrices
    generated by S = [[0,-1],[1,0]] and R = [[0,-1],[1,1]] (s -> S,
    r -> R; both relations S**4 = R**6 = 1 and S**2 = R**3 hold), and a
    word is trivial exactly when its matrix product is the identity.
    The matrix product is therefore an independent oracle for the
    reduction engine, which this class feeds through the same
    `britton_reduce` as the PL amalgam.

    `_FACTORS` states each factor's order and edge exponent once, and the
    factor operations read them there; `_TABLE` states each letter.
    """

    # letter -> (factor, exponent of the factor's generator, matrix)
    _TABLE = {
        "S": (Factor.G1, 1, ((0, -1), (1, 0))),
        "S-": (Factor.G1, 3, ((0, 1), (-1, 0))),
        "R": (Factor.G2, 1, ((0, -1), (1, 1))),
        "R-": (Factor.G2, 5, ((1, 1), (-1, 0))),
    }
    LETTERS = tuple(_TABLE)
    # factor -> (order of its generator, exponent of the edge element)
    _FACTORS = {Factor.G1: (4, 2), Factor.G2: (6, 3)}

    def compose(self, factor, a, b):
        return (a + b) % self._FACTORS[factor][0]

    def is_identity(self, factor, a):
        return a == 0

    def edge_coefficient(self, factor, a):
        # the edge subgroup has order 2: 0 and the edge element
        return {0: 0, self._FACTORS[factor][1]: 1}.get(a)

    def edge_element(self, factor, k):
        order, edge = self._FACTORS[factor]
        return (edge * k) % order

    def _entry(self, letter: str) -> tuple:
        try:
            return self._TABLE[letter]
        except KeyError:
            raise ValueError("unknown letter %r" % letter) from None

    def syllable(self, letter: str) -> Syllable:
        return Syllable(*self._entry(letter)[:2])

    def matrix(self, letter: str):
        return self._entry(letter)[2]

    def is_trivial_by_reduction(self, letters) -> bool:
        word = [self.syllable(letter) for letter in letters]
        return not britton_reduce(self, word)

    def is_trivial_by_matrices(self, letters) -> bool:
        acc = _MAT_ID
        for letter in letters:
            acc = _mat_mul(acc, self.matrix(letter))
        return acc == _MAT_ID


class FiniteOracleReport(NamedTuple):
    """Outcome of the exhaustive engine-versus-matrix comparison."""

    words_checked: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches


def finite_oracle_check(max_length: int = 6) -> FiniteOracleReport:
    """Compare reduction and matrix verdicts on all short generator words.

    Enumerates every word of length 1 through max_length over the four
    letters S, S**-1, R, R**-1 and records any word where the Britton
    verdict disagrees with the matrix product being the identity.
    """
    if isinstance(max_length, bool) or not isinstance(max_length, int) or max_length < 1:
        raise ValueError("max_length must be a positive integer")
    instance = FiniteAmalgamInstance()
    mismatches = []
    count = 0
    for n in range(1, max_length + 1):
        for letters in itertools.product(instance.LETTERS, repeat=n):
            count += 1
            if instance.is_trivial_by_reduction(letters) != (
                instance.is_trivial_by_matrices(letters)
            ):
                mismatches.append(letters)
    return FiniteOracleReport(count, tuple(mismatches))
