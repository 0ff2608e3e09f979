"""Words in an amalgamated product of two lifted circle groups.

The left factor is the group of lifts of members of one Stein-Thompson
group, the right factor the lifts of another, and the amalgam glues the
unit translation z (central in both) to a designated right-factor map
with translation number separated from zero and from all rationals with
small denominator.  Under that gate, membership in the edge subgroup is
exactly decidable on both sides (rigid integer translations on the left,
power detection on the right), so Britton-style reduction solves the
word problem with no numerical error.

The reduction engine is written against a minimal operations interface
and is shared verbatim by a finite validation instance: two cyclic
groups of orders 4 and 6 glued along their order-two subgroups, which is
isomorphic to the group of determinant-one integer 2x2 matrices
generated by S = [[0,-1],[1,0]] and R = [[0,-1],[1,1]].  The matrix
product gives a triviality oracle wholly independent of the reduction
code, and `finite_oracle_check` compares the two on every short word.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .maps import (
    PLCircleMap,
    PLLineMap,
    compose,
    identity_map,
    invert,
    lift,
    project,
)
from .rotation import PowerDetector, RationalRotation, rotation_number
from .stein import (
    GroupDescriptor,
    STEIN_2_3,
    THOMPSON,
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


@dataclass(frozen=True, slots=True)
class Syllable:
    """One letter of an amalgam word: a factor tag and a factor element.

    For the PL amalgam the element is a PLLineMap; the finite validation
    instance stores small integers instead.  The reduction engine only
    touches elements through its operations interface.
    """

    factor: Factor
    element: object


class FactorOps:
    """Operations Britton reduction needs from a concrete amalgam.

    `edge_coefficient` must return the exponent k when the element equals
    the k-th power of that factor's edge generator and None otherwise;
    soundness of the word problem rests on it having no false answers in
    either direction.
    """

    __slots__ = ()

    def compose(self, factor: Factor, a, b):
        raise NotImplementedError

    def is_identity(self, factor: Factor, a) -> bool:
        raise NotImplementedError

    def edge_coefficient(self, factor: Factor, a) -> Optional[int]:
        raise NotImplementedError

    def edge_element(self, factor: Factor, k: int):
        raise NotImplementedError


class AmalgamContext(FactorOps):
    """Two factor groups glued along z = edge, with Britton's operations.

    Construction validates two gates: the edge map's underlying circle
    map must belong to the right factor's group, and its translation
    number must not be rational with denominator up to
    EDGE_ROTATION_DEPTH (`rotation_number` tests every iterate up to that
    depth, so the gate is stricter than the EDGE_MAX_DENOMINATOR its
    certificate states).  The second gate also makes power detection
    conclusive: at the first iterate it rejects every edge whose
    displacement interval holds an integer or is pinched, so an accepted
    edge's first bracket excludes 0, and the `PowerDetector` built on it
    reads that same bracket and never needs to refine it to exclude 0.
    Edge membership and edge powers on the right both go through that
    one detector.  The defaults glue Thompson's circle group to the (2,3)
    Stein group along the two-slope map with irrational rotation number.
    """

    __slots__ = ("_left", "_right", "_edge", "_detector")

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
                % (right, "; ".join("%s at %s" % (v.kind, v.where) for v in report.violations))
            )
        rot = rotation_number(edge, EDGE_MAX_DENOMINATOR, EDGE_ROTATION_DEPTH)
        if isinstance(rot, RationalRotation):
            raise ContextError(
                "edge map has rational translation number %s; the edge "
                "subgroup must be separated from all small rationals for "
                "power detection to stay conclusive" % rot.value
            )
        self._left = left
        self._right = right
        self._edge = edge
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

    def descriptor(self, factor: Factor) -> GroupDescriptor:
        return self._left if factor is Factor.G1 else self._right

    def compose(self, factor, a, b):
        return compose(a, b)

    def is_identity(self, factor, a):
        return a.is_identity()

    def edge_coefficient(self, factor, a):
        if factor is Factor.G1:
            # left edge subgroup: integer translations z**k, the lifts of
            # the identity circle map, with k their offset
            return a.offset if a.base.is_identity() else None
        return self._detector.detect(a)

    def edge_element(self, factor, k):
        if factor is Factor.G1:
            return PLLineMap(identity_map(), k)
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


def britton_reduce(ops: FactorOps, syllables) -> tuple:
    """Reduce a syllable sequence to Britton-reduced form.

    Free reduction is one pass over a stack: each pending syllable is
    dropped if it is the identity, merged into the top of the stack if
    the factors match (the merged syllable is popped when it is the
    identity), and pushed otherwise, so the stack always alternates
    factors with no identity syllable.  The reduced stack is then
    edge-tested from index ``checked``: every syllable below it is one
    that an earlier scan already rejected and no merge has touched since,
    and an edge test depends on the syllable alone.  The leftmost
    edge-subgroup syllable is flipped into the other factor: the stack is
    truncated at it, and the flipped syllable and then the untouched
    suffix go back onto the pending list.  The flipped syllable has the
    factor of its left neighbor (or, leftmost, of its right one), so it
    merges at once.

    Terminates because every merge removes a syllable and every flip is
    followed by a merge, so the syllable count drops between flips.  The
    result alternates factors and contains no identity syllable and,
    unless it is a single syllable, no edge-subgroup syllable; by the
    normal form theorem for amalgamated products it is empty exactly
    when the word represents the identity.
    """
    stack = []
    checked = 0
    pending = list(syllables)
    pending.reverse()
    while True:
        while pending:
            s = pending.pop()
            if ops.is_identity(s.factor, s.element):
                continue
            if stack and stack[-1].factor == s.factor:
                top = stack.pop()
                checked = min(checked, len(stack))
                s = Syllable(s.factor, ops.compose(s.factor, top.element, s.element))
                if ops.is_identity(s.factor, s.element):
                    continue
            stack.append(s)
        if len(stack) < 2:
            return tuple(stack)
        for i in range(checked, len(stack)):
            s = stack[i]
            k = ops.edge_coefficient(s.factor, s.element)
            if k is not None:
                break
        else:
            return tuple(stack)
        other = s.factor.other
        pending = stack[:i:-1]  # the suffix after i, last syllable first
        pending.append(Syllable(other, ops.edge_element(other, k)))
        del stack[i:]
        checked = i


class AmalgamWord:
    """A word in the amalgamated product, as an immutable syllable tuple.

    Construction validates every syllable: the element must be a line
    map whose underlying circle map belongs to the syllable's factor
    group.  Words are stored as given; `reduce` returns the
    Britton-reduced word, and `multiply`/`invert_word` reduce their
    results.  Structural equality compares stored syllables; equality in
    the group is `words_equal`, which reduces the quotient, because
    reduced forms are canonical only up to shuffles of edge-subgroup
    elements across syllables.
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
            try:
                factor = Factor(factor)
            except ValueError:
                raise SyllableError(
                    "syllable %d: unknown factor %r" % (i, factor)
                ) from None
            if not isinstance(element, PLLineMap):
                raise SyllableError("syllable %d: element must be a line map" % i)
            report = is_member(element.base, context.descriptor(factor))
            if not report.member:
                raise SyllableError(
                    "syllable %d: element is not a member of factor %s (%s)"
                    % (
                        i,
                        factor.value,
                        "; ".join(
                            "%s at %s" % (v.kind, v.where) for v in report.violations
                        ),
                    )
                )
            cooked.append(Syllable(factor, element))
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
        acc = identity_map()
        for s in self._syllables:
            if s.factor is Factor.G1:
                acc = compose(acc, project(s.element))
        return acc

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
            Syllable(Factor.G1, PLLineMap(identity_map(), k)),
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


class FiniteAmalgamInstance(FactorOps):
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
    """

    LETTERS = ("S", "S-", "R", "R-")

    _MATRICES = {
        "S": ((0, -1), (1, 0)),
        "S-": ((0, 1), (-1, 0)),
        "R": ((0, -1), (1, 1)),
        "R-": ((1, 1), (-1, 0)),
    }

    def _order(self, factor: Factor) -> int:
        return 4 if factor is Factor.G1 else 6

    def compose(self, factor, a, b):
        return (a + b) % self._order(factor)

    def is_identity(self, factor, a):
        return a == 0

    def edge_coefficient(self, factor, a):
        if factor is Factor.G1:
            return {0: 0, 2: 1}.get(a)
        return {0: 0, 3: 1}.get(a)

    def edge_element(self, factor, k):
        if factor is Factor.G1:
            return (2 * k) % 4
        return (3 * k) % 6

    def syllable(self, letter: str) -> Syllable:
        if letter in ("S", "S-"):
            return Syllable(Factor.G1, 1 if letter == "S" else 3)
        if letter in ("R", "R-"):
            return Syllable(Factor.G2, 1 if letter == "R" else 5)
        raise ValueError("unknown letter %r" % letter)

    def matrix(self, letter: str):
        try:
            return self._MATRICES[letter]
        except KeyError:
            raise ValueError("unknown letter %r" % letter) from None

    def is_trivial_by_reduction(self, letters) -> bool:
        word = [self.syllable(letter) for letter in letters]
        return not britton_reduce(self, word)

    def is_trivial_by_matrices(self, letters) -> bool:
        acc = _MAT_ID
        for letter in letters:
            acc = _mat_mul(acc, self.matrix(letter))
        return acc == _MAT_ID


@dataclass(frozen=True)
class FiniteOracleReport:
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
