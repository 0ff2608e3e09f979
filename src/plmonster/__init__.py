"""Exact arithmetic for piecewise-linear circle maps and their amalgams.

The package computes with orientation-preserving piecewise-linear circle
homeomorphisms whose breakpoints, images, and slopes are rational, all
in exact rational arithmetic: composition (left to right throughout),
inversion, lifts to the line, certified rotation numbers, membership and
tuple transitivity for Stein-Thompson circle groups, and the word
problem in an amalgamated product of two lifted groups glued along the
center on one side and a designated map on the other.

`BACKEND` names the arithmetic kernel: always "pure", the pure-Python
kernel in `plmonster._core`.
"""

from types import ModuleType as _ModuleType

from ._core import BACKEND
from .amalgam import (
    AmalgamContext,
    AmalgamWord,
    ContextError,
    Factor,
    FiniteOracleReport,
    Syllable,
    SyllableError,
    default_context,
    finite_oracle_check,
    random_word,
    relator_word,
    word_from_syllables,
    words_equal,
)
from .maps import (
    DisplacementInterval,
    PLCircleMap,
    PLLineMap,
    as_fraction,
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
    NonRationalCertificate,
    PowerDetector,
    RationalRotation,
    ZeroBracketError,
    is_power_of,
    is_translation,
    log_ratio_bounds,
    rational_rotation_test,
    rotation_number,
    translation_bracket,
)
from .serialize import (
    BudgetError,
    DocumentError,
    format_map,
    format_word,
    fraction_to_str,
    map_from_document,
    map_to_document,
    parse_map,
    parse_word,
    str_to_fraction,
    word_from_document,
    word_to_document,
)
from .stein import (
    STEIN_2_3,
    THOMPSON,
    GroupDescriptor,
    MembershipReport,
    TupleMapReport,
    Violation,
    center_generator_z,
    irrational_candidate_g0,
    is_member,
    random_member,
    torsion_rotation,
    tuple_map,
    tuple_map_report,
)
from .verify import (
    CheckResult,
    MONSTER_DISCLAIMER,
    MonsterEvidenceReport,
    monster_evidence_report,
    perturb_word,
    planted_trivial_word,
    run_suite,
)

__version__ = "0.1.0"

# the import block above is the one list of public names
__all__ = sorted(
    k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType)
) + ["__version__"]
