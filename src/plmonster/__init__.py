"""Exact arithmetic for piecewise-linear circle maps and their amalgams.

The package computes with orientation-preserving piecewise-linear circle
homeomorphisms whose breakpoints, images, and slopes are rational, all
in exact rational arithmetic: composition (left to right throughout),
inversion, lifts to the line, certified rotation numbers, membership and
tuple transitivity for Stein-Thompson circle groups, and the word
problem in an amalgamated product of two lifted groups glued along the
center on one side and a designated map on the other.

`BACKEND` names the arithmetic kernel: always "pure", for the one
pure-Python kernel module, `plmonster._core`.

The package is lazy (PEP 562): ``import plmonster`` loads no submodule,
and ``plmonster.NAME`` imports NAME's home submodule on first use.  The
command-line front end relies on this to load only what a command runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the one list of public names, by the submodule that defines them
_HOMES = {
    "_core": ("BACKEND",),
    "amalgam": (
        "AmalgamContext",
        "AmalgamWord",
        "ContextError",
        "Factor",
        "FiniteOracleReport",
        "Syllable",
        "SyllableError",
        "default_context",
        "finite_oracle_check",
        "random_word",
        "relator_word",
        "word_from_syllables",
        "words_equal",
    ),
    "maps": (
        "DisplacementInterval",
        "PLCircleMap",
        "PLLineMap",
        "as_fraction",
        "compose",
        "displacement_interval",
        "evaluate_circle",
        "evaluate_line",
        "identity_map",
        "invert",
        "lift",
        "power",
        "project",
        "rotation_map",
    ),
    "rotation": (
        "NonRationalCertificate",
        "PowerDetector",
        "RationalRotation",
        "ZeroBracketError",
        "is_power_of",
        "is_translation",
        "log_ratio_bounds",
        "rational_rotation_test",
        "rotation_number",
        "translation_bracket",
    ),
    "serialize": (
        "BudgetError",
        "DocumentError",
        "format_map",
        "format_word",
        "fraction_to_str",
        "map_from_document",
        "map_to_document",
        "parse_map",
        "parse_word",
        "str_to_fraction",
        "word_from_document",
        "word_to_document",
    ),
    "stein": (
        "STEIN_2_3",
        "THOMPSON",
        "GroupDescriptor",
        "MembershipReport",
        "TupleMapReport",
        "Violation",
        "center_generator_z",
        "irrational_candidate_g0",
        "is_member",
        "random_member",
        "torsion_rotation",
        "tuple_map",
        "tuple_map_report",
    ),
    "verify": (
        "CheckResult",
        "MONSTER_DISCLAIMER",
        "MonsterEvidenceReport",
        "monster_evidence_report",
        "perturb_word",
        "planted_trivial_word",
        "run_suite",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    # not cached in globals(): a name rebound in its home module (by a
    # test's monkeypatch, say) is seen here as well
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(_import_module("." + home, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
