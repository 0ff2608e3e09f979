"""The lazy package namespace and the immutable result records."""

import ast
import copy
import importlib
import pickle
import runpy
from fractions import Fraction as F
from pathlib import Path

import pytest

import plmonster
from plmonster import (
    CheckResult,
    DisplacementInterval,
    Factor,
    FiniteOracleReport,
    MembershipReport,
    MonsterEvidenceReport,
    NonRationalCertificate,
    PLLineMap,
    RationalRotation,
    Syllable,
    TupleMapReport,
    Violation,
    identity_map,
    irrational_candidate_g0,
    is_member,
)
from plmonster.stein import STEIN_2_3, THOMPSON

# the public names, in order; the package derives __all__ from its table
PINNED_ALL = [
    "AmalgamContext", "AmalgamWord", "BACKEND", "BudgetError", "CheckResult",
    "ContextError", "DisplacementInterval", "DocumentError", "Factor",
    "FiniteOracleReport", "GroupDescriptor", "MONSTER_DISCLAIMER",
    "MembershipReport", "MonsterEvidenceReport", "NonRationalCertificate",
    "PLCircleMap", "PLLineMap", "PowerDetector", "RationalRotation", "STEIN_2_3",
    "Syllable", "SyllableError", "THOMPSON", "TupleMapReport", "Violation",
    "ZeroBracketError", "as_fraction", "center_generator_z", "compose",
    "default_context", "displacement_interval", "evaluate_circle", "evaluate_line",
    "finite_oracle_check", "format_map", "format_word", "fraction_to_str",
    "identity_map", "invert", "irrational_candidate_g0", "is_member", "is_power_of",
    "is_translation", "lift", "log_ratio_bounds", "map_from_document",
    "map_to_document", "monster_evidence_report", "parse_map", "parse_word",
    "perturb_word", "planted_trivial_word", "power", "project", "random_member",
    "random_word", "rational_rotation_test", "relator_word", "rotation_map",
    "rotation_number", "run_suite", "str_to_fraction", "torsion_rotation",
    "translation_bracket", "tuple_map", "tuple_map_report", "word_from_document",
    "word_from_syllables", "word_to_document", "words_equal", "__version__",
]


def test_all_is_pinned():
    assert plmonster.__all__ == PINNED_ALL


def test_each_public_name_is_its_home_modules_attribute():
    assert sorted(plmonster._HOME) + ["__version__"] == plmonster.__all__
    for name, home in plmonster._HOME.items():
        module = importlib.import_module("plmonster." + home)
        assert getattr(plmonster, name) is getattr(module, name), name


def test_lookups_are_not_cached(monkeypatch):
    from plmonster import maps

    def stand_in(f, g):
        raise AssertionError("not called")

    monkeypatch.setattr(maps, "compose", stand_in)
    assert plmonster.compose is stand_in
    assert "compose" not in vars(plmonster)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        plmonster.nope
    # defined in a submodule but not public
    assert not hasattr(plmonster, "SUITES")
    with pytest.raises(ImportError):
        exec("from plmonster import nope", {})


def test_star_import_binds_every_name():
    namespace = {}
    exec("from plmonster import *", namespace)
    for name in plmonster.__all__:
        assert namespace[name] is getattr(plmonster, name), name
    assert set(plmonster.__all__) <= set(dir(plmonster))


def _syllable(k=1):
    return Syllable(Factor.G1, PLLineMap(identity_map(), k))


# (record, its repr, an equal copy, a record differing in one field)
RECORDS = [
    (
        _syllable(),
        "Syllable(factor=<Factor.G1: 'G1'>, "
        "element=PLLineMap(base=PLCircleMap([0] -> [0]), offset=1))",
        _syllable(),
        _syllable(2),
    ),
    (
        RationalRotation(F(1, 3), F(0)),
        "RationalRotation(value=Fraction(1, 3), witness=Fraction(0, 1))",
        RationalRotation(F(1, 3), F(0)),
        RationalRotation(F(1, 3), F(1, 2)),
    ),
    (
        NonRationalCertificate(50, DisplacementInterval(F(1, 2), F(2, 3))),
        "NonRationalCertificate(max_denominator=50, "
        "bracket=DisplacementInterval(lo=Fraction(1, 2), hi=Fraction(2, 3)))",
        NonRationalCertificate(50, DisplacementInterval(F(1, 2), F(2, 3))),
        NonRationalCertificate(49, DisplacementInterval(F(1, 2), F(2, 3))),
    ),
    (
        DisplacementInterval(F(1, 2), F(2, 3)),
        "DisplacementInterval(lo=Fraction(1, 2), hi=Fraction(2, 3))",
        DisplacementInterval(F(1, 2), F(2, 3)),
        DisplacementInterval(F(1, 2), F(3, 4)),
    ),
    (
        Violation("slope-not-in-P", F(2, 3)),
        "Violation(kind='slope-not-in-P', where=Fraction(2, 3))",
        Violation("slope-not-in-P", F(2, 3)),
        Violation("image-not-in-Y", F(2, 3)),
    ),
    (
        is_member(irrational_candidate_g0(), THOMPSON),
        "MembershipReport(member=False, "
        "violations=(Violation(kind='slope-not-in-P', where=Fraction(2, 3)),))",
        MembershipReport(False, (Violation("slope-not-in-P", F(2, 3)),)),
        MembershipReport(True, ()),
    ),
    (
        FiniteOracleReport(3, ()),
        "FiniteOracleReport(words_checked=3, mismatches=())",
        FiniteOracleReport(3, ()),
        FiniteOracleReport(4, ()),
    ),
    (
        TupleMapReport(identity_map(), 2),
        "TupleMapReport(map=PLCircleMap([0] -> [0]), refinement_depth=2)",
        TupleMapReport(identity_map(), 2),
        TupleMapReport(identity_map(), 3),
    ),
    (
        CheckResult("x", True),
        "CheckResult(name='x', passed=True, detail='')",
        CheckResult("x", True, ""),
        CheckResult("x", False),
    ),
    (
        MonsterEvidenceReport((CheckResult("x", True, "d"),), "disc"),
        "MonsterEvidenceReport(sections=(CheckResult(name='x', passed=True, "
        "detail='d'),), disclaimer='disc')",
        MonsterEvidenceReport((CheckResult("x", True, "d"),), "disc"),
        MonsterEvidenceReport((), "disc"),
    ),
]


@pytest.mark.parametrize(
    "record, text, same, other", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_records_are_immutable_values(record, text, same, other):
    assert repr(record) == text
    assert record == same and not record != same and record is not same
    assert hash(record) == hash(same)
    assert record != other and not record == other
    field = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == getattr(same, field)
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


def test_syllables_compare_only_with_syllables():
    s = _syllable()
    assert s != (s.factor, s.element)
    with pytest.raises(AttributeError):
        del s.factor


def test_membership_report_truth():
    assert MembershipReport(True, ())
    assert not MembershipReport(False, (Violation("slope-not-in-P", F(2, 3)),))
    assert is_member(irrational_candidate_g0(), STEIN_2_3)
    assert not is_member(irrational_candidate_g0(), THOMPSON)


def test_displacement_interval_contains_the_closed_range():
    interval = DisplacementInterval(F(1, 2), F(2, 3))
    assert F(1, 2) in interval and F(7, 12) in interval and "2/3" in interval
    assert F(2, 3) + F(1, 100) not in interval and 0 not in interval
    with pytest.raises(TypeError):
        0.6 in interval


def test_the_reference_module_imports_no_code_it_checks():
    # what an oracle in tests/reference.py may take from the library: the
    # types and exceptions it must return or match, and the message helper
    allowed = {
        "DisplacementInterval", "DocumentError", "MembershipReport", "NonRationalCertificate",
        "RationalRotation", "Syllable", "Violation", "_shown",
    }
    tree = ast.parse(Path(__file__).with_name("reference.py").read_text(encoding="utf-8"))
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "plmonster"]
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "plmonster":
            assert node.module in ("plmonster", "plmonster.maps"), node.module
            taken |= {a.name for a in node.names}
    assert taken <= allowed, taken - allowed
    assert not taken & {"_core", "rotation", "stein", "compose", "invert", "power"}


def test_every_mutant_row_applies_exactly_once():
    # run_path keeps the table out of sys.modules, so its snippets never
    # join the local constants that hypothesis draws from
    table = runpy.run_path(str(Path(__file__).with_name("mutants.py")))
    assert table["problems"]() == []
