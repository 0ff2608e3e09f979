"""Command-line surface: exit codes, documents, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

import plmonster
from plmonster import (
    AmalgamWord,
    Factor,
    PLCircleMap,
    PLLineMap,
    default_context,
    format_map,
    format_word,
    identity_map,
    lift,
    relator_word,
    rotation_map,
)
from plmonster import amalgam, cli, serialize
from plmonster.amalgam import ContextError, SyllableError
from plmonster.cli import main
from plmonster.rotation import ZeroBracketError
from plmonster.stein import (
    STEIN_2_3,
    THOMPSON,
    GroupDescriptor,
    irrational_candidate_g0,
    tuple_map,
)

import golden


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def failure(capsys, *argv):
    """The error object of a call that must exit 2 and print nothing else."""
    code, out, err = run(capsys, *argv)
    doc = json.loads(err)
    assert (code, out, list(doc)) == (2, "", ["error"]), argv
    return doc["error"]


@pytest.fixture
def g0_file(tmp_path):
    path = tmp_path / "g0.json"
    path.write_text(format_map(irrational_candidate_g0(), STEIN_2_3))
    return str(path)


@pytest.fixture
def relator_file(tmp_path):
    path = tmp_path / "relator.json"
    path.write_text(format_word(relator_word(default_context(), 1)))
    return str(path)


def test_element_identity_document(capsys):
    code, out, err = run(capsys, "element", "identity")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "format": "plmonster.map/1",
        "lambda": None,
        "slopes": None,
        "breakpoints": ["0"],
        "images": ["0"],
    }


def test_element_g0_document(capsys):
    code, out, err = run(capsys, "element", "g0")
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "format": "plmonster.map/1",
        "lambda": 6,
        "slopes": [2, 3],
        "breakpoints": ["0", "1/4"],
        "images": ["1/2", "0"],
    }


def test_element_g0_bytes_without_a_context(capsys, monkeypatch):
    def no_context():
        raise AssertionError("element g0 built an amalgam context")

    monkeypatch.setattr(amalgam, "default_context", no_context)
    code, out, err = run(capsys, "element", "g0")
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "format": "plmonster.map/1",\n  "lambda": 6,\n  "slopes": [\n'
        '    2,\n    3\n  ],\n  "breakpoints": [\n    "0",\n    "1/4"\n  ],\n'
        '  "images": [\n    "1/2",\n    "0"\n  ]\n}\n'
    )


def test_element_z_and_rotation(capsys, tmp_path):
    code, out, _ = run(capsys, "element", "z")
    assert code == 0 and json.loads(out)["offset"] == 1
    out_path = tmp_path / "rot.json"
    code, out, _ = run(
        capsys, "element", "rotation", "--angle", "1/3", "-o", str(out_path)
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["images"] == ["1/3"]


def test_eval(capsys, g0_file):
    assert run(capsys, "eval", "--map", g0_file, "--point", "1/8") == (0, "3/4\n", "")
    assert run(capsys, "eval", "--map", g0_file, "--point", "1/2") == (0, "1/6\n", "")


def test_compose_invert_power(capsys, g0_file, tmp_path):
    inv = tmp_path / "inv.json"
    code, _, _ = run(capsys, "invert", g0_file, "-o", str(inv))
    assert code == 0
    code, out, _ = run(capsys, "compose", g0_file, str(inv))
    doc = json.loads(out)
    assert code == 0
    assert doc["breakpoints"] == ["0"] and doc["images"] == ["0"]
    assert doc["lambda"] == 6  # both inputs carried the same group annotation
    code, out, _ = run(capsys, "power", g0_file, "2")
    assert code == 0 and json.loads(out)["lambda"] == 6


def test_map_commands_decode_each_document_once(capsys, g0_file, monkeypatch):
    # each document is parsed once and its 'slopes' descriptor built once
    decoded = []
    loads = json.loads
    build = GroupDescriptor.__init__

    def counting_loads(text, *args, **kwargs):
        decoded.append(text)
        return loads(text, *args, **kwargs)

    def counting_build(self, *generators):
        built.append(generators)
        build(self, *generators)

    monkeypatch.setattr(serialize.json, "loads", counting_loads)
    monkeypatch.setattr(GroupDescriptor, "__init__", counting_build)
    for argv, documents in (
        (("invert", g0_file), 1),
        (("power", g0_file, "3"), 1),
        (("compose", g0_file, g0_file), 2),
        (("eval", "--map", g0_file, "--point", "1/3"), 1),
    ):
        decoded.clear()
        built = []
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(decoded) == documents, argv
        assert built == [(2, 3)] * documents, argv


def test_member_verdict_exit_codes(capsys, g0_file, tmp_path):
    code, out, _ = run(
        capsys, "member", "--map", g0_file, "--slopes", "2,3", "--lambda", "6"
    )
    assert code == 0 and json.loads(out)["member"] is True
    rot = tmp_path / "r15.json"
    run(capsys, "element", "rotation", "--angle", "1/5", "-o", str(rot))
    code, out, _ = run(capsys, "member", "--map", str(rot), "--slopes", "2,3")
    doc = json.loads(out)
    assert code == 1
    assert doc["member"] is False
    assert doc["violations"] == [{"kind": "image-not-in-Y", "where": "1/5"}]


def test_tuple_map_command(capsys):
    code, out, _ = run(
        capsys, "tuple-map", "--from", "0,1/2", "--to", "1/4,0", "--lambda", "2"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["breakpoints"] == ["0", "1/4", "1/2"]
    assert doc["images"] == ["1/4", "3/4", "0"]


def test_rot_rational(capsys, tmp_path):
    rot = tmp_path / "r25.json"
    run(capsys, "element", "rotation", "--angle", "2/5", "-o", str(rot))
    code, out, _ = run(capsys, "rot", "--map", str(rot))
    doc = json.loads(out)
    assert code == 0
    assert doc["kind"] == "rational" and doc["value"] == "2/5"
    assert doc["summary"].startswith("rational 2/5")


def test_rot_certifies_g0(capsys, g0_file):
    code, out, _ = run(
        capsys, "rot", "--map", g0_file, "--max-denominator", "50", "--depth", "200"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["kind"] == "nonrational-certified"
    assert doc["max_denominator"] == 50
    assert "no rational with denominator <= 50" in doc["summary"]


def test_rot_bracket_past_float_range(capsys, tmp_path):
    # the exact bracket moves with the offset; its ends no longer fit a
    # float, so the summary leaves the decimal ends out
    offset = 10**400
    path = tmp_path / "big.json"
    path.write_text(format_map(lift(irrational_candidate_g0(), offset)))
    base = tmp_path / "g0.json"
    base.write_text(format_map(lift(irrational_candidate_g0(), 0)))
    flags = ("--max-denominator", "5", "--depth", "5")
    code, out, err = run(capsys, "rot", "--map", str(path), *flags)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    _, base_out, _ = run(capsys, "rot", "--map", str(base), *flags)
    base_doc = json.loads(base_out)
    assert doc["bracket"] == [
        serialize.fraction_to_str(serialize.str_to_fraction(end) + offset)
        for end in base_doc["bracket"]
    ]
    assert doc["summary"] == "no rational with denominator <= 5; bracket of width %s" % (
        base_doc["summary"].rsplit(" ", 1)[1]
    )
    assert base_doc["summary"].startswith("no rational with denominator <= 5; bracket [0.")


def test_negative_rationals_are_values(capsys, tmp_path):
    z = tmp_path / "z.json"
    run(capsys, "element", "z", "-o", str(z))
    assert run(capsys, "eval", "--map", str(z), "--point", "-9/4") == (0, "-5/4\n", "")
    spaced = run(capsys, "element", "rotation", "--angle", "-1/3")
    assert spaced[0] == 0 and spaced == run(capsys, "element", "rotation", "--angle=-1/3")
    error = failure(capsys, "tuple-map", "--from", "-1/2,1/4", "--to", "0,1/2", "--lambda", "2")
    assert error == {
        "kind": "usage",
        "message": "--from -1/2,1/4 --to 0,1/2 --lambda 2: tuple entries live in [0, 1); got -1/2",
    }
    # a word that only starts with a minus sign is still an option
    assert failure(capsys, "eval", "--map", str(z), "--point", "-x")["kind"] == "usage"


def test_flag_rationals_follow_one_grammar(capsys, g0_file):
    # digits, an optional point and an optional denominator after an
    # optional "-": an exponent would build 10**exp before it could be
    # refused, so 1e400 is a usage error (it was accepted) and
    # 1e30000000 exits at once
    flags = (
        ("element", "rotation", "--angle"),
        ("eval", "--map", g0_file, "--point"),
        ("tuple-map", "--slopes", "2", "--to", "0,1/2", "--from"),
        ("tuple-map", "--slopes", "2", "--from", "0,1/2", "--to"),
    )
    for argv in flags:
        for text in ("1e400", "1e30000000", "1_0", "1 /2", "+1", "1/0", "2" * 100_001):
            error = failure(capsys, *argv, text)
            assert error["kind"] == "usage"
            assert error["message"].startswith(argv[-1] + " expects a rational")
    same = (
        (("element", "rotation", "--angle"), ("-0.25", "3/4"), ("0.25", "1/4"), ("2/4", "1/2")),
        (("eval", "--map", g0_file, "--point"), ("-0.875", "1/8"), (".5", "1/2")),
    )
    for argv, *texts in same:
        for text, value in texts:
            assert run(capsys, *argv, text)[:2] == run(capsys, *argv, value)[:2]
            assert run(capsys, *argv, text)[0] == 0
    for flag, other in (("--from", "--to"), ("--to", "--from")):
        error = failure(capsys, "tuple-map", "--lambda", "2", flag, "0,-0.5", other, "0,1/2")
        assert error["kind"] == "usage"
        assert error["message"].endswith(": tuple entries live in [0, 1); got -1/2")
        assert "%s 0,-0.5" % flag in error["message"]


def test_integer_flags_ignore_the_host_digit_limit(capsys, tmp_path):
    z = tmp_path / "z.json"
    run(capsys, "element", "z", "-o", str(z))
    long = "1" + "0" * 700
    over = "1" * (serialize.MAX_DIGITS + 1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        power = run(capsys, "power", str(z), long)
        word = run(capsys, "word", "random", "--length", "2", "--seed", "-" + long)
        refused = []
        for value in (over, "1e3", "0x10", "1_0", "2.0"):
            for argv in (
                ("power", str(z), value),
                ("rot", "--map", str(z), "--depth", value),
                ("rot", "--map", str(z), "--max-denominator", value),
                ("word", "random", "--length", value),
                ("word", "random", "--seed", value),
                ("verify", "--suite", "all", "--samples", value),
                ("verify", "--suite", "all", "--seed", value),
                ("member", "--map", str(z), "--lambda", value),
                ("member", "--map", str(z), "--slopes", "2," + value),
            ):
                code, out, err = run(capsys, *argv)
                refused.append((code, out, json.loads(err)["error"]["kind"]))
    finally:
        sys.set_int_max_str_digits(limit)
    assert power[0] == 0 and '"offset": ' + long + "\n" in power[1]
    assert word[0] == 0 and word[2] == ""
    assert set(refused) == {(2, "", "usage")}


def test_word_trivial_verdicts(capsys, relator_file, tmp_path):
    assert run(capsys, "word", "trivial", relator_file) == (0, "trivial\n", "")
    w = tmp_path / "w.json"
    run(capsys, "word", "random", "--length", "3", "--seed", "7", "-o", str(w))
    code, out, _ = run(capsys, "word", "trivial", str(w))
    assert code == 1 and out == "nontrivial\n"


def test_word_pipeline(capsys, tmp_path):
    w = tmp_path / "w.json"
    wi = tmp_path / "wi.json"
    prod = tmp_path / "prod.json"
    run(capsys, "word", "random", "--length", "3", "--seed", "7", "-o", str(w))
    assert run(capsys, "word", "invert", str(w), "-o", str(wi))[0] == 0
    assert run(capsys, "word", "multiply", str(w), str(wi), "-o", str(prod))[0] == 0
    code, out, _ = run(capsys, "word", "trivial", str(prod))
    assert (code, out) == (0, "trivial\n")
    code, out, _ = run(capsys, "word", "reduce", str(prod))
    assert code == 0 and json.loads(out)["syllables"] == []


def test_word_multiply_builds_one_default_context(
    capsys, relator_file, tmp_path, monkeypatch
):
    built = []
    build = amalgam.AmalgamContext.__init__

    def counting_build(self, *args, **kwargs):
        built.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(amalgam.AmalgamContext, "__init__", counting_build)
    amalgam.default_context.cache_clear()
    code, out, err = run(capsys, "word", "multiply", relator_file, relator_file)
    assert (code, err, len(built)) == (0, "", 1)
    assert json.loads(out)["syllables"] == []
    # two documents on another context share one build
    with open(relator_file, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["context"]["edge"]["offset"] = 1
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    built.clear()
    amalgam._other_context.cache_clear()
    code, out, err = run(capsys, "word", "multiply", str(other), str(other))
    assert (code, err, len(built)) == (0, "", 1)
    assert json.loads(out)["context"] == doc["context"]
    doc["context"]["edge"]["offset"] = 0
    doc["context"]["edge"]["breakpoints"] = ["0"]
    doc["context"]["edge"]["images"] = ["1/2"]
    other.write_text(json.dumps(doc))
    code, out, err = run(capsys, "word", "trivial", str(other))
    assert (code, out) == (2, "")
    assert err == (
        '{\n  "error": {\n    "kind": "parse",\n    "message": "invalid context: '
        "edge map has rational translation number 1/2; the edge subgroup must be "
        "separated from all small rationals for power detection to stay "
        'conclusive"\n  }\n}\n'
    )


def test_word_project(capsys, relator_file):
    code, out, _ = run(capsys, "word", "project", relator_file)
    doc = json.loads(out)
    assert code == 0
    assert doc["breakpoints"] == ["0"] and doc["images"] == ["0"]


def test_verify_small_suite(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "centrality", "--samples", "10", "--seed", "3"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("PASS centrality.center-commutes")
    assert lines[-1] == "result: 1 of 1 checks passed"


def test_a_failing_verify_check_exits_1(capsys, monkeypatch):
    from plmonster import verify

    # the relator without its z**k syllable: edge**-k alone is nontrivial
    # for every k != 0, and projects to the identity as the relator does
    def broken_relator(context, k=1):
        return AmalgamWord(context, [(Factor.G2, context.edge_element(Factor.G2, -k))])

    monkeypatch.setattr(verify, "relator_word", broken_relator)
    code, out, err = run(capsys, "verify", "--suite", "monster-evidence", "--samples", "5")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL monster-evidence.relator-words-trivial (10 of 11 failed, e.g. -5; -4; -3)"
    ]
    assert lines[-1] == "result: 5 of 6 checks passed"


def test_a_wrong_center_bracket_fails_both_center_checks(capsys, monkeypatch):
    from plmonster import verify
    from plmonster.maps import DisplacementInterval

    exact = verify.translation_bracket

    def shifted(f, n=1):
        bracket = exact(f, n)
        return DisplacementInterval(bracket.lo + 1, bracket.hi + 1)

    # both suites check z**k through the one helper, which reads this name
    monkeypatch.setattr(verify, "translation_bracket", shifted)
    code, out, err = run(capsys, "verify", "--suite", "all", "--samples", "5")
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL rot-invariance.center-quotient-rot (11 of 11 failed, e.g. -5; -4; -3)",
        "FAIL monster-evidence.center-projects-to-identity (7 of 7 failed, e.g. -3; -2; -1)",
    ]


def test_verify_all_output_is_pinned(capsys):
    # the same bytes on every supported Python: refactors must keep them
    code, out, err = run(capsys, "verify", "--suite", "all", "--samples", "40")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "f4479b5c2c5f586e6c6badd1d3f125823762f2d1a0d7c2d95ad5bc410e69cd60"
    )


def test_verify_monster_evidence_contains_disclaimer(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "monster-evidence", "--samples", "5", "--seed", "3"
    )
    assert code == 0
    assert "Disclaimer:" in out
    assert "not" in out and "machine" in out


def test_usage_errors_exit_2(capsys, g0_file):
    for argv, kind, message in (
        (("eval", "--map", g0_file, "--point", "x"), "usage", "--point expects"),
        (("member", "--map", g0_file), "usage", "a group is required"),
        (("member", "--map", g0_file, "--slopes", "2,x"), "usage", "--slopes expects"),
        (
            ("member", "--map", g0_file, "--slopes", "2,3", "--lambda", "5"),
            "usage",
            "--lambda 5 does not equal the product 6",
        ),
        (("element", "rotation"), "usage", "requires --angle"),
        # the tuple construction's own argument checks, under the flags given
        (
            ("tuple-map", "--from", "0,1/3", "--to", "0,2/3", "--slopes", "3"),
            "usage",
            "--from 0,1/3 --to 0,2/3 --slopes 3: descriptor T_{3} cannot halve",
        ),
        (
            ("tuple-map", "--from", "0,1/2", "--to", "0,1/4", "--slopes", "4"),
            "usage",
            "--slopes 4: descriptor T_{4} cannot halve grid gaps",
        ),
        (
            ("tuple-map", "--from", "0,1/4,1/2", "--to", "0,1/2,1/4", "--slopes", "2,3"),
            "usage",
            "--to 0,1/2,1/4 --slopes 2,3: target tuple is not positively cyclically ordered",
        ),
        (
            ("tuple-map", "--from", "0,0", "--to", "0,1/2", "--slopes", "2"),
            "usage",
            "--from 0,0 --to 0,1/2 --slopes 2: source tuple is not positively cyclically",
        ),
        (
            ("tuple-map", "--from", "0,1/2", "--to", "0", "--lambda", "2"),
            "usage",
            "--from 0,1/2 --to 0 --lambda 2: tuples must have equal length",
        ),
        (
            ("tuple-map", "--from", "0,1/7", "--to", "0,1/2", "--lambda", "6"),
            "usage",
            "--from 0,1/7 --to 0,1/2 --lambda 6: 1/7 is not a Z[1/6] point",
        ),
        (
            ("tuple-map", "--from", "0,3/2", "--to", "0,1/2", "--slopes", "2,3", "--lambda", "6"),
            "usage",
            "--slopes 2,3 --lambda 6: tuple entries live in [0, 1); got 3/2",
        ),
        # a value past the host's int/str digit limit is named, not shown
        (
            ("tuple-map", "--from", "0,1" + "0" * 5000, "--to", "0,1/2", "--slopes", "2"),
            "usage",
            ": tuple entries live in [0, 1); got a value too large to show",
        ),
        (
            ("tuple-map", "--from", "0,1/3" + "0" * 5000 + "1", "--to", "0,1/2", "--slopes", "2"),
            "usage",
            ": a value too large to show is not a Z[1/2] point",
        ),
    ):
        error = failure(capsys, *argv)
        assert error["kind"] == kind
        assert message in error["message"] and "set_int_max_str_digits" not in error["message"]
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "verify", "--suite", "bogus")[0] == 2


def test_bad_rotation_flags_are_usage_errors_before_the_map_is_read(capsys, tmp_path):
    missing = str(tmp_path / "no-such-map.json")
    for flags, named in (
        (("--depth", "-1"), "--depth"),
        (("--depth", "0"), "--depth"),
        (("--max-denominator", "0"), "--max-denominator"),
        (("--max-denominator", "-7", "--depth", "5"), "--max-denominator"),
        # below the default --max-denominator 50
        (("--depth", "10"), "--depth 10 is below --max-denominator 50"),
        (("--max-denominator", "300", "--depth", "299"), "--max-denominator 300"),
    ):
        error = failure(capsys, "rot", "--map", missing, *flags)
        assert error["kind"] == "usage" and named in error["message"], flags
    # with valid flags the map is read, and a missing one is an io error
    assert failure(capsys, "rot", "--map", missing, "--depth", "50")["kind"] == "io"


def test_bad_group_flags_name_the_flag_and_value(capsys, g0_file):
    for flags, named in (
        (("--lambda", "-6"), "--lambda must be an integer >= 2; got -6"),
        (("--lambda", "1"), "--lambda must be an integer >= 2; got 1"),
        (("--lambda", "4294967311"), "--lambda 4294967311: "),
        (("--slopes", "1,3"), "--slopes 1,3: "),
        (("--slopes", "2,0"), "--slopes 2,0: "),
    ):
        error = failure(capsys, "member", "--map", g0_file, *flags)
        assert error["kind"] == "usage" and named in error["message"], flags


def test_parse_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "plmonster.map/1"}')
    assert failure(capsys, "eval", "--map", str(bad), "--point", "0")["kind"] == "parse"
    # nesting past the interpreter's recursion limit is a parse error too,
    # not a crash with exit 1, which `word trivial` reads as "nontrivial"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (("eval", "--map", str(bad), "--point", "0"), ("word", "trivial", str(bad))):
        assert failure(capsys, *argv)["kind"] == "parse"


def test_power_and_rot_budgets_exit_2_before_computing(capsys, g0_file, tmp_path, monkeypatch):
    from plmonster import rotation

    def refuse(*args):
        raise AssertionError("an over-budget computation started")

    monkeypatch.setattr(cli, "power", refuse)
    monkeypatch.setattr(rotation, "rotation_number", refuse)
    monkeypatch.setattr(cli, "tuple_map_report", refuse)
    over = str(serialize.MAX_EXPONENT + 1)
    deep = "0,1/" + serialize._digits(3**40000)
    deeper = "0,1/" + serialize._digits(2**332190)
    for argv in (
        ("power", g0_file, over),
        ("power", g0_file, "-" + over),
        ("power", g0_file, "1000000000000"),
        ("rot", "--map", g0_file, "--depth", str(serialize.MAX_ROTATION_DEPTH + 1)),
        ("rot", "--map", g0_file, "--depth", "10000000"),
        ("rot", "--map", g0_file, "--max-denominator", "10000000"),
        # tuple-map grids of 2**20 and 6**16 points, one from the target's
        # depth, and one of lambda**1 that is over already
        ("tuple-map", "--from", "0,1/1048576", "--to", "0,1/2", "--slopes", "2"),
        ("tuple-map", "--from", "0,1/65536", "--to", "0,1/2", "--slopes", "2,3"),
        ("tuple-map", "--from", "0,1/2", "--to", "0,1/1048576", "--slopes", "2"),
        ("tuple-map", "--from", "0", "--to", "0", "--slopes", "65537"),
        # entries 1/3**40000 (19,085 digits) and 1/2**332190 (100,000),
        # inside the digit budget: the depth comes from the denominators'
        # prime valuations, not from a loop over the depth
        ("tuple-map", "--from", deep, "--to", deep, "--slopes", "2,3"),
        ("tuple-map", "--from", deeper, "--to", deeper, "--slopes", "2"),
    ):
        error = failure(capsys, *argv)
        assert error["kind"] == "budget" and "budget" in error["message"], argv
    # a rigid rotation's power grows with the exponent's digits only
    monkeypatch.undo()
    rigid = tmp_path / "rigid.json"
    rigid.write_text(format_map(PLLineMap(rotation_map(Fraction(1, 3)), 2)))
    code, out, err = run(capsys, "power", str(rigid), "1000000000000")
    assert (code, err) == (0, "")
    assert json.loads(out)["offset"] == 2333333333333


def test_power_past_the_default_digit_limit(capsys, g0_file, tmp_path):
    code, out, err = run(capsys, "power", g0_file, "30000")
    assert code == 0 and err == ""
    assert max(len(v) for v in json.loads(out)["images"]) > 4300
    big = tmp_path / "big.json"
    big.write_text(out)
    code, out, err = run(capsys, "eval", "--map", str(big), "--point", "0")
    assert code == 0 and err == ""


def test_document_and_word_length_budgets_exit_2_before_parsing(
    capsys, g0_file, tmp_path, monkeypatch
):
    def padded(name, size):
        # g0's document and then blanks, which JSON ignores, up to size bytes
        text = Path(g0_file).read_text(encoding="utf-8")
        path = tmp_path / name
        path.write_text(text + " " * (size - len(text)))
        return str(path)

    big = padded("big.json", serialize.MAX_DOCUMENT_BYTES + 1)
    at_budget = padded("at.json", serialize.MAX_DOCUMENT_BYTES)

    def refuse(*args):
        raise AssertionError("an over-budget input was parsed or built")

    for name in ("parse_map", "parse_word", "_parse_map_with_descriptor"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(amalgam, "random_word", refuse)
    for argv, kind, message in (
        (("eval", "--map", big, "--point", "1/3"), "budget", "budget"),
        (("invert", big), "budget", "budget"),
        (("compose", big, big), "budget", "budget"),
        (("word", "trivial", big), "budget", "budget"),
        (("word", "multiply", big, big), "budget", "budget"),
        (("word", "random", "--length", str(serialize.MAX_WORD_LENGTH + 1)), "budget", "budget"),
        # a negative length is a usage error, refused before any work
        (("word", "random", "--length", "-3"), "usage", "--length must be a nonnegative"),
    ):
        error = failure(capsys, *argv)
        assert error["kind"] == kind and message in error["message"], argv
    monkeypatch.undo()
    assert run(capsys, "eval", "--map", at_budget, "--point", "1/8") == (0, "3/4\n", "")


def test_verify_samples_budget_exits_2_before_any_suite(capsys, monkeypatch):
    from plmonster import verify

    runs = []

    def record(name, samples, seed):
        runs.append((name, samples, seed))
        return []

    monkeypatch.setattr(verify, "run_suite", record)
    for over in (serialize.MAX_VERIFY_SAMPLES + 1, 10**12):
        error = failure(capsys, "verify", "--suite", "arith", "--samples", str(over))
        assert error["kind"] == "budget" and "budget" in error["message"]
    # no samples, or fewer, would pass with nothing checked: a usage error
    for flags in (("--samples", "0"), ("--samples=-1",), ("--samples", "-1")):
        error = failure(capsys, "verify", "--suite", "arith", *flags)
        assert error["kind"] == "usage", flags
        assert "--samples must be a positive integer" in error["message"], flags
    assert runs == []
    # the budget itself is accepted and handed on
    code, out, err = run(
        capsys, "verify", "--suite", "all", "--samples", str(serialize.MAX_VERIFY_SAMPLES)
    )
    assert (code, err) == (0, "")
    assert runs == [("all", serialize.MAX_VERIFY_SAMPLES, 42)]


def test_writers_refuse_documents_over_the_budget(capsys, g0_file, tmp_path, monkeypatch):
    # the budget is cut to each command's input, so the over-budget
    # product stays small: no writer emits a document the readers refuse
    # an alternating word with no edge syllable: its square reduces no
    # further and is twice as long
    word = AmalgamWord(
        default_context(),
        [
            (Factor.G1, lift(tuple_map([0, Fraction(1, 4)], [0, Fraction(1, 2)], THOMPSON), 0)),
            (Factor.G2, lift(irrational_candidate_g0(), 1)),
        ],
    )
    word_file = tmp_path / "w.json"
    word_file.write_text(format_word(word))
    for argv, budget in (
        (("power", g0_file, "20"), os.path.getsize(g0_file)),
        (("word", "multiply", str(word_file), str(word_file)), os.path.getsize(word_file)),
    ):
        monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", budget)
        out_file = tmp_path / "out.json"
        for extra in ((), ("-o", str(out_file))):
            error = failure(capsys, *argv, *extra)
            assert error["kind"] == "budget" and "budget" in error["message"], argv
            assert not out_file.exists(), argv
        monkeypatch.undo()


def test_a_document_exactly_at_the_budget_round_trips(capsys, g0_file, tmp_path, monkeypatch):
    code, text, _ = run(capsys, "power", g0_file, "20")
    assert code == 0
    size = len(text.encode("utf-8"))
    out_file = tmp_path / "p.json"
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", size - 1)
    assert run(capsys, "power", g0_file, "20", "-o", str(out_file))[0] == 2
    assert not out_file.exists()
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", size)
    assert run(capsys, "power", g0_file, "20", "-o", str(out_file)) == (0, "", "")
    assert out_file.read_bytes() == text.encode("utf-8")
    # read back and written again, byte for byte
    assert run(capsys, "power", str(out_file), "1") == (0, text, "")


def test_budget_errors_exit_2(capsys, tmp_path):
    doc = json.loads(format_map(irrational_candidate_g0()))
    doc["images"] = ["1/" + "3" * 100_001, "0"]
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    assert failure(capsys, "eval", "--map", str(bad), "--point", "0")["kind"] == "budget"


def test_offsets_past_the_default_digit_limit(capsys, tmp_path):
    text = format_map(PLLineMap(identity_map(), 99))
    t = tmp_path / "t.json"
    t.write_text(text)
    big = tmp_path / "big.json"
    big.write_text(text.replace('"offset": 99', '"offset": 1' + "0" * 4999))
    code, out, err = run(capsys, "eval", "--map", str(big), "--point", "0")
    assert (code, out, err) == (0, "1" + "0" * 4999 + "\n", "")
    code, out, err = run(capsys, "power", str(t), "1" + "0" * 4299)
    assert code == 0 and err == ""
    assert '"offset": 99' + "0" * 4299 + "\n" in out  # 4,301 digits
    power_file = tmp_path / "power.json"
    power_file.write_text(out)
    code, out, err = run(capsys, "invert", str(power_file))
    assert code == 0 and '"offset": -99' + "0" * 4299 + "\n" in out
    over = tmp_path / "over.json"
    over.write_text(text.replace('"offset": 99', '"offset": 1' + "0" * 100_000))
    assert failure(capsys, "eval", "--map", str(over), "--point", "0")["kind"] == "budget"
    bad = tmp_path / "bad.json"
    bad.write_text(text[:-5])
    assert failure(capsys, "eval", "--map", str(bad), "--point", "0")["kind"] == "parse"


def test_non_members_with_long_breakpoints_are_parse_errors(capsys, tmp_path):
    # a message showing a 5,000-digit breakpoint, past CPython's default
    # limit, is still a parse error naming the syllable or the context
    long = lift(PLCircleMap([0, Fraction(1, 3 * 10**4999 + 1)], [0, Fraction(1, 2)]), 0)
    for place, start in (("syllable", "syllable 0: "), ("edge", "invalid context: ")):
        doc = serialize.word_to_document(relator_word(default_context(), 1))
        if place == "syllable":
            doc["syllables"][0]["element"] = serialize.map_to_document(long)
        else:
            doc["context"]["edge"] = serialize.map_to_document(long)
        path = tmp_path / (place + ".json")
        path.write_text(json.dumps(doc, indent=2))
        error = failure(capsys, "word", "trivial", str(path))
        assert error["kind"] == "parse" and error["message"].startswith(start), place


def test_missing_file_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "no.json")
    assert failure(capsys, "eval", "--map", missing, "--point", "0")["kind"] == "io"



def test_a_document_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format": "\xff\xfe"}')
    for argv in (("word", "trivial", str(bad)), ("eval", "--map", str(bad), "--point", "0")):
        assert failure(capsys, *argv) == {"kind": "parse", "message": "%s is not UTF-8 text" % bad}

def test_mixed_compose_rejected(capsys, g0_file, tmp_path):
    zf = tmp_path / "z.json"
    run(capsys, "element", "z", "-o", str(zf))
    assert failure(capsys, "compose", g0_file, str(zf))["kind"] == "usage"


def test_output_is_deterministic(capsys, g0_file):
    first = run(capsys, "rot", "--map", g0_file)
    second = run(capsys, "rot", "--map", g0_file)
    assert first == second
    first = run(capsys, "word", "random", "--length", "4", "--seed", "5")
    second = run(capsys, "word", "random", "--length", "4", "--seed", "5")
    assert first == second


COMMANDS = (
    "element", "eval", "compose", "invert", "power", "member", "tuple-map", "rot", "word",
    "verify",
)
WORD_ACTIONS = ("reduce", "trivial", "multiply", "invert", "project", "random")



def test_golden_transcript(tmp_path):
    # every fast row of tests/golden.txt, replayed in order (see tests/golden.py)
    rows = golden.load()
    heads = [row.argv.split()[:2] for row in rows]
    assert {head[0] for head in heads} == set(COMMANDS)
    assert {head[1] for head in heads if head[0] == "word"} == set(WORD_ACTIONS)
    assert {head[1] for head in heads if head[0] == "element"} == {"g0", "z", "identity", "rotation"}
    assert golden.mismatches([row for row in rows if not row.slow], tmp_path) == []


def test_golden_rows_are_well_formed():
    rows = golden.load()
    ids = [row.id for row in rows]
    assert len(set(ids)) == len(ids), sorted({i for i in ids if ids.count(i) > 1})
    sha = re.compile(r"[0-9a-f]{64}\Z")
    for row in rows:
        code, out, err, written = row.expected
        assert code in ("0", "1", "2"), row.id
        assert sha.match(out) and sha.match(err), row.id
        assert sha.match(written) or written in ("-", "absent"), row.id


def test_ci_pins_no_bytes_outside_the_golden_transcript():
    # a new pin goes into tests/golden.txt, which the install job replays
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
    assert re.findall(r"\b[0-9a-fA-F]{64}\b", workflow.read_text()) == []

@pytest.mark.parametrize(
    "argv, built",
    [
        (("element", "g0"), ["plmonster", "plmonster element"]),
        (("word", "random"), ["plmonster", "plmonster word", "plmonster word random"]),
        (("--help",), ["plmonster"]),
        (("word", "--help"), ["plmonster", "plmonster word"]),
    ],
    ids=["element g0", "word random", "--help", "word --help"],
)
def test_a_call_builds_only_the_parsers_on_its_path(capsys, monkeypatch, argv, built):
    progs = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert run(capsys, *argv)[0] == 0
    assert progs == built


@pytest.mark.parametrize(
    "path", [(c,) for c in COMMANDS] + [("word", a) for a in WORD_ACTIONS], ids=" ".join
)
def test_every_command_and_action_answers_help(capsys, path):
    code, out, err = run(capsys, *path, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: plmonster %s " % " ".join(path))


def test_help_lists_every_command_and_action(capsys):
    def listed(text):
        # argparse starts each choice's line with exactly four spaces
        return [
            line.split()[0]
            for line in text.splitlines()
            if line.startswith("    ") and not line.startswith("     ")
        ]

    for argv, names in ((("--help",), COMMANDS), (("word", "--help"), WORD_ACTIONS)):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert listed(out) == list(names)


def test_unknown_commands_and_actions_are_usage_errors(capsys):
    for argv, names in ((("frobnicate",), COMMANDS), (("word", "frobnicate"), WORD_ACTIONS)):
        error = failure(capsys, *argv)
        assert error["kind"] == "usage" and "invalid choice: 'frobnicate'" in error["message"]
        # argparse quotes the choices on some releases and not on others
        choices = error["message"].partition("choose from")[2]
        assert re.findall(r"[\w-]+", choices) == list(names)


@pytest.mark.parametrize("error", [ContextError, SyllableError, ZeroBracketError])
def test_library_value_errors_are_runtime_errors(capsys, monkeypatch, error):
    def handler(args):
        raise error("raised by the handler")

    monkeypatch.setattr(cli, "_cmd_element", handler)
    error = failure(capsys, "element", "z")
    assert error == {"kind": "runtime", "message": "raised by the handler"}


def test_package_exports_resolve_once_and_are_not_modules():
    names = plmonster.__all__
    assert len(set(names)) == len(names) and names[-1] == "__version__"
    for name in names:
        assert not isinstance(getattr(plmonster, name), types.ModuleType), name


def run_child(*argv):
    """Run the CLI in a child process; a hang fails the test by timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(plmonster.__file__))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "plmonster.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
    )
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


# the modules a fresh child loads for one cli.main call (or, with no
# arguments, for a bare import of the package) beyond interpreter start-up
LOADED_BY = """
import json, sys
before = set(sys.modules)
if sys.argv[1:]:
    from plmonster.cli import main
    main(sys.argv[1:])
else:
    import plmonster
sys.stdout.write("\\n" + json.dumps(sorted(set(sys.modules) - before)) + "\\n")
"""


def loaded_by(tmp_path, *argv):
    (tmp_path / "g0.json").write_text(format_map(irrational_candidate_g0(), STEIN_2_3))
    (tmp_path / "w.json").write_text(format_word(relator_word(default_context(), 1)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(plmonster.__file__))
    done = subprocess.run(
        [sys.executable, "-c", LOADED_BY, *argv],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


NO_VERIFY = {"plmonster.verify", "dataclasses"}
MAP_ONLY = NO_VERIFY | {"plmonster.amalgam", "plmonster.rotation"}
IMPORT_SETS = [
    # (command, modules it must not load, modules it must load)
    ("element g0", MAP_ONLY, {"plmonster.serialize"}),
    ("tuple-map --from 0,1/2 --to 0,1/3 --slopes 2,3", MAP_ONLY, {"plmonster.stein"}),
    ("member --map g0.json --slopes 2,3", MAP_ONLY, {"plmonster.stein"}),
    ("power g0.json 2", MAP_ONLY, {"plmonster.maps"}),
    ("invert g0.json", MAP_ONLY, {"plmonster.maps"}),
    ("compose g0.json g0.json", MAP_ONLY, {"plmonster.maps"}),
    ("eval --map g0.json --point 1/8", MAP_ONLY, {"plmonster.maps"}),
    ("rot --map g0.json", NO_VERIFY | {"plmonster.amalgam"}, {"plmonster.rotation"}),
    ("word random --length 3", NO_VERIFY, {"plmonster.amalgam"}),
    ("word reduce w.json", NO_VERIFY, {"plmonster.amalgam"}),
    ("word trivial w.json", NO_VERIFY, {"plmonster.amalgam"}),
    ("word multiply w.json w.json", NO_VERIFY, {"plmonster.amalgam"}),
    ("word invert w.json", NO_VERIFY, {"plmonster.amalgam"}),
    ("word project w.json", NO_VERIFY, {"plmonster.amalgam"}),
    ("verify --help", {"dataclasses"}, {"plmonster.verify"}),
    ("--help", MAP_ONLY, {"plmonster.cli"}),
    ("word --help", MAP_ONLY, {"plmonster.cli"}),
]


@pytest.mark.parametrize(
    "command, absent, present", IMPORT_SETS, ids=[case[0] for case in IMPORT_SETS]
)
def test_a_command_loads_only_what_it_runs(tmp_path, command, absent, present):
    loaded = loaded_by(tmp_path, *command.split())
    assert not loaded & absent
    assert loaded >= present


def test_a_bare_import_loads_no_submodule(tmp_path):
    loaded = loaded_by(tmp_path)
    assert "plmonster" in loaded
    assert not [m for m in loaded if m.startswith("plmonster.")]


def test_hostile_slope_generators_exit_2_fast(tmp_path):
    # a 19-digit prime: trial division up to its square root would hang
    hostile = 1000000000000000003
    doc = json.loads(format_map(PLLineMap(identity_map(), 1)))
    doc["slopes"] = [hostile]
    slope_file = tmp_path / "slope.json"
    slope_file.write_text(json.dumps(doc))
    for argv, kind in (
        (("invert", str(slope_file)), "budget"),
        (("tuple-map", "--slopes", str(hostile), "--from", "0", "--to", "0"), "usage"),
        (("tuple-map", "--lambda", str(hostile), "--from", "0", "--to", "0"), "usage"),
    ):
        code, out, err, seconds = run_child(*argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == kind
        assert seconds < 10
