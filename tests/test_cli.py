"""Command-line surface: exit codes, documents, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

import plmonster
from plmonster import (
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
from plmonster.stein import STEIN_2_3, GroupDescriptor, irrational_candidate_g0


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, _, err = run(
        capsys, "tuple-map", "--from", "-1/2,1/4", "--to", "0,1/2", "--lambda", "2"
    )
    assert code == 2
    assert json.loads(err)["error"] == {
        "kind": "runtime",
        "message": "tuple entries live in [0, 1); got -1/2",
    }
    # a word that only starts with a minus sign is still an option
    code, _, err = run(capsys, "eval", "--map", str(z), "--point", "-x")
    assert code == 2 and json.loads(err)["error"]["kind"] == "usage"


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
    code, _, err = run(capsys, "eval", "--map", g0_file, "--point", "x")
    assert code == 2 and json.loads(err)["error"]["kind"] == "usage"
    code, _, err = run(capsys, "member", "--map", g0_file)
    assert code == 2 and json.loads(err)["error"]["kind"] == "usage"
    code, _, err = run(capsys, "no-such-command")
    assert code == 2
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_parse_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "plmonster.map/1"}')
    code, _, err = run(capsys, "eval", "--map", str(bad), "--point", "0")
    assert code == 2 and json.loads(err)["error"]["kind"] == "parse"
    # nesting past the interpreter's recursion limit is a parse error too,
    # not a crash with exit 1, which `word trivial` reads as "nontrivial"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (("eval", "--map", str(bad), "--point", "0"), ("word", "trivial", str(bad))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and json.loads(err)["error"]["kind"] == "parse"


def test_power_and_rot_budgets_exit_2_before_computing(capsys, g0_file, tmp_path, monkeypatch):
    from plmonster import rotation

    def refuse(*args):
        raise AssertionError("an over-budget computation started")

    monkeypatch.setattr(cli, "power", refuse)
    monkeypatch.setattr(rotation, "rotation_number", refuse)
    over = str(serialize.MAX_EXPONENT + 1)
    for argv in (
        ("power", g0_file, over),
        ("power", g0_file, "-" + over),
        ("power", g0_file, "1000000000000"),
        ("rot", "--map", g0_file, "--depth", str(serialize.MAX_ROTATION_DEPTH + 1)),
        ("rot", "--map", g0_file, "--depth", "10000000"),
        ("rot", "--map", g0_file, "--max-denominator", "10000000"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["kind"] == "usage" and "budget" in error["message"]
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
    for argv, kind in (
        (("eval", "--map", big, "--point", "1/3"), "budget"),
        (("invert", big), "budget"),
        (("compose", big, big), "budget"),
        (("word", "trivial", big), "budget"),
        (("word", "multiply", big, big), "budget"),
        (("word", "random", "--length", str(serialize.MAX_WORD_LENGTH + 1)), "usage"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        error = json.loads(err)["error"]
        assert error["kind"] == kind and "budget" in error["message"], argv
    monkeypatch.undo()
    assert run(capsys, "eval", "--map", at_budget, "--point", "1/8") == (0, "3/4\n", "")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="CPython before 3.10.7 has no int/str digit limit",
)
def test_budget_errors_exit_2(capsys, tmp_path):
    doc = json.loads(format_map(irrational_candidate_g0()))
    doc["images"] = ["1/" + "3" * 100_001, "0"]
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "eval", "--map", str(bad), "--point", "0")
    assert code == 2 and json.loads(err)["error"]["kind"] == "budget"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="CPython before 3.10.7 has no int/str digit limit",
)
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
    code, _, err = run(capsys, "eval", "--map", str(over), "--point", "0")
    assert code == 2 and json.loads(err)["error"]["kind"] == "budget"
    bad = tmp_path / "bad.json"
    bad.write_text(text[:-5])
    code, _, err = run(capsys, "eval", "--map", str(bad), "--point", "0")
    assert code == 2 and json.loads(err)["error"]["kind"] == "parse"


def test_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--map", str(tmp_path / "no.json"), "--point", "0")
    assert code == 2 and json.loads(err)["error"]["kind"] == "io"


def test_mixed_compose_rejected(capsys, g0_file, tmp_path):
    zf = tmp_path / "z.json"
    run(capsys, "element", "z", "-o", str(zf))
    code, _, err = run(capsys, "compose", g0_file, str(zf))
    assert code == 2 and json.loads(err)["error"]["kind"] == "usage"


def test_output_is_deterministic(capsys, g0_file):
    first = run(capsys, "rot", "--map", g0_file)
    second = run(capsys, "rot", "--map", g0_file)
    assert first == second
    first = run(capsys, "word", "random", "--length", "4", "--seed", "5")
    second = run(capsys, "word", "random", "--length", "4", "--seed", "5")
    assert first == second


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


@pytest.mark.parametrize("error", [ContextError, SyllableError, ZeroBracketError])
def test_library_value_errors_are_runtime_errors(capsys, monkeypatch, error):
    def handler(args):
        raise error("raised by the handler")

    monkeypatch.setattr(cli, "_cmd_element", handler)
    code, out, err = run(capsys, "element", "z")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": {"kind": "runtime", "message": "raised by the handler"}
    }


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
