"""Command-line surface: the golden transcript, and what its rows cannot see."""

import functools
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

import plmonster
from plmonster import (
    AmalgamWord,
    Factor,
    PLLineMap,
    default_context,
    format_map,
    format_word,
    identity_map,
    lift,
    relator_word,
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


def test_element_g0_bytes_without_a_context(capsys, monkeypatch):
    def no_context():
        raise AssertionError("element g0 built an amalgam context")

    monkeypatch.setattr(amalgam, "default_context", no_context)
    # the bytes are golden row element-g0-stdout
    assert run(capsys, "element", "g0") == (0, format_map(irrational_candidate_g0(), STEIN_2_3), "")


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


def test_negative_rationals_are_values(capsys, g0_file):
    # rows eval-line-negative and tuple-map-negative-entry pin negative values
    spaced = run(capsys, "element", "rotation", "--angle", "-1/3")
    assert spaced[0] == 0 and spaced == run(capsys, "element", "rotation", "--angle=-1/3")
    # a word that only starts with a minus sign is still an option
    assert failure(capsys, "eval", "--map", g0_file, "--point", "-x")["kind"] == "usage"


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


def test_verify_seed_seeds_the_suites_own_generator(monkeypatch):
    # `verify --seed N` seeds a suite's own generator with N: the verify
    # rows print only counts, so they would pass under any other seed
    import random

    from plmonster import verify
    from plmonster.stein import random_member

    drawn = []
    monkeypatch.setattr(verify, "random_member", lambda d, rng: drawn.append(random_member(d, rng)) or drawn[-1])
    verify.run_arith(10, 42)
    assert drawn[0] == random_member(THOMPSON, random.Random(42))


def test_power_and_rot_budgets_exit_2_before_computing(capsys, g0_file, monkeypatch):
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
    # a rigid rotation's power is computed (row power-rigid-trillion)


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


COMMANDS = (
    "element", "eval", "compose", "invert", "power", "member", "tuple-map", "rot", "word",
    "verify",
)
WORD_ACTIONS = ("reduce", "trivial", "multiply", "invert", "project", "random")


FAST_ROWS = [row for row in golden.load() if not row.slow]


@functools.cache
def golden_mismatches():
    """golden.mismatches of the fast rows at the host's digit limit, replayed once."""
    with tempfile.TemporaryDirectory() as directory:
        return golden.mismatches(FAST_ROWS, directory)


def test_golden_transcript(tmp_path):
    # every fast row of tests/golden.txt, replayed in order (see tests/golden.py),
    # at the host's digit limit, at the least a host can set and at none
    heads = [row.argv.split()[:2] for row in golden.load()]
    assert {head[0] for head in heads} == set(COMMANDS)
    assert {head[1] for head in heads if head[0] == "word"} == set(WORD_ACTIONS)
    assert {head[1] for head in heads if head[0] == "element"} == {"g0", "z", "identity", "rotation"}
    assert golden_mismatches() == []
    saved = sys.get_int_max_str_digits()
    try:
        for limit in (640, 0):
            sys.set_int_max_str_digits(limit)
            (tmp_path / str(limit)).mkdir()
            assert golden.mismatches(FAST_ROWS, tmp_path / str(limit)) == [], limit
    finally:
        sys.set_int_max_str_digits(saved)


# Behaviours whose one oracle is the golden transcript, by test name: each
# test passes when its rows are fast rows that replay to their bytes.
ROWS_OF = {
    "test_element_identity_document": ["element-identity"],
    "test_element_g0_document": ["element-g0-stdout"],
    "test_element_z_and_rotation": ["element-z", "element-rotation-1/3"],
    "test_eval": ["eval-circle-1/8", "eval-circle-1/2"],
    "test_compose_invert_power": ["invert-g0", "compose-inverse", "power-square"],
    "test_member_verdict_exit_codes": [
        "member-slopes-and-lambda", "element-rotation-1/5", "member-rotation-1/5",
    ],
    "test_tuple_map_command": ["tuple-map-lambda"],
    "test_rot_rational": ["element-rotation", "rot-rational"],
    "test_rot_certifies_g0": ["rot-g0"],
    "test_word_trivial_verdicts": ["word-trivial-relator", "word-random", "word-trivial-no"],
    "test_word_pipeline": [
        "word-random", "word-invert", "word-multiply-inverse", "word-random-empty",
        "word-trivial-empty", "word-reduce-empty",
    ],
    "test_word_project": ["word-project-relator"],
    "test_verify_small_suite": ["verify-centrality"],
    "test_verify_all_output_is_pinned": ["verify-all-40"],
    "test_verify_monster_evidence_contains_disclaimer": ["verify-monster-evidence"],
    "test_usage_errors_exit_2": [
        "eval-point-not-rational", "member-no-group", "member-slopes-not-integers",
        "member-lambda-mismatch", "element-rotation-no-angle", "tuple-map-cannot-halve",
        "tuple-map-cannot-halve-gaps", "tuple-map-target-unordered",
        "tuple-map-source-unordered", "tuple-map-lengths-lambda", "tuple-map-off-lambda-6",
        "tuple-map-entry-past-1", "tuple-map-long-entry", "tuple-map-long-denominator",
    ],
    "test_bad_rotation_flags_are_usage_errors_before_the_map_is_read": [
        "rot-negative-depth-missing-map", "rot-zero-depth-missing-map",
        "rot-zero-denominator-missing-map", "rot-negative-denominator-missing-map",
        "rot-depth-below-default-missing-map", "rot-depth-below-denominator-missing-map",
        "rot-missing-map",
    ],
    "test_bad_group_flags_name_the_flag_and_value": [
        "member-negative-lambda", "member-bad-lambda", "member-lambda-past-32-bits",
        "member-slope-one", "member-slope-zero",
    ],
    "test_parse_errors_exit_2": ["bare-document", "deep-document", "deep-word-document"],
    "test_power_past_the_default_digit_limit": ["power-past-digit-limit", "eval-past-digit-limit"],
    "test_budget_errors_exit_2": ["image-over-digit-budget"],
    "test_offsets_past_the_default_digit_limit": [
        "eval-long-offset", "power-long-offset", "invert-long-offset", "eval-8001-digit-offset",
        "offset-over-digit-budget", "truncated-document",
    ],
    "test_non_members_with_long_breakpoints_are_parse_errors": [
        "word-long-syllable", "word-long-edge",
    ],
    "test_missing_file_exit_2": ["missing-file"],
    "test_a_document_that_is_not_utf8_is_a_parse_error": ["not-utf8-document", "not-utf8-map"],
    "test_mixed_compose_rejected": ["compose-circle-with-line"],
    "test_output_is_deterministic": ["rot-g0", "word-random-default"],
}


def rows_replay(ids):
    def test():
        fast = {row.id for row in FAST_ROWS}
        assert [i for i in ids if i not in fast] == []
        assert [m for m in golden_mismatches() if m[0] in ids] == []

    return test


for _name, _ids in ROWS_OF.items():
    globals()[_name] = rows_replay(_ids)


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
        # a row that wrote over a fixture would change what later rows read
        argv = row.argv.split()
        assert "-o" not in argv or argv[argv.index("-o") + 1] not in set(golden.FIXTURES), row.id


def test_ci_pins_no_bytes_outside_the_golden_transcript():
    # a new pin goes into tests/golden.txt, which the install job replays
    root = Path(__file__).parents[1]
    for path in [root / ".github" / "workflows" / "tier1.yml", *root.glob("tests/*.py")]:
        assert re.findall(r"\b[0-9a-fA-F]{64}\b", path.read_text()) == [], path


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
    assert failure(capsys, "verify", "--suite", "bogus")["kind"] == "usage"
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
