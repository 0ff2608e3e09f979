"""Golden transcript of the command line: the bytes of every command family.

`golden.txt` holds one row per call of `plmonster`, after its comment
lines:

    [slow] ID EXIT STDOUT STDERR OUT ARGV...

EXIT is the exit code; STDOUT and STDERR are the SHA-256 of the bytes
written there; OUT is the SHA-256 of the file named by `-o`, "absent"
when the call wrote none, or "-" when the row has no `-o`.  ARGV is the
argument list as shell words, where `{D*N}` stands for the digit D
written N times.  The rows run in order in one directory that starts
with FIXTURES and nothing else, so a row names its files by relative
paths and may read what an earlier row wrote; no row writes over a
fixture.  A row that starts with the word `slow` takes seconds rather
than milliseconds; no fast row may read a file that a slow row writes.

The transcript is the one oracle of what a call prints and writes: a
check of the exit code, stdout, stderr or `-o` file of a call on fixed
arguments is a row, not an assert in a test.  `tests/test_cli.py` keeps
in Python only what a row cannot see: that a call refused an input
before computing, decoded a document once or built one context (a
monkeypatched library); failing verify checks; which parsers and modules
a call loads; help text and argparse's own refusals, whose wording
changes across Python releases; relations between two outputs; the host
digit limit set inside a call; and a child process stopped on time.
Its ROWS_OF table names, by test, the rows that pin a behaviour once
checked there by hand.

There are two runners, which share the fixtures, the row order, the
`{D*N}` expansion and the four result fields:

- in process, through `cli.main`.  `tests/test_cli.py::
  test_golden_transcript` replays the fast rows this way, at the host's
  int/str digit limit, at 640 (the least a host can set) and at none;
- through an executable, in a child process per row, with `--script`.
  A fast row is stopped after FAST_TIMEOUT seconds and a slow row after
  SLOW_TIMEOUT, so a refusal that is no longer immediate fails its row.
  The CI install job replays every row through the installed script,
  at digit limits 640 and 0, each under two hash seeds:

      PYTHONINTMAXSTRDIGITS=640 PYTHONHASHSEED=0 python tests/golden.py --script plmonster

The rows hold at every digit limit: documents and flags convert their
integers themselves, and a message names a value of more than 640 digits
instead of showing it.

A change that alters output on purpose rewrites the hashes of every row,
in process, with

    PYTHONPATH=src python tests/golden.py --regen

and names each row it changed, and why, in CHANGES.md.  Without
`--regen` the script lists the rows that no longer match.  A new row
can be written with "?" in its four hash fields, for --regen to fill.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from plmonster.cli import main
from plmonster.serialize import MAX_DOCUMENT_BYTES

GOLDEN = Path(__file__).with_name("golden.txt")
SLOW = "slow"
FAST_TIMEOUT, SLOW_TIMEOUT = 10, 60


def _line_map(image: str, offset: str) -> bytes:
    # the lift of a rotation, as text: no long integer is converted here
    return (
        '{"format": "plmonster.map/1", "breakpoints": ["0"], "images": ["%s"], '
        '"offset": %s}\n' % (image, offset)
    ).encode("ascii")


def _document(doc: dict) -> bytes:
    # the library writer's layout: a two-space indent and a final newline
    return (json.dumps(doc, indent=2) + "\n").encode("ascii")


def _map_document(breakpoints, images, offset=0) -> dict:
    return {
        "format": "plmonster.map/1",
        "lambda": None,
        "slopes": None,
        "breakpoints": breakpoints,
        "images": images,
        "offset": offset,
    }


def _relator(syllable=None, edge=None) -> bytes:
    """The text of format_word(relator_word(default_context(), 1)), with
    another element in its first syllable or another edge map."""
    context = {
        "left": {"generators": [2], "lambda": 2},
        "right": {"generators": [2, 3], "lambda": 6},
        "edge": edge or _map_document(["0", "1/4"], ["1/2", "0"]),
    }
    syllables = [
        {"factor": "G1", "element": syllable or _map_document(["0"], ["0"], 1)},
        {"factor": "G2", "element": _map_document(["0", "1/2"], ["1/4", "0"], -1)},
    ]
    return _document({"format": "plmonster.word/1", "context": context, "syllables": syllables})


# a breakpoint 1/(3*10**4999 + 1): a member of neither factor, with a
# denominator of 5,000 digits
LONG_NON_MEMBER = _map_document(["0", "1/3" + "0" * 4998 + "1"], ["0", "1/2"])

FIXTURES = {
    # a rotation by 1/3 lifted by 10**3700, past the least host digit limit
    "rigid.json": _line_map("1/3", "1" + "0" * 3700),
    # an offset of MAX_DIGITS + 1 digits
    "over-digits.json": _line_map("1/3", "1" + "0" * 100_000),
    "noncanonical.json": _line_map("2/4", "0"),
    "truncated.json": b'{"format": "plmonster.map/1", "breakpoints": ["0"',
    "too-big.json": b" " * (MAX_DOCUMENT_BYTES + 1),
    "not-utf8.json": b"\xff\xfe",
    # format_map(random_member(STEIN_2_3, Random(3), 6, 3), STEIN_2_3): its
    # 3000th power is a document of about 5.5 MB
    "member.json": b'{\n  "format": "plmonster.map/1",\n  "lambda": 6,\n'
    b'  "slopes": [\n    2,\n    3\n  ],\n'
    b'  "breakpoints": [\n    "1/6",\n    "1/3",\n    "5/6"\n  ],\n'
    b'  "images": [\n    "0",\n    "1/3",\n    "5/6"\n  ]\n}\n',
    # a rotation by 1/3 lifted by 2: a rigid rotation, so any power is cheap
    "rigid-2.json": _document(_map_document(["0"], ["1/3"], 2)),
    "bare.json": b'{"format": "plmonster.map/1"}',
    # nested past the interpreter's recursion limit
    "deep.json": b"[" * 100_000 + b"]" * 100_000,
    # g0 with an image of MAX_DIGITS + 1 digits
    "long-image.json": b'{"format": "plmonster.map/1", "lambda": null, "slopes": null, '
    b'"breakpoints": ["0", "1/4"], "images": ["1/' + b"3" * 100_001 + b'", "0"]}',
    "relator.json": _relator(),
    "long-syllable.json": _relator(syllable=LONG_NON_MEMBER),
    "long-edge.json": _relator(edge=LONG_NON_MEMBER),
}

_REPEAT_RE = re.compile(r"\{(\d)\*(\d+)\}")


class Row(NamedTuple):
    id: str
    expected: list
    argv: str
    slow: bool


def _parse(line):
    """The row on one line of a transcript; None for a comment or a blank."""
    if not line.strip() or line.startswith("#"):
        return None
    slow = line.startswith(SLOW + " ")
    row_id, *expected, argv = line.removeprefix(SLOW + " ").split(None, 5)
    return Row(row_id, expected, argv, slow)


def load(path=GOLDEN):
    """The rows of a transcript, in order."""
    return [row for row in map(_parse, path.read_text().splitlines()) if row]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def in_process(argv, timeout):
    """Exit code, stdout and stderr of cli.main on argv (no timeout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def through(script):
    """A runner that calls the executable named by the shell words script.

    The rows run in another directory, so relative PYTHONPATH entries are
    made absolute here, against the directory the runner starts in.
    """
    command = shlex.split(script)
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            map(os.path.abspath, env["PYTHONPATH"].split(os.pathsep))
        )

    def run(argv, timeout):
        try:
            done = subprocess.run(command + argv, capture_output=True, timeout=timeout, env=env)
        except subprocess.TimeoutExpired:
            return "timeout", b"", b""
        return done.returncode, done.stdout, done.stderr

    return run


def _result(row, run):
    """The four result fields of one row, and the first line of its stderr."""
    argv = [_REPEAT_RE.sub(lambda m: m[1] * int(m[2]), word) for word in shlex.split(row.argv)]
    code, out, err = run(argv, SLOW_TIMEOUT if row.slow else FAST_TIMEOUT)
    target = argv[argv.index("-o") + 1] if "-o" in argv else None
    if target is None:
        written = "-"
    elif os.path.exists(target):
        written = _sha(Path(target).read_bytes())
    else:
        written = "absent"
    return [str(code), _sha(out), _sha(err), written], err.decode(errors="replace").partition("\n")[0]


def replay(rows, directory, run=in_process):
    """The result fields and first stderr line of every row, run in order
    in directory."""
    for name, data in FIXTURES.items():
        Path(directory, name).write_bytes(data)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [_result(row, run) for row in rows]
    finally:
        os.chdir(cwd)


def mismatches(rows, directory, run=in_process):
    """(id, expected, actual, first stderr line) for each row whose result changed."""
    return [
        (row.id, row.expected, actual, err)
        for row, (actual, err) in zip(rows, replay(rows, directory, run))
        if actual != row.expected
    ]


def regenerate(path=GOLDEN) -> int:
    """Rewrite the hash fields of every row; the number of rows changed."""
    lines = path.read_text().splitlines()
    with tempfile.TemporaryDirectory() as directory:
        results = iter([actual for actual, _ in replay(load(path), directory)])
    changed = 0
    for i, row in enumerate(map(_parse, lines)):
        if row:
            actual = next(results)
            changed += actual != row.expected
            lines[i] = " ".join([SLOW] * row.slow + [row.id, *actual, row.argv])
    path.write_text("\n".join(lines) + "\n")
    return changed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Replay every row of the golden transcript.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--regen", action="store_true", help="rewrite the hashes, in process")
    mode.add_argument("--script", help="run each row through this command, in a child process")
    args = parser.parse_args()
    if args.regen:
        print("%d rows changed" % regenerate())
        sys.exit(0)
    with tempfile.TemporaryDirectory() as directory:
        found = mismatches(load(), directory, through(args.script) if args.script else in_process)
    for row_id, expected, actual, err in found:
        print("%s: expected %s, got %s; stderr: %s" % (row_id, " ".join(expected), " ".join(actual), err))
    sys.exit(1 if found else 0)
