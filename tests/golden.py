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
paths and may read what an earlier row wrote.  A row that starts with
the word `slow` takes seconds rather than milliseconds; no fast row may
read a file that a slow row writes.

There are two runners, which share the fixtures, the row order, the
`{D*N}` expansion and the four result fields:

- in process, through `cli.main`.  `tests/test_cli.py::
  test_golden_transcript` replays the fast rows this way;
- through an executable, in a child process per row, with `--script`.
  A fast row is stopped after FAST_TIMEOUT seconds and a slow row after
  SLOW_TIMEOUT, so a refusal that is no longer immediate fails its row.
  The CI install job replays every row through the installed script,
  under the least host int/str digit limit and two hash seeds:

      PYTHONINTMAXSTRDIGITS=640 PYTHONHASHSEED=0 python tests/golden.py --script plmonster

The rows hold at the host's default digit limit and at 640: a refusal
names a value past the limit instead of showing it.

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
    """A runner that calls the executable named by the shell words script."""
    command = shlex.split(script)

    def run(argv, timeout):
        try:
            done = subprocess.run(command + argv, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", b"", b""
        return done.returncode, done.stdout, done.stderr

    return run


def _result(row, run):
    """The four result fields of one row."""
    argv = [_REPEAT_RE.sub(lambda m: m[1] * int(m[2]), word) for word in shlex.split(row.argv)]
    code, out, err = run(argv, SLOW_TIMEOUT if row.slow else FAST_TIMEOUT)
    target = argv[argv.index("-o") + 1] if "-o" in argv else None
    if target is None:
        written = "-"
    elif os.path.exists(target):
        written = _sha(Path(target).read_bytes())
    else:
        written = "absent"
    return [str(code), _sha(out), _sha(err), written]


def replay(rows, directory, run=in_process):
    """The result fields of every row, run in order in directory."""
    for name, data in FIXTURES.items():
        Path(directory, name).write_bytes(data)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [_result(row, run) for row in rows]
    finally:
        os.chdir(cwd)


def mismatches(rows, directory, run=in_process):
    """(id, expected, actual) for each row whose result changed."""
    return [
        (row.id, row.expected, actual)
        for row, actual in zip(rows, replay(rows, directory, run))
        if actual != row.expected
    ]


def regenerate(path=GOLDEN) -> int:
    """Rewrite the hash fields of every row; the number of rows changed."""
    lines = path.read_text().splitlines()
    with tempfile.TemporaryDirectory() as directory:
        results = iter(replay(load(path), directory))
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
    for row_id, expected, actual in found:
        print("%s: expected %s, got %s" % (row_id, " ".join(expected), " ".join(actual)))
    sys.exit(1 if found else 0)
