"""Golden transcript of the command line: the bytes of every command family.

`golden.txt` holds one row per call of `plmonster`, after its comment
lines:

    ID EXIT STDOUT STDERR OUT ARGV...

EXIT is the exit code; STDOUT and STDERR are the SHA-256 of the bytes
written there; OUT is the SHA-256 of the file named by `-o`, "absent"
when the call wrote none, or "-" when the row has no `-o`.  ARGV is the
argument list as shell words, where `{D*N}` stands for the digit D
written N times.  The rows run in order, through `cli.main`, in one
directory that starts with FIXTURES and nothing else, so a row names its
files by relative paths and may read what an earlier row wrote.

`tests/test_cli.py::test_golden_transcript` replays every row.  A change
that alters output on purpose rewrites the hashes with

    PYTHONPATH=src python tests/golden.py --regen

and names each row it changed, and why, in CHANGES.md.  Without
`--regen` the script lists the rows that no longer match.  A new row
can be written with "?" in its four hash fields, for --regen to fill.
"""

import contextlib
import hashlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from plmonster.cli import main
from plmonster.serialize import MAX_DOCUMENT_BYTES

GOLDEN = Path(__file__).with_name("golden.txt")


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
}

_REPEAT_RE = re.compile(r"\{(\d)\*(\d+)\}")


def load(path=GOLDEN):
    """The rows of a transcript: (id, expected fields, argv text)."""
    rows = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            row_id, *expected, argv = line.split(None, 5)
            rows.append((row_id, expected, argv))
    return rows


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv):
    """The four result fields of one call of cli.main on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    target = argv[argv.index("-o") + 1] if "-o" in argv else None
    if target is None:
        written = "-"
    elif os.path.exists(target):
        written = _sha(Path(target).read_bytes())
    else:
        written = "absent"
    return [str(code), _sha(out.getvalue().encode()), _sha(err.getvalue().encode()), written]


def replay(rows, directory):
    """The result fields of every row, run in order in directory."""
    for name, data in FIXTURES.items():
        Path(directory, name).write_bytes(data)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [
            _run([_REPEAT_RE.sub(lambda m: m[1] * int(m[2]), word) for word in shlex.split(argv)])
            for _, _, argv in rows
        ]
    finally:
        os.chdir(cwd)


def mismatches(rows, directory):
    """(id, expected, actual) for each row whose result changed."""
    return [
        (row_id, expected, actual)
        for (row_id, expected, _), actual in zip(rows, replay(rows, directory))
        if actual != expected
    ]


def regenerate(path=GOLDEN) -> int:
    """Rewrite the hash fields of every row; the number of rows changed."""
    rows = load(path)
    with tempfile.TemporaryDirectory() as directory:
        results = iter(replay(rows, directory))
    lines, changed = [], 0
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            row_id, *expected, argv = line.split(None, 5)
            actual = next(results)
            changed += actual != expected
            line = " ".join([row_id, *actual, argv])
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")
    return changed


if __name__ == "__main__":
    if sys.argv[1:] == ["--regen"]:
        print("%d rows changed" % regenerate())
    else:
        with tempfile.TemporaryDirectory() as directory:
            found = mismatches(load(), directory)
        for row_id, expected, actual in found:
            print("%s: expected %s, got %s" % (row_id, " ".join(expected), " ".join(actual)))
        sys.exit(1 if found else 0)
