"""Command-line front end for exact PL circle-map computations.

Composition is left to right everywhere: ``compose A B`` applies the map
in file A first, then the map in file B, matching the library.

Exit codes: 0 on success (including the verdicts "member", "trivial",
and an all-green verify run), 1 on a clean negative verdict or a failed
verify run, 2 on usage, parse, budget, or runtime errors.  Errors are
emitted to standard error as a single JSON object.  All output is
deterministic: the same arguments (and seeds) produce byte-identical
bytes.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
from fractions import Fraction
from math import lcm

from .maps import (
    PLCircleMap,
    PLLineMap,
    _shown,
    compose,
    evaluate_circle,
    evaluate_line,
    identity_map,
    invert,
    lift,
    power,
    rotation_map,
)
from .serialize import (
    MAX_DOCUMENT_BYTES,
    MAX_EXPONENT,
    MAX_ROTATION_DEPTH,
    MAX_TUPLE_GRID,
    MAX_VERIFY_SAMPLES,
    MAX_WORD_LENGTH,
    BudgetError,
    DocumentError,
    _dump_json,
    _load_json,
    _int,
    _map_and_descriptor,
    check_document_size,
    format_map,
    format_word,
    fraction_to_str,
    parse_map,
    parse_word,
)
from .stein import (
    STEIN_2_3,
    GroupDescriptor,
    center_generator_z,
    irrational_candidate_g0,
    is_member,
    tuple_map_report,
)

# amalgam, rotation and verify are imported where a command first needs
# them, and only the chosen command's parser is built (_Lazy), so a command
# loads and builds only what it runs


# the one grammar of flag rationals: an integer or a decimal, over an
# optional integer, with no sign, exponent, underscore or space
_RATIONAL = r"(\d+|\d*\.\d+)(/\d+)?"
_RATIONAL_RE = re.compile(r"(-?)%s\Z" % _RATIONAL)
_INTEGER_RE = re.compile(r"-?\d+\Z")


class _UsageError(Exception):
    """Bad flags or flag combinations; reported as kind 'usage', exit 2."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative rational, or a comma list of rationals starting with
        # one, is a flag value and not an option
        self._negative_number_matcher = re.compile(
            r"^-%s(,\s*-?%s)*$" % (_RATIONAL, _RATIONAL)
        )

    def error(self, message):
        raise _UsageError(message)


class _Lazy:
    """A subcommand's _Parser, built and populated when first used.

    argparse uses only the chosen subcommand's parser (help and choice
    lists come from add_parser's arguments), so a call builds no other;
    every attribute is delegated, whichever method argparse calls.
    """

    def __init__(self, populate, **kwargs):
        self._populate, self._kwargs, self._parser = populate, kwargs, None

    def __getattr__(self, name):
        if self._parser is None:
            self._parser = _Parser(**self._kwargs)
            self._populate(self._parser)
        return getattr(self._parser, name)


def _emit_error(kind: str, message: str) -> int:
    """Write the error object to standard error; 2, every error's exit code."""
    sys.stderr.write(_dump_json({"error": {"kind": kind, "message": message}}))
    return 2


def _write(text: str, out_path) -> None:
    """Write text, UTF-8 encoded, to out_path or to stdout when it is None.

    A document over the byte budget is refused before anything is
    written: no stdout bytes and no file, not even an empty one.
    """
    data = check_document_size(text.encode("utf-8"), out_path or "the output")
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "wb") as handle:
            handle.write(data)


def _read(path: str, parse):
    """parse(text) for the document file at path.

    At most MAX_DOCUMENT_BYTES + 1 bytes are read, and a file over the
    budget is refused.  The bytes are decoded as a text-mode read would:
    UTF-8 with universal newlines; other bytes are a DocumentError.
    """
    with open(path, "rb") as handle:
        data = check_document_size(handle.read(MAX_DOCUMENT_BYTES + 1), path)
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError:
        raise DocumentError("%s is not UTF-8 text" % path) from None
    return parse(text)


def _parse_map_with_descriptor(text: str):
    return _map_and_descriptor(_load_json(text))


def _integer(text: str) -> int:
    """The value of an integer flag: an optional "-" and decimal digits.

    Its digits are converted as a document's are, whatever the host's
    int/str digit limit; a value past MAX_DIGITS is a usage error.
    """
    digits = text.strip()
    if not _INTEGER_RE.match(digits):
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    try:
        return _int(digits)
    except BudgetError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_fraction_arg(text: str, flag: str) -> Fraction:
    # an exponent is refused and digit runs are counted before they are
    # converted, so no flag builds a huge integer
    match = _RATIONAL_RE.match(text.strip())
    if match is not None:
        sign, number, over = match.groups()
        whole, _, decimals = number.partition(".")
        try:
            numerator = _int(sign + whole + decimals)
            return Fraction(numerator, 10 ** len(decimals) * (_int(over[1:]) if over else 1))
        except (BudgetError, ZeroDivisionError):
            pass
    raise _UsageError("%s expects a rational like 3/4; got %r" % (flag, text))


def _parse_fraction_list(text: str, flag: str):
    return [_parse_fraction_arg(e, flag) for e in text.split(",")]


def _bounded(flag: str, value: int, least: int, budget: int) -> int:
    """value, refused below least (0 or 1) as usage and past budget as budget."""
    if value < least:
        raise _UsageError(
            "%s must be a %s integer; got %s"
            % (flag, "positive" if least else "nonnegative", _shown(value, str))
        )
    if value > budget:
        raise BudgetError("%s beyond the budget of %d" % (flag, budget))
    return value


def _descriptor_from_args(args) -> GroupDescriptor:
    """Build the group descriptor named by --slopes and/or --lambda.

    --slopes lists the slope generators; --lambda, when also given, must
    equal their product.  --lambda alone means a single generator.
    """
    if args.slopes is not None:
        try:
            generators = [_integer(e) for e in args.slopes.split(",")]
        except argparse.ArgumentTypeError:
            raise _UsageError("--slopes expects integers like 2,3")
        try:
            descriptor = GroupDescriptor(*generators)
        except ValueError as exc:
            raise _UsageError("--slopes %s: %s" % (args.slopes, exc))
        if args.lam is not None and args.lam != descriptor.lam:
            raise _UsageError(
                "--lambda %s does not equal the product %d of --slopes"
                % (_shown(args.lam, str), descriptor.lam)
            )
        return descriptor
    if args.lam is not None:
        if args.lam < 2:
            raise _UsageError("--lambda must be an integer >= 2; got %s" % _shown(args.lam, str))
        try:
            return GroupDescriptor(args.lam)
        except ValueError as exc:
            raise _UsageError("--lambda %s: %s" % (_shown(args.lam, str), exc))
    raise _UsageError("a group is required: pass --slopes and/or --lambda")


def _cmd_element(args) -> int:
    name = args.name
    if name == "g0":
        _write(format_map(irrational_candidate_g0(), STEIN_2_3), args.out)
    elif name == "z":
        _write(format_map(center_generator_z()), args.out)
    elif name == "identity":
        _write(format_map(identity_map()), args.out)
    else:  # rotation
        if args.angle is None:
            raise _UsageError("element rotation requires --angle")
        angle = _parse_fraction_arg(args.angle, "--angle")
        _write(format_map(rotation_map(angle)), args.out)
    return 0


def _cmd_eval(args) -> int:
    value = _read(args.map, parse_map)
    point = _parse_fraction_arg(args.point, "--point")
    if isinstance(value, PLLineMap):
        image = evaluate_line(value, point)
    else:
        image = evaluate_circle(value, point % 1)
    sys.stdout.write(fraction_to_str(image) + "\n")
    return 0


def _cmd_compose(args) -> int:
    first, da = _read(args.first, _parse_map_with_descriptor)
    second, db = _read(args.second, _parse_map_with_descriptor)
    if isinstance(first, PLLineMap) != isinstance(second, PLLineMap):
        raise _UsageError(
            "cannot compose a circle map with a line map; lift or project first"
        )
    _write(format_map(compose(first, second), da if da == db else None), args.out)
    return 0


def _cmd_invert(args) -> int:
    value, descriptor = _read(args.map, _parse_map_with_descriptor)
    _write(format_map(invert(value), descriptor), args.out)
    return 0


def _cmd_power(args) -> int:
    value, descriptor = _read(args.map, _parse_map_with_descriptor)
    if abs(args.exponent) > MAX_EXPONENT:
        from .rotation import is_translation

        if not is_translation(value):
            raise BudgetError(
                "exponent beyond the budget of %d for a map that is not a rigid rotation"
                % MAX_EXPONENT
            )
    _write(format_map(power(value, args.exponent), descriptor), args.out)
    return 0


def _cmd_member(args) -> int:
    value = _read(args.map, parse_map)
    descriptor = _descriptor_from_args(args)
    base = value.base if isinstance(value, PLLineMap) else value
    report = is_member(base, descriptor)
    doc = {
        "format": "plmonster.membership/1",
        "generators": list(descriptor.generators),
        "lambda": descriptor.lam,
        "member": report.member,
        "violations": [
            {"kind": v.kind, "where": fraction_to_str(v.where)}
            for v in report.violations
        ],
    }
    _write(_dump_json(doc), args.out)
    return 0 if report.member else 1


def _cmd_tuple_map(args) -> int:
    descriptor = _descriptor_from_args(args)
    xs = _parse_fraction_list(args.source, "--from")
    ys = _parse_fraction_list(args.target, "--to")
    # the construction builds every lam**-q grid point, so q is bounded
    # first, by one depth for the lcm of the denominators on Y; an entry
    # off Y is left for the construction to refuse
    den = 1
    for e in xs + ys:
        if descriptor.contains_coordinate(e):
            den = lcm(den, e.denominator)
    q = max(1, descriptor._depth(den))
    if descriptor.lam**q > MAX_TUPLE_GRID:
        raise BudgetError(
            "a grid of %d**%d points is over the tuple-map budget of %d"
            % (descriptor.lam, q, MAX_TUPLE_GRID)
        )
    try:
        report = tuple_map_report(xs, ys, descriptor)
    except ValueError as exc:
        # the construction's own checks of its input, under the flags given
        flags = ["--from", args.source, "--to", args.target]
        for flag, given in (("--slopes", args.slopes), ("--lambda", args.lam)):
            if given is not None:
                flags += [flag, _shown(given, str)]
        raise _UsageError("%s: %s" % (" ".join(flags), exc))
    _write(format_map(report.map, descriptor), args.out)
    return 0


def _cmd_rot(args) -> int:
    from .rotation import NonRationalCertificate, RationalRotation, rotation_number

    _bounded("--max-denominator", args.max_denominator, 1, MAX_ROTATION_DEPTH)
    _bounded("--depth", args.depth, 1, MAX_ROTATION_DEPTH)
    if args.depth < args.max_denominator:
        raise _UsageError(
            "--depth %d is below --max-denominator %d; it must be at least that"
            % (args.depth, args.max_denominator)
        )
    value = _read(args.map, parse_map)
    result = rotation_number(value, args.max_denominator, args.depth)
    if isinstance(result, RationalRotation):
        doc = {
            "format": "plmonster.rotation/1",
            "kind": "rational",
            "value": fraction_to_str(result.value),
            "circle_value": fraction_to_str(result.circle_value),
            "witness": fraction_to_str(result.witness),
            "summary": "rational %s, witness %s"
            % (fraction_to_str(result.value), fraction_to_str(result.witness)),
        }
    else:
        assert isinstance(result, NonRationalCertificate)
        lo, hi = result.bracket.lo, result.bracket.hi
        try:
            ends = "[%.10f, %.10f] " % (float(lo), float(hi))
        except OverflowError:  # a lift with a huge offset: exact ends only
            ends = ""
        doc = {
            "format": "plmonster.rotation/1",
            "kind": "nonrational-certified",
            "max_denominator": result.max_denominator,
            "bracket": [fraction_to_str(lo), fraction_to_str(hi)],
            "summary": "no rational with denominator <= %d; bracket %sof width %.3e"
            % (result.max_denominator, ends, float(hi - lo)),
        }
    _write(_dump_json(doc), args.out)
    return 0


def _cmd_word_reduce(args) -> int:
    _write(format_word(_read(args.word, parse_word).reduce()), args.out)
    return 0


def _cmd_word_trivial(args) -> int:
    trivial = _read(args.word, parse_word).is_trivial()
    sys.stdout.write("trivial\n" if trivial else "nontrivial\n")
    return 0 if trivial else 1


def _cmd_word_multiply(args) -> int:
    product = _read(args.first, parse_word).multiply(_read(args.second, parse_word))
    _write(format_word(product), args.out)
    return 0


def _cmd_word_invert(args) -> int:
    _write(format_word(_read(args.word, parse_word).invert_word()), args.out)
    return 0


def _cmd_word_project(args) -> int:
    word = _read(args.word, parse_word)
    projected = word.project_to_g1()
    _write(format_map(projected, word.context.left_descriptor), args.out)
    return 0


def _cmd_word_random(args) -> int:
    from .amalgam import default_context, random_word

    length = _bounded("--length", args.length, 0, MAX_WORD_LENGTH)
    word = random_word(default_context(), length, args.seed)
    _write(format_word(word), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    samples = _bounded("--samples", args.samples, 1, MAX_VERIFY_SAMPLES)
    lines = []
    all_passed = True
    for suite, check in run_suite(args.suite, samples, args.seed):
        all_passed = all_passed and check.passed
        status = "PASS" if check.passed else "FAIL"
        detail = " (%s)" % check.detail if check.detail else ""
        lines.append("%s %s.%s%s" % (status, suite, check.name, detail))
    total = len(lines)
    failed = sum(1 for line in lines if line.startswith("FAIL"))
    lines.append("result: %d of %d checks passed" % (total - failed, total))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if all_passed else 1


def _add_out(parser) -> None:
    parser.add_argument(
        "-o", "--out", default=None, help="write output to this file instead of stdout"
    )


def _add_descriptor_flags(parser) -> None:
    parser.add_argument(
        "--slopes", default=None, help="comma-separated slope generators, e.g. 2,3"
    )
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=_integer,
        default=None,
        help="grid base; with --slopes it must equal their product",
    )


def _add_commands(parser, dest, metavar, commands) -> None:
    """Add a required subcommand; each (name, help, populate) is built lazily."""
    sub = parser.add_subparsers(dest=dest, metavar=metavar, parser_class=_Lazy)
    sub.required = True
    for name, summary, populate in commands:
        sub.add_parser(name, help=summary, populate=populate)


def _file_args(noun, handler, out=True):
    """The populate function of a command that reads one document."""

    def populate(p) -> None:
        p.add_argument(noun, help="%s document file" % noun)
        if out:
            _add_out(p)
        p.set_defaults(handler=handler)

    return populate


def _element_args(p) -> None:
    p.add_argument("name", choices=("g0", "z", "identity", "rotation"))
    p.add_argument("--angle", default=None, help="rotation angle, e.g. 1/3")
    _add_out(p)
    p.set_defaults(handler=_cmd_element)


def _eval_args(p) -> None:
    p.add_argument("--map", required=True, help="map document file")
    p.add_argument(
        "--point", required=True, help="exact rational, e.g. 3/4; circle maps take it mod 1"
    )
    p.set_defaults(handler=_cmd_eval)


def _compose_args(p) -> None:
    p.add_argument("first", help="map document applied first")
    p.add_argument("second", help="map document applied second")
    _add_out(p)
    p.set_defaults(handler=_cmd_compose)


def _power_args(p) -> None:
    p.add_argument("map", help="map document file")
    p.add_argument(
        "exponent", type=_integer,
        help="any integer, negatives allowed; at most %d in absolute value unless "
        "the map is a rigid rotation" % MAX_EXPONENT,
    )
    _add_out(p)
    p.set_defaults(handler=_cmd_power)


def _member_args(p) -> None:
    p.add_argument("--map", required=True, help="map document file")
    _add_descriptor_flags(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_member)


def _tuple_map_args(p) -> None:
    p.add_argument("--from", dest="source", required=True, help="comma-separated points")
    p.add_argument("--to", dest="target", required=True, help="comma-separated image points")
    _add_descriptor_flags(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_tuple_map)


def _rot_args(p) -> None:
    p.add_argument("--map", required=True, help="map document file")
    p.add_argument(
        "--max-denominator", type=_integer, default=50,
        help="certify against all rationals with denominator up to this "
        "(default 50, at most %d)" % MAX_ROTATION_DEPTH,
    )
    p.add_argument(
        "--depth", type=_integer, default=200,
        help="maximum iterate examined (default 200, at most %d)" % MAX_ROTATION_DEPTH,
    )
    _add_out(p)
    p.set_defaults(handler=_cmd_rot)


def _word_args(p) -> None:
    _add_commands(p, "word_command", "ACTION", (
        ("reduce", "emit the reduced form", _file_args("word", _cmd_word_reduce)),
        ("trivial", "decide triviality (exit 0 trivial, 1 nontrivial)",
         _file_args("word", _cmd_word_trivial, out=False)),
        ("multiply", "concatenate and reduce two words", _word_multiply_args),
        ("invert", "emit the reduced inverse", _file_args("word", _cmd_word_invert)),
        ("project", "project to the left circle group, as a map document",
         _file_args("word", _cmd_word_project)),
        ("random", "emit a deterministic pseudorandom word in the default context",
         _word_random_args),
    ))


def _word_multiply_args(p) -> None:
    p.add_argument("first", help="word document applied first")
    p.add_argument("second", help="word document applied second")
    _add_out(p)
    p.set_defaults(handler=_cmd_word_multiply)


def _word_random_args(p) -> None:
    p.add_argument(
        "--length", type=_integer, default=4,
        help="syllable count (default 4, at most %d)" % MAX_WORD_LENGTH,
    )
    p.add_argument("--seed", type=_integer, default=42, help="generator seed (default 42)")
    _add_out(p)
    p.set_defaults(handler=_cmd_word_random)


def _verify_args(p) -> None:
    from .verify import SUITES

    p.add_argument("--suite", required=True, choices=tuple(SUITES) + ("all",))
    p.add_argument(
        "--samples", type=_integer, default=1000,
        help="sample budget per suite (default 1000, at most %d)" % MAX_VERIFY_SAMPLES,
    )
    p.add_argument("--seed", type=_integer, default=42, help="sampling seed")
    p.set_defaults(handler=_cmd_verify)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plmonster",
        description=(
            "Exact piecewise-linear circle maps, lifts, certified rotation "
            "numbers, and the word problem in an amalgam of two lifted "
            "circle groups. Composition is left to right: compose A B "
            "applies A first."
        ),
    )
    _add_commands(parser, "command", "COMMAND", (
        ("element", "emit a built-in map as a document", _element_args),
        ("eval", "evaluate a map at an exact point", _eval_args),
        ("compose", "compose two maps, first then second", _compose_args),
        ("invert", "invert a map", _file_args("map", _cmd_invert)),
        ("power", "raise a map to an integer power", _power_args),
        ("member", "test membership in a Stein-Thompson circle group "
         "(exit 0 member, 1 not)", _member_args),
        ("tuple-map", "build a member map sending one tuple to another", _tuple_map_args),
        ("rot", "exact rational rotation number, or a certified bracket", _rot_args),
        ("word", "operate on amalgam word documents", _word_args),
        ("verify", "run property suites (exit 0 iff every check passes)", _verify_args),
    ))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _emit_error("usage", str(exc))
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        return _emit_error("usage", str(exc))
    except BudgetError as exc:
        return _emit_error("budget", str(exc))
    except DocumentError as exc:
        return _emit_error("parse", str(exc))
    except (ValueError, TypeError) as exc:
        return _emit_error("runtime", str(exc))
    except OSError as exc:
        return _emit_error("io", str(exc))


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
