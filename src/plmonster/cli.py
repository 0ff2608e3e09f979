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
import json
import re
import sys
from fractions import Fraction

from .amalgam import default_context, random_word
from .maps import (
    PLCircleMap,
    PLLineMap,
    compose,
    evaluate_circle,
    evaluate_line,
    identity_map,
    invert,
    lift,
    power,
    rotation_map,
)
from .rotation import NonRationalCertificate, RationalRotation, rotation_number
from .serialize import (
    BudgetError,
    DocumentError,
    _load_json,
    document_descriptor,
    format_map,
    format_word,
    fraction_to_str,
    map_from_document,
    parse_map,
    parse_word,
)
from .stein import (
    STEIN_2_3,
    GroupDescriptor,
    irrational_candidate_g0,
    is_member,
    tuple_map_report,
)
from .verify import SUITES, run_suite


class _UsageError(Exception):
    """Bad flags or flag combinations; reported as kind 'usage', exit 2."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative rational, or a comma list of rationals starting with
        # one, is a flag value and not an option (subparsers inherit this)
        rational = r"(\d+|\d*\.\d+)(/\d+)?"
        self._negative_number_matcher = re.compile(r"^-%s(,\s*-?%s)*$" % (rational, rational))

    def error(self, message):
        raise _UsageError(message)


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(
        json.dumps({"error": {"kind": kind, "message": message}}, indent=2) + "\n"
    )


def _write(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read_map(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_map(handle.read())


def _read_map_with_descriptor(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        doc = _load_json(handle.read())
    return map_from_document(doc), document_descriptor(doc)


def _read_word(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_word(handle.read())


def _parse_fraction_arg(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError("%s expects a rational like 3/4; got %r" % (flag, text))


def _parse_fraction_list(text: str, flag: str):
    return [_parse_fraction_arg(e.strip(), flag) for e in text.split(",")]


def _descriptor_from_args(args) -> GroupDescriptor:
    """Build the group descriptor named by --slopes and/or --lambda.

    --slopes lists the slope generators; --lambda, when also given, must
    equal their product.  --lambda alone means a single generator.
    """
    if args.slopes is not None:
        try:
            generators = [int(e.strip()) for e in args.slopes.split(",")]
        except ValueError:
            raise _UsageError("--slopes expects integers like 2,3")
        try:
            descriptor = GroupDescriptor(*generators)
        except ValueError as exc:
            raise _UsageError(str(exc))
        if args.lam is not None and args.lam != descriptor.lam:
            raise _UsageError(
                "--lambda %d does not equal the product %d of --slopes"
                % (args.lam, descriptor.lam)
            )
        return descriptor
    if args.lam is not None:
        try:
            return GroupDescriptor(args.lam)
        except ValueError as exc:
            raise _UsageError(str(exc))
    raise _UsageError("a group is required: pass --slopes and/or --lambda")


def _cmd_element(args) -> int:
    name = args.name
    if name == "g0":
        _write(format_map(irrational_candidate_g0(), STEIN_2_3), args.out)
    elif name == "z":
        _write(format_map(PLLineMap(identity_map(), 1)), args.out)
    elif name == "identity":
        _write(format_map(identity_map()), args.out)
    else:  # rotation
        if args.angle is None:
            raise _UsageError("element rotation requires --angle")
        angle = _parse_fraction_arg(args.angle, "--angle")
        _write(format_map(rotation_map(angle)), args.out)
    return 0


def _cmd_eval(args) -> int:
    value = _read_map(args.map)
    point = _parse_fraction_arg(args.point, "--point")
    if isinstance(value, PLLineMap):
        image = evaluate_line(value, point)
    else:
        image = evaluate_circle(value, point % 1)
    sys.stdout.write(fraction_to_str(image) + "\n")
    return 0


def _combined_descriptor(da, db):
    return da if da == db else None


def _cmd_compose(args) -> int:
    first, da = _read_map_with_descriptor(args.first)
    second, db = _read_map_with_descriptor(args.second)
    if isinstance(first, PLLineMap) != isinstance(second, PLLineMap):
        raise _UsageError(
            "cannot compose a circle map with a line map; lift or project first"
        )
    _write(format_map(compose(first, second), _combined_descriptor(da, db)), args.out)
    return 0


def _cmd_invert(args) -> int:
    value, descriptor = _read_map_with_descriptor(args.map)
    _write(format_map(invert(value), descriptor), args.out)
    return 0


def _cmd_power(args) -> int:
    value, descriptor = _read_map_with_descriptor(args.map)
    _write(format_map(power(value, args.exponent), descriptor), args.out)
    return 0


def _cmd_member(args) -> int:
    value = _read_map(args.map)
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
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    return 0 if report.member else 1


def _cmd_tuple_map(args) -> int:
    descriptor = _descriptor_from_args(args)
    xs = _parse_fraction_list(args.source, "--from")
    ys = _parse_fraction_list(args.target, "--to")
    report = tuple_map_report(xs, ys, descriptor)
    _write(format_map(report.map, descriptor), args.out)
    return 0


def _cmd_rot(args) -> int:
    value = _read_map(args.map)
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
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_word_reduce(args) -> int:
    _write(format_word(_read_word(args.word).reduce()), args.out)
    return 0


def _cmd_word_trivial(args) -> int:
    trivial = _read_word(args.word).is_trivial()
    sys.stdout.write("trivial\n" if trivial else "nontrivial\n")
    return 0 if trivial else 1


def _cmd_word_multiply(args) -> int:
    product = _read_word(args.first).multiply(_read_word(args.second))
    _write(format_word(product), args.out)
    return 0


def _cmd_word_invert(args) -> int:
    _write(format_word(_read_word(args.word).invert_word()), args.out)
    return 0


def _cmd_word_project(args) -> int:
    word = _read_word(args.word)
    projected = word.project_to_g1()
    _write(format_map(projected, word.context.left_descriptor), args.out)
    return 0


def _cmd_word_random(args) -> int:
    word = random_word(default_context(), args.length, args.seed)
    _write(format_word(word), args.out)
    return 0


def _cmd_verify(args) -> int:
    lines = []
    all_passed = True
    for suite, check in run_suite(args.suite, args.samples, args.seed):
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
        type=int,
        default=None,
        help="grid base; with --slopes it must equal their product",
    )


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
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("element", help="emit a built-in map as a document")
    p.add_argument("name", choices=("g0", "z", "identity", "rotation"))
    p.add_argument("--angle", default=None, help="rotation angle, e.g. 1/3")
    _add_out(p)
    p.set_defaults(handler=_cmd_element)

    p = sub.add_parser("eval", help="evaluate a map at an exact point")
    p.add_argument("--map", required=True, help="map document file")
    p.add_argument(
        "--point",
        required=True,
        help="exact rational, e.g. 3/4; circle maps take it mod 1",
    )
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("compose", help="compose two maps, first then second")
    p.add_argument("first", help="map document applied first")
    p.add_argument("second", help="map document applied second")
    _add_out(p)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("invert", help="invert a map")
    p.add_argument("map", help="map document file")
    _add_out(p)
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("power", help="raise a map to an integer power")
    p.add_argument("map", help="map document file")
    p.add_argument("exponent", type=int, help="any integer, negatives allowed")
    _add_out(p)
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser(
        "member",
        help="test membership in a Stein-Thompson circle group "
        "(exit 0 member, 1 not)",
    )
    p.add_argument("--map", required=True, help="map document file")
    _add_descriptor_flags(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser(
        "tuple-map", help="build a member map sending one tuple to another"
    )
    p.add_argument(
        "--from", dest="source", required=True, help="comma-separated points"
    )
    p.add_argument(
        "--to", dest="target", required=True, help="comma-separated image points"
    )
    _add_descriptor_flags(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_tuple_map)

    p = sub.add_parser(
        "rot", help="exact rational rotation number, or a certified bracket"
    )
    p.add_argument("--map", required=True, help="map document file")
    p.add_argument(
        "--max-denominator",
        type=int,
        default=50,
        help="certify against all rationals with denominator up to this (default 50)",
    )
    p.add_argument(
        "--depth",
        type=int,
        default=200,
        help="maximum iterate examined (default 200)",
    )
    _add_out(p)
    p.set_defaults(handler=_cmd_rot)

    p = sub.add_parser("word", help="operate on amalgam word documents")
    wordsub = p.add_subparsers(dest="word_command", metavar="ACTION")
    wordsub.required = True

    w = wordsub.add_parser("reduce", help="emit the reduced form")
    w.add_argument("word", help="word document file")
    _add_out(w)
    w.set_defaults(handler=_cmd_word_reduce)

    w = wordsub.add_parser(
        "trivial", help="decide triviality (exit 0 trivial, 1 nontrivial)"
    )
    w.add_argument("word", help="word document file")
    w.set_defaults(handler=_cmd_word_trivial)

    w = wordsub.add_parser("multiply", help="concatenate and reduce two words")
    w.add_argument("first", help="word document applied first")
    w.add_argument("second", help="word document applied second")
    _add_out(w)
    w.set_defaults(handler=_cmd_word_multiply)

    w = wordsub.add_parser("invert", help="emit the reduced inverse")
    w.add_argument("word", help="word document file")
    _add_out(w)
    w.set_defaults(handler=_cmd_word_invert)

    w = wordsub.add_parser(
        "project", help="project to the left circle group, as a map document"
    )
    w.add_argument("word", help="word document file")
    _add_out(w)
    w.set_defaults(handler=_cmd_word_project)

    w = wordsub.add_parser(
        "random", help="emit a deterministic pseudorandom word in the default context"
    )
    w.add_argument("--length", type=int, default=4, help="syllable count (default 4)")
    w.add_argument("--seed", type=int, default=42, help="generator seed (default 42)")
    _add_out(w)
    w.set_defaults(handler=_cmd_word_random)

    p = sub.add_parser(
        "verify", help="run property suites (exit 0 iff every check passes)"
    )
    p.add_argument("--suite", required=True, choices=tuple(SUITES) + ("all",))
    p.add_argument("--samples", type=int, default=1000, help="sample budget per suite")
    p.add_argument("--seed", type=int, default=42, help="sampling seed")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except BudgetError as exc:
        _emit_error("budget", str(exc))
        return 2
    except DocumentError as exc:
        _emit_error("parse", str(exc))
        return 2
    except (ValueError, TypeError) as exc:
        _emit_error("runtime", str(exc))
        return 2
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
