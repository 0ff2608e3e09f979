"""Bit-exact JSON documents for maps and amalgam words.

Every rational is serialized as a lowest-terms string, "p" or "p/q" with
q > 1, never as a JSON number, so round trips cannot lose precision.
Map documents carry the canonical breakpoint and image lists plus an
optional descriptor annotation (lambda and slope generators); a present
integer "offset" field marks a line map.  Word documents embed a context
block (the two descriptors and the edge map) and a syllable list.

Documents are read and written as the maps' (numerator, denominator)
pairs, checked by PLCircleMap's own validator: no Fraction is built but
for an error message.  `_dump_json` is the one JSON writer.  Parsing is
strict: unknown formats, non-canonical fraction strings, and invariant
violations all raise DocumentError with the offending field.

Integers in fraction strings and JSON integers (a line map's offset) may
have up to MAX_DIGITS decimal digits, far past CPython's default int/str
conversion limit.  This module converts them itself and never reads or
sets that limit: a digit run is counted before it is converted, and an
integer's bit length is checked before it is formatted and its digits
counted exactly after, so a value beyond MAX_DIGITS raises BudgetError, a
DocumentError, and exactly the values that parse back are written.  Runs
and integers longer than a few hundred digits convert by halves (hi *
10**k + lo each way); near MAX_DIGITS that beats CPython's quadratic
conversion.

The command line's budgets sit beside it: MAX_DOCUMENT_BYTES bounds the
documents it reads and writes, both checked by `check_document_size`, so
it writes no document that it would refuse to read; MAX_EXPONENT bounds
`power`, MAX_ROTATION_DEPTH bounds `rot`, MAX_WORD_LENGTH bounds `word
random`, MAX_TUPLE_GRID bounds the grid that `tuple-map` builds, and
MAX_VERIFY_SAMPLES bounds `verify --samples`.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quoted  # json.dumps's quoting
from typing import TYPE_CHECKING, Optional, Union

from .maps import PLCircleMap, PLLineMap, _checked_grid, _shown, lift
from .stein import GroupDescriptor

if TYPE_CHECKING:
    from .amalgam import AmalgamWord

MAP_FORMAT = "plmonster.map/1"
WORD_FORMAT = "plmonster.word/1"

# decimal digits allowed in one integer of a fraction string or document
MAX_DIGITS = 100_000
# largest |exponent| of `power` on a map that is not a rigid rotation:
# the integers of g0**n have about 0.3 n digits, so g0**50000 has about
# 15,000 (a rigid rotation's power grows with the exponent's digits only)
MAX_EXPONENT = 50_000
# largest `rot --depth`, and so `--max-denominator`: g0's certificate
# takes about 0.1 s at depth 1600 and 3 s at 6400 (its brackets gain about
# one bit per iterate, so the cost grows faster than the depth)
MAX_ROTATION_DEPTH = 5_000
# bytes in one document file the command line reads: room for twenty
# fractions at MAX_DIGITS, and more than a hundred times the 36,271 bytes
# of `power g0.json 30000`
MAX_DOCUMENT_BYTES = 4 * 2**20
# largest `word random --length`: its syllables take about 315 bytes each
# and none seen took more than 563, so a word this long (at most about
# 2.8 MB) parses back under MAX_DOCUMENT_BYTES
MAX_WORD_LENGTH = 5_000
# largest lam**q of `tuple-map`, whose construction builds every point of
# the lam**-q grid, q the finest depth of its entries (at least 1)
MAX_TUPLE_GRID = 2**16
# largest `verify --samples`: `verify --suite all` grows linearly with it,
# from about 16 s at the default 1,000 samples to about 140 s here
MAX_VERIFY_SAMPLES = 10_000

# a fraction string's sign, numerator and denominator digits; canonical
# ones have ASCII digits, no leading zero, no "-0" and no final newline
_FRACTION_RE = re.compile(r"^(-?)(\d+)(?:/(\d+))?$")
_CANONICAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(/[1-9][0-9]*)?\Z")
_OVER_BUDGET = "an integer exceeds the budget of %d decimal digits" % MAX_DIGITS
# bit length of 10**MAX_DIGITS: a larger one has more than MAX_DIGITS digits
_BUDGET_BITS = math.floor(MAX_DIGITS * math.log2(10)) + 1
# int() and str() convert these natively under every host limit (the
# smallest a host can set is 640 digits): runs of at most _SHORT_DIGITS
# digits, and integers below 2**_SHORT_BITS (at most 603 digits)
_SHORT_DIGITS = 600
_SHORT_BITS = 2000


class DocumentError(ValueError):
    """Raised for malformed or non-canonical documents."""


class BudgetError(DocumentError):
    """Raised when an integer, a document or a run is over its budget."""


def check_document_size(data: bytes, name: str) -> bytes:
    """data, the bytes of the document called name, if within budget.

    Raises BudgetError when it has more than MAX_DOCUMENT_BYTES bytes.
    The command line calls this on every document it reads and on every
    document before it writes a byte of it.
    """
    if len(data) > MAX_DOCUMENT_BYTES:
        raise BudgetError(
            "%s is over the budget of %d bytes for a document" % (name, MAX_DOCUMENT_BYTES)
        )
    return data


def _int(text: str) -> int:
    """int(text) for a run of decimal digits after an optional "-"."""
    # a run is counted before it is converted, and a long one splits in halves
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise BudgetError(_OVER_BUDGET)
    if len(text) <= _SHORT_DIGITS:
        return int(text)
    if text[0] == "-":
        return -_int(text[1:])
    k = len(text) // 2
    return _int(text[:-k]) * 10**k + _int(text[-k:])


def _digits(n: int) -> str:
    """str(n), or BudgetError when |n| has more than MAX_DIGITS digits."""
    # refused by bit length before converting, then counted exactly; a long
    # value splits in halves
    bits = n.bit_length()
    if bits <= _SHORT_BITS:
        return str(n)
    if bits > _BUDGET_BITS:
        raise BudgetError(_OVER_BUDGET)
    if n < 0:
        return "-" + _digits(-n)
    k = bits * 3 // 20  # about half its digits: log10(2) > 0.3
    hi, lo = divmod(n, 10**k)
    text = _digits(hi) + _digits(lo).zfill(k)
    if len(text) > MAX_DIGITS:
        raise BudgetError(_OVER_BUDGET)
    return text


def _pair_to_str(n: int, d: int) -> str:
    return _digits(n) if d == 1 else _digits(n) + "/" + _digits(d)


def fraction_to_str(value: Fraction) -> str:
    """Lowest-terms string form: "p" for integers, "p/q" otherwise."""
    return _pair_to_str(value.numerator, value.denominator)


def str_to_fraction(text: str) -> Fraction:
    """Parse a canonical fraction string; anything non-canonical fails."""
    return Fraction(*_str_to_pair(text))


def _str_to_pair(text: str):
    """The lowest-terms (numerator, denominator) of a canonical fraction string."""
    match = _FRACTION_RE.match(text) if isinstance(text, str) else None
    if match is None:
        raise DocumentError(
            "expected a fraction string like '3' or '-1/4', got %s" % _shown(text)
        )
    sign, num, den = match.groups()
    numerator = _int(sign + num)
    denominator = 1 if den is None else _int(den)
    if denominator == 0:
        raise DocumentError("zero denominator in %r" % text)
    if not _CANONICAL_RE.match(text) or den == "1" or math.gcd(numerator, denominator) != 1:
        raise DocumentError(
            "%r is not in canonical lowest-terms form (expected %r)"
            % (text, fraction_to_str(Fraction(numerator, denominator)))
        )
    return numerator, denominator


def _checked_descriptor(generators, lam, where: Optional[str], key: str, noun: str):
    """The descriptor of a generator list (field `key`, items called
    `noun`) and an optional lambda; errors are prefixed by `where`."""
    prefix = where + ": " if where else ""
    if not isinstance(generators, list) or not generators:
        raise DocumentError("%s%s must be a nonempty list of integers" % (prefix, key))
    for g in generators:
        if isinstance(g, bool) or not isinstance(g, int) or g < 2:
            raise DocumentError("%s%s %s is not an integer >= 2" % (prefix, noun, _shown(g)))
    try:
        descriptor = GroupDescriptor(*generators)
    except ValueError as exc:
        raise BudgetError("%s: %s" % (where or key, exc)) from None
    if lam is not None and lam != descriptor.lam:
        raise DocumentError(
            "%s'lambda' is %s but the %ss multiply to %d"
            % (prefix, _shown(lam), noun, descriptor.lam)
        )
    return descriptor


def document_descriptor(doc: dict) -> Optional[GroupDescriptor]:
    """Reconstruct the descriptor annotation of a map document, if present.

    Uses the slope generator list; a bare lambda without generators is
    ambiguous and yields None.  Inconsistent lambda/slopes pairs fail.
    """
    slopes = doc.get("slopes")
    if slopes is None:
        return None
    return _checked_descriptor(slopes, doc.get("lambda"), None, "'slopes'", "slope generator")


def map_to_document(
    value: Union[PLCircleMap, PLLineMap],
    descriptor: Optional[GroupDescriptor] = None,
) -> dict:
    """Document for a circle map, or for a line map (offset included)."""
    offset = None
    if isinstance(value, PLLineMap):
        offset = value.offset
        value = value.base
    if not isinstance(value, PLCircleMap):
        raise TypeError("expected a circle map or a line map")
    breaks, images = value._corners()
    doc = {
        "format": MAP_FORMAT,
        "lambda": None if descriptor is None else descriptor.lam,
        "slopes": None if descriptor is None else list(descriptor.generators),
        "breakpoints": [_pair_to_str(*b) for b in breaks],
        "images": [_pair_to_str(*v) for v in images],
    }
    if offset is not None:
        _digits(offset)  # refused here, as the fractions are
        doc["offset"] = offset
    return doc


def _pair_list(doc: dict, key: str):
    values = doc.get(key)
    if not isinstance(values, list) or not values:
        raise DocumentError("'%s' must be a nonempty list" % key)
    out = []
    for i, text in enumerate(values):
        try:
            out.append(_str_to_pair(text))
        except DocumentError as exc:
            raise type(exc)("%s[%d]: %s" % (key, i, exc)) from None
    return out


def map_from_document(doc: dict) -> Union[PLCircleMap, PLLineMap]:
    """Inverse of map_to_document; validates every invariant."""
    return _map_and_descriptor(doc)[0]


def _map_and_descriptor(doc: dict):
    """map_from_document's map and the document_descriptor it validated."""
    if not isinstance(doc, dict):
        raise DocumentError("map document must be a JSON object")
    fmt = doc.get("format")
    if fmt != MAP_FORMAT:
        raise DocumentError(
            "unsupported map format %s (expected %r)" % (_shown(fmt), MAP_FORMAT)
        )
    breaks = _pair_list(doc, "breakpoints")
    images = _pair_list(doc, "images")
    descriptor = document_descriptor(doc)
    try:
        base = PLCircleMap._from_grid(*_checked_grid(breaks, images))
    except ValueError as exc:
        raise DocumentError("invalid map data: %s" % exc) from None
    offset = doc.get("offset")
    if offset is None:
        return base, descriptor
    if isinstance(offset, bool) or not isinstance(offset, int):
        raise DocumentError("'offset' must be an integer")
    return lift(base, offset), descriptor


def _dump_json(doc) -> str:
    """doc as json.dumps writes it with a two-space indent, then a newline."""
    return _json_text(doc, "\n") + "\n"


def _json_text(node, newline: str) -> str:
    # newline is "\n" and the indent of the line that node starts on
    if isinstance(node, str):
        return _quoted(node)
    if isinstance(node, int) and not isinstance(node, bool):
        return _digits(node)
    inner = newline + "  "
    if isinstance(node, dict):
        items, ends = [_quoted(k) + ": " + _json_text(v, inner) for k, v in node.items()], "{}"
    elif isinstance(node, (list, tuple)):
        items, ends = [_json_text(v, inner) for v in node], "[]"
    else:
        return "null" if node is None else json.dumps(node)  # true, false or a float
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1] if items else ends


def format_map(
    value: Union[PLCircleMap, PLLineMap],
    descriptor: Optional[GroupDescriptor] = None,
) -> str:
    return _dump_json(map_to_document(value, descriptor))


def parse_map(text: str) -> Union[PLCircleMap, PLLineMap]:
    return map_from_document(_load_json(text))


def _load_json(text: str) -> dict:
    try:
        return json.loads(text, parse_int=_int)
    except json.JSONDecodeError as exc:
        raise DocumentError("invalid JSON: %s" % exc) from None
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise DocumentError("invalid JSON: arrays or objects nested too deeply") from None


def _descriptor_block(descriptor: GroupDescriptor) -> dict:
    return {
        "generators": list(descriptor.generators),
        "lambda": descriptor.lam,
    }


def _descriptor_from_block(block, where: str) -> GroupDescriptor:
    if not isinstance(block, dict):
        raise DocumentError("%s: descriptor block must be an object" % where)
    return _checked_descriptor(
        block.get("generators"), block.get("lambda"), where, "'generators'", "generator"
    )


def word_to_document(word: AmalgamWord) -> dict:
    """Document for an amalgam word, embedding its full context."""
    ctx = word.context
    return {
        "format": WORD_FORMAT,
        "context": {
            "left": _descriptor_block(ctx.left_descriptor),
            "right": _descriptor_block(ctx.right_descriptor),
            "edge": map_to_document(ctx.edge),
        },
        "syllables": [
            {
                "factor": s.factor.value,
                "element": map_to_document(s.element),
            }
            for s in word.syllables
        ],
    }


def word_from_document(doc: dict) -> AmalgamWord:
    """Inverse of word_to_document; re-runs all context and syllable gates.

    A document whose context is the default one gets `default_context()`,
    which passed the same gates, instead of a context of its own; one on
    another context shares the last such context built, so the documents
    of one command pass the gates once.
    """
    # map documents never need the amalgam, so only words import it
    from .amalgam import AmalgamWord, ContextError, Factor, SyllableError, _context_for

    if not isinstance(doc, dict):
        raise DocumentError("word document must be a JSON object")
    fmt = doc.get("format")
    if fmt != WORD_FORMAT:
        raise DocumentError(
            "unsupported word format %s (expected %r)" % (_shown(fmt), WORD_FORMAT)
        )
    ctx_block = doc.get("context")
    if not isinstance(ctx_block, dict):
        raise DocumentError("'context' must be an object")
    left = _descriptor_from_block(ctx_block.get("left"), "context.left")
    right = _descriptor_from_block(ctx_block.get("right"), "context.right")
    edge_doc = ctx_block.get("edge")
    if not isinstance(edge_doc, dict):
        raise DocumentError("context.edge: missing map document")
    edge = map_from_document(edge_doc)
    if not isinstance(edge, PLLineMap):
        raise DocumentError("context.edge: must be a line map (offset required)")
    try:
        context = _context_for(left, right, edge)
    except ContextError as exc:
        raise DocumentError("invalid context: %s" % exc) from None
    sylls = doc.get("syllables")
    if not isinstance(sylls, list):
        raise DocumentError("'syllables' must be a list")
    pairs = []
    for i, entry in enumerate(sylls):
        if not isinstance(entry, dict):
            raise DocumentError("syllable %d: must be an object" % i)
        factor = entry.get("factor")
        if factor not in (Factor.G1.value, Factor.G2.value):
            raise DocumentError(
                "syllable %d: factor must be 'G1' or 'G2', got %s" % (i, _shown(factor))
            )
        element_doc = entry.get("element")
        if not isinstance(element_doc, dict):
            raise DocumentError("syllable %d: missing element document" % i)
        try:
            element = map_from_document(element_doc)
        except DocumentError as exc:
            raise type(exc)("syllable %d: %s" % (i, exc)) from None
        if not isinstance(element, PLLineMap):
            raise DocumentError(
                "syllable %d: element must be a line map (offset required)" % i
            )
        pairs.append((Factor(factor), element))
    try:
        return AmalgamWord(context, pairs)
    except SyllableError as exc:
        raise DocumentError(str(exc)) from None


def format_word(word: AmalgamWord) -> str:
    return _dump_json(word_to_document(word))


def parse_word(text: str) -> AmalgamWord:
    return word_from_document(_load_json(text))
