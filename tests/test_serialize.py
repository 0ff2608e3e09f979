"""JSON documents for maps and words: exact round trips, strict parsing."""

import json
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from plmonster import (
    AmalgamWord,
    BudgetError,
    DocumentError,
    PLCircleMap,
    PLLineMap,
    default_context,
    format_map,
    format_word,
    fraction_to_str,
    identity_map,
    irrational_candidate_g0,
    lift,
    map_from_document,
    map_to_document,
    parse_map,
    parse_word,
    power,
    relator_word,
    str_to_fraction,
    word_from_document,
    word_to_document,
)
from plmonster.maps import _shown
from plmonster.serialize import MAX_DIGITS, _dump_json
from plmonster.stein import STEIN_2_3
# the fuzz test below keeps these names: hypothesis seeds its derandomized
# examples from the test's source
from reference import outcome as parse_outcome
from reference import str_to_fraction as reference_str_to_fraction
from test_fuzz import SCALARS


def test_fraction_to_str_forms():
    assert fraction_to_str(F(1, 2)) == "1/2"
    assert fraction_to_str(F(2)) == "2"
    assert fraction_to_str(F(-3, 4)) == "-3/4"
    assert fraction_to_str(F(0)) == "0"


def test_str_to_fraction_accepts_canonical_forms():
    assert str_to_fraction("1/2") == F(1, 2)
    assert str_to_fraction("-3/4") == F(-3, 4)
    assert str_to_fraction("17") == 17
    assert str_to_fraction("0") == 0


def test_str_to_fraction_rejects_noncanonical_forms():
    for text in ("2/4", "1/1", "03", "-0", "1/0", "0/1", "1.5", " 1", "1 ", "a", "1/-2", "+1"):
        with pytest.raises(DocumentError):
            str_to_fraction(text)


def test_canonical_check_matches_the_reference():
    # "\u0661" is an Arabic-Indic one, a digit to int() but not canonical
    for text in ("-0", "0/1", "00", "01/2", "1/01", "1/1", "2/4", "-0/3", "1/0", "-1/2",
                 "1\n", "1/2\n", "\u0661", "1/\u0662", "0", "-7/3", 5, None):
        expected = parse_outcome(reference_str_to_fraction, text)
        assert parse_outcome(str_to_fraction, text) == expected, text


@seed(0x460d5601369470206b23c503a2488b44b3ca47f38dd19763891c21b01102260062f4517e79316d6b5b65647fb9101703)
@settings(max_examples=300)
@given(text=st.one_of(st.text(alphabet="-+0123456789/. e_", max_size=12), SCALARS))
def test_fuzzed_fraction_strings_match_the_reference(text):
    # the strings of the fuzz that the reference parses at the default limit
    assume(not isinstance(text, str) or len(text) <= 4300)
    expected = parse_outcome(reference_str_to_fraction, text)
    assert parse_outcome(str_to_fraction, text) == expected


def test_format_parse_format_is_stable():
    text = format_map(irrational_candidate_g0(), STEIN_2_3)
    assert format_map(parse_map(text), STEIN_2_3) == text
    assert text.endswith("\n")


def test_identity_document_round_trip():
    assert parse_map(format_map(identity_map())).is_identity()


def test_map_document_errors():
    good = map_to_document(irrational_candidate_g0(), STEIN_2_3)
    missing = dict(good)
    del missing["images"]
    for doc in (
        dict(good, format="plmonster.map/2"),
        missing,
        dict(good, breakpoints=["0", "0"]),
        dict(good, images=["1/2", "1/2"]),  # not injective
        # two cyclic descents cannot come from a circle homeomorphism
        dict(good, breakpoints=["0", "1/4", "1/2"], images=["0", "1/2", "1/4"]),
        dict(good, offset="1"),
        dict(good, slopes=[2]),  # product 2 contradicts lambda 6
    ):
        with pytest.raises(DocumentError):
            map_from_document(doc)
    with pytest.raises(DocumentError, match=r"breakpoints\[1\]"):
        map_from_document(dict(good, breakpoints=["0", "2/4"]))
    for text in ("not json", "[1, 2]"):
        with pytest.raises(DocumentError):
            parse_map(text)


def test_empty_word_document():
    w = AmalgamWord(default_context())
    assert parse_word(format_word(w)) == w


@pytest.mark.parametrize(
    "descriptor, error, message",
    [
        ({"slopes": 5}, DocumentError, "'slopes' must be a nonempty list of integers"),
        ({"slopes": []}, DocumentError, "'slopes' must be a nonempty list of integers"),
        ({"slopes": [2, True]}, DocumentError, "slope generator True is not an integer >= 2"),
        ({"slopes": [2, 3], "lambda": 7}, DocumentError,
         "'lambda' is 7 but the slope generators multiply to 6"),
        ({"slopes": [2**40]}, BudgetError,
         "'slopes': a slope generator of 41 bits exceeds the budget of 32 bits"),
    ],
)
def test_map_descriptor_errors_name_the_field(descriptor, error, message):
    doc = dict(map_to_document(irrational_candidate_g0()), **descriptor)
    with pytest.raises(error) as info:
        map_from_document(doc)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "block, error, message",
    [
        ([2], DocumentError, "context.left: descriptor block must be an object"),
        ({"generators": "2"}, DocumentError,
         "context.left: 'generators' must be a nonempty list of integers"),
        ({"generators": [2, 1]}, DocumentError,
         "context.left: generator 1 is not an integer >= 2"),
        ({"generators": [2], "lambda": 6}, DocumentError,
         "context.left: 'lambda' is 6 but the generators multiply to 2"),
        ({"generators": list(range(2, 20))}, BudgetError,
         "context.left: 18 slope generators exceed the budget of 16"),
    ],
)
def test_word_descriptor_errors_name_the_block(block, error, message):
    doc = word_to_document(relator_word(default_context(), 1))
    doc["context"]["left"] = block
    with pytest.raises(error) as info:
        word_from_document(doc)
    assert type(info.value) is error and str(info.value) == message


def test_word_document_rejects_bad_syllables():
    doc = word_to_document(relator_word(default_context(), 1))

    bad = json.loads(json.dumps(doc))
    bad["syllables"][0]["factor"] = "G3"
    with pytest.raises(DocumentError):
        word_from_document(bad)

    bad = json.loads(json.dumps(doc))
    del bad["syllables"][0]["element"]["offset"]
    with pytest.raises(DocumentError):
        word_from_document(bad)

    bad = json.loads(json.dumps(doc))
    bad["syllables"][0]["element"]["images"] = ["1/5"]
    with pytest.raises(DocumentError) as info:
        word_from_document(bad)
    assert "syllable" in str(info.value)


def test_word_document_rationals_are_strings():
    doc = word_to_document(relator_word(default_context(), 2))
    text = json.dumps(doc)
    for token in json.loads(text)["context"]["edge"]["breakpoints"]:
        assert isinstance(token, str)


@pytest.fixture(params=[640, 4300, 0])
def digit_limit(request, monkeypatch):
    """A host digit limit that serialize must neither read nor set.

    640 is the least a host can set, 4300 CPython's default, and 0 no
    limit; while the test runs, reading or setting the limit raises.
    """
    saved = sys.get_int_max_str_digits()
    set_limit = sys.set_int_max_str_digits
    set_limit(request.param)

    def refuse(*args):
        raise AssertionError("the host's int/str digit limit was read or set")

    monkeypatch.setattr(sys, "get_int_max_str_digits", refuse)
    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    try:
        yield request.param
    finally:
        set_limit(saved)


def test_values_past_the_default_digit_limit_round_trip(digit_limit):
    h = power(lift(irrational_candidate_g0(), 0), 30000)
    text = format_map(h)
    assert max(len(v) for v in json.loads(text)["images"]) > digit_limit
    assert parse_map(text) == h


def test_fraction_strings_over_the_digit_budget_fail(digit_limit):
    for text in ("2/4", "1/0"):
        with pytest.raises(DocumentError) as info:
            str_to_fraction(text)
        assert not isinstance(info.value, BudgetError)
    huge = "1" + "0" * MAX_DIGITS  # MAX_DIGITS + 1 digits
    assert str_to_fraction(huge[:-1]) == 10 ** (MAX_DIGITS - 1)
    with pytest.raises(BudgetError):
        str_to_fraction(huge)
    with pytest.raises(BudgetError):
        fraction_to_str(F(1, 10**MAX_DIGITS))
    # exactly at the budget both ways; past it by less than CPython 3.12's
    # estimate of the digit count lets through, the writer still refuses
    for value in (F(10**MAX_DIGITS - 1), F(-1, 10**MAX_DIGITS - 1)):
        assert str_to_fraction(fraction_to_str(value)) == value
    for value in (F(10 ** (MAX_DIGITS + 400)), F(-1, 10 ** (MAX_DIGITS + 400))):
        with pytest.raises(BudgetError):
            fraction_to_str(value)
    doc = map_to_document(irrational_candidate_g0())
    doc["breakpoints"] = ["1/" + huge]
    with pytest.raises(BudgetError, match=r"breakpoints\[0\]"):
        map_from_document(doc)


def test_concurrent_conversions_never_touch_the_digit_limit(digit_limit):
    # the limit is process-wide: eight threads (more than the cores of a
    # small machine) convert 5,000-digit fractions at once, switching as
    # often as the interpreter allows, and each conversion must succeed
    # under the host's limit without reading or setting it
    value = F(10**4999 + 1, 3 * 10**4998 + 7)
    text = fraction_to_str(value)
    errors = []

    def convert():
        try:
            for _ in range(100):
                assert str_to_fraction(text) == value
                assert fraction_to_str(value) == text
        except Exception as exc:  # reported below, from the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=convert) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_dumped_documents_write_long_integers_at_any_depth(digit_limit):
    def doc(a, b, c):
        # strings that look like the dump's markers stay strings
        return {
            "a": [1, a, {"b": b, "\x001": "\x000"}],
            "\x000": [c, True, None, 1.5, 'x"\x000', "\x00", "\\"],
            "c": a,
        }

    long = {"101": "1" + "0" * 5000, "202": "-1" + "0" * 99_999, "303": "9" * 700}
    expected = json.dumps(doc(101, 202, 303), indent=2) + "\n"
    for placeholder, digits in long.items():
        expected = expected.replace(placeholder, digits)
    assert _dump_json(doc(10**5000, -(10**99_999), 10**700 - 1)) == expected
    assert _dump_json(10**5000) == long["101"] + "\n"
    with pytest.raises(BudgetError):
        _dump_json({"a": [1, {"b": -(10**MAX_DIGITS)}]})


def _line_map_text(offset_digits: str) -> str:
    # built as text: the test process keeps CPython's default digit limit
    return format_map(lift(identity_map(), 1)).replace(
        '"offset": 1', '"offset": ' + offset_digits
    )


def test_offsets_past_the_default_digit_limit_round_trip(digit_limit):
    big = "1" + "0" * 4999  # 5,000 digits
    text = _line_map_text(big)
    h = parse_map(text)
    assert isinstance(h, PLLineMap) and h.offset == 10**4999
    assert format_map(h) == text
    g = power(lift(identity_map(), 99), 10**4299)
    assert g.offset == 99 * 10**4299  # 4,301 digits
    assert parse_map(format_map(g)) == g


def test_offsets_over_the_digit_budget_fail(digit_limit):
    with pytest.raises(BudgetError):
        parse_map(_line_map_text("1" + "0" * MAX_DIGITS))
    for offset in (10**MAX_DIGITS, -(10 ** (MAX_DIGITS + 400))):
        with pytest.raises(BudgetError):
            format_map(lift(identity_map(), offset))
    g = lift(identity_map(), -(10**MAX_DIGITS - 1))
    assert parse_map(format_map(g)) == g
    with pytest.raises(DocumentError) as info:
        parse_map(_line_map_text("1")[:-5])
    assert not isinstance(info.value, BudgetError)


def test_values_of_more_than_640_digits_are_named(digit_limit):
    assert _shown(-(10**640 - 1), str) == "-" + "9" * 640
    for value in (10**640, -(10**640), F(1, 10**640), [1, {"k": [F(10**640, 3)]}]):
        assert _shown(value) == "a value too large to show"


def long_non_member():
    # the denominator of its breakpoint has 5,000 digits, past CPython's
    # default limit, and is not a power of 6: a member of neither factor
    return lift(PLCircleMap([0, F(1, 3 * 10**4999 + 1)], [0, F(1, 2)]), 0)


def test_messages_about_long_values_are_document_errors(digit_limit):
    # a value of more than 640 digits is named, not shown, so each message
    # is the same under every host limit
    def message(parse, doc):
        with pytest.raises(DocumentError) as info:
            parse(doc)
        return str(info.value)

    named = "a value too large to show"
    violations = "breakpoint-not-in-Y at %s; slope-not-in-P at %s; slope-not-in-P at %s" % (
        (named,) * 3
    )
    doc = word_to_document(relator_word(default_context(), 1))
    doc["syllables"][0]["element"] = map_to_document(long_non_member())
    assert message(word_from_document, doc) == (
        "syllable 0: element is not a member of factor G1 (%s)" % violations
    )
    doc = word_to_document(relator_word(default_context(), 1))
    doc["context"]["edge"] = map_to_document(long_non_member())
    assert message(word_from_document, doc) == (
        "invalid context: edge map is not a member of the right factor T_{2,3}: " + violations
    )
    # the identity is a member, but its lift by 10**5000 translates by it
    doc["context"]["edge"] = map_to_document(lift(identity_map(), 10**5000))
    assert message(word_from_document, doc) == (
        "invalid context: edge map has rational translation number %s; the edge subgroup "
        "must be separated from all small rationals for power detection to stay conclusive"
        % named
    )
    doc = map_to_document(identity_map())
    doc["breakpoints"] = ["1" + "0" * 5000]  # 10**5000, 5,001 digits
    assert message(map_from_document, doc) == (
        "invalid map data: breakpoint %s outside [0, 1)" % named
    )
