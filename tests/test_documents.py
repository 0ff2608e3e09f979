"""Documents go one way: kernel pairs in and out, through one JSON writer."""

import json
from fractions import Fraction as F

from plmonster import (
    STEIN_2_3,
    AmalgamWord,
    PLCircleMap,
    default_context,
    format_map,
    format_word,
    irrational_candidate_g0,
    lift,
    parse_map,
    parse_word,
    random_word,
    relator_word,
    rotation_map,
)
from plmonster import maps, serialize, stein
from plmonster.serialize import _dump_json, word_to_document
from test_fuzz import MAP_DOCS, WORD_DOCS


def test_documents_round_trip_without_fractions(monkeypatch):
    values = [
        (irrational_candidate_g0(), STEIN_2_3),
        (lift(rotation_map(F(1, 3)), 10**5000), None),  # a 5,001-digit offset
    ]
    # a short word, and a long one whose elements come from the tuple construction
    words = [random_word(default_context(), 6, 3), random_word(default_context(), 500, 1)]

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(serialize, "Fraction", refuse)
    for view in ("breakpoints", "images"):
        monkeypatch.setattr(PLCircleMap, view, property(refuse))
    for value, descriptor in values:
        text = format_map(value, descriptor)
        assert parse_map(text) == value
        assert format_map(parse_map(text), descriptor) == text
    for word in words:
        text = format_word(word)
        assert parse_word(text) == word
        assert format_word(parse_word(text)) == text


def test_a_word_document_finds_its_context_without_fractions(monkeypatch):
    context = default_context()
    text = format_word(relator_word(context, 1))

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    for module in (serialize, stein, maps):
        monkeypatch.setattr(module, "Fraction", refuse)
    word = parse_word(text)
    assert word.context is context
    assert word.is_trivial()


def test_the_writer_writes_what_json_dumps_writes():
    docs = MAP_DOCS + WORD_DOCS + [
        word_to_document(relator_word(default_context(), 1)),
        word_to_document(AmalgamWord(default_context())),
    ]
    for doc in docs:
        assert _dump_json(doc) == json.dumps(doc, indent=2) + "\n"
