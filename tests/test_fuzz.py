"""Mutated documents against the parsers and the command line.

Each example starts from a valid map or word document and changes one
place in it: a value is replaced by another JSON value, a key or list
entry is deleted, or one is added.  The parsers must raise nothing but
DocumentError (BudgetError is one), and `cli.main` on the mutated file
must exit 0, 1 or 2, writing to standard error nothing or exactly one
JSON error object.  The command line also gets files cut short, and
files padded with blanks to a size at the document budget, one byte
either side of it.  Examples are derandomized, as everywhere in tier 1.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction as F

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from plmonster import (
    STEIN_2_3,
    THOMPSON,
    PLLineMap,
    center_generator_z,
    default_context,
    irrational_candidate_g0,
    lift,
    random_word,
    relator_word,
    rotation_map,
    tuple_map,
)
from plmonster.cli import main
from plmonster.serialize import (
    MAX_DOCUMENT_BYTES,
    DocumentError,
    _dump_json,
    map_from_document,
    map_to_document,
    str_to_fraction,
    word_from_document,
    word_to_document,
)

MAP_DOCS = [
    map_to_document(irrational_candidate_g0(), STEIN_2_3),
    map_to_document(lift(irrational_candidate_g0(), 1)),
    map_to_document(center_generator_z()),
    map_to_document(rotation_map(F(2, 5))),
    map_to_document(
        PLLineMap(tuple_map((0, F(1, 4), F(5, 8)), (F(1, 2), 0, F(1, 8)), THOMPSON), -3),
        THOMPSON,
    ),
]
WORD_DOCS = [
    word_to_document(relator_word(default_context(), 1)),
    word_to_document(random_word(default_context(), 2, 7)),
]

# values a mutation writes: JSON scalars, fraction strings near and far
# from canonical (one with 5,000 digits, between CPython's default limit
# and the budget), integers at and past the digit budget, small containers
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.just(10**99_999),  # the most digits the budget allows
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(
        ["0", "1", "-1", "1/2", "-1/3", "2/4", "1/0", "0/1", "3/2", "01/2", "1/-2",
         "1/" + "3" * 500, "1/" + "9" * 5_000, "1/" + "7" * 100_001,
         "plmonster.map/1", "plmonster.word/1", "G1", "G2"]
    ),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["format", "offset", "lambda", "x"]), SCALARS, max_size=2),
)


def places(node, path=()):
    """Every path into a document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from places(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from places(child, path + (i,))


@st.composite
def mutated(draw, docs):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    path = draw(st.sampled_from(list(places(doc))))
    if not path:
        return draw(VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[key] = draw(VALUES)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, draw(VALUES))
    else:
        parent[draw(st.sampled_from(["format", "offset", "slopes", "extra"]))] = draw(VALUES)
    return doc


def parses_or_rejects(parse, doc):
    try:
        parse(doc)
    except DocumentError:
        pass


@seed(0xede564d43f6bd49ee50c329402233fdbabd71f344b223a90a44fe85722884eaa2083c739f08b5a2d36d1f12fa7744f9e)
@settings(max_examples=100)
@given(text=st.one_of(st.text(alphabet="-+0123456789/. e_", max_size=12), SCALARS))
def test_fraction_strings_raise_only_document_errors(text):
    parses_or_rejects(str_to_fraction, text)


@seed(0xf29bac15af95789c7cef7e26c829865afca4e649060eb679e9e33d3580b81872c00b96d10957d6e840e35c8876aa74d0)
@settings(max_examples=150)
@given(doc=mutated(MAP_DOCS))
def test_mutated_map_documents_raise_only_document_errors(doc):
    parses_or_rejects(map_from_document, doc)


@seed(0xb37b5fd03e271c971871c266595ee99469f8bfefa7333710138f0949ecfba16b7c841b6553f860e2b75c9e9ddff6943a)
@settings(max_examples=60)
@given(doc=mutated(WORD_DOCS))
def test_mutated_word_documents_raise_only_document_errors(doc):
    parses_or_rejects(word_from_document, doc)


def run_on_file(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path if a == "FILE" else a for a in argv])
    return code, err.getvalue()


def check_exit(code, err, over_budget):
    assert code in (0, 1, 2)
    # an error is exactly one JSON object on stderr, and only errors write there
    assert bool(err) == (code == 2)
    if err:
        error = json.loads(err)["error"]
        assert sorted(error) == ["kind", "message"]
    if over_budget:
        assert code == 2 and error["kind"] == "budget"


MAP_COMMANDS = [
    ("eval", "--map", "FILE", "--point", "1/3"),
    ("invert", "FILE"),
    ("power", "FILE", "3"),
    ("compose", "FILE", "FILE"),
    ("member", "--map", "FILE", "--lambda", "2"),
    ("rot", "--map", "FILE", "--max-denominator", "8", "--depth", "16"),
]
WORD_COMMANDS = [
    ("word", "trivial", "FILE"),
    ("word", "reduce", "FILE"),
    ("word", "multiply", "FILE", "FILE"),
    ("word", "project", "FILE"),
]


def document_text(draw, docs):
    # JSON text is ASCII, so its length is its size in bytes
    text = _dump_json(draw(mutated(docs)))
    change = draw(st.sampled_from(["none", "cut", "pad"]))
    if change == "cut":
        # a document cut short, as a failed write leaves it
        return text[: draw(st.integers(0, len(text)))]
    if change == "pad":
        size = draw(st.integers(MAX_DOCUMENT_BYTES - 1, MAX_DOCUMENT_BYTES + 1))
        return text + " " * (size - len(text))
    return text


@seed(0xe143250226e17b1ee4a9c9e33b1eb6db681b39afda066251539d26e2626c788e09409280faf906daaf94945b728d1efd)
@settings(max_examples=40)
@given(data=st.data())
def test_cli_on_mutated_map_documents_exits_cleanly(data):
    argv = data.draw(st.sampled_from(MAP_COMMANDS))
    text = document_text(data.draw, MAP_DOCS)
    check_exit(*run_on_file(argv, text), len(text) > MAX_DOCUMENT_BYTES)


@seed(0xe09e1c34b2bd0d06713ee255ab4c491f2149bc1dc26f09d5b143bf1b37bef7e0758b4f9a0b5fbf66e9a22d1e22641d8b)
@settings(max_examples=40)
@given(data=st.data())
def test_cli_on_mutated_word_documents_exits_cleanly(data):
    argv = data.draw(st.sampled_from(WORD_COMMANDS))
    text = document_text(data.draw, WORD_DOCS)
    check_exit(*run_on_file(argv, text), len(text) > MAX_DOCUMENT_BYTES)
