"""One parse per element, the letter-name rule on every alphabet, exact
letter degrees and symmetry weights, the one rational literal form, and the
JSON element loaders' refusal of anything but exact integer indices."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderie import parsing
from ladderie.cli import main
from ladderie.extension import CElement, Cgen
from ladderie.glinf import GlElement
from ladderie.ladder import LieElement, Z
from ladderie.ladder_module import LadderPoly
from ladderie.linalg import scalar_from_str
from ladderie.parsing import (c_from_json, gl_from_json, ladder_from_json,
                              lie_from_json, parse_element)
from ladderie.words import Alphabet, Letter, alphabet_from_json


_UNSCANNED = ["Z[1,0] +", "Z[-1,0]", "t[1]^0", "\uff12*Y"]


@pytest.mark.parametrize("src", ["Z[1,0] - 2*Y", "3/2*E[2,1]", "C[-2] + C[3]",
                                 "t[0]^2 - 1/3", "Z[1,0] + E[0,0]"] + _UNSCANNED)
def test_parse_element_tokenizes_its_source_once(monkeypatch, src):
    """At most once: never when the term scanner reads the source, once
    when the character reader has to."""
    assert (parsing._scan_terms(src) is None) == (src in _UNSCANNED)
    calls = []
    tokenize = parsing._tokenize
    monkeypatch.setattr(parsing, "_tokenize", lambda text: calls.append(text) or tokenize(text))
    try:
        parse_element(src)
    except parsing.ParseError:
        pass
    assert calls == ([src] if src in _UNSCANNED else [])


_COEFF = st.builds(F, st.integers(-20, 20).filter(bool), st.integers(1, 6))
_INDEX = st.integers(0, 4)
_ELEMENTS = st.one_of(
    st.builds(LieElement, st.dictionaries(st.tuples(_INDEX, _INDEX), _COEFF, max_size=4),
              _COEFF | st.just(F(0))).map(lambda e: (e, parsing.format_element,
                                                      parsing.parse_lie_element)),
    st.builds(GlElement, st.dictionaries(st.tuples(_INDEX, _INDEX), _COEFF, max_size=4))
    .map(lambda g: (g, parsing.format_element, parsing.parse_gl_element)),
    st.builds(CElement, st.dictionaries(st.integers(-4, 4), _COEFF, max_size=4))
    .map(lambda x: (x, parsing.format_element, parsing.parse_c_element)),
    st.builds(LadderPoly, st.dictionaries(st.lists(_INDEX, max_size=3).map(tuple), _COEFF,
                                          max_size=4))
    .map(lambda p: (p, parsing.format_element, parsing.parse_ladder_poly)),
)


@settings(max_examples=300, deadline=None)
@given(_ELEMENTS)
def test_parse_element_equals_the_typed_parser(case):
    x, fmt, typed = case
    text = fmt(x)
    assert typed(text) == x
    if x.is_zero():  # "0" is the zero of every type; parse_element reads a ladder poly
        assert parse_element(text) == LadderPoly()
    else:
        assert parse_element(text) == x


@pytest.mark.parametrize("name", ["1", "ab", "", "+", ",", "a1", 1, None])
def test_api_letters_follow_the_name_rule(name):
    with pytest.raises(ValueError, match="is not a single letter or '_' other than 'e'"):
        Letter(name, 1)


def test_an_api_alphabet_with_an_unusable_name_is_refused():
    """Before, this alphabet formatted Zw(("1", "a"), ()) as Z[1a,e], text
    that parse_word_element refuses."""
    with pytest.raises(ValueError):
        Alphabet([Letter("a", 1), Letter("1", 1)])


def test_the_loader_keeps_refusing_e():
    with pytest.raises(ValueError, match="'e' is not a single letter or '_' other than 'e'"):
        alphabet_from_json({"letters": [{"name": "e", "degree": 1}]})


@pytest.mark.parametrize("load, obj", [
    (lie_from_json, {"z": [{"n": 1.5, "m": 0, "c": "1"}]}),
    (lie_from_json, {"z": [{"n": -1, "m": 0, "c": "1"}]}),
    (lie_from_json, {"z": [{"n": 1, "m": 0, "c": 0.5}]}),
    (lie_from_json, {"z": [{"n": 1, "m": 0, "c": "1"}], "y": 0.5}),
    (lie_from_json, {"z": {"n": 1, "m": 0, "c": "1"}}),
    (lie_from_json, [{"n": 1, "m": 0, "c": "1"}]),
    (gl_from_json, {"e": [{"i": True, "j": 0, "c": "1"}]}),
    (gl_from_json, {"e": [[0, 1, "1"]]}),
    (c_from_json, {"c": [{"d": 0.5, "c": "1"}]}),
    (ladder_from_json, {"terms": [{"m": [1.5], "c": "1"}]}),
    (ladder_from_json, {"terms": [{"m": [-1], "c": "1"}]}),
    (ladder_from_json, {"terms": [{"m": 3, "c": "1"}]}),
], ids=["float-n", "negative-n", "float-c", "float-y", "z-not-a-list", "not-an-object",
        "bool-i", "term-not-an-object", "float-d", "float-t", "negative-t", "m-not-a-list"])
def test_malformed_json_elements_raise_one_line_value_errors(load, obj):
    with pytest.raises(ValueError) as err:
        load(obj)
    assert "\n" not in str(err.value)


def test_json_integer_coefficients_and_signed_c_degrees_load():
    assert lie_from_json({"z": [{"n": 1, "m": 0, "c": 1}]}) == Z(1, 0)
    assert c_from_json({"c": [{"d": -2, "c": "1/2"}]}) == Cgen(-2, F(1, 2))
    assert ladder_from_json({"terms": [{"m": [], "c": -3}]}) == LadderPoly({(): -3})


@pytest.mark.parametrize("sym", [0.1, 0.5, 2.0])
def test_a_float_symmetry_weight_is_refused(sym):
    """Before, Letter("a", 1, 0.1).sym was 3602879701896397/36028797018963968."""
    with pytest.raises(TypeError, match="is not exact"):
        Letter("a", 1, sym)


@pytest.mark.parametrize("degree", [1.5, 1.0, True, "1", F(1)])
def test_a_letter_degree_must_be_an_int(degree):
    """Before, Letter("a", 1.5) was accepted and dse_expand then failed with a
    TypeError on a list index."""
    with pytest.raises(ValueError, match="is not an int"):
        Letter("a", degree)


@pytest.mark.parametrize("text", ["1_0", "-1/-2", "3/+4", "1 /2", " +7 ", "+7", "7 ", "",
                                  "-", "1/", "/2", "1.5", "1e3", "0x10", "\u0661", "1/2/3"])
def test_scalar_literals_outside_the_written_form_are_refused(text):
    with pytest.raises(ValueError):
        scalar_from_str(text)


def test_a_nonstandard_sym_literal_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps({"letters": [{"name": "a", "degree": 1, "sym": "1_0"}]}))
    code = main(["dse", "expand", "--alphabet", str(path), "--order", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "1_0" in err
