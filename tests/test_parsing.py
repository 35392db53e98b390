import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderie import parsing
from ladderie.extension import CElement, Cgen
from ladderie.glinf import E, GlElement
from ladderie.ladder import LieElement, Y, Z
from ladderie.ladder_module import LadderPoly, t
from ladderie.parsing import (ParseError, c_from_json, element_to_json, format_element,
                              gl_from_json, ladder_from_json, lie_from_json,
                              parse_c_element, parse_element, parse_gl_element,
                              parse_ladder_poly, parse_lie_element, parse_word_element)
from ladderie.words import Alphabet, Letter, WordLieElement, Zw


def test_parse_element_examples():
    e = parse_element("Z[1,0] - Z[0,1]")
    assert isinstance(e, LieElement)
    assert e == Z(1, 0) - Z(0, 1)

    g = parse_element("3/2*E[2,1]")
    assert isinstance(g, GlElement)
    assert g == F(3, 2) * E(2, 1)

    with pytest.raises(ParseError) as err:
        parse_element("Z[-1,0]")
    assert "negative index" in str(err.value)
    assert err.value.pos == 2


def test_parse_assorted():
    assert parse_lie_element("Y") == Y
    assert parse_lie_element("-Y + 2*Z[0,0]") == -Y + 2 * Z(0, 0)
    assert parse_lie_element("0").is_zero()
    assert parse_gl_element("0").is_zero()
    assert parse_ladder_poly("1") == LadderPoly.one()
    assert parse_ladder_poly("t[0]*t[1]^2") == t(0) * t(1) * t(1)
    assert parse_ladder_poly("2 - 3/4*t[5]") == 2 * LadderPoly.one() - F(3, 4) * t(5)
    assert parse_c_element("C[-2] + C[3]") == Cgen(-2) + Cgen(3)
    assert isinstance(parse_element("t[1]"), LadderPoly)
    assert isinstance(parse_element("C[1]"), CElement)
    assert isinstance(parse_element("5"), LadderPoly)


def test_parse_errors():
    for bad, fragment in [
        ("Z[1,0] +", "expected"),
        ("Z[1 0]", "expected"),
        ("Q[1,0]", "unknown generator"),
        ("Z[1,0] * Z[0,1]", "single"),
        ("3*", "expected"),
        ("t[1]^0", "power"),
        ("1/0", "zero denominator"),
        ("Z[1,0] + t[2]", "mixed"),
        ("E[1,0] + Y", "mixed"),
        ("2 + Z[0,0]", "bare constant"),
        ("Z[0,0] @", "unexpected character"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_element(bad)
        assert fragment in str(err.value)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_lie_element("Z[1,0] + E[0,0]")
    assert err.value.pos == 9


def _random_lie(rng):
    z = {(rng.randrange(9), rng.randrange(9)):
         F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randrange(5))}
    return LieElement(z, F(rng.randint(-3, 3), rng.randint(1, 3)))


def _random_gl(rng):
    return GlElement({(rng.randrange(9), rng.randrange(9)):
                      F(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(rng.randrange(5))})


def _random_c(rng):
    return CElement({rng.randint(-6, 6): F(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(rng.randrange(5))})


def _random_ladder(rng):
    terms = {}
    for _ in range(rng.randrange(4)):
        mono = tuple(sorted(rng.randrange(5) for _ in range(rng.randrange(4))))
        terms[mono] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return LadderPoly(terms)


def test_text_roundtrip_1000_each():
    rng = random.Random(4242)
    for _ in range(1000):
        e = _random_lie(rng)
        assert parse_lie_element(format_element(e)) == e
        g = _random_gl(rng)
        assert parse_gl_element(format_element(g)) == g
        x = _random_c(rng)
        assert parse_c_element(format_element(x)) == x
        p = _random_ladder(rng)
        assert parse_ladder_poly(format_element(p)) == p


def test_json_roundtrip_bit_exact():
    rng = random.Random(31337)
    for _ in range(300):
        e = _random_lie(rng)
        assert lie_from_json(json.loads(json.dumps(element_to_json(e)))) == e
        g = _random_gl(rng)
        assert gl_from_json(json.loads(json.dumps(element_to_json(g)))) == g
        x = _random_c(rng)
        assert c_from_json(json.loads(json.dumps(element_to_json(x)))) == x
        p = _random_ladder(rng)
        assert ladder_from_json(json.loads(json.dumps(element_to_json(p)))) == p


def test_json_forms():
    obj = element_to_json(2 * Y - 3 * Z(1, 0))
    assert obj == {"y": "2", "z": [{"n": 1, "m": 0, "c": "-3"}]}
    assert element_to_json(F(1, 2) * E(0, 1)) == {"e": [{"i": 0, "j": 1, "c": "1/2"}]}
    assert element_to_json(t(0) * t(1) * t(1)) == \
        {"terms": [{"m": [0, 1, 1], "c": "1"}]}


def test_word_element_roundtrip():
    ab = Alphabet([Letter("a", 1), Letter("b", 2)])
    rng = random.Random(55)
    names = ("a", "b")
    for _ in range(200):
        terms = {}
        for _ in range(rng.randrange(4)):
            w1 = tuple(rng.choice(names) for _ in range(rng.randrange(3)))
            w2 = tuple(rng.choice(names) for _ in range(rng.randrange(3)))
            terms[(w1, w2)] = F(rng.randint(-5, 5), rng.randint(1, 4))
        wle = WordLieElement(terms)
        assert parse_word_element(format_element(wle), ab) == wle
    assert parse_word_element("Z[ab,e]", ab) == Zw(("a", "b"), ())
    with pytest.raises(ParseError):
        parse_word_element("Z[ac,e]", ab)
    with pytest.raises(ValueError):
        Letter("e", 1)


def test_zero_formats():
    assert format_element(LieElement()) == "0"
    assert format_element(GlElement()) == "0"
    assert format_element(LadderPoly()) == "0"
    assert format_element(CElement()) == "0"
    assert parse_lie_element("0").is_zero()


def test_printer_canonical_order():
    e = Z(2, 0) + Z(0, 1) + Y
    assert format_element(e) == "Y + Z[0,1] + Z[2,0]"
    assert format_element(-Y - Z(0, 1)) == "-Y - Z[0,1]"
    assert format_element(t(1) + LadderPoly.one()) == "1 + t[1]"


# Strings for the term scanner: the grammar's characters, every ASCII
# character str.isspace accepts, and a few non-ASCII look-alikes; and runs of
# grammar fragments, so that many strings are elements the scanner reads.
_CHARS = "ZEYCt[]^*/+-,0123456789abe_" + " \t\n\r\v\f\x1c\x1d\x1e\x1f" + "\uff11\uff3a\xa0"
_FRAGMENTS = ["Z[1,0]", "Z[ab,e]", "E[2,1]", "C[-3]", "t[1]^2", "t[0]", "Y", "3/4*", "2*",
              "0", " + ", " - ", "*", "^", "[", "]", ","] + list(_CHARS)
_SOURCES = st.text(_CHARS, max_size=24) | st.lists(st.sampled_from(_FRAGMENTS), max_size=8).map(
    "".join)
_AB = Alphabet([Letter("a", 1), Letter("b", 2)])


def _read(parse, src, alphabet):
    """The triples of ``parse``, with their types, or the ParseError text."""
    try:
        return repr(parse(src, alphabet))
    except ParseError as exc:
        return "ParseError: %s" % exc


def _character_reader(src, alphabet):
    return parsing._Parser(src, alphabet).parse_terms()


@settings(max_examples=2000, deadline=None)
@given(_SOURCES, st.sampled_from([None, _AB]))
def test_read_terms_equals_the_character_reader(src, alphabet):
    assert _read(parsing._read_terms, src, alphabet) == _read(_character_reader, src, alphabet)


@pytest.mark.parametrize("src, alphabet, scanned", [
    ("3Z[1,0]", None, False), ("Z1[1,0]", None, False), ("Yx", None, False),
    ("0/0*Z[1,0]", None, False), ("t[1]^0", None, False), ("C[ - 3 ]", None, True),
    ("+Z[1,0]", None, True), ("0 - Z[1,0]", None, True), ("Z[ac,e]", _AB, False),
    ("Z[ab,e] - 2*Z[e,b]", _AB, True), ("Z[1,0]", _AB, False), ("Z[a,b]", None, False),
    ("t[0]*t[1]^2 - 1/3", None, True), ("Z[1,0]\n", None, True), ("\uff12*Y", None, False)])
def test_the_term_scanner_on_named_edges(src, alphabet, scanned):
    assert (parsing._scan_terms(src, alphabet) is not None) == scanned
    assert _read(parsing._read_terms, src, alphabet) == _read(_character_reader, src, alphabet)
