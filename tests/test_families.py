"""The one family table of ``parsing``: ``str()``, text and JSON of every
element type, the JSON readers on repeated terms, and the cost of writing."""

import random
import re
import sys
from fractions import Fraction as F

import pytest

from ladderie import parsing
from ladderie.extension import CElement, Cgen
from ladderie.glinf import E, GlElement
from ladderie.ladder import LieElement, Y, Z
from ladderie.ladder_module import LadderPoly, TensorPoly, t
from ladderie.parsing import element_to_json, format_element
from ladderie.words import WordLieElement, WordPoly, Zw


@pytest.mark.parametrize("elem, text", [
    (F(1, 2) * Z(1, 0) - Y, "-Y + 1/2*Z[1,0]"),
    (E(0, 1) - 2 * E(1, 0), "E[0,1] - 2*E[1,0]"),
    (Cgen(2) + Cgen(-1, F(-3, 2)), "-3/2*C[-1] + C[2]"),
    (t(0) * t(1) * t(1) + 3 * LadderPoly.one(), "3 + t[0]*t[1]^2"),
    (Zw("a", "") - 2 * Zw("", "ab"), "-2*Z[e,ab] + Z[a,e]"),
    (TensorPoly({((0,), (1,)): 2}), "TensorPoly({((0,), (1,)): Fraction(2, 1)})"),
    (WordPoly({"ba": -1, "a": F(1, 2), "": 2, "b": 3}), "2*e + 1/2*a + 3*b - ba"),
])
def test_str_of_every_element_class(elem, text):
    """The six families print their text form; a type outside the table
    prints its repr."""
    assert str(elem) == text
    if type(elem) in parsing._FAMILIES:
        assert format_element(elem) == text
    else:
        assert text == repr(elem)


def test_word_poly_text_and_json_list_terms_by_length_then_word():
    rng = random.Random(7)
    words = ["", "a", "b", "ab", "ba", "aab", "bb"]
    for _ in range(50):
        poly = WordPoly((rng.choice(words), F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4)))
                        for _ in range(rng.randrange(8)))
        terms = element_to_json(poly)
        listed = [term["word"] for term in terms]
        assert listed == ["".join(w) or "e" for w in sorted(poly.terms, key=lambda w: (len(w), w))]
        assert re.findall(r"\b[abe]+\b", format_element(poly)) == listed
        assert WordPoly((term["word"].strip("e"), F(term["c"])) for term in terms) == poly


def test_word_element_json_lists_the_text_terms_in_order():
    rng = random.Random(5)
    words = ["", "a", "b", "ab", "ba", "aab"]
    for _ in range(50):
        wle = WordLieElement(((rng.choice(words), rng.choice(words)),
                              F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4)))
                             for _ in range(rng.randrange(8)))
        terms = element_to_json(wle)
        atoms = ["Z[%s,%s]" % (term["w1"], term["w2"]) for term in terms]
        assert re.findall(r"Z\[\w+,\w+\]", format_element(wle)) == atoms
        assert WordLieElement(((term["w1"].strip("e"), term["w2"].strip("e")), F(term["c"]))
                              for term in terms) == wle  # "e", the empty word, is no letter


def _repeated_terms(rng, keys):
    """Terms over ``keys`` with each key at least twice, shuffled."""
    terms = [(key, F(rng.randint(-5, 5), rng.randint(1, 3))) for key in keys * 2]
    rng.shuffle(terms)
    return terms


def _text(terms, atom) -> str:
    """Signed text of (key, Fraction) terms in their order."""
    return " ".join("%s %d/%d%s" % ("-" if c < 0 else "+", abs(c.numerator), c.denominator,
                                    "*" + atom(key) if atom(key) else "") for key, c in terms)


def test_json_readers_add_repeated_terms_as_the_text_reader_does():
    assert parsing.lie_from_json({"z": [{"n": 1, "m": 0, "c": "1"},
                                        {"n": 1, "m": 0, "c": "2"}]}) == 3 * Z(1, 0)
    assert parsing.ladder_from_json({"terms": [{"m": [0, 1], "c": 1}, {"m": [0, 1], "c": 1},
                                               {"m": [1, 0], "c": 1}]}) == 3 * t(0) * t(1)
    rng = random.Random(11)
    for _ in range(40):
        pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(4)]
        z = _repeated_terms(rng, pairs)
        text = _text(z, lambda k: "Z[%d,%d]" % k) + " + 1/2*Y - 1/3*Y"
        obj = {"y": "1/6", "z": [{"n": n, "m": m, "c": str(c)} for (n, m), c in z]}
        assert parsing.lie_from_json(obj) == parsing.parse_lie_element(text)
        e = _repeated_terms(rng, pairs)
        obj = {"e": [{"i": i, "j": j, "c": str(c)} for (i, j), c in e]}
        assert parsing.gl_from_json(obj) == parsing.parse_gl_element(
            _text(e, lambda k: "E[%d,%d]" % k))
        c = _repeated_terms(rng, [rng.randint(-3, 3) for _ in range(4)])
        obj = {"c": [{"d": d, "c": str(v)} for d, v in c]}
        assert parsing.c_from_json(obj) == parsing.parse_c_element(
            _text(c, lambda d: "C[%d]" % d))
        monos = [tuple(rng.randrange(3) for _ in range(rng.randrange(4))) for _ in range(4)]
        p = [(tuple(rng.sample(mono, len(mono))), v) for mono, v in _repeated_terms(rng, monos)]
        obj = {"terms": [{"m": list(mono), "c": str(v)} for mono, v in p]}
        assert parsing.ladder_from_json(obj) == parsing.parse_ladder_poly(
            _text(p, lambda m: "*".join("t[%d]" % k for k in m)))


def _fractions_made(fn):
    """How many Fractions ``fn()`` creates."""
    made = []
    new = F.__new__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            made.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return made


def test_writing_a_fraction_element_makes_no_fraction():
    rng = random.Random(3)

    def coeff():
        return F(rng.choice((-9, -1, 1, 4)), rng.choice((1, 2, 7)))

    pairs = rng.sample([(i, j) for i in range(8) for j in range(8)], 30)
    elems = [LieElement({k: coeff() for k in pairs}, F(-1, 3)),
             GlElement({k: coeff() for k in pairs}),
             CElement({d: coeff() for d in range(-15, 15)}),
             LadderPoly({(i, j, j): coeff() for i, j in pairs}),
             WordLieElement({("a" * i, "b" * j): coeff() for i, j in pairs}),
             WordPoly({"a" * i + "b" * j: coeff() for i, j in pairs})]
    assert all(len(x.terms) == 30 for x in elems)
    assert any(type(c) is F and c.denominator == 1 for x in elems for c in x.terms.values())
    assert _fractions_made(lambda: [(format_element(x), element_to_json(x))
                                    for x in elems]) == []
