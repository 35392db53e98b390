"""Text and JSON forms for algebra elements.

Grammar (round-trips bit-exactly with the printers):

    element := ["-"] term (("+"|"-") term)*
    term    := coeff | coeff "*" factors | factors
    factors := atom ("*" atom)*              products only for t monomials
    atom    := "Z[" n "," m "]" | "E[" i "," j "]" | "Y"
             | "t[" k "]" ("^" power)? | "C[" d "]"
    coeff   := int | int "/" int

A word element reads its Z atoms as "Z[" word "," word "]", a word being
letter names run together or "e" for the empty word.

Z, E and t indices must be non-negative; C degrees may be signed.  Bare
rational constants denote multiples of the unit monomial and are only legal
in ladder polynomials (except the literal "0", which is the zero element of
every type).
"""

from __future__ import annotations

from fractions import Fraction

from .extension import CElement
from .glinf import GlElement
from .ladder import LieElement
from .ladder_module import MAX_MONOMIAL_DEGREE, LadderPoly
from .linalg import int_from_json, scalar_from_json, scalar_to_str
from .words import WordLieElement, WordPoly


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s at position %d" % (message, pos))
        self.pos = pos


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            tokens.append(("INT", src[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("NAME", src[i:j], i))
            i = j
        elif ch in "[]+-*/^,":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    """Recursive-descent reader of the element grammar.  With an
    ``alphabet``, Z atoms carry a pair of words instead of two indices."""

    def __init__(self, src: str, alphabet=None):
        self.tokens = _tokenize(src)
        self.k = 0
        self.alphabet = alphabet

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            what = repr(tok[1]) if tok[1] else "end of input"
            raise ParseError("expected %s, found %s" % (kind, what), tok[2])
        self.k += 1
        return tok

    def parse_terms(self):
        """List of (coefficient, atoms, position) triples."""
        terms = []
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        elif self.peek()[0] == "+":
            self.take()
        terms.append(self.term(sign))
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            terms.append(self.term(-1 if op == "-" else 1))
        self.take("EOF")
        return terms

    def term(self, sign):
        pos = self.peek()[2]
        coeff = sign
        atoms = []
        if self.peek()[0] == "INT":
            coeff = self.rational(sign)
            if self.peek()[0] == "*":
                self.take()
                atoms = self.factors()
        else:
            atoms = self.factors()
        return (coeff, atoms, pos)

    def rational(self, sign):
        """``sign`` times a literal: an int, or a Fraction when it has a
        denominator."""
        num = sign * int(self.take("INT")[1])
        if self.peek()[0] == "/":
            self.take()
            den_tok = self.take("INT")
            if int(den_tok[1]) == 0:
                raise ParseError("zero denominator", den_tok[2])
            return Fraction(num, int(den_tok[1]))
        return num

    def factors(self):
        atoms = [self.atom()]
        while self.peek()[0] == "*":
            self.take()
            atoms.append(self.atom())
        return atoms

    def atom(self):
        kind, text, pos = self.take()
        if kind != "NAME":
            raise ParseError("expected a generator", pos)
        if text == "Y":
            return ("Y", None)
        if text == "Z":
            return ("Z", self.index_pair(words=self.alphabet is not None))
        if text == "E":
            return ("E", self.index_pair())
        if text == "t":
            k = self.index_single(signed=False)
            power = 1
            if self.peek()[0] == "^":
                self.take()
                ptok = self.take("INT")
                power = int(ptok[1])
                if power < 1:
                    raise ParseError("power must be >= 1", ptok[2])
            return ("T", (k, power))
        if text == "C":
            return ("C", (self.index_single(signed=True),))
        raise ParseError("unknown generator %r" % text, pos)

    def index_pair(self, words: bool = False):
        read = self.word if words else lambda: self.integer(signed=False)
        self.take("[")
        a = read()
        self.take(",")
        b = read()
        self.take("]")
        return (a, b)

    def word(self):
        """Word text form: concatenated single-character letter names, or "e"."""
        _, text, pos = self.take("NAME")
        if text == "e":
            return ()
        for ch in text:
            if ch not in self.alphabet:
                raise ParseError("unknown letter %r" % ch, pos)
        return tuple(text)

    def index_single(self, signed: bool):
        self.take("[")
        a = self.integer(signed)
        self.take("]")
        return a

    def integer(self, signed: bool):
        sign = 1
        tok = self.peek()
        if tok[0] == "-":
            if not signed:
                raise ParseError("negative index", tok[2])
            self.take()
            sign = -1
        return sign * int(self.take("INT")[1])


def _single_atom(terms, kinds, what):
    """Yield (coeff, payload) for term lists whose terms are single atoms of
    the given kinds; zero bare constants are allowed and skipped."""
    for coeff, atoms, pos in terms:
        if not atoms:
            if coeff:
                raise ParseError("bare constant in %s" % what, pos)
            continue
        if len(atoms) != 1 or atoms[0][0] not in kinds:
            raise ParseError("expected a single %s generator per term" % "/".join(kinds), pos)
        yield coeff, atoms[0]


def _lie_from_terms(terms) -> LieElement:
    z = []
    y = 0
    for coeff, (kind, payload) in _single_atom(terms, ("Z", "Y"), "a Z/Y element"):
        if kind == "Y":
            y += coeff
        else:
            z.append((payload, coeff))
    return LieElement(z, y)


def _gl_from_terms(terms) -> GlElement:
    return GlElement((payload, coeff) for coeff, (_, payload) in _single_atom(
        terms, ("E",), "an E element"))


def _c_from_terms(terms) -> CElement:
    return CElement((payload[0], coeff) for coeff, (_, payload) in _single_atom(
        terms, ("C",), "a C element"))


def _ladder_from_terms(terms) -> LadderPoly:
    for _, atoms, pos in terms:
        if any(kind != "T" for kind, _ in atoms):
            raise ParseError("expected a t generator", pos)
        if (degree := sum(power for _, (_, power) in atoms)) > MAX_MONOMIAL_DEGREE:
            raise ParseError("monomial degree %d exceeds %d" % (degree, MAX_MONOMIAL_DEGREE), pos)
    return LadderPoly(([k for _, (k, power) in atoms for _ in range(power)], coeff)
                      for coeff, atoms, _ in terms)


def parse_lie_element(src: str) -> LieElement:
    return _lie_from_terms(_Parser(src).parse_terms())


def parse_gl_element(src: str) -> GlElement:
    return _gl_from_terms(_Parser(src).parse_terms())


def parse_c_element(src: str) -> CElement:
    return _c_from_terms(_Parser(src).parse_terms())


def parse_ladder_poly(src: str) -> LadderPoly:
    return _ladder_from_terms(_Parser(src).parse_terms())


def parse_element(src: str):
    """Dispatch on the generators present: Z/Y make a Lie element, E a
    gl element, C a quotient element, t (or none) a ladder polynomial."""
    terms = _Parser(src).parse_terms()
    kinds = {kind for _, atoms, _ in terms for kind, _ in atoms}
    for family, build in ((("Z", "Y"), _lie_from_terms), (("E",), _gl_from_terms),
                          (("C",), _c_from_terms)):
        if kinds & set(family):
            if kinds - set(family):
                raise ParseError("mixed generator families", next(
                    pos for _, atoms, pos in terms for kind, _ in atoms if kind not in family))
            return build(terms)
    return _ladder_from_terms(terms)


def _join_terms(parts) -> str:
    """(coefficient, body) pairs as signed text.  Each sign and magnitude is
    read from the numerator and denominator, so no Fraction is made."""
    if not parts:
        return "0"
    out = []
    for idx, (coeff, body) in enumerate(parts):
        num, den = coeff.numerator, coeff.denominator
        text = str(abs(num)) if den == 1 else "%d/%d" % (abs(num), den)
        if body:
            text = body if text == "1" else text + "*" + body
        if idx == 0:
            out.append("-" + text if num < 0 else text)
        else:
            out.append((" - " if num < 0 else " + ") + text)
    return "".join(out)


def format_monomial(mono) -> str:
    factors = []
    k = 0
    while k < len(mono):
        j = k
        while j < len(mono) and mono[j] == mono[k]:
            j += 1
        power = j - k
        factors.append("t[%d]" % mono[k] if power == 1 else "t[%d]^%d" % (mono[k], power))
        k = j
    return "*".join(factors)


def format_word(w) -> str:
    return "".join(w) if w else "e"


# Element type -> (JSON list name, key order, text of a key, JSON fields of a
# key).  A word element's or word polynomial's JSON is its bare term list; a
# Lie element also writes its Y coefficient, first in the text and as "y" in
# the JSON.
_FAMILIES = {
    LieElement: ("z", None, lambda k: "Z[%d,%d]" % k, lambda k: {"n": k[0], "m": k[1]}),
    GlElement: ("e", None, lambda k: "E[%d,%d]" % k, lambda k: {"i": k[0], "j": k[1]}),
    CElement: ("c", None, lambda d: "C[%d]" % d, lambda d: {"d": d}),
    LadderPoly: ("terms", lambda m: (len(m), m), format_monomial, lambda m: {"m": list(m)}),
    WordLieElement: (None, None, lambda k: "Z[%s,%s]" % (format_word(k[0]), format_word(k[1])),
                     lambda k: {"w1": format_word(k[0]), "w2": format_word(k[1])}),
    WordPoly: (None, lambda w: (len(w), w), format_word, lambda w: {"word": format_word(w)}),
}


def family_terms(x) -> list:
    """The (key, coefficient) pairs of an element of a type in
    ``_FAMILIES``, in its family's key order."""
    terms = x.terms
    return [(k, terms[k]) for k in sorted(terms, key=_FAMILIES[type(x)][1])]


def format_element(x) -> str:
    """The text form of an element of a type in ``_FAMILIES``."""
    text = _FAMILIES[type(x)][2]
    parts = [(x.y, "Y")] if type(x) is LieElement and x.y else []
    parts.extend((c, text(k)) for k, c in family_terms(x))
    return _join_terms(parts)


def element_to_json(x):
    """The JSON form of an element of a type in ``_FAMILIES``: its term
    objects, each with its coefficient as "c", under the list name."""
    name, _, _, fields = _FAMILIES[type(x)]
    terms = [{**fields(k), "c": scalar_to_str(c)} for k, c in family_terms(x)]
    if name is None:
        return terms
    return {"y": scalar_to_str(x.y), name: terms} if type(x) is LieElement else {name: terms}


def parse_word_element(src: str, alphabet) -> WordLieElement:
    """Combinations of word generators Z[w1,w2] over the given alphabet."""
    return WordLieElement((payload, coeff) for coeff, (_, payload) in _single_atom(
        _Parser(src, alphabet).parse_terms(), ("Z",), "a word element"))


def _json_terms(obj, key: str, index) -> list:
    """(index(term), coefficient) pairs over the JSON term objects listed
    under ``key`` of the JSON object ``obj`` (none when the key is absent);
    a repeated term stays, for the element constructor to add up."""
    items = obj.get(key, []) if isinstance(obj, dict) else None
    if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
        raise ValueError("expected a JSON object whose %r is a list of objects" % key)
    return [(index(item), scalar_from_json(item.get("c"), "coefficient")) for item in items]


def _index(item: dict, key: str, signed: bool = False) -> int:
    return int_from_json(item.get(key), "index %s" % key, signed)


def _monomial(item: dict) -> tuple:
    mono = item.get("m")
    if not isinstance(mono, list):
        raise ValueError("monomial %r is not a JSON list" % (mono,))
    return tuple(int_from_json(k, "t index", signed=False) for k in mono)


def lie_from_json(obj) -> LieElement:
    z = _json_terms(obj, "z", lambda item: (_index(item, "n"), _index(item, "m")))
    return LieElement(z, scalar_from_json(obj.get("y", "0"), "Y coefficient"))


def gl_from_json(obj) -> GlElement:
    return GlElement(_json_terms(obj, "e", lambda item: (_index(item, "i"), _index(item, "j"))))


def c_from_json(obj) -> CElement:
    return CElement(_json_terms(obj, "c", lambda item: _index(item, "d", signed=True)))


def ladder_from_json(obj) -> LadderPoly:
    return LadderPoly(_json_terms(obj, "terms", _monomial))
