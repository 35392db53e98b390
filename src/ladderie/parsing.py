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
from .ladder_module import LadderPoly
from .linalg import int_from_json, scalar_from_json, scalar_to_str
from .words import WordLieElement


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
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
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
        coeff = Fraction(sign)
        atoms = []
        if self.peek()[0] == "INT":
            coeff *= self.rational()
            if self.peek()[0] == "*":
                self.take()
                atoms = self.factors()
        else:
            atoms = self.factors()
        return (coeff, atoms, pos)

    def rational(self):
        num = int(self.take("INT")[1])
        if self.peek()[0] == "/":
            self.take()
            den_tok = self.take("INT")
            if int(den_tok[1]) == 0:
                raise ParseError("zero denominator", den_tok[2])
            return Fraction(num, int(den_tok[1]))
        return Fraction(num)

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
        if "e" in self.alphabet:
            raise ParseError("alphabet has names unusable in text form "
                             "(need single characters other than 'e')", pos)
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
    y = Fraction(0)
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
    if not parts:
        return "0"
    out = []
    for idx, (coeff, body) in enumerate(parts):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if body and mag == 1:
            text = body
        elif body:
            text = "%s*%s" % (scalar_to_str(mag), body)
        else:
            text = scalar_to_str(mag)
        if idx == 0:
            out.append("-" + text if neg else text)
        else:
            out.append((" - " if neg else " + ") + text)
    return "".join(out)


def format_lie_element(e: LieElement) -> str:
    parts = []
    if e.y:
        parts.append((e.y, "Y"))
    for n, m in sorted(e.z):
        parts.append((e.z[(n, m)], "Z[%d,%d]" % (n, m)))
    return _join_terms(parts)


def format_gl_element(g: GlElement) -> str:
    return _join_terms([(g.e[(i, j)], "E[%d,%d]" % (i, j)) for i, j in sorted(g.e)])


def format_c_element(x: CElement) -> str:
    return _join_terms([(x.terms[d], "C[%d]" % d) for d in sorted(x.terms)])


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


def format_ladder_poly(p: LadderPoly) -> str:
    parts = []
    for mono in sorted(p.terms, key=lambda m: (len(m), m)):
        parts.append((p.terms[mono], format_monomial(mono)))
    return _join_terms(parts)


def format_word(w) -> str:
    return "".join(w) if w else "e"


def format_word_element(wle: WordLieElement) -> str:
    parts = []
    for w1, w2 in sorted(wle.terms):
        parts.append((wle.terms[(w1, w2)],
                      "Z[%s,%s]" % (format_word(w1), format_word(w2))))
    return _join_terms(parts)


def parse_word_element(src: str, alphabet) -> WordLieElement:
    """Combinations of word generators Z[w1,w2] over the given alphabet."""
    return WordLieElement((payload, coeff) for coeff, (_, payload) in _single_atom(
        _Parser(src, alphabet).parse_terms(), ("Z",), "a word element"))


def _json_terms(obj, key: str, index) -> dict:
    """{index(term): coefficient} over the JSON term objects listed under
    ``key`` of the JSON object ``obj`` (none when the key is absent)."""
    items = obj.get(key, []) if isinstance(obj, dict) else None
    if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
        raise ValueError("expected a JSON object whose %r is a list of objects" % key)
    return {index(item): scalar_from_json(item.get("c"), "coefficient") for item in items}


def _index(item: dict, key: str, signed: bool = False) -> int:
    return int_from_json(item.get(key), "index %s" % key, signed)


def _monomial(item: dict) -> tuple:
    mono = item.get("m")
    if not isinstance(mono, list):
        raise ValueError("monomial %r is not a JSON list" % (mono,))
    return tuple(int_from_json(k, "t index", signed=False) for k in mono)


def lie_to_json(e: LieElement) -> dict:
    return {"y": scalar_to_str(e.y),
            "z": [{"n": n, "m": m, "c": scalar_to_str(e.z[(n, m)])}
                  for n, m in sorted(e.z)]}


def lie_from_json(obj) -> LieElement:
    z = _json_terms(obj, "z", lambda item: (_index(item, "n"), _index(item, "m")))
    return LieElement(z, scalar_from_json(obj.get("y", "0"), "Y coefficient"))


def gl_to_json(g: GlElement) -> dict:
    return {"e": [{"i": i, "j": j, "c": scalar_to_str(g.e[(i, j)])}
                  for i, j in sorted(g.e)]}


def gl_from_json(obj) -> GlElement:
    return GlElement(_json_terms(obj, "e", lambda item: (_index(item, "i"), _index(item, "j"))))


def c_to_json(x: CElement) -> dict:
    return {"c": [{"d": d, "c": scalar_to_str(x.terms[d])} for d in sorted(x.terms)]}


def c_from_json(obj) -> CElement:
    return CElement(_json_terms(obj, "c", lambda item: _index(item, "d", signed=True)))


def ladder_to_json(p: LadderPoly) -> dict:
    return {"terms": [{"m": list(mono), "c": scalar_to_str(p.terms[mono])}
                      for mono in sorted(p.terms, key=lambda m: (len(m), m))]}


def ladder_from_json(obj) -> LadderPoly:
    return LadderPoly(_json_terms(obj, "terms", _monomial))
