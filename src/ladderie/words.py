"""Word Hopf algebra over a finite graded alphabet, the word
insertion-elimination bracket, the ladder-to-word comparison maps, and
linear Dyson-Schwinger expansions.

Words are tuples of letter names; the empty tuple is the unit word.  Each
letter carries a loop degree (>= 1) and a symmetry weight; a word's alpha
order is the sum of its letter degrees, its augmentation degree is its
letter count.  Generators Z[w1,w2] replace the prefix w2 by w1 and kill
words not starting with w2, so a product of two is one generator or zero:
Z[w1,w2] Z[w3,w4] is Z[w1 r, w4] if w3 = w2 r, Z[w1, w4 r] if w2 = w3 r
(the polycyclic monoid of prefix replacements).  The bracket is the
commutator [a, b] = ab - ba, as in ``ladder``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import ladder, ladder_module
from .linalg import (SparseElement, add_into, bilinear, commutator, int_from_json, numerators,
                     over, scalar_from_json, scalar_to_str)

Word = tuple  # of letter names

EMPTY_WORD: Word = ()


_NAME_RULE = "letter name %r is not a single letter or '_' other than 'e'"


@dataclass(frozen=True)
class Letter:
    """A letter of an alphabet.  Its name is one letter or "_", because the
    text form of a word runs letter names together as one name token of the
    element grammar.  The text forms also refuse the name "e", which they
    write for the empty word."""

    name: str
    degree: int
    sym: Fraction = Fraction(1)

    def __post_init__(self):
        if not (isinstance(self.name, str) and len(self.name) == 1
                and (self.name.isalpha() or self.name == "_")):
            raise ValueError(_NAME_RULE % (self.name,))
        if self.degree < 1:
            raise ValueError("letter degree must be >= 1")
        object.__setattr__(self, "sym", Fraction(self.sym))
        if self.sym <= 0:
            raise ValueError("symmetry factor must be positive")


class Alphabet:
    """Ordered finite collection of letters with unique names."""

    def __init__(self, letters):
        self.letters = tuple(letters)
        if not self.letters:
            raise ValueError("an alphabet needs at least one letter")
        self._by_name = {}
        for letter in self.letters:
            if letter.name in self._by_name:
                raise ValueError("duplicate letter %r" % letter.name)
            self._by_name[letter.name] = letter

    @property
    def size(self) -> int:
        return len(self.letters)

    def letter(self, name: str) -> Letter:
        return self._by_name[name]

    def __contains__(self, name) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self.letters)

    def words(self, aug_degree: int) -> list:
        """All words of the given augmentation degree, in letter order."""
        return list(product(self._by_name, repeat=aug_degree))

    def word_count(self, aug_degree: int) -> int:
        return self.size ** aug_degree

    def alpha_degree(self, word: Word) -> int:
        return sum(self._by_name[name].degree for name in word)

    def sym_weight(self, word: Word) -> Fraction:
        out = Fraction(1)
        for name in word:
            out /= self._by_name[name].sym
        return out


def alphabet_from_json(obj) -> Alphabet:
    """Load {"letters": [{"name", "degree", "sym"}, ...]}.

    A name follows the rule of ``Letter`` and is not "e"; ``degree`` is a
    JSON integer and ``sym`` a JSON integer or a "p/q" string, so no value
    is rounded.  Anything else raises ValueError.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("letters"), list):
        raise ValueError('an alphabet must be a JSON object with a "letters" list')
    letters = []
    for item in obj["letters"]:
        if not isinstance(item, dict):
            raise ValueError("alphabet letter %r is not a JSON object" % (item,))
        name = item.get("name")
        if name == "e":
            raise ValueError(_NAME_RULE % (name,))
        degree = int_from_json(item.get("degree"), "letter %r: degree" % (name,))
        sym = scalar_from_json(item.get("sym", "1"), "letter %r: sym" % (name,))
        letters.append(Letter(name, degree, sym))
    return Alphabet(letters)


def alphabet_to_json(alphabet: Alphabet) -> dict:
    return {"letters": [{"name": l.name, "degree": l.degree, "sym": scalar_to_str(l.sym)}
                        for l in alphabet]}


class WordPoly(SparseElement):
    """Zero-free combination of words."""

    __slots__ = ()
    _key = staticmethod(tuple)


class WordLieElement(SparseElement):
    """Zero-free combination of word generators Z[w1,w2]."""

    __slots__ = ()

    @staticmethod
    def _key(pair) -> tuple:
        return tuple(pair[0]), tuple(pair[1])


def Zw(w1, w2, coeff=1) -> WordLieElement:
    return WordLieElement({(tuple(w1), tuple(w2)): coeff})


def act_on_word(w1: Word, w2: Word, w: Word):
    """Z[w1,w2] applied to the word w: prefix replacement, or None."""
    k = len(w2)
    if w[:k] == w2:
        return w1 + w[k:]
    return None


def _act_w(tg: dict, tp: dict) -> dict:
    """Action of the generator combination ``tg`` on the word combination
    ``tp``, as dicts; int coefficients give int results."""
    return add_into({}, (
        (out, cg * cw)
        for (w1, w2), cg in tg.items()
        for w, cw in tp.items()
        if (out := act_on_word(w1, w2, w)) is not None))


def act_word(g: WordLieElement, p: WordPoly) -> WordPoly:
    ng, dg = numerators(g.terms)
    np_, dp = numerators(p.terms)
    return WordPoly._from_canonical(over(_act_w(ng, np_), dg * dp))


def generator_product_words(w1: Word, w2: Word, w3: Word, w4: Word):
    """Z[w1,w2] Z[w3,w4]: one generator (w1', w4') or None for zero."""
    out = act_on_word(w1, w2, w3)
    if out is not None:
        return (out, w4)
    out = act_on_word(w4, w3, w2)
    if out is not None:
        return (w1, out)
    return None


def generator_bracket_words(w1: Word, w2: Word, w3: Word, w4: Word) -> dict:
    """[Z[w1,w2], Z[w3,w4]]; ``generator_product_words`` is looked up at
    call time."""
    return commutator(generator_product_words(w1, w2, w3, w4),
                      generator_product_words(w3, w4, w1, w2))


def _bracket_w(ta: dict, tb: dict) -> dict:
    """Word bracket of two generator combinations, as dicts; int
    coefficients give int results.  ``generator_bracket_words`` is looked
    up at call time, so patching the module attribute reaches every caller."""
    return bilinear(generator_bracket_words, ta, tb)


def bracket_words(a: WordLieElement, b: WordLieElement) -> WordLieElement:
    na, da = numerators(a.terms)
    nb, db = numerators(b.terms)
    return WordLieElement._from_canonical(over(_bracket_w(na, nb), da * db))


def word_coproduct(w: Word) -> dict:
    """Deconcatenation: all prefix/suffix splits including the empty ends."""
    w = tuple(w)
    return {(w[:k], w[k:]): Fraction(1) for k in range(len(w) + 1)}


def word_poly_coproduct(p: WordPoly) -> dict:
    return add_into({}, ((key, c) for w, c in p.terms.items() for key in word_coproduct(w)))


def iota_h(k: int, alphabet: Alphabet) -> WordPoly:
    """Image of t[k]: the plain sum of all words of augmentation degree k
    (alpha orders are recomputed per word from the alphabet)."""
    if k < 0:
        raise ValueError("negative ladder index")
    return WordPoly({w: 1 for w in alphabet.words(k)})


def iota_l(n: int, m: int, alphabet: Alphabet) -> WordLieElement:
    """Image of Z[n,m]: the average over word generators of augmentation
    bidegree (n, m), normalized by the count of elimination words."""
    if n < 0 or m < 0:
        raise ValueError("negative augmentation degree")
    weight = Fraction(1, alphabet.word_count(m))
    return WordLieElement({(w1, w2): weight
                           for w1 in alphabet.words(n)
                           for w2 in alphabet.words(m)})


def ladder_action_image(n: int, m: int, k: int, alphabet: Alphabet) -> WordPoly:
    """Word image of Z[n,m] t[k]."""
    knew = ladder_module.act_generator(n, m, k)
    if knew is None:
        return WordPoly()
    return iota_h(knew, alphabet)


@dataclass(frozen=True)
class IotaReport:
    passed: bool
    description: str
    counterexample: str | None = None


def check_iota_action(n: int, m: int, k: int, alphabet: Alphabet) -> IotaReport:
    """Both routes of the comparison square for a single generator: word
    image of Z[n,m] t[k] versus the word action of the generator image."""
    lhs = ladder_action_image(n, m, k, alphabet)
    rhs = act_word(iota_l(n, m, alphabet), iota_h(k, alphabet))
    desc = "iota action (n=%d, m=%d, k=%d, %d letters)" % (n, m, k, alphabet.size)
    if lhs == rhs:
        return IotaReport(True, desc)
    return IotaReport(False, desc, "lhs=%r rhs=%r" % (lhs, rhs))


def check_iota_bracket(n1: int, m1: int, n2: int, m2: int, k: int,
                       alphabet: Alphabet) -> IotaReport:
    """Bracket form of the comparison: the word bracket of the two generator
    images, applied to the image of t[k], versus the image of the ladder
    bracket applied to t[k]."""
    br = ladder.generator_bracket(n1, m1, n2, m2)
    lhs = WordPoly()
    for (a, b), c in br.items():
        lhs = lhs + c * ladder_action_image(a, b, k, alphabet)
    wb = bracket_words(iota_l(n1, m1, alphabet), iota_l(n2, m2, alphabet))
    rhs = act_word(wb, iota_h(k, alphabet))
    desc = "iota bracket ((%d,%d),(%d,%d), k=%d, %d letters)" % (
        n1, m1, n2, m2, k, alphabet.size)
    if lhs == rhs:
        return IotaReport(True, desc)
    return IotaReport(False, desc, "lhs=%r rhs=%r" % (lhs, rhs))


def check_iota_compat(n: int, m: int, k: int, alphabet: Alphabet) -> IotaReport:
    """Action form for (n, m, k) plus the bracket form for the conjugate
    pair (n,m),(m,n)."""
    action = check_iota_action(n, m, k, alphabet)
    if not action.passed:
        return action
    return check_iota_bracket(n, m, m, n, k, alphabet)


@dataclass(frozen=True)
class DseExpansion:
    """Truncated solution of the linear fixpoint equation.

    ``c[j]`` collects the words of alpha order j, ``d[j]`` the words of
    augmentation degree j; both carry the product of inverse symmetry
    weights and index 0 is the unit."""

    order: int
    c: tuple
    d: tuple


#: dse_expand refuses expansions holding more letters than this.
MAX_DSE_LETTERS = 2 ** 24


def _dse_letters(alphabet: Alphabet, order: int) -> int:
    """Letters of the expansion, each alpha order counting 32 more for its
    two parts; the count stops once it passes ``MAX_DSE_LETTERS``."""
    words, letters, total = [1], [0], 32
    for j in range(1, order + 1):
        prev = [j - l.degree for l in alphabet if l.degree <= j]
        words.append(sum(words[i] for i in prev))
        letters.append(sum(letters[i] + words[i] for i in prev))
        total += letters[j] + 32
        if total > MAX_DSE_LETTERS:
            break
    return total


def dse_expand(alphabet: Alphabet, order: int) -> DseExpansion:
    """Solve G = 1 + sum over letters of (1/sym) prepend(G) to alpha order
    ``order`` in one pass: a word of order j is a letter followed by a word
    of order j - degree.  Then regrade by letter count."""
    if order < 0:
        raise ValueError("order must be >= 0")
    size = _dse_letters(alphabet, order)
    if size > MAX_DSE_LETTERS:
        raise ValueError("the expansion to order %d needs at least %d letters (each order "
                         "counts 32), more than the limit of %d" % (order, size, MAX_DSE_LETTERS))
    c_parts = [{EMPTY_WORD: Fraction(1)}]
    for j in range(1, order + 1):  # letter names are unique: each word arises once
        c_parts.append({(l.name,) + word: coeff / l.sym
                        for l in alphabet if l.degree <= j
                        for word, coeff in c_parts[j - l.degree].items()})
    d_parts = [dict() for _ in range(order + 1)]
    for part in c_parts:
        for word, coeff in part.items():
            d_parts[len(word)][word] = coeff
    return DseExpansion(order,
                        tuple(WordPoly(p) for p in c_parts),
                        tuple(WordPoly(p) for p in d_parts))
