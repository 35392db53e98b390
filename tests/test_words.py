from fractions import Fraction as F
from itertools import product

import pytest

from helpers import act_on_word
from ladderie import ladder, ladder_module, words
from ladderie.words import (Alphabet, Letter, WordPoly, Zw,
                            act_word, alphabet_from_json,
                            alphabet_to_json, bracket_words, check_iota_action,
                            check_iota_bracket, generator_bracket_words, iota_h,
                            iota_l, word_coproduct, word_poly_coproduct)

P = ("p",)
Q = ("q",)
EMPTY = ()


def two_letters():
    return Alphabet([Letter("a", 1), Letter("b", 2)])


def one_letter():
    return Alphabet([Letter("a", 1)])


def test_letter_validation():
    with pytest.raises(ValueError):
        Letter("a", 0)
    with pytest.raises(ValueError):
        Letter("a", 1, F(-1, 2))
    with pytest.raises(ValueError):
        Alphabet([Letter("a", 1), Letter("a", 2)])


def test_alphabet_json_roundtrip():
    ab = Alphabet([Letter("a", 1, F(1, 2)), Letter("b", 3)])
    again = alphabet_from_json(alphabet_to_json(ab))
    assert again.letters == ab.letters
    assert ab.alpha_degree(("a", "b", "a")) == 5
    assert ab.word_count(2) == 4


def test_act_examples():
    assert act_on_word(Q, P, P) == Q
    assert act_on_word(Q, P, Q) is None
    assert act_on_word(P, P, ("p", "q")) == ("p", "q")
    assert act_on_word(P, EMPTY, EMPTY) == P  # empty suffix allowed


def test_bracket_examples():
    assert bracket_words(Zw(P, EMPTY), Zw(EMPTY, P)) == \
        Zw(P, P) - Zw(EMPTY, EMPTY)
    # two insertion-only generators concatenate in either order; the
    # difference acts as zero on every symmetrized word sum even though the
    # element itself is nonzero for distinct letters
    assert bracket_words(Zw(P, EMPTY), Zw(Q, EMPTY)) == \
        Zw(("p", "q"), EMPTY) - Zw(("q", "p"), EMPTY)
    w = ("p", "q")
    assert bracket_words(Zw(w, w), Zw(w, w)).is_zero()


def test_insertion_images_commute_through_the_concatenation_bijection():
    alphabet = two_letters()
    # averaged insertion images commute outright: prepending all n-letter
    # words then all l-letter words covers the (n+l)-letter words either way
    for n, l in ((1, 2), (2, 2), (1, 3)):
        br = bracket_words(iota_l(n, 0, alphabet), iota_l(l, 0, alphabet))
        assert br.is_zero()
    # individual insertion generators do not commute; their commutator is
    # the difference of the two concatenation orders in action as well
    br = bracket_words(Zw(("a",), EMPTY), Zw(("b",), EMPTY))
    assert br == Zw(("a", "b"), EMPTY) - Zw(("b", "a"), EMPTY)
    image = act_word(br, iota_h(1, alphabet))
    assert set(image.terms) == {("a", "b", w) for w in "ab"} \
        | {("b", "a", w) for w in "ab"}


def _generators(alphabet, max_len):
    ws = [w for k in range(max_len + 1) for w in alphabet.words(k)]
    return [Zw(w1, w2) for w1 in ws for w2 in ws]


def test_word_bracket_antisymmetry_and_jacobi_small():
    gens = _generators(two_letters(), 1)
    for a in gens:
        for b in gens:
            assert (bracket_words(a, b) + bracket_words(b, a)).is_zero()
            ab = bracket_words(a, b)
            for c in gens:
                total = (bracket_words(ab, c)
                         + bracket_words(bracket_words(b, c), a)
                         + bracket_words(bracket_words(c, a), b))
                assert total.is_zero()


def test_action_is_a_representation_small():
    alphabet = two_letters()
    gens = _generators(alphabet, 1)
    targets = [WordPoly({w: 1}) for k in range(3) for w in alphabet.words(k)]
    for a in gens:
        for b in gens:
            ab = bracket_words(a, b)
            for p in targets:
                lhs = act_word(ab, p)
                rhs = (act_word(a, act_word(b, p))
                       - act_word(b, act_word(a, p)))
                assert lhs == rhs


def test_iota_h_examples():
    ab = two_letters()
    assert iota_h(0, ab) == WordPoly({EMPTY: 1})
    assert iota_h(1, ab) == WordPoly({("a",): 1, ("b",): 1})
    assert iota_h(2, ab) == WordPoly({("a", "a"): 1, ("a", "b"): 1,
                                      ("b", "a"): 1, ("b", "b"): 1})
    assert [ab.alpha_degree(w) for w in sorted(iota_h(1, ab).terms)] == [1, 2]
    assert sorted(ab.alpha_degree(w) for w in iota_h(2, ab).terms) == [2, 3, 3, 4]


def test_iota_l_examples():
    ab = two_letters()
    assert iota_l(0, 0, ab) == Zw(EMPTY, EMPTY)
    assert iota_l(1, 0, ab) == Zw(("a",), EMPTY) + Zw(("b",), EMPTY)
    assert iota_l(0, 1, ab) == F(1, 2) * (Zw(EMPTY, ("a",)) + Zw(EMPTY, ("b",)))


def test_iota_compat_examples():
    assert check_iota_action(1, 1, 2, one_letter()).passed
    assert check_iota_bracket(1, 1, 1, 1, 2, one_letter()).passed
    assert check_iota_action(2, 3, 1, two_letters()).passed  # both sides zero
    assert check_iota_bracket(2, 3, 3, 2, 1, two_letters()).passed
    report = check_iota_action(1, 0, 0, two_letters())
    assert report.passed
    assert act_word(iota_l(1, 0, two_letters()), iota_h(0, two_letters())) == \
        iota_h(1, two_letters())


def test_iota_compat_window():
    for alphabet in (one_letter(), two_letters()):
        for n, m, k in product(range(3), repeat=3):
            assert check_iota_action(n, m, k, alphabet).passed
            assert check_iota_bracket(n, m, m, n, k, alphabet).passed


def test_iota_bracket_spot():
    for alphabet in (one_letter(), two_letters()):
        assert check_iota_bracket(1, 0, 0, 1, 1, alphabet).passed
        assert check_iota_bracket(2, 1, 1, 2, 2, alphabet).passed


def test_word_coproduct_examples():
    assert word_coproduct(EMPTY) == {(EMPTY, EMPTY): 1}
    assert word_coproduct(("a", "b")) == {(EMPTY, ("a", "b")): 1,
                                          (("a",), ("b",)): 1,
                                          (("a", "b"), EMPTY): 1}
    assert word_coproduct(P) == {(EMPTY, P): 1, (P, EMPTY): 1}


def test_word_coproduct_coassociative():
    w = ("a", "b", "a")
    left = {}
    right = {}
    for (u, v), _ in word_coproduct(w).items():
        for (u1, u2), _ in word_coproduct(u).items():
            left[(u1, u2, v)] = left.get((u1, u2, v), 0) + 1
        for (v1, v2), _ in word_coproduct(v).items():
            right[(u, v1, v2)] = right.get((u, v1, v2), 0) + 1
    assert left == right


def test_iota_h_is_a_coalgebra_map():
    ab = two_letters()
    for n in range(6):
        lhs = word_poly_coproduct(iota_h(n, ab))
        rhs = {}
        for j in range(n + 1):
            for w1 in iota_h(j, ab).terms:
                for w2 in iota_h(n - j, ab).terms:
                    rhs[(w1, w2)] = rhs.get((w1, w2), 0) + F(1)
        assert lhs == rhs


def test_negative_degrees_rejected():
    with pytest.raises(ValueError):
        iota_h(-1, two_letters())
    with pytest.raises(ValueError):
        iota_l(0, -1, two_letters())


def test_word_kernels_over_one_letter_are_the_ladder_kernels():
    """Over one letter, with the word a^n for the index n, the word
    generator bracket is the ladder generator bracket and the prefix
    replacement is the ladder action on t[k]."""
    def word(n):
        return ("a",) * n

    for n, m, l, s in product(range(7), repeat=4):
        got = generator_bracket_words(word(n), word(m), word(l), word(s))
        assert {(len(w1), len(w2)): c for (w1, w2), c in got.items()} == \
            ladder.generator_bracket(n, m, l, s)
    for n, m, k in product(range(9), repeat=3):
        out = act_on_word(word(n), word(m), word(k))
        assert (None if out is None else len(out)) == ladder_module.act_generator(n, m, k)


@pytest.mark.parametrize("n, m", [(8, 9), (9, 8), (10, 11), (11, 10), (200, 200), (10 ** 12, 1)])
def test_iota_l_refuses_an_image_over_the_limit_before_building_a_word(n, m, monkeypatch):
    def no_words(self, aug_degree):
        raise AssertionError("a word was built")

    monkeypatch.setattr(Alphabet, "words", no_words)
    with pytest.raises(ValueError, match="more than the limit of 65536"):
        iota_l(n, m, two_letters())
    with pytest.raises(ValueError, match="more than the limit"):
        iota_l(n + words.MAX_IOTA_TERMS, m, one_letter())


def test_iota_l_builds_the_largest_admitted_images(monkeypatch):
    """At the limit itself: one pair of 2^16 letters over one letter; and,
    under a limit of 2^6, the 2^6 pairs of Z[3,3] over two letters."""
    assert words.MAX_IOTA_TERMS == 2 ** 16
    image = iota_l(2 ** 15, 2 ** 15, one_letter())
    assert [(len(w1), len(w2)) for w1, w2 in image.terms] == [(2 ** 15, 2 ** 15)]
    monkeypatch.setattr(words, "MAX_IOTA_TERMS", 2 ** 6)
    assert len(iota_l(3, 3, two_letters()).terms) == 2 ** 6
    with pytest.raises(ValueError):
        iota_l(3, 4, two_letters())
    with pytest.raises(ValueError):
        iota_l(2 ** 6, 1, one_letter())
