from fractions import Fraction as F
from math import prod

import pytest

from ladderie.words import Alphabet, Letter, WordPoly, dse_expand


def compositions(total, parts):
    """Brute-force enumeration of compositions of ``total`` into the given
    parts; independent of the fixpoint iteration."""
    if total == 0:
        return [()]
    out = []
    for p in parts:
        if p <= total:
            out.extend((p,) + rest for rest in compositions(total - p, parts))
    return out


def test_single_letter_geometric():
    exp = dse_expand(Alphabet([Letter("a", 1)]), 8)
    for j in range(9):
        assert exp.c[j] == WordPoly({("a",) * j: 1})
        assert exp.d[j] == exp.c[j]


def test_fibonacci_composition_counts():
    alphabet = Alphabet([Letter("a", 1), Letter("b", 2)])
    exp = dse_expand(alphabet, 6)
    for j in range(1, 7):
        expected = compositions(j, (1, 2))
        assert len(exp.c[j].terms) == len(expected)
        got = sorted(tuple(2 if ch == "b" else 1 for ch in w)
                     for w in exp.c[j].terms)
        assert got == sorted(expected)
    assert [len(exp.c[j].terms) for j in range(1, 7)] == [1, 2, 3, 5, 8, 13]


def test_symmetry_factor_halves_coefficients():
    exp = dse_expand(Alphabet([Letter("a", 1, F(2))]), 3)
    for j in range(4):
        assert exp.c[j] == WordPoly({("a",) * j: F(1, 2 ** j)})


def test_gradings_partition_the_support():
    alphabet = Alphabet([Letter("a", 1, F(3)), Letter("b", 2)])
    exp = dse_expand(alphabet, 5)
    c_support = {w for poly in exp.c for w in poly.terms}
    d_support = {w for poly in exp.d for w in poly.terms}
    assert c_support == d_support
    sym = {letter.name: letter.sym for letter in alphabet}
    for j, poly in enumerate(exp.c):
        for w, coeff in poly.terms.items():
            assert alphabet.alpha_degree(w) == j
            assert coeff == F(1, prod(sym[name] for name in w))
    for j, poly in enumerate(exp.d):
        for w in poly.terms:
            assert len(w) == j


def test_single_letter_gradings_coincide():
    exp = dse_expand(Alphabet([Letter("a", 1)]), 6)
    assert exp.c == exp.d


def test_order_zero_and_validation():
    exp = dse_expand(Alphabet([Letter("a", 2)]), 0)
    assert exp.c[0] == WordPoly({(): 1})
    with pytest.raises(ValueError):
        dse_expand(Alphabet([Letter("a", 1)]), -1)


def test_oversized_expansions_are_refused_before_any_work():
    from ladderie.words import MAX_DSE_LETTERS

    two = Alphabet([Letter("a", 1), Letter("b", 2)])
    one = Alphabet([Letter("a", 1)])
    assert len(dse_expand(two, 25).c) == 26
    assert len(dse_expand(one, 5000).c[5000].terms) == 1
    for alphabet, order in ((two, 30), (one, 6000), (Alphabet([Letter("a", 10 ** 9)]), 10 ** 12)):
        with pytest.raises(ValueError, match="limit of %d" % MAX_DSE_LETTERS):
            dse_expand(alphabet, order)


def test_one_pass_expansion_matches_the_fixpoint_iteration():
    alphabet = Alphabet([Letter("a", 1), Letter("b", 2, F(2)), Letter("c", 3, F(3, 2))])
    for order in (0, 1, 5, 9):
        gamma = {(): F(1)}
        for _ in range(order):
            new = {(): F(1)}
            for letter in alphabet:
                for word, c in gamma.items():
                    grown = (letter.name,) + word
                    if alphabet.alpha_degree(grown) <= order:
                        new[grown] = c / letter.sym
            gamma = new
        exp = dse_expand(alphabet, order)
        for j in range(order + 1):
            assert exp.c[j] == WordPoly({w: c for w, c in gamma.items()
                                         if alphabet.alpha_degree(w) == j})
            assert exp.d[j] == WordPoly({w: c for w, c in gamma.items() if len(w) == j})
