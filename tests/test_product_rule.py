"""Generator brackets as commutators of one-term generator products.

The six-term bracket formulas, the Kronecker-delta matrix unit bracket, the
step-function case split of alpha and the dense-vector obstruction grid are
kept here as references; the products are checked for associativity, the
one-term tail and section against their old step-function sums, and mutated
products against the verify suite."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import act_on_word
from ladderie import extension, glinf, ladder, suites, words
from ladderie.linalg import add_into, bilinear, commutator
from ladderie.parsing import format_element, parse_word_element


def theta(k):
    return 1 if k >= 0 else 0


def delta(a, b):
    return 1 if a == b else 0


def six_term_ladder(n, m, l, s):
    return add_into({}, (
        ((l - m + n, s), theta(l - m)),
        ((l, s - n + m), -theta(s - n)),
        ((n - s + l, m), -theta(n - s)),
        ((n, m - l + s), theta(m - l)),
        ((n, s), -delta(m, l)),
        ((l, m), delta(n, s)),
    ))


def six_term_words(w1, w2, w3, w4):
    act = act_on_word
    terms = []
    for out, key, sign in ((act(w1, w2, w3), lambda o: (o, w4), 1),
                           (act(w2, w1, w4), lambda o: (w3, o), -1),
                           (act(w3, w4, w1), lambda o: (o, w2), -1),
                           (act(w4, w3, w2), lambda o: (w1, o), 1)):
        if out is not None:
            terms.append((key(out), sign))
    terms.append(((w1, w4), -delta(w2, w3)))
    terms.append(((w3, w2), delta(w1, w4)))
    return add_into({}, terms)


def delta_matrix_unit_bracket(i, j, r, k):
    return add_into({}, (((i, k), delta(j, r)), ((r, j), -delta(k, i))))


def theta_alpha_on_generator(d, i, j):
    if d == 0:
        return {}
    if d > 0:
        out = {(i + d, j): 1}
        if theta(j - d):
            out[(i, j - d)] = -1
        return out
    m = -d
    out = {(i, j + m): -1}
    if theta(i - m):
        out[(i - m, j)] = 1
    return out


def dense_obstruction_grid(max_index, coefficients=(-2, -1, 0, 1, 2)):
    """The obstruction grid on dense coordinate vectors."""
    section, embed, E = extension.section_s, glinf.embed_to_z, glinf.E
    ups = [section(extension.Cgen(1))] + [embed(E(h + 1, h)) for h in range(max_index + 1)]
    downs = [section(extension.Cgen(-1))] + [embed(E(k, k + 1)) for k in range(max_index + 1)]
    table = [[ladder.bracket(u, v).z for v in downs] for u in ups]
    coords = sorted({idx for row in table for cell in row for idx in cell})
    pos = {idx: t for t, idx in enumerate(coords)}
    nc = len(coords)
    vec_table = []
    for row in table:
        vec_row = []
        for cell in row:
            vec = [0] * nc
            for idx, c in cell.items():
                vec[pos[idx]] = c
            vec_row.append(vec)
        vec_table.append(vec_row)
    width = max_index + 1
    cases = 0
    for a in product(coefficients, repeat=width):
        rows_for_a = [(cu, vec_table[u]) for u, cu in enumerate((1,) + a) if cu]
        for b in product(coefficients, repeat=width):
            cases += 1
            acc = [0] * nc
            for v, cv in enumerate((1,) + b):
                if not cv:
                    continue
                for cu, vrow in rows_for_a:
                    w = cu * cv
                    cell = vrow[v]
                    for t in range(nc):
                        if cell[t]:
                            acc[t] += w * cell[t]
            if not any(acc):
                return extension.ObstructionGridReport(max_index, tuple(coefficients),
                                                       cases, False, (a, b))
    return extension.ObstructionGridReport(max_index, tuple(coefficients), cases, True)


def _words(max_len, letters="ab"):
    return [w for k in range(max_len + 1) for w in product(letters, repeat=k)]


def test_commutator_helper():
    assert commutator((1, 2), (1, 2)) == {}
    assert commutator(None, None) == {}
    assert commutator((1, 2), None) == {(1, 2): 1}
    assert commutator(None, (3, 4)) == {(3, 4): -1}
    assert commutator((1, 2), (3, 4)) == {(1, 2): 1, (3, 4): -1}


def test_bilinear_helper_matches_the_double_loop():
    ta = {(0, 1): 2, (2, 0): -1}
    tb = {(1, 1): 3, (0, 2): Fraction(1, 2)}
    expected = {}
    for (n, m), ca in ta.items():
        for (l, s), cb in tb.items():
            add_into(expected, six_term_ladder(n, m, l, s), ca * cb)
    assert bilinear(ladder.generator_bracket, ta, tb) == expected
    assert bilinear(ladder.generator_bracket, {}, tb) == {}


def test_ladder_commutator_equals_the_six_term_formula():
    for quad in product(range(12), repeat=4):
        assert ladder.generator_bracket(*quad) == six_term_ladder(*quad), quad


def test_word_commutator_equals_the_six_term_formula():
    ws = _words(3)
    assert len(ws) ** 4 == 50625
    for quad in product(ws, repeat=4):
        assert words.generator_bracket_words(*quad) == six_term_words(*quad), quad


def test_matrix_unit_commutator_equals_the_delta_formula():
    for quad in product(range(10), repeat=4):
        assert glinf.generator_bracket_ee(*quad) == delta_matrix_unit_bracket(*quad), quad


def test_alpha_commutator_equals_the_step_function_case_split():
    for d in range(-10, 11):
        for i, j in product(range(10), repeat=2):
            assert extension.alpha_on_generator(d, i, j) == theta_alpha_on_generator(d, i, j)


@pytest.mark.parametrize("coefficients", [(-2, -1, 0, 1, 2), (-1, 0, 1),
                                          (Fraction(-1, 2), 0, Fraction(1, 3))])
@pytest.mark.parametrize("max_index", [0, 1, 2])
def test_sparse_obstruction_grid_equals_the_dense_grid(max_index, coefficients):
    assert (extension.obstruction_grid(max_index, coefficients)
            == dense_obstruction_grid(max_index, coefficients))


def _ladder_drop_first(n, m, l, s):
    out = six_term_ladder(n, m, l, s)
    return add_into(out, {(l - m + n, s): -1}) if theta(l - m) else out


@pytest.mark.parametrize("table", [six_term_ladder, _ladder_drop_first])
@pytest.mark.parametrize("max_index", [1, 2])
def test_obstruction_grid_of_a_half_integer_bracket_equals_the_dense_grid(monkeypatch, max_index,
                                                                         table):
    """Basis brackets with denominators are summed exactly, as the dense
    grid sums them; without the first term some correction still splits."""
    monkeypatch.setattr(ladder, "generator_bracket",
                        lambda *quad: {k: Fraction(v, 2) for k, v in table(*quad).items()})
    assert {c.denominator for c in ladder.bracket(ladder.Z(1, 0), ladder.Z(0, 1)).z.values()} == {2}
    report = extension.obstruction_grid(max_index)
    assert report.all_nonzero == (table is six_term_ladder)
    assert report == dense_obstruction_grid(max_index)


def _scaled_at_index_sum(table, total, factor):
    return lambda *quad: {k: v * (factor if sum(quad) == total else 1)
                          for k, v in table(*quad).items()}


@pytest.mark.parametrize("factor", [1000, Fraction(1, 2)] + [2 ** k for k in range(1, 33)])
def test_packed_grid_rows_keep_every_coordinate_apart(monkeypatch, factor):
    """The brackets of index sum 4 scaled by ``factor``.  Packed with a slot
    too narrow for the sums, a nonzero commutator can pack to zero: scaled by
    2^(w-1), these brackets made a fixed w-bit slot report a false zero for
    each w from 2 to 25 tried."""
    monkeypatch.setattr(ladder, "generator_bracket",
                        _scaled_at_index_sum(six_term_ladder, 4, factor))
    assert extension.obstruction_grid(1) == dense_obstruction_grid(1)


@pytest.mark.parametrize("table", [six_term_ladder, _ladder_drop_first])
def test_packed_grid_rows_hold_the_sums_of_wide_coefficients(monkeypatch, table):
    """Coefficients up to 9 in size, and the section's 1: case sums up to 81
    times a bracket's coefficient."""
    monkeypatch.setattr(ladder, "generator_bracket", table)
    coefficients = tuple(range(-9, 10))
    report = extension.obstruction_grid(1, coefficients)
    assert report.all_nonzero == (table is six_term_ladder)
    assert report == dense_obstruction_grid(1, coefficients)


@pytest.mark.parametrize("coefficients", [(-2, -1, 0, 1, 2), (-1, 0, 1)])
@pytest.mark.parametrize("max_index", [1, 2])
def test_sparse_obstruction_grid_stops_at_the_dense_grids_zero_case(monkeypatch, max_index,
                                                                    coefficients):
    """Without the first term of the ladder bracket some corrections split,
    and both grids must report the same first one."""
    monkeypatch.setattr(ladder, "generator_bracket", _ladder_drop_first)
    report = extension.obstruction_grid(max_index, coefficients)
    assert not report.all_nonzero
    assert report == dense_obstruction_grid(max_index, coefficients)


def test_ladder_product_is_one_generator_and_associative():
    gens = list(product(range(6), repeat=2))
    mul = ladder.generator_product
    for a in gens:
        for b in gens:
            ab = mul(*a, *b)
            assert min(ab) >= 0 and ab[0] - ab[1] == (a[0] - a[1]) + (b[0] - b[1])
            for c in gens:
                assert mul(*ab, *c) == mul(*a, *mul(*b, *c))


def test_word_product_is_associative_with_none_absorbing():
    def mul(x, y):
        if x is None or y is None:
            return None
        return words.generator_product_words(*x, *y)

    ws = _words(1)
    gens = [None] + list(product(ws, repeat=2))
    assert len(gens) == 10
    for a in gens:
        for b in gens:
            ab = mul(a, b)
            for c in gens:
                assert mul(ab, c) == mul(a, mul(b, c)), (a, b, c)
    gens = list(product(_words(2), repeat=2))
    for a, b, c in product(gens, repeat=3):
        assert mul(mul(a, b), c) == mul(a, mul(b, c)), (a, b, c)


def test_word_product_acts_as_the_composed_prefix_replacements():
    ws = _words(2)
    targets = _words(4)
    for a, b in product(product(ws, repeat=2), repeat=2):
        ab = words.generator_product_words(*a, *b)
        for w in targets:
            inner = act_on_word(*b, w)
            composed = None if inner is None else act_on_word(*a, inner)
            assert (None if ab is None else act_on_word(*ab, w)) == composed


def test_decomposition_tail_and_section_equal_the_old_step_sums():
    for n in range(13):
        for m in range(13):
            old_tail = add_into({}, (((n - m, 0), theta(n - m)),
                                     ((0, m - n), theta(m - n)),
                                     ((0, 0), -delta(n - m, 0))))
            assert ladder.decompose_generator(n, m).tail == ladder.LieElement(old_tail)
    for d in range(-12, 13):
        old_section = add_into({}, (((max(d, 0), 0), theta(d)),
                                    ((0, max(-d, 0)), theta(-d)),
                                    ((0, 0), -delta(d, 0))))
        assert extension.section_generator(d) == old_section


def _ladder_off_by_one_first(n, m, l, s):
    return (l - m + n + 1, s) if ladder.theta(l - m) else (n, m - l + s)


def _ladder_off_by_one_second(n, m, l, s):
    return (l - m + n, s) if ladder.theta(l - m) else (n, m - l + s + 1)


def _words_off_by_one(branch):
    def mutant(w1, w2, w3, w4):
        out = act_on_word(w1, w2, w3)
        if out is not None:
            return (out + ("a",) * (branch == 0), w4)
        out = act_on_word(w4, w3, w2)
        if out is not None:
            return (w1, out + ("a",) * (branch == 1))
        return None
    return mutant


_LADDER_PRODUCT = ladder.generator_product
_WORD_PRODUCT = words.generator_product_words


@pytest.mark.parametrize("module, attribute, mutant", [
    (ladder, "generator_product", _ladder_off_by_one_first),
    (ladder, "generator_product", _ladder_off_by_one_second),
    (ladder, "generator_product", lambda n, m, l, s: _LADDER_PRODUCT(l, s, n, m)),
    (words, "generator_product_words", _words_off_by_one(0)),
    (words, "generator_product_words", _words_off_by_one(1)),
    (words, "generator_product_words", lambda a, b, c, d: _WORD_PRODUCT(c, d, a, b)),
], ids=["ladder-first-branch", "ladder-second-branch", "ladder-sides-swapped",
        "words-first-branch", "words-second-branch", "words-sides-swapped"])
def test_a_mutated_product_breaks_the_suite(monkeypatch, module, attribute, mutant):
    monkeypatch.setattr(module, attribute, mutant)
    assert not suites.run_verify_suite(3, stop_on_failure=True).passed


_LETTERS = ("a", "b", "_")
_WORD = st.lists(st.sampled_from(_LETTERS), max_size=3).map(tuple)
_COEFF = st.fractions(max_denominator=6).filter(lambda c: abs(c.numerator) < 50)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(_WORD, _WORD), _COEFF, max_size=5))
def test_word_element_text_round_trip(terms):
    alphabet = words.Alphabet([words.Letter(name, 1) for name in _LETTERS])
    x = words.WordLieElement(terms)
    assert parse_word_element(format_element(x), alphabet) == x
