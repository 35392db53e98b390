import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import from_rows, identity, mul_vec, reference_rref, transpose
from ladderie.cohomology import h1_degree_functional
from ladderie.ladder import LieElement, centralizer_basis
from ladderie.linalg import (ExactMatrix, Infeasible, _rref, add_into, canonical, exact_scalar,
                             kernel_basis, kernel_rows, matmul, rank, scalar_from_str,
                             scalar_to_str, solve_or_refute)
from ladderie.words import Alphabet, Letter, dse_expand


def test_scalar_strings():
    assert scalar_to_str(F(3, 2)) == "3/2"
    assert scalar_to_str(F(4, 2)) == "2"
    assert scalar_to_str(F(-1, 3)) == "-1/3"
    assert scalar_from_str("3/2") == F(3, 2)
    assert scalar_from_str("-7") == F(-7)
    assert scalar_from_str(scalar_to_str(F(-355, 113))) == F(-355, 113)


@pytest.mark.parametrize("value, text", [
    (0, "0"), (7, "7"), (-12, "-12"), (10 ** 30, str(10 ** 30)),
    (F(0), "0"), (F(5), "5"), (F(-6, 3), "-2"), (F(-7, 4), "-7/4"), (F(22, 7), "22/7"),
    (True, "1"), (False, "0")])
def test_scalar_to_str_renders_ints_fractions_and_bools(value, text):
    assert scalar_to_str(value) == text


@pytest.mark.parametrize("value", [0.1, 2.0, Decimal("0.5"), Decimal(3)])
def test_scalar_to_str_refuses_inexact_values(value):
    with pytest.raises(TypeError):
        scalar_to_str(value)


@settings(deadline=None)
@given(st.fractions() | st.integers())
def test_scalar_to_str_round_trips(value):
    assert scalar_from_str(scalar_to_str(value)) == value


def test_exact_scalar_keeps_ints_and_fractions():
    assert type(exact_scalar(3)) is int and type(exact_scalar(F(3, 2))) is F
    assert type(exact_scalar(True)) is F and exact_scalar(True) == 1
    assert canonical({"a": 2, "b": F(1, 2), "c": 0}) == {"a": 2, "b": F(1, 2)}
    assert [type(v) for v in canonical({"a": 2, "b": F(2)}).values()] == [int, F]
    for value in (0.5, 2.0, 1j, Decimal("0.5")):
        with pytest.raises(TypeError):
            exact_scalar(value)


def test_lin_combine_examples():
    """Linear combinations of sparse vectors, accumulated by ``add_into``."""
    assert add_into({"a": 1}, {"a": 1}, -1) == {}
    assert add_into({}, {"a": F(1, 2)}, 2) == {"a": F(1)}
    assert add_into({"a": 1}, {"b": 2}) == {"a": F(1), "b": F(2)}


def test_canonical_accumulates_duplicates():
    assert canonical([("a", 1), ("a", -1), ("b", F(1, 3))]) == {"b": F(1, 3)}


sparse_vectors = st.dictionaries(
    st.sampled_from("abcdef"),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
    max_size=5)
scalars = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(deadline=None)
@given(sparse_vectors, sparse_vectors, sparse_vectors)
def test_lin_combine_associative_commutative(u, v, w):
    left = add_into(add_into(dict(u), v), w)
    right = add_into(dict(u), add_into(dict(v), w))
    assert left == right
    assert add_into(dict(u), v) == add_into(dict(v), u)


@settings(deadline=None)
@given(scalars, sparse_vectors, sparse_vectors)
def test_lin_combine_distributive(c, u, v):
    assert add_into({}, add_into(dict(u), v), c) == add_into(add_into({}, u, c), v, c)


def test_rank_examples():
    assert rank(identity(2)) == 2
    assert rank(ExactMatrix(3, 4)) == 0
    assert rank(from_rows([[1, 2], [2, 4]])) == 1
    assert rank(from_rows([[-1, 2, 0], [-2, 1, 3], [-3, 3, 3]])) == 2
    assert rank(from_rows([[-2, 4], [3, -6]])) == 1
    assert rank(from_rows([[-3, 1], [2, -1]])) == 2


def test_rank_transpose_random():
    rng = random.Random(2024)
    for trial in range(12):
        rows = rng.randint(1, 30)
        cols = rng.randint(1, 30)
        entries = {}
        for _ in range(rng.randint(0, rows * cols // 2)):
            entries[(rng.randrange(rows), rng.randrange(cols))] = \
                F(rng.randint(-5, 5), rng.randint(1, 4))
        m = ExactMatrix(rows, cols, entries)
        assert rank(m) == rank(transpose(m))


def test_solve_examples():
    sol = solve_or_refute(identity(2), [3, 5])
    assert sol == [F(3), F(5)]

    cert = solve_or_refute(ExactMatrix(1, 1), [1])
    assert isinstance(cert, Infeasible)

    m = from_rows([[1, 1]])
    sol = solve_or_refute(m, [2])
    assert not isinstance(sol, Infeasible)
    assert mul_vec(m, sol) == [F(2)]


def test_solve_solution_verifies_exactly():
    rng = random.Random(99)
    for _ in range(20):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        entries = {(r, c): F(rng.randint(-3, 3))
                   for r in range(rows) for c in range(cols) if rng.random() < 0.5}
        m = ExactMatrix(rows, cols, entries)
        x_true = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        rhs = mul_vec(m, x_true)
        res = solve_or_refute(m, rhs)
        assert not isinstance(res, Infeasible)
        assert mul_vec(m, res) == rhs


@pytest.mark.parametrize("value", [0.1, 1.0, Decimal("0.1")])
def test_solve_refuses_an_inexact_rhs(value):
    with pytest.raises(TypeError):
        solve_or_refute(from_rows([[1]]), [value])


def test_infeasible_certificate_is_a_farkas_witness():
    m = from_rows([[1, 2], [2, 4], [0, 0]])
    cert = solve_or_refute(m, [1, 3, 0])
    assert isinstance(cert, Infeasible)
    assert cert.rank_matrix < cert.rank_augmented
    y = cert.witness
    combo = {}
    for (r, c), v in m.entries.items():
        combo[c] = combo.get(c, F(0)) + y[r] * v
    assert all(v == 0 for v in combo.values())
    assert sum(yr * b for yr, b in zip(y, [F(1), F(3), F(0)])) != 0


def test_kernel_basis():
    m = from_rows([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 3 - rank(m)
    for vec in basis:
        dense = [vec.get(c, F(0)) for c in range(3)]
        assert mul_vec(m, dense) == [F(0), F(0)]


def test_matmul():
    a = from_rows([[1, 2], [0, 1]])
    b = from_rows([[1, 0], [3, 1]])
    assert matmul(a, b) == from_rows([[7, 2], [3, 1]])
    with pytest.raises(ValueError):
        matmul(a, ExactMatrix(3, 3))


def test_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix(1, 1, {(1, 0): 1})
    with pytest.raises(ValueError):
        mul_vec(identity(2), [1])


@pytest.mark.parametrize("rows, cols", [(2.9, 3), (2, 3.0), (-1, 2), (2, -1), (True, 1),
                                        ("2", 2), (F(2), 2)])
def test_matrix_dimensions_are_non_negative_ints(rows, cols):
    with pytest.raises(ValueError):
        ExactMatrix(rows, cols)


def test_from_rows_reads_each_entry_once_into_a_zero_free_matrix():
    m = from_rows([[0, F(1, 2)], [3, F(0)], [0, 0]])
    assert (m.rows, m.cols, m.entries) == (3, 2, {(0, 1): F(1, 2), (1, 0): 3})
    assert type(m.entries[(1, 0)]) is int
    empty = from_rows([])
    assert (empty.rows, empty.cols, empty.entries) == (0, 0, {})
    with pytest.raises(TypeError):
        from_rows([[1, 0.5]])
    with pytest.raises(ValueError, match="ragged"):
        from_rows([[1, 2], [3]])


def exact_values(values) -> bool:
    values = list(values)
    return bool(values) and all(type(v) in (int, F) for v in values)


def test_int_inputs_with_non_unit_pivots_give_exact_values():
    """Division by a stored int must make a Fraction, never a float."""
    rows = [{0: 2, 1: 3, 2: 5}, {0: 4, 1: 3}, {1: 6, 2: -4}]
    red, pivots, trans = _rref(rows, track=True)
    assert len(pivots) == 3
    assert exact_values(v for row in red + trans for v in row.values())
    kernel = kernel_rows(rows[:2], 3)
    assert len(kernel) == 1 and exact_values(kernel[0].values()) and len(kernel[0]) == 3
    m = from_rows([[2, 4], [3, 7]])
    solution = solve_or_refute(m, [1, 2])
    assert exact_values(solution) and mul_vec(m, solution) == [1, 2]
    cert = solve_or_refute(from_rows([[2, 4], [3, 6]]), [1, 1])
    assert isinstance(cert, Infeasible) and exact_values(cert.witness)
    for with_y in (False, True):
        report = h1_degree_functional(3, with_y)
        assert exact_values(v for vec in report.basis for v in vec.values())
    basis = centralizer_basis([LieElement({(1, 1): 2, (2, 0): 3})], 3)
    assert exact_values(c for e in basis for c in e.z.values())
    exp = dse_expand(Alphabet([Letter("a", 1, 2), Letter("b", 2)]), 4)
    assert exact_values(c for p in exp.c + exp.d for c in p.terms.values())


rational_entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.fractions(max_denominator=10 ** 6))


@st.composite
def rational_matrices(draw):
    """Dense rational matrices from 0x0 to 12x12, wide and tall, with zero
    rows and rows that are multiples or combinations of earlier rows."""
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 12))
    dense = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("random", "random", "zero", "multiple", "combination")
                                    if dense else ("random", "zero")))
        if kind == "zero":
            row = [F(0)] * cols
        elif kind == "multiple":
            c = draw(rational_entries)
            row = [c * v for v in draw(st.sampled_from(dense))]
        elif kind == "combination":
            c1, c2 = draw(rational_entries), draw(rational_entries)
            u, v = draw(st.sampled_from(dense)), draw(st.sampled_from(dense))
            row = [c1 * a + c2 * b for a, b in zip(u, v)]
        else:
            row = [draw(rational_entries) for _ in range(cols)]
        dense.append(row)
    return ExactMatrix(rows, cols, {(r, c): v for r, row in enumerate(dense)
                                    for c, v in enumerate(row)})


@settings(deadline=None, max_examples=300)
@given(rational_matrices())
def test_rank_matches_rref_reference(m):
    assert rank(m) == len(_rref(m.row_dicts())[1])


@settings(deadline=None, max_examples=200)
@given(rational_matrices(), st.booleans())
def test_rref_matches_the_row_scan_reference(m, exclude_last):
    """The column index gives the rows, pivots and ``trans`` of the scan
    over every row, also with a column that never pivots."""
    rows = m.row_dicts()
    exclude = {m.cols - 1} if exclude_last else frozenset()
    assert _rref(rows, exclude, track=True) == reference_rref(rows, exclude, track=True)


@settings(deadline=None, max_examples=100)
@given(rational_matrices())
def test_rank_with_negative_leading_entries(m):
    """``rank`` keeps each pivot's leading entry positive; negating a
    matrix makes every leading entry that was positive negative."""
    negated = ExactMatrix(m.rows, m.cols, {key: -v for key, v in m.entries.items()})
    assert rank(negated) == rank(transpose(negated)) == rank(m)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 8), st.integers(0, 8), st.data())
def test_rank_with_a_zero_row_a_zero_column_and_mixed_scalars(rows, cols, data):
    """Entries mix ints and Fractions (some with denominator 1); one row
    and one column are all zero.  Both orientations agree with ``_rref``."""
    scalars = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=5),
                        st.integers(-4, 4).map(F))
    zero_row, zero_col = data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols))
    entries = {(r, c): data.draw(scalars)
               for r in range(rows + 1) for c in range(cols + 1)
               if r != zero_row and c != zero_col}
    m = ExactMatrix(rows + 1, cols + 1, entries)
    assert rank(m) == rank(transpose(m)) == len(_rref(m.row_dicts())[1])
