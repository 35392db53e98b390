import random
from fractions import Fraction as F
from math import comb

import pytest

from helpers import (bracket_vectors, from_rows, reference_ce_differential, reference_rref,
                     transpose)
from ladderie.cohomology import (MAX_COCHAINS, FiniteLieAlgebra,
                                 abelian_algebra, betti_numbers,
                                 ce_differential, h1_degree_functional,
                                 stability_check, truncate_gl)
from ladderie.linalg import ExactMatrix, _rref, matmul, rank


def poly_coefficients_of_odd_exterior(n):
    """Coefficients of prod_{i=1..n} (1 + t^(2i-1)), multiplied out directly."""
    poly = [1]
    for i in range(1, n + 1):
        deg = 2 * i - 1
        new = poly + [0] * deg
        for k, c in enumerate(poly):
            new[k + deg] += c
        poly = new
    return tuple(poly)


def test_truncate_gl_examples():
    g1 = truncate_gl(1)
    assert g1.dim == 1 and not g1.structure

    g2 = truncate_gl(2)
    assert g2.dim == 4
    i01 = g2.basis_labels.index("E[0,1]")
    i10 = g2.basis_labels.index("E[1,0]")
    i00 = g2.basis_labels.index("E[0,0]")
    i11 = g2.basis_labels.index("E[1,1]")
    assert g2.bracket_basis(i01, i10) == {i00: F(1), i11: F(-1)}

    assert truncate_gl(3).dim == 9


def test_jacobi_rejected_on_construction():
    # [x0,x1] = x2 with [x0,x2] = x0 violates Jacobi
    with pytest.raises(ValueError):
        FiniteLieAlgebra(["x0", "x1", "x2"],
                         {(0, 1): {2: 1}, (0, 2): {0: 1}})


def test_heisenberg_constructs():
    # [x0,x1] = x2, x2 central: a valid 3-dimensional algebra
    h = FiniteLieAlgebra(["x", "y", "z"], {(0, 1): {2: 1}})
    assert h.bracket_basis(1, 0) == {2: F(-1)}
    assert betti_numbers(h).betti == (1, 2, 2, 1)


def test_ce_differential_examples():
    a = abelian_algebra(3)
    for k in range(4):
        assert not ce_differential(a, k).entries

    # forced by the Betti fixture (1,1,0,1,1): rank d_1 = dim C^1 - b_1 = 3
    assert rank(ce_differential(truncate_gl(2), 1)) == 3

    g2 = truncate_gl(2)
    top = ce_differential(g2, g2.dim)
    assert top.rows == 0 and top.cols == 1 and not top.entries


def test_d_squared_is_zero():
    algebras = [truncate_gl(1), truncate_gl(2), truncate_gl(3),
                abelian_algebra(4),
                FiniteLieAlgebra(["x", "y", "z"], {(0, 1): {2: 1}})]
    for algebra in algebras:
        for k in range(algebra.dim):
            prod = matmul(ce_differential(algebra, k + 1),
                          ce_differential(algebra, k))
            assert not prod.entries


def _base_change(algebra, matrix_rows):
    """Conjugate the structure constants by an invertible integer matrix;
    the result is an isomorphic algebra with messier constants."""
    n = algebra.dim
    p = from_rows(matrix_rows)
    cols = [[p.entries.get((r, c), F(0)) for r in range(n)] for c in range(n)]
    from ladderie.linalg import solve_or_refute

    def to_new_coords(vec_dense):
        sol = solve_or_refute(p, vec_dense)
        assert not hasattr(sol, "witness")
        return sol

    structure = {}
    for i in range(n):
        for j in range(i + 1, n):
            u = {r: cols[i][r] for r in range(n) if cols[i][r]}
            v = {r: cols[j][r] for r in range(n) if cols[j][r]}
            br = bracket_vectors(algebra, u, v)
            dense = [br.get(r, F(0)) for r in range(n)]
            new = to_new_coords(dense)
            vec = {b: c for b, c in enumerate(new) if c}
            if vec:
                structure[(i, j)] = vec
    return FiniteLieAlgebra(["f%d" % i for i in range(n)], structure)


def test_d_squared_on_random_base_changes():
    rng = random.Random(77)
    seeds = [FiniteLieAlgebra(["x", "y", "z"], {(0, 1): {2: 1}}),
             truncate_gl(2),
             abelian_algebra(5),
             FiniteLieAlgebra(["a", "b"], {(0, 1): {1: 1}}),
             FiniteLieAlgebra(["h", "e", "f"],
                              {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})]
    for algebra in seeds:
        n = algebra.dim
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for _ in range(n):
            r1, r2 = rng.randrange(n), rng.randrange(n)
            if r1 != r2:
                factor = rng.randint(-2, 2)
                for c in range(n):
                    rows[r1][c] += factor * rows[r2][c]
        changed = _base_change(algebra, rows)
        assert betti_numbers(changed).betti == betti_numbers(algebra).betti
        for k in range(changed.dim):
            prod = matmul(ce_differential(changed, k + 1),
                          ce_differential(changed, k))
            assert not prod.entries


def test_betti_fixtures():
    assert betti_numbers(truncate_gl(1)).betti == (1, 1)
    assert betti_numbers(truncate_gl(2)).betti == (1, 1, 0, 1, 1)
    assert betti_numbers(truncate_gl(3)).betti == (1, 1, 0, 1, 1, 1, 1, 0, 1, 1)
    for n in (1, 2, 3):
        table = betti_numbers(truncate_gl(n))
        assert table.betti == poly_coefficients_of_odd_exterior(n)
        assert table.euler_characteristic() == 0
        assert table.cochain_dims == tuple(comb(n * n, k) for k in range(n * n + 1))
        assert table.betti == table.betti[::-1]  # Poincare duality


def test_stability_examples():
    assert stability_check(2, 1).status == "pass"
    assert stability_check(3, 2).status == "pass"
    assert stability_check(3, 1).status == "pass"
    assert stability_check(3, 3).status == "not-applicable"
    with pytest.raises(ValueError):
        stability_check(1, 0)


def test_h1_examples():
    assert h1_degree_functional(4, with_y=False).dimension == 9
    assert h1_degree_functional(4, with_y=True).dimension == 1
    assert h1_degree_functional(1, with_y=True).dimension == 1


def test_h1_growth_and_basis():
    for bound in range(1, 7):
        free = h1_degree_functional(bound, with_y=False)
        assert free.dimension == 2 * bound + 1
        pinned = h1_degree_functional(bound, with_y=True)
        assert pinned.dimension == 1
        assert pinned.basis == ({0: F(1)},)


def test_abelian_window_second_cohomology():
    for w in range(2, 7):
        table = betti_numbers(abelian_algebra(w))
        assert table.betti[2] == w * (w - 1) // 2
        assert table.betti == tuple(comb(w, k) for k in range(w + 1))


def test_rank_matches_rref_on_gl3_differentials():
    """``rank`` eliminates along the shorter side, so a matrix and its
    transpose run both orientations; the ``_rref`` reference runs on the
    side with fewer rows, where it is quicker.  gl(4) adds d_0..d_5."""
    for algebra, degrees in ((truncate_gl(3), range(10)), (truncate_gl(4), range(6))):
        for k in degrees:
            m = ce_differential(algebra, k)
            t = transpose(m)
            shorter = m if m.rows <= m.cols else t
            assert rank(m) == rank(t) == len(_rref(shorter.row_dicts())[1])


def test_rref_matches_the_row_scan_reference_on_gl_differentials():
    """Rows, pivots and ``trans`` of ``_rref`` equal the reference's on
    every gl(3) differential, both orientations, and on gl(4) d_4."""
    g3 = truncate_gl(3)
    matrices = [m for k in range(10) for m in (ce_differential(g3, k),
                                               transpose(ce_differential(g3, k)))]
    for m in matrices + [ce_differential(truncate_gl(4), 4)]:
        rows = m.row_dicts()
        assert _rref(rows, track=True) == reference_rref(rows, track=True)


def test_rank_of_negated_gl4_differentials():
    """d_4 and d_5 scaled by -1: each vector that ``rank`` stores with a
    positive lead now arrives with a negative one."""
    g4 = truncate_gl(4)
    for k, expected in ((4, 1365), (5, 3002)):
        m = ce_differential(g4, k)
        negated = ExactMatrix(m.rows, m.cols, {key: -v for key, v in m.entries.items()})
        assert rank(negated) == rank(m) == expected


def _half_scaled_gl2():
    g2 = truncate_gl(2)
    return FiniteLieAlgebra(g2.basis_labels, {key: {b: F(c, 2) for b, c in vec.items()}
                                              for key, vec in g2.structure.items()})


def test_ce_differential_of_half_scaled_gl2():
    g2, half = truncate_gl(2), _half_scaled_gl2()
    for k in range(half.dim + 1):
        scaled, plain = ce_differential(half, k), ce_differential(g2, k)
        assert (scaled.rows, scaled.cols) == (plain.rows, plain.cols)
        assert scaled.entries == {key: F(v, 2) for key, v in plain.entries.items()}
        for m in (scaled, plain):
            assert all(type(v) in (int, F) and v for v in m.entries.values())
            assert m == ExactMatrix(m.rows, m.cols, m.entries)
    for k in range(half.dim):
        assert not matmul(ce_differential(half, k + 1), ce_differential(half, k)).entries


def test_full_gl4_betti_table():
    table = betti_numbers(truncate_gl(4))
    assert table.betti == (1, 1, 0, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 0, 1, 1)
    assert table.betti == poly_coefficients_of_odd_exterior(4)
    assert table.betti == table.betti[::-1]  # Poincare duality


def test_betti_refuses_more_than_max_cochains():
    assert MAX_COCHAINS == 2 ** 20
    with pytest.raises(ValueError, match="2097152 cochains"):
        betti_numbers(abelian_algebra(21))


@pytest.mark.parametrize("algebra", [
    truncate_gl(1), truncate_gl(2), truncate_gl(3), truncate_gl(4), _half_scaled_gl2(),
    FiniteLieAlgebra(["x", "y", "z"], {(0, 1): {2: 1}}), abelian_algebra(5),
], ids=["gl1", "gl2", "gl3", "gl4", "half-gl2", "heisenberg", "abelian5"])
def test_ce_differential_matches_the_tuple_reference(algebra):
    for k in range(algebra.dim + 1):
        got, ref = ce_differential(algebra, k), reference_ce_differential(algebra, k)
        assert (got.rows, got.cols) == (ref.rows, ref.cols)
        assert list(got.entries.items()) == list(ref.entries.items())
        assert [type(v) for v in got.entries.values()] == [type(v) for v in ref.entries.values()]

