"""Dense-matrix and structure-constant helpers that only the tests use.

The library builds every matrix sparsely and brackets basis vectors one
pair at a time, so it needs none of these; the tests use them to write
small fixtures and to check results.  pytest does not collect this file.
"""

from ladderie.linalg import ExactMatrix, add_into, exact_scalar


def from_rows(dense_rows) -> ExactMatrix:
    """The matrix of a list of equally long dense rows (zeros dropped)."""
    rows = len(dense_rows)
    cols = len(dense_rows[0]) if rows else 0
    if any(len(row) != cols for row in dense_rows):
        raise ValueError("ragged rows")
    return ExactMatrix(rows, cols, (((r, c), v) for r, row in enumerate(dense_rows)
                                    for c, v in enumerate(row)))


def identity(n: int) -> ExactMatrix:
    return ExactMatrix(n, n, {(i, i): 1 for i in range(n)})


def transpose(matrix: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(matrix.cols, matrix.rows,
                       {(c, r): v for (r, c), v in matrix.entries.items()})


def mul_vec(matrix: ExactMatrix, vec) -> list:
    """``matrix`` times the dense vector ``vec``, as a dense list."""
    if len(vec) != matrix.cols:
        raise ValueError("vector length %d != %d columns" % (len(vec), matrix.cols))
    out = [0] * matrix.rows
    for (r, c), v in matrix.entries.items():
        out[r] += v * exact_scalar(vec[c])
    return out


def bracket_vectors(algebra, u: dict, v: dict) -> dict:
    """Bracket of two sparse coordinate vectors of a ``FiniteLieAlgebra``."""
    acc: dict = {}
    for i, cu in u.items():
        for j, cv in v.items():
            add_into(acc, algebra.bracket_basis(i, j), cu * cv)
    return acc
