"""Exact rational linear algebra over canonical sparse data.

Every coefficient in this package is a ``fractions.Fraction``; nothing here
(or anywhere downstream) touches floating point.  Sparse vectors are plain
dicts ``index -> Fraction`` with no stored zeros, so structural equality of
dicts is equality of vectors, and iteration in sorted key order is the
canonical order.

``rank`` runs fraction-free sparse elimination on primitive integer rows
(after Bareiss, 1968) and creates no ``Fraction``.  The sparse rational RREF
``_rref`` serves everything that returns vectors: kernel bases, solutions
and Farkas witnesses, whose normalization it fixes; it is also the reference
that ``rank`` is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Scalar = Fraction

_ZERO = Fraction(0)


def scalar_from_str(text: str) -> Fraction:
    """Parse a rational literal "p/q" or "p" (integer parts only)."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def scalar_to_str(value) -> str:
    """Render exactly as "p/q", or "p" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def canonical(entries) -> dict:
    """Copy ``entries`` (mapping or (key, value) pairs, duplicates allowed)
    into a fresh zero-free dict with Fraction values."""
    items = entries.items() if isinstance(entries, Mapping) else entries
    acc: dict = {}
    for key, value in items:
        value = Fraction(value)
        if not value:
            continue
        new = acc.get(key, _ZERO) + value
        if new:
            acc[key] = new
        else:
            del acc[key]
    return acc


def add_into(acc: dict, entries: Mapping, scale=1) -> None:
    """In-place ``acc += scale * entries`` keeping ``acc`` zero-free."""
    scale = Fraction(scale)
    if not scale:
        return
    for key, value in entries.items():
        new = acc.get(key, _ZERO) + scale * value
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


def lin_combine(terms: Iterable[tuple]) -> dict:
    """Exact linear combination of sparse vectors.

    ``terms`` is an iterable of (scalar, vector) pairs over one index set;
    the result is in canonical form (no zeros stored).
    """
    acc: dict = {}
    for coeff, vec in terms:
        add_into(acc, vec, coeff)
    return acc


class ExactMatrix:
    """Sparse matrix over the rationals; ``entries`` maps (row, col) to a
    nonzero Fraction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = int(rows)
        self.cols = int(cols)
        ent = canonical(entries or {})
        for r, c in ent:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError("entry (%s, %s) outside %sx%s matrix" % (r, c, rows, cols))
        self.entries = ent

    @classmethod
    def from_rows(cls, dense_rows: Sequence[Sequence]) -> "ExactMatrix":
        rows = len(dense_rows)
        cols = len(dense_rows[0]) if rows else 0
        ent = {}
        for r, row in enumerate(dense_rows):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                v = Fraction(v)
                if v:
                    ent[(r, c)] = v
        return cls(rows, cols, ent)

    @classmethod
    def from_row_dicts(cls, row_dicts: Sequence[Mapping], cols: int) -> "ExactMatrix":
        ent = {}
        for r, row in enumerate(row_dicts):
            for c, v in row.items():
                v = Fraction(v)
                if v:
                    ent[(r, c)] = v
        return cls(len(row_dicts), cols, ent)

    @classmethod
    def _from_canonical(cls, rows: int, cols: int, entries: dict) -> "ExactMatrix":
        """Wrap ``entries`` without copying; the caller guarantees the
        contract (in range, nonzero ``Fraction`` values)."""
        matrix = cls.__new__(cls)
        matrix.rows, matrix.cols, matrix.entries = rows, cols, entries
        return matrix

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    def row_dicts(self) -> list:
        out = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows,
                           {(c, r): v for (r, c), v in self.entries.items()})

    def mul_vec(self, vec: Sequence) -> list:
        if len(vec) != self.cols:
            raise ValueError("vector length %d != %d columns" % (len(vec), self.cols))
        out = [_ZERO] * self.rows
        for (r, c), v in self.entries.items():
            out[r] += v * Fraction(vec[c])
        return out

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return "ExactMatrix(%d, %d, %r)" % (self.rows, self.cols, self.entries)


def _rref(row_dicts: Sequence[Mapping], exclude=frozenset(), track=False):
    """Reduced row echelon form by exact elimination on sparse rows.

    Pivot columns are visited in increasing order (columns in ``exclude``
    never pivot); among candidate rows the sparsest wins, ties by position,
    which keeps the output deterministic.  Returns ``(rows, pivots, trans)``
    with ``pivots`` a list of (column, row index) pairs and, when ``track``,
    ``trans[i]`` expressing output row i as a combination of input rows.
    """
    rows = [dict(r) for r in row_dicts]
    m = len(rows)
    trans = [{i: Fraction(1)} for i in range(m)] if track else None
    pivots = []
    pivoted = set()
    all_cols = sorted({c for r in rows for c in r if c not in exclude})
    for col in all_cols:
        cand = [i for i in range(m) if i not in pivoted and col in rows[i]]
        if not cand:
            continue
        i0 = min(cand, key=lambda i: (len(rows[i]), i))
        pivoted.add(i0)
        pv = rows[i0][col]
        if pv != 1:
            inv = 1 / pv
            rows[i0] = {c: v * inv for c, v in rows[i0].items()}
            if track:
                trans[i0] = {c: v * inv for c, v in trans[i0].items()}
        prow = rows[i0]
        ptr = trans[i0] if track else None
        for i in range(m):
            if i == i0:
                continue
            v = rows[i].get(col)
            if v is None:
                continue
            add_into(rows[i], prow, -v)
            if track:
                add_into(trans[i], ptr, -v)
        pivots.append((col, i0))
    return rows, pivots, trans


def rank(matrix: ExactMatrix) -> int:
    """Exact rank over the rationals, by fraction-free elimination.

    Each row becomes a primitive integer vector and is reduced against the
    pivot rows found so far on its leading column, cross-multiplied by the
    gcd-reduced pivot factors; a row that survives is divided by its content
    and becomes the pivot row of its leading column.
    """
    pivots: dict = {}
    for row in matrix.row_dicts():
        if not row:
            continue
        # lowest-terms entries: the scaled row's content is the numerators' gcd
        scale = lcm(*(v.denominator for v in row.values()))
        content = gcd(*(v.numerator for v in row.values()))
        row = {c: v.numerator // content * (scale // v.denominator)
               for c, v in row.items()}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                content = gcd(*row.values())
                if content != 1:
                    row = {c: v // content for c, v in row.items()}
                pivots[lead] = row
                break
            a, b = row[lead], prow[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            # row <- b*row - a*prow, which cancels the leading entry
            if b != 1:
                row = {c: b * v for c, v in row.items()}
            for c, v in prow.items():
                new = row.get(c, 0) - a * v
                if new:
                    row[c] = new
                else:
                    del row[c]
    return len(pivots)


@dataclass(frozen=True)
class Infeasible:
    """Proof that a linear system has no solution.

    ``witness`` is a row combination y with y*A = 0 but y*rhs != 0, and the
    two ranks exhibit rank(A) < rank(A|rhs).
    """

    witness: tuple
    rank_matrix: int
    rank_augmented: int


def solve_or_refute(matrix: ExactMatrix, rhs: Sequence):
    """Return an exact solution vector of ``matrix * x = rhs`` (free
    variables set to zero) or an :class:`Infeasible` certificate."""
    if len(rhs) != matrix.rows:
        raise ValueError("rhs length %d != %d rows" % (len(rhs), matrix.rows))
    rhs_col = matrix.cols  # pseudo-column carried through elimination
    rows = matrix.row_dicts()
    for r, b in enumerate(rhs):
        b = Fraction(b)
        if b:
            rows[r][rhs_col] = b
    red, pivots, trans = _rref(rows, exclude={rhs_col}, track=True)
    for i, row in enumerate(red):
        if row and set(row) == {rhs_col}:
            witness = tuple(trans[i].get(r, _ZERO) for r in range(matrix.rows))
            return Infeasible(witness=witness,
                              rank_matrix=len(pivots),
                              rank_augmented=len(pivots) + 1)
    x = [_ZERO] * matrix.cols
    for col, i in pivots:
        x[col] = red[i].get(rhs_col, _ZERO)
    return x


def kernel_rows(row_dicts: Sequence[Mapping], ncols: int) -> list:
    """Basis of the right kernel of the stacked rows, as zero-free dicts
    ``column -> Fraction``, ordered by ascending free column."""
    red, pivots, _ = _rref(row_dicts)
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = {free: Fraction(1)}
        for col, i in pivots:
            v = red[i].get(free)
            if v:
                vec[col] = -v
        basis.append(vec)
    return basis


def kernel_basis(matrix: ExactMatrix) -> list:
    return kernel_rows(matrix.row_dicts(), matrix.cols)


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch %sx%s * %sx%s" % (a.rows, a.cols, b.rows, b.cols))
    b_rows = b.row_dicts()
    out: dict = {}
    for (r, c), v in a.entries.items():
        for c2, v2 in b_rows[c].items():
            key = (r, c2)
            new = out.get(key, _ZERO) + v * v2
            if new:
                out[key] = new
            else:
                del out[key]
    return ExactMatrix(a.rows, b.cols, out)
