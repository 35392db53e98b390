"""Exact rational linear algebra over canonical sparse data.

Every coefficient in this package is a ``fractions.Fraction``; nothing here
(or anywhere downstream) touches floating point.  Sparse vectors are plain
dicts ``index -> Fraction`` with no stored zeros, so structural equality of
dicts is equality of vectors, and iteration in sorted key order is the
canonical order.  ``add_into`` is the one loop that accumulates them, and
``SparseElement`` the one base of the element classes built on them.  An
integer kernel runs on ``numerators`` of its operands and makes Fractions
only at the end, with ``over``.

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
from numbers import Rational
from typing import Iterable, Mapping, Sequence

Scalar = Fraction

_ZERO = Fraction(0)


def scalar_from_str(text: str) -> Fraction:
    """Parse a rational literal "p/q" or "p" (integer parts only)."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        if not int(den):
            raise ValueError("zero denominator in %r" % (text,))
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def scalar_from_json(value, what: str) -> Fraction:
    """A JSON integer or a "p/q" string as a Fraction.  Any other JSON value
    (a float, a bool, null) raises ValueError naming ``what``, so nothing
    is rounded."""
    if isinstance(value, str):
        return scalar_from_str(value)
    if type(value) is not int:
        raise ValueError('%s %r is neither a JSON integer nor a "p/q" string' % (what, value))
    return Fraction(value)


def int_from_json(value, what: str, signed: bool = True) -> int:
    """A JSON integer as an int, and with ``signed`` false a non-negative
    one.  A float, a bool or any other JSON value raises ValueError naming
    ``what``, so nothing is truncated."""
    if type(value) is not int or (value < 0 and not signed):
        raise ValueError("%s = %r is not a %sJSON integer"
                         % (what, value, "" if signed else "non-negative "))
    return value


def scalar_to_str(value) -> str:
    """Render exactly as "p/q", or "p" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def exact_scalar(value) -> Fraction:
    """``value`` as a Fraction.  Only ints and other rationals are exact; a
    float, complex or Decimal raises TypeError instead of entering an
    element rounded."""
    if type(value) is Fraction:
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError("coefficient %r is not exact: use an int or a Fraction" % (value,))


def canonical(entries) -> dict:
    """Copy ``entries`` (mapping or (key, value) pairs, duplicates allowed)
    into a fresh zero-free dict with Fraction values."""
    items = entries.items() if hasattr(entries, "items") else entries
    return add_into({}, ((key, exact_scalar(value)) for key, value in items))


def add_into(acc: dict, entries, scale=None) -> dict:
    """In-place ``acc += scale * entries`` keeping ``acc`` zero-free; returns
    ``acc``.

    ``entries`` is a mapping or an iterable of (key, value) pairs, duplicates
    allowed; without ``scale`` the values are added as they are.  Values are
    summed as given, so ints stay ints (the generator tables) and any
    Fraction makes the sum a Fraction.
    """
    if scale is not None and not scale:
        return acc
    for key, value in (entries.items() if hasattr(entries, "items") else entries):
        if scale is not None:
            value = scale * value
        if not value:
            continue
        old = acc.get(key)
        if old is not None:
            value += old
            if not value:
                del acc[key]
                continue
        acc[key] = value
    return acc


def commutator(ab, ba) -> dict:
    """``ab - ba`` for two single keys, None meaning a zero product."""
    if ab == ba:
        return {}
    out = {} if ab is None else {ab: 1}
    if ba is not None:
        out[ba] = -1
    return out


def bilinear(table, ta: Mapping, tb: Mapping) -> dict:
    """``table(a1, a2, b1, b2) -> dict`` extended bilinearly to pair-keyed
    dicts; int coefficients give int results."""
    acc: dict = {}
    for (a1, a2), ca in ta.items():
        for (b1, b2), cb in tb.items():
            add_into(acc, table(a1, a2, b1, b2), ca * cb)
    return acc


def numerators(terms: Mapping) -> tuple:
    """``terms`` over their common denominator: ``(nums, den)`` with int
    ``nums[key] == terms[key] * den``, so an integer kernel can run on
    ``nums`` and divide once at the end (see ``over``)."""
    den = lcm(*[v.denominator for v in terms.values()])
    if den == 1:
        return {key: v.numerator for key, v in terms.items()}, 1
    return {key: v.numerator * (den // v.denominator) for key, v in terms.items()}, den


def over(nums: dict, den: int) -> dict:
    """The zero-free int dict ``nums`` divided by ``den``, with Fraction
    values: the element boundary of an integer kernel."""
    if den == 1:
        return {key: Fraction(v) for key, v in nums.items()}
    return {key: Fraction(v, den) for key, v in nums.items()}


def lin_combine(terms: Iterable[tuple]) -> dict:
    """Exact linear combination of sparse vectors.

    ``terms`` is an iterable of (scalar, vector) pairs over one index set;
    the result is in canonical form (no zeros stored).
    """
    acc: dict = {}
    for coeff, vec in terms:
        add_into(acc, vec, exact_scalar(coeff))
    return acc


class SparseElement:
    """Immutable zero-free combination ``key -> Fraction``, held in ``terms``.

    The base of every element class: addition, subtraction, negation,
    scaling by an exact scalar on either side, equality, hashing and
    ``repr`` are defined here once.  A subclass may supply ``_key``, which
    normalises a caller's key, and ``_check``, which validates the keys of
    every element built, trusted or not.
    """

    __slots__ = ("terms",)
    _key = None

    def __init__(self, terms=None):
        items = terms.items() if hasattr(terms, "items") else (terms or ())
        if self._key is not None:
            items = ((self._key(k), c) for k, c in items)
        self.terms = canonical(items)
        self._check()

    @classmethod
    def _from_canonical(cls, terms: dict):
        """Wrap ``terms`` without copying; the caller guarantees normalised
        keys and nonzero ``Fraction`` values, as a kernel that accumulated
        them with ``add_into`` does."""
        elem = cls.__new__(cls)
        elem.terms = terms
        elem._check()
        return elem

    def _check(self) -> None:
        pass

    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, other, scale):
        """``self + scale * other`` (``scale`` None meaning 1)."""
        return self._from_canonical(add_into(dict(self.terms), other.terms, scale))

    def _scaled(self, scale):
        return self._from_canonical(
            {key: scale * c for key, c in self.terms.items()} if scale else {})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, None)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return self._scaled(-1)

    def __mul__(self, scale):
        return self._scaled(exact_scalar(scale))

    __rmul__ = __mul__

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.terms)


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
                v = exact_scalar(v)
                if v:
                    ent[(r, c)] = v
        return cls(rows, cols, ent)

    @classmethod
    def from_row_dicts(cls, row_dicts: Sequence[Mapping], cols: int) -> "ExactMatrix":
        ent = {}
        for r, row in enumerate(row_dicts):
            for c, v in row.items():
                v = exact_scalar(v)
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
            out[r] += v * exact_scalar(vec[c])
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
        add_into(out, (((r, c2), v2) for c2, v2 in b_rows[c].items()), v)
    return ExactMatrix._from_canonical(a.rows, b.cols, out)
