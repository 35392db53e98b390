"""Exact rational linear algebra over canonical sparse data.

Every coefficient in this package is an ``int`` or a ``fractions.Fraction``;
nothing here (or anywhere downstream) touches floating point.
``exact_scalar``, which ``canonical`` applies, is the one place that decides
the type: an int or a Fraction is stored as it is, so integral structure
constants stay ints, and a value gets a Fraction only where a denominator
appears.  ``1 == Fraction(1)`` and their hashes agree, so the mix does not
change equality or hashing.  Sparse vectors are plain dicts
``index -> scalar`` with no stored zeros, so structural equality of dicts is
equality of vectors, and iteration in sorted key order is the canonical
order.  ``add_into`` is the one loop that accumulates them, and
``SparseElement`` the one base of the element classes built on them.

``rank`` runs fraction-free sparse elimination on integer vectors along the
shorter side (after Bareiss, 1968) and creates no ``Fraction``.  The sparse
rational RREF ``_rref`` serves everything that returns vectors: kernel bases,
solutions and Farkas witnesses, whose normalization it fixes; it is also the
reference that ``rank`` is tested against.  Division is always exact: two ints divide
into a Fraction, never a float.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from numbers import Rational
from typing import Mapping, Sequence

Scalar = int | Fraction

_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def scalar_from_str(text: str) -> Scalar:
    """Parse a rational literal in the form ``scalar_to_str`` writes: an
    optional "-", decimal digits, and optionally "/" and the decimal digits
    of a nonzero denominator; an int without the denominator.  Anything else
    raises ValueError."""
    match = _SCALAR.fullmatch(text)
    if match is None:
        raise ValueError('%r is not a rational literal "p" or "p/q"' % (text,))
    num, den = match.groups()
    if den is not None and not int(den):
        raise ValueError("zero denominator in %r" % (text,))
    return int(num) if den is None else Fraction(int(num), int(den))


def scalar_from_json(value, what: str) -> Scalar:
    """A JSON integer as it is, or a "p/q" string as ``scalar_from_str``
    reads it.  Any other JSON value (a float, a bool, null) raises
    ValueError naming ``what``, so nothing is rounded."""
    if isinstance(value, str):
        return scalar_from_str(value)
    if type(value) is not int:
        raise ValueError('%s %r is neither a JSON integer nor a "p/q" string' % (what, value))
    return value


def int_from_json(value, what: str, signed: bool = True) -> int:
    """A JSON integer as an int, and with ``signed`` false a non-negative
    one.  A float, a bool or any other JSON value raises ValueError naming
    ``what``, so nothing is truncated."""
    if type(value) is not int or (value < 0 and not signed):
        raise ValueError("%s = %r is not a %sJSON integer"
                         % (what, value, "" if signed else "non-negative "))
    return value


def scalar_to_str(value) -> str:
    """Render exactly as "p/q", or "p" when the denominator is 1.  A value
    that is not an int or a Fraction goes through ``exact_scalar``, so a
    float raises TypeError."""
    if type(value) is not Fraction and type(value) is not int:
        value = exact_scalar(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def exact_scalar(value) -> Scalar:
    """``value`` as a stored scalar: an int or a Fraction as it is, a bool
    or any other rational as a Fraction.  A float, complex or Decimal raises
    TypeError instead of entering an element rounded."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError("coefficient %r is not exact: use an int or a Fraction" % (value,))


def canonical(entries) -> dict:
    """Copy ``entries`` (mapping or (key, value) pairs, duplicates allowed)
    into a fresh zero-free dict of ``exact_scalar`` values."""
    items = entries.items() if hasattr(entries, "items") else entries
    return add_into({}, ((key, exact_scalar(value)) for key, value in items))


def add_into(acc: dict, entries, scale=None) -> dict:
    """In-place ``acc += scale * entries`` keeping ``acc`` zero-free; returns
    ``acc``.

    ``entries`` is a mapping or an iterable of (key, value) pairs, duplicates
    allowed; without ``scale`` the values are added as they are.  Values are
    summed as given, so ints stay ints and any Fraction makes the sum a
    Fraction.
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
    dicts; int coefficients give int results.  A pair whose table entry is
    empty costs no coefficient product."""
    acc: dict = {}
    for (a1, a2), ca in ta.items():
        for (b1, b2), cb in tb.items():
            out = table(a1, a2, b1, b2)
            if out:
                add_into(acc, out, ca * cb)
    return acc


def over_common_denominator(kernel, ta: Mapping, tb: Mapping) -> dict:
    """Bilinear ``kernel(ta, tb)`` run on int numerators: each operand scaled by
    the lcm of its denominators, each output value divided once by their product."""
    da = lcm(*(c.denominator for c in ta.values()))
    db = lcm(*(c.denominator for c in tb.values()))
    if da == db == 1:
        return kernel(ta, tb)
    out = kernel({k: c.numerator * (da // c.denominator) for k, c in ta.items()},
                 {k: c.numerator * (db // c.denominator) for k, c in tb.items()})
    den = da * db
    return {k: v // den if v % den == 0 else Fraction(v, den) for k, v in out.items()}


def action_cases(gens, targets, act, bracket, bracket_act=None):
    """Each case (a, b, w, holds) of [a,b] w = a(b w) - b(a w) for a, b in
    ``gens`` and w in ``targets``, in nested order, on int unit dicts:
    ``act(u, v)`` is a new dict, u acting on v, ``bracket(u, v)`` brackets
    two generators and ``bracket_act`` (default ``act``) lets a bracket act.
    Each image a(w) is computed once and each bracket once per pair.  The
    kernels must be bilinear, so one with an empty input returns {}: that
    call is skipped.  ``holds`` is None when the case raised ValueError (an
    image left its space, say)."""
    bracket_act = bracket_act or act

    def or_none(fn, *args):
        try:
            return fn(*args)
        except ValueError:
            return None

    units = {g: {g: 1} for g in gens}
    image = {(g, w): or_none(act, units[g], {w: 1}) for g in gens for w in targets}
    for a, b in product(gens, repeat=2):
        ab = or_none(bracket, units[a], units[b])
        for w in targets:
            ia, ib = image[a, w], image[b, w]
            holds = None
            if ab is not None and ia is not None and ib is not None:
                try:
                    rhs = act(units[a], ib) if ib else {}
                    if ia:
                        add_into(rhs, act(units[b], ia), -1)
                    holds = (bracket_act(ab, {w: 1}) if ab else {}) == rhs
                except ValueError:
                    pass
            yield a, b, w, holds


def fraction_repr(value) -> str:
    """``repr`` of a scalar, or of a dict of scalars, with every value
    written as a Fraction, as element reprs have always shown them."""
    if type(value) is dict:
        return repr({key: Fraction(v) for key, v in value.items()})
    return repr(Fraction(value))


class SparseElement:
    """Immutable zero-free combination ``key -> scalar`` (int or Fraction),
    held in ``terms``.

    The base of every element class: addition, subtraction, negation,
    scaling by an exact scalar on either side, equality, hashing, ``repr``
    and ``str`` are defined here once.  A subclass may supply ``_key``, which
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
        keys and nonzero int or Fraction values, as a kernel that
        accumulated them with ``add_into`` does."""
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
        return "%s(%s)" % (type(self).__name__, fraction_repr(self.terms))

    def __str__(self):
        """The text form that ``parsing`` writes for its element families,
        else ``repr``."""
        from . import parsing

        return parsing.format_element(self) if type(self) in parsing._FAMILIES else repr(self)


class ExactMatrix:
    """Sparse matrix over the rationals; ``entries`` maps (row, col) to a
    nonzero int or Fraction.  ``rows`` and ``cols`` are non-negative ints."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        for size in (rows, cols):
            if type(size) is not int or size < 0:
                raise ValueError("matrix dimension %r is not a non-negative int" % (size,))
        self.rows, self.cols = rows, cols
        ent = canonical(entries or {})
        for r, c in ent:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError("entry (%s, %s) outside %sx%s matrix" % (r, c, rows, cols))
        self.entries = ent

    @classmethod
    def _from_canonical(cls, rows: int, cols: int, entries: dict) -> "ExactMatrix":
        """Wrap ``entries`` without copying; the caller guarantees the
        contract (in range, nonzero int or Fraction values)."""
        matrix = cls.__new__(cls)
        matrix.rows, matrix.cols, matrix.entries = rows, cols, entries
        return matrix

    def row_dicts(self) -> list:
        out = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
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
    which keeps the output deterministic.  An index from each column to the
    rows holding it, updated as rows change, finds those rows without a scan.
    Returns ``(rows, pivots, trans)`` with ``pivots`` a list of (column, row
    index) pairs and, when ``track``, ``trans[i]`` expressing output row i
    as a combination of input rows.
    """
    rows = [dict(r) for r in row_dicts]
    trans = [{i: 1} for i in range(len(rows))] if track else None
    pivots = []
    pivoted = set()
    holders = defaultdict(set)  # column -> indices of the rows holding it
    for i, row in enumerate(rows):
        for c in row:
            holders[c].add(i)
    for col in sorted(holders.keys() - exclude):
        cand = holders[col] - pivoted
        if not cand:
            continue
        i0 = min(cand, key=lambda i: (len(rows[i]), i))
        pivoted.add(i0)
        pv = rows[i0][col]
        if pv != 1:
            inv = Fraction(pv.denominator, pv.numerator)
            rows[i0] = {c: v * inv for c, v in rows[i0].items()}
            if track:
                trans[i0] = {c: v * inv for c, v in trans[i0].items()}
        prow = rows[i0]
        ptr = trans[i0] if track else None
        for i in holders[col] - {i0}:
            row = rows[i]
            v = row[col]
            add_into(row, prow, -v)
            for c in prow:
                if c in row:
                    holders[c].add(i)
                else:
                    holders[c].discard(i)
            if track:
                add_into(trans[i], ptr, -v)
        pivots.append((col, i0))
    return rows, pivots, trans


def rank(matrix: ExactMatrix) -> int:
    """Exact rank over the rationals, by fraction-free elimination.

    The vectors are the rows, or the columns when there are fewer of them.
    To cut fill, the other index is renumbered by ascending nonzero count
    (ties by index), so a vector leads with its sparsest coordinate, and the
    shortest vectors go first.  Each is scaled to integers and reduced
    against the pivots found so far on its leading coordinate,
    cross-multiplied by the gcd-reduced pivot factors; a vector that survives
    is divided by its content, signed so that its leading entry is positive,
    and becomes the pivot of that coordinate; a pivot that leads with 1 is
    subtracted with no gcd and no rescaling.
    """
    side = int(matrix.cols < matrix.rows)
    count = Counter(key[1 - side] for key in matrix.entries)
    order = {j: pos for pos, j in enumerate(sorted(count, key=lambda j: (count[j], j)))}
    vectors = defaultdict(dict)
    for key, v in matrix.entries.items():
        vectors[key[side]][order[key[1 - side]]] = v
    queue = sorted(vectors.values(), key=len, reverse=True)
    del vectors  # each vector is dropped once it has been reduced
    ints = all(type(v) is int for v in matrix.entries.values())
    pivots: dict = {}
    while queue:
        row = queue.pop()
        if not ints:
            scale = lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                content = gcd(*row.values())
                if row[lead] < 0:
                    content = -content
                if content != 1:
                    row = {c: v // content for c, v in row.items()}
                pivots[lead] = row
                break
            a, b = row[lead], prow[lead]
            # row <- b*row - a*prow, which cancels the leading entry
            if b != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
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
        b = exact_scalar(b)
        if b:
            rows[r][rhs_col] = b
    red, pivots, trans = _rref(rows, exclude={rhs_col}, track=True)
    for i, row in enumerate(red):
        if row and set(row) == {rhs_col}:
            witness = tuple(trans[i].get(r, 0) for r in range(matrix.rows))
            return Infeasible(witness=witness,
                              rank_matrix=len(pivots),
                              rank_augmented=len(pivots) + 1)
    x = [0] * matrix.cols
    for col, i in pivots:
        x[col] = red[i].get(rhs_col, 0)
    return x


def kernel_rows(row_dicts: Sequence[Mapping], ncols: int) -> list:
    """Basis of the right kernel of the stacked rows, as zero-free dicts
    ``column -> scalar``, ordered by ascending free column."""
    red, pivots, _ = _rref(row_dicts)
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = {free: 1}
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
