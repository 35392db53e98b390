"""The ladder insertion-elimination Lie algebra.

Generators Z[n,m] (n, m >= 0) insert a ladder of length n and eliminate one
of length m; Y is the grading derivation with [Y, Z[n,m]] = (n-m) Z[n,m].
On the ladder module Z[n,m] acts as u^n (u*)^m for the shift u, and u* u = 1,
so the product of two generators is again one generator (the bicyclic
monoid):

    Z[n,m] Z[l,s] = Z[l-m+n, s]  if l >= m,  else  Z[n, m-l+s].

The bracket is the commutator [a, b] = ab - ba, extended bilinearly;
expanding both products with the unit step gives the familiar six-term
formula.  deg Z[n,m] = n - m makes the algebra Z-graded; Y has degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .linalg import (SparseElement, add_into, bilinear, commutator, exact_scalar, fraction_repr,
                     kernel_rows, over_common_denominator)

ZIndex = tuple  # (n, m), both non-negative


def theta(k: int) -> int:
    """Unit step: 1 for k >= 0 (in particular theta(0) = 1), else 0."""
    return 1 if k >= 0 else 0


def delta(a: int, b: int) -> int:
    """Kronecker delta."""
    return 1 if a == b else 0


def generator_product(n: int, m: int, l: int, s: int) -> tuple:
    """Z[n,m] Z[l,s], always exactly one generator."""
    if theta(l - m):
        return (l - m + n, s)
    return (n, m - l + s)


def generator_bracket(n: int, m: int, l: int, s: int) -> dict:
    """[Z[n,m], Z[l,s]] as a sparse integer combination of Z indices.
    ``generator_product`` is looked up at call time."""
    return commutator(generator_product(n, m, l, s), generator_product(l, s, n, m))


class LieElement(SparseElement):
    """Immutable sparse combination of Z generators plus a Y coefficient.

    ``z`` maps (n, m) to a nonzero int or Fraction; ``y`` is the Y coefficient
    (zero for elements of the ladder algebra proper).
    """

    __slots__ = ("y",)
    z = SparseElement.terms  # the Z part: the same slot, under its own name

    def __init__(self, z=None, y=0):
        super().__init__(z)
        self.y = exact_scalar(y)

    @classmethod
    def _from_canonical(cls, z: dict, y=0) -> "LieElement":
        elem = super()._from_canonical(z)
        elem.y = y
        return elem

    def _check(self) -> None:
        for n, m in self.z:
            if n < 0 or m < 0:
                raise ValueError("negative Z index (%s, %s)" % (n, m))

    def is_zero(self) -> bool:
        return not self.z and not self.y

    def _combine(self, other, scale):
        y = other.y if scale is None else scale * other.y
        return LieElement._from_canonical(add_into(dict(self.z), other.z, scale), self.y + y)

    def _scaled(self, scale):
        z = {idx: scale * c for idx, c in self.z.items()} if scale else {}
        return LieElement._from_canonical(z, scale * self.y)

    def __eq__(self, other):
        return type(other) is LieElement and self.z == other.z and self.y == other.y

    def __hash__(self):
        return hash((frozenset(self.z.items()), self.y))

    def __repr__(self):
        return "LieElement(%s, y=%s)" % (fraction_repr(self.z), fraction_repr(self.y))


def Z(n: int, m: int, coeff=1) -> LieElement:
    return LieElement({(n, m): coeff})


#: The grading derivation as an element of the extended algebra.
Y = LieElement(y=1)


def _bracket_z(za: Mapping, zb: Mapping) -> dict:
    return bilinear(generator_bracket, za, zb)


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Bilinear bracket on the extended algebra ([Y, Y] = 0)."""
    acc = over_common_denominator(_bracket_z, a.z, b.z)
    if a.y:
        add_into(acc, (((n, m), (n - m) * c) for (n, m), c in b.z.items()), a.y)
    if b.y:
        add_into(acc, (((n, m), (n - m) * c) for (n, m), c in a.z.items()), -b.y)
    return LieElement._from_canonical(acc)


def degree(e: LieElement):
    """n - m when every term agrees (Y counts as degree 0), else None.

    The zero element reports degree 0.
    """
    degs = {n - m for (n, m) in e.z}
    if e.y:
        degs.add(0)
    if not degs:
        return 0
    if len(degs) == 1:
        return degs.pop()
    return None


@dataclass(frozen=True)
class TriangularSplit:
    plus: LieElement
    zero: LieElement
    minus: LieElement


def triangular_split(e: LieElement) -> TriangularSplit:
    """Split into the positive / zero / negative degree parts.

    Rejects elements with a Y component: the split is defined on the ladder
    algebra proper.
    """
    if e.y:
        raise ValueError("triangular_split requires a Y-free element")
    plus: dict = {}
    zero: dict = {}
    minus: dict = {}
    for (n, m), c in e.z.items():
        part = plus if n > m else (zero if n == m else minus)
        part[(n, m)] = c
    return TriangularSplit(LieElement(plus), LieElement(zero), LieElement(minus))


@dataclass(frozen=True)
class GeneratorDecomposition:
    """The canonical rewriting of Z[n,m] as [Z[n,0], Z[0,m]] plus a tail of
    one-sided generators (kept unevaluated so both sides can be compared)."""

    left: LieElement
    right: LieElement
    tail: LieElement

    def evaluate(self) -> LieElement:
        return bracket(self.left, self.right) + self.tail


def decompose_generator(n: int, m: int) -> GeneratorDecomposition:
    if n < 0 or m < 0:
        raise ValueError("negative Z index")
    # Z[n,0] Z[0,m] = Z[n,m], so the tail is the swapped product Z[0,m] Z[n,0]
    return GeneratorDecomposition(Z(n, 0), Z(0, m), Z(*generator_product(0, m, n, 0)))


def centralizer_basis(test_set, bound: int, degree_filter=None) -> list:
    """Exact basis of the window centralizer.

    The ansatz space is every Z[n,m] with n, m <= bound (restricted to one
    degree class when ``degree_filter`` is given); the result is the basis of
    all ansatz combinations commuting with every element of ``test_set``.
    Bracket results are kept in full, wherever their indices land; this is a
    finite-window verification, not a statement about the whole algebra.
    """
    ansatz = [(n, m)
              for n in range(bound + 1)
              for m in range(bound + 1)
              if degree_filter is None or n - m == degree_filter]
    rows: dict = {}
    for ti, t in enumerate(test_set):
        for col, (n, m) in enumerate(ansatz):
            # one ansatz column meets each (test element, coordinate) row once;
            # [Z[n,m], y Y] = -y (n - m) Z[n,m]
            column = _bracket_z({(n, m): 1}, t.z)
            if t.y:
                add_into(column, (((n, m), n - m),), -t.y)
            for coord, c in column.items():
                rows.setdefault((ti, coord), {})[col] = c
    basis = []
    for vec in kernel_rows(list(rows.values()), len(ansatz)):
        basis.append(LieElement({ansatz[col]: c for col, c in vec.items()}))
    return basis
