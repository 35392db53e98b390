"""The ideal gl_+(infinity) inside the ladder algebra, in the E basis.

E[i,j] abbreviates Z[i,j] - Z[i+1,j+1], a matrix unit: E[i,j] E[r,k] is
E[i,k] if j = r and zero otherwise, and the bracket is their commutator.
Within each degree class d the differences of Z generators telescope into
finite E combinations; ``express_in_e`` inverts the embedding where possible
and reports non-membership otherwise.
"""

from __future__ import annotations

from .ladder import LieElement
from .linalg import Scalar, SparseElement, add_into, bilinear, commutator, over_common_denominator

EIndex = tuple  # (i, j), both non-negative


class GlElement(SparseElement):
    """Immutable sparse combination of matrix units E[i,j]."""

    __slots__ = ()
    e = SparseElement.terms  # the same slot as ``terms``, under its own name

    def _check(self) -> None:
        for i, j in self.e:
            if i < 0 or j < 0:
                raise ValueError("negative E index (%s, %s)" % (i, j))


def E(i: int, j: int, coeff=1) -> GlElement:
    return GlElement({(i, j): coeff})


def generator_bracket_ee(i: int, j: int, r: int, k: int) -> dict:
    """[E[i,j], E[r,k]] as a sparse integer combination."""
    return commutator((i, k) if j == r else None, (r, j) if k == i else None)


def _bracket_e(ta: dict, tb: dict) -> dict:
    return bilinear(generator_bracket_ee, ta, tb)


def bracket_ee(a: GlElement, b: GlElement) -> GlElement:
    return GlElement._from_canonical(over_common_denominator(_bracket_e, a.e, b.e))


def embed_to_z(g: GlElement) -> LieElement:
    """Linear embedding sending E[i,j] to Z[i,j] - Z[i+1,j+1]."""
    acc: dict = {}
    for (i, j), c in g.e.items():
        add_into(acc, (((i, j), c), ((i + 1, j + 1), -c)))
    return LieElement._from_canonical(acc)


def express_in_e(e: LieElement):
    """The unique finite E expansion of ``e``, or None if ``e`` is outside
    the ideal.

    Per degree class d the coefficients of Z[d+k,k] (resp. Z[k,k-d]) are
    scanned in increasing k; the running partial sum is the coefficient of
    the k-th telescoping unit, and membership requires each class to sum to
    zero overall.
    """
    if e.y:
        raise ValueError("element has a Y component")
    classes: dict = {}
    for (n, m), c in e.z.items():
        classes.setdefault(n - m, {})[min(n, m)] = c
    out: dict = {}
    for d, coeffs in classes.items():
        if sum(coeffs.values()):
            return None
        i0, j0 = (d, 0) if d >= 0 else (0, -d)
        running = 0
        for k in range(max(coeffs)):
            running += coeffs.get(k, 0)
            if running:
                out[(i0 + k, j0 + k)] = running
    return GlElement._from_canonical(out)


def trace_functional(g: GlElement) -> Scalar:
    """Sum of the diagonal coefficients; its kernel is the traceless part."""
    return sum(c for (i, j), c in g.e.items() if i == j)
