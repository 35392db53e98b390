"""Chevalley-Eilenberg cohomology with trivial coefficients.

Finite Lie algebras are given by structure constants over a labeled basis
(Jacobi is verified at construction time).  Cochains live in the exterior
powers of the dual, with the basis of strictly increasing multi-indices in
lexicographic order; the differential is

    (d f)(x_0,...,x_k) = sum_{p<q} (-1)^(p+q) f([x_p,x_q], ...without p,q...)

and Betti numbers come from exact rank computations.  The degree-functional
procedure treats first cohomology of the (optionally Y-extended) ladder
algebra over a finite index window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from . import glinf, ladder
from .linalg import ExactMatrix, add_into, canonical, kernel_rows, rank, _rref

# betti_numbers refuses complexes with more cochains than this (dim > 20).
MAX_COCHAINS = 2 ** 20

#: Most generator pairs ``h1_degree_functional`` may constrain, (bound + 1)**4;
#: the default admits bounds up to 31.
MAX_H1_PAIRS = 2 ** 20


class FiniteLieAlgebra:
    """Structure constants over basis indices 0..dim-1.

    ``structure`` maps (i, j) with i < j to the sparse bracket of the i-th
    and j-th basis vectors; antisymmetry is built in and the constructor
    rejects structures violating the Jacobi identity.
    """

    def __init__(self, basis_labels, structure):
        self.basis_labels = tuple(basis_labels)
        self.dim = len(self.basis_labels)
        table = {}
        for (i, j), vec in structure.items():
            if not (0 <= i < j < self.dim):
                raise ValueError("structure key (%s, %s) not increasing in range" % (i, j))
            vec = canonical(vec)
            for b in vec:
                if not 0 <= b < self.dim:
                    raise ValueError("structure value index %s out of range" % (b,))
            if vec:
                table[(i, j)] = vec
        self.structure = table
        bad = self._jacobi_failure()
        if bad is not None:
            raise ValueError("Jacobi identity fails on basis triple %s" % (bad,))

    def bracket_basis(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return self.structure.get((i, j), {})
        return {b: -c for b, c in self.structure.get((j, i), {}).items()}

    def _jacobi_failure(self):
        for i, j, k in combinations(range(self.dim), 3):
            acc: dict = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for x, cx in self.bracket_basis(a, b).items():
                    add_into(acc, self.bracket_basis(x, c), cx)
            if acc:
                return (i, j, k)
        return None


def truncate_gl(n: int) -> FiniteLieAlgebra:
    """gl(n) on the matrix units E[i,j], 0 <= i, j < n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    units = list(product(range(n), repeat=2))
    idx = {unit: a for a, unit in enumerate(units)}
    structure = {}
    for a, b in combinations(range(n * n), 2):
        vec = glinf.generator_bracket_ee(*units[a], *units[b])
        if vec.keys() - idx.keys():
            raise ValueError("[E[%d,%d], E[%d,%d]] leaves gl(%d)" % (*units[a], *units[b], n))
        structure[(a, b)] = {idx[key]: c for key, c in vec.items()}
    return FiniteLieAlgebra(["E[%d,%d]" % unit for unit in units], structure)


def abelian_algebra(dim: int) -> FiniteLieAlgebra:
    """Trivial bracket; models a finite window of the abelian quotient."""
    return FiniteLieAlgebra(["x%d" % i for i in range(dim)], {})


def ce_differential(algebra: FiniteLieAlgebra, k: int) -> ExactMatrix:
    """Matrix of d from k-cochains to (k+1)-cochains in the increasing
    multi-index bases (rows: (k+1)-subsets, columns: k-subsets).

    A subset is also carried as the int bitmask of its members: removing
    x_p and x_q is two xors, and the sign of inserting b into the rest is
    the parity of the members below b, a popcount.  The brackets are read
    from a flat list indexed by i * dim + j, as (bit of b, c) pairs, and
    each row sums its terms by column before any entry is written."""
    n = algebra.dim
    if not 0 <= k <= n:
        raise ValueError("cochain degree %s out of range" % (k,))
    pairs = [(p, q, -1 if (p + q) % 2 else 1)
             for p in range(k + 1) for q in range(p + 1, k + 1)]
    bits = [1 << i for i in range(n)]
    cols = {sum(map(bits.__getitem__, S)): c for c, S in enumerate(combinations(range(n), k))}
    flat = [None] * (n * n)
    for (i, j), br in algebra.structure.items():
        flat[i * n + j] = [(bits[b], c) for b, c in br.items()]
    entries: dict = {}
    for r, S in enumerate(combinations(range(n), k + 1)):
        mask = sum(map(bits.__getitem__, S))
        row: dict = {}
        for p, q, sign_pq in pairs:
            br = flat[S[p] * n + S[q]]
            if br is None:
                continue
            rest = mask ^ bits[S[p]] ^ bits[S[q]]
            for bit, c in br:
                if rest & bit:
                    continue
                col = cols[rest | bit]
                sgn = -sign_pq if (rest & (bit - 1)).bit_count() % 2 else sign_pq
                row[col] = row.get(col, 0) + sgn * c
        for col, v in row.items():
            if v:
                entries[r, col] = v
    return ExactMatrix._from_canonical(comb(n, k + 1), comb(n, k), entries)


@dataclass(frozen=True)
class BettiTable:
    betti: tuple
    cochain_dims: tuple
    ranks: tuple

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))


def check_cochain_limit(dim: int) -> None:
    """ValueError if a ``dim``-dimensional algebra has over MAX_COCHAINS cochains.
    2^dim is compared by its exponent, so a huge dim costs nothing, and is
    written out in the message only up to dim 64, so the message stays short."""
    if dim > MAX_COCHAINS.bit_length() - 1:
        count = "2^%d = %d" % (dim, 2 ** dim) if dim <= 64 else "2^%d" % dim
        raise ValueError("the complex of a %d-dimensional algebra has %s cochains, "
                         "more than the limit of %d" % (dim, count, MAX_COCHAINS))


def betti_numbers(algebra: FiniteLieAlgebra) -> BettiTable:
    """Exact Betti numbers b_0..b_dim of the trivial-coefficient complex."""
    n = algebra.dim
    check_cochain_limit(n)
    dims = tuple(comb(n, k) for k in range(n + 1))
    ranks = tuple(rank(ce_differential(algebra, k)) for k in range(n + 1))
    betti = tuple(dims[k] - ranks[k] - (ranks[k - 1] if k else 0)
                  for k in range(n + 1))
    return BettiTable(betti, dims, ranks)


@dataclass(frozen=True)
class StabilityReport:
    status: str  # "pass" | "fail" | "not-applicable"
    n: int
    p: int
    b_n: int | None = None
    b_smaller: int | None = None


def stability_check(n: int, p: int) -> StabilityReport:
    """Betti-level shadow of the restriction isomorphism: b_p agrees for
    gl(n) and gl(n-1) whenever p < n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if p >= n:
        return StabilityReport("not-applicable", n, p)
    big = betti_numbers(truncate_gl(n)).betti
    small = betti_numbers(truncate_gl(n - 1)).betti
    b_n = big[p]
    b_s = small[p] if p < len(small) else 0
    return StabilityReport("pass" if b_n == b_s else "fail", n, p, b_n, b_s)


@dataclass(frozen=True)
class H1Report:
    dimension: int
    bound: int
    with_y: bool
    basis: tuple  # dicts degree -> scalar over the window


def h1_degree_functional(bound: int, with_y: bool = False) -> H1Report:
    """First-cohomology functionals that only see the degree class.

    Unknowns are one value per degree class in [-bound, bound]; constraints
    are vanishing on every bracket of generators with indices <= bound, plus
    vanishing on [Y, Z[n,m]] when ``with_y``.  Degree classes outside the
    window that a bracket happens to mention stay free extra columns, and
    the reported dimension is that of the kernel projected onto the window.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if (bound + 1) ** 4 > MAX_H1_PAIRS:
        raise ValueError("bound %d needs %d generator pairs, more than the limit of %d"
                         % (bound, (bound + 1) ** 4, MAX_H1_PAIRS))
    window = list(range(-bound, bound + 1))
    col_of = {d: i for i, d in enumerate(window)}

    def column(d):
        """The window's columns first, then each extra class as it appears."""
        return col_of.setdefault(d, len(col_of))

    gens = [(n, m) for n in range(bound + 1) for m in range(bound + 1)]
    rows = []
    for n, m in gens:
        for l, s in gens:
            class_sum: dict = {}
            for (a, b), c in ladder.generator_bracket(n, m, l, s).items():
                v = class_sum.get(a - b, 0) + c
                if v:
                    class_sum[a - b] = v
                else:
                    del class_sum[a - b]
            if class_sum:
                rows.append({column(d): c for d, c in class_sum.items()})
    if with_y:
        for n, m in gens:
            if n != m:
                rows.append({column(n - m): n - m})
    kernel = kernel_rows(rows, len(col_of))
    # an empty projected row never pivots
    reduced, pivots, _ = _rref([{c: v for c, v in vec.items() if c < len(window)}
                                for vec in kernel])
    basis = []
    for _, i in pivots:
        basis.append({window[c]: v for c, v in sorted(reduced[i].items())})
    return H1Report(len(pivots), bound, with_y, tuple(basis))
