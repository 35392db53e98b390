"""The ladder algebra as a non-abelian extension of its abelian quotient.

The quotient C collapses Z[n,m] to one generator per degree n-m; the section
s lifts degree d to Z[d,0] / Z[0,-d] / Z[0,0].  The pair (alpha, rho) is the
extension datum induced by s (alpha(x).xi = [s(x), xi], rho(x,y) the E form
of [s(x), s(y)]), ``ext_bracket`` rebuilds the full bracket on pairs
(xi, x) in gl_+(infinity) x C, and the two obstruction procedures make the
non-splitting of the sequence checkable at any finite size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm
from operator import mul

from . import ladder
from .glinf import E, GlElement, _bracket_e, bracket_ee, embed_to_z
from .ladder import LieElement
from .linalg import (ExactMatrix, Infeasible, SparseElement, action_cases, add_into, commutator,
                     exact_scalar, solve_or_refute)

#: Most (x, y, xi) derivation conditions ``verify_cocycle_conditions`` may
#: check, (2 * bound + 1)**2 * (bound + 1)**2; the default admits bounds up
#: to 15, the largest that ``verify`` accepts.
MAX_COCYCLE_PAIRS = 2 ** 18

#: Most truncation levels ``nonsplit_infeasibility`` may solve for; its exact
#: solve grows about as levels**2 (1024 levels take a few seconds).
MAX_SPLITTING_LEVELS = 2 ** 10


class CElement(SparseElement):
    """Immutable sparse combination of the quotient generators, one per
    integer degree d."""

    __slots__ = ()


def Cgen(d: int, coeff=1) -> CElement:
    return CElement({d: coeff})


def project_to_c(e: LieElement) -> CElement:
    """Quotient projection: Z[n,m] goes to the degree class n-m."""
    if e.y:
        raise ValueError("element has a Y component")
    return CElement._from_canonical(add_into({}, ((n - m, c) for (n, m), c in e.z.items())))


def section_generator(d: int) -> dict:
    return {(max(d, 0), max(-d, 0)): 1}


def section_s(x: CElement) -> LieElement:
    """Linear section of the projection: degree d lifts to Z[d,0] for d > 0,
    Z[0,-d] for d < 0 and Z[0,0] for d = 0."""
    return LieElement._from_canonical(
        {idx: c for d, c in x.terms.items() for idx in section_generator(d)})


def alpha_on_generator(d: int, i: int, j: int) -> dict:
    """Action of the degree-d quotient generator on E[i,j]: the commutator
    of s(C[d]) = Z[n,m] with E[i,j], where Z[n,m] E[i,j] = E[i-m+n, j] if
    i >= m and E[i,j] Z[n,m] = E[i, j-n+m] if j >= n, else zero."""
    n, m = max(d, 0), max(-d, 0)
    return commutator((i - m + n, j) if i >= m else None, (i, j - n + m) if j >= n else None)


def alpha(x: CElement, g: GlElement) -> GlElement:
    """Bilinear extension of ``alpha_on_generator``; a derivation of the
    ideal for each fixed x."""
    acc: dict = {}
    for d, cx in x.terms.items():
        for (i, j), cg in g.e.items():
            add_into(acc, alpha_on_generator(d, i, j), cx * cg)
    return GlElement._from_canonical(acc)


def rho_on_generators(a: int, b: int) -> dict:
    """rho on the degree-a and degree-b quotient generators: the E form of
    [s(Z_a), s(Z_b)].

    Zero unless a and b have strictly opposite signs; for a = n > 0 and
    b = -m < 0 the commutator [Z[n,0], Z[0,m]] telescopes to
    -sum_{k<min(n,m)} of the degree-(n-m) units.
    """
    if a == 0 or b == 0 or (a > 0) == (b > 0):
        return {}
    if a < 0:
        return {idx: -c for idx, c in rho_on_generators(b, a).items()}
    n, m = a, -b
    if n > m:
        return {(n - m + k, k): -1 for k in range(m)}
    if n < m:
        return {(k, m - n + k): -1 for k in range(n)}
    return {(k, k): -1 for k in range(n)}


def rho(x: CElement, y: CElement) -> GlElement:
    """Alternating bilinear extension of ``rho_on_generators``."""
    acc: dict = {}
    for a, cx in x.terms.items():
        for b, cy in y.terms.items():
            add_into(acc, rho_on_generators(a, b), cx * cy)
    return GlElement._from_canonical(acc)


def c_bracket(x: CElement, y: CElement) -> CElement:
    """The quotient is abelian."""
    return CElement()


@dataclass(frozen=True)
class ExtElement:
    """Pair (xi, x) in gl_+(infinity) x C carrying the rebuilt bracket."""

    xi: GlElement
    x: CElement


def ext_bracket(a: ExtElement, b: ExtElement) -> ExtElement:
    xi = (bracket_ee(a.xi, b.xi)
          + alpha(a.x, b.xi) - alpha(b.x, a.xi)
          + rho(a.x, b.x))
    return ExtElement(xi, c_bracket(a.x, b.x))


@dataclass(frozen=True)
class CocycleReport:
    passed: bool
    bound: int
    pairs_checked: int
    triples_checked: int
    counterexample: str | None = None


def verify_cocycle_conditions(bound: int) -> CocycleReport:
    """Exhaustively check, for all quotient generators with |degree| <= bound
    and units E[i,j] with i, j <= bound, that

        [alpha(x), alpha(y)].xi - alpha([x,y]).xi = [rho(x,y), xi]
        sum_cyclic (alpha(x).rho(y,z) - rho([x,y], z)) = 0.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    conditions = (2 * bound + 1) ** 2 * (bound + 1) ** 2
    if conditions > MAX_COCYCLE_PAIRS:
        raise ValueError("bound %d needs %d derivation conditions, more than the limit of %d"
                         % (bound, conditions, MAX_COCYCLE_PAIRS))
    degrees = range(-bound, bound + 1)
    units = list(product(range(bound + 1), repeat=2))
    # C is abelian, so the alpha([x,y]) and rho([x,y], z) terms vanish: the
    # derivation condition is the action identity with rho acting by ad
    cases = action_cases(
        degrees, units,
        lambda x, g: alpha(CElement._from_canonical(x), GlElement._from_canonical(g)).e,
        lambda x, y: rho(CElement._from_canonical(x), CElement._from_canonical(y)).e,
        _bracket_e)
    for pairs, (x, y, xi, holds) in enumerate(cases, 1):
        if not holds:
            return CocycleReport(False, bound, pairs, 0,
                                 "derivation condition fails at x=%s, y=%s, xi=%s"
                                 % (Cgen(x), Cgen(y), E(*xi)))
    gens = [Cgen(d) for d in degrees]
    for triples, (x, y, z) in enumerate(product(gens, repeat=3), 1):
        try:
            holds = (alpha(x, rho(y, z)) + alpha(y, rho(z, x)) + alpha(z, rho(x, y))).is_zero()
        except ValueError:
            holds = False
        if not holds:
            return CocycleReport(False, bound, conditions, triples,
                                 "cyclic condition fails at x=%s, y=%s, z=%s"
                                 % (x, y, z))
    return CocycleReport(True, bound, conditions, len(gens) ** 3)


def nonsplit_obstruction(b_plus: GlElement, b_minus: GlElement) -> LieElement:
    """Commutator [(s+b)(Z_1), (s+b)(Z_-1)] for a graded correction b.

    ``b_plus`` must be supported on degree +1 units E[h+1,h] and ``b_minus``
    on degree -1 units E[k,k+1]; a splitting morphism would need this
    commutator to vanish, and it never does.
    """
    for i, j in b_plus.e:
        if i != j + 1:
            raise ValueError("b_plus must be supported on E[h+1,h] units")
    for i, j in b_minus.e:
        if j != i + 1:
            raise ValueError("b_minus must be supported on E[k,k+1] units")
    lhs = section_s(Cgen(1)) + embed_to_z(b_plus)
    rhs = section_s(Cgen(-1)) + embed_to_z(b_minus)
    return ladder.bracket(lhs, rhs)


@dataclass(frozen=True)
class ObstructionGridReport:
    max_index: int
    coefficients: tuple
    cases: int
    all_nonzero: bool
    first_zero: tuple | None = None


def obstruction_grid(max_index: int, coefficients=(-2, -1, 0, 1, 2)) -> ObstructionGridReport:
    """Evaluate the splitting obstruction for every graded correction with
    E indices <= max_index and coefficients drawn from ``coefficients``, ints
    or Fractions (a float raises TypeError).

    The commutator is expanded bilinearly over the section and correction
    basis vectors; their pairwise brackets are computed once with the full
    bracket.  They are scaled to ints by the lcm of their denominators, an
    exact scaling, and each is packed into one int with an s-bit slot per Z
    coordinate.  No coordinate of a case's sum, times the square of the
    coefficients' common denominator, can reach 2^(s-1), so a case's packed
    sum is zero exactly when its commutator is: one packed row per correction
    a, which each case b sums.
    """
    coefficients = tuple(map(exact_scalar, coefficients))
    ups = [section_s(Cgen(1))] + [embed_to_z(E(h + 1, h)) for h in range(max_index + 1)]
    downs = [section_s(Cgen(-1))] + [embed_to_z(E(k, k + 1)) for k in range(max_index + 1)]
    table = [[ladder.bracket(u, v).z for u in ups] for v in downs]
    values = [c for column in table for cell in column for c in cell.values()]
    den = lcm(*(c.denominator for c in values))
    top = lcm(*(c.denominator for c in coefficients)) * max([1, *map(abs, coefficients)])
    bits = int(top * top * den * sum(map(abs, values))).bit_length() + 1
    slot = {key: bits * t for t, key in enumerate(
        dict.fromkeys(key for column in table for cell in column for key in cell))}
    packed = [[sum(int(c * den) << slot[key] for key, c in cell.items()) for cell in column]
              for column in table]
    cases = 0
    for a in product(coefficients, repeat=max_index + 1):
        head, *row = (sum(map(mul, (1, *a), column)) for column in packed)
        for b in product(coefficients, repeat=max_index + 1):
            cases += 1
            if not head + sum(map(mul, b, row)):
                return ObstructionGridReport(max_index, coefficients, cases, False, (a, b))
    return ObstructionGridReport(max_index, coefficients, cases, True)


def nonsplit_infeasibility(levels: int) -> Infeasible:
    """Certificate that E[0,0] is not a combination of the telescoped units
    E[j+1,j+1] - E[j,j] for j <= levels.

    The diagonal coordinates give the linear system -phi_0 = 1,
    phi_j = phi_{j-1} and phi_levels = 0, which is always inconsistent.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if levels > MAX_SPLITTING_LEVELS:
        raise ValueError("%d truncation levels are more than the limit of %d"
                         % (levels, MAX_SPLITTING_LEVELS))
    entries = {}
    for j in range(levels + 1):
        entries[(j + 1, j)] = 1
        entries[(j, j)] = -1
    matrix = ExactMatrix(levels + 2, levels + 1, entries)
    rhs = [1] + [0] * (levels + 1)
    result = solve_or_refute(matrix, rhs)
    if not isinstance(result, Infeasible):
        raise RuntimeError("splitting system unexpectedly solvable")
    return result
