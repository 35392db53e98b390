"""Polynomials in the ladder generators t[k] and the derivation action.

A monomial is the sorted tuple of its t indices (with multiplicity); the
empty tuple is the unit.  Generators act by Z[n,m] t[k] = t[k-m+n] when
m <= k and kill t[k] otherwise; Y acts on t[k] with eigenvalue k; both
extend to products by the Leibniz rule and annihilate the unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import ladder
from .ladder import LieElement
from .linalg import SparseElement, action_cases, add_into

Monomial = tuple  # sorted t indices, e.g. (0, 1, 1) for t[0]*t[1]^2
MAX_MONOMIAL_DEGREE = 1000  #: the largest degree admitted; ``act`` is quadratic in it


def _check_monomials(monomials) -> None:
    """ValueError unless each sorted monomial is non-negative and within the limit."""
    for mono in monomials:
        if mono and mono[0] < 0:
            raise ValueError("negative ladder index in monomial %r" % (mono,))
        if len(mono) > MAX_MONOMIAL_DEGREE:
            raise ValueError("monomial degree %d exceeds %d" % (len(mono), MAX_MONOMIAL_DEGREE))


class LadderPoly(SparseElement):
    """Immutable polynomial: zero-free dict monomial -> int or Fraction."""

    __slots__ = ()

    @staticmethod
    def _key(mono) -> Monomial:
        return tuple(sorted(mono))

    def _check(self) -> None:
        _check_monomials(self.terms)

    @classmethod
    def one(cls) -> "LadderPoly":
        return cls({(): 1})

    def __mul__(self, other):
        if not isinstance(other, LadderPoly):
            return super().__mul__(other)
        return LadderPoly._from_canonical(add_into({}, (
            (tuple(sorted(m1 + m2)), c1 * c2)
            for m1, c1 in self.terms.items() for m2, c2 in other.terms.items())))


def t(k: int, coeff=1) -> LadderPoly:
    return LadderPoly({(k,): coeff})


class TensorPoly(SparseElement):
    """Sparse combination of monomial tensor pairs."""

    __slots__ = ()

    @staticmethod
    def _key(pair) -> tuple:
        return tuple(sorted(pair[0])), tuple(sorted(pair[1]))

    def _check(self) -> None:
        _check_monomials(mono for pair in self.terms for mono in pair)

    @classmethod
    def one(cls) -> "TensorPoly":
        return cls({((), ()): 1})

    def __mul__(self, other):
        if not isinstance(other, TensorPoly):
            return super().__mul__(other)
        return TensorPoly._from_canonical(add_into({}, (
            ((tuple(sorted(a1 + a2)), tuple(sorted(b1 + b2))), c1 * c2)
            for (a1, b1), c1 in self.terms.items() for (a2, b2), c2 in other.terms.items())))

    def swap(self) -> "TensorPoly":
        return TensorPoly._from_canonical({(b, a): c for (a, b), c in self.terms.items()})


def act_generator(n: int, m: int, k: int):
    """Index of Z[n,m] t[k], or None when the elimination does not fit."""
    if ladder.theta(k - m):
        return k - m + n
    return None


def _act_t(tz: dict, tp: dict) -> dict:
    """The Z dict ``tz`` acting on the monomial dict ``tp``; ValueError, as from ``LadderPoly``,
    for an image outside the module.  ``act_generator`` is looked up at call time."""
    acc: dict = {}
    for mono, cp in tp.items():
        for (n, m), cz in tz.items():
            c = cp * cz
            images = (act_generator(n, m, k) for k in mono)
            add_into(acc, ((tuple(sorted(mono[:i] + (knew,) + mono[i + 1:])), c)
                           for i, knew in enumerate(images) if knew is not None))
    _check_monomials(acc)
    return acc


def act(e: LieElement, p: LadderPoly) -> LadderPoly:
    """Derivation action of an extended-algebra element on a polynomial."""
    return LadderPoly._from_canonical(add_into(_act_t(e.z, p.terms), (
        (mono, sum(mono) * cp) for mono, cp in p.terms.items()), e.y))


def coproduct(p: LadderPoly) -> TensorPoly:
    """Deconcatenation-style coproduct: t[k] splits as the sum of
    t[j] (x) t[k-j], extended multiplicatively to monomials."""
    out = TensorPoly()
    for mono, c in p.terms.items():
        part = TensorPoly.one() * c
        for k in mono:
            part = part * TensorPoly({((j,), (k - j,)): 1 for j in range(k + 1)})
        out = out + part
    return out


@dataclass(frozen=True)
class ActionReport:
    passed: bool
    generator_bound: int
    ladder_bound: int
    checked: int
    counterexample: str | None = None


def verify_action_is_representation(generator_bound: int, ladder_bound=None) -> ActionReport:
    """Check that the action is a representation on the module: images of
    t[k] stay inside the span of non-negative ladder generators, and
    [x,y] t[k] = x(y t[k]) - y(x t[k]) for all generator pairs with indices
    <= generator_bound and k <= ladder_bound.

    The membership half matters: an action that ignores the elimination
    guard still satisfies the bare commutator identity (everything collapses
    to index shifts), but escapes the module through negative indices,
    which ``LadderPoly`` refuses: the case fails as "image leaves the module".
    """
    if generator_bound < 1:
        raise ValueError("generator_bound must be >= 1")
    if ladder_bound is None:
        ladder_bound = generator_bound
    gens = list(product(range(generator_bound + 1), repeat=2))
    targets = [(k,) for k in range(ladder_bound + 1)]
    cases = action_cases(gens, targets, _act_t, ladder._bracket_z)
    for checked, ((n, m), (l, s), (k,), holds) in enumerate(cases, 1):
        if not holds:
            text = ("image leaves the module at Z[%d,%d]/Z[%d,%d] on t[%d]" if holds is None
                    else "fails at Z[%d,%d], Z[%d,%d], t[%d]")
            return ActionReport(False, generator_bound, ladder_bound, checked,
                                text % (n, m, l, s, k))
    return ActionReport(True, generator_bound, ladder_bound, len(gens) ** 2 * len(targets))
