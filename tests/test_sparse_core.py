"""The shared sparse core: every element kind and every kernel against a
reference recomputed with ``canonical`` from the raw term lists."""

from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import act_on_word
from ladderie.extension import (CElement, Cgen, alpha, alpha_on_generator, rho,
                                rho_on_generators)
from ladderie.glinf import E, GlElement, bracket_ee, generator_bracket_ee
from ladderie.ladder import LieElement, Z, bracket, generator_bracket
from ladderie.ladder_module import LadderPoly, TensorPoly, act, act_generator
from ladderie.linalg import canonical
from ladderie.words import (WordLieElement, WordPoly, act_word,
                            bracket_words, generator_bracket_words)

coeffs = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))
index = st.integers(0, 3)
mono = st.lists(index, max_size=3)
word = st.text("ab", max_size=3)

KEYS = {
    LieElement: st.tuples(index, index),
    GlElement: st.tuples(index, index),
    CElement: st.integers(-3, 3),
    LadderPoly: mono,
    TensorPoly: st.tuples(mono, mono),
    WordPoly: word,
    WordLieElement: st.tuples(word, word),
}

NORMAL_KEY = {
    LadderPoly: lambda m: tuple(sorted(m)),
    TensorPoly: lambda p: (tuple(sorted(p[0])), tuple(sorted(p[1]))),
    WordPoly: tuple,
    WordLieElement: lambda p: (tuple(p[0]), tuple(p[1])),
}


def raw(kind):
    """Raw (key, coefficient) lists: unnormalised keys, repeats and zeros."""
    return st.lists(st.tuples(KEYS[kind], coeffs), max_size=4)


def normal(kind, terms):
    key = NORMAL_KEY.get(kind, lambda k: k)
    return [(key(k), c) for k, c in terms]


def check_element(elem, kind, ref_terms, ref_y=0):
    """``elem`` holds exactly canonical(ref_terms), stores only nonzero
    ints and Fractions, and equals (and hashes as) the publicly built element."""
    assert type(elem) is kind
    assert elem.terms == canonical(ref_terms)
    assert all(type(c) in (int, F) and c for c in elem.terms.values())
    public = kind(ref_terms, ref_y) if kind is LieElement else kind(ref_terms)
    if kind is LieElement:
        assert type(elem.y) in (int, F) and elem.y == ref_y
    assert elem == public and hash(elem) == hash(public)
    assert elem.is_zero() == (not elem.terms and not ref_y)


def ref_bilinear(table, ra, rb):
    return [(key, ca * cb * w) for ka, ca in ra for kb, cb in rb
            for key, w in table(ka, kb).items()]


@pytest.mark.parametrize("kind", list(KEYS), ids=lambda k: k.__name__)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_linear_operations_match_canonical_reference(kind, data):
    ra, rb = data.draw(raw(kind)), data.draw(raw(kind))
    s = data.draw(coeffs)
    na, nb = normal(kind, ra), normal(kind, rb)
    if kind is LieElement:
        ya, yb = data.draw(coeffs), data.draw(coeffs)
        a, b = LieElement(ra, ya), LieElement(rb, yb)
    else:
        ya = yb = 0
        a, b = kind(ra), kind(rb)
    check_element(a, kind, na, ya)
    check_element(a + b, kind, na + nb, ya + yb)
    check_element(a - b, kind, na + [(k, -c) for k, c in nb], ya - yb)
    check_element(-a, kind, [(k, -c) for k, c in na], -ya)
    check_element(a * s, kind, [(k, s * c) for k, c in na], s * ya)
    check_element(s * a, kind, [(k, s * c) for k, c in na], s * ya)
    check_element(kind._from_canonical(canonical(na)) if kind is not LieElement
                  else LieElement._from_canonical(canonical(na), F(ya)), kind, na, ya)


@settings(deadline=None, max_examples=60)
@given(raw(LieElement), raw(LieElement), coeffs, coeffs)
def test_bracket_matches_canonical_reference(ra, rb, ya, yb):
    a, b = LieElement(ra, ya), LieElement(rb, yb)
    ref = ref_bilinear(lambda x, y: generator_bracket(*x, *y), ra, rb)
    ref += [((n, m), ya * (n - m) * c) for (n, m), c in rb]
    ref += [((n, m), -yb * (n - m) * c) for (n, m), c in ra]
    check_element(bracket(a, b), LieElement, ref)
    assert bracket(a, a).is_zero() and not bracket(a, a).terms


@settings(deadline=None, max_examples=60)
@given(raw(GlElement), raw(GlElement), raw(CElement), raw(CElement))
def test_gl_and_extension_kernels_match_canonical_reference(ra, rb, rx, ry):
    a, b, x, y = GlElement(ra), GlElement(rb), CElement(rx), CElement(ry)
    check_element(bracket_ee(a, b), GlElement,
                  ref_bilinear(lambda u, v: generator_bracket_ee(*u, *v), ra, rb))
    check_element(alpha(x, a), GlElement,
                  ref_bilinear(lambda d, u: alpha_on_generator(d, *u), rx, ra))
    check_element(rho(x, y), GlElement, ref_bilinear(rho_on_generators, rx, ry))
    assert not bracket_ee(a, a).terms


def _act_table(nm, m):
    images = [tuple(sorted(m[:i] + (new,) + m[i + 1:]))
              for i, new in enumerate(act_generator(*nm, k) for k in m) if new is not None]
    return canonical((image, 1) for image in images)


@settings(deadline=None, max_examples=60)
@given(raw(LieElement), coeffs, raw(LadderPoly), raw(LadderPoly),
       raw(TensorPoly), raw(TensorPoly))
def test_module_kernels_match_canonical_reference(re, y, rp, rq, rs, rt):
    e, p, q = LieElement(re, y), LadderPoly(rp), LadderPoly(rq)
    np_, nq = normal(LadderPoly, rp), normal(LadderPoly, rq)
    ref = ref_bilinear(_act_table, re, np_) + [(m, y * sum(m) * c) for m, c in np_]
    check_element(act(e, p), LadderPoly, ref)
    check_element(p * q, LadderPoly,
                  ref_bilinear(lambda m1, m2: {tuple(sorted(m1 + m2)): 1}, np_, nq))
    ns, nt = normal(TensorPoly, rs), normal(TensorPoly, rt)
    check_element(TensorPoly(rs) * TensorPoly(rt), TensorPoly, ref_bilinear(
        lambda u, v: {(tuple(sorted(u[0] + v[0])), tuple(sorted(u[1] + v[1]))): 1},
        ns, nt))
    check_element(TensorPoly(rs).swap(), TensorPoly, [((b, a), c) for (a, b), c in ns])


@settings(deadline=None, max_examples=60)
@given(raw(WordLieElement), raw(WordLieElement), raw(WordPoly))
def test_word_kernels_match_canonical_reference(ra, rb, rp):
    a, b, p = WordLieElement(ra), WordLieElement(rb), WordPoly(rp)
    na, nb = normal(WordLieElement, ra), normal(WordLieElement, rb)
    np_ = normal(WordPoly, rp)
    check_element(bracket_words(a, b), WordLieElement,
                  ref_bilinear(lambda u, v: generator_bracket_words(*u, *v), na, nb))

    def act_table(g, w):
        out = act_on_word(*g, w)
        return {} if out is None else {out: 1}

    check_element(act_word(a, p), WordPoly, ref_bilinear(act_table, na, np_))
    assert not bracket_words(a, a).terms


@pytest.mark.parametrize("build", [
    lambda: Z(1, 0, 0.1),
    lambda: E(0, 0, 0.5),
    lambda: LieElement(y=0.5),
    lambda: WordPoly({(): 1.0}),
    lambda: 2.0 * Z(1, 0),
    lambda: Z(1, 0) * complex(2, 0),
    lambda: Cgen(1, Decimal("0.5")),
], ids=["Z-float", "E-float", "Y-float", "WordPoly-float", "float-times-Z",
        "Z-times-complex", "C-Decimal"])
def test_inexact_coefficients_raise_type_error(build):
    with pytest.raises(TypeError):
        build()
