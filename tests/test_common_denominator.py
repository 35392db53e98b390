"""The element brackets on int numerators (``linalg.over_common_denominator``)
against the reference they replace: the same dict kernel called directly on
the element dicts, ``Fraction`` values and all."""

import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderie import extension, glinf, ladder, words
from ladderie.glinf import GlElement
from ladderie.ladder import LieElement
from ladderie.linalg import add_into, over_common_denominator
from ladderie.words import WordLieElement

COEFFS = {
    "int": st.integers(-4, 4),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=6),
    "mixed": st.one_of(st.integers(-4, 4),
                       st.fractions(min_value=-3, max_value=3, max_denominator=6)),
}
index = st.integers(0, 3)
word = st.text("ab", max_size=3).map(tuple)
KEYS = {"ladder": st.tuples(index, index), "gl": st.tuples(index, index),
        "words": st.tuples(word, word)}


def reference_ladder(a: LieElement, b: LieElement) -> dict:
    """The ladder bracket with ``_bracket_z`` called on the element dicts."""
    acc = ladder._bracket_z(a.z, b.z)
    add_into(acc, (((n, m), (n - m) * c) for (n, m), c in b.z.items()), a.y)
    add_into(acc, (((n, m), (n - m) * c) for (n, m), c in a.z.items()), -b.y)
    return acc


# name -> (dict kernel, element bracket, element class, reference)
BRACKETS = {
    "ladder": (ladder._bracket_z, ladder.bracket, LieElement, reference_ladder),
    "words": (words._bracket_w, words.bracket_words, WordLieElement,
              lambda a, b: words._bracket_w(a.terms, b.terms)),
    "gl": (glinf._bracket_e, glinf.bracket_ee, GlElement,
           lambda a, b: glinf._bracket_e(a.terms, b.terms)),
}


def element(draw, name, coeffs):
    terms = draw(st.lists(st.tuples(KEYS[name], coeffs), max_size=6))
    if name == "ladder":
        return LieElement(terms, draw(st.one_of(st.just(0), coeffs)))
    return BRACKETS[name][2](terms)


@pytest.mark.parametrize("kind", list(COEFFS))
@pytest.mark.parametrize("name", list(BRACKETS))
@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_bracket_equals_the_kernel_on_fraction_dicts(name, kind, data):
    """Equal values in the same insertion order (element reprs print it),
    also when b is a multiple of a and every term cancels."""
    kernel, bracket, _, reference = BRACKETS[name]
    a = element(data.draw, name, COEFFS[kind])
    if data.draw(st.booleans()):
        b = element(data.draw, name, COEFFS[kind])
    else:
        b = data.draw(COEFFS[kind]) * a
    want = reference(a, b)
    got = bracket(a, b)
    assert list(got.terms.items()) == list(want.items())
    out = over_common_denominator(kernel, a.terms, b.terms)
    assert list(out.items()) == list(kernel(a.terms, b.terms).items())
    if any(c.denominator != 1 for c in (*a.terms.values(), *b.terms.values())):
        assert all((type(v) is int) == (v.denominator == 1) for v in out.values())
    else:  # no denominator: the kernel ran on the dicts as they are
        assert [type(v) for v in out.values()] == [
            type(v) for v in kernel(a.terms, b.terms).values()]
    if kind == "int":
        assert all(type(v) is int for v in got.terms.values())


@pytest.mark.parametrize("name", list(BRACKETS))
def test_a_cancelling_pair_leaves_no_term(name):
    kernel, bracket, cls, _ = BRACKETS[name]
    key = {"ladder": (1, 0), "gl": (1, 0), "words": (("a",), ())}[name]
    a = cls({key: F(2, 3)})
    assert bracket(a, F(-9, 4) * a).is_zero()
    assert over_common_denominator(kernel, a.terms, a.terms) == {}


def fraction_news(fn):
    """``fn()`` and the number of ``Fraction.__new__`` calls it made."""
    made = []
    new = F.__new__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            made.append(1)

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, len(made)


def many_terms(rng, coeff):
    return LieElement({(rng.randrange(12), rng.randrange(12)): coeff(rng) for _ in range(60)})


def test_a_fraction_bracket_makes_at_most_one_fraction_per_output_term():
    rng = random.Random(7)
    a, b = (many_terms(rng, lambda r: F(r.randint(-9, 9) or 1, r.randint(2, 9)))
            for _ in range(2))
    assert len(a.terms) >= 30 and len(b.terms) >= 30
    out, made = fraction_news(lambda: ladder.bracket(a, b))
    assert out.terms and made <= len(out.terms)
    # the reference makes one per coefficient product and per sign
    _, direct = fraction_news(lambda: ladder._bracket_z(a.z, b.z))
    assert direct > 3 * len(out.terms)


def test_an_int_bracket_makes_no_fraction():
    rng = random.Random(8)
    a, b = (many_terms(rng, lambda r: r.randint(-9, 9) or 1) for _ in range(2))
    out, made = fraction_news(lambda: ladder.bracket(a, b))
    assert out.terms and made == 0


def _doubled(original):
    return lambda *key: {k: 2 * c for k, c in original(*key).items()}


@pytest.mark.parametrize("module, seam, name", [
    (ladder, "generator_bracket", "ladder"),
    (words, "generator_bracket_words", "words"),
    (glinf, "generator_bracket_ee", "gl"),
])
@pytest.mark.parametrize("scale", [F(1, 3), 1])
def test_the_generator_seams_reach_the_element_brackets(monkeypatch, module, seam, name,
                                                        scale):
    """Patching a generator bracket changes its element bracket on
    ``Fraction`` operands and on int ones."""
    _, bracket, cls, _ = BRACKETS[name]
    if name == "words":
        ka, kb = (("a",), ()), (("b",), ("a",))
    else:
        ka, kb = (1, 0), (0, 1)
    a, b = cls({ka: scale, kb: 2 * scale}), cls({kb: 5 * scale, ka: -scale})
    plain = bracket(a, b)
    assert not plain.is_zero()
    monkeypatch.setattr(module, seam, _doubled(getattr(module, seam)))
    assert bracket(a, b) == 2 * plain


def test_the_gl_seam_reaches_the_cocycle_check(monkeypatch):
    """The derivation half of ``ext.cocycle_conditions`` brackets through
    ``glinf._bracket_e``, so ``glinf.generator_bracket_ee`` reaches it."""
    assert extension.verify_cocycle_conditions(1).passed
    monkeypatch.setattr(glinf, "generator_bracket_ee", _doubled(glinf.generator_bracket_ee))
    report = extension.verify_cocycle_conditions(1)
    assert not report.passed and "derivation condition" in report.counterexample
