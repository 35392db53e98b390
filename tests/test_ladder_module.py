import random
from fractions import Fraction as F

import pytest

from ladderie import ladder_module, parsing
from ladderie.ladder import LieElement, Y, Z, bracket
from ladderie.ladder_module import (LadderPoly, TensorPoly, act, coproduct, t,
                                    verify_action_is_representation)


def test_act_examples():
    assert act(Z(2, 1), t(3)) == t(4)
    assert act(Z(1, 2), t(1)).is_zero()
    assert act(Z(1, 0), t(0) * t(1)) == t(1) * t(1) + t(0) * t(2)


@pytest.mark.parametrize("build", [
    lambda: LadderPoly({(-1,): 1}),
    lambda: LadderPoly({(2, -1): F(1, 2)}),
    lambda: LadderPoly._from_canonical({(-3, 0): F(1)}),
    lambda: TensorPoly({((-1,), ()): 1}),
    lambda: TensorPoly({((0,), (4, -2)): 3}),
    lambda: TensorPoly._from_canonical({((), (-1,)): F(1)})])
def test_negative_ladder_indices_are_refused(build):
    with pytest.raises(ValueError, match="negative ladder index"):
        build()


def test_act_kills_the_unit():
    one = LadderPoly.one()
    assert act(Z(3, 2), one).is_zero()
    assert act(Y, one).is_zero()


def test_y_action_is_the_total_degree():
    assert act(Y, t(5)) == 5 * t(5)
    assert act(Y, t(0)).is_zero()
    mono = t(1) * t(2) * t(2)
    assert act(Y, mono) == 5 * mono


def test_act_is_linear_in_the_element():
    p = t(2) * t(3)
    e = 2 * Z(1, 1) - Z(0, 2) + 3 * Y
    expected = (2 * act(Z(1, 1), p) - act(Z(0, 2), p) + 3 * act(Y, p))
    assert act(e, p) == expected


def test_grading_of_the_action():
    for n in range(5):
        for m in range(5):
            for k in range(7):
                r = act(Z(n, m), t(k))
                assert r.is_zero() or r == t(k - m + n)


def test_coproduct_examples():
    assert coproduct(t(2)) == TensorPoly({((0,), (2,)): 1, ((1,), (1,)): 1,
                                          ((2,), (0,)): 1})
    assert coproduct(t(0)) == TensorPoly({((0,), (0,)): 1})
    assert coproduct(t(1) * t(1)) == TensorPoly({((0, 0), (1, 1)): 1,
                                                 ((0, 1), (0, 1)): 2,
                                                 ((1, 1), (0, 0)): 1})


def test_coproduct_is_an_algebra_morphism():
    rng = random.Random(31)
    for _ in range(20):
        p = LadderPoly({tuple(sorted(rng.randrange(4)
                                     for _ in range(rng.randint(1, 3)))): 1})
        q = LadderPoly({tuple(sorted(rng.randrange(4)
                                     for _ in range(rng.randint(1, 3)))): 1})
        assert coproduct(p * q) == coproduct(p) * coproduct(q)


def _triple_split(poly, first):
    """Apply the coproduct to one leg of a tensor and flatten to triples."""
    out = {}
    for (a, b), c in coproduct(poly).terms.items():
        inner = coproduct(LadderPoly({(a if first else b): 1}))
        for (u, v), c2 in inner.terms.items():
            key = (u, v, b) if first else (a, u, v)
            out[key] = out.get(key, 0) + c * c2
    return {k: v for k, v in out.items() if v}


def test_coassociativity_and_cocommutativity():
    for k in range(9):
        dt = coproduct(t(k))
        assert dt == dt.swap()
        assert _triple_split(t(k), True) == _triple_split(t(k), False)


def test_representation_law():
    report = verify_action_is_representation(3)
    assert report.passed
    # spot check from the bracket example
    lhs = act(bracket(Z(1, 0), Z(0, 1)), t(0))
    assert lhs == -t(0)
    assert act(Z(1, 0), act(Z(0, 1), t(0))) - act(Z(0, 1), act(Z(1, 0), t(0))) == -t(0)


def test_representation_law_fails_without_the_step_guard(monkeypatch):
    monkeypatch.setattr(ladder_module, "act_generator", lambda n, m, k: k - m + n)
    report = verify_action_is_representation(3)
    assert not report.passed
    assert report.counterexample


def test_act_kernel_refuses_an_image_outside_the_module(monkeypatch):
    """The dict kernel the representation window calls refuses a negative
    index by itself, and it reaches ``act_generator`` at call time."""
    assert ladder_module._act_t({(0, 2): 1}, {(1,): 1}) == {}
    monkeypatch.setattr(ladder_module, "act_generator", lambda n, m, k: k - m + n)
    for apply in (lambda: ladder_module._act_t({(0, 2): 1}, {(1,): 1}),
                  lambda: act(Z(0, 2), t(1))):
        with pytest.raises(ValueError, match="negative ladder index"):
            apply()


def test_leibniz_random():
    rng = random.Random(13)
    for _ in range(60):
        p = LadderPoly({tuple(sorted(rng.randrange(5)
                                     for _ in range(rng.randint(1, 3)))):
                        F(rng.randint(1, 3))})
        q = LadderPoly({tuple(sorted(rng.randrange(5)
                                     for _ in range(rng.randint(1, 3)))):
                        F(rng.randint(1, 3))})
        x = LieElement({(rng.randrange(4), rng.randrange(4)): F(rng.randint(-2, 2))
                        for _ in range(2)}, rng.randint(-1, 1))
        assert act(x, p * q) == act(x, p) * q + p * act(x, q)


def test_negative_ladder_index_rejected():
    with pytest.raises(ValueError):
        t(-1)


@pytest.mark.parametrize("build", [
    lambda: LadderPoly({(0,) * 1001: 1}),
    lambda: LadderPoly._from_canonical({tuple(range(1001)): F(1, 2)}),
    lambda: LadderPoly({(0,) * 600: 1}) * LadderPoly({(1,) * 401: 1}),
    lambda: TensorPoly({((), (2,) * 1001): 1}),
    lambda: parsing.ladder_from_json({"terms": [{"m": [0] * 1001, "c": 1}]})])
def test_a_monomial_above_the_degree_limit_is_refused(build):
    with pytest.raises(ValueError, match="monomial degree 1001 exceeds 1000"):
        build()


def test_the_degree_limit_itself_is_admitted():
    limit = ladder_module.MAX_MONOMIAL_DEGREE
    p = LadderPoly({(0,) * (limit - 1): 1}) * t(3)
    assert parsing.parse_ladder_poly("t[0]^%d*t[3]" % (limit - 1)) == p
    assert parsing.ladder_from_json(parsing.element_to_json(p)) == p
