import random
from fractions import Fraction as F
from itertools import product

import pytest

from ladderie import extension
from ladderie.extension import (CElement, Cgen, ExtElement, alpha, c_bracket,
                                ext_bracket, nonsplit_infeasibility,
                                nonsplit_obstruction, obstruction_grid,
                                project_to_c, rho, section_s,
                                verify_cocycle_conditions)
from ladderie.glinf import E, GlElement, embed_to_z, express_in_e
from ladderie.ladder import Y, Z, bracket
from ladderie.linalg import ExactMatrix, Infeasible


def test_project_examples():
    assert project_to_c(Z(3, 1)) == Cgen(2)
    assert project_to_c(Z(0, 0) - Z(1, 1)).is_zero()
    assert project_to_c(2 * Z(1, 0) + Z(2, 1)) == 3 * Cgen(1)
    with pytest.raises(ValueError):
        project_to_c(Y)


def test_section_examples():
    assert section_s(Cgen(2)) == Z(2, 0)
    assert section_s(Cgen(-3)) == Z(0, 3)
    assert section_s(Cgen(0)) == Z(0, 0)


def test_section_splits_projection():
    for d in range(-10, 11):
        assert project_to_c(section_s(Cgen(d))) == Cgen(d)


def test_alpha_examples():
    assert alpha(Cgen(1), E(0, 0)) == E(1, 0)
    assert alpha(Cgen(-1), E(0, 0)) == -E(0, 1)
    assert alpha(Cgen(0), E(5, 2)).is_zero()


def test_alpha_agrees_with_section_bracket():
    for d in range(-4, 5):
        for i in range(5):
            for j in range(5):
                direct = alpha(Cgen(d), E(i, j))
                via_bracket = express_in_e(
                    bracket(section_s(Cgen(d)), embed_to_z(E(i, j))))
                assert direct == via_bracket


def test_rho_values():
    # the completion forced by the reconstruction bracket: rho is the E form
    # of the section commutators
    assert rho(Cgen(2), Cgen(-1)) == -E(1, 0)
    assert rho(Cgen(1), Cgen(-2)) == -E(0, 1)
    assert rho(Cgen(1), Cgen(-1)) == -E(0, 0)
    assert rho(Cgen(3), Cgen(-3)) == -(E(0, 0) + E(1, 1) + E(2, 2))
    assert rho(Cgen(1), Cgen(2)).is_zero()
    assert rho(Cgen(-1), Cgen(-2)).is_zero()
    assert rho(Cgen(0), Cgen(5)).is_zero()


def test_rho_is_antisymmetric_and_matches_sections():
    for a in range(-4, 5):
        for b in range(-4, 5):
            r = rho(Cgen(a), Cgen(b))
            assert r == -rho(Cgen(b), Cgen(a))
            assert r == express_in_e(bracket(section_s(Cgen(a)),
                                             section_s(Cgen(b))))


def test_ext_bracket_examples():
    r = ext_bracket(ExtElement(GlElement(), Cgen(1)),
                    ExtElement(GlElement(), Cgen(-1)))
    assert r.xi == -E(0, 0) and r.x.is_zero()

    r = ext_bracket(ExtElement(E(0, 0), CElement()),
                    ExtElement(E(1, 1), CElement()))
    assert r.xi.is_zero() and r.x.is_zero()

    r = ext_bracket(ExtElement(GlElement(), Cgen(1)),
                    ExtElement(E(0, 0), CElement()))
    assert r.xi == E(1, 0) and r.x.is_zero()


def test_cocycle_conditions_pass():
    assert verify_cocycle_conditions(1).passed
    report = verify_cocycle_conditions(3)
    assert report.passed
    assert report.pairs_checked == 49 * 16
    assert report.triples_checked == 343


def test_cocycle_conditions_catch_perturbed_rho(monkeypatch):
    original = extension.rho_on_generators

    def perturbed(a, b):
        out = dict(original(a, b))
        if (a, b) == (1, -2):
            out.pop((0, 1), None)
        elif (a, b) == (-2, 1):
            out[(0, 1)] = 1
        return out

    monkeypatch.setattr(extension, "rho_on_generators", perturbed)
    report = verify_cocycle_conditions(2)
    assert not report.passed
    assert report.counterexample


def test_reconstruction_window():
    for n, m, l, s in product(range(4), repeat=4):
        a, b = Z(n, m), Z(l, s)
        xa, xb = project_to_c(a), project_to_c(b)
        xia = express_in_e(a - section_s(xa))
        xib = express_in_e(b - section_s(xb))
        assert xia is not None and xib is not None
        res = ext_bracket(ExtElement(xia, xa), ExtElement(xib, xb))
        rebuilt = embed_to_z(res.xi) + section_s(res.x)
        assert rebuilt == bracket(a, b)


def test_ext_bracket_antisymmetry_and_jacobi_random():
    rng = random.Random(11)

    def rand_ext():
        xi = GlElement({(rng.randrange(3), rng.randrange(3)): F(rng.randint(-2, 2))
                        for _ in range(2)})
        x = CElement({rng.randint(-3, 3): F(rng.randint(-2, 2)) for _ in range(2)})
        return ExtElement(xi, x)

    def add(p, q):
        return ExtElement(p.xi + q.xi, p.x + q.x)

    for _ in range(30):
        a, b, c = rand_ext(), rand_ext(), rand_ext()
        ab = ext_bracket(a, b)
        ba = ext_bracket(b, a)
        assert (ab.xi + ba.xi).is_zero() and (ab.x + ba.x).is_zero()
        total = add(add(ext_bracket(ab, c),
                        ext_bracket(ext_bracket(b, c), a)),
                    ext_bracket(ext_bracket(c, a), b))
        assert total.xi.is_zero() and total.x.is_zero()


def test_c_bracket_is_abelian():
    assert c_bracket(Cgen(3), Cgen(-2)).is_zero()


def test_obstruction_examples():
    r = nonsplit_obstruction(GlElement(), GlElement())
    assert r == Z(1, 1) - Z(0, 0)
    assert r == embed_to_z(-E(0, 0))

    r = nonsplit_obstruction(E(1, 0), GlElement())
    assert r == embed_to_z(E(1, 1) - 2 * E(0, 0))

    # frozen from the direct-bracket oracle (and the general expansion with
    # a_0 = b_0 = 1)
    r = nonsplit_obstruction(E(1, 0), E(0, 1))
    assert r == embed_to_z(3 * E(1, 1) - 4 * E(0, 0))


def test_obstruction_matches_general_expansion():
    # -E[0,0] + sum_j (b_j + a_j (1 + b_j)) (E[j+1,j+1] - E[j,j])
    rng = random.Random(41)
    for _ in range(50):
        a = [rng.randint(-2, 2) for _ in range(4)]
        b = [rng.randint(-2, 2) for _ in range(4)]
        b_plus = GlElement({(h + 1, h): a[h] for h in range(4)})
        b_minus = GlElement({(k, k + 1): b[k] for k in range(4)})
        expected = -E(0, 0)
        for j in range(4):
            coeff = b[j] + a[j] * (1 + b[j])
            expected = expected + coeff * (E(j + 1, j + 1) - E(j, j))
        assert nonsplit_obstruction(b_plus, b_minus) == embed_to_z(expected)


def test_obstruction_grading_precondition():
    with pytest.raises(ValueError):
        nonsplit_obstruction(E(0, 0), GlElement())
    with pytest.raises(ValueError):
        nonsplit_obstruction(GlElement(), E(2, 1))


def test_obstruction_grid_small_and_pointwise_agreement():
    report = obstruction_grid(1, (-1, 0, 1))
    assert report.all_nonzero and report.cases == 81
    with pytest.raises(TypeError, match="is not exact"):
        obstruction_grid(1, (-1, 0.5, 1))

    rng = random.Random(8)
    for _ in range(40):
        a = [rng.randint(-2, 2) for _ in range(3)]
        b = [rng.randint(-2, 2) for _ in range(3)]
        b_plus = GlElement({(h + 1, h): a[h] for h in range(3)})
        b_minus = GlElement({(k, k + 1): b[k] for k in range(3)})
        assert not nonsplit_obstruction(b_plus, b_minus).is_zero()


def test_infeasibility_examples():
    for levels in (0, 5, 20):
        cert = nonsplit_infeasibility(levels)
        assert isinstance(cert, Infeasible)
        assert cert.rank_matrix == levels + 1
        assert cert.rank_augmented == levels + 2
        # rebuild the system and check the Farkas witness exactly
        entries = {}
        for j in range(levels + 1):
            entries[(j + 1, j)] = 1
            entries[(j, j)] = entries.get((j, j), 0) - 1
        matrix = ExactMatrix(levels + 2, levels + 1, entries)
        y = cert.witness
        combo = {}
        for (r, c), v in matrix.entries.items():
            combo[c] = combo.get(c, F(0)) + y[r] * v
        assert all(v == 0 for v in combo.values())
        rhs = [F(1)] + [F(0)] * (levels + 1)
        assert sum(w * b for w, b in zip(y, rhs)) != 0
