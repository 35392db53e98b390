"""Batch verification suites behind the CLI `verify` verb.

Every check is a pure function of the bound returning a CheckResult; the
runner executes them in name order, so output is deterministic.  Checks call
into the algebra modules through their module objects (late binding), which
lets the mutation tests patch one seam and watch the right checks fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import cohomology, extension, glinf, ladder, ladder_module, words
from .linalg import Infeasible, add_into, matmul


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: str | None = None


@dataclass(frozen=True)
class SuiteReport:
    bound: int
    passed: bool
    results: tuple


def _ok(name, detail):
    return CheckResult(name, True, detail)


def _fail(name, detail, counterexample):
    return CheckResult(name, False, detail, counterexample)


def _gen_pairs(bound):
    gens = [(n, m) for n in range(bound + 1) for m in range(bound + 1)]
    return gens, [(a, b) for a in gens for b in gens]


def _random_terms(rng, idx_bound, nterms):
    """Random (index pair, coefficient) terms; repeated pairs add up."""
    return [((rng.randrange(idx_bound + 1), rng.randrange(idx_bound + 1)),
             Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(nterms)]


def check_bracket_antisymmetry(bound):
    name = "bracket.antisymmetry"
    gens, pairs = _gen_pairs(bound)
    for (n, m), (l, s) in pairs:
        a, b = ladder.Z(n, m), ladder.Z(l, s)
        if not (ladder.bracket(a, b) + ladder.bracket(b, a)).is_zero():
            return _fail(name, "generator window %d" % bound,
                         "[Z[%d,%d],Z[%d,%d]]" % (n, m, l, s))
    rng = random.Random(101)
    for _ in range(50):
        a = ladder.LieElement(_random_terms(rng, 2 * bound, 4)) + ladder.Y * rng.randint(-2, 2)
        b = ladder.LieElement(_random_terms(rng, 2 * bound, 4)) + ladder.Y * rng.randint(-2, 2)
        if not (ladder.bracket(a, b) + ladder.bracket(b, a)).is_zero():
            return _fail(name, "random combinations", str(a))
    return _ok(name, "%d generator pairs and 50 random combinations" % len(pairs))


def _jacobi_window(gens, bracket_terms):
    """The first triple (a, b, c) of ``gens``, in nested order, whose Jacobi
    sum [[a,b],c] + [[b,c],a] + [[c,a],b] is nonzero, or None.

    ``bracket_terms`` brackets two dicts ``generator -> coefficient``; the
    generators enter as int unit dicts and the pairwise brackets are
    tabulated once, so an integer kernel creates no Fraction here.
    """
    units = {g: {g: 1} for g in gens}
    table = {(a, b): bracket_terms(units[a], units[b]) for a in gens for b in gens}
    for a in gens:
        for b in gens:
            ab = table[a, b]
            for c in gens:
                acc = bracket_terms(ab, units[c])
                add_into(acc, bracket_terms(table[b, c], units[a]))
                add_into(acc, bracket_terms(table[c, a], units[b]))
                if acc:
                    return a, b, c
    return None


def check_bracket_jacobi(bound):
    name = "bracket.jacobi"
    gens, _ = _gen_pairs(bound)
    bad = _jacobi_window(gens, ladder._bracket_z)
    if bad is not None:
        return _fail(name, "exhaustive window %d" % bound, "Z%s, Z%s, Z%s" % bad)
    return _ok(name, "%d generator triples" % len(gens) ** 3)


def check_bracket_grading(bound):
    name = "bracket.grading"
    _, pairs = _gen_pairs(bound)
    for (n, m), (l, s) in pairs:
        r = ladder.bracket(ladder.Z(n, m), ladder.Z(l, s))
        if not r.is_zero() and ladder.degree(r) != (n - m) + (l - s):
            return _fail(name, "window %d" % bound,
                         "[Z[%d,%d],Z[%d,%d]] = %s" % (n, m, l, s, r))
    return _ok(name, "%d pairs" % len(pairs))


def check_bracket_decomposition(bound):
    name = "bracket.decomposition"
    top = max(bound, 10)
    for n in range(top + 1):
        for m in range(top + 1):
            if ladder.decompose_generator(n, m).evaluate() != ladder.Z(n, m):
                return _fail(name, "window %d" % top, "Z[%d,%d]" % (n, m))
    return _ok(name, "all generators with indices <= %d" % top)


def check_bracket_y_derivation(bound):
    name = "bracket.y_derivation"
    _, pairs = _gen_pairs(bound)
    for (n, m), (l, s) in pairs:
        a, b = ladder.Z(n, m), ladder.Z(l, s)
        lhs = ladder.bracket(ladder.Y, ladder.bracket(a, b))
        rhs = (ladder.bracket(ladder.bracket(ladder.Y, a), b)
               + ladder.bracket(a, ladder.bracket(ladder.Y, b)))
        if lhs != rhs:
            return _fail(name, "window %d" % bound,
                         "Z[%d,%d], Z[%d,%d]" % (n, m, l, s))
    return _ok(name, "%d pairs" % len(pairs))


def check_bracket_center_z00(bound):
    name = "bracket.center_z00"
    top = max(bound, 10)
    for n in range(top + 1):
        for m in range(top + 1):
            if not ladder.bracket(ladder.Z(0, 0), ladder.Z(n, m)).is_zero():
                return _fail(name, "window %d" % top, "Z[%d,%d]" % (n, m))
    return _ok(name, "Z[0,0] commutes with indices <= %d" % top)


def check_lie_center_window(bound):
    name = "lie.center_window"
    b = min(bound, 6)
    tests = ([ladder.Z(k, k) for k in range(1, 7)]
             + [ladder.Z(n, 0) for n in range(1, 7)]
             + [ladder.Z(0, n) for n in range(1, 7)])
    basis = ladder.centralizer_basis(tests, b)
    if basis == [ladder.Z(0, 0)]:
        return _ok(name, "centralizer at bound %d is exactly span{Z[0,0]}" % b)
    return _fail(name, "bound %d" % b, "basis = %s" % ([str(x) for x in basis],))


def check_lie_maximal_abelian(bound):
    name = "lie.maximal_abelian"
    tests = [ladder.Z(k, k) for k in range(1, 2 * bound + 1)]
    basis = ladder.centralizer_basis(tests, bound)
    expected = [ladder.Z(j, j) for j in range(bound + 1)]
    if sorted(basis, key=lambda e: sorted(e.z)) == expected:
        return _ok(name, "diagonal test set pins the degree-0 window at bound %d" % bound)
    return _fail(name, "bound %d" % bound, "basis = %s" % ([str(x) for x in basis],))


def check_glinf_bracket_embedding(bound):
    name = "glinf.bracket_embedding"
    units = [(i, j) for i in range(bound + 1) for j in range(bound + 1)]
    for i, j in units:
        for r, k in units:
            a, b = glinf.E(i, j), glinf.E(r, k)
            via_z = glinf.express_in_e(
                ladder.bracket(glinf.embed_to_z(a), glinf.embed_to_z(b)))
            if via_z != glinf.bracket_ee(a, b):
                return _fail(name, "window %d" % bound,
                             "E[%d,%d], E[%d,%d]" % (i, j, r, k))
    return _ok(name, "%d unit pairs" % (len(units) ** 2))


def check_glinf_ideal(bound):
    name = "glinf.ideal"
    for n in range(bound + 1):
        for m in range(bound + 1):
            for i in range(bound + 1):
                for j in range(bound + 1):
                    br = ladder.bracket(ladder.Z(n, m), glinf.embed_to_z(glinf.E(i, j)))
                    if glinf.express_in_e(br) is None:
                        return _fail(name, "window %d" % bound,
                                     "[Z[%d,%d], E[%d,%d]]" % (n, m, i, j))
    return _ok(name, "all [Z, E] with indices <= %d stay in the ideal" % bound)


def check_glinf_derived(bound):
    name = "glinf.derived_subalgebra"
    _, pairs = _gen_pairs(bound)
    for (n, m), (l, s) in pairs:
        br = ladder.bracket(ladder.Z(n, m), ladder.Z(l, s))
        if glinf.express_in_e(br) is None:
            return _fail(name, "window %d" % bound,
                         "[Z[%d,%d],Z[%d,%d]]" % (n, m, l, s))
    return _ok(name, "%d generator brackets land in the ideal" % len(pairs))


def check_glinf_singles_excluded(bound):
    name = "glinf.single_generators_excluded"
    for n in range(bound + 1):
        for m in range(bound + 1):
            if glinf.express_in_e(ladder.Z(n, m)) is not None:
                return _fail(name, "window %d" % bound, "Z[%d,%d]" % (n, m))
    return _ok(name, "no single generator with indices <= %d is in the ideal" % bound)


def check_glinf_traceless(bound):
    name = "glinf.traceless_commutators"
    for n in range(bound + 1):
        for m in range(bound + 1):
            for i in range(bound + 1):
                for j in range(bound + 1):
                    br = ladder.bracket(ladder.Z(n, m), glinf.embed_to_z(glinf.E(i, j)))
                    g = glinf.express_in_e(br)
                    if g is None or glinf.trace_functional(g):
                        return _fail(name, "window %d" % bound,
                                     "[Z[%d,%d], E[%d,%d]]" % (n, m, i, j))
    return _ok(name, "commutators with the ideal are traceless up to %d" % bound)


def check_glinf_roundtrip(bound):
    name = "glinf.roundtrip"
    rng = random.Random(7)
    for _ in range(100):
        g = glinf.GlElement(_random_terms(rng, 2 * bound, 5))
        if glinf.express_in_e(glinf.embed_to_z(g)) != g:
            return _fail(name, "random elements", repr(g))
    return _ok(name, "100 random elements")


def check_ext_section(bound):
    name = "ext.section"
    top = max(bound, 10)
    for d in range(-top, top + 1):
        c = extension.Cgen(d)
        if extension.project_to_c(extension.section_s(c)) != c:
            return _fail(name, "window %d" % top, "C[%d]" % d)
    return _ok(name, "section splits the projection for |d| <= %d" % top)


def check_ext_alpha_agreement(bound):
    name = "ext.alpha_agreement"
    for d in range(-bound, bound + 1):
        for i in range(bound + 1):
            for j in range(bound + 1):
                lhs = extension.alpha(extension.Cgen(d), glinf.E(i, j))
                rhs = glinf.express_in_e(ladder.bracket(
                    extension.section_s(extension.Cgen(d)),
                    glinf.embed_to_z(glinf.E(i, j))))
                if lhs != rhs:
                    return _fail(name, "window %d" % bound,
                                 "alpha(C[%d]).E[%d,%d]" % (d, i, j))
    return _ok(name, "alpha matches the section bracket on the window")


def check_ext_rho_agreement(bound):
    name = "ext.rho_agreement"
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            lhs = extension.rho(extension.Cgen(a), extension.Cgen(b))
            rhs = glinf.express_in_e(ladder.bracket(
                extension.section_s(extension.Cgen(a)),
                extension.section_s(extension.Cgen(b))))
            if lhs != rhs:
                return _fail(name, "window %d" % bound, "rho(C[%d],C[%d])" % (a, b))
    return _ok(name, "rho matches the section commutators on the window")


def check_ext_cocycles(bound):
    name = "ext.cocycle_conditions"
    report = extension.verify_cocycle_conditions(bound)
    if report.passed:
        return _ok(name, "%d pair and %d triple conditions"
                   % (report.pairs_checked, report.triples_checked))
    return _fail(name, "bound %d" % bound, report.counterexample)


def check_ext_reconstruction(bound):
    name = "ext.reconstruction"
    _, pairs = _gen_pairs(bound)
    for (n, m), (l, s) in pairs:
        a, b = ladder.Z(n, m), ladder.Z(l, s)
        xa = extension.project_to_c(a)
        xb = extension.project_to_c(b)
        xia = glinf.express_in_e(a - extension.section_s(xa))
        xib = glinf.express_in_e(b - extension.section_s(xb))
        if xia is None or xib is None:
            return _fail(name, "window %d" % bound, "section residue not in ideal")
        res = extension.ext_bracket(extension.ExtElement(xia, xa),
                                    extension.ExtElement(xib, xb))
        rebuilt = glinf.embed_to_z(res.xi) + extension.section_s(res.x)
        if rebuilt != ladder.bracket(a, b):
            return _fail(name, "window %d" % bound,
                         "Z[%d,%d], Z[%d,%d]" % (n, m, l, s))
    return _ok(name, "%d generator pairs rebuilt through (alpha, rho)" % len(pairs))


def check_ext_obstruction(bound):
    name = "ext.obstruction_grid"
    if extension.nonsplit_obstruction(glinf.GlElement(), glinf.GlElement()).is_zero():
        return _fail(name, "base case", "uncorrected section commutator vanished")
    report = extension.obstruction_grid(min(bound, 2))
    if report.all_nonzero:
        return _ok(name, "%d graded corrections, none split" % report.cases)
    return _fail(name, "grid %d" % report.max_index, str(report.first_zero))


def check_ext_infeasible(bound):
    name = "ext.splitting_infeasible"
    for levels in range(21):
        cert = extension.nonsplit_infeasibility(levels)
        if not isinstance(cert, Infeasible) or cert.rank_augmented != cert.rank_matrix + 1:
            return _fail(name, "levels %d" % levels, repr(cert))
    return _ok(name, "certificates for every truncation level <= 20")


def check_module_representation(bound):
    name = "module.representation"
    report = ladder_module.verify_action_is_representation(bound, bound)
    if report.passed:
        return _ok(name, "%d triples" % report.checked)
    return _fail(name, "bound %d" % bound, report.counterexample)


def check_module_leibniz(bound):
    name = "module.leibniz"
    rng = random.Random(23)
    for _ in range(50):
        p = ladder_module.LadderPoly(
            {tuple(sorted(rng.randrange(5) for _ in range(rng.randrange(1, 4)))):
             Fraction(rng.randint(-3, 3) or 1)})
        q = ladder_module.LadderPoly(
            {tuple(sorted(rng.randrange(5) for _ in range(rng.randrange(1, 4)))):
             Fraction(rng.randint(-3, 3) or 1)})
        x = ladder.LieElement(_random_terms(rng, 4, 3)) + ladder.Y * rng.randint(-1, 1)
        lhs = ladder_module.act(x, p * q)
        rhs = ladder_module.act(x, p) * q + p * ladder_module.act(x, q)
        if lhs != rhs:
            return _fail(name, "random monomials", "%r, %r, %s" % (p, q, x))
    return _ok(name, "50 random monomial pairs")


def check_module_coproduct(bound):
    name = "module.coproduct"
    top = max(bound, 8)
    for k in range(top + 1):
        tk = ladder_module.t(k)
        dt = ladder_module.coproduct(tk)
        if dt != dt.swap():
            return _fail(name, "cocommutativity", "t[%d]" % k)
        left = {}
        right = {}
        for (a, b), c in dt.terms.items():
            da = ladder_module.coproduct(ladder_module.LadderPoly({a: 1}))
            db = ladder_module.coproduct(ladder_module.LadderPoly({b: 1}))
            add_into(left, (((a1, a2, b), c2) for (a1, a2), c2 in da.terms.items()), c)
            add_into(right, (((a, b1, b2), c2) for (b1, b2), c2 in db.terms.items()), c)
        if left != right:
            return _fail(name, "coassociativity", "t[%d]" % k)
    return _ok(name, "coassociative and cocommutative through t[%d]" % top)


def _word_generators(alphabet, max_len):
    ws = [w for k in range(max_len + 1) for w in alphabet.words(k)]
    return [(w1, w2) for w1 in ws for w2 in ws]


def _two_letter_alphabet():
    return words.Alphabet([words.Letter("a", 1), words.Letter("b", 2)])


def check_words_antisymmetry(bound):
    name = "words.antisymmetry"
    gens = _word_generators(_two_letter_alphabet(), 2)
    for g in gens:
        for h in gens:
            a, b = words.Zw(*g), words.Zw(*h)
            if not (words.bracket_words(a, b) + words.bracket_words(b, a)).is_zero():
                return _fail(name, "words of length <= 2", "%r, %r" % (g, h))
    return _ok(name, "%d generator pairs" % (len(gens) ** 2))


def check_words_jacobi(bound):
    name = "words.jacobi"
    gens = _word_generators(_two_letter_alphabet(), 2)
    bad = _jacobi_window(gens, words._bracket_w)
    if bad is not None:
        return _fail(name, "words of length <= 2",
                     "%r %r %r" % tuple(words.Zw(*g) for g in bad))
    return _ok(name, "%d generator triples" % len(gens) ** 3)


def check_words_action_representation(bound):
    name = "words.action_representation"
    alphabet = _two_letter_alphabet()
    gens = _word_generators(alphabet, 2)
    targets = [w for k in range(4) for w in alphabet.words(k)]
    units = {g: {g: 1} for g in gens}
    image = {(g, w): words._act_w(units[g], {w: 1}) for g in gens for w in targets}
    for a in gens:
        for b in gens:
            ab = words._bracket_w(units[a], units[b])
            for w in targets:
                rhs = words._act_w(units[a], image[b, w])
                add_into(rhs, words._act_w(units[b], image[a, w]), -1)
                if words._act_w(ab, {w: 1}) != rhs:
                    return _fail(name, "length <= 2 generators on words <= 3",
                                 "%r, %r on %r" % (words.Zw(*a), words.Zw(*b),
                                                   words.WordPoly({w: 1})))
    return _ok(name, "%d generator pairs on %d words" % (len(gens) ** 2, len(targets)))


def check_words_iota_action(bound):
    name = "words.iota_action"
    top = min(bound, 3)
    alphabets = [words.Alphabet([words.Letter("a", 1)]), _two_letter_alphabet()]
    for alphabet in alphabets:
        for n in range(top + 1):
            for m in range(top + 1):
                for k in range(top + 1):
                    report = words.check_iota_action(n, m, k, alphabet)
                    if not report.passed:
                        return _fail(name, report.description, report.counterexample)
    return _ok(name, "all n, m, k <= %d over 1- and 2-letter alphabets" % top)


def check_words_iota_bracket(bound):
    name = "words.iota_bracket"
    top = min(bound, 3)
    alphabets = [words.Alphabet([words.Letter("a", 1)]), _two_letter_alphabet()]
    for alphabet in alphabets:
        for n1, m1, n2, m2 in product(range(top + 1), repeat=4):
            for k in range(top + 1):
                report = words.check_iota_bracket(n1, m1, n2, m2, k, alphabet)
                if not report.passed:
                    return _fail(name, report.description, report.counterexample)
    return _ok(name, "all index pairs <= %d over 1- and 2-letter alphabets" % top)


def check_words_coalgebra(bound):
    name = "words.coalgebra_map"
    alphabet = _two_letter_alphabet()
    for n in range(6):
        lhs = words.word_poly_coproduct(words.iota_h(n, alphabet))
        rhs = {}
        for j in range(n + 1):
            right = words.iota_h(n - j, alphabet).terms
            for w1, c1 in words.iota_h(j, alphabet).terms.items():
                add_into(rhs, (((w1, w2), c2) for w2, c2 in right.items()), c1)
        if lhs != rhs:
            return _fail(name, "degree %d" % n, "splits differ at degree %d" % n)
    return _ok(name, "deconcatenation matches the ladder coproduct through degree 5")


def check_dse_single_letter(bound):
    name = "dse.single_letter"
    alphabet = words.Alphabet([words.Letter("a", 1)])
    exp = words.dse_expand(alphabet, 8)
    for j in range(9):
        if exp.c[j] != words.WordPoly({("a",) * j: 1}):
            return _fail(name, "order %d" % j, repr(exp.c[j]))
        if exp.d[j] != exp.c[j]:
            return _fail(name, "gradings disagree at %d" % j, None)
    return _ok(name, "geometric solution through order 8")


def check_dse_fibonacci(bound):
    name = "dse.fibonacci"
    alphabet = _two_letter_alphabet()
    exp = words.dse_expand(alphabet, 6)
    counts = [len(exp.c[j].terms) for j in range(7)]
    if counts != [1, 1, 2, 3, 5, 8, 13]:
        return _fail(name, "composition counts", str(counts))
    return _ok(name, "orders 1..6 count compositions into parts {1,2}")


def check_dse_sym(bound):
    name = "dse.sym_halving"
    alphabet = words.Alphabet([words.Letter("a", 1, Fraction(2))])
    exp = words.dse_expand(alphabet, 3)
    for j in range(4):
        if exp.c[j] != words.WordPoly({("a",) * j: Fraction(1, 2 ** j)}):
            return _fail(name, "order %d" % j, repr(exp.c[j]))
    return _ok(name, "symmetry weight 2 halves each order")


def _expected_gl_betti(n):
    poly = [1]
    for i in range(1, n + 1):
        deg = 2 * i - 1
        new = poly + [0] * deg
        for k, c in enumerate(poly):
            new[k + deg] += c
        poly = new
    return tuple(poly)


def check_cohomology_betti(bound):
    name = "cohomology.betti_gl"
    for n in (1, 2, 3):
        table = cohomology.betti_numbers(cohomology.truncate_gl(n))
        if table.betti != _expected_gl_betti(n):
            return _fail(name, "gl(%d)" % n, str(table.betti))
        if table.euler_characteristic() != 0:
            return _fail(name, "gl(%d) Euler characteristic" % n, str(table))
    return _ok(name, "gl(1..3) match the odd-generator exterior algebras")


def check_cohomology_d_squared(bound):
    name = "cohomology.d_squared"
    algebras = [cohomology.truncate_gl(1), cohomology.truncate_gl(2),
                cohomology.abelian_algebra(4)]
    for algebra in algebras:
        for k in range(algebra.dim):
            prod = matmul(cohomology.ce_differential(algebra, k + 1),
                          cohomology.ce_differential(algebra, k))
            if prod.entries:
                return _fail(name, "dim %d" % algebra.dim, "degree %d" % k)
    return _ok(name, "d compose d vanishes on the sample algebras")


def check_cohomology_stability(bound):
    name = "cohomology.stability"
    for n in (2, 3):
        for p in range(1, n):
            report = cohomology.stability_check(n, p)
            if report.status != "pass":
                return _fail(name, "gl(%d) degree %d" % (n, p), str(report))
    return _ok(name, "b_p stable below the rank for n <= 3")


def check_cohomology_h1(bound):
    name = "cohomology.h1"
    free = cohomology.h1_degree_functional(bound, with_y=False)
    if free.dimension != 2 * bound + 1:
        return _fail(name, "without Y", "dimension %d" % free.dimension)
    pinned = cohomology.h1_degree_functional(bound, with_y=True)
    if pinned.dimension != 1:
        return _fail(name, "with Y", "dimension %d" % pinned.dimension)
    return _ok(name, "dimensions %d and 1 at bound %d" % (free.dimension, bound))


def check_cohomology_central_evidence(bound):
    name = "cohomology.central_extension_evidence"
    for w in range(1, 7):
        table = cohomology.betti_numbers(cohomology.abelian_algebra(w))
        expected = w * (w - 1) // 2
        got = table.betti[2] if w >= 2 else 0
        if got != expected:
            return _fail(name, "abelian window %d" % w, "b_2 = %d" % got)
    return _ok(name, "b_2 of abelian windows grows as w(w-1)/2 for w <= 6")


_CHECKS = [
    check_bracket_antisymmetry,
    check_bracket_center_z00,
    check_bracket_decomposition,
    check_bracket_grading,
    check_bracket_jacobi,
    check_bracket_y_derivation,
    check_cohomology_betti,
    check_cohomology_central_evidence,
    check_cohomology_d_squared,
    check_cohomology_h1,
    check_cohomology_stability,
    check_dse_fibonacci,
    check_dse_single_letter,
    check_dse_sym,
    check_ext_alpha_agreement,
    check_ext_cocycles,
    check_ext_infeasible,
    check_ext_obstruction,
    check_ext_reconstruction,
    check_ext_rho_agreement,
    check_ext_section,
    check_glinf_bracket_embedding,
    check_glinf_derived,
    check_glinf_ideal,
    check_glinf_roundtrip,
    check_glinf_singles_excluded,
    check_glinf_traceless,
    check_lie_center_window,
    check_lie_maximal_abelian,
    check_module_coproduct,
    check_module_leibniz,
    check_module_representation,
    check_words_action_representation,
    check_words_antisymmetry,
    check_words_coalgebra,
    check_words_iota_action,
    check_words_iota_bracket,
    check_words_jacobi,
]


#: Most generator triples ``bracket.jacobi`` may check, (bound + 1)**6; the
#: default admits bounds up to 15.
MAX_JACOBI_TRIPLES = 2 ** 24


def run_verify_suite(bound: int = 4, stop_on_failure: bool = False) -> SuiteReport:
    """Run every registered check at the given bound, in name order.

    A bound whose Jacobi window exceeds ``MAX_JACOBI_TRIPLES`` is refused
    with a ValueError before any check runs.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    triples = (bound + 1) ** 6
    if triples > MAX_JACOBI_TRIPLES:
        raise ValueError("bound %d needs %d generator triples for bracket.jacobi, "
                         "more than the limit of %d" % (bound, triples, MAX_JACOBI_TRIPLES))
    results = []
    ordered = sorted(_CHECKS, key=lambda f: f.__name__)
    for fn in ordered:
        result = fn(bound)
        results.append(result)
        if stop_on_failure and not result.passed:
            break
    results.sort(key=lambda r: r.name)
    return SuiteReport(bound, all(r.passed for r in results), tuple(results))
