"""Batch verification suites behind the CLI `verify` verb.

Every check is a pure function of the bound returning a CheckResult; the
registry is every ``check_*`` function, run in name order.  Checks reach
the algebra modules through their module objects (late binding), so a
mutation test can patch one seam and watch the right checks fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product

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


def _verdict(name, passed_detail, failures):
    """The check's result: a failure for the first (detail, counterexample)
    that the lazy iterable ``failures`` yields, which stops the check there,
    or a pass with ``passed_detail`` when it yields nothing."""
    for detail, counterexample in failures:
        return _fail(name, detail, counterexample)
    return _ok(name, passed_detail)


def _square(top):
    """Index pairs (n, m) with n, m <= top, in nested order."""
    return product(range(top + 1), repeat=2)


def _pairs(bound):
    return list(product(_square(bound), repeat=2))


def _random_terms(rng, idx_bound, nterms):
    """Random (index pair, coefficient) terms; repeated pairs add up."""
    return [((rng.randrange(idx_bound + 1), rng.randrange(idx_bound + 1)),
             Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(nterms)]


def _random_lie(rng, idx_bound, nterms, y_bound):
    return (ladder.LieElement(_random_terms(rng, idx_bound, nterms))
            + ladder.Y * rng.randint(-y_bound, y_bound))


def _antisymmetric(bracket, a, b):
    return (bracket(a, b) + bracket(b, a)).is_zero()


def check_bracket_antisymmetry(bound):
    name = "bracket.antisymmetry"
    pairs = _pairs(bound)
    rng = random.Random(101)
    randoms = ((_random_lie(rng, 2 * bound, 4, 2), _random_lie(rng, 2 * bound, 4, 2))
               for _ in range(50))
    return _verdict(name, "%d generator pairs and 50 random combinations" % len(pairs), chain(
        (("generator window %d" % bound, "[Z[%d,%d],Z[%d,%d]]" % (n, m, l, s))
         for (n, m), (l, s) in pairs
         if not _antisymmetric(ladder.bracket, ladder.Z(n, m), ladder.Z(l, s))),
        (("random combinations", str(a)) for a, b in randoms
         if not _antisymmetric(ladder.bracket, a, b))))


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
    gens = list(_square(bound))
    bad = _jacobi_window(gens, ladder._bracket_z)
    if bad is not None:
        return _fail(name, "exhaustive window %d" % bound, "Z%s, Z%s, Z%s" % bad)
    return _ok(name, "%d generator triples" % len(gens) ** 3)


def check_bracket_grading(bound):
    name = "bracket.grading"
    pairs = _pairs(bound)
    return _verdict(name, "%d pairs" % len(pairs), (
        ("window %d" % bound, "[Z[%d,%d],Z[%d,%d]] = %s" % (n, m, l, s, r))
        for (n, m), (l, s) in pairs
        if not (r := ladder.bracket(ladder.Z(n, m), ladder.Z(l, s))).is_zero()
        and ladder.degree(r) != (n - m) + (l - s)))


def check_bracket_decomposition(bound):
    name = "bracket.decomposition"
    top = max(bound, 10)
    return _verdict(name, "all generators with indices <= %d" % top, (
        ("window %d" % top, "Z[%d,%d]" % (n, m)) for n, m in _square(top)
        if ladder.decompose_generator(n, m).evaluate() != ladder.Z(n, m)))


def check_bracket_y_derivation(bound):
    name = "bracket.y_derivation"
    pairs = _pairs(bound)

    def failures():
        for (n, m), (l, s) in pairs:
            a, b = ladder.Z(n, m), ladder.Z(l, s)
            lhs = ladder.bracket(ladder.Y, ladder.bracket(a, b))
            rhs = (ladder.bracket(ladder.bracket(ladder.Y, a), b)
                   + ladder.bracket(a, ladder.bracket(ladder.Y, b)))
            if lhs != rhs:
                yield "window %d" % bound, "Z[%d,%d], Z[%d,%d]" % (n, m, l, s)
    return _verdict(name, "%d pairs" % len(pairs), failures())


def check_bracket_center_z00(bound):
    name = "bracket.center_z00"
    top = max(bound, 10)
    return _verdict(name, "Z[0,0] commutes with indices <= %d" % top, (
        ("window %d" % top, "Z[%d,%d]" % (n, m)) for n, m in _square(top)
        if not ladder.bracket(ladder.Z(0, 0), ladder.Z(n, m)).is_zero()))


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
    pairs = _pairs(bound)
    return _verdict(name, "%d unit pairs" % len(pairs), (
        ("window %d" % bound, "E[%d,%d], E[%d,%d]" % (i, j, r, k))
        for (i, j), (r, k) in pairs
        if glinf.express_in_e(ladder.bracket(glinf.embed_to_z(glinf.E(i, j)),
                                             glinf.embed_to_z(glinf.E(r, k))))
        != glinf.bracket_ee(glinf.E(i, j), glinf.E(r, k))))


def _z_e_brackets(bound):
    """(text, E form or None) of each [Z[n,m], E[i,j]] with indices <= bound."""
    for (n, m), (i, j) in product(_square(bound), repeat=2):
        br = ladder.bracket(ladder.Z(n, m), glinf.embed_to_z(glinf.E(i, j)))
        yield "[Z[%d,%d], E[%d,%d]]" % (n, m, i, j), glinf.express_in_e(br)


def check_glinf_ideal(bound):
    name = "glinf.ideal"
    return _verdict(name, "all [Z, E] with indices <= %d stay in the ideal" % bound, (
        ("window %d" % bound, text) for text, g in _z_e_brackets(bound) if g is None))


def check_glinf_derived(bound):
    name = "glinf.derived_subalgebra"
    pairs = _pairs(bound)
    return _verdict(name, "%d generator brackets land in the ideal" % len(pairs), (
        ("window %d" % bound, "[Z[%d,%d],Z[%d,%d]]" % (n, m, l, s))
        for (n, m), (l, s) in pairs
        if glinf.express_in_e(ladder.bracket(ladder.Z(n, m), ladder.Z(l, s))) is None))


def check_glinf_singles_excluded(bound):
    name = "glinf.single_generators_excluded"
    return _verdict(name, "no single generator with indices <= %d is in the ideal" % bound, (
        ("window %d" % bound, "Z[%d,%d]" % (n, m)) for n, m in _square(bound)
        if glinf.express_in_e(ladder.Z(n, m)) is not None))


def check_glinf_traceless(bound):
    name = "glinf.traceless_commutators"
    return _verdict(name, "commutators with the ideal are traceless up to %d" % bound, (
        ("window %d" % bound, text) for text, g in _z_e_brackets(bound)
        if g is None or glinf.trace_functional(g)))


def check_glinf_roundtrip(bound):
    name = "glinf.roundtrip"
    rng = random.Random(7)
    randoms = (glinf.GlElement(_random_terms(rng, 2 * bound, 5)) for _ in range(100))
    return _verdict(name, "100 random elements", (
        ("random elements", repr(g)) for g in randoms
        if glinf.express_in_e(glinf.embed_to_z(g)) != g))


def check_ext_section(bound):
    name = "ext.section"
    top = max(bound, 10)
    return _verdict(name, "section splits the projection for |d| <= %d" % top, (
        ("window %d" % top, "C[%d]" % d) for d in range(-top, top + 1)
        if extension.project_to_c(extension.section_s(extension.Cgen(d))) != extension.Cgen(d)))


def check_ext_alpha_agreement(bound):
    name = "ext.alpha_agreement"
    return _verdict(name, "alpha matches the section bracket on the window", (
        ("window %d" % bound, "alpha(C[%d]).E[%d,%d]" % (d, i, j))
        for d in range(-bound, bound + 1) for i, j in _square(bound)
        if extension.alpha(extension.Cgen(d), glinf.E(i, j))
        != glinf.express_in_e(ladder.bracket(extension.section_s(extension.Cgen(d)),
                                             glinf.embed_to_z(glinf.E(i, j))))))


def check_ext_rho_agreement(bound):
    name = "ext.rho_agreement"
    return _verdict(name, "rho matches the section commutators on the window", (
        ("window %d" % bound, "rho(C[%d],C[%d])" % (a, b))
        for a, b in product(range(-bound, bound + 1), repeat=2)
        if extension.rho(extension.Cgen(a), extension.Cgen(b))
        != glinf.express_in_e(ladder.bracket(extension.section_s(extension.Cgen(a)),
                                             extension.section_s(extension.Cgen(b))))))


def check_ext_cocycles(bound):
    name = "ext.cocycle_conditions"
    report = extension.verify_cocycle_conditions(bound)
    if report.passed:
        return _ok(name, "%d pair and %d triple conditions"
                   % (report.pairs_checked, report.triples_checked))
    return _fail(name, "bound %d" % bound, report.counterexample)


def check_ext_reconstruction(bound):
    name = "ext.reconstruction"
    pairs = _pairs(bound)

    def failures():
        for (n, m), (l, s) in pairs:
            a, b = ladder.Z(n, m), ladder.Z(l, s)
            xa = extension.project_to_c(a)
            xb = extension.project_to_c(b)
            xia = glinf.express_in_e(a - extension.section_s(xa))
            xib = glinf.express_in_e(b - extension.section_s(xb))
            if xia is None or xib is None:
                yield "window %d" % bound, "section residue not in ideal"
                continue
            res = extension.ext_bracket(extension.ExtElement(xia, xa),
                                        extension.ExtElement(xib, xb))
            rebuilt = glinf.embed_to_z(res.xi) + extension.section_s(res.x)
            if rebuilt != ladder.bracket(a, b):
                yield "window %d" % bound, "Z[%d,%d], Z[%d,%d]" % (n, m, l, s)
    return _verdict(name, "%d generator pairs rebuilt through (alpha, rho)" % len(pairs),
                    failures())


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
    return _verdict(name, "certificates for every truncation level <= 20", (
        ("levels %d" % levels, repr(cert)) for levels in range(21)
        if not isinstance(cert := extension.nonsplit_infeasibility(levels), Infeasible)
        or cert.rank_augmented != cert.rank_matrix + 1))


def check_module_representation(bound):
    name = "module.representation"
    report = ladder_module.verify_action_is_representation(bound, bound)
    if report.passed:
        return _ok(name, "%d triples" % report.checked)
    return _fail(name, "bound %d" % bound, report.counterexample)


def _random_monomial(rng):
    return ladder_module.LadderPoly(
        {tuple(sorted(rng.randrange(5) for _ in range(rng.randrange(1, 4)))):
         Fraction(rng.randint(-3, 3) or 1)})


def check_module_leibniz(bound):
    name = "module.leibniz"
    rng = random.Random(23)
    cases = ((_random_monomial(rng), _random_monomial(rng), _random_lie(rng, 4, 3, 1))
             for _ in range(50))
    return _verdict(name, "50 random monomial pairs", (
        ("random monomials", "%r, %r, %s" % (p, q, x)) for p, q, x in cases
        if ladder_module.act(x, p * q)
        != ladder_module.act(x, p) * q + p * ladder_module.act(x, q)))


def check_module_coproduct(bound):
    name = "module.coproduct"
    top = max(bound, 8)

    def failures():
        for k in range(top + 1):
            dt = ladder_module.coproduct(ladder_module.t(k))
            if dt != dt.swap():
                yield "cocommutativity", "t[%d]" % k
            left = {}
            right = {}
            for (a, b), c in dt.terms.items():
                da = ladder_module.coproduct(ladder_module.LadderPoly({a: 1}))
                db = ladder_module.coproduct(ladder_module.LadderPoly({b: 1}))
                add_into(left, (((a1, a2, b), c2) for (a1, a2), c2 in da.terms.items()), c)
                add_into(right, (((a, b1, b2), c2) for (b1, b2), c2 in db.terms.items()), c)
            if left != right:
                yield "coassociativity", "t[%d]" % k
    return _verdict(name, "coassociative and cocommutative through t[%d]" % top, failures())


def _word_generators(alphabet, max_len):
    ws = [w for k in range(max_len + 1) for w in alphabet.words(k)]
    return [(w1, w2) for w1 in ws for w2 in ws]


def _two_letter_alphabet():
    return words.Alphabet([words.Letter("a", 1), words.Letter("b", 2)])


def check_words_antisymmetry(bound):
    name = "words.antisymmetry"
    gens = _word_generators(_two_letter_alphabet(), 2)
    return _verdict(name, "%d generator pairs" % (len(gens) ** 2), (
        ("words of length <= 2", "%r, %r" % (g, h)) for g, h in product(gens, repeat=2)
        if not _antisymmetric(words.bracket_words, words.Zw(*g), words.Zw(*h))))


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

    def failures():
        for a, b in product(gens, repeat=2):
            ab = words._bracket_w(units[a], units[b])
            for w in targets:
                rhs = words._act_w(units[a], image[b, w])
                add_into(rhs, words._act_w(units[b], image[a, w]), -1)
                if words._act_w(ab, {w: 1}) != rhs:
                    yield ("length <= 2 generators on words <= 3", "%r, %r on %r" % (
                        words.Zw(*a), words.Zw(*b), words.WordPoly({w: 1})))
    return _verdict(name, "%d generator pairs on %d words" % (len(gens) ** 2, len(targets)),
                    failures())


def _iota_failures(check, arity, top):
    """(description, counterexample) of each failing ``check`` over the 1-
    and 2-letter alphabets, with every index <= top."""
    for alphabet in (words.Alphabet([words.Letter("a", 1)]), _two_letter_alphabet()):
        for indices in product(range(top + 1), repeat=arity):
            report = check(*indices, alphabet)
            if not report.passed:
                yield report.description, report.counterexample


def check_words_iota_action(bound):
    name = "words.iota_action"
    top = min(bound, 3)
    return _verdict(name, "all n, m, k <= %d over 1- and 2-letter alphabets" % top,
                    _iota_failures(words.check_iota_action, 3, top))


def check_words_iota_bracket(bound):
    name = "words.iota_bracket"
    top = min(bound, 3)
    return _verdict(name, "all index pairs <= %d over 1- and 2-letter alphabets" % top,
                    _iota_failures(words.check_iota_bracket, 5, top))


def check_words_coalgebra(bound):
    name = "words.coalgebra_map"
    alphabet = _two_letter_alphabet()

    def failures():
        for n in range(6):
            lhs = words.word_poly_coproduct(words.iota_h(n, alphabet))
            rhs = {}
            for j in range(n + 1):
                right = words.iota_h(n - j, alphabet).terms
                for w1, c1 in words.iota_h(j, alphabet).terms.items():
                    add_into(rhs, (((w1, w2), c2) for w2, c2 in right.items()), c1)
            if lhs != rhs:
                yield "degree %d" % n, "splits differ at degree %d" % n
    return _verdict(name, "deconcatenation matches the ladder coproduct through degree 5",
                    failures())


def _dse_failures(sym, order):
    """The expansion over the one letter "a" of degree 1 and symmetry weight
    ``sym`` must be (a/sym)^j at each order j, in both gradings."""
    exp = words.dse_expand(words.Alphabet([words.Letter("a", 1, sym)]), order)
    for j in range(order + 1):
        if exp.c[j] != words.WordPoly({("a",) * j: Fraction(1, sym ** j)}):
            yield "order %d" % j, repr(exp.c[j])
        if exp.d[j] != exp.c[j]:
            yield "gradings disagree at %d" % j, None


def check_dse_single_letter(bound):
    name = "dse.single_letter"
    return _verdict(name, "geometric solution through order 8", _dse_failures(1, 8))


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
    return _verdict(name, "symmetry weight 2 halves each order", _dse_failures(2, 3))


def _expected_gl_betti(n):
    """Coefficients of the product of (1 + x^(2i-1)) over i = 1..n."""
    poly = [1]
    for deg in range(1, 2 * n, 2):
        poly = [a + b for a, b in zip(poly + [0] * deg, [0] * deg + poly)]
    return tuple(poly)


def check_cohomology_betti(bound):
    name = "cohomology.betti_gl"

    def failures():
        for n in (1, 2, 3):
            table = cohomology.betti_numbers(cohomology.truncate_gl(n))
            if table.betti != _expected_gl_betti(n):
                yield "gl(%d)" % n, str(table.betti)
            if table.euler_characteristic() != 0:
                yield "gl(%d) Euler characteristic" % n, str(table)
    return _verdict(name, "gl(1..3) match the odd-generator exterior algebras", failures())


def check_cohomology_d_squared(bound):
    name = "cohomology.d_squared"
    algebras = [cohomology.truncate_gl(1), cohomology.truncate_gl(2),
                cohomology.abelian_algebra(4)]
    return _verdict(name, "d compose d vanishes on the sample algebras", (
        ("dim %d" % algebra.dim, "degree %d" % k)
        for algebra in algebras for k in range(algebra.dim)
        if matmul(cohomology.ce_differential(algebra, k + 1),
                  cohomology.ce_differential(algebra, k)).entries))


def check_cohomology_stability(bound):
    name = "cohomology.stability"
    return _verdict(name, "b_p stable below the rank for n <= 3", (
        ("gl(%d) degree %d" % (n, p), str(report)) for n in (2, 3) for p in range(1, n)
        if (report := cohomology.stability_check(n, p)).status != "pass"))


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
    return _verdict(name, "b_2 of abelian windows grows as w(w-1)/2 for w <= 6", (
        ("abelian window %d" % w, "b_2 = %d" % got) for w in range(1, 7)
        if (got := cohomology.betti_numbers(cohomology.abelian_algebra(w)).betti[2]
            if w >= 2 else 0) != w * (w - 1) // 2))


#: Every check, in name order: each ``check_*`` function of this module.
_CHECKS = [fn for key, fn in sorted(globals().items()) if key.startswith("check_")]


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
    for fn in _CHECKS:
        result = fn(bound)
        results.append(result)
        if stop_on_failure and not result.passed:
            break
    results.sort(key=lambda r: r.name)
    return SuiteReport(bound, all(r.passed for r in results), tuple(results))
