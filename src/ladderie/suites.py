"""Batch verification suites behind the CLI `verify` verb.

Every check is a pure function of the bound that returns ``_verdict`` of a
lazy iterator of its failures, so a ValueError anywhere in a check is its
FAIL; the registry is every ``check_*`` function, run in name order.  Checks
reach the algebra modules through their module objects (late binding), so a
mutation test can patch one seam and watch the right checks fail.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import lcm

from . import cohomology, extension, glinf, ladder, ladder_module, words
from .linalg import Infeasible, action_cases, add_into, matmul


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


def _verdict(name, passed_detail, failures):
    """The check's result, the one place a CheckResult is built: a failure
    for the first (detail, counterexample) that the lazy iterator ``failures``
    yields, which stops the check there, or else a pass with ``passed_detail``
    (if None, what ``failures`` returns).  A ValueError raised in a case (an
    element leaving its space, say) is a failure with its message."""
    try:
        detail, counterexample = next(failures)
    except StopIteration as done:
        return CheckResult(name, True, done.value if passed_detail is None else passed_detail)
    except ValueError as exc:
        return CheckResult(name, False, "raised ValueError", str(exc))
    return CheckResult(name, False, detail, counterexample)


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


def _z_bracket(n, m, l, s):
    """[Z[n,m], Z[l,s]]: the dict of ``ladder.generator_bracket``, looked up
    at call time, wrapped uncopied in a LieElement, whose index check runs."""
    return ladder.LieElement._from_canonical(ladder.generator_bracket(n, m, l, s))


def check_bracket_antisymmetry(bound):
    name = "bracket.antisymmetry"
    pairs = _pairs(bound)
    rng = random.Random(101)
    randoms = ((_random_lie(rng, 2 * bound, 4, 2), _random_lie(rng, 2 * bound, 4, 2))
               for _ in range(50))
    return _verdict(name, "%d generator pairs and 50 random combinations" % len(pairs), chain(
        (("generator window %d" % bound, "[Z[%d,%d],Z[%d,%d]]" % (n, m, l, s))
         for (n, m), (l, s) in pairs
         if not (_z_bracket(n, m, l, s) + _z_bracket(l, s, n, m)).is_zero()),
        (("random combinations", str(a)) for a, b in randoms
         if not (ladder.bracket(a, b) + ladder.bracket(b, a)).is_zero())))


def _jacobi_window(gens, bracket):
    """The first triple (a, b, c) of ``gens``, in nested order, whose Jacobi
    sum [[a,b],c] + [[b,c],a] + [[c,a],b] is nonzero, or None.

    ``bracket(*g, *z)`` is the generator bracket [g, z], a zero-free dict
    ``generator -> coefficient``; an integer one makes no Fraction here.
    Rotated triples share one sum, so each rotation class is tried at its
    least triple.  By bilinearity each part of the sum is a combination of
    brackets [g, z] of a generator g with a window member z: they are read
    from the table of window pairs when g is in the window, else bracketed
    once per sweep of a and kept until the sweep ends.  Generators are
    numbered, the window first, so sums run on int keys.
    """
    ids = {g: i for i, g in enumerate(gens)}
    keys = list(gens)

    def numbered(g, z):
        out = []
        for key, c in bracket(*keys[g], *keys[z]).items():
            if key not in ids:
                ids[key] = len(keys)
                keys.append(key)
            out.append((ids[key], c))
        return out

    n = len(gens)
    table = [[numbered(a, b) for b in range(n)] for a in range(n)]
    columns = list(zip(*table))
    for i in range(n):
        swept = [{} for _ in range(n)]
        for j in range(i, n):
            for k in range(i + (j > i), n):
                acc = {}
                for part, z in ((table[i][j], k), (table[j][k], i), (table[k][i], j)):
                    column, memo = columns[z], swept[z]
                    for g, c in part:
                        if g < n:
                            br = column[g]
                        elif (br := memo.get(g)) is None:
                            br = memo[g] = numbered(g, z)
                        for h, d in br:
                            if v := acc.get(h, 0) + c * d:
                                acc[h] = v
                            else:
                                del acc[h]
                if acc:
                    return gens[i], gens[j], gens[k]
    return None


def check_bracket_jacobi(bound):
    name = "bracket.jacobi"
    gens = list(_square(bound))

    def failures():
        if (bad := _jacobi_window(gens, ladder.generator_bracket)) is not None:
            yield "exhaustive window %d" % bound, "Z[%d,%d], Z[%d,%d], Z[%d,%d]" % sum(bad, ())
    return _verdict(name, "%d generator triples" % len(gens) ** 3, failures())


def check_bracket_grading(bound):
    name = "bracket.grading"
    pairs = _pairs(bound)
    return _verdict(name, "%d pairs" % len(pairs), (
        ("window %d" % bound, "[Z[%d,%d],Z[%d,%d]] = %s" % (n, m, l, s, r))
        for (n, m), (l, s) in pairs
        if not (r := _z_bracket(n, m, l, s)).is_zero()
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
        z = {g: ladder.Z(*g) for g in _square(bound)}
        yz = {g: ladder.bracket(ladder.Y, e) for g, e in z.items()}
        for a, b in pairs:
            lhs = ladder.bracket(ladder.Y, _z_bracket(*a, *b))
            if lhs != ladder.bracket(yz[a], z[b]) + ladder.bracket(z[a], yz[b]):
                yield "window %d" % bound, "Z[%d,%d], Z[%d,%d]" % (*a, *b)
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

    def failures():
        tests = ([ladder.Z(k, k) for k in range(1, 7)]
                 + [ladder.Z(n, 0) for n in range(1, 7)]
                 + [ladder.Z(0, n) for n in range(1, 7)])
        if (basis := ladder.centralizer_basis(tests, b)) != [ladder.Z(0, 0)]:
            yield "bound %d" % b, "basis = %s" % ([str(x) for x in basis],)
    return _verdict(name, "centralizer at bound %d is exactly span{Z[0,0]}" % b, failures())


def check_lie_maximal_abelian(bound):
    name = "lie.maximal_abelian"

    def failures():
        basis = ladder.centralizer_basis([ladder.Z(k, k) for k in range(1, 2 * bound + 1)], bound)
        if sorted(basis, key=lambda e: sorted(e.z)) != [ladder.Z(j, j) for j in range(bound + 1)]:
            yield "bound %d" % bound, "basis = %s" % ([str(x) for x in basis],)
    return _verdict(name, "diagonal test set pins the degree-0 window at bound %d" % bound,
                    failures())


def _embedded(bound):
    """The Z dict of each unit E[i,j] with i, j <= bound, embedded once."""
    return {u: glinf.embed_to_z(glinf.E(*u)).z for u in _square(bound)}


def _in_e(za, zb):
    """The E form of the bracket of two Z dicts, or None outside the ideal."""
    return glinf.express_in_e(ladder.LieElement._from_canonical(ladder._bracket_z(za, zb)))


def check_glinf_bracket_embedding(bound):
    name = "glinf.bracket_embedding"
    pairs = _pairs(bound)

    def failures():
        zs, es = _embedded(bound), {u: glinf.E(*u) for u in _square(bound)}
        for u, v in pairs:
            if _in_e(zs[u], zs[v]) != glinf.bracket_ee(es[u], es[v]):
                yield "window %d" % bound, "E[%d,%d], E[%d,%d]" % (*u, *v)
    return _verdict(name, "%d unit pairs" % len(pairs), failures())


def _z_e_brackets(bound):
    """(text, E form or None) of each [Z[n,m], E[i,j]] with indices <= bound."""
    zs = _embedded(bound)
    for (n, m), (i, j) in product(_square(bound), repeat=2):
        yield "[Z[%d,%d], E[%d,%d]]" % (n, m, i, j), _in_e({(n, m): 1}, zs[i, j])


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
        if glinf.express_in_e(_z_bracket(n, m, l, s)) is None))


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

    def failures():
        if not (report := extension.verify_cocycle_conditions(bound)).passed:
            yield "bound %d" % bound, report.counterexample
        return "%d pair and %d triple conditions" % (report.pairs_checked, report.triples_checked)
    return _verdict(name, None, failures())


def check_ext_reconstruction(bound):
    name = "ext.reconstruction"
    pairs = _pairs(bound)

    @functools.cache
    def split(n, m):
        """(xi, x) of Z[n,m], or None when its section residue is outside the ideal."""
        z = ladder.Z(n, m)
        x = extension.project_to_c(z)
        xi = glinf.express_in_e(z - extension.section_s(x))
        return None if xi is None else extension.ExtElement(xi, x)

    def failures():
        for (n, m), (l, s) in pairs:
            if (a := split(n, m)) is None or (b := split(l, s)) is None:
                yield "window %d" % bound, "section residue not in ideal"
                continue
            res = extension.ext_bracket(a, b)
            rebuilt = glinf.embed_to_z(res.xi) + extension.section_s(res.x)
            if rebuilt != _z_bracket(n, m, l, s):
                yield "window %d" % bound, "Z[%d,%d], Z[%d,%d]" % (n, m, l, s)
    return _verdict(name, "%d generator pairs rebuilt through (alpha, rho)" % len(pairs),
                    failures())


def check_ext_obstruction(bound):
    name = "ext.obstruction_grid"

    def failures():
        if extension.nonsplit_obstruction(glinf.GlElement(), glinf.GlElement()).is_zero():
            yield "base case", "uncorrected section commutator vanished"
        if not (report := extension.obstruction_grid(min(bound, 2))).all_nonzero:
            yield "grid %d" % report.max_index, str(report.first_zero)
        return "%d graded corrections, none split" % report.cases
    return _verdict(name, None, failures())


def check_ext_infeasible(bound):
    name = "ext.splitting_infeasible"
    return _verdict(name, "certificates for every truncation level <= 20", (
        ("levels %d" % levels, repr(cert)) for levels in range(21)
        if not isinstance(cert := extension.nonsplit_infeasibility(levels), Infeasible)
        or cert.rank_augmented != cert.rank_matrix + 1))


def check_module_representation(bound):
    name = "module.representation"

    def failures():
        if not (report := ladder_module.verify_action_is_representation(bound, bound)).passed:
            yield "bound %d" % bound, report.counterexample
        return "%d triples" % report.checked
    return _verdict(name, None, failures())


def _random_monomial(rng):
    return ladder_module.LadderPoly(
        {tuple(sorted(rng.randrange(5) for _ in range(rng.randrange(1, 4)))):
         rng.randint(-3, 3) or 1})


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
            left, right = {}, {}
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
        if add_into(dict(words.generator_bracket_words(*g, *h)),
                    words.generator_bracket_words(*h, *g))))


def check_words_jacobi(bound):
    name = "words.jacobi"
    gens = _word_generators(_two_letter_alphabet(), 2)

    def failures():
        if (bad := _jacobi_window(gens, words.generator_bracket_words)) is not None:
            yield "words of length <= 2", "%r %r %r" % tuple(words.Zw(*g) for g in bad)
    return _verdict(name, "%d generator triples" % len(gens) ** 3, failures())


def check_words_action_representation(bound):
    name = "words.action_representation"
    alphabet = _two_letter_alphabet()
    gens = _word_generators(alphabet, 2)
    targets = [w for k in range(4) for w in alphabet.words(k)]
    return _verdict(name, "%d generator pairs on %d words" % (len(gens) ** 2, len(targets)), (
        ("length <= 2 generators on words <= 3",
         "%r, %r on %r" % (words.Zw(*a), words.Zw(*b), words.WordPoly({w: 1})))
        for a, b, w, holds in action_cases(gens, targets, words._act_w, words._bracket_w)
        if not holds))


def _iota_failures(check, arity, top, cases=None):
    """(description, counterexample) of each failing ``check`` over the 1-
    and 2-letter alphabets: every index <= top, or ``cases(alphabet, top)``."""
    for alphabet in (words.Alphabet([words.Letter("a", 1)]), _two_letter_alphabet()):
        for indices in cases(alphabet, top) if cases else product(range(top + 1), repeat=arity):
            report = check(*indices, alphabet)
            if not report.passed:
                yield report.description, report.counterexample


def check_words_iota_action(bound):
    name = "words.iota_action"
    top = min(bound, 3)
    return _verdict(name, "all n, m, k <= %d over 1- and 2-letter alphabets" % top,
                    _iota_failures(words.check_iota_action, 3, top))


def _iota_bracket_suspects(alphabet, top):
    """The cases (n1, m1, n2, m2, k) failing ``words.check_iota_bracket`` on
    images cached per alphabet, in order; from a ValueError on, every case.
    Both sides are scaled by the lcms of the two ``iota_l`` images, so the
    word bracket is taken once, on ints; its terms, grouped by elimination
    word, act on each word of ``iota_h(k)`` through the word's prefixes."""
    cases = list(product(range(top + 1), repeat=5))
    iota_h, image = (functools.cache(functools.partial(f, alphabet=alphabet))
                     for f in (words.iota_h, words.ladder_action_image))

    @functools.cache
    def iota_l(n, m):
        terms = words.iota_l(n, m, alphabet).terms
        den = lcm(*(c.denominator for c in terms.values()))
        return {key: c.numerator * (den // c.denominator) for key, c in terms.items()}, den

    try:
        for at, (n1, m1, n2, m2, k) in enumerate(cases):
            if not k:
                br = ladder.generator_bracket(n1, m1, n2, m2)
                (ta, da), (tb, db) = iota_l(n1, m1), iota_l(n2, m2)
                by_w2 = {}
                for (w1, w2), c in words._bracket_w(ta, tb).items():
                    by_w2.setdefault(w2, []).append((w1, c))
            acc = {}
            for (a, b), c in br.items():
                add_into(acc, image(a, b, k).terms, -c * da * db)
            for w, cw in iota_h(k).terms.items():
                for j in range(len(w) + 1):
                    add_into(acc, ((w1 + w[j:], c * cw) for w1, c in by_w2.get(w[:j], ())))
            if acc:
                yield cases[at]
    except ValueError:
        yield from cases[at:]


def check_words_iota_bracket(bound):
    name = "words.iota_bracket"
    top = min(bound, 3)
    return _verdict(name, "all index pairs <= %d over 1- and 2-letter alphabets" % top,
                    _iota_failures(words.check_iota_bracket, 5, top, _iota_bracket_suspects))


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

    def failures():
        exp = words.dse_expand(_two_letter_alphabet(), 6)
        if (counts := [len(exp.c[j].terms) for j in range(7)]) != [1, 1, 2, 3, 5, 8, 13]:
            yield "composition counts", str(counts)
    return _verdict(name, "orders 1..6 count compositions into parts {1,2}", failures())


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

    def failures():
        for algebra in (cohomology.truncate_gl(1), cohomology.truncate_gl(2),
                        cohomology.abelian_algebra(4)):
            for k in range(algebra.dim):
                if matmul(cohomology.ce_differential(algebra, k + 1),
                          cohomology.ce_differential(algebra, k)).entries:
                    yield "dim %d" % algebra.dim, "degree %d" % k
    return _verdict(name, "d compose d vanishes on the sample algebras", failures())


def check_cohomology_stability(bound):
    name = "cohomology.stability"
    return _verdict(name, "b_p stable below the rank for n <= 3", (
        ("gl(%d) degree %d" % (n, p), str(report)) for n in (2, 3) for p in range(1, n)
        if (report := cohomology.stability_check(n, p)).status != "pass"))


def check_cohomology_h1(bound):
    name = "cohomology.h1"
    return _verdict(name, "dimensions %d and 1 at bound %d" % (2 * bound + 1, bound), (
        (where, "dimension %d" % got)
        for where, with_y, want in (("without Y", False, 2 * bound + 1), ("with Y", True, 1))
        if (got := cohomology.h1_degree_functional(bound, with_y=with_y).dimension) != want))


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
        results.append(fn(bound))
        if stop_on_failure and not results[-1].passed:
            break
    results.sort(key=lambda r: r.name)
    return SuiteReport(bound, all(r.passed for r in results), tuple(results))
