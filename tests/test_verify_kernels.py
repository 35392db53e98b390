"""The integer fast paths of the verify suite against the element-level
reference checks they replace, and the word kernels on int and Fraction
inputs."""

import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import act_on_word, reference_act_w
from ladderie import extension, glinf, ladder, ladder_module, linalg, suites, words
from ladderie.extension import CocycleReport
from ladderie.ladder_module import ActionReport
from ladderie.linalg import add_into
from ladderie.suites import CheckResult, _two_letter_alphabet, _word_generators

# -- reference checks: the element-level bodies the fast paths replace -------


def reference_bracket_jacobi(bound):
    name = "bracket.jacobi"
    gens = [(n, m) for n in range(bound + 1) for m in range(bound + 1)]
    count = 0
    for a in gens:
        za = {a: Fraction(1)}
        for b in gens:
            zb = {b: Fraction(1)}
            ab = ladder._bracket_z(za, zb)
            for c in gens:
                zc = {c: Fraction(1)}
                count += 1
                acc = dict(ladder._bracket_z(ab, zc))
                add_into(acc, ladder._bracket_z(ladder._bracket_z(zb, zc), za))
                add_into(acc, ladder._bracket_z(ladder._bracket_z(zc, za), zb))
                if acc:
                    return CheckResult(name, False, "exhaustive window %d" % bound,
                                       "Z[%d,%d], Z[%d,%d], Z[%d,%d]" % (*a, *b, *c))
    return CheckResult(name, True, "%d generator triples" % count)


def reference_words_jacobi(bound):
    name = "words.jacobi"
    gens = [words.Zw(*g) for g in _word_generators(_two_letter_alphabet(), 2)]
    count = 0
    for a in gens:
        for b in gens:
            ab = words.bracket_words(a, b)
            for c in gens:
                count += 1
                total = (words.bracket_words(ab, c)
                         + words.bracket_words(words.bracket_words(b, c), a)
                         + words.bracket_words(words.bracket_words(c, a), b))
                if not total.is_zero():
                    return CheckResult(name, False, "words of length <= 2",
                                       "%r %r %r" % (a, b, c))
    return CheckResult(name, True, "%d generator triples" % count)


def reference_words_action_representation(bound):
    name = "words.action_representation"
    alphabet = _two_letter_alphabet()
    gens = [words.Zw(*g) for g in _word_generators(alphabet, 2)]
    targets = [words.WordPoly({w: 1}) for k in range(4) for w in alphabet.words(k)]
    for a in gens:
        for b in gens:
            ab = words.bracket_words(a, b)
            for p in targets:
                lhs = words.act_word(ab, p)
                rhs = (words.act_word(a, words.act_word(b, p))
                       - words.act_word(b, words.act_word(a, p)))
                if lhs != rhs:
                    return CheckResult(name, False, "length <= 2 generators on words <= 3",
                                       "%r, %r on %r" % (a, b, p))
    return CheckResult(name, True,
                       "%d generator pairs on %d words" % (len(gens) ** 2, len(targets)))


def reference_module_representation(generator_bound, ladder_bound=None):
    """The element-level scan of ``ladder_module.verify_action_is_representation``;
    a ValueError anywhere in a case means its image left the module."""
    if ladder_bound is None:
        ladder_bound = generator_bound
    gens = [(n, m) for n in range(generator_bound + 1) for m in range(generator_bound + 1)]
    act = ladder_module.act
    checked = 0
    for n, m in gens:
        x = ladder.Z(n, m)
        for l, s in gens:
            y = ladder.Z(l, s)
            for k in range(ladder_bound + 1):
                checked += 1
                tk = ladder_module.t(k)
                try:
                    holds = (act(ladder.bracket(x, y), tk)
                             == act(x, act(y, tk)) - act(y, act(x, tk)))
                except ValueError:
                    return ActionReport(False, generator_bound, ladder_bound, checked,
                                        "image leaves the module at Z[%d,%d]/Z[%d,%d] on t[%d]"
                                        % (n, m, l, s, k))
                if not holds:
                    return ActionReport(False, generator_bound, ladder_bound, checked,
                                        "fails at Z[%d,%d], Z[%d,%d], t[%d]" % (n, m, l, s, k))
    return ActionReport(True, generator_bound, ladder_bound, checked)


def reference_cocycle_conditions(bound):
    """The element-level scan of ``extension.verify_cocycle_conditions``,
    with the alpha([x,y]) and rho([x,y], z) terms kept; a ValueError
    anywhere in a case fails it."""
    alpha, rho, c_bracket = extension.alpha, extension.rho, extension.c_bracket
    gens = [extension.Cgen(d) for d in range(-bound, bound + 1)]
    units = [glinf.E(i, j) for i in range(bound + 1) for j in range(bound + 1)]
    pairs = 0
    for x, y in product(gens, repeat=2):
        for xi in units:
            pairs += 1
            try:
                lhs = (alpha(x, alpha(y, xi)) - alpha(y, alpha(x, xi))
                       - alpha(c_bracket(x, y), xi))
                holds = lhs == glinf.bracket_ee(rho(x, y), xi)
            except ValueError:
                holds = False
            if not holds:
                return CocycleReport(False, bound, pairs, 0,
                                     "derivation condition fails at x=%s, y=%s, xi=%s"
                                     % (x, y, xi))
    triples = 0
    for x, y, z in product(gens, repeat=3):
        triples += 1
        try:
            total = glinf.GlElement()
            for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
                total = total + alpha(u, rho(v, w)) - rho(c_bracket(u, v), w)
            holds = total.is_zero()
        except ValueError:
            holds = False
        if not holds:
            return CocycleReport(False, bound, pairs, triples,
                                 "cyclic condition fails at x=%s, y=%s, z=%s" % (x, y, z))
    return CocycleReport(True, bound, pairs, triples)


PAIRS = [
    (suites.check_bracket_jacobi, reference_bracket_jacobi),
    (suites.check_words_jacobi, reference_words_jacobi),
    (suites.check_words_action_representation, reference_words_action_representation),
]


def _ladder_drop(skip):
    def mutant(n, m, l, s):
        terms = [((l - m + n, s), ladder.theta(l - m)),
                 ((l, s - n + m), -ladder.theta(s - n)),
                 ((n - s + l, m), -ladder.theta(n - s)),
                 ((n, m - l + s), ladder.theta(m - l)),
                 ((n, s), -ladder.delta(m, l)),
                 ((l, m), ladder.delta(n, s))]
        return add_into({}, (t for pos, t in enumerate(terms) if pos != skip))
    return mutant


def _words_drop(skip):
    def mutant(w1, w2, w3, w4):
        act = act_on_word
        o1, o2, o3, o4 = act(w1, w2, w3), act(w2, w1, w4), act(w3, w4, w1), act(w4, w3, w2)
        terms = [(o1 is not None, (o1, w4), 1),
                 (o2 is not None, (w3, o2), -1),
                 (o3 is not None, (o3, w2), -1),
                 (o4 is not None, (w1, o4), 1),
                 (w2 == w3, (w1, w4), -1),
                 (w1 == w4, (w3, w2), 1)]
        return add_into({}, ((key, c) for pos, (live, key, c) in enumerate(terms)
                             if live and pos != skip))
    return mutant


def test_word_drop_helper_reproduces_the_table_when_nothing_is_dropped():
    gens = _word_generators(_two_letter_alphabet(), 2)
    full = _words_drop(None)
    for g in gens[::5]:
        for h in gens[::3]:
            assert full(*g, *h) == words.generator_bracket_words(*g, *h)
    assert _ladder_drop(None)(2, 1, 1, 3) == ladder.generator_bracket(2, 1, 1, 3)


@pytest.mark.parametrize("check, reference", PAIRS,
                         ids=["bracket.jacobi", "words.jacobi", "words.action_representation"])
def test_fast_check_equals_reference(check, reference):
    result = check(2)
    assert result.passed
    assert result == reference(2)


@pytest.mark.parametrize("check, reference, module, attribute, mutant", [
    (*PAIRS[0], ladder, "generator_bracket", _ladder_drop(0)),
    (*PAIRS[0], ladder, "generator_bracket", _ladder_drop(4)),
    (*PAIRS[1], words, "generator_bracket_words", _words_drop(0)),
    (*PAIRS[1], words, "generator_bracket_words", _words_drop(5)),
    (*PAIRS[2], words, "generator_bracket_words", _words_drop(0)),
    (*PAIRS[2], words, "generator_bracket_words", _words_drop(5)),
], ids=["bracket.jacobi-drop-0", "bracket.jacobi-drop-4",
        "words.jacobi-drop-0", "words.jacobi-drop-5",
        "words.action_representation-drop-0", "words.action_representation-drop-5"])
def test_fast_check_equals_reference_under_a_dropped_term(monkeypatch, check, reference,
                                                          module, attribute, mutant):
    monkeypatch.setattr(module, attribute, mutant)
    result = check(2)
    assert not result.passed
    assert result == reference(2)


@pytest.mark.parametrize("skip", range(6))
def test_each_dropped_word_bracket_term_breaks_the_suite(monkeypatch, skip):
    monkeypatch.setattr(words, "generator_bracket_words", _words_drop(skip))
    report = suites.run_verify_suite(3)
    failed = {r.name for r in report.results if not r.passed}
    assert not report.passed
    assert {"words.antisymmetry", "words.jacobi", "words.action_representation",
            "words.iota_bracket"} <= failed


def test_a_dropped_term_reaches_the_fast_checks(monkeypatch):
    monkeypatch.setattr(ladder, "generator_bracket", _ladder_drop(0))
    assert not suites.check_bracket_jacobi(2).passed
    monkeypatch.setattr(words, "generator_bracket_words", _words_drop(0))
    for check in (suites.check_words_jacobi, suites.check_words_action_representation):
        result = check(2)
        assert not result.passed
        assert "WordLieElement" in result.counterexample


# -- the word kernels on int and Fraction dicts -------------------------------

word = st.text("ab", max_size=3).map(tuple)
int_coeffs = st.integers(-3, 3).filter(bool)
frac_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def int_dicts(key):
    return st.dictionaries(key, int_coeffs, max_size=4)


def frac_dicts(key):
    return st.dictionaries(key, frac_coeffs, max_size=4)


gen_key = st.tuples(word, word)


@settings(max_examples=150, deadline=None)
@given(int_dicts(gen_key), int_dicts(gen_key), int_dicts(word))
def test_word_kernels_on_ints_give_the_ints_of_the_element_operations(ta, tb, tp):
    a, b, p = words.WordLieElement(ta), words.WordLieElement(tb), words.WordPoly(tp)
    br = words._bracket_w(ta, tb)
    assert all(type(v) is int and v for v in br.values())
    assert br == words.bracket_words(a, b).terms
    acted = words._act_w(ta, tp)
    assert all(type(v) is int and v for v in acted.values())
    assert acted == reference_act_w(ta, tp)


@settings(max_examples=150, deadline=None)
@given(frac_dicts(gen_key), frac_dicts(gen_key), frac_dicts(word))
def test_word_kernels_on_fractions_equal_the_element_operations(ta, tb, tp):
    a, b = words.WordLieElement(ta), words.WordLieElement(tb)
    assert words._bracket_w(ta, tb) == words.bracket_words(a, b).terms
    assert words._act_w(ta, tp) == reference_act_w(ta, tp)


short_word = st.text("ab", max_size=2).map(tuple)
unit_coeffs = st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 2)])


@st.composite
def cancelling_gens(draw):
    """Generator dicts in which Z[u, v] and Z[u x, v x], with opposite
    coefficients, send each word starting with v x to the same word."""
    out = draw(st.dictionaries(st.tuples(short_word, short_word), unit_coeffs, max_size=3))
    for (u, v), c in list(out.items()):
        x = draw(short_word)
        if x:
            out[u + x, v + x] = -c
    return out


def _coeff_dicts(key):
    return st.dictionaries(key, st.one_of(int_coeffs, frac_coeffs, unit_coeffs), max_size=5)


# Z[a,e] and -Z[ab,b] cancel on the word b; Z[ab,e] then adds ab again on the
# empty word, after every word made so far.
_A, _B = ("a",), ("b",)
_CANCEL_AND_READD = ({(_A, ()): 1, (_A + _B, _B): -1, (_A + _B, ()): 1}, {_B: 1, (): 1, _A: 2})


@settings(max_examples=300, deadline=None)
@given(st.one_of(int_dicts(gen_key), frac_dicts(gen_key), _coeff_dicts(gen_key),
                 cancelling_gens()),
       st.one_of(int_dicts(word), frac_dicts(word), _coeff_dicts(short_word)))
@example(*_CANCEL_AND_READD)
@example({g: Fraction(c, 3) for g, c in _CANCEL_AND_READD[0].items()}, _CANCEL_AND_READD[1])
def test_act_w_equals_the_reference_loop(tg, tp):
    """The same items in the same order, with the same value types, on int,
    Fraction, mixed and cancelling dicts."""
    got, want = words._act_w(tg, tp), reference_act_w(tg, tp)
    assert list(got.items()) == list(want.items())
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


def test_jacobi_window_sees_only_ints():
    """The window gets int dicts from the ladder and the word generator
    brackets, so no Fraction is made inside it."""
    seen = []

    def recording(seam):
        def bracket(*indices):
            out = seam(*indices)
            seen.extend(type(v) for v in out.values())
            return out
        return bracket

    ladder_gens = [(n, m) for n in range(3) for m in range(3)]
    assert suites._jacobi_window(ladder_gens, recording(ladder.generator_bracket)) is None
    word_gens = _word_generators(_two_letter_alphabet(), 1)
    assert suites._jacobi_window(word_gens, recording(words.generator_bracket_words)) is None
    assert seen and set(seen) == {int}


# -- the rotation-class Jacobi scan and the tabulated iota bracket check ------


def reference_jacobi_window(gens, bracket):
    """The full nested scan the rotation-class scan replaces: every triple,
    on unit dicts bracketed by the generator bracket ``bracket`` extended
    bilinearly."""
    def bracket_terms(ta, tb):
        return linalg.bilinear(bracket, ta, tb)

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


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_rotation_scan_equals_the_full_scan_on_the_ladder(bound):
    gens = [(n, m) for n in range(bound + 1) for m in range(bound + 1)]
    assert suites._jacobi_window(gens, ladder.generator_bracket) is None
    assert reference_jacobi_window(gens, ladder.generator_bracket) is None


def test_rotation_scan_equals_the_full_scan_on_words():
    gens = _word_generators(_two_letter_alphabet(), 2)
    assert suites._jacobi_window(gens, words.generator_bracket_words) is None
    assert reference_jacobi_window(gens, words.generator_bracket_words) is None


def test_rotation_scan_tries_each_rotation_class_once():
    """n^2 table brackets, then one bracket [g, z] per sweep of the first
    member for each generator g outside the window and window member z that
    a sum needs: fewer than the n^2 + (n^3 + 2n) of three brackets for each
    of the (n^3 + 2n) / 3 classes of triples under rotation."""
    gens = [(n, m) for n in range(3) for m in range(3)]
    calls = []

    def counting(*indices):
        calls.append(indices)
        return ladder.generator_bracket(*indices)

    assert suites._jacobi_window(gens, counting) is None
    n = len(gens)
    assert all(indices[2:] in gens for indices in calls)
    assert len(calls) == 204 < n * n + (n ** 3 + 2 * n)


def test_words_jacobi_peaks_under_one_and_a_half_megabytes():
    """Brackets outside the window are kept for one sweep only; a memo over
    the whole check peaked at 7.2 MB."""
    tracemalloc.start()
    try:
        result = suites.check_words_jacobi(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 1.5e6


def _seeded_mutant(original, seed, size):
    """A generator bracket changed by a seeded rule: every bracket scaled
    (Jacobi still holds), or the brackets of inputs of some ``size`` scaled,
    stripped of their first term, or given a spurious term."""
    rng = random.Random(seed)
    kind, r, factor = seed % 4, rng.randrange(6), rng.choice([-1, 2, 3])

    def mutant(*args):
        out = original(*args)
        if kind and size(args) != r:
            return out
        if kind < 2:
            return {key: factor * c for key, c in out.items()}
        if kind == 2:
            return dict(sorted(out.items())[1:])
        return add_into(dict(out), {(args[0], args[3]): 1})
    return mutant


def _word_size(args):
    return sum(len(w) for w in args)


def test_rotation_scan_equals_the_full_scan_under_seeded_mutants(monkeypatch):
    """The same CheckResult (ladder, bounds 1 and 2) or triple (words of
    length <= 1) as the full scan under 24 seeded mutants of each bracket,
    and the same ``words.jacobi`` result (bounds 2 and 3) under the first 8."""
    ladder_original = ladder.generator_bracket
    words_original = words.generator_bracket_words
    word_gens = _word_generators(_two_letter_alphabet(), 1)
    ladder_passed, words_passed = [], []
    for seed in range(24):
        with monkeypatch.context() as patch:
            patch.setattr(ladder, "generator_bracket", _seeded_mutant(ladder_original, seed, sum))
            for bound in (1, 2):
                fast = suites.check_bracket_jacobi(bound)
                with monkeypatch.context() as reference:
                    reference.setattr(suites, "_jacobi_window", reference_jacobi_window)
                    assert suites.check_bracket_jacobi(bound) == fast
                ladder_passed.append(fast.passed)
        with monkeypatch.context() as patch:
            patch.setattr(words, "generator_bracket_words",
                          _seeded_mutant(words_original, seed, _word_size))
            fast = suites._jacobi_window(word_gens, words.generator_bracket_words)
            assert fast == reference_jacobi_window(word_gens, words.generator_bracket_words)
            words_passed.append(fast is None)
            if seed < 8:
                with monkeypatch.context() as reference:
                    reference.setattr(suites, "_jacobi_window", reference_jacobi_window)
                    expected = suites.check_words_jacobi(2)
                assert suites.check_words_jacobi(2) == expected == suites.check_words_jacobi(3)
    for passed in (ladder_passed, words_passed):
        assert 5 <= passed.count(True) and 5 <= passed.count(False)


_WORD_BRACKET = words.generator_bracket_words


def _word_bracket_doubled(w1, w2, w3, w4):
    return {key: 2 * c for key, c in _WORD_BRACKET(w1, w2, w3, w4).items()}


_IOTA_L = words.iota_l


def _iota_l_uneven(n, m, alphabet):
    """``iota_l`` with the weight of its pair Z[a^n, b^m] divided by 3 over
    two or more letters, so its weights have two denominators (but for n = m = 0)."""
    image = _IOTA_L(n, m, alphabet)
    if alphabet.size < 2:
        return image
    pair = (("a",) * n, ("b",) * m)
    return image - words.WordLieElement({pair: image.terms[pair] * Fraction(2, 3)})


IOTA_MUTANTS = {
    "theta-flip": (ladder, "theta", lambda k: 1 if k > 0 else 0),
    "act-unguarded": (ladder_module, "act_generator", lambda n, m, k: k - m + n),
    "ladder-drop-0": (ladder, "generator_bracket", _ladder_drop(0)),
    "word-bracket-doubled": (words, "generator_bracket_words", _word_bracket_doubled),
    "iota-l-uneven": (words, "iota_l", _iota_l_uneven),
}


def reference_words_iota_bracket(bound):
    top = min(bound, 3)
    return suites._verdict(
        "words.iota_bracket", "all index pairs <= %d over 1- and 2-letter alphabets" % top,
        suites._iota_failures(words.check_iota_bracket, 5, top))


@pytest.mark.parametrize("mutant", [None, *IOTA_MUTANTS])
@pytest.mark.parametrize("bound", [2, 3])
def test_tabulated_iota_bracket_equals_the_per_case_loop(monkeypatch, bound, mutant):
    if mutant is not None:
        monkeypatch.setattr(*IOTA_MUTANTS[mutant])
    result = suites.check_words_iota_bracket(bound)
    assert result.passed is (mutant is None)
    assert result == reference_words_iota_bracket(bound)


def reference_iota_suspects(alphabet, top):
    """What ``suites._iota_bracket_suspects`` yields, from the per-case loop:
    each failing case in order, and from a ValueError on, every case."""
    cases = list(product(range(top + 1), repeat=5))
    for at, case in enumerate(cases):
        try:
            passed = words.check_iota_bracket(*case, alphabet).passed
        except ValueError:
            yield from cases[at:]
            return
        if not passed:
            yield case


@pytest.mark.parametrize("mutant", [None, *IOTA_MUTANTS])
def test_iota_suspects_are_exactly_the_failing_cases(monkeypatch, mutant):
    """No passing case is a suspect and no failing case is missed, so the
    scaling to int numerators is exact, uneven weights included."""
    if mutant is not None:
        monkeypatch.setattr(*IOTA_MUTANTS[mutant])
    for alphabet in (words.Alphabet([words.Letter("a", 1)]), _two_letter_alphabet()):
        assert (list(suites._iota_bracket_suspects(alphabet, 2))
                == list(reference_iota_suspects(alphabet, 2)))


# -- the one representation window ----------------------------------------

_ACT_GENERATOR = ladder_module.act_generator
_RHO = extension.rho_on_generators


def _act_off_by_one(n, m, k):
    out = _ACT_GENERATOR(n, m, k)
    return out + 1 if (n, m, k) == (1, 0, 2) else out


def _act_leaving_at_4(n, m, k):
    return -1 if k == 4 else _ACT_GENERATOR(n, m, k)


def _rho_dropping_a_term(a, b):
    out = dict(_RHO(a, b))
    if (a, b) in ((1, -2), (-2, 1)):
        out.pop((0, 1), None)
    return out


def _rho_negative_at_1_minus_1(a, b):
    return {(-1, 0): 1} if (a, b) == (1, -1) else _RHO(a, b)


REPRESENTATION_MUTANTS = {
    "theta-flip": IOTA_MUTANTS["theta-flip"],
    "act-unguarded": IOTA_MUTANTS["act-unguarded"],
    "act-off-by-one": (ladder_module, "act_generator", _act_off_by_one),
    "ladder-drop-0": IOTA_MUTANTS["ladder-drop-0"],
    "rho-drop": (extension, "rho_on_generators", _rho_dropping_a_term),
    "act-leaves-at-4": (ladder_module, "act_generator", _act_leaving_at_4),
    "rho-negative-at-1-minus-1": (extension, "rho_on_generators", _rho_negative_at_1_minus_1),
}


@pytest.mark.parametrize("mutant", [None, *REPRESENTATION_MUTANTS])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_window_reports_equal_the_element_scans(monkeypatch, bound, mutant):
    """Equal reports, down to the case count at the first failure."""
    if mutant is not None:
        monkeypatch.setattr(*REPRESENTATION_MUTANTS[mutant])
    module = ladder_module.verify_action_is_representation(bound)
    assert module == reference_module_representation(bound)
    cocycles = extension.verify_cocycle_conditions(bound)
    assert cocycles == reference_cocycle_conditions(bound)
    if mutant is None:
        assert module.passed and cocycles.passed


def test_action_window_sees_only_ints(monkeypatch):
    """On all three checks the window's kernels take and return int dicts,
    and no Fraction is made while the checks run."""
    seen = {}

    def recording(check):
        def window(gens, targets, *kernels):
            def record(kernel):
                def call(u, v):
                    out = kernel(u, v)
                    seen.setdefault(check, set()).update(
                        type(c) for d in (u, v, out) for c in d.values())
                    return out
                return call
            return linalg.action_cases(gens, targets, *map(record, kernels))
        return window

    checks = {"words.action_representation": suites, "module.representation": ladder_module,
              "ext.cocycle_conditions": extension}
    for check, module in checks.items():
        monkeypatch.setattr(module, "action_cases", recording(check))
    made = []
    new = Fraction.__new__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            made.append(frame.f_back.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        results = [suites.check_words_action_representation(2),
                   suites.check_module_representation(2), suites.check_ext_cocycles(2)]
    finally:
        sys.setprofile(None)
    assert all(r.passed for r in results)
    assert seen == dict.fromkeys(checks, {int})
    assert not made
