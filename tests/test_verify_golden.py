"""Golden regression test of what `verify` reports.

``tests/data/verify_bound1.txt`` and ``verify_bound1.json`` are the text and
``--json`` output of ``ladderie verify --bound 1``.
``tests/data/verify_mutants_bound2.json`` holds, for each seam mutant below,
the full CheckResult of every check that fails under it at bound 2, keyed by
check function.  The files pin the failure texts (detail and counterexample)
that no other test pins.  Regenerate them, from a commit whose reports are
known to be right, with

    PYTHONPATH=src python3 tests/test_verify_golden.py

The checks that call the generator seams directly are also compared, under
the same mutants, with the element-level scans they replace, and
``cohomology.h1_degree_functional`` with its ``add_into`` row loop.
"""

import contextlib
import dataclasses
import io
import json
import os
import random
from itertools import chain, product

import pytest

from helpers import act_on_word, reference_action_cases, reference_h1_degree_functional
from ladderie import cohomology, extension, glinf, ladder, ladder_module, suites, words
from ladderie.cli import main
from ladderie.linalg import add_into

DATA = os.path.join(os.path.dirname(__file__), "data")
BOUND = 2

_RHO_ORIGINAL = extension.rho_on_generators
_SECTION_ORIGINAL = extension.section_generator
_ACT_ORIGINAL = ladder_module.act_generator
_IOTA_H_ORIGINAL = words.iota_h
_DSE_ORIGINAL = words.dse_expand
_LADDER_ORIGINAL = ladder.generator_bracket
_GL_ORIGINAL = glinf.generator_bracket_ee


def _ladder_drop_first(n, m, l, s):
    terms = [((l, s - n + m), -ladder.theta(s - n)),
             ((n - s + l, m), -ladder.theta(n - s)),
             ((n, m - l + s), ladder.theta(m - l)),
             ((n, s), -ladder.delta(m, l)),
             ((l, m), ladder.delta(n, s))]
    return add_into({}, terms)


def _words_drop_first(w1, w2, w3, w4):
    act = act_on_word
    o2, o3, o4 = act(w2, w1, w4), act(w3, w4, w1), act(w4, w3, w2)
    terms = [(o2 is not None, (w3, o2), -1),
             (o3 is not None, (o3, w2), -1),
             (o4 is not None, (w1, o4), 1),
             (w2 == w3, (w1, w4), -1),
             (w1 == w4, (w3, w2), 1)]
    return add_into({}, ((key, c) for live, key, c in terms if live))


def _rho_dropping_a_term(a, b):
    out = dict(_RHO_ORIGINAL(a, b))
    if (a, b) in ((1, -2), (-2, 1)):
        out.pop((0, 1), None)
    return out


def _act_off_by_one(n, m, k):
    out = _ACT_ORIGINAL(n, m, k)
    return out + 1 if (n, m, k) == (1, 0, 2) else out


def _section_wrong_at_3(d):
    return {(3, 1): 1} if d == 3 else _SECTION_ORIGINAL(d)


def _iota_h_doubled_at_3(k, alphabet):
    out = _IOTA_H_ORIGINAL(k, alphabet)
    return out * 2 if k == 3 else out


def _dse_doubled_from_3(alphabet, order):
    exp = _DSE_ORIGINAL(alphabet, order)

    def doubled(polys):
        return tuple(p * 2 if j >= 3 else p for j, p in enumerate(polys))
    return words.DseExpansion(exp.order, doubled(exp.c), doubled(exp.d))


MUTANTS = {
    "theta-flip": (ladder, "theta", lambda k: 1 if k > 0 else 0),
    "ladder-drop-0": (ladder, "generator_bracket", _ladder_drop_first),
    "words-drop-0": (words, "generator_bracket_words", _words_drop_first),
    "rho-drop": (extension, "rho_on_generators", _rho_dropping_a_term),
    "act-generator-off-by-one": (ladder_module, "act_generator", _act_off_by_one),
    "section-generator-wrong-at-3": (extension, "section_generator", _section_wrong_at_3),
    "iota-h-doubled-at-3": (words, "iota_h", _iota_h_doubled_at_3),
    "dse-doubled-from-3": (words, "dse_expand", _dse_doubled_from_3),
}


def _act_leaving_at_4(n, m, k):
    return -1 if k == 4 else _ACT_ORIGINAL(n, m, k)


def _rho_negative_at_1_minus_1(a, b):
    return {(-1, 0): 1} if (a, b) == (1, -1) else _RHO_ORIGINAL(a, b)


def _with_minus_one_zero(bracket):
    """``bracket`` with 1 added at the index pair (-1, 0) of each nonzero value."""
    def mutant(*indices):
        out = dict(bracket(*indices))
        if out:
            out[(-1, 0)] = out.get((-1, 0), 0) + 1
        return out
    return mutant


def _dse_refusing(alphabet, order):
    raise ValueError("expansion refused")


#: Seams patched so that some case of a check raises ValueError: t[4] goes to
#: t[-1], rho(C[1], C[-1]) to E[-1,0], every nonzero ladder bracket gains
#: Z[-1,0] and every nonzero gl bracket E[-1,0], and no expansion is made.
#: The last three raise in calls that no case loop surrounds: single-shot
#: checks, and the gl(n) truncation of the cohomology checks.
RAISING_MUTANTS = {
    "act-leaves-at-4": (ladder_module, "act_generator", _act_leaving_at_4),
    "rho-negative-at-1-minus-1": (extension, "rho_on_generators", _rho_negative_at_1_minus_1),
    "ladder-bracket-leaves": (ladder, "generator_bracket", _with_minus_one_zero(_LADDER_ORIGINAL)),
    "dse-raises": (words, "dse_expand", _dse_refusing),
    "gl-bracket-leaves": (glinf, "generator_bracket_ee", _with_minus_one_zero(_GL_ORIGINAL)),
}


def _load(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        return handle.read()


def _cli_output(capsys, *argv):
    code = main(["verify", "--bound", "1", *argv])
    return code, capsys.readouterr().out


def test_verify_text_matches_the_golden_output(capsys):
    assert _cli_output(capsys) == (0, _load("verify_bound1.txt"))


def test_verify_json_matches_the_golden_output(capsys):
    assert _cli_output(capsys, "--json") == (0, _load("verify_bound1.json"))


def _golden():
    return json.loads(_load("verify_mutants_bound2.json"))


def test_every_mutant_breaks_some_check():
    golden = _golden()
    assert sorted(golden) == sorted(MUTANTS)
    assert all(golden.values())


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_failures_under_a_mutant_match_the_golden_results(monkeypatch, mutant):
    module, attribute, replacement = MUTANTS[mutant]
    monkeypatch.setattr(module, attribute, replacement)
    expected = _golden()[mutant]
    got = {fn: dataclasses.asdict(getattr(suites, fn)(BOUND)) for fn in expected}
    assert got == expected


@pytest.mark.parametrize("mutant", sorted(MUTANTS) + sorted(RAISING_MUTANTS))
def test_every_check_reports_under_a_mutant(monkeypatch, mutant):
    """No check raises: whatever a seam does, each returns a CheckResult."""
    monkeypatch.setattr(*{**MUTANTS, **RAISING_MUTANTS}[mutant])
    for fn in suites._CHECKS:
        assert isinstance(fn(BOUND), suites.CheckResult), fn.__name__


@pytest.mark.parametrize("mutant", sorted(RAISING_MUTANTS))
def test_verify_exits_1_under_a_raising_mutant(monkeypatch, capsys, mutant):
    """A ValueError in any check is a FAIL line, never the usage-error exit."""
    monkeypatch.setattr(*RAISING_MUTANTS[mutant])
    assert main(["verify", "--bound", str(BOUND)]) == 1
    out, err = capsys.readouterr()
    assert "\nFAIL " in "\n" + out and err == ""


@pytest.mark.parametrize("mutant, check, counterexample", [
    ("act-leaves-at-4", "check_module_representation",
     "image leaves the module at Z[0,0]/Z[2,0] on t[2]"),
    ("rho-negative-at-1-minus-1", "check_ext_cocycles",
     "derivation condition fails at x=C[-1], y=C[1], xi=E[0,0]"),
])
def test_a_value_error_in_a_representation_case_is_a_fail(monkeypatch, capsys, mutant, check,
                                                          counterexample):
    monkeypatch.setattr(*RAISING_MUTANTS[mutant])
    result = getattr(suites, check)(BOUND)
    assert (result.passed, result.detail, result.counterexample) == (
        False, "bound %d" % BOUND, counterexample)
    assert main(["verify", "--bound", str(BOUND)]) == 1
    out, err = capsys.readouterr()
    assert "FAIL %s (bound %d): %s\n" % (result.name, BOUND, counterexample) in out
    assert err == ""


# -- the element-level scans that the seam windows replace ---------------------


def _antisymmetric(bracket, a, b):
    return (bracket(a, b) + bracket(b, a)).is_zero()


def reference_bracket_antisymmetry(bound):
    pairs = suites._pairs(bound)
    rng = random.Random(101)
    randoms = ((suites._random_lie(rng, 2 * bound, 4, 2), suites._random_lie(rng, 2 * bound, 4, 2))
               for _ in range(50))
    return suites._verdict("bracket.antisymmetry",
                           "%d generator pairs and 50 random combinations" % len(pairs), chain(
        (("generator window %d" % bound, "[Z[%d,%d],Z[%d,%d]]" % (n, m, l, s))
         for (n, m), (l, s) in pairs
         if not _antisymmetric(ladder.bracket, ladder.Z(n, m), ladder.Z(l, s))),
        (("random combinations", str(a)) for a, b in randoms
         if not _antisymmetric(ladder.bracket, a, b))))


def reference_bracket_grading(bound):
    pairs = suites._pairs(bound)
    return suites._verdict("bracket.grading", "%d pairs" % len(pairs), (
        ("window %d" % bound, "[Z[%d,%d],Z[%d,%d]] = %s" % (n, m, l, s, r))
        for (n, m), (l, s) in pairs
        if not (r := ladder.bracket(ladder.Z(n, m), ladder.Z(l, s))).is_zero()
        and ladder.degree(r) != (n - m) + (l - s)))


def reference_bracket_y_derivation(bound):
    pairs = suites._pairs(bound)

    def failures():
        for (n, m), (l, s) in pairs:
            a, b = ladder.Z(n, m), ladder.Z(l, s)
            lhs = ladder.bracket(ladder.Y, ladder.bracket(a, b))
            rhs = (ladder.bracket(ladder.bracket(ladder.Y, a), b)
                   + ladder.bracket(a, ladder.bracket(ladder.Y, b)))
            if lhs != rhs:
                yield "window %d" % bound, "Z[%d,%d], Z[%d,%d]" % (n, m, l, s)
    return suites._verdict("bracket.y_derivation", "%d pairs" % len(pairs), failures())


def reference_glinf_bracket_embedding(bound):
    pairs = suites._pairs(bound)
    return suites._verdict("glinf.bracket_embedding", "%d unit pairs" % len(pairs), (
        ("window %d" % bound, "E[%d,%d], E[%d,%d]" % (i, j, r, k))
        for (i, j), (r, k) in pairs
        if glinf.express_in_e(ladder.bracket(glinf.embed_to_z(glinf.E(i, j)),
                                             glinf.embed_to_z(glinf.E(r, k))))
        != glinf.bracket_ee(glinf.E(i, j), glinf.E(r, k))))


def reference_z_e_brackets(bound):
    for (n, m), (i, j) in product(suites._square(bound), repeat=2):
        br = ladder.bracket(ladder.Z(n, m), glinf.embed_to_z(glinf.E(i, j)))
        yield "[Z[%d,%d], E[%d,%d]]" % (n, m, i, j), glinf.express_in_e(br)


def reference_glinf_derived(bound):
    pairs = suites._pairs(bound)
    return suites._verdict("glinf.derived_subalgebra",
                           "%d generator brackets land in the ideal" % len(pairs), (
        ("window %d" % bound, "[Z[%d,%d],Z[%d,%d]]" % (n, m, l, s))
        for (n, m), (l, s) in pairs
        if glinf.express_in_e(ladder.bracket(ladder.Z(n, m), ladder.Z(l, s))) is None))


def reference_ext_reconstruction(bound):
    pairs = suites._pairs(bound)

    def failures():
        for (n, m), (l, s) in pairs:
            a, b = ladder.Z(n, m), ladder.Z(l, s)
            xa, xb = extension.project_to_c(a), extension.project_to_c(b)
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
    return suites._verdict("ext.reconstruction",
                           "%d generator pairs rebuilt through (alpha, rho)" % len(pairs),
                           failures())


def reference_words_antisymmetry(bound):
    gens = suites._word_generators(suites._two_letter_alphabet(), 2)
    return suites._verdict("words.antisymmetry", "%d generator pairs" % (len(gens) ** 2), (
        ("words of length <= 2", "%r, %r" % (g, h)) for g, h in product(gens, repeat=2)
        if not _antisymmetric(words.bracket_words, words.Zw(*g), words.Zw(*h))))


REFERENCE_SCANS = {
    "check_bracket_antisymmetry": reference_bracket_antisymmetry,
    "check_bracket_grading": reference_bracket_grading,
    "check_bracket_y_derivation": reference_bracket_y_derivation,
    "check_glinf_bracket_embedding": reference_glinf_bracket_embedding,
    "check_glinf_derived": reference_glinf_derived,
    "check_ext_reconstruction": reference_ext_reconstruction,
    "check_words_antisymmetry": reference_words_antisymmetry,
}

#: Checks that run a shared window, compared with the reference window
#: (``reference_z_e_brackets`` or ``helpers.reference_action_cases``) patched in.
WINDOW_CHECKS = ("check_glinf_ideal", "check_glinf_traceless",
                 "check_words_action_representation", "check_module_representation",
                 "check_ext_cocycles")


@pytest.mark.parametrize("mutant", [None, *sorted(MUTANTS), *sorted(RAISING_MUTANTS)])
def test_seam_windows_equal_the_element_scans(monkeypatch, mutant):
    """The same CheckResult as the element-level scan or window each check
    replaces, at bounds 1 to 3, unpatched and under every seam mutant."""
    if mutant is not None:
        monkeypatch.setattr(*{**MUTANTS, **RAISING_MUTANTS}[mutant])
    for bound in (1, 2, 3):
        fast = {fn: getattr(suites, fn)(bound) for fn in (*REFERENCE_SCANS, *WINDOW_CHECKS)}
        if mutant is None:
            assert all(r.passed for r in fast.values())
        for fn, reference in REFERENCE_SCANS.items():
            assert reference(bound) == fast[fn], (fn, bound)
        with monkeypatch.context() as patch:
            patch.setattr(suites, "_z_e_brackets", reference_z_e_brackets)
            for module in (suites, ladder_module, extension):
                patch.setattr(module, "action_cases", reference_action_cases)
            for fn in WINDOW_CHECKS:
                assert getattr(suites, fn)(bound) == fast[fn], (fn, bound)


@pytest.mark.parametrize("mutant", [None, "ladder-drop-0", "theta-flip",
                                    "ladder-bracket-leaves"])
def test_h1_equals_the_add_into_reference(monkeypatch, mutant):
    """Inline class sums give the report of the ``add_into`` row loop at
    bounds 1 to 8, with and without Y, unpatched and under the ladder seams."""
    if mutant is not None:
        monkeypatch.setattr(*{**MUTANTS, **RAISING_MUTANTS}[mutant])
    for bound, with_y in product(range(1, 9), (False, True)):
        assert (cohomology.h1_degree_functional(bound, with_y)
                == reference_h1_degree_functional(bound, with_y)), (bound, with_y)


def _failing_checks():
    """{check function name: CheckResult as a dict} for the checks that fail."""
    results = {fn.__name__: fn(BOUND) for fn in suites._CHECKS}
    return {fn: dataclasses.asdict(r) for fn, r in sorted(results.items()) if not r.passed}


def _write_golden():
    for argv, path in (([], "verify_bound1.txt"), (["--json"], "verify_bound1.json")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", "--bound", "1", *argv]) == 0
        with open(os.path.join(DATA, path), "w", encoding="utf-8") as handle:
            handle.write(out.getvalue())
    golden = {}
    for mutant, (module, attribute, replacement) in sorted(MUTANTS.items()):
        original = getattr(module, attribute)
        setattr(module, attribute, replacement)
        try:
            golden[mutant] = _failing_checks()
        finally:
            setattr(module, attribute, original)
    with open(os.path.join(DATA, "verify_mutants_bound2.json"), "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    _write_golden()
