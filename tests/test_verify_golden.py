"""Golden regression test of what `verify` reports.

``tests/data/verify_bound1.txt`` and ``verify_bound1.json`` are the text and
``--json`` output of ``ladderie verify --bound 1``.
``tests/data/verify_mutants_bound2.json`` holds, for each seam mutant below,
the full CheckResult of every check that fails under it at bound 2, keyed by
check function.  The files pin the failure texts (detail and counterexample)
that no other test pins.  Regenerate them, from a commit whose reports are
known to be right, with

    PYTHONPATH=src python3 tests/test_verify_golden.py
"""

import contextlib
import dataclasses
import io
import json
import os

import pytest

from ladderie import extension, ladder, ladder_module, suites, words
from ladderie.cli import main
from ladderie.linalg import add_into

DATA = os.path.join(os.path.dirname(__file__), "data")
BOUND = 2

_RHO_ORIGINAL = extension.rho_on_generators
_SECTION_ORIGINAL = extension.section_generator
_ACT_ORIGINAL = ladder_module.act_generator
_IOTA_H_ORIGINAL = words.iota_h
_DSE_ORIGINAL = words.dse_expand


def _ladder_drop_first(n, m, l, s):
    terms = [((l, s - n + m), -ladder.theta(s - n)),
             ((n - s + l, m), -ladder.theta(n - s)),
             ((n, m - l + s), ladder.theta(m - l)),
             ((n, s), -ladder.delta(m, l)),
             ((l, m), ladder.delta(n, s))]
    return add_into({}, terms)


def _words_drop_first(w1, w2, w3, w4):
    act = words.act_on_word
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
