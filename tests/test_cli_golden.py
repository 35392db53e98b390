"""Golden regression test of what the command line prints.

``tests/data/cli_golden.json`` holds, for every case in ``CASES``, the exit
code, stdout and stderr of ``cli.main``: one request of each kind the
``cli-mix`` benchmark sends, in text and ``--json``; the ``--help`` of the
top level and of every verb; argparse usage errors and parse errors.  Help
text is formatted at 80 columns.  Regenerate the file, from a commit whose
output is known to be right, with

    PYTHONPATH=src python3 tests/test_cli_golden.py

``cli.main`` reuses one parser per process, so the cases also run
interleaved in one process and are compared with a freshly built parser:
no option state and no usage error may carry over from one call into the
next.
"""

import contextlib
import io
import json
import os
import random

import pytest

from ladderie import cli

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "cli_golden.json")
ALPHABET = os.path.join(DATA, "cli_alphabet.json")

_REQUESTS = {
    "bracket-z": ["bracket", "3/2*Z[2,1] - 5/7*Z[0,3] + 2*Y",
                  "4*Z[3,2] - 1/3*Z[1,0] - Z[1,1]"],
    "bracket-e": ["bracket", "2/3*E[0,1] - 5*E[1,2]", "E[1,0] - 7/4*E[2,1] + 3*E[1,1]"],
    "act": ["act", "1/2*Z[2,1] - 3*Z[0,0] + 2/5*Y", "t[1]*t[2] - 3/4*t[0] + 2*t[3]^2"],
    "to-e": ["to-e", "Z[1,2] - Z[2,3] + 5/6*Z[0,0] - 5/6*Z[1,1]"],
    "to-e-outside": ["to-e", "2*Z[3,1] - 1/2*Z[0,0]"],
    "from-e": ["from-e", "3/4*E[0,2] - 2*E[1,0]"],
    "project": ["project", "2*Z[3,1] - 1/5*Z[0,2] + Z[4,2]"],
    "section": ["section", "3*C[2] - 1/4*C[-1] + C[0]"],
    "decompose": ["decompose", "3", "2"],
    "degree": ["degree", "Z[3,1] - 2/3*Z[4,2]"],
    "words-bracket": ["words", "bracket", "--alphabet", ALPHABET,
                      "1/2*Z[ab,e] - 3*Z[b,a]", "Z[a,ba] + 2/3*Z[e,b]"],
    "words-iota": ["words", "iota", "--alphabet", ALPHABET, "--n", "2", "--m", "1"],
    "dse-expand": ["dse", "expand", "--alphabet", ALPHABET, "--order", "4"],
    "cohomology-h1": ["cohomology", "h1", "--bound", "3"],
    "cohomology-h1-with-y": ["cohomology", "h1", "--bound", "2", "--with-y"],
    "cohomology-betti": ["cohomology", "betti", "--n", "2"],
    "extension-obstruct": ["extension", "obstruct", "--bplus=2*E[1,0] - 1/2*E[3,2]",
                           "--bminus=E[0,1] + 3/5*E[2,3]"],
    "extension-verify": ["extension", "verify", "--bound", "1"],
    "extension-infeasible": ["extension", "infeasible", "--L", "3"],
}

_VERBS = [[], ["bracket"], ["degree"], ["decompose"], ["act"], ["to-e"], ["from-e"],
          ["project"], ["section"], ["extension"], ["extension", "verify"],
          ["extension", "obstruct"], ["extension", "infeasible"], ["words"],
          ["words", "bracket"], ["words", "iota"], ["dse"], ["dse", "expand"],
          ["cohomology"], ["cohomology", "betti"], ["cohomology", "h1"], ["verify"]]

_ERRORS = {
    "usage-no-verb": [],
    "usage-unknown-verb": ["frobnicate"],
    "usage-missing-argument": ["bracket", "Z[1,0]"],
    "usage-invalid-int": ["decompose", "x", "1"],
    "usage-unknown-option": ["to-e", "Z[1,0]", "--bogus"],
    "parse-error": ["bracket", "Z[1,0] +", "Z[0,1]"],
    "parse-error-json": ["project", "Z[1,0] * * Z[0,1]", "--json"],
}

CASES = {}
for _name, _argv in _REQUESTS.items():
    CASES[_name] = _argv
    CASES[_name + "--json"] = _argv + ["--json"]
for _argv in _VERBS:
    CASES["help:" + " ".join(_argv)] = _argv + ["--help"]
CASES.update(_ERRORS)


def _run(argv):
    """(exit code, stdout, stderr) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(autouse=True)
def _eighty_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_data_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    assert all(golden[name]["code"] == 2 for name in _ERRORS)
    assert all(golden[name]["code"] == 0 for name in CASES if name not in _ERRORS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_the_golden_data(golden, name):
    assert _run(CASES[name]) == golden[name]


def test_every_verb_and_group_has_a_help_case():
    paths = {tuple(entry[0]) for entry in cli._VERBS}
    groups = {path[:1] for path in paths if len(path) > 1}
    assert paths | groups <= {tuple(argv) for argv in _VERBS}


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_interleaved_calls_match_a_fresh_parser(golden, monkeypatch):
    order = list(CASES) * 2
    random.Random(7).shuffle(order)
    reused = [_run(CASES[name]) for name in order]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_run(CASES[name]) for name in order]
    assert reused == fresh
    assert reused == [golden[name] for name in order]


def test_no_option_or_error_state_carries_over(golden):
    sequence = [["cohomology", "h1", "--bound", "2", "--with-y", "--json"],
                CASES["usage-invalid-int"],
                ["cohomology", "h1"],
                ["extension", "obstruct", "--bplus", "E[1,0]"],
                CASES["decompose--json"],
                CASES["decompose"]]
    got = [_run(argv) for argv in sequence]
    assert got[0] == golden["cohomology-h1-with-y--json"]
    assert got[1] == golden["usage-invalid-int"]
    assert got[2] == {"code": 0, "stdout": "dimension 9\n", "stderr": ""}
    assert got[3]["code"] == 2 and got[3]["stdout"] == ""
    assert got[4:] == [golden["decompose--json"], golden["decompose"]]


def _write_golden():
    os.environ["COLUMNS"] = "80"
    golden = {name: _run(argv) for name, argv in CASES.items()}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True, ensure_ascii=False)
        handle.write("\n")


if __name__ == "__main__":
    _write_golden()
