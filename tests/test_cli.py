import io
import json
import time

import pytest

from ladderie.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bracket(capsys):
    code, out, _ = run(capsys, "bracket", "Z[1,0]", "Z[0,1]")
    assert code == 0
    assert out.strip() == "-Z[0,0] + Z[1,1]"


def test_bracket_gl(capsys):
    code, out, _ = run(capsys, "bracket", "E[0,1]", "E[1,0]")
    assert code == 0
    assert out.strip() == "E[0,0] - E[1,1]"


def test_bracket_mixed_families_is_usage_error(capsys):
    code, _, err = run(capsys, "bracket", "Z[1,0]", "E[0,0]")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv, message", [
    (["bracket", "Z[1,0]", "E[0,0]"], "bracket needs two Z/Y elements or two E elements"),
    (["cohomology", "betti", "--algebra", "gl"], "--n is required with --algebra gl"),
    (["cohomology", "betti", "--algebra", "abelian"], "unknown algebra 'abelian'"),
], ids=["bracket-mixed", "betti-no-n", "betti-unknown-algebra"])
def test_usage_errors_outside_an_expression_name_no_position(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


def test_json_output_schema(capsys):
    code, out, _ = run(capsys, "degree", "Z[3,1]", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["status"] == "value"
    assert obj["payload"]["degree"] == 2


def test_degree_not_homogeneous(capsys):
    code, out, _ = run(capsys, "degree", "Z[1,0] + Z[0,1]")
    assert code == 0
    assert out.strip() == "not-homogeneous"


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "2", "1")
    assert code == 0
    assert out.strip() == "[Z[2,0], Z[0,1]] + (Z[1,0]) = Z[2,1]"


def test_act(capsys):
    code, out, _ = run(capsys, "act", "Z[1,0]", "t[0]*t[1]")
    assert code == 0
    assert out.strip() == "t[0]*t[2] + t[1]^2"


def test_to_e_and_from_e(capsys):
    code, out, _ = run(capsys, "to-e", "Z[1,1] - Z[0,0]")
    assert code == 0
    assert out.strip() == "-E[0,0]"

    code, out, _ = run(capsys, "to-e", "Z[1,0]", "--json")
    assert code == 0
    assert json.loads(out)["payload"] == {"in_ideal": False}

    code, out, _ = run(capsys, "from-e", "E[2,1]")
    assert code == 0
    assert out.strip() == "Z[2,1] - Z[3,2]"


def test_project_and_section(capsys):
    code, out, _ = run(capsys, "project", "2*Z[1,0] + Z[2,1]")
    assert code == 0
    assert out.strip() == "3*C[1]"

    code, out, _ = run(capsys, "section", "C[-3]")
    assert code == 0
    assert out.strip() == "Z[0,3]"


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Z[1,0] - Z[0,1]"))
    code, out, _ = run(capsys, "degree", "-")
    assert code == 0
    assert out.strip() == "not-homogeneous"


@pytest.mark.parametrize("argv, names", [
    (["bracket", "-", "-"], "a and b"),
    (["act", "-", "-", "--json"], "element and poly"),
    (["extension", "obstruct", "--bplus=-", "--bminus=-"], "bplus and bminus"),
    (["words", "bracket", "--alphabet", None, "-", "-"], "a and b")])
def test_stdin_feeds_only_one_argument(capsys, monkeypatch, alphabet_file, argv, names):
    monkeypatch.setattr("sys.stdin", io.StringIO("Z[2,1]"))
    code, out, err = run(capsys, *[alphabet_file if a is None else a for a in argv])
    assert (code, out) == (2, "")
    assert err == "error: stdin ('-') can feed only one argument, not both %s\n" % names


def test_stdin_feeds_either_argument(capsys, monkeypatch):
    for argv in (["bracket", "-", "Z[0,1]"], ["bracket", "Z[0,1]", "-"]):
        monkeypatch.setattr("sys.stdin", io.StringIO("Z[1,0]"))
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, "-Z[0,0] + Z[1,1]\n" if argv[1] == "-" else "Z[0,0] - Z[1,1]\n")


def test_extension_verbs(capsys):
    code, out, _ = run(capsys, "extension", "verify", "--bound", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    assert obj["payload"]["passed"] is True

    code, out, _ = run(capsys, "extension", "obstruct",
                       "--bplus", "E[1,0]", "--bminus", "0")
    assert code == 0
    assert "nonzero" in out

    code, out, _ = run(capsys, "extension", "infeasible", "--L", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["payload"]["rank_matrix"] == 4
    assert obj["payload"]["rank_augmented"] == 5


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "bracket", "Z[-1,0]", "Y")
    assert code == 2
    assert "negative index" in err


@pytest.mark.parametrize("element, position", [("Z[\u00b2,0]", 2), ("Z[1,\u2460]", 4)])
def test_digits_that_int_refuses_are_unexpected_characters(capsys, element, position):
    code, out, err = run(capsys, "degree", element)
    assert (code, out) == (2, "")
    assert err == "error: unexpected character %r at position %d\n" % (element[position], position)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-verb"])
    assert err.value.code == 2


@pytest.fixture()
def alphabet_file(tmp_path):
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps({"letters": [
        {"name": "a", "degree": 1, "sym": "1"},
        {"name": "b", "degree": 2, "sym": "1"}]}))
    return str(path)


def test_words_verbs(capsys, alphabet_file):
    code, out, _ = run(capsys, "words", "iota",
                       "--alphabet", alphabet_file, "--n", "0", "--m", "1")
    assert code == 0
    assert out.strip() == "1/2*Z[e,a] + 1/2*Z[e,b]"

    code, out, _ = run(capsys, "words", "bracket", "--alphabet", alphabet_file,
                       "Z[a,e]", "Z[e,a]")
    assert code == 0
    assert out.strip() == "-Z[e,e] + Z[a,a]"


def test_dse_expand(capsys, alphabet_file):
    code, out, _ = run(capsys, "dse", "expand", "--alphabet", alphabet_file,
                       "--order", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    orders = [len(level) for level in obj["payload"]["c"]]
    assert orders == [1, 1, 2, 3]
    assert obj["payload"]["c"][2] == [
        {"word": "b", "c": "1", "alpha_order": 2},
        {"word": "aa", "c": "1", "alpha_order": 2}]


def test_dse_expand_lists_terms_by_length_then_word_in_text_and_json(capsys, alphabet_file):
    """Over {a:1, b:2}, each c[j] and d[j] lists its words in one order,
    (length, word), as text and as JSON."""
    code, text, _ = run(capsys, "dse", "expand", "--alphabet", alphabet_file, "--order", "4")
    assert code == 0
    lines = text.splitlines()
    assert lines[3] == "c[3] = 1 ab + 1 ba + 1 aaa"
    code, out, _ = run(capsys, "dse", "expand", "--alphabet", alphabet_file, "--order", "4",
                       "--json")
    payload = json.loads(out)["payload"]
    listed = ["%s[%d] = %s" % (key, j, " + ".join("%s %s" % (t["c"], t["word"]) for t in part))
              for key in ("c", "d") for j, part in enumerate(payload[key])]
    assert lines == listed
    for line in lines:
        found = line.split(" = ")[1].split(" ")[1::3]
        assert found == sorted(found, key=lambda w: (len(w.strip("e")), w))


def test_words_iota_refuses_an_image_over_the_limit(capsys, alphabet_file):
    start = time.perf_counter()
    code, out, err = run(capsys, "words", "iota", "--alphabet", alphabet_file,
                         "--n", "200", "--m", "200")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "2^400 word pairs" in err


def test_missing_alphabet_file(capsys):
    code, _, err = run(capsys, "words", "iota", "--alphabet", "/nonexistent.json",
                       "--n", "0", "--m", "0")
    assert code == 2
    assert "error" in err


def test_cohomology_verbs(capsys, tmp_path):
    code, out, _ = run(capsys, "cohomology", "betti", "--algebra", "gl",
                       "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["payload"]["betti"] == [1, 1, 0, 1, 1]

    code, out, _ = run(capsys, "cohomology", "h1", "--bound", "3", "--with-y")
    assert code == 0
    assert out.strip() == "dimension 1"

    structure = {"labels": ["x", "y", "z"],
                 "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "c": "1"}]}]}
    path = tmp_path / "heisenberg.json"
    path.write_text(json.dumps(structure))
    code, out, _ = run(capsys, "cohomology", "betti", "--structure", str(path))
    assert code == 0
    assert out.strip() == "betti = [1, 2, 2, 1]"


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--bound", "1")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert lines == sorted(lines)
    assert all(line.startswith("PASS") for line in lines)
    assert "all checks passed" in out


def test_betti_refuses_oversized_complex(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", "betti", "--n", "5")
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "33554432 cochains" in err


def test_betti_refuses_an_oversized_gl_before_building_it(capsys, monkeypatch):
    """Before, --n 40 first built gl(40) and checked its Jacobi identity."""
    from ladderie import cohomology

    def no_build(n):
        raise AssertionError("truncate_gl(%d) was called" % n)

    monkeypatch.setattr(cohomology, "truncate_gl", no_build)
    code, out, err = run(capsys, "cohomology", "betti", "--n", "40")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "1600-dimensional algebra" in err
    assert "more than the limit of 1048576" in err


def test_betti_refuses_a_structure_file_with_too_many_labels(capsys, tmp_path, monkeypatch):
    from ladderie import cohomology

    monkeypatch.setattr(cohomology, "FiniteLieAlgebra", None)
    code, out, err = _betti_of_structure(capsys, tmp_path, {
        "labels": ["x%d" % i for i in range(21)], "brackets": []})
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "2^21 = 2097152 cochains" in err


@pytest.mark.parametrize("n", [40, 1000, 10 ** 6])
def test_the_cochain_refusal_is_one_short_line(capsys, n):
    """Past 2^64 the message states the dimension and the limit, not 2^dim
    in full (a 482-digit number at --n 40)."""
    code, out, err = run(capsys, "cohomology", "betti", "--n", str(n))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 160
    assert "%d-dimensional algebra has 2^%d cochains" % (n * n, n * n) in err


def _must_not_run(*args):
    raise AssertionError("the refused computation started")


@pytest.mark.parametrize("argv, seam, message", [
    (["extension", "verify", "--bound", "16"], ("extension", "rho"),
     "bound 16 needs 314721 derivation conditions, more than the limit of 262144"),
    (["extension", "verify", "--bound", "300"], ("extension", "rho"),
     "more than the limit of 262144"),
    (["cohomology", "h1", "--bound", "32"], ("ladder", "generator_bracket"),
     "bound 32 needs 1185921 generator pairs, more than the limit of 1048576"),
    (["cohomology", "h1", "--bound", "200", "--with-y"], ("ladder", "generator_bracket"),
     "more than the limit of 1048576"),
    (["extension", "infeasible", "--L", "1025"], ("extension", "solve_or_refute"),
     "1025 truncation levels are more than the limit of 1024"),
    (["extension", "infeasible", "--L", "3000", "--json"], ("extension", "ExactMatrix"),
     "more than the limit of 1024"),
], ids=["ext-verify-16", "ext-verify-300", "h1-32", "h1-200", "infeasible-1025",
        "infeasible-3000"])
def test_oversized_windows_are_refused_before_any_work(capsys, monkeypatch, argv, seam,
                                                        message):
    from ladderie import extension, ladder

    monkeypatch.setattr({"extension": extension, "ladder": ladder}[seam[0]], seam[1],
                        _must_not_run)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and message in err


_ELEMENT_VERBS = {
    "bracket": ["bracket", "Z[1,0]", "Z[0,1]"], "from-e": ["from-e", "E[0,1]"],
    "to-e": ["to-e", "Z[1,1] - Z[0,0]"], "decompose": ["decompose", "2", "1"],
    "obstruct": ["extension", "obstruct", "--bplus=E[1,0]", "--bminus=0"],
}


# dse expand writes its text line from the JSON items, so only its --json
# request is held to rendering one form.
@pytest.mark.parametrize("argv, as_json", [
    pytest.param(argv, as_json, id="%s-%s" % ("json" if as_json else "text", name))
    for name, argv in _ELEMENT_VERBS.items() for as_json in (False, True)
] + [pytest.param(["dse", "expand", "--order", "3", "--alphabet"], True, id="json-dse-expand")])
def test_only_the_requested_form_is_rendered(capsys, monkeypatch, alphabet_file, argv, as_json):
    from ladderie import parsing

    def not_asked_for(*args):
        raise AssertionError("rendered a form that was not asked for")

    monkeypatch.setattr(parsing, "format_element" if as_json else "element_to_json",
                        not_asked_for)
    argv = argv + [alphabet_file] * (argv[-1] == "--alphabet") + ["--json"] * as_json
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip()


def test_the_size_limits_admit_every_bound_verify_accepts():
    """`verify --bound 15`, the largest it accepts, runs ext.cocycle_conditions
    and cohomology.h1 at its bound, and ext.splitting_infeasible at 20 levels."""
    from ladderie import cohomology, extension

    assert (2 * 15 + 1) ** 2 * (15 + 1) ** 2 <= extension.MAX_COCYCLE_PAIRS
    assert (15 + 1) ** 4 <= cohomology.MAX_H1_PAIRS
    assert extension.MAX_SPLITTING_LEVELS >= 20


@pytest.mark.parametrize("content", ["[1, 2]", "\"ab\"", "{}", "{\"letters\": 3}",
                                     "{\"letters\": [1]}"])
def test_malformed_alphabet_is_usage_error(capsys, tmp_path, content):
    path = tmp_path / "alphabet.json"
    path.write_text(content)
    code, out, err = run(capsys, "words", "iota", "--alphabet", str(path),
                         "--n", "0", "--m", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_empty_alphabet_is_usage_error(capsys, tmp_path):
    path = tmp_path / "alphabet.json"
    path.write_text('{"letters": []}')
    code, out, err = run(capsys, "words", "iota", "--alphabet", str(path),
                         "--n", "0", "--m", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("letters", [
    [{"name": "a", "degree": 1}, {"name": "aa", "degree": 2}],
    [{"name": "e", "degree": 1}],
    [{"name": "a", "degree": 1.5}],
    [{"name": "a", "degree": "1"}],
    [{"name": "a", "degree": 1, "sym": 0.5}],
    [{"name": "a", "degree": 1, "sym": "1/0"}],
], ids=["multi-character-name", "name-e", "float-degree",
        "string-degree", "float-sym", "zero-denominator-sym"])
def test_ambiguous_or_inexact_alphabet_is_usage_error(capsys, tmp_path, letters):
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps({"letters": letters}))
    code, out, err = run(capsys, "dse", "expand", "--alphabet", str(path),
                         "--order", "3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys

    import ladderie

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ladderie.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "ladderie", "degree", "Z[3,1]"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


def test_verify_refuses_an_oversized_bound(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--bound", "16")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "24137569 generator triples" in err


def _betti_of_structure(capsys, tmp_path, structure):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(structure))
    return run(capsys, "cohomology", "betti", "--structure", str(path))


def _heisenberg(**term):
    return {"labels": ["x", "y", "z"],
            "brackets": [{"i": 0, "j": 1, "terms": [dict({"k": 2, "c": "1"}, **term)]}]}


def test_structure_constant_may_be_a_json_integer(capsys, tmp_path):
    code, out, err = _betti_of_structure(capsys, tmp_path, _heisenberg(c=1))
    assert (code, out, err) == (0, "betti = [1, 2, 2, 1]\n", "")


def test_structure_file_with_a_fraction_string_gives_its_betti_numbers(capsys, tmp_path):
    structure = {"labels": ["x", "y"],
                 "brackets": [{"i": 0, "j": 1, "terms": [{"k": 1, "c": "-3/2"}]}]}
    code, out, _ = _betti_of_structure(capsys, tmp_path, structure)
    assert (code, out) == (0, "betti = [1, 1, 0]\n")


@pytest.mark.parametrize("structure", [
    _heisenberg(k=1.5),
    [1, 2],
    _heisenberg(c=1.5),
    _heisenberg(c=True),
    _heisenberg(k=True),
    {"labels": ["x", "y", "z"], "brackets": [{"i": "0", "j": 1, "terms": []}]},
    {"labels": ["x", "y", "z"]},
    {"labels": "xyz", "brackets": []},
    {"labels": ["x", "y", "z"], "brackets": [7]},
    {"labels": ["x", "y", "z"], "brackets": [{"i": 0, "j": 1, "terms": [2]}]},
    {"labels": ["x", "y", "z"],
     "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "c": 1}, {"k": 2, "c": -1}]}]},
    {"labels": ["x", "y", "z"],
     "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "c": 1}]},
                  {"i": 0, "j": 1, "terms": []}]},
], ids=["float-index", "top-level-list", "float-constant", "bool-constant", "bool-index",
        "string-index", "no-brackets", "labels-not-a-list", "bracket-not-an-object",
        "term-not-an-object", "repeated-k", "repeated-pair"])
def test_malformed_structure_file_is_usage_error(capsys, tmp_path, structure):
    code, out, err = _betti_of_structure(capsys, tmp_path, structure)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["1", "+", " ", "[", ","])
def test_letter_names_outside_the_grammar_are_usage_errors(capsys, tmp_path, name):
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps({"letters": [{"name": "a", "degree": 1},
                                            {"name": name, "degree": 1}]}))
    for argv in (["words", "iota", "--n", "1", "--m", "0"], ["dse", "expand", "--order", "1"]):
        code, out, err = run(capsys, *argv, "--alphabet", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_underscore_letter_round_trips_through_words_bracket(capsys, tmp_path):
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps({"letters": [{"name": "a", "degree": 1},
                                            {"name": "_", "degree": 2}]}))
    code, out, _ = run(capsys, "words", "iota", "--alphabet", str(path), "--n", "1", "--m", "0")
    assert code == 0 and out.strip() == "Z[_,e] + Z[a,e]"
    code, out, _ = run(capsys, "words", "bracket", "--alphabet", str(path),
                       out.strip(), "Z[e,_]")
    assert code == 0 and out.strip() == "-Z[e,e] + Z[_,_] + Z[a,_]"
    code, again, _ = run(capsys, "words", "bracket", "--alphabet", str(path),
                         out.strip(), "0")
    assert code == 0 and again.strip() == "0"


def test_dse_expand_refuses_an_oversized_expansion(capsys, alphabet_file):
    start = time.perf_counter()
    code, out, err = run(capsys, "dse", "expand", "--alphabet", alphabet_file, "--order", "40")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "letters" in err


def test_act_refuses_a_huge_power_before_expanding_it(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "act", "Z[0,0]", "t[0]^100000000000")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err == "error: monomial degree 100000000000 exceeds 1000 at position 0\n"


def test_the_monomial_limit_adds_up_the_powers_of_a_term(capsys):
    code, out, err = run(capsys, "act", "Z[0,0]", "t[1] + 2*t[0]^999*t[1]^2")
    assert code == 2 and out == ""
    assert err == "error: monomial degree 1001 exceeds 1000 at position 7\n"


def test_act_runs_at_the_monomial_limit(capsys):
    from ladderie.ladder_module import MAX_MONOMIAL_DEGREE as limit

    code, out, err = run(capsys, "act", "Z[1,0]", "t[0]^%d" % limit)
    assert code == 0 and err == ""
    assert out == "%d*t[0]^%d*t[1]\n" % (limit, limit - 1)
