import pytest

from ladderie.suites import run_verify_suite


def test_suite_passes_and_is_ordered():
    report = run_verify_suite(2)
    assert report.passed
    names = [r.name for r in report.results]
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert all(r.detail for r in report.results)


def test_suite_rejects_bad_bound():
    with pytest.raises(ValueError):
        run_verify_suite(0)


def test_suite_refuses_a_jacobi_window_over_the_limit():
    from ladderie import suites

    assert (15 + 1) ** 6 <= suites.MAX_JACOBI_TRIPLES < (16 + 1) ** 6
    with pytest.raises(ValueError, match="24137569 generator triples"):
        run_verify_suite(16)


def test_a_raised_value_error_fails_its_check(monkeypatch, capsys):
    from ladderie import cli, ladder_module

    monkeypatch.setattr(ladder_module, "act_generator", lambda n, m, k: k - m + n)
    report = run_verify_suite(2)
    failed = {r.name for r in report.results if not r.passed}
    assert {"module.leibniz", "words.iota_action", "module.representation"} <= failed
    assert cli.main(["verify", "--bound", "2"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL module.leibniz" in out and err == ""


def test_a_value_error_outside_a_case_loop_fails_its_check(monkeypatch, capsys):
    """The obstruction grid's one eager call raises too, and reports a FAIL."""
    from ladderie import cli, ladder

    original = ladder.generator_bracket

    def leaving(n, m, l, s):
        out = dict(original(n, m, l, s))
        if out:
            out[(-1, 0)] = out.get((-1, 0), 0) + 1
        return out

    monkeypatch.setattr(ladder, "generator_bracket", leaving)
    assert cli.main(["verify", "--bound", "2"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL ext.obstruction_grid (raised ValueError)" in out and err == ""
