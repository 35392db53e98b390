"""Tests of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import LAYERS, Tracer

sys.path.insert(0, run.SRC)
os.makedirs(run.WORKDIR, exist_ok=True)

# Checks whose cost dominates the suite; the tiny verify runs the others.
_SLOW_CHECKS = {"check_words_jacobi", "check_words_action_representation"}


@pytest.fixture
def tiny_verify(monkeypatch):
    """Verify at bound 1 over the fast checks; every set-up re-imports the
    package, so the registry is cut down after each import."""
    full_import = run.import_package

    def import_fast():
        pkg = full_import()
        checks = pkg.suites._CHECKS
        checks[:] = [f for f in checks if f.__name__ not in _SLOW_CHECKS]
        return pkg

    monkeypatch.setattr(run, "import_package", import_fast)
    fast = import_fast().suites._CHECKS
    return workloads.Verify(bound=1, expected=[f(1).name for f in fast])


def _tiny(name, request):
    if name == "verify":
        return request.getfixturevalue("tiny_verify")
    if name == "cohomology":
        return workloads.Cohomology(n=2, degrees=range(5), h1_bound=3,
                                    centralizer_bound=3)
    return workloads.CliMix(scale=0.05)


def _set_up(workload, seed=7):
    pkg, _ = run.setup(workload, seed, 1)
    return pkg


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_check_names_are_the_suites():
    suites = run.import_package().suites
    assert len(suites._CHECKS) == len(workloads.CHECK_NAMES) == 38
    source = open(suites.__file__, encoding="utf-8").read()
    for name in workloads.CHECK_NAMES:
        assert 'name = "%s"' % name in source


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace, request):
    workload = _tiny(name, request)
    result, lines = run.run_workload(workload, 11, 0.01, trace)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [n for n, _ in expected]
    for n, unit in expected:
        assert result["metrics"][n]["unit"] == unit
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_answers_equal_untraced(name, request):
    workload = _tiny(name, request)
    pkg = _set_up(workload)
    _, plain, _ = run.run_pass(workload)
    with Tracer(pkg) as tracer:
        _, traced, _ = run.run_pass(workload, tracer)
    assert traced == plain
    gate = workloads.Gate()
    workload.check(pkg, traced, gate)
    assert gate.failed == 0 and gate.attempted == workload.ops_per_pass
    assert len(tracer.end) > 0


def _bindings(pkg):
    """Every object bound in the package's namespaces, classes and
    module-level lists, by location."""
    out = {}
    mods = [pkg] + [getattr(pkg, layer) for layer in LAYERS]
    for mod in mods:
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type):
                for ckey, cval in vars(value).items():
                    out[(mod.__name__, key, ckey)] = cval
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    out[(mod.__name__, key, i)] = item
    return out


def test_tracer_restores_every_binding(request):
    workload = _tiny("cli-mix", request)
    pkg = _set_up(workload)
    before = _bindings(pkg)
    seams = (pkg.ladder.generator_bracket, pkg.ladder.theta,
             pkg.extension.rho_on_generators, pkg.cohomology.rank,
             pkg.cohomology._rref, pkg.ladder.kernel_rows)
    tracer = Tracer(pkg)
    with tracer:
        assert pkg.ladder.generator_bracket is not seams[0]
        assert pkg.cohomology.rank is not pkg.linalg.rank.__wrapped__
        assert pkg.cohomology.rank is pkg.linalg.rank
        run.run_pass(workload, tracer)
    after = _bindings(pkg)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert (pkg.ladder.generator_bracket, pkg.ladder.theta,
            pkg.extension.rho_on_generators, pkg.cohomology.rank,
            pkg.cohomology._rref, pkg.ladder.kernel_rows) == seams


def test_self_times_partition_traced_time(request):
    workload = _tiny("cohomology", request)
    pkg = _set_up(workload)
    with Tracer(pkg) as tracer:
        wall, _, times = run.run_pass(workload, tracer)
    self_times = tracer.self_times()
    assert all(t >= 0 for t in self_times)
    assert sum(self_times) <= sum(times) <= wall
    assert self_times[LAYERS.index("linalg")] > 0
    gl2 = pkg.cohomology.truncate_gl(2)
    matrices = [pkg.cohomology.ce_differential(gl2, k) for k in range(5)]
    assert tracer.counters["cohomology.ce_nnz"] == sum(len(m.entries) for m in matrices)
    assert tracer.counters["linalg.rows_in"] > sum(m.rows for m in matrices)
    assert tracer.counters["linalg.rank_out"] > sum(workloads._gl_ranks(2)[:5])


def test_gates_count_wrong_answers(request):
    mix = _tiny("cli-mix", request)
    pkg = _set_up(mix)
    _, answers, _ = run.run_pass(mix)
    bad = list(answers)
    code, out, err = bad[0]
    bad[0] = (code, out.replace("1", "2", 1) if "1" in out else out + "x", err)
    bad[1] = (2, "", "error")
    gate = workloads.Gate()
    mix.check(pkg, bad, gate)
    assert gate.failed == 2

    coh = _tiny("cohomology", request)
    pkg = _set_up(coh)
    _, answers, _ = run.run_pass(coh)
    dim, rank0, rank1, *rest = answers[0]
    answers = [(dim, rank0, rank1 + 1, *rest)]
    gate = workloads.Gate()
    coh.check(pkg, answers, gate)
    assert gate.failed == 1


def test_verify_gate_reads_fail_lines():
    verify = workloads.Verify(expected=("a.b", "c.d"))
    gate = workloads.Gate()
    verify.check(None, [(1, "PASS a.b (x)\nFAIL c.d (y): z\nverify: FAILURES\n", "")], gate)
    assert (gate.attempted, gate.failed) == (3, 2)


def test_mix_proportions_do_not_depend_on_seed():
    def shape(seed):
        counts = {}
        for kind, argv, _ in workloads.build_mix(seed):
            counts[kind] = counts.get(kind, 0) + 1
            counts["json"] = counts.get("json", 0) + ("--json" in argv)
        return counts

    half = len(workloads.MIX) * workloads.PER_KIND // 2
    assert shape(1) == shape(2) == dict(workloads.MIX, json=half)
    assert workloads.build_mix(3) == workloads.build_mix(3)
    assert workloads.build_mix(3) != workloads.build_mix(4)


def test_gl4_ranks_from_betti_numbers():
    assert workloads._gl_ranks(4)[:6] == (0, 15, 105, 454, 1365, 3002)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
