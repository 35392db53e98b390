"""Run one workload of the ladderie benchmark and print its metrics.

    python3 perfbench/run.py --workload {verify,cohomology,cli-mix}
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from its
``src`` directory, never from an installed copy.  The process uses one
thread.  Report lines go to stdout; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs passes of the workload until the next pass would end
after ``--seconds`` (at least one pass), sets up at least nine times spread
over the run, and reports the end-to-end metrics.

``--trace 1`` runs one untraced pass, one pass with every layer wrapped in
spans, and one pass counting ``Fraction.__new__`` under a profile hook, and
reports the per-layer metrics.  All three passes are checked.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

from tracer import COUNTERS, LAYERS, FractionCounter, Tracer
from workloads import CHECK_NAMES, WORKLOADS, Gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

SETUP_ROUNDS = 9

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("req_p50_ms", "ms"), ("req_p99_ms", "ms"), ("req_per_s", "1/s"))

PER_LAYER = (tuple(m for layer in LAYERS
                   for m in (("%s.self_s" % layer, "s"), ("%s.calls" % layer, "count")))
             + tuple((name, "count") for name in COUNTERS)
             + tuple(("suites.%s.wall_s" % name, "s") for name in CHECK_NAMES)
             + (("fractions.new_calls", "count"), ("trace.overhead_ratio", "ratio")))


def import_package():
    """Import ``ladderie`` and all its layer modules afresh from ``src``."""
    for name in [n for n in sys.modules if n == "ladderie" or n.startswith("ladderie.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ladderie")
    for layer in LAYERS:
        importlib.import_module("ladderie." + layer)
    return pkg


def setup(workload, seed: int, rounds: int):
    """Build the package-independent inputs once (untimed), then import the
    package, bind the inputs to it and warm up ``rounds`` times; the package
    of the last round is used.  Returns (package, seconds per round)."""
    workload.prepare(seed, WORKDIR)
    times = []
    pkg = None
    for _ in range(rounds):
        gc.collect()
        t0 = time.perf_counter()
        pkg = import_package()
        workload.setup(pkg)
        times.append(time.perf_counter() - t0)
    return pkg, times


def run_pass(workload, tracer=None):
    """Send the workload's requests one after another.  Returns (wall
    seconds, answers, seconds per request)."""
    gc.collect()
    answers, times = [], []
    clock = time.perf_counter
    per_request = not workload.fixed_inputs
    if tracer is not None and not per_request:
        tracer.begin_run()
    t_pass = clock()
    with workload.capture:
        for request in workload.requests:
            if tracer is None:
                t0 = clock()
                answers.append(request())
                times.append(clock() - t0)
                continue
            if per_request:
                tracer.begin_run()
            with tracer.span("bench.%s" % workload.name):
                t0 = clock()
                answers.append(request())
                times.append(clock() - t0)
    return clock() - t_pass, answers, times


def _quantile(values, q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seed: int, seconds: float, gate: Gate):
    """Passes until the next one would end after ``seconds``.  Set-up rounds
    are spread over the run (three before the first pass, two after each,
    at least SETUP_ROUNDS in all), so their median sees the same machine as
    the passes."""
    pkg, setup_times = setup(workload, seed, 3)
    walls, times = [], []
    t_start = time.perf_counter()
    while True:
        wall, answers, req = run_pass(workload)
        workload.check(pkg, answers, gate)
        walls.append(wall)
        times.extend(req)
        if time.perf_counter() - t_start + wall > seconds:
            break
        pkg, more = setup(workload, seed, 2)
        setup_times += more
    setup_times += setup(workload, seed, max(0, SETUP_ROUNDS - len(setup_times)))[1]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "req_p50_ms": 1000 * _quantile(times, 50),
        "req_p99_ms": 1000 * _quantile(times, 99),
        "req_per_s": len(times) / sum(times),
    }
    return metrics, "pass seconds %s; request samples %d; set-up rounds %d" % (
        " ".join("%.4g" % w for w in walls), len(times), len(setup_times))


def traced(workload, pkg, gate: Gate):
    wall_plain, plain, _ = run_pass(workload)
    tracer = Tracer(pkg)
    with tracer:
        wall_traced, answers_traced, _ = run_pass(workload, tracer)
    with FractionCounter() as counter:
        _, answers_counted, _ = run_pass(workload)
    for answers in (plain, answers_traced, answers_counted):
        workload.check(pkg, answers, gate)
    gate.expect(answers_traced == plain, "traced answers differ from untraced")
    gate.expect(answers_counted == plain, "counted answers differ from untraced")

    path = os.path.join(WORKDIR, "spans-%s.bin" % workload.name)
    tracer.write_spans(path)
    metrics = {}
    for layer, self_s, calls in zip(LAYERS, tracer.self_times(), tracer.calls):
        metrics["%s.self_s" % layer] = self_s
        metrics["%s.calls" % layer] = calls
    metrics.update(tracer.counters)
    for name in CHECK_NAMES:
        metrics["suites.%s.wall_s" % name] = tracer.check_wall.get(name, 0.0)
    metrics["fractions.new_calls"] = counter.new_calls
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain
    info = {"untraced_wall_s": wall_plain, "traced_wall_s": wall_traced,
            "spans": len(tracer.end), "spans_file": os.path.relpath(path, ROOT)}
    return metrics, info


def run_workload(workload, seed: int, seconds: float, trace: bool):
    """Set up and run one workload.  Returns (result object, report lines)."""
    gate = Gate()
    if trace:
        pkg, _ = setup(workload, seed, 1)
        metrics, info = traced(workload, pkg, gate)
        names = PER_LAYER
        counts = ", ".join("%s %s" % item for item in sorted(info.items()))
    else:
        metrics, counts = measure(workload, seed, seconds, gate)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        names = END_TO_END
    lines = ["workload %s: seed %d%s" % (
                 workload.name, seed,
                 " (inputs are fixed; the seed is not used)" if workload.fixed_inputs else ""),
             "python %s, nproc %d, %d requests per pass, one client, closed loop"
             % (platform.python_version(), os.cpu_count() or 0, len(workload.requests)),
             counts,
             "ops_attempted %d, fail_ratio %.6g"
             % (gate.attempted, gate.failed / max(gate.attempted, 1))]
    lines += ["FAILED: %s" % message for message in gate.messages]
    lines += ["%-52s %14.6g %s" % (name, metrics[name], unit) for name, unit in names]
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ladderie", "__init__.py")):
        print("error: no ladderie package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORKDIR, exist_ok=True)

    result, lines = run_workload(WORKLOADS[args.workload](), args.seed,
                                 args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
