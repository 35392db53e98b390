"""One sha256 over what the CLI prints, to compare two trees byte for byte.

    python tests/output_digest.py [--seeds 1 2 3] [--bounds 1 2 3 4]

It runs every request of the benchmark's cli-mix stream for each seed
(``perfbench/workloads.py``; 960 requests a seed), ``verify --bound B`` for
each bound and ``cohomology betti --n N`` for N = 1..4, whose ``--json``
payload carries the ranks of every differential, each in text and with
``--json``; then ``cohomology h1 --bound B --json`` with and without
``--with-y`` for B = 6, 8, 10, and ``cohomology betti --structure`` in text
and with ``--json`` on gl(2) with every structure constant halved, whose
differentials carry Fractions; all through ``cli.main`` of the package
under ``src`` next to this file.  Each response is its exit code, stdout
and stderr.  It prints one digest per seed, one per cli-mix request kind
(over all seeds), one per bound, one per gl(N), one per h1 bound, one for
the structure file, then one over all of them; two trees
print the same lines exactly when every response is the same, and a change
confined to one kind of request changes that kind's line and no other
kind's.  Run it in each tree and compare the output.  The
alphabet and structure files go to a temporary directory under relative
paths, so no path of this run can reach a response.  pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from ladderie import cli, cohomology, linalg  # noqa: E402


def half_gl2() -> dict:
    """gl(2) with every structure constant halved, as a ``--structure`` file."""
    g2 = cohomology.truncate_gl(2)
    return {"labels": list(g2.basis_labels),
            "brackets": [{"i": i, "j": j, "terms": [
                {"k": k, "c": linalg.scalar_to_str(Fraction(c, 2))} for k, c in vec.items()]}
                for (i, j), vec in g2.structure.items()]}


@contextlib.contextmanager
def in_temporary_directory():
    """Run the block in a new temporary directory, then return."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            yield
        finally:
            os.chdir(here)


def responses(argvs):
    """(exit code, stdout, stderr) of ``cli.main`` on each argv."""
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        yield code, out.getvalue(), err.getvalue()


def digest(requests, total, by_kind=None) -> str:
    """sha256 of the responses to ``requests``, a list of (kind, argv)
    pairs, with the number of responses.  Each response also goes into
    ``total`` and, given ``by_kind``, into its kind's [hash, count] entry."""
    part = hashlib.sha256()
    count = 0
    for (kind, _), response in zip(requests, responses(argv for _, argv in requests)):
        line = json.dumps(response).encode() + b"\n"
        part.update(line)
        total.update(line)
        count += 1
        if by_kind is not None:
            by_kind[kind][0].update(line)
            by_kind[kind][1] += 1
    return "%s  %d responses" % (part.hexdigest(), count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3])
    parser.add_argument("--bounds", type=int, nargs="*", default=[1, 2, 3, 4])
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    by_kind = {kind: [hashlib.sha256(), 0] for kind in workloads.KINDS}
    with in_temporary_directory():
        mix = workloads.CliMix()
        for seed in args.seeds:
            mix.prepare(seed, os.curdir)
            requests = [(kind, argv) for kind, argv, _ in mix.mix]
            print("cli-mix seed %d: %s" % (seed, digest(requests, total, by_kind)))
    for kind, (part, count) in by_kind.items():
        print("cli-mix kind %s: %s  %d responses" % (kind, part.hexdigest(), count))
    for bound in args.bounds:
        requests = [(None, ["verify", "--bound", str(bound)] + flag) for flag in ([], ["--json"])]
        print("verify bound %d: %s" % (bound, digest(requests, total)))
    for n in (1, 2, 3, 4):
        requests = [(None, ["cohomology", "betti", "--n", str(n)] + flag)
                    for flag in ([], ["--json"])]
        print("cohomology betti n %d: %s" % (n, digest(requests, total)))
    for bound in (6, 8, 10):
        requests = [(None, ["cohomology", "h1", "--bound", str(bound)] + flag + ["--json"])
                    for flag in ([], ["--with-y"])]
        print("cohomology h1 bound %d: %s" % (bound, digest(requests, total)))
    with in_temporary_directory():
        with open("half_gl2.json", "w", encoding="utf-8") as handle:
            json.dump(half_gl2(), handle)
        requests = [(None, ["cohomology", "betti", "--structure", "half_gl2.json"] + flag)
                    for flag in ([], ["--json"])]
        print("cohomology betti half-scaled gl(2): %s" % digest(requests, total))
    print("total: %s" % total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
