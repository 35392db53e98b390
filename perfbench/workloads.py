"""The benchmark's workloads: inputs, one measured pass, and answer gates.

Every workload is a closed loop with one client: a pass sends its requests
one after another, each only after the previous one returned.  Inputs that
do not need the package (the ``cli-mix`` request stream and its expected
answers) are built once in ``prepare``; ``setup`` binds them to a freshly
imported package and warms it up.  The package receives only those inputs.  ``verify`` and
``cohomology`` have fixed inputs; ``cli-mix`` builds its request stream from
the seed, with per-kind counts and size distributions that do not depend on
the seed.

A request returns a plain-data answer (ints, strings, tuples), so answers
from runs with and without tracing compare with ``==``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from itertools import product
from math import comb

# The 38 checks of ``ladderie verify`` at this benchmark's definition.
CHECK_NAMES = (
    "bracket.antisymmetry", "bracket.center_z00", "bracket.decomposition",
    "bracket.grading", "bracket.jacobi", "bracket.y_derivation",
    "cohomology.betti_gl", "cohomology.central_extension_evidence",
    "cohomology.d_squared", "cohomology.h1", "cohomology.stability",
    "dse.fibonacci", "dse.single_letter", "dse.sym_halving",
    "ext.alpha_agreement", "ext.cocycle_conditions", "ext.obstruction_grid",
    "ext.reconstruction", "ext.rho_agreement", "ext.section",
    "ext.splitting_infeasible", "glinf.bracket_embedding",
    "glinf.derived_subalgebra", "glinf.ideal", "glinf.roundtrip",
    "glinf.single_generators_excluded", "glinf.traceless_commutators",
    "lie.center_window", "lie.maximal_abelian", "module.coproduct",
    "module.leibniz", "module.representation", "words.action_representation",
    "words.antisymmetry", "words.coalgebra_map", "words.iota_action",
    "words.iota_bracket", "words.jacobi",
)


class Gate:
    """Counts answers checked and answers found wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


class _Capture:
    """Redirects stdout and stderr into buffers around a whole pass;
    ``take`` returns and clears what one request printed."""

    def __init__(self):
        self.out = io.StringIO()
        self.err = io.StringIO()
        self._stack = contextlib.ExitStack()

    def __enter__(self):
        self._stack.enter_context(contextlib.redirect_stdout(self.out))
        self._stack.enter_context(contextlib.redirect_stderr(self.err))
        return self

    def __exit__(self, *exc):
        return self._stack.__exit__(*exc)

    def take(self):
        out, err = self.out.getvalue(), self.err.getvalue()
        for buf in (self.out, self.err):
            buf.seek(0)
            buf.truncate()
        return out, err


def _cli_requests(cli, argvs):
    """One request per argv, each answered by ``(exit code, stdout, stderr)``."""
    cap = _Capture()

    def make(argv):
        def request():
            code = cli.main(argv)
            out, err = cap.take()
            return (code, out, err)
        return request

    return cap, [make(argv) for argv in argvs]


# -- verify --------------------------------------------------------------

class Verify:
    """``ladderie verify --bound 4`` through ``cli.main``: the flagship
    command at its default bound.  Element arithmetic on integer
    unit-coefficient generators does almost all the work."""

    name = "verify"
    fixed_inputs = True

    def __init__(self, bound: int = 4, expected=CHECK_NAMES):
        self.bound = bound
        self.expected = tuple(expected)
        self.ops_per_pass = len(self.expected) + 1  # each check, and the exit code

    def prepare(self, seed: int, workdir: str) -> None:
        pass

    def setup(self, pkg) -> None:
        self.capture, self.requests = _cli_requests(
            pkg.cli, [["verify", "--bound", str(self.bound)]])
        with _Capture():
            pkg.cli.main(["decompose", "2", "1"])

    def check(self, pkg, answers, gate: Gate) -> None:
        (code, out, _err), = answers
        status = {}
        for line in out.splitlines():
            mark, _, rest = line.partition(" ")
            if mark in ("PASS", "FAIL"):
                status[rest.split(" ", 1)[0]] = mark
        for name in self.expected:
            gate.expect(status.get(name) == "PASS", "verify: %s %s"
                        % (name, status.get(name, "missing")))
        extra = [n for n, mark in status.items() if mark != "PASS"]
        gate.expect(code == 0 and not extra, "verify: exit code %s, failing %s"
                    % (code, extra))


# -- cohomology ------------------------------------------------------------

def _gl_ranks(n: int) -> tuple:
    """Ranks of the CE differentials of gl(n), from the Betti numbers of
    (1+t)(1+t^3)...(1+t^(2n-1)): rank d_k = dim C^k - b_k - rank d_(k-1)."""
    poly = [1]
    for i in range(1, n + 1):
        deg = 2 * i - 1
        new = poly + [0] * deg
        for k, c in enumerate(poly):
            new[k + deg] += c
        poly = new
    dim = n * n
    ranks = []
    prev = 0
    for k in range(dim + 1):
        r = comb(dim, k) - poly[k] - prev
        ranks.append(r)
        prev = r
    return tuple(ranks)


def _rank(vectors) -> int:
    """Rank of sparse rational vectors (dicts), by plain elimination."""
    pivots: dict = {}
    for vec in vectors:
        v = dict(vec)
        while v:
            col = min(v)
            if col not in pivots:
                pivots[col] = v
                break
            p = pivots[col]
            f = v[col] / p[col]
            for c, x in p.items():
                y = v.get(c, 0) - f * x
                if y:
                    v[c] = y
                else:
                    v.pop(c, None)
    return len(pivots)


class Cohomology:
    """Exact linear algebra: the gl(4) Chevalley-Eilenberg ranks (rank only),
    first cohomology of the degree functional at bound 10, and the window
    centralizer of the diagonal test set at bound 8 (kernel bases that
    return Fractions).  One request per pass runs all ten computations: their
    costs differ by five orders of magnitude, so a latency percentile over
    them would only pick out one of them."""

    name = "cohomology"
    fixed_inputs = True

    def __init__(self, n: int = 4, degrees=range(6), h1_bound: int = 10,
                 centralizer_bound: int = 8):
        self.n = n
        self.degrees = tuple(degrees)
        self.h1_bound = h1_bound
        self.centralizer_bound = centralizer_bound
        self.ops_per_pass = len(self.degrees) + 4

    def prepare(self, seed: int, workdir: str) -> None:
        pass

    def setup(self, pkg) -> None:
        cohomology, linalg, ladder = pkg.cohomology, pkg.linalg, pkg.ladder
        tests = [ladder.Z(k, k) for k in range(1, self.centralizer_bound + 1)]
        holder = {}

        def build():
            holder["gl"] = cohomology.truncate_gl(self.n)
            return holder["gl"].dim

        def rank_of(k):
            return lambda: linalg.rank(cohomology.ce_differential(holder["gl"], k))

        def h1(with_y):
            def request():
                report = cohomology.h1_degree_functional(self.h1_bound, with_y=with_y)
                return (report.dimension,
                        tuple(tuple(sorted(v.items())) for v in report.basis))
            return request

        def centralizer():
            basis = ladder.centralizer_basis(tests, self.centralizer_bound)
            return tuple((tuple(sorted(e.z.items())), e.y) for e in basis)

        steps = ([build] + [rank_of(k) for k in self.degrees]
                 + [h1(False), h1(True), centralizer])
        self.capture = contextlib.nullcontext()
        self.requests = [lambda: tuple(step() for step in steps)]
        linalg.rank(cohomology.ce_differential(cohomology.truncate_gl(2), 1))

    def check(self, pkg, answers, gate: Gate) -> None:
        (dim, *rest), = answers
        ranks = rest[:len(self.degrees)]
        free, pinned, centralizer = rest[len(self.degrees):]
        gate.expect(dim == self.n * self.n, "gl(%d) dimension %s" % (self.n, dim))
        expected = _gl_ranks(self.n)
        for k, r in zip(self.degrees, ranks):
            gate.expect(r == expected[k], "rank d_%d = %s, expected %s" % (k, r, expected[k]))
        gate.expect(free[0] == 2 * self.h1_bound + 1, "h1 without Y: %s" % free[0])
        gate.expect(pinned[0] == 1, "h1 with Y: %s" % pinned[0])
        b = self.centralizer_bound
        diagonal = all(y == 0 and all(n == m <= b for (n, m), _ in z)
                       for z, y in centralizer)
        vectors = [{n: c for (n, _), c in z} for z, _ in centralizer]
        gate.expect(diagonal and len(centralizer) == b + 1 and _rank(vectors) == b + 1,
                    "centralizer is not span{Z[j,j] : j <= %d}: %s" % (b, centralizer))


# -- cli-mix ----------------------------------------------------------------

# The mix is synthetic and uniform by design: no usage data says how often
# each request kind occurs, so every kind gets the same count, and within a
# kind every parameter cycles evenly over its range (see ``_make_request``).
# The seed never changes these counts.
KINDS = ("bracket-z", "bracket-e", "act", "to-e", "from-e", "project", "section",
         "decompose", "words-bracket", "dse-expand", "cohomology-h1",
         "extension-obstruct")
PER_KIND = 80
MIX = tuple((kind, PER_KIND) for kind in KINDS)

_INDEX = 12          # Z, E and t indices are < 12
_MAX_TERMS = 30
_ALPHABET = {"letters": [{"name": "a", "degree": 1, "sym": "1"},
                         {"name": "b", "degree": 2, "sym": "2"}]}
_WORDS = [w for n in range(4) for w in product("ab", repeat=n)]


def _sizes(count: int, low: int, high: int) -> list:
    """``count`` sizes spread evenly over [low, high]."""
    return [low + (j * (high - low + 1)) // count for j in range(count)]


def _coef(rng) -> Fraction:
    return Fraction(rng.choice((-9, -7, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 7, 9)),
                    rng.randint(1, 9))


def _render(terms) -> str:
    """Text form of [(coeff, atom)], positive term first so no argument
    starts with '-' (argparse would take it for an option)."""
    terms = sorted(terms, key=lambda t: t[0] < 0)
    out = [] if terms and terms[0][0] > 0 else ["0"]
    for c, atom in terms:
        mag = abs(c)
        text = ("%d*%s" % (mag.numerator, atom) if mag.denominator == 1
                else "%d/%d*%s" % (mag.numerator, mag.denominator, atom))
        out.append(("- " if c < 0 else "+ ") + text if out else text)
    return " ".join(out)


def _word(w) -> str:
    return "".join(w) if w else "e"


def _sparse(rng, keys, k) -> dict:
    return {key: _coef(rng) for key in rng.sample(keys, k)}


_PAIRS = [(i, j) for i in range(_INDEX) for j in range(_INDEX)]


def _z_text(z, y=0) -> str:
    terms = [(c, "Z[%d,%d]" % idx) for idx, c in z.items()]
    if y:
        terms.append((y, "Y"))
    return _render(terms)


def _e_text(e) -> str:
    return _render([(c, "E[%d,%d]" % idx) for idx, c in e.items()])


def _add(acc: dict, key, value) -> None:
    new = acc.get(key, 0) + value
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)


def _embed(e: dict) -> dict:
    """E[i,j] -> Z[i,j] - Z[i+1,j+1]."""
    z: dict = {}
    for (i, j), c in e.items():
        _add(z, (i, j), c)
        _add(z, (i + 1, j + 1), -c)
    return z


def _gl_bracket(a: dict, b: dict) -> dict:
    """[E[i,j], E[r,k]] = d(j,r) E[i,k] - d(k,i) E[r,j]."""
    acc: dict = {}
    for (i, j), ca in a.items():
        for (r, k), cb in b.items():
            if j == r:
                _add(acc, (i, k), ca * cb)
            if k == i:
                _add(acc, (r, j), -ca * cb)
    return acc


def _act(z: dict, y, poly: dict) -> dict:
    """Derivation action: Z[n,m] t[k] = t[k-m+n] for k >= m, Y t[k] = k t[k]."""
    acc: dict = {}
    for mono, cp in poly.items():
        for (n, m), cz in z.items():
            for i, k in enumerate(mono):
                if k >= m:
                    new = tuple(sorted(mono[:i] + (k - m + n,) + mono[i + 1:]))
                    _add(acc, new, cp * cz)
        if y and sum(mono):
            _add(acc, mono, y * cp * sum(mono))
    return acc


def _dse(order: int) -> tuple:
    """Words over {a: degree 1, sym 1; b: degree 2, sym 2}: c[j] by alpha
    order, d[j] by length, each weighted by the inverse symmetry factors."""
    degree = {"a": 1, "b": 2}
    c = [dict() for _ in range(order + 1)]
    d = [dict() for _ in range(order + 1)]
    for length in range(order + 1):
        for w in product("ab", repeat=length):
            alpha = sum(degree[x] for x in w)
            if alpha <= order:
                weight = Fraction(1, 2 ** w.count("b"))
                c[alpha][w] = weight
                d[length][w] = weight
    return c, d


def build_mix(seed: int) -> list:
    """The request stream: [(kind, argv, expected-answer data)]."""
    rng = random.Random(seed)
    out = []
    for kind, count in MIX:
        sizes = _sizes(count, 1, _MAX_TERMS)
        other = sizes[count // 2:] + sizes[:count // 2]
        for j in range(count):
            out.append(_make_request(rng, kind, j, sizes[j], other[j]))
    rng.shuffle(out)
    return out


def _make_request(rng, kind, j, size, other):
    """Request ``j`` of its kind.  ``j`` fixes the parameters that are not
    sizes, so that each value comes up equally often whatever the seed:
    ``--json`` on even ``j``; Y in ``bracket-z``/``act`` and ``--with-y`` in
    ``cohomology h1`` when ``j % 4 >= 2``; 1-5 monomials in ``act`` and
    bound 1-5 in ``cohomology h1`` by ``(j // 4) % 5``; ``dse`` order 1-8 by
    ``(j // 2) % 8``.  These ranges are synthetic; the bounds keep every
    request short.  PER_KIND is a multiple of 2 * 4 * 5 and of 2 * 8, so
    every combination with ``--json`` occurs equally often."""
    use_json = j % 2 == 0
    with_y = j % 4 >= 2
    if kind == "bracket-z":
        a, b = _sparse(rng, _PAIRS, size), _sparse(rng, _PAIRS, other)
        ya = _coef(rng) if with_y else 0
        argv, data = ["bracket", _z_text(a, ya), _z_text(b)], None
    elif kind == "bracket-e":
        a, b = _sparse(rng, _PAIRS, size), _sparse(rng, _PAIRS, other)
        argv, data = ["bracket", _e_text(a), _e_text(b)], _gl_bracket(a, b)
    elif kind == "act":
        z = _sparse(rng, _PAIRS, size)
        y = _coef(rng) if with_y else 0
        monos = {}
        for i in range(1 + (j // 4) % 5):
            mono = tuple(sorted(rng.randrange(_INDEX) for _ in range(1 + i % 3)))
            monos[mono] = _coef(rng)
        poly = _render([(c, "*".join("t[%d]" % k for k in mono)) for mono, c in monos.items()])
        argv, data = ["act", _z_text(z, y), poly], _act(z, y, monos)
    elif kind == "to-e":
        e = _sparse(rng, _PAIRS, size)
        argv, data = ["to-e", _z_text(_embed(e))], e
    elif kind == "from-e":
        e = _sparse(rng, _PAIRS, size)
        argv, data = ["from-e", _e_text(e)], _embed(e)
    elif kind == "project":
        z = _sparse(rng, _PAIRS, size)
        proj: dict = {}
        for (n, m), c in z.items():
            _add(proj, n - m, c)
        argv, data = ["project", _z_text(z)], proj
    elif kind == "section":
        x = _sparse(rng, range(1 - _INDEX, _INDEX), min(size, 2 * _INDEX - 1))
        lift = {(d, 0) if d > 0 else (0, -d): c for d, c in x.items()}
        argv = ["section", _render([(c, "C[%d]" % d) for d, c in x.items()])]
        data = lift
    elif kind == "decompose":
        n, m = rng.randrange(_INDEX), rng.randrange(_INDEX)
        argv, data = ["decompose", str(n), str(m)], {(n, m): 1}
    elif kind == "words-bracket":
        gens = [(w1, w2) for w1 in _WORDS for w2 in _WORDS]
        a, b = _sparse(rng, gens, size), _sparse(rng, gens, other)
        text = [_render([(c, "Z[%s,%s]" % (_word(w1), _word(w2))) for (w1, w2), c in x.items()])
                for x in (a, b)]
        argv, data = ["words", "bracket", "--alphabet", None] + text, (a, b)
    elif kind == "dse-expand":
        order = 1 + (j // 2) % 8
        argv, data = ["dse", "expand", "--alphabet", None, "--order", str(order)], order
    elif kind == "cohomology-h1":
        bound = 1 + (j // 4) % 5
        argv = ["cohomology", "h1", "--bound", str(bound)] + (["--with-y"] if with_y else [])
        data = 1 if with_y else 2 * bound + 1
    else:  # extension-obstruct
        h = min(size, _INDEX - 1)
        bp = {(i + 1, i): c for i, c in _sparse(rng, range(_INDEX - 1), h).items()}
        bm = {(i, i + 1): c for i, c in _sparse(rng, range(_INDEX - 1), h).items()}
        argv = ["extension", "obstruct", "--bplus=" + _e_text(bp), "--bminus=" + _e_text(bm)]
        data = None
    if use_json:
        argv.append("--json")
    return kind, argv, data


class CliMix:
    """A seeded stream of short CLI requests through ``cli.main``, about half
    with ``--json``: parsing, argparse dispatch and formatting dominate, and
    brackets see many-term elements with non-integer coefficients."""

    name = "cli-mix"
    fixed_inputs = False

    def __init__(self, scale: float = 1.0):
        self.scale = scale
        self.seed = None

    def prepare(self, seed: int, workdir: str) -> None:
        """Build the request stream and its expected answers, once per seed."""
        if self.seed == seed:
            return
        path = os.path.join(workdir, "alphabet.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_ALPHABET, handle)
        mix = build_mix(seed)
        if self.scale != 1.0:
            mix = mix[:max(len(MIX), int(len(mix) * self.scale))]
        self.mix = [(kind, [path if a is None else a for a in argv], data)
                    for kind, argv, data in mix]
        self.ops_per_pass = len(self.mix)
        self.seed = seed

    def setup(self, pkg) -> None:
        self.capture, self.requests = _cli_requests(pkg.cli, [argv for _, argv, _ in self.mix])
        seen = {}
        for kind, argv, _ in self.mix:
            seen.setdefault(kind, argv)
        with _Capture():
            for argv in seen.values():
                pkg.cli.main(argv)

    def check(self, pkg, answers, gate: Gate) -> None:
        for (kind, argv, data), (code, out, err) in zip(self.mix, answers):
            if code != 0:
                gate.expect(False, "%s exit %s: %s" % (argv, code, err.strip()))
                continue
            try:
                ok = _CHECKS[kind](pkg, argv, data, out)
            except Exception as exc:  # a malformed output is a wrong answer
                ok = False
                err = "%s: %s" % (type(exc).__name__, exc)
            gate.expect(ok, "%s wrong: %r %s" % (kind, out[:200], err))


def _payload(out):
    obj = json.loads(out)
    if obj["schema"] != 1 or obj["status"] != "value":
        raise ValueError("unexpected envelope %r" % obj)
    return obj["payload"]


def _lie(pkg, argv, out):
    parsing = pkg.parsing
    if "--json" in argv:
        return parsing.lie_from_json(_payload(out))
    return parsing.parse_lie_element(out.strip())


def _check_bracket_z(pkg, argv, data, out):
    p, ladder = pkg.parsing, pkg.ladder
    a, b = p.parse_lie_element(argv[1]), p.parse_lie_element(argv[2])
    return _lie(pkg, argv, out) == -ladder.bracket(b, a)


def _gl(pkg, argv, out):
    if "--json" in argv:
        return pkg.parsing.gl_from_json(_payload(out)).e
    return pkg.parsing.parse_gl_element(out.strip()).e


def _check_act(pkg, argv, data, out):
    if "--json" in argv:
        got = pkg.parsing.ladder_from_json(_payload(out))
    else:
        got = pkg.parsing.parse_ladder_poly(out.strip())
    return got.terms == data


def _check_to_e(pkg, argv, data, out):
    if "--json" in argv and not _payload(out)["in_ideal"]:
        return False
    return _gl(pkg, argv, out) == data


def _check_z_equals(pkg, argv, data, out):
    e = _lie(pkg, argv, out)
    return e.z == data and not e.y


def _check_project(pkg, argv, data, out):
    p = pkg.parsing
    x = (p.c_from_json(_payload(out)) if "--json" in argv
         else p.parse_c_element(out.strip()))
    return x.terms == data


def _check_decompose(pkg, argv, data, out):
    if "--json" in argv:
        value = pkg.parsing.lie_from_json(_payload(out)["evaluates_to"])
    else:
        value = pkg.parsing.parse_lie_element(out.strip().rsplit(" = ", 1)[1])
    return value.z == data and not value.y


def _word_of(text):
    return () if text == "e" else tuple(text)


def _check_words_bracket(pkg, argv, data, out):
    words = pkg.words
    a, b = (words.WordLieElement(x) for x in data)
    if "--json" in argv:
        got = words.WordLieElement({(_word_of(t["w1"]), _word_of(t["w2"])):
                                    Fraction(t["c"]) for t in _payload(out)})
    else:
        alphabet = words.alphabet_from_json(_ALPHABET)
        got = pkg.parsing.parse_word_element(out.strip(), alphabet)
    return got == words.bracket_words(b, a) * -1


def _check_dse(pkg, argv, data, out):
    c, d = _dse(data)
    if "--json" in argv:
        payload = _payload(out)
        got = [[{_word_of(t["word"]): Fraction(t["c"]) for t in part}
                for part in payload[key]] for key in ("c", "d")]
        orders = all(t["alpha_order"] == sum(1 if x == "a" else 2 for x in _word_of(t["word"]))
                     for key in ("c", "d") for part in payload[key] for t in part)
        return orders and got == [c, d]
    got = {"c": [], "d": []}
    for line in out.strip().splitlines():
        head, body = line.split(" = ")
        part = {}
        if body != "0":
            for term in body.split(" + "):
                coef, word = term.split(" ")
                part[_word_of(word)] = Fraction(coef)
        got[head[0]].append(part)
    return got["c"] == c and got["d"] == d


def _check_h1(pkg, argv, data, out):
    if "--json" in argv:
        return _payload(out)["dimension"] == data
    return out.strip() == "dimension %d" % data


def _check_obstruct(pkg, argv, data, out):
    """Nonzero, and in the ideal with trace -1 (the index of the shift)."""
    glinf = pkg.glinf
    if "--json" in argv:
        payload = _payload(out)
        r = pkg.parsing.lie_from_json(payload["obstruction"])
        flag = payload["nonzero"]
    else:
        text, _, tail = out.strip().rpartition(" (")
        r = pkg.parsing.parse_lie_element(text)
        flag = tail == "nonzero)"
    g = glinf.express_in_e(r)
    return flag and not r.is_zero() and g is not None and glinf.trace_functional(g) == -1


_CHECKS = {
    "bracket-z": _check_bracket_z,
    "bracket-e": lambda pkg, argv, data, out: _gl(pkg, argv, out) == data,
    "act": _check_act,
    "to-e": _check_to_e,
    "from-e": _check_z_equals,
    "project": _check_project,
    "section": _check_z_equals,
    "decompose": _check_decompose,
    "words-bracket": _check_words_bracket,
    "dse-expand": _check_dse,
    "cohomology-h1": _check_h1,
    "extension-obstruct": _check_obstruct,
}

WORKLOADS = {"verify": Verify, "cohomology": Cohomology, "cli-mix": CliMix}
