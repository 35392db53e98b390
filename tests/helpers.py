"""Dense-matrix and structure-constant helpers, and reference kernels, that
only the tests use.

The library builds every matrix sparsely and brackets basis vectors one
pair at a time, so it needs none of these; the tests use them to write
small fixtures and to check results.  pytest does not collect this file.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, product
from math import comb

from ladderie import ladder
from ladderie.cohomology import H1Report
from ladderie.linalg import ExactMatrix, _rref, add_into, exact_scalar, kernel_rows


def from_rows(dense_rows) -> ExactMatrix:
    """The matrix of a list of equally long dense rows (zeros dropped)."""
    rows = len(dense_rows)
    cols = len(dense_rows[0]) if rows else 0
    if any(len(row) != cols for row in dense_rows):
        raise ValueError("ragged rows")
    return ExactMatrix(rows, cols, (((r, c), v) for r, row in enumerate(dense_rows)
                                    for c, v in enumerate(row)))


def identity(n: int) -> ExactMatrix:
    return ExactMatrix(n, n, {(i, i): 1 for i in range(n)})


def transpose(matrix: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(matrix.cols, matrix.rows,
                       {(c, r): v for (r, c), v in matrix.entries.items()})


def mul_vec(matrix: ExactMatrix, vec) -> list:
    """``matrix`` times the dense vector ``vec``, as a dense list."""
    if len(vec) != matrix.cols:
        raise ValueError("vector length %d != %d columns" % (len(vec), matrix.cols))
    out = [0] * matrix.rows
    for (r, c), v in matrix.entries.items():
        out[r] += v * exact_scalar(vec[c])
    return out


def bracket_vectors(algebra, u: dict, v: dict) -> dict:
    """Bracket of two sparse coordinate vectors of a ``FiniteLieAlgebra``."""
    acc: dict = {}
    for i, cu in u.items():
        for j, cv in v.items():
            add_into(acc, algebra.bracket_basis(i, j), cu * cv)
    return acc


def reference_ce_differential(algebra, k: int) -> ExactMatrix:
    """``cohomology.ce_differential`` on tuple subsets: each term removes
    x_p and x_q by slicing and finds where b goes by bisection.  The same
    matrix, with the same value types and the same entry order."""
    n = algebra.dim
    if not 0 <= k <= n:
        raise ValueError("cochain degree %s out of range" % (k,))
    pairs = [(p, q, -1 if (p + q) % 2 else 1)
             for p in range(k + 1) for q in range(p + 1, k + 1)]
    cols = {S: c for c, S in enumerate(combinations(range(n), k))}
    rows = list(combinations(range(n), k + 1))
    entries: dict = {}
    for r, S in enumerate(rows):
        for p, q, sign_pq in pairs:
            br = algebra.structure.get((S[p], S[q]))
            if br is None:
                continue
            rest = S[:p] + S[p + 1:q] + S[q + 1:]
            for b, c in br.items():
                pos = bisect_left(rest, b)
                if pos < len(rest) and rest[pos] == b:
                    continue
                key = (r, cols[rest[:pos] + (b,) + rest[pos:]])
                sgn = -sign_pq if pos % 2 else sign_pq
                entries[key] = entries.get(key, 0) + sgn * c
    return ExactMatrix._from_canonical(
        len(rows), comb(n, k), {key: v for key, v in entries.items() if v})


def reference_rref(row_dicts, exclude=frozenset(), track=False):
    """``linalg._rref`` scanning every row for each pivot column: the same
    rows, pivots and ``trans``."""
    rows = [dict(r) for r in row_dicts]
    m = len(rows)
    trans = [{i: 1} for i in range(m)] if track else None
    pivots = []
    pivoted = set()
    all_cols = sorted({c for r in rows for c in r if c not in exclude})
    for col in all_cols:
        cand = [i for i in range(m) if i not in pivoted and col in rows[i]]
        if not cand:
            continue
        i0 = min(cand, key=lambda i: (len(rows[i]), i))
        pivoted.add(i0)
        pv = rows[i0][col]
        if pv != 1:
            inv = Fraction(pv.denominator, pv.numerator)
            rows[i0] = {c: v * inv for c, v in rows[i0].items()}
            if track:
                trans[i0] = {c: v * inv for c, v in trans[i0].items()}
        prow = rows[i0]
        ptr = trans[i0] if track else None
        for i in range(m):
            if i == i0:
                continue
            v = rows[i].get(col)
            if v is None:
                continue
            add_into(rows[i], prow, -v)
            if track:
                add_into(trans[i], ptr, -v)
        pivots.append((col, i0))
    return rows, pivots, trans


def reference_h1_degree_functional(bound: int, with_y: bool = False) -> H1Report:
    """``cohomology.h1_degree_functional`` summing each pair's degree
    classes with ``add_into`` over a generator, without its size guard: the
    same report.  ``ladder.generator_bracket`` is looked up at call time."""
    window = list(range(-bound, bound + 1))
    col_of = {d: i for i, d in enumerate(window)}

    def column(d):
        return col_of.setdefault(d, len(col_of))

    gens = [(n, m) for n in range(bound + 1) for m in range(bound + 1)]
    rows = []
    for n, m in gens:
        for l, s in gens:
            br = ladder.generator_bracket(n, m, l, s)
            class_sum = add_into({}, ((a - b, c) for (a, b), c in br.items()))
            if class_sum:
                rows.append({column(d): c for d, c in class_sum.items()})
    if with_y:
        for n, m in gens:
            if n != m:
                rows.append({column(n - m): n - m})
    kernel = kernel_rows(rows, len(col_of))
    reduced, pivots, _ = _rref([{c: v for c, v in vec.items() if c < len(window)}
                                for vec in kernel])
    basis = []
    for _, i in pivots:
        basis.append({window[c]: v for c, v in sorted(reduced[i].items())})
    return H1Report(len(pivots), bound, with_y, tuple(basis))


def act_on_word(w1, w2, w):
    """Z[w1,w2] applied to the word w: prefix replacement, or None."""
    k = len(w2)
    if w[:k] == w2:
        return w1 + w[k:]
    return None


def reference_act_w(tg: dict, tp: dict) -> dict:
    """``words._act_w`` as ``add_into`` over one ``act_on_word`` call per
    (generator, word) pair: the same dict, items, order and value types."""
    return add_into({}, (
        (out, cg * cw)
        for (w1, w2), cg in tg.items()
        for w, cw in tp.items()
        if (out := act_on_word(w1, w2, w)) is not None))


def reference_action_cases(gens, targets, act, bracket, bracket_act=None):
    """``linalg.action_cases`` with every kernel call made, empty inputs
    included: the same cases, in the same order, with the same ``holds``."""
    bracket_act = bracket_act or act

    def or_none(fn, *args):
        try:
            return fn(*args)
        except ValueError:
            return None

    units = {g: {g: 1} for g in gens}
    image = {(g, w): or_none(act, units[g], {w: 1}) for g in gens for w in targets}
    for a, b in product(gens, repeat=2):
        ab = or_none(bracket, units[a], units[b])
        for w in targets:
            ia, ib = image[a, w], image[b, w]
            holds = None
            if ab is not None and ia is not None and ib is not None:
                try:
                    rhs = act(units[a], ib)
                    add_into(rhs, act(units[b], ia), -1)
                    holds = bracket_act(ab, {w: 1}) == rhs
                except ValueError:
                    pass
            yield a, b, w, holds
