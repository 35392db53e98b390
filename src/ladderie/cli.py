"""Command line surface for the whole library.

Exit codes: 0 for values and passing verifications, 1 for verification
failures, 2 for usage or parse errors.  ``--json`` switches every verb to a
machine form carrying ``"schema": 1``; element arguments accept "-" to read
the expression from stdin.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import cohomology, extension, glinf, ladder, ladder_module, parsing, suites, words
from .linalg import int_from_json, scalar_from_json, scalar_to_str
from .parsing import ParseError


def _read_expr(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    return text


def _emit(args, status: str, payload, text: str) -> int:
    if getattr(args, "json", False):
        print(json.dumps({"schema": 1, "status": status, "payload": payload},
                         sort_keys=True))
    else:
        print(text)
    return 0 if status != "fail" else 1


def _load_alphabet(path: str) -> words.Alphabet:
    with open(path, "r", encoding="utf-8") as handle:
        return words.alphabet_from_json(json.load(handle))


def _word_poly_payload(poly: words.WordPoly, alphabet) -> list:
    out = []
    for w in sorted(poly.terms, key=lambda w: (len(w), w)):
        out.append({"word": parsing.format_word(w),
                    "c": scalar_to_str(poly.terms[w]),
                    "alpha_order": alphabet.alpha_degree(w)})
    return out


def _cmd_bracket(args) -> int:
    a = parsing.parse_element(_read_expr(args.a))
    b = parsing.parse_element(_read_expr(args.b))
    if isinstance(a, ladder.LieElement) and isinstance(b, ladder.LieElement):
        r = ladder.bracket(a, b)
        return _emit(args, "value", parsing.lie_to_json(r), parsing.format_lie_element(r))
    if isinstance(a, glinf.GlElement) and isinstance(b, glinf.GlElement):
        r = glinf.bracket_ee(a, b)
        return _emit(args, "value", parsing.gl_to_json(r), parsing.format_gl_element(r))
    raise ParseError("bracket needs two Z/Y elements or two E elements", 0)


def _cmd_degree(args) -> int:
    e = parsing.parse_lie_element(_read_expr(args.element))
    d = ladder.degree(e)
    if d is None:
        return _emit(args, "value", {"degree": None}, "not-homogeneous")
    return _emit(args, "value", {"degree": d}, str(d))


def _cmd_decompose(args) -> int:
    dec = ladder.decompose_generator(args.n, args.m)
    text = "[%s, %s]" % (parsing.format_lie_element(dec.left),
                         parsing.format_lie_element(dec.right))
    tail = parsing.format_lie_element(dec.tail)
    if not dec.tail.is_zero():
        text += " + (%s)" % tail
    value = dec.evaluate()
    payload = {"left": parsing.lie_to_json(dec.left),
               "right": parsing.lie_to_json(dec.right),
               "tail": parsing.lie_to_json(dec.tail),
               "evaluates_to": parsing.lie_to_json(value)}
    return _emit(args, "value", payload,
                 "%s = %s" % (text, parsing.format_lie_element(value)))


def _cmd_act(args) -> int:
    e = parsing.parse_lie_element(_read_expr(args.element))
    p = parsing.parse_ladder_poly(_read_expr(args.poly))
    r = ladder_module.act(e, p)
    return _emit(args, "value", parsing.ladder_to_json(r), parsing.format_ladder_poly(r))


def _cmd_to_e(args) -> int:
    e = parsing.parse_lie_element(_read_expr(args.element))
    g = glinf.express_in_e(e)
    if g is None:
        return _emit(args, "value", {"in_ideal": False}, "not-in-ideal")
    payload = {"in_ideal": True}
    payload.update(parsing.gl_to_json(g))
    return _emit(args, "value", payload, parsing.format_gl_element(g))


def _cmd_from_e(args) -> int:
    g = parsing.parse_gl_element(_read_expr(args.element))
    e = glinf.embed_to_z(g)
    return _emit(args, "value", parsing.lie_to_json(e), parsing.format_lie_element(e))


def _cmd_project(args) -> int:
    e = parsing.parse_lie_element(_read_expr(args.element))
    x = extension.project_to_c(e)
    return _emit(args, "value", parsing.c_to_json(x), parsing.format_c_element(x))


def _cmd_section(args) -> int:
    x = parsing.parse_c_element(_read_expr(args.element))
    e = extension.section_s(x)
    return _emit(args, "value", parsing.lie_to_json(e), parsing.format_lie_element(e))


def _cmd_extension_verify(args) -> int:
    report = extension.verify_cocycle_conditions(args.bound)
    payload = {"bound": report.bound, "passed": report.passed,
               "pairs_checked": report.pairs_checked,
               "triples_checked": report.triples_checked,
               "counterexample": report.counterexample}
    status = "pass" if report.passed else "fail"
    text = ("cocycle conditions pass at bound %d (%d pair, %d triple checks)"
            % (report.bound, report.pairs_checked, report.triples_checked)
            if report.passed else
            "cocycle conditions FAIL: %s" % report.counterexample)
    return _emit(args, status, payload, text)


def _cmd_extension_obstruct(args) -> int:
    b_plus = parsing.parse_gl_element(_read_expr(args.bplus))
    b_minus = parsing.parse_gl_element(_read_expr(args.bminus))
    r = extension.nonsplit_obstruction(b_plus, b_minus)
    payload = {"obstruction": parsing.lie_to_json(r), "nonzero": not r.is_zero()}
    return _emit(args, "value", payload,
                 "%s (%s)" % (parsing.format_lie_element(r),
                              "nonzero" if not r.is_zero() else "ZERO"))


def _cmd_extension_infeasible(args) -> int:
    cert = extension.nonsplit_infeasibility(args.L)
    payload = {"levels": args.L,
               "rank_matrix": cert.rank_matrix,
               "rank_augmented": cert.rank_augmented,
               "witness": [scalar_to_str(v) for v in cert.witness]}
    text = ("infeasible: rank %d < augmented rank %d"
            % (cert.rank_matrix, cert.rank_augmented))
    return _emit(args, "value", payload, text)


def _cmd_words_bracket(args) -> int:
    alphabet = _load_alphabet(args.alphabet)
    a = parsing.parse_word_element(_read_expr(args.a), alphabet)
    b = parsing.parse_word_element(_read_expr(args.b), alphabet)
    r = words.bracket_words(a, b)
    payload = [{"w1": parsing.format_word(w1), "w2": parsing.format_word(w2),
                "c": scalar_to_str(c)}
               for (w1, w2), c in sorted(r.terms.items())]
    return _emit(args, "value", payload, parsing.format_word_element(r))


def _cmd_words_iota(args) -> int:
    alphabet = _load_alphabet(args.alphabet)
    r = words.iota_l(args.n, args.m, alphabet)
    payload = [{"w1": parsing.format_word(w1), "w2": parsing.format_word(w2),
                "c": scalar_to_str(c)}
               for (w1, w2), c in sorted(r.terms.items())]
    return _emit(args, "value", payload, parsing.format_word_element(r))


def _cmd_dse_expand(args) -> int:
    alphabet = _load_alphabet(args.alphabet)
    exp = words.dse_expand(alphabet, args.order)
    payload = {"order": exp.order,
               "c": [_word_poly_payload(p, alphabet) for p in exp.c],
               "d": [_word_poly_payload(p, alphabet) for p in exp.d]}
    lines = []
    for grading, polys in (("c", exp.c), ("d", exp.d)):
        for j, poly in enumerate(polys):
            body = " + ".join("%s %s" % (scalar_to_str(c), parsing.format_word(w))
                              for w, c in sorted(poly.terms.items()))
            lines.append("%s[%d] = %s" % (grading, j, body or "0"))
    return _emit(args, "value", payload, "\n".join(lines))


def _cmd_cohomology_betti(args) -> int:
    if args.structure:
        with open(args.structure, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
        algebra = _algebra_from_json(obj)
    elif args.algebra == "gl":
        if args.n is None:
            raise ParseError("--n is required with --algebra gl", 0)
        algebra = cohomology.truncate_gl(args.n)
    else:
        raise ParseError("unknown algebra %r" % args.algebra, 0)
    table = cohomology.betti_numbers(algebra)
    payload = {"betti": list(table.betti),
               "cochain_dims": list(table.cochain_dims),
               "ranks": list(table.ranks)}
    return _emit(args, "value", payload, "betti = %s" % (list(table.betti),))


def _algebra_from_json(obj) -> cohomology.FiniteLieAlgebra:
    """Structure constants from {"labels": [...], "brackets":
    [{"i": .., "j": .., "terms": [{"k": .., "c": ".."}]}]}.

    ``i``, ``j`` and ``k`` are JSON integers and ``c`` a JSON integer or a
    "p/q" string, so no value is rounded; a pair (i, j) or, within one
    bracket, an index k given twice would silently replace the first, so it
    raises ValueError like anything else malformed.
    """
    if not (isinstance(obj, dict) and isinstance(obj.get("labels"), list)
            and isinstance(obj.get("brackets"), list)):
        raise ValueError('a structure must be a JSON object with "labels" and '
                         '"brackets" lists')
    structure = {}
    for item in obj["brackets"]:
        if not (isinstance(item, dict) and isinstance(item.get("terms"), list)):
            raise ValueError('bracket %r is not a JSON object with a "terms" list' % (item,))
        vec = {}
        for term in item["terms"]:
            if not isinstance(term, dict):
                raise ValueError("bracket term %r is not a JSON object" % (term,))
            k = int_from_json(term.get("k"), "structure index k")
            if k in vec:
                raise ValueError("structure index k = %d repeated in one bracket" % k)
            vec[k] = scalar_from_json(term.get("c"), "structure constant")
        pair = tuple(int_from_json(item.get(key), "structure index " + key) for key in "ij")
        if pair in structure:
            raise ValueError("bracket (%d, %d) given twice" % pair)
        structure[pair] = vec
    return cohomology.FiniteLieAlgebra(obj["labels"], structure)


def _cmd_cohomology_h1(args) -> int:
    report = cohomology.h1_degree_functional(args.bound, with_y=args.with_y)
    payload = {"bound": report.bound, "with_y": report.with_y,
               "dimension": report.dimension,
               "basis": [{str(d): scalar_to_str(c) for d, c in vec.items()}
                         for vec in report.basis]}
    return _emit(args, "value", payload, "dimension %d" % report.dimension)


def _cmd_verify(args) -> int:
    report = suites.run_verify_suite(args.bound)
    payload = {"bound": report.bound, "passed": report.passed,
               "checks": [dataclasses.asdict(r) for r in report.results]}
    lines = ["%s %s (%s)" % ("PASS" if r.passed else "FAIL", r.name, r.detail)
             + ("" if r.passed or not r.counterexample else ": %s" % r.counterexample)
             for r in report.results]
    lines.append("verify: %s at bound %d"
                 % ("all checks passed" if report.passed else "FAILURES", report.bound))
    return _emit(args, "pass" if report.passed else "fail", payload, "\n".join(lines))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderie",
        description="Exact computations in the ladder insertion-elimination "
                    "Lie algebra and its friends.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="machine output")
        p.set_defaults(fn=fn)
        return p

    p = add("bracket", _cmd_bracket, help="bracket of two elements")
    p.add_argument("a")
    p.add_argument("b")

    p = add("degree", _cmd_degree, help="grading degree of a Z/Y element")
    p.add_argument("element")

    p = add("decompose", _cmd_decompose,
            help="canonical [Z[n,0], Z[0,m]] + tail form of a generator")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)

    p = add("act", _cmd_act, help="derivation action on a ladder polynomial")
    p.add_argument("element")
    p.add_argument("poly")

    p = add("to-e", _cmd_to_e, help="express a Z element in the E basis")
    p.add_argument("element")

    p = add("from-e", _cmd_from_e, help="embed an E element into Z generators")
    p.add_argument("element")

    p = add("project", _cmd_project, help="project onto the abelian quotient")
    p.add_argument("element")

    p = add("section", _cmd_section, help="section of the quotient projection")
    p.add_argument("element")

    pe = sub.add_parser("extension", help="extension structure checks")
    esub = pe.add_subparsers(dest="subverb", required=True)
    p = esub.add_parser("verify", help="cocycle conditions on a finite window")
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_extension_verify)
    p = esub.add_parser("obstruct", help="splitting obstruction for graded corrections")
    p.add_argument("--bplus", required=True)
    p.add_argument("--bminus", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_extension_obstruct)
    p = esub.add_parser("infeasible", help="certificate that no splitting exists")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_extension_infeasible)

    pw = sub.add_parser("words", help="word algebra operations")
    wsub = pw.add_subparsers(dest="subverb", required=True)
    p = wsub.add_parser("bracket", help="bracket of word generator combinations")
    p.add_argument("--alphabet", required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_words_bracket)
    p = wsub.add_parser("iota", help="word image of a ladder generator")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_words_iota)

    pd = sub.add_parser("dse", help="linear Dyson-Schwinger expansions")
    dsub = pd.add_subparsers(dest="subverb", required=True)
    p = dsub.add_parser("expand", help="truncated word expansion with both gradings")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_dse_expand)

    pc = sub.add_parser("cohomology", help="Chevalley-Eilenberg computations")
    csub = pc.add_subparsers(dest="subverb", required=True)
    p = csub.add_parser("betti", help="Betti numbers of a finite algebra")
    p.add_argument("--algebra", default="gl")
    p.add_argument("--n", type=int)
    p.add_argument("--structure", help="JSON structure constants file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_cohomology_betti)
    p = csub.add_parser("h1", help="degree-functional first cohomology")
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--with-y", dest="with_y", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_cohomology_h1)

    p = add("verify", _cmd_verify, help="run the full verification suite")
    p.add_argument("--bound", type=int, default=4)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
