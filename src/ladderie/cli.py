"""Command line surface for the whole library.

Exit codes: 0 for values and passing verifications, 1 for verification
failures, 2 for usage or parse errors.  ``--json`` switches every verb to a
machine form carrying ``"schema": 1``; element arguments accept "-" to read
the expression from stdin.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import cohomology, extension, glinf, ladder, ladder_module, parsing, suites, words
from .linalg import int_from_json, scalar_from_json, scalar_to_str


def _read_expr(text: str) -> str:
    return sys.stdin.read() if text == "-" else text


def _read_exprs(args, *names) -> list:
    """The text of each named element argument, "-" read from stdin, which
    can feed only one argument of a call."""
    texts = [getattr(args, name) for name in names]
    if texts.count("-") > 1:
        raise ValueError("stdin ('-') can feed only one argument, not both %s" % " and ".join(
            name for name, text in zip(names, texts) if text == "-"))
    return [_read_expr(text) for text in texts]


def _emit(args, status: str, payload, text) -> int:
    """Print ``payload`` as JSON under ``--json``, else ``text``; either may
    be a function of no arguments, called only if its form is printed."""
    if args.json:
        payload = payload() if callable(payload) else payload
        text = json.dumps({"schema": 1, "status": status, "payload": payload}, sort_keys=True)
    print(text() if callable(text) else text)
    return 0 if status != "fail" else 1


def _value(args, elem) -> int:
    return _emit(args, "value", lambda: parsing.element_to_json(elem),
                 lambda: parsing.format_element(elem))


def _unary(parse, op):
    """The handler of a verb that maps one element argument to one element."""
    return lambda args: _value(args, op(parse(_read_expr(args.element))))


def _load_alphabet(path: str) -> words.Alphabet:
    with open(path, "r", encoding="utf-8") as handle:
        return words.alphabet_from_json(json.load(handle))


_BRACKETS = {ladder.LieElement: ladder.bracket, glinf.GlElement: glinf.bracket_ee}


def _cmd_bracket(args) -> int:
    a, b = map(parsing.parse_element, _read_exprs(args, "a", "b"))
    if type(a) is not type(b) or type(a) not in _BRACKETS:
        raise ValueError("bracket needs two Z/Y elements or two E elements")
    return _value(args, _BRACKETS[type(a)](a, b))


def _cmd_degree(args) -> int:
    e = parsing.parse_lie_element(_read_expr(args.element))
    d = ladder.degree(e)
    if d is None:
        return _emit(args, "value", {"degree": None}, "not-homogeneous")
    return _emit(args, "value", {"degree": d}, str(d))


def _cmd_decompose(args) -> int:
    dec = ladder.decompose_generator(args.n, args.m)
    parts = {"left": dec.left, "right": dec.right, "tail": dec.tail,
             "evaluates_to": dec.evaluate()}
    text = ("[%(left)s, %(right)s]" + ("" if dec.tail.is_zero() else " + (%(tail)s)")
            + " = %(evaluates_to)s")
    return _emit(args, "value", lambda: {k: parsing.element_to_json(e) for k, e in parts.items()},
                 lambda: text % {k: parsing.format_element(e) for k, e in parts.items()})


def _cmd_act(args) -> int:
    element, poly = _read_exprs(args, "element", "poly")
    e = parsing.parse_lie_element(element)
    return _value(args, ladder_module.act(e, parsing.parse_ladder_poly(poly)))


def _cmd_to_e(args) -> int:
    e = parsing.parse_lie_element(_read_expr(args.element))
    g = glinf.express_in_e(e)
    if g is None:
        return _emit(args, "value", {"in_ideal": False}, "not-in-ideal")
    return _emit(args, "value", lambda: {"in_ideal": True, **parsing.element_to_json(g)},
                 lambda: parsing.format_element(g))


def _cmd_extension_verify(args) -> int:
    report = extension.verify_cocycle_conditions(args.bound)
    status = "pass" if report.passed else "fail"
    text = ("cocycle conditions pass at bound %d (%d pair, %d triple checks)"
            % (report.bound, report.pairs_checked, report.triples_checked)
            if report.passed else
            "cocycle conditions FAIL: %s" % report.counterexample)
    return _emit(args, status, dataclasses.asdict(report), text)


def _cmd_extension_obstruct(args) -> int:
    b_plus, b_minus = map(parsing.parse_gl_element, _read_exprs(args, "bplus", "bminus"))
    r = extension.nonsplit_obstruction(b_plus, b_minus)
    return _emit(args, "value",
                 lambda: {"obstruction": parsing.element_to_json(r), "nonzero": not r.is_zero()},
                 lambda: "%s (%s)" % (parsing.format_element(r),
                                      "ZERO" if r.is_zero() else "nonzero"))


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
    a, b = (parsing.parse_word_element(text, alphabet) for text in _read_exprs(args, "a", "b"))
    return _value(args, words.bracket_words(a, b))


def _cmd_words_iota(args) -> int:
    return _value(args, words.iota_l(args.n, args.m, _load_alphabet(args.alphabet)))


def _cmd_dse_expand(args) -> int:
    """Each part's terms in family order: as JSON with the alpha order of
    each word, and as the text line "<coefficient> <word>" joined by " + "."""
    alphabet = _load_alphabet(args.alphabet)
    exp = words.dse_expand(alphabet, args.order)
    payload = {"order": exp.order}
    lines = []
    for grading, polys in (("c", exp.c), ("d", exp.d)):
        payload[grading] = []
        for j, poly in enumerate(polys):
            items = parsing.element_to_json(poly)
            for item, (w, _) in zip(items, parsing.family_terms(poly)):
                item["alpha_order"] = alphabet.alpha_degree(w)
            payload[grading].append(items)
            lines.append("%s[%d] = %s" % (grading, j, " + ".join(
                "%(c)s %(word)s" % item for item in items) or "0"))
    return _emit(args, "value", payload, "\n".join(lines))


def _cmd_cohomology_betti(args) -> int:
    if args.structure:
        with open(args.structure, "r", encoding="utf-8") as handle:
            algebra = _algebra_from_json(json.load(handle))
    elif args.algebra == "gl":
        if args.n is None:
            raise ValueError("--n is required with --algebra gl")
        cohomology.check_cochain_limit(max(args.n, 0) ** 2)
        algebra = cohomology.truncate_gl(args.n)
    else:
        raise ValueError("unknown algebra %r" % args.algebra)
    table = cohomology.betti_numbers(algebra)
    return _emit(args, "value", dataclasses.asdict(table), "betti = %s" % (list(table.betti),))


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
    cohomology.check_cochain_limit(len(obj["labels"]))
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


_BOUND = ("--bound", {"type": int, "default": 4})
_ALPHABET = ("--alphabet", {"required": True})
_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}

# One entry per verb, in --help order: (words, handler, help, arguments...).
# An argument is a name or a (flag, options) pair; "--json" comes after the
# arguments unless an entry places it.
_VERBS = [
    (("bracket",), _cmd_bracket, "bracket of two elements", "a", "b"),
    (("degree",), _cmd_degree, "grading degree of a Z/Y element", "element"),
    (("decompose",), _cmd_decompose,
     "canonical [Z[n,0], Z[0,m]] + tail form of a generator", ("n", _INT), ("m", _INT)),
    (("act",), _cmd_act, "derivation action on a ladder polynomial", "element", "poly"),
    (("to-e",), _cmd_to_e, "express a Z element in the E basis", "element"),
    (("from-e",), _unary(parsing.parse_gl_element, glinf.embed_to_z),
     "embed an E element into Z generators", "element"),
    (("project",), _unary(parsing.parse_lie_element, extension.project_to_c),
     "project onto the abelian quotient", "element"),
    (("section",), _unary(parsing.parse_c_element, extension.section_s),
     "section of the quotient projection", "element"),
    (("extension", "verify"), _cmd_extension_verify,
     "cocycle conditions on a finite window", _BOUND),
    (("extension", "obstruct"), _cmd_extension_obstruct,
     "splitting obstruction for graded corrections",
     ("--bplus", {"required": True}), ("--bminus", {"required": True})),
    (("extension", "infeasible"), _cmd_extension_infeasible,
     "certificate that no splitting exists", ("--L", _REQUIRED_INT)),
    (("words", "bracket"), _cmd_words_bracket,
     "bracket of word generator combinations", _ALPHABET, "a", "b"),
    (("words", "iota"), _cmd_words_iota, "word image of a ladder generator",
     _ALPHABET, ("--n", _REQUIRED_INT), ("--m", _REQUIRED_INT)),
    (("dse", "expand"), _cmd_dse_expand, "truncated word expansion with both gradings",
     _ALPHABET, ("--order", _REQUIRED_INT)),
    (("cohomology", "betti"), _cmd_cohomology_betti, "Betti numbers of a finite algebra",
     ("--algebra", {"default": "gl"}), ("--n", _INT),
     ("--structure", {"help": "JSON structure constants file"})),
    (("cohomology", "h1"), _cmd_cohomology_h1, "degree-functional first cohomology",
     _BOUND, ("--with-y", {"action": "store_true"})),
    (("verify",), _cmd_verify, "run the full verification suite", "--json", _BOUND),
]

_GROUPS = {"extension": "extension structure checks",
           "words": "word algebra operations",
           "dse": "linear Dyson-Schwinger expansions",
           "cohomology": "Chevalley-Eilenberg computations"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built from ``_VERBS`` on first use and then
    shared: every ``parse_args`` returns a fresh Namespace, so calls do not
    see each other's options.  ``verb_parsers`` maps each verb's words to
    its own parser."""
    parser = argparse.ArgumentParser(
        prog="ladderie",
        description="Exact computations in the ladder insertion-elimination "
                    "Lie algebra and its friends.")
    verbs = parser.add_subparsers(dest="verb", required=True)
    parser.verb_parsers = {}
    groups = {}
    for path, fn, help_text, *arguments in _VERBS:
        sub = verbs
        if len(path) == 2:
            if path[0] not in groups:
                group = verbs.add_parser(path[0], help=_GROUPS[path[0]])
                groups[path[0]] = group.add_subparsers(dest="subverb", required=True)
            sub = groups[path[0]]
        p = parser.verb_parsers[path] = sub.add_parser(path[-1], help=help_text)
        if "--json" not in arguments:
            arguments.append("--json")
        for arg in arguments:
            if arg == "--json":
                p.add_argument(arg, action="store_true",
                               **({"help": "machine output"} if sub is verbs else {}))
            else:
                flag, options = (arg, {}) if isinstance(arg, str) else arg
                p.add_argument(flag, **options)
        p.set_defaults(fn=fn)
    return parser


def _parse_args(argv):
    """The Namespace of ``argv``.  When its first one or two words name a
    verb, that verb's parser reads the rest; the full parser reads any other
    argv, and any the verb's parser leaves words of, so every help text and
    usage error is the one the full parser prints."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    for path in (tuple(argv[:1]), tuple(argv[:2])):
        if path in parser.verb_parsers:
            args, extras = parser.verb_parsers[path].parse_known_args(argv[len(path):])
            if not extras:
                return args
            break
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
