"""Command-line front end.

Every engine is reachable from a subcommand; output is deterministic text,
or JSON under ``--json``.  Exit codes: 0 success, 64 usage error, 65
semantic error (the error name is printed to stderr).  ``eq`` instead exits
0 when the terms are equal, 1 when they are not, and 2 on any error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import DEFAULT_NODE_CAP, SclError


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """The ``--cap`` and ``--count`` argument type: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def _read_tree(text: str):
    from .trees import parse_tree, tree_from_json

    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text.strip())  # json.loads skips only " \t\n\r"
        except json.JSONDecodeError as exc:  # at its position in the argument
            raise json.JSONDecodeError(exc.msg, text, exc.pos + len(text) - len(text.lstrip())) from None
        return tree_from_json(data)
    return parse_tree(text)  # as given, so that error positions index the argument


def _read_expr(text: str):
    """Parse an enriched expression and expand full-sequential connectives."""
    from .parser import parse
    from .terms import expand_full

    return expand_full(parse(text, "enriched"))


def _dot(x) -> str:
    """Graphviz text of ``x``: one node per occurrence, numbered in preorder.

    The stack holds subtrees still to visit and, for each node met, its edge
    lines, which follow the lines of both its subtrees.  A node's left child
    is the next number, and its right child comes after the left subtree's
    ``size`` occurrences.
    """
    from .trees import Leaf

    lines = ["digraph tree {"]
    count = 0
    stack = [x]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            lines.append(node)
            continue
        name = f"n{count}"
        count += 1
        if isinstance(node, Leaf):
            label = {"T": "T", "F": "F", "^": "hole"}[node.value]
            lines.append(f'  {name} [label="{label}" shape=box];')
        else:
            lines.append(f'  {name} [label="{node.atom}"];')
            right = f"n{count + node.left.size}"
            edges = f'  {name} -> n{count} [label="T"];\n  {name} -> {right} [label="F"];'
            stack += (edges, node.right, node.left)
    lines.append("}")
    return "\n".join(lines)


def _cmd_se(args) -> int:
    from .trees import eval_tree, format_tree, tree_to_json

    tree = eval_tree(_read_expr(args.expr), args.cap)
    if args.json:
        print(json.dumps(tree_to_json(tree), sort_keys=True))
    elif args.dot:
        print(_dot(tree))
    else:
        print(format_tree(tree))
    return 0


def _cmd_nf(args) -> int:
    from .normalize import nf
    from .terms import format_term, term_to_json

    result = nf(_read_expr(args.expr), args.cap)
    print(json.dumps(term_to_json(result), sort_keys=True) if args.json else format_term(result))
    return 0


def _cmd_classify(args) -> int:
    from .normalize import classify
    from .parser import parse

    category = classify(parse(args.expr, "scl"))
    print(json.dumps({"class": category.label}) if args.json else category.label)
    return 0


def _cmd_eq(args) -> int:
    lhs, rhs = _read_expr(args.lhs), _read_expr(args.rhs)
    if args.engine == "cp":
        from .cp import decide_eq_cp

        equal = decide_eq_cp(lhs, rhs, args.cap)
    else:
        from .normalize import decide_eq

        equal = decide_eq(lhs, rhs, args.engine, args.cap)
    verdict = "EQUAL" if equal else "INEQUAL"
    print(json.dumps({"equal": equal, "verdict": verdict}) if args.json else verdict)
    return 0 if equal else 1


_CANDIDATE_KIND = {"cd": "ccd", "dd": "cdd", "tsd": "ctsd"}


def _cmd_decompose(args) -> int:
    from .decompose import enumerate_candidates
    from .trees import format_tree, tree_to_json

    candidates = enumerate_candidates(_read_tree(args.tree), _CANDIDATE_KIND[args.kind])
    selected = candidates[0] if candidates else None  # the shallowest core
    if args.json:
        encode = lambda d: {
            "context": tree_to_json(d.context),
            "core": tree_to_json(d.core),
        }
        print(
            json.dumps(
                {
                    "kind": args.kind,
                    "candidates": [encode(d) for d in candidates],
                    "selected": encode(selected) if selected else None,
                },
                sort_keys=True,
            )
        )
        return 0
    for i, d in enumerate(candidates, start=1):
        print(f"candidate {i}: context={format_tree(d.context)} core={format_tree(d.core)}")
    if selected is None:
        print("selected: none")
    else:
        print(f"selected: context={format_tree(selected.context)} core={format_tree(selected.core)}")
    return 0


def _cmd_invert(args) -> int:
    from .inverse import invert
    from .terms import format_term, term_to_json

    term = invert(_read_tree(args.tree))
    print(json.dumps(term_to_json(term), sort_keys=True) if args.json else format_term(term))
    return 0


def _cmd_translate(args) -> int:
    from .terms import format_term, term_to_json

    result = _read_expr(args.expr)
    if args.to == "cp":
        from .cp import scl_to_cp

        result = scl_to_cp(result)
    print(json.dumps(term_to_json(result), sort_keys=True) if args.json else format_term(result))
    return 0


def _cmd_basic(args) -> int:
    from .cp import basic_form, scl_to_cp
    from .terms import format_term, term_to_json

    result = basic_form(scl_to_cp(_read_expr(args.expr)), args.cap)
    print(json.dumps(term_to_json(result), sort_keys=True) if args.json else format_term(result))
    return 0


def _cmd_models_check(args) -> int:
    from .models import independence_rows, model_to_json

    rows = independence_rows()
    all_ok = all(row.ok for row in rows)
    if args.json:
        models = [
            {
                "model": model_to_json(row.entry.model),
                "refutes": row.entry.tag,
                "axioms": row.valid,
                "refutation": str(row.entry.refutation),
                "lhs": row.lhs,
                "rhs": row.rhs,
                "note": row.entry.note,
            }
            for row in rows
        ]
        print(json.dumps({"models": models, "pass": all_ok}, sort_keys=True))
        return 0 if all_ok else 1

    width = max(len(row.entry.model.name) for row in rows)
    print(" ".join([f"{'model':<{width}}"] + [f"{t:>4}" for t in rows[0].valid]))
    for row in rows:
        marks = [f"{'ok' if valid else 'no':>4}" for valid in row.valid.values()]
        print(" ".join([f"{row.entry.model.name:<{width}}"] + marks))
    print()
    for row in rows:
        entry, word = row.entry, "!=" if row.lhs != row.rhs else "=="
        head = f"{entry.model.name}: refutes {entry.tag}: {entry.refutation}"
        print(f"{head}  [{row.lhs} {word} {row.rhs}]")
        if entry.note:
            print(f"  note: {entry.note}")
    print()
    print(f"result: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def _cmd_fuzz(args) -> int:
    from random import Random

    from .cp import decide_eq_cp
    from .generate import random_scl_term
    from .inverse import invert
    from .normalize import decide_eq, nf
    from .terms import format_term
    from .trees import eval_tree

    rng = Random(args.seed)
    failures = []
    checks = {"normal_form_preserves_tree": 0, "invert_roundtrip": 0, "engines_agree": 0}
    for index in range(args.count):
        term = random_scl_term(rng, max_depth=6)
        other = random_scl_term(rng, max_depth=6)
        try:
            normal = nf(term)
            if eval_tree(normal) == eval_tree(term):
                checks["normal_form_preserves_tree"] += 1
            else:
                failures.append({"check": "normal_form_preserves_tree", "index": index, "term": format_term(term)})
            if invert(eval_tree(normal)) == normal:
                checks["invert_roundtrip"] += 1
            else:
                failures.append({"check": "invert_roundtrip", "index": index, "term": format_term(term)})
            verdicts = {
                decide_eq(term, other, "tree"),
                decide_eq(term, other, "nf"),
                decide_eq_cp(term, other),
            }
            if len(verdicts) == 1:
                checks["engines_agree"] += 1
            else:
                failures.append({"check": "engines_agree", "index": index, "term": format_term(term)})
        except SclError as exc:
            failures.append({"check": type(exc).__name__, "index": index, "term": format_term(term)})
    print(
        json.dumps(
            {
                "count": args.count,
                "seed": args.seed,
                "checks": checks,
                "failures": failures,
                "pass": not failures,
            },
            sort_keys=True,
        )
    )
    return 0 if not failures else 1


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="scl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    def add_cap(p):
        p.add_argument("--cap", type=_count, default=DEFAULT_NODE_CAP, help="node cap")

    p = add("se", _cmd_se, "evaluation tree of an expression")
    p.add_argument("expr")
    p.add_argument("--dot", action="store_true", help="emit a Graphviz description")
    add_cap(p)

    p = add("nf", _cmd_nf, "normal form of an expression")
    p.add_argument("expr")
    add_cap(p)

    p = add("classify", _cmd_classify, "normal-form grammar category")
    p.add_argument("expr")

    p = add("eq", _cmd_eq, "decide tree equality of two expressions")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--engine", choices=("tree", "nf", "cp"), default="tree")
    add_cap(p)

    p = add("decompose", _cmd_decompose, "candidates and selected decomposition of a tree")
    p.add_argument("tree", help="tree in text or JSON form")
    p.add_argument("--kind", choices=("cd", "dd", "tsd"), required=True)

    p = add("invert", _cmd_invert, "normal-form term whose evaluation tree is given")
    p.add_argument("tree", help="tree in text or JSON form")

    p = add("translate", _cmd_translate, "rewrite into conditional or short-circuit form")
    p.add_argument("expr")
    p.add_argument("--to", choices=("cp", "full"), required=True)

    p = add("basic", _cmd_basic, "basic conditional form of an expression")
    p.add_argument("expr")
    add_cap(p)

    p = sub.add_parser("models", help="finite-model reports")
    models_sub = p.add_subparsers(dest="models_command", required=True)
    p = models_sub.add_parser("check", help="independence suite pass/fail matrix")
    p.set_defaults(fn=_cmd_models_check)
    p.add_argument("--json", action="store_true")

    p = add("fuzz", _cmd_fuzz, "randomized round-trip suite")
    p.add_argument("--count", type=_count, required=True)
    p.add_argument("--seed", type=int, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    failed = 2 if args.fn is _cmd_eq else 65
    try:
        return args.fn(args)
    except SclError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except RecursionError:
        print("error: input too deeply nested", file=sys.stderr)
    return failed


if __name__ == "__main__":
    sys.exit(main())
