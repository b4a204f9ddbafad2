import json
import random
import subprocess
import sys

import pytest

from sclkit import (
    Leaf,
    cd,
    dd,
    enumerate_candidates,
    eval_in_model,
    eval_tree,
    format_term,
    format_tree,
    independence_suite,
    invert,
    model_to_json,
    parse,
    replace,
    term_to_json,
    tree_to_json,
    tsd,
    validates,
)
from sclkit.axioms import eqfscl_minus
from sclkit.cli import _dot, main
from sclkit.generate import random_snf_term
from generators import random_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_se(capsys):
    code, out, _ = run(capsys, "se", "!b && a")
    assert code == 0
    assert out == "(F <b> (T <a> F))\n"


def test_se_json_and_dot(capsys):
    code, out, _ = run(capsys, "se", "a", "--json")
    assert code == 0
    assert json.loads(out) == {
        "node": "a",
        "l": {"leaf": "T"},
        "r": {"leaf": "F"},
    }
    code, out, _ = run(capsys, "se", "a", "--dot")
    assert code == 0
    assert out.startswith("digraph tree {")
    assert '"a"' in out and "shape=box" in out


def reference_dot(x):
    """The recursive Graphviz writer that ``_dot`` replaced."""
    lines = ["digraph tree {"]
    counter = 0

    def walk(node) -> str:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        if isinstance(node, Leaf):
            label = {"T": "T", "F": "F", "^": "hole"}[node.value]
            lines.append(f'  {name} [label="{label}" shape=box];')
        else:
            lines.append(f'  {name} [label="{node.atom}"];')
            left = walk(node.left)
            right = walk(node.right)
            lines.append(f'  {name} -> {left} [label="T"];')
            lines.append(f'  {name} -> {right} [label="F"];')
        return name

    walk(x)
    lines.append("}")
    return "\n".join(lines)


def test_dot_matches_reference():
    rng = random.Random(41)
    trees = [random_tree(rng, max_depth=rng.randint(0, 6)) for _ in range(300)]
    trees += [replace(x, for_false=Leaf.HOLE) for x in trees[:50]]  # hole leaves
    trees.append(eval_tree(parse("(a || b) && (a || b) && (a || b)")))  # shared subtrees
    for x in trees:
        assert _dot(x) == reference_dot(x)


def test_dot_takes_a_long_chain(capsys):
    n = 10_000
    code, out, err = run(capsys, "se", "--dot", " && ".join(f"a{i}" for i in range(n)))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 2 + (2 * n + 1) + 2 * n
    assert lines[:4] == [
        "digraph tree {",
        '  n0 [label="a0"];',
        '  n1 [label="a1"];',
        '  n2 [label="a2"];',
    ]
    assert lines[-3:] == ['  n0 -> n1 [label="T"];', f'  n0 -> n{2 * n} [label="F"];', "}"]


def test_se_expands_full_connectives(capsys):
    code, out, _ = run(capsys, "se", "a &.& F")
    assert code == 0
    code2, out2, _ = run(capsys, "se", "F &.& a")
    assert out == out2


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "a")
    assert code == 0
    assert out == "T && (a && T || F)\n"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "(a && T) || F")
    assert (code, out) == (0, "l-term\n")


def test_eq_exit_codes(capsys):
    code, out, _ = run(capsys, "eq", "a && a", "a")
    assert (code, out) == (1, "INEQUAL\n")
    code, out, _ = run(capsys, "eq", "(a && b) && c", "a && (b && c)")
    assert (code, out) == (0, "EQUAL\n")
    code, _, err = run(capsys, "eq", "a &&", "a")
    assert code == 2 and "ParseError" in err
    code, _, err = run(capsys, "eq", "a <| b |> c", "a", "--engine", "nf")
    assert code == 2 and "ModeViolation" in err


def test_eq_engines_same_verdict(capsys):
    for engine in ("tree", "nf", "cp"):
        code, out, _ = run(capsys, "eq", "!!a", "a", "--engine", engine)
        assert (code, out) == (0, "EQUAL\n")


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "((T <b> F) <a> F)", "--kind", "cd")
    assert code == 0
    assert out.splitlines() == [
        "candidate 1: context=(^ <a> F) core=(T <b> F)",
        "selected: context=(^ <a> F) core=(T <b> F)",
    ]
    code, out, _ = run(capsys, "decompose", "((T <b> F) <a> F)", "--kind", "dd")
    assert code == 0
    assert out == "selected: none\n"


def test_decompose_json_tree_input(capsys):
    tree_json = '{"node":"a","l":{"node":"b","l":{"leaf":"T"},"r":{"leaf":"F"}},"r":{"leaf":"F"}}'
    code, out, _ = run(capsys, "decompose", tree_json, "--kind", "cd")
    assert code == 0
    data = json.loads(run(capsys, "decompose", tree_json, "--kind", "cd", "--json")[1])
    assert data["selected"]["core"] == {
        "node": "b",
        "l": {"leaf": "T"},
        "r": {"leaf": "F"},
    }


def test_invert(capsys):
    code, out, _ = run(capsys, "invert", "(F <b> (T <a> F))")
    assert code == 0
    nf_out = run(capsys, "nf", "!b && a")[1]
    assert out == nf_out


def test_invert_deep_chain_tree(capsys):
    # a right-nested chain of 10,000 atoms: its tree is 10,000 deep
    text = "T"
    for i in reversed(range(10_000)):
        text = f"({text} <a{i}> F)"
    code, out, err = run(capsys, "invert", text)
    assert (code, err) == (0, "")
    assert out.startswith("T && ((a0 && T || F) && (a1 && T || F) && ")
    assert out.endswith(" && (a9999 && T || F))\n")


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "!a", "--to", "cp")
    assert (code, out) == (0, "F <| a |> T\n")
    code, out, _ = run(capsys, "translate", "a &.& b", "--to", "full")
    assert (code, out) == (0, "(a || b && F) && b\n")


def test_basic(capsys):
    code, out, _ = run(capsys, "basic", "a")
    assert (code, out) == (0, "T <| a |> F\n")
    code, out, _ = run(capsys, "basic", "a || b")
    assert (code, out) == (0, "T <| a |> (T <| b |> F)\n")


def test_models_check(capsys):
    code, out, _ = run(capsys, "models", "check")
    assert code == 0
    assert "result: PASS" in out
    assert "M_F10: refutes F10" in out and "[3 != 1]" in out
    code, out, _ = run(capsys, "models", "check", "--json")
    data = json.loads(out)
    assert data["pass"] is True
    assert len(data["models"]) == 8


def reference_models_check(as_json):
    """What ``scl models check`` printed when it ran the checks itself."""
    axioms = eqfscl_minus()
    rows, all_ok = [], True
    for entry in independence_suite():
        cells = {ax.tag: validates(entry.model, ax).valid for ax in axioms}
        all_ok &= all(cells[ax.tag] == (ax.tag != entry.tag) for ax in axioms)
        lhs = eval_in_model(entry.model, entry.refutation.lhs)
        rhs = eval_in_model(entry.model, entry.refutation.rhs)
        all_ok &= lhs != rhs
        rows.append((entry, cells, lhs, rhs))
    if as_json:
        models = [
            {
                "model": model_to_json(e.model),
                "refutes": e.tag,
                "axioms": cells,
                "refutation": str(e.refutation),
                "lhs": lhs,
                "rhs": rhs,
                "note": e.note,
            }
            for e, cells, lhs, rhs in rows
        ]
        return json.dumps({"models": models, "pass": all_ok}, sort_keys=True) + "\n"
    width = max(len(e.model.name) for e, _, _, _ in rows)
    out = [" ".join([f"{'model':<{width}}"] + [f"{ax.tag:>4}" for ax in axioms])]
    for e, cells, _, _ in rows:
        marks = [f"{'ok' if cells[ax.tag] else 'no':>4}" for ax in axioms]
        out.append(" ".join([f"{e.model.name:<{width}}"] + marks))
    out.append("")
    for e, _, lhs, rhs in rows:
        word = "!=" if lhs != rhs else "=="
        out.append(f"{e.model.name}: refutes {e.tag}: {e.refutation}  [{lhs} {word} {rhs}]")
        if e.note:
            out.append(f"  note: {e.note}")
    out += ["", f"result: {'PASS' if all_ok else 'FAIL'}"]
    return "\n".join(out) + "\n"


def test_models_check_output_is_unchanged(capsys):
    assert run(capsys, "models", "check") == (0, reference_models_check(False), "")
    assert run(capsys, "models", "check", "--json") == (0, reference_models_check(True), "")


def test_fuzz_is_deterministic(capsys):
    first = run(capsys, "fuzz", "--count", "25", "--seed", "9")
    second = run(capsys, "fuzz", "--count", "25", "--seed", "9")
    assert first == second
    assert first[0] == 0
    data = json.loads(first[1])
    assert data["pass"] is True
    assert data["checks"]["invert_roundtrip"] == 25


def test_fuzz_output_is_pinned(capsys):
    """The bytes a fixed run prints, as the recursive generator gave them."""
    assert run(capsys, "fuzz", "--count", "20", "--seed", "7") == (
        0,
        '{"checks": {"engines_agree": 20, "invert_roundtrip": 20, "normal_form_preserves_tree": 20}, '
        '"count": 20, "failures": [], "pass": true, "seed": 7}\n',
        "",
    )


def test_fuzz_count_must_not_be_negative(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--count", "-3", "--seed", "1"])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == "" and "expected a non-negative integer, got '-3'" in err
    assert run(capsys, "fuzz", "--count", "0", "--seed", "1")[0] == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["eq", "only-one-arg"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "T", "--kind", "zz"])
    assert exc.value.code == 64
    for argv in (["se", "a"], ["nf", "a"], ["eq", "a", "a"], ["basic", "a"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cap", "-1"])
        assert exc.value.code == 64
    assert main(["se", "T", "--cap", "0"]) == 0


def test_semantic_error_exit_code(capsys):
    code, _, err = run(capsys, "se", "a &&")
    assert code == 65 and "ParseError" in err
    code, _, err = run(capsys, "se", "(a || b) && (a || b) && (a || b)", "--cap", "9")
    assert code == 65 and "TreeTooLarge" in err
    code, _, err = run(capsys, "invert", "(T <a> T")
    assert code == 65


@pytest.mark.parametrize(
    "argv",
    [
        ["invert", '{"node": 5, "l": {"leaf":"T"}, "r": {"leaf":"F"}}'],
        ["invert", '{"node": "a"}'],
        ["decompose", "--kind", "cd", '{"node": "a"}'],
        ["invert", "(T <_x> F)"],
        ["decompose", "--kind", "tsd", "(T <_x> F)"],
        ["invert", '{"node": "_x", "l": {"leaf":"T"}, "r": {"leaf":"F"}}'],
    ],
)
def test_malformed_tree_input_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (65, "")
    assert err.startswith("error: ParseError: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["invert"], ["decompose", "--kind", "cd"]])
def test_tree_error_positions_index_the_argument(capsys, argv):
    text = "   (T <a> F) x"
    code, out, err = run(capsys, *argv, text)
    assert (code, out) == (65, "")
    assert err == "error: ParseError: unexpected trailing 'x' (at position 13)\n"
    assert text.index("x") == 13
    assert run(capsys, *argv, f" \t{text[:-2]}\n")[:2] == run(capsys, *argv, text[3:-2])[:2]
    tree_json = '{"node": "a", "l": {"leaf": "T"}, "r": {"leaf": "F"}}'
    assert run(capsys, *argv, f"\u00a0{tree_json}\n")[:2] == run(capsys, *argv, tree_json)[:2]


@pytest.mark.parametrize("argv", [["invert"], ["decompose", "--kind", "cd"]])
@pytest.mark.parametrize("prefix", ["", "   ", "\t", "\v", "\t\v "])
def test_json_error_positions_index_the_argument(capsys, argv, prefix):
    """Leading whitespace is stripped before ``json.loads``, which rejects
    ``\\v``, but the reported position is the one in the argument."""
    text = prefix + '{"node": "a",'
    code, out, err = run(capsys, *argv, text)
    assert (code, out) == (65, "")
    expected = "Expecting property name enclosed in double quotes"
    assert err == f"error: invalid JSON input: {expected}: line 1 column {len(text) + 1} (char {len(text)})\n"
    code, out, err = run(capsys, *argv, f" {text}\n\n")  # trailing whitespace moves nothing
    assert err.endswith(f"(char {len(text) + 1})\n")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eq", "é", "a"], 2),
        (["eq", "a", "b && é", "--engine", "cp"], 2),
        (["se", "é && a"], 65),
        (["nf", "$é"], 65),
    ],
)
def test_names_outside_the_term_rule_are_parse_errors(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ParseError: invalid ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["a &&", "a"],
        ["a", "$x"],
        ["(a || b) && (a || b) && (a || b)", "a", "--cap", "9"],
    ],
)
def test_eq_exits_2_on_every_error(capsys, argv):
    code, out, err = run(capsys, "eq", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_eq_takes_deeply_nested_negation(capsys):
    # the parser and the expansion use no stack frame per level
    for engine in ("tree", "nf", "cp"):
        assert run(capsys, "eq", "!" * 5000 + "a", "a", "--engine", engine) == (0, "EQUAL\n", "")
        assert run(capsys, "eq", "!" * 5001 + "a", "a", "--engine", engine) == (1, "INEQUAL\n", "")


def test_long_chains_go_through_every_text_subcommand(capsys):
    n = 10_000
    chain = " && ".join(f"a{i}" for i in range(n))
    expected = {
        "se": "(" * n + "T" + "".join(f" <a{i}> F)" for i in reversed(range(n))),
        "basic": "(" * (n - 1) + "T" + "".join(f" <| a{i} |> F)" for i in reversed(range(1, n))) + " <| a0 |> F",
        "cp": "".join(f"a{i} <| (" for i in reversed(range(2, n))) + "a1 <| a0 |> F" + ") |> F" * (n - 2),
        "full": chain,
    }
    for name, argv in [("se", ["se"]), ("basic", ["basic"]), ("cp", ["translate", "--to", "cp"]),
                       ("full", ["translate", "--to", "full"])]:
        assert run(capsys, *argv, chain) == (0, expected[name] + "\n", ""), name
    for engine in ("tree", "nf", "cp"):
        assert run(capsys, "eq", chain, chain + " && T", "--engine", engine) == (0, "EQUAL\n", "")
        assert run(capsys, "eq", chain, chain[:-5] + "b", "--engine", engine) == (1, "INEQUAL\n", "")


def test_long_chain_conjoined_with_f_goes_through_nf_and_eq(capsys):
    n = 10_000
    chain = " && ".join(f"a{i}" for i in range(n))
    code, out, err = run(capsys, "nf", chain + " && F")
    assert (code, err) == (0, "")
    assert eval_tree(parse(out)) is eval_tree(parse(chain + " && F"))
    for engine in ("tree", "nf", "cp"):
        assert run(capsys, "eq", chain + " && F", chain, "--engine", engine) == (1, "INEQUAL\n", "")
        assert run(capsys, "eq", chain + " && F", "F", "--engine", engine) == (1, "INEQUAL\n", "")
        assert run(capsys, "eq", chain + " && F", chain + " && F && a0", "--engine", engine) == (0, "EQUAL\n", "")


def test_deep_t_term_conjoined_with_an_atom_goes_through_nf_and_eq(capsys):
    # P0 && b, where Pi = (ai && Pi+1) || T and P5000 = T: a T-term nested
    # 5,000 deep, conjoined with b one level at a time
    t = "T"
    for i in reversed(range(5000)):
        t = f"(a{i} && ({t})) || T"
    expr = f"({t}) && b"
    code, out, err = run(capsys, "nf", expr)
    assert (code, err) == (0, "")
    assert parse(out) is invert(eval_tree(parse(expr)))
    assert run(capsys, "eq", expr, out, "--engine", "nf") == (0, "EQUAL\n", "")


def test_negated_and_disjoined_long_chains_go_through_nf_and_eq(capsys):
    n = 10_000
    chain = " && ".join(f"a{i}" for i in range(n))
    other = chain[:-5] + "b"
    for wrap in ("!({})", "({}) || b"):
        expr = wrap.format(chain)
        code, out, err = run(capsys, "nf", expr)
        assert (code, err) == (0, "")
        assert eval_tree(parse(out)) is eval_tree(parse(expr))
        for rhs, verdict in [(wrap.format(chain + " && T"), (0, "EQUAL\n", "")), (wrap.format(other), (1, "INEQUAL\n", ""))]:
            assert run(capsys, "eq", expr, rhs, "--engine", "tree") == verdict
            assert run(capsys, "eq", expr, rhs, "--engine", "nf") == verdict


_SELECTOR = {"cd": (cd, "ccd"), "dd": (dd, "cdd"), "tsd": (tsd, "ctsd")}


def _expected_decompose(tree, kind, as_json):
    selector, candidate_kind = _SELECTOR[kind]
    candidates = enumerate_candidates(tree, candidate_kind)
    selected = selector(tree)
    if as_json:
        encode = lambda d: {"context": tree_to_json(d.context), "core": tree_to_json(d.core)}
        data = {
            "kind": kind,
            "candidates": [encode(d) for d in candidates],
            "selected": encode(selected) if selected else None,
        }
        return json.dumps(data, sort_keys=True) + "\n"
    lines = [
        f"candidate {i}: context={format_tree(d.context)} core={format_tree(d.core)}"
        for i, d in enumerate(candidates, start=1)
    ]
    if selected is None:
        lines.append("selected: none")
    else:
        lines.append(
            f"selected: context={format_tree(selected.context)} core={format_tree(selected.core)}"
        )
    return "\n".join(lines) + "\n"


def test_decompose_and_invert_output_is_the_library_output(capsys):
    rng = random.Random(31)
    for _ in range(30):
        term = random_snf_term(rng, budget=rng.randint(1, 5), max_depth=rng.randint(1, 2))
        tree = eval_tree(term)
        for text in (format_tree(tree), json.dumps(tree_to_json(tree))):
            for kind in ("cd", "dd", "tsd"):
                for extra in ([], ["--json"]):
                    got = run(capsys, "decompose", text, "--kind", kind, *extra)
                    assert got == (0, _expected_decompose(tree, kind, bool(extra)), "")
            assert invert(tree) == term
            assert run(capsys, "invert", text) == (0, format_term(term) + "\n", "")
            expected = json.dumps(term_to_json(term), sort_keys=True) + "\n"
            assert run(capsys, "invert", text, "--json") == (0, expected, "")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sclkit.cli", "se", "!b && a"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(F <b> (T <a> F))\n"
