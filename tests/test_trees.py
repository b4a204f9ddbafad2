import json
import random
import re
import time
from functools import reduce

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sclkit import (
    Atom,
    Cond,
    Const,
    FullAnd,
    FullOr,
    Leaf,
    ModeViolation,
    Node,
    NonClosedTerm,
    Not,
    Or,
    And,
    ParseError,
    TreeTooLarge,
    Var,
    eval_tree,
    format_tree,
    graft,
    nf,
    parse,
    parse_tree,
    replace,
    substitute,
    tree_from_json,
    tree_to_json,
)
from sclkit.generate import random_scl_term, random_snf_term
from sclkit.terms import _is_name, postorder
from generators import random_term, random_tree
from test_terms import json_objects

T, F, H = Leaf.TRUE, Leaf.FALSE, Leaf.HOLE

_trees = st.recursive(
    st.sampled_from([T, F]),
    lambda c: st.tuples(st.sampled_from("ab"), c, c).map(lambda t: Node(*t)),
    max_leaves=16,
)


def test_replace_defining_clauses():
    y, z = Node("a", T, F), Node("b", F, T)
    assert replace(T, y, z) == y
    assert replace(F, y, z) == z
    assert replace(Node("a", T, F), y, z) == Node("a", y, z)


def test_replace_defaults_to_identity():
    x = Node("a", Node("b", T, F), F)
    assert replace(x) is x


def test_replace_swapping_leaves():
    assert replace(parse_tree("(T <a> F)"), F, T) == parse_tree("(F <a> T)")


@settings(max_examples=150)
@given(_trees, _trees, _trees, _trees, _trees)
def test_repeated_replacement_identity(x, y1, z1, y2, z2):
    lhs = replace(replace(x, y1, z1), y2, z2)
    rhs = replace(x, replace(y1, y2, z2), replace(z1, y2, z2))
    assert lhs == rhs


def test_graft():
    filler = Node("b", T, F)
    assert graft(H, filler) == filler
    assert graft(Node("a", H, F), filler) == Node("a", filler, F)
    hole_free = parse_tree("(F <b> T)")
    assert graft(hole_free, filler) is hole_free


@settings(max_examples=100)
@given(st.sampled_from("abc"), _trees, _trees, _trees)
def test_graft_distributes_over_composition(atom, left, right, filler):
    ctx = Node(atom, replace(left, H, F), replace(right, T, H))
    assert graft(ctx, filler) == Node(
        atom, graft(ctx.left, filler), graft(ctx.right, filler)
    )


def test_eval_tree_base_cases():
    assert eval_tree(parse("T")) is T
    assert eval_tree(parse("F")) is F
    assert eval_tree(parse("a")) == parse_tree("(T <a> F)")


def test_eval_tree_examples():
    assert format_tree(eval_tree(parse("!b && a"))) == "(F <b> (T <a> F))"
    assert eval_tree(parse("!(b || !a)")) == eval_tree(parse("!b && a"))


def test_eval_tree_conditional():
    assert eval_tree(parse("F <| a |> T")) == parse_tree("(F <a> T)")
    assert eval_tree(parse("b <| a |> c")) == parse_tree("((T <b> F) <a> (T <c> F))")


def test_eval_tree_agrees_with_conditional_translations():
    rng = random.Random(7)
    for _ in range(300):
        p = random_scl_term(rng, max_depth=5)
        q = random_scl_term(rng, max_depth=5)
        assert eval_tree(Not(p)) == eval_tree(Cond(parse("F"), p, parse("T")))
        assert eval_tree(And(p, q)) == eval_tree(Cond(q, p, parse("F")))
        assert eval_tree(Or(p, q)) == eval_tree(Cond(parse("T"), p, q))


def test_eval_tree_is_a_congruence():
    # equal trees stay equal under every one-hole context
    rng = random.Random(11)
    hole = Var("hole")
    for _ in range(200):
        p = random_scl_term(rng, max_depth=4)
        p_alt = nf(p)  # tree-equal by construction
        context = random_term(rng, max_depth=3, mode="open", variables=("hole",))
        filled = substitute(context, {"hole": p})
        filled_alt = substitute(context, {"hole": p_alt})
        assert eval_tree(p) == eval_tree(p_alt)
        try:
            expected = eval_tree(filled)
        except ModeViolation:  # context may use full connectives
            continue
        assert expected == eval_tree(filled_alt)


def test_depth_and_leaf_profile():
    assert T.depth == 0
    assert parse_tree("(F <b> (T <a> F))").depth == 2
    profile = lambda x: (x.has_true, x.has_false)
    assert profile(eval_tree(parse("a || T"))) == (True, False)
    assert profile(eval_tree(parse("a && F"))) == (False, True)
    assert profile(eval_tree(parse("a"))) == (True, True)


def test_eval_tree_errors():
    with pytest.raises(NonClosedTerm):
        eval_tree(parse("$x && a", "open"))
    with pytest.raises(ModeViolation):
        eval_tree(parse("a &.& b"))
    with pytest.raises(TreeTooLarge):
        eval_tree(parse("(a || b) && (a || b) && (a || b)"), cap=10)


def test_tree_text_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        x = random_tree(rng, max_depth=4, hole_prob=0.2)
        assert parse_tree(format_tree(x)) == x


@pytest.mark.parametrize(
    "bad", ["", "(T <a>)", "(T a F)", "T F", "(T <T> F)", "(T <a> F", "(T <_x> F)", "(T <é> F)"]
)
def test_tree_text_errors(bad):
    with pytest.raises(ParseError):
        parse_tree(bad)


def test_tree_json_roundtrip():
    rng = random.Random(4)
    for _ in range(100):
        x = random_tree(rng, max_depth=4, hole_prob=0.2)
        assert tree_from_json(tree_to_json(x)) == x
    assert tree_to_json(Node("a", T, H)) == {
        "node": "a",
        "l": {"leaf": "T"},
        "r": {"leaf": "hole"},
    }
    with pytest.raises(ParseError):
        tree_from_json({"leaf": "hole"}, allow_hole=False)


@pytest.mark.parametrize(
    "bad",
    [
        [],
        {},
        {"leaf": "^"},
        {"node": "a"},
        {"node": "a", "l": {"leaf": "T"}},
        {"node": 5, "l": {"leaf": "T"}, "r": {"leaf": "F"}},
        {"node": ["a"], "l": {"leaf": "T"}, "r": {"leaf": "F"}},
        {"node": "_x", "l": {"leaf": "T"}, "r": {"leaf": "F"}},
        {"node": "F", "l": {"leaf": "T"}, "r": {"leaf": "F"}},
        {"node": "a", "l": 3, "r": {"leaf": "F"}},
    ],
)
def test_tree_json_errors(bad):
    with pytest.raises(ParseError):
        tree_from_json(bad)


def reference_eval_tree(term, cap):
    """se(P) built literally by leaf replacement, as the paper defines it.

    This is the evaluator ``eval_tree`` replaced; it copies the left tree at
    every connective, so it is kept only as a test oracle.
    """
    ev = lambda t: reference_eval_tree(t, cap)
    match term:
        case Const(v):
            return T if v else F
        case Atom(name):
            if cap is not None and 3 > cap:
                raise TreeTooLarge(f"tree exceeds the node cap of {cap}")
            return Node(name, T, F)
        case Var(name):
            raise NonClosedTerm(name)
        case Not(p):
            return replace(ev(p), F, T, cap)
        case And(l, r):
            return replace(ev(l), for_true=ev(r), cap=cap)
        case Or(l, r):
            return replace(ev(l), for_false=ev(r), cap=cap)
        case Cond(a, g, b):
            return replace(ev(g), ev(a), ev(b), cap)
        case FullAnd(_, _) | FullOr(_, _):
            raise ModeViolation("full-sequential connective")


def _outcome(evaluate, term, cap):
    try:
        return evaluate(term, cap)
    except (NonClosedTerm, ModeViolation, TreeTooLarge) as exc:
        return type(exc)


@pytest.mark.parametrize("mode", ["scl", "enriched", "open", "cp"])
def test_eval_tree_matches_leaf_replacement(mode):
    rng = random.Random(f"eval-{mode}")
    for _ in range(250):
        term = random_term(rng, max_depth=5, mode=mode, variables=("x", "y"))
        for cap in (None, -1, 0, 1, 2, 3, 10, 100):
            expected = _outcome(reference_eval_tree, term, cap)
            assert _outcome(eval_tree, term, cap) == expected, (term, cap)


def test_eval_tree_cap_applies_to_every_subterm():
    big = parse("(a || b) && (a || b) && (a || b)")  # 29 nodes
    small = parse("a || b")  # 5 nodes; small && small has 13
    # the right operand is evaluated, and capped, even though F discards it
    with pytest.raises(TreeTooLarge):
        eval_tree(And(parse("F"), big), cap=10)
    # small && small is never a subterm's tree here, so nothing exceeds 10
    assert eval_tree(And(And(parse("F"), small), small), cap=10) is F


def _node_objects(x):
    seen = set()
    stack = [x]
    while stack:
        s = stack.pop()
        if isinstance(s, Node) and id(s) not in seen:
            seen.add(id(s))
            stack += [s.left, s.right]
    return len(seen)


def test_eval_tree_object_graph_is_linear():
    blowup = eval_tree(parse(" && ".join(["(a || b)"] * 13)))
    assert blowup.size == 32_765
    assert _node_objects(blowup) == 26
    chain = reduce(And, [Atom(f"a{i}") for i in range(900)])
    assert eval_tree(chain).size == 1_801


# ---- the tree text reader against the scanner it replaced

_REFERENCE_TOKEN = re.compile(r"\s*(?:([TF^(])|<([^>]*)>|(\)))")


def _skip_ws(text, pos):
    return len(text) - len(text[pos:].lstrip())


def reference_parse_tree(text):
    """The tree text reader that ``parse_tree`` replaced: one anchored
    regex match per token, kept only as a test oracle."""
    match, names, pos = _REFERENCE_TOKEN.match, set(), 0
    opened = []  # per open "(": None, then (atom, left) once the atom is read
    while True:
        m = match(text, pos)
        if m is None or m.group(1) is None:
            pos = _skip_ws(text, pos)
            if pos == len(text):
                raise ParseError("unexpected end of input", pos)
            raise ParseError(f"expected 'T', 'F', '^', or '(', found {text[pos]!r}", pos)
        pos = m.end()
        if m.group(1) == "(":
            opened.append(None)
            continue
        tree = {"T": T, "F": F, "^": H}[m.group(1)]
        while opened:
            m = match(text, pos)
            if opened[-1] is None:
                if m is None or m.group(2) is None:
                    pos = _skip_ws(text, pos)
                    if text.startswith("<", pos):
                        raise ParseError("unterminated '<atom>'", pos)
                    raise ParseError("expected '<atom>'", pos)
                atom = m.group(2)
                if atom not in names and not _is_name(atom):
                    raise ParseError(f"invalid atom name {atom!r}", m.start(2))
                names.add(atom)
                opened[-1], pos = (atom, tree), m.end()
                break
            if m is None or m.group(3) is None:
                raise ParseError("expected ')'", _skip_ws(text, pos))
            atom, left = opened.pop()
            tree, pos = Node(atom, left, tree), m.end()
        else:
            pos = _skip_ws(text, pos)
            if pos != len(text):
                raise ParseError(f"unexpected trailing {text[pos]!r}", pos)
            return tree


def _read(reader, text):
    try:
        return reader(text)
    except ParseError as exc:
        return str(exc), exc.position


_ODD_TEXTS = [
    "",
    "   ",
    "<",
    "<>",
    "<é>",
    "(T <a> F)  x",
    "(T <a> F))",
    "(T <a> F) (T <b> F)",
    "(T <a> F",
    "(T <a>",
    "((T <a> F) <b>",
    "(T <a F)",
    "(T <a F) >",
    "(T < a > F)",
    "(T <> F)",
    "(T <é> F)",
    "(T <T> F)",
    "\u00a0(T\u2003<a>\x1cF)\u00a0",
    "(T\u00a0<a>\u2003F\x1c",
    "(\x1c",
    "(T <a> é)",
    # edges of the subtree token: names outside the rule inside a subtree
    # of height 2 to 4, and names that only start like a reserved one
    "((T <a> F) <T> F)",
    "((T <F> F) <a> F)",
    "(((T <a> F) <é> F) <b> T)",
    "((((T <a> F) <b> F) <c> F) <> F)",
    "((((T <T> F) <b> F) <c> F) <d> F)",
    "(((T <a> F) <b> F) <c> (F <d> (T <e> (T <é> F))))",
    "((T <Ta> F) <F_1> (T <TF> (F <T1> T)))",
    # whitespace that is not the canonical single space
    "((T <a>  F) <b> F)",
    "((T <a>\tF) <b> F)",
    "((T <a>\u00a0F) <b> F)",
    "( (T <a> F) <b> F)",
    "((T <a> F ) <b> F)",
    "((T<a>F) <b> F)",
    # height exactly 4 and 5, balanced and as chains
    "((((T <a> F) <b> (F <c> T)) <d> ((T <e> F) <f> ^)) <g> T)",
    "((((T <a> F) <b> (F <c> T)) <d> ((T <e> F) <f> ^)) <g> (T <h> F))",
    "((((T <a> F) <b> F) <c> F) <d> F)",
    "(((((T <a> F) <b> F) <c> F) <d> F) <e> F)",
    "(T <e> (T <d> (T <c> (T <b> (T <a> F)))))",
    # holes
    "((^ <a> F) <b> (T <c> ^))",
    "(((^ <a> ^) <b> ^) <c> (^ <d> ^))",
    # what follows a subtree token
    "((T <a> F) <b> F)x",
    "((T <a> F) <b> F) )",
    "((T <a> F) <b> F)(T <a> F)",
    "((T <a> F) (T <b> F))",
    "((T <a> F) <b> F (T <c> F))",
    "(<a> (T <b> F))",
    "((((T <a> F) <b> F) <c> F) <d> F) <e>",
    "((((((T <a> F) <b> F) <c> F) <d> F) <e> F)",
]
_MUTATIONS = "TF^()<> \t\n\u00a0\u2003\x1caé_1"


def _mutated(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(chars) + 1)
        roll = rng.random()
        if roll < 0.4 and chars:
            del chars[min(pos, len(chars) - 1)]
        elif roll < 0.8:
            chars.insert(pos, rng.choice(_MUTATIONS))
        else:  # cut, so that some texts end inside a node
            chars[pos:] = chars[pos:][: rng.randint(0, 3)]
    return "".join(chars)


def test_parse_tree_matches_reference_scanner():
    rng = random.Random(2026)
    texts, errors = list(_ODD_TEXTS), 0
    for i in range(30_000):
        if i % 3:
            x = random_tree(rng, max_depth=rng.randint(0, 6), hole_prob=0.1)
        else:
            x = eval_tree(random_snf_term(rng, budget=8, max_depth=1))
        text = format_tree(x)
        texts.append(text if rng.random() < 0.25 else _mutated(rng, text))
    for text in texts:
        expected = _read(reference_parse_tree, text)
        assert _read(parse_tree, text) == expected, text
        errors += isinstance(expected, tuple)
    assert errors > 15_000  # most texts are malformed


def test_regex_whitespace_is_str_whitespace():
    # the reader skips whitespace with regex \s, the reference with str.strip
    assert all(
        bool(re.fullmatch(r"\s", c)) == c.isspace() for c in map(chr, range(0x110000))
    )


def test_parse_tree_builds_each_distinct_subtree_once(monkeypatch):
    text = format_tree(eval_tree(reduce(And, [Or(Atom("a"), Atom("b"))] * 10)))
    calls, make = [], Node.__new__

    def counting_new(cls, *args):
        calls.append(args)
        return make(cls, *args)

    monkeypatch.setattr(Node, "__new__", staticmethod(counting_new))
    x = parse_tree(text)
    assert len(calls) == _node_objects(x) == 20
    assert text.count("(") == 2_046  # logical nodes, against 20 distinct ones


def test_parse_tree_reads_a_repeated_small_subtree_once(monkeypatch):
    small = parse_tree("((((T <a> F) <b> (F <c> T)) <d> ((T <e> F) <f> ^)) <g> (T <h> F))")
    x = small
    for i in range(499):
        x = Node(f"k{i % 2}", small, x)
    text = format_tree(x)
    calls, make = [], Node.__new__

    def counting_new(cls, *args):
        calls.append(args)
        return make(cls, *args)

    monkeypatch.setattr(Node, "__new__", staticmethod(counting_new))
    assert parse_tree(text) is x
    assert text.count(format_tree(small)) == 500 and small.depth == 4
    assert len(calls) == _node_objects(x) == 8 + 499


# ---- printers and readers without recursion


def _chain(n, op=And):
    return reduce(lambda acc, a: op(a, acc), [Atom(f"a{i}") for i in reversed(range(n))])


def test_format_tree_is_iterative_and_shares_repeats():
    deep = eval_tree(_chain(3_000))
    assert deep.depth == 3_000
    text = format_tree(deep)
    assert text.startswith("((((") and text.endswith("<a0> F)")
    assert parse_tree(text) is deep
    shared = eval_tree(parse(" && ".join(["(a || b)"] * 14)))
    nodes, leaves = shared.size // 2, shared.size // 2 + 1
    assert len(format_tree(shared)) == 7 * nodes + leaves  # "(", " <a> ", ")" per node


# ---- the JSON encoder: one dict per distinct subtree, without recursion


def reference_tree_to_json(x):
    """The recursive encoder that ``tree_to_json`` replaced."""
    if x is Leaf.TRUE:
        return {"leaf": "T"}
    if x is Leaf.FALSE:
        return {"leaf": "F"}
    if x is Leaf.HOLE:
        return {"leaf": "hole"}
    return {"node": x.atom, "l": reference_tree_to_json(x.left), "r": reference_tree_to_json(x.right)}


def test_tree_to_json_matches_the_recursive_encoder():
    rng = random.Random(43)
    trees = [
        random_tree(rng, max_depth=rng.randint(0, 6), hole_prob=rng.choice([0, 0.2, 0.5]))
        for _ in range(300)
    ]
    trees += [eval_tree(random_scl_term(rng, max_depth=6)) for _ in range(100)]
    assert sum(x.has_hole for x in trees) > 50
    for x in trees:
        got, expected = tree_to_json(x), reference_tree_to_json(x)
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert json.dumps(got) == json.dumps(expected)  # and the same key order


def test_tree_to_json_takes_deep_trees_without_recursion():
    deep = 100_000
    assert tree_to_json(eval_tree(reduce(lambda acc, _: Not(acc), range(deep), Atom("a")))) == {
        "node": "a",
        "l": {"leaf": "T"},
        "r": {"leaf": "F"},
    }
    x = Node(f"a{deep - 1}", Leaf.TRUE, Leaf.FALSE)  # the tree of a0 && ... && a99999
    for i in reversed(range(deep - 1)):
        x = Node(f"a{i}", x, Leaf.FALSE)
    data = tree_to_json(x)
    for i in range(deep):
        assert data["node"] == f"a{i}" and data["r"] == {"leaf": "F"}
        data = data["l"]
    assert data == {"leaf": "T"}


def test_tree_to_json_makes_one_dict_per_distinct_subtree():
    x = eval_tree(reduce(And, [parse("a || b")] * 40), cap=None)
    assert x.size > 10**12
    started = time.perf_counter()
    data = tree_to_json(x)
    assert time.perf_counter() - started < 0.05
    branches = lambda s: (s.left, s.right) if isinstance(s, Node) else ()
    assert len(json_objects(data)) == len(list(postorder(x, branches)))
