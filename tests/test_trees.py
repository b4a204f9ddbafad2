import random
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
    depth,
    eval_tree,
    format_tree,
    graft,
    leaf_profile,
    nf,
    parse,
    parse_tree,
    replace,
    substitute,
    tree_from_json,
    tree_to_json,
)
from sclkit.generate import random_scl_term, random_term, random_tree

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
    assert depth(T) == 0
    assert depth(parse_tree("(F <b> (T <a> F))")) == 2
    assert leaf_profile(eval_tree(parse("a || T"))) == (True, False)
    assert leaf_profile(eval_tree(parse("a && F"))) == (False, True)
    assert leaf_profile(eval_tree(parse("a"))) == (True, True)


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
