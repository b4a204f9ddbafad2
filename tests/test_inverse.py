import random
from functools import reduce

import pytest

from sclkit import (
    Leaf,
    Node,
    NotInImage,
    decide_eq,
    eval_tree,
    invert,
    invert_fterm,
    invert_lterm,
    invert_star,
    invert_tterm,
    nf,
    parse,
    parse_tree,
    tsd,
)
from sclkit import trees
from sclkit.decompose import _Census, _select
from sclkit.generate import random_scl_term, random_snf_term
from sclkit.terms import FALSE, TRUE, And, Atom, Not, Or
from test_decompose import reference_replace_subtree
from generators import random_tree


def test_invert_leaves():
    assert invert(Leaf.TRUE) == parse("T")
    assert invert(Leaf.FALSE) == parse("F")


def test_invert_single_atom_tree():
    assert invert(parse_tree("(T <a> F)")) == parse("T && ((a && T) || F)")
    assert invert(parse_tree("(T <a> F)")) == nf(parse("a"))


def test_invert_matches_normalization():
    assert invert(eval_tree(parse("!b && a"))) == nf(parse("!b && a"))


def test_category_helpers():
    assert invert_tterm(parse_tree("(T <a> T)")) == parse("(a && T) || T")
    assert invert_fterm(parse_tree("(F <a> F)")) == parse("(a || F) && F")
    assert invert_lterm(parse_tree("(F <a> T)")) == parse("(!a && T) || F")
    assert invert_lterm(parse_tree("(T <a> F)")) == parse("(a && T) || F")


def test_not_in_image_errors():
    with pytest.raises(NotInImage) as exc:
        invert_tterm(Leaf.FALSE)
    assert exc.value.clause == "invert_tterm"
    with pytest.raises(NotInImage):
        invert_fterm(Leaf.TRUE)
    with pytest.raises(NotInImage):
        invert_lterm(Leaf.TRUE)
    with pytest.raises(NotInImage):
        invert(Node("a", Leaf.HOLE, Leaf.TRUE))
    # a mixed tree that is not any term's evaluation tree
    bad = Node("a", parse_tree("(T <b> F)"), parse_tree("(T <c> F)"))
    with pytest.raises(NotInImage):
        invert(bad)


def test_grammar_roundtrip():
    rng = random.Random(31)
    for _ in range(400):
        p = random_snf_term(rng, budget=4)
        assert invert(eval_tree(p)) == p


def test_roundtrip_through_normalization():
    rng = random.Random(32)
    for _ in range(300):
        p = random_scl_term(rng, max_depth=5)
        n = nf(p)
        assert invert(eval_tree(n)) == n
        assert eval_tree(invert(eval_tree(p))) == eval_tree(p)


def test_inversion_agrees_with_equality_engines():
    rng = random.Random(33)
    for _ in range(200):
        p = random_scl_term(rng, max_depth=5)
        q = random_scl_term(rng, max_depth=5)
        same = invert(eval_tree(p)) == invert(eval_tree(q))
        assert same == decide_eq(p, q, "tree")


def test_invert_star_on_lterm_trees():
    assert invert_star(parse_tree("(T <a> F)")) == parse("(a && T) || F")


# ---- the inversion that rebuilt a tree per split, kept as the oracle


def reference_tterm(x):
    if x is Leaf.TRUE:
        return TRUE
    if isinstance(x, Leaf):
        raise NotInImage(f"unexpected leaf {x}", x, "invert_tterm")
    return Or(And(Atom(x.atom), reference_tterm(x.left)), reference_tterm(x.right))


def reference_fterm(x):
    if x is Leaf.FALSE:
        return FALSE
    if isinstance(x, Leaf):
        raise NotInImage(f"unexpected leaf {x}", x, "invert_fterm")
    return And(Or(Atom(x.atom), reference_fterm(x.right)), reference_fterm(x.left))


def reference_lterm(x):
    if isinstance(x, Leaf):
        raise NotInImage(f"unexpected leaf {x}", x, "invert_lterm")
    if not x.left.has_false:
        return Or(And(Atom(x.atom), reference_tterm(x.left)), reference_fterm(x.right))
    if not x.right.has_false:
        return Or(And(Not(Atom(x.atom)), reference_tterm(x.right)), reference_fterm(x.left))
    raise NotInImage("neither branch has only T-leaves", x, "invert_lterm")


def reference_star(x):
    """Split off the cd core, else the dd core, each from a new census of a
    rebuilt context with its holes filled; quadratic in depth."""
    census = _Census(x)
    split = _select(census, "ccd")
    if split is not None:
        context = trees.replace(split.context, for_hole=Leaf.TRUE)
        return And(reference_star(context), reference_star(split.core))
    split = _select(census, "cdd")
    if split is not None:
        context = trees.replace(split.context, for_hole=Leaf.FALSE)
        return Or(reference_star(context), reference_star(split.core))
    return reference_lterm(x)


def reference_invert(x):
    if x.has_hole:
        raise NotInImage("tree contains hole leaves", x, "invert")
    if not x.has_false:
        return reference_tterm(x)
    if not x.has_true:
        return reference_fterm(x)
    split = tsd(x)
    if split is None:
        raise NotInImage("no T-*-decomposition", x, "invert")
    context = trees.replace(split.context, for_hole=Leaf.TRUE)
    return And(reference_tterm(context), reference_star(split.core))


_PAIRS = [
    (invert, reference_invert),
    (invert_star, reference_star),
    (invert_lterm, reference_lterm),
    (invert_tterm, reference_tterm),
    (invert_fterm, reference_fterm),
]


def _outcome(fn, x):
    try:
        return fn(x)
    except NotInImage as exc:
        return str(exc), exc.clause, exc.subtree


def _nodes(x):
    out, stack = [], [x]
    while stack:
        s = stack.pop()
        out.append(s)
        if isinstance(s, Node):
            stack += (s.left, s.right)
    return out


@pytest.mark.parametrize("budget, max_depth", [(4, 2), (8, 1), (16, 1)])
def test_invert_matches_reference_on_normal_forms(budget, max_depth):
    rng = random.Random(f"invert-{budget}")
    for _ in range(400 if budget < 16 else 120):
        p = random_snf_term(rng, budget=budget, max_depth=max_depth)
        x = eval_tree(p)
        assert invert(x) == reference_invert(x) == p


def test_invert_matches_reference_outside_the_image():
    rng = random.Random(34)
    clauses = set()
    for i in range(1_500):
        if i % 2:
            x = random_tree(rng, max_depth=5)
        else:  # a tree of a normal form with one subtree swapped out
            x = eval_tree(random_snf_term(rng, budget=rng.choice((4, 8)), max_depth=1))
            target = rng.choice(_nodes(x))
            x = reference_replace_subtree(x, target, random_tree(rng, max_depth=rng.randint(0, 3)))
        for new, reference in _PAIRS:
            expected = _outcome(reference, x)
            assert _outcome(new, x) == expected, (new.__name__, x)
            if isinstance(expected, tuple):
                clauses.add((new.__name__, expected[1]))
    assert {("invert", "invert_lterm"), ("invert_star", "invert_fterm")} <= clauses


def test_invert_reports_the_failing_clause():
    with pytest.raises(NotInImage, match="^invert_lterm: neither branch has only T-leaves$"):
        invert(parse_tree("((F <b> T) <a> (F <a> T))"))
    with pytest.raises(NotInImage, match="^invert_fterm: unexpected leaf T$"):
        invert_star(parse_tree("(T <a> T)"))


def test_invert_star_leaves_holes_as_holes():
    # A hole is not a leaf that a split maps: it is reported where met.
    x = parse_tree("(T <c> ((T <c> F) <c> (^ <b> (T <c> F))))")
    with pytest.raises(NotInImage) as exc:
        invert_star(x)
    assert (str(exc.value), exc.value.subtree) == ("invert_fterm: unexpected leaf ^", Leaf.HOLE)


# ---- complexity guards, free of timing


def _chain_tree(n, op=And):
    term = reduce(lambda acc, a: op(a, acc), [Atom(f"a{i}") for i in reversed(range(n))])
    return eval_tree(term), term


@pytest.mark.parametrize("op", [And, Or])
def test_invert_deep_chain_builds_no_tree(monkeypatch, op):
    x, term = _chain_tree(10_000, op)
    assert x.depth == 10_000

    def refuse(*args, **kwargs):
        raise AssertionError("inversion rebuilt a tree")

    monkeypatch.setattr(trees, "replace", refuse)
    monkeypatch.setattr(Node, "__new__", staticmethod(refuse))
    result = invert(x)
    monkeypatch.undo()
    assert eval_tree(result) is x


def test_invert_takes_one_census(monkeypatch):
    censuses, count = [], _Census.__init__

    def counting(self, x):
        censuses.append(x)
        count(self, x)

    monkeypatch.setattr(_Census, "__init__", counting)
    rng = random.Random(35)
    for _ in range(200):
        x = eval_tree(random_snf_term(rng, budget=16, max_depth=1))
        del censuses[:]
        invert(x)
        assert len(censuses) <= 1
    del censuses[:]
    invert(_chain_tree(2_000)[0])
    assert len(censuses) == 1
