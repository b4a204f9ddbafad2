import gc
import random
import time
from functools import reduce

import pytest

import sclkit.decompose
import sclkit.normalize
import sclkit.trees
from sclkit import (
    FALSE,
    TRUE,
    And,
    Atom,
    Decomposition,
    Leaf,
    Node,
    NotStarTerm,
    Or,
    cd,
    dd,
    enumerate_candidates,
    eval_tree,
    graft,
    is_nondecomposable,
    parse,
    parse_tree,
    replace,
    tsd,
    witness,
)
from sclkit.terms import postorder
from sclkit.generate import (
    random_cterm,
    random_dterm,
    random_scl_term,
    random_snf_term,
    random_star_term,
    random_tterm,
)
from generators import random_tree

L2 = "((a && T) || F) && ((b && T) || F)"


def preorder(x):
    """Every subtree of ``x`` in logical preorder, ``x`` first."""
    stack = [x]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Node):
            stack += (s.right, s.left)


def distinct_subtrees(x):
    """Each distinct subtree of ``x`` once, children first."""
    return postorder(x, lambda s: (s.left, s.right) if isinstance(s, Node) else ())


def test_candidate_enumeration_example():
    tree = eval_tree(parse(L2))
    expected = Decomposition(parse_tree("(^ <a> F)"), parse_tree("(T <b> F)"))
    assert expected in enumerate_candidates(tree, "ccd")


def test_no_disjunction_candidates_for_conjunctions():
    assert enumerate_candidates(eval_tree(parse("a && b")), "cdd") == []
    assert enumerate_candidates(Leaf.TRUE, "ccd") == []


def test_selectors_on_the_worked_example():
    tree = eval_tree(parse(L2))
    assert cd(tree) == Decomposition(parse_tree("(^ <a> F)"), parse_tree("(T <b> F)"))
    assert dd(tree) is None
    assert tsd(parse_tree("(T <a> F)")) == Decomposition(
        Leaf.HOLE, parse_tree("(T <a> F)")
    )


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        enumerate_candidates(Leaf.TRUE, "cd")


def test_is_nondecomposable():
    assert is_nondecomposable(eval_tree(parse("(a && T) || F")))
    assert is_nondecomposable(Leaf.TRUE)
    core = parse_tree("(T <b> F)")
    assert not is_nondecomposable(Node("a", core, core))
    # covering with two different subtree shapes also fails
    assert not is_nondecomposable(Node("a", core, Node("c", core, core)))


def test_witness_examples():
    assert witness(parse("(a && T) || F")) == parse_tree("(T <a> F)")
    assert witness(parse(L2)) == parse_tree("(T <b> F)")
    nested = "(((a && T) || F) || ((b && T) || F)) && ((c && T) || F)"
    assert witness(parse(nested)) == parse_tree("(T <c> F)")


def test_witness_rejects_non_star_terms():
    with pytest.raises(NotStarTerm):
        witness(parse("T"))
    with pytest.raises(NotStarTerm):
        witness(parse("a"))


def test_witness_reconstructs():
    rng = random.Random(21)
    for _ in range(100):
        star = random_star_term(rng, budget=rng.randint(1, 4))
        tree = eval_tree(star)
        w = witness(star)
        context = reference_replace_subtree(tree, w, Leaf.HOLE)
        assert context.has_hole
        assert graft(context, w) == tree


def alternating_star(n):
    """l0 && (l1 || (l2 && ...)): a right-nested *-term of ``n`` l-terms
    whose c- and d-terms alternate, and the tree of its last l-term."""
    units = [Or(And(Atom(f"a{i}"), TRUE), FALSE) for i in range(n)]
    star = units[-1]
    for i in range(n - 2, -1, -1):
        star = (Or if i % 2 else And)(units[i], star)
    return star, eval_tree(units[-1])


def test_witness_is_linear_on_a_right_nested_star_term(monkeypatch):
    # one load of the term, then a walk down its right operands by node: a
    # witness that classified each right operand anew would be quadratic
    loads = []

    def counting(self, t, load=sclkit.normalize._Helpers.load):
        loads.append(t)
        return load(self, t)

    monkeypatch.setattr(sclkit.normalize._Helpers, "load", counting)
    best = {}
    for n in (2_500, 5_000, 10_000):
        star, last = alternating_star(n)
        gc.collect()
        times = []
        for _ in range(5):
            loads.clear()
            start = time.perf_counter()
            assert witness(star) is last
            times.append(time.perf_counter() - start)
            assert loads == [star]
        best[n] = min(times)
    doublings = [best[5_000] / best[2_500], best[10_000] / best[5_000]]
    # 4 over the two doublings when linear, 16 when quadratic
    assert best[10_000] / best[2_500] < 10, doublings


def test_candidates_reconstruct_and_are_strict():
    rng = random.Random(22)
    for _ in range(150):
        tree = random_tree(rng, max_depth=4)
        for kind in ("ccd", "cdd", "ctsd"):
            for cand in enumerate_candidates(tree, kind):
                assert graft(cand.context, cand.core) == tree
                assert cand.context.has_hole
                if kind in ("ccd", "cdd"):
                    assert all(s != cand.core for s in distinct_subtrees(cand.context))


def test_candidate_order_is_by_core_depth():
    # strictly increasing: the minimum-depth core is unique, so no tie
    rng = random.Random(23)
    trees = [random_tree(rng, max_depth=4) for _ in range(100)] + seeded_trees(29)
    for tree in trees:
        for kind in ("ccd", "cdd", "ctsd"):
            depths = [c.core.depth for c in enumerate_candidates(tree, kind)]
            assert all(a < b for a, b in zip(depths, depths[1:]))


def test_conjunction_decomposition_theorem():
    rng = random.Random(24)
    for _ in range(120):
        p = random_star_term(rng, budget=rng.randint(1, 3))
        q = random_dterm(rng, budget=rng.randint(1, 2))
        tree = eval_tree(And(p, q))
        assert cd(tree) == Decomposition(
            replace(eval_tree(p), for_true=Leaf.HOLE), eval_tree(q)
        )
        assert enumerate_candidates(tree, "cdd") == []


def test_disjunction_decomposition_theorem():
    rng = random.Random(25)
    for _ in range(120):
        p = random_star_term(rng, budget=rng.randint(1, 3))
        q = random_cterm(rng, budget=rng.randint(1, 2))
        tree = eval_tree(Or(p, q))
        assert dd(tree) == Decomposition(
            replace(eval_tree(p), for_false=Leaf.HOLE), eval_tree(q)
        )
        assert enumerate_candidates(tree, "ccd") == []


def test_tstar_decomposition_theorem():
    rng = random.Random(26)
    for _ in range(120):
        p = random_tterm(rng)
        q = random_star_term(rng, budget=rng.randint(1, 3))
        tree = eval_tree(And(p, q))
        assert tsd(tree) == Decomposition(
            replace(eval_tree(p), for_true=Leaf.HOLE), eval_tree(q)
        )
        assert is_nondecomposable(eval_tree(q))


# The brute-force enumeration that the census replaced, kept as an oracle:
# every distinct two-leaf subtree is holed by rebuilding the whole tree.


def reference_replace_subtree(x, target, replacement):
    if x == target:
        return replacement
    if isinstance(x, Leaf):
        return x
    left = reference_replace_subtree(x.left, target, replacement)
    right = reference_replace_subtree(x.right, target, replacement)
    if left is x.left and right is x.right:
        return x
    return Node(x.atom, left, right)


def reference_distinct_cores(x):
    seen = {}
    for index, s in enumerate(preorder(x)):
        if s.has_true and s.has_false and s not in seen:
            seen[s] = index
    return sorted(seen, key=lambda s: (s.depth, seen[s]))


def reference_is_nondecomposable(z):
    seen = set()
    for part in preorder(z):
        if part == z or part in seen:
            continue
        seen.add(part)
        context = reference_replace_subtree(z, part, Leaf.HOLE)
        if not context.has_true and not context.has_false:
            return False
    return True


def reference_candidates(x, kind):
    out = []
    for core in reference_distinct_cores(x):
        context = reference_replace_subtree(x, core, Leaf.HOLE)
        if kind == "ccd":
            ok = context.has_false and not context.has_true
        elif kind == "cdd":
            ok = context.has_true and not context.has_false
        else:
            ok = (
                not context.has_true
                and not context.has_false
                and reference_is_nondecomposable(core)
            )
        if ok:
            out.append(Decomposition(context, core))
    return out


def seeded_trees(seed):
    """Random trees (some with holes), and trees of random terms and of
    random normal forms, which share subtrees."""
    rng = random.Random(seed)
    trees = [
        random_tree(rng, max_depth=rng.randint(1, 6), hole_prob=rng.choice([0, 0.2]))
        for _ in range(300)
    ]
    trees += [eval_tree(random_scl_term(rng, max_depth=6)) for _ in range(150)]
    trees += [
        eval_tree(random_snf_term(rng, budget=rng.randint(1, 5), max_depth=rng.randint(1, 2)))
        for _ in range(60)
    ]
    return trees


SELECTORS = {"ccd": cd, "cdd": dd, "ctsd": tsd}


def test_census_matches_brute_force_reference(corpus):
    corpus_trees = list(dict.fromkeys(eval_tree(t) for t in corpus))  # 1,066 distinct trees
    for x in seeded_trees(27) + corpus_trees:
        for kind, selector in SELECTORS.items():
            expected = reference_candidates(x, kind)
            assert enumerate_candidates(x, kind) == expected
            assert selector(x) == (expected[0] if expected else None)
        # one T-*-core wherever both leaf kinds occur (the root covers), else none
        assert len(enumerate_candidates(x, "ctsd")) == (x.has_true and x.has_false)
        for s in distinct_subtrees(x):
            assert is_nondecomposable(s) == reference_is_nondecomposable(s)


def physical_nodes(x):
    seen, stack = set(), [x]
    while stack:
        s = stack.pop()
        if isinstance(s, Node) and id(s) not in seen:
            seen.add(id(s))
            stack += [s.left, s.right]
    return len(seen)


def test_census_counts_physical_nodes(monkeypatch):
    # (a||b) && ... && (a||b), 20 times: 40 node objects, 4.2 M logical nodes
    term = reduce(And, [parse("a || b")] * 20)
    x = eval_tree(term, cap=None)
    assert x.size > 10**6 and physical_nodes(x) == 40

    def forbidden(*args, **kwargs):
        raise AssertionError("decompose walked the logical tree")

    monkeypatch.setattr(sclkit.decompose, "subtrees", forbidden, raising=False)
    monkeypatch.setattr(sclkit.trees, "subtrees", forbidden, raising=False)
    monkeypatch.setattr(sclkit.decompose, "replace_subtree", forbidden, raising=False)
    monkeypatch.setattr(Node, "__eq__", forbidden)
    candidates = enumerate_candidates(x, "ccd")
    first = cd(x)
    no_dd = dd(x)
    monkeypatch.undo()

    # the ccd cores are the trees of the 19 shorter chains, shallowest first
    tails = [eval_tree(reduce(And, [parse("a || b")] * n), cap=None) for n in range(1, 20)]
    assert [(c.core.size, hash(c.core)) for c in candidates] == [
        (t.size, hash(t)) for t in tails
    ]
    for c in candidates:
        assert physical_nodes(c.context) <= 40
        assert c.context.has_hole and c.context.has_false and not c.context.has_true
    assert first.core is candidates[0].core
    assert no_dd is None


def test_census_has_no_recursion_limit():
    # a right spine 5,000 nodes deep: (T <a> (T <a> ... (T <a> F)))
    x = Leaf.FALSE
    for _ in range(5000):
        x = Node("a", Leaf.TRUE, x)
    split = dd(x)
    assert split.core == Node("a", Leaf.TRUE, Leaf.FALSE)
    assert split.context.depth == 4999 and split.context.size == x.size - 2
    assert cd(x) is None
    assert is_nondecomposable(x)
    assert tsd(x).context is Leaf.HOLE
