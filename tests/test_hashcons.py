"""The unique table behind ``Node``: equal trees are one object."""

import copy
import gc
import itertools
import pickle
import random
import sys
import threading

import pytest

import sclkit.trees
from sclkit import Leaf, Node, eval_tree, format_tree, parse, parse_tree, tree_from_json, tree_to_json
from sclkit.generate import random_scl_term, random_tree

T, F, H = Leaf.TRUE, Leaf.FALSE, Leaf.HOLE


def reference_tree_eq(x, y):
    """Structural equality, compared field by field as ``Node.__eq__`` did
    before nodes were interned; kept only as a test oracle."""
    stack = [(x, y)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Leaf) or isinstance(b, Leaf):
            if a is not b:
                return False
        elif a.atom != b.atom:
            return False
        else:
            stack += [(a.left, b.left), (a.right, b.right)]
    return True


def seeded_draws(seed):
    """Trees from every builder, small enough that many of them coincide."""
    rng = random.Random(seed)
    trees = [random_tree(rng, atoms="ab", max_depth=3, hole_prob=0.1) for _ in range(120)]
    terms = [random_scl_term(rng, atoms="ab", max_depth=3) for _ in range(120)]
    trees += [eval_tree(t) for t in terms]
    trees += [parse_tree(format_tree(x)) for x in trees[:120]]
    trees += [tree_from_json(tree_to_json(x)) for x in trees[120:]]
    return trees


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_identity_is_structural_equality(seed):
    trees = seeded_draws(seed)
    equal_pairs = 0
    for x, y in itertools.combinations(trees, 2):
        same = reference_tree_eq(x, y)
        assert (x is y) == same
        assert (x == y) == same
        equal_pairs += same
    assert equal_pairs > 1_000  # the draws do coincide


def test_builders_share_subtrees():
    x = eval_tree(parse("(a || b) && (a || b)"))
    assert x.left is x.right.left
    assert parse_tree(format_tree(x)) is x
    assert tree_from_json(tree_to_json(x)) is x


def test_threads_build_one_node_per_structure():
    # atoms no other test uses, so every thread races to insert them
    rng = random.Random(5)
    atoms = [f"th{i}" for i in range(6)]
    terms = [random_scl_term(rng, atoms=atoms, max_depth=8, max_size=200) for _ in range(100)]
    texts = [str(t) for t in terms]
    results = [None] * 8
    start = threading.Barrier(len(results), timeout=60)

    def work(i):
        trees = []
        for text in texts:  # all threads start each term together
            start.wait()
            trees.append(eval_tree(parse(text)))
        results[i] = trees + [parse_tree(format_tree(x)) for x in trees]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and None not in results
    for column in zip(*results):
        assert all(x is column[0] for x in column)
    for x in results[0][: len(texts)]:
        assert parse_tree(format_tree(x)) is x


def test_copies_and_pickles_are_the_interned_node():
    x = eval_tree(parse("(a || b) && !c"))
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(x)) is x
    assert pickle.loads(pickle.dumps([x, x.left])) == [x, x.left]


def test_nodes_are_immutable():
    x = Node("a", T, F)
    for name in ("atom", "left", "size", "t_leaves", "has_true", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x.atom == "a" and x.left is T and x.size == 3


def test_leaf_counts_are_cached():
    x = parse_tree("((T <b> ^) <a> (F <c> (T <b> F)))")
    assert (x.t_leaves, x.f_leaves, x.has_hole) == (2, 2, True)
    assert (T.t_leaves, T.f_leaves, F.t_leaves, F.f_leaves) == (1, 0, 0, 1)
    assert (H.t_leaves, H.f_leaves) == (0, 0)
    chain = eval_tree(parse(" && ".join(["(a || b)"] * 40)), cap=None)
    assert chain.t_leaves == 2**40 and chain.f_leaves == 2**40 - 1


def _entries(atoms):
    return [key for key in list(sclkit.trees._table) if key[0] in atoms]


def test_table_empties_once_trees_are_dropped():
    atoms = [f"gone{i}" for i in range(4)]
    rng = random.Random(9)
    trees = [eval_tree(random_scl_term(rng, atoms=atoms, max_depth=6)) for _ in range(50)]
    trees += [random_tree(rng, atoms=atoms, max_depth=5, hole_prob=0.2) for _ in range(50)]
    assert len(_entries(atoms)) > 50
    del trees
    gc.collect()
    assert _entries(atoms) == []
    # a structure built again after its node died is interned afresh
    x = Node("gone0", T, F)
    assert Node("gone0", T, F) is x and len(_entries(atoms)) == 1
