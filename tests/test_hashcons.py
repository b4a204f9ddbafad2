"""The unique tables behind ``Node`` and the term classes: equal trees, and
equal terms, are one object."""

import copy
import gc
import itertools
import pickle
import random
import sys
import threading
import time
from pathlib import Path

import pytest

import sclkit.terms
import sclkit.trees
from sclkit import (
    FALSE,
    TRUE,
    And,
    Atom,
    Cond,
    Const,
    FullAnd,
    FullOr,
    Leaf,
    MODES,
    Node,
    Not,
    Or,
    Var,
    basic_form,
    eval_tree,
    format_term,
    format_tree,
    nf,
    parse,
    parse_tree,
    scl_to_cp,
    term_from_json,
    term_to_json,
    tree_from_json,
    tree_to_json,
)
from sclkit.generate import random_scl_term
from generators import random_term, random_tree

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


# ---- terms


def reference_term_eq(x, y):
    """Structural equality, compared field by field as the frozen-dataclass
    ``__eq__`` of terms did before terms were interned; a test oracle."""
    stack = [(x, y)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        for name in a.__match_args__:
            u, v = getattr(a, name), getattr(b, name)
            if isinstance(u, (Const, Atom, Var, Not, And, Or, FullAnd, FullOr, Cond)):
                stack.append((u, v))
            elif u != v:
                return False
    return True


def seeded_terms(seed):
    """Terms of every mode from the generator, the parser and the JSON
    reader, small enough that many of them coincide."""
    rng = random.Random(seed)
    terms = []
    for mode in MODES:
        drawn = [random_term(rng, "ab", 2, mode, ("x",)) for _ in range(40)]
        terms += drawn
        terms += [parse(format_term(t), mode) for t in drawn]
        terms += [term_from_json(term_to_json(t), mode) for t in drawn]
    return terms


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_term_identity_is_structural_equality(seed):
    terms = seeded_terms(seed)
    equal_pairs = 0
    for x, y in itertools.combinations(terms, 2):
        same = reference_term_eq(x, y)
        assert (x is y) == same
        assert (x == y) == same
        if same:
            assert hash(x) == hash(y)
        equal_pairs += same
    assert equal_pairs > 500  # the draws do coincide


def test_terms_cache_their_node_count():
    t = parse("!(a && T) <| b |> (a || $x)", "open")
    assert t.node_count == 1 + 4 + 1 + 3
    assert [s.node_count for s in (TRUE, Atom("a"), Var("x"))] == [1, 1, 1]
    chain = TRUE
    for _ in range(40):
        chain = And(chain, chain)
    assert chain.node_count == 2**41 - 1


def test_threads_build_one_term_per_structure():
    # atoms no other test uses, so every thread races to insert them
    rng = random.Random(6)
    atoms = [f"tt{i}" for i in range(6)]
    texts = [str(random_scl_term(rng, atoms=atoms, max_depth=8, max_size=200)) for _ in range(100)]
    results = [None] * 8
    start = threading.Barrier(len(results), timeout=60)

    def work(i):
        terms = []
        for text in texts:  # all threads start each term together
            start.wait()
            t = parse(text)
            terms += [t, nf(t), basic_form(scl_to_cp(t))]
        results[i] = terms

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


def test_copies_and_pickles_are_the_interned_term():
    for t in (parse("!(a && T) <| b |> (a |.| $x)", "open"), TRUE, Atom("a")):
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t
        assert pickle.loads(pickle.dumps([t, t])) == [t, t]


def test_terms_are_immutable():
    terms = [TRUE, Atom("a"), Var("x"), Not(TRUE), And(TRUE, FALSE), Or(TRUE, FALSE)]
    terms += [FullAnd(TRUE, FALSE), FullOr(TRUE, FALSE), Cond(TRUE, Atom("a"), FALSE)]
    for t in terms:
        for name in (*t.__match_args__, "node_count", "_snf_cat", "other"):
            with pytest.raises(AttributeError):
                setattr(t, name, None)
            with pytest.raises(AttributeError):
                delattr(t, name)
    assert TRUE.value is True and Atom("a").name == "a"


def test_no_source_file_writes_into_a_built_term():
    # a term's fields are set on its fields class while it is built; no
    # category or other cache is written into an interned object afterwards
    files = sorted(Path(sclkit.terms.__file__).parent.rglob("*.py"))
    assert len(files) > 10
    for path in files:
        text = path.read_text()
        for word in ("object.__setattr__", "_snf_cat"):
            assert word not in text, (path.name, word)


def _term_entries(atoms):
    table = sclkit.terms._table
    return [key for key in list(table) if key[0] is Atom and key[1] in atoms]


def test_term_table_empties_once_terms_are_dropped():
    atoms = [f"went{i}" for i in range(4)]
    rng = random.Random(10)
    terms = [random_scl_term(rng, atoms=atoms, max_depth=6) for _ in range(50)]
    terms += [nf(t) for t in terms] + [basic_form(scl_to_cp(t)) for t in terms]
    assert len(_term_entries(atoms)) == 4
    # a composite's key holds its children, so no term over these atoms is left
    # once the atoms' own entries are gone
    del terms
    gc.collect()
    assert _term_entries(atoms) == []
    a = Atom("went0")
    assert Atom("went0") is a and And(a, a) is And(a, a) and len(_term_entries(atoms)) == 1


# ---- reprs


def test_repr_is_the_dataclass_repr():
    t = parse("!a <| (T && $x) |> b", "open")
    assert repr(t) == (
        "Cond(then=Not(arg=Atom(name='a')), guard=And(left=Const(value=True), "
        "right=Var(name='x')), orelse=Atom(name='b'))"
    )
    assert repr(Node("a", Leaf.TRUE, Node("b", Leaf.HOLE, Leaf.FALSE))) == (
        "Node(atom='a', left=<Leaf.TRUE: 'T'>, right=Node(atom='b', "
        "left=<Leaf.HOLE: '^'>, right=<Leaf.FALSE: 'F'>))"
    )


def test_reprs_are_bounded_by_a_character_budget():
    # 2**42 logical tree nodes in 80 objects: a repr that expanded the
    # logical structure would not return
    t = parse(" && ".join(["(a || b)"] * 40))
    for x in (eval_tree(t, cap=None), nf(t, cap=None), basic_form(scl_to_cp(t), cap=None)):
        start = time.perf_counter()
        text = repr(x)
        assert time.perf_counter() - start < 0.010
        assert len(text) == sclkit.terms.REPR_BUDGET + 1 and text.endswith("…")
        assert text.startswith(type(x).__name__ + "(")
