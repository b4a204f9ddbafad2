"""The equality deciders against the comparisons they replace.

Each decider builds both sides into one table made for the call and
compares node ids.  The comparisons of interned objects that they replace
are kept here as oracles: equal trees, equal normal forms and equal basic
forms are one object.  A decider must give the oracle's verdict, or raise
the oracle's error with its message, at every cap.
"""

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sclkit import (
    FALSE,
    TRUE,
    And,
    Atom,
    Cond,
    FullAnd,
    FullOr,
    Not,
    Or,
    SclError,
    Var,
    basic_form,
    decide_eq,
    decide_eq_cp,
    eval_tree,
    nf,
    parse,
    scl_to_cp,
)
from sclkit import cp, normalize, trees
from sclkit.generate import random_scl_term, random_term
from test_acceptance import SEED, _handcrafted_pairs

CAPS = (None, 0, 1, 5, 30)

# (engine name, decider, the oracle it replaces)
ENGINES = [
    (
        "tree",
        lambda p, q, cap: decide_eq(p, q, "tree", cap),
        lambda p, q, cap: eval_tree(p, cap) is eval_tree(q, cap),
    ),
    (
        "nf",
        lambda p, q, cap: decide_eq(p, q, "nf", cap),
        lambda p, q, cap: nf(p, cap) is nf(q, cap),
    ),
    (
        "cp",
        decide_eq_cp,
        lambda p, q, cap: basic_form(scl_to_cp(p), cap) is basic_form(scl_to_cp(q), cap),
    ),
]


def _outcome(decide, p, q, cap):
    try:
        return decide(p, q, cap)
    except SclError as exc:
        return type(exc), str(exc)


def assert_as_oracles(p, q):
    for cap in CAPS:
        for name, decide, oracle in ENGINES:
            got, want = _outcome(decide, p, q, cap), _outcome(oracle, p, q, cap)
            assert got == want, f"{name} at cap {cap}: {p} vs {q}"


def _related_pairs(p, q):
    """``p`` against ``q``, itself, ``!!p`` and ``p && p``, both ways round."""
    for a, b in ((p, q), (p, p), (p, Not(Not(p))), (p, And(p, p))):
        yield a, b
        yield b, a


@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_pairs_decide_as_the_oracles(seed):
    rng = random.Random(seed)
    for _ in range(60):
        p, q = random_scl_term(rng, max_depth=6), random_scl_term(rng, max_depth=6)
        for a, b in _related_pairs(p, q):
            assert_as_oracles(a, b)


def test_pairs_sharing_only_atoms_decide_as_the_oracles():
    rng = random.Random(2)
    for _ in range(60):
        p = random_scl_term(rng, atoms=("a", "b"), max_depth=5)
        q = random_scl_term(rng, atoms=("a", "b"), max_depth=5)
        assert_as_oracles(p, q)


def test_enriched_and_open_pairs_decide_as_the_oracles():
    """Conditionals (which the nf engine rejects), unexpanded full
    connectives and variables, on either side."""
    rng = random.Random(3)
    for _ in range(60):
        p = random_term(rng, max_depth=4, mode="open", variables=("x",))
        q = random_term(rng, max_depth=4, mode="open", variables=("x",))
        r = random_scl_term(rng, max_depth=5)
        for a, b in ((p, q), (p, p), (r, p), (p, r)):
            assert_as_oracles(a, b)


@pytest.mark.parametrize(
    "lhs, rhs",
    [
        ("a", "a"),
        ("a <| b |> c", "a <| b |> c"),  # Cond: the nf engine rejects it
        ("a && b", "a <| b |> F"),
        ("a", "(a && b) || (c && (a || b))"),  # the left side within the cap, the right over it
        ("(a && b) || (c && (a || b))", "a"),
        ("!a", "!a && T"),
    ],
)
def test_handpicked_pairs_decide_as_the_oracles(lhs, rhs):
    assert_as_oracles(parse(lhs, "enriched"), parse(rhs, "enriched"))


def test_open_and_full_sides_decide_as_the_oracles():
    a, b, x = Atom("a"), Atom("b"), Var("x")
    for p, q in (
        (a, x),
        (x, a),
        (And(a, x), And(a, b)),
        (FullAnd(a, b), And(a, b)),
        (And(a, b), FullOr(a, b)),
        (FullAnd(a, b), x),
    ):
        assert_as_oracles(p, q)


_atoms = st.sampled_from([Atom("a"), Atom("b"), Atom("c"), TRUE, FALSE])
_terms = st.recursive(
    _atoms,
    lambda c: st.one_of(
        c.map(Not),
        st.tuples(c, c).map(lambda t: And(*t)),
        st.tuples(c, c).map(lambda t: Or(*t)),
    ),
    max_leaves=12,
)
_enriched = st.recursive(
    st.one_of(_atoms, st.just(Var("x"))),
    lambda c: st.one_of(
        c.map(Not),
        st.tuples(c, c).map(lambda t: And(*t)),
        st.tuples(c, c).map(lambda t: Or(*t)),
        st.tuples(c, c).map(lambda t: FullAnd(*t)),
        st.tuples(c, c, c).map(lambda t: Cond(*t)),
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(_terms, _terms)
def test_generated_pairs_decide_as_the_oracles(p, q):
    for a, b in _related_pairs(p, q):
        assert_as_oracles(a, b)


@settings(max_examples=100, deadline=None)
@given(_enriched, _enriched)
def test_generated_enriched_pairs_decide_as_the_oracles(p, q):
    assert_as_oracles(p, q)


def test_deciders_intern_no_tree_normal_form_or_basic_form(monkeypatch):
    """Criterion 3's terms against their normal forms, and criterion 5's
    hand-picked pairs, decided with no tree node made, no normal form
    exported and no basic form built."""
    rng = random.Random(SEED)
    terms = [random_scl_term(rng, atoms=("a", "b", "c"), max_depth=7) for _ in range(200)]
    cases = [(t, nf(t), True) for t in terms] + _handcrafted_pairs()

    def forbidden(*args):
        raise AssertionError("called while deciding equality")

    monkeypatch.setattr(trees.Node, "__new__", forbidden)
    monkeypatch.setattr(normalize._Helpers, "export", forbidden)
    monkeypatch.setattr(cp, "basic_form", forbidden)
    for p, q, expected in cases:
        assert decide_eq(p, q, "tree") is expected, (p, q)
        assert decide_eq(p, q, "nf") is expected, (p, q)
        assert decide_eq_cp(p, q) is expected, (p, q)
