"""The equality deciders against the comparisons they replace.

The ``tree`` and ``cp`` deciders compute the shape of each side (size,
T-leaves and F-leaves of its tree or basic form) as they check the cap,
and call a pair of different shapes unequal; the ``nf`` decider, and the
other two on pairs of one shape, build both sides into one table made
for the call and compare node ids.  The comparisons of interned objects
that they replace are kept here as oracles: equal trees, equal normal
forms and equal basic forms are one object.  A decider must give the
oracle's verdict, or raise the oracle's error with its message, at every
cap.
"""

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sclkit import (
    DEFAULT_NODE_CAP,
    FALSE,
    TRUE,
    And,
    Atom,
    Cond,
    FullAnd,
    FullOr,
    NonClosedTerm,
    Not,
    Or,
    SclError,
    TreeTooLarge,
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


def _shape_pairs(seed, count=150):
    """Seeded pairs of closed terms with their tree shapes, all within the
    default cap."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        p, q = random_scl_term(rng, max_depth=6), random_scl_term(rng, max_depth=6)
        try:
            pairs.append((p, q, trees._shape(p, DEFAULT_NODE_CAP), trees._shape(q, DEFAULT_NODE_CAP)))
        except TreeTooLarge:
            pass
    return pairs


def test_pairs_of_different_shapes_are_unequal_without_a_build(monkeypatch):
    pairs = [(p, q) for p, q, sp, sq in _shape_pairs(4) if sp != sq]
    assert len(pairs) > 100
    assert not any(decide_eq(p, q, "nf") for p, q in pairs)

    def forbidden(*args):
        raise AssertionError("built a pair of different shapes")

    monkeypatch.setattr(trees, "_same_build", forbidden)
    monkeypatch.setattr(cp, "_same_build", forbidden)
    monkeypatch.setattr(cp, "scl_to_cp", forbidden)
    for p, q in pairs:
        assert decide_eq(p, q, "tree") is False, (p, q)
        assert decide_eq_cp(p, q) is False, (p, q)


def test_pairs_of_one_shape_are_built(monkeypatch):
    """``a && b`` and ``b && a`` have one shape and two trees: the shape
    cannot decide them, and the build says INEQUAL."""
    a, b = Atom("a"), Atom("b")
    cases = [(And(a, b), And(b, a), False), (Or(a, b), Or(b, a), False)]
    for p, q, sp, sq in _shape_pairs(5, 60):
        cases.append((p, Not(Not(p)), True))
        if sp == sq:
            cases.append((p, q, decide_eq(p, q, "nf")))
    assert sum(not equal for _, _, equal in cases) >= 4
    builds = []

    def recording(build):
        def wrapped(*args):
            builds.append(args[:2])
            return build(*args)

        return wrapped

    monkeypatch.setattr(trees, "_same_build", recording(trees._same_build))
    monkeypatch.setattr(cp, "_same_build", recording(cp._same_build))
    for p, q, equal in cases:
        del builds[:]
        assert decide_eq(p, q, "tree") is equal, (p, q)
        assert decide_eq_cp(p, q) is equal, (p, q)
        assert builds == [(p, q), (scl_to_cp(p), scl_to_cp(q))]


def test_decide_eq_cp_computes_no_shape_under_no_cap(monkeypatch):
    def forbidden(*args):
        raise AssertionError("shape arithmetic under no cap")

    cases = [(p, q, decide_eq(p, q, "tree", None)) for p, q, _, _ in _shape_pairs(6, 60)]
    cases += [(p, Not(Not(p)), True) for p, _, _, _ in _shape_pairs(7, 20)]
    monkeypatch.setattr(cp, "_continued", forbidden)
    for p, q, equal in cases:
        assert decide_eq_cp(p, q, None) is equal, (p, q)


@pytest.mark.parametrize(
    "lhs, rhs, error",
    [
        # a bottom-up walk meets the cap violation before $x (cp translates
        # && right side first): the translation error still comes first
        ("$x && ((a || b) && (a || b))", "a", NonClosedTerm),
        # the shapes differ, but q is over the cap
        ("a", "(a || b) && (a || b) && (a || b)", TreeTooLarge),
    ],
)
def test_errors_come_before_the_shapes_are_compared(lhs, rhs, error):
    p, q = parse(lhs, "open"), parse(rhs, "open")
    with pytest.raises(error):
        decide_eq(p, q, "tree", 5)
    with pytest.raises(error):
        decide_eq_cp(p, q, 5)
    assert_as_oracles(p, q)


def test_a_cap_violation_ends_the_check_on_doubly_exponential_shared_terms(monkeypatch):
    """``x && x`` nested 40 times over ``a || b`` is 41 distinct objects,
    and the leaf counts of its tree square at each level, to about
    ``2 ** (2 ** 40)``: the deciders stop at the first node over the
    default cap, the sixth, and compute no shape past it."""
    x = Or(Atom("a"), Atom("b"))
    for _ in range(40):
        x = And(x, x)
    calls = []

    def counted(continued):
        def wrapped(*args):
            calls.append(args)
            assert len(calls) <= 6, "shape arithmetic past the cap violation"
            return continued(*args)

        return wrapped

    monkeypatch.setattr(cp, "_continued", counted(cp._continued))
    monkeypatch.setattr(trees, "_continued", counted(trees._continued))
    for decide in (lambda p, q: decide_eq(p, q, "tree"), decide_eq_cp):
        del calls[:]
        with pytest.raises(TreeTooLarge):
            decide(x, Atom("a"))
        assert len(calls) == 6
