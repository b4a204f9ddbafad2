"""The equality deciders against the comparisons they replace.

The ``tree`` decider computes the shape of each side's tree (size,
T-leaves and F-leaves) as it checks the cap, and calls a pair of
different shapes unequal.  The ``nf`` and ``cp`` deciders compute the
tree shapes under a tree cap that keeps every normal form, or every basic
form, within their own cap (by ``2 * |nf| <= 7 * |tree| - 5`` and
``2 * |basic form| = 3 * |tree| - 1``), and call a pair of different
shapes unequal too.  On pairs of one shape, and on sides the walk
refuses, the deciders build both sides into one table made for the call
and compare node ids.  The comparisons of interned objects
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
from sclkit.generate import random_scl_term
from sclkit.terms import postorder
from generators import random_term
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
        ("a <| b |> c", "b"),  # shapes differ; from cap 30 on, both pass nf's walk
        ("T", "!T"),  # shapes differ; at cap 0 nf refuses !T, whose tree the walk passes
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
    assert not any(nf(p) is nf(q) for p, q in pairs)

    def forbidden(*args):
        raise AssertionError("built a pair of different shapes")

    monkeypatch.setattr(trees, "_same_build", forbidden)
    monkeypatch.setattr(cp, "_same_build", forbidden)
    monkeypatch.setattr(cp, "scl_to_cp", forbidden)
    monkeypatch.setattr(normalize._Helpers, "fold", forbidden)
    for p, q in pairs:
        assert decide_eq(p, q, "tree") is False, (p, q)
        assert decide_eq(p, q, "nf") is False, (p, q)
        assert decide_eq_cp(p, q) is False, (p, q)


def test_pairs_of_one_shape_are_built(monkeypatch):
    """``a && b`` and ``b && a`` have one shape and two trees: the shape
    cannot decide them, and the build (or the fold) says INEQUAL."""
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
    monkeypatch.setattr(normalize._Helpers, "fold", recording(normalize._Helpers.fold))
    for p, q, equal in cases:
        del builds[:]
        assert decide_eq(p, q, "nf") is equal, (p, q)
        assert [args[1] for args in builds] == [p, q]


def test_decide_eq_cp_and_nf_compute_no_shape_under_no_cap(monkeypatch):
    def forbidden(*args):
        raise AssertionError("shape arithmetic under no cap")

    cases = [(p, q, decide_eq(p, q, "tree", None)) for p, q, _, _ in _shape_pairs(6, 60)]
    cases += [(p, Not(Not(p)), True) for p, _, _, _ in _shape_pairs(7, 20)]
    monkeypatch.setattr(cp, "_continued", forbidden)
    monkeypatch.setattr(trees, "_continued", forbidden)
    for p, q, equal in cases:
        assert decide_eq_cp(p, q, None) is equal, (p, q)
        assert decide_eq(p, q, "nf", None) is equal, (p, q)


def test_nf_decides_by_shape_up_to_the_normal_form_bound(corpus, monkeypatch):
    """A term ``t`` whose normal form meets the bound, with ``m`` nodes, and
    whose own tree is the largest of its subterms' trees: against a side of
    another shape it is unequal at cap ``m``, decided with no fold, and at
    cap ``m - 1`` its fold raises ``nf``'s error, whatever the walk met."""
    h, cases = normalize._Helpers(), []
    for t in corpus:
        m, shape = h.size[h.fold(t, None)], trees._shape(t, None)
        if t.node_count > 1 and 2 * m == 7 * shape[0] - 5:
            if all(trees._shape(s, None)[0] <= shape[0] for s in postorder(t)):
                cases.append((t, FALSE if shape == trees._shape(TRUE, None) else TRUE, m))
    assert len(cases) == 3658 and (Not(Atom("a")), TRUE, 8) in cases
    assert {m for _, _, m in cases} == {1, 8, 15, 22}
    decide_nf = lambda p, q, cap: decide_eq(p, q, "nf", cap)
    for t, other, m in cases:
        for p, q in ((t, other), (other, t)):
            message = f"normal form exceeds the node cap of {m - 1}"
            assert _outcome(decide_nf, p, q, m - 1) == (TreeTooLarge, message), (p, q)

    def forbidden(*args):
        raise AssertionError("folded a pair that the bound decides")

    monkeypatch.setattr(normalize._Helpers, "fold", forbidden)
    for t, other, m in cases:
        assert decide_eq(t, other, "nf", m) is False, t
        assert decide_eq(other, t, "nf", m) is False, t


def test_cp_decides_by_shape_up_to_the_basic_form_bound(corpus, monkeypatch):
    """A term ``t`` whose own tree, of ``s`` nodes, is the largest of its
    subterms' trees, and whose top guard's tree is not a leaf: its basic
    form has ``m = (3s - 1) / 2`` nodes.  Against ``T`` it is unequal at cap
    ``m``, decided with no translation, and at cap ``m - 1`` the check of
    its translation raises the basic-form error."""
    cases = []
    for t in corpus:
        if t.node_count > 1:
            size, guard = trees._shape(t, None)[0], t.arg if type(t) is Not else t.left
            if trees._shape(guard, None)[0] > 1 and all(trees._shape(s, None)[0] <= size for s in postorder(t)):
                cases.append((t, (3 * size - 1) // 2))
    assert len(cases) == 13132 and (Not(Atom("a")), 4) in cases
    assert {m for _, m in cases} == {4, 7, 10, 13, 16, 19, 22}
    for t, m in cases:
        for p, q in ((t, TRUE), (TRUE, t)):
            message = f"basic form exceeds the node cap of {m - 1}"
            assert _outcome(decide_eq_cp, p, q, m - 1) == (TreeTooLarge, message), (p, q)

    def forbidden(*args):
        raise AssertionError("translated a pair that the bound decides")

    monkeypatch.setattr(cp, "scl_to_cp", forbidden)
    for t, m in cases:
        assert decide_eq_cp(t, TRUE, m) is False, t
        assert decide_eq_cp(TRUE, t, m) is False, t


def test_cp_decides_every_small_pair_as_its_oracle(corpus):
    """Every closed term of at most 5 nodes against sides of other shapes
    and kinds, a conditional among them, both ways round, at caps on both
    sides of the tree caps ``(2 * cap + 1) // 3``."""
    _, decide, oracle = ENGINES[2]
    others = [parse(s, "enriched") for s in ("T", "a", "!a", "a && b", "a <| b |> F")]
    for t in (t for t in corpus if t.node_count <= 5):
        for other in others:
            for p, q in ((t, other), (other, t)):
                for cap in (None, 0, 3, 4, 7, 10):
                    assert _outcome(decide, p, q, cap) == _outcome(oracle, p, q, cap), (p, q, cap)


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


def test_nf_passes_on_any_other_error_from_the_shape_walk(monkeypatch):
    """The ``nf`` and ``cp`` engines go on to their own checks when their
    shape walk (``trees._shapes_differ``) raises an ``SclError`` or a
    ``TypeError`` (a side that is no term), so that those checks raise the
    engine's own error; any other error is a defect, and comes out as it
    is."""
    p, q = parse("a"), parse("a && b")
    engines = (lambda p, q, cap: decide_eq(p, q, "nf", cap), decide_eq_cp)

    def raising(error):
        def walk(*args):
            raise error

        return walk

    for error in (TreeTooLarge("tree exceeds the node cap of 1"), TypeError("not a term")):
        monkeypatch.setattr(trees, "_shape", raising(error))
        for decide in engines:
            assert decide(p, q, 30) is False
    monkeypatch.setattr(trees, "_shape", raising(RuntimeError("defect in the shape walk")))
    for decide in engines:
        with pytest.raises(RuntimeError, match="defect in the shape walk"):
            decide(p, q, 30)


def test_a_cap_violation_ends_the_check_on_doubly_exponential_shared_terms(monkeypatch):
    """``x && x`` nested 40 times over ``a || b`` is 41 distinct objects,
    and the leaf counts of its tree square at each level, to about
    ``2 ** (2 ** 40)``: each walk stops at its first node over its cap and
    computes no shape past it.  The ``tree`` engine's walk stops at the
    sixth node, over the default cap.  The ``nf`` and ``cp`` engines' tree
    walks stop at the sixth node too, over their tree caps; the ``nf``
    fold then raises ``nf``'s error, and ``cp``'s check of the translated
    side stops at the sixth conditional, over the default cap."""
    x = Or(Atom("a"), Atom("b"))
    for _ in range(40):
        x = And(x, x)
    calls = {trees: [], cp: []}

    def counted(module):
        continued = module._continued

        def wrapped(*args):
            calls[module].append(args)
            assert len(calls[module]) <= 6, "shape arithmetic past the cap violation"
            return continued(*args)

        return wrapped

    monkeypatch.setattr(cp, "_continued", counted(cp))
    monkeypatch.setattr(trees, "_continued", counted(trees))
    engines = [
        (lambda p, q: decide_eq(p, q, "tree"), "tree exceeds", 0),
        (lambda p, q: decide_eq(p, q, "nf"), "normal form exceeds", 0),
        (decide_eq_cp, "basic form exceeds", 6),
    ]
    for decide, message, checked in engines:
        calls[trees].clear()
        calls[cp].clear()
        with pytest.raises(TreeTooLarge, match=message):
            decide(x, Atom("a"))
        assert (len(calls[trees]), len(calls[cp])) == (6, checked)
