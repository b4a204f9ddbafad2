import itertools
import time
import tracemalloc
from functools import reduce
from random import Random

import pytest

from sclkit import (
    FALSE,
    TRUE,
    And,
    Atom,
    Cond,
    Const,
    Equation,
    FiniteModel,
    FreeModelCheck,
    FullAnd,
    FullOr,
    ModeViolation,
    Not,
    Or,
    ParseError,
    SclError,
    TreeTooLarge,
    UnboundVariable,
    UninterpretedAtom,
    ValidationResult,
    Var,
    eval_in_model,
    eval_tree,
    expand_full,
    format_tree,
    independence_rows,
    independence_suite,
    model_from_json,
    model_to_json,
    parse,
    substitute,
    valid_in_free_model,
    validates,
)
from sclkit import generate, models, terms, trees
from sclkit.axioms import cp_axioms, derived_laws, dual_equation, eqfscl_axioms, eqfscl_minus
from sclkit.generate import random_scl_term, random_substitution
from sclkit.terms import postorder
from sclkit.trees import DEFAULT_NODE_CAP
from generators import random_term

_AX = {e.tag: e for e in eqfscl_axioms()}


def _entry(tag):
    return next(e for e in independence_suite() if e.tag == tag)


def test_distributivity_model_exact_values():
    m = _entry("F10").model
    assert eval_in_model(m, parse("(a && a) || (b && F)")) == 3
    assert eval_in_model(m, parse("(a || (b && F)) && (a || (b && F))")) == 1


def test_constants_and_atoms():
    m = _entry("F6").model
    assert eval_in_model(m, parse("T")) == 1
    assert eval_in_model(m, parse("F")) == 0
    assert eval_in_model(m, parse("a")) == 2
    with pytest.raises(UninterpretedAtom):
        eval_in_model(m, parse("zz"))
    # the last model defaults every other atom
    assert eval_in_model(_entry("F10").model, parse("zz")) == 3


def test_eval_errors():
    m = _entry("F2").model
    with pytest.raises(UnboundVariable):
        eval_in_model(m, parse("$x", "open"))
    with pytest.raises(ModeViolation):
        eval_in_model(m, parse("a <| b |> a"))


def test_validates():
    m10 = _entry("F10").model
    ok = validates(m10, _AX["F7"])
    assert ok.valid and ok.assignments_checked == 4**3
    bad = validates(m10, _AX["F10"])
    assert not bad.valid and bad.counterexample is not None
    # the model refutes the axiom itself, not only the closed instance
    env = bad.counterexample
    assert eval_in_model(m10, _AX["F10"].lhs, env) != eval_in_model(
        m10, _AX["F10"].rhs, env
    )


def test_f4_model_refutes_at_x_false():
    m = _entry("F4").model
    result = validates(m, _AX["F4"])
    assert not result.valid
    assert result.counterexample == {"x": 0}


def test_suite_shape():
    suite = independence_suite()
    assert [e.tag for e in suite] == ["F2", "F4", "F5", "F6", "F7", "F8", "F9", "F10"]
    sizes = {e.tag: e.model.size for e in suite}
    assert sizes == {
        "F2": 2,
        "F4": 2,
        "F5": 2,
        "F6": 3,
        "F7": 4,
        "F8": 4,
        "F9": 5,
        "F10": 4,
    }
    assert _entry("F8").model.neg_table == (1, 0, 3, 2)
    assert _entry("F10").note is not None
    for e in suite:
        assert e.model.true_value == 1 and e.model.false_value == 0


def test_refutation_values():
    expected = {
        "F2": (0, 1),
        "F4": (1, 0),
        "F5": (0, 1),
        "F6": (2, 0),
        "F7": (2, 3),
        "F8": (3, 2),
        "F9": (3, 4),
        "F10": (3, 1),
    }
    for e in independence_suite():
        lhs = eval_in_model(e.model, e.refutation.lhs)
        rhs = eval_in_model(e.model, e.refutation.rhs)
        assert (lhs, rhs) == expected[e.tag]


def test_each_model_validates_all_other_axioms():
    rows = independence_rows()
    assert all(row.ok for row in rows), [row.entry.model.name for row in rows if not row.ok]


def test_reduced_set_without_f8_f10_recovers_f1_f3():
    core = [e for e in eqfscl_minus() if e.tag not in ("F8", "F10")]
    covered = 0
    for e in independence_suite():
        if all(validates(e.model, ax).valid for ax in core):
            covered += 1
            assert validates(e.model, _AX["F1"]).valid
            assert validates(e.model, _AX["F3"]).valid
    assert covered >= 2  # at least the F8 and F10 models qualify


def test_model_validation():
    with pytest.raises(ValueError):
        FiniteModel("bad", 2, (0,), ((0, 0), (0, 1)), ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        FiniteModel("bad", 2, (0, 5), ((0, 0), (0, 1)), ((0, 0), (1, 1)))


def test_model_json_roundtrip():
    for e in independence_suite():
        assert model_from_json(model_to_json(e.model)) == e.model


_GOOD_MODEL = {"name": "m", "size": 2, "neg": [1, 0], "and": [0, 0, 0, 1], "or": [0, 1, 1, 1]}


@pytest.mark.parametrize(
    "data",
    [
        {},
        [],
        [_GOOD_MODEL],
        "model",
        {**_GOOD_MODEL, "size": "2"},
        {**_GOOD_MODEL, "size": True},
        {**_GOOD_MODEL, "name": 5},
        {k: v for k, v in _GOOD_MODEL.items() if k != "or"},
        {**_GOOD_MODEL, "neg": [1, 2]},  # outside the carrier
        {**_GOOD_MODEL, "neg": "10"},
        {**_GOOD_MODEL, "and": [0, 0, 0]},
        {**_GOOD_MODEL, "and": [0, 0, 0, 1, 1]},
        {**_GOOD_MODEL, "or": [0, 1, 1, None]},
        {**_GOOD_MODEL, "true": 2},
        {**_GOOD_MODEL, "false": "0"},
        {**_GOOD_MODEL, "atoms": ["a"]},
        {**_GOOD_MODEL, "atoms": {"a": 1.0}},
        {**_GOOD_MODEL, "default_atom": -1},
        {**_GOOD_MODEL, "size": 0, "neg": [], "and": [], "or": []},
    ],
)
def test_model_from_json_rejects_malformed_input(data):
    assert model_from_json(_GOOD_MODEL).size == 2
    with pytest.raises(ParseError):
        model_from_json(data)


def test_valid_in_free_model():
    assert valid_in_free_model(_AX["F9"], samples=120, seed=51).valid
    swap = Equation(parse("$x && $y", "open"), parse("$y && $x", "open"))
    result = valid_in_free_model(swap, samples=120, seed=51)
    assert not result.valid and result.witness is not None
    # reproducible: the same seed finds the same witness
    again = valid_in_free_model(swap, samples=120, seed=51)
    assert again.witness == result.witness


def test_free_model_samples_must_not_be_negative():
    swap = Equation(parse("$x && $y", "open"), parse("$y && $x", "open"))
    with pytest.raises(ValueError, match="non-negative"):
        valid_in_free_model(swap, samples=-2)
    assert valid_in_free_model(swap, samples=0) == FreeModelCheck(True, None, 0)


# ``random_scl_term`` and ``random_substitution`` as they were, the one
# drawing by plain recursion and the other building each draw's tree to
# read its size, and ``valid_in_free_model`` on top of them, substituting
# and comparing trees by text: the oracles for the shaped draws and for
# the template read.


def reference_random_scl_term(rng, atoms=("a", "b", "c"), max_depth=6, max_size=40):
    budget = [max_size if max_size is not None else 1 << 62]

    def go(depth):
        budget[0] -= 1
        if depth <= 0 or budget[0] <= 0 or rng.random() < 0.28:
            roll = rng.random()
            if roll < 0.7:
                return Atom(rng.choice(atoms))
            return TRUE if roll < 0.85 else FALSE
        kind = rng.choice(("not", "and", "and", "or", "or"))
        if kind == "not":
            return Not(go(depth - 1))
        left = go(depth - 1)
        right = go(depth - 1)
        return And(left, right) if kind == "and" else Or(left, right)

    return go(max_depth)


def reference_random_substitution(rng, variables, atoms=("a", "b", "c"), max_depth=6, max_tree=120):
    out = {}
    for v in sorted(variables):
        term = reference_random_scl_term(rng, atoms, max_depth)
        if max_tree is not None:
            while eval_tree(term, cap=None).size > max_tree:
                term = reference_random_scl_term(rng, atoms, max_depth)
        out[v] = term
    return out


def reference_valid_in_free_model(eq, samples, seed, cap=DEFAULT_NODE_CAP):
    rng = Random(seed)
    names = sorted(eq.variables)
    for i in range(samples):
        subst = reference_random_substitution(rng, names)
        lhs = format_tree(eval_tree(substitute(eq.lhs, subst), cap))
        if lhs != format_tree(eval_tree(substitute(eq.rhs, subst), cap)):
            return FreeModelCheck(False, subst, i + 1)
    return FreeModelCheck(True, None, samples)


def _outcome(check, *args, **kwargs):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return check(*args, **kwargs)
    except (SclError, TypeError) as exc:
        return type(exc), str(exc)


def test_law_check_layers_stay_reachable_by_name():
    """The benchmark's traced law-check run wraps these module attributes."""
    assert models.eval_tree is eval_tree and generate.eval_tree is eval_tree
    assert models.substitute is substitute
    assert models.random_substitution is random_substitution


def test_free_model_samples_substitute_and_intern_nothing(monkeypatch):
    """A sample reads the templates against its substitution and builds
    into a table of its own: no substituted term, no interned tree node."""

    def forbidden(*args):
        raise AssertionError("called during a free-model sample")

    monkeypatch.setattr(terms, "substitute", forbidden)
    monkeypatch.setattr(models, "substitute", forbidden)
    monkeypatch.setattr(trees.Node, "__new__", forbidden)
    assert valid_in_free_model(_AX["F10"], samples=40, seed=3).valid
    assert not valid_in_free_model(Equation(parse("$x && $y", "open"), parse("$y && $x", "open"))).valid


def test_random_scl_term_draws_the_reference_stream():
    """The draws, and the generator state they leave, are pinned by the
    recursive generator as it was, which shares no code with the package."""
    rng, ref = Random(7), Random(7)
    for i in range(2_000):
        depth, size = 1 + i % 8, (40, 5, None)[i // 8 % 3]
        got = random_scl_term(rng, max_depth=depth, max_size=size)
        assert got is reference_random_scl_term(ref, max_depth=depth, max_size=size), i
    assert rng.getstate() == ref.getstate()


def test_shaped_draws_match_their_trees_and_the_reference_stream():
    """Each draw's shape is the one ``_shape`` gives its term, and its peak
    is the largest tree size of its distinct subterms, read from the built
    trees; the draws leave the generator where the reference leaves it."""
    rng, ref = Random(11), Random(11)
    above_root = 0
    for i in range(2_400):
        depth, size = 1 + i % 8, (40, 5, 12, None)[i // 8 % 4]
        term, shape, peak = generate._shaped_scl_term(rng, ("a", "b", "c"), depth, size)
        assert term is reference_random_scl_term(ref, max_depth=depth, max_size=size), i
        assert shape == trees._shape(term, None), i
        assert peak == max(eval_tree(s, cap=None).size for s in postorder(term)), i
        above_root += peak > shape[0]
    assert rng.getstate() == ref.getstate()
    assert above_root >= 200  # a subterm's tree larger than the whole term's is common


def test_shaped_draws_without_terms_take_the_same_stream():
    """A draw that makes no term gives the shape and peak of the draw that
    does, and leaves the generator in the same state."""
    rng, ref = Random(13), Random(13)
    for i in range(2_400):
        depth, size = 1 + i % 8, (40, 5, 12, None)[i // 8 % 4]
        term, shape, peak = generate._shaped_scl_term(rng, ("a", "b", "c"), depth, size, terms=False)
        assert (shape, peak) == generate._shaped_scl_term(ref, ("a", "b", "c"), depth, size)[1:], i
        assert term is None or type(term) is Const, i
    for max_tree in (120, 9, None):
        got = generate._shaped_substitution(rng, ["z", "x", "y"], max_tree=max_tree, terms=False)
        want = generate._shaped_substitution(ref, ["z", "x", "y"], max_tree=max_tree)
        assert [d[1:] for d in got.values()] == [d[1:] for d in want.values()]
    assert rng.getstate() == ref.getstate()


def test_random_substitution_matches_the_tree_built_reference():
    for seed in range(200):
        rng, ref = Random(seed), Random(seed)
        for max_tree in (120, 9, None):
            got = random_substitution(rng, ["z", "x", "y"], max_tree=max_tree)
            assert got == reference_random_substitution(ref, ["z", "x", "y"], max_tree=max_tree)
        assert rng.getstate() == ref.getstate()


def test_valid_in_free_model_matches_the_reference():
    laws = [_AX["F5"], _AX["F8"], _AX["F10"]] + [
        Equation(parse(lhs, "open"), parse(rhs, "open"))
        for lhs, rhs in [
            ("$x && $y", "$y && $x"),
            ("$x || $y", "$y || $x"),
            ("$x && ($y || $z)", "$x && $y || $x && $z"),
        ]
    ]
    witnesses, too_large = 0, 0
    for seed in range(40):
        for eq in laws:
            got = valid_in_free_model(eq, samples=25, seed=seed)
            assert got == reference_valid_in_free_model(eq, 25, seed)
            witnesses += got.witness is not None
            for cap in (5, 30):
                got = _outcome(valid_in_free_model, eq, samples=25, seed=seed, cap=cap)
                assert got == _outcome(reference_valid_in_free_model, eq, 25, seed, cap)
                too_large += got == (TreeTooLarge, f"tree exceeds the node cap of {cap}")
    assert witnesses >= 100
    assert 240 <= too_large < 480  # cap 5 always stops a run; cap 30 not always


def test_every_criterion_2_template_matches_the_reference():
    """All 31 criterion-2 equations, the conditional ones and F10 (whose
    ``$z`` occurs three times) among them, and a template whose left side
    is full-sequential: it fails on sight, before any binding is shaped,
    so at cap 5 the mode error comes before any size error."""
    base = eqfscl_axioms()
    laws = base + [dual_equation(e) for e in base] + cp_axioms() + derived_laws()
    assert len(laws) == 31
    full = Equation(FullAnd(Var("x"), Var("y")), And(Var("x"), Var("y")), "full")
    mode_error = (ModeViolation, "full-sequential connectives must be expanded before evaluation")
    outcomes = set()
    for seed in range(6):
        for eq in laws + [full]:
            for cap in (None, 5, 30):
                got = _outcome(valid_in_free_model, eq, samples=25, seed=seed, cap=cap)
                assert got == _outcome(reference_valid_in_free_model, eq, 25, seed, cap), (eq, seed, cap)
                if eq is full:
                    assert got == mode_error
                outcomes.add(got if isinstance(got, tuple) else got.valid)
    too_large = [(TreeTooLarge, f"tree exceeds the node cap of {cap}") for cap in (5, 30)]
    assert outcomes == {True, mode_error, *too_large}


def test_bindings_with_a_subterm_over_the_cap_are_walked_as_the_reference_walks_them():
    """A binding whose tree fits the cap but one of whose subterms' trees
    does not, as ``F && a`` (one leaf, over an atom's three nodes), stays
    out of the seeded shape memo: it is walked, and the error comes as the
    reference's walk of the substituted sides raises it.  When every
    root fits, only such a subterm can stop the first sample."""
    base = eqfscl_axioms()
    laws = base + [dual_equation(e) for e in base] + cp_axioms() + derived_laws()
    cases = {cap: 0 for cap in (0, 1, 2, 3, 5, 30)}
    only_subterms = 0
    for seed in range(30):
        for eq in laws:
            first = generate._shaped_substitution(Random(seed), eq.variables).values()
            for cap in cases:
                limit = max(cap, 1)
                if not any(shape[0] <= limit < peak for _, shape, peak in first):
                    continue
                cases[cap] += 1
                for samples in (25, 1):
                    got = _outcome(valid_in_free_model, eq, samples=samples, seed=seed, cap=cap)
                    assert got == _outcome(reference_valid_in_free_model, eq, samples, seed, cap), (eq, seed, cap)
                if all(shape[0] <= limit for _, shape, _ in first):
                    only_subterms += 1
                    assert got == (TreeTooLarge, f"tree exceeds the node cap of {cap}"), (eq, seed, cap)
    assert min(cases.values()) >= 20, cases
    assert only_subterms >= 100


# Open non-identities: criterion 5's four, with variables for atoms, and
# others; the fresh-atom check refutes each, so they take the sampling path.
_NON_IDENTITIES = [
    Equation(parse(lhs, "open"), parse(rhs, "open"))
    for lhs, rhs in [
        ("$x && $x", "$x"),
        ("$x && $y", "$y && $x"),
        ("$x && ($x || $y)", "$x"),
        ("($x && $y) || $z", "($x || $z) && ($y || $z)"),
        ("$x && ($y && F)", "$y && ($x && F)"),
        ("!$x && F", "$x && $y && F"),
    ]
]


def test_free_model_samples_shape_no_binding_twice(monkeypatch):
    """The draw gives the check each binding's shape: a binding whose
    subterms all fit the cap is in the seeded memo, and ``_shape`` never
    visits it; one with a subterm over the cap is left out."""

    class Recording(dict):  # the memo, logging each term _shape visits
        def __setitem__(self, key, value):
            visited.append(key)
            super().__setitem__(key, value)

    def passes(b, cap):
        try:
            trees._shape(b, cap)
        except TreeTooLarge:
            return False
        return True

    def checked(p, q, cap, subst, shapes=None):
        if shapes is None:  # the fresh-atom check, once per equation: it refutes
            assert _outcome(same_tree, p, q, cap, subst) is not True
            return same_tree(p, q, cap, subst)
        memo = Recording(shapes)
        bindings = [b for b in subst.values() if type(b) is not Const]  # _shape enters T and F
        for b in bindings:
            assert (b in memo) == passes(b, cap), (b, cap)
        seeded = [b for b in bindings if b in memo]
        counts["seeded"] += len(seeded)
        counts["left out"] += len(bindings) - len(seeded)
        visited.clear()
        try:
            return same_tree(p, q, cap, subst, memo)
        finally:
            assert not set(seeded) & set(visited), (seeded, cap)

    same_tree, visited, counts = models.same_tree, [], {"seeded": 0, "left out": 0}
    monkeypatch.setattr(models, "same_tree", checked)
    laws = _NON_IDENTITIES + [dual_equation(e) for e in _NON_IDENTITIES]
    for seed in range(40):
        for eq in laws:
            for cap in (None, 5, 30, 120):
                _outcome(valid_in_free_model, eq, samples=20, seed=seed, cap=cap)
    assert counts["seeded"] >= 1_000 and counts["left out"] >= 20, counts


def test_free_model_shortcut_shapes_and_builds_no_drawn_term(monkeypatch):
    """An equation whose sides have one tree under fresh atoms is built
    once, with those atoms: the draws make no term, and ``_shape`` and
    ``_build`` see only the sides' subterms and the fresh atoms."""
    shaped, built, draws = [], [], []

    def shape(term, cap, shapes=None, subst=None):
        shaped.append((term, subst))
        return real_shape(term, cap, shapes, subst)

    def build(term, kt, kf, leaf, done=None, subst=None):
        built.append((term, subst))
        return real_build(term, kt, kf, leaf, done, subst)

    def draw(*args, **kwargs):
        drawn = real_draw(*args, **kwargs)
        draws.append(drawn)
        return drawn

    def forbidden(*args):
        raise AssertionError("a tree node made on the shortcut")

    real_shape, real_build, real_draw = trees._shape, trees._build, models._shaped_substitution
    monkeypatch.setattr(trees, "_shape", shape)
    monkeypatch.setattr(models, "_shape", shape)
    monkeypatch.setattr(trees, "_build", build)
    monkeypatch.setattr(models, "_shaped_substitution", draw)
    monkeypatch.setattr(trees.Node, "__new__", forbidden)
    base = eqfscl_axioms()
    laws = base + [dual_equation(e) for e in base] + cp_axioms() + derived_laws()
    for eq in laws:
        for cap in (None, 30, DEFAULT_NODE_CAP):
            shaped.clear(), built.clear(), draws.clear()
            got = _outcome(valid_in_free_model, eq, samples=25, seed=7, cap=cap)
            assert got == FreeModelCheck(True, None, 25) or got[0] is TreeTooLarge, (eq, cap)
            sides = set(postorder(eq.lhs)) | set(postorder(eq.rhs))
            fresh = {v: Atom(v) for v in eq.variables}  # no law has an atom
            assert all(term in sides and subst in (None, fresh) for term, subst in shaped + built), (eq, cap)
            assert len(built) == 2  # the two sides, once
            assert draws and all(term is None or type(term) is Const for d in draws for term, _, _ in d.values())
            if got == FreeModelCheck(True, None, 25):
                assert len(draws) == 25 and len(shaped) == 2 + (0 if cap is None else 50)


def test_free_model_shortcut_matches_the_reference(monkeypatch):
    """Equations valid by construction take the fresh-atom shortcut, and
    give what the reference gives, result or error, at every cap and
    count of samples: ``l = l``, closed and open instances of the axioms,
    their duals, the conditional axioms, the derived laws; templates with
    full connectives or conditionals; and equations whose own atoms take
    the names of the fresh atoms, one of which is valid only if its
    variable's atom is kept off them."""

    def counted(*args):
        fresh = fresh_atoms(*args)
        shortcuts[fresh is not None] += 1
        return fresh

    fresh_atoms, shortcuts = models._fresh_atoms, [0, 0]
    monkeypatch.setattr(models, "_fresh_atoms", counted)
    rng = Random(25)
    x, y, x_ = Var("x"), Var("y"), Atom("x_")
    base = eqfscl_axioms()
    laws = base + [dual_equation(e) for e in base] + cp_axioms() + derived_laws()
    opened = lambda: expand_full(random_term(rng, ("a", "x"), 2, "open", ("x", "y")))
    closed = lambda: expand_full(random_term(rng, ("a", "b"), 2))
    cases = list(laws)
    for i in range(12):
        t = random_term(rng, ("a", "x"), 3, rng.choice(("open", "enriched")), ("x", "y"))
        t = t if i % 4 == 0 else expand_full(t)  # most without full connectives
        cases.append(Equation(t, t))
        for bind in (opened, closed):
            eq = rng.choice(laws)
            subst = {v: bind() for v in eq.variables}
            cases.append(Equation(substitute(eq.lhs, subst), substitute(eq.rhs, subst)))
    cases += [
        Equation(Cond(x, FullAnd(x, y), y), Cond(x, FullAnd(x, y), y)),
        Equation(And(Atom("x"), x), And(x, Atom("x"))),  # x && x_ differs from x_ && x
        Equation(And(And(Atom("x"), x_), x), And(Atom("x"), And(x_, x))),
        Equation(Or(And(x, x_), y), Or(And(x, x_), Not(Not(y)))),
    ]
    outcomes = set()
    for eq in cases:
        for cap in (None, 0, 1, 2, 5, 30, DEFAULT_NODE_CAP):
            for samples in (0, 1, 25):
                taken = shortcuts[True]
                got = _outcome(valid_in_free_model, eq, samples=samples, seed=cap or 0, cap=cap)
                assert got == _outcome(reference_valid_in_free_model, eq, samples, cap or 0, cap), (eq, cap, samples)
                if shortcuts[True] > taken:
                    outcomes.add(got[0] if isinstance(got, tuple) else got.samples)
    assert shortcuts[True] >= 400 and shortcuts[False] >= 100, shortcuts
    assert outcomes == {1, 25, TreeTooLarge}  # the shortcut returns, and raises the cap error
    # an atom name the draw cannot make is refused where the draw meets it
    assert valid_in_free_model(_AX["F7"], samples=25, atoms=("a",)).valid
    with pytest.raises(ValueError, match="invalid atom name: 'T'"):
        valid_in_free_model(_AX["F7"], samples=25, atoms=("a", "T"))


def _mutated(t, rng, leaves):
    """``t`` with one subterm, reached by a random path, replaced by a leaf."""
    kids = terms.children(t)
    if not kids or rng.random() < 0.3:
        return rng.choice(leaves)
    i = rng.randrange(len(kids))
    return type(t)(*(_mutated(k, rng, leaves) if j == i else k for j, k in enumerate(kids)))


def random_open_equations(rng, count):
    """Seeded open equations over ``$x``, ``$y``, ``$z`` and the atoms
    ``a`` and ``b``: a side against itself with one subterm replaced by a
    leaf (so that most pairs differ a little), or against another side."""
    leaves = [Var("x"), Var("y"), Var("z"), Atom("a"), Atom("b"), TRUE, FALSE]
    side = lambda: expand_full(random_term(rng, ("a", "b"), rng.randint(1, 3), "enriched", ("x", "y", "z")))
    out = []
    while len(out) < count:
        lhs = side()
        rhs = _mutated(lhs, rng, leaves) if rng.random() < 0.8 else side()
        if lhs.node_count + rhs.node_count > 2:  # some variable on a side
            if "$" in str(lhs) + str(rhs):
                out.append(Equation(lhs, rhs))
    return out


def test_the_sampler_refutes_only_what_the_fresh_atom_check_refutes(monkeypatch):
    """Soundness of the shortcut, by the sampling path it replaces: every
    equation the 200-sample sampler refutes, the fresh-atom check refutes
    too.  The check holds all of criterion 2 and refutes criterion 5's
    four closed non-identities; the 2,000 seeded open equations give it
    both verdicts often.  ``missed`` counts the equations the check
    refutes and the sampler does not."""
    base = eqfscl_axioms()
    laws = base + [dual_equation(e) for e in base] + cp_axioms() + derived_laws()
    non_identities = [
        Equation(parse(lhs), parse(rhs))
        for lhs, rhs in [("a && a", "a"), ("a && b", "b && a"), ("a && (a || b)", "a"), ("(a && b) || c", "(a || c) && (b || c)")]
    ]
    equations = laws + non_identities + random_open_equations(Random(2025), 2_000)
    exact = [models._fresh_atoms(eq, sorted(eq.variables), ("a", "b", "c"), None) is not None for eq in equations]
    assert exact[: len(laws)] == [True] * len(laws) and exact[len(laws) : len(laws) + 4] == [False] * 4
    monkeypatch.setattr(models, "_fresh_atoms", lambda *args: None)  # the sampling path
    counts = {"valid": 0, "refuted": 0, "missed": 0, "too large": 0}
    for seed, (eq, valid) in enumerate(zip(equations, exact)):
        try:
            sampled = valid_in_free_model(eq, samples=200, seed=seed).valid
        except TreeTooLarge:
            counts["too large"] += 1
            continue
        assert sampled or not valid, eq  # sound: a refutation is a real one
        counts["valid" if valid else "refuted" if not sampled else "missed"] += 1
    assert counts["valid"] >= 200 and counts["refuted"] >= 1_000, counts


# ``eval_in_model`` and ``validates`` as they were, one recursive evaluation
# per side per assignment: the oracles for the column fold.


def reference_eval_in_model(m, t, assignment=None):
    env = assignment or {}
    match t:
        case Const(v):
            return m.true_value if v else m.false_value
        case Atom(name):
            return m.atom_value(name)
        case Var(name):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariable(f"no value for variable ${name}") from None
        case Not(p):
            return m.neg_table[reference_eval_in_model(m, p, env)]
        case And(l, r):
            return m.and_table[reference_eval_in_model(m, l, env)][reference_eval_in_model(m, r, env)]
        case Or(l, r):
            return m.or_table[reference_eval_in_model(m, l, env)][reference_eval_in_model(m, r, env)]
        case Cond(_, _, _) | FullAnd(_, _) | FullOr(_, _):
            raise ModeViolation(
                f"{type(t).__name__} nodes have no interpretation in finite models"
            )
        case _:
            raise TypeError(f"not a term: {t!r}")


def reference_validates(m, eq):
    names = sorted({s.name for side in (eq.lhs, eq.rhs) for s in postorder(side) if isinstance(s, Var)})
    checked = 0
    for values in itertools.product(range(m.size), repeat=len(names)):
        env = dict(zip(names, values))
        checked += 1
        if reference_eval_in_model(m, eq.lhs, env) != reference_eval_in_model(m, eq.rhs, env):
            return ValidationResult(False, env, checked)
    return ValidationResult(True, None, checked)


def reference_independence_rows():
    """Each suite model's row, by the reference interpreters: the model's
    name, whether it validates each reduced-set axiom (in catalogue order),
    the values of the two sides of its refutation, and whether it refutes
    its own axiom and only that one."""
    rows = []
    for entry in independence_suite():
        valid = [(ax.tag, reference_validates(entry.model, ax).valid) for ax in eqfscl_minus()]
        lhs = reference_eval_in_model(entry.model, entry.refutation.lhs)
        rhs = reference_eval_in_model(entry.model, entry.refutation.rhs)
        ok = lhs != rhs and all(v == (tag != entry.tag) for tag, v in valid)
        rows.append((entry.model.name, valid, lhs, rhs, ok))
    return rows


def test_independence_rows_match_the_reference():
    rows = independence_rows()
    assert [(r.entry.model.name, list(r.valid.items()), r.lhs, r.rhs, r.ok) for r in rows] == (
        reference_independence_rows()
    )


def _random_model(rng):
    n = rng.randint(1, 5)
    row = lambda: tuple(rng.randrange(n) for _ in range(n))
    return FiniteModel(
        name="random",
        size=n,
        neg_table=row(),
        and_table=tuple(row() for _ in range(n)),
        or_table=tuple(row() for _ in range(n)),
        true_value=rng.randrange(n),
        false_value=rng.randrange(n),
        atom_values={a: rng.randrange(n) for a in "ab" if rng.random() < 0.8},
        default_atom_value=rng.randrange(n) if rng.random() < 0.3 else None,
    )


def _law_side(rng, depth):
    """An open term over !, && and || only, which every model interprets
    when its atoms have values."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice([Atom("a"), Atom("b"), Atom("c"), Var("x"), Var("y"), Var("z"), TRUE, FALSE])
    kind = rng.choice((Not, And, Or))
    if kind is Not:
        return Not(_law_side(rng, depth - 1))
    return kind(_law_side(rng, depth - 1), _law_side(rng, depth - 1))


def _random_side(rng):
    if rng.random() < 0.6:
        return _law_side(rng, rng.randint(0, 5))
    # may hold Cond, FullAnd and FullOr nodes
    return random_term(rng, max_depth=rng.randint(0, 4), mode="open", variables=("x", "y", "z"))


@pytest.mark.parametrize("cells", [None, 3])
def test_columns_match_the_recursive_evaluation(cells, monkeypatch):
    if cells is not None:  # blocks of one or two assignments
        monkeypatch.setattr(models, "_CELLS", cells)
    rng = Random(f"columns-{cells}")
    kinds = set()
    for _ in range(400):
        m = _random_model(rng)
        eq = Equation(_random_side(rng), _random_side(rng))
        got = _outcome(validates, m, eq)
        assert got == _outcome(reference_validates, m, eq), (m, eq)
        kinds.add(got[0] if isinstance(got, tuple) else got.valid)
        bound = {v: rng.randrange(m.size) for v in sorted(eq.variables) if rng.random() < 0.8}
        got = _outcome(eval_in_model, m, eq.lhs, bound)
        assert got == _outcome(reference_eval_in_model, m, eq.lhs, bound), (m, eq.lhs, bound)
        kinds.add(got[0] if isinstance(got, tuple) else "value")
    assert kinds == {True, False, "value", ModeViolation, UninterpretedAtom, UnboundVariable}


def test_eval_in_model_ignores_unused_and_unnamed_bindings():
    m = _entry("F6").model
    assert eval_in_model(m, parse("$x && a", "open"), {"x": 1, "1y": 0, 5: 2}) == 2
    assert eval_in_model(m, parse("$x", "open"), {"x": 7}) == 7  # returned as bound
    for bad in ("a", None, 5):
        assert _outcome(eval_in_model, m, bad) == (TypeError, f"not a term: {bad!r}")


_BOOL = FiniteModel("bool", 2, (1, 0), ((0, 0), (0, 1)), ((0, 1), (1, 1)), default_atom_value=1)


def _shared(levels, base):
    """``t = t && (t || a)``, ``levels`` deep: two distinct subterms per
    level, but exponentially many logical nodes."""
    for _ in range(levels):
        base = And(base, Or(base, Atom("a")))
    return base


def test_models_take_deep_terms_without_recursion():
    x = Var("x")
    negs = reduce(lambda t, _: Not(t), range(100_000), x)
    assert eval_in_model(_BOOL, negs, {"x": 0}) == 0
    assert eval_in_model(_entry("F6").model, Not(negs), {"x": 2}) == 2
    assert validates(_BOOL, Equation(negs, x)) == ValidationResult(True, None, 2)
    chain = reduce(And, [Atom(f"a{i}") for i in range(100_000)])
    assert eval_in_model(_BOOL, chain) == 1
    assert validates(_BOOL, Equation(Or(x, chain), x)) == ValidationResult(False, {"x": 0}, 1)


def test_models_evaluate_shared_subterms_once():
    t = _shared(30, Var("x"))
    started = time.perf_counter()
    assert eval_in_model(_BOOL, t, {"x": 0}) == 0  # a is 1, so each level gives t back
    assert validates(_BOOL, Equation(t, Var("x"))) == ValidationResult(True, None, 2)
    m = _entry("F9").model
    assert validates(m, Equation(t, Not(Not(t)))).assignments_checked == 5
    assert time.perf_counter() - started < 5


def test_validates_holds_a_block_of_assignments_at_a_time():
    m = _entry("F9").model
    side = reduce(And, [Or(Var(v), Not(Var(v))) for v in "abcdefg"])
    tracemalloc.start()
    try:
        result = validates(m, Equation(side, side))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == ValidationResult(True, None, 5**7)
    # whole columns of 78,125 values for each of the 29 distinct subterms
    # would take over 18 MB
    assert peak < 4_000_000


def test_validates_sizes_later_blocks_by_distinct_columns(monkeypatch):
    # 30 levels of t && (t || a): billions of logical nodes, so the first
    # block is one assignment; the first fold finds 64 distinct columns, so
    # the other four assignments of the five-element model fit in one block
    t = _shared(30, Var("x"))
    m = _entry("F9").model
    eq = Equation(t, Not(Not(t)))
    expected = validates(m, eq)
    blocks = []
    columns = models._columns

    def counted(m, sides, cols, n):
        blocks.append(n)
        return columns(m, sides, cols, n)

    monkeypatch.setattr(models, "_columns", counted)
    assert validates(m, eq) == expected == ValidationResult(True, None, 5)
    assert blocks == [1, 4]
