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
    check_independence,
    eval_in_model,
    eval_tree,
    format_tree,
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
from sclkit.generate import random_scl_term, random_substitution, random_term
from sclkit.terms import postorder
from sclkit.trees import DEFAULT_NODE_CAP

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
    ok, lines = check_independence()
    assert ok, [l for l in lines if "UNEXPECTED" in l]


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


def reference_check_independence():
    """``check_independence`` as it was before the rows were shared with
    ``scl models check``."""
    lines = []
    ok = True
    for entry in independence_suite():
        for ax in eqfscl_minus():
            result = reference_validates(entry.model, ax)
            expected = ax.tag != entry.tag
            if result.valid != expected:
                ok = False
            status = "ok" if result.valid == expected else "UNEXPECTED"
            word = "valid" if result.valid else "refuted"
            lines.append(f"{entry.model.name} {ax.tag}: {word} ({status})")
        lhs = reference_eval_in_model(entry.model, entry.refutation.lhs)
        rhs = reference_eval_in_model(entry.model, entry.refutation.rhs)
        if lhs == rhs:
            ok = False
        lines.append(f"{entry.model.name} refutation {entry.refutation}: {lhs} != {rhs}")
    return ok, lines


def test_check_independence_report_is_unchanged():
    assert check_independence() == reference_check_independence()


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
