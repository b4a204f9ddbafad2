import random
import time
from functools import reduce

import pytest

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
    ModeViolation,
    Node,
    Not,
    Or,
    Var,
    NonClosedTerm,
    TreeTooLarge,
    basic_form,
    basic_of,
    decide_eq,
    decide_eq_cp,
    eval_tree,
    is_basic_form,
    parse,
    scl_to_cp,
    tree_of,
    valid_in_free_model,
)
from sclkit.axioms import cp_axioms, rp_schemes
from sclkit.generate import random_scl_term
from sclkit.terms import postorder
from generators import random_cp_term, random_term, random_tree


def test_basic_form_examples():
    assert basic_form(parse("a")) == parse("T <| a |> F")
    assert basic_form(parse("T <| (T <| a |> F) |> F")) == parse("T <| a |> F")
    assert basic_form(parse("F <| a |> T")) == parse("F <| a |> T")


def test_basic_form_rejects_connectives():
    with pytest.raises(ModeViolation):
        basic_form(parse("a && b"))
    with pytest.raises(NonClosedTerm):
        basic_form(parse("$x", "open"))


def test_is_basic_form():
    assert is_basic_form(parse("T <| a |> (F <| b |> T)"))
    assert not is_basic_form(parse("T <| (T <| a |> F) |> F"))
    assert not is_basic_form(parse("a"))


def test_structural_bijection():
    assert tree_of(parse("T <| a |> F")) == eval_tree(parse("a"))
    assert basic_of(eval_tree(parse("F <| a |> T"))) == parse("F <| a |> T")
    rng = random.Random(41)
    for _ in range(200):
        x = random_tree(rng, max_depth=4)
        b = basic_of(x)
        assert is_basic_form(b)
        assert tree_of(b) == x
        assert basic_of(tree_of(b)) == b


def test_a_basic_form_has_one_conditional_and_one_atom_per_inner_node_of_its_tree(corpus):
    """A tree with ``n`` inner nodes has ``2n + 1`` nodes, and its basic
    form ``n`` conditionals, ``n`` atoms and ``n + 1`` constants: the
    bound by which ``decide_eq_cp`` decides from tree shapes."""
    for t in corpus:
        assert 2 * basic_form(scl_to_cp(t), None).node_count == 3 * eval_tree(t, None).size - 1, t


def test_basic_form_agrees_with_tree_readoff():
    # the compose recursion and the tree route must give the same answer
    rng = random.Random(42)
    for _ in range(300):
        t = random_cp_term(rng, max_depth=4)
        assert basic_form(t) == basic_of(eval_tree(t))
        assert tree_of(basic_form(t)) == eval_tree(t)


def test_scl_to_cp_clauses():
    assert scl_to_cp(parse("!a")) == parse("F <| a |> T")
    assert scl_to_cp(parse("a && b")) == parse("b <| a |> F")
    assert scl_to_cp(parse("a || b")) == parse("T <| a |> b")


def test_scl_to_cp_preserves_trees():
    rng = random.Random(43)
    for _ in range(300):
        t = random_scl_term(rng, max_depth=5)
        assert eval_tree(scl_to_cp(t)) == eval_tree(t)


def test_decide_eq_cp_examples():
    assert decide_eq_cp(parse("!!a"), parse("a"))
    assert decide_eq_cp(parse("(a && F) || b"), parse("(a || T) && b"))
    assert not decide_eq_cp(parse("a"), parse("!a"))


def test_mixed_signature_inputs_are_accepted():
    assert decide_eq_cp(parse("!a && (b <| a |> F)"), parse("!a && (a && b)"))


def test_agreement_with_scl_engines():
    rng = random.Random(44)
    for _ in range(300):
        p = random_scl_term(rng, max_depth=5)
        q = random_scl_term(rng, max_depth=5)
        verdict = decide_eq_cp(p, q)
        assert verdict == decide_eq(p, q, "tree")
        assert verdict == decide_eq(p, q, "nf")


def test_completeness_at_desk_scale():
    # equal trees if and only if identical basic forms
    rng = random.Random(45)
    for _ in range(300):
        p = random_cp_term(rng, max_depth=3)
        q = random_cp_term(rng, max_depth=3)
        assert (basic_form(p) == basic_form(q)) == (eval_tree(p) == eval_tree(q))


def test_injectivity_on_basic_forms():
    rng = random.Random(46)
    for _ in range(200):
        b1 = basic_of(random_tree(rng, max_depth=3))
        b2 = basic_of(random_tree(rng, max_depth=3))
        if b1 != b2:
            assert tree_of(b1) != tree_of(b2)


def test_cp_axioms_hold_in_free_model():
    for eq in cp_axioms():
        assert valid_in_free_model(eq, samples=200, seed=47).valid, eq.tag


def test_rp_schemes_fail_in_free_model():
    for eq in rp_schemes(["a"]):
        result = valid_in_free_model(eq, samples=200, seed=48)
        assert not result.valid, eq.tag
        assert result.witness is not None


def test_repetition_example_distinguished():
    # atoms are re-evaluated: collapsing a repeated guard changes the tree
    assert not decide_eq(parse("a && (a || b)"), parse("a && a"))


def test_basic_form_cap():
    deep = parse("a")
    for name in ("b", "c", "d", "e"):
        deep = Cond(deep, parse(name), deep)
    with pytest.raises(TreeTooLarge):
        basic_form(deep, cap=8)


# The cp engine as it was before continuation passing: recursion once per
# level, and basic forms composed by recursion on the guard's form, with
# the cap checked on every composed result.  Kept as an oracle.


def reference_basic_form(t, cap):
    match t:
        case Const(_):
            return t
        case Atom(_):
            return Cond(TRUE, t, FALSE)
        case Var(name):
            raise NonClosedTerm(f"cannot take the basic form of open term: ${name}")
        case Cond(a, g, b):
            return reference_compose(
                reference_basic_form(a, cap), reference_basic_form(g, cap), reference_basic_form(b, cap), cap
            )
        case _:
            raise ModeViolation(f"{type(t).__name__} is not a conditional node; translate first")


def reference_compose(p, q, r, cap):
    if q == TRUE:
        return p
    if q == FALSE:
        return r
    result = Cond(reference_compose(p, q.then, r, cap), q.guard, reference_compose(p, q.orelse, r, cap))
    if cap is not None and result.node_count > cap:
        raise TreeTooLarge(f"basic form exceeds the node cap of {cap}")
    return result


def reference_scl_to_cp(t):
    match t:
        case Const(_) | Atom(_):
            return t
        case Var(name):
            raise NonClosedTerm(f"cannot translate open term: ${name}")
        case Not(p):
            return Cond(FALSE, reference_scl_to_cp(p), TRUE)
        case And(l, r):
            return Cond(reference_scl_to_cp(r), reference_scl_to_cp(l), FALSE)
        case Or(l, r):
            return Cond(TRUE, reference_scl_to_cp(l), reference_scl_to_cp(r))
        case Cond(a, g, b):
            return Cond(reference_scl_to_cp(a), reference_scl_to_cp(g), reference_scl_to_cp(b))
        case FullAnd(_, _) | FullOr(_, _):
            raise ModeViolation("full-sequential connectives must be expanded before translation")


def reference_tree_of(t):
    match t:
        case Const(v):
            return Leaf.TRUE if v else Leaf.FALSE
        case Cond(a, Atom(name), b):
            return Node(name, reference_tree_of(a), reference_tree_of(b))
        case _:
            raise ModeViolation(f"not a basic form: {t}")


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", [1, 2])
def test_cp_engine_matches_the_compose_reference(seed):
    rng = random.Random(seed)
    terms = [random_scl_term(rng, max_depth=rng.randint(1, 7)) for _ in range(200)]
    terms += [random_cp_term(rng, max_depth=rng.randint(1, 4)) for _ in range(100)]
    # open terms and full connectives, for the errors and their order
    terms += [random_term(rng, "ab", 4, mode, ("x", "y")) for mode in ("open", "enriched") for _ in range(60)]
    raised = 0
    for t in terms:
        translated = outcome(reference_scl_to_cp, t)
        assert outcome(scl_to_cp, t) == translated
        for x in (t, translated):
            if isinstance(x, tuple):
                continue
            for cap in (None, 0, 1, 2, 3, 10, 100):
                expected = outcome(reference_basic_form, x, cap)
                assert outcome(basic_form, x, cap) == expected
                raised += isinstance(expected, tuple)
            assert outcome(tree_of, x) == outcome(reference_tree_of, x)
            assert is_basic_form(x) == (not isinstance(outcome(reference_tree_of, x), tuple))
    assert raised > 500  # caps and bad nodes do fail some calls


def and_chain(n, right):
    atoms = [Atom(f"a{i}") for i in range(n)]
    if right:
        return reduce(lambda t, a: And(a, t), reversed(atoms))
    return reduce(And, atoms)


@pytest.mark.parametrize("right", [False, True])
def test_cp_functions_take_deep_chains(right):
    # 10**4 levels: far beyond the recursion limit
    t = and_chain(10_000, right)
    b = basic_form(scl_to_cp(t), cap=None)
    assert b is basic_form(scl_to_cp(and_chain(10_000, not right)), cap=None)
    assert b.node_count == 3 * 10_000 + 1
    assert is_basic_form(b)
    x = tree_of(b)
    assert x.size == 2 * 10_000 + 1
    assert basic_of(x) is b
    assert eval_tree(t) is x


def test_cp_functions_are_linear_on_shared_trees():
    # 2**42 logical tree nodes in 80 objects
    t = reduce(And, [Or(Atom("a"), Atom("b"))] * 40)
    x = eval_tree(t, cap=None)
    start = time.perf_counter()
    b = basic_of(x)
    assert tree_of(b) is x and is_basic_form(b)
    assert basic_form(scl_to_cp(t), cap=None) is b
    assert time.perf_counter() - start < 0.5


def best_time(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_decide_eq_cp_grows_linearly_on_shared_terms():
    # (a || b) chained k times: the basic form's logical size doubles with
    # each k, its object graph grows by a constant
    def chain(k):
        return reduce(And, [Or(Atom("a"), Atom("b"))] * k)

    objects = []
    for k in range(1, 41):
        assert decide_eq_cp(chain(k), chain(k), cap=None)
        assert not decide_eq_cp(chain(k), chain(k + 1), cap=None)
        objects.append(len(set(postorder(basic_form(scl_to_cp(chain(k)), cap=None)))))
    steps = {b - a for a, b in zip(objects, objects[1:])}
    assert len(steps) == 1 and steps.pop() <= 10
    t10, t40 = (best_time(lambda: decide_eq_cp(chain(k), chain(k), cap=None)) for k in (10, 40))
    assert t40 < 16 * t10 + 0.005  # four times the size: linear, not 2**30 times


def test_basic_form_of_a_long_chain_is_fast():
    t = and_chain(600, right=False)
    assert best_time(lambda: basic_form(scl_to_cp(t)), repeat=3) < 0.050
