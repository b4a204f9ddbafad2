import json
import time
from functools import reduce
from random import Random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sclkit import (
    FALSE,
    TRUE,
    And,
    Atom,
    Cond,
    Const,
    Equation,
    FullAnd,
    FullOr,
    MODES,
    ModeViolation,
    Not,
    Or,
    UnboundVariable,
    Var,
    check_mode,
    dual,
    expand_full,
    parse,
    substitute,
    term_to_json,
    variables,
)
from sclkit.terms import postorder
from generators import random_term

A, B = Atom("a"), Atom("b")
X, Y, Z = Var("x"), Var("y"), Var("z")


def test_dual_basics():
    assert dual(TRUE) == FALSE
    assert dual(FALSE) == TRUE
    assert dual(A) == A
    assert dual(X) == X
    assert dual(And(And(X, Y), Z)) == Or(Or(X, Y), Z)
    assert dual(Not(A)) == Not(A)


def test_dual_rejects_conditionals():
    with pytest.raises(ModeViolation):
        dual(Cond(A, B, A))


_scl_terms = st.recursive(
    st.one_of(
        st.just(TRUE),
        st.just(FALSE),
        st.sampled_from("abc").map(Atom),
        st.sampled_from("xy").map(Var),
    ),
    lambda c: st.one_of(
        c.map(Not),
        st.tuples(c, c).map(lambda p: And(*p)),
        st.tuples(c, c).map(lambda p: Or(*p)),
        st.tuples(c, c).map(lambda p: FullAnd(*p)),
        st.tuples(c, c).map(lambda p: FullOr(*p)),
    ),
    max_leaves=25,
)


@settings(max_examples=200)
@given(_scl_terms)
def test_dual_is_an_involution(t):
    assert dual(dual(t)) == t


def test_substitute():
    assert substitute(And(X, Y), {"x": A, "y": FALSE}) == And(A, FALSE)
    assert substitute(TRUE, {}) == TRUE
    assert substitute(Or(X, X), {"x": Not(A)}) == Or(Not(A), Not(A))


def test_substitute_missing_variable():
    with pytest.raises(UnboundVariable):
        substitute(And(X, Y), {"x": A})


def reference_substitute(t, subst):
    """``substitute`` as it was: one recursive call per logical subterm."""
    match t:
        case Var(name):
            try:
                return subst[name]
            except KeyError:
                raise UnboundVariable(f"no binding for variable ${name}") from None
        case Const(_) | Atom(_):
            return t
        case Not(p):
            q = reference_substitute(p, subst)
            return t if q is p else Not(q)
        case And(l, r) | Or(l, r) | FullAnd(l, r) | FullOr(l, r):
            l2, r2 = reference_substitute(l, subst), reference_substitute(r, subst)
            return t if l2 is l and r2 is r else type(t)(l2, r2)
        case Cond(a, g, b):
            a2, g2, b2 = (reference_substitute(x, subst) for x in (a, g, b))
            return t if a2 is a and g2 is g and b2 is b else Cond(a2, g2, b2)
        case _:
            raise TypeError(f"not a term: {t!r}")


def _substituted(substitution, t, subst):
    try:
        return substitution(t, subst)
    except (UnboundVariable, TypeError) as exc:
        return type(exc), str(exc)


def test_substitute_matches_the_recursive_fold():
    rng = Random("substitute")
    names = ("u", "v", "w", "x", "y")
    unbound = 0
    for _ in range(2_000):
        t = random_term(rng, max_depth=rng.randint(0, 6), mode="open", variables=names)
        subst = {v: random_term(rng, max_depth=2) for v in names if rng.random() < 0.7}
        got = _substituted(substitute, t, subst)
        assert got == _substituted(reference_substitute, t, subst), (t, subst)
        unbound += isinstance(got, tuple)
    assert 200 < unbound < 1_800
    assert _substituted(substitute, "x", {}) == (TypeError, "not a term: 'x'")


def _shared_template(levels):
    """``t = t && (t || a)`` on ``$x``: two distinct subterms per level,
    exponentially many logical ones."""
    t = X
    for _ in range(levels):
        t = And(t, Or(t, A))
    return t


def test_variables_and_substitute_visit_shared_subterms_once():
    t = _shared_template(30)
    started = time.perf_counter()
    assert variables(t) == {"x"}
    assert Equation(t, Y).variables == {"x", "y"}
    closed = substitute(t, {"x": Not(B)})
    assert time.perf_counter() - started < 5
    expected = Not(B)
    for _ in range(30):
        expected = And(expected, Or(expected, A))
    assert closed is expected


def test_substitute_takes_deep_terms_without_recursion():
    chain = reduce(lambda acc, i: And(X if i % 2 else A, acc), range(100_000), Y)
    closed = substitute(chain, {"x": Not(B), "y": TRUE})
    assert closed is reduce(lambda acc, i: And(Not(B) if i % 2 else A, acc), range(100_000), TRUE)
    assert variables(chain) == {"x", "y"}
    with pytest.raises(UnboundVariable, match=r"\$y"):
        substitute(chain, {"x": B})


def test_expand_full_clauses():
    assert expand_full(FullAnd(A, B)) == parse("(a || (b && F)) && b")
    assert expand_full(FullOr(A, B)) == parse("(a && (b || T)) || b")
    assert expand_full(A) == A


def _dag_size(t):
    from sclkit.terms import children

    seen = set()
    stack = [t]
    while stack:
        s = stack.pop()
        if id(s) in seen:
            continue
        seen.add(id(s))
        stack.extend(children(s))
    return len(seen)


@settings(max_examples=150)
@given(_scl_terms)
def test_expand_full_removes_full_nodes_and_stays_linear(t):
    out = expand_full(t)
    assert not any(isinstance(s, (FullAnd, FullOr)) for s in postorder(out))
    assert _dag_size(out) <= 4 * _dag_size(t)


def reference_expand_full(t):
    match t:
        case Const(_) | Atom(_) | Var(_):
            return t
        case Not(p):
            return Not(reference_expand_full(p))
        case FullAnd(l, r):
            l2, r2 = reference_expand_full(l), reference_expand_full(r)
            return And(Or(l2, And(r2, FALSE)), r2)
        case FullOr(l, r):
            l2, r2 = reference_expand_full(l), reference_expand_full(r)
            return Or(And(l2, Or(r2, TRUE)), r2)
        case And(l, r) | Or(l, r):
            return type(t)(reference_expand_full(l), reference_expand_full(r))
        case Cond(a, g, b):
            return Cond(*map(reference_expand_full, (a, g, b)))


_REFERENCE_DUAL = {And: Or, Or: And, FullAnd: FullOr, FullOr: FullAnd}


def reference_dual(t):
    match t:
        case Const(v):
            return Const(not v)
        case Atom(_) | Var(_):
            return t
        case Not(p):
            return Not(reference_dual(p))
        case And(l, r) | Or(l, r) | FullAnd(l, r) | FullOr(l, r):
            return _REFERENCE_DUAL[type(t)](reference_dual(l), reference_dual(r))
        case _:
            raise ModeViolation("dual is not defined on conditional nodes")


def _outcome(fn, t):
    try:
        return fn(t)
    except ModeViolation as exc:
        return ModeViolation, str(exc)


def test_expand_full_and_dual_match_the_recursive_reference():
    rng = Random(5)
    for _ in range(3_000):
        t = random_term(rng, max_depth=rng.randint(0, 6), mode=rng.choice(MODES), variables=("x",))
        out = expand_full(t)
        assert out is reference_expand_full(t), t
        if not t._kinds & (FullAnd._kind | FullOr._kind):
            assert out is t
        assert _outcome(dual, t) == _outcome(reference_dual, t), t
    with pytest.raises(TypeError, match="not a term: 'x'"):
        expand_full("x")


def test_expand_full_and_dual_take_deep_terms_without_recursion():
    deep = 100_000
    nots = reduce(lambda acc, _: Not(acc), range(deep), FullAnd(A, B))
    expected = reduce(lambda acc, _: Not(acc), range(deep), expand_full(FullAnd(A, B)))
    assert expand_full(nots) is expected
    assert dual(nots) is reduce(lambda acc, _: Not(acc), range(deep), FullOr(A, B))
    chain = reduce(lambda acc, i: FullAnd(acc, Atom(f"a{i}")), range(1, 10_000), Atom("a0"))
    assert not expand_full(chain)._kinds & (FullAnd._kind | FullOr._kind)
    assert dual(dual(chain)) is chain
    with pytest.raises(ModeViolation, match="conditional"):
        dual(Not(reduce(lambda acc, _: Not(acc), range(deep), Cond(A, B, A))))


def test_mode_checks_expansion_and_dual_visit_shared_subterms_once():
    t = _shared_template(30)
    full = A
    for _ in range(30):
        full = FullAnd(full, FullOr(full, X))
    for fn, args in [
        (check_mode, (t, "open")),
        (check_mode, (Not(Cond(t, full, A)), "open")),
        (expand_full, (full,)),
        (expand_full, (Cond(t, X, A),)),
        (dual, (t,)),
        (dual, (full,)),
    ]:
        started = time.perf_counter()
        fn(*args)
        assert time.perf_counter() - started < 0.05, fn.__name__
    with pytest.raises(ModeViolation, match="Var node not allowed in mode 'scl'"):
        check_mode(And(Or(B, full), t), "scl")
    with pytest.raises(ModeViolation, match="FullAnd node not allowed in mode 'cp'"):
        check_mode(Cond(A, full, t), "cp")
    expected = X
    for _ in range(30):
        expected = Or(expected, And(expected, A))
    assert dual(t) is expected


def test_atom_and_variable_name_rules():
    with pytest.raises(ValueError):
        Atom("1bad")
    with pytest.raises(ValueError):
        Atom("T")
    with pytest.raises(ValueError):
        Var("")
    Atom("look_left2")


def test_equation_variables_and_str():
    eq = Equation(And(X, Y), Or(Y, Z), "t")
    assert eq.variables == {"x", "y", "z"}
    assert str(eq) == "$x && $y = $y || $z"


def test_variables_and_closedness():
    assert variables(parse("$x && (a || $y)", "open")) == {"x", "y"}
    assert variables(parse("a && b")) == frozenset()


# ---- the JSON encoder: one dict per distinct subterm, without recursion


def reference_term_to_json(t):
    """The recursive encoder that ``term_to_json`` replaced."""
    match t:
        case Const(v):
            return {"kind": "true" if v else "false"}
        case Atom(name):
            return {"kind": "atom", "name": name}
        case Var(name):
            return {"kind": "var", "name": name}
        case Not(p):
            return {"kind": "not", "arg": reference_term_to_json(p)}
        case And(l, r):
            return {"kind": "and", "l": reference_term_to_json(l), "r": reference_term_to_json(r)}
        case Or(l, r):
            return {"kind": "or", "l": reference_term_to_json(l), "r": reference_term_to_json(r)}
        case FullAnd(l, r):
            return {"kind": "fulland", "l": reference_term_to_json(l), "r": reference_term_to_json(r)}
        case FullOr(l, r):
            return {"kind": "fullor", "l": reference_term_to_json(l), "r": reference_term_to_json(r)}
        case Cond(a, g, b):
            return {
                "kind": "cond",
                "then": reference_term_to_json(a),
                "if": reference_term_to_json(g),
                "else": reference_term_to_json(b),
            }


def json_objects(data):
    """The distinct dicts reachable from ``data``, by identity, without recursion."""
    seen, stack = {}, [data]
    while stack:
        d = stack.pop()
        if id(d) not in seen:
            seen[id(d)] = d
            stack += [v for v in d.values() if isinstance(v, dict)]
    return seen


def test_term_to_json_matches_the_recursive_encoder():
    rng = Random(41)
    for mode in MODES:
        for _ in range(300):
            t = random_term(rng, mode=mode, max_depth=rng.randint(1, 6))
            got, expected = term_to_json(t), reference_term_to_json(t)
            assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
            assert json.dumps(got) == json.dumps(expected)  # and the same key order


def test_term_to_json_takes_deep_terms_without_recursion():
    deep = 100_000
    data = term_to_json(reduce(lambda acc, _: Not(acc), range(deep), A))
    for _ in range(deep):
        assert data.keys() == {"kind", "arg"} and data["kind"] == "not"
        data = data["arg"]
    assert data == {"kind": "atom", "name": "a"}
    data = term_to_json(reduce(And, [Atom(f"a{i}") for i in range(deep)]))
    for i in reversed(range(1, deep)):
        assert data["kind"] == "and" and data["r"] == {"kind": "atom", "name": f"a{i}"}
        data = data["l"]
    assert data == {"kind": "atom", "name": "a0"}


def test_term_to_json_makes_one_dict_per_distinct_subterm():
    for t in (_shared_template(30), reduce(And, [Or(A, B)] * 40)):
        started = time.perf_counter()
        data = term_to_json(t)
        assert time.perf_counter() - started < 0.05
        assert len(json_objects(data)) == len(list(postorder(t)))
