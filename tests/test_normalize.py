import random
import time
from functools import reduce

import pytest

from sclkit import (
    FALSE,
    TRUE,
    And,
    Atom,
    Const,
    ModeViolation,
    NonClosedTerm,
    Not,
    NotInNormalForm,
    Or,
    SnfClass,
    TreeTooLarge,
    Var,
    and_nf,
    and_star_fterm,
    and_star_tstar,
    and_star_tterm,
    classify,
    decide_eq,
    eval_tree,
    invert,
    neg_nf,
    neg_star,
    nf,
    or_nf,
    parse,
    substitute,
)
from sclkit import normalize, terms, trees
from sclkit.axioms import dual_equation, eqfscl_axioms
from sclkit.generate import (
    random_fterm,
    random_lterm,
    random_scl_term,
    random_snf_term,
    random_star_term,
    random_substitution,
    random_tterm,
)
from sclkit.normalize import in_normal_form, is_star_class
from sclkit.terms import MODES, postorder
from generators import random_term


def test_classify_examples():
    assert classify(TRUE) is SnfClass.T_TERM
    assert classify(FALSE) is SnfClass.F_TERM
    assert classify(parse("(a && T) || F")) is SnfClass.L_TERM
    assert classify(parse("(!a && T) || F")) is SnfClass.L_TERM
    assert classify(parse("a")) is SnfClass.NOT_SNF
    assert classify(parse("!a")) is SnfClass.NOT_SNF
    assert classify(nf(parse("a"))) is SnfClass.T_STAR_TERM


def test_classify_respects_associativity():
    # disjunction is right-associative inside T-terms
    assert classify(parse("(a && T) || ((b && T) || T)")) is SnfClass.T_TERM
    assert classify(parse("((a && T) || (b && T)) || T")) is SnfClass.NOT_SNF
    # *-term combinations associate to the left
    l = "((a && T) || F)"
    assert classify(parse(f"({l} && {l}) && {l}")) is SnfClass.C_TERM
    assert classify(parse(f"{l} && ({l} && {l})")) is SnfClass.NOT_SNF


def test_classify_matches_generators():
    rng = random.Random(0)
    for _ in range(200):
        assert classify(random_tterm(rng)) is SnfClass.T_TERM
        assert classify(random_fterm(rng)) is SnfClass.F_TERM
        assert classify(random_lterm(rng)) is SnfClass.L_TERM
        star = random_star_term(rng, budget=rng.randint(1, 4))
        assert classify(star) in (SnfClass.L_TERM, SnfClass.C_TERM, SnfClass.D_TERM)


# The term-level classifier as it was when it cached each category on the
# term, with a dict made for the call in place of that cache.  Kept as an
# oracle for ``classify``, which reads categories off a node table.


def reference_classify(t):
    cats = {}
    stack = [t]
    while stack:
        need = _reference_category(stack[-1], cats)
        if need.__class__ is SnfClass:
            cats[stack.pop()] = need
        else:
            stack.append(need)
    return cats[t]


def _reference_category(t, cats):
    """The category of ``t``, or the first subterm it reads whose category
    is not in ``cats`` yet."""
    cls = type(t)
    if cls is Or or cls is And:
        left, rc = t.left, cats.get(t.right)
        if rc is None:
            return t.right
        if cls is Or:
            if type(left) is And:
                a, pc = left.left, cats.get(left.right)
                if type(a) is Atom:
                    if pc is None:
                        return left.right
                    if pc is SnfClass.T_TERM:
                        if rc is SnfClass.T_TERM:
                            return SnfClass.T_TERM
                        if rc is SnfClass.F_TERM:
                            return SnfClass.L_TERM
                elif type(a) is Not and type(a.arg) is Atom:
                    if pc is None:
                        return left.right
                    if pc is SnfClass.T_TERM and rc is SnfClass.F_TERM:
                        return SnfClass.L_TERM
            if (lc := cats.get(left)) is None:
                return left
            if is_star_class(lc) and rc in (SnfClass.L_TERM, SnfClass.C_TERM):
                return SnfClass.D_TERM
            return SnfClass.NOT_SNF
        if type(left) is Or and type(left.left) is Atom:
            if (pc := cats.get(left.right)) is None:
                return left.right
            if pc is SnfClass.F_TERM and rc is SnfClass.F_TERM:
                return SnfClass.F_TERM
        if (lc := cats.get(left)) is None:
            return left
        if is_star_class(lc) and rc in (SnfClass.L_TERM, SnfClass.D_TERM):
            return SnfClass.C_TERM
        if lc is SnfClass.T_TERM and is_star_class(rc):
            return SnfClass.T_STAR_TERM
        return SnfClass.NOT_SNF
    if cls is Const:
        return SnfClass.T_TERM if t.value else SnfClass.F_TERM
    return SnfClass.NOT_SNF


def assert_classify_matches_the_reference(draws):
    for t in draws:
        assert classify(t) is reference_classify(t), t


def perturbed(rng, t, pieces):
    """``t`` with one subterm, met on a random walk down from the top,
    replaced by one of ``pieces``: a near miss of the grammar when ``t`` is
    in it."""
    cls = type(t)
    if (cls is And or cls is Or) and rng.random() < 0.8:
        if rng.random() < 0.5:
            return cls(perturbed(rng, t.left, pieces), t.right)
        return cls(t.left, perturbed(rng, t.right, pieces))
    if cls is Not and rng.random() < 0.8:
        return Not(perturbed(rng, t.arg, pieces))
    return rng.choice(pieces)


def test_classify_matches_the_term_level_reference_on_draws():
    # every distinct subterm too, so that each category and each near miss
    # of the grammar is met, not only the categories at the top
    rng = random.Random(23)
    draws = [random_term(rng, "ab", rng.randint(0, 6), mode, ("x", "y")) for mode in MODES for _ in range(200)]
    draws += [random_snf_term(rng, budget=rng.randint(1, 6), max_depth=rng.randint(1, 3)) for _ in range(200)]
    draws += [random_star_term(rng, budget=rng.randint(1, 6), max_depth=rng.randint(1, 3)) for _ in range(200)]
    draws += [random_tterm(rng, max_depth=rng.randint(0, 4)) for _ in range(100)]
    draws += [random_fterm(rng, max_depth=rng.randint(0, 4)) for _ in range(100)]
    draws += [random_lterm(rng, max_depth=rng.randint(0, 4)) for _ in range(100)]
    draws += [nf(random_scl_term(rng, max_depth=rng.randint(1, 6))) for _ in range(200)]
    pieces = [TRUE, FALSE, parse("a"), parse("!a"), parse("!!a"), parse("!(a && b)"), parse("a || b"), parse("a && b")]
    draws += [perturbed(rng, rng.choice(draws[-1_100:]), pieces) for _ in range(3_000)]
    # the draws reach every category
    assert {reference_classify(t) for t in draws} == set(SnfClass)
    assert_classify_matches_the_reference({s: None for t in draws for s in postorder(t)})


def test_classify_matches_the_term_level_reference_on_deep_and_shared_terms():
    atoms = [Atom(f"a{i}") for i in range(10_000)]
    units = [Or(And(a, TRUE), FALSE) for a in atoms]
    right = lambda op, xs: reduce(lambda r, x: op(x, r), reversed(xs[:-1]), xs[-1])
    chains = [reduce(And, atoms), right(And, atoms), reduce(Or, atoms), right(Or, atoms)]
    chains += [reduce(And, units), right(And, units), reduce(Or, units), right(Or, units)]
    chains += [right(lambda a, t: Or(And(a, TRUE), t), atoms + [TRUE])]  # a T-term 10^4 deep
    chains += [nf(reduce(And, atoms))]
    shared = parse("c")
    for i in range(30):
        shared = Or(And(shared, parse("a")), Not(shared)) if i % 2 else And(Or(shared, parse("b")), shared)
    cases = chains + [shared, nf(shared, cap=None), *shared_pieces(30)]
    assert_classify_matches_the_reference(cases)
    assert {reference_classify(t) for t in cases} == set(SnfClass) - {SnfClass.L_TERM}


def test_nf_base_cases():
    assert nf(parse("T")) == TRUE
    assert nf(parse("F")) == FALSE
    assert nf(parse("a")) == parse("T && ((a && T) || F)")
    assert nf(parse("!a")) == parse("T && ((!a && T) || F)")


def test_neg_nf_clauses():
    assert neg_nf(TRUE) == FALSE
    assert neg_nf(FALSE) == TRUE
    assert neg_nf(parse("(a && T) || T")) == parse("(a || F) && F")
    assert neg_nf(parse("(a || F) && F")) == parse("(a && T) || T")
    assert neg_nf(parse("T && ((a && T) || F)")) == parse("T && ((!a && T) || F)")


def test_neg_star_clauses():
    assert neg_star(parse("(a && T) || F")) == parse("(!a && T) || F")
    assert neg_star(parse("(!a && T) || F")) == parse("(a && T) || F")
    l = "((a && T) || F)"
    assert neg_star(parse(f"{l} && {l}")) == parse(
        "((!a && T) || F) || ((!a && T) || F)"
    )
    assert neg_star(parse(f"{l} || {l}")) == parse(
        "((!a && T) || F) && ((!a && T) || F)"
    )


def test_and_nf_clauses():
    snf_a = nf(parse("a"))
    assert and_nf(TRUE, snf_a) == snf_a
    assert and_nf(FALSE, snf_a) == FALSE
    assert and_nf(parse("(a || F) && F"), snf_a) == parse("(a || F) && F")
    assert and_nf(parse("(a && T) || T"), FALSE) == parse("(a || F) && F")


def test_aux_functions_reject_wrong_categories():
    with pytest.raises(NotInNormalForm):
        neg_nf(parse("a"))
    with pytest.raises(NotInNormalForm):
        neg_star(TRUE)
    with pytest.raises(NotInNormalForm):
        and_nf(parse("a"), TRUE)
    with pytest.raises(NotInNormalForm):
        and_star_tterm(parse("(a && T) || F"), FALSE)
    with pytest.raises(NotInNormalForm):
        and_star_fterm(parse("(a && T) || F"), TRUE)
    with pytest.raises(NotInNormalForm):
        and_star_tstar(parse("(a && T) || F"), TRUE)


def test_nf_rejects_non_scl_nodes():
    with pytest.raises(ModeViolation):
        nf(parse("a <| b |> c"))
    with pytest.raises(ModeViolation):
        nf(parse("a &.& b"))


def test_nf_preserves_tree_and_shape():
    rng = random.Random(13)
    for _ in range(400):
        t = random_scl_term(rng, max_depth=6)
        n = nf(t)
        assert classify(n) in (
            SnfClass.T_TERM,
            SnfClass.F_TERM,
            SnfClass.T_STAR_TERM,
        )
        assert eval_tree(n) == eval_tree(t)


def test_or_nf_matches_disjunction():
    rng = random.Random(14)
    for _ in range(100):
        p = random_scl_term(rng, max_depth=4)
        q = random_scl_term(rng, max_depth=4)
        assert eval_tree(or_nf(nf(p), nf(q))) == eval_tree(Or(p, q))


def test_canonicity_on_equal_pairs():
    # hand-built equal pairs: closed axiom instances normalize identically
    rng = random.Random(15)
    for eq in eqfscl_axioms() + [dual_equation(e) for e in eqfscl_axioms()]:
        for _ in range(20):
            subst = random_substitution(rng, sorted(eq.variables), max_depth=4)
            lhs = substitute(eq.lhs, subst)
            rhs = substitute(eq.rhs, subst)
            assert nf(lhs) == nf(rhs), eq.tag
            assert decide_eq(lhs, rhs, "tree") and decide_eq(lhs, rhs, "nf")


def test_canonicity_both_directions():
    rng = random.Random(16)
    for _ in range(500):
        p = random_scl_term(rng, max_depth=5)
        q = random_scl_term(rng, max_depth=5)
        assert (nf(p) == nf(q)) == (eval_tree(p) == eval_tree(q))


def test_leaf_occurrences_per_category():
    rng = random.Random(17)
    profile = lambda x: (x.has_true, x.has_false)
    for _ in range(150):
        assert profile(eval_tree(random_tterm(rng))) == (True, False)
        assert profile(eval_tree(random_fterm(rng))) == (False, True)
        star = random_star_term(rng, budget=rng.randint(1, 3))
        assert profile(eval_tree(star)) == (True, True)


def test_fterm_absorbs_right_conjunct():
    # an always-false term ignores whatever is conjoined after it; dually
    # an always-true term ignores a following disjunct
    rng = random.Random(18)
    for _ in range(150):
        x = random_scl_term(rng, max_depth=4)
        f = random_fterm(rng)
        t = random_tterm(rng)
        assert eval_tree(And(f, x)) == eval_tree(f)
        assert eval_tree(Or(t, x)) == eval_tree(t)


def test_non_identities():
    assert not decide_eq(parse("a && a"), parse("a"))
    assert not decide_eq(parse("a && b"), parse("b && a"))
    assert not decide_eq(parse("a && (a || b)"), parse("a"))
    assert not decide_eq(parse("(a && b) || c"), parse("(a || c) && (b || c)"))


def test_engines_agree():
    rng = random.Random(19)
    for _ in range(300):
        p = random_scl_term(rng, max_depth=5)
        q = random_scl_term(rng, max_depth=5)
        assert decide_eq(p, q, "tree") == decide_eq(p, q, "nf")
    with pytest.raises(ValueError):
        decide_eq(parse("a"), parse("a"), "magic")


# The normalization helpers as they were before they were memoized: plain
# recursion that computes every repeated call again.  Kept as an oracle.


def _reference_reject(t, expected):
    return NotInNormalForm(f"expected a {expected}, got {classify(t).label}: {t}")


def reference_nf(t, cap):
    def checked(result):
        if cap is not None and result.node_count > cap:
            raise TreeTooLarge(f"normal form exceeds the node cap of {cap}")
        return result

    match t:
        case Const(_):
            return t
        case Atom(_):
            return And(TRUE, Or(And(t, TRUE), FALSE))
        case Var(name):
            raise NonClosedTerm(f"cannot normalize open term: ${name}")
        case Not(p):
            return checked(reference_neg_nf(reference_nf(p, cap)))
        case And(l, r):
            return checked(reference_and_nf(reference_nf(l, cap), reference_nf(r, cap)))
        case Or(l, r):
            a = reference_neg_nf(reference_nf(l, cap))
            b = reference_neg_nf(reference_nf(r, cap))
            return checked(reference_neg_nf(reference_and_nf(a, b)))
        case _:
            raise ModeViolation(f"cannot normalize {type(t).__name__} nodes")


def reference_neg_nf(t):
    match classify(t):
        case SnfClass.T_TERM:
            if t == TRUE:
                return FALSE
            return And(Or(t.left.left, reference_neg_nf(t.right)), reference_neg_nf(t.left.right))
        case SnfClass.F_TERM:
            if t == FALSE:
                return TRUE
            return Or(And(t.left.left, reference_neg_nf(t.right)), reference_neg_nf(t.left.right))
        case SnfClass.T_STAR_TERM:
            return And(t.left, reference_neg_star(t.right))
        case _:
            raise _reference_reject(t, "term in normal form")


def reference_neg_star(t):
    match classify(t):
        case SnfClass.L_TERM:
            head, pt, qf = t.left.left, t.left.right, t.right
            flipped = Not(head) if isinstance(head, Atom) else head.arg
            return Or(And(flipped, reference_neg_nf(qf)), reference_neg_nf(pt))
        case SnfClass.C_TERM:
            return Or(reference_neg_star(t.left), reference_neg_star(t.right))
        case SnfClass.D_TERM:
            return And(reference_neg_star(t.left), reference_neg_star(t.right))
        case _:
            raise _reference_reject(t, "*-term")


def reference_and_nf(p, q):
    pc, qc = classify(p), classify(q)
    if not in_normal_form(qc):
        raise _reference_reject(q, "term in normal form")
    match pc:
        case SnfClass.T_TERM:
            if p == TRUE:
                return q
            a, pt, qt = p.left.left, p.left.right, p.right
            if qc is SnfClass.T_TERM:
                return Or(And(a, reference_and_nf(pt, q)), reference_and_nf(qt, q))
            if qc is SnfClass.F_TERM:
                return And(Or(a, reference_and_nf(qt, q)), reference_and_nf(pt, q))
            return And(reference_and_nf(p, q.left), q.right)
        case SnfClass.F_TERM:
            return p
        case SnfClass.T_STAR_TERM:
            if qc is SnfClass.T_TERM:
                return And(p.left, reference_and_star_tterm(p.right, q))
            if qc is SnfClass.F_TERM:
                return reference_and_nf(p.left, reference_and_star_fterm(p.right, q))
            return And(p.left, reference_and_star_tstar(p.right, q))
        case _:
            raise _reference_reject(p, "term in normal form")


def reference_and_star_tterm(s, r):
    if classify(r) is not SnfClass.T_TERM:
        raise _reference_reject(r, "T-term")
    match classify(s):
        case SnfClass.L_TERM:
            return Or(And(s.left.left, reference_and_nf(s.left.right, r)), s.right)
        case SnfClass.C_TERM:
            return And(s.left, reference_and_star_tterm(s.right, r))
        case SnfClass.D_TERM:
            return Or(reference_and_star_tterm(s.left, r), reference_and_star_tterm(s.right, r))
        case _:
            raise _reference_reject(s, "*-term")


def reference_and_star_fterm(s, r):
    if classify(r) is not SnfClass.F_TERM:
        raise _reference_reject(r, "F-term")
    match classify(s):
        case SnfClass.L_TERM:
            head, pt, qf = s.left.left, s.left.right, s.right
            if isinstance(head, Atom):
                return And(Or(head, qf), reference_and_nf(pt, r))
            return And(Or(head.arg, reference_and_nf(pt, r)), qf)
        case SnfClass.C_TERM:
            return reference_and_star_fterm(s.left, reference_and_star_fterm(s.right, r))
        case SnfClass.D_TERM:
            return reference_and_star_fterm(
                reference_neg_star(reference_and_star_tterm(s.left, reference_neg_nf(r))),
                reference_and_star_fterm(s.right, r),
            )
        case _:
            raise _reference_reject(s, "*-term")


def reference_and_star_tstar(s, q):
    if classify(q) is not SnfClass.T_STAR_TERM:
        raise _reference_reject(q, "T-*-term")
    qt, qs = q.left, q.right
    match classify(qs):
        case SnfClass.L_TERM | SnfClass.D_TERM:
            return And(reference_and_star_tterm(s, qt), qs)
        case SnfClass.C_TERM:
            return And(reference_and_star_tstar(s, And(qt, qs.left)), qs.right)


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


CAPS = (None, 0, 1, 2, 3, 10, 100)


@pytest.mark.parametrize("seed", [1, 2])
def test_nf_matches_the_unmemoized_reference(seed):
    rng = random.Random(seed)
    terms = [random_scl_term(rng, max_depth=rng.randint(1, 7)) for _ in range(300)]
    # open terms and other node kinds, for the errors and their order
    terms += [random_term(rng, "ab", 4, mode, ("x", "y")) for mode in ("open", "enriched") for _ in range(60)]
    raised = 0
    for t in terms:
        for cap in CAPS:
            expected = outcome(reference_nf, t, cap)
            assert outcome(nf, t, cap) == expected
            raised += isinstance(expected, tuple)
    assert raised > 500  # caps and bad nodes do fail some calls


@pytest.mark.parametrize("seed", [3, 4])
def test_helpers_match_the_unmemoized_reference(seed):
    rng = random.Random(seed)
    draws = [random_snf_term(rng, budget=4, max_depth=3) for _ in range(40)]
    draws += [random_star_term(rng, budget=rng.randint(1, 4)) for _ in range(40)]
    draws += [random_tterm(rng, max_depth=3) for _ in range(15)] + [random_fterm(rng, max_depth=3) for _ in range(15)]
    draws += [random_lterm(rng) for _ in range(10)] + [parse("a"), parse("!a")]
    # terms outside the grammar, which the helpers take in as opaque nodes
    draws += [parse("$x", "open"), parse("a <| b |> c"), parse("a &.& b"), parse("!!a")]
    draws += [random_scl_term(rng, max_depth=rng.randint(1, 4)) for _ in range(10)]
    unary = [(neg_nf, reference_neg_nf), (neg_star, reference_neg_star)]
    binary = [
        (and_nf, reference_and_nf),
        (and_star_tterm, reference_and_star_tterm),
        (and_star_fterm, reference_and_star_fterm),
        (and_star_tstar, reference_and_star_tstar),
    ]
    for p in draws:
        for fn, reference in unary:
            assert outcome(fn, p) == outcome(reference, p)
        for q in rng.sample(draws, 25):
            for fn, reference in binary:
                assert outcome(fn, p, q) == outcome(reference, p, q)
            assert outcome(or_nf, p, q) == outcome(
                lambda p, q: reference_neg_nf(reference_and_nf(reference_neg_nf(p), reference_neg_nf(q))), p, q
            )


def test_and_star_fterm_walks_a_long_c_term_in_a_loop():
    # u0 && ... && u(n-1) && F: the normal form of the chain is T && s for a
    # left-nested c-term s, which and_star_fterm walks one unit per step
    # (disjunctions as units double the normal form, and the unmemoized
    # reference with it, so the long chains take literals only)
    rng = random.Random(12)
    literals = [parse("a"), parse("!a"), parse("b")]
    units = literals + [parse("a || b"), parse("!a || b && c"), parse("a && !b")]
    for n, pool in [(1, units), (2, units), (3, units), (10, units), (20, units), (300, literals)]:
        for _ in range(5):
            t = And(reduce(And, [rng.choice(pool) for _ in range(n)]), FALSE)
            assert outcome(nf, t, None) == outcome(reference_nf, t, None)
    chain = reduce(And, [Atom(f"a{i}") for i in range(10_000)])
    star = nf(chain).right
    assert classify(star) is SnfClass.C_TERM
    for f in (nf(parse("b && F")), FALSE):
        normal = and_star_fterm(star, f)
        assert classify(normal) is SnfClass.F_TERM
        assert eval_tree(normal) is eval_tree(And(chain, f))
    assert nf(And(chain, FALSE)) is normal


def test_negation_is_an_involution_on_normal_forms():
    # the helpers enter each negation both ways round in their memos; a
    # fresh helper per call checks that the reverse entry is the negation
    rng = random.Random(11)
    for _ in range(3_000):
        t = random_snf_term(rng, budget=rng.randint(1, 6), max_depth=rng.randint(1, 3))
        assert neg_nf(neg_nf(t)) is t, t
    for _ in range(2_000):
        s = random_star_term(rng, budget=rng.randint(1, 6), max_depth=rng.randint(1, 3))
        assert neg_star(neg_star(s)) is s, s


def test_nf_is_linear_in_distinct_subterms():
    # each level holds the one below twice: the logical size of the term and
    # of its normal form doubles per level, the object graphs grow by a
    # constant; every helper has to find its repeated calls in its memo
    t = parse("c")
    for i in range(30):
        t = Or(And(t, parse("a")), Not(t)) if i % 2 else And(Or(t, parse("b")), t)
    start = time.perf_counter()
    n = nf(t, cap=None)
    assert time.perf_counter() - start < 0.5
    assert n.node_count > 2**30 and len(set(postorder(n))) < 500
    assert classify(n) is SnfClass.T_STAR_TERM
    with pytest.raises(TreeTooLarge):
        nf(t)


def _nf_and_tree_sizes(terms):
    """``(|nf(t)|, |tree(t)|)`` of each term, in logical nodes: the normal
    forms are folded into one table, and the trees shaped with one memo."""
    h, shapes = normalize._Helpers(), {}
    return [(h.size[h.fold(t, None)], trees._shape(t, None, shapes)[0]) for t in terms]


def test_the_normal_form_bound_holds_and_is_met_on_every_small_term(corpus):
    """``2 * |nf(t)| <= 7 * |tree(t)| - 5``, the bound that lets the ``nf``
    engine of ``decide_eq`` decide by tree shape; it is met on 8,006 of the
    22,136 compound terms, ``!a`` among them, so it cannot be tightened."""
    compound = [t for t in corpus if t.node_count > 1]
    assert len(compound) == 22_136
    sizes = _nf_and_tree_sizes(compound)
    assert all(2 * m <= 7 * size - 5 for m, size in sizes)
    met = {t for t, (m, size) in zip(compound, sizes) if 2 * m == 7 * size - 5}
    assert len(met) == 8_006 and Not(Atom("a")) in met


@pytest.mark.parametrize("seed", [0, 1])
def test_the_normal_form_bound_holds_on_random_terms(seed):
    rng = random.Random(seed)
    sample = [random_scl_term(rng, max_depth=rng.randint(6, 8)) for _ in range(1_000)]
    assert all(2 * m <= 7 * size - 5 for m, size in _nf_and_tree_sizes(sample))


def shared_pieces(levels):
    """A T-term, an F-term and a *-term, each holding the one of the level
    below twice: the logical size doubles per level, the object graph grows
    by a constant."""
    a = parse("a")
    t, f, star = TRUE, FALSE, parse("(a && T) || F")
    for i in range(levels):
        t, f = Or(And(a, t), t), And(Or(a, f), f)
        star = Or(star, star) if i % 2 == 0 else And(star, star)
    return t, f, star


def test_helpers_find_repeated_calls_in_their_memos():
    # without its memo each call below makes about 2**24 calls
    t, f, star = shared_pieces(24)
    cases = [(neg_nf, t), (neg_nf, f), (neg_star, star), (and_nf, t, t)]
    cases += [(and_star_tterm, shared_pieces(48)[2], t)]
    for fn, *args in cases:
        start = time.perf_counter()
        fn(*args)
        assert time.perf_counter() - start < 0.5, fn.__name__


def test_nf_on_a_right_nested_chain():
    # classify fills the categories of a deep term without recursion
    atoms = [Atom(f"a{i}") for i in range(500)]
    chain = atoms[-1]
    for a in reversed(atoms[:-1]):
        chain = And(a, chain)
    normal = nf(chain)
    assert classify(normal) is SnfClass.T_STAR_TERM
    assert eval_tree(normal) is eval_tree(chain)


def test_nf_takes_long_negated_and_disjoined_chains():
    # the negation of a chain's normal form walks its c-term, and the
    # conjunction in a disjunction walks the negated d-term, along the left
    # spine in a loop
    chain = reduce(And, [Atom(f"a{i}") for i in range(10_000)])
    for t in (Not(chain), Or(chain, parse("b"))):
        normal = nf(t)
        assert classify(normal) is SnfClass.T_STAR_TERM
        assert eval_tree(normal) is eval_tree(t)
    rng = random.Random(21)
    units = [parse("a"), parse("!a"), parse("b"), parse("a || b"), parse("!a || b && c"), parse("a && !b")]
    for n in (1, 2, 3, 5, 10, 20):
        for _ in range(5):
            chain = reduce(And, [rng.choice(units) for _ in range(n)])
            for t in (Not(chain), Or(chain, rng.choice(units)), Or(chain, FALSE)):
                assert outcome(nf, t, None) == outcome(reference_nf, t, None)


def test_nf_takes_a_right_nested_chain_past_the_recursion_limit():
    # the right operand's normal form is T && s for a left-nested c-term s,
    # which and_star_tstar walks along its left spine in a loop; nf of the
    # chain stays quadratic, as it normalizes every suffix
    atoms = [Atom(f"a{i}") for i in range(1_000)]
    chain = reduce(lambda r, a: And(a, r), reversed(atoms[:-1]), atoms[-1])
    normal = nf(chain)
    assert normal is invert(eval_tree(chain))
    assert normal is nf(reduce(And, atoms))


def _alternating(n, last):
    """a0 || (a1 && (a2 || ...(a(n-1) op last))), the connectives alternating."""
    t = last
    for i in reversed(range(n)):
        t = (Or if i % 2 == 0 else And)(Atom(f"a{i}"), t)
    return t


def test_nf_takes_an_alternating_right_nested_chain_conjoined_with_an_atom():
    # the chain's normal form is T && s for a *-term s whose c- and d-terms
    # nest to the right; and_star_tterm conjoins the T-term of b into their
    # right operands from a stack, not by recursion
    for n in (1, 2, 3, 4, 7, 12):
        for last in (parse("c"), TRUE, FALSE):
            t = And(_alternating(n, last), parse("b"))
            assert outcome(nf, t, None) == outcome(reference_nf, t, None), t
    t = And(_alternating(9_999, parse("a9999")), parse("b"))
    normal = nf(t)
    assert classify(normal) is SnfClass.T_STAR_TERM
    assert eval_tree(normal) is eval_tree(t)
    assert decide_eq(t, normal, "nf")


def test_nf_interns_only_its_normal_form(monkeypatch):
    # the clauses run on a node table made for the call; the terms entered
    # into the unique table are those of the result, each at most once, and
    # every node carries the category classify gives its term
    entered, tables = [], []

    class Recording(normalize._Helpers):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            tables.append(self)

    def counting(key, obj, enter=terms._enter):
        entered.append(key)
        return enter(key, obj)

    rng = random.Random(22)
    cases = [random_scl_term(rng, max_depth=rng.randint(1, 7)) for _ in range(3_000)]
    shared = parse("c")
    for i in range(30):
        shared = Or(And(shared, parse("a")), Not(shared)) if i % 2 else And(Or(shared, parse("b")), shared)
    cases.append(shared)
    monkeypatch.setattr(normalize, "_Helpers", Recording)
    monkeypatch.setattr(terms, "_enter", counting)
    for t in cases:
        entered.clear()
        normal = nf(t, cap=None)
        assert len(entered) <= len(set(postorder(normal))), t
    assert len(tables) == len(cases)
    for t, table in zip(cases, tables):
        for n in range(len(table.cat)):
            assert classify(table.export(n)) is table.cat[n], (t, n)
    assert sum(len(table.cat) for table in tables) > 30_000
