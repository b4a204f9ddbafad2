"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them all).
Every randomized check is seeded; expected values are frozen from the
fixed operation tables and from hand-traced defining clauses.
"""

import random
import time

from sclkit import (
    And,
    Decomposition,
    Equation,
    FullAnd,
    Leaf,
    Or,
    SnfClass,
    Var,
    cd,
    classify,
    dd,
    decide_eq,
    decide_eq_cp,
    enumerate_candidates,
    eval_in_model,
    eval_tree,
    expand_full,
    independence_suite,
    invert,
    is_nondecomposable,
    nf,
    parse,
    replace,
    tsd,
    valid_in_free_model,
    validates,
)
from sclkit.axioms import cp_axioms, derived_laws, dual_equation, eqfscl_axioms, eqfscl_minus
from sclkit.generate import (
    random_cterm,
    random_dterm,
    random_scl_term,
    random_snf_term,
    random_star_term,
    random_tterm,
)
from generators import random_tree

SEED = 987


def _report(number: int, name: str, failures: list, elapsed: float | None = None):
    status = "PASS" if not failures else f"FAIL ({len(failures)} failures)"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {number} ({name}): {status}{timing}")
    assert not failures, failures[:5]


def test_criterion_1_independence_suite_exact_values():
    started = time.perf_counter()
    failures = []
    expected_values = {
        "F2": (0, 1),
        "F4": (1, 0),
        "F5": (0, 1),
        "F6": (2, 0),
        "F7": (2, 3),
        "F8": (3, 2),
        "F9": (3, 4),
        "F10": (3, 1),
    }
    suite = independence_suite()
    axioms = eqfscl_minus()
    if [e.tag for e in suite] != list(expected_values):
        failures.append("wrong model/axiom pairs")
    for entry in suite:
        for ax in axioms:
            result = validates(entry.model, ax)
            full_sweep = entry.model.size ** len(ax.variables)
            if result.valid and result.assignments_checked != full_sweep:
                failures.append(f"{entry.model.name}/{ax.tag}: not exhaustive")
            if result.valid != (ax.tag != entry.tag):
                failures.append(f"{entry.model.name}/{ax.tag}: wrong validity")
        values = (
            eval_in_model(entry.model, entry.refutation.lhs),
            eval_in_model(entry.model, entry.refutation.rhs),
        )
        if values != expected_values[entry.tag]:
            failures.append(f"{entry.tag} refutation values {values}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _report(1, "independence suite exact values", failures, elapsed)


def test_criterion_2_soundness_under_random_substitution():
    started = time.perf_counter()
    failures = []
    base = eqfscl_axioms()
    equations = base + [dual_equation(e) for e in base] + cp_axioms() + derived_laws()
    assert len(equations) == 31
    for eq in equations:
        result = valid_in_free_model(eq, samples=500, seed=SEED)
        if not result.valid:
            failures.append(f"{eq.tag}: fails at {result.witness}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 30s")
    _report(2, "soundness, 500 substitutions each", failures, elapsed)


def test_criterion_3_normal_forms():
    started = time.perf_counter()
    failures = []
    rng = random.Random(SEED)
    in_normal_form = (SnfClass.T_TERM, SnfClass.F_TERM, SnfClass.T_STAR_TERM)
    for index in range(2000):
        term = random_scl_term(rng, atoms=("a", "b", "c"), max_depth=7)
        try:
            normal = nf(term)
        except Exception as exc:  # the cap must not be reached here
            failures.append(f"#{index} {term}: {type(exc).__name__}")
            continue
        if classify(normal) not in in_normal_form:
            failures.append(f"#{index} {term}: bad shape {classify(normal).label}")
        if eval_tree(normal) != eval_tree(term):
            failures.append(f"#{index} {term}: tree changed")
    _report(3, "normal forms on 2000 random terms", failures, time.perf_counter() - started)


def test_criterion_4_inverse_identity():
    started = time.perf_counter()
    failures = []
    rng = random.Random(SEED + 1)
    for index in range(2000):
        term = random_snf_term(rng, budget=4, max_depth=2)
        if invert(eval_tree(term)) != term:
            failures.append(f"#{index} {term}")
    _report(4, "inverse on 2000 grammar terms", failures, time.perf_counter() - started)


def _handcrafted_pairs():
    """30 cases: closed axiom instances, the three-look crossing example,
    the four non-identities, derived-law instances, and assorted pairs."""
    closing = {"x": parse("a"), "y": parse("b"), "z": parse("c"), "w": parse("d")}
    cases = []
    for eq in eqfscl_axioms():  # 10 axiom instances
        lhs = _close(eq.lhs, closing)
        rhs = _close(eq.rhs, closing)
        cases.append((lhs, rhs, True))
    look = parse("left && (right && left)"), parse("(left && right) && left")
    cases.append((*look, True))  # 11
    cases += [  # 12-15: the four non-identities
        (parse("a && a"), parse("a"), False),
        (parse("a && b"), parse("b && a"), False),
        (parse("a && (a || b)"), parse("a"), False),
        (parse("(a && b) || c"), parse("(a || c) && (b || c)"), False),
    ]
    for eq in derived_laws():  # 16-22: seven derived-law instances
        cases.append((_close(eq.lhs, closing), _close(eq.rhs, closing), True))
    cases += [
        (expand_full(FullAnd(parse("a"), parse("F"))),
         expand_full(FullAnd(parse("F"), parse("a"))), True),  # 23
        (parse("a || T"), parse("T"), False),  # 24
        (parse("T && a"), parse("a"), True),  # 25
        (parse("a"), parse("b"), False),  # 26
        (parse("!!a"), parse("a"), True),  # 27
        (parse("a || (b || c)"), parse("(a || b) || c"), True),  # 28
        (parse("!(a && b)"), parse("!a || !b"), True),  # 29
        (parse("(a && F) || b"), parse("(a || T) && b"), True),  # 30
    ]
    return cases


def _close(term, closing):
    from sclkit import substitute

    return substitute(term, closing)


def test_criterion_5_engine_agreement():
    started = time.perf_counter()
    failures = []
    rng = random.Random(SEED + 2)
    pairs = [
        (random_scl_term(rng, max_depth=6), random_scl_term(rng, max_depth=6), None)
        for _ in range(1000)
    ]
    handcrafted = _handcrafted_pairs()
    assert len(handcrafted) == 30
    for index, (lhs, rhs, expected) in enumerate(pairs + handcrafted):
        verdicts = {
            decide_eq(lhs, rhs, "tree"),
            decide_eq(lhs, rhs, "nf"),
            decide_eq_cp(lhs, rhs),
        }
        if len(verdicts) != 1:
            failures.append(f"#{index}: engines disagree on {lhs} vs {rhs}")
        elif expected is not None and verdicts != {expected}:
            failures.append(f"#{index}: expected {expected} for {lhs} vs {rhs}")
    _report(5, "engine agreement on 1030 pairs", failures, time.perf_counter() - started)


def test_criterion_6_decomposition_theorems():
    started = time.perf_counter()
    failures = []
    rng = random.Random(SEED + 3)
    star_images = []
    for index in range(250):
        p = random_star_term(rng, budget=rng.randint(1, 3))
        q = random_dterm(rng, budget=rng.randint(1, 2))
        star_images += [p, q]
        tree = eval_tree(And(p, q))
        expected = Decomposition(replace(eval_tree(p), for_true=Leaf.HOLE), eval_tree(q))
        if cd(tree) != expected:
            failures.append(f"cd #{index}: {p} && {q}")
        if enumerate_candidates(tree, "cdd"):
            failures.append(f"cdd present #{index}: {p} && {q}")
    for index in range(250):
        p = random_star_term(rng, budget=rng.randint(1, 3))
        q = random_cterm(rng, budget=rng.randint(1, 2))
        star_images += [p, q]
        tree = eval_tree(Or(p, q))
        expected = Decomposition(replace(eval_tree(p), for_false=Leaf.HOLE), eval_tree(q))
        if dd(tree) != expected:
            failures.append(f"dd #{index}: {p} || {q}")
        if enumerate_candidates(tree, "ccd"):
            failures.append(f"ccd present #{index}: {p} || {q}")
    for index in range(500):
        p = random_tterm(rng)
        q = random_star_term(rng, budget=rng.randint(1, 3))
        star_images.append(q)
        tree = eval_tree(And(p, q))
        expected = Decomposition(replace(eval_tree(p), for_true=Leaf.HOLE), eval_tree(q))
        candidates = enumerate_candidates(tree, "ctsd")
        if tsd(tree) != expected:
            failures.append(f"tsd #{index}: {p} && {q}")
        if sum(1 for c in candidates if c.core.depth == candidates[0].core.depth) != 1:
            failures.append(f"tsd not unique #{index}: {p} && {q}")
    for term in star_images:
        if not is_nondecomposable(eval_tree(term)):
            failures.append(f"decomposable *-term image: {term}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 60s")
    _report(6, "decomposition theorems", failures, elapsed)


def test_criterion_7_repeated_replacement_identity():
    started = time.perf_counter()
    failures = []
    rng = random.Random(SEED + 4)
    for index in range(1000):
        x = random_tree(rng, max_depth=4)
        y1, z1 = random_tree(rng, max_depth=3), random_tree(rng, max_depth=3)
        y2, z2 = random_tree(rng, max_depth=3), random_tree(rng, max_depth=3)
        lhs = replace(replace(x, y1, z1), y2, z2)
        rhs = replace(x, replace(y1, y2, z2), replace(z1, y2, z2))
        if lhs != rhs:
            failures.append(f"#{index}")
    _report(7, "replacement identity on 1000 samples", failures, time.perf_counter() - started)


def test_criterion_8_full_sequential_bridge():
    started = time.perf_counter()
    failures = []
    a = parse("a")
    false = parse("F")
    if eval_tree(expand_full(FullAnd(a, false))) != eval_tree(expand_full(FullAnd(false, a))):
        failures.append("a &.& F differs from F &.& a")
    x = Var("x")
    law = Equation(expand_full(FullAnd(x, false)), expand_full(FullAnd(false, x)), "full")
    result = valid_in_free_model(law, samples=200, seed=SEED + 5)
    if not result.valid:
        failures.append(f"translated identity fails at {result.witness}")
    _report(8, "full-sequential bridge", failures, time.perf_counter() - started)
