from random import Random

import pytest

from sclkit import (
    Equation,
    FiniteModel,
    FreeModelCheck,
    ModeViolation,
    UnboundVariable,
    UninterpretedAtom,
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
from sclkit.axioms import eqfscl_axioms, eqfscl_minus
from sclkit.generate import random_scl_term, random_substitution

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


def test_valid_in_free_model():
    assert valid_in_free_model(_AX["F9"], samples=120, seed=51).valid
    swap = Equation(parse("$x && $y", "open"), parse("$y && $x", "open"))
    result = valid_in_free_model(swap, samples=120, seed=51)
    assert not result.valid and result.witness is not None
    # reproducible: the same seed finds the same witness
    again = valid_in_free_model(swap, samples=120, seed=51)
    assert again.witness == result.witness


# ``random_substitution`` as it was, building each draw's tree to read its
# size, and ``valid_in_free_model`` on top of it, comparing trees by text:
# the oracles for the arithmetic size check.


def reference_random_substitution(rng, variables, atoms=("a", "b", "c"), max_depth=6, max_tree=120):
    out = {}
    for v in sorted(variables):
        term = random_scl_term(rng, atoms, max_depth)
        if max_tree is not None:
            while eval_tree(term, cap=None).size > max_tree:
                term = random_scl_term(rng, atoms, max_depth)
        out[v] = term
    return out


def reference_valid_in_free_model(eq, samples, seed):
    rng = Random(seed)
    names = sorted(eq.variables)
    for i in range(samples):
        subst = reference_random_substitution(rng, names)
        lhs = format_tree(eval_tree(substitute(eq.lhs, subst)))
        if lhs != format_tree(eval_tree(substitute(eq.rhs, subst))):
            return FreeModelCheck(False, subst, i + 1)
    return FreeModelCheck(True, None, samples)


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
    witnesses = 0
    for seed in range(40):
        for eq in laws:
            got = valid_in_free_model(eq, samples=25, seed=seed)
            assert got == reference_valid_in_free_model(eq, 25, seed)
            witnesses += got.witness is not None
    assert witnesses >= 100


def reference_check_independence():
    """``check_independence`` as it was before the rows were shared with
    ``scl models check``."""
    lines = []
    ok = True
    for entry in independence_suite():
        for ax in eqfscl_minus():
            result = validates(entry.model, ax)
            expected = ax.tag != entry.tag
            if result.valid != expected:
                ok = False
            status = "ok" if result.valid == expected else "UNEXPECTED"
            word = "valid" if result.valid else "refuted"
            lines.append(f"{entry.model.name} {ax.tag}: {word} ({status})")
        lhs = eval_in_model(entry.model, entry.refutation.lhs)
        rhs = eval_in_model(entry.model, entry.refutation.rhs)
        if lhs == rhs:
            ok = False
        lines.append(f"{entry.model.name} refutation {entry.refutation}: {lhs} != {rhs}")
    return ok, lines


def test_check_independence_report_is_unchanged():
    assert check_independence() == reference_check_independence()
