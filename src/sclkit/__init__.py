"""Sequential propositional logic with short-circuit semantics.

The package models statements whose connectives evaluate left-to-right and
whose atoms are re-evaluated at every occurrence.  It provides evaluation
trees as the semantics, a normal form with a structure-preserving inverse,
tree decompositions, the conditional (if-then-else) bridge with basic
forms, and finite models for axiom independence checks.

The package is lazy: each public name, and each submodule, is imported on
first access (PEP 562), so ``import sclkit`` loads no submodule.
"""

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "axioms": "Equation cp_axioms derived_laws dual_equation eqfscl_axioms eqfscl_minus rp_schemes",
    "cp": "basic_form basic_of decide_eq_cp is_basic_form scl_to_cp tree_of",
    "decompose": "Decomposition cd dd enumerate_candidates is_nondecomposable tsd witness",
    "errors": "DEFAULT_NODE_CAP ModeViolation NonClosedTerm NotInImage NotInNormalForm"
    " NotStarTerm ParseError SclError TreeTooLarge UnboundVariable UninterpretedAtom",
    "inverse": "invert invert_fterm invert_lterm invert_star invert_tterm",
    "models": "Assignment FiniteModel FreeModelCheck IndependenceEntry IndependenceRow"
    " ValidationResult eval_in_model independence_rows independence_suite"
    " model_from_json model_to_json valid_in_free_model validates",
    "normalize": "SnfClass and_nf and_star_fterm and_star_tstar and_star_tterm classify decide_eq"
    " in_normal_form is_star_class neg_nf neg_star nf or_nf",
    "parser": "parse",
    "terms": "FALSE TRUE And Atom Cond Const FullAnd FullOr MODES Not Or Term Var check_mode dual"
    " expand_full format_term substitute term_from_json term_to_json variables",
    "trees": "Leaf Node Tree eval_tree format_tree graft parse_tree replace tree_from_json"
    " tree_to_json",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "generate"}

__all__ = sorted(_MODULE_OF) + sorted(_SUBMODULES - {"cli"})


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module or name}")
    if module is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
