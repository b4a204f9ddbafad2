"""Sequential propositional logic with short-circuit semantics.

The package models statements whose connectives evaluate left-to-right and
whose atoms are re-evaluated at every occurrence.  It provides evaluation
trees as the semantics, a normal form with a structure-preserving inverse,
tree decompositions, the conditional (if-then-else) bridge with basic
forms, and finite models for axiom independence checks.
"""

__version__ = "0.1.0"

from .axioms import (
    cp_axioms,
    derived_laws,
    dual_equation,
    eqfscl_axioms,
    eqfscl_minus,
    rp_schemes,
)
from .cp import (
    basic_form,
    basic_of,
    decide_eq_cp,
    is_basic_form,
    scl_to_cp,
    tree_of,
)
from .decompose import (
    Decomposition,
    cd,
    dd,
    enumerate_candidates,
    is_nondecomposable,
    replace_subtree,
    tsd,
    witness,
)
from .errors import (
    AmbiguousDecomposition,
    ModeViolation,
    NonClosedTerm,
    NotInImage,
    NotInNormalForm,
    NotStarTerm,
    ParseError,
    SclError,
    TreeTooLarge,
    UnboundVariable,
    UninterpretedAtom,
)
from .inverse import invert, invert_fterm, invert_lterm, invert_star, invert_tterm
from .models import (
    Assignment,
    FiniteModel,
    FreeModelCheck,
    IndependenceEntry,
    IndependenceRow,
    ValidationResult,
    check_independence,
    eval_in_model,
    independence_rows,
    independence_suite,
    model_from_json,
    model_to_json,
    valid_in_free_model,
    validates,
)
from .normalize import (
    SnfClass,
    and_nf,
    and_star_fterm,
    and_star_tstar,
    and_star_tterm,
    classify,
    decide_eq,
    in_normal_form,
    is_star_class,
    neg_nf,
    neg_star,
    nf,
    or_nf,
)
from .parser import parse
from .terms import (
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
    Not,
    Or,
    Term,
    Var,
    check_mode,
    dual,
    expand_full,
    format_term,
    substitute,
    term_from_json,
    term_to_json,
    variables,
)
from .trees import (
    DEFAULT_NODE_CAP,
    Leaf,
    LeafProfile,
    Node,
    Tree,
    depth,
    eval_tree,
    format_tree,
    graft,
    leaf_profile,
    parse_tree,
    replace,
    subtrees,
    tree_from_json,
    tree_to_json,
)
