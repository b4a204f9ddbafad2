"""Conditional-term machinery: basic forms and the short-circuit bridge.

Basic forms are conditional terms of the shape ``T | F | p <| a |> q`` with
basic branches; they are in structural bijection with evaluation trees.
``basic_form`` and ``tree_of`` build through ``trees._build``, the
continuation-passing evaluator behind ``eval_tree``: a term is read with
the basic forms (or trees) to continue into where it ends true and where
it ends false, and a conditional reads its guard with its two branches'
results as those continuations.  Each distinct (term, continuation,
continuation) triple is built once, so the object graph stays linear in
the input.  ``scl_to_cp`` eliminates the short-circuit connectives in
favour of the conditional.  ``decide_eq_cp`` builds no basic form as a
term: it calls two sides whose trees differ in shape unequal, by the size
of a basic form (see its docstring), and otherwise translates both, builds
their forms into one table of int nodes made for the call and compares
their ids.  Every function here uses an explicit stack and visits each
distinct object once.
"""

from __future__ import annotations

from .errors import ModeViolation, NonClosedTerm, TreeTooLarge
from .terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    Cond,
    Const,
    FullAnd,
    FullOr,
    Not,
    Or,
    Term,
    Var,
    postorder,
)
from .trees import DEFAULT_NODE_CAP, Leaf, Tree, _FALSE_SHAPE, _TRUE_SHAPE, _build, _children, _continued, _node
from .trees import _same_build, _shapes_differ


def _basic_children(t: Term) -> tuple[Term, ...]:
    # a node that is not a conditional over an atom is rejected on sight
    return (t.then, t.orelse) if isinstance(t, Cond) and isinstance(t.guard, Atom) else ()


def _not_basic(t: Term) -> Term | None:
    """The first node of ``t``, bottom-up, that is not T, F or a conditional
    over an atom; None if there is none."""
    nodes = postorder(t, _basic_children)
    return next((s for s in nodes if not (isinstance(s, Const) or _basic_children(s))), None)


def is_basic_form(t: Term) -> bool:
    """True iff ``t`` is T, F, or a conditional over an atom with basic branches."""
    return _not_basic(t) is None


def tree_of(t: Term) -> Tree:
    """The evaluation tree a basic form denotes (a structural re-labelling)."""
    if (s := _not_basic(t)) is not None:
        raise ModeViolation(f"not a basic form: {s}")
    return _build(t, Leaf.TRUE, Leaf.FALSE, _node)


def basic_of(x: Tree) -> Term:
    """The basic form denoting a given evaluation tree (inverse of tree_of)."""
    if x.has_hole:
        raise ModeViolation("hole leaves have no basic form")
    done = {Leaf.TRUE: TRUE, Leaf.FALSE: FALSE}
    for s in postorder(x, _children):
        if s not in done:
            done[s] = Cond(done[s.left], Atom(s.atom), done[s.right])
    return done[x]


def basic_form(t: Term, cap: int | None = DEFAULT_NODE_CAP) -> Term:
    """A basic form equal to the closed conditional term ``t``.

    A constant selects a continuation, an atom becomes a conditional over
    its two continuations, and ``x <| y |> z`` reads ``y`` with the forms
    of ``x`` and ``z`` as continuations.  The result's tree equals
    ``eval_tree(t)``.  ``cap`` bounds the node count of the basic form of
    every conditional whose guard's form is not a constant, checked by
    arithmetic before anything is built.
    """
    _check(t, cap)
    return _build(t, TRUE, FALSE, Cond)


def _cond_children(t: Term) -> tuple[Term, ...]:
    return (t.then, t.guard, t.orelse) if type(t) is Cond else ()


# (node count, T-leaves, F-leaves) of T <| a |> F; T and F have the shapes
# of their trees
_ATOM_SHAPE = (4, 1, 1)


def _check(t: Term, cap: int | None) -> None:
    """Raise what ``basic_form`` raises, in the order of a bottom-up fold.

    Each conditional's then-branch, guard and else-branch come before it,
    in that order.  A conditional whose guard's form is not a constant
    fails if its own form has more than ``cap`` nodes.  Only the shapes of
    the forms (node count, T-leaves, F-leaves) are computed.
    """
    shapes = {}
    for s in postorder(t, _cond_children):
        cls = type(s)
        if cls is Cond:
            if cap is not None:
                guard = shapes[s.guard]
                shapes[s] = shape = _continued(guard, shapes[s.then], shapes[s.orelse])
                if guard[0] > 1 and shape[0] > cap:
                    raise TreeTooLarge(f"basic form exceeds the node cap of {cap}")
        elif cls is Const:
            shapes[s] = _TRUE_SHAPE if s.value else _FALSE_SHAPE
        elif cls is Atom:
            shapes[s] = _ATOM_SHAPE
        elif cls is Var:
            raise NonClosedTerm(f"cannot take the basic form of open term: ${s.name}")
        elif cls is Not or cls is And or cls is Or or cls is FullAnd or cls is FullOr:
            raise ModeViolation(f"{cls.__name__} is not a conditional node; translate first")
        else:  # pragma: no cover
            raise TypeError(f"not a term: {s!r}")


def _cp_children(t: Term) -> tuple[Term, ...]:
    # in the order the translation takes them: && translates its right side first
    cls = type(t)
    if cls is Not:
        return (t.arg,)
    if cls is And:
        return (t.right, t.left)
    if cls is Or:
        return (t.left, t.right)
    if cls is Cond:
        return (t.then, t.guard, t.orelse)
    return ()


def scl_to_cp(t: Term) -> Term:
    """Eliminate !, &&, and || in favour of the conditional, bottom-up.

    Negation becomes ``F <| p |> T``, conjunction ``q <| p |> F``, and
    disjunction ``T <| p |> q``; the evaluation tree is unchanged.
    """
    done = {}
    for s in postorder(t, _cp_children):
        cls = type(s)
        if cls is Const or cls is Atom:
            done[s] = s
        elif cls is Var:
            raise NonClosedTerm(f"cannot translate open term: ${s.name}")
        elif cls is Not:
            done[s] = Cond(FALSE, done[s.arg], TRUE)
        elif cls is And:
            done[s] = Cond(done[s.right], done[s.left], FALSE)
        elif cls is Or:
            done[s] = Cond(TRUE, done[s.left], done[s.right])
        elif cls is Cond:
            done[s] = Cond(done[s.then], done[s.guard], done[s.orelse])
        elif cls is FullAnd or cls is FullOr:
            raise ModeViolation("full-sequential connectives must be expanded before translation")
        else:  # pragma: no cover
            raise TypeError(f"not a term: {s!r}")
    return done[t]


def decide_eq_cp(p: Term, q: Term, cap: int | None = DEFAULT_NODE_CAP) -> bool:
    """Decide tree equality of two closed enriched terms via basic forms.

    Under a cap, both sides are first shaped at the tree cap
    ``(2 * cap + 1) // 3`` (``trees._shapes_differ``).  A basic form has
    ``(3 * |tree| - 1) / 2`` nodes, one conditional and one atom per inner
    node of its tree and one constant per leaf, so two sides that pass
    that walk have every form within ``cap``, and two of different shapes
    have different forms: the pair is unequal.  Otherwise each side is
    translated and then checked against ``cap`` as ``basic_form`` checks
    it, ``p`` first.  The two forms are built into one hash-consing table
    made for the call, in which equal basic forms are one int node
    (``trees._same_build``), and the two ids are compared; no form is built
    as a term.  Under no cap no shape is computed, and every pair is built.
    """
    if cap is not None and _shapes_differ(p, q, (2 * cap + 1) // 3):
        return False
    p = scl_to_cp(p)
    _check(p, cap)
    q = scl_to_cp(q)
    _check(q, cap)
    return _same_build(p, q)
