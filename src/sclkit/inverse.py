"""Reconstructing normal-form terms from their evaluation trees.

``invert`` is a left inverse of tree evaluation on normal forms: trees with
only T-leaves come back as T-terms, trees with only F-leaves as F-terms,
and mixed trees are split with the T-*-decomposition and rebuilt as a
conjunction.  The per-category helpers are exposed for direct use; each
raises NotInImage (naming the clause and the offending subtree) when its
input lies outside the corresponding image.
"""

from __future__ import annotations

from .errors import NotInImage
from .decompose import _Census, _select, cd, dd, tsd  # noqa: F401  (cd, dd stay importable from here)
from .terms import And, Atom, Not, Or, Term, FALSE, TRUE
from .trees import Leaf, Tree, replace


def invert_tterm(x: Tree) -> Term:
    """Rebuild a T-term from a tree with only T-leaves."""
    if x is Leaf.TRUE:
        return TRUE
    if isinstance(x, Leaf):
        raise NotInImage(f"unexpected leaf {x}", x, "invert_tterm")
    return Or(And(Atom(x.atom), invert_tterm(x.left)), invert_tterm(x.right))


def invert_fterm(x: Tree) -> Term:
    """Rebuild an F-term from a tree with only F-leaves."""
    if x is Leaf.FALSE:
        return FALSE
    if isinstance(x, Leaf):
        raise NotInImage(f"unexpected leaf {x}", x, "invert_fterm")
    return And(Or(Atom(x.atom), invert_fterm(x.right)), invert_fterm(x.left))


def invert_lterm(x: Tree) -> Term:
    """Rebuild a literal unit from a tree whose root splits T from F."""
    if isinstance(x, Leaf):
        raise NotInImage(f"unexpected leaf {x}", x, "invert_lterm")
    if not x.left.has_false:
        return Or(And(Atom(x.atom), invert_tterm(x.left)), invert_fterm(x.right))
    if not x.right.has_false:
        return Or(And(Not(Atom(x.atom)), invert_tterm(x.right)), invert_fterm(x.left))
    raise NotInImage("neither branch has only T-leaves", x, "invert_lterm")


def invert_star(x: Tree) -> Term:
    """Rebuild a *-term: try the conjunction split, then the disjunction
    split, then fall back to a single literal unit.  Both splits are read
    off one census of ``x``."""
    census = _Census(x)
    split = _select(census, "ccd")
    if split is not None:
        return And(
            invert_star(replace(split.context, for_hole=Leaf.TRUE)), invert_star(split.core)
        )
    split = _select(census, "cdd")
    if split is not None:
        return Or(
            invert_star(replace(split.context, for_hole=Leaf.FALSE)), invert_star(split.core)
        )
    return invert_lterm(x)


def invert(x: Tree) -> Term:
    """Rebuild the unique normal-form term whose evaluation tree is ``x``."""
    if x.has_hole:
        raise NotInImage("tree contains hole leaves", x, "invert")
    if not x.has_false:
        return invert_tterm(x)
    if not x.has_true:
        return invert_fterm(x)
    split = tsd(x)
    if split is None:
        raise NotInImage("no T-*-decomposition", x, "invert")
    return And(
        invert_tterm(replace(split.context, for_hole=Leaf.TRUE)), invert_star(split.core)
    )
