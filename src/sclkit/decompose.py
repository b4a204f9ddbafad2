"""Brute-force enumeration and selection of tree decompositions.

A decomposition splits a tree into a context with hole leaves and a core
that grafts back to reconstruct the input.  Candidate kinds differ in which
truth-value leaves the context may keep: ``ccd`` contexts keep F but not T,
``cdd`` contexts keep T but not F, and ``ctsd`` contexts keep neither (and
additionally require a core that cannot itself be split by a leaf-free
context).  The cd/dd/tsd selectors pick the candidate with the shallowest
core.

Enumeration considers, for each distinct subtree carrying both leaf kinds,
the context obtained by holing all of its occurrences; replacing fewer
occurrences can never meet the leaf conditions, because a surviving core
occurrence would put both leaf kinds back into the context.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AmbiguousDecomposition, NotStarTerm
from .normalize import SnfClass, classify, is_star_class
from .terms import Term
from .trees import Leaf, Node, Tree, eval_tree, subtrees

KINDS = ("ccd", "cdd", "ctsd")


@dataclass(frozen=True)
class Decomposition:
    context: Tree
    core: Tree


def replace_subtree(x: Tree, target: Tree, replacement: Tree) -> Tree:
    """Replace all outermost occurrences of ``target`` in ``x``."""
    if x == target:
        return replacement
    if isinstance(x, Leaf):
        return x
    left = replace_subtree(x.left, target, replacement)
    right = replace_subtree(x.right, target, replacement)
    if left is x.left and right is x.right:
        return x
    return Node(x.atom, left, right)


def _distinct_cores(x: Tree) -> list[Tree]:
    """Distinct subtrees containing both leaf kinds, by first preorder visit."""
    seen = {}
    for index, s in enumerate(subtrees(x)):
        if s.has_true and s.has_false and s not in seen:
            seen[s] = index
    return sorted(seen, key=lambda s: (s.depth, seen[s]))


def enumerate_candidates(x: Tree, kind: str) -> list[Decomposition]:
    """All decompositions of ``x`` of the given candidate kind.

    Candidates are ordered by core depth, then by the first preorder
    occurrence of the core.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown decomposition kind: {kind!r}")
    out = []
    for core in _distinct_cores(x):
        context = replace_subtree(x, core, Leaf.HOLE)
        if kind == "ccd":
            ok = context.has_false and not context.has_true
        elif kind == "cdd":
            ok = context.has_true and not context.has_false
        else:
            ok = (
                not context.has_true
                and not context.has_false
                and is_nondecomposable(core)
            )
        if ok:
            out.append(Decomposition(context, core))
    return out


def select_decomposition(
    x: Tree, kind: str, candidates: list[Decomposition]
) -> Decomposition | None:
    """Pick from ``candidates``, the list ``enumerate_candidates(x, kind)``
    returned: its first entry (the shallowest core), or None when it is empty.

    Raises ``AmbiguousDecomposition`` when two candidates share the minimum
    core depth.
    """
    if not candidates:
        return None
    best = candidates[0]
    if len(candidates) > 1 and candidates[1].core.depth == best.core.depth:
        raise AmbiguousDecomposition(
            f"two distinct minimum-depth {kind} candidates for {x}"
        )
    return best


def cd(x: Tree) -> Decomposition | None:
    """The conjunction decomposition: the minimum-core-depth ccd, if any."""
    return select_decomposition(x, "ccd", enumerate_candidates(x, "ccd"))


def dd(x: Tree) -> Decomposition | None:
    """The disjunction decomposition: the minimum-core-depth cdd, if any."""
    return select_decomposition(x, "cdd", enumerate_candidates(x, "cdd"))


def tsd(x: Tree) -> Decomposition | None:
    """The T-*-decomposition: the minimum-core-depth ctsd, if any."""
    return select_decomposition(x, "ctsd", enumerate_candidates(x, "ctsd"))


def is_nondecomposable(z: Tree) -> bool:
    """True iff no leaf-free context with holes splits ``z``.

    Checked by enumeration: a proper subtree whose occurrences cover every
    leaf of ``z`` yields such a context; holing anything less leaves a
    truth-value leaf behind.
    """
    seen = set()
    for part in subtrees(z):
        if part == z or part in seen:
            continue
        seen.add(part)
        context = replace_subtree(z, part, Leaf.HOLE)
        if not context.has_true and not context.has_false:
            return False
    return True


def witness(p: Term) -> Tree:
    """Evaluation tree of the rightmost literal unit of a *-term."""
    if not is_star_class(classify(p)):
        raise NotStarTerm(f"expected a *-term, got {classify(p).label}: {p}")
    while classify(p) in (SnfClass.C_TERM, SnfClass.D_TERM):
        p = p.right
    return eval_tree(p)
