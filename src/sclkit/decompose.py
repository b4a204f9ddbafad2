"""Tree decompositions, decided by leaf-count arithmetic.

A decomposition splits a tree into a context with hole leaves and a core
that grafts back to reconstruct the input.  Candidate kinds differ in which
truth-value leaves the context may keep: ``ccd`` contexts keep F but not T,
``cdd`` contexts keep T but not F, and ``ctsd`` contexts keep neither (and
additionally require a core that cannot itself be split by a leaf-free
context).  The cd/dd/tsd selectors pick the candidate with the shallowest
core.

A candidate core is a distinct subtree carrying both leaf kinds, and its
context holes all of its occurrences; holing fewer can never meet the leaf
conditions, because a surviving core occurrence would put both leaf kinds
back into the context.

No context is built to be tested.  One census walks the object graph of
the tree without recursion or tree comparison.  Nodes are interned, so it
visits each distinct subtree once, and gives it a number with its logical
occurrence count and its cached T- and F-leaf counts.  A tree is
never a proper subtree of itself, so the occurrences of a core are
disjoint and holing them removes exactly ``occ * T(core)`` T-leaves and
``occ * F(core)`` F-leaves.  This is the coverage rule: the context keeps
a T-leaf iff ``occ * T(core) < T(tree)``, and likewise for F.  Only the
contexts that are returned get built, each by one pass over the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import NotStarTerm
from .normalize import SnfClass, classify, is_star_class
from .terms import Term
from .trees import Leaf, Node, Tree, eval_tree

KINDS = ("ccd", "cdd", "ctsd")


@dataclass(frozen=True)
class Decomposition:
    context: Tree
    core: Tree


def replace_subtree(x: Tree, target: Tree, replacement: Tree) -> Tree:
    """Replace all outermost occurrences of ``target`` in ``x``."""
    if x is target:
        return replacement
    if isinstance(x, Leaf):
        return x
    left = replace_subtree(x.left, target, replacement)
    right = replace_subtree(x.right, target, replacement)
    if left is x.left and right is x.right:
        return x
    return Node(x.atom, left, right)


class _Census:
    """The distinct subtrees (distinct objects, as nodes are interned) of
    one tree, numbered children first after the three leaves, so every
    subtree inside number ``k`` has a smaller number.  ``root`` numbers the
    whole tree.  Number ``k`` has the subtree ``tree[k]``, children
    ``left[k]`` and ``right[k]`` (-1 for a leaf), T- and F-leaf counts
    ``t[k]`` and ``f[k]``, and logical occurrence count ``occ[k]``.
    """

    __slots__ = ("tree", "left", "right", "t", "f", "occ", "root")

    def __init__(self, x: Tree):
        tree = [Leaf.TRUE, Leaf.FALSE, Leaf.HOLE]
        left, right = [-1, -1, -1], [-1, -1, -1]
        of = {id(leaf): k for k, leaf in enumerate(tree)}  # subtree -> number
        stack = [x]
        while stack:
            node = stack[-1]
            if id(node) in of:
                stack.pop()
            elif (l := of.get(id(node.left))) is None or (r := of.get(id(node.right))) is None:
                stack += (node.right, node.left)
            else:
                of[id(stack.pop())] = len(tree)
                tree.append(node)
                left.append(l)
                right.append(r)
        root = of[id(x)]

        # parents before children: push occurrence counts down
        occ = [0] * len(tree)
        occ[root] = 1
        for k in range(root, 2, -1):
            occ[left[k]] += occ[k]
            occ[right[k]] += occ[k]
        self.tree, self.left, self.right, self.root = tree, left, right, root
        self.t = [s.t_leaves for s in tree]
        self.f = [s.f_leaves for s in tree]
        self.occ = occ

    def candidates(self, kind: str) -> Iterator[int]:
        """The cores of the candidates of the given kind, shallowest first.

        Holing subtree ``k`` keeps a T-leaf iff ``occ[k] * t[k]`` falls
        short of the tree's T-leaves, and likewise for F.  Candidate cores of
        one kind are nested (see ``select_decomposition``), and an inner
        subtree has a smaller number, so number order is depth order.
        """
        t, f, occ, root = self.t, self.f, self.occ, self.root
        for k in range(3, len(t)):
            if not (t[k] and f[k]):
                continue
            keeps_true = occ[k] * t[k] < t[root]
            keeps_false = occ[k] * f[k] < f[root]
            if kind == "ccd":
                ok = keeps_false and not keeps_true
            elif kind == "cdd":
                ok = keeps_true and not keeps_false
            else:
                ok = not keeps_true and not keeps_false and self.nondecomposable(k)
            if ok:
                yield k

    def nondecomposable(self, z: int) -> bool:
        """Whether no subtree inside subtree ``z`` covers all of its leaves."""
        left, right, t, f = self.left, self.right, self.t, self.f
        occ = [0] * (z + 1)
        occ[z] = 1
        for k in range(z, -1, -1):
            m = occ[k]
            if m and left[k] >= 0:
                occ[left[k]] += m
                occ[right[k]] += m
        tz, fz = t[z], f[z]
        return not any(
            m and m * t[p] == tz and m * f[p] == fz for p, m in enumerate(occ[:z])
        )

    def decomposition(self, c: int) -> Decomposition:
        """The context that holes every occurrence of subtree ``c``, and ``c``."""
        tree, left, right = self.tree, self.left, self.right
        built = tree[:]
        built[c] = Leaf.HOLE
        for k in range(c + 1, len(tree)):
            l, r = left[k], right[k]
            if l >= 0 and (built[l] is not tree[l] or built[r] is not tree[r]):
                built[k] = Node(tree[k].atom, built[l], built[r])
        return Decomposition(built[self.root], tree[c])


def enumerate_candidates(x: Tree, kind: str) -> list[Decomposition]:
    """All decompositions of ``x`` of the given candidate kind.

    Candidates are ordered by core depth; no two of them have the same
    core depth (see ``select_decomposition``).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown decomposition kind: {kind!r}")
    census = _Census(x)
    return [census.decomposition(k) for k in census.candidates(kind)]


def _select(census: _Census, kind: str) -> Decomposition | None:
    """The first candidate of the given kind in a census; only its context
    is built."""
    core = next(census.candidates(kind), None)
    return None if core is None else census.decomposition(core)


def select_decomposition(
    x: Tree, kind: str, candidates: list[Decomposition]
) -> Decomposition | None:
    """Pick from ``candidates``, the list ``enumerate_candidates(x, kind)``
    returned: its first entry (the shallowest core), or None when it is empty.

    The shallowest core is unique, so ``AmbiguousDecomposition`` is never
    raised.  A candidate context keeps none of the T-leaves of ``x`` (none
    of the F-leaves for ``cdd``), so for one fixed such leaf of ``x``, every
    candidate core has an occurrence containing it.  Two occurrences
    containing the same leaf are nested, and a proper subtree is strictly
    shallower, so distinct candidate cores differ in depth.
    """
    return candidates[0] if candidates else None


def cd(x: Tree) -> Decomposition | None:
    """The conjunction decomposition: the minimum-core-depth ccd, if any."""
    return _select(_Census(x), "ccd")


def dd(x: Tree) -> Decomposition | None:
    """The disjunction decomposition: the minimum-core-depth cdd, if any."""
    return _select(_Census(x), "cdd")


def tsd(x: Tree) -> Decomposition | None:
    """The T-*-decomposition: the minimum-core-depth ctsd, if any."""
    return _select(_Census(x), "ctsd")


def is_nondecomposable(z: Tree) -> bool:
    """True iff no leaf-free context with holes splits ``z``.

    A proper subtree whose disjoint occurrences cover every truth-value
    leaf of ``z`` yields such a context; holing anything less leaves a
    truth-value leaf behind.  Decided by the coverage rule on a census.
    """
    census = _Census(z)
    return census.nondecomposable(census.root)


def witness(p: Term) -> Tree:
    """Evaluation tree of the rightmost literal unit of a *-term."""
    if not is_star_class(classify(p)):
        raise NotStarTerm(f"expected a *-term, got {classify(p).label}: {p}")
    while classify(p) in (SnfClass.C_TERM, SnfClass.D_TERM):
        p = p.right
    return eval_tree(p)
