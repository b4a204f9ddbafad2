"""Tree decompositions, decided by leaf-count arithmetic.

A decomposition splits a tree into a context with hole leaves and a core
that grafts back to reconstruct the input.  Candidate kinds differ in which
truth-value leaves the context may keep: ``ccd`` contexts keep F but not T,
``cdd`` contexts keep T but not F, and ``ctsd`` contexts keep neither and
have a core that no leaf-free context splits, of which a tree has at most
one.  The cd/dd/tsd selectors pick the candidate with the shallowest core.

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

``witness`` reads a *-term's categories off one normal-form node table
(``normalize._Helpers``) that it loads the term into once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import NotStarTerm
from .normalize import SnfClass, _Helpers, is_star_class
from .terms import Term, postorder
from .trees import Leaf, Node, Tree, _children, eval_tree

# kind -> whether its contexts keep a T-leaf, and whether they keep an F-leaf
KINDS = {"ccd": (False, True), "cdd": (True, False), "ctsd": (False, False)}


@dataclass(frozen=True)
class Decomposition:
    context: Tree
    core: Tree


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
        of = {leaf: k for k, leaf in enumerate(tree)}  # subtree -> number
        for node in postorder(x, _children):
            if node not in of:
                of[node] = len(tree)
                tree.append(node)
                left.append(of[node.left])
                right.append(of[node.right])
        root = of[x]

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

        Candidate cores of one kind are nested (see ``enumerate_candidates``),
        and an inner subtree has a smaller number, so number order is depth
        order.  By the coverage rule, call ``k`` covering when holing it keeps
        neither leaf kind: ``occ[k] * t[k] == t[root]``, and so for F.  The
        first covering ``z`` with both leaf kinds is the one ctsd core.  No
        subtree ``p`` inside ``z`` covers ``z``'s leaves within ``z``: with
        ``n`` occurrences there, ``occ[p] * t[p] >= occ[z] * n * t[p] =
        t[root]``, and so for F, so ``p`` would cover (disjoint occurrences
        hold no more leaves than the tree) and come first.  A later covering
        ``z'`` is not inside ``z`` and holds every T-leaf, so each occurrence
        of ``z`` lies in one of ``z'``, and ``z`` splits ``z'``.  The root
        covers, so a tree with both leaf kinds has exactly one.
        """
        keeps = KINDS[kind]
        t, f, occ, root = self.t, self.f, self.occ, self.root
        for k in range(3, len(t)):
            if t[k] and f[k] and (occ[k] * t[k] < t[root], occ[k] * f[k] < f[root]) == keeps:
                yield k
                if kind == "ctsd":
                    return

    def rebuild(self, k: int, sub: dict[int, int]) -> Tree:
        """Subtree ``k`` with each subtree ``s`` in ``sub`` replaced by the leaf
        numbered ``sub[s]``: one pass in number order from ``min(sub)``, which
        builds anew only the subtrees whose children changed."""
        tree, left, right = self.tree, self.left, self.right
        built = tree[:]
        for s in range(min(sub, default=k), k + 1):
            l, r = left[s], right[s]
            if s in sub:
                built[s] = tree[sub[s]]
            elif l >= 0 and (built[l] is not tree[l] or built[r] is not tree[r]):
                built[s] = Node(tree[s].atom, built[l], built[r])
        return built[k]

    def decomposition(self, c: int) -> Decomposition:
        """The context that holes every occurrence of subtree ``c``, and ``c``."""
        return Decomposition(self.rebuild(self.root, {c: 2}), self.tree[c])


def enumerate_candidates(x: Tree, kind: str) -> list[Decomposition]:
    """All decompositions of ``x`` of the given candidate kind.

    Candidates are ordered by core depth, and no two of them have the same
    core depth, so the first is the one ``cd``, ``dd`` or ``tsd`` selects.
    A candidate context keeps none of the T-leaves of ``x`` (none of the
    F-leaves for ``cdd``), so for one fixed such leaf of ``x``, every
    candidate core has an occurrence containing it.  Two occurrences
    containing the same leaf are nested, and a proper subtree is strictly
    shallower, so distinct candidate cores differ in depth.
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
    truth-value leaf behind.  So ``z`` is a leaf or its own T-*-core.
    """
    census = _Census(z)
    return census.root < 3 or next(census.candidates("ctsd"), None) == census.root


def witness(p: Term) -> Tree:
    """Evaluation tree of the rightmost literal unit of a *-term.

    ``p`` is loaded once into a normal-form node table, and its right
    operands are walked by node, so the walk is linear in ``p``'s size.
    """
    h = _Helpers()
    n = h.load(p)
    if not is_star_class(h.cat[n]):
        raise NotStarTerm(f"expected a *-term, got {h.cat[n].label}: {p}")
    while h.cat[n] in (SnfClass.C_TERM, SnfClass.D_TERM):
        n = h.right[n]
    return eval_tree(h.term[n])
