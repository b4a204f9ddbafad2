"""Reconstructing normal-form terms from their evaluation trees.

``invert`` is a left inverse of tree evaluation on normal forms: trees with
only T-leaves come back as T-terms, trees with only F-leaves as F-terms,
and mixed trees are split with the T-*-decomposition, which every mixed
tree has (its root covers all its leaves), and rebuilt as a conjunction.
The per-category helpers are exposed for direct use; each raises
NotInImage (naming the clause and the offending subtree) when its input
lies outside the corresponding image.

Inversion reads the classes of one census of its input (see ``decompose``)
and builds no tree.  A split's context with its holes filled by T (or F)
is the same classes with the core mapped to that leaf (``_Inverse.sub``).
The splits, their order and so the results and errors are those of
splitting rebuilt trees with ``cd``, ``dd`` and ``tsd``; nothing recurses.
"""

from __future__ import annotations

from .errors import NotInImage
from .decompose import _Census, cd, dd, tsd  # noqa: F401  (cd, dd, tsd stay importable from here)
from .terms import And, Atom, Not, Or, Term, FALSE, TRUE, postorder
from .trees import Tree

_T, _F = 0, 1  # the census numbers of the T- and F-leaf


class _Inverse(_Census):
    """A census read under ``sub``, a map from classes to the leaf (``_T``
    or ``_F``) that replaces each of their occurrences.  ``log`` lists the
    entries of ``sub`` in the order they were made, so that a branch can
    drop those made after it started.  ``t``, ``f`` and ``occ`` are
    rewritten by ``spine`` for the classes it reads."""

    __slots__ = ("sub", "log")

    def __init__(self, x: Tree):
        super().__init__(x)
        self.sub, self.log = {}, []

    def leaf_term(self, k: int, leaf: int, clause: str) -> Term:
        """The T-term (``leaf`` is ``_T``) or F-term of class ``k`` under ``sub``.

        Children come first: the left one first for a T-term, the right one
        for an F-term, as the defining clauses read them, so the first
        unexpected leaf met is the one they raise on.
        """
        tree, left, right, sub = self.tree, self.left, self.right, self.sub
        made = {leaf: TRUE if leaf == _T else FALSE}
        k = sub.get(k, k)
        stack = [k]
        while stack:
            s = stack[-1]
            if s in made:
                stack.pop()
                continue
            if s < 3:
                raise NotInImage(f"unexpected leaf {tree[s]}", tree[s], clause)
            l, r = sub.get(left[s], left[s]), sub.get(right[s], right[s])
            first, second = (l, r) if leaf == _T else (r, l)
            if first not in made:
                stack.append(first)
            elif second not in made:
                stack.append(second)
            else:
                stack.pop()
                atom = Atom(tree[s].atom)
                if leaf == _T:
                    made[s] = Or(And(atom, made[l]), made[r])
                else:
                    made[s] = And(Or(atom, made[r]), made[l])
        return made[k]

    def lterm(self, k: int) -> Term:
        """The literal unit of class ``k`` under ``sub``; ``f`` must hold the
        F-leaf counts of its children under ``sub``."""
        if k < 3:
            raise NotInImage(f"unexpected leaf {self.tree[k]}", self.tree[k], "invert_lterm")
        sub = self.sub
        l, r = sub.get(self.left[k], self.left[k]), sub.get(self.right[k], self.right[k])
        atom = Atom(self.tree[k].atom)
        if not self.f[l]:
            return Or(And(atom, self.leaf_term(l, _T, "invert_tterm")), self.leaf_term(r, _F, "invert_fterm"))
        if not self.f[r]:
            return Or(And(Not(atom), self.leaf_term(r, _T, "invert_tterm")), self.leaf_term(l, _F, "invert_fterm"))
        raise NotInImage("neither branch has only T-leaves", self.rebuild(k, sub), "invert_lterm")

    def spine(self, root: int) -> list[tuple[int, int, int]]:
        """Split the *-tree of class ``root`` until no cd or dd core is left,
        mapping each core to its leaf in ``sub`` (T for a cd core, F for a
        dd core).  Returns ``(core, leaf, mark)`` per split, innermost core
        first; ``mark`` is the length of ``log`` before the core was entered.

        One scan in census order (children first) finds every split:

        - a cd core covers all T-leaves and a dd core all F-leaves, so a
          tree has cores of at most one kind, and these are nested: the
          first candidate met is the shallowest core;
        - every core of what is left once core ``k`` is mapped contains
          ``k``, so the scan goes on from ``k``;
        - a class read after ``k`` does not lie inside ``k``, so its
          occurrence count stands, and its leaf counts are summed from its
          children when it is read.  Mapping a core merges no two classes
          that are left (one of them would hold a leaf of the core's kind
          outside the core), so these are the counts of a census of the
          tree that is left.
        """
        if root < 3:
            return []
        left, right, t, f, occ, sub = self.left, self.right, self.t, self.f, self.occ, self.sub

        def kids(s: int) -> tuple[int, ...]:  # the children of class s under sub, leaves dropped
            l, r = sub.get(left[s], left[s]), sub.get(right[s], right[s])
            if l > 2:
                return (l, r) if r > 2 else (l,)
            return (r,) if r > 2 else ()

        order = list(postorder(root, kids))  # the classes under sub, children first
        for s in (_T, _F, 2, *order):  # occurrence counts under sub, of the leaves too
            occ[s] = 0
        occ[root] = 1
        for s in reversed(order):  # parents before children
            m = occ[s]
            occ[sub.get(left[s], left[s])] += m
            occ[sub.get(right[s], right[s])] += m

        t_root, f_root, splits = occ[_T], occ[_F], []
        for s in order:
            l, r = sub.get(left[s], left[s]), sub.get(right[s], right[s])
            ts, fs = t[s], f[s] = t[l] + t[r], f[l] + f[r]
            if not (ts and fs):
                continue
            m = occ[s]
            keeps_true, keeps_false = m * ts < t_root, m * fs < f_root
            if keeps_true is keeps_false:
                continue
            leaf = _F if keeps_true else _T  # a dd core, else a cd core
            splits.append((s, leaf, len(self.log)))
            sub[s] = leaf
            self.log.append(s)
            t_root += m * ((leaf == _T) - ts)
            f_root += m * ((leaf == _F) - fs)
        return splits

    def star(self, root: int) -> Term:
        """The *-term of class ``root`` under ``sub``.

        A tree with a cd core ``k`` gives ``And(star(tree with k -> T),
        star(k))``, one with a dd core ``Or(star(tree with k -> F),
        star(k))``, and one with neither the literal unit.  The left operand
        is rebuilt first, then the right, each core under the map it had
        when it was split off.
        """
        values, todo = [], [(root, len(self.log))]
        while todo:
            item = todo.pop()
            if item is And or item is Or:
                right = values.pop()
                values[-1] = item(values[-1], right)
                continue
            k, mark = item
            for s in self.log[mark:]:
                del self.sub[s]
            del self.log[mark:]
            splits = self.spine(k)
            values.append(self.lterm(k))
            for core, leaf, core_mark in splits:  # the last split's core is rebuilt first
                todo += (And if leaf == _T else Or, (core, core_mark))
        return values[0]


def invert_tterm(x: Tree) -> Term:
    """Rebuild a T-term from a tree with only T-leaves."""
    inverse = _Inverse(x)
    return inverse.leaf_term(inverse.root, _T, "invert_tterm")


def invert_fterm(x: Tree) -> Term:
    """Rebuild an F-term from a tree with only F-leaves."""
    inverse = _Inverse(x)
    return inverse.leaf_term(inverse.root, _F, "invert_fterm")


def invert_lterm(x: Tree) -> Term:
    """Rebuild a literal unit from a tree whose root splits T from F."""
    inverse = _Inverse(x)
    return inverse.lterm(inverse.root)


def invert_star(x: Tree) -> Term:
    """Rebuild a *-term: split off the conjunction core, else the
    disjunction core, and fall back to a single literal unit.  Only cores
    are mapped to leaves: a hole leaf is reported where it is met."""
    inverse = _Inverse(x)
    return inverse.star(inverse.root)


def invert(x: Tree) -> Term:
    """Rebuild the unique normal-form term whose evaluation tree is ``x``."""
    if x.has_hole:
        raise NotInImage("tree contains hole leaves", x, "invert")
    if not x.has_false:
        return invert_tterm(x)
    if not x.has_true:
        return invert_fterm(x)
    inverse = _Inverse(x)
    core = next(inverse.candidates("ctsd"))  # the root covers, so there is one
    inverse.sub[core] = _T
    context = inverse.leaf_term(inverse.root, _T, "invert_tterm")
    del inverse.sub[core]
    return And(context, inverse.star(core))
