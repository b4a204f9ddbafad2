"""Normal-form grammar classification and the normalization function family.

The normal form has three top-level shapes: T-terms (evaluation always ends
true), F-terms (always false), and conjunctions of a T-term with a *-term
(both outcomes reachable).  *-terms are left-associated combinations of
literal units ("l-terms"); the c/d categories track whether the topmost
combination is a conjunction or a disjunction.

``nf`` rewrites any closed short-circuit term into this form while keeping
its evaluation tree unchanged.  It runs the clauses on a node table made for
the call and interns only the normal form it returns: each tree has one
normal form, so how the intermediate terms are built does not show.
``decide_eq`` folds both sides into one such table and compares their
nodes, so it interns nothing.  ``classify`` loads a term into such a
table, which gives each distinct subterm its category once, from the
categories of its operands; nothing is kept on the term.  The negation and
conjunction helpers are exposed so each defining clause is unit-testable;
they reject inputs outside their grammar category with NotInNormalForm.
"""

from __future__ import annotations

from enum import Enum

from .errors import ModeViolation, NonClosedTerm, NotInNormalForm, TreeTooLarge
from .terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    Const,
    Not,
    Or,
    Term,
    Var,
    postorder,
)
from .trees import DEFAULT_NODE_CAP, same_tree
from .trees import eval_tree  # noqa: F401  (bench/worker.py traces normalize.eval_tree)


class SnfClass(Enum):
    """The grammar categories ``classify`` reports.

    ``STAR_TERM`` names the *-terms as a whole, but no term is classified
    as it: a *-term is always reported by its case, an l-, c- or d-term.
    The member stays as part of the public enumeration.
    """

    T_TERM = "T-term"
    F_TERM = "F-term"
    L_TERM = "l-term"
    C_TERM = "c-term"
    D_TERM = "d-term"
    STAR_TERM = "star-term"
    T_STAR_TERM = "T-star-term"
    NOT_SNF = "not-snf"

    @property
    def label(self) -> str:
        return self.value


_STAR = (SnfClass.L_TERM, SnfClass.C_TERM, SnfClass.D_TERM)
_SNF = (SnfClass.T_TERM, SnfClass.F_TERM, SnfClass.T_STAR_TERM)


def is_star_class(c: SnfClass) -> bool:
    """L-, c-, and d-terms are all *-terms."""
    return c in _STAR


def in_normal_form(c: SnfClass) -> bool:
    return c in _SNF


def classify(t: Term) -> SnfClass:
    """Most specific grammar category of ``t``; NOT_SNF if none matches.

    Every term in normal form is a T-term, an F-term, or a T-*-term at top
    level; the finer *-term categories classify the left/right parts.  The
    term is loaded into a node table made for the call, which gives each of
    its distinct subterms its category once, operands first
    (``_Helpers._category``); nothing is kept on the term.  ``nf`` does not
    call it: its clauses record the category of each node they build.
    """
    h = _Helpers()
    return h.cat[h.load(t)]


_T, _F, _L, _C, _D = SnfClass.T_TERM, SnfClass.F_TERM, SnfClass.L_TERM, SnfClass.C_TERM, SnfClass.D_TERM
_TS, _NO = SnfClass.T_STAR_TERM, SnfClass.NOT_SNF


def _scl_children(t: Term) -> tuple[Term, ...]:
    cls = type(t)
    if cls is Not:
        return (t.arg,)
    if cls is And or cls is Or:
        return (t.left, t.right)
    return ()  # other nodes are rejected on sight, before their subterms


def nf(t: Term, cap: int | None = DEFAULT_NODE_CAP) -> Term:
    """Normalize a closed short-circuit term, preserving its evaluation tree.

    ``cap`` bounds the node count of every compound subterm's normal form.
    The clauses run on a ``_Helpers`` table made for the call
    (``_Helpers.fold``), and only the normal form of ``t`` is interned, at
    the end.
    """
    h = _Helpers()
    return h.export(h.fold(t, cap))


class _Helpers:
    """A node table for one top-level call, and the paper's negation and
    conjunction clauses on its nodes, each memoized on its node arguments
    inside itself, so that a call takes one stack frame.

    A node is an int that indexes lists of its class, operands (a ``Not``
    node's operand is both), category and node count; ``term`` holds the
    terms of nodes that have one, and ``ids`` maps ``(class, left, right)``,
    or a leaf's term, to its node.  Node 0 is T and node 1 is F.  Each
    clause records the category of the node it builds, and ``load`` gives a
    node the one ``_category`` reads off its operands; only ``export``
    makes terms.  A normal form is the one of its tree and negation is an
    involution, so each negation is entered in its memo both ways round.
    """

    __slots__ = ("kind", "left", "right", "cat", "size", "term", "ids")
    __slots__ += ("negs", "star_negs", "ands", "tterms", "fterms", "tstars")

    def __init__(self):
        self.kind, self.left, self.right = [Const, Const], [None, None], [None, None]
        self.cat, self.size, self.term = [_T, _F], [1, 1], {0: TRUE, 1: FALSE}
        self.ids = {TRUE: 0, FALSE: 1}
        self.negs, self.star_negs, self.ands, self.tterms, self.fterms, self.tstars = {}, {}, {}, {}, {}, {}

    def add(self, key, kind, left, right, cat: SnfClass, size: int, term: Term | None = None) -> int:
        """Make the node of ``key``, which is not in the table yet."""
        n = self.ids[key] = len(self.cat)
        self.kind.append(kind)
        self.left.append(left)
        self.right.append(right)
        self.cat.append(cat)
        self.size.append(size)
        if term is not None:
            self.term[n] = term
        return n

    def node(self, cls, left: int, right: int, cat: SnfClass) -> int:
        """The node ``cls(left, right)`` of category ``cat``, for ``And`` or ``Or``."""
        if (n := self.ids.get((cls, left, right))) is None:
            n = self.add((cls, left, right), cls, left, right, cat, self.size[left] + self.size[right] + 1)
        return n

    def fold(self, t: Term, cap: int | None) -> int:
        """The node of the normal form of the closed short-circuit term ``t``.

        Each distinct subterm is normalized once, without recursion, in the
        order a recursive definition would take, so the first error met is
        the one raised.  ``cap`` bounds the node count of every compound
        subterm's normal form.  An atom keeps the node it has in the table,
        so terms folded into one table share their nodes.
        """
        node, cat, size, ids, done = self.node, self.cat, self.size, self.ids, {}
        for s in postorder(t, _scl_children):
            cls = type(s)
            if cls is Const:
                n = 0 if s.value else 1
            elif cls is Atom:
                a = ids[s] if s in ids else self.add(s, Atom, None, None, _NO, 1, s)
                n = node(And, 0, node(Or, node(And, a, 0, _NO), 1, _L), _TS)
            elif cls is Not:
                n = self.neg_nf(done[s.arg])
            elif cls is And:
                n = self.and_nf(done[s.left], done[s.right])
            elif cls is Or:
                n = done[s.left]
                if cat[n] is not _T:  # else P || Q has the tree of the T-term P
                    n = self.neg_nf(self.and_nf(self.neg_nf(n), self.neg_nf(done[s.right])))
            elif cls is Var:
                raise NonClosedTerm(f"cannot normalize open term: ${s.name}")
            else:
                raise ModeViolation(f"cannot normalize {cls.__name__} nodes")
            if cap is not None and size[n] > cap and s.node_count > 1:  # a compound subterm
                raise TreeTooLarge(f"normal form exceeds the node cap of {cap}")
            done[s] = n
        return done[t]

    def load(self, t: Term) -> int:
        """The node of ``t``, in one fold over its distinct subterms; other
        nodes than !, && and || are leaves.  A new node gets its category
        from its operands' (``_category``), which the fold has given first."""
        ids, done = self.ids, {}
        for s in postorder(t, _scl_children):
            cls = type(s)
            if cls is Not:
                a = b = done[s.arg]
            elif cls is And or cls is Or:
                a, b = done[s.left], done[s.right]
            else:
                a = b = None
            key = s if a is None else (cls, a, b)
            if key not in ids:
                self.add(key, cls, a, b, self._category(cls, a, b), s.node_count, s)
            done[s] = ids[key]
        return done[t]

    def _category(self, cls, l: int | None, r: int | None) -> SnfClass:
        """The grammar category of a node ``cls(l, r)`` whose operands have
        theirs.  A constant is node 0 or 1, so every other leaf is NOT_SNF."""
        kind, left, right, cat = self.kind, self.left, self.right, self.cat
        if cls is not And and cls is not Or:
            return _NO
        lc, rc = cat[l], cat[r]
        if cls is Or:
            if kind[l] is And and cat[right[l]] is _T:
                a = left[l]
                if kind[a] is Atom and (rc is _T or rc is _F):
                    return _T if rc is _T else _L
                if kind[a] is Not and kind[left[a]] is Atom and rc is _F:
                    return _L
            # a disjunction of a *-term with a c-term associates to the left
            return _D if lc in _STAR and (rc is _L or rc is _C) else _NO
        if kind[l] is Or and kind[left[l]] is Atom and cat[right[l]] is _F and rc is _F:
            return _F
        if lc in _STAR and (rc is _L or rc is _D):
            return _C
        return _TS if lc is _T and rc in _STAR else _NO

    def export(self, n: int) -> Term:
        """The interned term of node ``n``: the nodes it reaches that have no
        term are built once each, oldest first, so operands come first."""
        term, kind, left, right = self.term, self.kind, self.left, self.right
        todo, stack = set(), [n]
        while stack:
            m = stack.pop()
            if m not in term and m not in todo:
                todo.add(m)
                stack += (left[m], right[m])
        for m in sorted(todo):
            cls, a, b = kind[m], term[left[m]], term[right[m]]
            term[m] = Not(a) if cls is Not else cls(a, b)
        return term[n]

    def reject(self, n: int, expected: str) -> NotInNormalForm:
        return NotInNormalForm(f"expected a {expected}, got {self.cat[n].label}: {self.export(n)}")

    def neg_nf(self, t: int) -> int:
        if (result := self.negs.get(t)) is not None:
            return result
        c, left, right = self.cat[t], self.left, self.right
        if t < 2:
            result = 1 - t  # T and F trade places
        elif c is _T or c is _F:
            # (a && p) || q  ->  (a || ~q) && ~p, and dually
            inner, outer, negated = (Or, And, _F) if c is _T else (And, Or, _T)
            a = self.node(inner, left[left[t]], self.neg_nf(right[t]), _NO)
            result = self.node(outer, a, self.neg_nf(right[left[t]]), negated)
        elif c is _TS:
            result = self.node(And, left[t], self.neg_star(right[t]), _TS)
        else:
            raise self.reject(t, "term in normal form")
        self.negs[t], self.negs[result] = result, t
        return result

    def neg_star(self, t: int) -> int:
        # A c- or d-term's left spine is walked in a loop: down to the first
        # operand that is an l-term or whose negation is known, then back up.
        memo, cat, left, right = self.star_negs, self.cat, self.left, self.right
        spine = []
        while t not in memo and (cat[t] is _C or cat[t] is _D):
            spine.append(t)
            t = left[t]
        if (result := memo.get(t)) is None:
            if cat[t] is not _L:
                raise self.reject(t, "*-term")
            head, pt, qf = left[left[t]], right[left[t]], right[t]
            if self.kind[head] is Atom:  # node 0 is T, so no Not node is 0
                flipped = self.ids.get((Not, head, head)) or self.add((Not, head, head), Not, head, head, _NO, 2)
            else:
                flipped = left[head]
            a = self.node(And, flipped, self.neg_nf(qf), _NO)
            result = self.node(Or, a, self.neg_nf(pt), _L)
            memo[t], memo[result] = result, t
        for t in reversed(spine):  # x && y -> ~x || ~y, a d-term, and dually
            cls, c = (Or, _D) if cat[t] is _C else (And, _C)
            result = self.node(cls, result, self.neg_star(right[t]), c)
            memo[t], memo[result] = result, t
        return result

    def and_nf(self, p: int, q: int) -> int:
        if (result := self.ands.get((p, q))) is not None:
            return result
        cat, left, right = self.cat, self.left, self.right
        pc, qc = cat[p], cat[q]
        if qc is not _T and qc is not _F and qc is not _TS:
            raise self.reject(q, "term in normal form")
        if p == 0:
            result = q
        elif pc is _T:
            a, pt, qt = left[left[p]], right[left[p]], right[p]
            if qc is _T:
                result = self.node(Or, self.node(And, a, self.and_nf(pt, q), _NO), self.and_nf(qt, q), _T)
            elif qc is _F:
                result = self.node(And, self.node(Or, a, self.and_nf(qt, q), _NO), self.and_nf(pt, q), _F)
            else:
                result = self.node(And, self.and_nf(p, left[q]), right[q], _TS)
        elif pc is _F:
            result = p
        elif pc is _TS:
            if qc is _T:
                result = self.node(And, left[p], self.and_star_tterm(right[p], q), _TS)
            elif qc is _F:
                result = self.and_nf(left[p], self.and_star_fterm(right[p], q))
            else:
                result = self.node(And, left[p], self.and_star_tstar(right[p], q), _TS)
        else:
            raise self.reject(p, "term in normal form")
        self.ands[p, q] = result
        return result

    def and_star_tterm(self, s: int, r: int) -> int:
        # A d-term's left spine is walked in a loop: down to the first operand
        # that is no d-term or whose result is known, then back up.
        memo, cat, left, right = self.tterms, self.cat, self.left, self.right
        if cat[r] is not _T:
            raise self.reject(r, "T-term")
        spine = []
        while (s, r) not in memo and cat[s] is _D:
            spine.append(s)
            s = left[s]
        if (result := memo.get((s, r))) is None:
            if cat[s] is _L:
                # (^a && p) || q  ->  (^a && (p . r)) || q
                a = self.node(And, left[left[s]], self.and_nf(right[left[s]], r), _NO)
                result = self.node(Or, a, right[s], _L)
            elif cat[s] is _C:
                result = self.node(And, left[s], self.and_star_tterm(right[s], r), _C)
            else:
                raise self.reject(s, "*-term")
            memo[s, r] = result
        for s in reversed(spine):
            result = self.node(Or, result, self.and_star_tterm(right[s], r), _D)
            memo[s, r] = result
        return result

    def and_star_fterm(self, s: int, r: int) -> int:
        # A c-term gives and_star_fterm(s.left, and_star_fterm(s.right, r)): its
        # left spine is walked in a loop, and every pair passed has one result.
        memo, cat, left, right = self.fterms, self.cat, self.left, self.right
        passed = []
        while (result := memo.get((s, r))) is None:
            if cat[r] is not _F:
                raise self.reject(r, "F-term")
            passed.append((s, r))
            c = cat[s]
            if c is _L:
                head, pt, qf = left[left[s]], right[left[s]], right[s]
                if self.kind[head] is Atom:
                    result = self.node(And, self.node(Or, head, qf, _NO), self.and_nf(pt, r), _F)
                else:
                    result = self.node(And, self.node(Or, left[head], self.and_nf(pt, r), _NO), qf, _F)
                break
            if c is _C:
                s, r = left[s], self.and_star_fterm(right[s], r)
            elif c is _D:
                u = self.neg_star(self.and_star_tterm(left[s], self.neg_nf(r)))
                result = self.and_star_fterm(u, self.and_star_fterm(right[s], r))
                break
            else:
                raise self.reject(s, "*-term")
        for key in passed:
            memo[key] = result
        return result

    def and_star_tstar(self, s: int, q: int) -> int:
        # q = t && (u && v) with a c-term u && v gives and_star_tstar(s, t && u) && v:
        # the c-term's left spine is walked in a loop, down to the first pair
        # whose star part is no c-term or whose result is known, then back up.
        memo, cat, left, right = self.tstars, self.cat, self.left, self.right
        spine = []
        while (s, q) not in memo:
            if cat[q] is not _TS:
                raise self.reject(q, "T-*-term")
            qt, qs = left[q], right[q]
            if cat[qs] is not _C:  # an l- or d-term
                memo[s, q] = self.node(And, self.and_star_tterm(s, qt), qs, _C)
                break
            spine.append(q)
            q = self.node(And, qt, left[qs], _TS)
        result = memo[s, q]
        for q in reversed(spine):
            result = memo[s, q] = self.node(And, result, right[right[q]], _C)
        return result


# The helpers one at a time, each on a fresh table that its arguments are
# loaded into, so that every defining clause can be tested on its own.


def neg_nf(t: Term) -> Term:
    """Negate a term in normal form; T-terms and F-terms trade places."""
    h = _Helpers()
    return h.export(h.neg_nf(h.load(t)))


def neg_star(t: Term) -> Term:
    """Negate a *-term by flipping the literal at the head of each unit."""
    h = _Helpers()
    return h.export(h.neg_star(h.load(t)))


def and_nf(p: Term, q: Term) -> Term:
    """Conjoin two terms in normal form into one.

    A T-term first argument leaves the second argument's category
    unchanged; an F-term first argument is returned as-is.
    """
    h = _Helpers()
    return h.export(h.and_nf(h.load(p), h.load(q)))


def and_star_tterm(s: Term, r: Term) -> Term:
    """Conjoin a *-term with a T-term; the result is again a *-term."""
    h = _Helpers()
    return h.export(h.and_star_tterm(h.load(s), h.load(r)))


def and_star_fterm(s: Term, r: Term) -> Term:
    """Conjoin a *-term with an F-term; the result is an F-term."""
    h = _Helpers()
    return h.export(h.and_star_fterm(h.load(s), h.load(r)))


def and_star_tstar(s: Term, q: Term) -> Term:
    """Conjoin a *-term with a T-*-term; the result is again a *-term."""
    h = _Helpers()
    return h.export(h.and_star_tstar(h.load(s), h.load(q)))


def or_nf(p: Term, q: Term) -> Term:
    """Disjoin two terms in normal form, via negation of the conjunction."""
    h = _Helpers()
    return h.export(h.neg_nf(h.and_nf(h.neg_nf(h.load(p)), h.neg_nf(h.load(q)))))


def decide_eq(p: Term, q: Term, engine: str = "tree", cap: int | None = DEFAULT_NODE_CAP) -> bool:
    """Decide whether two closed terms have the same evaluation tree.

    Engine ``"tree"`` compares the evaluation trees (``trees.same_tree``):
    two trees of different shapes (size, T-leaves, F-leaves), which its cap
    check computes, differ, and only sides of one shape are built.  Engine
    ``"nf"`` compares normal forms, folding ``p`` and then ``q`` into one
    ``_Helpers`` table; it computes no shape, and must fold both sides to
    raise its cap errors.  Either engine builds into one table made for the
    call, in which equal trees, or equal normal forms, are one int node,
    and compares the two ids: nothing is interned.  Each raises what
    ``eval_tree`` or ``nf`` raises on ``p`` and then on ``q``.  The two
    agree on every closed short-circuit pair.
    """
    if engine == "tree":
        return same_tree(p, q, cap)
    if engine == "nf":
        h = _Helpers()
        return h.fold(p, cap) == h.fold(q, cap)
    raise ValueError(f"unknown engine: {engine!r}")
