"""Normal-form grammar classification and the normalization function family.

The normal form has three top-level shapes: T-terms (evaluation always ends
true), F-terms (always false), and conjunctions of a T-term with a *-term
(both outcomes reachable).  *-terms are left-associated combinations of
literal units ("l-terms"); the c/d categories track whether the topmost
combination is a conjunction or a disjunction.

``nf`` rewrites any closed short-circuit term into this form while keeping
its evaluation tree unchanged.  The negation and conjunction helpers are
exposed so each defining clause is unit-testable; they reject inputs
outside their grammar category with NotInNormalForm.
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
from .trees import DEFAULT_NODE_CAP, eval_tree


class SnfClass(Enum):
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
    category is cached in the term's ``_snf_cat`` slot (terms are interned,
    so it is computed once per live term), and repeated dispatch during
    normalization stays cheap.  On a miss, the subterms whose categories
    ``_classify`` asks for are filled first, from an explicit stack.
    """
    cat = t._snf_cat
    if cat is None:
        stack = [t]
        while stack:
            need = _classify(stack[-1])
            if need.__class__ is SnfClass:
                object.__setattr__(stack.pop(), "_snf_cat", need)
            else:
                stack.append(need)
        cat = t._snf_cat
    return cat


def _classify(t: Term) -> SnfClass | Term:
    """The category of ``t``, or the first subterm it reads whose category
    is not known yet: the right operand, then the operand ``p`` of a left
    operand ``a && p``, ``!a && p`` or ``a || p``, then the left operand.
    """
    cls = type(t)
    if cls is Or or cls is And:
        left, rc = t.left, t.right._snf_cat
        if rc is None:
            return t.right
        if cls is Or:
            if type(left) is And:
                a, pc = left.left, left.right._snf_cat
                if type(a) is Atom:
                    if pc is None:
                        return left.right
                    if pc is SnfClass.T_TERM:
                        if rc is SnfClass.T_TERM:
                            return SnfClass.T_TERM
                        if rc is SnfClass.F_TERM:
                            return SnfClass.L_TERM
                elif type(a) is Not and type(a.arg) is Atom:
                    if pc is None:
                        return left.right
                    if pc is SnfClass.T_TERM and rc is SnfClass.F_TERM:
                        return SnfClass.L_TERM
            # a disjunction of a *-term with a c-term associates to the left
            if (lc := left._snf_cat) is None:
                return left
            if lc in _STAR and (rc is SnfClass.L_TERM or rc is SnfClass.C_TERM):
                return SnfClass.D_TERM
            return SnfClass.NOT_SNF
        if type(left) is Or and type(left.left) is Atom:
            if (pc := left.right._snf_cat) is None:
                return left.right
            if pc is SnfClass.F_TERM and rc is SnfClass.F_TERM:
                return SnfClass.F_TERM
        if (lc := left._snf_cat) is None:
            return left
        if lc in _STAR and (rc is SnfClass.L_TERM or rc is SnfClass.D_TERM):
            return SnfClass.C_TERM
        if lc is SnfClass.T_TERM and rc in _STAR:
            return SnfClass.T_STAR_TERM
        return SnfClass.NOT_SNF
    if cls is Const:
        return SnfClass.T_TERM if t.value else SnfClass.F_TERM
    return SnfClass.NOT_SNF


def _reject(t: Term, expected: str) -> NotInNormalForm:
    return NotInNormalForm(f"expected a {expected}, got {classify(t).label}: {t}")


def _scl_children(t: Term) -> tuple[Term, ...]:
    match t:
        case Not():
            return (t.arg,)
        case And() | Or():
            return (t.left, t.right)
        case _:  # other nodes are rejected on sight, before their subterms
            return ()


def nf(t: Term, cap: int | None = DEFAULT_NODE_CAP) -> Term:
    """Normalize a closed short-circuit term, preserving its evaluation tree.

    Each distinct subterm is normalized once, without recursion, in the
    order a recursive definition would take, so the first error met is the
    one raised.  ``cap`` bounds the node count of every compound subterm's
    normal form.  The helpers share one ``_Helpers`` for the call.
    """
    helpers, done = _Helpers(), {}
    for s in postorder(t, _scl_children):
        match s:
            case Const():
                result = s
            case Atom():
                result = And(TRUE, Or(And(s, TRUE), FALSE))
            case Var():
                raise NonClosedTerm(f"cannot normalize open term: ${s.name}")
            case Not():
                result = _checked(helpers.neg_nf(done[s.arg]), cap)
            case And():
                result = _checked(helpers.and_nf(done[s.left], done[s.right]), cap)
            case Or() if classify(done[s.left]) is SnfClass.T_TERM:
                result = _checked(done[s.left], cap)  # P || Q has the tree of a T-term P
            case Or():
                a, b = helpers.neg_nf(done[s.left]), helpers.neg_nf(done[s.right])
                result = _checked(helpers.neg_nf(helpers.and_nf(a, b)), cap)
            case _:
                raise ModeViolation(f"cannot normalize {type(s).__name__} nodes")
        done[s] = result
    return done[t]


def _checked(result: Term, cap: int | None) -> Term:
    if cap is not None and result.node_count > cap:
        raise TreeTooLarge(f"normal form exceeds the node cap of {cap}")
    return result


class _Helpers:
    """The negation and conjunction helpers, memoized for one top-level call.

    The helpers call one another and themselves many times on few distinct
    arguments.  Terms are interned, so a memo keyed by a helper's arguments
    finds every repeated call; the memos die with the object, and nothing
    outlives the call that made it.  A memo is read and written inside the
    helper itself, so a call takes one stack frame, as without the memo.
    A normal form is the one of its tree and negation is an involution, so
    each negation is entered both ways round.
    """

    __slots__ = ("negs", "star_negs", "ands", "tterms", "fterms", "tstars")

    def __init__(self):
        self.negs, self.star_negs, self.ands = {}, {}, {}
        self.tterms, self.fterms, self.tstars = {}, {}, {}

    def neg_nf(self, t: Term) -> Term:
        if (result := self.negs.get(t)) is not None:
            return result
        match t._snf_cat or classify(t):
            case SnfClass.T_TERM if t is TRUE:
                result = FALSE
            case SnfClass.T_TERM:
                # (a && p) || q  ->  (a || ~q) && ~p
                result = And(Or(t.left.left, self.neg_nf(t.right)), self.neg_nf(t.left.right))
            case SnfClass.F_TERM if t is FALSE:
                result = TRUE
            case SnfClass.F_TERM:
                # (a || p) && q  ->  (a && ~q) || ~p
                result = Or(And(t.left.left, self.neg_nf(t.right)), self.neg_nf(t.left.right))
            case SnfClass.T_STAR_TERM:
                result = And(t.left, self.neg_star(t.right))
            case _:
                raise _reject(t, "term in normal form")
        self.negs[t], self.negs[result] = result, t
        return result

    def neg_star(self, t: Term) -> Term:
        if (result := self.star_negs.get(t)) is not None:
            return result
        match t._snf_cat or classify(t):
            case SnfClass.L_TERM:
                head, pt, qf = t.left.left, t.left.right, t.right
                flipped = Not(head) if isinstance(head, Atom) else head.arg
                result = Or(And(flipped, self.neg_nf(qf)), self.neg_nf(pt))
            case SnfClass.C_TERM:
                result = Or(self.neg_star(t.left), self.neg_star(t.right))
            case SnfClass.D_TERM:
                result = And(self.neg_star(t.left), self.neg_star(t.right))
            case _:
                raise _reject(t, "*-term")
        self.star_negs[t], self.star_negs[result] = result, t
        return result

    def and_nf(self, p: Term, q: Term) -> Term:
        if (result := self.ands.get((p, q))) is not None:
            return result
        pc, qc = p._snf_cat or classify(p), q._snf_cat or classify(q)
        if not in_normal_form(qc):
            raise _reject(q, "term in normal form")
        match pc:
            case SnfClass.T_TERM if p is TRUE:
                result = q
            case SnfClass.T_TERM:
                a, pt, qt = p.left.left, p.left.right, p.right
                if qc is SnfClass.T_TERM:
                    result = Or(And(a, self.and_nf(pt, q)), self.and_nf(qt, q))
                elif qc is SnfClass.F_TERM:
                    result = And(Or(a, self.and_nf(qt, q)), self.and_nf(pt, q))
                else:
                    result = And(self.and_nf(p, q.left), q.right)
            case SnfClass.F_TERM:
                result = p
            case SnfClass.T_STAR_TERM:
                if qc is SnfClass.T_TERM:
                    result = And(p.left, self.and_star_tterm(p.right, q))
                elif qc is SnfClass.F_TERM:
                    result = self.and_nf(p.left, self.and_star_fterm(p.right, q))
                else:
                    result = And(p.left, self.and_star_tstar(p.right, q))
            case _:
                raise _reject(p, "term in normal form")
        self.ands[p, q] = result
        return result

    def and_star_tterm(self, s: Term, r: Term) -> Term:
        if (result := self.tterms.get((s, r))) is not None:
            return result
        if (r._snf_cat or classify(r)) is not SnfClass.T_TERM:
            raise _reject(r, "T-term")
        match s._snf_cat or classify(s):
            case SnfClass.L_TERM:
                # (^a && p) || q  ->  (^a && (p . r)) || q
                result = Or(And(s.left.left, self.and_nf(s.left.right, r)), s.right)
            case SnfClass.C_TERM:
                result = And(s.left, self.and_star_tterm(s.right, r))
            case SnfClass.D_TERM:
                result = Or(self.and_star_tterm(s.left, r), self.and_star_tterm(s.right, r))
            case _:
                raise _reject(s, "*-term")
        self.tterms[s, r] = result
        return result

    def and_star_fterm(self, s: Term, r: Term) -> Term:
        # A c-term gives and_star_fterm(s.left, and_star_fterm(s.right, r)): its
        # left spine is walked in a loop, and every pair passed has one result.
        passed = []
        while (result := self.fterms.get((s, r))) is None:
            if (r._snf_cat or classify(r)) is not SnfClass.F_TERM:
                raise _reject(r, "F-term")
            passed.append((s, r))
            match s._snf_cat or classify(s):
                case SnfClass.L_TERM:
                    head, pt, qf = s.left.left, s.left.right, s.right
                    if isinstance(head, Atom):
                        result = And(Or(head, qf), self.and_nf(pt, r))
                    else:
                        result = And(Or(head.arg, self.and_nf(pt, r)), qf)
                    break
                case SnfClass.C_TERM:
                    s, r = s.left, self.and_star_fterm(s.right, r)
                case SnfClass.D_TERM:
                    result = self.and_star_fterm(
                        self.neg_star(self.and_star_tterm(s.left, self.neg_nf(r))),
                        self.and_star_fterm(s.right, r),
                    )
                    break
                case _:
                    raise _reject(s, "*-term")
        for key in passed:
            self.fterms[key] = result
        return result

    def and_star_tstar(self, s: Term, q: Term) -> Term:
        if (result := self.tstars.get((s, q))) is not None:
            return result
        if (q._snf_cat or classify(q)) is not SnfClass.T_STAR_TERM:
            raise _reject(q, "T-*-term")
        qt, qs = q.left, q.right
        match qs._snf_cat or classify(qs):
            case SnfClass.L_TERM | SnfClass.D_TERM:
                result = And(self.and_star_tterm(s, qt), qs)
            case SnfClass.C_TERM:
                result = And(self.and_star_tstar(s, And(qt, qs.left)), qs.right)
            case _:  # pragma: no cover - T-*-terms always carry a *-term
                raise _reject(qs, "*-term")
        self.tstars[s, q] = result
        return result


# The helpers one at a time, each with a fresh memo, so that every defining
# clause can be tested on its own.


def neg_nf(t: Term) -> Term:
    """Negate a term in normal form; T-terms and F-terms trade places."""
    return _Helpers().neg_nf(t)


def neg_star(t: Term) -> Term:
    """Negate a *-term by flipping the literal at the head of each unit."""
    return _Helpers().neg_star(t)


def and_nf(p: Term, q: Term) -> Term:
    """Conjoin two terms in normal form into one.

    A T-term first argument leaves the second argument's category
    unchanged; an F-term first argument is returned as-is.
    """
    return _Helpers().and_nf(p, q)


def and_star_tterm(s: Term, r: Term) -> Term:
    """Conjoin a *-term with a T-term; the result is again a *-term."""
    return _Helpers().and_star_tterm(s, r)


def and_star_fterm(s: Term, r: Term) -> Term:
    """Conjoin a *-term with an F-term; the result is an F-term."""
    return _Helpers().and_star_fterm(s, r)


def and_star_tstar(s: Term, q: Term) -> Term:
    """Conjoin a *-term with a T-*-term; the result is again a *-term."""
    return _Helpers().and_star_tstar(s, q)


def or_nf(p: Term, q: Term) -> Term:
    """Disjoin two terms in normal form, via negation of the conjunction."""
    helpers = _Helpers()
    return helpers.neg_nf(helpers.and_nf(helpers.neg_nf(p), helpers.neg_nf(q)))


def decide_eq(
    p: Term, q: Term, engine: str = "tree", cap: int | None = DEFAULT_NODE_CAP
) -> bool:
    """Decide whether two closed terms have the same evaluation tree.

    Engine ``"tree"`` compares the evaluation trees directly; engine
    ``"nf"`` compares normal forms.  Trees and terms are interned, so either
    comparison is one identity test.  The two agree on every closed
    short-circuit pair.
    """
    if engine == "tree":
        return eval_tree(p, cap) is eval_tree(q, cap)
    if engine == "nf":
        return nf(p, cap) is nf(q, cap)
    raise ValueError(f"unknown engine: {engine!r}")
