"""Abstract syntax for sequential propositional statements.

Terms cover the constants T/F, atoms, negation, the left-sequential
connectives && and || (left argument always evaluated first), the
full-sequential connectives &.& and |.| (both arguments always evaluated),
the ternary conditional ``x <| y |> z`` (guard ``y`` evaluated first), and
``$``-prefixed variables for stating equational laws.

All nodes are immutable; operations are pure functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import ModeViolation, UnboundVariable

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RESERVED = frozenset({"T", "F"})

MODES = ("scl", "cp", "enriched", "open")


class Term:
    """Base class for all term nodes."""

    # Leaf nodes count as one node; composite nodes override per instance.
    node_count = 1

    def __str__(self) -> str:
        return format_term(self)


def _check_name(name: str, what: str) -> None:
    if not _IDENT_RE.match(name) or name in _RESERVED:
        raise ValueError(f"invalid {what} name: {name!r}")


@dataclass(frozen=True)
class Const(Term):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Atom(Term):
    name: str

    def __post_init__(self):
        _check_name(self.name, "atom")


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __post_init__(self):
        _check_name(self.name, "variable")


@dataclass(frozen=True)
class Not(Term):
    arg: Term

    def __post_init__(self):
        object.__setattr__(self, "node_count", 1 + self.arg.node_count)


class _Binary(Term):
    left: Term
    right: Term

    def __post_init__(self):
        object.__setattr__(
            self, "node_count", 1 + self.left.node_count + self.right.node_count
        )


@dataclass(frozen=True)
class And(_Binary):
    left: Term
    right: Term


@dataclass(frozen=True)
class Or(_Binary):
    left: Term
    right: Term


@dataclass(frozen=True)
class FullAnd(_Binary):
    left: Term
    right: Term


@dataclass(frozen=True)
class FullOr(_Binary):
    left: Term
    right: Term


@dataclass(frozen=True)
class Cond(Term):
    then: Term
    guard: Term
    orelse: Term

    def __post_init__(self):
        object.__setattr__(
            self,
            "node_count",
            1 + self.then.node_count + self.guard.node_count + self.orelse.node_count,
        )


def children(t: Term) -> tuple[Term, ...]:
    match t:
        case Not(p):
            return (p,)
        case And(l, r) | Or(l, r) | FullAnd(l, r) | FullOr(l, r):
            return (l, r)
        case Cond(a, g, b):
            return (a, g, b)
        case _:
            return ()


def subterms(t: Term) -> Iterator[Term]:
    """Yield every subterm of ``t`` in preorder (including ``t`` itself)."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(children(s)))


def variables(t: Term) -> frozenset[str]:
    return frozenset(s.name for s in subterms(t) if isinstance(s, Var))


def atom_names(t: Term) -> frozenset[str]:
    return frozenset(s.name for s in subterms(t) if isinstance(s, Atom))


def is_closed(t: Term) -> bool:
    return not any(isinstance(s, Var) for s in subterms(t))


_MODE_NODES: dict[str, tuple[type, ...]] = {
    "scl": (Const, Atom, Not, And, Or, FullAnd, FullOr),
    "cp": (Const, Atom, Cond),
    "enriched": (Const, Atom, Not, And, Or, FullAnd, FullOr, Cond),
    "open": (Const, Atom, Var, Not, And, Or, FullAnd, FullOr, Cond),
}


def check_mode(t: Term, mode: str) -> Term:
    """Raise ModeViolation unless every node of ``t`` is admissible in ``mode``."""
    if mode not in _MODE_NODES:
        raise ValueError(f"unknown mode: {mode!r}")
    allowed = _MODE_NODES[mode]
    for s in subterms(t):
        if not isinstance(s, allowed):
            raise ModeViolation(
                f"{type(s).__name__} node not allowed in mode {mode!r}"
            )
    return t


def dual(t: Term) -> Term:
    """Swap T with F and each conjunction with the matching disjunction.

    Atoms and variables are fixed points; the mapping is an involution.
    """
    match t:
        case Const(v):
            return Const(not v)
        case Atom(_) | Var(_):
            return t
        case Not(p):
            return Not(dual(p))
        case And(l, r):
            return Or(dual(l), dual(r))
        case Or(l, r):
            return And(dual(l), dual(r))
        case FullAnd(l, r):
            return FullOr(dual(l), dual(r))
        case FullOr(l, r):
            return FullAnd(dual(l), dual(r))
        case _:
            raise ModeViolation("dual is not defined on conditional nodes")


def substitute(t: Term, subst: Mapping[str, Term]) -> Term:
    """Simultaneously replace every variable of ``t`` using ``subst``."""
    match t:
        case Var(name):
            try:
                return subst[name]
            except KeyError:
                raise UnboundVariable(f"no binding for variable ${name}") from None
        case Const(_) | Atom(_):
            return t
        case Not(p):
            q = substitute(p, subst)
            return t if q is p else Not(q)
        case And(l, r) | Or(l, r) | FullAnd(l, r) | FullOr(l, r):
            l2, r2 = substitute(l, subst), substitute(r, subst)
            return t if l2 is l and r2 is r else type(t)(l2, r2)
        case Cond(a, g, b):
            a2, g2, b2 = (substitute(x, subst) for x in (a, g, b))
            return t if a2 is a and g2 is g and b2 is b else Cond(a2, g2, b2)
        case _:  # pragma: no cover
            raise TypeError(f"not a term: {t!r}")


def expand_full(t: Term) -> Term:
    """Rewrite every full-sequential connective into short-circuit form.

    ``x &.& y`` becomes ``(x || (y && F)) && y`` and ``x |.| y`` becomes
    ``(x && (y || T)) || y``, bottom-up.  Shared sub-results keep the object
    graph linear in the input.
    """
    match t:
        case Const(_) | Atom(_) | Var(_):
            return t
        case Not(p):
            q = expand_full(p)
            return t if q is p else Not(q)
        case FullAnd(l, r):
            l2, r2 = expand_full(l), expand_full(r)
            return And(Or(l2, And(r2, FALSE)), r2)
        case FullOr(l, r):
            l2, r2 = expand_full(l), expand_full(r)
            return Or(And(l2, Or(r2, TRUE)), r2)
        case And(l, r) | Or(l, r):
            l2, r2 = expand_full(l), expand_full(r)
            return t if l2 is l and r2 is r else type(t)(l2, r2)
        case Cond(a, g, b):
            a2, g2, b2 = (expand_full(x) for x in (a, g, b))
            return t if a2 is a and g2 is g and b2 is b else Cond(a2, g2, b2)
        case _:  # pragma: no cover
            raise TypeError(f"not a term: {t!r}")


# Rendering levels; a child is parenthesized when its level is below the
# level its position requires.
_LEVEL_COND, _LEVEL_OR, _LEVEL_AND, _LEVEL_NOT, _LEVEL_ATOM = 0, 1, 2, 3, 4


def format_term(t: Term) -> str:
    """Render ``t`` with the minimal parentheses that reparse to the same AST."""
    return _fmt(t, _LEVEL_COND)


def _fmt(t: Term, min_level: int) -> str:
    match t:
        case Const(v):
            s, level = ("T" if v else "F"), _LEVEL_ATOM
        case Atom(name):
            s, level = name, _LEVEL_ATOM
        case Var(name):
            s, level = "$" + name, _LEVEL_ATOM
        case Not(p):
            s, level = "!" + _fmt(p, _LEVEL_NOT), _LEVEL_NOT
        case And(l, r):
            s = _fmt(l, _LEVEL_AND) + " && " + _fmt(r, _LEVEL_AND + 1)
            level = _LEVEL_AND
        case FullAnd(l, r):
            s = _fmt(l, _LEVEL_AND) + " &.& " + _fmt(r, _LEVEL_AND + 1)
            level = _LEVEL_AND
        case Or(l, r):
            s = _fmt(l, _LEVEL_OR) + " || " + _fmt(r, _LEVEL_OR + 1)
            level = _LEVEL_OR
        case FullOr(l, r):
            s = _fmt(l, _LEVEL_OR) + " |.| " + _fmt(r, _LEVEL_OR + 1)
            level = _LEVEL_OR
        case Cond(a, g, b):
            s = (
                _fmt(a, _LEVEL_OR)
                + " <| "
                + _fmt(g, _LEVEL_OR)
                + " |> "
                + _fmt(b, _LEVEL_OR)
            )
            level = _LEVEL_COND
        case _:  # pragma: no cover
            raise TypeError(f"not a term: {t!r}")
    return "(" + s + ")" if level < min_level else s


def term_to_json(t: Term):
    """Encode ``t`` as the documented JSON object form."""
    match t:
        case Const(v):
            return {"kind": "true" if v else "false"}
        case Atom(name):
            return {"kind": "atom", "name": name}
        case Var(name):
            return {"kind": "var", "name": name}
        case Not(p):
            return {"kind": "not", "arg": term_to_json(p)}
        case And(l, r):
            return {"kind": "and", "l": term_to_json(l), "r": term_to_json(r)}
        case Or(l, r):
            return {"kind": "or", "l": term_to_json(l), "r": term_to_json(r)}
        case FullAnd(l, r):
            return {"kind": "fulland", "l": term_to_json(l), "r": term_to_json(r)}
        case FullOr(l, r):
            return {"kind": "fullor", "l": term_to_json(l), "r": term_to_json(r)}
        case Cond(a, g, b):
            return {
                "kind": "cond",
                "then": term_to_json(a),
                "if": term_to_json(g),
                "else": term_to_json(b),
            }
        case _:  # pragma: no cover
            raise TypeError(f"not a term: {t!r}")


def term_from_json(data, mode: str = "open") -> Term:
    """Decode the JSON object form; ``mode`` restricts admissible node kinds."""
    return check_mode(_from_json(data), mode)


def _from_json(data) -> Term:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"not a term object: {data!r}")
    kind = data["kind"]
    if kind == "true":
        return TRUE
    if kind == "false":
        return FALSE
    if kind == "atom":
        return Atom(data["name"])
    if kind == "var":
        return Var(data["name"])
    if kind == "not":
        return Not(_from_json(data["arg"]))
    if kind in ("and", "or", "fulland", "fullor"):
        cls = {"and": And, "or": Or, "fulland": FullAnd, "fullor": FullOr}[kind]
        return cls(_from_json(data["l"]), _from_json(data["r"]))
    if kind == "cond":
        return Cond(
            _from_json(data["then"]), _from_json(data["if"]), _from_json(data["else"])
        )
    raise ValueError(f"unknown term kind: {kind!r}")


@dataclass(frozen=True)
class Equation:
    """A pair of (possibly open) terms with a stable tag for reporting."""

    lhs: Term
    rhs: Term
    tag: str = ""

    @property
    def variables(self) -> frozenset[str]:
        return variables(self.lhs) | variables(self.rhs)

    def __str__(self) -> str:
        return f"{format_term(self.lhs)} = {format_term(self.rhs)}"
