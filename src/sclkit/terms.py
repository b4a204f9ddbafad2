"""Abstract syntax for sequential propositional statements.

Terms cover the constants T/F, atoms, negation, the left-sequential
connectives && and || (left argument always evaluated first), the
full-sequential connectives &.& and |.| (both arguments always evaluated),
the ternary conditional ``x <| y |> z`` (guard ``y`` evaluated first), and
``$``-prefixed variables for stating equational laws.

Terms are hash-consed: each constructor returns the one live term of its
structure, so structurally equal terms are one object, ``==`` and ``hash``
are identity, and every builder shares subterms.  A term is immutable
(assigning or deleting a field raises ``AttributeError``; copies and
pickles give back the interned term) and caches its node count (logical,
not of the object graph) and the mask of the node classes it contains,
both set when it is built; nothing is written into a term afterwards.
``unique_table`` is the one interning primitive; ``trees.Node`` is built on
it too.  Operations are pure functions.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from typing import Callable, Iterator, Mapping

from .errors import ModeViolation, ParseError, UnboundVariable

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RESERVED = frozenset({"T", "F"})

MODES = ("scl", "cp", "enriched", "open")


class _Ref(weakref.ref):  # an entry of a unique table; carries its key
    __slots__ = ("key",)


def unique_table() -> tuple[dict, Callable]:
    """A new unique table and the function that enters an object into it.

    The table maps a key to a weak reference to the one live object with
    that key; an entry goes when its object dies, unless a newer object has
    taken its place.  ``enter(key, obj)`` returns the live object of
    ``key``, entering ``obj`` if there is none.  It inserts by
    ``dict.setdefault``, which is atomic under the GIL, so threads that
    enter one key at once get one object.  Callers look ``key`` up first,
    and build and enter a new object only on a miss.
    """
    table: dict = {}

    def drop(ref: _Ref, remove=_remove_dead_weakref) -> None:
        remove(table, ref.key)  # only if the entry still holds a dead reference

    def enter(key, obj):
        new = _Ref(obj, drop)
        new.key = key
        while (ref := table.setdefault(key, new)) is not new:
            other = ref()  # another thread entered this key first
            if other is not None:
                return other
            _remove_dead_weakref(table, key)
        return obj

    return table, enter


REPR_BUDGET = 2_000  # characters of a repr before it is cut with "…"


class Interned:
    """Mixin of hash-consed classes, whose fields ``__match_args__`` names.

    Instances are immutable, copy and pickle as the interned object, and
    have the dataclass-style repr, rendered without recursion and cut after
    ``REPR_BUDGET`` characters: the logical structure of a shared object
    graph can be exponentially larger than the graph.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        out, size, stack = [], 0, [self]
        while stack and size <= REPR_BUDGET:
            x = stack.pop()
            if isinstance(x, Interned):
                parts = [type(x).__name__ + "("]
                for name in x.__match_args__:
                    value = getattr(x, name)
                    shown = value if isinstance(value, Interned) else repr(value)
                    parts += (name + "=", shown, ", ")
                parts[-1] = ")"
                stack += reversed(parts)
            else:
                out.append(x)
                size += len(x)
        text = "".join(out)
        return text[:REPR_BUDGET] + "…" if stack or size > REPR_BUDGET else text


class Term:
    """Base class for all term nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_term(self)


def _is_name(name) -> bool:
    """The one name rule of atoms and variables."""
    return isinstance(name, str) and bool(_IDENT_RE.match(name)) and name not in _RESERVED


def _check_name(name: str, what: str) -> None:
    if not _is_name(name):
        raise ValueError(f"invalid {what} name: {name!r}")


# (class, *fields) -> the one live term of that structure.  Fields that are
# terms are interned, so the key compares them by identity.
_table, _enter = unique_table()


# A term is built as an instance of its class's fields class, whose slots
# can be written, and then given its class, which forbids writing them.


class _Fields(Term):
    __slots__ = ("node_count", "_kinds", "__weakref__")


class _ConstFields(_Fields):
    __slots__ = ("value",)


class _NameFields(_Fields):
    __slots__ = ("name",)


class _NotFields(_Fields):
    __slots__ = ("arg",)


class _BinaryFields(_Fields):
    __slots__ = ("left", "right")


class _CondFields(_Fields):
    __slots__ = ("then", "guard", "orelse")


class Const(_ConstFields, Interned):
    __slots__ = ()
    __match_args__ = ("value",)
    _kind = 1  # each term class has one bit; ``_kinds`` ors those of a term's nodes

    def __new__(cls, value: bool) -> Const:
        key = (cls, value)
        ref = _table.get(key)
        if ref is not None and (t := ref()) is not None:
            return t
        t = object.__new__(_ConstFields)
        t.value, t.node_count, t._kinds = value, 1, cls._kind
        t.__class__ = cls
        return _enter(key, t)


TRUE = Const(True)
FALSE = Const(False)


class _Name(_NameFields, Interned):
    __slots__ = ()
    __match_args__ = ("name",)
    _what = ""

    def __new__(cls, name: str) -> _Name:
        key = (cls, name)
        ref = _table.get(key)
        if ref is not None and (t := ref()) is not None:
            return t
        _check_name(name, cls._what)
        t = object.__new__(_NameFields)
        t.name, t.node_count, t._kinds = name, 1, cls._kind
        t.__class__ = cls
        return _enter(key, t)


class Atom(_Name):
    __slots__ = ()
    _what, _kind = "atom", 2


class Var(_Name):
    __slots__ = ()
    _what, _kind = "variable", 4


class Not(_NotFields, Interned):
    __slots__ = ()
    __match_args__ = ("arg",)
    _kind = 8

    def __new__(cls, arg: Term) -> Not:
        key = (cls, arg)
        ref = _table.get(key)
        if ref is not None and (t := ref()) is not None:
            return t
        t = object.__new__(_NotFields)
        t.arg, t.node_count, t._kinds = arg, 1 + arg.node_count, cls._kind | arg._kinds
        t.__class__ = cls
        return _enter(key, t)


class _Binary(_BinaryFields, Interned):
    __slots__ = ()
    __match_args__ = ("left", "right")

    def __new__(cls, left: Term, right: Term) -> _Binary:
        key = (cls, left, right)
        ref = _table.get(key)
        if ref is not None and (t := ref()) is not None:
            return t
        t = object.__new__(_BinaryFields)
        t.left, t.right = left, right
        t.node_count = 1 + left.node_count + right.node_count
        t._kinds = cls._kind | left._kinds | right._kinds
        t.__class__ = cls
        return _enter(key, t)


class And(_Binary):
    __slots__ = ()
    _kind = 16


class Or(_Binary):
    __slots__ = ()
    _kind = 32


class FullAnd(_Binary):
    __slots__ = ()
    _kind = 64


class FullOr(_Binary):
    __slots__ = ()
    _kind = 128


class Cond(_CondFields, Interned):
    __slots__ = ()
    __match_args__ = ("then", "guard", "orelse")
    _kind = 256

    def __new__(cls, then: Term, guard: Term, orelse: Term) -> Cond:
        key = (cls, then, guard, orelse)
        ref = _table.get(key)
        if ref is not None and (t := ref()) is not None:
            return t
        t = object.__new__(_CondFields)
        t.then, t.guard, t.orelse = then, guard, orelse
        t.node_count = 1 + then.node_count + guard.node_count + orelse.node_count
        t._kinds = cls._kind | then._kinds | guard._kinds | orelse._kinds
        t.__class__ = cls
        return _enter(key, t)


def children(t: Term) -> tuple[Term, ...]:
    cls = type(t)
    if cls is Not:
        return (t.arg,)
    if cls is And or cls is Or or cls is FullAnd or cls is FullOr:
        return (t.left, t.right)
    if cls is Cond:
        return (t.then, t.guard, t.orelse)
    return ()


def postorder(t: Term, kids: Callable[[Term], tuple[Term, ...]] = children) -> Iterator[Term]:
    """Yield each distinct subterm of ``t`` once, after the subterms
    ``kids`` gives for it, which are taken in that order; without recursion.

    A subterm is reached only once the ones before it are done, so a fold
    over the yielded terms meets errors in the order a recursive fold
    would.  A node rejected on sight should have no ``kids``.
    """
    done = set()
    stack = [(t, iter(kids(t)))]
    while stack:
        s, todo = stack[-1]
        for k in todo:
            if k not in done:
                stack.append((k, iter(kids(k))))
                break
        else:
            stack.pop()
            done.add(s)
            yield s


def variables(t: Term) -> frozenset[str]:
    """The names of the variables of ``t``, visiting each distinct subterm once."""
    return frozenset(s.name for s in postorder(t) if isinstance(s, Var))


_SCL = Const._kind | Atom._kind | Not._kind | And._kind | Or._kind | FullAnd._kind | FullOr._kind
_MODE_KINDS = {
    "scl": _SCL,
    "cp": Const._kind | Atom._kind | Cond._kind,
    "enriched": _SCL | Cond._kind,
    "open": _SCL | Cond._kind | Var._kind,
}
_FULL = FullAnd._kind | FullOr._kind


def check_mode(t: Term, mode: str) -> Term:
    """Raise ModeViolation unless every node of ``t`` is admissible in ``mode``.

    One test of the node classes ``t`` contains; on a failure, the first
    inadmissible node in preorder is found by descending into the first
    child that contains one.
    """
    if mode not in _MODE_KINDS:
        raise ValueError(f"unknown mode: {mode!r}")
    bad = ~_MODE_KINDS[mode]
    if getattr(t, "_kinds", bad) & bad:
        while getattr(type(t), "_kind", bad) & bad == 0:
            t = next(s for s in children(t) if s._kinds & bad)
        raise ModeViolation(f"{type(t).__name__} node not allowed in mode {mode!r}")
    return t


_DUAL = {And: Or, Or: And, FullAnd: FullOr, FullOr: FullAnd}


def dual(t: Term) -> Term:
    """Swap T with F and each conjunction with the matching disjunction.

    Atoms and variables are fixed points; the mapping is an involution.
    One fold over the distinct subterms, without recursion.
    """
    new = {}
    for s in postorder(t):
        cls = type(s)
        if cls is Not:
            new[s] = Not(new[s.arg])
        elif cls in _DUAL:
            new[s] = _DUAL[cls](new[s.left], new[s.right])
        elif cls is Const:
            new[s] = Const(not s.value)
        elif cls is Atom or cls is Var:
            new[s] = s
        else:
            raise ModeViolation("dual is not defined on conditional nodes")
    return new[t]


def substitute(t: Term, subst: Mapping[str, Term]) -> Term:
    """Simultaneously replace every variable of ``t`` using ``subst``.

    One fold over the distinct subterms, without recursion; the first
    unbound variable met, left to right, is the one reported.  A subterm
    in which nothing changes is rebuilt from the same operands, which
    interning answers with the subterm itself.
    """
    new = {}
    for s in postorder(t):
        cls = type(s)
        if cls is Not:
            new[s] = Not(new[s.arg])
        elif cls is And or cls is Or or cls is FullAnd or cls is FullOr:
            new[s] = cls(new[s.left], new[s.right])
        elif cls is Var:
            try:
                new[s] = subst[s.name]
            except KeyError:
                raise UnboundVariable(f"no binding for variable ${s.name}") from None
        elif cls is Const or cls is Atom:
            new[s] = s
        elif cls is Cond:
            new[s] = Cond(new[s.then], new[s.guard], new[s.orelse])
        else:
            raise TypeError(f"not a term: {s!r}")
    return new[t]


def expand_full(t: Term) -> Term:
    """Rewrite every full-sequential connective into short-circuit form.

    ``x &.& y`` becomes ``(x || (y && F)) && y`` and ``x |.| y`` becomes
    ``(x && (y || T)) || y``, bottom-up.  A term without full connectives
    is returned as it is; the others are one fold over the distinct
    subterms that hold full connectives, without recursion, so shared
    sub-results keep the object graph linear in the input.
    """
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    if not t._kinds & _FULL:
        return t
    new = {}
    for s in postorder(t, lambda s: tuple(k for k in children(s) if k._kinds & _FULL)):
        cls = type(s)
        kids = [new.get(k, k) for k in children(s)]
        if cls is FullAnd:
            new[s] = And(Or(kids[0], And(kids[1], FALSE)), kids[1])
        elif cls is FullOr:
            new[s] = Or(And(kids[0], Or(kids[1], TRUE)), kids[1])
        else:
            new[s] = cls(*kids)
    return new[t]


# Rendering levels; a child is parenthesized when its level is below the
# level its position requires.
_LEVEL_COND, _LEVEL_OR, _LEVEL_AND, _LEVEL_NOT = 0, 1, 2, 3


_INFIX = {
    And: (" && ", _LEVEL_AND),
    FullAnd: (" &.& ", _LEVEL_AND),
    Or: (" || ", _LEVEL_OR),
    FullOr: (" |.| ", _LEVEL_OR),
}


def format_term(t: Term) -> str:
    """Render ``t`` with the minimal parentheses that reparse to the same AST.

    The pieces are put out left to right from an explicit stack, which holds
    pieces still to put out and ``(term, level)`` pairs still to render (a
    term is parenthesized when its level is below the one its place
    needs), and joined once.
    """
    out, stack = [], [(t, _LEVEL_COND)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        s, min_level = item
        cls = s.__class__
        infix = _INFIX.get(cls)
        if infix is not None:
            op, level = infix
            if level < min_level:
                out.append("(")
                stack.append(")")
            stack += ((s.right, level + 1), op, (s.left, level))
        elif cls is Atom:
            out.append(s.name)
        elif cls is Const:
            out.append("T" if s.value else "F")
        elif cls is Not:
            out.append("!")
            stack.append((s.arg, _LEVEL_NOT))
        elif cls is Var:
            out.append("$" + s.name)
        elif cls is Cond:
            if _LEVEL_COND < min_level:
                out.append("(")
                stack.append(")")
            stack += ((s.orelse, _LEVEL_OR), " |> ", (s.guard, _LEVEL_OR), " <| ", (s.then, _LEVEL_OR))
        else:  # pragma: no cover
            raise TypeError(f"not a term: {s!r}")
    return "".join(out)


_JSON_FIELDS = {
    "not": (Not, ("arg",)),
    "and": (And, ("l", "r")),
    "or": (Or, ("l", "r")),
    "fulland": (FullAnd, ("l", "r")),
    "fullor": (FullOr, ("l", "r")),
    "cond": (Cond, ("then", "if", "else")),
}
_JSON_KIND = {cls: (kind, fields) for kind, (cls, fields) in _JSON_FIELDS.items()}


def term_to_json(t: Term):
    """Encode ``t`` as the documented JSON object form (compound nodes have
    the fields of ``_JSON_FIELDS``), in one fold over the distinct subterms,
    without recursion: the occurrences of a shared subterm share one dict."""
    done = {}
    for s in postorder(t):
        cls = type(s)
        if cls is Const:
            done[s] = {"kind": "true" if s.value else "false"}
        elif cls is Atom or cls is Var:
            done[s] = {"kind": "atom" if cls is Atom else "var", "name": s.name}
        elif cls in _JSON_KIND:
            kind, fields = _JSON_KIND[cls]
            done[s] = obj = {"kind": kind}
            for name, k in zip(fields, children(s)):
                obj[name] = done[k]
        else:  # pragma: no cover
            raise TypeError(f"not a term: {s!r}")
    return done[t]


def term_from_json(data, mode: str = "open") -> Term:
    """Decode the JSON object form; ``mode`` restricts admissible node kinds.

    Raises ``ParseError`` on any malformed input.
    """
    return check_mode(_from_json(data), mode)


def _from_json(data) -> Term:
    if not isinstance(data, dict) or not isinstance(data.get("kind"), str):
        raise ParseError(f"not a term object: {data!r}")
    kind = data["kind"]
    if kind in ("true", "false"):
        return TRUE if kind == "true" else FALSE
    if kind in ("atom", "var"):
        name = data.get("name")
        if not _is_name(name):
            raise ParseError(f"invalid {kind} name: {name!r}")
        return Atom(name) if kind == "atom" else Var(name)
    if kind not in _JSON_FIELDS:
        raise ParseError(f"unknown term kind: {kind!r}")
    cls, fields = _JSON_FIELDS[kind]
    for name in fields:
        if name not in data:
            raise ParseError(f"{kind} term lacks its {name!r} field")
    return cls(*(_from_json(data[name]) for name in fields))
