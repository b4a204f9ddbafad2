"""Evaluation trees and the short-circuit evaluation of closed terms.

A tree is a finite binary tree over atoms whose leaves are T or F; the left
branch of a node is taken when its atom evaluates to true.  Trees used as
decomposition contexts may additionally carry hole leaves (``^``).

Nodes are hash-consed: ``Node(atom, left, right)`` returns the one live
node of that structure, so equal trees are one object, ``==`` is identity,
and every builder shares subtrees.  The unique table holds weak references
(it does not outlive the trees) and is filled by ``dict.setdefault``, so
threads that build one structure at once get one node.  Nodes cache size
(logical, not of the object graph), depth, leaf counts and leaf flags.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from enum import Enum
from typing import Iterator, NamedTuple

from .errors import ModeViolation, NonClosedTerm, ParseError, TreeTooLarge
from .terms import And, Atom, Cond, Const, FullAnd, FullOr, Not, Or, Term, Var
from .terms import _is_name

DEFAULT_NODE_CAP = 1_000_000


class Tree:
    """Base class for tree nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_tree(self)


class Leaf(Tree, Enum):
    TRUE = "T"
    FALSE = "F"
    HOLE = "^"

    def __init__(self, value: str):
        self.size, self.depth, self.has_hole = 1, 0, value == "^"
        self.t_leaves, self.f_leaves = int(value == "T"), int(value == "F")
        self.has_true, self.has_false = value == "T", value == "F"

    def __str__(self) -> str:
        return self.value

    __hash__ = object.__hash__  # by identity, in C; Enum's hash runs Python


class _Ref(weakref.ref):  # carries its table key, for _drop
    __slots__ = ("key",)


# (atom, left, right) -> _Ref to the one live node of that structure, whose
# entry goes when it dies.  Children are interned, so identity compares them.
_table: dict[tuple[str, Tree, Tree], _Ref] = {}


def _drop(ref: _Ref, remove=_remove_dead_weakref, table=_table) -> None:
    # The entry may already hold a newer node of the same structure.
    remove(table, ref.key)


class _Fields(Tree):  # the slots of Node, writable while a node is made
    __slots__ = ("atom", "left", "right", "size", "depth", "t_leaves", "f_leaves")
    __slots__ += ("has_true", "has_false", "has_hole", "__weakref__")


class Node(_Fields):
    """An interned, immutable tree node: the one live node of its structure."""

    __slots__ = ()

    def __new__(cls, atom: str, left: Tree, right: Tree) -> Node:
        key = (atom, left, right)
        ref = _table.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = object.__new__(_Fields)
        node.atom, node.left, node.right = atom, left, right
        node.size = 1 + left.size + right.size
        node.depth = 1 + (left.depth if left.depth > right.depth else right.depth)
        node.t_leaves = left.t_leaves + right.t_leaves
        node.f_leaves = left.f_leaves + right.f_leaves
        node.has_true = left.has_true or right.has_true
        node.has_false = left.has_false or right.has_false
        node.has_hole = left.has_hole or right.has_hole
        node.__class__ = Node  # frozen from here on
        new = _Ref(node, _drop)
        new.key = key
        while (ref := _table.setdefault(key, new)) is not new:
            other = ref()  # another thread interned this structure first
            if other is not None:
                return other
            _remove_dead_weakref(_table, key)
        return node

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Node, (self.atom, self.left, self.right)

    def __repr__(self) -> str:
        return f"Node(atom={self.atom!r}, left={self.left!r}, right={self.right!r})"


class LeafProfile(NamedTuple):
    has_true: bool
    has_false: bool


def depth(x: Tree) -> int:
    return x.depth


def leaf_profile(x: Tree) -> LeafProfile:
    """Report which of the two truth-value leaves occur in ``x``."""
    return LeafProfile(x.has_true, x.has_false)


def subtrees(x: Tree) -> Iterator[Tree]:
    """Yield every subtree of ``x`` in preorder (including ``x`` itself)."""
    stack = [x]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Node):
            stack += (s.right, s.left)


def replace(
    x: Tree,
    for_true: Tree = Leaf.TRUE,
    for_false: Tree = Leaf.FALSE,
    cap: int | None = None,
    *,
    for_hole: Tree = Leaf.HOLE,
) -> Tree:
    """Substitute trees for the T-, F- and hole leaves of ``x``.

    Omitted arguments default to the identity replacement.  Each distinct
    subtree is visited once, without recursion, and subtrees in which
    nothing changes are reused as-is.
    """
    new = {id(Leaf.TRUE): for_true, id(Leaf.FALSE): for_false, id(Leaf.HOLE): for_hole}
    on_t, on_f = for_true is not Leaf.TRUE, for_false is not Leaf.FALSE
    on_h = for_hole is not Leaf.HOLE
    stack = [x]
    while stack:
        s = stack[-1]
        if id(s) in new:
            stack.pop()
        elif not (on_t and s.has_true or on_f and s.has_false or on_h and s.has_hole):
            new[id(stack.pop())] = s
        elif (l := new.get(id(s.left))) is None or (r := new.get(id(s.right))) is None:
            stack += (s.right, s.left)
        else:
            stack.pop()
            new[id(s)] = node = Node(s.atom, l, r)
            if cap is not None and node.size > cap:
                raise TreeTooLarge(f"tree exceeds the node cap of {cap}")
    return new[id(x)]


def graft(context: Tree, filler: Tree, cap: int | None = None) -> Tree:
    """Replace every hole leaf of ``context`` with ``filler``."""
    return replace(context, cap=cap, for_hole=filler)


def eval_tree(term: Term, cap: int | None = DEFAULT_NODE_CAP) -> Tree:
    """Map a closed term to the tree of all its sequential evaluations.

    An atom becomes a single node with leaves T and F; negation swaps the
    leaves; ``p && q`` continues into ``q`` at the T-leaves of ``p``;
    ``p || q`` continues at the F-leaves; ``x <| y |> z`` continues from
    ``y`` into ``x`` at T-leaves and ``z`` at F-leaves.

    The tree is built by continuation passing: each subterm is evaluated
    once, with the trees to continue into at its T- and F-leaves, so the
    object graph has at most one node per atom occurrence and is linear in
    the term even when the logical tree is exponential.  ``cap`` bounds the
    logical size of every subterm's tree: ``TreeTooLarge`` is raised when
    one of them is a node larger than ``cap``, which is checked by
    arithmetic before anything is built.
    """
    _shape(term, cap)
    return _build(term, Leaf.TRUE, Leaf.FALSE)


_TRUE_SHAPE, _FALSE_SHAPE = (1, 1, 0), (1, 0, 1)


def _shape(term: Term, cap: int | None) -> tuple[int, int, int]:
    """``(size, T-leaves, F-leaves)`` of the tree of ``term``, by arithmetic.

    Subterms are visited in evaluation order (left before right, the guard
    before the branches), so the first error met is the one raised.
    """
    match term:
        case Const(v):
            return _TRUE_SHAPE if v else _FALSE_SHAPE
        case Atom(_):
            shape = (3, 1, 1)
        case Var(name):
            raise NonClosedTerm(f"cannot evaluate open term: ${name}")
        case Not(p):
            size, t, f = _shape(p, cap)
            return size, f, t
        case And(l, r):
            shape = _continued(_shape(l, cap), _shape(r, cap), _FALSE_SHAPE)
        case Or(l, r):
            shape = _continued(_shape(l, cap), _TRUE_SHAPE, _shape(r, cap))
        case Cond(a, g, b):
            shape = _continued(_shape(g, cap), _shape(a, cap), _shape(b, cap))
        case FullAnd(_, _) | FullOr(_, _):
            raise ModeViolation(
                "full-sequential connectives must be expanded before evaluation"
            )
        case _:  # pragma: no cover
            raise TypeError(f"not a term: {term!r}")
    if cap is not None and shape[0] > max(cap, 1):  # a leaf is never too large
        raise TreeTooLarge(f"tree exceeds the node cap of {cap}")
    return shape


def _continued(x, on_true, on_false) -> tuple[int, int, int]:
    """Shape of a tree of shape ``x`` once its T- and F-leaves are replaced
    by trees of shapes ``on_true`` and ``on_false``."""
    (size, t, f), (size_t, t_t, f_t), (size_f, t_f, f_f) = x, on_true, on_false
    return (
        size + t * (size_t - 1) + f * (size_f - 1),
        t * t_t + f * t_f,
        t * f_t + f * f_f,
    )


def _build(term: Term, k_true: Tree, k_false: Tree) -> Tree:
    """The tree of ``term`` with ``k_true``/``k_false`` at its T/F-leaves."""
    match term:
        case Const(v):
            return k_true if v else k_false
        case Atom(name):
            return Node(name, k_true, k_false)
        case Not(p):
            return _build(p, k_false, k_true)
        case And(l, r):
            return _build(l, _build(r, k_true, k_false), k_false)
        case Or(l, r):
            return _build(l, k_true, _build(r, k_true, k_false))
        case Cond(a, g, b):
            return _build(g, _build(a, k_true, k_false), _build(b, k_true, k_false))


def _check_atom(atom, known: set[str], pos: int | None = None) -> None:
    """Raise ``ParseError`` unless ``atom`` follows the name rule of term
    atoms.  Names in ``known`` passed before; a passing name is added."""
    if not (isinstance(atom, str) and atom in known or _is_name(atom)):
        raise ParseError(f"invalid atom name {atom!r}", pos)
    known.add(atom)


def format_tree(x: Tree) -> str:
    """Render ``x`` in the canonical text form ``(left <atom> right)``."""
    if isinstance(x, Leaf):
        return x.value
    return f"({format_tree(x.left)} <{x.atom}> {format_tree(x.right)})"


# After optional whitespace: a leaf or "(", an "<atom>", or ")".
_TREE_TOKEN = re.compile(r"\s*(?:([TF^(])|<([^>]*)>|(\)))")
_LEAVES = {"T": Leaf.TRUE, "F": Leaf.FALSE, "^": Leaf.HOLE}


def parse_tree(text: str) -> Tree:
    """Parse the canonical text form back into a tree, without recursion.

    Atom names follow the rule of term atoms; each distinct name is checked
    once.  Raises ``ParseError`` on any malformed input.
    """
    match, names, pos = _TREE_TOKEN.match, set(), 0
    opened = []  # per open "(": None, then (atom, left) once the atom is read
    while True:
        m = match(text, pos)
        if m is None or m.group(1) is None:
            pos = _skip_ws(text, pos)
            if pos == len(text):
                raise ParseError("unexpected end of input", pos)
            raise ParseError(f"expected 'T', 'F', '^', or '(', found {text[pos]!r}", pos)
        pos = m.end()
        if m.group(1) == "(":
            opened.append(None)
            continue
        tree = _LEAVES[m.group(1)]
        while opened:  # ``tree`` is a branch of the innermost open node
            m = match(text, pos)
            if opened[-1] is None:
                if m is None or m.group(2) is None:
                    pos = _skip_ws(text, pos)
                    if text.startswith("<", pos):
                        raise ParseError("unterminated '<atom>'", pos)
                    raise ParseError("expected '<atom>'", pos)
                _check_atom(m.group(2), names, m.start(2))
                opened[-1], pos = (m.group(2), tree), m.end()
                break
            if m is None or m.group(3) is None:
                raise ParseError("expected ')'", _skip_ws(text, pos))
            atom, left = opened.pop()
            tree, pos = Node(atom, left, tree), m.end()
        else:
            pos = _skip_ws(text, pos)
            if pos != len(text):
                raise ParseError(f"unexpected trailing {text[pos]!r}", pos)
            return tree


def _skip_ws(text: str, pos: int) -> int:
    return len(text) - len(text[pos:].lstrip())


def tree_to_json(x: Tree):
    """Encode ``x`` as the documented JSON object form."""
    if x is Leaf.TRUE:
        return {"leaf": "T"}
    if x is Leaf.FALSE:
        return {"leaf": "F"}
    if x is Leaf.HOLE:
        return {"leaf": "hole"}
    return {"node": x.atom, "l": tree_to_json(x.left), "r": tree_to_json(x.right)}


def tree_from_json(data, allow_hole: bool = True) -> Tree:
    """Decode the JSON object form; holes are rejected unless allowed.

    Node names follow the rule of term atoms; each distinct name is checked
    once.  Raises ``ParseError`` on any malformed input.
    """
    return _tree_from_json(data, allow_hole, set())


def _tree_from_json(data, allow_hole: bool, names: set[str]) -> Tree:
    if not isinstance(data, dict):
        raise ParseError(f"not a tree object: {data!r}")
    if "leaf" in data:
        leaf = data["leaf"]
        if leaf == "T":
            return Leaf.TRUE
        if leaf == "F":
            return Leaf.FALSE
        if leaf == "hole":
            if not allow_hole:
                raise ParseError("hole leaf not allowed here")
            return Leaf.HOLE
        raise ParseError(f"unknown leaf {leaf!r}")
    if "node" in data:
        atom = data["node"]
        _check_atom(atom, names)
        if "l" not in data or "r" not in data:
            raise ParseError(f"node {atom!r} lacks its 'l' or 'r' branch")
        return Node(
            atom,
            _tree_from_json(data["l"], allow_hole, names),
            _tree_from_json(data["r"], allow_hole, names),
        )
    raise ParseError(f"not a tree object: {data!r}")
