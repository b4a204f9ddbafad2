"""Evaluation trees and the short-circuit evaluation of closed terms.

A tree is a finite binary tree over atoms whose leaves are T or F; the left
branch of a node is taken when its atom evaluates to true.  Trees used as
decomposition contexts may additionally carry hole leaves (``^``).  Nodes
cache size, depth, leaf flags, and a structural hash, so those queries and
structural comparisons stay cheap on shared subtrees; ``size`` counts the
logical tree, not the shared object graph.

``eval_tree`` builds by continuation passing rather than by copying trees
through leaf replacement, so its object graph is linear in the term (one
node per atom occurrence) while the logical tree may be exponential.  The
node cap bounds the logical tree size of every subterm's tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

from .errors import ModeViolation, NonClosedTerm, ParseError, TreeTooLarge
from .terms import And, Atom, Cond, Const, FullAnd, FullOr, Not, Or, Term, Var
from .terms import _IDENT_RE, _RESERVED

DEFAULT_NODE_CAP = 1_000_000


class Tree:
    """Base class for tree nodes."""

    def __str__(self) -> str:
        return format_tree(self)


class Leaf(Tree, Enum):
    TRUE = "T"
    FALSE = "F"
    HOLE = "^"

    @property
    def size(self) -> int:
        return 1

    @property
    def depth(self) -> int:
        return 0

    @property
    def has_true(self) -> bool:
        return self is Leaf.TRUE

    @property
    def has_false(self) -> bool:
        return self is Leaf.FALSE

    @property
    def has_hole(self) -> bool:
        return self is Leaf.HOLE

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, eq=False)
class Node(Tree):
    atom: str
    left: Tree
    right: Tree

    def __post_init__(self):
        l, r = self.left, self.right
        object.__setattr__(self, "size", 1 + l.size + r.size)
        object.__setattr__(self, "depth", 1 + max(l.depth, r.depth))
        object.__setattr__(self, "has_true", l.has_true or r.has_true)
        object.__setattr__(self, "has_false", l.has_false or r.has_false)
        object.__setattr__(self, "has_hole", l.has_hole or r.has_hole)
        object.__setattr__(self, "_h", hash((self.atom, hash(l), hash(r))))

    def __hash__(self) -> int:
        return self._h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Node)
            and self._h == other._h
            and self.atom == other.atom
            and self.left == other.left
            and self.right == other.right
        )


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
            stack.append(s.right)
            stack.append(s.left)


def _node(atom: str, left: Tree, right: Tree, cap: int | None) -> Node:
    node = Node(atom, left, right)
    if cap is not None and node.size > cap:
        raise TreeTooLarge(f"tree exceeds the node cap of {cap}")
    return node


def replace(
    x: Tree,
    for_true: Tree = Leaf.TRUE,
    for_false: Tree = Leaf.FALSE,
    cap: int | None = None,
) -> Tree:
    """Substitute trees for the T- and F-leaves of ``x``.

    Omitted arguments default to the identity replacement.  Hole leaves are
    untouched.  Subtrees in which nothing changes are reused as-is.
    """
    if x is Leaf.TRUE:
        return for_true
    if x is Leaf.FALSE:
        return for_false
    if x is Leaf.HOLE:
        return x
    if (for_true is Leaf.TRUE or not x.has_true) and (
        for_false is Leaf.FALSE or not x.has_false
    ):
        return x
    left = replace(x.left, for_true, for_false, cap)
    right = replace(x.right, for_true, for_false, cap)
    if left is x.left and right is x.right:
        return x
    return _node(x.atom, left, right, cap)


def graft(context: Tree, filler: Tree, cap: int | None = None) -> Tree:
    """Replace every hole leaf of ``context`` with ``filler``."""
    if context is Leaf.HOLE:
        return filler
    if not context.has_hole:
        return context
    left = graft(context.left, filler, cap)
    right = graft(context.right, filler, cap)
    return _node(context.atom, left, right, cap)


def eval_tree(term: Term, cap: int | None = DEFAULT_NODE_CAP) -> Tree:
    """Map a closed term to the tree of all its sequential evaluations.

    An atom becomes a single node with leaves T and F; negation swaps the
    leaves; ``p && q`` continues into ``q`` at the T-leaves of ``p``;
    ``p || q`` continues at the F-leaves; ``x <| y |> z`` continues from
    ``y`` into ``x`` at T-leaves and ``z`` at F-leaves.

    The tree is built by continuation passing: each subterm is evaluated
    once, with the trees to continue into at its T- and F-leaves, so the
    object graph has one ``Node`` per atom occurrence and is linear in the
    term even when the logical tree is exponential.  ``cap`` bounds the
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


def _is_atom_name(atom, known: set[str]) -> bool:
    """Whether ``atom`` follows the name rule of term atoms.  Names in
    ``known`` passed before and are not checked again; a passing name is
    added to it."""
    if not isinstance(atom, str):
        return False
    if atom not in known:
        if not _IDENT_RE.match(atom) or atom in _RESERVED:
            return False
        known.add(atom)
    return True


def format_tree(x: Tree) -> str:
    """Render ``x`` in the canonical text form ``(left <atom> right)``."""
    if isinstance(x, Leaf):
        return x.value
    return f"({format_tree(x.left)} <{x.atom}> {format_tree(x.right)})"


def parse_tree(text: str) -> Tree:
    """Parse the canonical text form back into a tree.

    Atom names follow the rule of term atoms; each distinct name is checked
    once.  Raises ``ParseError`` on any malformed input.
    """
    tree, pos = _parse_tree(text, _skip_ws(text, 0), set())
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError(f"unexpected trailing {text[pos]!r}", pos)
    return tree


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_tree(text: str, pos: int, names: set[str]) -> tuple[Tree, int]:
    if pos >= len(text):
        raise ParseError("unexpected end of input", pos)
    c = text[pos]
    if c == "T":
        return Leaf.TRUE, pos + 1
    if c == "F":
        return Leaf.FALSE, pos + 1
    if c == "^":
        return Leaf.HOLE, pos + 1
    if c != "(":
        raise ParseError(f"expected 'T', 'F', '^', or '(', found {c!r}", pos)
    left, pos = _parse_tree(text, _skip_ws(text, pos + 1), names)
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != "<":
        raise ParseError("expected '<atom>'", pos)
    end = text.find(">", pos)
    if end < 0:
        raise ParseError("unterminated '<atom>'", pos)
    atom = text[pos + 1 : end]
    if atom not in names and not _is_atom_name(atom, names):
        raise ParseError(f"invalid atom name {atom!r}", pos + 1)
    right, pos = _parse_tree(text, _skip_ws(text, end + 1), names)
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != ")":
        raise ParseError("expected ')'", pos)
    return Node(atom, left, right), pos + 1


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
        if not _is_atom_name(atom, names):
            raise ParseError(f"invalid atom name {atom!r}")
        if "l" not in data or "r" not in data:
            raise ParseError(f"node {atom!r} lacks its 'l' or 'r' branch")
        return Node(
            atom,
            _tree_from_json(data["l"], allow_hole, names),
            _tree_from_json(data["r"], allow_hole, names),
        )
    raise ParseError(f"not a tree object: {data!r}")
