"""Evaluation trees and the short-circuit evaluation of closed terms.

A tree is a finite binary tree over atoms whose leaves are T or F; the left
branch of a node is taken when its atom evaluates to true.  Trees used as
decomposition contexts may additionally carry hole leaves (``^``).

Nodes are hash-consed, as terms are: ``Node(atom, left, right)`` returns
the one live node of that structure, so equal trees are one object, ``==``
is identity, and every builder shares subtrees.  The unique table
(``terms.unique_table``) holds weak references (it does not outlive the
trees) and is filled by ``dict.setdefault``, so threads that build one
structure at once get one node.  Nodes cache size (logical, not of the
object graph), depth, leaf counts and leaf flags.  ``same_tree`` decides
whether two terms have one tree without making nodes: it compares the
shapes of their trees, and builds both into a table of int nodes made for
the call only when the shapes agree.

The text form repeats small subtrees (``p && q`` puts a copy of the tree of
``q`` under every T-leaf of the tree of ``p``), so ``parse_tree`` takes a
canonically spaced subtree of height at most 4 as one regex token and reads
the text of each such token once per call.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Callable, Mapping, NamedTuple

from .errors import DEFAULT_NODE_CAP, ModeViolation, NonClosedTerm, ParseError, TreeTooLarge
from .terms import FALSE, TRUE, And, Atom, Cond, Const, FullAnd, FullOr, Not, Or, Term, Var
from .terms import _IDENT_RE, _RESERVED, Interned, _is_name, postorder, unique_table


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


# (atom, left, right) -> the one live node of that structure.  Children are
# interned, so the key compares them by identity.
_table, _enter = unique_table()


class _Fields(Tree):  # the slots of Node, writable while a node is made
    __slots__ = ("atom", "left", "right", "size", "depth", "t_leaves", "f_leaves")
    __slots__ += ("has_true", "has_false", "has_hole", "__weakref__")


class Node(_Fields, Interned):
    """An interned, immutable tree node: the one live node of its structure."""

    __slots__ = ()
    __match_args__ = ("atom", "left", "right")

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
        return _enter(key, node)


class LeafProfile(NamedTuple):
    has_true: bool
    has_false: bool


def depth(x: Tree) -> int:
    return x.depth


def leaf_profile(x: Tree) -> LeafProfile:
    """Report which of the two truth-value leaves occur in ``x``."""
    return LeafProfile(x.has_true, x.has_false)


def _children(x: Tree) -> tuple[Tree, ...]:
    """The branches of ``x`` that are nodes, left first (folds seed the leaves)."""
    if x.__class__ is Leaf:
        return ()
    l, r = x.left, x.right
    if l.__class__ is Leaf:
        return () if r.__class__ is Leaf else (r,)
    return (l,) if r.__class__ is Leaf else (l, r)


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
    new = {Leaf.TRUE: for_true, Leaf.FALSE: for_false, Leaf.HOLE: for_hole}
    on_t, on_f = for_true is not Leaf.TRUE, for_false is not Leaf.FALSE
    on_h = for_hole is not Leaf.HOLE
    stack = [x]
    while stack:
        s = stack[-1]
        if s in new:
            stack.pop()
        elif not (on_t and s.has_true or on_f and s.has_false or on_h and s.has_hole):
            new[stack.pop()] = s
        elif (l := new.get(s.left)) is None or (r := new.get(s.right)) is None:
            stack += (s.right, s.left)
        else:
            stack.pop()
            new[s] = node = Node(s.atom, l, r)
            if cap is not None and node.size > cap:
                raise TreeTooLarge(f"tree exceeds the node cap of {cap}")
    return new[x]


def graft(context: Tree, filler: Tree, cap: int | None = None) -> Tree:
    """Replace every hole leaf of ``context`` with ``filler``."""
    return replace(context, cap=cap, for_hole=filler)


def eval_tree(term: Term, cap: int | None = DEFAULT_NODE_CAP) -> Tree:
    """Map a closed term to the tree of all its sequential evaluations.

    An atom becomes a single node with leaves T and F; negation swaps the
    leaves; ``p && q`` continues into ``q`` at the T-leaves of ``p``;
    ``p || q`` continues at the F-leaves; ``x <| y |> z`` continues from
    ``y`` into ``x`` at T-leaves and ``z`` at F-leaves.

    The tree is built by continuation passing (``_build``), so the object
    graph has at most one node per atom occurrence and is linear in the
    term even when the logical tree is exponential.  ``cap`` bounds the
    logical size of every subterm's tree: ``TreeTooLarge`` is raised when
    one of them is a node larger than ``cap``, which is checked by
    arithmetic before anything is built.
    """
    _shape(term, cap)
    return _build(term, Leaf.TRUE, Leaf.FALSE, _node)


_TRUE_SHAPE, _FALSE_SHAPE, _ATOM_SHAPE = (1, 1, 0), (1, 0, 1), (3, 1, 1)


def _shape(
    term: Term, cap: int | None, shapes: dict | None = None, subst: Mapping[str, Term] | None = None
) -> tuple[int, int, int]:
    """``(size, T-leaves, F-leaves)`` of the tree of ``term``, by arithmetic.

    Each distinct subterm is visited once, without recursion, and in
    evaluation order (left before right, the guard before the branches),
    so the first error met is the one a recursive fold would raise.
    ``shapes`` is a memo the caller may share between calls with one
    ``cap`` and ``subst``; a subterm found in it is not visited again, so
    a caller that seeds it vouches that the seeded term's subterms all
    pass ``cap``.  A variable bound in ``subst`` is read as its binding,
    whose subterms are checked where the variable is met, so ``term`` is
    shaped as if the binding were substituted, without building the
    substituted term; a binding found in ``shapes`` is not walked.
    """
    shapes = {} if shapes is None else shapes  # also the visited set
    shapes[TRUE], shapes[FALSE] = _TRUE_SHAPE, _FALSE_SHAPE
    stack = [] if term in shapes else [term]
    while stack:
        s = stack[-1]
        cls = type(s)
        if cls is Not:
            if (p := shapes.get(s.arg)) is None:
                stack.append(s.arg)
                continue
            shape = p[0], p[2], p[1]
        elif cls is And or cls is Or:
            if (l := shapes.get(s.left)) is None or (r := shapes.get(s.right)) is None:
                stack.append(s.left if l is None else s.right)
                continue
            shape = _continued(l, r, _FALSE_SHAPE) if cls is And else _continued(l, _TRUE_SHAPE, r)
        elif cls is Var:
            if subst is None or (b := subst.get(s.name)) is None:
                raise NonClosedTerm(f"cannot evaluate open term: ${s.name}")
            if (shape := shapes.get(b)) is None:
                stack.append(b)
                continue
        elif cls is Cond:
            g, a, b = shapes.get(s.guard), shapes.get(s.then), shapes.get(s.orelse)
            if g is None or a is None or b is None:
                stack.append(s.guard if g is None else s.then if a is None else s.orelse)
                continue
            shape = _continued(g, a, b)
        elif cls is Atom:
            shape = _ATOM_SHAPE
        elif cls is FullAnd or cls is FullOr:
            raise ModeViolation("full-sequential connectives must be expanded before evaluation")
        else:  # pragma: no cover
            raise TypeError(f"not a term: {s!r}")
        if cap is not None and shape[0] > max(cap, 1):  # a leaf is never too large
            raise TreeTooLarge(f"tree exceeds the node cap of {cap}")
        shapes[stack.pop()] = shape
    return shapes[term]


def _continued(x, on_true, on_false) -> tuple[int, int, int]:
    """Shape of a tree of shape ``x`` once its T- and F-leaves are replaced
    by trees of shapes ``on_true`` and ``on_false``."""
    (size, t, f), (size_t, t_t, f_t), (size_f, t_f, f_f) = x, on_true, on_false
    return (
        size + t * (size_t - 1) + f * (size_f - 1),
        t * t_t + f * t_f,
        t * f_t + f * f_f,
    )


def _node(k_true: Tree, atom: Atom, k_false: Tree) -> Node:
    return Node(atom.name, k_true, k_false)


def _build(term: Term, k_true, k_false, leaf: Callable, done: dict | None = None, subst: Mapping | None = None):
    """``term`` read as ``eval_tree`` reads it, with ``k_true``/``k_false``
    at its T/F-leaves: the one evaluator of trees and basic forms, for terms
    already checked.  An atom ``a`` becomes ``leaf(kt, a, kf)``: ``_node``
    for trees, ``Cond`` for basic forms, or an id in a caller's own
    hash-consing table.  A variable is read as its binding in ``subst``.
    Constants and atoms are read where met; each (term, continuation,
    continuation) triple is built once per ``done``, a memo the caller may
    share between calls with one ``leaf`` and ``subst``.
    """
    done = {} if done is None else done

    def read(s: Term, kt, kf):  # None: not built yet
        cls = type(s)
        if cls is Const:
            return kt if s.value else kf
        if cls is Atom:
            return leaf(kt, s, kf)
        return done.get((s, kt, kf))

    if (result := read(term, k_true, k_false)) is not None:
        return result
    stack = [(term, k_true, k_false)]
    while stack:
        s, kt, kf = stack[-1]
        cls = type(s)
        # step: an operand still to build, or else the read that gives s's result
        if cls is Not:
            step = s.arg, kf, kt
        elif cls is And:
            step = (s.right, kt, kf) if (x := read(s.right, kt, kf)) is None else (s.left, x, kf)
        elif cls is Or:
            step = (s.right, kt, kf) if (y := read(s.right, kt, kf)) is None else (s.left, kt, y)
        elif cls is Var:
            step = subst[s.name], kt, kf
        elif (x := read(s.then, kt, kf)) is None:
            step = s.then, kt, kf
        elif (y := read(s.orelse, kt, kf)) is None:
            step = s.orelse, kt, kf
        else:
            step = s.guard, x, y
        if (result := read(*step)) is None:
            stack.append(step)
        else:
            done[stack.pop()] = result
    return done[term, k_true, k_false]


def same_tree(
    p: Term, q: Term, cap: int | None = DEFAULT_NODE_CAP, subst: Mapping | None = None, shapes: dict | None = None
) -> bool:
    """Whether ``p`` and ``q`` have one evaluation tree, a variable read as
    its binding in ``subst``: both are checked against ``cap`` as
    ``eval_tree`` checks them, ``p`` first and with one memo.  Trees of
    different shapes ``(size, T-leaves, F-leaves)`` differ, so only sides
    of one shape are then built by ``_same_build``.  No node is interned.

    ``shapes`` seeds that memo, and is filled in.  A term may be seeded
    with its shape only if every one of its subterms has passed the cap:
    ``_shape`` takes a seeded term as checked down to its leaves.
    """
    shapes = {} if shapes is None else shapes
    if _shape(p, cap, shapes, subst) != _shape(q, cap, shapes, subst):
        return False
    return _same_build(p, q, subst)


def _same_build(p: Term, q: Term, subst: Mapping | None = None) -> bool:
    """Whether the checked terms ``p`` and ``q`` build one tree (or basic
    form): both are built by ``_build`` with one memo into a hash-consing
    table made for the call, ``(atom, kt, kf) -> int``, so equal trees get
    one id.  The continuations are leaves, never ints, which would be taken
    for the table's first ids.
    """
    done, table = {}, {}
    node = lambda kt, atom, kf: table.setdefault((atom, kt, kf), len(table))
    t, f = Leaf.TRUE, Leaf.FALSE
    return _build(p, t, f, node, done, subst) == _build(q, t, f, node, done, subst)


def _check_atom(atom, known: set[str]) -> None:
    """Raise ``ParseError`` unless ``atom`` follows the name rule of term
    atoms.  Names in ``known`` passed before; a passing name is added."""
    if not (isinstance(atom, str) and atom in known or _is_name(atom)):
        raise ParseError(f"invalid atom name {atom!r}")
    known.add(atom)


def format_tree(x: Tree) -> str:
    """Render ``x`` in the canonical text form ``(left <atom> right)``.

    The pieces are put out left to right from an explicit stack and joined
    once.  A subtree met again is put out as one piece: its text is joined
    from the pieces of its first occurrence and kept for the call.
    """
    out, spans, texts, stack = [], {}, {}, [x]
    while stack:
        s = stack.pop()
        cls = s.__class__
        if cls is str:
            out.append(s)
        elif cls is Leaf:
            out.append(s.value)
        elif cls is tuple:  # the end of a node's first occurrence
            node, begin = s
            spans[node] = begin, len(out)
        elif (text := texts.get(s)) is not None:
            out.append(text)
        elif (span := spans.get(s)) is not None:
            text = texts[s] = "".join(out[span[0] : span[1]])
            out.append(text)
        else:
            stack += ((s, len(out)), ")", s.right, f" <{s.atom}> ", s.left)
            out.append("(")
    return "".join(out)


# After optional whitespace, one token: a subtree of height 1 to 4 spaced as
# ``format_tree`` spaces it, with atoms that follow the rule of term atoms;
# else a leaf, a parenthesis, an "<atom>", or any other character, so that a
# malformed text is read up to the token that is wrong.
_NAME = _IDENT_RE.pattern.removesuffix(r"\Z")
_ATOM = rf"<(?!(?:{'|'.join(sorted(_RESERVED))})>){_NAME}>"
_BRANCH = "[TF^]"  # then of height at most 3
for _ in range(3):
    _BRANCH = rf"(?:\({_BRANCH} {_ATOM} {_BRANCH}\)|[TF^])"
_TREE_TOKEN = re.compile(rf"\s*(\({_BRANCH} {_ATOM} {_BRANCH}\)|[TF^()]|<[^>]*>|\S)")
_LEAVES = {"T": Leaf.TRUE, "F": Leaf.FALSE, "^": Leaf.HOLE}


def parse_tree(text: str) -> Tree:
    """Parse the canonical text form back into a tree, without recursion.

    The tokens are taken by one ``findall``.  A subtree of height at most
    4, spaced as ``format_tree`` writes it, is one token, whose text is read
    once per call (by ``_read_subtree``) however often it repeats.  The
    rest of the text, and so every malformed text, is read a leaf,
    parenthesis or ``<atom>`` at a time.  Each distinct subtree is looked
    up in the unique table once per call.  Atom names follow the rule of
    term atoms; each distinct name is checked once.  Raises ``ParseError``
    on any malformed input, at the token that is wrong.
    """
    tokens = _TREE_TOKEN.findall(text)
    tokens.append("")  # the end of the input
    read, names, built, i = dict(_LEAVES), set(), {}, 0  # read: token -> tree
    opened = []  # per open "(": None, then (atom, left) once the atom is read
    while True:  # read a subtree: "(" opens a node, a leaf ends it
        token = tokens[i]
        i += 1
        if token == "(":
            opened.append(None)
            continue
        tree = read.get(token)
        if tree is None:
            if token[:1] == "(":
                tree = read[token] = _read_subtree(token, built, names)
            elif not token:
                raise ParseError("unexpected end of input", len(text))
            else:
                raise ParseError(f"expected 'T', 'F', '^', or '(', found {token[0]!r}", _start(text, i - 1))
        while opened:  # ``tree`` is a branch of the innermost open node
            token = tokens[i]
            if opened[-1] is None:
                if token[:1] != "<" or token == "<":
                    message = "unterminated '<atom>'" if token == "<" else "expected '<atom>'"
                    raise ParseError(message, _start(text, i))
                atom = token[1:-1]
                if atom not in names:
                    if not _is_name(atom):
                        raise ParseError(f"invalid atom name {atom!r}", _start(text, i) + 1)
                    names.add(atom)
                opened[-1] = atom, tree
                i += 1
                break
            if token != ")":
                raise ParseError("expected ')'", _start(text, i))
            i += 1
            atom, left = opened.pop()
            key = atom, left, tree
            tree = built.get(key)
            if tree is None:
                tree = built[key] = Node(*key)
        else:
            if tokens[i]:
                raise ParseError(f"unexpected trailing {tokens[i][0]!r}", _start(text, i))
            return tree


def _read_subtree(token: str, built: dict, names: set[str]) -> Tree:
    """Read a subtree token of ``parse_tree``, which is canonical and valid:
    it is split into its leaves, atoms and ``)`` at its single spaces, and
    each ``)`` makes the node of the atom and the two branches before it,
    through the call's ``built``."""
    stack = []
    for part in token.replace("(", "").replace(")", " )").split(" "):
        if part == ")":
            left, atom, right = stack[-3:]
            key = atom, left, right
            tree = built.get(key)
            if tree is None:
                tree = built[key] = Node(*key)
            stack[-3:] = (tree,)
        elif part[0] == "<":
            atom = part[1:-1]
            names.add(atom)
            stack.append(atom)
        else:
            stack.append(_LEAVES[part])
    return stack[0]


def _start(text: str, i: int) -> int:
    """Where token ``i`` of ``text`` starts, or the end of the input."""
    for j, m in enumerate(_TREE_TOKEN.finditer(text)):
        if j == i:
            return m.start(1)
    return len(text)


_LEAF_JSON = {Leaf.TRUE: "T", Leaf.FALSE: "F", Leaf.HOLE: "hole"}


def tree_to_json(x: Tree):
    """Encode ``x`` as the documented JSON object form, in one fold over the
    distinct subtrees: the occurrences of a shared subtree share one dict."""
    done = {leaf: {"leaf": text} for leaf, text in _LEAF_JSON.items()}
    for s in postorder(x, _children):
        if s not in done:
            done[s] = {"node": s.atom, "l": done[s.left], "r": done[s.right]}
    return done[x]


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
