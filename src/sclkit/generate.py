"""Seeded random generators for terms, trees, and normal-form shapes.

All functions draw from a caller-supplied ``random.Random`` so suites and
the fuzz command are reproducible.  The normal-form generators follow the
grammar directly; ``budget`` counts literal units in *-terms.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from .terms import FALSE, TRUE, And, Atom, Cond, FullAnd, FullOr, Not, Or, Term, Var
from .trees import _ATOM_SHAPE, _FALSE_SHAPE, _TRUE_SHAPE, Leaf, Node, Tree, _continued
from .trees import eval_tree  # noqa: F401  (bench/worker.py traces generate.eval_tree)

DEFAULT_ATOMS = ("a", "b", "c")


def random_scl_term(
    rng: Random,
    atoms: Sequence[str] = DEFAULT_ATOMS,
    max_depth: int = 6,
    max_size: int | None = 40,
) -> Term:
    """A closed term over constants, atoms, !, &&, and ||.

    ``max_size`` bounds the node count; without it the depth bound alone
    leaves a heavy tail of terms whose evaluation trees are huge.
    """
    return _shaped_scl_term(rng, atoms, max_depth, max_size)[0]


def _shaped_scl_term(
    rng: Random, atoms: Sequence[str], max_depth: int, max_size: int | None
) -> tuple[Term, tuple[int, int, int]]:
    """``random_scl_term``'s draw, with the shape of its evaluation tree
    (as ``trees._shape`` gives it) composed as each node is drawn."""
    budget = [max_size if max_size is not None else 1 << 62]

    def go(depth: int) -> tuple[Term, tuple[int, int, int]]:
        budget[0] -= 1
        if depth <= 0 or budget[0] <= 0 or rng.random() < 0.28:
            roll = rng.random()
            if roll < 0.7:
                return Atom(rng.choice(atoms)), _ATOM_SHAPE
            return (TRUE, _TRUE_SHAPE) if roll < 0.85 else (FALSE, _FALSE_SHAPE)
        kind = rng.choice(("not", "and", "and", "or", "or"))
        if kind == "not":
            arg, (size, t, f) = go(depth - 1)
            return Not(arg), (size, f, t)
        left, l = go(depth - 1)
        right, r = go(depth - 1)
        if kind == "and":
            return And(left, right), _continued(l, r, _FALSE_SHAPE)
        return Or(left, right), _continued(l, _TRUE_SHAPE, r)

    return go(max_depth)


def random_cp_term(
    rng: Random, atoms: Sequence[str] = DEFAULT_ATOMS, max_depth: int = 4
) -> Term:
    """A closed term over constants, atoms, and the conditional."""
    if max_depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.7:
            return Atom(rng.choice(atoms))
        return TRUE if roll < 0.85 else FALSE
    return Cond(
        random_cp_term(rng, atoms, max_depth - 1),
        random_cp_term(rng, atoms, max_depth - 1),
        random_cp_term(rng, atoms, max_depth - 1),
    )


def random_term(
    rng: Random,
    atoms: Sequence[str] = DEFAULT_ATOMS,
    max_depth: int = 5,
    mode: str = "scl",
    variables: Sequence[str] = (),
) -> Term:
    """A term for the given parse mode; ``open`` admits the given variables."""
    leaf_kinds: list[Term] = [Atom(a) for a in atoms] + [TRUE, FALSE]
    if mode == "open" and variables:
        leaf_kinds += [Var(v) for v in variables]
    if max_depth <= 0 or rng.random() < 0.3:
        return rng.choice(leaf_kinds)
    kinds = ["not", "and", "or", "fulland", "fullor"]
    if mode == "cp":
        kinds = ["cond"]
    elif mode in ("enriched", "open"):
        kinds.append("cond")
    kind = rng.choice(kinds)
    sub = lambda: random_term(rng, atoms, max_depth - 1, mode, variables)
    if kind == "not":
        return Not(sub())
    if kind == "cond":
        return Cond(sub(), sub(), sub())
    cls = {"and": And, "or": Or, "fulland": FullAnd, "fullor": FullOr}[kind]
    return cls(sub(), sub())


def random_tree(
    rng: Random,
    atoms: Sequence[str] = DEFAULT_ATOMS,
    max_depth: int = 4,
    hole_prob: float = 0.0,
) -> Tree:
    """A random binary tree; ``hole_prob`` adds hole leaves for contexts."""
    if max_depth <= 0 or rng.random() < 0.35:
        if hole_prob and rng.random() < hole_prob:
            return Leaf.HOLE
        return Leaf.TRUE if rng.random() < 0.5 else Leaf.FALSE
    return Node(
        rng.choice(atoms),
        random_tree(rng, atoms, max_depth - 1, hole_prob),
        random_tree(rng, atoms, max_depth - 1, hole_prob),
    )


def random_substitution(
    rng: Random,
    variables: Sequence[str],
    atoms: Sequence[str] = DEFAULT_ATOMS,
    max_depth: int = 6,
    max_tree: int | None = 120,
) -> dict[str, Term]:
    """Closed replacement terms for each named variable.

    ``max_tree`` rejection-samples terms whose evaluation tree is larger;
    law templates compose the trees of all their variables multiplicatively,
    so unbounded draws would occasionally dwarf any node cap.  Each draw
    comes with its tree's size, composed as it is drawn; no tree is built.
    """
    out = {}
    for v in sorted(variables):  # each draw at random_scl_term's default max_size
        term, shape = _shaped_scl_term(rng, atoms, max_depth, 40)
        if max_tree is not None:
            while shape[0] > max_tree:
                term, shape = _shaped_scl_term(rng, atoms, max_depth, 40)
        out[v] = term
    return out


def random_tterm(
    rng: Random, atoms: Sequence[str] = DEFAULT_ATOMS, max_depth: int = 2
) -> Term:
    if max_depth <= 0 or rng.random() < 0.45:
        return TRUE
    return Or(
        And(Atom(rng.choice(atoms)), random_tterm(rng, atoms, max_depth - 1)),
        random_tterm(rng, atoms, max_depth - 1),
    )


def random_fterm(
    rng: Random, atoms: Sequence[str] = DEFAULT_ATOMS, max_depth: int = 2
) -> Term:
    if max_depth <= 0 or rng.random() < 0.45:
        return FALSE
    return And(
        Or(Atom(rng.choice(atoms)), random_fterm(rng, atoms, max_depth - 1)),
        random_fterm(rng, atoms, max_depth - 1),
    )


def random_lterm(
    rng: Random, atoms: Sequence[str] = DEFAULT_ATOMS, max_depth: int = 2
) -> Term:
    head: Term = Atom(rng.choice(atoms))
    if rng.random() < 0.5:
        head = Not(head)
    return Or(
        And(head, random_tterm(rng, atoms, max_depth)),
        random_fterm(rng, atoms, max_depth),
    )


def random_star_term(
    rng: Random, atoms: Sequence[str] = DEFAULT_ATOMS, budget: int = 3, max_depth: int = 2
) -> Term:
    if rng.random() < 0.5:
        return random_cterm(rng, atoms, budget, max_depth)
    return random_dterm(rng, atoms, budget, max_depth)


def random_cterm(
    rng: Random, atoms: Sequence[str] = DEFAULT_ATOMS, budget: int = 3, max_depth: int = 2
) -> Term:
    if budget <= 1:
        return random_lterm(rng, atoms, max_depth)
    split = rng.randint(1, budget - 1)
    return And(
        random_star_term(rng, atoms, split, max_depth),
        random_dterm(rng, atoms, budget - split, max_depth),
    )


def random_dterm(
    rng: Random, atoms: Sequence[str] = DEFAULT_ATOMS, budget: int = 3, max_depth: int = 2
) -> Term:
    if budget <= 1:
        return random_lterm(rng, atoms, max_depth)
    split = rng.randint(1, budget - 1)
    return Or(
        random_star_term(rng, atoms, split, max_depth),
        random_cterm(rng, atoms, budget - split, max_depth),
    )


def random_snf_term(
    rng: Random,
    atoms: Sequence[str] = DEFAULT_ATOMS,
    budget: int = 3,
    max_depth: int = 2,
) -> Term:
    """A term drawn from the normal-form grammar: T-term, F-term, or
    a conjunction of a T-term with a *-term."""
    roll = rng.random()
    if roll < 0.2:
        return random_tterm(rng, atoms, max_depth)
    if roll < 0.4:
        return random_fterm(rng, atoms, max_depth)
    budget = rng.randint(1, budget)
    return And(
        random_tterm(rng, atoms, max_depth),
        random_star_term(rng, atoms, budget, max_depth),
    )
