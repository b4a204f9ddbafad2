"""Seeded random terms of every parse mode and random trees, for tests.

Each function draws from a caller-supplied ``random.Random``, so a test's
inputs are fixed by its seed.  The package's own generators, which the
CLI and the benchmark use, are in ``sclkit.generate``.
"""

from random import Random
from typing import Sequence

from sclkit import FALSE, TRUE, And, Atom, Cond, FullAnd, FullOr, Not, Or, Term, Var
from sclkit.trees import Leaf, Node, Tree
from sclkit.generate import DEFAULT_ATOMS


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
