"""Seeded random short-circuit terms, substitutions and normal-form shapes.

All functions draw from a caller-supplied ``random.Random`` so suites and
the fuzz command are reproducible.  The normal-form generators follow the
grammar directly; ``budget`` counts literal units in *-terms.  The
short-circuit terms of ``random_scl_term`` and ``random_substitution`` are
drawn with the shape of their evaluation trees and their peak, worked out
node by node, so no caller walks a draw again to size it.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from .terms import FALSE, TRUE, And, Atom, Not, Or, Term
from .trees import _ATOM_SHAPE, _FALSE_SHAPE, _TRUE_SHAPE
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


# What an inner node of ``random_scl_term`` is, drawn by index: the stream
# is the one a choice among the names "not", "and", "and", "or", "or" makes.
_CONNECTIVES = (Not, And, And, Or, Or)


def _shaped_scl_term(
    rng: Random, atoms: Sequence[str], max_depth: int, max_size: int | None
) -> tuple[Term, tuple[int, int, int], int]:
    """``random_scl_term``'s draw, with the shape of its evaluation tree
    (as ``trees._shape`` gives it) and its peak: the largest tree size of
    any of its subterms.  Both are worked out as each node is drawn.  The
    peak can exceed the term's own size, as in ``F && p``, whose tree is
    one leaf whatever ``p`` is."""
    random, choice = rng.random, rng.choice
    budget = [max_size if max_size is not None else 1 << 62]

    def go(depth: int) -> tuple[Term, tuple[int, int, int], int]:
        budget[0] -= 1
        if depth <= 0 or budget[0] <= 0 or random() < 0.28:
            roll = random()
            if roll < 0.7:
                return Atom(choice(atoms)), _ATOM_SHAPE, 3
            return (TRUE, _TRUE_SHAPE, 1) if roll < 0.85 else (FALSE, _FALSE_SHAPE, 1)
        op = choice(_CONNECTIVES)
        if op is Not:
            arg, (size, t, f), peak = go(depth - 1)
            return Not(arg), (size, f, t), peak
        left, (size, t, f), peak = go(depth - 1)
        right, (size_r, t_r, f_r), peak_r = go(depth - 1)
        if op is And:  # the right tree continues at the left's T-leaves
            size += t * (size_r - 1)
            shape = size, t * t_r, t * f_r + f
        else:  # and at its F-leaves
            size += f * (size_r - 1)
            shape = size, t + f * t_r, f * f_r
        if peak_r > peak:
            peak = peak_r
        return op(left, right), shape, size if size > peak else peak

    return go(max_depth)


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
    This is ``_shaped_substitution`` with the shapes and peaks dropped.
    """
    drawn = _shaped_substitution(rng, variables, atoms, max_depth, max_tree)
    return {v: term for v, (term, _, _) in drawn.items()}


def _shaped_substitution(
    rng: Random,
    variables: Sequence[str],
    atoms: Sequence[str] = DEFAULT_ATOMS,
    max_depth: int = 6,
    max_tree: int | None = 120,
) -> dict[str, tuple[Term, tuple[int, int, int], int]]:
    """``random_substitution``'s draw: each variable, in name order, mapped
    to its term, the term's tree shape and its peak (``_shaped_scl_term``)."""
    out = {}
    for v in sorted(variables):  # each draw at random_scl_term's default max_size
        drawn = _shaped_scl_term(rng, atoms, max_depth, 40)
        if max_tree is not None:
            while drawn[1][0] > max_tree:
                drawn = _shaped_scl_term(rng, atoms, max_depth, 40)
        out[v] = drawn
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
