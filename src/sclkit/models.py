"""Finite interpretations of the short-circuit signature.

A finite model fixes a small carrier, unary/binary operation tables, the
two constants, and atom values; ``validates`` checks an equation by
exhausting every variable assignment.  Both it and ``eval_in_model`` are
one fold over the distinct subterms (``_columns``), which gives each
subterm its column of values under a block of assignments at once.  The
independence suite packages the eight fixed models, each of which
satisfies all reduced-set axioms except the one it refutes, together with
the cited closed refutation.

``valid_in_free_model`` checks an equation against tree semantics under
seeded random closed substitutions instead.  It first reads each variable
as a fresh atom: if both sides then have one tree, they have one under
every substitution (leaf replacement), and the samples only draw their
shapes and check them against the cap, building nothing.  Otherwise a
sample reads the equation's sides as templates against its substitution,
so no substituted term is made; ``trees.same_tree`` shapes both sides,
refutes on sides of different shapes, and otherwise builds both with
shared memos into a per-sample table of int nodes and compares the two
ids.  Each draw of the substitution comes with its tree's shape and peak
(the largest tree size of any of its subterms): its rejection test reads
the size, and a binding whose peak fits the cap seeds the shape memo, so
it is not shaped again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random
from typing import Mapping, Sequence

from .axioms import Equation, eqfscl_minus
from .errors import ModeViolation, ParseError, SclError, TreeTooLarge, UninterpretedAtom, UnboundVariable
from .generate import _shaped_substitution
from .generate import random_substitution  # noqa: F401  (bench/worker.py traces models.random_substitution)
from .terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    Cond,
    Const,
    FullAnd,
    FullOr,
    Not,
    Or,
    Term,
    Var,
    _is_name,
    postorder,
)
from .terms import substitute  # noqa: F401  (bench/worker.py traces models.substitute)
from .trees import DEFAULT_NODE_CAP, _shape, same_tree
from .trees import eval_tree  # noqa: F401  (bench/worker.py traces models.eval_tree)

Assignment = Mapping[str, int]


@dataclass(frozen=True)
class FiniteModel:
    name: str
    size: int
    neg_table: tuple[int, ...]
    and_table: tuple[tuple[int, ...], ...]
    or_table: tuple[tuple[int, ...], ...]
    true_value: int = 1
    false_value: int = 0
    atom_values: Mapping[str, int] = field(default_factory=dict)
    default_atom_value: int | None = None

    def __post_init__(self):
        n = self.size
        rows = {self.true_value, self.false_value, *self.neg_table}
        if len(self.neg_table) != n:
            raise ValueError("negation table must have one entry per element")
        for table in (self.and_table, self.or_table):
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError("binary tables must be size x size")
            rows.update(v for row in table for v in row)
        rows.update(self.atom_values.values())
        if self.default_atom_value is not None:
            rows.add(self.default_atom_value)
        if any(not 0 <= v < n for v in rows):
            raise ValueError("table entries must lie within the carrier")

    def atom_value(self, name: str) -> int:
        if name in self.atom_values:
            return self.atom_values[name]
        if self.default_atom_value is not None:
            return self.default_atom_value
        raise UninterpretedAtom(f"model {self.name} has no value for atom {name}")


def eval_in_model(m: FiniteModel, t: Term, assignment: Assignment | None = None) -> int:
    """Evaluate a term over the model's tables under a variable assignment."""
    env = assignment or {}
    cols = {Var(name): [v] for name, v in env.items() if _is_name(name)}
    return _columns(m, (t,), cols, 1)[0][0]


def _columns(m: FiniteModel, sides, cols: dict, n: int) -> list[list[int]]:
    """The column of each of ``sides``: its values under ``n`` assignments.

    ``cols`` maps each bound variable, and any subterm already evaluated,
    to its column, and is filled in as the fold goes.  Each distinct
    subterm is evaluated once, after its operands and without recursion;
    the sides are taken in order, so the first error met is the one a
    recursive evaluation would raise.  No error depends on the assignment.
    """
    neg, and_table, or_table = m.neg_table, m.and_table, m.or_table

    def operands(s):  # none for a node rejected on sight, or already done
        cls = type(s)
        if cls is Not:
            return () if s in cols else (s.arg,)
        if cls is And or cls is Or:
            return () if s in cols else (s.left, s.right)
        return ()

    for side in sides:
        for s in postorder(side, operands):
            if s in cols:
                continue
            cls = type(s)
            if cls is Not:
                col = [neg[a] for a in cols[s.arg]]
            elif cls is And or cls is Or:
                table = and_table if cls is And else or_table
                col = [table[a][b] for a, b in zip(cols[s.left], cols[s.right])]
            elif cls is Const:
                col = [m.true_value if s.value else m.false_value] * n
            elif cls is Atom:
                col = [m.atom_value(s.name)] * n
            elif cls is Var:
                raise UnboundVariable(f"no value for variable ${s.name}")
            elif cls is Cond or cls is FullAnd or cls is FullOr:
                raise ModeViolation(f"{cls.__name__} nodes have no interpretation in finite models")
            else:
                raise TypeError(f"not a term: {s!r}")
            cols[s] = col
    return [cols[side] for side in sides]


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    counterexample: dict[str, int] | None
    assignments_checked: int

    def __bool__(self) -> bool:
        return self.valid


# Values ``validates`` holds at once: distinct subterms times assignments.
_CELLS = 1 << 16


def validates(m: FiniteModel, eq: Equation) -> ValidationResult:
    """Exhaustively check an equation over all variable assignments.

    The first counterexample in lexicographic assignment order (variables
    sorted by name) is reported.  Assignments are taken in blocks, sized
    so that the columns of one block hold about ``_CELLS`` values; within
    a block both sides share one ``_columns`` memo.  The first block is
    sized by the sides' logical node count, which bounds their distinct
    subterms; the later ones by the number of columns the first one made.
    """
    names = sorted(eq.variables)
    sides = eq.lhs, eq.rhs
    # a side that is no term has no node count; the fold rejects it
    block = max(1, _CELLS // sum(getattr(side, "node_count", 1) for side in sides))
    assignments = itertools.product(range(m.size), repeat=len(names))
    checked = 0
    while rows := list(itertools.islice(assignments, block)):
        cols = {Var(name): list(col) for name, col in zip(names, zip(*rows))}
        lhs, rhs = _columns(m, sides, cols, len(rows))
        if lhs != rhs:
            i = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            return ValidationResult(False, dict(zip(names, rows[i])), checked + i + 1)
        checked += len(rows)
        block = max(1, _CELLS // len(cols))
    return ValidationResult(True, None, checked)


@dataclass(frozen=True)
class IndependenceEntry:
    model: FiniteModel
    tag: str
    refutation: Equation
    note: str | None = None


def _model(name, neg, and_rows, or_rows, atom_a=None, default=None):
    return FiniteModel(
        name=name,
        size=len(neg),
        neg_table=tuple(neg),
        and_table=tuple(tuple(r) for r in and_rows),
        or_table=tuple(tuple(r) for r in or_rows),
        atom_values={"a": atom_a} if atom_a is not None else {},
        default_atom_value=default,
    )


_A, _B = Atom("a"), Atom("b")


def independence_suite() -> list[IndependenceEntry]:
    """The eight fixed models, each refuting exactly one reduced-set axiom.

    Every model interprets F as 0 and T as 1.  Entries carry the cited
    closed refutation; the final model needs a second atom (all atoms
    other than ``a`` take the default value 3).
    """
    return [
        IndependenceEntry(
            _model("M_F2", (1, 1), ((0, 0), (0, 1)), ((0, 0), (1, 0))),
            "F2",
            Equation(Or(FALSE, FALSE), Not(And(Not(TRUE), Not(TRUE))), "F2-refutation"),
        ),
        IndependenceEntry(
            _model("M_F4", (0, 1), ((0, 0), (1, 1)), ((0, 0), (1, 1))),
            "F4",
            Equation(And(TRUE, FALSE), FALSE, "F4-refutation"),
        ),
        IndependenceEntry(
            _model("M_F5", (0, 0), ((0, 0), (0, 1)), ((0, 0), (0, 0))),
            "F5",
            Equation(Or(TRUE, FALSE), TRUE, "F5-refutation"),
        ),
        IndependenceEntry(
            _model(
                "M_F6",
                (1, 0, 2),
                ((0, 0, 2), (0, 1, 2), (0, 2, 2)),
                ((0, 1, 2), (1, 1, 2), (2, 1, 2)),
                atom_a=2,
            ),
            "F6",
            Equation(And(FALSE, _A), FALSE, "F6-refutation"),
        ),
        IndependenceEntry(
            _model(
                "M_F7",
                (1, 0, 2, 3),
                ((0, 0, 0, 0), (0, 1, 2, 3), (3, 2, 0, 3), (3, 3, 2, 3)),
                ((0, 1, 2, 3), (1, 1, 1, 1), (2, 3, 1, 3), (3, 3, 2, 3)),
                atom_a=2,
            ),
            "F7",
            Equation(
                And(And(_A, FALSE), _A), And(_A, And(FALSE, _A)), "F7-refutation"
            ),
        ),
        IndependenceEntry(
            _model(
                "M_F8",
                (1, 0, 3, 2),
                ((0, 0, 0, 0), (0, 1, 2, 3), (2, 2, 2, 2), (3, 3, 3, 3)),
                ((0, 1, 2, 3), (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)),
                atom_a=2,
            ),
            "F8",
            Equation(And(Not(_A), FALSE), And(_A, FALSE), "F8-refutation"),
        ),
        IndependenceEntry(
            _model(
                "M_F9",
                (1, 0, 2, 4, 3),
                (
                    (0, 0, 0, 0, 0),
                    (0, 1, 2, 3, 4),
                    (3, 2, 2, 3, 2),
                    (3, 3, 3, 3, 3),
                    (3, 4, 4, 3, 4),
                ),
                (
                    (0, 1, 2, 3, 4),
                    (1, 1, 1, 1, 1),
                    (2, 4, 2, 2, 4),
                    (3, 4, 3, 3, 4),
                    (4, 4, 4, 4, 4),
                ),
                atom_a=2,
            ),
            "F9",
            Equation(
                Or(And(_A, FALSE), _A), And(Or(_A, TRUE), _A), "F9-refutation"
            ),
        ),
        IndependenceEntry(
            _model(
                "M_F10",
                (1, 0, 2, 3),
                ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 0), (3, 3, 3, 3)),
                ((0, 1, 2, 3), (1, 1, 1, 1), (2, 1, 1, 1), (3, 3, 3, 3)),
                atom_a=2,
                default=3,
            ),
            "F10",
            Equation(
                Or(And(_A, _A), And(_B, FALSE)),
                And(Or(_A, And(_B, FALSE)), Or(_A, And(_B, FALSE))),
                "F10-refutation",
            ),
            note="needs at least two atoms; atoms other than 'a' take value 3",
        ),
    ]


@dataclass(frozen=True)
class IndependenceRow:
    """One suite model checked: ``valid`` maps each reduced-set axiom tag,
    in catalogue order, to whether the model validates it; ``lhs`` and
    ``rhs`` are the values of the two sides of the refutation."""

    entry: IndependenceEntry
    valid: dict[str, bool]
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        """The model refutes its own axiom, and only that one."""
        return self.lhs != self.rhs and all(
            valid == (tag != self.entry.tag) for tag, valid in self.valid.items()
        )


def independence_rows() -> list[IndependenceRow]:
    """Check every suite model against every reduced-set axiom."""
    axioms = eqfscl_minus()
    return [
        IndependenceRow(
            entry,
            {ax.tag: validates(entry.model, ax).valid for ax in axioms},
            eval_in_model(entry.model, entry.refutation.lhs),
            eval_in_model(entry.model, entry.refutation.rhs),
        )
        for entry in independence_suite()
    ]


@dataclass(frozen=True)
class FreeModelCheck:
    valid: bool
    witness: dict[str, Term] | None
    samples: int

    def __bool__(self) -> bool:
        return self.valid


def valid_in_free_model(
    eq: Equation,
    samples: int = 500,
    seed: int = 0,
    atoms: Sequence[str] = ("a", "b", "c"),
    max_depth: int = 6,
    cap: int | None = DEFAULT_NODE_CAP,
) -> FreeModelCheck:
    """Check an equation against tree semantics under random closed
    substitutions; a failure reports the witnessing substitution.

    In free SCL an atom's evaluation is not remembered, so the tree of
    ``t[x:=s]`` is that of ``t`` with each ``x``-node replaced by the tree
    of ``s``, continued at its T- and F-leaves.  So sides with one tree
    when each variable is read as a fresh atom have one tree under every
    closed substitution.  Given samples, that is checked once first
    (``_fresh_atoms``).  If it holds, nothing is built: each sample still
    draws from the stream (shapes and peaks, no terms), and raises
    ``TreeTooLarge`` where its substituted sides would: when a binding's
    peak, or a subterm of a side shaped with the fresh atoms seeded with
    the drawn shapes, exceeds the cap.

    Otherwise each sample reads the sides as templates, each variable as
    its binding, so witnesses and errors come as from the substituted
    sides.  ``same_tree`` checks both sides (left first) against ``cap``
    by arithmetic: sides of different shapes refute ``eq``, and others
    are built with one memo into a table of int nodes of the sample's
    own.  No tree is interned.  The draw gives each binding's shape and
    peak; a binding whose peak fits the cap seeds the shape memo and is
    not shaped again, and any other is walked where it is met, so an
    error comes where a walk of the substituted sides would raise it.
    """
    if samples < 0:
        raise ValueError(f"samples must be a non-negative count, got {samples}")
    rng = Random(seed)
    names = sorted(eq.variables)
    lhs, rhs = eq.lhs, eq.rhs
    limit = None if cap is None else max(cap, 1)  # the size _shape lets pass
    fresh = _fresh_atoms(eq, names, atoms, cap) if samples else None
    if fresh is not None:
        for _ in range(samples):
            drawn = _shaped_substitution(rng, names, atoms, max_depth, terms=False)
            if limit is not None:
                if any(peak > limit for _, _, peak in drawn.values()):
                    raise TreeTooLarge(f"tree exceeds the node cap of {cap}")
                shapes = {fresh[v]: shape for v, (_, shape, _) in drawn.items()}
                _shape(lhs, cap, shapes, fresh)
                _shape(rhs, cap, shapes, fresh)
        return FreeModelCheck(True, None, samples)
    for i in range(samples):
        drawn = _shaped_substitution(rng, names, atoms, max_depth)
        subst = {v: term for v, (term, _, _) in drawn.items()}
        shapes = {term: shape for term, shape, peak in drawn.values() if limit is None or peak <= limit}
        if not same_tree(lhs, rhs, cap, subst, shapes):
            return FreeModelCheck(False, subst, i + 1)
    return FreeModelCheck(True, None, samples)


def _fresh_atoms(eq: Equation, names: list[str], atoms: Sequence[str], cap: int | None) -> dict[str, Atom] | None:
    """Each variable of ``eq`` bound to a fresh atom, if both sides then
    have one tree within ``cap``; else None, also when ``same_tree``
    raises, or when a draw over ``atoms`` could make an atom that raises.
    A variable's atom is its name with the fewest trailing ``_`` that
    keeps every such name off the atoms of ``eq``."""
    if not all(map(_is_name, atoms)):
        return None
    own = {s.name for side in (eq.lhs, eq.rhs) for s in postorder(side) if type(s) is Atom}
    k = 0
    while any(v + "_" * k in own for v in names):
        k += 1
    fresh = {v: Atom(v + "_" * k) for v in names}
    try:
        return fresh if same_tree(eq.lhs, eq.rhs, cap, fresh) else None
    except (SclError, TypeError):
        return None


def model_to_json(m: FiniteModel):
    """Encode a model with its tables flattened row-major."""
    return {
        "name": m.name,
        "size": m.size,
        "neg": list(m.neg_table),
        "and": [v for row in m.and_table for v in row],
        "or": [v for row in m.or_table for v in row],
        "true": m.true_value,
        "false": m.false_value,
        "atoms": dict(sorted(m.atom_values.items())),
        "default_atom": m.default_atom_value,
    }


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v, length: int) -> bool:
    return isinstance(v, list) and len(v) == length and all(map(_is_int, v))


def model_from_json(data) -> FiniteModel:
    """Decode the form ``model_to_json`` writes.

    Raises ``ParseError`` on any malformed input: a missing field, a value
    of the wrong type, a table of the wrong length, or an entry outside the
    carrier.
    """
    if not isinstance(data, dict) or not {"name", "size", "neg", "and", "or"} <= data.keys():
        raise ParseError(f"not a model object: {data!r}")
    n, atoms, default = data["size"], data.get("atoms", {}), data.get("default_atom")
    scalars = (n, data.get("true", 1), data.get("false", 0), 0 if default is None else default)
    if not (
        isinstance(data["name"], str)
        and all(map(_is_int, scalars))
        and all(_is_int_list(data[key], n**k) for key, k in (("neg", 1), ("and", 2), ("or", 2)))
        and isinstance(atoms, dict)
        and all(isinstance(name, str) and _is_int(v) for name, v in atoms.items())
    ):
        raise ParseError(f"malformed model object: {data!r}")
    unflatten = lambda flat: tuple(
        tuple(flat[i * n : (i + 1) * n]) for i in range(n)
    )
    try:
        return FiniteModel(
            name=data["name"],
            size=n,
            neg_table=tuple(data["neg"]),
            and_table=unflatten(data["and"]),
            or_table=unflatten(data["or"]),
            true_value=data.get("true", 1),
            false_value=data.get("false", 0),
            atom_values=atoms,
            default_atom_value=default,
        )
    except ValueError as exc:
        raise ParseError(f"invalid model {data['name']!r}: {exc}") from None
