"""Equational axiom catalogues and named derived laws, as data.

Every equation carries a stable tag (F1..F10, CP1..CP4, RP<atom>-1/2,
D1..D7) used by reports and tests.  The fixed catalogues are built once,
at import; each call returns a new list of the same equations, and each
equation finds its variables once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .terms import FALSE, TRUE, And, Atom, Cond, Not, Or, Term, Var, dual, format_term, variables


@dataclass(frozen=True)
class Equation:
    """A pair of (possibly open) terms with a stable tag for reporting."""

    lhs: Term
    rhs: Term
    tag: str = ""

    @cached_property
    def variables(self) -> frozenset[str]:
        """The names of the variables of both sides, found on first use and
        kept on the equation (in its ``__dict__``, not in a term)."""
        return variables(self.lhs) | variables(self.rhs)

    def __str__(self) -> str:
        return f"{format_term(self.lhs)} = {format_term(self.rhs)}"


_X, _Y, _Z, _U, _V, _W = (Var(n) for n in "xyzuvw")


_EQFSCL = (
    Equation(FALSE, Not(TRUE), "F1"),
    Equation(Or(_X, _Y), Not(And(Not(_X), Not(_Y))), "F2"),
    Equation(Not(Not(_X)), _X, "F3"),
    Equation(And(TRUE, _X), _X, "F4"),
    Equation(Or(_X, FALSE), _X, "F5"),
    Equation(And(FALSE, _X), FALSE, "F6"),
    Equation(And(And(_X, _Y), _Z), And(_X, And(_Y, _Z)), "F7"),
    Equation(And(Not(_X), FALSE), And(_X, FALSE), "F8"),
    Equation(Or(And(_X, FALSE), _Y), And(Or(_X, TRUE), _Y), "F9"),
    Equation(
        Or(And(_X, _Y), And(_Z, FALSE)),
        And(Or(_X, And(_Z, FALSE)), Or(_Y, And(_Z, FALSE))),
        "F10",
    ),
)


def eqfscl_axioms() -> list[Equation]:
    """The ten axioms of the free short-circuit equational theory."""
    return list(_EQFSCL)


def eqfscl_minus() -> list[Equation]:
    """The reduced axiom set: F1 and F3 dropped (they are derivable)."""
    return [e for e in eqfscl_axioms() if e.tag not in ("F1", "F3")]


def dual_equation(eq: Equation) -> Equation:
    """The dual law; tagged with a trailing apostrophe."""
    return Equation(dual(eq.lhs), dual(eq.rhs), eq.tag + "'")


_CP = (
    Equation(Cond(_X, TRUE, _Y), _X, "CP1"),
    Equation(Cond(_X, FALSE, _Y), _Y, "CP2"),
    Equation(Cond(TRUE, _X, FALSE), _X, "CP3"),
    Equation(
        Cond(_X, Cond(_Y, _Z, _U), _V),
        Cond(Cond(_X, _Y, _V), _Z, Cond(_X, _U, _V)),
        "CP4",
    ),
)


def cp_axioms() -> list[Equation]:
    """The four axioms of the conditional theory."""
    return list(_CP)


def rp_schemes(atoms: list[str]) -> list[Equation]:
    """Per-atom repetition-proofing schemes over the conditional.

    For each atom ``a`` the two closed-atom schemes identify the second
    evaluation of ``a`` with the first along the branch just taken.
    """
    if not atoms:
        raise ValueError("rp_schemes needs a nonempty atom list")
    out = []
    for name in atoms:
        a = Atom(name)
        out.append(
            Equation(
                Cond(Cond(_X, a, _Y), a, _Z),
                Cond(Cond(_X, a, _X), a, _Z),
                f"RP{name}-1",
            )
        )
        out.append(
            Equation(
                Cond(_X, a, Cond(_Y, a, _Z)),
                Cond(_X, a, Cond(_Z, a, _Z)),
                f"RP{name}-2",
            )
        )
    return out


# the absorbing terms v && F and v || T of the derived laws
_ZF, _YF, _WF = (And(v, FALSE) for v in (_Z, _Y, _W))
_ZT, _YT, _WT = (Or(v, TRUE) for v in (_Z, _Y, _W))

_DERIVED = (
    Equation(And(Or(_X, _Y), _ZF), And(Or(Not(_X), _ZF), And(_Y, _ZF)), "D1"),
    Equation(And(Or(_X, _YF), _ZF), And(Or(Not(_X), _ZF), _YF), "D2"),
    Equation(Or(And(_X, _YT), _ZF), And(Or(_X, _ZF), _YT), "D3"),
    Equation(And(Or(_X, TRUE), Not(_Y)), Not(And(Or(_X, TRUE), _Y)), "D4"),
    Equation(
        Or(And(_X, And(_Y, _ZT)), And(_W, _ZT)),
        And(Or(And(_X, _Y), _W), _ZT),
        "D5",
    ),
    Equation(
        And(Or(_X, And(_YT, _ZF)), And(_WT, _ZF)),
        And(Or(And(_X, _WT), _YT), _ZF),
        "D6",
    ),
    Equation(
        And(Or(_X, And(_YT, _ZF)), _WF),
        And(Or(And(Not(_X), _YT), _WF), _ZF),
        "D7",
    ),
)


def derived_laws() -> list[Equation]:
    """Derivable identities about the absorbing terms ``z && F`` / ``z || T``.

    These are theorems of the ten-axiom system, kept as validation targets
    for the free-model checker.
    """
    return list(_DERIVED)
