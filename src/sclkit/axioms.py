"""Equational axiom catalogues and named derived laws, as data.

Every equation carries a stable tag (F1..F10, CP1..CP4, RP<atom>-1/2,
D1..D7) used by reports and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import FALSE, TRUE, And, Atom, Cond, Not, Or, Term, Var, dual, format_term, variables


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


_X, _Y, _Z, _U, _V, _W = (Var(n) for n in "xyzuvw")


def eqfscl_axioms() -> list[Equation]:
    """The ten axioms of the free short-circuit equational theory."""
    return [
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
    ]


def eqfscl_minus() -> list[Equation]:
    """The reduced axiom set: F1 and F3 dropped (they are derivable)."""
    return [e for e in eqfscl_axioms() if e.tag not in ("F1", "F3")]


def dual_equation(eq: Equation) -> Equation:
    """The dual law; tagged with a trailing apostrophe."""
    return Equation(dual(eq.lhs), dual(eq.rhs), eq.tag + "'")


def cp_axioms() -> list[Equation]:
    """The four axioms of the conditional theory."""
    return [
        Equation(Cond(_X, TRUE, _Y), _X, "CP1"),
        Equation(Cond(_X, FALSE, _Y), _Y, "CP2"),
        Equation(Cond(TRUE, _X, FALSE), _X, "CP3"),
        Equation(
            Cond(_X, Cond(_Y, _Z, _U), _V),
            Cond(Cond(_X, _Y, _V), _Z, Cond(_X, _U, _V)),
            "CP4",
        ),
    ]


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


def derived_laws() -> list[Equation]:
    """Derivable identities about the absorbing terms ``z && F`` / ``z || T``.

    These are theorems of the ten-axiom system, kept as validation targets
    for the free-model checker.
    """
    zF = And(_Z, FALSE)
    zT = Or(_Z, TRUE)
    yF = And(_Y, FALSE)
    yT = Or(_Y, TRUE)
    wF = And(_W, FALSE)
    wT = Or(_W, TRUE)
    return [
        Equation(
            And(Or(_X, _Y), zF), And(Or(Not(_X), zF), And(_Y, zF)), "D1"
        ),
        Equation(And(Or(_X, yF), zF), And(Or(Not(_X), zF), yF), "D2"),
        Equation(Or(And(_X, yT), zF), And(Or(_X, zF), yT), "D3"),
        Equation(And(Or(_X, TRUE), Not(_Y)), Not(And(Or(_X, TRUE), _Y)), "D4"),
        Equation(
            Or(And(_X, And(_Y, zT)), And(_W, zT)),
            And(Or(And(_X, _Y), _W), zT),
            "D5",
        ),
        Equation(
            And(Or(_X, And(yT, zF)), And(wT, zF)),
            And(Or(And(_X, wT), yT), zF),
            "D6",
        ),
        Equation(
            And(Or(_X, And(yT, zF)), wF),
            And(Or(And(Not(_X), yT), wF), zF),
            "D7",
        ),
    ]
