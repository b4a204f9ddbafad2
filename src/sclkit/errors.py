"""Exception types, and the default node cap, shared across the package."""


class SclError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(SclError):
    """Malformed expression or tree text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def _token_start(tokens, text: str, i: int) -> int:
    """Where token ``i`` of ``text`` starts, or the end of the input, as the
    pattern ``tokens`` splits it (group 1 is the token): a parse error's position."""
    for j, m in enumerate(tokens.finditer(text)):
        if j == i:
            return m.start(1)
    return len(text)


class ModeViolation(SclError):
    """A term contains a node kind that the requested mode forbids."""


class UnboundVariable(SclError):
    """A substitution does not cover some variable of the term."""


class NonClosedTerm(SclError):
    """An operation that needs a closed term was given one with variables."""


class TreeTooLarge(SclError):
    """A result exceeded the configured node cap."""


DEFAULT_NODE_CAP = 1_000_000  # the cap every builder takes by default


class NotInNormalForm(SclError):
    """A normalization step was applied to a term outside its grammar."""


class NotInImage(SclError):
    """A tree cannot be inverted; names the failing clause and subtree."""

    def __init__(self, message: str, subtree=None, clause: str | None = None):
        self.subtree = subtree
        self.clause = clause
        if clause is not None:
            message = f"{clause}: {message}"
        super().__init__(message)


class NotStarTerm(SclError):
    """The witness operation needs a term in one of the star categories."""


class UninterpretedAtom(SclError):
    """A finite model has no value for an atom and no default element."""
