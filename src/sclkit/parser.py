"""One-pass, non-recursive parser for the ASCII expression grammar.

Precedence, tightest first: ``!``, then ``&&``/``&.&``, then ``||``/``|.|``
(binary connectives are left-associative), then the non-associative
conditional ``x <| y |> z``.  Identifiers are atoms; ``$name`` is a variable
(admitted in mode ``"open"`` only); ``T`` and ``F`` are the constants.
"""

from __future__ import annotations

import re

from .errors import ParseError, _token_start
from .terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    Cond,
    FullAnd,
    FullOr,
    Not,
    Or,
    Term,
    Var,
    _RESERVED,
    _is_name,
    check_mode,
)

# A token is a connective, a word (letters, digits and underscores in any
# script, so that a name the ``terms`` rule rejects is one token), ``$``
# with the word after it, or any other single character.
_TOKEN = re.compile(r"\s*(&\.&|&&|\|\.\||\|\||<\||\|>|\$?\w+|\S)")
_PUNCT = frozenset(("&.&", "&&", "|.|", "||", "<|", "|>", "!", "(", ")"))
_BINARY = {"&&": (2, And), "&.&": (2, FullAnd), "||": (1, Or), "|.|": (1, FullOr)}

# Entries of the operator stack below the current operand: a binary
# connective (its precedence, class and left operand), or, at precedence 0
# so that no reduction passes it, "!", "(", the "<|" of a conditional (with
# its left part) or its "|>" (with its left part and guard).
_NOT, _OPEN = (0, "!"), (0, "(")


def parse(text: str, mode: str = "enriched") -> Term:
    """Parse ``text`` into a term, then enforce the node kinds of ``mode``.

    The tokens are taken by one ``findall`` and read once, left to right,
    against an explicit operator stack, so nesting depth costs no stack
    frames.  Each distinct word is checked and built once per call.
    Raises ``ParseError`` at the first token that is wrong; a malformed
    token anywhere in ``text`` is reported before any error of syntax.
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end of the input
    operands = {"T": TRUE, "F": FALSE}
    stack, i = [], 0
    while True:
        # an operand: any number of "!" and "(", then a name
        tok = tokens[i]
        i += 1
        t = operands.get(tok)
        if t is None:
            if tok == "!":
                stack.append(_NOT)
                continue
            if tok == "(":
                stack.append(_OPEN)
                continue
            t = operands[tok] = _operand(text, tokens, i - 1)
        while True:
            while stack and stack[-1] is _NOT:
                stack.pop()
                t = Not(t)
            # an operator, or the end of the operand's parenthesis or input
            tok = tokens[i]
            i += 1
            binary = _BINARY.get(tok)
            prec = binary[0] if binary else 1
            while stack and stack[-1][0] >= prec:
                _, cls, left = stack.pop()
                t = cls(left, t)
            if binary:
                stack.append((*binary, t))
                break
            top = stack[-1][1] if stack else None
            if top == "<|":
                if tok != "|>":
                    _fail(text, tokens, i - 1, f"expected '|>', found {_shown(tok)!r}")
                stack[-1] = (0, "|>", stack[-1][2], t)
                break
            if tok == "<|":
                if top == "|>":
                    _fail(text, tokens, i - 1, "conditional is non-associative; parenthesize nested conditionals")
                stack.append((0, "<|", t))
                break
            if top == "|>":
                _, _, then, guard = stack.pop()
                t = Cond(then, guard, t)
            if not stack:
                if tok:
                    _fail(text, tokens, i - 1, f"unexpected trailing {_shown(tok)!r}")
                return check_mode(t, mode)
            if tok != ")":
                _fail(text, tokens, i - 1, f"expected ')', found {_shown(tok)!r}")
            stack.pop()


def _operand(text: str, tokens: list[str], i: int) -> Term:
    """The atom or variable that token ``i`` names; else raise the error
    of the first malformed token from ``i`` on, or of token ``i``."""
    tok = tokens[i]
    if _is_name(tok):
        return Atom(tok)
    if tok[:1] == "$" and _is_name(tok[1:]):
        return Var(tok[1:])
    _fail(text, tokens, i, f"unexpected {_shown(tok)!r}")


def _shown(tok: str) -> str:
    """A token as error messages name it: a variable without its ``$``."""
    return (tok[1:] if tok[:1] == "$" else tok) or "end of input"


def _fail(text: str, tokens: list[str], i: int, message: str):
    """Raise ``message`` at token ``i``, unless a token from ``i`` on is
    malformed: then raise the error of the first such token."""
    for j in range(i, len(tokens)):
        tok = tokens[j]
        if not tok or tok in _PUNCT:
            continue
        if tok[0] == "$":
            if not tok[1:2].isalpha():
                message = "expected identifier after '$'"
            elif not _is_name(tok[1:]):
                message = f"invalid variable name {tok[1:]!r}"
            else:
                continue
        elif not tok[0].isalpha():
            message = f"unexpected character {tok[0]!r}"
        elif tok not in _RESERVED and not _is_name(tok):
            message = f"invalid atom name {tok!r}"
        else:
            continue
        i = j
        break
    raise ParseError(message, _token_start(_TOKEN, text, i))
