"""Tokenizer and recursive-descent parser for the ASCII expression grammar.

Precedence, tightest first: ``!``, then ``&&``/``&.&``, then ``||``/``|.|``
(binary connectives are left-associative), then the non-associative
conditional ``x <| y |> z``.  Identifiers are atoms; ``$name`` is a variable
(admitted in mode ``"open"`` only); ``T`` and ``F`` are the constants.
"""

from __future__ import annotations

from .errors import ParseError
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

_PUNCT = ("&.&", "&&", "|.|", "||", "<|", "|>", "!", "(", ")")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split ``text`` into (kind, lexeme, position) triples.

    Kinds are ``ident``, ``var``, one of the punctuation lexemes, and a
    final ``end`` marker.  Names follow the rule of term atoms and
    variables; a word that breaks it raises ``ParseError``.
    """
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha():
            j = _word_end(text, i)
            word = text[i:j]
            if word not in _RESERVED and not _is_name(word):
                raise ParseError(f"invalid atom name {word!r}", i)
            tokens.append(("ident", word, i))
            i = j
            continue
        if c == "$":
            if i + 1 >= n or not text[i + 1].isalpha():
                raise ParseError("expected identifier after '$'", i)
            j = _word_end(text, i + 1)
            name = text[i + 1 : j]
            if not _is_name(name):
                raise ParseError(f"invalid variable name {name!r}", i)
            tokens.append(("var", name, i))
            i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append((punct, punct, i))
                i += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _word_end(text: str, i: int) -> int:
    """The end of the word at ``i``: letters, digits and underscores, in
    any script, so that a name the ``terms`` rule rejects is one token."""
    while i < len(text) and (text[i].isalnum() or text[i] == "_"):
        i += 1
    return i


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.next()

    def parse_expr(self) -> Term:
        left = self.parse_or()
        if self.peek() != "<|":
            return left
        self.next()
        guard = self.parse_or()
        self.expect("|>")
        orelse = self.parse_or()
        if self.peek() == "<|":
            tok = self.tokens[self.pos]
            raise ParseError(
                "conditional is non-associative; parenthesize nested conditionals",
                tok[2],
            )
        return Cond(left, guard, orelse)

    def parse_or(self) -> Term:
        left = self.parse_and()
        while self.peek() in ("||", "|.|"):
            op = self.next()[0]
            right = self.parse_and()
            left = Or(left, right) if op == "||" else FullOr(left, right)
        return left

    def parse_and(self) -> Term:
        left = self.parse_unary()
        while self.peek() in ("&&", "&.&"):
            op = self.next()[0]
            right = self.parse_unary()
            left = And(left, right) if op == "&&" else FullAnd(left, right)
        return left

    def parse_unary(self) -> Term:
        if self.peek() == "!":
            self.next()
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Term:
        kind, lexeme, pos = self.next()
        if kind == "ident":
            if lexeme == "T":
                return TRUE
            if lexeme == "F":
                return FALSE
            return Atom(lexeme)
        if kind == "var":
            return Var(lexeme)
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {lexeme or 'end of input'!r}", pos)


def parse(text: str, mode: str = "enriched") -> Term:
    """Parse ``text`` into a term, then enforce the node kinds of ``mode``."""
    parser = _Parser(tokenize(text))
    term = parser.parse_expr()
    kind, lexeme, pos = parser.tokens[parser.pos]
    if kind != "end":
        raise ParseError(f"unexpected trailing {lexeme!r}", pos)
    return check_mode(term, mode)
