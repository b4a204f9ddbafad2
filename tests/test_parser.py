from random import Random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sclkit import (
    FALSE,
    TRUE,
    And,
    Atom,
    Cond,
    Const,
    FullAnd,
    FullOr,
    ModeViolation,
    Not,
    Or,
    ParseError,
    SclError,
    Var,
    check_mode,
    format_term,
    parse,
    term_from_json,
    term_to_json,
)
from sclkit.terms import _is_name, children
from generators import random_term

A, B, C = Atom("a"), Atom("b"), Atom("c")


def test_negation_binds_tighter_than_and():
    assert parse("!b && a") == And(Not(B), A)


def test_and_binds_tighter_than_or():
    assert parse("!a && b || c") == Or(And(Not(A), B), C)
    assert parse("a || b && c") == Or(A, And(B, C))


def test_connectives_are_left_associative():
    assert parse("a && b && c") == And(And(A, B), C)
    assert parse("a || b || c") == Or(Or(A, B), C)
    assert parse("a && b &.& c") == FullAnd(And(A, B), C)


def test_conditional():
    assert parse("F <| a |> T") == Cond(FALSE, A, TRUE)
    assert parse("a && b <| c |> F") == Cond(And(A, B), C, FALSE)


def test_conditional_is_non_associative():
    with pytest.raises(ParseError):
        parse("a <| b |> c <| d |> e")
    parse("(a <| b |> c) <| d |> e")  # parenthesized form is fine


def test_unbalanced_parenthesis_is_a_syntax_error():
    with pytest.raises(ParseError) as exc:
        parse("a && (b || c")
    assert exc.value.position is not None


@pytest.mark.parametrize("bad", ["", "&& a", "a !b", "a $", "(", "a)", "a <| b c"])
def test_syntax_errors(bad):
    with pytest.raises(ParseError):
        parse(bad, "open")


@pytest.mark.parametrize(
    "bad, position",
    [("é", 0), ("é && a", 0), ("a && bé", 5), ("ab_é", 0), ("$é", 0), ("b || $xé", 5), ("$T", 0)],
)
def test_names_follow_the_term_rule(bad, position):
    # the tokenizer applies the atom and variable name rule of ``terms``
    with pytest.raises(ParseError) as exc:
        parse(bad, "open")
    assert exc.value.position == position


def test_mode_restrictions():
    with pytest.raises(ModeViolation):
        parse("a <| b |> c", "scl")
    with pytest.raises(ModeViolation):
        parse("a && b", "cp")
    with pytest.raises(ModeViolation):
        parse("$x", "enriched")
    assert parse("$x && a", "open") == And(Var("x"), A)


def test_identifiers_are_atoms_even_in_open_mode():
    assert parse("a", "open") == A
    assert parse("$a", "open") == Var("a")


def test_print_minimal_parentheses():
    assert format_term(And(Not(B), A)) == "!b && a"
    assert format_term(Or(And(A, B), C)) == "a && b || c"
    assert format_term(And(A, Or(B, C))) == "a && (b || c)"
    assert format_term(And(A, And(B, C))) == "a && (b && c)"
    assert format_term(Cond(Cond(A, B, C), A, B)) == "(a <| b |> c) <| a |> b"
    assert format_term(Not(And(A, B))) == "!(a && b)"
    assert format_term(Not(Not(A))) == "!!a"


def _leaves(mode):
    options = [st.just(TRUE), st.just(FALSE), st.sampled_from("abc").map(Atom)]
    if mode == "open":
        options.append(st.sampled_from("xyz").map(Var))
    return st.one_of(options)


def _extend(mode):
    def extend(children):
        options = []
        if mode != "cp":
            options += [
                children.map(Not),
                st.tuples(children, children).map(lambda p: And(*p)),
                st.tuples(children, children).map(lambda p: Or(*p)),
                st.tuples(children, children).map(lambda p: FullAnd(*p)),
                st.tuples(children, children).map(lambda p: FullOr(*p)),
            ]
        if mode != "scl":
            options.append(
                st.tuples(children, children, children).map(lambda t: Cond(*t))
            )
        return st.one_of(options)

    return extend


def _terms(mode):
    return st.recursive(_leaves(mode), _extend(mode), max_leaves=25)


@pytest.mark.parametrize("mode", ["scl", "cp", "enriched", "open"])
@settings(max_examples=120)
@given(data=st.data())
def test_parse_print_roundtrip(mode, data):
    term = data.draw(_terms(mode))
    assert parse(format_term(term), mode) == term


@pytest.mark.parametrize("mode", ["scl", "cp", "enriched", "open"])
@settings(max_examples=80)
@given(data=st.data())
def test_json_roundtrip(mode, data):
    term = data.draw(_terms(mode))
    assert term_from_json(term_to_json(term), mode) == term


def test_json_field_names():
    assert term_to_json(And(A, B)) == {
        "kind": "and",
        "l": {"kind": "atom", "name": "a"},
        "r": {"kind": "atom", "name": "b"},
    }
    assert term_to_json(Cond(A, B, C)) == {
        "kind": "cond",
        "then": {"kind": "atom", "name": "a"},
        "if": {"kind": "atom", "name": "b"},
        "else": {"kind": "atom", "name": "c"},
    }


def test_json_mode_enforcement():
    with pytest.raises(ModeViolation):
        term_from_json(term_to_json(Cond(A, B, C)), "scl")
    with pytest.raises(ParseError):
        term_from_json({"kind": "nope"})


@pytest.mark.parametrize(
    "bad",
    [
        {"kind": "atom"},
        {"kind": "var"},
        {"kind": "not"},
        {"kind": "and", "l": {"kind": "true"}},
        {"kind": "cond", "then": {"kind": "true"}, "if": {"kind": "true"}},
        {"kind": "atom", "name": 5},
        {"kind": "atom", "name": "é"},
        {"kind": "atom", "name": "T"},
        {"kind": "var", "name": "_x"},
        {"kind": ["and"]},
        {"kind": "or", "l": {"kind": "true"}, "r": [1]},
        {},
        [1],
        "a",
    ],
)
def test_term_from_json_errors(bad):
    with pytest.raises(ParseError):
        term_from_json(bad)


def test_format_term_on_deep_chains():
    atoms = [Atom(f"a{i}") for i in range(2_000)]
    left = atoms[0]
    for a in atoms[1:]:
        left = And(left, a)
    right = atoms[-1]
    for a in reversed(atoms[:-1]):
        right = Or(Not(a), right)
    assert format_term(left) == " && ".join(f"a{i}" for i in range(2_000))
    text = format_term(right)
    assert text.startswith("!a0 || (!a1 || (") and text.endswith("a1999" + ")" * 1_998)
    text = format_term(Cond(Not(left), right, left))
    assert text == f"!({format_term(left)}) <| {format_term(right)} |> {format_term(left)}"


# ---- the recursive parser as it was, kept as the oracle of ``parse``

_REFERENCE_PUNCT = ("&.&", "&&", "|.|", "||", "<|", "|>", "!", "(", ")")


def reference_tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha():
            j = _reference_word_end(text, i)
            word = text[i:j]
            if word not in ("T", "F") and not _is_name(word):
                raise ParseError(f"invalid atom name {word!r}", i)
            tokens.append(("ident", word, i))
            i = j
            continue
        if c == "$":
            if i + 1 >= n or not text[i + 1].isalpha():
                raise ParseError("expected identifier after '$'", i)
            j = _reference_word_end(text, i + 1)
            name = text[i + 1 : j]
            if not _is_name(name):
                raise ParseError(f"invalid variable name {name!r}", i)
            tokens.append(("var", name, i))
            i = j
            continue
        for punct in _REFERENCE_PUNCT:
            if text.startswith(punct, i):
                tokens.append((punct, punct, i))
                i += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _reference_word_end(text, i):
    while i < len(text) and (text[i].isalnum() or text[i] == "_"):
        i += 1
    return i


class _ReferenceParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.next()

    def parse_expr(self):
        left = self.parse_or()
        if self.peek() != "<|":
            return left
        self.next()
        guard = self.parse_or()
        self.expect("|>")
        orelse = self.parse_or()
        if self.peek() == "<|":
            raise ParseError(
                "conditional is non-associative; parenthesize nested conditionals",
                self.tokens[self.pos][2],
            )
        return Cond(left, guard, orelse)

    def parse_or(self):
        left = self.parse_and()
        while self.peek() in ("||", "|.|"):
            op = self.next()[0]
            right = self.parse_and()
            left = Or(left, right) if op == "||" else FullOr(left, right)
        return left

    def parse_and(self):
        left = self.parse_unary()
        while self.peek() in ("&&", "&.&"):
            op = self.next()[0]
            right = self.parse_unary()
            left = And(left, right) if op == "&&" else FullAnd(left, right)
        return left

    def parse_unary(self):
        if self.peek() == "!":
            self.next()
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        kind, lexeme, pos = self.next()
        if kind == "ident":
            return {"T": TRUE, "F": FALSE}.get(lexeme) or Atom(lexeme)
        if kind == "var":
            return Var(lexeme)
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {lexeme or 'end of input'!r}", pos)


_REFERENCE_MODE_NODES = {
    "scl": (Const, Atom, Not, And, Or, FullAnd, FullOr),
    "cp": (Const, Atom, Cond),
    "enriched": (Const, Atom, Not, And, Or, FullAnd, FullOr, Cond),
    "open": (Const, Atom, Var, Not, And, Or, FullAnd, FullOr, Cond),
}


def reference_check_mode(t, mode):
    """The first inadmissible node of ``t`` in preorder, over every logical position."""
    if mode not in _REFERENCE_MODE_NODES:
        raise ValueError(f"unknown mode: {mode!r}")
    stack = [t]
    while stack:
        s = stack.pop()
        if not isinstance(s, _REFERENCE_MODE_NODES[mode]):
            raise ModeViolation(f"{type(s).__name__} node not allowed in mode {mode!r}")
        stack.extend(reversed(children(s)))
    return t


def reference_parse(text, mode="enriched"):
    parser = _ReferenceParser(reference_tokenize(text))
    term = parser.parse_expr()
    kind, lexeme, pos = parser.tokens[parser.pos]
    if kind != "end":
        raise ParseError(f"unexpected trailing {lexeme!r}", pos)
    return reference_check_mode(term, mode)


def _outcome(fn, *args):
    """The result, or the error's type, message and position."""
    try:
        return fn(*args)
    except (SclError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _same_as_reference(text, mode):
    got = _outcome(parse, text, mode)
    assert got == _outcome(reference_parse, text, mode), (text, mode)
    return got


MODES = ("scl", "cp", "enriched", "open")


def _seeded_texts(seed, count):
    rng = Random(seed)
    for _ in range(count):
        mode = rng.choice(MODES)
        term = random_term(rng, max_depth=rng.randint(0, 6), mode=mode, variables=("x", "y"))
        yield mode, format_term(term)


def test_parse_matches_the_reference_on_seeded_texts():
    for mode, text in _seeded_texts(1, 2_000):
        for m in MODES:  # every mode, admissible or not
            _same_as_reference(text, m)
        assert parse(text, mode) is reference_parse(text, mode)


# Characters a mutation inserts: every piece of the grammar, broken pieces
# of connectives, names outside the rule and Unicode spaces, letters and digits.
_NOISE = list("&|.<>!()$_ Ta1xé²\t\n ́#") + ["&&", "||", "<|", "|>", "&.&", "|.|", "$x", "T", "F"]


def _mutated(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        roll, at = rng.random(), rng.randint(0, len(chars))
        if roll < 0.35:
            chars.insert(at, rng.choice(_NOISE))
        elif roll < 0.7 and chars:
            del chars[min(at, len(chars) - 1)]
        elif chars:  # move one piece elsewhere
            piece = chars.pop(min(at, len(chars) - 1))
            chars.insert(rng.randint(0, len(chars)), piece)
    return "".join(chars)


def test_parse_matches_the_reference_on_mutated_texts():
    rng = Random(2)
    outcomes = {"term": 0, "error": 0}
    for mode, text in _seeded_texts(3, 10_000):
        got = _same_as_reference(_mutated(rng, text), mode)
        outcomes["error" if isinstance(got, tuple) else "term"] += 1
    assert min(outcomes.values()) > 1_000, outcomes


@pytest.mark.parametrize(
    "text",
    [
        "", " ", " a ", "á", "_a", "a_", "1a", "a1", "²x", "a²", "é", "ÿa", "a é", "a && é",
        "$", "$ x", "$_x", "$1", "$x_1", "$é", "$x²", "$$x", "$T", "a $x", "$x $y", "!$x", "($x)",
        "a <| b |> c", "a <| b |> c <| d |> e", "(a <| b |> c) <| d |> e", "a <| (b <| c |> d) |> e",
        "a <| b <| c |> d |> e", "a <| b", "a <| b |>", "a |> b", "a <| b |> c |> d", "(a <| b)",
        "(a <| b |> c", "!(a <| b |> c)", "a && b <| c || d |> !e", "a <| b |> c && (d <| e |> f)",
        "a && ) é", "a && (b || c", "a)", "()", "!", "!!", "a !b", "a &", "a & & b", "a &.& &. b",
        "a ||| b", "a |.|. b", "a <|> b", "a<|b|>c", "T <| F |> T", "T F", "a b", "(a) (b)",
    ],
)
def test_parse_matches_the_reference_on_edge_cases(text):
    for mode in MODES + ("bogus",):
        _same_as_reference(text, mode)


def test_check_mode_matches_the_preorder_reference():
    rng = Random(4)
    raised = 0
    for _ in range(3_000):
        term = random_term(rng, max_depth=rng.randint(0, 6), mode=rng.choice(MODES), variables=("x",))
        for mode in MODES:
            got = _outcome(check_mode, term, mode)
            assert got == _outcome(reference_check_mode, term, mode), (term, mode)
            raised += isinstance(got, tuple)
    assert raised > 2_000
    with pytest.raises(ValueError, match="unknown mode"):
        check_mode(TRUE, "bogus")


def test_parse_takes_deep_nesting_without_recursion():
    deep = 100_000
    t = parse("!" * deep + "a")
    for _ in range(deep):
        assert type(t) is Not
        t = t.arg
    assert t is A
    assert parse("(" * deep + "a" + ")" * deep) is A
    assert parse("(" * deep + "a || b" + ")" * deep + " && c") == And(Or(A, B), C)
    with pytest.raises(ParseError) as exc:
        parse("(" * deep + "a" + ")" * (deep - 1))
    assert str(exc.value).startswith("expected ')', found 'end of input'")
    chain = " && ".join(f"a{i}" for i in range(deep))
    assert parse(chain).node_count == 2 * deep - 1
