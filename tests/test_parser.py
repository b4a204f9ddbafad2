import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sclkit import (
    FALSE,
    TRUE,
    And,
    Atom,
    Cond,
    FullAnd,
    FullOr,
    ModeViolation,
    Not,
    Or,
    ParseError,
    Var,
    format_term,
    parse,
    term_from_json,
    term_to_json,
)

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
