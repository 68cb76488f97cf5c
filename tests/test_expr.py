"""Expression language: tokens, parsing, printing, evaluation."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

from loopbv import expr
from loopbv.expr import (
    _EVAL,
    BinOp,
    Call,
    ClassList,
    ExpressionError,
    Gen,
    Name,
    Neg,
    Num,
    Pow,
    evaluate,
    parse,
    to_text,
    tokenize,
)
from loopbv.kernel import Element, ModelSpec, Ring
from loopbv.loop import a, u
from loopbv.cohomology import alpha, v
from loopbv.verify import _build_catalog

from exprgen import corpus, evaluable_corpus, random_node

S3 = ModelSpec("s3", (3,))
SU3 = ModelSpec("su3", (3, 5))


# -- parsing ------------------------------------------------------------------


def test_parse_bracket_call():
    node = parse("bracket(a1, u1^3)")
    assert node == Call("bracket", (Gen("a", 1), Pow(Gen("u", 1), 3)))


def test_parse_nested_call():
    node = parse("cap(Delta(alpha1), u1^2)")
    assert node == Call("cap", (Call("Delta", (Gen("alpha", 1),)), Pow(Gen("u", 1), 2)))


def test_parse_double_star_is_an_error_at_second_star():
    with pytest.raises(ExpressionError) as err:
        parse("a1 ** u1")
    assert err.value.line == 1 and err.value.col == 5
    assert "unexpected '*'" in str(err.value)


def test_parse_precedence():
    assert parse("1 + 2*a1") == BinOp("+", Num(Fraction(1)), BinOp("*", Num(Fraction(2)), Gen("a", 1)))
    assert parse("-u1^2") == Neg(Pow(Gen("u", 1), 2))
    assert parse("a1 - u1 - v1") == BinOp(
        "-", BinOp("-", Gen("a", 1), Gen("u", 1)), Gen("v", 1)
    )
    assert parse("(a1 + u1)^2") == Pow(BinOp("+", Gen("a", 1), Gen("u", 1)), 2)


def test_parse_rational_literals():
    assert parse("3/2") == Num(Fraction(3, 2))
    assert parse("4/2") == Num(Fraction(2))
    with pytest.raises(ExpressionError, match="zero denominator"):
        parse("1/0")


def test_parse_bad_exponents():
    with pytest.raises(ExpressionError, match="exponent"):
        parse("a1^-2")
    with pytest.raises(ExpressionError, match="exponent"):
        parse("a1^u1")
    with pytest.raises(ExpressionError, match="exponent"):
        parse("a1^3/2")


def test_parse_unknown_identifier():
    with pytest.raises(ExpressionError, match="unknown identifier 'foo'"):
        parse("foo + 1")
    with pytest.raises(ExpressionError, match="unknown identifier 'b2'"):
        parse("b2")
    with pytest.raises(ExpressionError, match="index must be >= 1"):
        parse("a0")


def test_parse_arity_errors():
    with pytest.raises(ExpressionError, match="cap expects 2"):
        parse("cap(a1)")
    with pytest.raises(ExpressionError, match="s expects 1"):
        parse("s(a1, a1)")


def test_parse_lexical_error_position():
    with pytest.raises(ExpressionError) as err:
        parse("a1 $ u1")
    assert err.value.col == 4
    with pytest.raises(ExpressionError, match="unexpected"):
        parse("a1 u1")
    with pytest.raises(ExpressionError, match="unexpected"):
        parse("")


def test_parse_intersect_lists():
    node = parse("intersect([alpha1, alpha2], [], u1)")
    assert node.func == "intersect"
    first, second, family = node.args
    assert [item for item in first.items] == [Gen("alpha", 1), Gen("alpha", 2)]
    assert second.items == ()
    assert family == Gen("u", 1)


#: every label-only form, and what `eval` says of it: the characters ``{ } | . =`` are refused
#: when the text is tokenized, before any parse error
LABEL_FORMS_IN_EVAL = [
    ("{a1,u1}", "1:1: unexpected character '{'"),
    ("|a1|", "1:1: unexpected character '|'"),
    ("a1 . u1", "1:4: unexpected character '.'"),
    ("a1 = a1", "1:4: unexpected character '='"),
    ("... = a1", "1:1: unexpected character '.'"),
    ("v1 cap u1", "1:4: unexpected 'cap'"),
    ("alpha1 cup alpha1", "1:8: unexpected 'cup'"),
    ("(a1, 0)", "1:4: expected ')', found ','"),
    ("(-1)^{1} a1", "1:6: unexpected character '{'"),
    ("Da1", "1:1: unknown identifier 'Da1' (generators are a<i>, u<i>, alpha<i>, v<i>)"),
    ("a1 u1 {", "1:7: unexpected character '{'"),
]


@pytest.mark.parametrize("text, message", LABEL_FORMS_IN_EVAL)
def test_eval_refuses_every_label_only_form(text, message):
    with pytest.raises(ExpressionError) as err:
        evaluate(text, SU3)
    assert str(err.value) == message


# -- token positions ------------------------------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        ("a1 +   ", "1:8: unexpected 'end of input'"),
        ("\n\n  a1 $", "3:6: unexpected character '$'"),
        (
            "a1 +\r\n\tfoo",
            "2:2: unknown identifier 'foo' (generators are a<i>, u<i>, alpha<i>, v<i>)",
        ),
        ("bracket(a1,\n\n      u1^)", "3:10: exponent must be a nonnegative integer, found ')'"),
        ("a1\t\t+ (u1", "1:10: expected ')', found 'end of input'"),
        ("  \n", "2:1: unexpected 'end of input'"),
    ],
)
def test_diagnostic_positions_across_whitespace(text, message):
    with pytest.raises(ExpressionError) as err:
        parse(text)
    assert str(err.value) == message


def test_token_positions_count_only_newlines():
    got = [(t.kind, t.line, t.col) for t in tokenize("a1 +\r\n\tu1 \n")]
    assert got == [("IDENT", 1, 1), ("+", 1, 4), ("IDENT", 2, 2), ("EOF", 3, 1)]


_REFERENCE_RE = re.compile(
    r"(?P<NUMBER>[0-9]+(?:/[0-9]+)?)|(?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<SYMBOL>[-+*^()\[\],])|(?P<SPACE>[ \t\r\n]+)|(?P<BAD>.)"
)


def _reference_tokens(text):
    """(kind, text, line, col) of every token, columns found by adding up lengths,
    or the (line, col) of the first bad character."""
    out, line, col = [], 1, 1
    for match in _REFERENCE_RE.finditer(text):
        kind, value = match.lastgroup, match.group()
        if kind == "SPACE":
            if "\n" in value:
                line += value.count("\n")
                col = len(value) - value.rfind("\n")
            else:
                col += len(value)
            continue
        if kind == "BAD":
            return (line, col)
        out.append((value if kind == "SYMBOL" else kind, value, line, col))
        col += len(value)
    out.append(("EOF", "", line, col))
    return out


def _tokens_or_error(text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ExpressionError as exc:
        return (exc.line, exc.col)


def _spaced_corpus():
    """Generated texts with their tokens split by random runs of spaces and line breaks, a fifth
    of them with a bad character inserted."""
    rng = random.Random("token-positions")
    runs = (" ", "\t", "\n", "\r\n")
    for text in corpus(300, seed="token-positions", rank=3):
        pieces = [token for _, token, *_ in _reference_tokens(text)[:-1]]
        if rng.random() < 0.2:
            pieces.insert(rng.randrange(len(pieces) + 1), "$")
        spaced = "".join(
            "".join(rng.choice(runs) for _ in range(rng.randint(0, 3))) + piece + " "
            for piece in pieces
        )
        yield spaced + "".join(rng.choice(runs) for _ in range(rng.randint(0, 3)))


def test_token_positions_match_a_length_summing_tokenizer():
    for spaced in _spaced_corpus():
        assert _tokens_or_error(spaced) == _reference_tokens(spaced), repr(spaced)


def _lexed_or_error(text):
    try:
        return _EVAL.lex(text)
    except ExpressionError as exc:
        return str(exc)


def test_tokenize_wraps_the_lexer_tuples():
    """`tokenize` is the lexer's (kind, text, (line, col)) tuples with named fields, nothing more."""
    for spaced in _spaced_corpus():
        try:
            wrapped = [(t.kind, t.text, (t.line, t.col)) for t in tokenize(spaced)]
        except ExpressionError as exc:
            wrapped = str(exc)
        assert wrapped == _lexed_or_error(spaced), repr(spaced)


def test_no_token_is_built_off_the_tokenize_path(monkeypatch):
    """Parsing, evaluating and compiling the catalog's labels read the lexer's tuples alone."""
    class Refused:
        def __init__(self, *args):
            raise AssertionError("a Token was built")

    monkeypatch.setattr(expr, "Token", Refused)
    with pytest.raises(AssertionError, match="a Token was built"):
        tokenize("a1")
    texts = corpus(100, seed="no-tokens") + evaluable_corpus(100, seed="no-tokens")
    for text in texts + ["bracket(a1, u1^2", "a1 $", "cap(v1, a1)"]:
        try:
            evaluate(parse(text), SU3)
        except ExpressionError:
            pass
    _build_catalog()


_EDGE_CHARACTERS = [chr(code) for code in range(128)] + ["\x85", "\xa0", "\u2028", "\u3000", "²", "٣", "α", "ａ"]


def test_every_ascii_character_and_unicode_lookalikes_tokenize_as_the_reference():
    """Unicode spaces, line breaks, digits and letters are bad characters, as in the reference."""
    for char in _EDGE_CHARACTERS:
        for text in (char, "a1" + char + "u1"):
            assert _tokens_or_error(text) == _reference_tokens(text), repr(text)


def test_identifier_edges_are_pinned():
    assert parse("a01") == Gen("a", 1)
    unknown = "unknown identifier %r (generators are a<i>, u<i>, alpha<i>, v<i>)"
    cases = [("alpha0", "generator index must be >= 1 in 'alpha0'")] + [
        (name, unknown % name) for name in ("alphax1", "aa1", "u1a", "v_1", "A1", "alph1")
    ]
    for name, message in cases:
        with pytest.raises(ExpressionError) as err:
            parse("1 +\n  " + name)
        assert str(err.value) == "2:3: " + message


# -- tree equality -----------------------------------------------------------------


def test_tree_equality_ignores_positions():
    spaced, plain = parse(" a1+u1 "), parse("a1 + u1")
    assert spaced.left.pos != plain.left.pos
    assert spaced == plain
    assert parse("\tbracket( a1 ,u1^2 )") == parse("bracket(a1, u1^2)")


def test_nodes_of_different_classes_are_never_equal():
    operand = Gen("a", 1)
    one_field = (Num(operand), Neg(operand), ClassList(operand))
    two_fields = (Gen("a", 1), Pow("a", 1), Call("a", 1))
    for group in (one_field, two_fields):
        for left, right in itertools.permutations(group, 2):
            assert left != right


def test_generated_nodes_are_slotted_and_reparse_equal():
    rng = random.Random("slotted-nodes")
    for _ in range(50):
        node = random_node(rng, 3)
        assert not hasattr(node, "__dict__")
        assert node.pos == (0, 0)
        assert parse(to_text(node)) == node


# -- printing round trip -----------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "bracket(a1, u1^3)",
        "cap(Delta(alpha1), u1^2)",
        "-a1*u1 + 3/2*u1^4 - 2",
        "intersect([alpha1], [alpha2, alpha1], u1*u2)",
        "product(s(a1), u1)",
        "Dinv(D(a1))",
        "-(a1 + u1)^3",
        "1/2 - -u1",
        "a1 - u1 - v1 + alpha1",
    ],
)
def test_round_trip_handwritten(text):
    tree = parse(text)
    printed = to_text(tree)
    assert parse(printed) == tree
    assert to_text(parse(printed)) == printed


def test_round_trip_generated_corpus():
    for text in corpus(250, seed="round-trip", rank=3):
        tree = parse(text)
        assert parse(to_text(tree)) == tree


# -- evaluation ----------------------------------------------------------------------


def test_evaluate_bracket_example():
    value = evaluate("bracket(a1, u1)", S3)
    assert value == -Element.unit(S3, Ring.LOOP)
    assert value.degree() == 0


def test_evaluate_cap_example():
    assert evaluate("cap(Delta(alpha1), u1^2)", S3) == 2 * u(S3, 1)


def test_evaluate_product_example():
    assert evaluate("product(s(a1), u1)", S3) == a(S3, 1) * u(S3, 1)


def test_evaluate_scalars():
    assert evaluate("3/2 - 1/2", S3) == Fraction(1)
    assert evaluate("2*a1 - a1", S3) == a(S3, 1)
    assert evaluate("Delta(3)", S3) == Fraction(0)
    assert evaluate("u1^0", S3) == Element.unit(S3, Ring.LOOP)
    assert evaluate("2 + u1 - u1", S3) == 2 * Element.unit(S3, Ring.LOOP)


def test_evaluate_cohomology_ring():
    value = evaluate("alpha1*v1^2", SU3)
    assert value == alpha(SU3, 1) * v(SU3, 1) ** 2
    assert value.ring is Ring.COH


def test_evaluate_duality_round_trip():
    assert evaluate("Dinv(D(a1*a2))", SU3) == a(SU3, 1) * a(SU3, 2)
    assert evaluate("D(a1)", SU3) == alpha(SU3, 1)


def test_evaluate_intersect():
    assert evaluate("intersect([], [alpha1], u1^2)", S3) == 2 * u(S3, 1)
    assert evaluate("intersect([alpha1], [], u1)", S3) == a(S3, 1) * u(S3, 1)


def test_evaluate_ring_mixing_diagnostics():
    with pytest.raises(ExpressionError, match="single ring.*cap"):
        evaluate("a1*alpha1", S3)
    with pytest.raises(ExpressionError, match="loop-homology"):
        evaluate("bracket(alpha1, u1)", S3)
    with pytest.raises(ExpressionError, match="cohomology"):
        evaluate("cap(u1, u1)", S3)
    with pytest.raises(ExpressionError, match="sums live in a single ring"):
        evaluate("a1 + alpha1", S3)


def test_evaluate_unknown_generator_for_model():
    with pytest.raises(ExpressionError, match="unknown identifier for model 's3': a3"):
        evaluate("a3", S3)
    with pytest.raises(ExpressionError, match="alpha9"):
        evaluate("cap(alpha9, u1)", SU3)


#: trees the parser never builds, each at (2, 7), and what `evaluate` says of each on su3
MALFORMED_TREES = [
    (Call("nope", (Gen("a", 1),), (2, 7)), "unknown function 'nope'"),
    (Call("bracket", (Gen("a", 1),), (2, 7)), "bracket expects 2 argument(s), got 1"),
    (Call("Delta", (Gen("a", 1), Gen("a", 1)), (2, 7)), "Delta expects 1 argument(s), got 2"),
    (Call("intersect", (Gen("a", 1),), (2, 7)), "intersect expects 3 argument(s), got 1"),
    (Call("intersect", (Gen("alpha", 1), ClassList(()), Gen("u", 1)), (2, 7)),
     "intersect expects two class lists [...] and a family"),
    (Gen("x", 1, (2, 7)), "unknown generator family 'x'"),
    (Gen("a", 0, (2, 7)), "unknown identifier for model 'su3': a0 (generators are indexed 1..2)"),
    (ClassList((Gen("a", 1),), (2, 7)), "expected an expression, found a ClassList"),
    (Name("b", (2, 7)), "expected an expression, found a Name"),
]


def test_evaluate_refuses_a_malformed_hand_built_tree():
    """Each is an `ExpressionError` at the node, not an exception of the evaluator's own."""
    for tree, message in MALFORMED_TREES:
        with pytest.raises(ExpressionError) as err:
            evaluate(tree, SU3)
        assert (err.value.message, err.value.line, err.value.col) == (message, 2, 7), tree


def test_evaluate_subring_guards():
    with pytest.raises(ExpressionError, match="exterior"):
        evaluate("s(u1)", S3)
    with pytest.raises(ExpressionError, match="exterior"):
        evaluate("D(u1)", S3)
    with pytest.raises(ExpressionError, match="base"):
        evaluate("Dinv(v1)", S3)
    with pytest.raises(ExpressionError, match="base"):
        evaluate("intersect([v1], [], u1)", S3)


def test_evaluate_inhomogeneous_intersect_rejected():
    with pytest.raises(ExpressionError, match="inhomogeneous"):
        evaluate("intersect([], [1 + alpha1], u1)", SU3)
