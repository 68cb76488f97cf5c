"""Expression language: one tokenizer and one parser for ``eval`` text and
catalog labels; printing and evaluation of ``eval`` text.

One Pratt parser (Pratt, "Top down operator precedence", POPL 1973) reads
both into one tree.  A reader is a `_Grammar`: the symbols its tokenizer
accepts and the prefix and infix productions its parser has, each with its
binding power.  `parse` reads ``eval`` text in `_EVAL`; `parse_label` reads
a label in `_LABEL`, whose signs read their exponent in `_DEGREE`.  The one
grammar, by binding power (higher binds tighter)::

    x = y                    label 1; does not chain
    x + y, x - y             eval 1, label 2
    x * y                    eval 2, label 3
    x . y, x cup y, x cap y  label 3
    -x                       eval 3, so -a1*u1 is (-a1)*u1; label 2, so -b*c is -(b*c)
    (-1)^{n} x               label 2, n a degree
    x ^ INT                  eval 4, x an atom and INT >= 0; does not chain
    atom   := NUMBER | (x)   eval and label
            | GENERATOR | FUNC(x, ...)                 eval
            | NAME | NAME(x) | ... | {x, y} | (x, y, ...)   label
    degree := n + n | n - n (1) | n n, juxtaposed (2) | |NAME| | INT | (n)

Binary operators are left associative.  NUMBER is ``3`` or ``3/2``;
GENERATOR is ``a<i>``/``u<i>`` (loop homology) or ``alpha<i>``/``v<i>``
(cohomology); FUNC is a name of `_FUNCTIONS`.  ``*`` multiplies inside a
single ring; cross-ring actions go through the functions.  ``eval`` refuses
the label-only characters ``{ } | . =`` as it tokenizes, before any parse
error.  What a label means is `verify._Compiler`'s.  The binding powers are
stated once, in the grammars: the parser reads them, and the printer reads
`_EVAL`'s to place parentheses.  The lexer, `_Grammar.lex`, yields each
token as a plain tuple ``(kind, text, pos)``, pos its ``(line, col)``, built
once from its offset in the text; a tree node built at a token shares that
pos, and `tokenize` wraps the same tuples in `Token`s, whose fields have
names.  Tree nodes are slotted, mutable dataclasses, and all diagnostics are
``line:col: message``; the parser formats one only when it raises it.  Node
equality ignores positions, so printing a parse tree and reparsing the text
yields an equal tree.  Parentheses, brackets, calls and prefix signs may
nest `MAX_NESTING` levels deep; one more is a diagnostic at the token that
opens it, not a Python stack overflow.  Sums and products of any length
evaluate and print.

To add a function, give it one `_FUNCTIONS` entry: the engine call and the
ring and diagnostic label of each argument.  The parser takes the arity from
it, and so does `_eval`, which refuses a hand-built call of another arity
with the parser's message; `_eval` coerces the arguments by it (a scalar
becomes that multiple of the unit; ring None passes any value) before the
call.  An `AlgebraError` of a call, a sum, a product or a power becomes a
diagnostic at its node: the call's name or the operator.  A function of one
argument sends a scalar c to c*f(1): c for ``s``, ``D`` and ``Dinv``, 0 for
``Delta``.  ``intersect`` takes two class lists, coerced item by item, and
``loopbv intersect`` evaluates ``intersect([AT], [FREE], FAMILY)`` built
from its options, so it shares every check and message with ``eval``.

The interpreter's limit on the digits of an integer converted to or from
text (`sys.get_int_max_str_digits`) is left as it is: a longer number literal
is a diagnostic, and `describe_value` refuses a value it cannot print.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .kernel import AlgebraError, Element, ModelSpec, Ring, _GEN_NAMES
from .loop import bv_delta, loop_bracket, s_star
from .cohomology import coh_delta, poincare_dual, poincare_dual_inverse
from .extended import cap, loop_intersection


class ExpressionError(Exception):
    """Parse or evaluation error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# tokens


# a tokenizer's pattern, given the pattern of its grammar's symbols: one group per kind, in this order:
# number, identifier, symbol, whitespace, any other character; every character falls in one, so the
# matches tile the text
_TOKENS = r"([0-9]+(?:/[0-9]+)?)|([A-Za-z_][A-Za-z_0-9]*)|(%s)|([ \t\r\n]+)|(.)"


@dataclass(slots=True)
class Token:  # `tokenize`'s: one lexer tuple (kind, text, (line, col)) with named fields
    kind: str  # NUMBER, IDENT, EOF, a symbol, or an identifier that keys an infix production
    text: str
    line: int
    col: int


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(slots=True)
class Num:
    value: Fraction
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class Gen:
    family: str  # "a", "u", "alpha", "v"
    index: int
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class Name:  # in a label: an argument, a function named without a call, or ``...``
    text: str
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class Neg:
    operand: object
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class Sign:  # in a label: ``(-1)^{exponent} operand``, a Name in the exponent standing for its degree
    exponent: object
    operand: object
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class Pow:
    base: object
    exponent: int
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class BinOp:
    op: str  # "+", "-", "*"; in a label also ".", "cup", "cap" and "="
    left: object
    right: object
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class Call:
    func: str  # a function name; in a label also "{}", the bracket {x,y}
    args: tuple
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class ClassList:  # ``[w, ...]`` in ``intersect``; in a label, a tuple ``(x, y, ...)``
    items: tuple
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


# generator family -> (ring, kind), from the kernel's names
_GEN_FAMILIES = {
    name: (ring, kind) for ring, names in _GEN_NAMES.items() for kind, name in zip(("odd", "even"), names)
}
_GEN_RE = re.compile("(%s)([0-9]+)" % "|".join(_GEN_FAMILIES))  # family, then index digits

MAX_NESTING = 100  # deeper trees would overflow Python's stack in the parser


def _shown(token: tuple) -> str:
    """The token as a diagnostic quotes it."""
    return token[1] if token[0] != "EOF" else "end of input"


def _fail(token: tuple, message: str):
    """Raise the diagnostic `message` at `token`, in place of any exception being handled."""
    raise ExpressionError(message, *token[2]) from None


def _int(digits: str, token: tuple) -> int:
    """The value of a run of ASCII digits in `token`, which must convert under
    the interpreter's limit on the digits of an integer read from text."""
    try:
        return int(digits)
    except ValueError:  # the only way a run of ASCII digits fails to convert
        _fail(token, "number of %d digits, more than the interpreter's limit of %d for an integer"
              % (len(digits), sys.get_int_max_str_digits()))


_ARITY = "%s expects %d argument(s), got %d"  # a call with the wrong number of arguments, parsed or built


class _Parser:
    """One text's tokens, read by the productions of `grammar`: a prefix one is called as (token,
    power) after its token, an infix one as (token, left, power), `power` its binding power.  A
    token is `_Grammar.lex`'s (kind, text, pos), and a node built at it takes its pos."""

    def __init__(self, grammar: _Grammar, text: str):
        self.grammar = grammar
        self.tokens = grammar.lex(text)
        self.index = 0
        self.depth = 0  # open parentheses, brackets, calls and prefix signs

    def expect(self, kind: str, what: str, *args) -> tuple:
        """The next token, which must be of `kind`; else a diagnostic that expects ``what % args``."""
        token = self.tokens[self.index]
        if token[0] != kind:
            _fail(token, "expected %s, found %r" % (what % args, _shown(token)))
        self.index += 1
        return token

    def nest(self, token: tuple):
        """Open one nesting level at `token`; `close` closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            _fail(token, "expression nests deeper than %d levels of parentheses, calls and unary minus"
                  % MAX_NESTING)

    def close(self, kind: str, node):
        self.expect(kind, "%r", kind)
        self.depth -= 1
        return node

    def expression(self, context: int):
        """The expression at the next token, taking every infix operator that binds tighter
        than `context` and whose left operand binds at least as tight as it asks."""
        token, infix = self.tokens[self.index], self.grammar.infix
        entry = self.grammar.prefix.get(token[0])
        if entry is None:
            _fail(token, self.grammar.operand % _shown(token))
        self.index += 1
        power, production = entry
        node = production(self, token, power)
        while True:
            token = self.tokens[self.index]
            entry = infix.get(token[0])
            if entry is None or entry[0] <= context or power < entry[1]:
                return node
            self.index += 1
            power, _, production = entry
            node = production(self, token, node, power)

    def items(self, context: int) -> list:
        """One or more expressions separated by commas."""
        items = [self.expression(context)]
        while self.tokens[self.index][0] == ",":
            self.index += 1
            items.append(self.expression(context))
        return items

    # -- productions of more than one grammar

    def number(self, token: tuple, power: int) -> Num:
        text = token[1]
        if "/" not in text:
            return Num(Fraction(_int(text, token)), token[2])
        num, den = (_int(part, token) for part in text.split("/"))
        if den == 0:
            _fail(token, "zero denominator in %r" % text)
        return Num(Fraction(num, den), token[2])

    def negation(self, token: tuple, power: int) -> Neg:  # -x
        self.nest(token)
        node = Neg(self.expression(power), token[2])
        self.depth -= 1
        return node

    def binary(self, token: tuple, left, power: int) -> BinOp:  # x op y
        return BinOp(token[0], left, self.expression(power), token[2])

    def group(self, token: tuple, power: int):  # (x)
        self.nest(token)
        return self.close(")", self.expression(0))

    # -- eval's

    def generator_or_call(self, token: tuple, power: int):
        name = token[1]
        if name in _FUNCTIONS:
            return self.call(token, name)
        match = _GEN_RE.fullmatch(name)
        if match is None:
            families = ", ".join(f + "<i>" for f in _GEN_FAMILIES)
            _fail(token, "unknown identifier %r (generators are %s)" % (name, families))
        family, digits = match.groups()
        index = _int(digits, token)
        if index < 1:
            _fail(token, "generator index must be >= 1 in %r" % name)
        return Gen(family, index, token[2])

    def call(self, token: tuple, func: str) -> Call:
        self.expect("(", "'(' after %r", func)
        self.nest(token)
        if func == "intersect":
            first = self.class_list()
            self.expect(",", "','")
            second = self.class_list()
            self.expect(",", "','")
            args = self.close(")", [first, second, self.expression(0)])
        else:
            args = self.close(")", self.items(0))
        arity = len(_FUNCTIONS[func][1])
        if len(args) != arity:
            _fail(token, _ARITY % (func, arity, len(args)))
        return Call(func, tuple(args), token[2])

    def class_list(self) -> ClassList:
        opening = self.expect("[", "'['")
        items = self.items(0) if self.tokens[self.index][0] != "]" else []
        self.expect("]", "']'")
        return ClassList(tuple(items), opening[2])

    def raised(self, token: tuple, base, power: int) -> Pow:  # x ^ INT
        exponent = self.tokens[self.index]
        if exponent[0] != "NUMBER" or "/" in exponent[1]:
            _fail(exponent, "exponent must be a nonnegative integer, found %r" % _shown(exponent))
        self.index += 1
        return Pow(base, _int(exponent[1], exponent), token[2])

    # -- a label's, whose brackets hold operands that bind tighter than `=` (_SIDE)

    def name(self, token: tuple, power: int):  # NAME, NAME(x) or ...
        if self.tokens[self.index][0] != "(":
            return Name(token[1], token[2])
        self.index += 1
        self.nest(token)
        return self.close(")", Call(token[1], (self.expression(_SIDE),), token[2]))

    def group_or_pair(self, token: tuple, power: int):  # (x), or a tuple (x, y, ...)
        self.nest(token)
        items = self.close(")", self.items(_SIDE))
        return items[0] if len(items) == 1 else ClassList(tuple(items), token[2])

    def bracket(self, token: tuple, power: int) -> Call:  # {x, y}
        self.nest(token)
        x = self.expression(_SIDE)
        self.expect(",", "','")
        return self.close("}", Call("{}", (x, self.expression(_SIDE)), token[2]))

    def sign(self, token: tuple, power: int) -> Sign:  # (-1)^{n} x
        self.nest(token)
        self.grammar = _DEGREE
        exponent = self.expression(0)
        self.grammar = _LABEL
        self.expect("}", "'}'")
        node = Sign(exponent, self.expression(power), token[2])
        self.depth -= 1
        return node

    def degree(self, token: tuple, power: int) -> Name:  # |x|
        name = self.expect("IDENT", "a class")
        self.expect("|", "'|'")
        return Name(name[1], name[2])

    def juxtaposed(self, token: tuple, left, power: int) -> BinOp:  # n m: a degree factor after another
        self.index -= 1  # `token` starts the factor
        return BinOp("*", left, self.expression(power), token[2])


class _Grammar(NamedTuple):
    lexicon: re.Pattern  # the tokenizer's pattern (`_TOKENS`)
    prefix: dict  # token kind -> (binding power, production)
    infix: dict  # token kind -> (binding power, least binding power of its left operand, production);
    # an identifier that is a key here, as ``cup`` in a label, is its own token kind
    operand: str  # the diagnostic, with the token's %r, at a token that starts no operand
    end: str  # the diagnostic, with the token's %r, at a token after a whole text

    def lex(self, text: str) -> list[tuple]:
        """The tokens of `text`, ending in EOF, each a tuple (kind, text, pos) with pos its
        (line, col)."""
        tokens, infix = [], self.infix
        line, start, offset = 1, -1, 0  # start: the offset just before the current line's first character
        for number, ident, symbol, space, bad in self.lexicon.findall(text):
            if space:
                newline = space.rfind("\n")
                if newline >= 0:
                    line += space.count("\n")
                    start = offset + newline
                offset += len(space)
            elif bad:
                raise ExpressionError("unexpected character %r" % bad, line, offset - start)
            else:
                value = symbol or ident or number
                kind = symbol or ("NUMBER" if number else ident if ident in infix else "IDENT")
                tokens.append((kind, value, (line, offset - start)))
                offset += len(value)
        tokens.append(("EOF", "", (line, len(text) - start)))
        return tokens

    def tokenize(self, text: str) -> list[Token]:
        """`lex`'s tokens of `text` as `Token`s."""
        return [Token(kind, value, *pos) for kind, value, pos in self.lex(text)]

    def parse(self, text: str):
        """The tree of `text`; raises ExpressionError with line:col on failure."""
        parser = _Parser(self, text)
        node = parser.expression(0)
        token = parser.tokens[parser.index]
        if token[0] != "EOF":
            _fail(token, self.end % _shown(token))
        return node


_PREC_NEG, _PREC_POW, _PREC_ATOM = 3, 4, 5  # eval's, read by `_print`
_SIDE = 1  # a label's `=`
_EVAL = _Grammar(
    re.compile(_TOKENS % r"[-+*^()\[\],]"),
    {"NUMBER": (_PREC_ATOM, _Parser.number), "IDENT": (_PREC_ATOM, _Parser.generator_or_call),
     "(": (_PREC_ATOM, _Parser.group), "-": (_PREC_NEG, _Parser.negation)},
    {"+": (1, 1, _Parser.binary), "-": (1, 1, _Parser.binary), "*": (2, 2, _Parser.binary),
     "^": (_PREC_POW, _PREC_ATOM, _Parser.raised)}, "unexpected %r", "unexpected %r")
_LABEL = _Grammar(
    re.compile(_TOKENS % r"\(-1\)\^\{|\.\.\.|[-+*.(){}|,=]"),
    {"NUMBER": (_PREC_ATOM, _Parser.number), "IDENT": (_PREC_ATOM, _Parser.name), "...": (_PREC_ATOM, _Parser.name),
     "(": (_PREC_ATOM, _Parser.group_or_pair), "{": (_PREC_ATOM, _Parser.bracket),
     "-": (2, _Parser.negation), "(-1)^{": (2, _Parser.sign)},
    {"=": (_SIDE, 2, _Parser.binary), "+": (2, 2, _Parser.binary), "-": (2, 2, _Parser.binary),
     **dict.fromkeys(("*", ".", "cup", "cap"), (3, 3, _Parser.binary))},
    "expected a class, found %r", "expected the end, found %r")
_DEGREE = _LABEL._replace(
    prefix={"NUMBER": (_PREC_ATOM, _Parser.number), "|": (_PREC_ATOM, _Parser.degree),
            "(": (_PREC_ATOM, _Parser.group)},
    infix={"+": (1, 1, _Parser.binary), "-": (1, 1, _Parser.binary),
           **dict.fromkeys(("|", "(", "NUMBER"), (2, 2, _Parser.juxtaposed))}, operand="expected a degree, found %r")


def parse(text: str):
    """Parse ``eval`` text; raises ExpressionError with line:col on failure."""
    return _EVAL.parse(text)


tokenize, parse_label = _EVAL.tokenize, _LABEL.parse  # eval's tokens; a catalog label, ``lhs = rhs``


# ---------------------------------------------------------------------------
# printing (inverse of parse, up to positions)


def _print(node, min_prec: int) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Gen):
        return "%s%d" % (node.family, node.index)
    if isinstance(node, Call):
        return "%s(%s)" % (node.func, ", ".join(map(to_text, node.args)))
    if isinstance(node, ClassList):
        return "[%s]" % ", ".join(map(to_text, node.items))
    if isinstance(node, Pow):
        text = "%s^%d" % (_print(node.base, _PREC_ATOM), node.exponent)
        prec = _PREC_POW
    elif isinstance(node, Neg):
        text = "-%s" % _print(node.operand, _PREC_NEG)
        prec = _PREC_NEG
    elif isinstance(node, BinOp):
        # print the left spine in a loop, as the parser builds chains without recursion;
        # it ends at an operator that binds looser than the one above it, which needs parentheses
        prec = spine_prec = _EVAL.infix[node.op][0]
        tail = []
        while isinstance(node, BinOp) and _EVAL.infix[node.op][0] >= spine_prec:
            spine_prec = _EVAL.infix[node.op][0]
            tail.append(" %s %s" % (node.op, _print(node.right, spine_prec + 1)))
            node = node.left
        text = _print(node, spine_prec) + "".join(reversed(tail))
    else:
        raise TypeError("not an expression node: %r" % (node,))
    if prec < min_prec:
        return "(%s)" % text
    return text


def to_text(node) -> str:
    """Render a parse tree back to source text; reparsing gives an equal tree."""
    return _print(node, 1)


# ---------------------------------------------------------------------------
# evaluation


def _err(node, message: str) -> ExpressionError:
    return ExpressionError(message, *node.pos)


def _as_class(value, model: ModelSpec, ring: Ring):
    """A scalar as that multiple of the unit of `ring`; a class unchanged."""
    return Element.unit(model, ring).scale(value) if type(value) is Fraction else value


def _as_ring(node, value, model: ModelSpec, ring: Ring, what: str) -> Element:
    value = _as_class(value, model, ring)
    if value.ring is not ring:
        raise _err(node, "%s must be a %s class, got %s" % (what, ring.value, value.ring.value))
    return value


def _add(lhs, rhs, subtract: bool):
    if type(lhs) is Fraction and type(rhs) is Fraction:
        return lhs - rhs if subtract else lhs + rhs
    if type(lhs) is Fraction:
        lhs = _as_class(lhs, rhs.model, rhs.ring)
    if type(rhs) is Fraction:
        rhs = _as_class(rhs, lhs.model, lhs.ring)
    if lhs.ring is not rhs.ring:
        raise AlgebraError(
            "cannot %s %s and %s classes: sums live in a single ring"
            % ("subtract" if subtract else "add", lhs.ring.value, rhs.ring.value)
        )
    return lhs - rhs if subtract else lhs + rhs


def _mul(lhs, rhs):
    if type(lhs) is Fraction and type(rhs) is Fraction:
        return lhs * rhs
    if type(lhs) is Fraction:
        return rhs.scale(lhs)
    if type(rhs) is Fraction:
        return lhs.scale(rhs)
    if lhs.ring is not rhs.ring:
        raise AlgebraError(
            "'*' multiplies inside a single ring, got %s and %s; use cap(...) for "
            "the cohomology action on loop classes" % (lhs.ring.value, rhs.ring.value)
        )
    return lhs * rhs


_ANY = (None, "")  # an argument passed as it is, scalar or class of any ring

# name -> (engine call, (ring, label) of each argument); see the module
# docstring.  The lambdas look the engine functions up when they run, so a
# wrapper installed on this module's names (bench/tracing.py) sees each call.
_FUNCTIONS = {
    "product": (_mul, (_ANY, _ANY)),
    "bracket": (
        lambda b, c: loop_bracket(b, c),
        ((Ring.LOOP, "bracket argument 1"), (Ring.LOOP, "bracket argument 2")),
    ),
    "cap": (
        lambda w, b: cap(w, b),
        ((Ring.COH, "cap argument 1"), (Ring.LOOP, "cap argument 2")),
    ),
    "Delta": (lambda x: bv_delta(x) if x.ring is Ring.LOOP else coh_delta(x), (_ANY,)),
    "s": (lambda x: s_star(x), ((Ring.LOOP, "s argument"),)),
    "D": (lambda x: poincare_dual(x), ((Ring.LOOP, "D argument"),)),
    "Dinv": (lambda w: poincare_dual_inverse(w), ((Ring.COH, "Dinv argument"),)),
    "intersect": (
        lambda ats, frees, family: loop_intersection(ats, frees, family),
        (
            (Ring.COH, "intersect basepoint class"),
            (Ring.COH, "intersect free-time class"),
            (Ring.LOOP, "intersect family"),
        ),
    ),
}


def _eval(node, model: ModelSpec):
    kind = type(node)
    if kind is Gen:
        if node.family not in _GEN_FAMILIES:
            raise _err(node, "unknown generator family %r" % node.family)
        ring, parity = _GEN_FAMILIES[node.family]
        try:
            return Element.generator(model, ring, parity, node.index)
        except AlgebraError:  # an index outside 1..rank
            raise _err(
                node,
                "unknown identifier for model %r: %s%d (generators are indexed 1..%d)"
                % (model.name, node.family, node.index, model.rank),
            ) from None
    if kind is Num:
        return node.value
    if kind is BinOp:
        spine = []  # evaluated in a loop, as the parser builds chains without recursion
        while type(node) is BinOp:
            spine.append(node)
            node = node.left
        value = _eval(node, model)
        for step in reversed(spine):
            rhs = _eval(step.right, model)
            try:
                value = _mul(value, rhs) if step.op == "*" else _add(value, rhs, step.op == "-")
            except AlgebraError as exc:
                raise _err(step, str(exc)) from exc
        return value
    if kind is Call:
        entry = _FUNCTIONS.get(node.func)
        if entry is None:
            raise _err(node, "unknown function %r" % node.func)
        call, specs = entry
        if len(node.args) != len(specs):
            raise _err(node, _ARITY % (node.func, len(specs), len(node.args)))
        if node.func == "intersect":  # each class is coerced as it is evaluated, at its position
            ats, frees, family = node.args
            if type(ats) is not ClassList or type(frees) is not ClassList:
                raise _err(node, "intersect expects two class lists [...] and a family")
            values = [
                [_as_ring(item, _eval(item, model), model, *specs[0]) for item in ats.items],
                [_as_ring(item, _eval(item, model), model, *specs[1]) for item in frees.items],
                _as_ring(family, _eval(family, model), model, *specs[2]),
            ]
        else:
            values = [_eval(arg, model) for arg in node.args]
            if len(values) == 1 and type(values[0]) is Fraction:  # f(c) = c * f(1)
                return Fraction(0) if node.func == "Delta" else values[0]
            for i, (ring, what) in enumerate(specs):
                if ring is not None:
                    values[i] = _as_ring(node, values[i], model, ring, what)
        try:
            return call(*values)
        except AlgebraError as exc:
            raise _err(node, str(exc)) from exc
    if kind is Pow:
        base = _eval(node.base, model)
        try:
            return base ** node.exponent
        except AlgebraError as exc:
            raise _err(node, str(exc)) from exc
    if kind is Neg:
        return -_eval(node.operand, model)
    if kind is ClassList or kind is Name or kind is Sign:  # a list outside intersect, or a label's node
        raise _err(node, "expected an expression, found a %s" % kind.__name__)
    raise TypeError("not an expression node: %r" % (node,))


def evaluate(expr, model: ModelSpec):
    """Evaluate a parse tree (or source text) against a model.

    Returns an Element, or a plain Fraction when the expression is scalar.
    """
    if isinstance(expr, str):
        expr = parse(expr)
    return _eval(expr, model)


def describe_value(value, unicode: bool = False) -> tuple[str, str, str]:
    """(rendered value, ring label, degree label) for CLI display; `AlgebraError`
    when the value holds an integer too long for the interpreter to print."""
    try:
        if isinstance(value, Fraction):
            return str(value), "scalar", "0"
        deg = value.degree()
        if isinstance(deg, int):
            degree_label = str(deg)
        elif deg.label == "any-degree":
            degree_label = "any"
        else:
            degree_label = "inhomogeneous"
        return value.render(unicode=unicode), value.ring.value, degree_label
    except ValueError:  # the only error of printing an integer: its digit limit
        raise AlgebraError(
            "the result holds an integer of more than %d digits, the interpreter's limit "
            "for printing one" % sys.get_int_max_str_digits()
        ) from None
