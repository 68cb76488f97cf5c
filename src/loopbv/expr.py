"""Expression language for the CLI: parse, print, evaluate.

Grammar (precedence ``^`` > unary ``-`` > ``*`` > ``+``/``-``, binary
operators left associative)::

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := NUMBER | GENERATOR | FUNC '(' arguments ')' | '(' expr ')'

NUMBER is a nonnegative rational literal (``3`` or ``3/2``); GENERATOR is
``a<i>``/``u<i>`` (loop homology) or ``alpha<i>``/``v<i>`` (cohomology); the
function forms are ``cap(w,b)``, ``bracket(b,c)``, ``product(x,y)``,
``s(x)``, ``Delta(x)``, ``D(x)``, ``Dinv(x)`` and
``intersect([w,...],[w,...],b)``.  ``*`` multiplies inside a single ring;
cross-ring actions must go through the function forms.

Precedence is stated once, in `_BINARY_PREC`: the parser reads it to climb
the ``expr`` and ``term`` levels in one rule (``power`` is part of
``unary``), and the printer reads it to place parentheses.

Tokens and tree nodes are slotted, mutable dataclasses.  Each carries a
source position, taken from its offset in the text, and all diagnostics are
``line:col: message``.  Node equality ignores positions, so printing a parse
tree and reparsing the text yields an equal tree.  Parentheses, function
calls and unary minus may nest `MAX_NESTING` levels deep; one more is a
diagnostic at the token that opens it, not a Python stack overflow.  Sums
and products of any length evaluate and print.

To add a function, give it one `_FUNCTIONS` entry: the engine call and the
ring and diagnostic label of each argument.  The parser takes the arity
from the entry and `_eval` coerces the arguments (a scalar becomes that
multiple of the unit; ring None passes any value) before the call, whose
`AlgebraError` becomes a diagnostic at the call.  A function of one
argument sends a scalar c to c*f(1), which `_eval` returns before any
coercion: c for ``s``, ``D`` and ``Dinv``, 0 for ``Delta``.  ``intersect``
is the one function whose arguments are not all plain expressions: its
two class lists are parsed by `_Parser.call` and coerced item by item.
``loopbv intersect`` evaluates the text ``intersect([AT], [FREE], FAMILY)``
built from its options, so it shares every check and message with ``eval``.

The interpreter's limit on the digits of an integer converted to or from
text (`sys.get_int_max_str_digits`) is left as it is: a longer number literal
is a diagnostic, and `describe_value` refuses a value it cannot print.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

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

# one group per kind, in this order: number, identifier, symbol, whitespace, any
# other character; every character falls in one, so the matches tile the text
_TOKEN_RE = re.compile(r"([0-9]+(?:/[0-9]+)?)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()\[\],])|([ \t\r\n]+)|(.)")


@dataclass(slots=True)
class Token:
    kind: str  # NUMBER, IDENT, one of the symbol characters, or EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start, offset = 1, 0, 0  # line_start: offset of the current line's first character
    for number, ident, symbol, space, bad in _TOKEN_RE.findall(text):
        value = number or ident or symbol or space or bad
        if space:
            newline = space.rfind("\n")
            if newline >= 0:
                line += space.count("\n")
                line_start = offset + newline + 1
        elif bad:
            raise ExpressionError("unexpected character %r" % bad, line, offset - line_start + 1)
        else:
            kind = "NUMBER" if number else "IDENT" if ident else symbol
            tokens.append(Token(kind, value, line, offset - line_start + 1))
        offset += len(value)
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


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
class Neg:
    operand: object
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class Pow:
    base: object
    exponent: int
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class BinOp:
    op: str  # "+", "-", "*"
    left: object
    right: object
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class Call:
    func: str
    args: tuple
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class ClassList:
    items: tuple
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


# generator family -> (ring, kind), from the kernel's names
_GEN_FAMILIES = {
    name: (ring, kind) for ring, names in _GEN_NAMES.items() for kind, name in zip(("odd", "even"), names)
}
_GEN_RE = re.compile("(%s)([0-9]+)" % "|".join(_GEN_FAMILIES))  # family, then index digits

MAX_NESTING = 100  # deeper trees would overflow Python's stack in the parser

# binary operator -> precedence, read by `_Parser.expr` and by `_print`; unary
# minus, ``^`` and atoms bind tighter than every binary operator, in that order
_BINARY_PREC = {"+": 1, "-": 1, "*": 2}
_PREC_NEG, _PREC_POW, _PREC_ATOM = 3, 4, 5


def _shown(token: Token) -> str:
    """The token as a diagnostic quotes it."""
    return token.text if token.kind != "EOF" else "end of input"


def _fail(token: Token, message: str):
    """Raise the diagnostic `message` at `token`, in place of any exception being handled."""
    raise ExpressionError(message, token.line, token.col) from None


def _int(digits: str, token: Token) -> int:
    """The value of a run of ASCII digits in `token`, which must convert under
    the interpreter's limit on the digits of an integer read from text."""
    try:
        return int(digits)
    except ValueError:  # the only way a run of ASCII digits fails to convert
        _fail(token, "number of %d digits, more than the interpreter's limit of %d for an integer"
              % (len(digits), sys.get_int_max_str_digits()))


def _classify_ident(token: Token):
    name = token.text
    if name in _FUNCTIONS:
        return ("func", name)
    match = _GEN_RE.fullmatch(name)
    if match is None:
        families = ", ".join(f + "<i>" for f in _GEN_FAMILIES)
        _fail(token, "unknown identifier %r (generators are %s)" % (name, families))
    family, digits = match.groups()
    index = _int(digits, token)
    if index < 1:
        _fail(token, "generator index must be >= 1 in %r" % name)
    return ("gen", (family, index))


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # open parentheses, calls and unary minus signs

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str, what: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            _fail(token, "expected %s, found %r" % (what, _shown(token)))
        return self.advance()

    def nest(self, token: Token):
        """Open one nesting level at `token`; the caller closes it with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            _fail(token, "expression nests deeper than %d levels of parentheses, calls and unary minus"
                  % MAX_NESTING)

    # grammar rules ---------------------------------------------------------

    def expr(self, min_prec: int = 1):
        """Operators of `min_prec` and above by precedence climbing; a chain is one loop."""
        node = self.unary()
        while _BINARY_PREC.get(self.peek().kind, 0) >= min_prec:
            op = self.advance()
            right = self.expr(_BINARY_PREC[op.kind] + 1)
            node = BinOp(op.kind, node, right, (op.line, op.col))
        return node

    def unary(self):
        token = self.peek()
        if token.kind == "-":
            self.advance()
            self.nest(token)
            node = Neg(self.unary(), (token.line, token.col))
            self.depth -= 1
            return node
        node = self.atom()
        token = self.peek()
        if token.kind == "^":
            self.advance()
            exp_token = self.peek()
            if exp_token.kind != "NUMBER" or "/" in exp_token.text:
                _fail(exp_token, "exponent must be a nonnegative integer, found %r" % _shown(exp_token))
            self.advance()
            node = Pow(node, _int(exp_token.text, exp_token), (token.line, token.col))
        return node

    def atom(self):
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            if "/" in token.text:
                num, den = (_int(part, token) for part in token.text.split("/"))
                if den == 0:
                    _fail(token, "zero denominator in %r" % token.text)
                value = Fraction(num, den)
            else:
                value = Fraction(_int(token.text, token))
            return Num(value, (token.line, token.col))
        if token.kind == "IDENT":
            role, info = _classify_ident(token)
            self.advance()
            if role == "gen":
                family, index = info
                return Gen(family, index, (token.line, token.col))
            return self.call(token, info)
        if token.kind == "(":
            self.advance()
            self.nest(token)
            node = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return node
        _fail(token, "unexpected %r" % _shown(token))

    def call(self, token: Token, func: str):
        self.expect("(", "'(' after %r" % func)
        self.nest(token)
        if func == "intersect":
            first = self.class_list()
            self.expect(",", "','")
            second = self.class_list()
            self.expect(",", "','")
            args = [first, second, self.expr()]
        else:
            args = [self.expr()]
            while self.peek().kind == ",":
                self.advance()
                args.append(self.expr())
        self.expect(")", "')'")
        self.depth -= 1
        arity = len(_FUNCTIONS[func][1])
        if len(args) != arity:
            _fail(token, "%s expects %d argument(s), got %d" % (func, arity, len(args)))
        return Call(func, tuple(args), (token.line, token.col))

    def class_list(self):
        opening = self.expect("[", "'['")
        items = []
        if self.peek().kind != "]":
            items.append(self.expr())
            while self.peek().kind == ",":
                self.advance()
                items.append(self.expr())
        self.expect("]", "']'")
        return ClassList(tuple(items), (opening.line, opening.col))


def parse(text: str):
    """Parse an expression; raises ExpressionError with line:col on failure."""
    parser = _Parser(tokenize(text))
    node = parser.expr()
    token = parser.peek()
    if token.kind != "EOF":
        _fail(token, "unexpected %r" % _shown(token))
    return node


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
        prec = spine_prec = _BINARY_PREC[node.op]
        tail = []
        while isinstance(node, BinOp) and _BINARY_PREC[node.op] >= spine_prec:
            spine_prec = _BINARY_PREC[node.op]
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
    line, col = node.pos
    return ExpressionError(message, line, col)


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
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Gen):
        if node.index > model.rank:
            raise _err(
                node,
                "unknown identifier for model %r: %s%d (generators are indexed 1..%d)"
                % (model.name, node.family, node.index, model.rank),
            )
        ring, kind = _GEN_FAMILIES[node.family]
        return Element.generator(model, ring, kind, node.index)
    if isinstance(node, Neg):
        return -_eval(node.operand, model)
    if isinstance(node, Pow):
        return _eval(node.base, model) ** node.exponent
    if isinstance(node, BinOp):
        spine = []  # evaluated in a loop, as the parser builds chains without recursion
        while isinstance(node, BinOp):
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
    if isinstance(node, Call):
        entry = _FUNCTIONS.get(node.func)
        if entry is None:
            raise _err(node, "unknown function %r" % node.func)
        call, specs = entry
        if node.func == "intersect":  # each class is coerced as it is evaluated, at its position
            ats, frees, family = node.args
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
