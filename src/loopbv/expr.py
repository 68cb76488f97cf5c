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

Every token and node carries a source position and all diagnostics are
``line:col: message``.  Printing a parse tree and reparsing the text yields
an equal tree (positions are ignored by equality).  Parentheses, function
calls and unary minus may nest `MAX_NESTING` levels deep; one more is a
diagnostic at the token that opens it, not a Python stack overflow.

To add a function, give it one `_FUNCTIONS` entry: the engine call and the
ring and diagnostic label of each argument.  The parser takes the arity
from the entry and `_eval` coerces the arguments (a scalar becomes that
multiple of the unit; ring None passes any value) before the call, whose
`AlgebraError` becomes a diagnostic at the call.  A function of one
argument sends a scalar c to c*f(1), which `_eval` returns before any
coercion: c for ``s``, ``D`` and ``Dinv``, 0 for ``Delta``.  ``intersect``
is the one function whose arguments are not all plain expressions: its
two class lists are parsed by `_Parser.call` and coerced item by item.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .kernel import AlgebraError, Element, ModelSpec, Ring
from .loop import bv_delta, loop_bracket, s_star
from .cohomology import coh_delta, poincare_dual, poincare_dual_inverse, to_full
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

_TOKEN_RE = re.compile(
    r"""
    (?P<NUMBER>[0-9]+(?:/[0-9]+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<SYMBOL>[-+*^()\[\],])
  | (?P<SPACE>[ \t\r\n]+)
  | (?P<BAD>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER, IDENT, one of the symbol characters, or EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match.group()
        if kind == "SPACE":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                col = len(value) - value.rfind("\n")
            else:
                col += len(value)
            continue
        if kind == "BAD":
            raise ExpressionError("unexpected character %r" % value, line, col)
        if kind == "SYMBOL":
            kind = value
        tokens.append(Token(kind, value, line, col))
        col += len(value)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Gen:
    family: str  # "a", "u", "alpha", "v"
    index: int
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*"
    left: object
    right: object
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class ClassList:
    items: tuple
    pos: tuple[int, int] = field(compare=False, default=(0, 0))


# generator family -> (ring, kind), longest prefix first for the parser
_GEN_FAMILIES = {
    "alpha": (Ring.COH, "odd"),
    "a": (Ring.LOOP, "odd"),
    "u": (Ring.LOOP, "even"),
    "v": (Ring.COH, "even"),
}

MAX_NESTING = 100  # deeper trees would overflow Python's stack in the parser


def _classify_ident(token: Token):
    name = token.text
    if name in _FUNCTIONS:
        return ("func", name)
    for family in _GEN_FAMILIES:
        if name.startswith(family) and name[len(family) :].isdigit():
            index = int(name[len(family) :])
            if index < 1:
                raise ExpressionError(
                    "generator index must be >= 1 in %r" % name, token.line, token.col
                )
            return ("gen", (family, index))
    raise ExpressionError(
        "unknown identifier %r (generators are a<i>, u<i>, alpha<i>, v<i>)" % name,
        token.line,
        token.col,
    )


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
            shown = token.text if token.kind != "EOF" else "end of input"
            raise ExpressionError("expected %s, found %r" % (what, shown), token.line, token.col)
        return self.advance()

    def nest(self, token: Token):
        """Open one nesting level at `token`; the caller closes it with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionError(
                "expression nests deeper than %d levels of parentheses, calls and unary minus"
                % MAX_NESTING,
                token.line,
                token.col,
            )

    def fail_unexpected(self):
        token = self.peek()
        shown = token.text if token.kind != "EOF" else "end of input"
        raise ExpressionError("unexpected %r" % shown, token.line, token.col)

    # grammar rules ---------------------------------------------------------

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.term()
            node = BinOp(op.kind, node, right, (op.line, op.col))
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "*":
            op = self.advance()
            right = self.unary()
            node = BinOp("*", node, right, (op.line, op.col))
        return node

    def unary(self):
        token = self.peek()
        if token.kind == "-":
            self.advance()
            self.nest(token)
            node = Neg(self.unary(), (token.line, token.col))
            self.depth -= 1
            return node
        return self.power()

    def power(self):
        node = self.atom()
        token = self.peek()
        if token.kind == "^":
            self.advance()
            exp_token = self.peek()
            if exp_token.kind != "NUMBER" or "/" in exp_token.text:
                shown = exp_token.text if exp_token.kind != "EOF" else "end of input"
                raise ExpressionError(
                    "exponent must be a nonnegative integer, found %r" % shown,
                    exp_token.line,
                    exp_token.col,
                )
            self.advance()
            node = Pow(node, int(exp_token.text), (token.line, token.col))
        return node

    def atom(self):
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            if "/" in token.text:
                num, den = token.text.split("/")
                if int(den) == 0:
                    raise ExpressionError("zero denominator in %r" % token.text, token.line, token.col)
                value = Fraction(int(num), int(den))
            else:
                value = Fraction(int(token.text))
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
        self.fail_unexpected()

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
            raise ExpressionError(
                "%s expects %d argument(s), got %d" % (func, arity, len(args)),
                token.line,
                token.col,
            )
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
    if parser.peek().kind != "EOF":
        parser.fail_unexpected()
    return node


# ---------------------------------------------------------------------------
# printing (inverse of parse, up to positions)

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _print(node, min_prec: int) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Gen):
        return "%s%d" % (node.family, node.index)
    if isinstance(node, Call):
        return "%s(%s)" % (node.func, ", ".join(_print(arg, _PREC_ADD) for arg in node.args))
    if isinstance(node, ClassList):
        return "[%s]" % ", ".join(_print(item, _PREC_ADD) for item in node.items)
    if isinstance(node, Pow):
        text = "%s^%d" % (_print(node.base, _PREC_ATOM), node.exponent)
        prec = _PREC_POW
    elif isinstance(node, Neg):
        text = "-%s" % _print(node.operand, _PREC_NEG)
        prec = _PREC_NEG
    elif isinstance(node, BinOp):
        if node.op == "*":
            prec = _PREC_MUL
        else:
            prec = _PREC_ADD
        text = "%s %s %s" % (_print(node.left, prec), node.op, _print(node.right, prec + 1))
    else:
        raise TypeError("not an expression node: %r" % (node,))
    if prec < min_prec:
        return "(%s)" % text
    return text


def to_text(node) -> str:
    """Render a parse tree back to source text; reparsing gives an equal tree."""
    return _print(node, _PREC_ADD)


# ---------------------------------------------------------------------------
# evaluation


def _err(node, message: str) -> ExpressionError:
    line, col = node.pos
    return ExpressionError(message, line, col)


def as_class(value, model: ModelSpec, ring: Ring):
    """A scalar as that multiple of the unit of `ring`; a class unchanged."""
    return Element.unit(model, ring).scale(value) if isinstance(value, Fraction) else value


def _as_ring(node, value, model: ModelSpec, ring: Ring, what: str) -> Element:
    value = as_class(value, model, ring)
    if value.ring is not ring:
        raise _err(node, "%s must be a %s class, got %s" % (what, ring.value, value.ring.value))
    return value


def _add(lhs, rhs, subtract: bool):
    if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
        return lhs - rhs if subtract else lhs + rhs
    if isinstance(lhs, Fraction):
        lhs = as_class(lhs, rhs.model, rhs.ring)
    if isinstance(rhs, Fraction):
        rhs = as_class(rhs, lhs.model, lhs.ring)
    if lhs.ring is not rhs.ring:
        raise AlgebraError(
            "cannot %s %s and %s classes: sums live in a single ring"
            % ("subtract" if subtract else "add", lhs.ring.value, rhs.ring.value)
        )
    return lhs - rhs if subtract else lhs + rhs


def _mul(lhs, rhs):
    if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
        return lhs * rhs
    if isinstance(lhs, Fraction):
        return rhs.scale(lhs)
    if isinstance(rhs, Fraction):
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
    "D": (lambda x: to_full(poincare_dual(x)), ((Ring.LOOP, "D argument"),)),
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
        lhs = _eval(node.left, model)
        rhs = _eval(node.right, model)
        try:
            return _mul(lhs, rhs) if node.op == "*" else _add(lhs, rhs, node.op == "-")
        except AlgebraError as exc:
            raise _err(node, str(exc)) from exc
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
            if len(values) == 1 and isinstance(values[0], Fraction):  # f(c) = c * f(1)
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
    """(rendered value, ring label, degree label) for CLI display."""
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
