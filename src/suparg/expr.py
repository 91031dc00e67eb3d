"""Univariate function expressions: parsing, interval evaluation, derivatives.

The expression class is deliberately small — rational constants, the single
variable x, field operations, literal non-negative integer powers, and
sin/cos/exp/log/sqrt/abs — exactly what is needed so that rigorous range
enclosures of f and f' over a subinterval are computable.

Grammar (whitespace insensitive)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" nat)?
    atom   := number | "x" | fn "(" expr ")" | "(" expr ")"
    fn     := "sin"|"cos"|"exp"|"log"|"sqrt"|"abs"
    number := decimal digits with optional fraction part

"^" binds tighter than unary minus, so -x^2 parses as -(x^2).  Numeric
literals are kept as exact rationals; "0.1" means 1/10, not the nearest
binary64.  Parentheses and function calls nest at most MAX_DEPTH deep;
deeper input is a ParseError.  No other size or shape is refused, because
no walk of an expression recurses.

Every walk runs a tape.  On first use an expression is compiled, by an
iterative walk, into a flat post-order list of instructions, each naming
the registers of its operands; the tape is stored on that Expr object and
reused by every later call.  Printing renders the tape bottom-up, and
equality and hashing compare its shape.  Constants are enclosed once, at
compile time, and the tape records whether the expression contains abs.
eval_iv runs the tape with one loop that fills one interval register per
instruction: Moore's natural interval extension.  eval_d1 runs the same
tape filling a value and a derivative register per instruction, by the
forward-mode rules of interval differentiation (product, quotient, chain).
A register is a pair of floats, its ends, kept in the lists vlo and vhi
(dlo and dhi for derivatives), and filled by numeric's pair kernels.  Both
interpreters take and return ends, so a caller's loop builds no object per
call; a FloatInterval is built only for an error.
A DomainError names the subexpression that failed: for eval_iv the
outermost function application around the failing instruction, for
eval_d1 the failing application itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .numeric import (
    _MAX_FLOAT,
    DivisionByZeroInterval,
    DomainError,
    FloatInterval,
    _abs,
    _cos,
    _div,
    _exp,
    _log,
    _mul,
    _pow,
    _sin,
    _sqr,
    _sqrt,
    add_down,
    add_up,
    float_down,
    float_up,
)

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")
# Nesting limit of parentheses and function calls.  The parser recurses once
# per group, at five Python frames a level, so this keeps a parse far inside
# the default recursion limit.
MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax error, carrying the offset and a description of what was expected."""

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        shown = found or "end of input"
        super().__init__(f"expected {expected} at offset {position}, found {shown}")


class NotDifferentiable(ValueError):
    """Derivative evaluation was requested for an expression containing abs."""


# =============================================================================
# AST
# =============================================================================

@dataclass(frozen=True, eq=False)
class Expr:
    # the compiled tape, stored on the object by its first use; not a
    # dataclass field.  Equality and hashing compare the tapes' shapes.
    _tape = None

    def __str__(self) -> str:
        return to_source(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        return (self._tape or _compile(self)).shape == (other._tape or _compile(other)).shape

    def __hash__(self) -> int:
        return hash((self._tape or _compile(self)).shape)

    @property
    def differentiable(self) -> bool:
        return not (self._tape or _compile(self)).has_abs


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True, eq=False)
class Var(Expr):
    pass


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class PowInt(Expr):
    base: Expr
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("PowInt exponent must be a non-negative integer")


@dataclass(frozen=True, eq=False)
class Apply(Expr):
    fn: str
    arg: Expr

    def __post_init__(self):
        if self.fn not in FUNCTIONS:
            raise ValueError(f"unknown function {self.fn!r}")


# =============================================================================
# Parser (recursive descent over a token-free scanner)
# =============================================================================

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.groups = 0  # parentheses and function calls open at pos

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, expected: str) -> ParseError:
        return ParseError(self.pos, expected, self.peek())

    def digits(self) -> tuple[int, int]:
        """Read the run of decimal digits at pos: its value and its length."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        run = self.text[start:self.pos]
        try:
            return int(run or "0"), len(run)
        except ValueError:  # the run is longer than int() converts
            raise ParseError(start, f"at most {sys.get_int_max_str_digits()} digits",
                             f"{len(run)} digits") from None


def parse(text: str) -> Expr:
    """Parse an expression; raises ParseError with offset and expectation."""
    sc = _Scanner(text)
    e = _parse_expr(sc)
    if sc.peek():
        raise sc.error("end of input or operator")
    return e


def _parse_expr(sc: _Scanner) -> Expr:
    e = _parse_term(sc)
    while sc.peek() in ("+", "-"):
        op = sc.advance()
        rhs = _parse_term(sc)
        e = Add(e, rhs) if op == "+" else Sub(e, rhs)
    return e


def _parse_term(sc: _Scanner) -> Expr:
    e = _parse_factor(sc)
    while sc.peek() in ("*", "/"):
        op = sc.advance()
        rhs = _parse_factor(sc)
        e = Mul(e, rhs) if op == "*" else Div(e, rhs)
    return e


def _parse_factor(sc: _Scanner) -> Expr:
    signs = 0
    while sc.peek() == "-":
        sc.advance()
        signs += 1
    e = _parse_power(sc)
    for _ in range(signs):
        e = Neg(e)
    return e


def _parse_power(sc: _Scanner) -> Expr:
    base = _parse_atom(sc)
    if sc.peek() == "^":
        sc.advance()
        sc.skip_ws()
        n, count = sc.digits()
        if not count:
            raise sc.error("non-negative integer exponent")
        return PowInt(base, n)
    return base


def _parse_group(sc: _Scanner) -> Expr:
    # "(" expr ")"; the parser recurses once per group, so groups are
    # bounded before they are read, not after
    if sc.groups >= MAX_DEPTH:
        raise sc.error(f"at most {MAX_DEPTH} levels of nesting")
    sc.advance()
    sc.groups += 1
    e = _parse_expr(sc)
    if sc.peek() != ")":
        raise sc.error("')'")
    sc.advance()
    sc.groups -= 1
    return e


def _parse_atom(sc: _Scanner) -> Expr:
    ch = sc.peek()
    if ch == "(":
        return _parse_group(sc)
    if ch.isdecimal() or ch == ".":
        return Const(_parse_number(sc))
    if ch.isalpha():
        name = _parse_name(sc)
        if name == "x":
            return Var()
        if name in FUNCTIONS:
            if sc.peek() != "(":
                raise sc.error(f"'(' after {name}")
            return Apply(name, _parse_group(sc))
        raise ParseError(sc.pos - len(name), "number, 'x', function, or '('", name)
    raise sc.error("number, 'x', function, or '('")


def _parse_name(sc: _Scanner) -> str:
    sc.skip_ws()
    start = sc.pos
    while sc.pos < len(sc.text) and sc.text[sc.pos].isalpha():
        sc.pos += 1
    return sc.text[start:sc.pos]


def _parse_number(sc: _Scanner) -> Fraction:
    whole, count = sc.digits()
    frac, places = 0, 0
    if sc.pos < len(sc.text) and sc.text[sc.pos] == ".":
        sc.pos += 1
        frac, places = sc.digits()
    if not count and not places:
        raise sc.error("digits")
    return Fraction(whole) + Fraction(frac, 10 ** places)


# =============================================================================
# Printing
# =============================================================================

# Digits per chunk when printing an integer: at most the smallest limit
# sys.set_int_max_str_digits accepts (640), so int -> str never refuses a
# chunk, whatever the interpreter's limit.
_CHUNK_DIGITS = 512
_CHUNK = 10 ** _CHUNK_DIGITS


def _digits(n: int) -> str:
    """The decimal digits of n >= 0, of any length."""
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(str(r).rjust(_CHUNK_DIGITS, "0"))
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _format_const(q: Fraction) -> str:
    num, den = q.numerator, q.denominator
    if den == 1:
        return _digits(num) if num >= 0 else f"(0 - {_digits(-num)})"
    # decimal expansion when the denominator is of the form 2^a * 5^b
    d = den
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d == 1:
        k = max(twos, fives)
        scaled = abs(num) * 10 ** k // den
        digits = _digits(scaled).rjust(k + 1, "0")
        text = f"{digits[:-k]}.{digits[-k:]}"
        return text if num >= 0 else f"(0 - {text})"
    # not decimal-representable: fall back to an explicit quotient
    inner = f"{_digits(abs(num))} / {_digits(den)}"
    return f"({inner})" if num >= 0 else f"(0 - {inner})"


def to_source(e: Expr) -> str:
    """Render an expression.  The text of an expression parse() returned
    parses to an equal one: it parenthesizes an operand only where the
    grammar needs it and writes unary minus by factor := "-" factor, so it
    has no group its source lacked and stays within MAX_DEPTH groups.

    The tape is read from its last instruction, the root, down to its
    operands, left to right, and each fragment of text is emitted once: the
    fragments are joined at the end, in time linear in the text's length.
    """
    tape = e._tape or _compile(e)
    code, nodes = tape.code, tape.nodes
    parts: list[str] = []
    # text still to emit, or (instruction, level its place needs); last on top
    todo: list = [(len(code) - 1, _SUM)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        k, need = item
        op, i, j, _ = code[k]
        if _LEVEL.get(op, _ATOM) < need:
            parts.append("(")
            todo.append(")")
        if op in _INFIX:
            sym, level = _INFIX[op]
            todo += ((j, level + 1), f" {sym} ", (i, level))
        elif op == _NEG:
            parts.append("-")
            todo.append((i, _FACTOR))
        elif op == _POW:
            todo += (f"^{j}", (i, _ATOM))
        elif op == _VAR:
            parts.append("x")
        elif op in (_CONST, _HUGE):
            parts.append(_format_const(nodes[k].value))
        else:
            parts.append(f"{nodes[k].fn}(")
            todo += (")", (i, _SUM))
    return "".join(parts)


# Binding levels of printed text, by the grammar rule that reads it: an
# operand below the level its place needs is parenthesized.
_SUM, _TERM, _FACTOR, _POWER, _ATOM = range(5)


# =============================================================================
# Tape compilation, interval evaluation and forward-mode differentiation
# =============================================================================

# Opcodes.  An instruction is (op, i, j, arg): i and j are the registers of
# its operands (j is the exponent n for _POW).  arg is the (lo, hi) enclosure
# of a constant; for _HUGE, the value of a constant no binary64 interval
# encloses; for _POW, the (lo, hi) enclosure of n, the derivative's
# coefficient (None when n is beyond binary64); for a function, its pair
# kernel.
(_VAR, _CONST, _HUGE, _NEG, _ADD, _SUB, _MUL, _DIV, _POW,
 _SIN, _COS, _EXP, _LOG, _SQRT, _ABS) = range(15)

_BINARY = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}
_INFIX = {_ADD: ("+", _SUM), _SUB: ("-", _SUM), _MUL: ("*", _TERM), _DIV: ("/", _TERM)}
_LEVEL = {op: level for op, (_, level) in _INFIX.items()} | {_NEG: _FACTOR, _POW: _POWER}
_APPLY = {
    "sin": (_SIN, _sin),
    "cos": (_COS, _cos),
    "exp": (_EXP, _exp),
    "log": (_LOG, _log),
    "sqrt": (_SQRT, _sqrt),
    "abs": (_ABS, _abs),
}


@dataclass(frozen=True)
class _Tape:
    code: tuple     # instructions in post-order: operands before their use
    nodes: tuple    # the subexpression each instruction evaluates
    outer: tuple    # outermost Apply enclosing each instruction's node (or None)
    shape: tuple    # code with constants' values for their instructions: equal iff trees are
    has_abs: bool


def _enclose(q: Fraction) -> tuple[float, float] | None:
    try:
        return float_down(q), float_up(q)
    except OverflowError:
        return None


def _compile(f: Expr) -> _Tape:
    """Compile f into a tape and store it on f (iterative post-order walk)."""
    code, nodes, outer, shape = [], [], [], []
    regs: list[int] = []  # registers of finished operands, last on top
    todo = [(f, None, False)]
    while todo:
        e, out, ready = todo.pop()
        if not ready:
            if out is None and isinstance(e, Apply):
                out = e
            todo.append((e, out, True))
            if isinstance(e, (Neg, Apply)):
                todo.append((e.arg, out, False))
            elif isinstance(e, PowInt):
                todo.append((e.base, out, False))
            elif not isinstance(e, (Const, Var)):
                todo.append((e.right, out, False))
                todo.append((e.left, out, False))
            continue
        if isinstance(e, Const):
            iv = _enclose(e.value)
            ins = (_CONST, 0, 0, iv) if iv is not None else (_HUGE, 0, 0, e.value)
        elif isinstance(e, Var):
            ins = (_VAR, 0, 0, None)
        elif isinstance(e, Neg):
            ins = (_NEG, regs.pop(), 0, None)
        elif isinstance(e, PowInt):
            ins = (_POW, regs.pop(), e.n, _enclose(Fraction(e.n)))
        elif isinstance(e, Apply):
            op, fn = _APPLY[e.fn]
            ins = (op, regs.pop(), 0, fn)
        else:
            j = regs.pop()
            ins = (_BINARY[type(e)], regs.pop(), j, None)
        regs.append(len(code))
        code.append(ins)
        nodes.append(e)
        outer.append(out)
        shape.append(e.value if isinstance(e, Const) else ins)
    tape = _Tape(tuple(code), tuple(nodes), tuple(outer), tuple(shape),
                 any(ins[0] == _ABS for ins in code))
    object.__setattr__(f, "_tape", tape)
    return tape


def eval_iv(f: Expr, lo: float, hi: float) -> tuple[float, float]:
    """Natural interval extension: the ends of an enclosure of {f(t) : t in
    [lo, hi]}.  Input or result ends that are not an interval raise as
    FloatInterval does (OverflowError if not finite, ValueError if inverted).
    DomainError raised from a subexpression is annotated with that
    subexpression's source text and the offending interval.
    """
    if not -_MAX_FLOAT <= lo <= hi <= _MAX_FLOAT:
        FloatInterval(lo, hi)  # raises
    tape = f._tape or _compile(f)
    vlo: list[float] = []  # the registers' ends
    vhi: list[float] = []
    try:
        for op, i, j, arg in tape.code:
            if op == _VAR:
                a, b = lo, hi
            elif op == _CONST:
                a, b = arg
            elif op == _MUL:
                a, b = _mul(vlo[i], vhi[i], vlo[j], vhi[j])
            elif op == _ADD:
                a, b = add_down(vlo[i], vlo[j]), add_up(vhi[i], vhi[j])
            elif op == _SUB:
                a, b = add_down(vlo[i], -vhi[j]), add_up(vhi[i], -vlo[j])
            elif op == _POW:
                a, b = _pow(vlo[i], vhi[i], j)
            elif op == _DIV:
                a, b = _div(vlo[i], vhi[i], vlo[j], vhi[j])
            elif op == _NEG:
                a, b = -vhi[i], -vlo[i]
            elif op == _HUGE:
                a, b = float_down(arg), float_up(arg)  # raises OverflowError
            else:  # a function application; arg is its pair kernel
                a, b = arg(vlo[i], vhi[i])
            vlo.append(a)
            vhi.append(b)
    except (DomainError, DivisionByZeroInterval) as err:
        raise _annotate(err, lo, hi, tape.outer[len(vlo)]) from None
    if not -_MAX_FLOAT <= a <= b <= _MAX_FLOAT:
        FloatInterval(a, b)  # raises
    return a, b


def eval_d1(f: Expr, lo: float, hi: float) -> tuple[float, float, float, float]:
    """Enclosures of f and f' over [lo, hi] by forward-mode interval
    differentiation, as their ends (lo, hi, dlo, dhi), checked as eval_iv
    checks its ends."""
    if not -_MAX_FLOAT <= lo <= hi <= _MAX_FLOAT:
        FloatInterval(lo, hi)  # raises
    tape = f._tape or _compile(f)
    if tape.has_abs:
        raise NotDifferentiable("expression contains abs")
    vlo: list[float] = []
    vhi: list[float] = []
    dlo: list[float] = []  # the derivative registers' ends
    dhi: list[float] = []
    try:
        for op, i, j, arg in tape.code:
            if op == _VAR:
                a, b, p, q = lo, hi, 1.0, 1.0
            elif op == _CONST:
                (a, b), p, q = arg, 0.0, 0.0
            elif op == _MUL:
                a, b = _mul(vlo[i], vhi[i], vlo[j], vhi[j])
                u, v = _mul(dlo[i], dhi[i], vlo[j], vhi[j])
                s, t = _mul(vlo[i], vhi[i], dlo[j], dhi[j])
                p, q = add_down(u, s), add_up(v, t)
            elif op == _ADD:
                a, b = add_down(vlo[i], vlo[j]), add_up(vhi[i], vhi[j])
                p, q = add_down(dlo[i], dlo[j]), add_up(dhi[i], dhi[j])
            elif op == _SUB:
                a, b = add_down(vlo[i], -vhi[j]), add_up(vhi[i], -vlo[j])
                p, q = add_down(dlo[i], -dhi[j]), add_up(dhi[i], -dlo[j])
            elif op == _POW:
                a, b = _pow(vlo[i], vhi[i], j)
                if j == 0:
                    p = q = 0.0
                else:
                    # no coefficient when n is beyond binary64: enclosing it raises OverflowError
                    c = arg or (float_down(Fraction(j)), float_up(Fraction(j)))
                    u, v = _mul(*c, *_pow(vlo[i], vhi[i], j - 1))
                    p, q = _mul(u, v, dlo[i], dhi[i])
            elif op == _DIV:
                a, b = _div(vlo[i], vhi[i], vlo[j], vhi[j])
                u, v = _mul(dlo[i], dhi[i], vlo[j], vhi[j])
                s, t = _mul(vlo[i], vhi[i], dlo[j], dhi[j])
                u, v = add_down(u, -t), add_up(v, -s)
                p, q = _div(u, v, *_sqr(vlo[j], vhi[j]))
            elif op == _NEG:
                a, b, p, q = -vhi[i], -vlo[i], -dhi[i], -dlo[i]
            elif op == _SIN:
                a, b = _sin(vlo[i], vhi[i])
                p, q = _mul(*_cos(vlo[i], vhi[i]), dlo[i], dhi[i])
            elif op == _COS:
                a, b = _cos(vlo[i], vhi[i])
                s, t = _sin(vlo[i], vhi[i])
                p, q = _mul(-t, -s, dlo[i], dhi[i])
            elif op == _EXP:
                a, b = _exp(vlo[i], vhi[i])
                p, q = _mul(a, b, dlo[i], dhi[i])
            elif op == _LOG:
                a, b = _log(vlo[i], vhi[i])
                p, q = _div(dlo[i], dhi[i], vlo[i], vhi[i])
            elif op == _SQRT:
                a, b = _sqrt(vlo[i], vhi[i])
                p, q = _div(dlo[i], dhi[i], *_mul(2.0, 2.0, a, b))
            else:  # _HUGE: raises OverflowError
                a, b, p, q = float_down(arg), float_up(arg), 0.0, 0.0
            vlo.append(a)
            vhi.append(b)
            dlo.append(p)
            dhi.append(q)
    except (DomainError, DivisionByZeroInterval) as err:
        k = len(vlo)
        op, i, _, _ = tape.code[k]
        if op >= _SIN and isinstance(err, DivisionByZeroInterval):
            err = DomainError(tape.nodes[k].fn, FloatInterval(vlo[i], vhi[i]),
                              "derivative unbounded (argument range touches the domain boundary)")
        raise _annotate(err, lo, hi, tape.nodes[k]) from None
    if not (-_MAX_FLOAT <= a <= b <= _MAX_FLOAT and -_MAX_FLOAT <= p <= q <= _MAX_FLOAT):
        FloatInterval(a, b), FloatInterval(p, q)  # one raises
    return a, b, p, q


def _annotate(err: Exception, lo: float, hi: float, node: Expr | None) -> DomainError:
    # a DomainError always comes from a function application, named by node
    if isinstance(err, DomainError):
        out = DomainError(err.fn, err.operand, err.detail)
        out.context = to_source(node)
        return out
    out = DomainError("div", FloatInterval(lo, hi), str(err))
    out.context = None
    return out
