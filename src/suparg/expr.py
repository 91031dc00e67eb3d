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
binary64.  Parentheses and function calls nest at most MAX_DEPTH deep, and
an expression has at most MAX_NODES nodes; larger input is a ParseError.
No walk of an expression recurses.

An expression is its tape.  The parser finishes each operand before its
operator, so it writes the expression once, as it reads it, as a flat
post-order list of instructions, each naming the registers of its
operands: the subexpression an instruction computes is the run of tape
that ends at it.  Constants are enclosed as they are read, and each
keeps its exact value in its instruction.  Printing renders the tape from
an instruction down to its operands, and equality and hashing compare the
tape.  eval_iv runs the tape with one loop that fills one interval
register per instruction: Moore's natural interval extension.  eval_d1
runs the same tape filling a value and a derivative register per
instruction, by the forward-mode rules of interval differentiation
(product, quotient, chain; Clarke's rule for abs).
A register is a pair of floats, its ends, kept in the lists vlo and vhi
(dlo and dhi for derivatives), and filled by numeric's pair kernels.  Both
interpreters take and return ends, so a caller's loop builds no object per
call; a FloatInterval is built only for an error.
A DomainError, from either interpreter, names the function application
that failed.
"""

from __future__ import annotations

import sys
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
# Size limit of an expression, in nodes: the instructions of its tape.
MAX_NODES = 100_000


class ParseError(ValueError):
    """Syntax error, carrying the offset and a description of what was expected."""

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        shown = found or "end of input"
        super().__init__(f"expected {expected} at offset {position}, found {shown}")


# =============================================================================
# The tape
# =============================================================================

# Opcodes.  An instruction is (op, i, j, arg): i and j are the registers of
# its operands (j is the exponent n for _POW); a constant has no operand,
# and its i is its exact value.  arg is the (lo, hi) enclosure of a
# constant; for _HUGE, the value of a constant no binary64 interval
# encloses; for _POW, the (lo, hi) enclosure of n, the derivative's
# coefficient (None when n is beyond binary64); for a function, its pair
# kernel.  The functions' opcodes follow the order of FUNCTIONS.
(_VAR, _CONST, _HUGE, _NEG, _ADD, _SUB, _MUL, _DIV, _POW,
 _SIN, _COS, _EXP, _LOG, _SQRT, _ABS) = range(15)

_APPLY = {
    "sin": (_SIN, _sin),
    "cos": (_COS, _cos),
    "exp": (_EXP, _exp),
    "log": (_LOG, _log),
    "sqrt": (_SQRT, _sqrt),
    "abs": (_ABS, _abs),
}


class Expr:
    """A parsed expression, held as its tape; only parse builds one.

    code is the instructions in post-order, operands before their use; a
    constant's carries its exact value, so two expressions are equal iff
    their codes are.
    """

    __slots__ = ("code",)

    def __init__(self, code: tuple):
        self.code = code

    def __str__(self) -> str:
        return to_source(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        return self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)


def _enclose(q: Fraction) -> tuple[float, float] | None:
    try:
        return float_down(q), float_up(q)
    except OverflowError:
        return None


# =============================================================================
# Parser (recursive descent over a token-free scanner, writing the tape)
# =============================================================================

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.groups = 0  # parentheses and function calls open at pos
        self.code: list[tuple] = []

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

    def emit(self, ins: tuple) -> int:
        """Append an instruction; its register."""
        k = len(self.code)
        if k == MAX_NODES:
            raise ParseError(self.pos, f"at most {MAX_NODES} nodes", "more")
        self.code.append(ins)
        return k


def parse(text: str) -> Expr:
    """Parse an expression; raises ParseError with offset and expectation."""
    sc = _Scanner(text)
    _parse_expr(sc)
    if sc.peek():
        raise sc.error("end of input or operator")
    return Expr(tuple(sc.code))


# Each _parse_* function writes the tape of what it reads and returns the
# register of its value.

def _parse_expr(sc: _Scanner) -> int:
    i = _parse_term(sc)
    while sc.peek() in ("+", "-"):
        op = _ADD if sc.advance() == "+" else _SUB
        i = sc.emit((op, i, _parse_term(sc), None))
    return i


def _parse_term(sc: _Scanner) -> int:
    i = _parse_factor(sc)
    while sc.peek() in ("*", "/"):
        op = _MUL if sc.advance() == "*" else _DIV
        i = sc.emit((op, i, _parse_factor(sc), None))
    return i


def _parse_factor(sc: _Scanner) -> int:
    signs = 0
    while sc.peek() == "-":
        sc.advance()
        signs += 1
    i = _parse_power(sc)
    for _ in range(signs):
        i = sc.emit((_NEG, i, 0, None))
    return i


def _parse_power(sc: _Scanner) -> int:
    i = _parse_atom(sc)
    if sc.peek() == "^":
        sc.advance()
        sc.skip_ws()
        n, count = sc.digits()
        if not count:
            raise sc.error("non-negative integer exponent")
        return sc.emit((_POW, i, n, _enclose(Fraction(n))))
    return i


def _parse_group(sc: _Scanner) -> int:
    # "(" expr ")"; the parser recurses once per group, so groups are
    # bounded before they are read, not after
    if sc.groups >= MAX_DEPTH:
        raise sc.error(f"at most {MAX_DEPTH} levels of nesting")
    sc.advance()
    sc.groups += 1
    i = _parse_expr(sc)
    if sc.peek() != ")":
        raise sc.error("')'")
    sc.advance()
    sc.groups -= 1
    return i


def _parse_atom(sc: _Scanner) -> int:
    ch = sc.peek()
    if ch == "(":
        return _parse_group(sc)
    if ch.isdecimal() or ch == ".":
        q = _parse_number(sc)
        iv = _enclose(q)
        return sc.emit((_CONST, q, 0, iv) if iv is not None else (_HUGE, q, 0, q))
    if ch.isalpha():
        name = _parse_name(sc)
        if name == "x":
            return sc.emit((_VAR, 0, 0, None))
        if name in FUNCTIONS:
            if sc.peek() != "(":
                raise sc.error(f"'(' after {name}")
            op, kernel = _APPLY[name]
            return sc.emit((op, _parse_group(sc), 0, kernel))
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
    # parse reads a constant from a decimal literal: q >= 0, and its
    # denominator is 2^a * 5^b, so its decimal expansion ends
    num, den = q.numerator, q.denominator
    if den == 1:
        return _digits(num)
    twos = (den & -den).bit_length() - 1
    d, fives = den >> twos, 0
    while d > 1:
        d //= 5
        fives += 1
    k = max(twos, fives)
    digits = _digits(num * 10 ** k // den).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}"


def to_source(e: Expr, k: int = -1) -> str:
    """Render an expression, or the subexpression instruction k computes.
    The text of an expression parse() returned parses to an equal one: it
    parenthesizes an operand only where the grammar needs it and writes
    unary minus by factor := "-" factor, so it has no group its source
    lacked and stays within MAX_DEPTH groups.

    The tape is read from instruction k down to its operands, left to right,
    and each fragment of text is emitted once: the fragments are joined at
    the end, in time linear in the text's length.
    """
    code = e.code
    parts: list[str] = []
    # text still to emit, or (instruction, level its place needs); last on top
    todo: list = [(k, _SUM)]
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
            parts.append(_format_const(i))
        else:
            parts.append(f"{FUNCTIONS[op - _SIN]}(")
            todo += (")", (i, _SUM))
    return "".join(parts)


# Binding levels of printed text, by the grammar rule that reads it: an
# operand below the level its place needs is parenthesized.
_SUM, _TERM, _FACTOR, _POWER, _ATOM = range(5)
_INFIX = {_ADD: ("+", _SUM), _SUB: ("-", _SUM), _MUL: ("*", _TERM), _DIV: ("/", _TERM)}
_LEVEL = {op: level for op, (_, level) in _INFIX.items()} | {_NEG: _FACTOR, _POW: _POWER}


# =============================================================================
# Interval evaluation and forward-mode differentiation
# =============================================================================

def eval_iv(f: Expr, lo: float, hi: float) -> tuple[float, float]:
    """Natural interval extension: the ends of an enclosure of {f(t) : t in
    [lo, hi]}.  Input or result ends that are not an interval raise as
    FloatInterval does (OverflowError if not finite, ValueError if inverted).
    A DomainError is annotated with the source text of the application that
    failed.
    """
    if not -_MAX_FLOAT <= lo <= hi <= _MAX_FLOAT:
        FloatInterval(lo, hi)  # raises
    vlo: list[float] = []  # the registers' ends
    vhi: list[float] = []
    try:
        for op, i, j, arg in f.code:
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
        raise _annotate(err, lo, hi, f, len(vlo)) from None
    if not -_MAX_FLOAT <= a <= b <= _MAX_FLOAT:
        FloatInterval(a, b)  # raises
    return a, b


def eval_d1(f: Expr, lo: float, hi: float) -> tuple[float, float, float, float]:
    """Enclosures of f and f' over [lo, hi] by forward-mode interval
    differentiation, as their ends (lo, hi, dlo, dhi), checked as eval_iv
    checks its ends.

    f' is Clarke's generalized derivative (Optimization and Nonsmooth
    Analysis, 1983, 2.3).  abs(u) takes u' where u >= 0 on the piece, since
    |u| = u near each interior point, -u' where u <= 0, and else the hull
    [-m, m], m = max(-u'.lo, u'.hi).  The sum (2.3.3), product (2.3.13),
    quotient (2.3.14) and chain (2.3.9) rules put the generalized derivative
    at each point of the piece in the enclosure, and Lebourg's mean-value
    theorem (2.3.7) gives f(t) - f(s) in f'(xi) (t - s): the step that sift,
    ift, mvi, cft and lipschitz telescope stays sound.  sqrt and log at
    their domain's boundary are not Lipschitz, and raise DomainError."""
    if not -_MAX_FLOAT <= lo <= hi <= _MAX_FLOAT:
        FloatInterval(lo, hi)  # raises
    vlo: list[float] = []
    vhi: list[float] = []
    dlo: list[float] = []  # the derivative registers' ends
    dhi: list[float] = []
    try:
        for op, i, j, arg in f.code:
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
            elif op == _ABS:  # u' where u >= 0, -u' where u <= 0, else the hull of both
                a, b = _abs(vlo[i], vhi[i])
                p, q = dlo[i], dhi[i]
                if vlo[i] < 0.0:
                    p, q = (-q, -p) if vhi[i] <= 0.0 else (min(p, -q), max(-p, q))
            else:  # _HUGE: raises OverflowError
                a, b, p, q = float_down(arg), float_up(arg), 0.0, 0.0
            vlo.append(a)
            vhi.append(b)
            dlo.append(p)
            dhi.append(q)
    except (DomainError, DivisionByZeroInterval) as err:
        k = len(vlo)
        op, i, _, _ = f.code[k]
        if op >= _SIN and isinstance(err, DivisionByZeroInterval):
            err = DomainError(FUNCTIONS[op - _SIN], FloatInterval(vlo[i], vhi[i]),
                              "derivative unbounded (argument range touches the domain boundary)")
        raise _annotate(err, lo, hi, f, k) from None
    if not (-_MAX_FLOAT <= a <= b <= _MAX_FLOAT and -_MAX_FLOAT <= p <= q <= _MAX_FLOAT):
        FloatInterval(a, b), FloatInterval(p, q)  # one raises
    return a, b, p, q


def _annotate(err: Exception, lo: float, hi: float, f: Expr, k: int) -> DomainError:
    # a DomainError always comes from a function application, instruction k
    if isinstance(err, DomainError):
        out = DomainError(err.fn, err.operand, err.detail)
        out.context = to_source(f, k)
        return out
    out = DomainError("div", FloatInterval(lo, hi), str(err))
    out.context = None
    return out
