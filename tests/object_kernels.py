"""The object-form interval kernels and tape interpreters as they were before
the interpreters moved to float-pair registers, kept as the reference for the
differential tests in test_numeric.py and test_expr.py.

Everything below the imports, up to the last section, is copied verbatim
from suparg.numeric and suparg.expr, with three changes: the exceptions and
the pi constants come from the package, so error types compare equal; the
interpreters run the tape of an expression the package parsed, with each
constant read from its instruction and enclosed and each function applied
in object form (_object_code), and they name a failing application, as the
package does, by to_source of its instruction; and EvalResult, the result
type of the object-form eval_d1, lives only here now that the package's
interpreters return float ends.  The last section,
mended, words this reference's overflow outcomes as the package words them
now.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from suparg.expr import (
    _ABS,
    _ADD,
    _CONST,
    _COS,
    _DIV,
    _EXP,
    _HUGE,
    _LOG,
    _MUL,
    _NEG,
    _POW,
    _SIN,
    _SQRT,
    _SUB,
    _VAR,
    FUNCTIONS,
    Expr,
    to_source,
)
from suparg.numeric import (
    _GUARD_DEN,
    _GUARD_SHORT_DEN,
    _PI_DEN,
    _PI_NUM,
    _PI_SHORT_DEN,
    _PI_SHORT_NUM,
    _SHORT_LIMIT,
    DivisionByZeroInterval,
    DomainError,
)

_MAX_FLOAT = sys.float_info.max
_INF = math.inf

# =============================================================================
# Directed-rounding scalar kernels
# =============================================================================

def _next_up(x: float) -> float:
    return math.nextafter(x, _INF)


def _next_down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _sum_err(a: float, b: float, s: float) -> float:
    # Knuth TwoSum: the rounding error of s = fl(a + b), computed exactly,
    # so true sum = s + error with no further rounding.
    bp = s - a
    ap = s - bp
    return (a - ap) + (b - bp)


def add_down(a: float, b: float) -> float:
    s = a + b
    if math.isinf(s):
        if s > 0:
            return _MAX_FLOAT
        raise OverflowError("sum below the finite binary64 range")
    return s if _sum_err(a, b, s) >= 0.0 else _next_down(s)


def add_up(a: float, b: float) -> float:
    s = a + b
    if math.isinf(s):
        if s < 0:
            return -_MAX_FLOAT
        raise OverflowError("sum above the finite binary64 range")
    return s if _sum_err(a, b, s) <= 0.0 else _next_up(s)


def sum_above(a: float, b: float, t: float) -> bool:
    """Whether a + b > t exactly, for finite floats.

    The rounded sum s decides unless s == t: the true sum is s plus the
    TwoSum error, which is at most half the gap from s to its float
    neighbours.  An overflowed s, ±inf, is on the side of t the true sum is.
    """
    s = a + b
    return s > t or (s == t and _sum_err(a, b, s) > 0.0)


def sub_down(a: float, b: float) -> float:
    return add_down(a, -b)


def sub_up(a: float, b: float) -> float:
    return add_up(a, -b)


# Dekker's TwoProduct (T. J. Dekker, Numer. Math. 18, 1971) gives the
# rounding error a*b - p of p = fl(a*b) exactly, in binary64 alone (Python
# has no fma).  Veltkamp's split by C = 2^27 + 1 writes a = ah + al exactly,
# ah with at most 26 significant bits and al with at most 26 bits plus its
# sign, so each partial product ah*bh, ah*bl, al*bh, al*bl fits in 52 bits.
# With no overflow, and with ea + eb >= -970 (2^ea <= |a| < 2^(ea+1), same
# for b), every partial product and partial sum in Dekker's order is exact:
# each is a multiple of ulp(a)*ulp(b) = 2^(ea+eb-104) >= 2^-1074.  The guard
# |a|, |b|, |p| in (2^-900, 2^900) gives both conditions with wide margin:
#   - a and b are normal, and C*a, C*b < 2^928 stay finite;
#   - |a*b| >= |p|*(1 - 2^-53) > 2^-901 and |a*b| < 2^(ea+eb+2), so
#     ea + eb > -903;
#   - every partial product and partial sum stays below about 2^901.
# Outside the guard, exact integer cross-multiplication decides instead.
_SPLIT = 134217729.0  # 2^27 + 1
_TP_LO = 2.0 ** -900
_TP_HI = 2.0 ** 900


def _prod_err(a: float, b: float, p: float) -> float | None:
    """a*b - p exactly, for p = fl(a*b); None outside the guarded range."""
    if not (_TP_LO < abs(a) < _TP_HI and _TP_LO < abs(b) < _TP_HI
            and _TP_LO < abs(p) < _TP_HI):
        return None
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _mul_err_sign(a: float, b: float, p: float) -> int:
    # exact sign of (a*b - p)
    e = _prod_err(a, b, p)
    if e is not None:
        return (e > 0.0) - (e < 0.0)
    na, da = a.as_integer_ratio()
    nb, db = b.as_integer_ratio()
    np_, dp = p.as_integer_ratio()
    lhs = na * nb * dp
    rhs = np_ * da * db
    return (lhs > rhs) - (lhs < rhs)


def mul_down(a: float, b: float) -> float:
    p = a * b
    if math.isinf(p):
        if p > 0:
            return _MAX_FLOAT
        raise OverflowError("product below the finite binary64 range")
    return p if _mul_err_sign(a, b, p) >= 0 else _next_down(p)


def mul_up(a: float, b: float) -> float:
    p = a * b
    if math.isinf(p):
        if p < 0:
            return -_MAX_FLOAT
        raise OverflowError("product above the finite binary64 range")
    return p if _mul_err_sign(a, b, p) <= 0 else _next_up(p)


def _div_err_sign(a: float, b: float, q: float) -> int:
    # exact sign of (a/b - q) = sign(a - q*b) * sign(b)
    p = q * b
    e = _prod_err(q, b, p)
    if e is not None:
        # q*b = p + e exactly, and a - p is exact (Sterbenz): q and p are
        # correctly rounded and not subnormal, so p = a*(1 + d) with |d| < 2^-51
        r = a - p
        s = (r > e) - (r < e)
    else:
        na, da = a.as_integer_ratio()
        nb, db = b.as_integer_ratio()
        nq, dq = q.as_integer_ratio()
        num = na * dq * db - nq * nb * da
        s = (num > 0) - (num < 0)
    return -s if b < 0 else s


def div_down(a: float, b: float) -> float:
    q = a / b
    if math.isinf(q):
        if q > 0:
            return _MAX_FLOAT
        raise OverflowError("quotient below the finite binary64 range")
    return q if _div_err_sign(a, b, q) >= 0 else _next_down(q)


def div_up(a: float, b: float) -> float:
    q = a / b
    if math.isinf(q):
        if q < 0:
            return -_MAX_FLOAT
        raise OverflowError("quotient above the finite binary64 range")
    return q if _div_err_sign(a, b, q) <= 0 else _next_up(q)


def _sqrt_dir(v: float, up: bool) -> float:
    r = math.sqrt(v)
    p = r * r
    e = _prod_err(r, r, p)
    if e is not None:
        exact = e == 0.0 and p == v
    else:
        nr, dr = r.as_integer_ratio()
        nv, dv = v.as_integer_ratio()
        exact = nr * nr * dv == nv * dr * dr
    if exact:
        return r
    # sqrt is correctly rounded, so one step always crosses the true value
    return _next_up(r) if up else max(_next_down(r), 0.0)


# libm transcendentals: glibc documents sub-ulp error for exp/log and
# at most 1 ulp for sin/cos, so 1 resp. 2 nudge steps give containment.
_EXP_LOG_STEPS = 1
_TRIG_STEPS = 2


def _nudge(v: float, steps: int, up: bool) -> float:
    for _ in range(steps):
        v = _next_up(v) if up else _next_down(v)
    return v


def _exp_dir(v: float, up: bool) -> float:
    if v == 0.0:
        return 1.0
    e = math.exp(v)
    if math.isinf(e):
        if up:
            raise OverflowError("exp above the finite binary64 range")
        return _MAX_FLOAT
    e = _nudge(e, _EXP_LOG_STEPS, up)
    return e if up else max(e, 0.0)


def _log_dir(v: float, up: bool) -> float:
    if v == 1.0:
        return 0.0
    return _nudge(math.log(v), _EXP_LOG_STEPS, up)


def _sin_point(v: float, up: bool) -> float:
    if v == 0.0:
        return 0.0
    s = _nudge(math.sin(v), _TRIG_STEPS, up)
    return min(s, 1.0) if up else max(s, -1.0)


def _cos_point(v: float, up: bool) -> float:
    if v == 0.0:
        return 1.0
    c = _nudge(math.cos(v), _TRIG_STEPS, up)
    return min(c, 1.0) if up else max(c, -1.0)


def float_down(q: Fraction) -> float:
    """Largest binary64 value that is <= q."""
    try:
        f = float(q)
    except OverflowError:
        f = _INF if q > 0 else -_INF
    if math.isinf(f):
        if f > 0:
            return _MAX_FLOAT
        raise OverflowError("value below the finite binary64 range")
    return f if Fraction(f) <= q else _next_down(f)


def float_up(q: Fraction) -> float:
    """Smallest binary64 value that is >= q."""
    try:
        f = float(q)
    except OverflowError:
        f = _INF if q > 0 else -_INF
    if math.isinf(f):
        if f < 0:
            return -_MAX_FLOAT
        raise OverflowError("value above the finite binary64 range")
    return f if Fraction(f) >= q else _next_up(f)


# =============================================================================
# FloatInterval
# =============================================================================

@dataclass(frozen=True)
class FloatInterval:
    """Closed interval with finite binary64 endpoints, lo <= hi.

    The enclosure currency of the whole engine: every bound, every
    evaluated range and every certificate field is one of these.
    """

    lo: float
    hi: float

    def __post_init__(self):
        # one chained comparison admits every valid interval; it is false for
        # NaN, an infinite endpoint or an inverted pair, told apart only then
        if -_MAX_FLOAT <= self.lo <= self.hi <= _MAX_FLOAT:
            return
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise OverflowError(f"non-finite interval endpoint [{self.lo}, {self.hi}]")
        raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, v: float) -> FloatInterval:
        return cls(v, v)

    @classmethod
    def from_rational(cls, q: Fraction) -> FloatInterval:
        """Tightest representable enclosure of an exact rational."""
        return cls(float_down(q), float_up(q))

    def straddles_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    # --- arithmetic ---------------------------------------------------------

    def __neg__(self) -> FloatInterval:
        return FloatInterval(-self.hi, -self.lo)

    def __add__(self, other: FloatInterval) -> FloatInterval:
        return FloatInterval(add_down(self.lo, other.lo), add_up(self.hi, other.hi))

    def __sub__(self, other: FloatInterval) -> FloatInterval:
        return FloatInterval(sub_down(self.lo, other.hi), sub_up(self.hi, other.lo))

    def __mul__(self, other: FloatInterval) -> FloatInterval:
        # Moore's sign-case table: the operand signs fix which corner
        # products are extreme, and directed rounding is monotone, so the
        # result equals the min/max over all four corners.
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a >= 0.0:
            if c >= 0.0:
                lo, hi = mul_down(a, c), mul_up(b, d)
            elif d <= 0.0:
                lo, hi = mul_down(b, c), mul_up(a, d)
            else:
                lo, hi = mul_down(b, c), mul_up(b, d)
        elif b <= 0.0:
            if c >= 0.0:
                lo, hi = mul_down(a, d), mul_up(b, c)
            elif d <= 0.0:
                lo, hi = mul_down(b, d), mul_up(a, c)
            else:
                lo, hi = mul_down(a, d), mul_up(a, c)
        elif c >= 0.0:
            lo, hi = mul_down(a, d), mul_up(b, d)
        elif d <= 0.0:
            lo, hi = mul_down(b, c), mul_up(a, c)
        else:
            lo = min(mul_down(a, d), mul_down(b, c))
            hi = max(mul_up(a, c), mul_up(b, d))
        return _signed_zero_fix(lo, hi, self, other, mul_down, mul_up)

    def __truediv__(self, other: FloatInterval) -> FloatInterval:
        if other.straddles_zero():
            raise DivisionByZeroInterval(f"denominator {other} contains zero")
        # the denominator has one strict sign, so each numerator endpoint
        # meets the denominator endpoint its own sign selects
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if c > 0.0:
            lo = div_down(a, d if a >= 0.0 else c)
            hi = div_up(b, c if b >= 0.0 else d)
        else:
            lo = div_down(b, d if b >= 0.0 else c)
            hi = div_up(a, c if a >= 0.0 else d)
        return _signed_zero_fix(lo, hi, self, other, div_down, div_up)


def _signed_zero_fix(lo: float, hi: float, x: FloatInterval, y: FloatInterval,
                     down, up) -> FloatInterval:
    # A zero endpoint's sign depends on which corner a scan in the order
    # (lo,lo), (lo,hi), (hi,lo), (hi,hi) meets first; take it from that
    # scan so results, and the certificate bytes built from them, stay
    # bit-identical to the four-corner form.
    if lo == 0.0:
        lo = min(down(x.lo, y.lo), down(x.lo, y.hi), down(x.hi, y.lo), down(x.hi, y.hi))
    if hi == 0.0:
        hi = max(up(x.lo, y.lo), up(x.lo, y.hi), up(x.hi, y.lo), up(x.hi, y.hi))
    return FloatInterval(lo, hi)


def iv_abs(x: FloatInterval) -> FloatInterval:
    if x.lo >= 0.0:
        return x
    if x.hi <= 0.0:
        return -x
    return FloatInterval(0.0, max(-x.lo, x.hi))


def iv_sqr(x: FloatInterval) -> FloatInterval:
    # even-power range rule, not naive x*x, so sign-straddling inputs hit 0
    if x.lo >= 0.0:
        return FloatInterval(mul_down(x.lo, x.lo), mul_up(x.hi, x.hi))
    if x.hi <= 0.0:
        return FloatInterval(mul_down(x.hi, x.hi), mul_up(x.lo, x.lo))
    return FloatInterval(0.0, max(mul_up(x.lo, x.lo), mul_up(x.hi, x.hi)))


def _pow_mag(m: float, n: int, up: bool) -> float:
    # m >= 0, n >= 1; square-and-multiply with directed products, which
    # are monotone on non-negative operands, so every intermediate stays a
    # bound.  The base is squared only while exponent bits remain, so no
    # intermediate exceeds m^n.
    step = mul_up if up else mul_down
    acc = None
    while True:
        if n & 1:
            acc = m if acc is None else step(acc, m)
        n >>= 1
        if not n:
            return acc
        m = step(m, m)


def _pow_point(v: float, n: int, up: bool) -> float:
    if v >= 0.0:
        return _pow_mag(v, n, up)
    m = -v
    if n % 2 == 0:
        return _pow_mag(m, n, up)
    return -_pow_mag(m, n, not up)


def iv_pow(x: FloatInterval, n: int) -> FloatInterval:
    if n < 0:
        raise DomainError("pow_n", x, "negative exponent")
    if n == 0:
        return FloatInterval(1.0, 1.0)
    if n == 1:
        return x
    if n == 2:
        return iv_sqr(x)
    if n % 2 == 1:
        return FloatInterval(_pow_point(x.lo, n, up=False), _pow_point(x.hi, n, up=True))
    if x.lo >= 0.0:
        return FloatInterval(_pow_mag(x.lo, n, up=False), _pow_mag(x.hi, n, up=True))
    if x.hi <= 0.0:
        return FloatInterval(_pow_mag(-x.hi, n, up=False), _pow_mag(-x.lo, n, up=True))
    return FloatInterval(0.0, _pow_mag(max(-x.lo, x.hi), n, up=True))


def iv_sqrt(x: FloatInterval) -> FloatInterval:
    if x.lo < 0.0:
        raise DomainError("sqrt", x)
    return FloatInterval(_sqrt_dir(x.lo, up=False), _sqrt_dir(x.hi, up=True))


def iv_exp(x: FloatInterval) -> FloatInterval:
    return FloatInterval(_exp_dir(x.lo, up=False), _exp_dir(x.hi, up=True))


def iv_log(x: FloatInterval) -> FloatInterval:
    if x.lo <= 0.0:
        raise DomainError("log", x)
    return FloatInterval(_log_dir(x.lo, up=False), _log_dir(x.hi, up=True))


def _crit_indices(lo: float, hi: float, half_offset: int) -> range:
    """Integer k with pi*(k + half_offset/2) possibly inside [lo, hi].

    A binary64 value is rational, so it never equals a critical point; a
    point interval therefore has no interior extrema.  False inclusions
    (from the guard) only widen the trig range, never shrink it.  Pure
    integer arithmetic: k bounds are ceil/floor of
    (x/pi - half_offset/2 -+ guard) over a common denominator.
    """
    if lo == hi:
        return range(0)
    if max(abs(lo), abs(hi)) <= _SHORT_LIMIT:
        pn, pd, g = _PI_SHORT_NUM, _PI_SHORT_DEN, _GUARD_SHORT_DEN
    else:
        pn, pd, g = _PI_NUM, _PI_DEN, _GUARD_DEN
    nl, dl = lo.as_integer_ratio()
    nh, dh = hi.as_integer_ratio()
    # value = n*pd/(d*pn) - half_offset/2 -+ 1/g over denominator 2*g*d*pn
    den_l = 2 * g * dl * pn
    num_l = 2 * g * nl * pd - half_offset * g * dl * pn - 2 * dl * pn
    klo = -((-num_l) // den_l)
    den_h = 2 * g * dh * pn
    num_h = 2 * g * nh * pd - half_offset * g * dh * pn + 2 * dh * pn
    khi = num_h // den_h
    return range(klo, khi + 1)


def iv_sin(x: FloatInterval) -> FloatInterval:
    if x.hi - x.lo >= 6.3:  # over a full period; [-1, 1] is the exact range
        return FloatInterval(-1.0, 1.0)
    lo = min(_sin_point(x.lo, up=False), _sin_point(x.hi, up=False))
    hi = max(_sin_point(x.lo, up=True), _sin_point(x.hi, up=True))
    for k in _crit_indices(x.lo, x.hi, 1):  # pi/2 + k*pi
        if k % 2 == 0:
            hi = 1.0
        else:
            lo = -1.0
    return FloatInterval(lo, hi)


def iv_cos(x: FloatInterval) -> FloatInterval:
    if x.hi - x.lo >= 6.3:  # over a full period; [-1, 1] is the exact range
        return FloatInterval(-1.0, 1.0)
    lo = min(_cos_point(x.lo, up=False), _cos_point(x.hi, up=False))
    hi = max(_cos_point(x.lo, up=True), _cos_point(x.hi, up=True))
    for k in _crit_indices(x.lo, x.hi, 0):  # k*pi
        if k % 2 == 0:
            hi = 1.0
        else:
            lo = -1.0
    return FloatInterval(lo, hi)


# =============================================================================
# Interval evaluation and forward-mode differentiation
# =============================================================================

# An instruction is (op, i, j, arg), with the package's opcodes: i and j are
# the registers of its operands (j is the exponent n for _POW).  arg is the
# enclosure of a constant; for _HUGE, the value of a constant no binary64
# interval encloses; for _POW, the enclosure of n, the derivative's
# coefficient (None when n is beyond binary64); for a function, its value
# enclosure.
_APPLY = {_SIN: iv_sin, _COS: iv_cos, _EXP: iv_exp, _LOG: iv_log, _SQRT: iv_sqrt, _ABS: iv_abs}

_ZERO = FloatInterval(0.0, 0.0)
_ONE = FloatInterval(1.0, 1.0)
_TWO = FloatInterval(2.0, 2.0)


@dataclass(frozen=True)
class EvalResult:
    """Range enclosure of f, optionally paired with one of f'."""

    value: FloatInterval
    deriv: FloatInterval | None = None


def _enclose(q: Fraction) -> FloatInterval | None:
    try:
        return FloatInterval.from_rational(q)
    except OverflowError:
        return None


def _object_code(f: Expr) -> list[tuple]:
    """f's tape, each constant read from its instruction and enclosed, and
    each function's value enclosure, in object form."""
    code = []
    for op, i, j, _ in f.code:
        if op in (_CONST, _HUGE):
            iv = _enclose(i)  # a constant's i is its exact value
            code.append((_CONST, 0, 0, iv) if iv is not None else (_HUGE, 0, 0, i))
        elif op == _POW:
            code.append((_POW, i, j, _enclose(Fraction(j))))
        else:
            code.append((op, i, j, _APPLY.get(op)))
    return code


def eval_iv(f: Expr, X: FloatInterval) -> FloatInterval:
    """Natural interval extension: an enclosure of {f(t) : t in X}.

    A DomainError is annotated with the source text of the application that
    failed.
    """
    v: list[FloatInterval] = []
    push = v.append
    try:
        for op, i, j, arg in _object_code(f):
            if op == _VAR:
                push(X)
            elif op == _CONST:
                push(arg)
            elif op == _MUL:
                push(v[i] * v[j])
            elif op == _ADD:
                push(v[i] + v[j])
            elif op == _SUB:
                push(v[i] - v[j])
            elif op == _POW:
                push(iv_pow(v[i], j))
            elif op == _DIV:
                push(v[i] / v[j])
            elif op == _NEG:
                push(-v[i])
            elif op == _HUGE:
                push(FloatInterval.from_rational(arg))  # raises OverflowError
            else:  # a function application; arg is its value enclosure
                push(arg(v[i]))
    except (DomainError, DivisionByZeroInterval) as err:
        raise _annotate(err, X, f, len(v)) from None
    return v[-1]


def eval_d1(f: Expr, X: FloatInterval) -> EvalResult:
    """Enclosures of f and f' over X by forward-mode interval differentiation."""
    v: list[FloatInterval] = []
    d: list[FloatInterval] = []
    try:
        code = _object_code(f)
        for op, i, j, arg in code:
            if op == _VAR:
                val, der = X, _ONE
            elif op == _CONST:
                val, der = arg, _ZERO
            elif op == _MUL:
                lv, ld, rv, rd = v[i], d[i], v[j], d[j]
                val, der = lv * rv, ld * rv + lv * rd
            elif op == _ADD:
                val, der = v[i] + v[j], d[i] + d[j]
            elif op == _SUB:
                val, der = v[i] - v[j], d[i] - d[j]
            elif op == _POW:
                val = iv_pow(v[i], j)
                if j == 0:
                    der = _ZERO
                else:
                    # no coefficient when n is beyond binary64: enclosing it raises OverflowError
                    coeff = arg if arg is not None else FloatInterval.from_rational(Fraction(j))
                    der = coeff * iv_pow(v[i], j - 1) * d[i]
            elif op == _DIV:
                lv, ld, rv, rd = v[i], d[i], v[j], d[j]
                val = lv / rv
                der = (ld * rv - lv * rd) / iv_sqr(rv)
            elif op == _NEG:
                val, der = -v[i], -d[i]
            elif op == _SIN:
                val, der = iv_sin(v[i]), iv_cos(v[i]) * d[i]
            elif op == _COS:
                val, der = iv_cos(v[i]), -iv_sin(v[i]) * d[i]
            elif op == _EXP:
                val = iv_exp(v[i])
                der = val * d[i]
            elif op == _LOG:
                val, der = iv_log(v[i]), d[i] / v[i]
            elif op == _SQRT:
                val = iv_sqrt(v[i])
                der = d[i] / (_TWO * val)
            elif op == _ABS:  # Clarke's generalized derivative
                val = iv_abs(v[i])
                if v[i].lo >= 0.0:
                    der = d[i]
                elif v[i].hi <= 0.0:
                    der = -d[i]
                else:
                    m = max(-d[i].lo, d[i].hi)
                    der = FloatInterval(-m, m)
            else:
                val = FloatInterval.from_rational(arg)  # _HUGE: raises OverflowError
            v.append(val)
            d.append(der)
    except (DomainError, DivisionByZeroInterval) as err:
        k = len(v)
        op, i, _, _ = code[k]
        if op >= _SIN and isinstance(err, DivisionByZeroInterval):
            err = DomainError(FUNCTIONS[op - _SIN], v[i],
                              "derivative unbounded (argument range touches the domain boundary)")
        raise _annotate(err, X, f, k) from None
    return EvalResult(v[-1], d[-1])


def _annotate(err: Exception, X: FloatInterval, f: Expr, k: int) -> DomainError:
    # a DomainError always comes from a function application, instruction k
    if isinstance(err, DomainError):
        out = DomainError(err.fn, err.operand, err.detail)
        out.context = to_source(f, k)
        return out
    out = DomainError("div", X, str(err))
    out.context = None
    return out


# =============================================================================
# Not copied: this reference's overflow outcomes in the package's words
# =============================================================================

_STEP_KERNELS = ("sum", "product", "quotient")


def mended(outcome: str | float) -> str:
    """The OverflowError message the package gives where this reference gave
    outcome: an OverflowError message, or an infinite scalar kernel result.

    This reference stepped from ±max to ±inf and returned that end; building
    an interval from it raised "non-finite interval endpoint [lo, hi]", and
    its other overflow messages named the kernel.  The package raises at the
    step instead, "value above (below) the finite binary64 range", for the
    first end it computes that overflows, lo before hi.  libm's "math range
    error" is exp's own message in the package.
    """
    if isinstance(outcome, float):
        side = "above" if outcome > 0 else "below"
    elif outcome == "math range error":
        return "exp above the finite binary64 range"
    elif outcome.startswith("non-finite interval endpoint ["):
        side = "below" if outcome.startswith("non-finite interval endpoint [-inf") else "above"
    elif outcome.split()[0] in _STEP_KERNELS and outcome.endswith(" the finite binary64 range"):
        side = outcome.split()[1]
    else:
        return outcome
    return f"value {side} the finite binary64 range"
