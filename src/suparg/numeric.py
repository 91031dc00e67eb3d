"""Outward-rounded binary64 interval arithmetic and exact rational arithmetic.

Every enclosure produced anywhere in this package bottoms out in the
operations of this module.  The contract is containment: an operation on
intervals returns an interval that contains the exact real-arithmetic image
of its operands.  Endpoints are ordinary binary64 floats; outward rounding
is implemented by post-hoc nudging of each endpoint to the adjacent
representable value in the conservative direction, skipped when the
endpoint is provably exact.  This keeps the module independent of any
global rounding-mode state.

Infinite endpoints are rejected rather than propagated: an operation whose
mathematical result has no finite enclosure raises OverflowError, so every
bound stored downstream is a finite number.

Exact rational arithmetic is provided by ``fractions.Fraction`` (aliased
``Rational``), which maintains the lowest-terms/positive-denominator
invariants natively.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

_MAX_FLOAT = sys.float_info.max
_MIN_NORMAL = sys.float_info.min
_INF = math.inf

# pi to 1120 decimal digits, cross-checked against two independent
# high-precision libraries.  Used only for exact location of trig critical
# points; the error (~1e-1120) is negligible against the spacing of
# binary64 values over the whole finite range.
_PI_DIGITS = (
    "3141592653589793238462643383279502884197169399375105820974944592307816406286"
    "2089986280348253421170679821480865132823066470938446095505822317253594081284"
    "8111745028410270193852110555964462294895493038196442881097566593344612847564"
    "8233786783165271201909145648566923460348610454326648213393607260249141273724"
    "5870066063155881748815209209628292540917153643678925903600113305305488204665"
    "2138414695194151160943305727036575959195309218611738193261179310511854807446"
    "2379962749567351885752724891227938183011949129833673362440656643086021394946"
    "3952247371907021798609437027705392171762931767523846748184676694051320005681"
    "2714526356082778577134275778960917363717872146844090122495343014654958537105"
    "0792279689258923542019956112129021960864034418159813629774771309960518707211"
    "3499999983729780499510597317328160963185950244594553469083026425223082533446"
    "8503526193118817101000313783875288658753320838142061717766914730359825349042"
    "8755468731159562863882353787593751957781857780532171226806613001927876611195"
    "9092164201989380952572010654858632788659361533818279682303019520353018529689"
    "9577362259941389124972177528347913151557485724245415069595"
)
_PI_NUM = int(_PI_DIGITS)
_PI_DEN = 10 ** (len(_PI_DIGITS) - 1)
_PI = Fraction(_PI_NUM, _PI_DEN)
# guard (1/den) for critical-point inclusion tests, far above the pi
# approximation error and far below the smallest positive binary64
_GUARD_DEN = 10 ** 400
# cheaper approximation for moderate arguments: with |x| <= 2^48 the index
# error stays far below the wider guard, which still only widens output
_PI_SHORT_NUM = int(_PI_DIGITS[:64])
_PI_SHORT_DEN = 10 ** 63
_SHORT_LIMIT = 2.0 ** 48
_GUARD_SHORT_DEN = 10 ** 24


class DomainError(ValueError):
    """An operand lies outside the mathematical domain of the operation."""

    def __init__(self, fn: str, operand: object, detail: str = ""):
        self.fn = fn
        self.operand = operand
        self.detail = detail
        msg = f"{fn} undefined on {operand}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DivisionByZeroInterval(ZeroDivisionError):
    """The denominator interval contains zero."""


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
# Exact rational surface
# =============================================================================

def parse_rational(text: str) -> Rational:
    """Parse "n/d", an integer, or a (possibly scientific) decimal, exactly."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), d)
    return _parse_decimal(text)


# Largest |exponent| accepted in e-notation: the digit limit CPython applies
# to int(), which already bounds the "n/d" form.  Without it "1e10000000"
# would build a 33-Mbit power of ten before anything else could refuse it.
_MAX_EXP10 = 4300


def _parse_decimal(text: str) -> Fraction:
    mant = text
    exp10 = 0
    for marker in ("e", "E"):
        if marker in mant:
            mant, etxt = mant.split(marker, 1)
            exp10 = int(etxt)
            if abs(exp10) > _MAX_EXP10:
                raise ValueError(f"decimal exponent beyond ±{_MAX_EXP10}: {text!r}")
            break
    sign = 1
    if mant.startswith(("+", "-")):
        if mant[0] == "-":
            sign = -1
        mant = mant[1:]
    if "." in mant:
        whole, frac = mant.split(".", 1)
    else:
        whole, frac = mant, ""
    digits = whole + frac
    if not digits.isdigit():
        raise ValueError(f"not a decimal number: {text!r}")
    n, shift = sign * int(digits), exp10 - len(frac)
    return Fraction(n * 10 ** shift) if shift >= 0 else Fraction(n, 10 ** -shift)


def format_rational(q: Rational) -> str:
    return f"{q.numerator}/{q.denominator}"


# =============================================================================
# Bit-exact serialization
# =============================================================================

def float_to_hex(v: float) -> str:
    return float(v).hex()


def hex_to_float(text: str) -> float:
    return float.fromhex(text)


def interval_to_hex(x: FloatInterval) -> list[str]:
    return [float_to_hex(x.lo), float_to_hex(x.hi)]


def hex_to_interval(pair: list[str]) -> FloatInterval:
    return FloatInterval(hex_to_float(pair[0]), hex_to_float(pair[1]))


# =============================================================================
# Rational intervals (substrate of the topology module)
# =============================================================================

@dataclass(frozen=True)
class RatInterval:
    """Interval with exact rational endpoints and per-endpoint openness.

    Either lo < hi, or lo == hi with both endpoints closed (a singleton).
    """

    lo: Rational
    hi: Rational
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.lo < self.hi:  # the common case settles in one comparison
            return
        if self.lo > self.hi:
            raise ValueError(f"inverted rational interval {self}")
        if self.lo_open or self.hi_open:
            raise ValueError("degenerate rational interval must be closed")

    def is_open_interval(self) -> bool:
        return self.lo_open and self.hi_open

    def __str__(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo}, {self.hi}{rb}"
