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

Interval operations run as pair kernels (_mul, _div, _sqr, _pow, _sin, ...),
which take and return the ends of intervals as plain floats; the expression
interpreters call them, and add with add_down/add_up.  Every kernel returns
finite ends (lo <= hi for an interval) or raises, so no caller re-checks a
result: the outward step of a rounded result, _next_up from max or +inf and
_next_down from -max or -inf, raises OverflowError (exp tests _EXP_MAX
instead).  A pair kernel builds a FloatInterval only to word a DomainError
or DivisionByZeroInterval.  FloatInterval's +, * and / and the iv_*
functions are the kernels' object forms.

Exact rational arithmetic is provided by ``fractions.Fraction`` (aliased
``Rational``), which maintains the lowest-terms/positive-denominator
invariants natively.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
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
# 1/pi correctly rounded, for the float prefilter of _crit_indices
_INV_PI = float(Fraction(_PI_DEN, _PI_NUM))
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

# The one overflow rule: the outward step from ±max or from an overflowed
# ±inf raises; the inward step from ∓inf gives ∓max, still a bound.

def _next_up(x: float) -> float:
    if x >= _MAX_FLOAT:
        raise OverflowError("value above the finite binary64 range")
    return math.nextafter(x, _INF)


def _next_down(x: float) -> float:
    if x <= -_MAX_FLOAT:
        raise OverflowError("value below the finite binary64 range")
    return math.nextafter(x, -_INF)


# Knuth's TwoSum gives the rounding error of s = fl(a + b) exactly, as
# (a - (s - bp)) + (b - bp) with bp = s - a, so the true sum is s plus that
# error with no further rounding.  It is NaN when s overflowed, so an
# overflowed s always takes the step.

def add_down(a: float, b: float) -> float:
    s = a + b
    bp = s - a
    if (a - (s - bp)) + (b - bp) >= 0.0:
        return s
    return _next_down(s)


def add_up(a: float, b: float) -> float:
    s = a + b
    bp = s - a
    if (a - (s - bp)) + (b - bp) <= 0.0:
        return s
    return _next_up(s)


def sum_above(a: float, b: float, t: float) -> bool:
    """Whether a + b > t exactly, for finite floats.

    The rounded sum s decides unless s == t: the true sum is s plus the
    TwoSum error, which is at most half the gap from s to its float
    neighbours.  An overflowed s, ±inf, is on the side of t the true sum is.
    """
    s = a + b
    bp = s - a
    return s > t or (s == t and (a - (s - bp)) + (b - bp) > 0.0)


def sub_down(a: float, b: float) -> float:
    return add_down(a, -b)


def sub_up(a: float, b: float) -> float:
    return add_up(a, -b)


def midpoint(x: float, y: float) -> float:
    """x + (y - x) / 2 in float arithmetic, kept inside [x, y]."""
    return min(max(x + (y - x) / 2, x), y)


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
# mul_down and mul_up, the hottest kernels, carry the error term inline;
# _prod_cmp is the one exact comparison that division and square root use.
# Its precondition, c within a factor of 2 of p (|c|/2 <= |p| <= 2|c|, one
# sign), makes c - p exact by Sterbenz's lemma, so a*b - c = e - (c - p) is
# decided by comparing e with it.  Both uses meet it inside the guard: q*b
# against a for q = fl(a/b), and r*r against v for r = fl(sqrt(v)).
_SPLIT = 134217729.0  # 2^27 + 1
_TP_LO = 2.0 ** -900
_TP_HI = 2.0 ** 900


def _exact_mul_sign(a: float, b: float, p: float) -> int:
    # exact sign of (a*b - p), by integer cross-multiplication
    na, da = a.as_integer_ratio()
    nb, db = b.as_integer_ratio()
    np_, dp = p.as_integer_ratio()
    lhs = na * nb * dp
    rhs = np_ * da * db
    return (lhs > rhs) - (lhs < rhs)


def _prod_cmp(a: float, b: float, c: float) -> int:
    """Exact sign of a*b - c, for finite c within a factor of 2 of fl(a*b)."""
    p = a * b
    if _TP_LO < abs(a) < _TP_HI and _TP_LO < abs(b) < _TP_HI and _TP_LO < abs(p) < _TP_HI:
        x, y = _SPLIT * a, _SPLIT * b
        ah, bh = x - (x - a), y - (y - b)
        al, bl = a - ah, b - bh
        e, r = ((ah * bh - p) + ah * bl + al * bh) + al * bl, c - p
        return (e > r) - (e < r)
    return _exact_mul_sign(a, b, c)


def mul_down(a: float, b: float) -> float:
    p = a * b
    if _TP_LO < abs(a) < _TP_HI and _TP_LO < abs(b) < _TP_HI and _TP_LO < abs(p) < _TP_HI:
        c, d = _SPLIT * a, _SPLIT * b
        ah, bh = c - (c - a), d - (d - b)
        al, bl = a - ah, b - bh
        return p if ((ah * bh - p) + ah * bl + al * bh) + al * bl >= 0.0 else _next_down(p)
    if p == 0.0 and (a == 0.0 or b == 0.0):
        return p  # exact, with IEEE's signed zero
    return p if not math.isinf(p) and _exact_mul_sign(a, b, p) >= 0 else _next_down(p)


def mul_up(a: float, b: float) -> float:
    p = a * b
    if _TP_LO < abs(a) < _TP_HI and _TP_LO < abs(b) < _TP_HI and _TP_LO < abs(p) < _TP_HI:
        c, d = _SPLIT * a, _SPLIT * b
        ah, bh = c - (c - a), d - (d - b)
        al, bl = a - ah, b - bh
        return p if ((ah * bh - p) + ah * bl + al * bh) + al * bl <= 0.0 else _next_up(p)
    if p == 0.0 and (a == 0.0 or b == 0.0):
        return p  # exact, with IEEE's signed zero
    return p if not math.isinf(p) and _exact_mul_sign(a, b, p) <= 0 else _next_up(p)


def _div_err_sign(a: float, b: float, q: float) -> int:
    # exact sign of (a/b - q) = sign(a - q*b) * sign(b)
    s = _prod_cmp(q, b, a)
    return s if b < 0 else -s


def div_down(a: float, b: float) -> float:
    q = a / b
    return q if not math.isinf(q) and _div_err_sign(a, b, q) >= 0 else _next_down(q)


def div_up(a: float, b: float) -> float:
    q = a / b
    return q if not math.isinf(q) and _div_err_sign(a, b, q) <= 0 else _next_up(q)


def _sqrt_dir(v: float, up: bool) -> float:
    r = math.sqrt(v)
    if _prod_cmp(r, r, v) == 0:
        return r
    # sqrt is correctly rounded, so one step always crosses the true value
    return _next_up(r) if up else max(_next_down(r), 0.0)


# libm transcendentals: glibc documents sub-ulp error for exp/log and
# at most 1 ulp for sin/cos, so 1 resp. 2 nudge steps give containment.
_EXP_LOG_STEPS = 1
_TRIG_STEPS = 2
# Largest v with exp(v) <= _MAX_FLOAT; the next float above it exceeds
# log(2^1024), so math.exp would raise for every larger v.
_EXP_MAX = float.fromhex("0x1.62e42fefa39efp+9")  # 709.782712893384


def _nudge(v: float, steps: int, up: bool) -> float:
    toward = _INF if up else -_INF
    for _ in range(steps):
        v = math.nextafter(v, toward)
    return v


def _exp_dir(v: float, up: bool) -> float:
    if v == 0.0:
        return 1.0
    if v > _EXP_MAX:
        if up:
            raise OverflowError("exp above the finite binary64 range")
        return _MAX_FLOAT
    e = _nudge(math.exp(v), _EXP_LOG_STEPS, up)
    return e if up else max(e, 0.0)


def _log_dir(v: float, up: bool) -> float:
    if v == 1.0:
        return 0.0
    return _nudge(math.log(v), _EXP_LOG_STEPS, up)


def _trig_ends(fn, v: float, at_zero: float) -> tuple[float, float]:
    # lower and upper bound of fn(v), fn being math.sin or math.cos, which
    # take the exact value at_zero at v == 0
    if v == 0.0:
        return at_zero, at_zero
    s = fn(v)
    return max(_nudge(s, _TRIG_STEPS, False), -1.0), min(_nudge(s, _TRIG_STEPS, True), 1.0)


def float_down(q: Fraction) -> float:
    """Largest binary64 value that is <= q."""
    try:
        f = float(q)
    except OverflowError:  # |q| is beyond the range: step from the infinity on its side
        return _next_down(_INF if q > 0 else -_INF)
    return f if Fraction(f) <= q else _next_down(f)


def float_up(q: Fraction) -> float:
    """Smallest binary64 value that is >= q."""
    try:
        f = float(q)
    except OverflowError:
        return _next_up(_INF if q > 0 else -_INF)
    return f if Fraction(f) >= q else _next_up(f)


# =============================================================================
# FloatInterval
# =============================================================================

class FloatInterval:
    """Closed interval with finite binary64 endpoints, lo <= hi.

    The interval of the API and of documents.  The interpreters, the sweep
    and the checker carry ends as float pairs and build one only where a
    value leaves them: a stored uct piece, a failure's witness, an error.
    A slotted class, not a tuple, so that +, * and / are interval arithmetic.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        # one chained comparison admits every valid interval; it is false for
        # NaN, an infinite endpoint or an inverted pair, told apart only then
        if not -_MAX_FLOAT <= lo <= hi <= _MAX_FLOAT:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise OverflowError(f"non-finite interval endpoint [{lo}, {hi}]")
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self.lo, self.hi = lo, hi

    def __eq__(self, other) -> bool:
        return type(other) is FloatInterval and self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    # --- arithmetic: object forms of the pair kernels ----------------------

    def __add__(self, other: FloatInterval) -> FloatInterval:
        return FloatInterval(add_down(self.lo, other.lo), add_up(self.hi, other.hi))

    def __mul__(self, other: FloatInterval) -> FloatInterval:
        return FloatInterval(*_mul(self.lo, self.hi, other.lo, other.hi))

    def __truediv__(self, other: FloatInterval) -> FloatInterval:
        return FloatInterval(*_div(self.lo, self.hi, other.lo, other.hi))


# =============================================================================
# Pair kernels: an interval is its two ends, lo and hi, as plain floats
# =============================================================================

def _mul(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    # Moore's sign-case table: the operand signs fix which corner products
    # are extreme, and directed rounding is monotone, so the result equals
    # the min/max over all four corners.
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
    if lo == 0.0 or hi == 0.0:
        return _signed_zero_fix(lo, hi, a, b, c, d, mul_down, mul_up)
    return lo, hi


def _div(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    if c <= 0.0 <= d:
        raise DivisionByZeroInterval(f"denominator {FloatInterval(c, d)} contains zero")
    # the denominator has one strict sign, so each numerator endpoint
    # meets the denominator endpoint its own sign selects
    if c > 0.0:
        lo = div_down(a, d if a >= 0.0 else c)
        hi = div_up(b, c if b >= 0.0 else d)
    else:
        lo = div_down(b, d if b >= 0.0 else c)
        hi = div_up(a, c if a >= 0.0 else d)
    if lo == 0.0 or hi == 0.0:
        return _signed_zero_fix(lo, hi, a, b, c, d, div_down, div_up)
    return lo, hi


def _signed_zero_fix(lo: float, hi: float, a: float, b: float, c: float, d: float,
                     down, up) -> tuple[float, float]:
    # A zero endpoint's sign depends on which corner a scan in the order
    # (lo,lo), (lo,hi), (hi,lo), (hi,hi) meets first; take it from that
    # scan so results, and the certificate bytes built from them, stay
    # bit-identical to the four-corner form.
    if lo == 0.0:
        lo = min(down(a, c), down(a, d), down(b, c), down(b, d))
    if hi == 0.0:
        hi = max(up(a, c), up(a, d), up(b, c), up(b, d))
    return lo, hi


def _abs(a: float, b: float) -> tuple[float, float]:
    if a >= 0.0:
        return a, b
    if b <= 0.0:
        return -b, -a
    return 0.0, max(-a, b)


def _sqr(a: float, b: float) -> tuple[float, float]:
    # even-power range rule, not naive x*x, so sign-straddling inputs hit 0
    if a >= 0.0:
        return mul_down(a, a), mul_up(b, b)
    if b <= 0.0:
        return mul_down(b, b), mul_up(a, a)
    return 0.0, max(mul_up(a, a), mul_up(b, b))


def _pow_mag(m: float, n: int, up: bool) -> float:
    # m >= 0, n >= 1; square-and-multiply with directed products, which
    # are monotone on non-negative operands, so every intermediate stays a
    # bound.  The base is squared only while exponent bits remain, so no
    # intermediate exceeds m^n.  Cubes and fourth powers, the common cases,
    # are the loop's own products written out.
    step = mul_up if up else mul_down
    if n == 3:
        return step(m, step(m, m))
    if n == 4:
        m = step(m, m)
        return step(m, m)
    acc = None
    while True:
        if n & 1:
            acc = m if acc is None else step(acc, m)
        n >>= 1
        if not n:
            return acc
        m = step(m, m)


def _pow(a: float, b: float, n: int) -> tuple[float, float]:
    if n < 0:
        raise DomainError("pow_n", FloatInterval(a, b), "negative exponent")
    if n == 0:
        return 1.0, 1.0
    if n == 1:
        return a, b
    if n == 2:
        return _sqr(a, b)
    if a >= 0.0:
        return _pow_mag(a, n, up=False), _pow_mag(b, n, up=True)
    if n % 2 == 1:  # increasing, and a < 0
        lo = -_pow_mag(-a, n, up=True)
        return lo, _pow_mag(b, n, up=True) if b >= 0.0 else -_pow_mag(-b, n, up=False)
    if b <= 0.0:
        return _pow_mag(-b, n, up=False), _pow_mag(-a, n, up=True)
    return 0.0, _pow_mag(max(-a, b), n, up=True)


def _sqrt(a: float, b: float) -> tuple[float, float]:
    if a < 0.0:
        raise DomainError("sqrt", FloatInterval(a, b))
    return _sqrt_dir(a, up=False), _sqrt_dir(b, up=True)


def _exp(a: float, b: float) -> tuple[float, float]:
    return _exp_dir(a, up=False), _exp_dir(b, up=True)


def _log(a: float, b: float) -> tuple[float, float]:
    if a <= 0.0:
        raise DomainError("log", FloatInterval(a, b))
    return _log_dir(a, up=False), _log_dir(b, up=True)


def _crit_indices(lo: float, hi: float, half_offset: int) -> range:
    """Integer k with pi*(k + half_offset/2) possibly inside [lo, hi].

    A binary64 value is rational, so it never equals a critical point; a
    point interval therefore has no interior extrema.  False inclusions
    (from the guard) only widen the trig range, never shrink it.  The k
    bounds are ceil/floor of (x/pi - half_offset/2 -+ guard), decided in
    floats when both ends are far from an integer, else in pure integer
    arithmetic over a common denominator.
    """
    if lo == hi:
        return range(0)
    if max(abs(lo), abs(hi)) <= _SHORT_LIMIT:
        # Float prefilter.  With c = fl(1/pi) and u = fl(fl(x*c) - h),
        # h = half_offset/2, each rounding is relative 2^-53, so
        # |u - (x/pi - h)| <= |x/pi|*2^-51.9 + |u|*2^-52 + 2^-1074, and
        # |x/pi| <= |u| + 1/2 + that error; the integer path's own k bound
        # moves by |x|*10^-63 and its guard 10^-24.  All of this stays below
        # err = (|u_lo| + |u_hi|)*2^-48 + 2^-40.  A computed distance to an
        # integer above the float err means the true distance is above it
        # too (rounding is monotone), so where every such distance exceeds
        # err the exact bound and u lie strictly between the same two
        # integers, and ceil/floor agree.  Otherwise (x = 0 for cos, or an
        # end near a critical point) the integer path decides.
        h = half_offset * 0.5
        ul, uh = lo * _INV_PI - h, hi * _INV_PI - h
        err = (abs(ul) + abs(uh)) * 2.0 ** -48 + 2.0 ** -40
        klo, khi = math.ceil(ul), math.floor(uh)
        if klo - ul > err < ul - (klo - 1) and uh - khi > err < khi + 1 - uh:
            return range(klo, khi + 1)
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


def _trig(a: float, b: float, fn, at_zero: float, half_offset: int) -> tuple[float, float]:
    # extrema of sin and cos sit at pi*(k + half_offset/2), maxima at even k
    if b - a >= 6.3:  # over a full period; [-1, 1] is the exact range
        return -1.0, 1.0
    la, ua = _trig_ends(fn, a, at_zero)
    lb, ub = _trig_ends(fn, b, at_zero)
    lo, hi = min(la, lb), max(ua, ub)
    for k in _crit_indices(a, b, half_offset):
        if k % 2 == 0:
            hi = 1.0
        else:
            lo = -1.0
    return lo, hi


def _sin(a: float, b: float) -> tuple[float, float]:
    return _trig(a, b, math.sin, 0.0, 1)


def _cos(a: float, b: float) -> tuple[float, float]:
    return _trig(a, b, math.cos, 1.0, 0)


def _object_form(kernel):
    # the FloatInterval form of a pair kernel of one interval (and n, for pow)
    return lambda x, *n: FloatInterval(*kernel(x.lo, x.hi, *n))


iv_sqr, iv_pow, iv_sqrt, iv_exp, iv_log, iv_sin, iv_cos = map(
    _object_form, (_sqr, _pow, _sqrt, _exp, _log, _sin, _cos))


# =============================================================================
# Exact rational surface
# =============================================================================

def parse_rational(text: str) -> Rational:
    """Parse "n/d", an integer, or a (possibly scientific) decimal, exactly."""
    num, slash, den = text.partition("/")
    if slash:
        # int() ignores whitespace around a part but quotes it on refusal, so
        # trim the outer side only: an error quotes it as in the stripped text
        d = int(den.rstrip())
        if d == 0:
            raise ValueError(f"zero denominator: {text.strip()!r}")
        return Fraction(int(num.lstrip()), d)
    return _parse_decimal(text.strip())


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


def parse_rat_interval(text: str) -> RatInterval:
    """Parse "(lo, hi)", "[lo, hi]" or a half-open mix, ends as parse_rational."""
    if text[0] not in "([" or text[-1] not in ")]":
        raise ValueError("interval must be bracketed")
    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise ValueError("expected two comma-separated endpoints")
    return RatInterval(parse_rational(parts[0]), parse_rational(parts[1]),
                       text[0] == "(", text[-1] == ")")


def format_rat_interval(e: RatInterval) -> str:
    """The text parse_rat_interval reads back as e, such as "(-1/10, 2/5]"."""
    return (f"{'(' if e.lo_open else '['}{format_rational(e.lo)}, "
            f"{format_rational(e.hi)}{')' if e.hi_open else ']'}")


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

class RatInterval(namedtuple("RatInterval", "lo hi lo_open hi_open")):
    """Interval with exact rational endpoints and per-endpoint openness.

    Either lo < hi, or lo == hi with both endpoints closed (a singleton).
    A tuple, checked as it is built, also by _replace.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, ends: cls(*ends))  # so _replace checks too

    def __new__(cls, lo: Rational, hi: Rational, lo_open: bool = False, hi_open: bool = False):
        self = tuple.__new__(cls, (lo, hi, lo_open, hi_open))
        if lo.numerator * hi.denominator < hi.numerator * lo.denominator:  # denominators > 0
            return self
        if lo > hi:
            raise ValueError(f"inverted rational interval {self}")
        if lo_open or hi_open:
            raise ValueError("degenerate rational interval must be closed")
        return self

    def is_open_interval(self) -> bool:
        return self.lo_open and self.hi_open

    def __str__(self) -> str:
        return f"{'(' if self.lo_open else '['}{self.lo}, {self.hi}{')' if self.hi_open else ']'}"
