"""Containment and exactness tests for the interval/rational substrate.

The independent oracle throughout is exact Fraction arithmetic for the
field operations and 50-digit mpmath for the transcendentals.  The pair
kernels are also compared, bit for bit, with the object kernels they
replaced, kept in object_kernels.py.
"""

import importlib.util
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import object_kernels as ref
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from suparg import numeric
from suparg.expr import eval_d1, eval_iv, parse
from suparg.numeric import (
    DivisionByZeroInterval,
    DomainError,
    FloatInterval,
    RatInterval,
    float_down,
    float_up,
    float_to_hex,
    hex_to_float,
    interval_to_hex,
    hex_to_interval,
    div_down,
    div_up,
    iv_cos,
    iv_exp,
    iv_log,
    iv_pow,
    iv_sin,
    iv_sqr,
    iv_sqrt,
    mul_down,
    mul_up,
    parse_rational,
    sub_down,
    sub_up,
    format_rational,
)

mpmath.mp.dps = 50

ULP = math.ulp


def ulps_apart(a: float, b: float) -> int:
    lo, hi = min(a, b), max(a, b)
    n = 0
    while lo < hi and n < 64:
        lo = math.nextafter(lo, math.inf)
        n += 1
    return n


# ---------------------------------------------------------------------------
# direct examples
# ---------------------------------------------------------------------------

def test_add_exact_dyadic():
    assert FloatInterval(1, 2) + FloatInterval(3, 4) == FloatInterval(4, 6)


def test_mul_exact_dyadic():
    assert FloatInterval(-1, 2) * FloatInterval(3, 4) == FloatInterval(-4, 8)


def test_div_by_zero_interval():
    with pytest.raises(DivisionByZeroInterval):
        FloatInterval(1, 1) / FloatInterval(-1, 1)


def test_sqr_even_power_range():
    assert iv_sqr(FloatInterval(-1, 2)) == FloatInterval(0, 4)


def test_exp_unit_interval_against_oracle():
    out = iv_exp(FloatInterval(0, 1))
    e_hi = float(mpmath.exp(1))  # nearest double to e
    assert out.lo <= 1.0 <= out.hi
    assert out.hi >= math.e
    assert ulps_apart(out.hi, e_hi) <= 2
    assert ulps_apart(out.lo, 1.0) <= 2


def test_log_domain_error():
    with pytest.raises(DomainError):
        iv_log(FloatInterval(-1, 1))
    with pytest.raises(DomainError):
        iv_sqrt(FloatInterval(-1, 0))
    with pytest.raises(DomainError, match="negative exponent"):
        iv_pow(FloatInterval(1, 2), -1)


def test_overflow_rejected():
    big = FloatInterval(1e308, 1e308)
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        iv_exp(FloatInterval(0, 1000))


_MAXF = sys.float_info.max
_ABOVE = "value above the finite binary64 range"
_BELOW = "value below the finite binary64 range"


def test_outward_step_past_max_raises():
    # the one overflow rule: out from ±max or ±inf raises, in from ∓inf is ∓max
    for step, x, message in ((numeric._next_up, _MAXF, _ABOVE),
                             (numeric._next_up, math.inf, _ABOVE),
                             (numeric._next_down, -_MAXF, _BELOW),
                             (numeric._next_down, -math.inf, _BELOW)):
        with pytest.raises(OverflowError) as raised:
            step(x)
        assert str(raised.value) == message
    assert numeric._next_up(-math.inf) == -_MAXF
    assert numeric._next_down(math.inf) == _MAXF
    assert numeric._next_up(math.nextafter(_MAXF, 0.0)) == _MAXF


@pytest.mark.parametrize("kernel, a, b, message", [
    # rounded to ±max with the error outward
    (numeric.add_up, _MAXF, 1e154, _ABOVE),
    (numeric.add_down, -_MAXF, -1e154, _BELOW),
    (mul_up, 1.4954350870919408, 1.2021204734189789e+308, _ABOVE),
    (mul_down, -1.4954350870919408, 1.2021204734189789e+308, _BELOW),
    # overflowed to ±inf
    (numeric.add_up, _MAXF, _MAXF, _ABOVE),
    (mul_down, -_MAXF, 2.0, _BELOW),
    (div_up, _MAXF, 0.5, _ABOVE),
    (div_down, _MAXF, -0.5, _BELOW),
])
def test_directed_kernels_raise_past_max(kernel, a, b, message):
    with pytest.raises(OverflowError) as raised:
        kernel(a, b)
    assert str(raised.value) == message


def test_directed_kernels_step_in_from_an_overflow():
    # an overflowed rounding whose bound points inward is ±max
    assert numeric.add_down(_MAXF, _MAXF) == _MAXF
    assert numeric.add_up(-_MAXF, -_MAXF) == -_MAXF
    assert mul_down(_MAXF, 2.0) == _MAXF
    assert mul_up(-_MAXF, 2.0) == -_MAXF
    assert div_down(_MAXF, 0.5) == _MAXF
    assert div_up(_MAXF, -0.5) == -_MAXF


def test_float_conversion_past_max():
    big = Fraction(_MAXF)
    for q in (big + 1, Fraction(10) ** 400):
        assert float_down(q) == _MAXF and float_up(-q) == -_MAXF
        with pytest.raises(OverflowError) as raised:
            float_up(q)
        assert str(raised.value) == _ABOVE
        with pytest.raises(OverflowError) as raised:
            float_down(-q)
        assert str(raised.value) == _BELOW
    assert float_down(big) == float_up(big) == _MAXF
    assert float_down(-big) == float_up(-big) == -_MAXF


def test_nan_and_inf_rejected_at_construction():
    with pytest.raises(OverflowError):
        FloatInterval(math.inf, math.inf)
    with pytest.raises(OverflowError):
        FloatInterval(math.nan, 1.0)
    with pytest.raises(ValueError):
        FloatInterval(2.0, 1.0)


@pytest.mark.parametrize("lo, hi, error, message", [
    (math.nan, 1.0, OverflowError, "non-finite interval endpoint [nan, 1.0]"),
    (1.0, math.nan, OverflowError, "non-finite interval endpoint [1.0, nan]"),
    (math.nan, math.nan, OverflowError, "non-finite interval endpoint [nan, nan]"),
    (-math.inf, 1.0, OverflowError, "non-finite interval endpoint [-inf, 1.0]"),
    (1.0, math.inf, OverflowError, "non-finite interval endpoint [1.0, inf]"),
    (math.inf, -math.inf, OverflowError, "non-finite interval endpoint [inf, -inf]"),
    (2.0, 1.0, ValueError, "inverted interval [2.0, 1.0]"),
    (sys.float_info.max, -sys.float_info.max, ValueError,
     "inverted interval [1.7976931348623157e+308, -1.7976931348623157e+308]"),
])
def test_invalid_interval_messages(lo, hi, error, message):
    with pytest.raises(error) as raised:
        FloatInterval(lo, hi)
    assert type(raised.value) is error and str(raised.value) == message


@pytest.mark.parametrize("lo, hi", [
    (-sys.float_info.max, sys.float_info.max), (0.0, -0.0), (-0.0, 0.0),
    (5e-324, 5e-324), (-1.0, 2.0)])
def test_valid_interval_extremes(lo, hi):
    e = FloatInterval(lo, hi)
    assert (e.lo, e.hi) == (lo, hi)


def test_sin_includes_peak():
    out = iv_sin(FloatInterval(0.0, 1.6))  # pi/2 inside
    assert out.hi == 1.0
    assert out.lo <= 0.0
    out2 = iv_sin(FloatInterval(0.1, 1.0))  # monotone stretch
    assert out2.hi < 1.0
    assert float(mpmath.sin("0.1")) >= out2.lo
    assert float(mpmath.sin(1)) <= out2.hi


def test_cos_includes_trough():
    out = iv_cos(FloatInterval(3.0, 3.3))  # pi inside
    assert out.lo == -1.0


def test_full_period_is_unit_interval():
    assert iv_sin(FloatInterval(-10.0, 10.0)) == FloatInterval(-1.0, 1.0)


def test_rational_surface():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(1, 3) < Fraction(1, 2)
    assert Fraction(3, 4) > Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0, 1)


def test_parse_rational_forms():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("0.1") == Fraction(1, 10)
    assert parse_rational("-2.5e-3") == Fraction(-1, 400)
    assert parse_rational("7") == Fraction(7)
    assert format_rational(Fraction(-3, 7)) == "-3/7"


def test_parse_rational_bounds_the_decimal_exponent():
    # 4,300 is CPython's int() digit limit, which already bounds "n/d"
    assert parse_rational("1e4300") == Fraction(10) ** 4300
    assert parse_rational("1e-4300") == Fraction(1, 10 ** 4300)
    assert parse_rational("-2.5e-3") == Fraction(-1, 400)
    for text in ("1e4301", "1e-4301", "-7.5E+100000000"):
        with pytest.raises(ValueError, match="decimal exponent beyond"):
            parse_rational(text)


def test_hexfloat_roundtrip():
    for v in [0.0, -0.0, 1.5, math.pi, 5e-324, 1.7976931348623157e308, -2.5]:
        assert hex_to_float(float_to_hex(v)) == v
    x = FloatInterval(-1.1, 2.2)
    assert hex_to_interval(interval_to_hex(x)) == x


def test_float_directed_conversion():
    tenth = Fraction(1, 10)
    lo, hi = float_down(tenth), float_up(tenth)
    assert Fraction(lo) <= tenth <= Fraction(hi)
    assert ulps_apart(lo, hi) == 1
    assert float_down(Fraction(1, 2)) == 0.5 == float_up(Fraction(1, 2))


# ---------------------------------------------------------------------------
# property fuzz
# ---------------------------------------------------------------------------

def _rand_float(rng: random.Random) -> float:
    kind = rng.randrange(4)
    if kind == 0:
        return rng.uniform(-10, 10)
    if kind == 1:
        return float(rng.randint(-1000, 1000))
    if kind == 2:
        return rng.uniform(-1e6, 1e6)
    return rng.choice([0.0, 1.0, -1.0, 0.5, -0.5, 2.0]) * rng.uniform(0.0, 2.0)


def _rand_interval(rng: random.Random) -> FloatInterval:
    a, b = _rand_float(rng), _rand_float(rng)
    return FloatInterval(min(a, b), max(a, b))


def _sample(rng: random.Random, x: FloatInterval) -> float:
    t = rng.random()
    return min(max(x.lo + (x.hi - x.lo) * t, x.lo), x.hi)


def _straddles_zero(x):
    return x.lo <= 0.0 <= x.hi


def _sub(a, b):
    # the interpreters subtract [c, d] as + [-d, -c]
    if isinstance(a, FloatInterval):
        return FloatInterval(sub_down(a.lo, b.hi), sub_up(a.hi, b.lo))
    return a - b


# the Python operators act on FloatInterval and on Fraction alike
_OPS = {
    "add": lambda a, b: a + b,
    "sub": _sub,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


def test_containment_fuzz_arith():
    rng = random.Random(102)
    checked = 0
    for _ in range(10_000):
        op = rng.choice(["add", "sub", "mul", "div"])
        x, y = _rand_interval(rng), _rand_interval(rng)
        if op == "div" and _straddles_zero(y):
            continue
        out = _OPS[op](x, y)
        for _ in range(4):
            s, t = _sample(rng, x), _sample(rng, y)
            exact = _OPS[op](Fraction(s), Fraction(t))
            assert Fraction(out.lo) <= exact <= Fraction(out.hi), (op, x, y, s, t)
            checked += 1
    assert checked > 30_000


_UNARY = {
    "neg": lambda x, n: FloatInterval(-x.hi, -x.lo),
    "sqr": lambda x, n: iv_sqr(x),
    "abs": lambda x, n: FloatInterval(*numeric._abs(x.lo, x.hi)),
    "sqrt": lambda x, n: iv_sqrt(x),
    "exp": lambda x, n: iv_exp(x),
    "log": lambda x, n: iv_log(x),
    "sin": lambda x, n: iv_sin(x),
    "cos": lambda x, n: iv_cos(x),
    "pow_n": iv_pow,
}


def test_containment_fuzz_unary():
    rng = random.Random(103)
    fns = ["neg", "sqr", "abs", "sqrt", "exp", "log", "sin", "cos", "pow_n"]
    for _ in range(4_000):
        fn = rng.choice(fns)
        x = _rand_interval(rng)
        n = rng.randrange(0, 6) if fn == "pow_n" else None
        if fn == "sqrt" and x.lo < 0:
            x = FloatInterval(abs(x.lo), max(abs(x.lo), abs(x.hi)))
        if fn == "log":
            x = FloatInterval(abs(x.lo) + 0.25, abs(x.lo) + 0.25 + abs(x.hi))
        if fn == "exp" and x.hi > 700:
            continue
        if fn == "pow_n" and max(abs(x.lo), abs(x.hi)) > 100:
            continue
        out = _UNARY[fn](x, n)
        for _ in range(4):
            t = _sample(rng, x)
            if fn in ("neg", "sqr", "abs", "pow_n"):
                ft = Fraction(t)
                exact = {"neg": -ft, "sqr": ft * ft, "abs": abs(ft),
                         "pow_n": ft ** n if n is not None else None}[fn]
                assert Fraction(out.lo) <= exact <= Fraction(out.hi), (fn, x, t, n)
            else:
                val = {"sqrt": mpmath.sqrt, "exp": mpmath.exp, "log": mpmath.log,
                       "sin": mpmath.sin, "cos": mpmath.cos}[fn](mpmath.mpf(t))
                assert mpmath.mpf(out.lo) <= val <= mpmath.mpf(out.hi), (fn, x, t)


def test_inclusion_monotonicity():
    rng = random.Random(104)
    for _ in range(3_000):
        op = rng.choice(["add", "sub", "mul", "div"])
        x, y = _rand_interval(rng), _rand_interval(rng)
        pad = abs(_rand_float(rng))
        xw = FloatInterval(x.lo - pad, x.hi + pad)
        yw = FloatInterval(y.lo - pad, y.hi + pad)
        if op == "div" and _straddles_zero(yw):
            continue
        inner = _OPS[op](x, y)
        outer = _OPS[op](xw, yw)
        assert outer.lo <= inner.lo and inner.hi <= outer.hi, (op, x, y, pad)


def test_width_bound_on_exact_operands():
    rng = random.Random(105)
    for _ in range(2_000):
        # dyadic operands whose exact results are representable
        a = rng.randint(-2**20, 2**20) / 1024.0
        b = rng.randint(-2**20, 2**20) / 1024.0
        c = rng.randint(-2**20, 2**20) / 1024.0
        d = rng.randint(-2**20, 2**20) / 1024.0
        x, y = FloatInterval(min(a, b), max(a, b)), FloatInterval(min(c, d), max(c, d))
        out = x + y
        assert out == FloatInterval(x.lo + y.lo, x.hi + y.hi)  # exact, zero widening
        out = x * y
        exact_lo = min(Fraction(p) * Fraction(q) for p in (x.lo, x.hi) for q in (y.lo, y.hi))
        exact_hi = max(Fraction(p) * Fraction(q) for p in (x.lo, x.hi) for q in (y.lo, y.hi))
        assert Fraction(out.lo) >= exact_lo - 2 * Fraction(ULP(float(exact_lo)) or 5e-324)
        assert Fraction(out.hi) <= exact_hi + 2 * Fraction(ULP(float(exact_hi)) or 5e-324)


def test_rational_roundtrip_inverse_ops():
    rng = random.Random(106)
    for _ in range(2_000):
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        y = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (x + y) - y == x
        if y != 0:
            assert (x / y) * y == x


def test_rat_interval_invariants():
    RatInterval(Fraction(0), Fraction(1), True, False)
    RatInterval(Fraction(1, 2), Fraction(1, 2))  # singleton
    with pytest.raises(ValueError):
        RatInterval(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        RatInterval(Fraction(1), Fraction(1), lo_open=True)


def test_rat_interval_invariant_where_floats_tie():
    # endpoints 10**-40 apart round to one float, so only the exact
    # comparisons after the lo < hi fast path can tell them apart
    third = Fraction(1, 3)
    above = third + Fraction(1, 10 ** 40)
    assert float(above) == float(third)
    RatInterval(third, above, True, True)
    RatInterval(third, third)  # [1/3, 1/3] is a singleton
    with pytest.raises(ValueError) as err:
        RatInterval(above, third)
    assert str(err.value) == f"inverted rational interval [{above}, 1/3]"
    for lo_open, hi_open in ((True, True), (False, True), (True, False)):
        with pytest.raises(ValueError) as err:
            RatInterval(third, third, lo_open, hi_open)
        assert str(err.value) == "degenerate rational interval must be closed"


# parse_rational's "n/d" path and RatInterval's cross-multiplied order test
# against Fraction itself: text with signs, whitespace around either part
# and negative denominators; pairs equal, inverted, or apart by less than
# one ulp of their floats
_rational_settings = settings(max_examples=500, derandomize=True, database=None, deadline=None)
_space = st.sampled_from(("", " ", "  ", "\t", "\n", "\u00a0", "\u3000"))
_rational = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)),
    st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(-7, 2), Fraction(10) ** 400)))


@_rational_settings
@example(n=1, d=1, signs=("", ""), spaces=("", "", "", ""))
@example(n=-3, d=-4, signs=("", ""), spaces=(" ", "\t", " ", "\n"))
@given(n=st.integers(-10 ** 30, 10 ** 30) | st.integers(-9, 9),
       d=st.integers(-10 ** 30, 10 ** 30).filter(bool) | st.integers(1, 9),
       signs=st.tuples(st.sampled_from(("", "+")), st.sampled_from(("", "+"))),
       spaces=st.tuples(_space, _space, _space, _space))
def test_parse_rational_fraction_text_matches_fraction(n, d, signs, spaces):
    # an explicit "+" only on a nonnegative part, where it changes nothing
    num = (signs[0] if n >= 0 else "") + str(n)
    den = (signs[1] if d >= 0 else "") + str(d)
    text = f"{spaces[0]}{num}{spaces[1]}/{spaces[2]}{den}{spaces[3]}"
    got = parse_rational(text)
    assert type(got) is Fraction and got == Fraction(n, d)
    zero = f"{spaces[0]}{num}{spaces[1]}/{spaces[2]}{signs[1]}0{spaces[3]}"
    with pytest.raises(ValueError) as err:
        parse_rational(zero)
    # the message shows the text without its surrounding whitespace: "1/0"
    # for the first example
    assert str(err.value) == f"zero denominator: {zero.strip()!r}"
    # a refused part is quoted as the stripped text splits it
    for bad, part in ((f"{spaces[0]}x{spaces[1]}/{spaces[2]}{den}{spaces[3]}", f"x{spaces[1]}"),
                      (f"{spaces[0]}{num}{spaces[1]}/{spaces[2]}y{spaces[3]}", f"{spaces[2]}y")):
        with pytest.raises(ValueError) as err:
            parse_rational(bad)
        assert str(err.value) == f"invalid literal for int() with base 10: {part!r}"


@_rational_settings
@example(lo=Fraction(1, 3), step=Fraction(1, 10 ** 40), lo_open=True, hi_open=True)
@example(lo=Fraction(1, 3), step=Fraction(-1, 10 ** 40), lo_open=False, hi_open=False)
@example(lo=Fraction(5), step=Fraction(0), lo_open=False, hi_open=False)
@example(lo=Fraction(5), step=Fraction(0), lo_open=False, hi_open=True)
@given(lo=_rational,
       step=st.sampled_from((Fraction(0), Fraction(1, 10 ** 40), Fraction(-1, 10 ** 40)))
       | _rational,
       lo_open=st.booleans(), hi_open=st.booleans())
def test_rat_interval_accepts_exactly_by_fraction_order(lo, step, lo_open, hi_open):
    hi = lo + step
    if lo < hi or (lo == hi and not (lo_open or hi_open)):
        iv = RatInterval(lo, hi, lo_open, hi_open)
        assert (iv.lo, iv.hi) == (lo, hi)
        return
    with pytest.raises(ValueError) as err:
        RatInterval(lo, hi, lo_open, hi_open)
    lb, rb = "(" if lo_open else "[", ")" if hi_open else "]"
    assert str(err.value) == ("degenerate rational interval must be closed" if lo == hi
                              else f"inverted rational interval {lb}{lo}, {hi}{rb}")


# ---------------------------------------------------------------------------
# sign-case product and quotient against the four-corner reference
# ---------------------------------------------------------------------------

def _corner_mul(x, y):
    corners = ((x.lo, y.lo), (x.lo, y.hi), (x.hi, y.lo), (x.hi, y.hi))
    lo = min(mul_down(a, b) for a, b in corners)
    hi = max(mul_up(a, b) for a, b in corners)
    return FloatInterval(lo, hi)


def _corner_div(x, y):
    if _straddles_zero(y):
        raise DivisionByZeroInterval(f"denominator {y} contains zero")
    corners = ((x.lo, y.lo), (x.lo, y.hi), (x.hi, y.lo), (x.hi, y.hi))
    lo = min(div_down(a, b) for a, b in corners)
    hi = max(div_up(a, b) for a, b in corners)
    return FloatInterval(lo, hi)


def _outcome(op, x, y):
    """Bit pattern of the result (so -0.0 differs from 0.0), or the error raised."""
    try:
        out = op(x, y)
    except (OverflowError, ZeroDivisionError) as err:
        return type(err), str(err)
    return float_to_hex(out.lo), float_to_hex(out.hi)


def _edge_endpoint(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324,
                           1.7976931348623157e308, -1.7976931348623157e308])
    if kind == 1:  # near-overflow magnitudes
        return rng.choice([1.0, -1.0]) * rng.uniform(1, 2) * 2.0 ** rng.randint(500, 1023)
    if kind == 2:  # near-underflow magnitudes
        return rng.choice([1.0, -1.0]) * rng.uniform(1, 2) * 2.0 ** rng.randint(-1074, -500)
    if kind == 3:
        return float(rng.randint(-4, 4))
    return rng.uniform(-3, 3)


def _edge_interval(rng):
    u = _edge_endpoint(rng)
    if rng.random() < 0.15:
        return FloatInterval(u, u)
    v = _edge_endpoint(rng)
    return FloatInterval(u, v) if u <= v else FloatInterval(v, u)


def test_sign_case_kernels_match_four_corner_reference():
    rng = random.Random(107)
    for _ in range(20_000):
        x, y = _edge_interval(rng), _edge_interval(rng)
        assert _outcome(FloatInterval.__mul__, x, y) == _outcome(_corner_mul, x, y), (x, y)
        assert _outcome(FloatInterval.__truediv__, x, y) == _outcome(_corner_div, x, y), (x, y)


def test_sign_case_signed_zero_endpoints():
    for zx in (0.0, -0.0):
        for zy in (0.0, -0.0):
            for x in (FloatInterval(zx, zx), FloatInterval(zx, 2.0), FloatInterval(-2.0, zx)):
                for y in (FloatInterval(zy, zy), FloatInterval(zy, 3.0),
                          FloatInterval(-3.0, zy), FloatInterval(-1.0, 1.0)):
                    assert _outcome(FloatInterval.__mul__, x, y) == _outcome(_corner_mul, x, y)
                    assert _outcome(FloatInterval.__mul__, y, x) == _outcome(_corner_mul, y, x)
                    for d in (FloatInterval(2.0, 3.0), FloatInterval(-3.0, -2.0)):
                        assert (_outcome(FloatInterval.__truediv__, x, d)
                                == _outcome(_corner_div, x, d))


# ---------------------------------------------------------------------------
# integer powers by directed repeated squaring
# ---------------------------------------------------------------------------

def _exact_pow_range(x, n):
    lo, hi = Fraction(x.lo) ** n, Fraction(x.hi) ** n
    if n == 0 or n % 2 == 1 or x.lo >= 0:
        return lo, hi
    if x.hi <= 0:
        return hi, lo
    return Fraction(0), max(lo, hi)


def test_pow_contains_exact_powers_in_every_sign_case():
    rng = random.Random(108)
    for n in range(65):
        for _ in range(12):
            scale = 2.0 ** rng.randint(-20, 15)
            u, v = sorted(rng.uniform(0, 3) * scale for _ in range(2))
            for x in (FloatInterval(u, v), FloatInterval(-v, -u), FloatInterval(-u, v),
                      FloatInterval(0.0, v), FloatInterval(-v, 0.0), FloatInterval(u, u)):
                out = iv_pow(x, n)
                lo, hi = _exact_pow_range(x, n)
                assert Fraction(out.lo) <= lo and hi <= Fraction(out.hi), (x, n)


def test_huge_exponent_evaluates():
    lo, hi = eval_iv(parse("x^100000000"), 0.5, 0.9)
    assert lo == 0.0 and 0.0 < hi <= 5e-324
    assert iv_pow(FloatInterval(-0.9, -0.5), 10 ** 8 + 1) == FloatInterval(-5e-324, -0.0)
    assert eval_d1(parse("x^100000000"), 0.5, 0.9)[2] >= 0.0
    with pytest.raises(OverflowError):
        iv_pow(FloatInterval(1.5, 2.0), 10 ** 8)


# ---------------------------------------------------------------------------
# exactness tests of directed products, quotients and square roots:
# Dekker's TwoProduct against exact integer cross-multiplication
# ---------------------------------------------------------------------------

def _ref_mul_sign(a, b, p):
    na, da = a.as_integer_ratio()
    nb, db = b.as_integer_ratio()
    np_, dp = p.as_integer_ratio()
    lhs, rhs = na * nb * dp, np_ * da * db
    return (lhs > rhs) - (lhs < rhs)


def _ref_div_sign(a, b, q):
    na, da = a.as_integer_ratio()
    nb, db = b.as_integer_ratio()
    nq, dq = q.as_integer_ratio()
    num = na * dq * db - nq * nb * da
    s = (num > 0) - (num < 0)
    return -s if b < 0 else s


def _ref_sqrt_dir(v, up):
    r = math.sqrt(v)
    nr, dr = r.as_integer_ratio()
    nv, dv = v.as_integer_ratio()
    if nr * nr * dv == nv * dr * dr:
        return r
    return math.nextafter(r, math.inf) if up else max(math.nextafter(r, -math.inf), 0.0)


_GUARDS = (2.0 ** -900, 2.0 ** 900)


def _tp_operand(rng):
    kind = rng.randrange(7)
    sign = rng.choice([1.0, -1.0])
    if kind == 0:  # on and next to each guard bound
        g = rng.choice(_GUARDS)
        return sign * rng.choice([g, math.nextafter(g, 0.0), math.nextafter(g, math.inf)])
    if kind == 1:  # either side of a guard bound
        return sign * rng.uniform(1, 2) * 2.0 ** rng.choice([rng.randint(-912, -888),
                                                             rng.randint(888, 912)])
    if kind == 2:  # subnormal, or zero of either sign
        return sign * rng.choice([0.0, 5e-324, rng.uniform(0, 1) * 2.0 ** -1022])
    if kind == 3:  # short significands, so that some products are exact
        return sign * rng.randint(1, 2 ** 26) * 2.0 ** rng.randint(-60, 30)
    if kind == 4:
        return sign * rng.uniform(1, 2) * 2.0 ** rng.randint(-1022, 1023)
    return rng.uniform(-4, 4)


def _tp_pairs(rng, count):
    for _ in range(count):
        a = _tp_operand(rng)
        r = rng.random()
        if r < 0.15 and a:  # product or quotient near overflow
            b = rng.uniform(0.5, 2) * 2.0 ** 1023 / a if abs(a) > 1e-300 else a
        elif r < 0.3 and a:  # product or quotient near the smallest normal
            b = rng.uniform(0.5, 2) * 2.0 ** -1022 / a if abs(a) < 1e300 else a
        else:
            b = _tp_operand(rng)
        yield a, (b if math.isfinite(b) else a)


def test_product_and_quotient_signs_match_integer_reference():
    rng = random.Random(109)
    for a, b in _tp_pairs(rng, 15_000):
        for x, y in ((a, b), (b, a)):
            p = x * y
            if math.isfinite(p):
                # the exact sign of x*y - p, as the directed products decide it
                sign = (mul_up(x, y) != p) - (mul_down(x, y) != p)
                assert sign == _ref_mul_sign(x, y, p), (x, y)
                exact = Fraction(x) * Fraction(y)
                assert mul_down(x, y) == float_down(exact), (x, y)
                assert mul_up(x, y) == float_up(exact), (x, y)
            if y and math.isfinite(x / y):
                q = x / y
                assert numeric._div_err_sign(x, y, q) == _ref_div_sign(x, y, q), (x, y)
                exact = Fraction(x) / Fraction(y)
                assert div_down(x, y) == float_down(exact), (x, y)
                assert div_up(x, y) == float_up(exact), (x, y)


def _ulps_from(p, k):
    # the float k ulps above p (below for k < 0)
    for _ in range(abs(k)):
        p = math.nextafter(p, math.copysign(math.inf, k))
    return p


def test_product_comparison_matches_fraction_reference():
    # _prod_cmp(a, b, c) is the exact sign of a*b - c for c within a factor of
    # 2 of fl(a*b): c at and 1 or 2 ulps either side of it, then the
    # quotient's (q, b, a) and the square root's (r, r, v)
    def ref(a, b, c):
        d = Fraction(a) * Fraction(b) - Fraction(c)
        return (d > 0) - (d < 0)

    rng = random.Random(111)
    for a, b in _tp_pairs(rng, 6_000):
        for x, y in ((a, b), (b, a)):
            p = x * y
            if math.isfinite(p):
                for k in range(-2, 3):
                    c = _ulps_from(p, k)
                    if math.isfinite(c):
                        assert numeric._prod_cmp(x, y, c) == ref(x, y, c), (x, y, c)
            if y and math.isfinite(x / y):
                q = x / y
                assert numeric._prod_cmp(q, y, x) == ref(q, y, x), (x, y)
        v = abs(a)
        r = math.sqrt(v)
        assert numeric._prod_cmp(r, r, v) == ref(r, r, v), v


def test_sqrt_exactness_matches_integer_reference():
    rng = random.Random(110)
    values = [abs(_tp_operand(rng)) for _ in range(10_000)]
    values += [(rng.randint(1, 2 ** 26) * 2.0 ** rng.randint(-500, 400)) ** 2 for _ in range(2_000)]
    values += [g * g for g in (2.0 ** -450, 2.0 ** 450, 2.0 ** -460, 2.0 ** 460)]
    values += [sys.float_info.max, 2.0 ** -1022, 5e-324, 0.0]
    for v in values:
        for up in (False, True):
            assert float_to_hex(numeric._sqrt_dir(v, up)) == float_to_hex(_ref_sqrt_dir(v, up)), (v, up)


# ---------------------------------------------------------------------------
# exp overflow is decided in the kernel
# ---------------------------------------------------------------------------

def test_exp_overflow_is_decided_in_the_kernel():
    for x in (FloatInterval(0.0, 1000.0), FloatInterval(710.0, 711.0)):
        with pytest.raises(OverflowError) as raised:
            iv_exp(x)
        assert str(raised.value) == "exp above the finite binary64 range"
    # the largest argument with a finite enclosure, and the first without one
    top = numeric._EXP_MAX
    out = iv_exp(FloatInterval(top, top))
    assert mpmath.mpf(out.lo) <= mpmath.exp(top) <= mpmath.mpf(out.hi) <= sys.float_info.max
    assert mpmath.exp(math.nextafter(top, math.inf)) > sys.float_info.max
    with pytest.raises(OverflowError):
        iv_exp(FloatInterval(top, math.nextafter(top, math.inf)))
    # an overflowing lower end is still a lower bound
    assert numeric._exp_dir(1000.0, up=False) == sys.float_info.max


# ---------------------------------------------------------------------------
# pair kernels against the object kernels they replaced
# ---------------------------------------------------------------------------

_TINY = 5e-324
# signed zeros, subnormals, the normal range's edges, ±max, the Dekker guard
# 2^±900 and its neighbours, the exp overflow threshold, and plain values
_KERNEL_EDGES = (
    0.0, -0.0, _TINY, -_TINY, 3 * _TINY, 2.0 ** -1022, -(2.0 ** -1022),
    math.nextafter(2.0 ** -1022, 0.0), _MAXF, -_MAXF, math.nextafter(_MAXF, 0.0),
    2.0 ** 900, math.nextafter(2.0 ** 900, 0.0), math.nextafter(2.0 ** 900, math.inf),
    2.0 ** -900, math.nextafter(2.0 ** -900, 0.0), math.nextafter(2.0 ** -900, math.inf),
    -(2.0 ** 900), -(2.0 ** -900), 2.0 ** 512, 2.0 ** -537, numeric._EXP_MAX, 710.0,
    -745.2, 1.0, -1.0, 0.5, -0.25, 3.0, 0.1, math.pi / 2, -math.pi, 2.0 ** 53, 1e300)
_kernel_float = st.one_of(
    st.sampled_from(_KERNEL_EDGES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-8.0, 8.0),
    st.integers(-2 ** 52, 2 ** 52).map(lambda n: n * _TINY),
    # either side of the guard bounds 2^-900 and 2^900
    st.builds(lambda m, e, s: s * m * 2.0 ** e, st.floats(1.0, 2.0),
              st.integers(-912, -888) | st.integers(888, 912), st.sampled_from((1.0, -1.0))))
_kernel_settings = settings(max_examples=600, derandomize=True, database=None, deadline=None)


def _ends(x, y):
    return (x, y) if x <= y else (y, x)


def _pair_outcome(run):
    """Hex of both ends of an interval, or the error raised.  A kernel
    returns finite ordered ends or raises, so the ends are asserted to be
    such."""
    try:
        out = run()
    except (OverflowError, ZeroDivisionError, ValueError) as err:
        return type(err), str(err)
    lo, hi = out if isinstance(out, tuple) else (out.lo, out.hi)
    assert -_MAXF <= lo <= hi <= _MAXF, out
    return float_to_hex(lo), float_to_hex(hi)


def _ref_outcome(run):
    # the object kernels' outcome, an overflow worded as the kernels word it
    try:
        out = run()
    except OverflowError as err:
        return OverflowError, ref.mended(str(err))
    except (ZeroDivisionError, ValueError) as err:
        return type(err), str(err)
    return float_to_hex(out.lo), float_to_hex(out.hi)


_BINARY_PAIRS = {
    "add": (lambda a, b, c, d: (numeric.add_down(a, c), numeric.add_up(b, d)),
            lambda x, y: x + y),
    "sub": (lambda a, b, c, d: (numeric.add_down(a, -d), numeric.add_up(b, -c)),
            lambda x, y: x - y),
    "mul": (numeric._mul, lambda x, y: x * y),
    "div": (numeric._div, lambda x, y: x / y),
}


@_kernel_settings
@example(x=-1.0, y=2.0, u=-0.25, v=0.0)     # "denominator [-0.25, 0.0] contains zero"
@example(x=-0.0, y=0.0, u=-0.0, v=3.0)
@example(x=2.0 ** 900, y=_MAXF, u=2.0 ** -900, v=2.0 ** 512)
@example(x=-_MAXF, y=_MAXF, u=-_MAXF, v=_MAXF)
@given(x=_kernel_float, y=_kernel_float, u=_kernel_float, v=_kernel_float)
def test_binary_pair_kernels_match_object_kernels(x, y, u, v):
    a, b = _ends(x, y)
    c, d = _ends(u, v)
    X, Y = FloatInterval(a, b), FloatInterval(c, d)
    rX, rY = ref.FloatInterval(a, b), ref.FloatInterval(c, d)
    for name, (pair, obj) in _BINARY_PAIRS.items():
        want = _ref_outcome(lambda: obj(rX, rY))
        assert _pair_outcome(lambda: pair(a, b, c, d)) == want, (name, X, Y)
        if name != "sub":  # FloatInterval keeps +, * and / as object forms
            assert _pair_outcome(lambda: obj(X, Y)) == want, (name, X, Y)


# a zero operand with a normal, a subnormal or ±max one
_ZERO_PARTNERS = (1.5, 2.0 ** -1022, _TINY, 3 * _TINY, _MAXF, 2.0 ** 900, 2.0 ** -900)


def test_zero_products_are_exact_with_ieee_signed_zeros():
    # a zero operand returns the product at once: exact, and signed as the
    # integer path, which decided it before, left it
    for z in (0.0, -0.0):
        for m in (z, -z) + _ZERO_PARTNERS + tuple(-v for v in _ZERO_PARTNERS):
            for x, y in ((z, m), (m, z)):
                exact = Fraction(x) * Fraction(y)
                for kernel, rounded in ((mul_down, float_down), (mul_up, float_up)):
                    out = kernel(x, y)
                    assert out == rounded(exact) == 0.0, (kernel, x, y)
                    assert float_to_hex(out) == float_to_hex(x * y), (kernel, x, y)


def test_zero_ended_products_keep_the_corner_order():
    # where zeros of both signs tie, _signed_zero_fix takes the sign of the
    # first corner in the order (lo,lo), (lo,hi), (hi,lo), (hi,hi), as the
    # object kernels' four-corner scan does
    ends = (0.0, -0.0, -_TINY, _TINY, -2.0, 3.0, _MAXF, -_MAXF)
    for a, b, c, d in itertools.product(ends, repeat=4):
        if a <= b and c <= d:
            want = _ref_outcome(lambda: ref.FloatInterval(a, b) * ref.FloatInterval(c, d))
            assert _pair_outcome(lambda: numeric._mul(a, b, c, d)) == want, (a, b, c, d)


_UNARY_PAIRS = {
    "sqr": (numeric._sqr, numeric.iv_sqr, ref.iv_sqr),
    "sin": (numeric._sin, numeric.iv_sin, ref.iv_sin),
    "cos": (numeric._cos, numeric.iv_cos, ref.iv_cos),
    "exp": (numeric._exp, numeric.iv_exp, ref.iv_exp),
    "log": (numeric._log, numeric.iv_log, ref.iv_log),
    "sqrt": (numeric._sqrt, numeric.iv_sqrt, ref.iv_sqrt),
    "abs": (numeric._abs, None, ref.iv_abs),
}


@_kernel_settings
@example(x=0.0, y=0.0, n=10 ** 8, point=False)
@example(x=-0.0, y=1.0, n=3, point=False)
@example(x=numeric._EXP_MAX, y=710.0, n=0, point=False)
@example(x=-0.9, y=-0.5, n=10 ** 8 + 1, point=False)
@given(x=_kernel_float, y=_kernel_float, point=st.booleans(),
       n=st.sampled_from((0, 1, 2, 3, 4, 5, 7, 10, 64, 1000, 10 ** 8, 10 ** 8 + 1)))
def test_unary_pair_kernels_match_object_kernels(x, y, n, point):
    a, b = (x, x) if point else _ends(x, y)
    X, rX = FloatInterval(a, b), ref.FloatInterval(a, b)
    for name, (pair, obj, ref_obj) in _UNARY_PAIRS.items():
        want = _ref_outcome(lambda: ref_obj(rX))
        assert _pair_outcome(lambda: pair(a, b)) == want, (name, X)
        if obj is not None:
            assert _pair_outcome(lambda: obj(X)) == want, (name, X)
    want = _ref_outcome(lambda: ref.iv_pow(rX, n))
    assert _pair_outcome(lambda: numeric._pow(a, b, n)) == want, (X, n)
    assert _pair_outcome(lambda: iv_pow(X, n)) == want, (X, n)
    assert _pair_outcome(lambda: (-b, -a)) == _pair_outcome(lambda: -rX)  # the interpreters' negation


_POW_ENDS = (0.0, -0.0, 5e-324, 3 * 5e-324, 2.0 ** -1022, 1e-160, 0.25, 0.5, 0.9, 1.0,
             1.1, 3.0, 1e77, 1e300)


@pytest.mark.parametrize("n", range(3, 9))
def test_written_out_powers_match_square_and_multiply(n):
    # numeric writes out n = 3 and n = 4; the object kernels keep the loop.
    # Bits, zero signs and overflows must agree, for subnormal results too
    for m in _POW_ENDS:
        for up in (False, True):
            assert (_pair_outcome(lambda: (numeric._pow_mag(m, n, up),) * 2)
                    == _ref_outcome(lambda: ref.FloatInterval(*(ref._pow_mag(m, n, up),) * 2)))
    ends = sorted(_POW_ENDS + tuple(-v for v in _POW_ENDS))
    for a, b in ((a, b) for a in ends for b in ends if a <= b):
        want = _ref_outcome(lambda: ref.iv_pow(ref.FloatInterval(a, b), n))
        assert _pair_outcome(lambda: numeric._pow(a, b, n)) == want, (a, b, n)


def _scalar_outcome(kernel, x, y):
    # a finite result, or the error raised
    try:
        v = kernel(x, y)
    except OverflowError as err:
        return type(err), str(err)
    assert -_MAXF <= v <= _MAXF, v
    return float_to_hex(v)


def _ref_scalar_outcome(kernel, x, y):
    # the object kernel's outcome, an overflow (an infinite result among
    # them) worded as the kernels word it
    try:
        v = kernel(x, y)
    except OverflowError as err:
        return OverflowError, ref.mended(str(err))
    return (OverflowError, ref.mended(v)) if math.isinf(v) else float_to_hex(v)


@_kernel_settings
@example(x=_MAXF, y=1e154, t=0.0)   # the upward step from max raises
@given(x=_kernel_float, y=_kernel_float, t=_kernel_float)
def test_scalar_kernels_match_object_kernels(x, y, t):
    for name in ("add_down", "add_up", "mul_down", "mul_up", "div_down", "div_up"):
        if name.startswith("div") and y == 0.0:
            continue
        want = _ref_scalar_outcome(getattr(ref, name), x, y)
        assert _scalar_outcome(getattr(numeric, name), x, y) == want, (name, x, y)
    assert numeric.sum_above(x, y, t) == ref.sum_above(x, y, t)


@_kernel_settings
@example(k=0, ulps=0, width=0.0, half_offset=0)   # x = 0 for cos: the integer path decides
@example(k=1, ulps=1, width=0.0, half_offset=1)
@example(k=-131069, ulps=0, width=0.25, half_offset=1)  # where a zero error margin
@example(k=-131058, ulps=0, width=0.25, half_offset=0)  # would misplace a bound
@given(k=st.integers(-10 ** 6, 10 ** 6) | st.integers(-40, 40), ulps=st.integers(-3, 3),
       width=st.sampled_from((0.0, 1e-12, 1e-6, 0.5, 3.0, 6.2)) | st.floats(0.0, 7.0),
       half_offset=st.sampled_from((0, 1)))
def test_crit_indices_prefilter_matches_integer_path(k, ulps, width, half_offset):
    # float neighbours of k*pi/2, where the float prefilter must hand over
    lo = float(k) * (math.pi / 2)
    for _ in range(abs(ulps)):
        lo = math.nextafter(lo, math.copysign(math.inf, ulps))
    for a, b in ((lo, lo + width), (lo - width, lo), (lo * 2.0 ** 20, lo * 2.0 ** 20 + width)):
        a, b = _ends(a, b)
        assert numeric._crit_indices(a, b, half_offset) == ref._crit_indices(a, b, half_offset)


def _exact_crit_indices(lo, hi, half_offset):
    # k with pi*(k + half_offset/2) in [lo, hi]; a float is never such a
    # point, and at 1,200 digits x/pi is off by about 10^-890 where |x| is
    # at most 2^1024, far inside any float's distance from one
    with mpmath.workdps(1200):
        h = mpmath.mpf(half_offset) / 2
        klo = int(mpmath.ceil(mpmath.mpf(lo) / mpmath.pi - h))
        khi = int(mpmath.floor(mpmath.mpf(hi) / mpmath.pi - h))
    return range(klo, khi + 1)


def _huge_trig_intervals(rng):
    """Intervals a few ulps wide with ends beyond 2^48, where _crit_indices
    takes the long pi: at random, and around pi*(k + h/2) for large k."""
    for _ in range(40):
        x = math.ldexp(rng.uniform(1.0, 2.0), rng.randint(48, 1022))
        x = math.copysign(max(x, math.nextafter(2.0 ** 48, math.inf)), rng.choice((-1, 1)))
        yield x, _step(x, rng.randint(1, 6))
    for _ in range(40):
        # below 2^52 an ulp is under pi, so an interval can hold one point
        top = rng.choice((50, rng.randint(48, 1020)))
        k = rng.choice((1, -1)) * rng.randint(2 ** 47, 2 ** top)
        with mpmath.workdps(1200):
            c = float(mpmath.pi * (k + mpmath.mpf(rng.randint(0, 1)) / 2))
        i = rng.randint(-3, 2)
        yield _step(c, i), _step(c, rng.randint(i + 1, 3))


def _step(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def test_huge_trig_arguments_hold_every_critical_point():
    # above 2^48 the k bounds are decided with the long pi and its guard, so
    # they may only widen past the exact ones; the trig ranges must hold
    # the exact values at both ends and the extrema inside
    rng = random.Random(48)
    counts = set()
    for lo, hi in _huge_trig_intervals(rng):
        assert 2.0 ** 48 < max(abs(lo), abs(hi)) and lo < hi
        for half_offset, kernel, fn in ((1, numeric._sin, mpmath.sin),
                                        (0, numeric._cos, mpmath.cos)):
            want = _exact_crit_indices(lo, hi, half_offset)
            got = numeric._crit_indices(lo, hi, half_offset)
            # ranges of up to 2^970 indices: their ends, never their length
            n = max(want.stop - want.start, 0)
            assert got.start <= want.start and want.stop <= got.stop, (lo, hi, half_offset)
            assert got.stop - got.start <= n + 2
            counts.add(min(n, 2))
            out_lo, out_hi = kernel(lo, hi)
            with mpmath.workdps(1200):
                for t in (lo, hi):
                    assert out_lo <= fn(mpmath.mpf(t)) <= out_hi, (lo, hi, half_offset)
            # extrema inside: maxima at even k, minima at odd k
            if n >= 2 or n == 1 and want.start % 2 == 0:
                assert out_hi == 1.0
            if n >= 2 or n == 1 and want.start % 2 == 1:
                assert out_lo == -1.0
    assert counts == {0, 1, 2}  # no critical point, one, and several


def test_perfbench_micro_kernels_run():
    # perfbench/micro.py times these kernels by name; a change to the numeric
    # API must not break its traced runs or baseline.py
    path = Path(__file__).resolve().parents[1] / "perfbench" / "micro.py"
    spec = importlib.util.spec_from_file_location("perfbench_micro", path)
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)
    operands = micro.operands(1)
    assert set(operands) == set(micro.KERNELS)
    for name, args in operands.items():
        for a in args:
            micro.KERNELS[name](*a)
