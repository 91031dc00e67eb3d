"""Parser, printer, and enclosure tests for the expression module.

Point oracle: mpmath at 50 digits, mirrored over the AST.  Derivative
oracle: central finite differences of the mpmath evaluation.  The pair
register interpreters are also compared, bit for bit, with the object
interpreters they replaced, kept in object_kernels.py.
"""

import math
import random
import sys
from fractions import Fraction
from typing import NamedTuple

import mpmath
import object_kernels as ref
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from suparg import expr as expr_mod
from suparg.expr import (
    MAX_DEPTH,
    Add,
    Apply,
    Const,
    Div,
    Mul,
    Neg,
    NotDifferentiable,
    ParseError,
    PowInt,
    Sub,
    Var,
    eval_d1,
    eval_iv,
    parse,
    to_source,
)
from suparg import numeric
from suparg.certificates import check, dumps, loads
from suparg.numeric import (
    DivisionByZeroInterval,
    DomainError,
    FloatInterval,
    float_to_hex,
    iv_cos,
    iv_exp,
    iv_log,
    iv_pow,
    iv_sin,
    iv_sqr,
    iv_sqrt,
)
from suparg.theorems import prove_bound

mpmath.mp.dps = 50
_MAXF = sys.float_info.max


def mp_eval(e, t):
    if isinstance(e, Const):
        return mpmath.mpf(e.value.numerator) / e.value.denominator
    if isinstance(e, Var):
        return t
    if isinstance(e, Neg):
        return -mp_eval(e.arg, t)
    if isinstance(e, Add):
        return mp_eval(e.left, t) + mp_eval(e.right, t)
    if isinstance(e, Sub):
        return mp_eval(e.left, t) - mp_eval(e.right, t)
    if isinstance(e, Mul):
        return mp_eval(e.left, t) * mp_eval(e.right, t)
    if isinstance(e, Div):
        return mp_eval(e.left, t) / mp_eval(e.right, t)
    if isinstance(e, PowInt):
        return mp_eval(e.base, t) ** e.n
    fn = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp,
          "log": mpmath.log, "sqrt": mpmath.sqrt, "abs": abs}[e.fn]
    return fn(mp_eval(e.arg, t))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_basic_shapes():
    assert parse("x^2 - 2") == Sub(PowInt(Var(), 2), Const(Fraction(2)))
    assert parse("sin(x)*exp(x)") == Mul(Apply("sin", Var()), Apply("exp", Var()))
    assert parse("0.1") == Const(Fraction(1, 10))
    assert parse("-x^2") == Neg(PowInt(Var(), 2))
    assert parse("-x*x") == Mul(Neg(Var()), Var())
    assert parse(" ( x + 1 ) / ( x - 1 ) ") == Div(
        Add(Var(), Const(Fraction(1))), Sub(Var(), Const(Fraction(1))))


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("2*+x")
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse("sin x")
    with pytest.raises(ParseError):
        parse("x +")
    with pytest.raises(ParseError):
        parse("x^-2")
    with pytest.raises(ParseError):
        parse("y + 1")
    with pytest.raises(ParseError):
        parse("(x + 1")


def test_exact_decimal_literals():
    e = parse("0.1")
    assert isinstance(e, Const) and e.value == Fraction(1, 10)
    lo, hi = eval_iv(e, 0, 1)
    assert Fraction(lo) <= Fraction(1, 10) <= Fraction(hi)
    assert hi == math.nextafter(lo, math.inf)  # tightest enclosure


def test_differentiable_flag():
    assert parse("sin(x)*x").differentiable
    assert not parse("abs(x) + 1").differentiable
    with pytest.raises(NotDifferentiable):
        eval_d1(parse("abs(x)"), 0, 1)


# ---------------------------------------------------------------------------
# printing round-trip
# ---------------------------------------------------------------------------

def _rand_expr(rng: random.Random, depth: int, fns=("sin", "cos", "exp", "log", "sqrt", "abs")):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var()
        if rng.random() < 0.5:
            return Const(Fraction(rng.randint(0, 30)))
        return Const(Fraction(rng.randint(1, 400), 10 ** rng.randint(1, 3)))
    kind = rng.randrange(8)
    if kind == 0:
        return Add(_rand_expr(rng, depth - 1, fns), _rand_expr(rng, depth - 1, fns))
    if kind == 1:
        return Sub(_rand_expr(rng, depth - 1, fns), _rand_expr(rng, depth - 1, fns))
    if kind == 2:
        return Mul(_rand_expr(rng, depth - 1, fns), _rand_expr(rng, depth - 1, fns))
    if kind == 3:
        return Div(_rand_expr(rng, depth - 1, fns), _rand_expr(rng, depth - 1, fns))
    if kind == 4:
        return Neg(_rand_expr(rng, depth - 1, fns))
    if kind == 5:
        return PowInt(_rand_expr(rng, depth - 1, fns), rng.randrange(0, 5))
    return Apply(rng.choice(fns), _rand_expr(rng, depth - 1, fns))


def test_print_parse_roundtrip_fixed():
    for s in ["x^2 - 2", "sin(x)*exp(x)", "-x^2", "x*(-x)", "1 - 2 - 3",
              "x/(x + 1)/(x + 2)", "(x + 1)^3", "sqrt(x^2 + 1)", "0.25*x + 1.5"]:
        e = parse(s)
        assert parse(to_source(e)) == e


def test_print_parse_roundtrip_random():
    rng = random.Random(202)
    for _ in range(500):
        e = _rand_expr(rng, 4)
        assert parse(to_source(e)) == e, to_source(e)


def test_constant_longer_than_one_int_to_str_conversion_prints():
    # CPython converts at most sys.get_int_max_str_digits() digits (4,300 by
    # default) between int and str in one piece; the printer converts in
    # chunks, so the text is the same under the smallest limit
    text = "x - 1" + "0" * 299 + "." + "1" * 4100
    e = parse(text)
    big = 10 ** 5000 + 7
    digits = "1" + "0" * 4999 + "7"
    limit = sys.get_int_max_str_digits()
    try:
        for at in (limit, 640):
            sys.set_int_max_str_digits(at)
            assert to_source(e) == text
            assert to_source(Const(Fraction(big))) == digits
            assert to_source(Const(Fraction(-big))) == f"(0 - {digits})"
            assert to_source(Const(Fraction(big, 3))) == f"({digits} / 3)"
            assert to_source(Const(Fraction(3, big))) == f"(3 / {digits})"
    finally:
        sys.set_int_max_str_digits(limit)
    assert parse(to_source(e)) == e


# ---------------------------------------------------------------------------
# evaluation examples
# ---------------------------------------------------------------------------

def test_eval_square_shift():
    out = eval_iv(parse("x^2 - 2"), 0, 2)
    assert out == (-2, 2)


def test_eval_sin_with_peak():
    lo, hi = eval_iv(parse("sin(x)"), 0, 1.6)
    assert hi >= 1.0
    assert lo <= 0.0
    # dense-sampling oracle: enclosure contains the sampled range
    samples = [float(mpmath.sin(mpmath.mpf(t) * frac / 1000))
               for frac in range(0, 1001) for t in [1.6]]
    assert lo <= min(samples) and max(samples) <= hi


def test_eval_log_domain_error_annotated():
    with pytest.raises(DomainError) as exc:
        eval_iv(parse("log(x)"), -1, 1)
    assert exc.value.context == "log(x)"


def _encloses(x: tuple[float, float], lo: float, hi: float, width: float = math.inf) -> bool:
    """The ends x contain [lo, hi] and are at most width apart."""
    return x[0] <= lo and hi <= x[1] and x[1] - x[0] <= width


def test_eval_d1_power_at_point():
    res = eval_d1(parse("x^2"), 1, 1)
    assert _encloses(res[:2], 1.0, 1.0, width=1e-15)
    assert _encloses(res[2:], 2.0, 2.0, width=1e-15)


def test_eval_d1_cubic_contains_zero():
    res = eval_d1(parse("x^3"), -1, 1)
    assert _encloses(res[2:], 0.0, 3.0)


def test_eval_d1_sin_derivative_bounds():
    _, _, dlo, dhi = eval_d1(parse("sin(x)"), 0, 0.5)
    cos_half = float(mpmath.cos(mpmath.mpf(1) / 2))  # ~0.87758
    assert dlo > 0.8
    assert dlo <= cos_half
    assert dhi >= 1.0
    assert dhi <= 1.0 + 1e-12


def test_eval_d1_exact_zero_through_product():
    # multiplying by the literal 0 must keep the derivative exactly [0, 0]
    res = eval_d1(parse("sin(x)*0 + 2"), 0, 1)
    assert res[2:] == (0.0, 0.0)
    res2 = eval_d1(parse("3"), 0, 1)
    assert res2[2:] == (0.0, 0.0)


def test_eval_d1_sqrt_at_zero_rejected():
    with pytest.raises(DomainError):
        eval_d1(parse("sqrt(x)"), 0, 1)


# ---------------------------------------------------------------------------
# containment fuzz
# ---------------------------------------------------------------------------

def _safe_expr(rng: random.Random, depth: int, allow_abs: bool):
    """Random expression kept away from domain edges: log/sqrt get 1+x^2-ish
    arguments, divisors are bounded away from zero."""
    if depth == 0 or rng.random() < 0.35:
        r = rng.random()
        if r < 0.45:
            return Var()
        if r < 0.7:
            return Const(Fraction(rng.randint(1, 9)))
        return Const(Fraction(rng.randint(1, 50), 10))
    kind = rng.randrange(9)
    if kind in (0, 1):
        return Add(_safe_expr(rng, depth - 1, allow_abs), _safe_expr(rng, depth - 1, allow_abs))
    if kind == 2:
        return Sub(_safe_expr(rng, depth - 1, allow_abs), _safe_expr(rng, depth - 1, allow_abs))
    if kind in (3, 4):
        return Mul(_safe_expr(rng, depth - 1, allow_abs), _safe_expr(rng, depth - 1, allow_abs))
    if kind == 5:
        denom = Add(PowInt(Var(), 2), Const(Fraction(rng.randint(1, 4))))
        return Div(_safe_expr(rng, depth - 1, allow_abs), denom)
    if kind == 6:
        return PowInt(_safe_expr(rng, depth - 1, allow_abs), rng.randrange(0, 4))
    if kind == 7:
        fns = ["sin", "cos", "exp"] + (["abs"] if allow_abs else [])
        return Apply(rng.choice(fns), _safe_expr(rng, depth - 1, allow_abs))
    guarded = Add(PowInt(Var(), 2), Const(Fraction(rng.randint(1, 3))))
    return Apply(rng.choice(["log", "sqrt"]), guarded)


def test_fundamental_containment_fuzz():
    rng = random.Random(203)
    done = 0
    while done < 2_000:
        f = _safe_expr(rng, 3, allow_abs=True)
        lo = rng.uniform(-3, 3)
        X = FloatInterval(lo, lo + rng.uniform(0, 2))
        try:
            lo_f, hi_f = eval_iv(f, X.lo, X.hi)
        except (DomainError, OverflowError):
            continue
        for _ in range(5):
            t = rng.uniform(X.lo, X.hi)
            t = min(max(t, X.lo), X.hi)
            v = mp_eval(f, mpmath.mpf(t))
            assert mpmath.mpf(lo_f) <= v <= mpmath.mpf(hi_f), (to_source(f), X, t)
            done += 1


def test_derivative_containment_fuzz():
    rng = random.Random(204)
    done = 0
    while done < 600:
        f = _safe_expr(rng, 3, allow_abs=False)
        lo = rng.uniform(-3, 3)
        X = FloatInterval(lo, lo + rng.uniform(0.01, 1.5))
        try:
            _, _, dlo, dhi = eval_d1(f, X.lo, X.hi)
        except (DomainError, OverflowError):
            continue
        width = X.hi - X.lo
        h = mpmath.mpf(1e-6) * width
        for _ in range(3):
            t = rng.uniform(X.lo + 2e-6 * width, X.hi - 2e-6 * width)
            fd = (mp_eval(f, mpmath.mpf(t) + h) - mp_eval(f, mpmath.mpf(t) - h)) / (2 * h)
            scale = mpmath.mpf(1e-4) * (1 + abs(fd))
            assert mpmath.mpf(dlo) - scale <= fd <= mpmath.mpf(dhi) + scale, \
                (to_source(f), X, t)
            done += 1


# ---------------------------------------------------------------------------
# the tape against the recursive evaluators it replaced
# ---------------------------------------------------------------------------

def _enclose(q):
    return FloatInterval(numeric.float_down(q), numeric.float_up(q))


def _neg(x):
    return FloatInterval(-x.hi, -x.lo)


def _minus(x, y):
    return FloatInterval(numeric.sub_down(x.lo, y.hi), numeric.sub_up(x.hi, y.lo))


def _iv_abs(x):
    return FloatInterval(*numeric._abs(x.lo, x.hi))


def _ref_eval(e, X):
    if isinstance(e, Const):
        return _enclose(e.value)
    if isinstance(e, Var):
        return X
    if isinstance(e, Neg):
        return _neg(_ref_eval(e.arg, X))
    if isinstance(e, Add):
        return _ref_eval(e.left, X) + _ref_eval(e.right, X)
    if isinstance(e, Sub):
        return _minus(_ref_eval(e.left, X), _ref_eval(e.right, X))
    if isinstance(e, Mul):
        return _ref_eval(e.left, X) * _ref_eval(e.right, X)
    if isinstance(e, Div):
        return _ref_eval(e.left, X) / _ref_eval(e.right, X)
    if isinstance(e, PowInt):
        return iv_pow(_ref_eval(e.base, X), e.n)
    try:
        return _REF_APPLY[e.fn](_ref_eval(e.arg, X))
    except DomainError as err:
        err.context = to_source(e)
        raise


_REF_APPLY = {"sin": iv_sin, "cos": iv_cos, "exp": iv_exp, "log": iv_log,
              "sqrt": iv_sqrt, "abs": _iv_abs}


def _ref_eval_d(e, X):
    if isinstance(e, Const):
        return _enclose(e.value), FloatInterval(0.0, 0.0)
    if isinstance(e, Var):
        return X, FloatInterval(1.0, 1.0)
    if isinstance(e, Neg):
        v, d = _ref_eval_d(e.arg, X)
        return _neg(v), _neg(d)
    if isinstance(e, (Add, Sub, Mul, Div)):
        lv, ld = _ref_eval_d(e.left, X)
        rv, rd = _ref_eval_d(e.right, X)
        if isinstance(e, Add):
            return lv + rv, ld + rd
        if isinstance(e, Sub):
            return _minus(lv, rv), _minus(ld, rd)
        if isinstance(e, Mul):
            return lv * rv, ld * rv + lv * rd
        val = lv / rv
        return val, _minus(ld * rv, lv * rd) / iv_sqr(rv)
    if isinstance(e, PowInt):
        bv, bd = _ref_eval_d(e.base, X)
        val = iv_pow(bv, e.n)
        if e.n == 0:
            return val, FloatInterval(0.0, 0.0)
        coeff = _enclose(Fraction(e.n))
        return val, coeff * iv_pow(bv, e.n - 1) * bd
    av, ad = _ref_eval_d(e.arg, X)
    try:
        if e.fn == "sin":
            return iv_sin(av), iv_cos(av) * ad
        if e.fn == "cos":
            return iv_cos(av), _neg(iv_sin(av)) * ad
        if e.fn == "exp":
            ev = iv_exp(av)
            return ev, ev * ad
        if e.fn == "log":
            return iv_log(av), ad / av
        if e.fn == "sqrt":
            sv = iv_sqrt(av)
            return sv, ad / (FloatInterval(2.0, 2.0) * sv)
    except (DomainError, DivisionByZeroInterval) as err:
        if isinstance(err, DomainError):
            err.context = to_source(e)
            raise
        derr = DomainError(e.fn, av, "derivative unbounded (argument range touches the domain boundary)")
        derr.context = to_source(e)
        raise derr from None
    raise NotDifferentiable("expression contains abs")


def _ref_contains_abs(e):
    if isinstance(e, Apply):
        return e.fn == "abs" or _ref_contains_abs(e.arg)
    if isinstance(e, (Const, Var)):
        return False
    if isinstance(e, (Neg, PowInt)):
        return _ref_contains_abs(e.arg if isinstance(e, Neg) else e.base)
    return _ref_contains_abs(e.left) or _ref_contains_abs(e.right)


def _ref_annotate(err, X):
    if isinstance(err, DomainError):
        out = DomainError(err.fn, err.operand, err.detail)
        out.context = getattr(err, "context", None)
        return out
    out = DomainError("div", X, str(err))
    out.context = None
    return out


def _hexes(*ivs):
    return tuple(float_to_hex(v) for iv in ivs for v in (iv.lo, iv.hi))


def _outcome(run):
    """Bit pattern of the endpoints (signed zeros included), or the error.
    The interpreters return finite ordered ends or raise."""
    try:
        ivs = run()
        assert all(-_MAXF <= iv.lo <= iv.hi <= _MAXF for iv in ivs), ivs
        return "ok", _hexes(*ivs)
    except DomainError as err:
        return "domain", err.fn, repr(err.operand), err.detail, err.context
    except (DivisionByZeroInterval, NotDifferentiable, OverflowError) as err:
        return type(err).__name__, str(err)


def _ref_iv(f, X):
    try:
        return (_ref_eval(f, X),)
    except (DomainError, DivisionByZeroInterval) as err:
        raise _ref_annotate(err, X) from None


def _ref_d1(f, X):
    if _ref_contains_abs(f):
        raise NotDifferentiable("expression contains abs")
    try:
        return _ref_eval_d(f, X)
    except (DomainError, DivisionByZeroInterval) as err:
        raise _ref_annotate(err, X) from None


class _Ends(NamedTuple):
    """The interpreters' ends, read as _hexes and _outcome read an interval."""

    lo: float
    hi: float


def _tape_iv(f, X):
    return (_Ends(*eval_iv(f, X.lo, X.hi)),)


def _tape_d1(f, X):
    lo, hi, dlo, dhi = eval_d1(f, X.lo, X.hi)
    return _Ends(lo, hi), _Ends(dlo, dhi)


def _rand_piece(rng):
    kind = rng.randrange(6)
    if kind == 0:  # point
        t = rng.choice([0.0, -0.0, rng.uniform(-3, 3)])
        return FloatInterval(t, t)
    if kind == 1:  # a signed zero endpoint
        h = rng.uniform(0, 2)
        return rng.choice([FloatInterval(0.0, h), FloatInterval(-0.0, h),
                           FloatInterval(-h, 0.0), FloatInterval(-h, -0.0),
                           FloatInterval(-0.0, 0.0)])
    if kind == 2:  # straddles zero
        return FloatInterval(-rng.uniform(0, 2), rng.uniform(0, 2))
    if kind == 3:  # wide, where exp and powers overflow
        return FloatInterval(-rng.uniform(0, 900), rng.uniform(0, 900))
    lo = rng.uniform(-3, 3)
    return FloatInterval(lo, lo + rng.uniform(0, 1) * 2.0 ** -rng.randint(0, 40))


def test_tape_matches_recursive_reference():
    rng = random.Random(205)
    seen = set()
    for k in range(3_000):
        with_abs = k % 2 == 0
        fns = ("sin", "cos", "exp", "log", "sqrt", "abs") if with_abs else \
            ("sin", "cos", "exp", "log", "sqrt")
        f = _rand_expr(rng, rng.randint(1, 5), fns)
        for _ in range(3):
            X = _rand_piece(rng)
            want = _outcome(lambda: _ref_iv(f, X))
            assert _outcome(lambda: _tape_iv(f, X)) == want, (to_source(f), X)
            want_d = _outcome(lambda: _ref_d1(f, X))
            assert _outcome(lambda: _tape_d1(f, X)) == want_d, (to_source(f), X)
            seen.add(want[0])
            seen.add(want_d[0])
    assert seen == {"ok", "domain", "OverflowError", "NotDifferentiable"}


def test_domain_error_context_is_the_enclosing_application():
    # eval_iv names the outermost application around the failing one,
    # eval_d1 the failing application itself
    f = parse("1 + exp(sqrt(log(x)))")
    with pytest.raises(DomainError) as exc:
        eval_iv(f, 0.5, 0.6)
    assert (exc.value.fn, exc.value.context) == ("sqrt", "exp(sqrt(log(x)))")
    with pytest.raises(DomainError) as exc:
        eval_d1(f, 0.5, 0.6)
    assert (exc.value.fn, exc.value.context) == ("sqrt", "sqrt(log(x))")
    with pytest.raises(DomainError) as exc:
        eval_d1(parse("sin(sqrt(x))"), 0.0, 1.0)
    assert exc.value.detail.startswith("derivative unbounded")
    assert (exc.value.fn, exc.value.context) == ("sqrt", "sqrt(x)")
    with pytest.raises(DomainError) as exc:
        eval_iv(parse("sin(1/x)"), -1.0, 1.0)
    assert (exc.value.fn, exc.value.context) == ("div", None)


def test_expression_is_compiled_once(monkeypatch):
    compiled = []
    original = expr_mod._compile

    def counting(f):
        compiled.append(f)
        return original(f)

    monkeypatch.setattr(expr_mod, "_compile", counting)
    f = parse("sin(x)*exp(x) + x^3/(1 + x^2)")
    for k in range(20):
        eval_iv(f, k / 20, (k + 1) / 20)
        eval_d1(f, k / 20, (k + 1) / 20)
        assert f.differentiable
    assert compiled == [f]
    g = parse("abs(x) - 1")
    for _ in range(5):
        eval_iv(g, -1.0, 1.0)
        with pytest.raises(NotDifferentiable):
            eval_d1(g, -1.0, 1.0)
    assert compiled == [f, g]


def test_constant_beyond_binary64_overflows_in_evaluation_order():
    huge = "1" + "0" * 400
    with pytest.raises(OverflowError):
        eval_iv(parse(f"x + {huge}"), 0.0, 1.0)
    with pytest.raises(DomainError):
        eval_iv(parse(f"log(x) + {huge}"), -1.0, 1.0)
    with pytest.raises(OverflowError):
        eval_d1(parse(f"x^{huge}"), 0.5, 0.9)
    assert eval_iv(parse(f"x^{huge}"), 0.5, 0.9)[0] == 0.0


@pytest.mark.parametrize("lo, hi, error", [
    (1.0, 0.0, ValueError),
    (0.0, -5e-324, ValueError),
    (0.0, math.inf, OverflowError),
    (-math.inf, 0.0, OverflowError),
    (math.inf, math.inf, OverflowError),
    (math.nan, 1.0, OverflowError),
    (0.0, math.nan, OverflowError),
])
def test_ends_that_are_no_interval_raise_as_floatinterval_does(lo, hi, error):
    with pytest.raises(error) as made:
        FloatInterval(lo, hi)
    for run in (eval_iv, eval_d1):
        with pytest.raises(error) as exc:
            run(parse("x + 1"), lo, hi)
        assert str(exc.value) == str(made.value)


def test_result_ends_that_are_no_interval_raise(monkeypatch):
    # a kernel that returned an inverted pair would be caught at the result
    inverted = lambda lo, hi: (1.0, 0.0)  # noqa: E731
    monkeypatch.setitem(expr_mod._APPLY, "sin", (expr_mod._SIN, inverted))
    monkeypatch.setattr(expr_mod, "_sin", inverted)
    with pytest.raises(ValueError, match="inverted interval"):
        eval_iv(parse("sin(x)"), 0.0, 1.0)
    with pytest.raises(ValueError, match="inverted interval"):
        eval_d1(parse("sin(x)"), 0.0, 1.0)
    # and so would an inverted derivative: f' = cos(x) * 1 comes out [2, 1]
    monkeypatch.setattr(expr_mod, "_sin", lambda lo, hi: (0.0, 0.5))
    monkeypatch.setattr(expr_mod, "_cos", lambda lo, hi: (2.0, 1.0))
    with pytest.raises(ValueError, match=r"inverted interval \[2\.0, 1\.0\]"):
        eval_d1(parse("sin(x)"), 0.0, 1.0)


def test_deep_trees_evaluate_without_recursion():
    f = Var()
    for k in range(5_000):
        f = Add(f, Const(Fraction(1))) if k % 2 else Mul(f, Const(Fraction(1, 2)))
    assert eval_iv(f, 0.0, 1.0)[1] <= 2.0
    assert eval_d1(f, 0.0, 1.0)[3] <= 1.0


# ---------------------------------------------------------------------------
# pair-register interpreters against the object interpreters they replaced
# ---------------------------------------------------------------------------

_HUGE = Fraction(10) ** 400
# two binary64 values whose product rounds to max with a positive error, so
# that the upward product steps past max, which raises
_STEP_A, _STEP_B = Fraction(1.4954350870919408), Fraction(1.2021204734189789e+308)
_leaf = st.one_of(
    st.just(Var()),
    st.builds(lambda n, d: Const(Fraction(n, d)), st.integers(0, 40), st.integers(1, 12)),
    st.sampled_from((Const(_HUGE), Const(1 / _HUGE), Const(Fraction(2) ** 1023),
                     Const(_STEP_A), Const(_STEP_B))))


def _grow(children):
    return st.one_of(
        children.map(Neg),
        st.builds(lambda op, l, r: op(l, r), st.sampled_from((Add, Sub, Mul, Div)),
                  children, children),
        st.builds(PowInt, children,
                  st.integers(0, 6) | st.sampled_from((10, 10 ** 8, 10 ** 8 + 1, 10 ** 400))),
        st.builds(Apply, st.sampled_from(("sin", "cos", "exp", "log", "sqrt", "abs")),
                  children))


_exprs = st.recursive(_leaf, _grow, max_leaves=8)
_end = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, 2.0, 700.0, 710.0,
                     1e154, 1e300, _MAXF, -_MAXF)),
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False))


def _ref_outcome(run):
    out = _outcome(run)
    # the object interpreters' outcome, an overflow worded as the kernels word it
    if out[0] == "OverflowError":
        return "OverflowError", ref.mended(out[1])
    return out


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@example(f=parse("sqrt(x) + 1/(x - x)"), x=-1.0, y=1.0)
@example(f=parse("log(x) + 1" + "0" * 400), x=-1.0, y=1.0)
@example(f=parse("x * x + x"), x=1e300, y=_MAXF)
@example(f=parse("(x + 1) * x"), x=1.0, y=_MAXF)   # the upward step from max raises
@example(f=Mul(Mul(Const(_STEP_A), Var()), Const(_STEP_B)), x=1.0, y=1.0)
@example(f=parse("exp(exp(x))"), x=0.0, y=7.0)
@example(f=parse("abs(x) * sin(x)"), x=-0.0, y=0.0)
@given(f=_exprs, x=_end, y=_end)
def test_pair_interpreters_match_object_interpreters(f, x, y):
    lo, hi = min(x, y), max(x, y)
    X, rX = FloatInterval(lo, hi), ref.FloatInterval(lo, hi)
    want = _ref_outcome(lambda: (ref.eval_iv(f, rX),))
    assert _outcome(lambda: _tape_iv(f, X)) == want, (to_source(f), X)
    want = _ref_outcome(lambda: (lambda r: (r.value, r.deriv))(ref.eval_d1(f, rX)))
    assert _outcome(lambda: _tape_d1(f, X)) == want, (to_source(f), X)


# ---------------------------------------------------------------------------
# nesting limit
# ---------------------------------------------------------------------------

def test_nesting_up_to_the_limit_parses_and_roundtrips():
    n = MAX_DEPTH
    for text in ["(" * n + "x" + ")" * n, "sin(" * (n - 1) + "x" + ")" * (n - 1),
                 " + ".join(["x"] * n), "-" * (n - 1) + "x", "(" * (n - 2) + "x^2" + ")" * (n - 2)]:
        e = parse(text)
        assert parse(to_source(e)) == e and hash(e) == hash(parse(text))
        eval_iv(e, 0.0, 1.0)


def test_nesting_beyond_the_limit_is_a_parse_error():
    n = MAX_DEPTH + 1
    for text in ["(" * n + "x" + ")" * n, "sin(" * n + "x" + ")" * n,
                 "(" * 2000 + "x" + ")" * 2000]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.expected == f"at most {MAX_DEPTH} levels of nesting"


def test_long_flat_expressions_parse_roundtrip_and_evaluate():
    n = MAX_DEPTH + 1
    for text, hi in [(" + ".join(["x"] * n), n), (" * ".join(["x"] * n), 1.0),
                     ("-" * n + "x", 0.0), (" + ".join(["x"] * 3000), 3000)]:
        e = parse(text)
        assert parse(to_source(e)) == e and hash(parse(to_source(e))) == hash(e)
        assert eval_iv(e, 0.0, 1.0)[1] == hi


def test_over_long_digit_run_is_a_parse_error_at_its_start():
    run = "9" * 5000
    for text, start in [(run + " * x", 0), ("x + 0." + run, 6), ("x^ " + run, 3)]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.position, exc.value.found) == (start, "5000 digits")
    with pytest.raises(ParseError) as exc:  # a digit int() does not read
        parse("x^\u00b2")
    assert exc.value.position == 2


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_no_walk_of_an_expression_recurses():
    def chains():
        add = Var()
        for _ in range(2_999):
            add = Add(add, Var())
        neg = Var()
        for _ in range(3_000):
            neg = Neg(neg)
        return add, neg, parse(" * ".join(["x"] * 3000))

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        for e, twin in zip(chains(), chains()):
            assert parse(to_source(e)) == e == twin and hash(e) == hash(twin)
            eval_iv(e, 0.0, 1.0)
            eval_d1(e, 0.0, 1.0)
        add = chains()[0]
        cert = loads(dumps(prove_bound(add, 0.0, 1.0)))
        assert check(cert, add, 0.0, 1.0).valid
    finally:
        sys.setrecursionlimit(limit)


_GROUPED = ("({})", "sin({})", "sqrt({})", "({})^2", "x * -({})", "-({})", "2 / ({} - x)")
_FLAT = ("{}", "-{}", "--{}", "---{}", "{} + x", "x - {}", "{} * 0.5", "x / {}",
         "x * -{}", "-x * {}", "{} - -x")


def _source(layers) -> str:
    text = "x"
    for flat, grouped in layers:
        text = grouped.format(flat.format(text))
    return text


_sources = st.lists(st.tuples(st.sampled_from(_FLAT), st.sampled_from(_GROUPED)),
                    max_size=MAX_DEPTH).map(_source)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@example(s=_source([("x * -{}", "x * -({})")] * MAX_DEPTH))
@example(s=_source([("---{}", "-({})")] * MAX_DEPTH))
@given(s=_sources)
def test_printed_text_of_a_parsed_expression_parses_to_it(s):
    e = parse(s)
    again = parse(to_source(e))
    assert again == e and hash(again) == hash(e)
