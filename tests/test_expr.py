"""Parser, printer, and enclosure tests for the expression module.

Random expressions are built as test-local trees (nested tuples) and
written as source text, which the package parses.  Point oracle: mpmath at
50 digits, mirrored over the tree.  Derivative oracle: central finite
differences of the mpmath evaluation.  The pair register interpreters are
also compared, bit for bit, with the recursive evaluators over the tree and
with the object interpreters they replaced, kept in object_kernels.py.
"""

import hashlib
import math
import operator
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
    FUNCTIONS,
    MAX_DEPTH,
    MAX_NODES,
    ParseError,
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


# A test-local expression tree is a nested tuple: ("x",), ("const", q) for
# a rational q >= 0 whose denominator is 2^a * 5^b, ("neg", a), (op, a, b)
# for op in _OPS, ("^", a, n), or (fn, a) for fn in FUNCTIONS.
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_LEAVES = ("x", "const")


def _literal(q: Fraction) -> str:
    """The decimal literal of q."""
    k = 0
    while (q * 10 ** k).denominator != 1:
        k += 1
    digits = str(q * 10 ** k).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}" if k else digits


def _text(e) -> str:
    """Source text of a tree, each operand that is not a leaf in parentheses."""
    def operand(a):
        return _text(a) if a[0] in _LEAVES else f"({_text(a)})"

    tag = e[0]
    if tag == "x":
        return "x"
    if tag == "const":
        return _literal(e[1])
    if tag == "neg":
        return "-" + operand(e[1])
    if tag == "^":
        return f"{operand(e[1])}^{e[2]}"
    if tag in _OPS:
        return f"{operand(e[1])} {tag} {operand(e[2])}"
    return f"{tag}({_text(e[1])})"


_MP = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp,
       "log": mpmath.log, "sqrt": mpmath.sqrt, "abs": abs}


def mp_eval(e, t):
    tag = e[0]
    if tag == "const":
        return mpmath.mpf(e[1].numerator) / e[1].denominator
    if tag == "x":
        return t
    if tag == "neg":
        return -mp_eval(e[1], t)
    if tag in _OPS:
        return _OPS[tag](mp_eval(e[1], t), mp_eval(e[2], t))
    if tag == "^":
        return mp_eval(e[1], t) ** e[2]
    return _MP[tag](mp_eval(e[1], t))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_basic_shapes():
    # a constant's instruction carries its exact value in its unused i slot
    m = expr_mod
    x = (m._VAR, 0, 0, None)
    one, two = (m._CONST, Fraction(1), 0, (1.0, 1.0)), (m._CONST, Fraction(2), 0, (2.0, 2.0))
    tenth = (m._CONST, Fraction(1, 10), 0,
             (numeric.float_down(Fraction(1, 10)), numeric.float_up(Fraction(1, 10))))
    assert parse("x^2 - 2").code == (x, (m._POW, 0, 2, (2.0, 2.0)), two, (m._SUB, 1, 2, None))
    assert parse("sin(x)*exp(x)").code == (
        x, (m._SIN, 0, 0, numeric._sin), x, (m._EXP, 2, 0, numeric._exp), (m._MUL, 1, 3, None))
    assert parse("0.1").code == (tenth,)
    assert parse("-x^2").code == (x, (m._POW, 0, 2, (2.0, 2.0)), (m._NEG, 1, 0, None))
    assert parse("-x*x").code == (x, (m._NEG, 0, 0, None), x, (m._MUL, 1, 2, None))
    assert parse(" ( x + 1 ) / ( x - 1 ) ").code == (
        x, one, (m._ADD, 0, 1, None), x, one, (m._SUB, 3, 4, None), (m._DIV, 2, 5, None))
    huge = Fraction(10 ** 400)
    assert parse("1" + "0" * 400).code == ((m._HUGE, huge, 0, huge),)


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
    with pytest.raises(ParseError) as exc:  # a number needs a digit
        parse(".")
    assert (exc.value.position, exc.value.expected) == (1, "digits")


def test_exact_decimal_literals():
    e = parse("0.1")
    assert e.code[0][1] == Fraction(1, 10)
    lo, hi = eval_iv(e, 0, 1)
    assert Fraction(lo) <= Fraction(1, 10) <= Fraction(hi)
    assert hi == math.nextafter(lo, math.inf)  # tightest enclosure


def test_equality_reads_each_constant_exactly():
    # two constants in one float enclosure are two expressions, and each
    # prints to text that parses back to it
    tenth, near = parse("0.1 * x"), parse("0.10000000000000000001 * x")
    assert eval_iv(tenth, 0.0, 1.0) == eval_iv(near, 0.0, 1.0)
    assert tenth.code[0][3] == near.code[0][3] and tenth != near
    for e in (tenth, near, parse("1" + "0" * 400 + " - x")):
        again = parse(to_source(e))
        assert again == e and hash(again) == hash(e)


def test_abs_takes_the_generalized_derivative():
    # u' where u >= 0 on the piece, -u' where u <= 0, else the hull of both
    f = parse("abs(x)")
    assert eval_d1(f, -1.0, 1.0) == (0.0, 1.0, -1.0, 1.0)
    assert eval_d1(f, 0.0, 1.0) == (0.0, 1.0, 1.0, 1.0)
    assert eval_d1(f, -1.0, -0.0) == (0.0, 1.0, -1.0, -1.0)


# ---------------------------------------------------------------------------
# printing round-trip
# ---------------------------------------------------------------------------

def _rand_expr(rng: random.Random, depth: int, fns=FUNCTIONS):
    """A random tree."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ("x",)
        if rng.random() < 0.5:
            return ("const", Fraction(rng.randint(0, 30)))
        return ("const", Fraction(rng.randint(1, 400), 10 ** rng.randint(1, 3)))
    kind = rng.randrange(8)
    if kind < 4:
        return ("+-*/"[kind], _rand_expr(rng, depth - 1, fns), _rand_expr(rng, depth - 1, fns))
    if kind == 4:
        return ("neg", _rand_expr(rng, depth - 1, fns))
    if kind == 5:
        return ("^", _rand_expr(rng, depth - 1, fns), rng.randrange(0, 5))
    return (rng.choice(fns), _rand_expr(rng, depth - 1, fns))


def test_print_parse_roundtrip_fixed():
    for s in ["x^2 - 2", "sin(x)*exp(x)", "-x^2", "x*(-x)", "1 - 2 - 3",
              "x/(x + 1)/(x + 2)", "(x + 1)^3", "sqrt(x^2 + 1)", "0.25*x + 1.5"]:
        e = parse(s)
        assert parse(to_source(e)) == e


def test_print_parse_roundtrip_random():
    rng = random.Random(202)
    for _ in range(500):
        e = parse(_text(_rand_expr(rng, 4)))
        assert parse(to_source(e)) == e, to_source(e)


def test_constant_longer_than_one_int_to_str_conversion_prints():
    # CPython converts at most sys.get_int_max_str_digits() digits (4,300 by
    # default) between int and str in one piece; the printer converts in
    # chunks, so the text is the same under the smallest limit
    text = "x - 1" + "0" * 299 + "." + "1" * 4100
    e = parse(text)
    digits = "1" + "0" * 3999 + "7"  # within the default limit, so parse reads it
    big = parse(digits)
    limit = sys.get_int_max_str_digits()
    try:
        for at in (limit, 640):
            sys.set_int_max_str_digits(at)
            assert to_source(e) == text
            assert to_source(big) == digits
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
            return ("x",)
        if r < 0.7:
            return ("const", Fraction(rng.randint(1, 9)))
        return ("const", Fraction(rng.randint(1, 50), 10))
    kind = rng.randrange(9)
    if kind in (0, 1):
        return ("+", _safe_expr(rng, depth - 1, allow_abs), _safe_expr(rng, depth - 1, allow_abs))
    if kind == 2:
        return ("-", _safe_expr(rng, depth - 1, allow_abs), _safe_expr(rng, depth - 1, allow_abs))
    if kind in (3, 4):
        return ("*", _safe_expr(rng, depth - 1, allow_abs), _safe_expr(rng, depth - 1, allow_abs))
    if kind == 5:
        denom = ("+", ("^", ("x",), 2), ("const", Fraction(rng.randint(1, 4))))
        return ("/", _safe_expr(rng, depth - 1, allow_abs), denom)
    if kind == 6:
        return ("^", _safe_expr(rng, depth - 1, allow_abs), rng.randrange(0, 4))
    if kind == 7:
        fns = ["sin", "cos", "exp"] + (["abs"] if allow_abs else [])
        return (rng.choice(fns), _safe_expr(rng, depth - 1, allow_abs))
    guarded = ("+", ("^", ("x",), 2), ("const", Fraction(rng.randint(1, 3))))
    return (rng.choice(["log", "sqrt"]), guarded)


def test_fundamental_containment_fuzz():
    rng = random.Random(203)
    done = 0
    while done < 2_000:
        f = _safe_expr(rng, 3, allow_abs=True)
        lo = rng.uniform(-3, 3)
        X = FloatInterval(lo, lo + rng.uniform(0, 2))
        try:
            lo_f, hi_f = eval_iv(parse(_text(f)), X.lo, X.hi)
        except (DomainError, OverflowError):
            continue
        for _ in range(5):
            t = rng.uniform(X.lo, X.hi)
            t = min(max(t, X.lo), X.hi)
            v = mp_eval(f, mpmath.mpf(t))
            assert mpmath.mpf(lo_f) <= v <= mpmath.mpf(hi_f), (_text(f), X, t)
            done += 1


def test_derivative_containment_fuzz():
    rng = random.Random(204)
    done = 0
    while done < 600:
        f = _safe_expr(rng, 3, allow_abs=False)
        lo = rng.uniform(-3, 3)
        X = FloatInterval(lo, lo + rng.uniform(0.01, 1.5))
        try:
            _, _, dlo, dhi = eval_d1(parse(_text(f)), X.lo, X.hi)
        except (DomainError, OverflowError):
            continue
        width = X.hi - X.lo
        h = mpmath.mpf(1e-6) * width
        for _ in range(3):
            t = rng.uniform(X.lo + 2e-6 * width, X.hi - 2e-6 * width)
            fd = (mp_eval(f, mpmath.mpf(t) + h) - mp_eval(f, mpmath.mpf(t) - h)) / (2 * h)
            scale = mpmath.mpf(1e-4) * (1 + abs(fd))
            assert mpmath.mpf(dlo) - scale <= fd <= mpmath.mpf(dhi) + scale, \
                (_text(f), X, t)
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


def _context(e) -> str:
    """The package's text of the subtree e, as a DomainError names it."""
    return to_source(parse(_text(e)))


def _ref_eval(e, X):
    tag = e[0]
    if tag == "const":
        return _enclose(e[1])
    if tag == "x":
        return X
    if tag == "neg":
        return _neg(_ref_eval(e[1], X))
    if tag == "+":
        return _ref_eval(e[1], X) + _ref_eval(e[2], X)
    if tag == "-":
        return _minus(_ref_eval(e[1], X), _ref_eval(e[2], X))
    if tag == "*":
        return _ref_eval(e[1], X) * _ref_eval(e[2], X)
    if tag == "/":
        return _ref_eval(e[1], X) / _ref_eval(e[2], X)
    if tag == "^":
        return iv_pow(_ref_eval(e[1], X), e[2])
    arg = _ref_eval(e[1], X)
    try:
        return _REF_APPLY[tag](arg)
    except DomainError as err:  # named by the application that failed
        err.context = _context(e)
        raise


_REF_APPLY = {"sin": iv_sin, "cos": iv_cos, "exp": iv_exp, "log": iv_log,
              "sqrt": iv_sqrt, "abs": _iv_abs}


def _ref_eval_d(e, X):
    tag = e[0]
    if tag == "const":
        return _enclose(e[1]), FloatInterval(0.0, 0.0)
    if tag == "x":
        return X, FloatInterval(1.0, 1.0)
    if tag == "neg":
        v, d = _ref_eval_d(e[1], X)
        return _neg(v), _neg(d)
    if tag in _OPS:
        lv, ld = _ref_eval_d(e[1], X)
        rv, rd = _ref_eval_d(e[2], X)
        if tag == "+":
            return lv + rv, ld + rd
        if tag == "-":
            return _minus(lv, rv), _minus(ld, rd)
        if tag == "*":
            return lv * rv, ld * rv + lv * rd
        val = lv / rv
        return val, _minus(ld * rv, lv * rd) / iv_sqr(rv)
    if tag == "^":
        bv, bd = _ref_eval_d(e[1], X)
        n = e[2]
        val = iv_pow(bv, n)
        if n == 0:
            return val, FloatInterval(0.0, 0.0)
        coeff = _enclose(Fraction(n))
        return val, coeff * iv_pow(bv, n - 1) * bd
    av, ad = _ref_eval_d(e[1], X)
    try:
        if tag == "sin":
            return iv_sin(av), iv_cos(av) * ad
        if tag == "cos":
            return iv_cos(av), _neg(iv_sin(av)) * ad
        if tag == "exp":
            ev = iv_exp(av)
            return ev, ev * ad
        if tag == "log":
            return iv_log(av), ad / av
        if tag == "sqrt":
            sv = iv_sqrt(av)
            return sv, ad / (FloatInterval(2.0, 2.0) * sv)
    except (DomainError, DivisionByZeroInterval) as err:
        if isinstance(err, DomainError):
            err.context = _context(e)
            raise
        derr = DomainError(tag, av, "derivative unbounded (argument range touches the domain boundary)")
        derr.context = _context(e)
        raise derr from None
    # abs, by Clarke's generalized derivative: the hull of -u' and u' where u may vanish
    if av.lo >= 0.0:
        return _iv_abs(av), ad
    if av.hi <= 0.0:
        return _iv_abs(av), _neg(ad)
    m = max(-ad.lo, ad.hi)
    return _iv_abs(av), FloatInterval(-m, m)


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
    except (DivisionByZeroInterval, OverflowError) as err:
        return type(err).__name__, str(err)


def _ref_iv(f, X):
    try:
        return (_ref_eval(f, X),)
    except (DomainError, DivisionByZeroInterval) as err:
        raise _ref_annotate(err, X) from None


def _ref_d1(f, X):
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
        tree = _rand_expr(rng, rng.randint(1, 5), fns)
        f = parse(_text(tree))
        for _ in range(3):
            X = _rand_piece(rng)
            want = _outcome(lambda: _ref_iv(tree, X))
            assert _outcome(lambda: _tape_iv(f, X)) == want, (to_source(f), X)
            want_d = _outcome(lambda: _ref_d1(tree, X))
            assert _outcome(lambda: _tape_d1(f, X)) == want_d, (to_source(f), X)
            seen.add(want[0])
            seen.add(want_d[0])
    assert seen == {"ok", "domain", "OverflowError"}


def test_domain_error_context_is_the_failing_application():
    # both interpreters name the application that failed, not one around it
    f = parse("1 + exp(sqrt(log(x)))")
    with pytest.raises(DomainError) as exc:
        eval_iv(f, 0.5, 0.6)
    assert (exc.value.fn, exc.value.context) == ("sqrt", "sqrt(log(x))")
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
    # a chain 5,000 operations deep: x halved 2,500 times, then 2,500 ones added
    f = parse("x" + " * 0.5" * 2_500 + " + 1" * 2_500)
    assert eval_iv(f, 0.0, 1.0)[1] <= 2_501.0
    assert eval_d1(f, 0.0, 1.0)[3] <= 1.0


# ---------------------------------------------------------------------------
# pair-register interpreters against the object interpreters they replaced
# ---------------------------------------------------------------------------

_HUGE = Fraction(10) ** 400
# two binary64 values whose product rounds to max with a positive error, so
# that the upward product steps past max, which raises
_STEP_A, _STEP_B = Fraction(1.4954350870919408), Fraction(1.2021204734189789e+308)
# source texts, each operand in parentheses
_leaf = st.one_of(
    st.just("x"),
    st.builds(lambda n, d: f"{n} / {d}", st.integers(0, 40), st.integers(1, 12)),
    st.builds(lambda n, k: _literal(Fraction(n, 10 ** k)), st.integers(0, 400), st.integers(0, 3)),
    st.sampled_from(tuple(map(_literal, (_HUGE, 1 / _HUGE, Fraction(2) ** 1023,
                                         _STEP_A, _STEP_B))))).map("({})".format)


def _grow(children):
    return st.one_of(
        children.map("-{}".format),
        st.builds(lambda op, l, r: f"({l} {op} {r})", st.sampled_from("+-*/"),
                  children, children),
        st.builds("({})^{}".format, children,
                  st.integers(0, 6) | st.sampled_from((10, 10 ** 8, 10 ** 8 + 1, 10 ** 400))),
        st.builds(lambda fn, c: f"{fn}({c})", st.sampled_from(FUNCTIONS), children))


_exprs = st.recursive(_leaf, _grow, max_leaves=8).map(parse)
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
@example(f=parse(f"{_literal(_STEP_A)} * x * {_literal(_STEP_B)}"), x=1.0, y=1.0)
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


def test_more_nodes_than_the_limit_is_a_parse_error():
    at_limit = "-" + " + ".join(["x"] * (MAX_NODES // 2))
    assert len(parse(at_limit).code) == MAX_NODES
    for text in (at_limit + " + x", "-" * MAX_NODES + "x"):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.expected, exc.value.found) == (f"at most {MAX_NODES} nodes", "more")


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
        return (parse(" + ".join(["x"] * 3000)), parse("-" * 3000 + "x"),
                parse(" * ".join(["x"] * 3000)))

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
    assert str(e) == to_source(e) and e != 3 and not e == to_source(e)


# ---------------------------------------------------------------------------
# a digest of printing and evaluation over seeded random sources
# ---------------------------------------------------------------------------

_MAX_DIGITS = str(int(_MAXF))
_DIGEST_LEAVES = (
    "x", "0", "7", "0.5", "2.25", "0.1", "0.30000000000000004",
    "1" + "0" * 400,                    # beyond binary64
    _MAX_DIGITS,                        # max itself
    str(int(_MAXF) + 2 ** 970),         # the first value float() rounds past max
    "0." + "0" * 330 + "7",             # below the least subnormal
    "0." + "0" * 323 + "5",             # about the least subnormal
)
_DIGEST_PIECES = ((-2.0, 2.0), (0.25, 0.5), (-0.0, 0.0), (1.0, 900.0))
# sha256 of the records of 2,000 sources, as the tree-building parser and
# its compiled tape printed and evaluated them; the eval_d1 records of
# sources with abs are those of its generalized derivative, and each
# DomainError names the application that failed
_DIGEST = "047f20af9bfe124e1e5afe212c31bf24f1e1607b2f798fdfab6b7f8cf4d56fc9"


def _digest_source(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_DIGEST_LEAVES)
    kind = rng.randrange(6)
    inner = _digest_source(rng, depth - 1)
    if kind == 0:
        return f"({inner}) {rng.choice('+-*/')} ({_digest_source(rng, depth - 1)})"
    if kind == 1:  # a unary minus chain
        return "-" * rng.randint(1, 4) + (inner if inner in _DIGEST_LEAVES else f"({inner})")
    if kind == 2:
        return f"({inner})^{rng.choice((0, 1, 2, 3, 7, 10 ** 8 + 1, 10 ** 400))}"
    if kind == 3:  # nested sqrt, log and abs
        for _ in range(rng.randint(1, 3)):
            inner = f"{rng.choice(('sqrt', 'log', 'abs'))}({inner})"
        return inner
    return f"{rng.choice(('sin', 'cos', 'exp', 'log', 'sqrt', 'abs'))}({inner})"


def _digest_outcome(run, lo, hi):
    try:
        return "ok", tuple(float_to_hex(v) for v in run(lo, hi))
    except (DomainError, OverflowError, ValueError) as err:
        return (type(err).__name__, str(err), getattr(err, "fn", None),
                getattr(err, "context", None))


def test_printing_and_evaluation_digest():
    rng = random.Random(207)
    records = []
    for _ in range(2_000):
        e = parse(_digest_source(rng, rng.randint(1, 5)))
        text = to_source(e)
        records.append((text, parse(text) == e))
        for lo, hi in _DIGEST_PIECES:
            records.append(_digest_outcome(lambda u, v: eval_iv(e, u, v), lo, hi))
            records.append(_digest_outcome(lambda u, v: eval_d1(e, u, v), lo, hi))
    digest = hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()
    assert digest == _DIGEST
