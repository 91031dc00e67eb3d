"""Driver-level tests: each prover against an independent oracle."""

import math
import random
from unittest import mock
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suparg.certificates import (
    DarbouxPlan,
    IntegralCert,
    LipschitzCert,
    MaxCert,
    ModulusCert,
    MonotoneCert,
    MviCert,
    NegCert,
    Partition,
    RootBracket,
    check,
    piece_count,
)
from suparg.numeric import DomainError, FloatInterval
from suparg import theorems
from suparg.sweep import FailureKind, Problem, SweepFailure, run_sweep
from suparg.theorems import (
    prove_bound,
    prove_flat,
    prove_integral,
    prove_max,
    prove_modulus,
    prove_monotone,
    prove_mvi,
    prove_root,
)
from suparg.expr import eval_d1, parse
from test_certificates import overlap_modulus

mpmath.mp.dps = 50


def bisect_oracle(fn, lo, hi, steps=200):
    """Plain float bisection, independent of the interval machinery."""
    flo = fn(lo)
    assert flo < 0 < fn(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# bounds and maxima
# ---------------------------------------------------------------------------

def test_bound_sin():
    cert = prove_bound("sin(x)", 0.0, 3.0)
    assert check(cert)
    assert 1.0 <= cert.bound <= 1.0001


def test_bound_constant():
    cert = prove_bound("5", 0.0, 1.0)
    assert check(cert)
    assert cert.bound == 5.0


def test_bound_negative_function_still_positive_M():
    cert = prove_bound("-x - 1", 0.0, 1.0)
    assert check(cert)
    assert cert.bound > 0.0  # forced positive per the theorem's M > 0


def test_bound_domain_error():
    with pytest.raises(DomainError):
        prove_bound("log(x)", -1.0, 1.0)


def test_max_sin():
    cert = prove_max("sin(x)", 0.0, 3.0, 1e-3)
    assert check(cert)
    assert abs(cert.c - math.pi / 2) < 0.1
    assert cert.f_at_c_lo >= 1 - 1e-3


def test_max_constant():
    cert = prove_max("5", 0.0, 1.0, 0.25)
    assert check(cert)
    assert 0.0 <= cert.c <= 1.0


def test_max_at_right_endpoint():
    cert = prove_max("x", 0.0, 1.0, 1e-6)
    assert check(cert)
    assert cert.c >= 1 - 1e-6


# ---------------------------------------------------------------------------
# the coarse-to-fine driver: a pass at 64 eps seeds the final pass
# ---------------------------------------------------------------------------

def test_max_of_a_cubic_at_a_fine_eps_takes_few_pieces():
    # one pass from a bar that starts low ran out of its 2**20 pieces here
    cert = prove_max("x^3 - x", -1.0, 1.5, 1e-6)
    assert isinstance(cert, MaxCert) and check(cert)
    assert piece_count(cert) <= 64


def _plain_outcome(src, a, b, theorem, **params):
    """The plain sweep's failure, or the error it raises, as fields."""
    try:
        out = run_sweep(Problem(parse(src), a, b, theorem, **params))
    except DomainError as err:
        return type(err), str(err), err.piece
    assert isinstance(out, SweepFailure)
    return out, str(out)


@pytest.mark.parametrize("prove,src,a,b,params", [
    (prove_max, "sin(x)*exp(x)", 0.0, 4.0, {"eps": 1e-3, "max_pieces": 2}),
    (prove_max, "log(x)", 0.0, 1.0, {"eps": 1e-3}),
    # the pass at 64 eps certifies the point, and the final pass does not
    (prove_max, "sin(x)", 0.5, 0.5, {"eps": 2e-17}),
    (prove_max, "sin(x)", 0.5, 0.5, {"eps": 1e-300}),
    (prove_integral, "x^3 - x", -1.0, 1.5, {"eps": 1e-3, "max_pieces": 2}),
    (prove_integral, "log(x)", 0.0, 1.0, {"eps": 1e-3}),
], ids=["evt-budget", "evt-domain", "evt-point-final", "evt-point", "dit-budget", "dit-domain"])
def test_driver_failures_are_the_plain_sweeps(prove, src, a, b, params):
    want = _plain_outcome(src, a, b, "evt" if prove is prove_max else "dit", **params)
    try:
        out = prove(src, a, b, **params)
    except DomainError as err:
        assert (type(err), str(err), err.piece) == want
    else:
        assert (out, str(out)) == want


def test_seeded_maximizer_is_checked_at_its_own_c():
    # the seed's c and f_at_c_lo are the final certificate's, and the
    # checker evaluates f at c again: the maximum is at b, f(1.5) = 1.875
    cert = prove_max("x^3 - x", -1.0, 1.5, 1e-4)
    assert check(cert) and (cert.c, cert.f_at_c_lo) == (1.5, 1.875)
    for tampered in (cert._replace(c=math.nextafter(cert.c, -math.inf)),
                     cert._replace(c=math.nextafter(cert.c, math.inf)),
                     cert._replace(f_at_c_lo=math.nextafter(cert.f_at_c_lo, math.inf))):
        assert not check(tampered)


def _evaluations_per_pass(monkeypatch, prove, *args, **kwargs):
    """The result of prove and the eval_iv calls each of its sweeps made."""
    import suparg.sweep as sweep_mod
    calls, passes = [0], []
    real_eval, real_run = sweep_mod.eval_iv, theorems.run_sweep

    def counted_eval(f, lo, hi):
        calls[0] += 1
        return real_eval(f, lo, hi)

    def counted_run(p):
        before = calls[0]
        out = real_run(p)
        passes.append(calls[0] - before)
        return out

    monkeypatch.setattr(sweep_mod, "eval_iv", counted_eval)
    monkeypatch.setattr(theorems, "run_sweep", counted_run)
    return prove(*args, **kwargs), passes


@pytest.mark.parametrize("src,a,b", [("x^3 - x", -1.0, 1.5), ("sin(x)", 0.0, 3.14159)])
def test_dit_plan_costs_a_sixteenth_of_the_final_pass(monkeypatch, src, a, b):
    # 669 of 16,314 and 255 of 6,005 calls
    cert, passes = _evaluations_per_pass(monkeypatch, prove_integral, src, a, b, 1e-3)
    assert isinstance(cert, IntegralCert) and check(cert)
    assert len(passes) == 2 and 16 * passes[0] <= passes[1]


def test_seeded_maximum_evaluates_few_candidate_points(monkeypatch):
    # 246 + 376 calls; one pass evaluated two candidate points a probe, and
    # took 10,164 calls for 3,382 pieces
    cert, passes = _evaluations_per_pass(monkeypatch, prove_max, "sin(x)*exp(x)", 0.0, 4.0, 1e-3)
    assert isinstance(cert, MaxCert) and check(cert)
    assert len(passes) == 2 and sum(passes) <= 1000


def test_plan_past_the_piece_budget_leaves_one_full_sweep(monkeypatch):
    # the planned pass needs about 16,300 pieces against a budget of
    # 12,000: its BUDGET failure is the result, and no plain sweep spends
    # the budget again (alone it runs out at -0.05628669555469993)
    out, passes = _evaluations_per_pass(monkeypatch, prove_integral, "x^3 - x", -1.0, 1.5,
                                        1e-3, max_pieces=12_000)
    assert isinstance(out, SweepFailure) and out.kind is FailureKind.BUDGET
    assert out.at == 1.007972922236664
    assert len(passes) == 2


@pytest.mark.parametrize("src, a, b, max_pieces, calls", [
    ("x^3 - x", -1.0, 1.5, 16_200, 17_000),
    ("sin(x)", 0.0, 3.14159, 5_950, 6_500),
], ids=["cubic", "sine"])
def test_a_budget_just_below_the_planned_pass_is_spent_once(monkeypatch, src, a, b,
                                                             max_pieces, calls):
    # the plan estimates about 1 % fewer pieces than its pass takes, and a
    # budget in that band once ran the planned pass to BUDGET and then the
    # plain sweep too: 33,094 and 12,182 calls
    out, passes = _evaluations_per_pass(monkeypatch, prove_integral, src, a, b, 1e-3,
                                        max_pieces=max_pieces)
    assert isinstance(out, SweepFailure) and out.kind is FailureKind.BUDGET
    assert len(passes) == 2 and sum(passes) <= calls


def test_a_planned_pass_that_rounding_refuses_leaves_the_plain_sweep():
    # at 1e9 the rounding of the sums eats the planned pass's 1/32 share of
    # eps, and only the plain sweep's half of eps certifies
    cert = prove_integral("1000000000 + x", 0.0, 1.0, 1e-3)
    assert isinstance(cert, IntegralCert) and check(cert)


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_root_sqrt2_bracket():
    cert = prove_root("x^2 - 2", 0.0, 2.0, 1e-9)
    assert isinstance(cert, RootBracket)
    assert check(cert)
    assert cert.r - cert.l <= 1e-9
    root = 1.414213562373095
    assert cert.l <= root <= cert.r
    olo, ohi = bisect_oracle(lambda t: t * t - 2, 0.0, 2.0)
    assert cert.l <= ohi and olo <= cert.r  # brackets agree


@pytest.mark.parametrize("fn, a, b, tol, first_stall, root", [
    ("x^2 - 2", 0.0, 2.0, 1e-15, 1.4142135623729233, mpmath.sqrt(2)),
    ("x - x + x - 1.25", 0.0, 2.0, 1e-14, None, mpmath.mpf(1.25)),
], ids=["sqrt2", "cancelling"])
def test_root_resweep_shrinks_the_first_bracket(fn, a, b, tol, first_stall, root):
    # a tol below the first pass's h_min needs a second sweep over [l, r],
    # which moves l past the first pass's stall
    first = prove_root(fn, a, b, 1e-3)
    assert first_stall is None or first.l == first_stall
    assert first.r - first.l > tol
    cert = prove_root(fn, a, b, tol)
    assert isinstance(cert, RootBracket) and check(cert)
    assert cert.l > first.l and cert.r - cert.l <= tol
    assert cert.l <= root <= cert.r


_ROOT_FAMILIES = {
    # source template, domain, range of c in thousandths, the exact root from c;
    # c keeps f' away from 0 at the root, where the signs left undecided by
    # rounding span more than 1e-15
    "x - {c}": ((-2.0, 2.0), (-1900, 1900), lambda c: c),
    "x^3 - {c}": ((-2.0, 2.0), (-7000, 7000), lambda c: mpmath.sign(c) * mpmath.cbrt(abs(c))),
    "exp(x) - {c}": ((-2.0, 2.0), (400, 2700), mpmath.log),
    "sin(x) - {c}": ((-1.5, 1.5), (-600, 600), mpmath.asin),
}


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from(sorted(_ROOT_FAMILIES)), data=st.data(),
       tol=st.sampled_from([1e-3, 1e-10, 1e-15]))
def test_root_bracket_holds_the_exact_root(family, data, tol):
    (a, b), (k_lo, k_hi), solve = _ROOT_FAMILIES[family]
    k = data.draw(st.integers(k_lo, k_hi))
    fn = family.format(c=f"({k / 1000!r})")
    with mock.patch.object(theorems, "eval_iv", wraps=theorems.eval_iv) as spy:
        cert = prove_root(fn, a, b, tol)
    assert isinstance(cert, RootBracket) and check(cert), (fn, cert)
    assert Fraction(cert.r) - Fraction(cert.l) <= Fraction(tol)
    assert cert.l <= solve(mpmath.mpf(k) / 1000) <= cert.r
    if tol == 1e-10:
        # f(a), f(l) and the climb of a single pass
        assert spy.call_count <= 5, (fn, spy.call_count)


def test_root_bracket_whose_h_min_underflows_stalls():
    # a root at 0 and a tol below 2**-1034: the bracket's h_min,
    # (r - l) * 2**-40, underflows before the bracket is within tol, and the
    # failure's witness is that bracket
    res = prove_root("x", -1.0, 1.0, 1e-320)
    l, r = -5.0066753534e-314, 1.19692909744e-313
    assert res == SweepFailure(FailureKind.STALLED, l, FloatInterval(l, r), detail=(
        f"sign undecidable everywhere inside [{l!r}, {r!r}] (width {r - l!r} > tol 1e-320)"))


def test_root_sweep_out_of_pieces_is_returned():
    res = prove_root("x^2 - 2", 0.0, 2.0, 1e-9, max_pieces=2)
    assert isinstance(res, SweepFailure) and res.kind is FailureKind.BUDGET
    assert str(res) == "budget at 0.5; piece budget 2 exhausted"


def test_root_never_crossing_gives_negativity():
    cert = prove_root("x - 3", 0.0, 1.0, 1e-9)
    assert isinstance(cert, NegCert)
    assert check(cert)


def test_root_precondition():
    # f(a) > 0 refutes the hypothesis f(a) < 0 at the point a itself
    res = prove_root("x^2", -1.0, 1.0, 1e-9)
    assert res == SweepFailure(
        FailureKind.HYPOTHESIS_FAIL, -1.0, FloatInterval(-1.0, -1.0), FloatInterval(1.0, 1.0),
        "f(a) is not certified negative: enclosure [1.0, 1.0] at a = -1.0")


def test_root_tangential_touch_inconclusive():
    # crosses zero nowhere but touches at 0: negativity holds neither side,
    # and the sweep's own stall, with no certified-positive point past it,
    # is returned as it is
    res = prove_root("-(x^2)", -1.0, 1.0, 1e-9)
    assert isinstance(res, SweepFailure) and res.kind is FailureKind.STALLED
    assert -1e-12 < res.at < 0.0 and res.witness is res.enclosure is None
    assert res.detail == "no certifiable piece down to h_min = 1.8189894035458565e-12"
    assert res == run_sweep(Problem(parse("-(x^2)"), -1.0, 1.0, "ivt"))


def test_root_linear_half():
    cert = prove_root("x - 0.5", 0.0, 1.0, 1e-9)
    assert isinstance(cert, RootBracket)
    assert cert.l <= 0.5 <= cert.r
    assert check(cert)


# ---------------------------------------------------------------------------
# uniform continuity
# ---------------------------------------------------------------------------

def grid_modulus_violations(fn, cert: ModulusCert, n=2000):
    lo, hi = cert.a, cert.b
    grid = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    vals = [fn(t) for t in grid]
    bad = 0
    for i, s in enumerate(grid):
        j = i + 1
        while j < n and grid[j] - s < cert.delta:
            if not abs(vals[i] - vals[j]) < cert.eps:
                bad += 1
            j += 1
    return bad


def test_modulus_identity():
    cert = prove_modulus("x", 0.0, 1.0, 0.1)
    assert check(cert)
    assert cert.delta > 0
    assert grid_modulus_violations(lambda t: t, cert) == 0


def test_modulus_constant():
    cert = prove_modulus("7", 0.0, 1.0, 1e-6)
    assert check(cert)
    assert cert.delta > 0


# f oscillates by less than eps over [a, b], so the one piece [a, b] holds
# every pair and delta is b - a, not the (b - a) / 8 that the overlap
# sweep's widest piece allows.  The wave's |f'| reaches 10, so the
# mean-value route would state about eps / 20
@pytest.mark.parametrize("src, eps", [("3", 0.5), ("0.01*sin(1000*x)", 0.1),
                                      ("0.01*abs(x - 0.5)", 0.1)],
                         ids=["constant", "steep-small-wave", "flat-abs"])
def test_modulus_of_f_flat_within_eps_is_the_whole_domain(src, eps):
    cert = prove_modulus(src, 0.0, 1.0, eps)
    assert isinstance(cert, ModulusCert) and check(cert)
    assert (cert.delta, piece_count(cert)) == (1.0, 1)
    assert overlap_modulus(src, 0.0, 1.0, eps).delta == 0.125


def test_modulus_of_a_steep_small_wave_on_a_slope_is_below_the_overlap_delta():
    # A known gap: the wave's slope, not its amplitude, bounds the
    # mean-value route's delta.  Over [a, b] f oscillates by more than eps,
    # so the whole domain does not certify, but each of the overlap
    # sweep's widest pieces oscillates by less, and its delta is 25 times
    # the one stated
    src, a, b, eps = "0.01*sin(1000*x) + 0.1*x", 0.0, 1.0, 0.05
    cert, overlap = prove_modulus(src, a, b, eps), overlap_modulus(src, a, b, eps)
    assert isinstance(cert, LipschitzCert) and check(cert) and check(overlap)
    assert (cert.delta, overlap.delta) == (0.004950495049504949, 0.12499999999999989)


def test_modulus_sin():
    cert = prove_modulus("sin(x)", 0.0, 4.0, 0.1)
    assert check(cert)
    assert cert.delta > 1e-4
    assert grid_modulus_violations(math.sin, cert) == 0


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def test_integral_parabola():
    cert = prove_integral("x^2", 0.0, 1.0, 1e-3)
    assert isinstance(cert, IntegralCert)
    assert check(cert)
    assert Fraction(cert.lower_sum) <= Fraction(1, 3) <= Fraction(cert.upper_sum)
    assert cert.upper_sum - cert.lower_sum < 1e-3


def test_integral_constant_exact():
    cert = prove_integral("7", 2.0, 5.0, 1e-6)
    assert check(cert)
    assert cert.lower_sum == 21.0 == cert.upper_sum


def test_integral_sin_against_antiderivative():
    b = 3.14159
    cert = prove_integral("sin(x)", 0.0, b, 1e-3)
    assert check(cert)
    truth = float(1 - mpmath.cos(mpmath.mpf("3.14159")))
    assert cert.lower_sum <= truth <= cert.upper_sum
    assert cert.upper_sum - cert.lower_sum < 1e-3


def test_integral_degenerate_zero():
    cert = prove_integral("x^2", 1.0, 1.0, 1e-6)
    assert check(cert)
    assert cert.lower_sum == 0.0 == cert.upper_sum


@pytest.mark.parametrize("src,rate,a,b,kinks", [
    ("sin(x)", lambda t: abs(mpmath.cos(t)), 0.0, 3.14159, [mpmath.pi / 2]),
    ("x^3 - x", lambda t: 3 * t ** 2 + 1, -1.0, 1.5, []),
], ids=["sin", "cubic"])
def test_integral_piece_count_near_the_lower_bound(src, rate, a, b, kinks):
    # rate is the width per unit width of the natural extension's enclosure:
    # |f'| for sin, whose enclosure is its range, but 3 t^2 + 1 for x^3 - x,
    # whose two terms' widths add.  A piece [u, v] (one without a turning
    # point of sin) then has gap at least (v - u) * (integral of rate over
    # it), at least (integral of sqrt(rate) over it)^2, so by Cauchy-Schwarz
    # a gap below eps takes about (integral of sqrt(rate))^2 / eps pieces
    eps = 1e-3
    points = [mpmath.mpf(a), *kinks, mpmath.mpf(b)]
    bound = int(mpmath.ceil(mpmath.quad(lambda t: mpmath.sqrt(rate(t)), points) ** 2 / eps))
    cert = prove_integral(src, a, b, eps)
    assert check(cert)
    assert len(cert.piece_lo) <= 2.5 * bound
    prefix = run_sweep(Problem(parse(src), a, b, "dit", eps=eps))
    assert len(cert.piece_lo) <= len(prefix.piece_lo)
    # the plan this certificate gives a finer sweep is spent at b and past it
    plan = DarbouxPlan.of(cert)
    assert plan.remaining(b) == 0.0 == plan.remaining(b + 1.0) < plan.remaining(a)


# Pieces, and uct's delta, of small problems.  Widths on the lattice
# h_init * 2**-k took 289, 1923, 1984 and 397 uct pieces and 2026, 636 and
# 12748 dit pieces here.  On the overlap route delta is the least overlap
# of the stored pieces; a rule that halved every overlap and the first
# piece gave exactly half of each, on the same pieces, and one that also
# halved every forward piece, which the last piece, clipped at b, can make a
# sliver, fell to 1.77e-4 on x^3 - x and 1.23e-4 on sin(x)*exp(x).  The
# mean-value route, which prove_modulus takes for these f, states eps / L
# from 8 pieces of width h_init, 1.3-3.0 times the overlap route's delta.  dit
# plans from a pass at 64 eps and spends 31/32 of eps; a plan from 16 eps
# that spent 7/8 took 1806, 589 and 11751 pieces.
@pytest.mark.parametrize("prove,args,pieces,delta", [
    (overlap_modulus, ("sqrt(x + 1)", 0.0, 3.0, 1e-2), 223, 0.00902629038921464),
    (overlap_modulus, ("x^3 - x", -1.0, 1.5, 1e-2), 1526, 0.0005812766449093676),
    (overlap_modulus, ("sin(x)*exp(x)", 0.0, 4.0, 0.1), 1533, 0.0005848072120406833),
    (overlap_modulus, ("1/(1 + 2.01*x^2)", -1.0, 1.0, 1e-2), 299, 0.004886958636556249),
    (prove_modulus, ("sqrt(x + 1)", 0.0, 3.0, 1e-2), 8, 0.02),
    (prove_modulus, ("x^3 - x", -1.0, 1.5, 1e-2), 8, 0.0017391304347826085),
    (prove_modulus, ("sin(x)*exp(x)", 0.0, 4.0, 0.1), 8, 0.0010816795843755177),
    (prove_modulus, ("1/(1 + 2.01*x^2)", -1.0, 1.0, 1e-2), 8, 0.006303640003109449),
    (prove_integral, ("x^3 - x", -1.0, 1.5, 1e-2), 1631, None),
    (prove_integral, ("sin(x)", 0.0, 3.0, 1e-2), 532, None),
    (prove_integral, ("x*exp(-x)", 0.0, 8.0, 1e-3), 10616, None),
], ids=["uct-sqrt", "uct-cubic", "uct-sinexp", "uct-runge", "lipschitz-sqrt", "lipschitz-cubic",
        "lipschitz-sinexp", "lipschitz-runge", "dit-cubic", "dit-sin", "dit-xexp"])
def test_margin_widths_keep_pieces_and_delta(prove, args, pieces, delta):
    cert = prove(*args)
    assert check(cert)
    assert piece_count(cert) == pieces
    assert getattr(cert, "delta", None) == delta


def test_modulus_of_a_cubic_at_a_fine_eps_takes_few_pieces():
    # the overlap route's pieces grow as the variation over eps: it ended in
    # BUDGET here; the mean-value route's do not grow with eps
    cert = prove_modulus("x^3 - x", -1.0, 1.5, 1e-5)
    assert isinstance(cert, LipschitzCert) and check(cert)
    assert piece_count(cert) <= 64


# differentiable templates like value-sweep's uct jobs: "{c}" and "{d}" take
# one of a few constants near the given ones, on the given domain.  Their
# slope bounds their oscillation, so the mean-value delta is the larger;
# test_modulus_of_a_steep_small_wave_on_a_slope_is_below_the_overlap_delta
# shows an f where it is not
_MODULUS_TEMPLATES = (
    ("1/(1 + {c}*x^2)", (1.97, 2.03), (), -2.0, 2.0),
    ("sqrt(x + {c})*log(x + {d})", (1.43, 1.47), (1.93, 1.97), 0.0, 4.0),
    ("exp(-{c}*x)*sin({d}*x)", (0.44, 0.46), (2.43, 2.47), 0.0, 3.0),
    ("sin(x)*exp({c}*x)", (0.61, 0.63), (), 0.0, 4.0),
    ("x^4 - {c}*x^2 + {d}", (2.94, 3.04), (0.98, 1.0), -2.0, 2.0),
    ("x^3 - {c}*x", (0.97, 0.99), (), -1.0, 1.5),
)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(template=st.sampled_from(_MODULUS_TEMPLATES), c=st.integers(0, 2), d=st.integers(0, 2),
       eps=st.sampled_from((0.5, 0.1, 0.03)))
def test_mean_value_route_states_at_least_the_overlap_delta(template, c, d, eps):
    src, cs, ds, a, b = template
    src = src.format(c=cs and round(cs[0] + (cs[1] - cs[0]) * c / 2, 3),
                     d=ds and round(ds[0] + (ds[1] - ds[0]) * d / 2, 3))
    derived, overlap = prove_modulus(src, a, b, eps), overlap_modulus(src, a, b, eps)
    assert isinstance(derived, LipschitzCert) and isinstance(overlap, ModulusCert)
    assert check(derived) and check(overlap)
    assert derived.delta >= overlap.delta, (src, eps)


_POLY_TERMS = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
_OUTER = {"{}": lambda v: v, "sin({})": mpmath.sin, "exp({})": mpmath.exp,
          "sin(x) * exp({})": None}


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(coeffs=_POLY_TERMS, outer=st.sampled_from(sorted(_OUTER)),
       ends=st.tuples(st.integers(-16, 16), st.integers(-16, 16)).filter(lambda e: e[0] != e[1]))
def test_integral_of_random_compositions_encloses_the_mpmath_integral(coeffs, outer, ends):
    # the polynomial sum of (c / 4) x^k, on [a, b] inside [-1, 1]
    poly = " + ".join(f"{c}/4*x^{k}" for k, c in enumerate(coeffs))
    src = outer.format(poly)

    def f(t):
        v = sum(mpmath.mpf(c) / 4 * t ** k for k, c in enumerate(coeffs))
        return mpmath.sin(t) * mpmath.exp(v) if _OUTER[outer] is None else _OUTER[outer](v)

    a, b = (min(ends) / 16, max(ends) / 16)
    # eps for a few hundred pieces: (integral of sqrt|f'|)^2 estimated on a grid
    grid = [a + (b - a) * i / 256 for i in range(257)]
    root_var = sum(mpmath.sqrt(abs(f(v) - f(u)) * (v - u)) for u, v in zip(grid, grid[1:]))
    eps = max(float(root_var ** 2 / 250), 1e-6)
    cert = prove_integral(src, a, b, eps)
    assert isinstance(cert, IntegralCert), (src, a, b, eps, cert)
    assert check(cert)
    assert cert.lower_sum <= mpmath.quad(f, [a, b]) <= cert.upper_sum
    assert Fraction(cert.upper_sum) - Fraction(cert.lower_sum) < Fraction(eps)


# ---------------------------------------------------------------------------
# derivative theorems
# ---------------------------------------------------------------------------

def test_monotone_exp_strict():
    cert = prove_monotone("exp(x)", 0.0, 1.0, True)
    assert isinstance(cert, MonotoneCert) and cert.strict
    assert check(cert)
    assert min(cert.piece_deriv_lo) > 0


def test_monotone_cubic_stalls():
    res = prove_monotone("x^3", -1.0, 1.0, True)
    assert isinstance(res, SweepFailure)
    assert res.kind is FailureKind.STALLED


def test_monotone_weak_refuted():
    res = prove_monotone("-x", 0.0, 1.0, False)
    assert isinstance(res, SweepFailure)
    assert res.kind is FailureKind.HYPOTHESIS_FAIL
    assert res.enclosure == FloatInterval(-1.0, -1.0)


def test_mvi_parabola():
    cert = prove_mvi("x^2", 0.0, 1.0, 2.0)
    assert check(cert)
    # telescoped conclusion on the endpoints: f(1) - f(0) = 1 <= 2
    assert max(cert.piece_deriv_hi) <= 2.0


def test_mvi_parabola_tight_cap_refuted():
    res = prove_mvi("x^2", 0.0, 1.0, 1.9)
    assert isinstance(res, SweepFailure)
    assert res.kind is FailureKind.HYPOTHESIS_FAIL
    _, _, dlo, _ = eval_d1(parse("x^2"), res.witness.lo, res.witness.hi)
    assert dlo > 1.9


def test_mvi_sin_unit_cap():
    cert = prove_mvi("sin(x)", 0.0, 3.0, 1.0)
    assert check(cert)


def test_flat_exact_constant():
    cert = prove_flat("3", 0.0, 1.0, 0.0)
    assert check(cert)
    assert cert.osc_bound == 0.0


def test_flat_zero_literal_propagates():
    cert = prove_flat("sin(x)*0 + 2", 0.0, 1.0, 0.0)
    assert check(cert)
    assert cert.osc_bound == 0.0


def test_flat_tiny_slope_budget():
    cert = prove_flat("x*0.000000001", 0.0, 1.0, 1e-8)
    assert check(cert)
    assert cert.osc_bound <= 1e-8


def test_flat_zero_eta_refutes_certified_nonzero_slope():
    res = prove_flat("x*0.000000001", 0.0, 1.0, 0.0)
    assert isinstance(res, SweepFailure)
    assert res.kind is FailureKind.HYPOTHESIS_FAIL
    assert res.enclosure.lo > 0.0


def test_flat_zero_eta_stalls_when_zero_not_syntactic():
    # identically zero derivative, but the enclosure of 2 sin cos - 2 cos sin
    # has positive width, so with eta = 0 nothing certifies and nothing refutes
    res = prove_flat("sin(x)^2 + cos(x)^2", 0.0, 1.0, 0.0)
    assert isinstance(res, SweepFailure)
    assert res.kind is FailureKind.STALLED


# ---------------------------------------------------------------------------
# derivative theorems at a kink: f' of abs is Clarke's generalized derivative
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strict", [True, False], ids=["sift", "ift"])
def test_monotone_abs_across_its_kink_is_refuted(strict):
    res = prove_monotone("abs(x)", -1.0, 1.0, strict)
    assert isinstance(res, SweepFailure) and res.kind is FailureKind.HYPOTHESIS_FAIL
    assert res.at == -1.0 and res.enclosure == FloatInterval(-1.0, -1.0)


def test_mvi_abs_past_its_kink_is_refuted():
    res = prove_mvi("abs(x)", -1.0, 1.0, 0.9)
    assert isinstance(res, SweepFailure) and res.kind is FailureKind.HYPOTHESIS_FAIL
    assert res.at == 0.0 and res.enclosure == FloatInterval(1.0, 1.0)


def test_flat_abs_is_refuted():
    res = prove_flat("abs(x)", -1.0, 1.0, 0.5)
    assert isinstance(res, SweepFailure) and res.kind is FailureKind.HYPOTHESIS_FAIL


def test_monotone_abs_from_a_float_below_its_kink_stalls():
    # the float 0.3 is below 3/10, so f falls on the sliver [0.3, 3/10]:
    # every first piece holds the kink, where f' is only known in [-1, 1]
    res = prove_monotone("abs(x - 0.3)", 0.3, 1.0, True)
    assert isinstance(res, SweepFailure) and res.kind is FailureKind.STALLED
    assert res.at == 0.3


def test_monotone_cert_relabelled_across_the_kink_is_invalid():
    cert = prove_monotone("abs(x)", 0.0, 1.0, True)
    assert isinstance(cert, MonotoneCert) and check(cert)
    moved = cert._replace(a=-1.0, partition=Partition((-1.0,) + cert.partition.points[1:]))
    result = check(moved)
    assert not result
    assert (result.reason, result.piece) == ("piece_deriv_lo tighter than fresh enclosure", 0)


@pytest.mark.parametrize("prove, args, cls", [
    (prove_monotone, ("abs(x)", 0.0, 1.0, True), MonotoneCert),
    (prove_mvi, ("x + 0.5*abs(x)", -1.0, 1.0, 1.5), MviCert),
], ids=["sift", "mvi"])
def test_derivative_theorems_certify_f_with_abs(prove, args, cls):
    cert = prove(*args)
    assert isinstance(cert, cls) and check(cert)


def test_modulus_of_abs_takes_the_mean_value_route():
    # the overlap route alone takes 4,444 pieces here, with delta 3.62e-4
    cert = prove_modulus("abs(x - 0.3)", -1.0, 1.0, 1e-3)
    assert isinstance(cert, LipschitzCert) and check(cert)
    assert (piece_count(cert), cert.delta) == (8, 1e-3)


# ---------------------------------------------------------------------------
# cross-cutting: analytic oracle for integrals of standard functions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("src,anti,a,b", [
    ("x^2", lambda t: t ** 3 / 3, 0.0, 1.0),
    ("x^3 - x", lambda t: t ** 4 / 4 - t ** 2 / 2, -1.0, 1.5),
    ("exp(x)", mpmath.exp, 0.0, 1.0),
    ("sin(x)", lambda t: -mpmath.cos(t), 0.0, 2.0),
    ("cos(x) + 2", lambda t: mpmath.sin(t) + 2 * t, -1.0, 1.0),
])
def test_integral_antiderivative_oracle(src, anti, a, b):
    cert = prove_integral(src, a, b, 1e-3)
    assert isinstance(cert, IntegralCert), cert
    assert check(cert)
    truth = float(anti(mpmath.mpf(b)) - anti(mpmath.mpf(a)))
    assert cert.lower_sum <= truth <= cert.upper_sum


def test_monotone_sampled_pairs():
    rng = random.Random(402)
    cert = prove_monotone("x^3 + x", -1.0, 1.0, True)
    assert check(cert)
    for _ in range(1000):
        x1 = rng.uniform(-1.0, 1.0)
        x2 = rng.uniform(-1.0, 1.0)
        if x1 == x2:
            continue
        x1, x2 = min(x1, x2), max(x1, x2)
        assert x1 ** 3 + x1 < x2 ** 3 + x2
