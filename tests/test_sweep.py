"""Frontier, local-extension and combiner behavior of the sweep engine."""

import copy
import hashlib
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from operator import le
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from suparg import cli, theorems
from suparg.certificates import (
    OSC,
    ROWS,
    IntegralCert,
    MaxCert,
    ModulusCert,
    NegCert,
    check,
    dumps,
    from_document,
)
from suparg.expr import eval_d1, eval_iv, parse
from suparg.numeric import FloatInterval, float_down, sub_down
from suparg.sweep import (
    _SWEPT,
    FailureKind,
    LocalWitness,
    Problem,
    StructureError,
    SweepFailure,
    base_case,
    combine,
    default_h_min,
    finish,
    local_extend,
    run_sweep,
)

SIN = parse("sin(x)")
CUBE = parse("x^3")


def problem(src, a, b, theorem, **kw):
    return Problem(parse(src), a, b, theorem, fn_source=src, **kw)


def steady():
    """evt up to the maximum, at a steady width: the lattice of widths
    certified 126 of its 170 pieces at one width, and the margin starts
    each search just under it."""
    return problem("x*(1 - x)", 0.0, 0.5, "evt", eps=1e-3)


def at_frontier(src, a, b, theorem, x, h_init, h_next=None, **kw):
    """The problem on [x, b] with the widths of the one on [a, b]: a fresh
    fold whose frontier is x, searching as the sweep on [a, b] does there,
    from h_next (h_init unless given)."""
    p = problem(src, x, b, theorem, **kw)
    state = base_case(p)
    state.h_init, state.h_min = h_init, default_h_min(a, b)
    state.h_next = h_init if h_next is None else h_next
    return p, state


# ---------------------------------------------------------------------------
# theorem lookup and problem validation
# ---------------------------------------------------------------------------

def test_problem_param_validation():
    with pytest.raises(ValueError):
        problem("x", 0, 1, "bvt", eps=0.1)  # eps not applicable
    with pytest.raises(ValueError):
        problem("x", 0, 1, "uct")  # eps missing
    with pytest.raises(ValueError):
        problem("x", 0, 1, "mvi", M=-1.0)
    with pytest.raises(ValueError):
        problem("x", 1, 0, "bvt")
    with pytest.raises(ValueError, match="domain endpoints must be finite"):
        problem("x", 0, math.inf, "bvt")
    with pytest.raises(ValueError, match="eta must be nonnegative"):
        problem("x", 0, 1, "cft", eta=-1.0)
    for theorem in ("i1", "i2", "xyz"):  # no sweep proves these
        with pytest.raises(ValueError):
            problem("x", 0, 1, theorem)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("code", [code for code, row in cli._PROVED.items() if row.params])
def test_non_finite_parameter_rejected(code, value):
    # a non-finite eps, M, eta or tol is refused before any sweep, where it
    # gave certificates the checker calls Invalid or raised from the kernels
    row = cli._PROVED[code]
    key = row.key(row.params[0])
    with pytest.raises(ValueError, match=f"^{key} must be finite$"):
        getattr(theorems, row.prover)("x - 1", 0.0, 2.0, value)


def test_domain_wider_than_binary64_rejected():
    with pytest.raises(ValueError, match="overflows"):
        problem("sin(x)", -2.0 ** 1023, 2.0 ** 1023, "ivt")
    assert problem("x", -2.0 ** 1022, 2.0 ** 1022, "ivt").b == 2.0 ** 1022  # 2^1023 wide


def test_domain_too_narrow_for_h_min_rejected():
    # h_min = (b - a) * 2^-40: 2^-1075 rounds to 0, 2^-1074 is the least subnormal
    with pytest.raises(ValueError, match=r"h_min = \(b - a\) \* 2\*\*-40 underflows to 0"):
        problem("x - 2", 0.0, 2.0 ** -1035, "ivt")
    assert check(run_sweep(problem("x - 2", 0.0, 2.0 ** -1034, "ivt")))
    assert check(run_sweep(problem("x - 2", 2.0 ** -1074, 2.0 ** -1074, "ivt")))  # a point


@pytest.mark.parametrize("theorem", cli.THEOREMS)
def test_theorem_code_selects_the_row_its_prover_returns(theorem, capsys):
    # x - 2 on [0, 1] satisfies every theorem, so each prover succeeds; the
    # negative function gives prove_root's NegCert
    params = {"evt": {"eps": 0.5}, "uct": {"eps": 0.5}, "dit": {"eps": 0.5},
              "mvi": {"M": 2.0}, "cft": {"eta": 2.0}}.get(theorem, {})
    flags = [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
    assert cli.run(["prove", theorem, "--fn", "x - 2", "--a", "0", "--b", "1",
                    *flags, "--format", "json"]) == 0
    proved = from_document(json.loads(capsys.readouterr().out))
    # the code selects the first row that states its theorem; prove_modulus
    # takes uct's second, its derivative route, for a differentiable f
    rows = [row.cls for row in ROWS if row.arrays and theorem in row.theorems]
    assert problem("x - 2", 0.0, 1.0, theorem, **params).row.cls is rows[0]
    assert type(proved) is rows[-1]


# ---------------------------------------------------------------------------
# base case
# ---------------------------------------------------------------------------

def test_base_case_is_vacuous():
    p = problem("sin(x)", 0.0, 3.0, "bvt")
    state = base_case(p)
    assert state.b == 0.0
    assert state.partition == [0.0]
    assert len(finish(p, state).partition) == 0


def test_base_case_hypothesis_free_for_sign():
    # f(a) >= 0 does not fail the base case; the first extension fails
    p = problem("x + 1", 0.0, 1.0, "ivt")
    state = base_case(p)
    state.h_init = 0.125
    assert state.b == 0.0
    res = local_extend(p, state)
    assert isinstance(res, SweepFailure)
    assert res.kind is FailureKind.HYPOTHESIS_FAIL
    assert res.enclosure.lo > 0.0


def _point_fold(p):
    """The public fold on [a, a]: base_case leaves nothing to extend."""
    state = base_case(p)
    assert state.b == p.b
    return finish(p, state)


def test_degenerate_domain_immediately_final():
    for theorem, kw in [("bvt", {}), ("evt", {"eps": 1e-6}),
                        ("uct", {"eps": 1e-6}),
                        ("dit", {"eps": 1e-6}),
                        ("ift", {}), ("sift", {}),
                        ("mvi", {"M": 1.0}), ("cft", {"eta": 0.0})]:
        p = problem("x^2", 2.0, 2.0, theorem, **kw)
        out = run_sweep(p)
        assert not isinstance(out, SweepFailure), (theorem, out)
        assert check(out), (theorem, check(out))
        assert _point_fold(p) == out, theorem
    p = problem("x - 1", 0.5, 0.5, "ivt")
    neg = run_sweep(p)
    assert isinstance(neg, NegCert) and check(neg)
    assert _point_fold(p) == neg
    p = problem("x + 1", 0.5, 0.5, "ivt")
    bad = run_sweep(p)
    assert isinstance(bad, SweepFailure) and bad.kind is FailureKind.HYPOTHESIS_FAIL
    assert base_case(p) == bad


def test_degenerate_integral_is_zero():
    out = run_sweep(problem("x^2", 2.0, 2.0, "dit", eps=1e-6))
    assert isinstance(out, IntegralCert)
    assert out.lower_sum == 0.0 and out.upper_sum == 0.0


@pytest.mark.parametrize("fn, theorem, kw, failure", [
    ("x - 0.5", "ivt", {}, "stalled at 0.5; sign at the degenerate point undecided"),
    ("sin(x)", "evt", {"eps": 1e-300}, "stalled at 0.5; point enclosure wider than eps"),
    ("x + 1", "ivt", {}, "hypothesis_fail at 0.5; witness piece [0.5, 0.5]; "
                         "enclosure [1.5, 1.5]; range certified positive"),
], ids=["undecided-sign", "wide-point", "refuted"])
def test_degenerate_point_failure_comes_from_the_base_case(fn, theorem, kw, failure):
    # a point that leaves a pointwise theorem undecided stalls with its row's
    # reason; one that refutes it carries the point as its witness piece
    p = problem(fn, 0.5, 0.5, theorem, **kw)
    assert str(run_sweep(p)) == failure
    assert base_case(p) == run_sweep(p)


# ---------------------------------------------------------------------------
# local extension
# ---------------------------------------------------------------------------

def test_local_extend_bounded_piece():
    p, state = at_frontier("sin(x)", 0.0, 3.0, "bvt", 1.0, 0.5)
    w = local_extend(p, state)
    assert isinstance(w, LocalWitness)
    assert (w.x, w.y) == (1.0, 1.5)
    assert w.hi <= 1.0 + math.ulp(1.0)  # pi/2 inside, peak detected


def test_strict_monotone_stalls_at_cubic_zero():
    # halving certifies pieces short of the zero; the run itself must stall
    # (never refute: the derivative enclosure always reaches up to >= 0)
    q, state = at_frontier("x^3", -1.0, 1.0, "sift", -0.05, 0.25)
    w = local_extend(q, state)
    assert isinstance(w, LocalWitness)
    assert w.y < 0.0 and w.lo > 0.0
    res = run_sweep(problem("x^3", -1.0, 1.0, "sift"))
    assert isinstance(res, SweepFailure)
    assert res.kind is FailureKind.STALLED
    assert abs(res.at) < 1e-9


def test_local_extend_sign_neg_halves_to_fit():
    p, state = at_frontier("x - 0.5", 0.0, 1.0, "ivt", 0.4, 0.4)
    w = local_extend(p, state)
    assert isinstance(w, LocalWitness)
    assert w.x == 0.4
    assert abs(w.y - 0.45) < 1e-12
    assert w.hi < 0.0


def test_sign_sweep_stalls_at_crossing_for_root_refinement():
    # the sweep stops just below the crossing, and its look past the stall
    # refutes with a point just above it, certified positive: the bracket
    res = run_sweep(problem("x - 0.5", 0.0, 1.0, "ivt"))
    assert isinstance(res, SweepFailure)
    assert res.kind is FailureKind.HYPOTHESIS_FAIL
    assert res.at < 0.5 < res.witness.lo == res.witness.hi < 0.5 + 1e-9
    assert abs(res.at - 0.5) < 1e-9
    assert res.enclosure.lo > 0.0


def test_local_extend_requires_room():
    p, state = at_frontier("x", 0.0, 1.0, "bvt", 1.0, 0.5)
    with pytest.raises(ValueError):
        local_extend(p, state)


def test_local_extend_reports_domain_error_piece():
    from suparg.numeric import DomainError
    p = problem("log(x)", -1.0, 1.0, "bvt")
    state = base_case(p)
    state.h_init = 0.25
    with pytest.raises(DomainError) as exc:
        local_extend(p, state)
    assert exc.value.piece.lo == -1.0


# ---------------------------------------------------------------------------
# combine
# ---------------------------------------------------------------------------

def test_combine_base_promotes_witness():
    p = problem("sin(x)", 0.0, 3.0, "bvt")
    state = base_case(p)
    state.h_init = 0.375
    w = local_extend(p, state)
    combine(p, state, w)
    cert = finish(p, state)
    assert len(cert.partition) == 1
    assert cert.b == w.y
    assert check(cert)


def test_combine_endpoint_mismatch_rejected():
    p = problem("sin(x)", 0.0, 3.0, "bvt")
    state = base_case(p)
    state.h_init = 0.375
    w = local_extend(p, state)
    shifted = w._replace(x=0.5, y=0.75)
    with pytest.raises(StructureError):
        combine(p, state, shifted)
    with pytest.raises(StructureError, match="degenerate piece"):
        combine(p, state, w._replace(y=w.x))


def test_combine_unifcont_min_rule():
    # left piece [0, 0.5] alone covers its domain, so delta stays b - a = 1;
    # new piece [0.5, 0.8] evaluated over [0.2, 0.8]: contribution the
    # overlap [0.2, 0.5], 0.3, merged delta = min(1, 0.3)
    p = problem("x", 0.0, 1.0, "uct", eps=1.0)
    state = base_case(p)
    combine(p, state, LocalWitness(0.0, 0.5, 0.0, 0.5, ext_lo=0.0))
    left = finish(p, state)
    assert isinstance(left, ModulusCert) and left.delta == 1.0 and check(left)
    w = LocalWitness(0.5, 0.8, 0.2, 0.8, ext_lo=0.2)
    combine(p, state, w)
    merged = finish(p, state)
    assert merged.delta == 0.3
    assert merged.pieces[-1] == FloatInterval(0.2, 0.8)


def test_combine_darboux_sums_add():
    p = problem("x^2", 0.0, 1.0, "dit", eps=0.5)
    out = run_sweep(p)
    assert isinstance(out, IntegralCert)
    # refold the same pieces through combine, left to right
    state = base_case(p)
    points = out.partition.points
    for x, y, lo, hi in zip(points, points[1:], out.piece_lo, out.piece_hi):
        combine(p, state, LocalWitness(x, y, lo, hi))
    assert finish(p, state) == out


# ---------------------------------------------------------------------------
# run_sweep end to end
# ---------------------------------------------------------------------------

def test_run_sweep_bound_example():
    out = run_sweep(problem("sin(x)", 0.0, 3.0, "bvt"))
    assert 1.0 <= out.bound <= 1.0001
    assert check(out)


def test_run_sweep_neg_example():
    out = run_sweep(problem("x^2 - 2", 0.0, 1.0, "ivt"))
    assert isinstance(out, NegCert)
    assert max(out.piece_hi) <= -1.0 + 1e-12
    assert check(out)


def test_run_sweep_weak_monotone_refuted():
    res = run_sweep(problem("-x", 0.0, 1.0, "ift"))
    assert isinstance(res, SweepFailure)
    assert res.kind is FailureKind.HYPOTHESIS_FAIL
    assert res.enclosure == FloatInterval(-1.0, -1.0)


def test_run_sweep_budget():
    res = run_sweep(problem("x", 0.0, 1.0, "bvt", max_pieces=3))
    assert isinstance(res, SweepFailure)
    assert res.kind is FailureKind.BUDGET


@pytest.mark.parametrize("max_pieces", [0, -5])
def test_non_positive_budget_rejected(max_pieces):
    with pytest.raises(ValueError, match=f"max_pieces must be at least 1, got {max_pieces}"):
        problem("x", 0.0, 1.0, "bvt", max_pieces=max_pieces)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _manual_run(p, h_init, h_min):
    """Step with the public operations, checking the partial at each stop."""
    state = base_case(p)
    state.h_init, state.h_min = h_init, h_min
    frontiers = [state.b]
    while state.b < p.b:
        res = local_extend(p, state)
        assert isinstance(res, LocalWitness)
        combine(p, state, res)
        restricted = check(finish(p, state))
        assert restricted, f"partial invalid at [{res.x}, {res.y}]: {restricted}"
        frontiers.append(state.b)
    return state, frontiers


@pytest.mark.parametrize("src,theorem,kw", [
    ("sin(x)", "bvt", {}),
    ("x^2 - 2", "ivt", {}),
    ("exp(x)", "sift", {}),
    ("sin(x)", "uct", {"eps": 0.5}),
    ("x^2", "dit", {"eps": 0.1}),
    # past the maximum the certifiable width jumps and the start grows at
    # most 2x a piece towards it
    ("exp(-4*x*x)", "evt", {"eps": 1e-3}),
])
def test_frontier_monotone_and_fold_matches_sweep(src, theorem, kw):
    a, b = (0.0, 1.0) if theorem == "ivt" else (0.0, 2.0)
    p = problem(src, a, b, theorem, **kw)
    h_init, h_min = (b - a) / 8, (b - a) * 2.0 ** -40
    state, frontiers = _manual_run(p, h_init, h_min)
    for u, v in zip(frontiers, frontiers[1:]):
        assert v > u
        assert v - u >= h_min * 0.5 or v == b
    assert len(state.partition) - 1 <= math.ceil((b - a) / h_min) + 1
    swept = run_sweep(p)
    assert swept == finish(p, state)


def _fold(p):
    """The public fold, stopping at the first failure."""
    state = base_case(p)
    while state.b < p.b:
        w = local_extend(p, state)
        if isinstance(w, SweepFailure):
            return w
        combine(p, state, w)
    return finish(p, state)


def test_public_fold_builds_one_partition(monkeypatch):
    import suparg.sweep as sweep_mod
    p = problem("x^3 - x", -1.0, 1.5, "dit", eps=1e-2)
    swept = run_sweep(p)
    built = []
    real = sweep_mod.Partition
    monkeypatch.setattr(sweep_mod, "Partition", lambda points: built.append(1) or real(points))
    folded = _fold(p)
    assert len(built) == 1
    assert len(folded.partition) == 4244
    assert folded == swept


def test_public_fold_budget_failure_matches_sweep():
    p = problem("x", 0.0, 1.0, "bvt", max_pieces=3)
    res = _fold(p)
    assert isinstance(res, SweepFailure) and res.kind is FailureKind.BUDGET
    assert res == run_sweep(p)


def test_unifcont_delta_rule_fields():
    for src, b, eps in (("sin(x)", 4.0, 0.1), ("x", 1.0, 1e-3), ("sin(x)*exp(x)", 4.0, 0.1),
                        ("sqrt(x + 1)", 3.0, 1e-2)):
        out = run_sweep(problem(src, 0.0, b, "uct", eps=eps))
        assert isinstance(out, ModulusCert)
        overlaps = [Fraction(out.pieces[k].hi) - Fraction(out.pieces[k + 1].lo)
                    for k in range(len(out.pieces) - 1)]
        assert all(Fraction(out.delta) <= ov for ov in overlaps)
        # the least overlap, rounded down once: no piece's width bounds it
        assert out.delta == float_down(min(overlaps))
        assert check(out)


def test_uct_delta_is_the_largest_the_checker_admits():
    # delta is the least overlap rounded down once, so one ulp more fails
    # the checker's overlap test: no halving, nor any other slack, is left
    rng = random.Random(30)
    for _ in range(12):
        src = rng.choice(("sin(x)", "x^3 - x", "exp(x) - 3", "1/(1 + 4*x*x)", "sqrt(x + 3)",
                          "cos(3*x) + x", "abs(x) - 1"))
        a = rng.choice((-2.0, -1.0, -0.5, 0.0, 0.25))
        p = problem(src, a, a + rng.choice((0.5, 1.0, 2.0, 3.0)), "uct",
                    eps=rng.choice((0.5, 0.1, 0.05)))
        # while one piece covers the domain, delta is the problem's b - a
        state = base_case(p)
        combine(p, state, local_extend(p, state))
        first = finish(p, state)
        assert len(first.pieces) == 1 and first.delta == sub_down(p.b, p.a) and check(first)
        cert = run_sweep(p)
        assert isinstance(cert, ModulusCert) and len(cert.pieces) >= 2 and check(cert)
        wider = check(cert._replace(delta=math.nextafter(cert.delta, math.inf)))
        assert not wider and wider.reason == "adjacent pieces overlap by less than delta"


def test_random_problems_prove_then_check():
    rng = random.Random(301)
    theorems = [("bvt", {}), ("evt", {"eps": 0.01}),
                ("uct", {"eps": 0.3}),
                ("dit", {"eps": 0.05}),
                ("mvi", {"M": 50.0}), ("ift", {})]
    srcs = ["x^2 + 1", "sin(x) + 2*x", "exp(x) - x", "x^3 + x", "cos(x) + x"]
    for _ in range(60):
        theorem, kw = rng.choice(theorems)
        src = rng.choice(srcs)
        a = rng.uniform(-1.5, 0.5)
        b = a + rng.uniform(0.1, 1.5)
        p = problem(src, a, b, theorem, **kw)
        out = run_sweep(p)
        if isinstance(out, SweepFailure):
            assert out.kind in (FailureKind.STALLED, FailureKind.HYPOTHESIS_FAIL)
            continue
        assert check(out), (src, theorem, check(out))


# ---------------------------------------------------------------------------
# warm-started step width
# ---------------------------------------------------------------------------

def _probe_widths(monkeypatch):
    """The list each probe appends its step width to: cleared before a
    local_extend call, it holds that search's widths, its start first."""
    import suparg.sweep as sweep_mod
    widths = []
    real = sweep_mod._probe
    monkeypatch.setattr(sweep_mod, "_probe",
                        lambda p, s, x, y, h: widths.append(h) or real(p, s, x, y, h))
    return widths


def test_warm_start_evaluations_per_piece(monkeypatch):
    import suparg.sweep as sweep_mod
    calls = []
    real = sweep_mod.eval_iv
    monkeypatch.setattr(sweep_mod, "eval_iv",
                        lambda f, lo, hi: calls.append((lo, hi)) or real(f, lo, hi))
    out = run_sweep(problem("x^3 - x", -1.0, 1.5, "dit", eps=1e-2))
    assert isinstance(out, IntegralCert) and check(out)
    assert len(calls) <= 1.3 * len(out.partition)


def _probes(monkeypatch):
    """The list each probe appends its piece to; the enclosures of evt's
    candidate points are the probe's own, and not counted apart."""
    import suparg.sweep as sweep_mod
    probes = []
    real = sweep_mod._probe
    monkeypatch.setattr(sweep_mod, "_probe",
                        lambda p, s, x, y, h: probes.append((x, y)) or real(p, s, x, y, h))
    return probes


def test_steady_width_backs_off(monkeypatch):
    # a start at twice the width on every search costs 343 probes here, 2 a
    # piece, and the lattice's back-off 210 for 170 pieces; the margin sets
    # each start just under the width that certifies: 167 for 165
    probes = _probes(monkeypatch)
    out = run_sweep(steady())
    assert isinstance(out, MaxCert) and check(out)
    assert len(out.partition) == 165
    assert len(probes) <= 1.05 * len(out.partition)
    assert hashlib.sha256(dumps(out).encode()).hexdigest() == (
        "5a7954cc3beadf0fcd0c39fa1d0172316cd6dec3fb52c1a00ebe2d3d2d3aa8c1")


def test_margin_step_makes_one_evaluation_per_piece(monkeypatch):
    # the margin sets each start just under the width that certifies, so a
    # probe seldom fails: 8 evaluations more than pieces
    import suparg.sweep as sweep_mod
    calls = []
    real = sweep_mod.eval_iv
    monkeypatch.setattr(sweep_mod, "eval_iv",
                        lambda f, lo, hi: calls.append((lo, hi)) or real(f, lo, hi))
    out = run_sweep(problem("x", 0.0, 1.0, "uct", eps=1e-3))
    assert isinstance(out, ModulusCert) and check(out)
    assert (len(out.pieces), len(calls)) == (2222, 2230)


def _planned(src, a, b, eps):
    """The dit problem with the plan of a sweep at 16 eps as its prior."""
    return problem(src, a, b, "dit", eps=eps,
                   prior=run_sweep(problem(src, a, b, "dit", eps=16 * eps)))


@pytest.mark.parametrize("p", [
    problem("x", 0.0, 1.0, "uct", eps=1e-3),
    problem("sin(x)*exp(x)", 0.0, 4.0, "uct", eps=0.1),
    problem("1/(1 + 2.01*x^2)", -1.0, 1.0, "uct", eps=1e-2),
    problem("x^3 - x", -1.0, 1.5, "dit", eps=1e-2),
    _planned("x^3 - x", -1.0, 1.5, 1e-2),
    problem("sin(x)*exp(x)", 0.0, 4.0, "evt", eps=1e-3),
    problem("x*(1 - x) - 0.251", 0.0, 1.0, "ivt"),
    problem("x^3 - 3*x^2 + 3.01*x", 0.0, 2.0, "sift"),
], ids=["uct-x", "uct-sinexp", "uct-runge", "dit-prefix", "dit-planned", "evt", "ivt", "sift"])
def test_warm_starts_stay_within_half_and_twice_the_last_width(monkeypatch, p):
    import suparg.sweep as sweep_mod
    starts = _probe_widths(monkeypatch)
    widths, real = [], sweep_mod._probe

    def probe(p, s, x, y, h):  # records the widths that certify
        res = real(p, s, x, y, h)
        if isinstance(res, LocalWitness):
            widths.append(h)
        return res

    monkeypatch.setattr(sweep_mod, "_probe", probe)
    state = base_case(p)
    ratios = set()
    while state.b < p.b:
        h_prev = widths[-1] if widths else None
        starts[:] = []
        combine(p, state, local_extend(p, state))
        if h_prev is not None and starts[0] < state.h_init:
            assert h_prev / 2 <= starts[0] <= 2 * h_prev
            ratios.add(starts[0] / h_prev)
    # the margin, not a lattice of widths, sets the start
    assert len(ratios) > 10


def _warm_fold(p):
    """Fold p with the public operations, stopping once the next search
    starts warm: the problem and the state, h_next below h_init."""
    state = base_case(p)
    while not state.h_next < state.h_init:
        combine(p, state, local_extend(p, state))
    return p, state


def test_local_extend_leaves_the_state_unchanged():
    p, state = _warm_fold(steady())
    before = copy.deepcopy(vars(state))
    first = local_extend(p, state)
    assert vars(state) == before
    assert local_extend(p, state) == first


@pytest.mark.parametrize("src,a,b,theorem,kw,expected", [
    ("x^3", -1.0, 1.0, "sift", {}, FailureKind.STALLED),
    ("x*x - 0.25", 0.0, 1.0, "ivt", {}, FailureKind.HYPOTHESIS_FAIL),
    ("exp(-x*x)", -2.0, 2.0, "mvi", {"M": 0.77}, FailureKind.HYPOTHESIS_FAIL),
    ("x*exp(-x)", 0.0, 3.0, "ift", {}, FailureKind.HYPOTHESIS_FAIL),
    ("x - x^3", 0.0, 1.0, "sift", {}, FailureKind.HYPOTHESIS_FAIL),
    ("sin(x)", 0.0, 4.0, "sift", {}, FailureKind.HYPOTHESIS_FAIL),
])
def test_failure_is_the_cold_search_failure(src, a, b, theorem, kw, expected):
    # the fold's one search per frontier fails where, and as, a search from
    # h_init fails there; every refutation is the look past the stall, a
    # point witness just right of it (x - x^3 at the sup 1/sqrt(3))
    p = problem(src, a, b, theorem, **kw)
    res = run_sweep(p)
    assert isinstance(res, SweepFailure) and res.kind is expected
    cold = local_extend(*at_frontier(src, a, b, theorem, res.at, (b - a) / 8, **kw))
    assert cold == res
    if expected is FailureKind.HYPOTHESIS_FAIL:
        assert res.at < res.witness.lo == res.witness.hi
    if src == "x - x^3":
        assert res.at == 0.5773502691893471 and res.enclosure.hi < 0.0


@pytest.mark.parametrize("src,a,b,theorem,kw,at", [
    ("exp(-x*x)", -2.0, 2.0, "mvi", {"M": 0.77}, -0.9508467819182009),
    ("1/(1 + 4*x*x)", -1.0, -0.5, "mvi", {"M": 0.77}, -0.6201450099375598),
    ("exp(-x*x)", -2.0, 0.0, "cft", {"eta": 0.5}, -1.2770445733386935),
    ("x*exp(-x)", 1.0, 3.0, "ift", {}, 1.0),
])
def test_false_derivative_statement_is_refuted_past_its_stall(src, a, b, theorem, kw, at):
    # no piece past the stall certifies, and the violation lies farther on
    # than any probed piece reaches: the look past the stall finds a point
    # whose enclosure of f' refutes the statement
    p = problem(src, a, b, theorem, **kw)
    res = run_sweep(p)
    assert isinstance(res, SweepFailure) and res.kind is FailureKind.HYPOTHESIS_FAIL
    assert res.at == at < res.witness.lo == res.witness.hi <= b
    lo, hi = eval_d1(p.f, res.witness.lo, res.witness.lo)[2:]
    assert res.enclosure == FloatInterval(lo, hi)
    assert res.detail == p.row.refute(base_case(p), lo, hi) != ""


def test_warm_search_probes_each_width_once_and_ends_on_h_min(monkeypatch):
    # a warm search that certifies nothing halves down to exactly h_min and
    # stops there: no second search from h_init follows, and the look past
    # the stall probes no piece; its first point, stall + h_min, refutes
    stall = run_sweep(problem("x*x - 0.25", 0.0, 1.0, "ivt")).at
    h_min = default_h_min(0.0, 1.0)
    widths = _probe_widths(monkeypatch)
    res = local_extend(*at_frontier("x*x - 0.25", 0.0, 1.0, "ivt", stall, 0.125,
                                    h_next=3 * h_min))
    assert widths == [3 * h_min, 1.5 * h_min, h_min]
    t = stall + h_min
    assert res == SweepFailure(FailureKind.HYPOTHESIS_FAIL, at=stall, witness=FloatInterval(t, t),
                               enclosure=FloatInterval(*eval_iv(parse("x*x - 0.25"), t, t)),
                               detail="range certified positive")
    # where nothing past the stall refutes, the sweep stalls there
    stall = run_sweep(problem("x^3", -1.0, 1.0, "sift")).at
    h_min = default_h_min(-1.0, 1.0)
    widths.clear()
    res = local_extend(*at_frontier("x^3", -1.0, 1.0, "sift", stall, 0.25, h_next=3 * h_min))
    assert widths == [3 * h_min, 1.5 * h_min, h_min]
    assert res == SweepFailure(FailureKind.STALLED, at=stall,
                               detail=f"no certifiable piece down to h_min = {h_min!r}")


def test_warm_domain_error_reports_the_warm_piece():
    # the one search's first piece past -0.5, where log refuses x <= 0
    p, state = at_frontier("log(x)", -1.0, 1.0, "bvt", -0.5, 0.25,
                           h_next=2.0 ** -9)
    from suparg.numeric import DomainError
    with pytest.raises(DomainError) as exc:
        local_extend(p, state)
    assert exc.value.piece == FloatInterval(-0.5, -0.5 + 2.0 ** -9)


def test_witness_reports_its_next_start_width():
    w = local_extend(*at_frontier("x - 0.5", 0.0, 1.0, "ivt", 0.4, 0.4))
    # the cold search halves to 0.05; below 0 the limit leaves the enclosure
    # [-0.1, -0.05] twice its width, so the next start scales it by 0.9 * 2
    assert (w.y, w.h_next) == (0.4 + 0.05, 1.8 * 0.05)
    p, state = at_frontier("x - 0.5", 0.0, 1.0, "ivt", 0.4, 0.4, h_next=w.h_next)
    warm = local_extend(p, state)
    assert warm.y == 0.4 + 1.8 * 0.05  # the start certifies: [0.4, 0.49]


# ---------------------------------------------------------------------------
# the sweep's judgment against the checker's per-piece test
# ---------------------------------------------------------------------------

_MAX = sys.float_info.max
_ENDS = (0.0, 5e-324, 1e-310, 2.0 ** -1022, 0.5, 1.0, 1e300, _MAX)  # and their negatives


def _around(v):
    """v and the floats one ulp either side of it."""
    return v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)


def _state(code, t, f_at_c_lo):
    """A state whose limit, or dit's budget, is t: an M, eps or eta of t;
    the lipschitz row's best lower bound of |f'| is |f_at_c_lo|."""
    return SimpleNamespace(bound=t, eps=t, eta=t, strict=code == "sift", f_at_c_lo=f_at_c_lo,
                           budget=lambda s, x, y: t, best=abs(f_at_c_lo))


def _threshold(code, s, t_lo):
    """What the value the prover stores is tested against: evt's f(c) + eps
    once the piece's candidate is in, twice the best lower bound of |f'|
    once the piece's is in (the lipschitz row), dit's budget, or the row's
    limit."""
    row = _SWEPT[code]
    if code == "evt":
        return row.limit(SimpleNamespace(f_at_c_lo=max(s.f_at_c_lo, t_lo), eps=s.eps))[1]
    if code == "lipschitz":
        return 2.0 * max(s.best, t_lo)
    return s.budget(s, 0.0, 1.0) if code == "dit" else row.limit(s)[1]


@st.composite
def _judged(draw):
    """(code, state, lo, hi, t_lo): a swept row, its state, and an
    enclosure whose ends are subnormal, +-max, tied with the threshold or an
    ulp either side of it, or any float; an oscillation hi - lo is tied too."""
    code = draw(st.sampled_from(sorted(_SWEPT)))
    t = draw(st.sampled_from(_ENDS) | st.floats(0.0, _MAX))
    f_at_c_lo, t_lo = draw(st.floats(-1e300, 1e300)), draw(st.floats(-1e300, 1e300))
    s = _state(code, t, f_at_c_lo)
    at = _threshold(code, s, t_lo)
    ends = [v for v in _around(at) + _around(-at) + _ENDS + tuple(-e for e in _ENDS)
            if math.isfinite(v)]  # an enclosure's ends are
    lo, hi = sorted(draw(st.sampled_from(ends) | st.floats(-_MAX, _MAX)) for _ in range(2))
    if code in ("uct", "dit") and draw(st.booleans()):
        hi = draw(st.sampled_from(_around(lo + at)))
        assume(lo <= hi <= _MAX)
    return code, s, lo, hi, t_lo


def _checker_accepts(code, s, lo, hi, t_lo):
    """The checker's per-piece test of the value the prover stores, once
    the piece is in: bvt's bound rises to meet it, evt tests against its
    candidate's threshold, the lipschitz row against twice its best lower
    bound of |f'| (its L rises to meet any value below that) and dit its
    budget; a value the prover cannot store (an oscillation beyond max) is
    refused."""
    if code == "bvt":
        return True
    row = _SWEPT[code]
    side, op = (OSC, le) if code == "dit" else (row.arrays[0][1], row.limit(s)[0])
    try:
        v = side.store(lo, hi)
    except OverflowError:
        return False
    return side.holds(v, lo, hi) and op(v, _threshold(code, s, t_lo))


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(_judged())
@example(("ivt", _state("ivt", 1.0, 0.0), -1.0, 0.0, 0.0))          # tied with a strict 0
@example(("sift", _state("sift", 1.0, 0.0), 0.0, 1.0, 0.0))         # tied with a strict 0
@example(("uct", _state("uct", 0.5, 0.0), 0.0, 0.5, 0.0))           # tied with a strict eps
@example(("uct", _state("uct", _MAX, 0.0), -_MAX, _MAX, 0.0))       # hi - lo beyond max
@example(("dit", _state("dit", 1.0, 0.0), -_MAX, _MAX, 0.0))
@example(("mvi", _state("mvi", _MAX, 0.0), -_MAX, _MAX, 0.0))       # and within the limit
@example(("cft", _state("cft", _MAX, 0.0), -_MAX, _MAX, 0.0))
@example(("cft", _state("cft", 0.0, 0.0), -0.0, 0.0, 0.0))          # a point, eta = 0
@example(("mvi", _state("mvi", 5e-324, 0.0), -5e-324, 5e-324, 0.0))
@example(("lipschitz", _state("lipschitz", 1.0, 0.5), -1.0, 1.0, 0.0))   # tied with 2 best
@example(("lipschitz", _state("lipschitz", 1.0, 0.0), -0.0, 0.0, -1.0))  # f' = 0, best 0
def test_judgment_accepts_exactly_what_the_checker_accepts(case):
    import suparg.sweep as sweep_mod
    code, s, lo, hi, t_lo = case
    scale = sweep_mod._accepts(_SWEPT[code], s, lo, hi, 0.0, 1.0, t_lo)
    assert (scale is not None) == _checker_accepts(code, s, lo, hi, t_lo)
    assert scale is None or sweep_mod._SAFETY <= scale <= 2.0


# ---------------------------------------------------------------------------
# a digest of the fold over seeded problems
# ---------------------------------------------------------------------------

_FOLD_FNS = ("sin(x)", "x^3 - x", "exp(x) - 3", "x*exp(-x)", "1/(1 + 4*x*x)", "x - 0.5",
             "x*x - 0.25", "cos(3*x) + x", "exp(-x*x)", "-x", "log(x)", "sqrt(x) - 2",
             "abs(x) - 1", "1/x", "x^2 - 2")
_FOLD_PARAMS = {"eps": (0.5, 0.1, 0.02, 1e-300), "M": (0.1, 0.77, 2.0, 30.0),
                "eta": (0.0, 0.05, 0.5, 5.0), "tol": (1e-3, 1e-9)}
# one line a record of 300 seeded problems: its index, the first 16 hex
# digits of the sha256 of its outcome and evaluation counts, and its case;
# a change that moves records writes the file again from _fold_records()
# and names the moved records in CHANGES.md
_FOLD_DIGESTS = Path(__file__).parent / "data" / "fold_digests.txt"


def _hex_ends(iv):
    return iv and (iv.lo.hex(), iv.hi.hex())


def _fold_outcome(code, rng):
    """A seeded problem for the prover of code, run: the certificate's
    document, the failure's fields or the error's, with the problem."""
    row = cli._PROVED[code]
    a = rng.choice((-2.0, -1.0, -0.5, 0.0, 0.25, 1.0))
    b = a + rng.choice((0.0, 0.5, 1.0, 2.0, 3.0))
    fn = rng.choice(_FOLD_FNS)
    values = [rng.choice(_FOLD_PARAMS[row.key(name)]) for name in row.params]
    max_pieces = rng.choice((2, 5, 40, 2 ** 20, 2 ** 20))
    prover = getattr(theorems, row.prover)
    case = (code, fn, a.hex(), b.hex(), values, max_pieces)
    try:
        out = prover(fn, a, b, *values, *row.theorems[code].values(), max_pieces=max_pieces)
    except (ValueError, ArithmeticError, theorems.Inconclusive) as err:
        return case, type(err).__name__, str(err), _hex_ends(getattr(err, "piece", None))
    if isinstance(out, SweepFailure):
        return (case, out.kind.value, out.at.hex(), _hex_ends(out.witness),
                _hex_ends(out.enclosure), out.detail)
    return case, dumps(out)


def _counted(real, key, counts):
    def call(*args):
        counts[key] += 1
        return real(*args)
    return call


def _fold_records(monkeypatch):
    """Each record's (index, short digest, case), with the kinds of outcome
    the records reach."""
    import suparg.sweep as sweep_mod
    counts = Counter()
    for module, name in ((sweep_mod, "eval_iv"), (sweep_mod, "eval_d1"), (theorems, "eval_iv")):
        monkeypatch.setattr(module, name, _counted(getattr(module, name),
                                                   f"{module.__name__}.{name}", counts))
    rng = random.Random(28)
    records, outcomes = [], set()
    for k in range(300):
        counts.clear()
        record = _fold_outcome(cli.THEOREMS[k % len(cli.THEOREMS)], rng)
        digest = hashlib.sha256(repr((record, sorted(counts.items()))).encode()).hexdigest()
        records.append((str(k), digest[:16], repr(record[0])))
        a, b = record[0][2:4]
        outcomes.add(("point " if a == b else "") + (record[1] if len(record) > 2 else "cert"))
    return records, outcomes


def test_fold_digest(monkeypatch):
    # every warm start shows in the evaluation counts, every piece in the bytes
    records, outcomes = _fold_records(monkeypatch)
    assert {"cert", "stalled", "hypothesis_fail", "budget", "DomainError", "PreconditionError",
            "point cert", "point DomainError"} <= outcomes
    recorded = [tuple(line.split(" ", 2)) for line in _FOLD_DIGESTS.read_text().splitlines()]
    moved = [f"#{k} {case}" for (k, digest, case), (_, want, _) in zip(records, recorded)
             if digest != want]
    assert not moved, f"fold records moved: {moved}"
    assert records == recorded
