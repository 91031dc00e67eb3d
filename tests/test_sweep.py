"""Frontier, local-extension and combiner behavior of the sweep engine."""

import copy
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from suparg import cli
from suparg.certificates import (
    IntegralCert,
    MaxCert,
    ModulusCert,
    NegCert,
    check,
    dumps,
    from_document,
)
from suparg.expr import parse
from suparg.numeric import FloatInterval, float_down
from suparg.sweep import (
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
    """evt up to the maximum, where 126 of the 170 pieces certify at one
    width: a row without a margin backs off its growth tries there."""
    return problem("x*(1 - x)", 0.0, 0.5, "evt", eps=1e-3)


def at_frontier(src, a, b, theorem, x, h_init, h_prev=None, **kw):
    """The problem on [x, b] with the widths of the one on [a, b]: a fresh
    fold whose frontier is x, searching as the sweep on [a, b] does there."""
    p = problem(src, x, b, theorem, **kw)
    state = base_case(p)
    state.h_init, state.h_min, state.h_prev = h_init, default_h_min(a, b), h_prev
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
        problem("abs(x)", 0, 1, "ift")  # not differentiable
    with pytest.raises(ValueError):
        problem("x", 1, 0, "bvt")
    for theorem in ("i1", "i2", "xyz"):  # no sweep proves these
        with pytest.raises(ValueError):
            problem("x", 0, 1, theorem)


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
    assert type(proved) is problem("x - 2", 0.0, 1.0, theorem, **params).row.cls


# ---------------------------------------------------------------------------
# base case
# ---------------------------------------------------------------------------

def test_base_case_is_vacuous():
    p = problem("sin(x)", 0.0, 3.0, "bvt")
    state = base_case(p)
    assert state.frontier == 0.0
    assert state.pieces_used == 0
    assert len(finish(p, state).partition) == 0


def test_base_case_hypothesis_free_for_sign():
    # f(a) >= 0 does not fail the base case; the first extension fails
    p = problem("x + 1", 0.0, 1.0, "ivt")
    state = base_case(p)
    state.h_init = 0.125
    assert state.frontier == 0.0
    res = local_extend(p, state)
    assert isinstance(res, SweepFailure)
    assert res.kind is FailureKind.HYPOTHESIS_FAIL
    assert res.enclosure.lo > 0.0


def _point_fold(p):
    """The public fold on [a, a]: base_case leaves nothing to extend."""
    state = base_case(p)
    assert state.frontier == p.b
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
    res = run_sweep(problem("x - 0.5", 0.0, 1.0, "ivt"))
    assert isinstance(res, SweepFailure)
    assert res.kind is FailureKind.STALLED
    assert abs(res.at - 0.5) < 1e-9


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


def test_combine_unifcont_min_rule():
    # left piece [0, 0.5] gives delta 0.25; new piece [0.5, 0.8] evaluated
    # over [0.2, 0.8]: contribution half the overlap [0.2, 0.5], 0.15,
    # merged delta = min(0.25, 0.15)
    p = problem("x", 0.0, 1.0, "uct", eps=1.0)
    state = base_case(p)
    combine(p, state, LocalWitness(0.0, 0.5, 0.0, 0.5, ext_lo=0.0))
    left = finish(p, state)
    assert isinstance(left, ModulusCert) and left.delta == 0.25
    w = LocalWitness(0.5, 0.8, 0.2, 0.8, ext_lo=0.2)
    combine(p, state, w)
    merged = finish(p, state)
    assert merged.delta == 0.15
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
    frontiers = [state.frontier]
    while state.frontier < p.b:
        res = local_extend(p, state)
        assert isinstance(res, LocalWitness)
        combine(p, state, res)
        restricted = check(finish(p, state))
        assert restricted, f"partial invalid at [{res.x}, {res.y}]: {restricted}"
        frontiers.append(state.frontier)
    return state, frontiers


@pytest.mark.parametrize("src,theorem,kw", [
    ("sin(x)", "bvt", {}),
    ("x^2 - 2", "ivt", {}),
    ("exp(x)", "sift", {}),
    ("sin(x)", "uct", {"eps": 0.5}),
    ("x^2", "dit", {"eps": 0.1}),
    # past the maximum the certifiable width jumps and growth tries double
    # up to it one piece at a time, so the sweep takes 10 pieces here where
    # a fold that starts every search cold takes 9
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
    assert state.pieces_used <= math.ceil((b - a) / h_min) + 1
    swept = run_sweep(p)
    assert swept == finish(p, state)


def _fold(p):
    """The public fold, stopping at the first failure."""
    state = base_case(p)
    while state.frontier < p.b:
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
        delta = Fraction(out.delta)
        widths = [Fraction(pc.hi) - Fraction(pc.lo) for pc in out.pieces]
        overlaps = [Fraction(out.pieces[k].hi) - Fraction(out.pieces[k + 1].lo)
                    for k in range(len(out.pieces) - 1)]
        assert all(delta <= w / 2 for w in widths[:1])  # first constituent
        assert all(delta <= ov for ov in overlaps)
        assert delta <= min(overlaps) / 2
        # the least half-overlap, or half the first piece: no other piece bounds it
        assert out.delta == min(float_down(h / 2) for h in widths[:1] + overlaps)
        assert check(out)


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

def _search_starts(monkeypatch):
    """The list each halving search appends its starting width to."""
    import suparg.sweep as sweep_mod
    starts = []
    real = sweep_mod._halving_search
    monkeypatch.setattr(sweep_mod, "_halving_search",
                        lambda p, x, s, h, h_min: starts.append(h) or real(p, x, s, h, h_min))
    return starts


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
    """The list each probe's enclosure appends its piece to; evt's
    candidate points are evaluated apart from it."""
    import suparg.sweep as sweep_mod
    probes = []
    real = sweep_mod._enclose
    monkeypatch.setattr(sweep_mod, "_enclose",
                        lambda row, f, u, y: probes.append((u, y)) or real(row, f, u, y))
    return probes


def test_steady_width_backs_off(monkeypatch):
    # at a steady width each growth try fails: a try on every search costs
    # 343 probes here, 2 a piece
    probes = _probes(monkeypatch)
    out = run_sweep(steady())
    assert isinstance(out, MaxCert) and check(out)
    assert len(out.partition) == 170
    assert len(probes) <= 1.3 * len(out.partition)
    # the bytes of the sweep that tried to grow on every search
    assert hashlib.sha256(dumps(out).encode()).hexdigest() == (
        "f3970d2138935fb5c3f6bede970a74f5676ef3c5b7cc4e9b3b427ad441cd11d4")


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
], ids=["uct-x", "uct-sinexp", "uct-runge", "dit-prefix", "dit-planned"])
def test_warm_starts_stay_within_half_and_twice_the_last_width(monkeypatch, p):
    starts = _search_starts(monkeypatch)
    state = base_case(p)
    ratios = set()
    while state.frontier < p.b:
        h_prev, starts[:] = state.h_prev, []
        combine(p, state, local_extend(p, state))
        if h_prev is not None and starts[0] < state.h_init:
            assert h_prev / 2 <= starts[0] <= 2 * h_prev
            ratios.add(starts[0] / h_prev)
    # the margin, not a lattice of widths, sets the start
    assert len(ratios) > 10


def _held_fold(p):
    """Fold p with the public operations, stopping once a rejected growth try
    has set a hold: the problem and the state, hold > 0."""
    state = base_case(p)
    while not state.hold:
        combine(p, state, local_extend(p, state))
    return p, state


def test_local_extend_leaves_the_state_unchanged():
    p, state = _held_fold(steady())
    before = copy.deepcopy(vars(state))
    first = local_extend(p, state)
    assert vars(state) == before
    assert local_extend(p, state) == first


def test_witness_without_width_starts_the_next_search_cold(monkeypatch):
    p = steady()
    state = base_case(p)
    combine(p, state, local_extend(p, state))
    w = local_extend(p, state)  # a growth try
    combine(p, state, w._replace(h=None))
    assert state.h_prev is None
    starts = _search_starts(monkeypatch)
    assert isinstance(local_extend(p, state), LocalWitness)
    assert starts == [state.h_init]


def test_rejected_growth_try_holds_then_probes_again(monkeypatch):
    starts = _search_starts(monkeypatch)
    p = steady()
    state = base_case(p)
    runs, held = [], None  # searches held after each rejected growth try
    while state.frontier < p.b:
        h_prev, starts[:] = state.h_prev, []
        w = local_extend(p, state)
        combine(p, state, w)
        if h_prev is None:
            continue
        if starts[0] == h_prev:
            assert held is not None, "a hold with no rejected growth try before it"
            held += 1
            continue
        assert starts[0] == min(state.h_init, 2 * h_prev)
        if held is not None:
            runs.append(held)
        held = 0 if w.h < starts[0] else None
    # the hold doubles with each further rejection, up to 4 searches
    assert runs[:3] == [1, 2, 4] and set(runs[2:]) == {4}
    assert len(runs) > state.pieces_used // 6


@pytest.mark.parametrize("src,a,b,theorem,kw,expected", [
    ("x^3", -1.0, 1.0, "sift", {}, FailureKind.STALLED),
    ("x*x - 0.25", 0.0, 1.0, "ivt", {}, FailureKind.STALLED),
    ("exp(-x*x)", -2.0, 2.0, "mvi", {"M": 0.77}, FailureKind.STALLED),
    ("x*exp(-x)", 0.0, 3.0, "ift", {}, FailureKind.STALLED),
    ("x - x^3", 0.0, 1.0, "sift", {}, FailureKind.HYPOTHESIS_FAIL),
    ("sin(x)", 0.0, 4.0, "sift", {}, FailureKind.HYPOTHESIS_FAIL),
])
def test_failure_is_the_cold_search_failure(src, a, b, theorem, kw, expected):
    # the kinds are those the cold-only search reported before the warm start
    p = problem(src, a, b, theorem, **kw)
    res = run_sweep(p)
    assert isinstance(res, SweepFailure) and res.kind is expected
    cold = local_extend(*at_frontier(src, a, b, theorem, res.at, (b - a) / 8, **kw))
    assert cold == res


def test_warm_domain_error_reports_the_cold_piece():
    p, state = at_frontier("log(x)", -1.0, 1.0, "bvt", -0.5, 0.25,
                           h_prev=2.0 ** -10)
    from suparg.numeric import DomainError
    with pytest.raises(DomainError) as exc:
        local_extend(p, state)
    assert exc.value.piece == FloatInterval(-0.5, -0.25)


def test_witness_reports_its_lattice_width():
    w = local_extend(*at_frontier("x - 0.5", 0.0, 1.0, "ivt", 0.4, 0.4))
    assert w.h == 0.05
    warm = local_extend(*at_frontier("x - 0.5", 0.0, 1.0, "ivt", 0.4, 0.4,
                                     h_prev=w.h))
    assert warm == w  # 2 * h_prev = 0.1 is refused, h_prev certifies again
