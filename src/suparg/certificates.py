"""Finite witness records and the standalone checker.

Each certificate variant fixes one theorem's conclusion over a concrete
function and interval: a partition (or an overlapping piece list), per-piece
bounds, and the handful of global scalars the conclusion needs.  The
checker re-verifies everything from scratch — structure, every per-piece
bound against a fresh interval evaluation, and the arithmetic by which the
global conclusion follows — so a certificate is portable evidence,
independent of the engine that produced it.

A bound stored in a certificate is accepted only when the fresh enclosure
implies it; "probably true but tighter than the evaluation supports" is
Invalid by design.  Every comparison that carries the conclusion is exact,
so no rounding in the checker itself can flip a verdict:
  - stored values and fresh bounds are binary64, and comparing two of them,
    or their absolute values, is exact;
  - where a test needs a sum or a difference (an oscillation hi - lo, an
    overlap lo + delta), the rounded float result decides unless it ties
    with the other side, and then the sign of its rounding error, which
    Knuth's TwoSum computes exactly, decides;
  - a rational threshold such as f(c) + eps is rounded down to a float once
    per certificate, which keeps v <= threshold unchanged for every float v;
  - the Darboux sums scale every partition point and every bound to one
    power of two, add the products as Python integers, which neither round
    nor overflow, and compare them with the stored sums by
    cross-multiplication.
The few tests left in rational arithmetic run once per certificate.

Each certificate type is described once, by one `Row` in `ROWS`: its
theorem codes, JSON type, per-piece arrays and the side of the enclosure
each one bounds, parameters, scalar conditions, per-piece limit, statement
text, and the start values and per-piece step by which the sweep builds it.
Start also reads the problem, so what a sweep needs beyond the certificate
lives in the row too: dit's start plans its budget from a coarser pass's
certificate.  The checker, the JSON codec, the conclusion, the sweep (which
selects a row by theorem code and builds the certificate in its fields) and
the CLI all read the rows.  So a conclusion is added by adding a class, its
row and the `prove_*` function in `theorems` that the row names as its
prover; `cli` imports that function and calls it by the row's name.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import islice
from operator import ge, gt, le, lt
from typing import Callable

from . import expr as expr_mod
from .expr import Expr, eval_d1, eval_iv, parse
from .numeric import (
    _MAX_FLOAT,
    _MIN_NORMAL,
    DomainError,
    FloatInterval,
    RatInterval,
    Rational,
    add_down,
    add_up,
    div_down,
    float_down,
    float_to_hex,
    format_rational,
    hex_to_float,
    hex_to_interval,
    interval_to_hex,
    midpoint,
    mul_down,
    mul_up,
    parse_rational,
    sub_down,
    sub_up,
    sum_above,
)

SCHEMA = "suparg-cert/1"


class StructureError(ValueError):
    """Certificate pieces do not fit together (endpoint mismatch, bad arrays)."""


# =============================================================================
# Structure
# =============================================================================

@dataclass(frozen=True)
class Partition:
    """Strictly increasing binary64 grid from a to b (a single point when a == b)."""

    points: tuple[float, ...]

    def __post_init__(self):
        if not self.points:
            raise StructureError("empty partition")
        for u, v in zip(self.points, self.points[1:]):
            if not u < v:
                raise StructureError(f"partition not strictly increasing at {u!r}")

    @property
    def a(self) -> float:
        return self.points[0]

    @property
    def b(self) -> float:
        return self.points[-1]

    def __len__(self) -> int:
        return len(self.points) - 1


# =============================================================================
# Certificate variants
# =============================================================================

class _Stated:
    @property
    def theorem(self) -> str:
        """Code of the theorem the certificate states (bvt … cft, i1, i2)."""
        codes = ROW_OF[type(self)].theorems
        return next(th for th, fixed in codes.items()
                    if all(getattr(self, k) == v for k, v in fixed.items()))


@dataclass(frozen=True)
class BoundCert(_Stated):
    """Global upper bound: for all t in [a,b], f(t) <= bound."""

    fn_source: str
    a: float
    b: float
    partition: Partition
    piece_sup: tuple[float, ...]
    bound: float


@dataclass(frozen=True)
class MaxCert(_Stated):
    """eps-maximizer: f(t) <= f(c) + eps for all t, with f(c) >= f_at_c_lo."""

    fn_source: str
    a: float
    b: float
    eps: float
    c: float
    f_at_c_lo: float
    partition: Partition
    piece_sup: tuple[float, ...]


@dataclass(frozen=True)
class NegCert(_Stated):
    """Strict negativity: f < 0 everywhere on [a,b]."""

    fn_source: str
    a: float
    b: float
    partition: Partition
    piece_hi: tuple[float, ...]


@dataclass(frozen=True)
class RootBracket(_Stated):
    """Sign-certified bracket: f(l) < 0 < f(r), so f has a zero in [l,r]."""

    fn_source: str
    a: float
    b: float
    l: float
    r: float
    f_l_hi: float
    f_r_lo: float
    tol: float


@dataclass(frozen=True)
class ModulusCert(_Stated):
    """Uniform-continuity modulus: |s-t| < delta implies |f(s)-f(t)| < eps.

    Pieces are closed, cover [a,b], and consecutive pieces overlap by at
    least delta, so any pair closer than delta lands inside one piece whose
    oscillation is below eps.
    """

    fn_source: str
    a: float
    b: float
    eps: float
    delta: float
    pieces: tuple[FloatInterval, ...]
    piece_osc: tuple[float, ...]


@dataclass(frozen=True)
class IntegralCert(_Stated):
    """Darboux enclosure: lower_sum <= integral of f <= upper_sum, gap < eps."""

    fn_source: str
    a: float
    b: float
    eps: float
    partition: Partition
    piece_lo: tuple[float, ...]
    piece_hi: tuple[float, ...]
    lower_sum: float
    upper_sum: float


@dataclass(frozen=True)
class MonotoneCert(_Stated):
    """Monotonicity from per-piece derivative lower bounds (> 0 strict, >= 0 weak)."""

    fn_source: str
    a: float
    b: float
    strict: bool
    partition: Partition
    piece_deriv_lo: tuple[float, ...]


@dataclass(frozen=True)
class MviCert(_Stated):
    """Mean-value inequality: f(x2) - f(x1) <= bound * (x2 - x1) for x1 < x2."""

    fn_source: str
    a: float
    b: float
    bound: float
    partition: Partition
    piece_deriv_hi: tuple[float, ...]


@dataclass(frozen=True)
class FlatCert(_Stated):
    """eta-flatness: |f(t) - f(a)| <= osc_bound = eta * (b - a); exact when eta = 0."""

    fn_source: str
    a: float
    b: float
    eta: float
    osc_bound: float
    partition: Partition
    piece_deriv_abs: tuple[float, ...]


class ClopenVerdict(Enum):
    COVERS_ALL = "covers_all"
    NOT_CONTAINS_A = "not_contains_a"
    NOT_REL_OPEN = "not_rel_open"
    NOT_REL_CLOSED = "not_rel_closed"


@dataclass(frozen=True)
class ClopenReport(_Stated):
    """Outcome of the relative-clopen analysis of a set U inside [a,b]."""

    a: Rational
    b: Rational
    components: tuple[RatInterval, ...]
    verdict: ClopenVerdict
    witness: Rational | None = None


@dataclass(frozen=True)
class SubcoverCert(_Stated):
    """Finite subcover chain: the chosen open elements already cover [a,b]."""

    a: Rational
    b: Rational
    cover: tuple[RatInterval, ...]
    indices: tuple[int, ...]
    chain: tuple[Rational, ...]


Certificate = (
    BoundCert | MaxCert | NegCert | RootBracket | ModulusCert | IntegralCert
    | MonotoneCert | MviCert | FlatCert | ClopenReport | SubcoverCert
)


# =============================================================================
# One row per certificate type
# =============================================================================

@dataclass(frozen=True)
class Side:
    """Which side of an enclosure [lo, hi] a per-piece value bounds:
    store(lo, hi) is the value a prover records, holds(v, lo, hi) whether a
    stored v still bounds the enclosure."""

    store: Callable[[float, float], float]
    holds: Callable[[float, float, float], bool]


HI = Side(lambda lo, hi: hi, lambda v, lo, hi: hi <= v)
LO = Side(lambda lo, hi: lo, lambda v, lo, hi: v <= lo)
ABS = Side(lambda lo, hi: max(abs(lo), abs(hi)),
           lambda v, lo, hi: v >= max(abs(lo), abs(hi)))
OSC = Side(lambda lo, hi: sub_up(hi, lo), lambda v, lo, hi: not sum_above(hi, -lo, v))


@dataclass(frozen=True)
class Row:
    """Everything suparg knows about one certificate type.

    Callables take the certificate (or the sweep's state, which has the
    certificate's field names and what start adds) as c or s, the function
    as f, an enclosure as its ends lo and hi, a piece as its ends x and y, a
    LocalWitness as w and the sweep's Problem as p; t_lo is f's lower end at
    the best of the row's points (None without points).  A sweep returns
    only a certificate that meets requires.
    """

    cls: type
    type: str                        # JSON "type"
    theorems: dict[str, dict]        # theorem code -> field values that select it
    text: Callable                   # c -> statement
    prover: str | None = None        # name of the theorems function proving it
    grid: str | None = None          # field holding the pieces, or what piece_count counts
    arrays: tuple[tuple[str, Side], ...] = ()   # per-piece arrays
    params: tuple[str, ...] = ()     # fields stored under "params": the theorem's inputs
    keys: dict[str, str] = field(default_factory=dict)  # JSON name where it differs
    deriv: bool = False              # pieces enclose f' (eval_d1), not f (eval_iv)
    positive: tuple[str, ...] = ()
    nonnegative: tuple[str, ...] = ()
    requires: tuple[tuple[Callable, str], ...] = ()     # (c, f) -> bool, reason
    pointwise: bool = False          # limit binds f itself, so a == b is not vacuous
    limit: Callable | None = None    # c -> (op, t, reason): op(first array value, t)
    link: Callable | None = None     # c -> (k, reason) of the first unlinked piece
    total: Callable | None = None    # c -> reason when the pieces do not add up
    # how the sweep builds it
    start: Callable = lambda s, p: {}   # (s, p) -> scalars on [a, a], the state's own too
    window: Callable | None = None   # (s, p, x, h) -> left end u <= x of the piece to evaluate
    points: Callable | None = None   # (x, y) -> points of [x, y] where f is evaluated
    step: Callable | None = None     # (s, w) -> None: scalars (and pieces) after taking in w
    accept: Callable | None = None   # (s, lo, hi, x, y, t_lo) -> bool; default: the limit holds
    # (s, lo, hi, x, y) -> (r, p), judging in accept's place: r is the
    # threshold over the tested quantity, 0 when that exceeds it, and falls
    # about as width ** -p
    margin: Callable | None = None
    refute: Callable | None = None   # (s, lo, hi) -> reason when [lo, hi] certifies it false
    stall: str = ""                  # why a degenerate domain does not certify

    def key(self, name: str) -> str:
        return self.keys.get(name, name)


def _raise_bound(s, w) -> None:
    s.bound = max(s.bound, w.hi)


def _take_candidate(s, w) -> None:
    if w.cand_lo is not None and w.cand_lo > s.f_at_c_lo:
        s.c, s.f_at_c_lo = w.cand, w.cand_lo


_HALVING_EXACT = 2.0 ** -1021  # halving a float at or above this loses no bit


def _half_down(x: float, y: float) -> float:
    """Largest float <= (y - x) / 2."""
    d = sub_down(y, x)
    if _HALVING_EXACT <= d < _MAX_FLOAT:  # d = float_down(y - x), d / 2 is exact
        return d / 2
    return float_down((Fraction(y) - Fraction(x)) / 2)  # subnormal or overflowed


def _shrink_modulus(s, w) -> None:
    # min-rule: half the first piece, then never above half an overlap
    # [ext_lo, x] with the previous piece, which is all _overlap_gap needs;
    # a forward piece [x, y], a sliver where a search clips at b, does not
    # bound it.  Then the evaluated piece [ext_lo, y] is stored
    x, y = w.x, w.y
    if s.pieces:
        if x <= w.ext_lo:
            raise StructureError("uniform-continuity pieces must overlap")
        s.delta = min(s.delta, _half_down(w.ext_lo, x))
    else:
        s.delta = _half_down(x, y)
    s.pieces.append(FloatInterval(w.ext_lo, y))


def _osc_margin(t: float, lo: float, hi: float) -> float:
    # t over an oscillation hi - lo that must stay at most t (inf for a
    # point enclosure), or 0 when OSC refuses it
    if not OSC.holds(t, lo, hi):
        return 0.0
    osc = hi - lo
    return t / osc if osc > 0.0 else math.inf


def _overlap_gap(c) -> tuple[int, str] | None:
    delta = c.delta
    for k, (piece, nxt) in enumerate(zip(c.pieces, c.pieces[1:])):
        if nxt.lo < piece.lo:
            return k, "pieces not sorted by left endpoint"
        if sum_above(nxt.lo, delta, piece.hi):
            return k, "adjacent pieces overlap by less than delta"
    return None


def _term_down(m: float, x: float, y: float) -> float:
    # lower bound for m * (y - x) with the stored endpoints
    return mul_down(m, add_down(y, -x) if m >= 0 else add_up(y, -x))


def _term_up(m: float, x: float, y: float) -> float:
    return mul_up(m, add_up(y, -x) if m >= 0 else add_down(y, -x))


def _add_darboux_terms(s, w) -> None:
    x, y = w.x, w.y
    s.lower_sum = add_down(s.lower_sum, _term_down(w.lo, x, y))
    s.upper_sum = add_up(s.upper_sum, _term_up(w.hi, x, y))


def _scale(values) -> int:
    """Least k with v * 2^k an integer for every binary64 v in values."""
    return max((v.as_integer_ratio()[1] for v in values), default=1).bit_length() - 1


def _darboux_sums(c) -> str | None:
    """The reason the stored sums do not bound the exact sums of the pieces;
    None when they do.  The gap U - L is tested by the row's requires."""
    if c.a == c.b and (c.lower_sum != 0.0 or c.upper_sum != 0.0):
        return "degenerate integral must be [0, 0]"
    # Every binary64 value is n / 2^k.  With kp the largest k of the points
    # and kb that of the bounds, p * 2^kp and m * 2^kb are integers, so the
    # exact sums of m * (v - u) are lower / 2^(kp + kb) and upper / 2^(kp + kb).
    points = c.partition.points
    kp, kb = _scale(points), max(_scale(c.piece_lo), _scale(c.piece_hi))
    lower = upper = 0
    n, d = points[0].as_integer_ratio()
    u = n << (kp + 1 - d.bit_length())
    for x, lo, hi in zip(islice(points, 1, None), c.piece_lo, c.piece_hi):
        n, d = x.as_integer_ratio()
        v = n << (kp + 1 - d.bit_length())
        w = v - u
        n, d = lo.as_integer_ratio()
        lower += (n << (kb + 1 - d.bit_length())) * w
        n, d = hi.as_integer_ratio()
        upper += (n << (kb + 1 - d.bit_length())) * w
        u = v
    # stored sums L = nl / dl and U = nu / du: cross-multiply by the
    # positive denominators
    k = kp + kb
    nl, dl = c.lower_sum.as_integer_ratio()
    nu, du = c.upper_sum.as_integer_ratio()
    if nl << k > lower * dl:
        return "stored lower sum above the exact piece sum"
    if nu << k < upper * du:
        return "stored upper sum below the exact piece sum"
    return None


def _darboux_gap(c) -> str | None:
    """The reason the stored gap U - L is not below eps, exactly; None when
    it is.  O(1), so the row requires it of every certificate a sweep
    returns: rounding in the directed sums can lift a gap the pieces kept."""
    nl, dl = c.lower_sum.as_integer_ratio()
    nu, du = c.upper_sum.as_integer_ratio()
    ne, de = c.eps.as_integer_ratio()
    if not (nu * dl - nl * du) * de < ne * du * dl:
        return "Darboux gap not below eps"
    return None


@dataclass(frozen=True)
class DarbouxPlan:
    """Where a coarser dit sweep of the same problem found f steep, to spread
    the Darboux gap evenly over the pieces of the next sweep.

    A piece of width w and oscillation osc has gap osc * w, and
    sqrt(osc * w) estimates the integral of sqrt|f'| over it.  For a gap g
    per piece, a stretch needs about (that integral) / sqrt(g) pieces, so
    the fewest pieces for a total gap R take g = (R / S)^2 each, S the
    integral over what is left (de Boor's equidistribution, 1973).  points
    is the coarse partition, left[i] the estimate S over [points[i], b].
    """

    points: tuple[float, ...]
    left: tuple[float, ...]

    @classmethod
    def of(cls, c: IntegralCert) -> DarbouxPlan | None:
        """The plan a coarse certificate gives; None when its estimate is
        not finite."""
        points = c.partition.points
        left, total = [0.0], 0.0
        for k in range(len(c.piece_lo) - 1, -1, -1):
            total += math.sqrt((c.piece_hi[k] - c.piece_lo[k]) * (points[k + 1] - points[k]))
            left.append(total)
        if not math.isfinite(total):
            return None
        return cls(tuple(points), tuple(reversed(left)))

    def remaining(self, x: float) -> float:
        """The estimate S over [x, b], linear within a coarse piece."""
        points, left = self.points, self.left
        k = bisect_right(points, x) - 1
        if k >= len(points) - 1:
            return 0.0
        u, v = points[k], points[k + 1]
        return left[k + 1] + (left[k] - left[k + 1]) * ((v - x) / (v - u))

    def budget(self, s, x: float, y: float) -> float:
        """The oscillation a piece [x, y] past the state s may have: its gap is at
        most both the remaining share R = 7/8 eps - (U - L) of the gap and
        (R / S)^2.  It only steers the sweep, so it is computed with the
        float arithmetic's rounding, which neither raises nor needs to bound
        anything: the other 1/8 of eps absorbs that rounding and the sums',
        and the row's requires tests the gap exactly."""
        r = 0.875 * s.eps - (s.upper_sum - s.lower_sum)
        if not r > 0.0:
            return 0.0
        rest = self.remaining(x)
        if rest > 0.0:
            r = min(r, (r / rest) * (r / rest))
        return r / (y - x)


def _start_darboux(s, p) -> dict:
    """Empty sums and budget(s, x, y), the oscillation a piece past s may
    have: by the plan of p.prior, a coarser sweep's certificate, when it
    gives one; else eps / (2 (b - a)) rounded down, which keeps the gap on
    [a, x] at most (x - a) eps / (2 (b - a)), and which is computed at the
    first probe, so that a domain error there comes before its overflow."""
    plan = DarbouxPlan.of(p.prior) if p.prior is not None else None
    flat = cache(lambda: div_down(s.eps, mul_up(2.0, sub_up(p.b, p.a))))
    budget = plan.budget if plan is not None else lambda s, x, y: flat()
    return {"lower_sum": 0.0, "upper_sum": 0.0, "budget": budget}


def _stretch_flat(s, w) -> None:
    s.osc_bound = mul_up(s.eta, sub_up(w.y, s.a))


def _monotone_refuted(s, lo, hi) -> str:
    if s.strict:
        return "derivative certified nonpositive" if hi <= 0.0 else ""
    return "derivative certified negative" if hi < 0.0 else ""


def _rat_iv(e: RatInterval) -> dict:
    return {"lo": format_rational(e.lo), "hi": format_rational(e.hi),
            "lo_open": e.lo_open, "hi_open": e.hi_open}


def _parse_rat_iv(d: dict) -> RatInterval:
    return RatInterval(parse_rational(d["lo"]), parse_rational(d["hi"]),
                       _flag(d["lo_open"]), _flag(d["hi_open"]))


ROWS = (
    Row(BoundCert, "bound", {"bvt": {}}, prover="prove_bound",
        text=lambda c: f"∀t∈[{c.a!r}, {c.b!r}]: f(t) ≤ {c.bound!r} for f = {c.fn_source}",
        grid="partition", arrays=(("piece_sup", HI),), keys={"bound": "M"},
        positive=("bound",), pointwise=True,
        limit=lambda c: (le, c.bound, "M < piece bound"),
        start=lambda s, p: {"bound": _MIN_NORMAL}, step=_raise_bound,
        accept=lambda s, lo, hi, x, y, t_lo: True),
    Row(MaxCert, "max", {"evt": {}}, prover="prove_max",
        text=lambda c: (f"∃c = {c.c!r} ∈ [{c.a!r}, {c.b!r}]: ∀t: f(t) ≤ f(c) + {c.eps!r}, "
                        f"f(c) ≥ {c.f_at_c_lo!r} for f = {c.fn_source}"),
        grid="partition", arrays=(("piece_sup", HI),), params=("eps",),
        positive=("eps",), pointwise=True,
        requires=((lambda c, f: c.a <= c.c <= c.b, "maximizer candidate outside the domain"),
                  (lambda c, f: c.f_at_c_lo <= eval_iv(f, c.c, c.c)[0],
                   "f_at_c_lo tighter than fresh enclosure at c")),
        # add_down gives float_down(f_at_c_lo + eps), and a float v is at most
        # a rational q exactly when it is at most float_down(q)
        limit=lambda c: (le, add_down(c.f_at_c_lo, c.eps), "piece sup-bound above f(c) + eps"),
        start=lambda s, p: {"c": s.a, "f_at_c_lo": -_MAX_FLOAT},
        # the midpoint covers an interior maximum, the right end one at (or
        # beyond) the frontier, so monotone stretches certify at full width
        points=lambda x, y: (midpoint(x, y), y),
        step=_take_candidate, stall="point enclosure wider than eps",
        # judged against the certificate once this piece's candidate is in
        accept=lambda s, lo, hi, x, y, t_lo: hi <= add_down(max(s.f_at_c_lo, t_lo), s.eps)),
    Row(NegCert, "neg", {"ivt": {}}, prover="prove_root",
        text=lambda c: f"∀t∈[{c.a!r}, {c.b!r}]: f(t) < 0 for f = {c.fn_source}",
        grid="partition", arrays=(("piece_hi", HI),), pointwise=True,
        limit=lambda c: (lt, 0.0, "piece upper bound not negative"),
        refute=lambda s, lo, hi: "range certified positive" if lo > 0.0 else "",
        stall="sign at the degenerate point undecided"),
    Row(RootBracket, "root_bracket", {"ivt": {}}, prover="prove_root",
        text=lambda c: f"∃c∈[{c.l!r}, {c.r!r}]: f(c) = 0 for f = {c.fn_source}",
        params=("tol",), positive=("tol",),
        requires=((lambda c, f: c.a <= c.l < c.r <= c.b, "bracket not inside the domain"),
                  (lambda c, f: Fraction(c.r) - Fraction(c.l) <= Fraction(c.tol),
                   "bracket wider than tol"),
                  (lambda c, f: eval_iv(f, c.l, c.l)[1] <= c.f_l_hi,
                   "left bound tighter than fresh enclosure"),
                  (lambda c, f: c.f_l_hi < 0.0, "left endpoint not certified negative"),
                  (lambda c, f: c.f_r_lo <= eval_iv(f, c.r, c.r)[0],
                   "right bound tighter than fresh enclosure"),
                  (lambda c, f: c.f_r_lo > 0.0, "right endpoint not certified positive"))),
    Row(ModulusCert, "modulus", {"uct": {}}, prover="prove_modulus",
        text=lambda c: (f"∀s,t∈[{c.a!r}, {c.b!r}]: |s−t| < {c.delta!r} ⇒ "
                        f"|f(s)−f(t)| < {c.eps!r} for f = {c.fn_source}"),
        grid="pieces", arrays=(("piece_osc", OSC),), params=("eps",),
        positive=("eps", "delta"), link=_overlap_gap,
        limit=lambda c: (lt, c.eps, "piece oscillation not below eps"),
        start=lambda s, p: {"delta": 1.0, "pieces": []}, step=_shrink_modulus,
        # evaluate over a backward-extended piece so stored pieces overlap;
        # the extension never reaches past the previous piece's left end,
        # which keeps the stored pieces sorted
        window=lambda s, p, x, h: max(p.a, x - h, s.pieces[-1].lo if s.pieces else p.a),
        # below eps is at most the float below it; a probe wider than max
        # fails.  The oscillation grows about linearly with the width
        margin=lambda s, lo, hi, x, y: (_osc_margin(math.nextafter(s.eps, 0.0), lo, hi), 1)),
    Row(IntegralCert, "integral", {"dit": {}}, prover="prove_integral",
        text=lambda c: (f"∫f over [{c.a!r}, {c.b!r}] ∈ [{c.lower_sum!r}, {c.upper_sum!r}], "
                        f"U − L < {c.eps!r} for f = {c.fn_source}"),
        grid="partition", arrays=(("piece_lo", LO), ("piece_hi", HI)), params=("eps",),
        keys={"lower_sum": "L", "upper_sum": "U"}, positive=("eps",),
        requires=((lambda c, f: not _darboux_gap(c), "Darboux gap not below eps"),),
        total=_darboux_sums,
        start=_start_darboux, step=_add_darboux_terms,
        # a planned budget falls as 1 / width while the oscillation grows
        # with it; the flat budget's p would be 1, and 2 only steps warier
        margin=lambda s, lo, hi, x, y: (_osc_margin(s.budget(s, x, y), lo, hi), 2)),
    Row(MonotoneCert, "monotone", {"sift": {"strict": True}, "ift": {"strict": False}},
        prover="prove_monotone",
        text=lambda c: (f"∀x₁<x₂ in [{c.a!r}, {c.b!r}]: f(x₁) {'<' if c.strict else '≤'} "
                        f"f(x₂) for f = {c.fn_source}"),
        grid="partition", arrays=(("piece_deriv_lo", LO),), deriv=True,
        limit=lambda c: ((gt, 0.0, "strict monotonicity needs a positive derivative bound")
                         if c.strict else
                         (ge, 0.0, "monotonicity needs a nonnegative derivative bound")),
        refute=_monotone_refuted),
    Row(MviCert, "mvi", {"mvi": {}}, prover="prove_mvi",
        text=lambda c: (f"∀x₁<x₂ in [{c.a!r}, {c.b!r}]: f(x₂) − f(x₁) ≤ "
                        f"{c.bound!r}·(x₂ − x₁) for f = {c.fn_source}"),
        grid="partition", arrays=(("piece_deriv_hi", HI),), deriv=True, params=("bound",),
        keys={"bound": "M"}, positive=("bound",),
        limit=lambda c: (le, c.bound, "piece derivative bound above M"),
        refute=lambda s, lo, hi: "derivative certified above M" if lo > s.bound else ""),
    Row(FlatCert, "flat", {"cft": {}}, prover="prove_flat",
        text=lambda c: (f"∀t∈[{c.a!r}, {c.b!r}]: |f(t) − f(a)| ≤ {c.osc_bound!r} "
                        f"for f = {c.fn_source}" + (" (exact constancy)" if c.eta == 0.0 else "")),
        grid="partition", arrays=(("piece_deriv_abs", ABS),), deriv=True, params=("eta",),
        nonnegative=("eta",),
        requires=((lambda c, f: Fraction(c.osc_bound)
                   >= Fraction(c.eta) * (Fraction(c.b) - Fraction(c.a)),
                   "oscillation conclusion below eta * (b - a)"),),
        limit=lambda c: (le, c.eta, "piece derivative magnitude above eta"),
        start=lambda s, p: {"osc_bound": mul_up(s.eta, sub_up(s.b, s.a))}, step=_stretch_flat,
        refute=lambda s, lo, hi: ("derivative certified outside [-eta, eta]"
                                  if lo > s.eta or hi < -s.eta else "")),
    Row(ClopenReport, "clopen", {"i1": {}},
        text=lambda c: (f"clopen analysis on [{c.a}, {c.b}]: {c.verdict.value}"
                        + (f" (witness {c.witness})" if c.witness is not None else "")),
        grid="components", keys={"components": "set"}),
    Row(SubcoverCert, "subcover", {"i2": {}},
        text=lambda c: f"[{c.a}, {c.b}] ⊆ union of cover elements {list(c.indices)}",
        grid="indices"),
)

ROW_OF = {row.cls: row for row in ROWS}
_ROW_OF_TYPE = {row.type: row for row in ROWS}


def _row(cert) -> Row:
    try:
        return ROW_OF[type(cert)]
    except KeyError:
        raise TypeError(f"unknown certificate type {type(cert).__name__}") from None


# =============================================================================
# Checking
# =============================================================================

@dataclass(frozen=True)
class CheckResult:
    valid: bool
    reason: str = ""
    piece: int | None = None

    def __bool__(self) -> bool:
        return self.valid

    def __str__(self) -> str:
        if self.valid:
            return "Valid"
        where = f" (piece {self.piece})" if self.piece is not None else ""
        return f"Invalid: {self.reason}{where}"


VALID = CheckResult(True)


def _invalid(reason: str, piece: int | None = None) -> CheckResult:
    return CheckResult(False, reason, piece)


def check(cert: Certificate, f: Expr | None = None,
          a: float | None = None, b: float | None = None) -> CheckResult:
    """Re-verify a certificate from scratch.

    For function certificates, f/a/b (when provided) must match the
    certificate's stored source and domain; every per-piece bound is then
    re-certified by a fresh eval_iv/eval_d1 call and the global conclusion
    is re-derived exactly, by float comparisons whose rounding is accounted
    for and by sums in scaled integers (see the module docstring).  Invalid
    is a value, not an error.
    """
    if isinstance(cert, (ClopenReport, SubcoverCert)):
        return _check_topology(cert)
    row = ROW_OF.get(type(cert))
    if row is None:
        return _invalid(f"unknown certificate type {type(cert).__name__}")

    nonfinite = _nonfinite_field(cert)
    if nonfinite is not None:
        return _invalid(f"{nonfinite} is not finite")
    try:
        stored = parse(cert.fn_source)
    except expr_mod.ParseError as err:
        return _invalid(f"stored function does not parse: {err}")
    if f is not None and stored != f:
        return _invalid("function mismatch between certificate and caller")
    if a is not None and a != cert.a:
        return _invalid("domain mismatch: a")
    if b is not None and b != cert.b:
        return _invalid("domain mismatch: b")
    if not cert.a <= cert.b:
        return _invalid("inverted domain")
    try:
        return _check_function(row, cert, stored)
    except (DomainError, expr_mod.NotDifferentiable, OverflowError) as err:
        return _invalid(f"re-evaluation failed: {err}")


def _nonfinite_field(cert) -> str | None:
    # NaN slips through every ordered comparison and the exact tests cannot
    # take NaN or inf, so a hostile scalar or per-piece value is refused first.
    for fld in fields(cert):
        value = getattr(cert, fld.name)
        values = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            return fld.name
    return None


def _check_function(row: Row, c, f: Expr) -> CheckResult:
    for name in row.positive:
        if not getattr(c, name) > 0.0:
            return _invalid(f"{row.key(name)} is not positive")
    for name in row.nonnegative:
        if getattr(c, name) < 0.0:
            return _invalid(f"{row.key(name)} is negative")
    if row.grid is not None:
        grid = getattr(c, row.grid)
        if isinstance(grid, Partition):
            pieces, start, end = list(zip(grid.points, grid.points[1:])), grid.a, grid.b
        else:
            pieces = [(piece.lo, piece.hi) for piece in grid]
            start, end = (grid[0].lo, grid[-1].hi) if grid else (c.a, c.a)
        if start != c.a:
            return _invalid("partition does not start at a")
        if end != c.b:
            return _invalid("partition gap: does not end at b")
        if any(len(getattr(c, name)) != len(pieces) for name, _ in row.arrays):
            return _invalid("per-piece array length does not match partition")
        if c.a == c.b and pieces:
            return _invalid("degenerate domain with nonempty pieces")
    for test, reason in row.requires:
        if not test(c, f):
            return _invalid(reason)
    if row.grid is None:
        return VALID

    op, t, reason = row.limit(c) if row.limit is not None else (None, None, "")
    if c.a == c.b:
        lo, hi = eval_d1(f, c.a, c.a)[2:] if row.deriv else eval_iv(f, c.a, c.a)
        if row.pointwise and not op(row.arrays[0][1].store(lo, hi), t):
            return _invalid(f"{reason} at the degenerate point")

    stored = [(getattr(c, name), side.holds, name) for name, side in row.arrays]
    first, deriv = stored[0][0], row.deriv
    gap = row.link(c) if row.link is not None else None
    for k in range(len(pieces) if gap is None else gap[0]):
        x, y = pieces[k]
        lo, hi = eval_d1(f, x, y)[2:] if deriv else eval_iv(f, x, y)
        for values, holds, name in stored:
            if not holds(values[k], lo, hi):
                return _invalid(f"{name} tighter than fresh enclosure", k)
        if op is not None and not op(first[k], t):
            return _invalid(reason, k)
    if gap is not None:
        return _invalid(gap[1], gap[0])
    bad = row.total(c) if row.total is not None else None
    return VALID if bad is None else _invalid(bad)


def _check_topology(cert: ClopenReport | SubcoverCert) -> CheckResult:
    from . import topology  # deferred to keep module layering acyclic

    if isinstance(cert, SubcoverCert):
        if not cert.indices:
            return _invalid("no cover elements chosen")
        for i in cert.indices:
            if not 0 <= i < len(cert.cover):
                return _invalid(f"chosen index {i} outside the cover")
        chosen = [cert.cover[i] for i in cert.indices]
        for e in chosen:
            if not e.is_open_interval():
                return _invalid("cover element is not an open interval")
        chain = cert.chain
        if not chain or chain[0] != cert.a or chain[-1] != cert.b:
            return _invalid("witness chain does not run from a to b")
        if len(chain) - len(chosen) not in (0, 1):
            return _invalid("witness chain length does not match the chosen elements")
        if any(p >= q for p, q in zip(chain, chain[1:])):
            return _invalid("witness chain is not strictly increasing")
        for e, p in zip(chosen, chain):
            if not e.lo < p < e.hi:
                return _invalid(f"chosen element {e} does not contain the chain point {p}")
        uncovered = topology.uncovered_point(chosen, cert.a, cert.b)
        if uncovered is not None:
            return _invalid(f"chosen elements miss the point {uncovered}")
        return VALID

    u = topology.RatIntervalSet(cert.components)
    try:
        fresh = topology.analyze_clopen(u, cert.a, cert.b)
    except ValueError as err:  # reversed domain, or a set outside [a, b]
        return _invalid(str(err))
    if fresh.verdict != cert.verdict or fresh.witness != cert.witness:
        return _invalid("stored verdict not reproduced by exact set algebra")
    return VALID


# =============================================================================
# Conclusions
# =============================================================================

@dataclass(frozen=True)
class Conclusion:
    theorem: str
    text: str


def conclusion_of(cert: Certificate) -> Conclusion:
    """The statement certified by the certificate, with its theorem code."""
    return Conclusion(cert.theorem, _row(cert).text(cert))


# =============================================================================
# JSON documents (bit-exact round-trip)
# =============================================================================

def _typed(kind: type) -> Callable:
    def decode(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}, found {type(value).__name__}")
        return value
    return decode


def _hex_list(values) -> list[str]:
    return [float_to_hex(v) for v in values]


_flag = _typed(bool)
# field annotation -> (encode, decode); every decoder raises on a value of
# the wrong shape or type, which from_document reports as a StructureError
_CODECS = {
    "str": (str, _typed(str)),
    "bool": (bool, _flag),
    "float": (float_to_hex, hex_to_float),
    "tuple[float, ...]": (_hex_list, lambda v: tuple(map(hex_to_float, v))),
    "Partition": (lambda p: _hex_list(p.points),
                  lambda v: Partition(tuple(map(hex_to_float, v)))),
    "tuple[FloatInterval, ...]": (lambda v: [interval_to_hex(x) for x in v],
                                  lambda v: tuple(map(hex_to_interval, v))),
    "Rational": (format_rational, parse_rational),
    "Rational | None": (lambda q: None if q is None else format_rational(q),
                        lambda v: None if v is None else parse_rational(v)),
    "tuple[Rational, ...]": (lambda v: [format_rational(q) for q in v],
                             lambda v: tuple(map(parse_rational, v))),
    "tuple[int, ...]": (list, lambda v: tuple(map(operator.index, v))),
    "tuple[RatInterval, ...]": (lambda v: [_rat_iv(e) for e in v],
                                lambda v: tuple(map(_parse_rat_iv, v))),
    "ClopenVerdict": (lambda v: v.value, ClopenVerdict),
}

def to_document(cert: Certificate, engine: dict | None = None) -> dict:
    row = _row(cert)
    domain, body, params = [], {"type": row.type}, {}
    for fld in fields(cert):
        value = _CODECS[fld.type][0](getattr(cert, fld.name))
        if fld.name in ("a", "b"):  # a precedes b in every certificate class
            domain.append(value)
        elif fld.name != "fn_source":
            (params if fld.name in row.params else body)[row.key(fld.name)] = value
    return {
        "schema": SCHEMA,
        "theorem": cert.theorem,
        "function": getattr(cert, "fn_source", None),
        "domain": domain,
        "params": params,
        "certificate": body,
        "engine": engine or {"pieces": piece_count(cert), "h_min": float_to_hex(0.0)},
    }


def piece_count(cert: Certificate) -> int:
    """Pieces, chosen elements or set components: the engine's count."""
    grid = _row(cert).grid
    return 0 if grid is None else len(getattr(cert, grid))


def dumps(cert: Certificate, engine: dict | None = None) -> str:
    """Deterministic JSON text, compact: sorted keys, no whitespace,
    hexfloat scalars.  Without an indent CPython runs its C encoder."""
    return json.dumps(to_document(cert, engine), sort_keys=True, separators=(",", ":")) + "\n"


def from_document(doc: dict) -> Certificate:
    """Certificate from a parsed JSON document; StructureError for any
    document that does not have the shape and types dumps() writes."""
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise StructureError(f"unsupported schema {schema!r}")
    try:
        body = doc["certificate"]
        row = _ROW_OF_TYPE.get(body["type"])
        if row is None:
            raise StructureError(f"unknown certificate type {body['type']!r}")
        params = doc.get("params", {})
        values = {}
        for fld in fields(row.cls):
            if fld.name == "fn_source":
                raw = doc["function"]
            elif fld.name in ("a", "b"):
                raw = doc["domain"][fld.name == "b"]
            else:
                raw = (params if fld.name in row.params else body).get(row.key(fld.name))
            values[fld.name] = _CODECS[fld.type][1](raw)
        return row.cls(**values)
    except StructureError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as err:
        raise StructureError(f"malformed certificate document: {err!r}") from None


def loads(text: str) -> Certificate:
    return from_document(json.loads(text))
