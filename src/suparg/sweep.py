"""The generic frontier-sweep engine.

Each supported property is a prefix statement about [a, x] that holds
trivially at x = a, extends locally by one interval evaluation over a small
piece, and merges with what is already certified.  The classical proof
takes the supremum of the certified prefix set and derives a contradiction
from the ability to extend past it; here the same extension step simply
advances a frontier until it reaches b, accumulating the finite certificate
along the way.

Local extension searches for a workable step width by geometric halving
down to h_min, over the lattice of widths h_init * 2**-k.  The width that
certified the previous piece is the best guess for the next one, so the
search warm-starts at twice that width (capped at h_init) and only the
first piece starts cold at h_init.  A warm search that certifies nothing is
rerun once from h_init, so a frontier fails exactly where the cold search
fails, refutation probes at the wide widths included.  A failure to certify
is reported as a stall unless the evaluated enclosure itself refutes the
hypothesis (for example a certified-positive range while proving
negativity), in which case the failure carries the refuting piece: interval
arithmetic cannot otherwise distinguish "hypothesis false" from "enclosure
too loose".

Merging is transitivity made concrete.  For most properties certificates
over [a, x] and [x, y] concatenate; the uniform-continuity property merges
with a shrinking modulus (pieces are kept overlapping, and the merged delta
never exceeds a constituent delta nor half an overlap), and the
strict-monotonicity property chains strict inequalities through shared
piece endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .certificates import (
    BoundCert,
    Certificate,
    FlatCert,
    IntegralCert,
    MaxCert,
    ModulusCert,
    MonotoneCert,
    MviCert,
    NegCert,
    Partition,
    StructureError,
)
from .expr import Expr, eval_d1, eval_iv, parse, to_source
from .numeric import (
    DomainError,
    FloatInterval,
    add_down,
    add_up,
    div_down,
    float_down,
    mul_down,
    mul_up,
    sub_up,
)

_MIN_NORMAL = 2.2250738585072014e-308
_MAX_FLOAT = 1.7976931348623157e308


class PropertyKind(Enum):
    """One value per supported conclusion; fixes the local predicate and merge rule."""

    BOUNDED = "bounded"
    MAX_APPROX = "max_approx"
    SIGN_NEG = "sign_neg"
    UNIF_CONT = "unif_cont"
    DARBOUX_GAP = "darboux_gap"
    STRICT_INC = "strict_inc"
    INC = "inc"
    MVI_BOUND = "mvi_bound"
    FLAT = "flat"


class CombinerClass(Enum):
    TRANSITIVE = "transitive"
    PSEUDO_TRANSITIVE = "pseudo_transitive"
    QUASI_PSEUDO_TRANSITIVE = "quasi_pseudo_transitive"


_DERIVATIVE_KINDS = (PropertyKind.STRICT_INC, PropertyKind.INC,
                     PropertyKind.MVI_BOUND, PropertyKind.FLAT)


def combiner_class(kind: PropertyKind) -> CombinerClass:
    if kind is PropertyKind.UNIF_CONT:
        return CombinerClass.QUASI_PSEUDO_TRANSITIVE
    if kind is PropertyKind.STRICT_INC:
        return CombinerClass.PSEUDO_TRANSITIVE
    return CombinerClass.TRANSITIVE


@dataclass(frozen=True)
class Problem:
    """A property to certify for one function over one interval."""

    f: Expr
    a: float
    b: float
    kind: PropertyKind
    eps: float | None = None
    M: float | None = None
    eta: float | None = None
    fn_source: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("domain endpoints must be finite")
        if self.a > self.b:
            raise ValueError("domain endpoints out of order")
        needs_eps = self.kind in (PropertyKind.UNIF_CONT, PropertyKind.DARBOUX_GAP,
                                  PropertyKind.MAX_APPROX)
        if needs_eps != (self.eps is not None):
            raise ValueError(f"{self.kind.value} requires eps exactly when applicable")
        if (self.kind is PropertyKind.MVI_BOUND) != (self.M is not None):
            raise ValueError("M is required exactly for the mean-value-inequality kind")
        if (self.kind is PropertyKind.FLAT) != (self.eta is not None):
            raise ValueError("eta is required exactly for the flatness kind")
        if self.eps is not None and not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.M is not None and not self.M > 0:
            raise ValueError("M must be positive")
        if self.eta is not None and self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.kind in _DERIVATIVE_KINDS and not self.f.differentiable:
            raise ValueError("derivative-based kinds need a differentiable expression")
        if self.fn_source is None:
            object.__setattr__(self, "fn_source", to_source(self.f))

    def darboux_budget(self) -> float:
        # per-piece oscillation budget eps / (2 (b - a)), rounded down
        cached = self.__dict__.get("_darboux_budget")
        if cached is None:
            cached = div_down(self.eps, mul_up(2.0, sub_up(self.b, self.a)))
            object.__setattr__(self, "_darboux_budget", cached)
        return cached


@dataclass(frozen=True)
class LocalWitness:
    """One certified step: the new piece and the enclosure data backing it."""

    piece: FloatInterval
    value: FloatInterval | None = None
    deriv: FloatInterval | None = None
    ext: FloatInterval | None = None     # evaluated overlapping piece (uniform continuity)
    cand: float | None = None            # improved maximizer candidate
    cand_lo: float | None = None
    h: float | None = None               # lattice step width that certified the piece


@dataclass(frozen=True)
class SweepState:
    """Frontier plus the certificate accumulated so far on [a, frontier]."""

    frontier: float
    partial: Certificate
    pieces_used: int = 0
    h_prev: float | None = None          # width of the last step; None starts cold


class FailureKind(Enum):
    STALLED = "stalled"
    HYPOTHESIS_FAIL = "hypothesis_fail"
    BUDGET = "budget"


@dataclass(frozen=True)
class SweepFailure:
    kind: FailureKind
    at: float
    witness: FloatInterval | None = None
    enclosure: FloatInterval | None = None
    detail: str = ""

    def __str__(self) -> str:
        parts = [f"{self.kind.value} at {self.at!r}"]
        if self.witness is not None:
            parts.append(f"witness piece {self.witness}")
        if self.enclosure is not None:
            parts.append(f"enclosure {self.enclosure}")
        if self.detail:
            parts.append(self.detail)
        return "; ".join(parts)


@dataclass(frozen=True)
class SweepOptions:
    h_init: float | None = None      # default (b - a) / 8
    h_min: float | None = None       # default (b - a) * 2**-40
    max_pieces: int = 2 ** 20

    def resolve(self, p: Problem) -> tuple[float, float, int]:
        span = p.b - p.a
        h_init = self.h_init if self.h_init is not None else span / 8
        h_min = self.h_min if self.h_min is not None else span * 2.0 ** -40
        if not 0 < h_min <= h_init:
            raise ValueError("need 0 < h_min <= h_init")
        return h_init, h_min, self.max_pieces


# =============================================================================
# Base case
# =============================================================================

def base_case(p: Problem) -> SweepState:
    """Initial state at the left endpoint: the property holds vacuously there.

    No hypothesis is evaluated here; a problem that is doomed (say, proving
    negativity when f(a) >= 0) fails at the first extension instead.
    """
    return SweepState(frontier=p.a, partial=_acc_to_cert(p, _Acc(p)), pieces_used=0)


# =============================================================================
# Accumulator shared by combine() and run_sweep()
# =============================================================================

class _Acc:
    """Mutable fold state; combine() and run_sweep() push witnesses through
    the same code path so a left-to-right combine of the sweep's own pieces
    reproduces its certificate exactly."""

    def __init__(self, p: Problem):
        self.p = p
        self.points: list[float] = [p.a]
        self.piece_a: list[float] = []          # sup / hi / deriv-lo / m / osc
        self.piece_b: list[float] = []          # second array where needed
        self.mod_pieces: list[FloatInterval] = []
        self.bound = _MIN_NORMAL                # running M for BOUNDED
        self.best_c = p.a                       # MAX_APPROX candidate
        self.best_lo = -_MAX_FLOAT
        self.lower_sum = 0.0                    # DARBOUX running sums
        self.upper_sum = 0.0
        self.delta: float | None = None         # UNIF_CONT modulus so far

    @property
    def frontier(self) -> float:
        if self.p.kind is PropertyKind.UNIF_CONT:
            return self.mod_pieces[-1].hi if self.mod_pieces else self.p.a
        return self.points[-1]

    def push(self, w: LocalWitness) -> None:
        p = self.p
        x, y = w.piece.lo, w.piece.hi
        if x != self.frontier:
            raise StructureError(
                f"piece starts at {x!r} but certified domain ends at {self.frontier!r}")
        if not y > x:
            raise StructureError("degenerate piece")
        kind = p.kind
        if kind is PropertyKind.UNIF_CONT:
            fwd = Fraction(y) - Fraction(x)
            if self.mod_pieces:
                overlap = Fraction(x) - Fraction(w.ext.lo)
                if overlap <= 0:
                    raise StructureError("uniform-continuity pieces must overlap")
                contrib = float_down(min(fwd, overlap) / 2)
                self.delta = min(self.delta, contrib)
            else:
                self.delta = float_down(fwd / 2)
            self.mod_pieces.append(w.ext)
            self.piece_a.append(sub_up(w.value.hi, w.value.lo))
            return
        self.points.append(y)
        if kind is PropertyKind.BOUNDED:
            self.piece_a.append(w.value.hi)
            self.bound = max(self.bound, w.value.hi)
        elif kind is PropertyKind.MAX_APPROX:
            self.piece_a.append(w.value.hi)
            if w.cand_lo is not None and w.cand_lo > self.best_lo:
                self.best_lo = w.cand_lo
                self.best_c = w.cand
        elif kind is PropertyKind.SIGN_NEG:
            self.piece_a.append(w.value.hi)
        elif kind is PropertyKind.DARBOUX_GAP:
            self.piece_a.append(w.value.lo)
            self.piece_b.append(w.value.hi)
            self.lower_sum = add_down(self.lower_sum, _term_down(w.value.lo, x, y))
            self.upper_sum = add_up(self.upper_sum, _term_up(w.value.hi, x, y))
        elif kind in (PropertyKind.STRICT_INC, PropertyKind.INC):
            self.piece_a.append(w.deriv.lo)
        elif kind is PropertyKind.MVI_BOUND:
            self.piece_a.append(w.deriv.hi)
        elif kind is PropertyKind.FLAT:
            self.piece_a.append(max(abs(w.deriv.lo), abs(w.deriv.hi)))
        else:  # pragma: no cover
            raise AssertionError(kind)


def _term_down(m: float, x: float, y: float) -> float:
    # lower bound for m * (y - x) with the stored endpoints
    w_lo = add_down(y, -x) if m >= 0 else add_up(y, -x)
    return mul_down(m, w_lo)


def _term_up(m: float, x: float, y: float) -> float:
    w_hi = add_up(y, -x) if m >= 0 else add_down(y, -x)
    return mul_up(m, w_hi)


def _acc_to_cert(p: Problem, acc: _Acc) -> Certificate:
    kind = p.kind
    src = p.fn_source
    a = p.a
    if kind is PropertyKind.UNIF_CONT:
        hi_end = acc.frontier
        return ModulusCert(src, a, hi_end, p.eps,
                           acc.delta if acc.delta is not None else 1.0,
                           tuple(acc.mod_pieces), tuple(acc.piece_a))
    part = Partition(tuple(acc.points))
    hi_end = part.b
    if kind is PropertyKind.BOUNDED:
        return BoundCert(src, a, hi_end, part, tuple(acc.piece_a), acc.bound)
    if kind is PropertyKind.MAX_APPROX:
        return MaxCert(src, a, hi_end, p.eps, acc.best_c, acc.best_lo,
                       part, tuple(acc.piece_a))
    if kind is PropertyKind.SIGN_NEG:
        return NegCert(src, a, hi_end, part, tuple(acc.piece_a))
    if kind is PropertyKind.DARBOUX_GAP:
        return IntegralCert(src, a, hi_end, p.eps, part,
                            tuple(acc.piece_a), tuple(acc.piece_b),
                            acc.lower_sum, acc.upper_sum)
    if kind is PropertyKind.STRICT_INC:
        return MonotoneCert(src, a, hi_end, True, part, tuple(acc.piece_a))
    if kind is PropertyKind.INC:
        return MonotoneCert(src, a, hi_end, False, part, tuple(acc.piece_a))
    if kind is PropertyKind.MVI_BOUND:
        return MviCert(src, a, hi_end, p.M, part, tuple(acc.piece_a))
    if kind is PropertyKind.FLAT:
        return FlatCert(src, a, hi_end, p.eta,
                        mul_up(p.eta, sub_up(hi_end, a)), part, tuple(acc.piece_a))
    raise AssertionError(kind)  # pragma: no cover


def _acc_from_cert(p: Problem, cert: Certificate) -> _Acc:
    acc = _Acc(p)
    if isinstance(cert, ModulusCert):
        acc.mod_pieces = list(cert.pieces)
        acc.piece_a = list(cert.piece_osc)
        acc.delta = cert.delta if cert.pieces else None
        return acc
    acc.points = list(cert.partition.points)
    if isinstance(cert, BoundCert):
        acc.piece_a = list(cert.piece_sup)
        acc.bound = cert.bound
    elif isinstance(cert, MaxCert):
        acc.piece_a = list(cert.piece_sup)
        acc.best_c = cert.c
        acc.best_lo = cert.f_at_c_lo
    elif isinstance(cert, NegCert):
        acc.piece_a = list(cert.piece_hi)
    elif isinstance(cert, IntegralCert):
        acc.piece_a = list(cert.piece_lo)
        acc.piece_b = list(cert.piece_hi)
        acc.lower_sum = cert.lower_sum
        acc.upper_sum = cert.upper_sum
    elif isinstance(cert, MonotoneCert):
        acc.piece_a = list(cert.piece_deriv_lo)
    elif isinstance(cert, MviCert):
        acc.piece_a = list(cert.piece_deriv_hi)
    elif isinstance(cert, FlatCert):
        acc.piece_a = list(cert.piece_deriv_abs)
    else:
        raise StructureError(f"cannot extend certificate type {type(cert).__name__}")
    return acc


def combine(kind: PropertyKind, left: Certificate, w: LocalWitness) -> Certificate:
    """Merge a certificate on [a, x] with a local witness on [x, y].

    The piece must share its left endpoint with the certified domain
    exactly; StructureError otherwise.  For the uniform-continuity kind the
    merged delta follows the min-rule (never above a constituent delta,
    never above half an overlap); for all other kinds the merge is plain
    concatenation plus the per-kind scalar update.
    """
    p = _problem_for(kind, left, w)
    acc = _acc_from_cert(p, left)
    acc.push(w)
    return _acc_to_cert(p, acc)


def _problem_for(kind: PropertyKind, left: Certificate, w: LocalWitness) -> Problem:
    f = parse(left.fn_source)
    end = w.piece.hi
    eps = getattr(left, "eps", None)
    m = left.bound if isinstance(left, MviCert) else None
    eta = left.eta if isinstance(left, FlatCert) else None
    return Problem(f, left.a, max(left.a, end), kind,
                   eps=eps, M=m, eta=eta, fn_source=left.fn_source)


# =============================================================================
# Local extension
# =============================================================================

def local_extend(p: Problem, s: SweepState, h_init: float,
                 h_min: float | None = None) -> LocalWitness | SweepFailure:
    """Find a step width h in [h_min, h_init] whose piece certifies the
    local predicate; stall if none does, fail with a refuting piece if an
    enclosure certifies the hypothesis false.

    The search halves geometrically from min(h_init, 2 * s.h_prev), or from
    h_init when s.h_prev is None.  A warm search that certifies nothing is
    rerun once from h_init, so failures (and domain errors) are those of
    the cold search at this frontier.  The witness reports the certifying
    width as w.h; passing it on as the next state's h_prev makes a
    base_case -> local_extend -> combine fold reproduce run_sweep exactly.
    """
    if not s.frontier < p.b:
        raise ValueError("frontier already at b")
    if h_min is None:
        h_min = (p.b - p.a) * 2.0 ** -40
    hint = None
    if isinstance(s.partial, MaxCert):
        hint = s.partial.f_at_c_lo
    elif isinstance(s.partial, ModulusCert) and s.partial.pieces:
        hint = s.partial.pieces[-1].lo
    return _extend_core(p, s.frontier, hint, h_init, h_min, s.h_prev)


def _extend_core(p: Problem, x: float, hint: float | None, h_init: float,
                 h_min: float, h_prev: float | None) -> LocalWitness | SweepFailure:
    # Anything but a witness from the warm search is redone cold, so a
    # failure or a domain error names the piece the cold search reaches.
    if h_prev is not None and 2 * h_prev < h_init:
        try:
            res = _halving_search(p, x, hint, 2 * h_prev, h_min)
        except DomainError:
            res = None
        if isinstance(res, LocalWitness):
            return res
    return _halving_search(p, x, hint, h_init, h_min)


def _halving_search(p: Problem, x: float, hint: float | None,
                    h: float, h_min: float) -> LocalWitness | SweepFailure:
    while h >= h_min:
        y = x + h
        # clip at b, absorbing any sub-h_min remainder so no dust piece forms
        if y >= p.b or p.b - y < h_min:
            y = p.b
        if not y > x:
            break
        piece = FloatInterval(x, y)
        try:
            result = _probe(p, piece, x, h, hint)
        except DomainError as err:
            err.piece = piece
            raise
        if result is not None:
            return result
        h = h / 2
    return SweepFailure(FailureKind.STALLED, at=x,
                        detail=f"no certifiable piece above h_min = {h_min!r}")


def _probe(p: Problem, piece: FloatInterval, x: float, h: float,
           hint: float | None) -> LocalWitness | SweepFailure | None:
    """One evaluation at the current step width: a witness, a certified
    refutation, or None (inconclusive, keep halving).

    hint carries the one piece of sweep state a predicate needs: the best
    maximizer lower bound so far, or the previous overlapping piece's left
    end."""
    kind = p.kind
    if kind is PropertyKind.BOUNDED:
        v = eval_iv(p.f, piece)
        return LocalWitness(piece, value=v, h=h)

    if kind is PropertyKind.MAX_APPROX:
        # witness-point probes: the midpoint covers an interior maximum,
        # the right endpoint covers a maximum sitting at (or beyond) the
        # frontier, so monotone stretches certify at full width
        v = eval_iv(p.f, piece)
        mid = min(max(x + (piece.hi - x) / 2, piece.lo), piece.hi)
        cand, cand_lo = mid, eval_iv(p.f, FloatInterval.point(mid)).lo
        end_lo = eval_iv(p.f, FloatInterval.point(piece.hi)).lo
        if end_lo > cand_lo:
            cand, cand_lo = piece.hi, end_lo
        best = cand_lo if hint is None else max(hint, cand_lo)
        if Fraction(v.hi) <= Fraction(best) + Fraction(p.eps):
            return LocalWitness(piece, value=v, cand=cand, cand_lo=cand_lo, h=h)
        return None

    if kind is PropertyKind.SIGN_NEG:
        v = eval_iv(p.f, piece)
        if v.hi < 0.0:
            return LocalWitness(piece, value=v, h=h)
        if v.lo > 0.0:
            return SweepFailure(FailureKind.HYPOTHESIS_FAIL, at=x,
                                witness=piece, enclosure=v,
                                detail="range certified positive")
        return None

    if kind is PropertyKind.UNIF_CONT:
        # evaluate over a backward-extended piece so stored pieces overlap;
        # the extension never reaches past the previous piece's left end,
        # which keeps the stored pieces sorted
        lo = max(p.a, x - h)
        if hint is not None:
            lo = max(lo, hint)
        if x > p.a and not lo < x:
            return None  # backward extension lost to rounding; halving only shrinks it
        ext = FloatInterval(lo, piece.hi)
        v = eval_iv(p.f, ext)
        osc = sub_up(v.hi, v.lo)
        if osc < p.eps:
            return LocalWitness(piece, value=v, ext=ext, h=h)
        return None

    if kind is PropertyKind.DARBOUX_GAP:
        v = eval_iv(p.f, piece)
        if sub_up(v.hi, v.lo) <= p.darboux_budget():
            return LocalWitness(piece, value=v, h=h)
        return None

    if kind in _DERIVATIVE_KINDS:
        d = eval_d1(p.f, piece).deriv
        if _deriv_certified(kind, d, p):
            return LocalWitness(piece, deriv=d, h=h)
        refuted = _deriv_refuted(kind, d, p)
        if refuted:
            return SweepFailure(FailureKind.HYPOTHESIS_FAIL, at=x, witness=piece,
                                enclosure=d, detail=refuted)
        # The violation may lie strictly beyond any reachable frontier, in
        # which case no frontier piece ever refutes; probe the right half
        # being discarded by the halving before giving it up.
        mid = min(max(x + (piece.hi - x) / 2, piece.lo), piece.hi)
        if x < mid < piece.hi:
            right = FloatInterval(mid, piece.hi)
            d2 = eval_d1(p.f, right).deriv
            refuted = _deriv_refuted(kind, d2, p)
            if refuted:
                return SweepFailure(FailureKind.HYPOTHESIS_FAIL, at=x, witness=right,
                                    enclosure=d2, detail=refuted)
        return None
    raise AssertionError(kind)  # pragma: no cover


def _deriv_certified(kind: PropertyKind, d: FloatInterval, p: Problem) -> bool:
    if kind is PropertyKind.STRICT_INC:
        return d.lo > 0.0
    if kind is PropertyKind.INC:
        return d.lo >= 0.0
    if kind is PropertyKind.MVI_BOUND:
        return d.hi <= p.M
    return max(abs(d.lo), abs(d.hi)) <= p.eta


def _deriv_refuted(kind: PropertyKind, d: FloatInterval, p: Problem) -> str:
    """Nonempty reason when the enclosure certifies the hypothesis false."""
    if kind is PropertyKind.STRICT_INC:
        return "derivative certified nonpositive" if d.hi <= 0.0 else ""
    if kind is PropertyKind.INC:
        return "derivative certified negative" if d.hi < 0.0 else ""
    if kind is PropertyKind.MVI_BOUND:
        return "derivative certified above M" if d.lo > p.M else ""
    if d.lo > p.eta or d.hi < -p.eta:
        return "derivative certified outside [-eta, eta]"
    return ""


# =============================================================================
# Main loop
# =============================================================================

def run_sweep(p: Problem, opts: SweepOptions | None = None) -> Certificate | SweepFailure:
    """Advance the frontier from a to b, or report how and where it failed.

    On success the returned certificate passes the independent checker with
    no re-tuning; on failure the frontier value and, when one was certified,
    a refuting witness piece are reported.
    """
    if p.a == p.b:
        return _finalize_degenerate(p)
    h_init, h_min, max_pieces = (opts or SweepOptions()).resolve(p)
    acc = _Acc(p)
    frontier = p.a
    hint: float | None = -_MAX_FLOAT if p.kind is PropertyKind.MAX_APPROX else None
    h_prev: float | None = None
    pieces = 0
    while frontier < p.b:
        if pieces >= max_pieces:
            return SweepFailure(FailureKind.BUDGET, at=frontier,
                                detail=f"piece budget {max_pieces} exhausted")
        res = _extend_core(p, frontier, hint, h_init, h_min, h_prev)
        if isinstance(res, SweepFailure):
            return res
        acc.push(res)
        h_prev = res.h
        if p.kind is PropertyKind.MAX_APPROX:
            hint = acc.best_lo
        elif p.kind is PropertyKind.UNIF_CONT:
            hint = acc.mod_pieces[-1].lo
        frontier = res.piece.hi
        pieces += 1
    return _acc_to_cert(p, acc)


def _finalize_degenerate(p: Problem) -> Certificate | SweepFailure:
    """Domain is the single point a: certify the (mostly vacuous) conclusion."""
    a = p.a
    point = FloatInterval.point(a)
    if p.kind in _DERIVATIVE_KINDS:
        eval_d1(p.f, point)
        v = None
    else:
        v = eval_iv(p.f, point)
    acc = _Acc(p)
    if p.kind is PropertyKind.BOUNDED:
        acc.bound = max(v.hi, _MIN_NORMAL)
    elif p.kind is PropertyKind.MAX_APPROX:
        acc.best_c = a
        acc.best_lo = v.lo
        if Fraction(v.hi) > Fraction(v.lo) + Fraction(p.eps):
            return SweepFailure(FailureKind.STALLED, at=a,
                                detail="point enclosure wider than eps")
    elif p.kind is PropertyKind.SIGN_NEG:
        if v.lo > 0.0:
            return SweepFailure(FailureKind.HYPOTHESIS_FAIL, at=a, witness=point,
                                enclosure=v, detail="range certified positive")
        if not v.hi < 0.0:
            return SweepFailure(FailureKind.STALLED, at=a,
                                detail="sign at the degenerate point undecided")
    return _acc_to_cert(p, acc)
