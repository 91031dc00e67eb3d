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
from dataclasses import dataclass, field, fields
from enum import Enum
from types import SimpleNamespace

from .certificates import (
    ROW_OF,
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
    Row,
    StructureError,
)
from .expr import Expr, eval_d1, eval_iv, to_source
from .numeric import (
    DomainError,
    FloatInterval,
    div_down,
    mul_up,
    sub_up,
)


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


# kind -> (certificate class, theorem code, merge rule)
_KINDS = {
    PropertyKind.BOUNDED: (BoundCert, "bvt", CombinerClass.TRANSITIVE),
    PropertyKind.MAX_APPROX: (MaxCert, "evt", CombinerClass.TRANSITIVE),
    PropertyKind.SIGN_NEG: (NegCert, "ivt", CombinerClass.TRANSITIVE),
    PropertyKind.UNIF_CONT: (ModulusCert, "uct", CombinerClass.QUASI_PSEUDO_TRANSITIVE),
    PropertyKind.DARBOUX_GAP: (IntegralCert, "dit", CombinerClass.TRANSITIVE),
    PropertyKind.STRICT_INC: (MonotoneCert, "sift", CombinerClass.PSEUDO_TRANSITIVE),
    PropertyKind.INC: (MonotoneCert, "ift", CombinerClass.TRANSITIVE),
    PropertyKind.MVI_BOUND: (MviCert, "mvi", CombinerClass.TRANSITIVE),
    PropertyKind.FLAT: (FlatCert, "cft", CombinerClass.TRANSITIVE),
}


def combiner_class(kind: PropertyKind) -> CombinerClass:
    return _KINDS[kind][2]


def default_h_min(a: float, b: float) -> float:
    """Smallest step width when none is given: (b - a) * 2**-40."""
    return (b - a) * 2.0 ** -40


@dataclass(frozen=True)
class Problem:
    """A property to certify for one function over one interval.

    eps, M and eta are the parameters of the kind's certificate, named by
    their JSON keys; the kind's row says which it takes and their signs.
    """

    f: Expr
    a: float
    b: float
    kind: PropertyKind
    eps: float | None = None
    M: float | None = None
    eta: float | None = None
    fn_source: str | None = None
    row: Row = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("domain endpoints must be finite")
        if self.a > self.b:
            raise ValueError("domain endpoints out of order")
        row = ROW_OF[_KINDS[self.kind][0]]
        object.__setattr__(self, "row", row)
        takes = {row.key(name): name for name in row.params}
        for key in ("eps", "M", "eta"):
            value, name = getattr(self, key), takes.get(key)
            if (name is None) != (value is None):
                raise ValueError(f"{self.kind.value} requires {key} exactly when applicable")
            if name in row.positive and not value > 0:
                raise ValueError(f"{key} must be positive")
            if name in row.nonnegative and value < 0:
                raise ValueError(f"{key} must be nonnegative")
        if row.deriv and not self.f.differentiable:
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
    h_min: float | None = None       # default: default_h_min(a, b)
    max_pieces: int = 2 ** 20

    def resolve(self, p: Problem) -> tuple[float, float, int]:
        h_init = self.h_init if self.h_init is not None else (p.b - p.a) / 8
        h_min = self.h_min if self.h_min is not None else default_h_min(p.a, p.b)
        if not 0 < h_min <= h_init:
            raise ValueError("need 0 < h_min <= h_init")
        return h_init, h_min, self.max_pieces


# =============================================================================
# The certificate as it grows: the state has the certificate's field names,
# with lists in place of tuples and the partition's points as a list
# =============================================================================

def _start(p: Problem) -> SimpleNamespace:
    """The certificate on [a, a], before any piece."""
    row = p.row
    s = SimpleNamespace(fn_source=p.fn_source, a=p.a, b=p.a,
                        **{name: getattr(p, row.key(name)) for name in row.params},
                        **row.theorems[_KINDS[p.kind][1]])
    vars(s).update(row.start(s))
    vars(s).update({name: [] for name, _ in row.arrays})
    setattr(s, row.grid, [p.a] if row.grid == "partition" else [])
    return s


def _opened(cert: Certificate) -> SimpleNamespace:
    state = {}
    for fld in fields(cert):
        value = getattr(cert, fld.name)
        if isinstance(value, Partition):
            value = value.points
        state[fld.name] = list(value) if isinstance(value, tuple) else value
    return SimpleNamespace(**state)


def _closed(row: Row, s: SimpleNamespace) -> Certificate:
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in vars(s).items()}
    if row.grid == "partition":
        values["partition"] = Partition(values["partition"])
    return row.cls(**values)


def _push(row: Row, s: SimpleNamespace, w: LocalWitness) -> None:
    """Take the piece [x, y] of w into the certificate on [a, x]."""
    x, y = w.piece.lo, w.piece.hi
    if x != s.b:
        raise StructureError(
            f"piece starts at {x!r} but certified domain ends at {s.b!r}")
    if not y > x:
        raise StructureError("degenerate piece")
    if row.step is not None:
        row.step(s, w)
    e = w.deriv if row.deriv else w.value
    for name, side in row.arrays:
        getattr(s, name).append(side.store(e))
    getattr(s, row.grid).append(y if row.grid == "partition" else w.ext)
    s.b = y


def _accepts(row: Row, p: Problem, s, e: FloatInterval) -> bool:
    if row.accept is not None:
        return row.accept(s, e, p)
    op, t, _ = row.limit(s)
    return op(row.arrays[0][1].store(e), t)


def base_case(p: Problem) -> SweepState:
    """Initial state at the left endpoint: the property holds vacuously there.

    No hypothesis is evaluated here; a problem that is doomed (say, proving
    negativity when f(a) >= 0) fails at the first extension instead.
    """
    return SweepState(frontier=p.a, partial=_closed(p.row, _start(p)), pieces_used=0)


def combine(kind: PropertyKind, left: Certificate, w: LocalWitness) -> Certificate:
    """Merge a certificate on [a, x] with a local witness on [x, y].

    The piece must share its left endpoint with the certified domain
    exactly; StructureError otherwise.  For the uniform-continuity kind the
    merged delta follows the min-rule (never above a constituent delta,
    never above half an overlap); for all other kinds the merge is plain
    concatenation plus the per-kind scalar update.
    """
    cls, theorem, _ = _KINDS[kind]
    row = ROW_OF[cls]
    if type(left) is not cls:
        raise StructureError(f"cannot extend {type(left).__name__} as {kind.value}")
    s = _opened(left)
    vars(s).update(row.theorems[theorem])
    _push(row, s, w)
    return _closed(row, s)


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
        h_min = default_h_min(p.a, p.b)
    return _extend_core(p, s.frontier, s.partial, h_init, h_min, s.h_prev)


def _extend_core(p: Problem, x: float, s, h_init: float,
                 h_min: float, h_prev: float | None) -> LocalWitness | SweepFailure:
    # Anything but a witness from the warm search is redone cold, so a
    # failure or a domain error names the piece the cold search reaches.
    if h_prev is not None and 2 * h_prev < h_init:
        try:
            res = _halving_search(p, x, s, 2 * h_prev, h_min)
        except DomainError:
            res = None
        if isinstance(res, LocalWitness):
            return res
    return _halving_search(p, x, s, h_init, h_min)


def _halving_search(p: Problem, x: float, s, h: float,
                    h_min: float) -> LocalWitness | SweepFailure:
    while h >= h_min:
        y = x + h
        # clip at b, absorbing any sub-h_min remainder so no dust piece forms
        if y >= p.b or p.b - y < h_min:
            y = p.b
        if not y > x:
            break
        piece = FloatInterval(x, y)
        try:
            result = _probe(p, s, piece, x, h)
        except DomainError as err:
            err.piece = piece
            raise
        if result is not None:
            return result
        h = h / 2
    return SweepFailure(FailureKind.STALLED, at=x,
                        detail=f"no certifiable piece above h_min = {h_min!r}")


def _probe(p: Problem, s, piece: FloatInterval, x: float,
           h: float) -> LocalWitness | SweepFailure | None:
    """One evaluation at the current step width: a witness, a certified
    refutation, or None (inconclusive, keep halving).

    s is the certificate so far (or the sweep's state of it); the row's
    accept and refute tests read their thresholds from it."""
    row = p.row
    if row.deriv:
        d = eval_d1(p.f, piece).deriv
        if _accepts(row, p, s, d):
            return LocalWitness(piece, deriv=d, h=h)
        refuted = row.refute(s, d)
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
            refuted = row.refute(s, d2)
            if refuted:
                return SweepFailure(FailureKind.HYPOTHESIS_FAIL, at=x, witness=right,
                                    enclosure=d2, detail=refuted)
        return None

    if row.grid == "pieces":
        # evaluate over a backward-extended piece so stored pieces overlap;
        # the extension never reaches past the previous piece's left end,
        # which keeps the stored pieces sorted
        lo = max(p.a, x - h)
        if s.pieces:
            lo = max(lo, s.pieces[-1].lo)
        if x > p.a and not lo < x:
            return None  # backward extension lost to rounding; halving only shrinks it
        ext = FloatInterval(lo, piece.hi)
        v = eval_iv(p.f, ext)
        return LocalWitness(piece, value=v, ext=ext, h=h) if _accepts(row, p, s, v) else None

    v = eval_iv(p.f, piece)
    if row.candidate:
        # witness-point probes: the midpoint covers an interior maximum,
        # the right endpoint covers a maximum sitting at (or beyond) the
        # frontier, so monotone stretches certify at full width
        mid = min(max(x + (piece.hi - x) / 2, piece.lo), piece.hi)
        cand, cand_lo = mid, eval_iv(p.f, FloatInterval.point(mid)).lo
        end_lo = eval_iv(p.f, FloatInterval.point(piece.hi)).lo
        if end_lo > cand_lo:
            cand, cand_lo = piece.hi, end_lo
        # judged against the certificate once this piece's candidate is in
        after = SimpleNamespace(f_at_c_lo=max(s.f_at_c_lo, cand_lo), eps=s.eps)
        if _accepts(row, p, after, v):
            return LocalWitness(piece, value=v, cand=cand, cand_lo=cand_lo, h=h)
        return None
    if _accepts(row, p, s, v):
        return LocalWitness(piece, value=v, h=h)
    refuted = row.refute(s, v) if row.refute is not None else ""
    if refuted:
        return SweepFailure(FailureKind.HYPOTHESIS_FAIL, at=x, witness=piece,
                            enclosure=v, detail=refuted)
    return None


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
    s = _start(p)
    h_prev: float | None = None
    pieces = 0
    while s.b < p.b:
        if pieces >= max_pieces:
            return SweepFailure(FailureKind.BUDGET, at=s.b,
                                detail=f"piece budget {max_pieces} exhausted")
        res = _extend_core(p, s.b, s, h_init, h_min, h_prev)
        if isinstance(res, SweepFailure):
            return res
        _push(p.row, s, res)
        h_prev = res.h
        pieces += 1
    return _closed(p.row, s)


def _finalize_degenerate(p: Problem) -> Certificate | SweepFailure:
    """Domain is the single point a: certify the (mostly vacuous) conclusion."""
    row, a = p.row, p.a
    point = FloatInterval.point(a)
    s = _start(p)
    if row.deriv:
        eval_d1(p.f, point)
        return _closed(row, s)
    v = eval_iv(p.f, point)
    if row.pointwise:
        if row.step is not None:
            row.step(s, LocalWitness(point, value=v, cand=a, cand_lo=v.lo))
        refuted = row.refute(s, v) if row.refute is not None else ""
        if refuted:
            return SweepFailure(FailureKind.HYPOTHESIS_FAIL, at=a, witness=point,
                                enclosure=v, detail=refuted)
        if not _accepts(row, p, s, v):
            return SweepFailure(FailureKind.STALLED, at=a, detail=row.stall)
    return _closed(row, s)
