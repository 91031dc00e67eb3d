"""The generic frontier-sweep engine.

Each theorem a sweep proves is a prefix statement about [a, x] that holds
trivially at x = a, extends locally by one interval evaluation over a small
piece, and merges with what is already certified.  The classical proof
takes the supremum of the certified prefix set and derives a contradiction
from the ability to extend past it; here the same extension step simply
advances a frontier until it reaches b.  The engine names no theorem: the
certificate's row, selected by the theorem's code, says how to start, probe,
judge, refute and merge, and what the finished certificate requires.

run_sweep is the argument's three steps written out as a fold, for every
domain, over the one object the argument works with: the certificate on
[a, x] as it grows, the certified prefix.  base_case opens it on [a, a],
local_extend finds a witness piece past its end x, combine takes that piece
in, in O(1), and finish copies out the certificate.  On a single-point
domain the base case is the whole proof: base_case judges the point as a
probe of the piece [a, a], so the loop never runs, and a point that
refutes the theorem ends the fold there.

Local extension is one halving search a frontier: it halves a step width
from a start width until a piece certifies, and its last probe is at
exactly h_min = (b - a) * 2**-40.  The first piece starts at h_init =
(b - a) / 8; after it the width that certified the last piece, scaled by
min(_SAFETY * r, 2), is the next start h_next, capped at h_init, as in ODE
step-size controllers: the row judges each enclosure by a margin r, the
factor by which the piece's width may grow and still pass, at least 1
where it passes, so a start lands just under the width that certifies,
about one evaluation a piece.  A rejected start is halved, as a controller
shrinks a rejected step, never restarted from h_init.

Every probe, a single-point domain's too, takes one path, and reads no
field that only some certificates have: the row's window gives the left
end u <= x of the piece [u, y] to evaluate (uct's overlap route widens it
backward so that its pieces overlap), one enclosure of f, or of f' where
the row's deriv is set, is taken over it, and one over each of the row's
distinct points bounds f, or |f'|, below there (evt's maximizer candidates,
uct's derivative route), and the row's judge gives the enclosure's margin.
Under a prior, whose certificate seeded the row's threshold (evt's bar
f(c) + eps), the points are evaluated only for a piece that the judge
refuses without them.  A failure to certify is a stall unless an enclosure
itself refutes the hypothesis (say a certified-positive range while
proving negativity): interval arithmetic cannot otherwise tell "hypothesis
false" from "enclosure too loose".  A probe refutes with its piece; a
search that finds no piece looks once just past the stall x, as the paper
looks past the sup, and the first of x + h_min, x + 2 h_min, x + 4 h_min,
... up to b whose point enclosure refutes is the failure's witness.

Combination is the paper's merge rule, made concrete by the row's step: it
is transitive where the piece is appended and the scalars updated (a
running bound, a Darboux sum), quasi-pseudo-transitive where a modulus
shrinks so that overlapping pieces still hold every close pair, and
pseudo-transitive where strict inequalities chain through shared piece
endpoints.  uct's derivative route is transitive: its bound L on |f'|
rises as bvt's bound does, and its delta = eps / L falls with it, since
the mean-value inequality on each piece, telescoped through the shared
piece ends, gives |f(s) - f(t)| <= L |s - t| < L delta <= eps.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from types import SimpleNamespace
from typing import NamedTuple

from .certificates import ROWS, Certificate, Partition, Row, StructureError
from .expr import Expr, eval_d1, eval_iv, to_source
from .numeric import DomainError, FloatInterval


# theorem code -> the row of the certificate its sweep builds, one with
# per-piece arrays and a prover
_SWEPT = {th: row for row in ROWS if row.arrays and row.prover for th in row.theorems}
# a swept row that names no prover, uct's mean-value row, whose route
# prove_modulus chooses, is selected by its JSON type
_SWEPT |= {row.type: row for row in ROWS if row.arrays and not row.prover}

# the safety factor on the start width a margin gives
_SAFETY = 0.9

# the piece budget of a sweep, unless its caller sets one
MAX_PIECES = 2 ** 20


def default_h_min(a: float, b: float) -> float:
    """The smallest step width of a sweep on [a, b]: (b - a) * 2**-40."""
    return (b - a) * 2.0 ** -40


class Problem:
    """A theorem to certify for one function over one interval.

    f is the function, which its certificate states as to_source(f).
    theorem is the theorem's code, one of those a sweep proves, or the JSON
    type of a second row that states the same theorem, "lipschitz" for uct
    (ValueError otherwise).  eps, M and eta are the parameters of the
    theorem, named by their JSON keys; its row says which it takes and their
    signs, and each must be finite.  prior, the certificate of a coarser
    pass over the same problem, is for the row's start to read: dit plans
    its pieces from it, and evt starts from its c and f_at_c_lo, which is
    sound because f_at_c_lo is a certified lower bound of f(c) that the
    checker evaluates again at c; under a prior a probe evaluates the row's
    points only where the judge refuses the piece without them.  max_pieces
    caps the pieces a sweep may take.  row, the row of the theorem's
    certificate, is derived.

    The sweep's step widths lie between h_min = (b - a) * 2**-40 and h_init
    = (b - a) / 8; so when a < b, b - a must neither overflow binary64 nor
    be so narrow that h_min underflows to 0.
    """

    __slots__ = ("f", "a", "b", "theorem", "eps", "M", "eta", "max_pieces", "prior", "row")

    def __init__(self, f: Expr, a: float, b: float, theorem: str, eps: float | None = None,
                 M: float | None = None, eta: float | None = None, max_pieces: int = MAX_PIECES,
                 prior: Certificate | None = None):
        if max_pieces < 1:
            raise ValueError(f"max_pieces must be at least 1, got {max_pieces}")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("domain endpoints must be finite")
        if a > b:
            raise ValueError("domain endpoints out of order")
        if not math.isfinite(b - a):
            raise ValueError("domain width b - a overflows binary64")
        if a < b and not default_h_min(a, b) > 0:
            raise ValueError("domain width b - a too narrow: "
                             "h_min = (b - a) * 2**-40 underflows to 0")
        row = _SWEPT.get(theorem)
        if row is None:
            raise ValueError(f"no sweep proves theorem {theorem!r}")
        takes = {row.key(name): name for name in row.params}
        for key, value in (("eps", eps), ("M", M), ("eta", eta)):
            name = takes.get(key)
            if (name is None) != (value is None):
                raise ValueError(f"{theorem} requires {key} exactly when applicable")
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{key} must be finite")
            if name in row.positive and not value > 0:
                raise ValueError(f"{key} must be positive")
            if name in row.nonnegative and value < 0:
                raise ValueError(f"{key} must be nonnegative")
        values = locals()
        for name in self.__slots__:
            setattr(self, name, values[name])

    def _replace(self, **changes) -> Problem:
        """This problem with the given fields changed, checked as it is built;
        row, the last slot, is derived again."""
        return Problem(**{name: getattr(self, name) for name in self.__slots__[:-1]} | changes)

    def __repr__(self) -> str:  # prior, a certificate, and the derived row left out
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-2])
        return f"Problem({', '.join(shown)})"


class LocalWitness(NamedTuple):
    """One certified step, as floats: the new piece [x, y] and the ends of
    the enclosure backing it, of f, or of f' when the row's deriv is set."""

    x: float
    y: float
    lo: float
    hi: float
    h_next: float | None = None     # the next search starts at max(h_min, min(h_init, h_next))
    ext_lo: float | None = None     # left end of the evaluated piece [ext_lo, y], from the window
    cand: float | None = None       # the best of the row's points
    cand_lo: float | None = None    # lower bound of f at cand


class FailureKind(Enum):
    STALLED = "stalled"
    HYPOTHESIS_FAIL = "hypothesis_fail"
    BUDGET = "budget"


class SweepFailure(namedtuple("SweepFailure", "kind at witness enclosure detail",
                              defaults=(None, None, ""))):
    __slots__ = ()

    def __str__(self) -> str:
        parts = [f"{self.kind.value} at {self.at!r}"]
        if self.witness is not None:
            parts.append(f"witness piece {self.witness}")
        if self.enclosure is not None:
            parts.append(f"enclosure {self.enclosure}")
        if self.detail:
            parts.append(self.detail)
        return "; ".join(parts)


def _accepts(row: Row, s, lo: float, hi: float, x: float, y: float, t_lo) -> float | None:
    """None when the row refuses the enclosure, else the scale of the next
    start width: _SAFETY times the margin r >= 1 it is judged by, at most 2."""
    r = row.judge(s, lo, hi, x, y, t_lo)
    return min(2.0, _SAFETY * r) if r > 0.0 else None


# =============================================================================
# The fold: base case, local extension, combination
# =============================================================================

def base_case(p: Problem) -> SimpleNamespace | SweepFailure:
    """The certificate on [a, a], which the fold carries and grows: a
    namespace with the certificate's field names, what the row's start adds,
    lists in place of tuples and, for every row, the pieces' ends as the
    partition list; its b is the frontier.  It also holds the step widths:
    h_init and h_min bound them (0 on a single-point domain, where nothing
    is searched), and h_next, h_init until a piece certifies, starts the
    next search.

    When a < b the theorem holds vacuously at a, and no hypothesis is
    evaluated: a problem that is doomed (say, proving negativity when
    f(a) >= 0) fails at the first extension.

    When a == b the certificate is already final, and the point is
    evaluated here.  A theorem that binds f itself (the row's pointwise) is
    judged at a by the probe of the piece [a, a], whose witness the row's
    step takes in; a point that refutes it or leaves it undecided is a
    SweepFailure.
    """
    row, a = p.row, p.a
    # a row selected by its type fixes no field
    s = SimpleNamespace(fn_source=to_source(p.f), a=a, b=a,
                        **{name: getattr(p, row.key(name)) for name in row.params},
                        **row.theorems.get(p.theorem, {}))
    vars(s).update(row.start(s, p))
    h_init = (p.b - a) / 8
    vars(s).update({name: [] for name, _ in row.arrays}, partition=[a],
                   h_init=h_init, h_min=default_h_min(a, p.b), h_next=h_init)
    if a < p.b:
        return s
    if not row.pointwise:
        # evaluated for its domain errors, though it bounds nothing (f')
        _enclose(row, p.f, a, a)
        return s
    w = _probe(p, s, a, a, 0.0)
    if w is None:
        return SweepFailure(FailureKind.STALLED, at=a, detail=row.stall)
    if isinstance(w, SweepFailure):
        return w
    if row.step is not None:
        row.step(s, w)
    return s


def local_extend(p: Problem, s: SimpleNamespace) -> LocalWitness | SweepFailure:
    """Find a step width h in [s.h_min, s.h_init] whose piece, starting at
    the frontier s.b, certifies the local predicate; fail with a refuting
    witness if an enclosure certifies the hypothesis false, with BUDGET
    once p.max_pieces pieces have been taken, and else stall.

    The search starts at max(s.h_min, min(s.h_init, s.h_next)) and halves,
    h = max(h / 2, s.h_min), until a probe certifies or refutes; the probe
    at exactly s.h_min is its last.  Where it ends without a piece, the
    look past x = s.b evaluates x + h_min, x + 2 h_min, ..., each at least
    the next float after the last, up to b.  A domain error names the
    search's piece, or the point [t, t] past x, that raised it.  The witness
    carries the next start, the certifying width scaled by its margin, as
    w.h_next, which combine records.  The state is not changed.
    """
    x, h_min = s.b, s.h_min
    if not x < p.b:
        raise ValueError("frontier already at b")
    if len(s.partition) - 1 >= p.max_pieces:
        return SweepFailure(FailureKind.BUDGET, at=x,
                            detail=f"piece budget {p.max_pieces} exhausted")
    h = max(h_min, min(s.h_init, s.h_next))
    while True:
        y = x + h
        # clip at b, absorbing any sub-h_min remainder so no dust piece forms
        if y >= p.b or p.b - y < h_min:
            y = p.b
        if not y > x:
            break
        try:
            result = _probe(p, s, x, y, h)
        except DomainError as err:
            err.piece = FloatInterval(x, y)
            raise
        if result is not None:
            return result
        if not h > h_min:
            break
        h = max(h / 2, h_min)
    t, h = x, h_min
    while p.row.refute is not None and t < p.b:
        t = min(max(x + h, math.nextafter(t, p.b)), p.b)
        try:
            lo, hi = _enclose(p.row, p.f, t, t)
        except DomainError as err:
            err.piece = FloatInterval(t, t)
            raise
        failure = _refutation(p.row, s, x, t, t, lo, hi)
        if failure is not None:
            return failure
        h *= 2.0
    return SweepFailure(FailureKind.STALLED, at=x,
                        detail=f"no certifiable piece down to h_min = {h_min!r}")


def combine(p: Problem, s: SimpleNamespace, w: LocalWitness) -> None:
    """Take the piece [x, y] of w into the certificate s on [a, x], in
    place: the row's step updates the scalars (the min-rule for the
    uniform-continuity delta, which stores its own overlapping piece), y is
    appended to the partition and becomes s.b, and w.h_next becomes
    s.h_next, the next search's start.

    The piece must start exactly at the frontier; StructureError otherwise.
    """
    row = p.row
    x, y = w.x, w.y
    if x != s.b:
        raise StructureError(
            f"piece starts at {x!r} but certified domain ends at {s.b!r}")
    if not y > x:
        raise StructureError("degenerate piece")
    if row.step is not None:
        row.step(s, w)
    for name, side in row.arrays:
        getattr(s, name).append(side.store(w.lo, w.hi))
    s.partition.append(y)
    s.b, s.h_next = y, w.h_next


def finish(p: Problem, s: SimpleNamespace) -> Certificate:
    """The certificate on [a, s.b], from the state's entries that are
    fields of the row's class; what only the sweep reads, such as the step
    widths, a budget its row's start set or the partition of a class
    without one, stays out.  It copies the state's lists, so the fold may go
    on afterwards."""
    row, state = p.row, vars(s)
    values = {k: tuple(v) if isinstance(v, list) else v
              for k, v in ((name, state[name]) for name in row.cls._fields)}
    if "partition" in values:
        values["partition"] = Partition(values["partition"])
    return row.cls(**values)


def run_sweep(p: Problem) -> Certificate | SweepFailure:
    """Advance the frontier from a to b, or report how and where it failed.

    On success the returned certificate passes the independent checker with
    no re-tuning; on failure the frontier value and, when one was certified,
    a refuting witness piece are reported.  A certificate is returned only
    when it meets its row's requires: a full sweep whose certificate fails
    one, as rounding in the row's scalars can make it, ends STALLED at b
    with that requirement's reason.
    """
    s = base_case(p)
    if isinstance(s, SweepFailure):
        return s
    while s.b < p.b:
        w = local_extend(p, s)
        if isinstance(w, SweepFailure):
            return w
        combine(p, s, w)
    cert = finish(p, s)
    for test, reason in p.row.requires:
        if not test(cert, p.f):
            return SweepFailure(FailureKind.STALLED, at=p.b, detail=reason)
    return cert


# =============================================================================
# Local extension: one probe
# =============================================================================

def _probe(p: Problem, s, x: float, y: float,
           h: float) -> LocalWitness | SweepFailure | None:
    """One evaluation of the piece [x, y], widened to [u, y] by the row's
    window, at the current step width h: a witness, a certified refutation,
    or None (inconclusive, keep halving).  The first of the row's points
    with the best lower end of f, or of |f'| where the row's deriv is set, is
    the witness's candidate; under a prior they are evaluated only when the
    piece fails without them.  s is the certificate so far, as the fold
    carries it; the row's judge and refute tests read their thresholds from
    it."""
    row, f = p.row, p.f
    u = x if row.window is None else row.window(s, p, x, h)
    lo, hi = _enclose(row, f, u, y)
    cand = cand_lo = scale = None
    if row.points is not None and p.prior is not None:
        # a prior seeded the row's threshold: a piece that meets it needs no point
        scale = _accepts(row, s, lo, hi, x, y, -math.inf)
    if scale is None and row.points is not None:
        for t in dict.fromkeys(row.points(x, y)):  # each distinct point once
            t_lo, t_hi = _enclose(row, f, t, t)
            if row.deriv:  # |f'(t)| is at least max(lo, -hi) of f'(t)'s enclosure
                t_lo = max(t_lo, -t_hi)
            if cand is None or t_lo > cand_lo:
                cand, cand_lo = t, t_lo
    if scale is None:
        scale = _accepts(row, s, lo, hi, x, y, cand_lo)
    if scale is not None:
        return LocalWitness(x, y, lo, hi, scale * h, u, cand, cand_lo)
    return _refutation(row, s, x, u, y, lo, hi)


def _enclose(row: Row, f: Expr, u: float, y: float) -> tuple[float, float]:
    """The ends of the enclosure over [u, y] of f', when the row's deriv is set, or of f."""
    return eval_d1(f, u, y)[2:] if row.deriv else eval_iv(f, u, y)


def _refutation(row: Row, s, at: float, u: float, y: float,
                lo: float, hi: float) -> SweepFailure | None:
    """HYPOTHESIS_FAIL at the frontier at when the enclosure [lo, hi] over [u, y] refutes."""
    refuted = row.refute(s, lo, hi) if row.refute is not None else ""
    if not refuted:
        return None
    return SweepFailure(FailureKind.HYPOTHESIS_FAIL, at=at, witness=FloatInterval(u, y),
                        enclosure=FloatInterval(lo, hi), detail=refuted)
