"""Per-theorem drivers over the sweep engine.

Each driver instantiates the sweep for one conclusion.  Four run it more
than once: the maximum and integral provers seed a final sweep with a
coarse one's certificate, and run the plain sweep where the final one
fails other than by running out of pieces, the root prover sweeps again
over the bracket that the last sweep's stall gave, until the bracket is
within tol, and the modulus prover falls back from the mean-value route to
the overlap route.
Conclusions over sub-pairs (monotonicity, the mean-value inequality,
flatness, and uct's modulus on the mean-value route) follow from per-piece
data by telescoping through shared piece endpoints; no per-pair sweeps.
"""

from __future__ import annotations

import math

from .certificates import (
    BoundCert,
    FlatCert,
    IntegralCert,
    LipschitzCert,
    MaxCert,
    ModulusCert,
    MonotoneCert,
    MviCert,
    NegCert,
    RootBracket,
)
from .expr import Expr, eval_iv, parse
from .numeric import _MAX_FLOAT, DomainError, FloatInterval, sub_down, sub_up
from .sweep import MAX_PIECES, FailureKind, Problem, SweepFailure, default_h_min, run_sweep


class PreconditionError(ValueError):
    """A theorem's hypothesis could not be certified before sweeping."""


class Inconclusive(RuntimeError):
    """The root prover's sweeps could not narrow a sign change to within tol:
    f is undecided at a stall, no point past it is certified positive, or a
    pass over the bracket moves neither end."""


def _problem(f: Expr | str, a: float, b: float, theorem: str, max_pieces: int, **params):
    expr, src = (parse(f), f) if isinstance(f, str) else (f, None)
    return Problem(expr, a, b, theorem, fn_source=src, max_pieces=max_pieces, **params)


def _coarse_to_fine(p: Problem) -> IntegralCert | MaxCert | SweepFailure:
    """The outcome of a final pass whose prior is the certificate of a pass
    at 64 eps with a sixteenth of the budget, for the row's start to read
    what the argument knows only once it has run (evt's bar f(c) + eps,
    dit's plan): its certificate or BUDGET failure, final, as a plain sweep
    takes no fewer pieces.  On any other outcome the plain sweep's result,
    whose half of eps certifies where rounding eats the final pass's share."""
    try:
        coarse = run_sweep(p._replace(eps=min(64.0 * p.eps, _MAX_FLOAT),
                                      max_pieces=max(1, p.max_pieces // 16)))
        if not isinstance(coarse, SweepFailure):
            out = run_sweep(p._replace(prior=coarse))
            if not isinstance(out, SweepFailure) or out.kind is FailureKind.BUDGET:
                return out
    except (DomainError, OverflowError):
        pass
    return run_sweep(p)


def prove_bound(f: Expr | str, a: float, b: float,
                max_pieces: int = MAX_PIECES) -> BoundCert | SweepFailure:
    """Certify a positive global upper bound for f on [a, b]."""
    return run_sweep(_problem(f, a, b, "bvt", max_pieces))


def prove_max(f: Expr | str, a: float, b: float, eps: float,
              max_pieces: int = MAX_PIECES) -> MaxCert | SweepFailure:
    """Certify an eps-maximizer: a point c with f(t) <= f(c) + eps everywhere.

    The exact-maximizer statement is not certifiable from finitely many
    enclosures, so the eps-relaxed form is what the engine proves.  The
    final pass starts from the c and f_at_c_lo of a pass at 64 eps, so
    pieces left of the maximum meet that bar, and it evaluates candidate
    points only where the bar refuses a piece.  The seed is sound: its
    f_at_c_lo bounds f(c) below, which the checker evaluates again at c.
    """
    return _coarse_to_fine(_problem(f, a, b, "evt", max_pieces, eps=eps))


def prove_modulus(f: Expr | str, a: float, b: float, eps: float,
                  max_pieces: int = MAX_PIECES) -> LipschitzCert | ModulusCert | SweepFailure:
    """Certify a uniform-continuity modulus delta for the given eps.

    An f whose enclosure over [a, b], a < b, oscillates by less than eps
    needs no sweep: the one piece [a, b] holds every pair, and delta is
    b - a.  Otherwise f takes the mean-value inequality first: a sweep
    bounds |f'| <= L piece by piece, taking a piece while its bound is at
    most twice the largest lower bound of |f'| seen, and states delta =
    eps / L rounded down, or b - a while L = 0.  Its pieces do not shrink
    with eps, and its delta is at least about eps / (2 max |f'|).  The
    overlap route's delta is bounded by the oscillation of f instead, so it
    can be the larger where f is steep but of small amplitude.  Where the
    mean-value route fails (f' undefined at a domain boundary, an overflow,
    a stall or the piece budget), the overlap sweep runs as it would alone:
    its pieces overlap by delta and oscillate by less than eps each, so its
    failures are its own.
    """
    overlap = _problem(f, a, b, "uct", max_pieces, eps=eps)
    if a < b:
        try:  # the natural extension over [a, b] may be refused where pieces are not
            lo, hi = eval_iv(overlap.f, a, b)
            if sub_up(hi, lo) < eps:
                return ModulusCert(overlap.fn_source, a, b, eps, sub_down(b, a),
                                   (FloatInterval(a, b),), (sub_up(hi, lo),))
        except (DomainError, OverflowError):
            pass
    try:
        cert = run_sweep(overlap._replace(theorem="lipschitz"))
        if isinstance(cert, LipschitzCert):
            return cert
    except (DomainError, OverflowError):
        pass
    return run_sweep(overlap)


def prove_integral(f: Expr | str, a: float, b: float, eps: float,
                   max_pieces: int = MAX_PIECES) -> IntegralCert | SweepFailure:
    """Enclose the Darboux integral of f over [a, b] with gap below eps.

    The final pass plans from the certificate of a pass at 64 eps, which
    shows where f is steep, to give each piece an even share of the gap:
    about (integral of sqrt|f'|)^2 / eps pieces, where a budget per unit
    length needs about 2 (b - a) (integral of |f'|) / eps; its BUDGET
    failure is final.  The plain sweep, whose result is returned on any
    other outcome, keeps the gap on [a, x] at most (x - a) eps / (2 (b - a))
    plus rounding dust.
    """
    return _coarse_to_fine(_problem(f, a, b, "dit", max_pieces, eps=eps))


def prove_monotone(f: Expr | str, a: float, b: float, strict: bool,
                   max_pieces: int = MAX_PIECES) -> MonotoneCert | SweepFailure:
    """Certify (strict) monotonicity via per-piece derivative lower bounds."""
    return run_sweep(_problem(f, a, b, "sift" if strict else "ift", max_pieces))


def prove_mvi(f: Expr | str, a: float, b: float, M: float,
              max_pieces: int = MAX_PIECES) -> MviCert | SweepFailure:
    """Certify f(x2) - f(x1) <= M (x2 - x1) via per-piece derivative caps."""
    return run_sweep(_problem(f, a, b, "mvi", max_pieces, M=M))


def prove_flat(f: Expr | str, a: float, b: float, eta: float,
               max_pieces: int = MAX_PIECES) -> FlatCert | SweepFailure:
    """Certify |f(t) - f(a)| <= eta (b - a); exact constancy when eta = 0.

    With eta = 0 only a syntactically zero derivative enclosure certifies,
    so anything short of that stalls rather than rounding its way through.
    """
    return run_sweep(_problem(f, a, b, "cft", max_pieces, eta=eta))


# =============================================================================
# Root localization
# =============================================================================

def prove_root(f: Expr | str, a: float, b: float, tol: float,
               max_pieces: int = MAX_PIECES) -> RootBracket | NegCert | SweepFailure:
    """Localize a zero of f given a certified-negative left endpoint.

    The zero is the paper's c = sup{x : f < 0 on [a, x]}, which the
    negativity sweep finds: it reaches b (f < 0 on all of [a, b], a NegCert)
    or fails at l, and its look past l gives the first certified-positive
    point of l + h_min, l + 2 h_min, l + 4 h_min, ... as the witness r.
    While [l, r] is wider than tol the sweep runs again on it, with an h_min
    relative to the bracket, so each pass shrinks it by about 2**-38.  A
    zero only touched, never crossed, leaves no positive point or a pass
    that moves neither end, and raises Inconclusive.
    """
    problem = _problem(f, a, b, "ivt", max_pieces)
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    if not tol > 0:
        raise ValueError("tol must be positive")
    expr = problem.f
    f_a = FloatInterval(*eval_iv(expr, a, a))
    if not f_a.hi < 0.0:
        raise PreconditionError(
            f"f(a) is not certified negative: enclosure {f_a} at a = {a!r}")

    l, r = a, b
    while True:
        res = run_sweep(problem._replace(a=l, b=r))
        if isinstance(res, NegCert) or res.kind is FailureKind.BUDGET:
            return res
        at = res.at
        f_at = FloatInterval(*eval_iv(expr, at, at))
        if not f_at.hi < 0.0:
            raise Inconclusive(
                f"sign undecidable at the stalled frontier {at!r}: enclosure {f_at}")
        if res.witness is None:
            raise Inconclusive(f"no certified-positive point found to the right of {at!r}")
        right, f_right_lo = res.witness.lo, res.enclosure.lo
        if sub_up(right, at) <= tol:
            return RootBracket(problem.fn_source, a, b, at, right, f_at.hi, f_right_lo, tol)
        if (at, right) == (l, r) or not default_h_min(at, right) > 0:
            raise Inconclusive(
                f"sign undecidable everywhere inside [{at!r}, {right!r}] "
                f"(width {right - at!r} > tol {tol!r})")
        l, r = at, right
