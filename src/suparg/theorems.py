"""Per-theorem drivers over the sweep engine.

Each driver instantiates the sweep for one conclusion and, where the raw
sweep outcome is not yet the certificate (the root prover), post-processes
it.  Conclusions over sub-pairs (monotonicity, the mean-value inequality,
flatness) follow from per-piece data by telescoping through shared piece
endpoints; no per-pair sweeps are run.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .certificates import (
    BoundCert,
    FlatCert,
    IntegralCert,
    MaxCert,
    ModulusCert,
    MonotoneCert,
    MviCert,
    NegCert,
    RootBracket,
)
from .expr import Expr, eval_iv, parse
from .numeric import _MAX_FLOAT, DomainError, FloatInterval
from .sweep import FailureKind, Problem, SweepFailure, default_h_min, run_sweep


class PreconditionError(ValueError):
    """A theorem's hypothesis could not be certified before sweeping."""


class Inconclusive(RuntimeError):
    """Sign refinement could not certify a bracket down to the tolerance."""


def _as_expr(f: Expr | str) -> tuple[Expr, str]:
    if isinstance(f, str):
        return parse(f), f
    return f, None


def _sweep(f: Expr | str, a: float, b: float, theorem: str, max_pieces: int, **params):
    expr, src = _as_expr(f)
    return run_sweep(Problem(expr, a, b, theorem, fn_source=src, max_pieces=max_pieces,
                             **params))


def prove_bound(f: Expr | str, a: float, b: float,
                max_pieces: int = 2 ** 20) -> BoundCert | SweepFailure:
    """Certify a positive global upper bound for f on [a, b]."""
    return _sweep(f, a, b, "bvt", max_pieces)


def prove_max(f: Expr | str, a: float, b: float, eps: float,
              max_pieces: int = 2 ** 20) -> MaxCert | SweepFailure:
    """Certify an eps-maximizer: a point c with f(t) <= f(c) + eps everywhere.

    The exact-maximizer statement is not certifiable from finitely many
    enclosures, so the eps-relaxed form is what the engine proves.
    """
    return _sweep(f, a, b, "evt", max_pieces, eps=eps)


def prove_modulus(f: Expr | str, a: float, b: float, eps: float,
                  max_pieces: int = 2 ** 20) -> ModulusCert | SweepFailure:
    """Certify a uniform-continuity modulus delta for the given eps."""
    return _sweep(f, a, b, "uct", max_pieces, eps=eps)


def prove_integral(f: Expr | str, a: float, b: float, eps: float,
                   max_pieces: int = 2 ** 20) -> IntegralCert | SweepFailure:
    """Enclose the Darboux integral of f over [a, b] with gap below eps.

    A first sweep at 16 eps, with a sixteenth of the piece budget, shows
    where f is steep.  Its certificate is the prior of a second sweep, whose
    row plans from it to give each piece an even share of the gap left
    (about (integral of sqrt|f'|)^2 / eps pieces, where a budget per unit
    length needs about 2 (b - a) (integral of |f'|) / eps).  That
    certificate is returned when the second sweep succeeds; run_sweep
    returns one only when its exact gap is below eps.  On any other outcome
    of either sweep, a failure or a domain error, the plain sweep's result
    is returned: the per-prefix budget (x - a) * eps / (2 (b - a)) ends a
    full run with a gap of at most eps/2 plus rounding dust, and a failure
    is exactly the plain sweep's.
    """
    expr, src = _as_expr(f)
    plain = Problem(expr, a, b, "dit", eps=eps, fn_source=src, max_pieces=max_pieces)
    try:
        coarse = run_sweep(replace(plain, eps=min(16.0 * eps, _MAX_FLOAT),
                                   max_pieces=max(1, max_pieces // 16)))
        if isinstance(coarse, IntegralCert):
            cert = run_sweep(replace(plain, prior=coarse))
            if isinstance(cert, IntegralCert):
                return cert
    except (DomainError, OverflowError):
        pass
    return run_sweep(plain)


def prove_monotone(f: Expr | str, a: float, b: float, strict: bool,
                   max_pieces: int = 2 ** 20) -> MonotoneCert | SweepFailure:
    """Certify (strict) monotonicity via per-piece derivative lower bounds."""
    return _sweep(f, a, b, "sift" if strict else "ift", max_pieces)


def prove_mvi(f: Expr | str, a: float, b: float, M: float,
              max_pieces: int = 2 ** 20) -> MviCert | SweepFailure:
    """Certify f(x2) - f(x1) <= M (x2 - x1) via per-piece derivative caps."""
    return _sweep(f, a, b, "mvi", max_pieces, M=M)


def prove_flat(f: Expr | str, a: float, b: float, eta: float,
               max_pieces: int = 2 ** 20) -> FlatCert | SweepFailure:
    """Certify |f(t) - f(a)| <= eta (b - a); exact constancy when eta = 0.

    With eta = 0 only a syntactically zero derivative enclosure certifies,
    so anything short of that stalls rather than rounding its way through.
    """
    return _sweep(f, a, b, "cft", max_pieces, eta=eta)


# =============================================================================
# Root localization
# =============================================================================

_PROBE_LADDER = (8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15)


def prove_root(f: Expr | str, a: float, b: float, tol: float,
               max_pieces: int = 2 ** 20) -> RootBracket | NegCert | SweepFailure:
    """Localize a zero of f given a certified-negative left endpoint.

    The negativity sweep either reaches b (then f < 0 on all of [a, b] and a
    NegCert is returned) or stalls where the enclosures can no longer keep f
    below zero; bisection on the stalled region then produces a bracket
    [l, r] of width at most tol with f(l) < 0 < f(r) certified.  A zero that
    is merely touched, never crossed, leaves every probe sign-undecidable
    and raises Inconclusive.
    """
    expr, src = _as_expr(f)
    if not tol > 0:
        raise ValueError("tol must be positive")
    problem = Problem(expr, a, b, "ivt", fn_source=src, max_pieces=max_pieces)
    f_a = FloatInterval(*eval_iv(expr, a, a))
    if not f_a.hi < 0.0:
        raise PreconditionError(
            f"f(a) is not certified negative: enclosure {f_a} at a = {a!r}")

    res = run_sweep(problem)
    if isinstance(res, NegCert):
        return res
    if res.kind is FailureKind.BUDGET:
        return res

    left = res.at
    f_left = FloatInterval(*eval_iv(expr, left, left))
    if not f_left.hi < 0.0:
        raise Inconclusive(
            f"sign undecidable at the stalled frontier {left!r}: enclosure {f_left}")

    # probed at the widths of a cold search: h_init halved down to h_min
    right, f_right_lo = _find_positive_point(expr, left, b, (b - a) / 8, default_h_min(a, b))
    if right is None:
        raise Inconclusive(
            f"no certified-positive point found to the right of {left!r}")

    return _bisect_bracket(expr, problem.fn_source, a, b, tol,
                           left, f_left.hi, right, f_right_lo)


def _find_positive_point(expr: Expr, x: float, b: float, h_init: float,
                         h_min: float) -> tuple[float, float] | tuple[None, None]:
    """A point right of x where f is certified positive, and f's lower end there."""
    h = h_init
    while h >= h_min:
        cand = min(x + h, b)
        if cand <= x:
            break
        lo = eval_iv(expr, cand, cand)[0]
        if lo > 0.0:
            return cand, lo
        h = h / 2
    return None, None


def _bisect_bracket(expr: Expr, src: str, a: float, b: float, tol: float,
                    l: float, f_l_hi: float, r: float, f_r_lo: float) -> RootBracket:
    tol_q = Fraction(tol)
    while Fraction(r) - Fraction(l) > tol_q:
        moved = False
        span = r - l
        for k in _PROBE_LADDER:
            m = l + span * (k / 16.0)
            if not l < m < r:
                continue
            lo, hi = eval_iv(expr, m, m)
            if hi < 0.0:
                l, f_l_hi = m, hi
                moved = True
                break
            if lo > 0.0:
                r, f_r_lo = m, lo
                moved = True
                break
        if not moved:
            raise Inconclusive(
                f"sign undecidable everywhere inside [{l!r}, {r!r}] "
                f"(width {r - l!r} > tol {tol!r})")
    return RootBracket(src, a, b, l, r, f_l_hi, f_r_lo, tol)
