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
Invalid by design.  Comparisons that carry the conclusion are performed in
exact rational arithmetic on the stored binary64 values, so no rounding in
the checker itself can flip a verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction

from . import expr as expr_mod
from .expr import Expr, eval_d1, eval_iv, parse
from .numeric import (
    DomainError,
    FloatInterval,
    RatInterval,
    Rational,
    float_to_hex,
    format_rational,
    hex_to_float,
    parse_rational,
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

    @property
    def pieces(self) -> tuple[FloatInterval, ...]:
        return tuple(FloatInterval(u, v) for u, v in zip(self.points, self.points[1:]))

    def __len__(self) -> int:
        return len(self.points) - 1


# =============================================================================
# Certificate variants
# =============================================================================

@dataclass(frozen=True)
class BoundCert:
    """Global upper bound: for all t in [a,b], f(t) <= bound."""

    fn_source: str
    a: float
    b: float
    partition: Partition
    piece_sup: tuple[float, ...]
    bound: float

    theorem = "bvt"


@dataclass(frozen=True)
class MaxCert:
    """eps-maximizer: f(t) <= f(c) + eps for all t, with f(c) >= f_at_c_lo."""

    fn_source: str
    a: float
    b: float
    eps: float
    c: float
    f_at_c_lo: float
    partition: Partition
    piece_sup: tuple[float, ...]

    theorem = "evt"


@dataclass(frozen=True)
class NegCert:
    """Strict negativity: f < 0 everywhere on [a,b]."""

    fn_source: str
    a: float
    b: float
    partition: Partition
    piece_hi: tuple[float, ...]

    theorem = "ivt"


@dataclass(frozen=True)
class RootBracket:
    """Sign-certified bracket: f(l) < 0 < f(r), so f has a zero in [l,r]."""

    fn_source: str
    a: float
    b: float
    l: float
    r: float
    f_l_hi: float
    f_r_lo: float
    tol: float

    theorem = "ivt"


@dataclass(frozen=True)
class ModulusCert:
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

    theorem = "uct"


@dataclass(frozen=True)
class IntegralCert:
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

    theorem = "dit"


@dataclass(frozen=True)
class MonotoneCert:
    """Monotonicity from per-piece derivative lower bounds (> 0 strict, >= 0 weak)."""

    fn_source: str
    a: float
    b: float
    strict: bool
    partition: Partition
    piece_deriv_lo: tuple[float, ...]

    @property
    def theorem(self) -> str:
        return "sift" if self.strict else "ift"


@dataclass(frozen=True)
class MviCert:
    """Mean-value inequality: f(x2) - f(x1) <= bound * (x2 - x1) for x1 < x2."""

    fn_source: str
    a: float
    b: float
    bound: float
    partition: Partition
    piece_deriv_hi: tuple[float, ...]

    theorem = "mvi"


@dataclass(frozen=True)
class FlatCert:
    """eta-flatness: |f(t) - f(a)| <= osc_bound = eta * (b - a); exact when eta = 0."""

    fn_source: str
    a: float
    b: float
    eta: float
    osc_bound: float
    partition: Partition
    piece_deriv_abs: tuple[float, ...]

    theorem = "cft"


class ClopenVerdict(Enum):
    COVERS_ALL = "covers_all"
    NOT_CONTAINS_A = "not_contains_a"
    NOT_REL_OPEN = "not_rel_open"
    NOT_REL_CLOSED = "not_rel_closed"


@dataclass(frozen=True)
class ClopenReport:
    """Outcome of the relative-clopen analysis of a set U inside [a,b]."""

    a: Rational
    b: Rational
    components: tuple[RatInterval, ...]
    verdict: ClopenVerdict
    witness: Rational | None = None

    theorem = "i1"


@dataclass(frozen=True)
class SubcoverCert:
    """Finite subcover chain: the chosen open elements already cover [a,b]."""

    a: Rational
    b: Rational
    cover: tuple[RatInterval, ...]
    indices: tuple[int, ...]
    chain: tuple[Rational, ...]

    theorem = "i2"


Certificate = (
    BoundCert | MaxCert | NegCert | RootBracket | ModulusCert | IntegralCert
    | MonotoneCert | MviCert | FlatCert | ClopenReport | SubcoverCert
)

_PARTITION_CERTS = (BoundCert, MaxCert, NegCert, IntegralCert, MonotoneCert,
                    MviCert, FlatCert)


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
    is re-derived in exact rational arithmetic.  Invalid is a value, not an
    error.
    """
    if isinstance(cert, (ClopenReport, SubcoverCert)):
        return _check_topology(cert)

    nonfinite = _nonfinite_field(cert)
    if nonfinite is not None:
        return _invalid(f"{nonfinite} is not finite")
    try:
        stored = parse(cert.fn_source)
    except expr_mod.ParseError as err:
        return _invalid(f"stored function does not parse: {err}")
    if f is not None and stored != f:
        return _invalid("function mismatch between certificate and caller")
    f = stored
    if a is not None and a != cert.a:
        return _invalid("domain mismatch: a")
    if b is not None and b != cert.b:
        return _invalid("domain mismatch: b")
    if not cert.a <= cert.b:
        return _invalid("inverted domain")

    try:
        if isinstance(cert, BoundCert):
            return _check_bound(cert, f)
        if isinstance(cert, MaxCert):
            return _check_max(cert, f)
        if isinstance(cert, NegCert):
            return _check_neg(cert, f)
        if isinstance(cert, RootBracket):
            return _check_root(cert, f)
        if isinstance(cert, ModulusCert):
            return _check_modulus(cert, f)
        if isinstance(cert, IntegralCert):
            return _check_integral(cert, f)
        if isinstance(cert, MonotoneCert):
            return _check_monotone(cert, f)
        if isinstance(cert, MviCert):
            return _check_mvi(cert, f)
        if isinstance(cert, FlatCert):
            return _check_flat(cert, f)
    except (DomainError, expr_mod.NotDifferentiable, OverflowError) as err:
        return _invalid(f"re-evaluation failed: {err}")
    return _invalid(f"unknown certificate type {type(cert).__name__}")


def _nonfinite_field(cert) -> str | None:
    # NaN slips through every ordered comparison and Fraction() rejects
    # NaN and inf, so a hostile scalar or per-piece value is refused first.
    for fld in fields(cert):
        value = getattr(cert, fld.name)
        values = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            return fld.name
    return None


def _structure(cert, pieces_arrays: tuple[tuple, ...]) -> CheckResult | None:
    p = cert.partition
    if p.a != cert.a:
        return _invalid("partition does not start at a")
    if p.b != cert.b:
        return _invalid("partition gap: does not end at b")
    n = len(p)
    for arr in pieces_arrays:
        if len(arr) != n:
            return _invalid("per-piece array length does not match partition")
    if cert.a == cert.b and n != 0:
        return _invalid("degenerate domain with nonempty pieces")
    return None


def _check_bound(cert: BoundCert, f: Expr) -> CheckResult:
    bad = _structure(cert, (cert.piece_sup,))
    if bad is not None:
        return bad
    if not cert.bound > 0.0:
        return _invalid("bound M is not positive")
    if cert.a == cert.b:
        fresh = eval_iv(f, FloatInterval.point(cert.a))
        if not fresh.hi <= cert.bound:
            return _invalid("M below the value at the degenerate point")
        return VALID
    for k, piece in enumerate(cert.partition.pieces):
        fresh = eval_iv(f, piece)
        if not fresh.hi <= cert.piece_sup[k]:
            return _invalid("piece bound tighter than fresh enclosure", k)
        if not cert.piece_sup[k] <= cert.bound:
            return _invalid("M < piece bound", k)
    return VALID


def _check_max(cert: MaxCert, f: Expr) -> CheckResult:
    bad = _structure(cert, (cert.piece_sup,))
    if bad is not None:
        return bad
    if not cert.eps > 0.0:
        return _invalid("eps is not positive")
    if not cert.a <= cert.c <= cert.b:
        return _invalid("maximizer candidate outside the domain")
    fresh_c = eval_iv(f, FloatInterval.point(cert.c))
    if not cert.f_at_c_lo <= fresh_c.lo:
        return _invalid("f_at_c_lo tighter than fresh enclosure at c")
    budget = Fraction(cert.f_at_c_lo) + Fraction(cert.eps)
    if cert.a == cert.b:
        fresh = eval_iv(f, FloatInterval.point(cert.a))
        if Fraction(fresh.hi) > budget:
            return _invalid("value at degenerate point above f(c) + eps")
        return VALID
    for k, piece in enumerate(cert.partition.pieces):
        fresh = eval_iv(f, piece)
        if not fresh.hi <= cert.piece_sup[k]:
            return _invalid("piece bound tighter than fresh enclosure", k)
        if Fraction(cert.piece_sup[k]) > budget:
            return _invalid("piece sup-bound above f(c) + eps", k)
    return VALID


def _check_neg(cert: NegCert, f: Expr) -> CheckResult:
    bad = _structure(cert, (cert.piece_hi,))
    if bad is not None:
        return bad
    if cert.a == cert.b:
        fresh = eval_iv(f, FloatInterval.point(cert.a))
        if not fresh.hi < 0.0:
            return _invalid("value at degenerate point not negative")
        return VALID
    for k, piece in enumerate(cert.partition.pieces):
        fresh = eval_iv(f, piece)
        if not fresh.hi <= cert.piece_hi[k]:
            return _invalid("piece bound tighter than fresh enclosure", k)
        if not cert.piece_hi[k] < 0.0:
            return _invalid("piece upper bound not negative", k)
    return VALID


def _check_root(cert: RootBracket, f: Expr) -> CheckResult:
    if not (cert.a <= cert.l < cert.r <= cert.b):
        return _invalid("bracket not inside the domain")
    if not cert.tol > 0.0:
        return _invalid("tol is not positive")
    if Fraction(cert.r) - Fraction(cert.l) > Fraction(cert.tol):
        return _invalid("bracket wider than tol")
    fresh_l = eval_iv(f, FloatInterval.point(cert.l))
    if not fresh_l.hi <= cert.f_l_hi:
        return _invalid("left bound tighter than fresh enclosure")
    if not cert.f_l_hi < 0.0:
        return _invalid("left endpoint not certified negative")
    fresh_r = eval_iv(f, FloatInterval.point(cert.r))
    if not cert.f_r_lo <= fresh_r.lo:
        return _invalid("right bound tighter than fresh enclosure")
    if not cert.f_r_lo > 0.0:
        return _invalid("right endpoint not certified positive")
    return VALID


def _check_modulus(cert: ModulusCert, f: Expr) -> CheckResult:
    if not cert.eps > 0.0:
        return _invalid("eps is not positive")
    if not cert.delta > 0.0:
        return _invalid("delta is not positive")
    if len(cert.pieces) != len(cert.piece_osc):
        return _invalid("per-piece array length does not match pieces")
    if cert.a == cert.b:
        if cert.pieces:
            return _invalid("degenerate domain with nonempty pieces")
        eval_iv(f, FloatInterval.point(cert.a))  # domain membership only
        return VALID
    if not cert.pieces:
        return _invalid("no pieces")
    if cert.pieces[0].lo != cert.a:
        return _invalid("first piece does not start at a")
    if cert.pieces[-1].hi != cert.b:
        return _invalid("last piece does not end at b")
    delta = Fraction(cert.delta)
    for k, piece in enumerate(cert.pieces):
        if k + 1 < len(cert.pieces):
            nxt = cert.pieces[k + 1]
            if nxt.lo < piece.lo:
                return _invalid("pieces not sorted by left endpoint", k)
            if Fraction(nxt.lo) + delta > Fraction(piece.hi):
                return _invalid("adjacent pieces overlap by less than delta", k)
        fresh = eval_iv(f, piece)
        if Fraction(cert.piece_osc[k]) < Fraction(fresh.hi) - Fraction(fresh.lo):
            return _invalid("oscillation bound tighter than fresh enclosure", k)
        if not cert.piece_osc[k] < cert.eps:
            return _invalid("piece oscillation not below eps", k)
    return VALID


def _check_integral(cert: IntegralCert, f: Expr) -> CheckResult:
    bad = _structure(cert, (cert.piece_lo, cert.piece_hi))
    if bad is not None:
        return bad
    if not cert.eps > 0.0:
        return _invalid("eps is not positive")
    if cert.a == cert.b:
        eval_iv(f, FloatInterval.point(cert.a))
        if cert.lower_sum != 0.0 or cert.upper_sum != 0.0:
            return _invalid("degenerate integral must be [0, 0]")
        return VALID
    lower = Fraction(0)
    upper = Fraction(0)
    for k, piece in enumerate(cert.partition.pieces):
        fresh = eval_iv(f, piece)
        if not cert.piece_lo[k] <= fresh.lo:
            return _invalid("piece lower bound tighter than fresh enclosure", k)
        if not fresh.hi <= cert.piece_hi[k]:
            return _invalid("piece upper bound tighter than fresh enclosure", k)
        w = Fraction(piece.hi) - Fraction(piece.lo)
        lower += Fraction(cert.piece_lo[k]) * w
        upper += Fraction(cert.piece_hi[k]) * w
    if Fraction(cert.lower_sum) > lower:
        return _invalid("stored lower sum above the exact piece sum")
    if Fraction(cert.upper_sum) < upper:
        return _invalid("stored upper sum below the exact piece sum")
    if not Fraction(cert.upper_sum) - Fraction(cert.lower_sum) < Fraction(cert.eps):
        return _invalid("Darboux gap not below eps")
    return VALID


def _check_monotone(cert: MonotoneCert, f: Expr) -> CheckResult:
    bad = _structure(cert, (cert.piece_deriv_lo,))
    if bad is not None:
        return bad
    if cert.a == cert.b:
        eval_d1(f, FloatInterval.point(cert.a))
        return VALID
    for k, piece in enumerate(cert.partition.pieces):
        fresh = eval_d1(f, piece).deriv
        if not cert.piece_deriv_lo[k] <= fresh.lo:
            return _invalid("derivative bound tighter than fresh enclosure", k)
        g = cert.piece_deriv_lo[k]
        if cert.strict and not g > 0.0:
            return _invalid("strict monotonicity needs a positive derivative bound", k)
        if not cert.strict and not g >= 0.0:
            return _invalid("monotonicity needs a nonnegative derivative bound", k)
    return VALID


def _check_mvi(cert: MviCert, f: Expr) -> CheckResult:
    bad = _structure(cert, (cert.piece_deriv_hi,))
    if bad is not None:
        return bad
    if not cert.bound > 0.0:
        return _invalid("M is not positive")
    if cert.a == cert.b:
        eval_d1(f, FloatInterval.point(cert.a))
        return VALID
    for k, piece in enumerate(cert.partition.pieces):
        fresh = eval_d1(f, piece).deriv
        if not fresh.hi <= cert.piece_deriv_hi[k]:
            return _invalid("derivative bound tighter than fresh enclosure", k)
        if not cert.piece_deriv_hi[k] <= cert.bound:
            return _invalid("piece derivative bound above M", k)
    return VALID


def _check_flat(cert: FlatCert, f: Expr) -> CheckResult:
    bad = _structure(cert, (cert.piece_deriv_abs,))
    if bad is not None:
        return bad
    if cert.eta < 0.0:
        return _invalid("eta is negative")
    if Fraction(cert.osc_bound) < Fraction(cert.eta) * (Fraction(cert.b) - Fraction(cert.a)):
        return _invalid("oscillation conclusion below eta * (b - a)")
    if cert.a == cert.b:
        eval_d1(f, FloatInterval.point(cert.a))
        return VALID
    for k, piece in enumerate(cert.partition.pieces):
        fresh = eval_d1(f, piece).deriv
        mag = max(abs(Fraction(fresh.lo)), abs(Fraction(fresh.hi)))
        if Fraction(cert.piece_deriv_abs[k]) < mag:
            return _invalid("derivative magnitude bound tighter than fresh enclosure", k)
        if not cert.piece_deriv_abs[k] <= cert.eta:
            return _invalid("piece derivative magnitude above eta", k)
    return VALID


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
    data: dict = field(default_factory=dict)


def conclusion_of(cert: Certificate) -> Conclusion:
    """Human- and machine-readable statement certified by the certificate."""
    if isinstance(cert, BoundCert):
        return Conclusion("bvt",
                          f"∀t∈[{cert.a!r}, {cert.b!r}]: f(t) ≤ {cert.bound!r} for f = {cert.fn_source}",
                          {"M": cert.bound})
    if isinstance(cert, MaxCert):
        return Conclusion("evt",
                          f"∃c = {cert.c!r} ∈ [{cert.a!r}, {cert.b!r}]: ∀t: f(t) ≤ f(c) + {cert.eps!r}, "
                          f"f(c) ≥ {cert.f_at_c_lo!r} for f = {cert.fn_source}",
                          {"c": cert.c, "f_at_c_lo": cert.f_at_c_lo, "eps": cert.eps})
    if isinstance(cert, NegCert):
        return Conclusion("ivt",
                          f"∀t∈[{cert.a!r}, {cert.b!r}]: f(t) < 0 for f = {cert.fn_source}",
                          {})
    if isinstance(cert, RootBracket):
        return Conclusion("ivt",
                          f"∃c∈[{cert.l!r}, {cert.r!r}]: f(c) = 0 for f = {cert.fn_source}",
                          {"l": cert.l, "r": cert.r, "width": cert.r - cert.l})
    if isinstance(cert, ModulusCert):
        return Conclusion("uct",
                          f"∀s,t∈[{cert.a!r}, {cert.b!r}]: |s−t| < {cert.delta!r} ⇒ "
                          f"|f(s)−f(t)| < {cert.eps!r} for f = {cert.fn_source}",
                          {"delta": cert.delta, "eps": cert.eps})
    if isinstance(cert, IntegralCert):
        return Conclusion("dit",
                          f"∫f over [{cert.a!r}, {cert.b!r}] ∈ [{cert.lower_sum!r}, {cert.upper_sum!r}], "
                          f"U − L < {cert.eps!r} for f = {cert.fn_source}",
                          {"L": cert.lower_sum, "U": cert.upper_sum, "eps": cert.eps})
    if isinstance(cert, MonotoneCert):
        rel = "<" if cert.strict else "≤"
        return Conclusion(cert.theorem,
                          f"∀x₁<x₂ in [{cert.a!r}, {cert.b!r}]: f(x₁) {rel} f(x₂) for f = {cert.fn_source}",
                          {"strict": cert.strict})
    if isinstance(cert, MviCert):
        return Conclusion("mvi",
                          f"∀x₁<x₂ in [{cert.a!r}, {cert.b!r}]: f(x₂) − f(x₁) ≤ "
                          f"{cert.bound!r}·(x₂ − x₁) for f = {cert.fn_source}",
                          {"M": cert.bound})
    if isinstance(cert, FlatCert):
        return Conclusion("cft",
                          f"∀t∈[{cert.a!r}, {cert.b!r}]: |f(t) − f(a)| ≤ {cert.osc_bound!r} "
                          f"for f = {cert.fn_source}" + (" (exact constancy)" if cert.eta == 0.0 else ""),
                          {"eta": cert.eta, "osc_bound": cert.osc_bound})
    if isinstance(cert, ClopenReport):
        detail = f" (witness {cert.witness})" if cert.witness is not None else ""
        return Conclusion("i1", f"clopen analysis on [{cert.a}, {cert.b}]: {cert.verdict.value}{detail}",
                          {"verdict": cert.verdict.value,
                           "witness": None if cert.witness is None else format_rational(cert.witness)})
    if isinstance(cert, SubcoverCert):
        return Conclusion("i2",
                          f"[{cert.a}, {cert.b}] ⊆ union of cover elements {list(cert.indices)}",
                          {"indices": list(cert.indices)})
    raise TypeError(f"unknown certificate type {type(cert).__name__}")


# =============================================================================
# JSON documents (bit-exact round-trip)
# =============================================================================

def _hex_list(vals) -> list[str]:
    return [float_to_hex(v) for v in vals]


def _iv_pairs(pieces) -> list[list[str]]:
    return [[float_to_hex(p.lo), float_to_hex(p.hi)] for p in pieces]


def _rat_iv(e: RatInterval) -> dict:
    return {"lo": format_rational(e.lo), "hi": format_rational(e.hi),
            "lo_open": e.lo_open, "hi_open": e.hi_open}


def _parse_rat_iv(d: dict) -> RatInterval:
    return RatInterval(parse_rational(d["lo"]), parse_rational(d["hi"]),
                       bool(d["lo_open"]), bool(d["hi_open"]))


def _payload(cert: Certificate) -> tuple[dict, dict]:
    """(certificate body, params) for the JSON document."""
    if isinstance(cert, BoundCert):
        return ({"type": "bound", "M": float_to_hex(cert.bound),
                 "partition": _hex_list(cert.partition.points),
                 "piece_sup": _hex_list(cert.piece_sup)}, {})
    if isinstance(cert, MaxCert):
        return ({"type": "max", "c": float_to_hex(cert.c),
                 "f_at_c_lo": float_to_hex(cert.f_at_c_lo),
                 "partition": _hex_list(cert.partition.points),
                 "piece_sup": _hex_list(cert.piece_sup)},
                {"eps": float_to_hex(cert.eps)})
    if isinstance(cert, NegCert):
        return ({"type": "neg", "partition": _hex_list(cert.partition.points),
                 "piece_hi": _hex_list(cert.piece_hi)}, {})
    if isinstance(cert, RootBracket):
        return ({"type": "root_bracket", "l": float_to_hex(cert.l), "r": float_to_hex(cert.r),
                 "f_l_hi": float_to_hex(cert.f_l_hi), "f_r_lo": float_to_hex(cert.f_r_lo)},
                {"tol": float_to_hex(cert.tol)})
    if isinstance(cert, ModulusCert):
        return ({"type": "modulus", "delta": float_to_hex(cert.delta),
                 "pieces": _iv_pairs(cert.pieces),
                 "piece_osc": _hex_list(cert.piece_osc)},
                {"eps": float_to_hex(cert.eps)})
    if isinstance(cert, IntegralCert):
        return ({"type": "integral", "L": float_to_hex(cert.lower_sum),
                 "U": float_to_hex(cert.upper_sum),
                 "partition": _hex_list(cert.partition.points),
                 "piece_lo": _hex_list(cert.piece_lo),
                 "piece_hi": _hex_list(cert.piece_hi)},
                {"eps": float_to_hex(cert.eps)})
    if isinstance(cert, MonotoneCert):
        return ({"type": "monotone", "strict": cert.strict,
                 "partition": _hex_list(cert.partition.points),
                 "piece_deriv_lo": _hex_list(cert.piece_deriv_lo)}, {})
    if isinstance(cert, MviCert):
        return ({"type": "mvi", "partition": _hex_list(cert.partition.points),
                 "piece_deriv_hi": _hex_list(cert.piece_deriv_hi)},
                {"M": float_to_hex(cert.bound)})
    if isinstance(cert, FlatCert):
        return ({"type": "flat", "osc_bound": float_to_hex(cert.osc_bound),
                 "partition": _hex_list(cert.partition.points),
                 "piece_deriv_abs": _hex_list(cert.piece_deriv_abs)},
                {"eta": float_to_hex(cert.eta)})
    if isinstance(cert, ClopenReport):
        return ({"type": "clopen", "verdict": cert.verdict.value,
                 "witness": None if cert.witness is None else format_rational(cert.witness),
                 "set": [_rat_iv(c) for c in cert.components]}, {})
    if isinstance(cert, SubcoverCert):
        return ({"type": "subcover", "indices": list(cert.indices),
                 "chain": [format_rational(p) for p in cert.chain],
                 "cover": [_rat_iv(e) for e in cert.cover]}, {})
    raise TypeError(f"unknown certificate type {type(cert).__name__}")


def to_document(cert: Certificate, engine: dict | None = None) -> dict:
    body, params = _payload(cert)
    if isinstance(cert, (ClopenReport, SubcoverCert)):
        function = None
        domain = [format_rational(cert.a), format_rational(cert.b)]
    else:
        function = cert.fn_source
        domain = [float_to_hex(cert.a), float_to_hex(cert.b)]
    return {
        "schema": SCHEMA,
        "theorem": cert.theorem,
        "function": function,
        "domain": domain,
        "params": params,
        "certificate": body,
        "engine": engine or {"pieces": piece_count(cert), "h_min": float_to_hex(0.0)},
    }


def piece_count(cert: Certificate) -> int:
    """Pieces, chosen elements or set components: the engine's count."""
    if isinstance(cert, _PARTITION_CERTS):
        return len(cert.partition)
    if isinstance(cert, ModulusCert):
        return len(cert.pieces)
    if isinstance(cert, SubcoverCert):
        return len(cert.indices)
    if isinstance(cert, ClopenReport):
        return len(cert.components)
    return 0


def dumps(cert: Certificate, engine: dict | None = None) -> str:
    """Deterministic JSON text: sorted keys, fixed layout, hexfloat scalars."""
    return json.dumps(to_document(cert, engine), sort_keys=True, indent=2) + "\n"


def from_document(doc: dict) -> Certificate:
    if doc.get("schema") != SCHEMA:
        raise StructureError(f"unsupported schema {doc.get('schema')!r}")
    body = doc["certificate"]
    kind = body["type"]
    params = doc.get("params", {})
    if kind in ("clopen", "subcover"):
        a = parse_rational(doc["domain"][0])
        b = parse_rational(doc["domain"][1])
        if kind == "clopen":
            wit = body.get("witness")
            return ClopenReport(a, b, tuple(_parse_rat_iv(d) for d in body["set"]),
                                ClopenVerdict(body["verdict"]),
                                None if wit is None else parse_rational(wit))
        return SubcoverCert(a, b, tuple(_parse_rat_iv(d) for d in body["cover"]),
                            tuple(int(i) for i in body["indices"]),
                            tuple(parse_rational(p) for p in body["chain"]))

    fn = doc["function"]
    a = hex_to_float(doc["domain"][0])
    b = hex_to_float(doc["domain"][1])
    if kind == "bound":
        return BoundCert(fn, a, b, Partition(tuple(map(hex_to_float, body["partition"]))),
                         tuple(map(hex_to_float, body["piece_sup"])), hex_to_float(body["M"]))
    if kind == "max":
        return MaxCert(fn, a, b, hex_to_float(params["eps"]), hex_to_float(body["c"]),
                       hex_to_float(body["f_at_c_lo"]),
                       Partition(tuple(map(hex_to_float, body["partition"]))),
                       tuple(map(hex_to_float, body["piece_sup"])))
    if kind == "neg":
        return NegCert(fn, a, b, Partition(tuple(map(hex_to_float, body["partition"]))),
                       tuple(map(hex_to_float, body["piece_hi"])))
    if kind == "root_bracket":
        return RootBracket(fn, a, b, hex_to_float(body["l"]), hex_to_float(body["r"]),
                           hex_to_float(body["f_l_hi"]), hex_to_float(body["f_r_lo"]),
                           hex_to_float(params["tol"]))
    if kind == "modulus":
        pieces = tuple(FloatInterval(hex_to_float(p[0]), hex_to_float(p[1]))
                       for p in body["pieces"])
        return ModulusCert(fn, a, b, hex_to_float(params["eps"]), hex_to_float(body["delta"]),
                           pieces, tuple(map(hex_to_float, body["piece_osc"])))
    if kind == "integral":
        return IntegralCert(fn, a, b, hex_to_float(params["eps"]),
                            Partition(tuple(map(hex_to_float, body["partition"]))),
                            tuple(map(hex_to_float, body["piece_lo"])),
                            tuple(map(hex_to_float, body["piece_hi"])),
                            hex_to_float(body["L"]), hex_to_float(body["U"]))
    if kind == "monotone":
        return MonotoneCert(fn, a, b, bool(body["strict"]),
                            Partition(tuple(map(hex_to_float, body["partition"]))),
                            tuple(map(hex_to_float, body["piece_deriv_lo"])))
    if kind == "mvi":
        return MviCert(fn, a, b, hex_to_float(params["M"]),
                       Partition(tuple(map(hex_to_float, body["partition"]))),
                       tuple(map(hex_to_float, body["piece_deriv_hi"])))
    if kind == "flat":
        return FlatCert(fn, a, b, hex_to_float(params["eta"]), hex_to_float(body["osc_bound"]),
                        Partition(tuple(map(hex_to_float, body["partition"]))),
                        tuple(map(hex_to_float, body["piece_deriv_abs"])))
    raise StructureError(f"unknown certificate type {kind!r}")


def loads(text: str) -> Certificate:
    return from_document(json.loads(text))
