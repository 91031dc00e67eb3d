"""Exact set algebra on rational intervals: clopen analysis and subcovers.

Everything here is exact — endpoints are rationals, openness is a flag, and
set operations are decidable — so the two interval-topology conclusions
(a relatively clopen subset containing a is everything; a finite list of
open intervals covering [a,b] admits a frontier-chained subcover) come out
as exact verdicts with exact witnesses rather than enclosures.

Sorting, merging and the frontier walk order endpoints by the key
(float(q), q).  float(q) is the correctly rounded int / int quotient, hence
monotone in q, so two keys whose floats differ are ordered by one C float
comparison, and only a float tie (rationals closer than one ulp, or both
beyond binary64 and saturated to the same infinity) compares the rationals
themselves.  The key order is therefore exactly the rational order, while
nearly every comparison skips Fraction arithmetic; the public values stay
the exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certificates import ClopenReport, ClopenVerdict, SubcoverCert
from .numeric import RatInterval, Rational, parse_rational


@dataclass(frozen=True)
class RatIntervalSet:
    """Finite union of rational intervals, kept in canonical form.

    Components are sorted, pairwise disjoint and non-mergeable, so equal
    sets always have identical representations.
    """

    components: tuple[RatInterval, ...]

    def __init__(self, components=()):
        object.__setattr__(self, "components", _normalize(components))

    def is_empty(self) -> bool:
        return not self.components

    def contains(self, p: Rational) -> bool:
        return any(c.contains(p) for c in self.components)

    def min_point(self) -> Rational:
        """Least element; components with an open left end have no least
        element, so this is only called on sets of closed-ended components."""
        c = self.components[0]
        if c.lo_open:
            raise ValueError(f"no least element: leftmost component {c} is left-open")
        return c.lo

    def __str__(self) -> str:
        if not self.components:
            return "{}"
        return " ∪ ".join(str(c) for c in self.components)


_INF = float("inf")


def _key(q: Rational) -> tuple[float, Rational]:
    """(float(q), q), which orders exactly as q does (see the module
    docstring); beyond binary64 the float saturates to ±inf."""
    try:
        return (float(q), q)
    except OverflowError:
        return (_INF if q > 0 else -_INF, q)


def _normalize(components) -> tuple[RatInterval, ...]:
    """Sort by exact keys (closed before open at the same left end), then
    merge every overlap or touch with a closed end at the junction.

    A run keeps the index of the element giving its left end and the one
    giving its right end; a run no other element extended is returned as
    that input object, and only a merged one is built anew.
    """
    items = tuple(components)
    runs = []  # [lo index, hi index, hi key, hi open]
    for klo, lo_open, khi, hi_open, i in sorted(
            (_key(c.lo), c.lo_open, _key(c.hi), c.hi_open, i)
            for i, c in enumerate(items)):
        if runs:
            run = runs[-1]
            if klo < run[2] or (klo == run[2] and not (lo_open and run[3])):
                if khi > run[2] or (khi == run[2] and run[3] and not hi_open):
                    run[1:] = i, khi, hi_open
                continue
        runs.append([i, i, khi, hi_open])
    return tuple(
        items[i] if i == j else RatInterval(items[i].lo, items[j].hi,
                                            items[i].lo_open, items[j].hi_open)
        for i, j, _, _ in runs)


# =============================================================================
# Set operations
# =============================================================================

def union(x: RatIntervalSet, y: RatIntervalSet) -> RatIntervalSet:
    return RatIntervalSet(x.components + y.components)


def intersect(x: RatIntervalSet, y: RatIntervalSet) -> RatIntervalSet:
    """Two-pointer merge, O(n + m): in canonical form, the component that
    ends first meets nothing further along the other list."""
    xs, ys = x.components, y.components
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        got = _intersect_pair(xs[i], ys[j])
        if got is not None:
            out.append(got)
        if xs[i].hi <= ys[j].hi:
            i += 1
        else:
            j += 1
    return RatIntervalSet(tuple(out))


def _intersect_pair(c: RatInterval, d: RatInterval) -> RatInterval | None:
    if c.lo > d.lo or (c.lo == d.lo and c.lo_open and not d.lo_open):
        lo, lo_open = c.lo, c.lo_open
    elif c.lo < d.lo or (c.lo == d.lo and d.lo_open and not c.lo_open):
        lo, lo_open = d.lo, d.lo_open
    else:
        lo, lo_open = c.lo, c.lo_open
    if c.hi < d.hi or (c.hi == d.hi and c.hi_open and not d.hi_open):
        hi, hi_open = c.hi, c.hi_open
    elif c.hi > d.hi or (c.hi == d.hi and d.hi_open and not c.hi_open):
        hi, hi_open = d.hi, d.hi_open
    else:
        hi, hi_open = c.hi, c.hi_open
    if lo > hi:
        return None
    if lo == hi and (lo_open or hi_open):
        return None
    return RatInterval(lo, hi, lo_open, hi_open)


def complement_rel(x: RatIntervalSet, a: Rational, b: Rational) -> RatIntervalSet:
    """[a, b] minus the set (the set must already live inside [a, b])."""
    out = []
    cursor, cursor_open = a, False
    for c in x.components:
        piece = _gap(cursor, cursor_open, c.lo, not c.lo_open)
        if piece is not None:
            out.append(piece)
        cursor, cursor_open = c.hi, not c.hi_open
    piece = _gap(cursor, cursor_open, b, False)
    if piece is not None:
        out.append(piece)
    return RatIntervalSet(tuple(out))


def _gap(lo: Rational, lo_open: bool, hi: Rational, hi_open: bool) -> RatInterval | None:
    if lo > hi:
        return None
    if lo == hi and (lo_open or hi_open):
        return None
    return RatInterval(lo, hi, lo_open, hi_open)


def rel_closure(x: RatIntervalSet, a: Rational, b: Rational) -> RatIntervalSet:
    return RatIntervalSet(tuple(RatInterval(c.lo, c.hi, False, False)
                                for c in x.components))


def rel_interior(x: RatIntervalSet, a: Rational, b: Rational) -> RatIntervalSet:
    """Interior relative to [a, b] (so endpoints of the ambient interval count)."""
    return complement_rel(rel_closure(complement_rel(x, a, b), a, b), a, b)


def _require_inside(s: RatIntervalSet, a: Rational, b: Rational) -> None:
    if s.components and (s.components[0].lo < a or s.components[-1].hi > b):
        raise ValueError(f"set {s} is not contained in [{a}, {b}]")


# =============================================================================
# Clopen analysis
# =============================================================================

def analyze_clopen(u: RatIntervalSet, a: Rational, b: Rational) -> ClopenReport:
    """Decide whether u is a relatively clopen subset of [a, b] containing a.

    Exactly one verdict comes out: the full-interval conclusion, or the
    first hypothesis that fails, with an exact boundary witness.
    """
    if a > b:
        raise ValueError("domain endpoints out of order")
    _require_inside(u, a, b)
    report = lambda verdict, witness=None: ClopenReport(  # noqa: E731
        a, b, u.components, verdict, witness)

    if not u.contains(a):
        return report(ClopenVerdict.NOT_CONTAINS_A)
    interior = rel_interior(u, a, b)
    if interior != u:
        diff = intersect(u, complement_rel(interior, a, b))
        return report(ClopenVerdict.NOT_REL_OPEN, diff.min_point())
    closure = rel_closure(u, a, b)
    if closure != u:
        diff = intersect(closure, complement_rel(u, a, b))
        return report(ClopenVerdict.NOT_REL_CLOSED, diff.min_point())

    # Hypotheses hold exactly; the frontier walk through the components must
    # now reach b, certifying u = [a, b].
    frontier = a
    for c in u.components:
        if not c.contains(frontier):
            break
        frontier = c.hi
    if frontier == b and u.contains(b):
        return report(ClopenVerdict.COVERS_ALL)
    raise AssertionError(
        f"clopen hypotheses verified but the frontier stopped at {frontier}")


# =============================================================================
# Finite subcover extraction
# =============================================================================

@dataclass(frozen=True)
class Cover:
    """Finite list of nondegenerate open rational intervals."""

    elements: tuple[RatInterval, ...]

    def __post_init__(self):
        for e in self.elements:
            if not e.is_open_interval():
                raise ValueError(f"cover element {e} is not an open interval")
            if not e.lo < e.hi:
                raise ValueError(f"cover element {e} is degenerate")


@dataclass(frozen=True)
class UncoveredPoint:
    """Exact point of [a, b] contained in no cover element."""

    point: Rational

    def __str__(self) -> str:
        return f"uncovered point {self.point}"


def _frontier_walk(elements, a: Rational, b: Rational):
    """(chosen indices, frontiers from a, uncovered point or None).

    Elements enter a running best (largest hi, ties to the lowest index) in
    order of lo while lo < c.  c only rises, so each enters once, and an
    entered element straddles c iff its hi > c.  Endpoints, the frontier c
    and b are all compared as keys _key(q) = (float(q), q), computed once
    per endpoint: a float is monotone in q, so unequal floats decide a
    comparison exactly and only a float tie compares the rationals.  The
    frontiers and the uncovered point come back as the input rationals.
    """
    los = [_key(e.lo) for e in elements]
    his = [_key(e.hi) for e in elements]
    order = sorted(range(len(elements)), key=los.__getitem__)
    c, kb = _key(a), _key(b)
    frontiers, chosen = [a], []
    best = best_idx = None
    k = 0
    while True:
        while k < len(order) and los[order[k]] < c:
            idx = order[k]
            r = his[idx]
            if best is None or r > best or (r == best and idx < best_idx):
                best, best_idx = r, idx
            k += 1
        if best is None or best <= c:
            return chosen, frontiers, c[1]
        chosen.append(best_idx)
        if kb < best:
            return chosen, frontiers, None
        c = best
        frontiers.append(c[1])


def uncovered_point(elements, a: Rational, b: Rational) -> Rational | None:
    """Exact coverage test for open intervals: None iff they cover [a, b].

    The frontier walk of extract_subcover (one sort by left end, then a
    sweep); the first frontier no element straddles is the uncovered point.
    """
    return _frontier_walk(elements, a, b)[2]


def extract_subcover(cover: Cover, a: Rational,
                     b: Rational) -> SubcoverCert | UncoveredPoint:
    """Greedy frontier chain: always the element reaching farthest right.

    From the frontier (starting at a) pick, among elements straddling it,
    the one with maximal right endpoint (ties to the lowest index), advance
    the frontier there, and stop once the last element contains b.  The
    frontier value itself is the uncovered witness when no element
    straddles it.  The elements are sorted by left end once and swept with
    a running best, so the walk makes O(N log N) comparisons of exact keys
    (float, rational); a rational is compared only where two floats tie,
    and the order is still exactly the rational order.
    """
    if a > b:
        raise ValueError("domain endpoints out of order")
    chosen, chain, uncovered = _frontier_walk(cover.elements, a, b)
    if uncovered is not None:
        return UncoveredPoint(uncovered)
    if chain[-1] != b:
        chain.append(b)
    return SubcoverCert(a, b, cover.elements, tuple(chosen), tuple(chain))


# =============================================================================
# Interval-file parsing (one interval per line)
# =============================================================================

def parse_interval_file(text: str) -> list[RatInterval]:
    """Parse "(lo, hi)" / "[lo, hi]" / half-open mixes, one per line.

    Endpoints are decimals or "n/d" rationals; blank lines and lines
    starting with '#' are skipped.
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(_parse_interval_line(line))
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"line {lineno}: cannot parse {line!r}: {err}") from None
    return out


def _parse_interval_line(line: str) -> RatInterval:
    if line[0] not in "([" or line[-1] not in ")]":
        raise ValueError("interval must be bracketed")
    lo_open = line[0] == "("
    hi_open = line[-1] == ")"
    inner = line[1:-1]
    parts = inner.split(",")
    if len(parts) != 2:
        raise ValueError("expected two comma-separated endpoints")
    lo = parse_rational(parts[0])
    hi = parse_rational(parts[1])
    return RatInterval(lo, hi, lo_open, hi_open)
