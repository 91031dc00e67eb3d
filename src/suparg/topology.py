"""Exact set algebra on rational intervals: clopen analysis and subcovers.

Everything here is exact — endpoints are rationals, openness is a flag, and
set operations are decidable — so the two interval-topology conclusions
(a relatively clopen subset containing a is everything; a finite list of
open intervals covering [a,b] admits a frontier-chained subcover) come out
as exact verdicts with exact witnesses rather than enclosures.
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


def _merge_key(c: RatInterval):
    return (c.lo, c.lo_open)  # closed end sorts before open at the same point


def _can_merge(left: RatInterval, right: RatInterval) -> bool:
    # assumes left.lo <= right.lo; union is an interval iff they overlap or
    # touch with at least one closed endpoint at the junction
    if right.lo < left.hi:
        return True
    if right.lo == left.hi:
        return not (right.lo_open and left.hi_open)
    return False


def _merge(left: RatInterval, right: RatInterval) -> RatInterval:
    lo, lo_open = left.lo, left.lo_open
    if right.lo == left.lo:
        lo_open = lo_open and right.lo_open
    if right.hi > left.hi:
        hi, hi_open = right.hi, right.hi_open
    elif right.hi < left.hi:
        hi, hi_open = left.hi, left.hi_open
    else:
        hi, hi_open = left.hi, left.hi_open and right.hi_open
    return RatInterval(lo, hi, lo_open, hi_open)


def _normalize(components) -> tuple[RatInterval, ...]:
    items = sorted(components, key=_merge_key)
    out: list[RatInterval] = []
    for c in items:
        if out and _can_merge(out[-1], c):
            out[-1] = _merge(out[-1], c)
        else:
            out.append(c)
    return tuple(out)


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
    entered element straddles c iff its hi > c.
    """
    order = sorted(range(len(elements)), key=lambda i: elements[i].lo)
    c, frontiers, chosen = a, [a], []
    best_r = best_idx = None
    k = 0
    while True:
        while k < len(order) and elements[order[k]].lo < c:
            idx = order[k]
            r = elements[idx].hi
            if best_r is None or r > best_r or (r == best_r and idx < best_idx):
                best_r, best_idx = r, idx
            k += 1
        if best_r is None or best_r <= c:
            return chosen, frontiers, c
        chosen.append(best_idx)
        if b < best_r:
            return chosen, frontiers, None
        c = best_r
        frontiers.append(c)


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
    a running best, so the walk makes O(N log N) exact comparisons.
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
