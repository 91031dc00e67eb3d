"""Exact rational intervals: clopen analysis and subcovers.

Everything here is exact — endpoints are rationals and openness is a flag —
so the two interval-topology conclusions (a relatively clopen subset
containing a is everything; a finite list of open intervals covering [a,b]
admits a frontier-chained subcover) come out as exact verdicts with exact
witnesses rather than enclosures.

A set is kept in canonical form: sorted, disjoint, non-mergeable
components.  In that form the sup argument for connectedness can fail only
at a component end, so analyze_clopen reads the verdict off the ends in one
scan: a closed end other than a (left) or b (right) is a point of the set
that is not relatively interior, and an open end is a limit point that the
set misses (its docstring gives the reason); every other point of [a, b]
is interior to a component or to a gap, where neither hypothesis can fail.

Sorting, merging and the frontier walk order endpoints by the key
(q.numerator / q.denominator, q).  Its float is CPython's correctly rounded
int / int quotient, the value float(q) returns, read without a Fraction
method call; it is monotone in q, so two keys whose floats differ are
ordered by one C float comparison, and only a float tie (rationals closer
than one ulp, or both beyond binary64 and saturated to the same infinity)
compares the rationals themselves.  The key order is therefore exactly the
rational order, while nearly every comparison skips Fraction arithmetic;
the public values stay the exact rationals.

A subcover certificate keeps what the sup argument leaves: the cover's
size, the chosen elements in chain order with their indices, and the
frontiers.  Documents write each interval as an interval file does, with
"n/d" ends, and numeric.parse_rat_interval reads both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificates import ClopenReport, ClopenVerdict, SubcoverCert
from .numeric import RatInterval, Rational, parse_rat_interval


@dataclass(frozen=True)
class RatIntervalSet:
    """Finite union of rational intervals, kept in canonical form.

    Components are sorted, pairwise disjoint and non-mergeable, so equal
    sets always have identical representations.
    """

    components: tuple[RatInterval, ...]

    def __init__(self, components=()):
        object.__setattr__(self, "components", _normalize(components))

    def __str__(self) -> str:
        if not self.components:
            return "{}"
        return " ∪ ".join(str(c) for c in self.components)


_INF = float("inf")


def _key(q: Rational) -> tuple[float, Rational]:
    """(float(q), q), which orders exactly as q does (see the module
    docstring); beyond binary64 the float saturates to ±inf."""
    try:
        return (q.numerator / q.denominator, q)
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
# Clopen analysis
# =============================================================================

def analyze_clopen(u: RatIntervalSet, a: Rational, b: Rational) -> ClopenReport:
    """Decide whether u is a relatively clopen subset of [a, b] containing a.

    Exactly one verdict comes out: the full-interval conclusion, or the
    first hypothesis that fails, with the least boundary witness.  One scan
    of the canonical components decides it, because only a component end
    can fail a hypothesis.  A point strictly inside a component is
    relatively interior, and a point in no component's closure has a
    neighbourhood that u misses.  A closed end other than a (on the left) or
    b (on the right) is a point of u with a gap beside it, since a neighbour
    touching it would have merged; so it is not relatively interior.  An
    open end is a limit point of u that u misses, for the same reason.  With
    none of these, u is one closed component from a to b.
    """
    if a > b:
        raise ValueError("domain endpoints out of order")
    comps = u.components
    if comps and (comps[0].lo < a or comps[-1].hi > b):
        raise ValueError(f"set {u} is not contained in [{a}, {b}]")
    report = lambda verdict, witness=None: ClopenReport(  # noqa: E731
        a, b, comps, verdict, witness)

    if not comps or comps[0].lo_open or comps[0].lo != a:
        return report(ClopenVerdict.NOT_CONTAINS_A)
    for c in comps:
        if not c.lo_open and c.lo != a:
            return report(ClopenVerdict.NOT_REL_OPEN, c.lo)
        if not c.hi_open and c.hi != b:
            return report(ClopenVerdict.NOT_REL_OPEN, c.hi)
    # the first component starts closed at a, so its right end is the first
    # open end if there is one; if not, that component is [a, b] itself
    if comps[0].hi_open:
        return report(ClopenVerdict.NOT_REL_CLOSED, comps[0].hi)
    return report(ClopenVerdict.COVERS_ALL)


# =============================================================================
# Finite subcover extraction
# =============================================================================

@dataclass(frozen=True)
class Cover:
    """Finite list of open rational intervals, each nondegenerate, since
    RatInterval refuses an open one with lo == hi."""

    elements: tuple[RatInterval, ...]

    def __post_init__(self):
        for e in self.elements:
            if not e.is_open_interval():
                raise ValueError(f"cover element {e} is not an open interval")


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
    straddles it.  One sort by left end and a sweep with a running best:
    O(N log N) comparisons of exact keys.  The certificate keeps the chain
    alone (see SubcoverCert), not the cover.
    """
    if a > b:
        raise ValueError("domain endpoints out of order")
    chosen, chain, uncovered = _frontier_walk(cover.elements, a, b)
    if uncovered is not None:
        return UncoveredPoint(uncovered)
    if chain[-1] != b:
        chain.append(b)
    elements = cover.elements
    return SubcoverCert(a, b, len(elements), tuple(elements[i] for i in chosen),
                        tuple(chosen), tuple(chain))


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
            out.append(parse_rat_interval(line))
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"line {lineno}: cannot parse {line!r}: {err}") from None
    return out
