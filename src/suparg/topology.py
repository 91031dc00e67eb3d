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

An interval list is held as an IntervalTable: each end as its pair (n, d)
and its float n / d, correctly rounded (±inf beyond binary64) and so
monotone in the rational.  When an input's distinct floats are as many as
its distinct pairs, a and b counted, no two distinct ends share a float, so
sorting, merging and the frontier walk order it by the floats alone;
otherwise (ends closer than one ulp or saturated to one infinity, or one
value written as 1/2 and 2/4) by (float, Fraction) keys.  The same sort,
merge and walk run either way, and Fractions are built for results only.

A subcover certificate keeps what the sup argument leaves: the cover's
size, the chosen elements in chain order with their indices, and the
frontiers.  Documents write each interval as an interval file does, with
"n/d" ends; parse_rat_interval reads them, and any file line in another form.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .certificates import ClopenReport, ClopenVerdict, SubcoverCert
from .numeric import RatInterval, Rational, parse_rat_interval

_INF = float("inf")
# n / d raises OverflowError exactly when |n / d| >= _OVER, which rounds past the largest float
_OVER = 2 ** 1024 - 2 ** 970


def _floats(pairs) -> list[float]:
    """float(Fraction(n, d)) of each (n, d), saturated to ±inf beyond binary64."""
    try:
        return [n / d for n, d in pairs]
    except OverflowError:
        return [n / d if abs(n) < _OVER * d else _INF if n > 0 else -_INF for n, d in pairs]


class IntervalTable(Sequence):
    """Rational intervals as columns: lo and hi hold each end's float, lo_end
    and hi_end its (n, d) pair with d > 0, lo_open and hi_open the flags, and
    lines each one's line in the file read (empty for other input).  Indexing
    gives the RatInterval the table was built of, if any, else one from the pairs."""

    __slots__ = ("lo", "hi", "lo_end", "hi_end", "lo_open", "hi_open", "lines", "source")

    def __init__(self, lo_end=(), hi_end=(), lo_open=(), hi_open=(), lines=(), source=()):
        self.lo_end, self.hi_end, self.lo_open, self.hi_open = lo_end, hi_end, lo_open, hi_open
        self.lines, self.source = lines, source
        self.lo, self.hi = _floats(lo_end), _floats(hi_end)

    @classmethod
    def of(cls, intervals) -> IntervalTable:
        """intervals, RatIntervals or a table already, as a table."""
        if isinstance(intervals, cls):
            return intervals
        source = tuple(intervals)
        return cls([e.lo.as_integer_ratio() for e in source],
                   [e.hi.as_integer_ratio() for e in source],
                   [e.lo_open for e in source], [e.hi_open for e in source], source=source)

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, i: int) -> RatInterval:
        return self.interval(i, i)

    def interval(self, i: int, j: int) -> RatInterval:
        """From row i's lo end to row j's hi end."""
        if i == j and self.source:
            return self.source[i]
        return RatInterval(Fraction(*self.lo_end[i]), Fraction(*self.hi_end[j]),
                           self.lo_open[i], self.hi_open[j])

    def keys(self, *points: Rational) -> tuple:
        """Keys of the lo ends, the hi ends and the points: the floats where
        they order all of these exactly, else (float, Fraction) pairs."""
        ends = [q.as_integer_ratio() for q in points]
        at = _floats(ends)
        floats = len({*self.lo, *self.hi, *at})  # when all differ, so do the pairs
        if (floats == 2 * len(self.lo) + len(at)
                or floats == len({*self.lo_end, *self.hi_end, *ends})):
            return self.lo, self.hi, at
        exact = lambda fs, ps: [(f, Fraction(*p)) for f, p in zip(fs, ps)]  # noqa: E731
        return exact(self.lo, self.lo_end), exact(self.hi, self.hi_end), exact(at, ends)


class RatIntervalSet(namedtuple("RatIntervalSet", "components")):
    """Finite union of rational intervals, kept in canonical form.

    Components are sorted, pairwise disjoint and non-mergeable, so equal
    sets always have identical representations.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace normalizes too

    def __new__(cls, components=()):
        return tuple.__new__(cls, (_normalize(IntervalTable.of(components)),))


def _normalize(table: IntervalTable) -> tuple[RatInterval, ...]:
    """Sort by exact keys (closed before open at the same left end), then
    merge every overlap or touch with a closed end at the junction.

    A run keeps the row giving its left end and the one giving its right
    end; table.interval gives each run as a RatInterval once it is complete.
    """
    los, his, _ = table.keys()
    runs = []  # [lo index, hi index, hi key, hi open]
    for klo, lo_open, khi, hi_open, i in sorted(
            zip(los, table.lo_open, his, table.hi_open, range(len(los)))):
        if runs:
            run = runs[-1]
            if klo < run[2] or (klo == run[2] and not (lo_open and run[3])):
                if khi > run[2] or (khi == run[2] and run[3] and not hi_open):
                    run[1:] = i, khi, hi_open
                continue
        runs.append([i, i, khi, hi_open])
    return tuple(table.interval(i, j) for i, j, _, _ in runs)


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
        outside = next(c for c in comps if c.lo < a or c.hi > b)
        raise ValueError(f"set component {outside} is not contained in [{a}, {b}]")
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

class Cover(namedtuple("Cover", "elements")):
    """Finite list of open rational intervals, each nondegenerate, since
    RatInterval refuses an open one with lo == hi."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, elements):
        table = IntervalTable.of(elements)
        for i, (lo_open, hi_open) in enumerate(zip(table.lo_open, table.hi_open)):
            if not (lo_open and hi_open):
                where = f"line {table.lines[i]}: " if table.lines else ""
                raise ValueError(f"{where}cover element {table[i]} is not an open interval")
        return tuple.__new__(cls, (table,))


class UncoveredPoint(namedtuple("UncoveredPoint", "point")):
    """Exact point of [a, b] contained in no cover element."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"uncovered point {self.point}"


def _frontier_walk(table: IntervalTable, a: Rational, b: Rational):
    """(chosen indices, uncovered point or None).

    Elements enter a running best (largest hi, ties to the lowest index) in
    order of lo while lo < c.  c only rises, so each enters once, and an
    entered element straddles c iff its hi > c.  Ends, the frontier c and b
    are compared as the table's keys for the input with a and b.  The
    frontiers are a and the hi ends of the chosen elements but the last;
    the uncovered point is the last frontier.
    """
    los, his, (c, kb) = table.keys(a, b)
    order = sorted(range(len(los)), key=los.__getitem__)
    chosen = []
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
            return chosen, table[chosen[-1]].hi if chosen else a
        chosen.append(best_idx)
        if kb < best:
            return chosen, None
        c = best


def uncovered_point(elements, a: Rational, b: Rational) -> Rational | None:
    """Exact coverage test for open intervals: None iff they cover [a, b].

    The frontier walk of extract_subcover (one sort by left end, then a
    sweep); the first frontier no element straddles is the uncovered point.
    """
    return _frontier_walk(IntervalTable.of(elements), a, b)[1]


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
    table = cover.elements
    chosen, uncovered = _frontier_walk(table, a, b)
    if uncovered is not None:
        return UncoveredPoint(uncovered)
    elements = tuple(map(table.__getitem__, chosen))
    chain = [a, *(e.hi for e in elements[:-1])]
    if chain[-1] != b:
        chain.append(b)
    return SubcoverCert(a, b, len(table), elements, tuple(chosen), tuple(chain))


# =============================================================================
# Interval-file parsing (one interval per line)
# =============================================================================

# The line form interval files and documents write: brackets around two ends
# "[-]n[/d]" of ASCII digits with d nonzero, spaces or tabs around.  640
# digits is the least limit int() may be set to refuse beyond, so each converts
_END = r"[ \t]*(-?[0-9]{1,640})(?:/((?=0*[1-9])[0-9]{1,640}))?[ \t]*"
_PLAIN = re.compile(rf"[ \t]*([(\[]){_END},{_END}([)\]])[ \t]*", re.ASCII)


def parse_interval_file(text: str) -> IntervalTable:
    """Read "(lo, hi)" / "[lo, hi]" / half-open mixes, one per line.

    Endpoints are decimals or "n/d" rationals; blank lines and lines
    starting with '#' are skipped.  A plain line (_PLAIN) with lo < hi is
    read here, any other by parse_rat_interval, whose error is raised.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _PLAIN.fullmatch(raw)
        if m is not None:
            lb, ln, ld, hn, hd, rb = m.groups("1")
            ln, ld, hn, hd = int(ln), int(ld), int(hn), int(hd)
            if ln * hd < hn * ld:  # lo < hi, as denominators are positive
                rows.append(((ln, ld), (hn, hd), lb == "(", rb == ")", lineno))
                continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            e = parse_rat_interval(line)
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"line {lineno}: cannot parse {line!r}: {err}") from None
        rows.append((e.lo.as_integer_ratio(), e.hi.as_integer_ratio(), e.lo_open, e.hi_open,
                     lineno))
    return IntervalTable(*zip(*rows))
