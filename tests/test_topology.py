"""Canonical interval sets, clopen verdicts, and greedy subcover optimality."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from suparg import cli
from suparg.certificates import ClopenVerdict, SubcoverCert, check, dumps, loads
from suparg.numeric import RatInterval, format_rat_interval, parse_rat_interval, \
    parse_rational
from suparg.topology import (
    Cover,
    RatIntervalSet,
    UncoveredPoint,
    _floats,
    analyze_clopen,
    extract_subcover,
    parse_interval_file,
    uncovered_point,
)


def iv(lo, hi, lo_open=False, hi_open=False):
    return RatInterval(F(lo), F(hi), lo_open, hi_open)


def rset(*intervals):
    return RatIntervalSet(tuple(intervals))


def _member(p, intervals):
    """p lies in the union of the intervals (in any form, canonical or not)."""
    return any(c.lo < p < c.hi or (p == c.lo and not c.lo_open)
               or (p == c.hi and not c.hi_open) for c in intervals)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_union_merges_touching():
    out = rset(iv(0, F(1, 4)), iv(F(1, 4), F(1, 2)))
    assert out == rset(iv(0, F(1, 2)))
    # open pieces that only touch do not merge
    out2 = rset(iv(0, F(1, 2), hi_open=True), iv(F(1, 2), 1, lo_open=True))
    assert len(out2.components) == 2


def test_normalization_canonical():
    left = rset(iv(0, F(1, 4)), iv(F(1, 8), F(1, 2)), iv(F(3, 4), 1))
    right = rset(iv(F(3, 4), 1), iv(0, F(1, 2)))
    assert left == right


def test_containment_validation():
    with pytest.raises(ValueError):
        analyze_clopen(rset(iv(0, 2)), F(0), F(1))
    with pytest.raises(ValueError, match="domain endpoints out of order"):
        extract_subcover(Cover((iv(-1, 2, True, True),)), F(1), F(0))


# ---------------------------------------------------------------------------
# clopen analysis
# ---------------------------------------------------------------------------

def test_clopen_full_interval():
    report = analyze_clopen(rset(iv(0, 1)), F(0), F(1))
    assert report.verdict is ClopenVerdict.COVERS_ALL
    assert report.witness is None
    assert check(report)


def test_clopen_closed_half_not_rel_open():
    report = analyze_clopen(rset(iv(0, F(1, 2))), F(0), F(1))
    assert report.verdict is ClopenVerdict.NOT_REL_OPEN
    assert report.witness == F(1, 2)
    assert check(report)


def test_clopen_half_open_not_rel_closed():
    report = analyze_clopen(rset(iv(0, F(1, 2), hi_open=True)), F(0), F(1))
    assert report.verdict is ClopenVerdict.NOT_REL_CLOSED
    assert report.witness == F(1, 2)
    assert check(report)


def test_clopen_not_containing_a():
    report = analyze_clopen(rset(iv(F(1, 4), 1)), F(0), F(1))
    assert report.verdict is ClopenVerdict.NOT_CONTAINS_A
    assert check(report)


def _random_set(rng, parts=3):
    comps = []
    for _ in range(rng.randrange(1, parts + 1)):
        lo = F(rng.randrange(0, 12), 12)
        hi = F(rng.randrange(lo.numerator * 1 + 1, 14), 12)
        hi = min(hi, F(1))
        if lo >= hi:
            continue
        comps.append(RatInterval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return RatIntervalSet(tuple(comps))


# _random_set puts every end on a multiple of 1/12, so membership at the
# multiples of 1/24 fixes the set, and the point 1/24 to one side of an end
# stands for that side's neighbourhood
_STEP = F(1, 24)
_GRID = [k * _STEP for k in range(25)]


def test_clopen_verdict_witnesses_verifiable():
    rng = random.Random(501)
    seen = set()
    for _ in range(400):
        u = _random_set(rng)
        if not u.components:
            continue
        report = analyze_clopen(u, F(0), F(1))
        seen.add(report.verdict)
        w = report.witness
        inside = lambda p: _member(p, u.components)  # noqa: E731
        if report.verdict is ClopenVerdict.NOT_CONTAINS_A:
            assert not inside(F(0))
        elif report.verdict is ClopenVerdict.COVERS_ALL:
            assert u == rset(iv(0, 1))
        else:
            near = [p for p in (w - _STEP, w + _STEP) if 0 <= p <= 1]
            if report.verdict is ClopenVerdict.NOT_REL_OPEN:
                assert inside(w) and not all(map(inside, near))
            else:
                assert not inside(w) and any(map(inside, near))
        assert check(report)
    assert len(seen) == 4  # the generator reaches every verdict


def test_connectedness_corollary():
    # attempted disconnections: U covers a and some point of [a, b] lies
    # outside U; then the analysis never concludes the full interval
    rng = random.Random(502)
    tried = 0
    for _ in range(300):
        anchor = RatInterval(F(0), F(rng.randrange(1, 11), 12),
                             False, rng.random() < 0.5)
        u = rset(anchor, *_random_set(rng).components)
        if all(_member(p, u.components) for p in _GRID):
            continue
        tried += 1
        report = analyze_clopen(u, F(0), F(1))
        assert report.verdict is not ClopenVerdict.COVERS_ALL
    assert tried > 50


# ---------------------------------------------------------------------------
# subcover extraction
# ---------------------------------------------------------------------------

def test_subcover_two_elements():
    cover = Cover((iv(F(-1, 10), F(6, 10), True, True),
                   iv(F(4, 10), F(11, 10), True, True)))
    cert = extract_subcover(cover, F(0), F(1))
    assert isinstance(cert, SubcoverCert)
    assert cert.indices == (0, 1)
    assert F(1, 2) < cert.chain[1] < F(11, 10)
    assert check(cert)


def test_subcover_gap_witness():
    cover = Cover((iv(F(-1, 10), F(1, 2), True, True),
                   iv(F(1, 2), F(11, 10), True, True)))
    out = extract_subcover(cover, F(0), F(1))
    assert isinstance(out, UncoveredPoint)
    assert out.point == F(1, 2)
    assert not _member(out.point, cover.elements)


def test_subcover_singleton():
    cover = Cover((iv(-1, 2, True, True),))
    cert = extract_subcover(cover, F(0), F(1))
    assert cert.indices == (0,)
    assert check(cert)


def test_cover_rejects_closed_elements():
    with pytest.raises(ValueError):
        Cover((iv(0, 1),))


def _brute_minimum(elements, a, b):
    for size in range(1, len(elements) + 1):
        for subset in itertools.combinations(range(len(elements)), size):
            if uncovered_point([elements[i] for i in subset], a, b) is None:
                return size
    return None


def test_greedy_matches_brute_force_minimum():
    rng = random.Random(503)
    covering = uncovered = 0
    for _ in range(300):
        elements = []
        for _ in range(rng.randrange(1, 9)):
            lo = F(rng.randrange(-4, 12), 12)
            hi = lo + F(rng.randrange(2, 13), 12)
            elements.append(RatInterval(lo, hi, True, True))
        cover = Cover(tuple(elements))
        out = extract_subcover(cover, F(0), F(1))
        best = _brute_minimum(elements, F(0), F(1))
        if isinstance(out, UncoveredPoint):
            uncovered += 1
            assert best is None
            assert not _member(out.point, elements)
        else:
            covering += 1
            assert len(out.indices) == best
            assert check(out)
    assert covering > 40 and uncovered > 40


# ---------------------------------------------------------------------------
# sort-and-sweep against the quadratic scans it replaced
# ---------------------------------------------------------------------------

def _ref_uncovered_point(elements, a, b):
    c = a
    while True:
        best = None
        for e in elements:
            if e.lo < c < e.hi and (best is None or e.hi > best):
                best = e.hi
        if best is None:
            return c
        if b < best:
            return None
        c = best


def _chain_cert(elements, a, b, chosen, chain):
    """The certificate of the chain through elements[i] for i in chosen."""
    return SubcoverCert(a, b, len(elements), tuple(elements[i] for i in chosen),
                        tuple(chosen), tuple(chain))


def _ref_extract_subcover(elements, a, b):
    c = a
    chain = [a]
    chosen = []
    while True:
        best_r = None
        best_idx = None
        for idx, e in enumerate(elements):
            if e.lo < c < e.hi and (best_r is None or e.hi > best_r):
                best_r, best_idx = e.hi, idx
        if best_r is None:
            return UncoveredPoint(c)
        chosen.append(best_idx)
        if b < best_r:
            if chain[-1] != b:
                chain.append(b)
            return _chain_cert(elements, a, b, chosen, chain)
        c = best_r
        chain.append(c)


def _grid_cover(rng):
    # a coarse grid makes tied right ends, touching open ends and gaps common
    elements = []
    for _ in range(rng.randrange(0, 12)):
        lo = F(rng.randrange(-3, 12), 8)
        elements.append(RatInterval(lo, lo + F(rng.randrange(1, 7), 8), True, True))
    return elements


def test_sweep_matches_quadratic_reference():
    rng = random.Random(504)
    seen = {"covered": 0, "uncovered": 0, "point": 0, "empty": 0}
    for _ in range(3000):
        elements = _grid_cover(rng)
        a = F(rng.randrange(-2, 8), 8)
        b = a if rng.random() < 0.1 else a + F(rng.randrange(0, 10), 8)
        out = extract_subcover(Cover(tuple(elements)), a, b)
        assert out == _ref_extract_subcover(elements, a, b)
        assert uncovered_point(elements, a, b) == _ref_uncovered_point(elements, a, b)
        seen["uncovered" if isinstance(out, UncoveredPoint) else "covered"] += 1
        seen["point"] += a == b
        seen["empty"] += not elements
    assert min(seen.values()) > 100


# ---------------------------------------------------------------------------
# exact keyed order against the Fraction-only sort and walk it replaced
# ---------------------------------------------------------------------------

def _ref_normalize(components):
    def can_merge(left, right):
        if right.lo < left.hi:
            return True
        if right.lo == left.hi:
            return not (right.lo_open and left.hi_open)
        return False

    def merge(left, right):
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

    out = []
    for c in sorted(components, key=lambda c: (c.lo, c.lo_open)):
        if out and can_merge(out[-1], c):
            out[-1] = merge(out[-1], c)
        else:
            out.append(c)
    return tuple(out)


def _ref_frontier_walk(elements, a, b):
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


_THIRD = F(1, 3)
_TINY = F(1, 10 ** 40)
_HUGE = F(10 ** 400)
# pairs that round to one float but differ, ends beyond binary64 (where the
# float saturates to ±inf), plain ints, and a coarse grid for touching ends
# and tied right ends
_POINTS = (_THIRD - _TINY, _THIRD, _THIRD + _TINY, _THIRD + 2 * _TINY,
           -_HUGE, -_HUGE + F(1, 7), _HUGE - 1, _HUGE, _HUGE + F(1, 7),
           -1, 0, 1, 2, F(1, 10 ** 400), -F(1, 10 ** 400),
           *(F(k, 4) for k in range(-2, 7)))
_point = st.one_of(st.sampled_from(_POINTS), st.integers(-2, 3),
                   st.builds(F, st.integers(-12, 18), st.integers(1, 6)))


@st.composite
def _interval(draw, open_only=False, point=_point):
    lo, hi = sorted(draw(st.tuples(point, point)))
    if lo == hi and open_only:
        hi = lo + draw(st.sampled_from((_TINY, F(1, 4), 1)))
    if lo == hi:
        return RatInterval(lo, hi)
    if open_only:
        return RatInterval(lo, hi, True, True)
    return RatInterval(lo, hi, draw(st.booleans()), draw(st.booleans()))


_intervals = st.lists(_interval(), max_size=8)
_keyed_settings = settings(max_examples=250, derandomize=True, database=None,
                           deadline=None)


def _probe_points(*endpoint_lists):
    """Every endpoint and every midpoint between neighbours: membership there
    fixes a finite union of intervals with those endpoints."""
    pts = sorted(set(itertools.chain(*endpoint_lists)))
    mids = [(p + q) / 2 for p, q in zip(pts, pts[1:])]
    return pts + mids + ([pts[0] - 1, pts[-1] + 1] if pts else [])


def _ends(comps):
    return [e for c in comps for e in (c.lo, c.hi)]


def _file_text(intervals):
    """The interval file of intervals, every third end written unreduced
    (2n/2d), so that one value can be written two ways."""
    scale = itertools.cycle((1, 1, 2))

    def end(q):
        k = next(scale)
        return f"{q.numerator * k}/{q.denominator * k}"

    return "".join(f"{'(' if c.lo_open else '['}{end(c.lo)}, {end(c.hi)}"
                   f"{')' if c.hi_open else ']'}\n" for c in intervals)


# one ulp at 1/3 is 2^-54, so 1/3 and 1/3 + _BELOW_ULP share a float
_BELOW_ULP = F(1, 2 ** 80)


@_keyed_settings
@example(xs=[RatInterval(0, _THIRD), RatInterval(_THIRD + _TINY, 1),
             RatInterval(_THIRD, _THIRD + _TINY, True, False)])
@example(xs=[RatInterval(0, _THIRD, False, True), RatInterval(_THIRD + _BELOW_ULP, 1),
             RatInterval(_THIRD, _THIRD + _BELOW_ULP, True, True)])
@example(xs=[RatInterval(-_HUGE, _HUGE - 1, False, True), RatInterval(_HUGE, _HUGE + 1)])
# the third end, 1/2, is written "2/4", and the first "1/2"
@example(xs=[RatInterval(F(1, 2), 1, True, False), RatInterval(0, F(1, 2), False, True)])
@example(xs=[RatInterval(F(1, 4), 1, True, False), RatInterval(F(1, 2), F(1, 2))])
@given(xs=_intervals)
def test_keyed_set_algebra_matches_fraction_reference(xs):
    x = RatIntervalSet(xs)
    assert x.components == _ref_normalize(xs)
    for p in _probe_points(_ends(xs)):
        assert _member(p, x.components) == _member(p, xs)
    # the same intervals as file text, read into float keys where they order it
    assert RatIntervalSet(parse_interval_file(_file_text(xs))).components == x.components


def _ref_clopen(intervals, a, b):
    """(verdict, witness) by membership alone, for intervals inside [a, b].

    Membership is constant between neighbouring points of [a, b] that are
    a, b or an endpoint, so the midpoints beside such a point stand for its
    one-sided neighbourhoods in [a, b]; the witness is the least failing
    point."""
    pts = sorted({a, b, *_ends(intervals)})
    mids = [(p + q) / 2 for p, q in zip(pts, pts[1:])]
    near = [[m for m in side if m is not None]
            for side in zip([None] + mids, mids + [None])]
    inside = lambda p: _member(p, intervals)  # noqa: E731
    if not inside(a):
        return ClopenVerdict.NOT_CONTAINS_A, None
    for p, ns in zip(pts, near):
        if inside(p) and not all(map(inside, ns)):
            return ClopenVerdict.NOT_REL_OPEN, p
    for p, ns in zip(pts, near):
        if not inside(p) and any(map(inside, ns)):
            return ClopenVerdict.NOT_REL_CLOSED, p
    return ClopenVerdict.COVERS_ALL, None


def _hull(xs):
    return (min((c.lo for c in xs), default=0), max((c.hi for c in xs), default=0))


@_keyed_settings
@example(xs=[RatInterval(_THIRD, _THIRD + _TINY), RatInterval(_THIRD - _TINY, _THIRD, False, True)],
         ab=None)
@example(xs=[RatInterval(-_HUGE, _HUGE - 1, False, True), RatInterval(_HUGE - 1, _HUGE, True, False)],
         ab=None)
@example(xs=[RatInterval(F(1, 2), 1, True, False), RatInterval(0, F(1, 2)),
             RatInterval(F(1, 4), F(3, 4), True, True)], ab=(0, 1))
@example(xs=[RatInterval(0, 0)], ab=(0, _TINY))
@example(xs=[RatInterval(1, 1)], ab=(1, 1))
@example(xs=[], ab=(0, 0))
@given(xs=_intervals, ab=st.one_of(st.none(), st.tuples(_point, _point).map(sorted)))
def test_clopen_matches_membership_reference(xs, ab):
    # raw, unnormalized input; ab None takes the hull of the intervals
    a, b = _hull(xs) if ab is None else ab
    inside = [c for c in xs if a <= c.lo and c.hi <= b]
    report = analyze_clopen(RatIntervalSet(inside), a, b)
    assert (report.verdict, report.witness) == _ref_clopen(inside, a, b)
    assert check(report)
    if len(inside) < len(xs):
        with pytest.raises(ValueError):
            analyze_clopen(RatIntervalSet(xs), a, b)


@_keyed_settings
@example(elements=[RatInterval(-1, _THIRD, True, True),
                   RatInterval(_THIRD, 2, True, True)], ab=(0, 1))
@example(elements=[RatInterval(-1, _THIRD + _TINY, True, True),
                   RatInterval(_THIRD, 2, True, True),
                   RatInterval(_THIRD - _TINY, 2, True, True)], ab=(0, 1))
@example(elements=[RatInterval(-1, _THIRD + _BELOW_ULP, True, True),
                   RatInterval(_THIRD, 2, True, True)], ab=(0, 1))
@example(elements=[RatInterval(-_HUGE, _HUGE + 1, True, True)], ab=(-_HUGE, _HUGE))
@example(elements=[RatInterval(-1, _HUGE - 1, True, True),
                   RatInterval(_HUGE - 2, _HUGE + 1, True, True)], ab=(0, _HUGE))
# a and b are ends; 0 is also written "0/2", and 1/2 "2/4" beside "1/2"
@example(elements=[RatInterval(-1, 0, True, True), RatInterval(0, 1, True, True),
                   RatInterval(F(-1, 2), F(1, 2), True, True),
                   RatInterval(F(1, 2), 2, True, True)], ab=(0, 1))
@example(elements=[], ab=(0, 0))
@given(elements=st.lists(_interval(open_only=True), max_size=8),
       ab=st.tuples(_point, _point).map(sorted))
def test_keyed_walk_matches_fraction_reference(elements, ab):
    a, b = ab
    chosen, chain, uncovered = _ref_frontier_walk(elements, a, b)
    assert uncovered_point(elements, a, b) == uncovered
    out = extract_subcover(Cover(tuple(elements)), a, b)
    # the same elements as file text, read into float keys where they order it
    assert extract_subcover(Cover(parse_interval_file(_file_text(elements))), a, b) == out
    if uncovered is not None:
        assert out == UncoveredPoint(uncovered)
        return
    if chain[-1] != b:
        chain.append(b)
    assert out == _chain_cert(elements, a, b, chosen, chain)
    assert check(out)


# half an ulp above the largest float: from here up float() overflows
_ROUNDS_TO_INF = F(2 ** 1024 - 2 ** 970)


@_keyed_settings
@example(q=_ROUNDS_TO_INF)
@example(q=-_ROUNDS_TO_INF)
@example(q=_ROUNDS_TO_INF - F(1, 3))
@example(q=F(1, 2 ** 1080))
@given(q=st.one_of(_point, st.fractions(),
                   st.builds(F, st.integers(-10 ** 400, 10 ** 400), st.integers(1, 10 ** 60))))
def test_key_float_is_float_of_the_rational(q):
    try:
        want = float(q)
    except OverflowError:
        want = math.inf if q > 0 else -math.inf
    got = _floats([q.as_integer_ratio()])[0]
    assert got == want and type(got) is float
    # beside an end beyond binary64, which takes every end through the saturation
    assert _floats([q.as_integer_ratio(), (2 ** 1100, 3)]) == [want, math.inf]


class _Counted(F):
    """Fraction that counts every comparison made on it."""

    comparisons = 0

    def _count(op):
        def compare(self, other):
            _Counted.comparisons += 1
            return op(self, other)
        return compare

    __lt__ = _count(F.__lt__)
    __le__ = _count(F.__le__)
    __gt__ = _count(F.__gt__)
    __ge__ = _count(F.__ge__)
    __eq__ = _count(F.__eq__)
    __hash__ = F.__hash__


def test_subcover_walk_makes_n_log_n_comparisons():
    links = 1000
    elements = []
    for k in range(links):
        # link k is the only element straddling the frontier k / links
        elements.append(RatInterval(_Counted(2 * k - 1, 2 * links),
                                    _Counted(k + 1, links), True, True))
        elements.append(RatInterval(_Counted(4 * k + 1, 4 * links),
                                    _Counted(4 * k + 3, 4 * links), True, True))
    random.Random(506).shuffle(elements)
    cover = Cover(tuple(elements))
    a, b = _Counted(0), _Counted(4 * links - 1, 4 * links)
    n = len(elements)
    limit = 4 * n * math.log2(n)

    _Counted.comparisons = 0
    cert = extract_subcover(cover, a, b)
    assert len(cert.indices) == links
    assert _Counted.comparisons <= limit
    _Counted.comparisons = 0
    assert uncovered_point(elements, a, b) is None
    assert _Counted.comparisons <= limit


def test_cover_from_a_file_builds_fractions_for_the_chain_only(tmp_path, capsys, monkeypatch):
    # a 700-line chain file as the benchmark's largest: 350 links across
    # [0, 1], each overlapping only its neighbours, and 350 intervals inside them
    rng = random.Random(507)
    links, den = 350, 350_000
    xs = [0, *sorted(rng.sample(range(1, den), links - 1)), den]
    reach = min(v - u for u, v in zip(xs, xs[1:])) // 3 or 1
    ivs = [(xs[k] - rng.randint(1, reach), xs[k + 1] + rng.randint(1, reach))
           for k in range(links)]
    ivs += [sorted(rng.sample(range(lo + 1, hi), 2)) for lo, hi in rng.choices(ivs, k=links)]
    rng.shuffle(ivs)
    path = tmp_path / "chain.txt"
    path.write_text("".join(f"({F(lo, den)}, {F(hi, den)})\n" for lo, hi in ivs))

    built = 0
    fraction_new = F.__new__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    code = cli.run(["cover", "--file", str(path), "--a", "0", "--b", "1", "--format", "json"])
    monkeypatch.undo()
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and len(doc["certificate"]["indices"]) == links
    assert built <= 3 * links + 4


# ---------------------------------------------------------------------------
# golden certificate bytes: a change to topology must reproduce these digests
# ---------------------------------------------------------------------------

def _open(lo, hi):
    return RatInterval(F(lo), F(hi), True, True)


def _chain_cover(links):
    out = []
    for k in range(links + 1):
        out.append(_open(F(2 * k - 1, 2 * links), F(k + 1, links)))
        out.append(_open(F(4 * k + 1, 4 * links), F(4 * k + 3, 4 * links)))
    return [out[37 * i % len(out)] for i in range(len(out))]  # 37 is prime to 2*61


GOLDEN_COVERS = {
    "long-chain": (_chain_cover(60), F(0), F(1)),
    "tied-ends": ([_open("-1/2", "1/2"), _open(-1, "1/2"), _open("1/4", 1),
                   _open("3/10", "6/5"), _open("2/5", "6/5"), _open("1/8", "6/5"),
                   _open("1/2", 2)], F(0), F(1)),
    "touching-gap": ([_open(-1, "1/3"), _open("1/3", 2), _open("1/4", "1/3")], F(0), F(1)),
    "point-domain": ([_open(0, 1), _open("-1/2", "1/2"), _open("-1/2", "1/2")],
                     F(1, 4), F(1, 4)),
}


def _lset(*parts):
    return RatIntervalSet(tuple(RatInterval(F(lo), F(hi), lo_open, hi_open)
                                for lo, hi, lo_open, hi_open in parts))


GOLDEN_CLOPEN = {
    "covers-all": _lset((0, "1/3", False, True), ("1/3", "2/3", False, False),
                        ("1/2", 1, True, False)),
    "not-contains-a": _lset(("1/8", "1/4", True, False), ("1/2", 1, False, False)),
    "not-rel-open": _lset((0, "1/4", False, True), ("1/4", "1/2", True, True),
                          ("1/2", "1/2", False, False), ("3/4", 1, True, False)),
    "not-rel-closed": _lset((0, "1/4", False, False), ("1/4", "1/2", True, True),
                            ("3/4", 1, True, False)),
}

GOLDEN_SHA256 = {
    "long-chain": "05cc8f171b8ae1a3169a955983aa92a869910295084ab3e99ad7e15a5842d784",
    "tied-ends": "b497821349dba6dfb2b6be390a02c8858131216a7ce80be64311b181eada4471",
    "touching-gap": "213d994c54de440501f8e9febcc5f1ec7dd6f134c5d4d03bc562e8d3129175e7",
    "point-domain": "2d367b42041f0c9e99fa2882a16e66c3b16cf60479b8d8c81fac244bdfc1c048",
    "covers-all": "dc240d68580b75a882347a8467544db717f554fcc7ed9c2c572605b625aec36b",
    "not-contains-a": "1c284be9367fc08575b7c0751498150400c4fe328e05e9d2f6c145383204b944",
    "not-rel-open": "b4642c2cdb93e7d322ba8a8562b10d8765d8c2101cb024eb3793d4b566fb27bd",
    "not-rel-closed": "8d8d26b8546a497b01ff521fadd30f6991780d8166f17c257bda79277c8853d4",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_topology_output_bytes_are_golden(name):
    if name in GOLDEN_COVERS:
        elements, a, b = GOLDEN_COVERS[name]
        out = extract_subcover(Cover(tuple(elements)), a, b)
        text = str(out) if isinstance(out, UncoveredPoint) else dumps(out)
        assert isinstance(out, UncoveredPoint) or check(out)
    else:
        out = analyze_clopen(GOLDEN_CLOPEN[name], F(0), F(1))
        text = dumps(out)
        assert check(out)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_topology_documents_roundtrip_in_either_layout(name):
    if name in GOLDEN_COVERS:
        elements, a, b = GOLDEN_COVERS[name]
        out = extract_subcover(Cover(tuple(elements)), a, b)
        if isinstance(out, UncoveredPoint):
            return
    else:
        out = analyze_clopen(GOLDEN_CLOPEN[name], F(0), F(1))
    text = dumps(out)
    assert text.count("\n") == 1 and dumps(loads(text)) == text
    again = loads(json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n")
    assert again == out and check(again) == check(out)


# ---------------------------------------------------------------------------
# interval text: files and certificate documents write it alike
# ---------------------------------------------------------------------------

# ends beyond 2^64 on both sides, with denominators beyond it too
_wide_point = st.one_of(_point, st.integers(-2 ** 80, 2 ** 80),
                        st.builds(F, st.integers(-2 ** 90, 2 ** 90), st.integers(1, 2 ** 70)))


@_keyed_settings
@example(e=RatInterval(F(-1, 10), F(2, 5), True, True))
@example(e=RatInterval(F(-3), F(7), False, True))
@example(e=RatInterval(F(1, 3), F(1, 3)))
@example(e=RatInterval(-F(2 ** 64 + 1, 3), F(2 ** 64), True, False))
@given(e=_interval(point=_wide_point))
def test_interval_text_reads_back_equal(e):
    text = format_rat_interval(e)
    assert parse_rat_interval(text) == e
    assert list(parse_interval_file(f"# one interval\n{text}\n")) == [e]


@_keyed_settings
@given(xs=st.lists(_interval(point=_wide_point), max_size=8))
def test_topology_documents_read_back_to_their_text(xs):
    a, b = _hull(xs)
    report = analyze_clopen(RatIntervalSet(xs), a, b)
    # an element around the hull makes every cover cover [a, b]
    cover = [RatInterval(c.lo, c.hi, True, True) for c in xs if c.lo != c.hi]
    cover.append(RatInterval(a - 1, b + 1, True, True))
    subcover = extract_subcover(Cover(tuple(cover)), a, b)
    for cert in (report, subcover):
        text = dumps(cert)
        assert dumps(loads(text)) == text and loads(text) == cert


# ---------------------------------------------------------------------------
# interval files
# ---------------------------------------------------------------------------

def test_parse_interval_file_forms():
    text = """
    # cover description
    (-1/10, 6/10)
    [0.25, 0.75)
    (1/2, 1.1]
    """
    got = list(parse_interval_file(text))
    assert got == [iv(F(-1, 10), F(6, 10), True, True),
                   iv(F(1, 4), F(3, 4), False, True),
                   iv(F(1, 2), F(11, 10), True, False)]
    with pytest.raises(ValueError):
        parse_interval_file("0.2, 0.3")
    with pytest.raises(ValueError):
        parse_interval_file("(0.2; 0.3)")


def _reference_read(text):
    """(intervals, error message or None): each line on its own through
    parse_rat_interval, stopping at the first line it refuses."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append((lineno, parse_rat_interval(line)))
        except (ValueError, ZeroDivisionError) as err:
            return out, f"line {lineno}: cannot parse {line!r}: {err}"
    return out, None


_digits = st.one_of(st.integers(0, 10 ** 6), st.integers(0, 10 ** 40)).map(str)
_zeros = st.integers(0, 2).map("0".__mul__)
_int_text = st.builds(lambda sign, zeros, n: sign + zeros + n,
                      st.sampled_from(("", "", "-")), _zeros, _digits)
_plain_end = st.one_of(_int_text, st.builds(lambda n, zeros, d: f"{n}/{zeros}{d}",
                                            _int_text, _zeros, st.integers(1, 10 ** 6)))
_end_text = st.one_of(
    *[_plain_end] * 6,
    st.sampled_from(("1.5", "-0.25", ".5", "1e3", "2.5E-2", "-1e-400", "+3", "+1/2", "1_0/3",
                     "1/1_0", "1/-2", "2 /3", "2/ 3", "١٢", "１/２")),
    st.sampled_from((f"1{'0' * 400}", f"-1{'0' * 400}/3", f"1/1{'0' * 400}",
                     f"1{'0' * 309}", f"17{'0' * 307}/9", f"-1{'0' * 320}")),
    # refused: each line holding one raises at that line
    st.sampled_from(("1e5000", "1_000", "- 1", "0x10", "nan", "", "-", "1/", "/2", "1//2",
                     "1/0", "-3/00", "9" * 5000, f"1/{'7' * 5000}")),
)
_space = st.sampled_from(("", "", "", "", "", " ", "\t", " \t "))
_edge = st.one_of(_space, st.just("\u2003"))


@st.composite
def _file_line(draw):
    kind = draw(st.sampled_from(("interval",) * 24 + ("degenerate", "comment", "blank", "junk")))
    if kind == "comment":
        return draw(_space) + "#" + draw(st.sampled_from(("", " (0, 1)", "[1, 0]")))
    if kind == "blank":
        return draw(_space)
    if kind == "junk":
        return draw(st.text(max_size=10))
    lo = draw(_end_text)
    hi = lo if kind == "degenerate" else draw(_end_text)
    try:
        inverted = parse_rational(lo) > parse_rational(hi)
    except ValueError:
        inverted = False
    if inverted and draw(st.integers(0, 7)):  # mostly ordered, sometimes inverted
        lo, hi = hi, lo
    left = draw(st.sampled_from("(" * 12 + "[" * 12 + "{ "))
    right = draw(st.sampled_from(")" * 12 + "]" * 12 + "} "))
    comma = draw(st.sampled_from((",",) * 24 + (";", ",,", "")))
    parts = (left, lo, comma, hi, right)
    return draw(_edge) + "".join(draw(_space) + part for part in parts) + draw(_edge)


@_keyed_settings
@example(lines=["(1/2, 2/4]", "[1/2, 2/4]", "(0, 1)"], newline="\n")
@example(lines=["(-7/10, 1/0)"], newline="\n")
@example(lines=["# cover", "", " (1/3, 2/3)\t", "[2, -1]"], newline="\r\n")
@example(lines=[f"(1{'0' * 400}, 2{'0' * 400})", f"[-1{'0' * 400}, -1{'0' * 400}]"],
         newline="\n")
@example(lines=[f"(1, 1{'0' * 640})", f"(-1/{'0' * 640}1, 1)", f"(1, 1{'0' * 5000})"],
         newline="\n")
@given(lines=st.lists(_file_line(), max_size=6), newline=st.sampled_from(("\n", "\r\n")))
def test_reader_matches_parse_rat_interval_line_by_line(lines, newline):
    text = newline.join(lines) + newline
    want, error = _reference_read(text)
    if error is not None:
        with pytest.raises(ValueError) as refused:
            parse_interval_file(text)
        assert str(refused.value) == error
        return
    table = parse_interval_file(text)
    assert list(table) == [e for _, e in want]
    assert table.lines == tuple(lineno for lineno, _ in want)
    for i, (_, e) in enumerate(want):
        assert table.lo[i] == _floats([e.lo.as_integer_ratio()])[0]
        assert table.hi[i] == _floats([e.hi.as_integer_ratio()])[0]
