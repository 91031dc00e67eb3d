"""Seeded problem corpora for the suparg benchmark, with mpmath references.

    python3 perfbench/corpus.py --workload value-sweep --seed 7 --out DIR

writes DIR/manifest.json (plus the interval files of cover-chain) and
prints the corpus hash.  The same workload and seed always give a
byte-identical corpus.  Every reference the benchmark compares outputs
against (integrals, roots, grid maxima, derivative maxima, greedy subcover
sizes, clopen verdicts) is computed here, at 50 significant digits, so the
measuring process never needs mpmath.

A seed jitters coefficients (by about 2 %), domain ends and each eps, and
shuffles the invocation order; which template sits at which size step is
fixed, so the amount of work per pass barely moves from seed to seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50

WORKLOADS = ("value-sweep", "deriv-sweep", "cover-chain")
GRID = 1024          # dense-grid intervals for maxima
DIGITS = 50          # digits written for every reference value


# =============================================================================
# Small helpers
# =============================================================================

def _dec(k: int, places: int = 2) -> str:
    """k / 10**places as an exact decimal string."""
    sign = "-" if k < 0 else ""
    k = abs(k)
    whole, frac = divmod(k, 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}"


def _mpdec(text: str) -> mp.mpf:
    return mp.mpf(Fraction(text).numerator) / Fraction(text).denominator


def _dyadic(k: int, den: int = 16) -> str:
    """k / den as the exact decimal text of a binary64 value."""
    text = repr(k / den)
    if Fraction(text) != Fraction(k, den):
        raise ValueError(f"{k}/{den} has no short exact decimal")
    return text


def _ref(x) -> str:
    return mp.nstr(x, DIGITS, min_fixed=-5, max_fixed=5)


def _round_sig(x, sig: int, up: bool) -> str:
    """Decimal text with sig significant digits, rounded up or down."""
    x = mp.mpf(x)
    if x == 0:
        return "0"
    e = int(mp.floor(mp.log10(abs(x)))) - sig + 1
    scaled = x / mp.mpf(10) ** e
    k = int(mp.ceil(scaled)) if up else int(mp.floor(scaled))
    q = Fraction(k) * Fraction(10) ** e
    return _frac_dec(q)


def _frac_dec(q: Fraction) -> str:
    """Exact decimal text of a rational whose denominator is 2^i 5^j."""
    num, den = q.numerator, q.denominator
    places = 0
    while (10 ** places) % den:
        places += 1
    return _dec(num * (10 ** places // den), places) if places else str(num)


def _grid_max(f, a, b):
    """Largest value of f over GRID + 1 equally spaced points of [a, b]."""
    step = (b - a) / GRID
    return max(f(a + i * step) for i in range(GRID + 1))


def _true_max(g, a, b):
    """max of a smooth g on [a, b]: dense grid, then golden section around
    the best few grid points (each local maximum is bracketed by its two
    grid neighbours)."""
    a, b = mp.mpf(a), mp.mpf(b)
    step = (b - a) / GRID
    xs = [a + i * step for i in range(GRID + 1)]
    vals = [g(x) for x in xs]
    best = max(vals)
    for i in sorted(range(GRID + 1), key=lambda k: vals[k], reverse=True)[:4]:
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, GRID)]
        invphi = (mp.sqrt(5) - 1) / 2
        c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        gc, gd = g(c), g(d)
        for _ in range(100):
            if gc > gd:
                hi, d, gd = d, c, gc
                c = hi - invphi * (hi - lo)
                gc = g(c)
            else:
                lo, c, gc = c, d, gd
                d = lo + invphi * (hi - lo)
                gd = g(d)
        best = max(best, gc, gd)
    return best


def _variation_points(df, a, b):
    """[a, zeros of f' found on the grid or by its sign changes, b]."""
    a, b = mp.mpf(a), mp.mpf(b)
    step = (b - a) / GRID
    pts = [a]
    prev = df(a)
    for i in range(1, GRID + 1):
        x = a + i * step
        cur = df(x)
        if cur == 0:
            pts.append(x)
        elif prev * cur < 0:
            pts.append(mp.findroot(df, (x - step, x), solver="anderson"))
        prev = cur
    pts.append(b)
    return pts


# =============================================================================
# Function templates: source text, f and f' as mpmath callables
# =============================================================================

class Fn:
    def __init__(self, src: str, f, df):
        self.src, self.f, self.df = src, f, df


def _c(rng: random.Random, lo: int, hi: int) -> tuple[str, mp.mpf]:
    """A coefficient lo/100 .. hi/100 with two decimals."""
    text = _dec(rng.randint(lo, hi))
    return text, _mpdec(text)


def t_cubic(rng):
    cs, c = _c(rng, 98, 102)
    return Fn(f"x^3 - {cs}*x", lambda x: x ** 3 - c * x, lambda x: 3 * x ** 2 - c)


def t_quartic(rng):
    cs, c = _c(rng, 294, 306)
    ds, d = _c(rng, 98, 102)
    return Fn(f"x^4 - {cs}*x^2 + {ds}", lambda x: x ** 4 - c * x ** 2 + d,
              lambda x: 4 * x ** 3 - 2 * c * x)


def t_rational(rng):
    cs, c = _c(rng, 196, 204)
    return Fn(f"1/(1 + {cs}*x^2)", lambda x: 1 / (1 + c * x ** 2),
              lambda x: -2 * c * x / (1 + c * x ** 2) ** 2)


def t_sqrtlog(rng):
    cs, c = _c(rng, 143, 147)
    ds, d = _c(rng, 193, 197)
    return Fn(f"sqrt(x + {cs})*log(x + {ds})",
              lambda x: mp.sqrt(x + c) * mp.log(x + d),
              lambda x: mp.log(x + d) / (2 * mp.sqrt(x + c)) + mp.sqrt(x + c) / (x + d))


def t_expsin(rng):
    cs, c = _c(rng, 44, 46)
    ks, k = _c(rng, 243, 247)
    return Fn(f"exp(-{cs}*x)*sin({ks}*x)",
              lambda x: mp.exp(-c * x) * mp.sin(k * x),
              lambda x: mp.exp(-c * x) * (k * mp.cos(k * x) - c * mp.sin(k * x)))


def t_sinexp_c(rng):
    cs, c = _c(rng, 61, 63)
    return Fn(f"sin(x)*exp({cs}*x)",
              lambda x: mp.sin(x) * mp.exp(c * x),
              lambda x: mp.exp(c * x) * (mp.cos(x) + c * mp.sin(x)))


def t_ratodd(rng):
    cs, c = _c(rng, 196, 204)
    return Fn(f"x/(1 + {cs}*x^2)", lambda x: x / (1 + c * x ** 2),
              lambda x: (1 - c * x ** 2) / (1 + c * x ** 2) ** 2)


def t_logquad(rng):
    cs, c = _c(rng, 196, 204)
    return Fn(f"log(1 + {cs}*x^2)", lambda x: mp.log(1 + c * x ** 2),
              lambda x: 2 * c * x / (1 + c * x ** 2))


def t_sqrtx(rng):
    cs, c = _c(rng, 98, 102)
    return Fn(f"sqrt(x + {cs})*x", lambda x: mp.sqrt(x + c) * x,
              lambda x: mp.sqrt(x + c) + x / (2 * mp.sqrt(x + c)))


def t_gauss(rng):
    cs, c = _c(rng, 98, 102)
    return Fn(f"exp(-{cs}*x^2)", lambda x: mp.exp(-c * x ** 2),
              lambda x: -2 * c * x * mp.exp(-c * x ** 2))


def t_xcos(rng):
    cs, c = _c(rng, 98, 102)
    return Fn(f"x*cos({cs}*x)", lambda x: x * mp.cos(c * x),
              lambda x: mp.cos(c * x) - c * x * mp.sin(c * x))


def fixed(src, f, df):
    return lambda rng: Fn(src, f, df)


BASE_CUBIC = fixed("x^3 - x", lambda x: x ** 3 - x, lambda x: 3 * x ** 2 - 1)
BASE_SIN = fixed("sin(x)", mp.sin, mp.cos)
BASE_SINEXP = fixed("sin(x)*exp(x)", lambda x: mp.sin(x) * mp.exp(x),
                    lambda x: mp.exp(x) * (mp.sin(x) + mp.cos(x)))


# =============================================================================
# value-sweep: bvt / evt / ivt / uct / dit over the natural extension
# =============================================================================

def _geom(lo: float, hi: float, n: int) -> list[int]:
    """n integers growing geometrically from lo to hi."""
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


def _cycle(templates, n: int) -> list:
    return [templates[i % len(templates)] for i in range(n)]


# domain of each template, in sixteenths
DOMAINS = {t_quartic: (-32, 32), t_rational: (-32, 32), t_sqrtlog: (0, 64),
           t_expsin: (0, 48), t_sinexp_c: (0, 48), t_cubic: (-16, 24),
           BASE_CUBIC: (-16, 24), BASE_SIN: (0, 50), BASE_SINEXP: (0, 64)}

# (theorem, template, domain in sixteenths, target size).  dit targets are
# multiples of the analytic piece bound (int sqrt|f'|)^2 / eps, uct targets
# of the total variation over eps, evt targets of the range over eps; each
# theorem's targets grow geometrically so latencies spread evenly.
VALUE_LADDER = tuple(
    [("bvt", t, DOMAINS[t], None)
     for t in (t_quartic, t_rational, t_sqrtlog, t_expsin, t_sinexp_c)]
    + [("ivt", kind, dom, None)
       for kind, dom in (("cube_root", (0, 32)), ("sin_level", (0, 24)),
                         ("exp_level", (0, 32)), ("xexp_level", (0, 24)),
                         ("sin_level", (0, 20)))]
    + [("evt", t, DOMAINS[t], n) for t, n in zip(
        _cycle((t_quartic, t_rational, t_expsin, BASE_SINEXP, t_sinexp_c, t_sqrtlog), 8),
        _geom(40, 500, 8))]
    + [("uct", t, DOMAINS[t], n) for t, n in zip(
        _cycle((t_rational, t_sqrtlog, t_expsin, BASE_SINEXP, t_quartic, t_cubic), 8),
        _geom(15, 150, 8))]
    + [("dit", t, DOMAINS[t], n) for t, n in zip(
        _cycle((t_quartic, t_rational, BASE_SIN, t_sqrtlog, t_expsin, t_cubic,
                t_sinexp_c, BASE_CUBIC), 14),
        _geom(8, 200, 14))]
)


def _jitter_domain(rng, lo16: int, hi16: int) -> tuple[str, str]:
    a = lo16 + rng.randint(0, 1)
    b = hi16 - rng.randint(0, 1)
    return _dyadic(a), _dyadic(b)


def _ivt_problem(rng, kind: str, lo16: int, hi16: int) -> tuple[Fn, str, str]:
    a, b = _dyadic(lo16), _dyadic(hi16)
    if kind == "cube_root":
        cs, c = _c(rng, 320, 330)
        fn = Fn(f"x^3 - {cs}", lambda x: x ** 3 - c, None)
    elif kind == "sin_level":
        cs, c = _c(rng, 49, 51)
        fn = Fn(f"sin(x) - {cs}", lambda x: mp.sin(x) - c, None)
    elif kind == "exp_level":
        cs, c = _c(rng, 320, 330)
        fn = Fn(f"exp(x) - {cs}", lambda x: mp.exp(x) - c, None)
    else:
        cs, c = _c(rng, 158, 162)
        fn = Fn(f"x*exp(x) - {cs}", lambda x: x * mp.exp(x) - c, None)
    return fn, a, b


def _value_job(rng, theorem, template, dom, target) -> dict:
    job = {"command": "prove", "theorem": theorem, "expect": "valid", "ref": {}}
    if theorem == "ivt":
        fn, a, b = _ivt_problem(rng, template, *dom)
        root = mp.findroot(fn.f, (_mpdec(a), _mpdec(b)), solver="anderson")
        job["ref"]["root"] = _ref(root)
        extra = ["--tol", "0.0000000001"]
    else:
        fn = template(rng)
        a, b = _jitter_domain(rng, *dom)
        am, bm = _mpdec(a), _mpdec(b)
        extra = []
        if theorem in ("bvt", "evt"):
            gmax = _grid_max(fn.f, am, bm)
            job["ref"]["grid_max"] = _ref(gmax)
        if theorem == "evt":
            vals_min = -_grid_max(lambda x: -fn.f(x), am, bm)
            scale = (gmax - vals_min) / target
        elif theorem == "uct":
            pts = _variation_points(fn.df, am, bm)
            scale = sum(abs(fn.f(v) - fn.f(u)) for u, v in zip(pts, pts[1:])) / target
        elif theorem == "dit":
            pts = _variation_points(fn.df, am, bm)
            root_var = mp.quad(lambda x: mp.sqrt(abs(fn.df(x))), pts) ** 2
            scale = root_var / target
            job["ref"]["integral"] = _ref(mp.quad(fn.f, pts))
        if theorem in ("evt", "uct", "dit"):
            eps = _round_sig(scale * (1 + mp.mpf(rng.randint(-1, 1)) / 100), 3, up=False)
            extra = ["--eps", eps]
            if theorem == "dit":
                job["ref"]["piece_bound"] = int(mp.ceil(root_var / _mpdec(eps)))
    job["argv"] = ["prove", theorem, "--fn", fn.src, "--a", a, "--b", b, *extra]
    return job


def value_sweep(rng: random.Random) -> list[dict]:
    return [_value_job(rng, *row) for row in VALUE_LADDER]


# =============================================================================
# deriv-sweep: sift / ift / mvi / cft with tight parameters
# =============================================================================

# (theorem, template, domain in sixteenths, relative margin, true statement?)
# A true statement's M or eta sits the margin above the true extreme of f'
# (a monotone template's minimum f' is the margin times its scale); a false
# one sits the margin below it.  Interior extremes cost the most pieces.
DERIV_LADDER = (
    ("mvi", t_sinexp_c, (0, 48), "0.003", True),
    ("mvi", t_sinexp_c, (0, 48), "0.005", True),
    ("mvi", t_sinexp_c, (0, 48), "0.01", True),
    ("mvi", t_logquad, (-32, 32), "0.005", True),
    ("mvi", t_logquad, (-32, 32), "0.01", True),
    ("mvi", t_gauss, (-32, 32), "0.005", True),
    ("mvi", t_gauss, (-32, 32), "0.01", True),
    ("cft", t_sinexp_c, (0, 32), "0.005", True),
    ("cft", t_sinexp_c, (0, 32), "0.01", True),
    ("cft", t_logquad, (-32, 32), "0.01", True),
    ("cft", t_gauss, (-32, 32), "0.005", True),
    ("sift", "cubic_valley", (0, 40), "0.01", True),
    ("ift", "cubic_valley", (0, 40), "0.01", True),
    ("mvi", t_ratodd, (-32, 32), "0.0001", True),
    ("mvi", t_ratodd, (-24, 32), "0.001", True),
    ("mvi", t_cubic, (-16, 24), "0.0002", True),
    ("mvi", t_xcos, (0, 48), "0.0005", True),
    ("mvi", t_sqrtx, (0, 48), "0.0001", True),
    ("cft", t_ratodd, (-32, 32), "0.0002", True),
    ("cft", t_cubic, (-16, 24), "0.0005", True),
    ("cft", t_xcos, (0, 48), "0.001", True),
    ("sift", "x_minus_csin", (-32, 32), "0.001", True),
    ("sift", "x_minus_csin", (0, 48), "0.0005", True),
    ("sift", "cubic_plus", (-16, 16), "0.002", True),
    ("sift", t_sqrtx, (0, 48), None, True),
    ("ift", "cube", (-16, 16), None, True),
    ("ift", "cubic_plus", (-16, 24), "0.0005", True),
    ("ift", t_sqrtx, (0, 32), None, True),
    ("mvi", t_ratodd, (-32, 32), "0.001", False),
    ("mvi", t_xcos, (0, 48), "0.005", False),
    ("mvi", t_gauss, (-32, 32), "0.1", False),
    ("cft", t_cubic, (-16, 24), "0.01", False),
    ("cft", t_ratodd, (-32, 32), "0.002", False),
    ("cft", t_ratodd, (-24, 32), "0.005", False),
    ("sift", "sin", (0, 64), None, False),
    ("sift", "cubic_minus", (-16, 16), "0.002", False),
    ("sift", "cubic_minus", (-24, 16), "0.01", False),
    ("ift", "cubic_minus", (-16, 16), "0.005", False),
)


def _monotone_fn(rng, kind: str, m: mp.mpf | None) -> Fn:
    if kind == "cubic_valley":  # f' = 3 (x - 1)^2 + 3 m, tight where f'' = 0
        cs = _round_sig(3 + 3 * m, 8, up=True)
        c = _mpdec(cs)
        return Fn(f"x^3 - 3*x^2 + {cs}*x", lambda x: x ** 3 - 3 * x ** 2 + c * x,
                  lambda x: 3 * x ** 2 - 6 * x + c)
    if kind == "x_minus_csin":
        cs = _round_sig(1 - m, 8, up=False)
        c = _mpdec(cs)
        return Fn(f"x - {cs}*sin(x)", lambda x: x - c * mp.sin(x), lambda x: 1 - c * mp.cos(x))
    if kind == "cubic_plus":
        cs = _round_sig(m * 3, 3, up=True)
        c = _mpdec(cs)
        return Fn(f"x^3 + {cs}*x", lambda x: x ** 3 + c * x, lambda x: 3 * x ** 2 + c)
    if kind == "cubic_minus":
        cs = _round_sig(m * 3, 3, up=True)
        c = _mpdec(cs)
        return Fn(f"x^3 - {cs}*x", lambda x: x ** 3 - c * x, lambda x: 3 * x ** 2 - c)
    if kind == "cube":
        return Fn("x^3", lambda x: x ** 3, lambda x: 3 * x ** 2)
    return Fn("sin(x)", mp.sin, mp.cos)


def _deriv_job(rng, theorem, template, dom, margin, true) -> dict:
    m = None if margin is None else _mpdec(margin)
    if isinstance(template, str):
        fn = _monotone_fn(rng, template, m)
    else:
        fn = template(rng)
    a, b = _jitter_domain(rng, *dom)
    am, bm = _mpdec(a), _mpdec(b)
    job = {"command": "prove", "theorem": theorem,
           "expect": "valid" if true else "refuted", "ref": {}}
    extra = []
    if theorem in ("mvi", "cft"):
        if theorem == "mvi":
            peak = _true_max(fn.df, am, bm)
        else:
            peak = _true_max(lambda x: abs(fn.df(x)), am, bm)
        factor = 1 + m if true else 1 - m
        param = _round_sig(peak * factor, 8, up=true)
        job["ref"]["deriv_peak"] = _ref(peak)
        extra = ["--M" if theorem == "mvi" else "--eta", param]
    else:
        low = -_true_max(lambda x: -fn.df(x), am, bm)
        job["ref"]["deriv_min"] = _ref(low)
        if (low > 0 if theorem == "sift" else low >= 0) != true:
            raise AssertionError(f"{theorem} {fn.src} on [{a}, {b}]: min f' = {low}")
    job["argv"] = ["prove", theorem, "--fn", fn.src, "--a", a, "--b", b, *extra]
    return job


def deriv_sweep(rng: random.Random) -> list[dict]:
    return [_deriv_job(rng, *row) for row in DERIV_LADDER]


# =============================================================================
# cover-chain: cover on shuffled open intervals, clopen on known unions
# =============================================================================

# intervals per cover file whose subcover chain is about 30 long
COVER_SIZES = tuple(range(600, 1000, 50))
# (intervals, chain length) of cover files built around a long chain, where
# extract_subcover's O(N x chain) scan and the checker's O(chain^2)
# coverage test dominate
CHAIN_LADDER = ((200, 100), (300, 150), (400, 200), (500, 250), (600, 300), (700, 350))
# (verdict, input lines, components)
CLOPEN_LADDER = (
    ("covers_all", 900, 1),
    ("covers_all", 1500, 1),
    ("covers_all", 2100, 1),
    ("not_contains_a", 900, 25),
    ("not_contains_a", 1500, 35),
    ("not_contains_a", 2100, 50),
    ("not_rel_open", 600, 30),
    ("not_rel_open", 750, 40),
    ("not_rel_open", 900, 50),
    ("not_rel_open", 1050, 55),
    ("not_rel_open", 1200, 65),
    ("not_rel_closed", 600, 30),
    ("not_rel_closed", 750, 40),
    ("not_rel_closed", 900, 50),
    ("not_rel_closed", 1050, 55),
)


def greedy_subcover_size(intervals, a: Fraction, b: Fraction) -> int | None:
    """Fewest open intervals covering [a, b] (sort by left end, sweep)."""
    items = sorted(intervals)
    c, used, i, best = a, 0, 0, None
    while True:
        while i < len(items) and items[i][0] < c:
            if items[i][1] > c and (best is None or items[i][1] > best):
                best = items[i][1]
            i += 1
        if best is None:
            return None
        used += 1
        if best > b:
            return used
        c, best = best, None


def _cover_job(rng, n: int, idx: int, files: dict) -> dict:
    # integer endpoints over den, so [a, b] = [0, den] until written out
    den = 64 * n
    width = (4 * den) // 100     # chain of roughly 30 chosen elements
    ivs = set()
    while len(ivs) < n:
        lo = rng.randint(-width // 2, den)
        ivs.add((lo, lo + rng.randint(width // 4, width)))
    ivs = sorted(ivs)
    need = greedy_subcover_size(ivs, 0, den)
    if need is None:  # patch any gap with a coarse chain, then recount
        step = width // 2
        ivs += [(k * step - step, k * step + step) for k in range(den // step + 2)]
        need = greedy_subcover_size(ivs, 0, den)
    return _cover_file(rng, ivs, den, need, f"cover-{idx:02d}.txt", files)


def _chain_job(rng, n: int, links: int, idx: int, files: dict) -> dict:
    """links open intervals, each overlapping only its neighbours, that
    chain across [0, 1]; the other n - links lie strictly inside one of
    them, so the greedy subcover must take every link."""
    den = 1000 * links
    xs = [0, *sorted(rng.sample(range(1, den), links - 1)), den]
    reach = max(min(v - u for u, v in zip(xs, xs[1:])) // 3, 1)
    ivs = [(xs[k] - rng.randint(1, reach), xs[k + 1] + rng.randint(1, reach))
           for k in range(links)]
    while len(ivs) < n:
        lo, hi = ivs[rng.randrange(links)]
        ivs.append(tuple(sorted(rng.sample(range(lo + 1, hi), 2))))
    need = greedy_subcover_size(ivs, 0, den)
    return _cover_file(rng, ivs, den, need, f"chain-{idx:02d}.txt", files)


def _cover_file(rng, ivs, den: int, need: int, name: str, files: dict) -> dict:
    rng.shuffle(ivs)
    files[name] = "".join(f"({Fraction(lo, den)}, {Fraction(hi, den)})\n" for lo, hi in ivs)
    return {"command": "cover", "expect": "valid", "ref": {"subcover_size": need},
            "argv": ["cover", "--file", "{corpus}/" + name, "--a", "0", "--b", "1"]}


def _clopen_components(rng, verdict: str, k: int, den: int):
    """k disjoint rational intervals in [0, 1] with openness fixed by the
    verdict, and the exact witness point the analysis must report."""
    cuts = sorted(rng.sample(range(1, den), 2 * k))
    if verdict == "covers_all":
        return [(Fraction(0), Fraction(1), False, False)], None
    comps = []
    for i in range(k):
        lo, hi = Fraction(cuts[2 * i], den), Fraction(cuts[2 * i + 1], den)
        comps.append([lo, hi, True, True])
    if verdict == "not_contains_a":
        return [tuple(c) for c in comps], None
    comps[0][0], comps[0][2] = Fraction(0), False          # [0, ...
    if verdict == "not_rel_closed":
        return [tuple(c) for c in comps], comps[0][1]       # open right end
    # not_rel_open: close one endpoint past the first component
    j = rng.randrange(1, k)
    side = rng.randrange(2)
    comps[j][2 + side] = False
    witness = comps[j][side]
    return [tuple(c) for c in comps], witness


def _split(lo, hi, lo_open, hi_open, parts: int, rng, den: int):
    """Overlapping pieces whose union is exactly the given interval."""
    if parts == 1 or hi - lo < Fraction(4 * parts, den * 64):
        return [(lo, hi, lo_open, hi_open)]
    inner = sorted({lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)
                    for _ in range(parts - 1)})
    edges = [lo, *inner, hi]
    pieces = []
    for i in range(len(edges) - 1):
        p_lo = edges[i]
        p_hi = edges[i + 1]
        if i + 1 < len(edges) - 1:  # overlap into the next piece
            p_hi = min(hi, p_hi + (hi - lo) / 5000)
        pieces.append((p_lo, p_hi, lo_open if i == 0 else False,
                       hi_open if i == len(edges) - 2 else False))
    return pieces


def _fmt(piece) -> str:
    lo, hi, lo_open, hi_open = piece
    return f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}\n"


def _clopen_job(rng, verdict: str, n: int, k: int, idx: int, files: dict) -> dict:
    den = 1000 * max(k, 1)
    comps, witness = _clopen_components(rng, verdict, k, den)
    per = max(1, n // len(comps))
    lines = []
    for c in comps:
        lines.extend(_split(*c, per, rng, den))
    rng.shuffle(lines)
    name = f"clopen-{idx:02d}.txt"
    files[name] = "".join(_fmt(p) for p in lines)
    return {"command": "clopen", "expect": "valid",
            "ref": {"verdict": verdict,
                    "witness": None if witness is None else f"{witness.numerator}/{witness.denominator}"},
            "argv": ["clopen", "--file", "{corpus}/" + name, "--a", "0", "--b", "1"]}


def cover_chain(rng: random.Random, files: dict) -> list[dict]:
    jobs = [_cover_job(rng, n, i, files) for i, n in enumerate(COVER_SIZES)]
    jobs += [_chain_job(rng, n, k, i, files) for i, (n, k) in enumerate(CHAIN_LADDER)]
    jobs += [_clopen_job(rng, v, n, k, i, files) for i, (v, n, k) in enumerate(CLOPEN_LADDER)]
    return jobs


# =============================================================================
# Manifest
# =============================================================================

def build(workload: str, seed: int) -> tuple[dict, dict]:
    """(manifest, input files by name) for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    if workload == "value-sweep":
        jobs = value_sweep(rng)
    elif workload == "deriv-sweep":
        jobs = deriv_sweep(rng)
    else:
        jobs = cover_chain(rng, files)
    for i, job in enumerate(jobs):
        job["id"] = f"{i:02d}"
    rng.shuffle(jobs)
    return {"workload": workload, "seed": seed, "jobs": jobs}, files


def write(workload: str, seed: int, out: Path) -> str:
    """Write the corpus under out and return its hash."""
    manifest, files = build(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    text = json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    (out / "manifest.json").write_text(text)
    digest.update(text.encode())
    for name in sorted(files):
        (out / name).write_text(files[name])
        digest.update(name.encode() + b"\0" + files[name].encode())
    return digest.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    print(write(args.workload, args.seed, args.out))


if __name__ == "__main__":
    main()
