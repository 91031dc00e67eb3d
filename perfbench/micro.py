"""Microbenchmarks of suparg.numeric kernels on seeded operands.

Operands mix what the sweep and the checker feed the kernels: piece-like
intervals (relative widths 1e-1 .. 1e-7) of either sign, sign-straddling
intervals, and point intervals, so every sign case of a multiply shows.
Each kernel is timed in rounds of at least ROUND_S seconds; the reported
cost is the median round's nanoseconds per operation.
"""

from __future__ import annotations

import math
import random
import statistics
import time

from suparg.numeric import (
    FloatInterval,
    iv_cos,
    iv_exp,
    iv_log,
    iv_pow,
    iv_sin,
    iv_sqr,
    iv_sqrt,
    mul_up,
)

ROUND_S = 0.02
ROUNDS = 5
N_OPERANDS = 96


def _piece(rng: random.Random, lo: float, hi: float, kinds=("piece", "straddle", "point")):
    kind = rng.choice(kinds)
    if kind == "straddle" and lo < 0.0 < hi:
        return FloatInterval(rng.uniform(lo, 0.0), rng.uniform(0.0, hi))
    x = rng.uniform(lo, hi)
    if kind == "point":
        return FloatInterval(x, x)
    w = abs(x) * 10.0 ** -rng.uniform(1, 7) + 1e-12
    return FloatInterval(x, x + w) if x + w <= hi else FloatInterval(x - w, x)


def operands(seed: int) -> dict[str, list[tuple]]:
    """Argument tuples per kernel, all drawn from the seed."""
    rng = random.Random(f"numeric:{seed}")

    def ivs(lo, hi, n=N_OPERANDS, kinds=("piece", "straddle", "point")):
        return [_piece(rng, lo, hi, kinds) for _ in range(n)]

    def signed_piece():
        lo, hi = (0.05, 4.0) if rng.random() < 0.5 else (-4.0, -0.05)
        return _piece(rng, lo, hi, ("piece", "point"))

    x, y = ivs(-4.0, 4.0), ivs(-4.0, 4.0)
    pairs = list(zip(x, y))
    scalars = [rng.uniform(-8.0, 8.0) for _ in range(2 * N_OPERANDS)]
    return {
        "add": pairs,
        "mul": pairs,
        "div": [(a, signed_piece()) for a in x],
        "sqr": [(a,) for a in x],
        "pow5": [(a, 5) for a in x],
        "pow1000": [(a, 1000) for a in ivs(-1.5, 1.5, n=12)],
        "sin": [(a,) for a in ivs(-10.0, 10.0)],
        "cos": [(a,) for a in ivs(-10.0, 10.0)],
        "exp": [(a,) for a in ivs(-20.0, 20.0)],
        "log": [(a,) for a in ivs(1e-3, 1e3, kinds=("piece", "point"))],
        "sqrt": [(a,) for a in ivs(1e-6, 1e3, kinds=("piece", "point"))],
        "ctor": [(a.lo, a.hi) for a in x],
        "mul_up": list(zip(scalars[::2], scalars[1::2])),
    }


KERNELS = {
    "add": FloatInterval.__add__,
    "mul": FloatInterval.__mul__,
    "div": FloatInterval.__truediv__,
    "sqr": iv_sqr,
    "pow5": iv_pow,
    "pow1000": iv_pow,
    "sin": iv_sin,
    "cos": iv_cos,
    "exp": iv_exp,
    "log": iv_log,
    "sqrt": iv_sqrt,
    "ctor": FloatInterval,
    "mul_up": mul_up,
}


def _round(fn, args, reps: int) -> int:
    t0 = time.perf_counter_ns()
    for _ in range(reps):
        for a in args:
            fn(*a)
    return time.perf_counter_ns() - t0


def run(seed: int) -> dict[str, float]:
    """numeric.<kernel>_ns for every kernel."""
    out = {}
    for name, args in operands(seed).items():
        fn = KERNELS[name]
        once = max(_round(fn, args, 1), 1)
        reps = max(1, math.ceil(ROUND_S * 1e9 / once))
        per_op = [_round(fn, args, reps) / (reps * len(args)) for _ in range(ROUNDS)]
        out[f"numeric.{name}_ns"] = statistics.median(per_op)
    return out
