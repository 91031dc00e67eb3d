"""suparg benchmark: time to certificate and time to check.

    python3 perfbench/run.py --workload value-sweep --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout (the program is imported from
./src).  The corpus for the workload is generated from the seed in a child
process (mpmath references, not timed), set-up is sampled in fresh
interpreters, and the passes then run in this process, which imports only
suparg and the standard library.  With --trace 0 the end-to-end metrics
are reported; with --trace 1 a traced run reports the per-layer metrics.
A table goes to stdout first; the last line is one JSON object.  Exits 1
when any output is wrong and 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

WORKLOADS = ("value-sweep", "deriv-sweep", "cover-chain")  # corpus.py's, without importing mpmath
PASSES = 12          # passes in a --trace 0 run, each followed by a cold start
TRACED_PASSES = 5    # untraced and traced passes each in a --trace 1 run

END_TO_END = (
    ("setup_s", "s"),
    ("prove_s", "s"),
    ("check_s", "s"),
    ("prove_ms_p50", "ms"),
    ("prove_ms_p90", "ms"),
    ("check_ms_p50", "ms"),
    ("check_ms_p90", "ms"),
    ("pieces", "count"),
    ("cert_bytes", "bytes"),
    ("peak_rss_mb", "MiB"),
)

NUMERIC = ("add", "mul", "div", "sqr", "pow5", "pow1000", "sin", "cos", "exp",
           "log", "sqrt", "ctor", "mul_up")

PER_LAYER = tuple((f"numeric.{k}_ns", "ns") for k in NUMERIC) + (
    ("expr.eval_iv_calls.prove", "count"),
    ("expr.eval_iv_calls.check", "count"),
    ("expr.eval_d1_calls.prove", "count"),
    ("expr.eval_d1_calls.check", "count"),
    ("expr.eval_iv_us", "us"),
    ("expr.eval_d1_us", "us"),
    ("expr.parse_calls", "count"),
    ("expr.parse_us", "us"),
    ("sweep.run_s", "s"),
    ("sweep.self_s", "s"),
    ("sweep.evals_per_piece", "ratio"),
    ("sweep.pieces_over_bound", "ratio"),
    ("theorems.self_s", "s"),
    ("theorems.root_evals", "count"),
    ("certificates.check_s", "s"),
    ("certificates.check_self_s", "s"),
    ("certificates.check_us_per_piece", "us"),
    ("certificates.dumps_s", "s"),
    ("certificates.load_s", "s"),
    ("certificates.bytes_per_piece", "bytes"),
    ("topology.subcover_s", "s"),
    ("topology.clopen_s", "s"),
    ("topology.parse_s", "s"),
    ("topology.uncovered_s", "s"),
    ("topology.chain_len", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead", "ratio"),
)

# per-layer counts that must repeat exactly between traced passes (pieces,
# bytes and chain length are compared across every pass by _consistency)
EXACT = ("expr.eval_iv_calls.prove", "expr.eval_iv_calls.check",
         "expr.eval_d1_calls.prove", "expr.eval_d1_calls.check", "expr.parse_calls",
         "theorems.root_evals", "sweep.evals_per_piece")

EVAL_IV = ("sweep.eval_iv", "theorems.eval_iv", "certificates.eval_iv")
EVAL_D1 = ("sweep.eval_d1", "certificates.eval_d1")
PARSE = ("cli.parse", "certificates.parse")
PROVERS = tuple(f"cli.prove_{k}" for k in ("bound", "max", "root", "modulus", "integral",
                                           "monotone", "mvi", "flat"))


# =============================================================================
# Statistics
# =============================================================================

def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of all order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    mass of each rank's slice of [0, 1].  With a few dozen jobs of unequal
    size, the plain order statistic is one job's time and jumps when seed
    jitter reorders the jobs near it; this estimate moves smoothly.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64    # midpoint rule per rank slice
    weights = []
    for i in range(n):
        ts = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """(p, value) for the highest percentile p <= 90 that still has at least
    ten samples above it, falling back to p50."""
    n = len(samples)
    p = next((p for p in range(90, 50, -1) if n - math.ceil(p * n / 100) >= 10), 50)
    return p, quantile(samples, p / 100)


def typical(done, attr: str) -> list[float]:
    """Each job's median time (ns) over the passes.

    With attr a *_ref_ns field the times are at the reference host speed
    (harness.probe_ns says why), so a slow spell of the shared host that
    outlasts a whole run does not move them.
    """
    jobs = {j for p in done for j in getattr(p, attr)}
    return [statistics.median(getattr(p, attr)[j] for p in done if j in getattr(p, attr))
            for j in sorted(jobs)]


def latency(samples_ns: list[int]) -> dict:
    ms = [x / 1e6 for x in samples_ns] or [0.0]
    p, tail = tail_percentile(ms)
    return {"total_s": sum(ms) / 1e3, "p50": quantile(ms, 0.5), "tail": tail,
            "tail_p": p, "n": len(ms)}


# =============================================================================
# Set-up time
# =============================================================================

class ColdStart:
    """Set-up samples, each in a fresh interpreter running cold.py."""

    def __init__(self, workload: str, work: Path):
        (work / "tiny-cover.txt").write_text("(-1, 2)\n")
        (work / "tiny-clopen.txt").write_text("[0, 1]\n")
        self.cmd = [sys.executable, str(HERE / "cold.py"), str(SRC), str(work), workload]
        self.samples: list[float] = []      # seconds, wall
        self.ref: list[float] = []          # seconds, at the reference host speed
        self.sample()           # may compile bytecode; discarded
        self.samples.clear()
        self.ref.clear()

    def sample(self) -> None:
        from harness import at_reference_speed

        res, _, scale = at_reference_speed(lambda: subprocess.run(
            self.cmd, capture_output=True, text=True, cwd=ROOT, timeout=60))
        if res.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {res.stderr.strip()}")
        self.samples.append(float(res.stdout.strip().splitlines()[-1]))
        self.ref.append(self.samples[-1] * scale)


# =============================================================================
# Per-layer metrics from one traced pass
# =============================================================================

def layer_metrics(p, manifest: dict) -> dict[str, float]:
    from spans import Totals

    t = Totals(p.spans, p.kinds)
    in_sweep = _evals_in_sweep(p)
    pieces = max(p.pieces, 1)
    return {
        "expr.eval_iv_calls.prove": t.calls(EVAL_IV, "prove"),
        "expr.eval_iv_calls.check": t.calls(EVAL_IV, "check"),
        "expr.eval_d1_calls.prove": t.calls(EVAL_D1, "prove"),
        "expr.eval_d1_calls.check": t.calls(EVAL_D1, "check"),
        "expr.eval_iv_us": t.mean_us(EVAL_IV),
        "expr.eval_d1_us": t.mean_us(EVAL_D1),
        "expr.parse_calls": t.calls(PARSE),
        "expr.parse_us": t.mean_us(PARSE),
        "sweep.run_s": t.seconds(["theorems.run_sweep"]),
        "sweep.self_s": t.self_seconds(["theorems.run_sweep"]),
        "sweep.evals_per_piece": in_sweep / max(sum(p.sweep_pieces.values()), 1),
        "sweep.pieces_over_bound": _pieces_over_bound(p, manifest),
        "theorems.self_s": t.self_seconds(PROVERS),
        "theorems.root_evals": t.calls(["theorems.eval_iv"]),
        "certificates.check_s": t.seconds(["cli.check"]),
        "certificates.check_self_s": t.self_seconds(["cli.check"]),
        "certificates.check_us_per_piece": t.seconds(["cli.check"]) / pieces * 1e6,
        "certificates.dumps_s": t.seconds(["cli.dumps"]),
        "certificates.load_s": t.seconds(["cli.from_document"]),
        "certificates.bytes_per_piece": p.cert_bytes / pieces,
        "topology.subcover_s": t.seconds(["cli.extract_subcover"]),
        "topology.clopen_s": t.seconds(["cli.analyze_clopen", "topology.analyze_clopen"]),
        "topology.parse_s": t.seconds(["cli.parse_interval_file"]),
        "topology.uncovered_s": t.seconds(["topology.uncovered_point"]),
        "topology.chain_len": p.chain_len,
        "cli.self_s": t.self_seconds(["cli.run"]),
    }


def _evals_in_sweep(p) -> int:
    """Evaluations under run_sweep, counted only for jobs whose sweep
    produced pieces (the accepted pieces are the denominator)."""
    from spans import ID, INVOCATION, NAME, PARENT

    names = {s[ID]: s[NAME] for s in p.spans}
    parent = {s[ID]: s[PARENT] for s in p.spans}
    n = 0
    for s in p.spans:
        if s[NAME] not in ("sweep.eval_iv", "sweep.eval_d1"):
            continue
        if p.jobs.get(s[INVOCATION]) not in p.sweep_pieces:
            continue
        up = parent[s[ID]]
        while up is not None and names[up] != "theorems.run_sweep":
            up = parent[up]
        n += up is not None
    return n


def _pieces_over_bound(p, manifest: dict) -> float:
    bound = {j["id"]: j["ref"]["piece_bound"] for j in manifest["jobs"]
             if "piece_bound" in j["ref"]}
    got = sum(p.sweep_pieces.get(i, 0) for i in bound)
    return got / sum(bound.values()) if bound else 0.0


# =============================================================================
# The run
# =============================================================================

def generate(workload: str, seed: int, work: Path) -> tuple[dict, str]:
    res = subprocess.run([sys.executable, str(HERE / "corpus.py"), "--workload", workload,
                          "--seed", str(seed), "--out", str(work / "corpus")],
                         capture_output=True, text=True, cwd=ROOT, timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"corpus generation failed: {res.stderr.strip()}")
    manifest = json.loads((work / "corpus" / "manifest.json").read_text())
    return manifest, res.stdout.strip()


def paced(count: int, seconds: float):
    """Yield count times, the i-th no earlier than i * seconds / count after
    the first.

    Slow spells on a shared host last tens of seconds, so a fixed number of
    samples is spread over the whole run rather than bunched at its start;
    faster code waits longer between samples instead of taking more.
    """
    t0 = time.perf_counter()
    for i in range(count):
        wait = t0 + i * seconds / count - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        yield i


def end_to_end(workload: str, runner, manifest: dict, seconds: float, work: Path):
    cold = ColdStart(workload, work)
    done = []
    for _ in paced(PASSES, seconds):
        done.append(runner.run_pass())
        cold.sample()
    prove = latency(typical(done, "prove_ref_ns"))
    check = latency(typical(done, "check_ref_ns"))
    metrics = {
        "setup_s": statistics.median(cold.ref),
        "prove_s": prove["total_s"],
        "check_s": check["total_s"],
        "prove_ms_p50": prove["p50"],
        "prove_ms_p90": prove["tail"],
        "check_ms_p50": check["p50"],
        "check_ms_p90": check["tail"],
        "pieces": done[0].pieces,
        "cert_bytes": done[0].cert_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {"setup_s": statistics.median(cold.samples),
            "prove_s": sum(typical(done, "prove_ns")) / 1e9,
            "check_s": sum(typical(done, "check_ns")) / 1e9}
    notes = {
        "setup_s": f"median of {len(cold.ref)} cold starts",
        "prove_s": f"sum of per-job medians over {len(done)} passes",
        "check_s": f"sum of per-job medians over {len(done)} passes",
        "prove_ms_p50": f"over {prove['n']} per-job medians",
        "prove_ms_p90": f"p{prove['tail_p']} of {prove['n']} per-job medians",
        "check_ms_p50": f"over {check['n']} per-job medians",
        "check_ms_p90": f"p{check['tail_p']} of {check['n']} per-job medians",
    }
    for name, value in wall.items():
        notes[name] += f"; {value:.4g} s by the wall clock"
    return metrics, notes, _consistency(done)


def per_layer(seed: int, runner, manifest: dict, seconds: float):
    import micro
    from spans import Tracer

    t0 = time.perf_counter()
    metrics = micro.run(seed)
    plain, traced, per_pass = [], [], []
    tracer = Tracer()
    # untraced and traced passes alternate, so both see the same host load
    for _ in paced(TRACED_PASSES, max(seconds - (time.perf_counter() - t0), 0.0)):
        plain.append(runner.run_pass())
        tracer.install()
        runner.tracer = tracer
        try:
            traced.append(runner.run_pass())
        finally:
            runner.tracer = None
            tracer.uninstall()
        per_pass.append(layer_metrics(traced[-1], manifest))
        if len(traced) > 1:     # keep only the last pass's spans in memory
            traced[-2].spans = []
    for name in per_pass[0]:  # counts repeat exactly; times take the least disturbed pass
        metrics[name] = min(m[name] for m in per_pass)
    metrics["trace.overhead"] = (sum(typical(traced, "prove_ref_ns"))
                                 / sum(typical(plain, "prove_ref_ns")) - 1)
    problems = _consistency(plain + traced)
    for name in EXACT:
        if len({m[name] for m in per_pass}) != 1:
            problems.append(f"{name} differs between traced passes")
    _write_spans(traced[-1], manifest["workload"])
    notes = {"trace.overhead": f"{len(traced)} traced vs {len(plain)} untraced passes"}
    return metrics, notes, problems


def _consistency(done) -> list[str]:
    """Exact outputs must repeat in every pass, traced or not."""
    first = done[0]
    problems = []
    for i, p in enumerate(done[1:], start=2):
        if (p.pieces, p.cert_bytes, p.chain_len) != (first.pieces, first.cert_bytes,
                                                      first.chain_len):
            problems.append(f"pass {i}: pieces/bytes/chain differ from pass 1")
        if p.digests != first.digests:
            problems.append(f"pass {i}: certificate bytes differ from pass 1")
    return problems


def _write_spans(p, workload: str) -> None:
    """The last traced pass's spans, one JSON array per line."""
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"spans-{workload}.jsonl", "w") as handle:
        for s in p.spans:
            handle.write(json.dumps(s) + "\n")


def report(metrics: dict, spec, notes: dict) -> None:
    for name, unit in spec:
        note = notes.get(name, "")
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit:6s} {note}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not (SRC / "suparg" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'suparg'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import Runner

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifest, digest = generate(args.workload, args.seed, work)
        print(f"workload {args.workload}  seed {args.seed}  corpus sha256 {digest}  "
              f"jobs {len(manifest['jobs'])}")
        runner = Runner(manifest, work)
        if args.trace:
            spec = PER_LAYER
            metrics, notes, problems = per_layer(args.seed, runner, manifest, args.seconds)
        else:
            spec = END_TO_END
            metrics, notes, problems = end_to_end(args.workload, runner, manifest,
                                                  args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(metrics, spec, notes)
    fail_rate = len(runner.failures) / runner.attempted
    print(f"  {'fail_rate':34s} {fail_rate:>16.6g} {'ratio':6s} "
          f"{len(runner.failures)} wrong of {runner.attempted} invocations")
    for line in runner.failures[:20] + problems:
        print(f"  WRONG {line}", file=sys.stderr)
    correct = not runner.failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
