"""Closed-loop passes over a corpus through suparg.cli.run, with every output
checked.

One pass runs every certificate-producing job of the manifest (prove,
cover, clopen) and then `check` on each certificate that pass produced,
one invocation at a time in this process.  Each invocation is timed on
its own, between two runs of a fixed probe that scale its time to the
reference host speed; the bench's own work (capturing output, writing
certificate files, comparing against references) happens between
invocations and is not timed.  Imports only the standard library and
suparg.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import suparg.cli

REFUTED_KINDS = ("hypothesis_fail", "stalled")

# The probe's time outside slow spells on the 2-core x86-64 host the
# baseline was recorded on; times are reported at the host speed at which
# the probe takes this long.
PROBE_NS = 2_500_000


def _probe_work() -> int:
    """Fixed pure-Python work in the style of suparg's hot paths: outward-
    rounded interval products, Fraction sums, dict stores and small JSON
    dumps.  Uses no suparg code, so no change to the program moves it."""
    lo, hi = 1.0, 1.0
    q = Fraction(0)
    seen = {}
    out = []
    for i in range(1500):
        a, b = -0.5 + i * 1e-4, 0.75 + i * 1e-4
        ps = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = math.nextafter(min(ps), -math.inf), math.nextafter(max(ps), math.inf)
        if abs(hi) > 1e6 or abs(lo) < 1e-6:
            lo, hi = -1.0, 1.0
        seen[i & 255] = hi - lo
        if i % 8 == 0:
            q += Fraction(i + 1, 7 + (i & 15))
        if i % 64 == 0:
            out.append(json.dumps([lo.hex(), hi.hex(), q.numerator % 1000]))
    return len(out) + len(seen)


def probe_ns() -> int:
    """Wall time of one run of the probe work, with the collector off so
    that garbage left by the program is not collected inside it.

    Other tenants of the shared host slow everything in this process by
    1.5-1.9x for seconds to minutes at a time, in CPU time as much as in
    wall time.  The probe slows by the same factor, so an invocation's time
    divided by the probes taken just before and after it does not depend
    on the spell it ran in.
    """
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        _probe_work()
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


def at_reference_speed(fn):
    """(result of fn(), wall ns, factor that scales a time taken during the
    call to the reference host speed)."""
    before = probe_ns()
    t0 = time.perf_counter_ns()
    result = fn()
    dt = time.perf_counter_ns() - t0
    after = probe_ns()
    return result, dt, PROBE_NS * 2 / (before + after)


@dataclass
class Pass:
    """Timings and outputs of one pass."""

    prove_ns: dict[str, int] = field(default_factory=dict)        # job id -> wall ns
    check_ns: dict[str, int] = field(default_factory=dict)
    prove_ref_ns: dict[str, float] = field(default_factory=dict)  # job id -> ns at PROBE_NS
    check_ref_ns: dict[str, float] = field(default_factory=dict)
    pieces: int = 0
    cert_bytes: int = 0
    chain_len: int = 0
    sweep_pieces: dict[str, int] = field(default_factory=dict)   # job id -> pieces
    digests: dict[str, str] = field(default_factory=dict)         # job id -> sha256
    kinds: dict[int, str] = field(default_factory=dict)           # invocation -> prove/check
    jobs: dict[int, str] = field(default_factory=dict)            # invocation -> job id
    spans: list = field(default_factory=list)



def _hexq(text: str) -> Fraction:
    return Fraction(float.fromhex(text))


def reference_miss(job: dict, doc: dict) -> str:
    """Why a produced certificate contradicts the job's mpmath reference;
    empty when it agrees."""
    ref, body = job["ref"], doc.get("certificate", {})
    if job["command"] == "prove" and doc.get("theorem") != job["theorem"]:
        return f"certificate states {doc.get('theorem')!r}, not {job['theorem']!r}"
    if "integral" in ref and not _hexq(body["L"]) <= Fraction(ref["integral"]) <= _hexq(body["U"]):
        return "integral outside [L, U]"
    if "root" in ref:
        if body.get("type") != "root_bracket":
            return f"expected a root bracket, got {body.get('type')!r}"
        if not _hexq(body["l"]) <= Fraction(ref["root"]) <= _hexq(body["r"]):
            return "reference root outside [l, r]"
    if "grid_max" in ref:
        top = Fraction(ref["grid_max"])
        if job["theorem"] == "bvt" and _hexq(body["M"]) < top:
            return "bound below the dense-grid maximum"
        if job["theorem"] == "evt" and \
                _hexq(body["f_at_c_lo"]) + _hexq(doc["params"]["eps"]) < top:
            return "f(c) + eps below the dense-grid maximum"
    if "subcover_size" in ref and len(body.get("indices", ())) != ref["subcover_size"]:
        return (f"{len(body.get('indices', ()))} elements chosen, "
                f"greedy minimum is {ref['subcover_size']}")
    if "verdict" in ref:
        want = ref["witness"]
        got = body.get("witness")
        if body.get("verdict") != ref["verdict"]:
            return f"verdict {body.get('verdict')!r}, constructed {ref['verdict']!r}"
        if (got is None) != (want is None) or \
                (want is not None and Fraction(got) != Fraction(want)):
            return f"witness {got}, constructed {want}"
    return ""


def _says_valid(out: str) -> bool:
    try:
        return json.loads(out).get("valid") is True
    except (json.JSONDecodeError, AttributeError):
        return False


def expected_exit(job: dict) -> int:
    if job["expect"] == "refuted":
        return 1
    if job["command"] == "clopen":
        return 0 if job["ref"]["verdict"] == "covers_all" else 1
    return 0


class Runner:
    """Runs passes over one corpus and keeps a tally of every invocation."""

    def __init__(self, manifest: dict, work: Path):
        self.jobs = manifest["jobs"]
        self.work = work
        self.certs = work / "certs"
        self.certs.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None          # a spans.Tracer while a traced pass runs
        self._invocation = 0

    def argv(self, job: dict) -> list[str]:
        corpus = str(self.work / "corpus")
        return [a.replace("{corpus}", corpus) for a in job["argv"]] + ["--format", "json"]

    def invoke(self, argv: list[str], kind: str, job_id: str, p: Pass):
        """(exit code or None if it raised, wall ns, ns at reference speed,
        stdout) of one cli.run call."""
        self._invocation += 1
        self.attempted += 1
        p.kinds[self._invocation] = kind
        p.jobs[self._invocation] = job_id
        call = suparg.cli.run
        if self.tracer is not None:
            self.tracer.invocation = self._invocation
            call = self.tracer.wrap("cli.run", call)
        out, err = io.StringIO(), io.StringIO()

        def once():
            try:
                return call(argv)
            except Exception as exc:  # a crash is a wrong result, not a bench error
                err.write(f"{type(exc).__name__}: {exc}")
                return None

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc, dt, scale = at_reference_speed(once)
        if rc not in (0, 1):
            self.fail(job_id, f"exit {rc}: {err.getvalue().strip()[:200]}")
        return rc, dt, dt * scale, out.getvalue()

    def fail(self, job_id: str, reason: str) -> None:
        self.failures.append(f"job {job_id}: {reason}")

    def run_pass(self) -> Pass:
        p = Pass()
        self.check_phase(p, self.prove_phase(p))
        if self.tracer is not None:
            p.spans = self.tracer.take()
        return p

    def prove_phase(self, p: Pass) -> list[tuple[dict, Path]]:
        """Every producing job once; (job, certificate file) for each success."""
        produced = []
        for job in self.jobs:
            rc, dt, ref, out = self.invoke(self.argv(job), "prove", job["id"], p)
            p.prove_ns[job["id"]], p.prove_ref_ns[job["id"]] = dt, ref
            path = self.produced(job, rc, out, p)
            if path is not None:
                produced.append((job, path))
        return produced

    def check_phase(self, p: Pass, produced: list[tuple[dict, Path]]) -> None:
        for job, path in produced:
            argv = ["check", str(path), "--format", "json"]
            rc, dt, ref, out = self.invoke(argv, "check", job["id"], p)
            p.check_ns[job["id"]], p.check_ref_ns[job["id"]] = dt, ref
            if rc in (0, 1) and not _says_valid(out):
                self.fail(job["id"], f"check says {out.strip()[:200]}")

    def produced(self, job: dict, rc, out: str, p: Pass) -> Path | None:
        """Verify one producing invocation; return its certificate file."""
        if rc not in (0, 1):
            return None
        want = expected_exit(job)
        if rc != want:
            self.fail(job["id"], f"exit {rc}, expected {want}: {out.strip()[:200]}")
            return None
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            self.fail(job["id"], "stdout is not JSON")
            return None
        if job["expect"] == "refuted":
            if "schema" in doc or doc.get("failure") not in REFUTED_KINDS:
                self.fail(job["id"], f"false statement not refuted: {out.strip()[:200]}")
            return None
        try:
            miss = reference_miss(job, doc)
            pieces = doc["engine"]["pieces"]
        except (KeyError, TypeError, ValueError) as err:
            miss = f"certificate field missing or malformed: {err!r}"
        if miss:
            self.fail(job["id"], miss)
            return None
        data = out.encode()
        p.pieces += pieces
        p.cert_bytes += len(data)
        p.chain_len += len(doc["certificate"].get("chain", ()))
        if job["command"] == "prove" and pieces:
            p.sweep_pieces[job["id"]] = pieces
        p.digests[job["id"]] = hashlib.sha256(data).hexdigest()
        path = self.certs / f"{job['id']}.json"
        path.write_bytes(data)
        return path
