"""Tests of the benchmark itself: corpus determinism, metric names against
BENCHMARK.json, self-time arithmetic, and that a wrong output counts."""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny_manifest() -> dict:
    jobs = [
        {"id": "00", "command": "prove", "theorem": "bvt", "expect": "valid",
         "ref": {"grid_max": "2"},
         "argv": ["prove", "bvt", "--fn", "x^2 + 1", "--a", "0", "--b", "1"]},
        {"id": "01", "command": "prove", "theorem": "dit", "expect": "valid",
         "ref": {"integral": "0.5", "piece_bound": 2},
         "argv": ["prove", "dit", "--fn", "x", "--a", "0", "--b", "1", "--eps", "0.1"]},
        {"id": "02", "command": "prove", "theorem": "sift", "expect": "refuted", "ref": {},
         "argv": ["prove", "sift", "--fn", "sin(x)", "--a", "0", "--b", "4"]},
    ]
    return {"workload": "value-sweep", "seed": 0, "jobs": jobs}


def test_corpus_is_deterministic_with_exact_domains(tmp_path):
    for workload in corpus.WORKLOADS:
        first = corpus.write(workload, 5, tmp_path / f"{workload}-a")
        again = corpus.write(workload, 5, tmp_path / f"{workload}-b")
        assert first == again
        for f in (tmp_path / f"{workload}-a").iterdir():
            assert f.read_bytes() == (tmp_path / f"{workload}-b" / f.name).read_bytes()
        manifest = json.loads((tmp_path / f"{workload}-a" / "manifest.json").read_text())
        for job in manifest["jobs"]:
            if job["command"] == "prove":   # the CLI rejects inexact endpoints
                argv = job["argv"]
                for flag in ("--a", "--b"):
                    text = argv[argv.index(flag) + 1]
                    assert Fraction(float(text)) == Fraction(text)
    assert corpus.write("cover-chain", 6, tmp_path / "cover-chain-c") != first


def test_greedy_subcover_matches_brute_force():
    rng = random.Random(1)
    for _ in range(80):
        ivs = []
        for _ in range(rng.randint(1, 7)):
            lo = Fraction(rng.randint(-4, 20), 16)
            ivs.append((lo, lo + Fraction(rng.randint(1, 12), 16)))
        a, b = Fraction(0), Fraction(1)
        best = None
        for mask in range(1, 1 << len(ivs)):
            chosen = [iv for i, iv in enumerate(ivs) if mask >> i & 1]
            points = {a, b} | {p for iv in chosen for p in iv if a <= p <= b}
            covered = all(any(lo < x < hi for lo, hi in chosen)
                          for x in points | {(u + v) / 2 for u in points for v in points})
            if covered and (best is None or len(chosen) < best):
                best = len(chosen)
        assert corpus.greedy_subcover_size(ivs, a, b) == best


def test_chain_cover_takes_every_link():
    for links in (2, 5, 40):
        files = {}
        job = corpus._chain_job(random.Random(links), 3 * links, links, 0, files)
        assert job["ref"]["subcover_size"] == links
        assert len(files["chain-00.txt"].splitlines()) == 3 * links


def test_self_times_on_a_synthetic_tree():
    # root [0, 100] with children A [10, 30] and B [20, 50] (overlapping),
    # A has a child [12, 15]; B's sibling overlap must not be counted twice
    tree = [
        [0, None, 1, "cli.run", 0, 100],
        [1, 0, 1, "cli.check", 10, 30],
        [2, 1, 1, "certificates.eval_iv", 12, 15],
        [3, 0, 1, "cli.dumps", 20, 50],
        [4, None, 2, "cli.run", 200, 210],
    ]
    assert spans.self_times(tree) == {0: 60, 1: 17, 2: 3, 3: 30, 4: 10}
    t = spans.Totals(tree, {1: "check", 2: "prove"})
    assert t.calls(["cli.run"]) == 2
    assert t.calls(["cli.run"], "prove") == 1
    assert t.self_seconds(["cli.run"]) == 70 / 1e9
    assert t.mean_us(["cli.run"]) == (100 + 10) / 2 / 1e3


def test_tracer_restores_and_counts(tmp_path):
    import suparg.sweep

    original = suparg.sweep.eval_iv
    runner = harness.Runner(_tiny_manifest(), tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        p = runner.run_pass()
    finally:
        runner.tracer = None
        tracer.uninstall()
    assert suparg.sweep.eval_iv is original
    m = run.layer_metrics(p, _tiny_manifest())
    assert m["expr.eval_iv_calls.prove"] > 0 and m["expr.eval_d1_calls.prove"] > 0
    assert m["expr.eval_iv_calls.check"] == p.pieces  # one fresh enclosure per piece
    assert m["sweep.evals_per_piece"] >= 1
    assert not runner.failures


def test_metric_names_match_benchmark_json(tmp_path):
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert list(run.WORKLOADS) == list(corpus.WORKLOADS)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    manifest = _tiny_manifest()
    runner = harness.Runner(manifest, tmp_path)
    e2e, _, problems = run.end_to_end("value-sweep", runner, manifest, 0, tmp_path)
    assert set(e2e) == {name for name, _ in run.END_TO_END}
    assert all(e2e[name] > 0 for name in e2e)
    layers, _, more = run.per_layer(0, runner, manifest, 0)
    assert set(layers) == {name for name, _ in run.PER_LAYER}
    assert problems == more == [] and not runner.failures


def test_tampered_certificate_counts_as_failed(tmp_path):
    runner = harness.Runner(_tiny_manifest(), tmp_path)
    p = harness.Pass()
    produced = runner.prove_phase(p)
    assert not runner.failures and len(produced) == 2
    job, path = produced[0]
    doc = json.loads(path.read_text())
    doc["certificate"]["piece_sup"][0] = float.hex(0.5)   # x^2 + 1 exceeds this
    path.write_text(json.dumps(doc))
    runner.check_phase(p, produced)
    assert len(runner.failures) == 1 and "job 00" in runner.failures[0]
    assert runner.attempted == 5    # fail_rate = 1/5


def test_reference_miss_flags_a_wrong_integral():
    job = {"command": "prove", "theorem": "dit", "ref": {"integral": "0.5"}}
    doc = {"theorem": "dit", "certificate": {"L": float.hex(0.51), "U": float.hex(0.6)}}
    assert "integral" in harness.reference_miss(job, doc)
    doc["certificate"]["L"] = float.hex(0.49)
    assert harness.reference_miss(job, doc) == ""


def test_tail_percentile_keeps_ten_samples_above():
    p, value = run.tail_percentile(list(range(1, 101)))
    assert p == 90 and abs(value - 90.5) < 0.01
    assert run.tail_percentile(list(range(1, 51)))[0] == 80
    assert run.tail_percentile(list(range(1, 21)))[0] == 50


def test_quantile_is_a_smooth_order_statistic():
    assert abs(run.quantile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5) - 3.0) < 1e-9
    assert run.quantile([7.0] * 9, 0.75) == pytest.approx(7.0)
    assert run.quantile([2.0], 0.9) == 2.0
    # moving one sample far away barely moves the median estimate
    xs = [float(i) for i in range(1, 40)]
    assert abs(run.quantile(xs[:-1] + [1e3], 0.5) - run.quantile(xs, 0.5)) < 0.01


def test_times_scale_to_reference_speed(tmp_path, monkeypatch):
    # a host at half the reference speed: the probe takes twice as long
    monkeypatch.setattr(harness, "probe_ns", lambda: 2 * harness.PROBE_NS)
    assert harness.at_reference_speed(lambda: 7)[::2] == (7, 0.5)
    runner = harness.Runner(_tiny_manifest(), tmp_path)
    p = runner.run_pass()
    assert not runner.failures and p.prove_ns and p.check_ns
    for wall, ref in ((p.prove_ns, p.prove_ref_ns), (p.check_ns, p.check_ref_ns)):
        assert ref == {job: ns / 2 for job, ns in wall.items()}


def test_typical_is_each_jobs_median_over_passes():
    passes = [harness.Pass(prove_ref_ns={"a": a, "b": b}) for a, b in ((5, 1), (1, 9), (3, 2))]
    assert run.typical(passes, "prove_ref_ns") == [3, 2]
