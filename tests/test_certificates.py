"""Checker soundness: fresh-enclosure re-certification and mutation flips."""

import functools
import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from suparg import certificates
from suparg.certificates import (
    ABS,
    OSC,
    ROW_OF,
    ROWS,
    BoundCert,
    ClopenReport,
    ClopenVerdict,
    IntegralCert,
    LipschitzCert,
    MaxCert,
    ModulusCert,
    MviCert,
    Partition,
    StructureError,
    _darboux_sums,
    _overlap_gap,
    _shrink_modulus,
    check,
    conclusion_of,
    dumps,
    from_document,
    loads,
    piece_count,
    to_document,
)
from suparg.expr import eval_d1, eval_iv, parse
from suparg.numeric import FloatInterval, RatInterval, float_down, float_up, parse_rat_interval
from suparg.sweep import MAX_PIECES, LocalWitness, Problem, run_sweep
from suparg.theorems import (
    prove_bound,
    prove_flat,
    prove_integral,
    prove_max,
    prove_modulus,
    prove_monotone,
    prove_mvi,
    prove_root,
)
from suparg.topology import Cover, RatIntervalSet, analyze_clopen, extract_subcover

UP = lambda v: math.nextafter(v, math.inf)      # noqa: E731
DOWN = lambda v: math.nextafter(v, -math.inf)   # noqa: E731


def replace(cert, **kw):
    return cert._replace(**kw)


def overlap_modulus(f, a, b, eps, max_pieces=MAX_PIECES):
    """uct by the overlap route alone, as prove_modulus's signature takes it;
    prove_modulus takes this route for a differentiable f only where
    neither the whole domain nor the mean-value route certifies."""
    expr, src = (parse(f), f) if isinstance(f, str) else (f, None)
    return run_sweep(Problem(expr, a, b, "uct", eps=eps, fn_source=src, max_pieces=max_pieces))


def tuple_set(values, k, v):
    out = list(values)
    out[k] = v
    return tuple(out)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def test_partition_validation():
    with pytest.raises(StructureError):
        Partition(())
    with pytest.raises(StructureError):
        Partition((0.0, 1.0, 1.0))
    with pytest.raises(StructureError):
        Partition((0.0, 2.0, 1.0))
    assert len(Partition((0.0,))) == 0


def test_check_rejects_foreign_function_or_domain():
    cert = prove_bound("sin(x)", 0.0, 3.0)
    assert check(cert, parse("sin(x)"), 0.0, 3.0)
    assert not check(cert, parse("cos(x)"), 0.0, 3.0)
    assert not check(cert, parse("sin(x)"), 0.0, 2.5)


def test_check_partition_gap():
    cert = prove_bound("sin(x)", 0.0, 3.0)
    truncated = replace(cert,
                        partition=Partition(cert.partition.points[:-1]),
                        piece_sup=cert.piece_sup[:-1])
    result = check(truncated)
    assert not result and "does not end at b" in result.reason


def test_check_array_length_mismatch():
    cert = prove_bound("sin(x)", 0.0, 3.0)
    result = check(replace(cert, piece_sup=cert.piece_sup[:-1]))
    assert not result and "length" in result.reason


# ---------------------------------------------------------------------------
# mutation soundness, one variant at a time
# ---------------------------------------------------------------------------

def test_bound_mutations():
    cert = prove_bound("sin(x)", 0.0, 3.0)
    assert check(cert)
    worst = max(range(len(cert.piece_sup)), key=lambda k: cert.piece_sup[k])
    bad = check(replace(cert, bound=DOWN(cert.piece_sup[worst])))
    assert not bad and bad.reason == "M < piece bound"
    assert bad.piece == worst
    tightened = replace(cert, piece_sup=tuple_set(cert.piece_sup, worst,
                                                  DOWN(cert.piece_sup[worst])))
    assert not check(tightened)


def test_max_mutations():
    cert = prove_max("sin(x)", 0.0, 3.0, 1e-3)
    assert check(cert)
    assert not check(replace(cert, f_at_c_lo=UP(cert.f_at_c_lo)))
    slack = max(cert.piece_sup) - cert.f_at_c_lo  # eps below this must flip
    assert not check(replace(cert, eps=slack / 2))
    assert not check(replace(cert, c=4.0))


def test_neg_mutations():
    cert = prove_root("x - 3", 0.0, 1.0, 1e-9)  # never reaches zero -> NegCert
    assert type(cert).__name__ == "NegCert"
    assert check(cert)
    assert not check(replace(cert, piece_hi=tuple_set(cert.piece_hi, 0,
                                                      DOWN(cert.piece_hi[0]))))
    assert not check(replace(cert, piece_hi=tuple_set(cert.piece_hi, 0, 0.0)))


def test_root_bracket_mutations():
    cert = prove_root("x^2 - 2", 0.0, 2.0, 1e-9)
    assert check(cert)
    assert not check(replace(cert, f_l_hi=DOWN(cert.f_l_hi)))
    assert not check(replace(cert, f_r_lo=UP(cert.f_r_lo)))
    assert not check(replace(cert, l=cert.r, r=cert.l))
    assert not check(replace(cert, tol=(cert.r - cert.l) / 4))


def test_root_bracket_tampered_tol_is_invalid():
    cert = prove_root("x - 1", 0.0, 2.0, 1e-9)
    wide = replace(cert, l=0.0, r=2.0, f_l_hi=-1.0, f_r_lo=1.0)
    assert check(replace(wide, tol=4.0))
    for tol in (0.0, -1.0, math.nan):
        result = check(replace(wide, tol=tol))
        assert not result, tol


def test_modulus_mutations():
    cert = overlap_modulus("sin(x)", 0.0, 4.0, 0.1)
    assert check(cert)
    # delta pushed above an overlap
    overlaps = [Fraction(cert.pieces[k].hi) - Fraction(cert.pieces[k + 1].lo)
                for k in range(len(cert.pieces) - 1)]
    too_wide = float(min(overlaps)) * 1.5
    bad = check(replace(cert, delta=too_wide))
    assert not bad and "overlap" in bad.reason
    assert not check(replace(cert, piece_osc=tuple_set(cert.piece_osc, 0,
                                                       DOWN(cert.piece_osc[0]))))
    assert not check(replace(cert, eps=cert.piece_osc[0]))


def test_lipschitz_mutations():
    cert = prove_modulus("sin(x)", 0.0, 4.0, 0.1)
    assert isinstance(cert, LipschitzCert) and check(cert)
    # cos(0) = 1 is the largest |f'|, so L = 1 and delta = eps exactly
    assert (cert.bound, cert.delta) == (1.0, 0.1)
    bad = check(replace(cert, delta=UP(cert.delta)))
    assert not bad and bad.reason == "L * delta above eps"
    bad = check(replace(cert, eps=DOWN(cert.eps)))
    assert not bad and bad.reason == "L * delta above eps"
    worst = cert.piece_deriv_abs.index(cert.bound)
    bad = check(replace(cert, bound=DOWN(cert.bound)))
    assert not bad and bad.piece == worst and bad.reason == "piece derivative magnitude above L"
    bad = check(replace(cert, piece_deriv_abs=tuple_set(cert.piece_deriv_abs, worst,
                                                        DOWN(cert.bound))))
    assert not bad and bad.piece == worst
    assert not check(replace(cert, bound=-1.0))
    # f' = 0 on every piece: L = 0, and any delta holds
    flat = run_sweep(Problem(parse("3"), 0.0, 1.0, "lipschitz", eps=0.5))
    assert flat.bound == 0.0 and check(replace(flat, delta=1e300))


def test_integral_mutations():
    cert = prove_integral("x^2", 0.0, 1.0, 1e-2)
    assert check(cert)
    # the directed sums may keep some ulps of slack over the exact sums of
    # the pieces; the checker's boundary is the exact sums themselves
    points = [Fraction(v) for v in cert.partition.points]
    widths = [v - u for u, v in zip(points, points[1:])]
    lower = sum(Fraction(m) * w for m, w in zip(cert.piece_lo, widths))
    upper = sum(Fraction(m) * w for m, w in zip(cert.piece_hi, widths))
    assert check(replace(cert, lower_sum=float_down(lower)))
    assert not check(replace(cert, lower_sum=UP(float_down(lower))))
    assert check(replace(cert, upper_sum=float_up(upper)))
    assert not check(replace(cert, upper_sum=DOWN(float_up(upper))))
    assert not check(replace(cert, piece_lo=tuple_set(cert.piece_lo, 3,
                                                      UP(cert.piece_lo[3]))))
    assert not check(replace(cert, eps=cert.upper_sum - cert.lower_sum))


def test_monotone_mutations():
    cert = prove_monotone("exp(x)", 0.0, 1.0, True)
    assert check(cert)
    assert not check(replace(cert, piece_deriv_lo=tuple_set(
        cert.piece_deriv_lo, 0, UP(cert.piece_deriv_lo[0]))))
    weak = prove_monotone("x^3", 0.0, 1.0, False)  # derivative 3x^2 >= 0
    assert check(weak)
    assert not check(replace(weak, strict=True))  # first piece bound is 0


def test_mvi_mutations():
    cert = prove_mvi("x^2", 0.0, 1.0, 2.0)
    assert check(cert)
    worst = max(range(len(cert.piece_deriv_hi)), key=lambda k: cert.piece_deriv_hi[k])
    assert not check(replace(cert, bound=DOWN(cert.piece_deriv_hi[worst])))
    assert not check(replace(cert, piece_deriv_hi=tuple_set(
        cert.piece_deriv_hi, worst, DOWN(cert.piece_deriv_hi[worst]))))


def test_flat_mutations():
    cert = prove_flat("x*0.000000001", 0.0, 1.0, 1e-8)
    assert check(cert)
    assert not check(replace(cert, eta=DOWN(cert.piece_deriv_abs[0])))
    assert not check(replace(cert, osc_bound=DOWN(cert.osc_bound)))
    exact = prove_flat("3", 0.0, 1.0, 0.0)
    assert check(exact)
    assert exact.osc_bound == 0.0


# ---------------------------------------------------------------------------
# sampling soundness (small-scale; the acceptance suite runs the large one)
# ---------------------------------------------------------------------------

def test_sampled_points_respect_conclusions():
    rng = random.Random(401)
    bound = prove_bound("sin(x)*x + cos(x)", -2.0, 2.0)
    mono = prove_monotone("exp(x) + x", -1.0, 1.0, True)
    mod = prove_modulus("sin(x)", 0.0, 4.0, 0.1)
    assert isinstance(mod, LipschitzCert)
    for _ in range(2000):
        t = rng.uniform(-2.0, 2.0)
        assert math.sin(t) * t + math.cos(t) <= bound.bound
    samples = sorted(rng.uniform(-1.0, 1.0) for _ in range(500))
    values = [math.exp(t) + t for t in samples]
    assert all(u < v for u, v in zip(values, values[1:]))
    for _ in range(2000):
        s = rng.uniform(0.0, 4.0)
        t = min(max(s + rng.uniform(-mod.delta, mod.delta), 0.0), 4.0)
        if abs(s - t) < mod.delta:
            assert abs(math.sin(s) - math.sin(t)) < 0.1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _roundtrip(cert):
    text = dumps(cert)
    again = loads(text)
    assert again == cert
    assert dumps(again) == text
    return json.loads(text)


def test_json_roundtrip_bit_exact():
    certs = [
        prove_bound("sin(x)", 0.0, 3.0),
        prove_max("sin(x)", 0.0, 3.0, 1e-3),
        prove_root("x^2 - 2", 0.0, 2.0, 1e-9),
        prove_root("x - 3", 0.0, 1.0, 1e-9),
        prove_modulus("sin(x)", 0.0, 4.0, 0.1),
        prove_integral("x^2", 0.0, 1.0, 1e-2),
        prove_monotone("exp(x)", 0.0, 1.0, True),
        prove_mvi("x^2", 0.0, 1.0, 2.0),
        prove_flat("3", 0.0, 1.0, 0.0),
    ]
    for cert in certs:
        doc = _roundtrip(cert)
        assert doc["schema"] == "suparg-cert/1"
        assert set(doc) == {"schema", "theorem", "function", "domain", "params",
                            "certificate", "engine"}
        assert all("0x" in h for h in doc["domain"])


def test_json_roundtrip_topology():
    report = ClopenReport(Fraction(0), Fraction(1),
                          (RatInterval(Fraction(0), Fraction(1, 2), False, True),),
                          ClopenVerdict.NOT_REL_CLOSED, Fraction(1, 2))
    doc = _roundtrip(report)
    assert doc["function"] is None
    assert doc["domain"] == ["0/1", "1/1"]


def test_checked_after_roundtrip():
    cert = prove_integral("x^2", 0.0, 1.0, 1e-2)
    again = loads(dumps(cert))
    assert check(again)


# ---------------------------------------------------------------------------
# conclusions
# ---------------------------------------------------------------------------

def test_conclusion_projections():
    ic = prove_integral("x^2", 0.0, 1.0, 1e-2)
    c = conclusion_of(ic)
    assert c.theorem == "dit"
    assert repr(ic.lower_sum) in c.text

    rb = prove_root("x^2 - 2", 0.0, 2.0, 1e-9)
    c = conclusion_of(rb)
    assert "∃c∈" in c.text and "f(c) = 0" in c.text

    mono = prove_monotone("exp(x)", 0.0, 1.0, True)
    c = conclusion_of(mono)
    assert "f(x₁) < f(x₂)" in c.text

    flat = prove_flat("3", 0.0, 1.0, 0.0)
    assert "exact" in conclusion_of(flat).text


# ---------------------------------------------------------------------------
# hostile scalars: Invalid, never an exception
# ---------------------------------------------------------------------------

def _one_of_each_function_certificate():
    certs = [
        prove_bound("sin(x)", 0.0, 3.0),
        prove_max("sin(x)", 0.0, 3.0, 1e-2),
        prove_root("x - 3", 0.0, 1.0, 1e-9),          # NegCert
        prove_root("x^2 - 2", 0.0, 2.0, 1e-9),        # RootBracket
        prove_modulus("sin(x)", 0.0, 2.0, 0.3),       # LipschitzCert
        overlap_modulus("sin(x)", 0.0, 2.0, 0.3),     # ModulusCert
        prove_integral("x^2", 0.0, 1.0, 1e-2),
        prove_monotone("exp(x)", 0.0, 1.0, strict=True),
        prove_mvi("x^2", 0.0, 1.0, 2.5),
        prove_flat("sin(x)", 0.0, 1.0, 1.5),
    ]
    assert all(check(c) for c in certs)
    return certs


def _float_scalar_fields(cert):
    return [name for name, value in zip(cert._fields, cert) if isinstance(value, float)]


def test_nonfinite_scalars_are_invalid(tmp_path, capsys):
    from suparg.cli import run
    path = tmp_path / "cert.json"
    seen = set()
    for cert in _one_of_each_function_certificate():
        for name in _float_scalar_fields(cert):
            for bad in (math.nan, math.inf, -math.inf):
                tampered = replace(cert, **{name: bad})
                result = check(tampered)
                assert not result and result.reason == f"{name} is not finite", (cert, name, bad)
                path.write_text(dumps(tampered))
                assert run(["check", str(path)]) == 1, (type(cert).__name__, name, bad)
                assert "Invalid" in capsys.readouterr().out
        seen.add(type(cert).__name__)
    assert len(seen) == 10


def test_nonfinite_per_piece_value_is_invalid():
    cert = overlap_modulus("sin(x)", 0.0, 2.0, 0.3)
    result = check(replace(cert, piece_osc=tuple_set(cert.piece_osc, 0, math.nan)))
    assert not result and result.reason == "piece_osc is not finite"


# ---------------------------------------------------------------------------
# golden certificate bytes: a change to the certificates or the sweep must
# reproduce these digests, conclusion texts and tampered verdicts
# ---------------------------------------------------------------------------

GOLDEN_PROBLEMS = {
    "bvt": lambda: prove_bound("sin(x)", 0.0, 3.0),
    "evt": lambda: prove_max("sin(x)", 0.0, 3.0, 1e-2),
    "ivt-neg": lambda: prove_root("x - 3", 0.0, 1.0, 1e-9),
    "ivt-root": lambda: prove_root("x^2 - 2", 0.0, 2.0, 1e-9),
    "uct": lambda: prove_modulus("sin(x)", 0.0, 2.0, 0.3),  # the mean-value route
    "uct-overlap": lambda: overlap_modulus("abs(x - 1)", 0.0, 2.0, 0.3),
    "dit": lambda: prove_integral("x^2 - x", 0.0, 1.0, 1e-2),
    # the per-prefix budget of a sweep without a plan, which prove_integral
    # falls back to
    "dit-prefix": lambda: run_sweep(Problem(parse("x^2 - x"), 0.0, 1.0, "dit", eps=1e-2,
                                            fn_source="x^2 - x")),
    "sift": lambda: prove_monotone("exp(x)", 0.0, 1.0, True),
    "ift": lambda: prove_monotone("x^3", 0.0, 1.0, False),
    "mvi": lambda: prove_mvi("x^2", 0.0, 1.0, 2.5),
    "cft": lambda: prove_flat("sin(x)", 0.0, 1.0, 1.5),
    "cft-exact": lambda: prove_flat("3", 0.0, 1.0, 0.0),
    "bvt-point": lambda: prove_bound("x^2 - 3", 0.5, 0.5),
    "evt-point": lambda: prove_max("sin(x)", 0.5, 0.5, 1e-2),
    "ivt-point": lambda: prove_root("x - 1", 0.5, 0.5, 1e-9),
    "uct-point": lambda: prove_modulus("sin(x)", 0.5, 0.5, 0.3),
    "dit-point": lambda: prove_integral("x^2", 0.5, 0.5, 1e-2),
    "sift-point": lambda: prove_monotone("-x", 0.5, 0.5, True),
    "ift-point": lambda: prove_monotone("x^3", 0.5, 0.5, False),
    "mvi-point": lambda: prove_mvi("x^2", 0.5, 0.5, 2.5),
    "cft-point": lambda: prove_flat("sin(x)", 0.5, 0.5, 1.5),
}


def _tampered(cert, points=False):
    """(label, certificate) for each scalar and the middle value of each
    per-piece array moved by one ulp and by 1.0 each way; bools flipped;
    with points, the middle partition point moved by one ulp each way."""
    out = []
    for field, value in zip(cert._fields, cert):
        if field in ("a", "b"):
            continue
        if points and isinstance(value, Partition):
            k = len(value.points) // 2
            for label, to in (("+", math.inf), ("-", -math.inf)):
                moved = tuple_set(value.points, k, math.nextafter(value.points[k], to))
                out.append((f"{field}[{k}]{label}", replace(cert, **{field: Partition(moved)})))
            continue
        if isinstance(value, bool):
            out.append((f"{field}!", replace(cert, **{field: not value})))
            continue
        if isinstance(value, float):
            k, values, name = None, (value,), field
        elif isinstance(value, tuple) and value and isinstance(value[0], float):
            k, values, name = len(value) // 2, value, f"{field}[{len(value) // 2}]"
        else:
            continue
        at = 0 if k is None else k
        for label, moved in (("+", UP(values[at])), ("-", DOWN(values[at])),
                             ("+1", values[at] + 1.0), ("-1", values[at] - 1.0)):
            new = moved if k is None else tuple_set(values, k, moved)
            out.append((name + label, replace(cert, **{field: new})))
    return out


def _verdict(result):
    if result.valid:
        return "V"
    return "I" if result.piece is None else f"I{result.piece}"


GOLDEN_CERT_SHA256 = {
    "bvt": "56bb5b67519eb3348a6c8db11f2f5902cab4893f94a6a6cedef01abe9dbcd60c",
    "evt": "9ed3b1bd0fe5fc27a24c28c928e12e7a7b0e31500b90f472a947b53396ca28ad",
    "ivt-neg": "e4622a1f5f492ce7462d62428983285cd54b698077f12f547bb516aa3a85a213",
    "ivt-root": "155cd3af5187a2f7d49b185a33948a805a7a6d61beb27b7e8e2ec76b96191008",
    "uct": "10af9131a9626127b57782ad6763573b72d809f8533b477f24373be5108c8a65",
    "uct-overlap": "cb8e4dda529318385be850f0b3422fe6479bba743eb6064fed85aa3b18142de1",
    "dit": "2a32b824a131ebe0280f34f3fe096d03945bfd4a820981c5419dad4f2174815c",
    "dit-prefix": "350f88400159c3301d12554e219ef93e30a1da7884dc90bf6381cd4cbda8d961",
    "sift": "372cc2bc5dc2e483ca190b6f582e66d28a1b62d24ad3d912f02f990c8b747b56",
    "ift": "9f689a6aef5e2e62056744222ebc4d10fed38416d7a97b6271661fbdbcdba0bf",
    "mvi": "9f0f7df7b75d97a3790894f8936743e8d1336072748356bba0b523d1e4262537",
    "cft": "2537d0d33783b3a2b2a93148a93daaf388a1294e5f57c618d8d4b86b35cb4a70",
    "cft-exact": "57efd2dc024044bc20d70a29c4a71418032068f4b01c870cb41f6e7a456ac52f",
    "bvt-point": "e74660a1cbe6502ea32b20c10ca2eddf82d934479a08d59ed8e9da5f1f0d267d",
    "evt-point": "37b2c41263ecca9d5d41a533545537714367452b79ae849e71e2b28c490bb959",
    "ivt-point": "45cc51612fa05b7dc4c096964a47e2adae839c8f71386d62aed5b680cd11d9cc",
    "uct-point": "fb6ab02c420bcf28901e4bb1f8ff4235354587ef46d6469cb30cfb45bc2e5ccb",
    "dit-point": "f10549dd74930500ae0a80cffc171e219adc78b689f6ff4cfa72f853a99a9112",
    "sift-point": "daea208811c479869352ddc796b5dfc275c104c014a152728cb5e12ba2d964aa",
    "ift-point": "5a0b2a90ea4cf0e12ac0a5d03ebd0ab00006bc6916c43bf4496075008bb15a1b",
    "mvi-point": "39a64956c5be869929cbdcb34b8e9aad771d1a0959811852abe26e30c9334f8e",
    "cft-point": "c6fce6a771adba0ec6f41f70daf6cc12d39b204f22c95c51db0583a33bd4368e",
}

GOLDEN_CONCLUSIONS = {
    "bvt": "∀t∈[0.0, 3.0]: f(t) ≤ 1.0 for f = sin(x)",
    "evt": ("∃c = 1.5 ∈ [0.0, 3.0]: ∀t: f(t) ≤ f(c) + 0.01, "
           "f(c) ≥ 0.9974949866040542 for f = sin(x)"),
    "ivt-neg": "∀t∈[0.0, 1.0]: f(t) < 0 for f = x - 3",
    "ivt-root": "∃c∈[1.4142135623729233, 1.4142135623747423]: f(c) = 0 for f = x^2 - 2",
    "uct": "∀s,t∈[0.0, 2.0]: |s−t| < 0.3 ⇒ |f(s)−f(t)| < 0.3 for f = sin(x)",
    "uct-overlap": ("∀s,t∈[0.0, 2.0]: |s−t| < 0.10370389884088516 ⇒ |f(s)−f(t)| < 0.3 "
                    "for f = abs(x - 1)"),
    "dit": ("∫f over [0.0, 1.0] ∈ [-0.17148095145866324, -0.1618441853705538], U − L < 0.01 "
           "for f = x^2 - x"),
    "dit-prefix": ("∫f over [0.0, 1.0] ∈ [-0.16870057631511925, -0.1646309095059007], "
                  "U − L < 0.01 for f = x^2 - x"),
    "sift": "∀x₁<x₂ in [0.0, 1.0]: f(x₁) < f(x₂) for f = exp(x)",
    "ift": "∀x₁<x₂ in [0.0, 1.0]: f(x₁) ≤ f(x₂) for f = x^3",
    "mvi": "∀x₁<x₂ in [0.0, 1.0]: f(x₂) − f(x₁) ≤ 2.5·(x₂ − x₁) for f = x^2",
    "cft": "∀t∈[0.0, 1.0]: |f(t) − f(a)| ≤ 1.5 for f = sin(x)",
    "cft-exact": "∀t∈[0.0, 1.0]: |f(t) − f(a)| ≤ 0.0 for f = 3 (exact constancy)",
    "bvt-point": "∀t∈[0.5, 0.5]: f(t) ≤ 2.2250738585072014e-308 for f = x^2 - 3",
    "evt-point": ("∃c = 0.5 ∈ [0.5, 0.5]: ∀t: f(t) ≤ f(c) + 0.01, f(c) ≥ 0.4794255386042029 for f "
                 "= sin(x)"),
    "ivt-point": "∀t∈[0.5, 0.5]: f(t) < 0 for f = x - 1",
    "uct-point": "∀s,t∈[0.5, 0.5]: |s−t| < 1.0 ⇒ |f(s)−f(t)| < 0.3 for f = sin(x)",
    "dit-point": "∫f over [0.5, 0.5] ∈ [0.0, 0.0], U − L < 0.01 for f = x^2",
    "sift-point": "∀x₁<x₂ in [0.5, 0.5]: f(x₁) < f(x₂) for f = -x",
    "ift-point": "∀x₁<x₂ in [0.5, 0.5]: f(x₁) ≤ f(x₂) for f = x^3",
    "mvi-point": "∀x₁<x₂ in [0.5, 0.5]: f(x₂) − f(x₁) ≤ 2.5·(x₂ − x₁) for f = x^2",
    "cft-point": "∀t∈[0.5, 0.5]: |f(t) − f(a)| ≤ 0.0 for f = sin(x)",
}

# label: V for Valid, I for Invalid, I<k> for Invalid at piece k
GOLDEN_TAMPERED = {
    "bvt": (
        "piece_sup[4]+ I4, piece_sup[4]- I4, piece_sup[4]+1 I4, piece_sup[4]-1 I4, "
        "bound+ V, bound- I4, bound+1 V, bound-1 I, "
    ),
    "evt": (
        "eps+ V, eps- V, eps+1 V, eps-1 I, c+ V, c- V, c+1 I, c-1 I, f_at_c_lo+ I, "
        "f_at_c_lo- V, f_at_c_lo+1 I, f_at_c_lo-1 I0, piece_sup[4]+ V, "
        "piece_sup[4]- I4, piece_sup[4]+1 I4, piece_sup[4]-1 I4, "
    ),
    "ivt-neg": (
        "piece_hi[4]+ V, piece_hi[4]- I4, piece_hi[4]+1 V, piece_hi[4]-1 I4, "
    ),
    "ivt-root": (
        "l+ I, l- V, l+1 I, l-1 I, r+ V, r- I, r+1 I, r-1 I, f_l_hi+ V, f_l_hi- I, "
        "f_l_hi+1 I, f_l_hi-1 I, f_r_lo+ I, f_r_lo- V, f_r_lo+1 I, f_r_lo-1 I, tol+ V, "
        "tol- V, tol+1 V, tol-1 I, "
    ),
    # L = |cos(0)| = 1 and delta = eps / L exactly, so one ulp more of L,
    # delta or less of eps fails L * delta <= eps; a partition point moved
    # by one ulp stays inside the outward rounding of its pieces' bounds
    "uct": (
        "eps+ V, eps- I, eps+1 V, eps-1 I, delta+ I, delta- V, delta+1 I, delta-1 I, "
        "bound+ I, bound- I0, bound+1 I, bound-1 I0, partition[4]+ V, partition[4]- V, "
        "piece_deriv_abs[4]+ V, piece_deriv_abs[4]- I4, piece_deriv_abs[4]+1 I4, "
        "piece_deriv_abs[4]-1 I4, "
    ),
    # delta is the least overlap, so one ulp more fails at it
    "uct-overlap": (
        "eps+ V, eps- V, eps+1 V, eps-1 I, delta+ I7, delta- V, delta+1 I0, delta-1 I, "
        "piece_osc[7]+ V, piece_osc[7]- I7, piece_osc[7]+1 I7, piece_osc[7]-1 I7, "
    ),
    # off the dyadic points the directed sums keep a few ulps of slack, so
    # one-ulp moves of a sum, or of a bound against it, stay Valid
    "dit": (
        "eps+ V, eps- V, eps+1 V, eps-1 I, piece_lo[102]+ I102, piece_lo[102]- V, "
        "piece_lo[102]+1 I102, piece_lo[102]-1 I, piece_hi[102]+ V, "
        "piece_hi[102]- I102, piece_hi[102]+1 I, piece_hi[102]-1 I102, lower_sum+ V, "
        "lower_sum- V, lower_sum+1 I, lower_sum-1 I, upper_sum+ V, upper_sum- V, "
        "upper_sum+1 I, upper_sum-1 I, "
    ),
    "dit-prefix": (
        "eps+ V, eps- V, eps+1 V, eps-1 I, piece_lo[246]+ I246, piece_lo[246]- V, "
        "piece_lo[246]+1 I246, piece_lo[246]-1 I, piece_hi[246]+ V, "
        "piece_hi[246]- I246, piece_hi[246]+1 I, piece_hi[246]-1 I246, lower_sum+ V, "
        "lower_sum- V, lower_sum+1 I, lower_sum-1 I, upper_sum+ V, upper_sum- V, "
        "upper_sum+1 I, upper_sum-1 I, "
    ),
    "sift": (
        "strict! V, piece_deriv_lo[4]+ I4, piece_deriv_lo[4]- V, "
        "piece_deriv_lo[4]+1 I4, piece_deriv_lo[4]-1 V, "
    ),
    "ift": (
        "strict! I0, piece_deriv_lo[4]+ I4, piece_deriv_lo[4]- V, "
        "piece_deriv_lo[4]+1 I4, piece_deriv_lo[4]-1 I4, "
    ),
    "mvi": (
        "bound+ V, bound- V, bound+1 V, bound-1 I6, piece_deriv_hi[4]+ V, "
        "piece_deriv_hi[4]- I4, piece_deriv_hi[4]+1 V, piece_deriv_hi[4]-1 I4, "
    ),
    "cft": (
        "eta+ I, eta- V, eta+1 I, eta-1 I0, osc_bound+ V, osc_bound- I, osc_bound+1 V, "
        "osc_bound-1 I, piece_deriv_abs[4]+ V, piece_deriv_abs[4]- I4, "
        "piece_deriv_abs[4]+1 I4, piece_deriv_abs[4]-1 I4, "
    ),
    "cft-exact": (
        "eta+ I, eta- I, eta+1 I, eta-1 I, osc_bound+ V, osc_bound- I, osc_bound+1 V, "
        "osc_bound-1 I, piece_deriv_abs[4]+ I4, piece_deriv_abs[4]- I4, "
        "piece_deriv_abs[4]+1 I4, piece_deriv_abs[4]-1 I4, "
    ),
    "bvt-point": (
        "bound+ V, bound- V, bound+1 V, bound-1 I, "
    ),
    "evt-point": (
        "eps+ V, eps- V, eps+1 V, eps-1 I, c+ I, c- I, c+1 I, c-1 I, f_at_c_lo+ I, "
        "f_at_c_lo- V, f_at_c_lo+1 I, f_at_c_lo-1 I, "
    ),
    "ivt-point": "",
    # L = 0 on a point, so any positive delta holds
    "uct-point": (
        "eps+ V, eps- V, eps+1 V, eps-1 I, delta+ V, delta- V, delta+1 V, delta-1 I, "
        "bound+ V, bound- I, bound+1 I, bound-1 I, partition[0]+ I, partition[0]- I, "
    ),
    "dit-point": (
        "eps+ V, eps- V, eps+1 V, eps-1 I, lower_sum+ I, lower_sum- I, lower_sum+1 I, "
        "lower_sum-1 I, upper_sum+ I, upper_sum- I, upper_sum+1 I, upper_sum-1 I, "
    ),
    "sift-point": (
        "strict! V, "
    ),
    "ift-point": (
        "strict! V, "
    ),
    "mvi-point": (
        "bound+ V, bound- V, bound+1 V, bound-1 V, "
    ),
    "cft-point": (
        "eta+ V, eta- V, eta+1 V, eta-1 V, osc_bound+ V, osc_bound- I, osc_bound+1 V, "
        "osc_bound-1 I, "
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PROBLEMS))
def test_function_certificate_bytes_are_golden(name):
    cert = GOLDEN_PROBLEMS[name]()
    assert check(cert)
    assert hashlib.sha256(dumps(cert).encode()).hexdigest() == GOLDEN_CERT_SHA256[name]
    assert conclusion_of(cert).text == GOLDEN_CONCLUSIONS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_PROBLEMS))
def test_golden_documents_are_compact_and_read_in_either_layout(name):
    cert = GOLDEN_PROBLEMS[name]()
    text = dumps(cert)
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    assert dumps(loads(text)) == text
    # the layout dumps wrote before the compact one: a two-space indent
    again = loads(json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n")
    assert again == cert and check(again) == check(cert)


@pytest.mark.parametrize("name", sorted(GOLDEN_PROBLEMS))
def test_tampered_verdicts_are_golden(name):
    cert = GOLDEN_PROBLEMS[name]()
    tampered = _tampered(cert, points=name.startswith("uct"))
    seen = "".join(f"{label} {_verdict(check(t))}, " for label, t in tampered)
    assert seen == "".join(GOLDEN_TAMPERED[name])


# The uct document of GOLDEN_PROBLEMS as it was written while delta was half
# the least overlap (or half the first piece), 0.0625 where the least
# overlap was 0.125: a smaller delta still holds, so an old document keeps
# its verdict and its tampered verdicts.
_HALVED_UCT_PATH = Path(__file__).parent / "data" / "uct_halved_delta.json"


def test_document_with_a_halved_delta_keeps_its_verdicts():
    text = _HALVED_UCT_PATH.read_bytes()
    assert hashlib.sha256(text).hexdigest() == (
        "c128d637d0fbc6e0b5111b0dbd519ad1f82f2474d9e010a3377b335bd9d7b7ea")
    cert = loads(text.decode())
    assert check(cert) and cert.delta == 0.0625
    seen = "".join(f"{label} {_verdict(check(t))}, " for label, t in _tampered(cert))
    assert seen == (
        "eps+ V, eps- V, eps+1 V, eps-1 I, delta+ V, delta- V, delta+1 I0, delta-1 I, "
        "piece_osc[5]+ V, piece_osc[5]- I5, piece_osc[5]+1 I5, piece_osc[5]-1 I5, "
    )


# ---------------------------------------------------------------------------
# malformed documents: StructureError, and exit 2 from `suparg check`
# ---------------------------------------------------------------------------

def _bound_document():
    return to_document(prove_bound("sin(x)", 0.0, 3.0))


def _with(path, value):
    doc = _bound_document()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


MALFORMED = {
    "certificate-list": lambda: _with(["certificate"], [1, 2]),
    "partition-int": lambda: _with(["certificate", "partition"], 5),
    "piece-sup-ints": lambda: _with(["certificate", "piece_sup"],
                                    [1] * len(_bound_document()["certificate"]["piece_sup"])),
    "M-null": lambda: _with(["certificate", "M"], None),
    "one-element-domain": lambda: _with(["domain"], ["0x0.0p+0"]),
    "function-int": lambda: _with(["function"], 3),
    "top-level-list": lambda: [_bound_document()],
    # the theorem a document names is the one its certificate states: an
    # ift certificate relabelled sift states a strict monotonicity it never
    # showed, false for a constant f
    "ift-as-sift": lambda: {**to_document(prove_monotone("x^3", -1.0, 1.0, False)),
                            "theorem": "sift"},
    "bvt-as-evt": lambda: _with(["theorem"], "evt"),
    "theorem-missing": lambda: {k: v for k, v in _bound_document().items() if k != "theorem"},
    # a string of two characters indexes as a domain of two values
    "domain-string": lambda: _with(["domain"], "01"),
    "three-element-domain": lambda: _with(["domain"], _bound_document()["domain"] + ["0x0.0p+0"]),
}


def _topology_document(row, edit):
    doc = to_document(ROW_PROBLEMS[row]())
    edit(doc["certificate"])
    return doc


def _first_interval(field, value):
    """A topology document whose first interval in field is value."""
    row = {"set": "clopen", "elements": "subcover"}[field]
    return _topology_document(row, lambda body: body[field].__setitem__(0, value))


# an interval is a string in an interval file's syntax; any other value, or
# a string that does not parse to an interval, is malformed.  The ids are
# those of the cases these replace, which set an openness flag (set ×
# hi_open, cover × lo_open) to a non-bool when an interval was an object
# with lo, hi and two flags
for _field, _old in (("set", "set-hi_open"), ("elements", "cover-lo_open")):
    for _name, _value in (("str", "(0; 1)"), ("list", "[1/2, 0]"), ("zero", 5),
                          ("null", None)):
        MALFORMED[f"{_old}-{_name}"] = functools.partial(_first_interval, _field, _value)

# operator.index takes true and false for 1 and 0; a count or index refuses
# them as the "bool" codec refuses 0 and 1
MALFORMED["indices-bool"] = functools.partial(
    _topology_document, "subcover", lambda body: body.update(indices=[False, True, 2]))
MALFORMED["cover-size-bool"] = functools.partial(
    _topology_document, "subcover", lambda body: body.update(cover_size=True))


def _check_exit(doc, tmp_path, capsys):
    """Exit status of `suparg check` on doc, which prints nothing to stdout,
    and the error kind of the one line it prints to stderr."""
    from suparg.cli import run
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    status = run(["check", str(path)])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    return status, json.loads(lines[0])["error"]


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_document_is_a_structure_error(name, tmp_path, capsys):
    doc = MALFORMED[name]()
    with pytest.raises(StructureError):
        from_document(doc)
    assert _check_exit(doc, tmp_path, capsys) == (2, "usage")


_CODES = sorted({code for row in ROWS for code in row.theorems})


@pytest.mark.parametrize("name", sorted(GOLDEN_PROBLEMS) + ["clopen", "subcover"])
def test_relabelled_document_is_a_structure_error(name, tmp_path, capsys):
    doc = to_document(GOLDEN_PROBLEMS[name]() if name in GOLDEN_PROBLEMS
                      else ROW_PROBLEMS[name]())
    assert doc["theorem"] in _CODES
    for code in _CODES:
        if code == doc["theorem"]:
            continue
        relabelled = {**doc, "theorem": code}
        with pytest.raises(StructureError, match="document names theorem"):
            from_document(relabelled)
        assert _check_exit(relabelled, tmp_path, capsys) == (2, "usage"), code


# ---------------------------------------------------------------------------
# every row: a fixed problem round-trips, checks Valid, and a per-piece value
# moved past its fresh enclosure is Invalid at that piece
# ---------------------------------------------------------------------------

def _rat_open(lo, hi):
    return RatInterval(Fraction(lo), Fraction(hi), True, True)


ROW_PROBLEMS = {
    "bound": lambda: prove_bound("sin(x)", 0.0, 3.0),
    "max": lambda: prove_max("sin(x)", 0.0, 3.0, 1e-2),
    "neg": lambda: prove_root("x - 3", 0.0, 1.0, 1e-9),
    "root_bracket": lambda: prove_root("x^2 - 2", 0.0, 2.0, 1e-9),
    "modulus": lambda: overlap_modulus("sin(x)", 0.0, 2.0, 0.3),
    "lipschitz": lambda: prove_modulus("sin(x)", 0.0, 2.0, 0.3),
    "integral": lambda: prove_integral("x^2 - x", 0.0, 1.0, 1e-2),
    "monotone": lambda: prove_monotone("exp(x)", 0.0, 1.0, True),
    "mvi": lambda: prove_mvi("x^2", 0.0, 1.0, 2.5),
    "flat": lambda: prove_flat("sin(x)", 0.0, 1.0, 1.5),
    "clopen": lambda: analyze_clopen(
        RatIntervalSet((RatInterval(Fraction(0), Fraction(1, 2), False, True),)),
        Fraction(0), Fraction(1)),
    "subcover": lambda: extract_subcover(
        Cover((_rat_open(-1, "0.5"), _rat_open("0.25", 2))), Fraction(0), Fraction(1)),
}


def _past(side, lo, hi):
    """A value next to side.store(lo, hi) that no longer bounds [lo, hi]."""
    v = side.store(lo, hi)
    for to in (-math.inf, math.inf):
        moved = v
        for _ in range(4):
            moved = math.nextafter(moved, to)
            if not side.holds(moved, lo, hi):
                return moved
    raise AssertionError("no value within 4 ulps falls past the enclosure")


@pytest.mark.parametrize("row", ROWS, ids=[row.type for row in ROWS])
def test_every_row_roundtrips_checks_and_catches_a_tampered_piece(row):
    cert = ROW_PROBLEMS[row.type]()
    assert type(cert) is row.cls
    text = dumps(cert)
    assert dumps(loads(text)) == text
    assert check(cert)
    if not row.arrays:
        return
    grid = getattr(cert, row.grid)
    pieces = list(zip(grid.points, grid.points[1:])) if isinstance(grid, Partition) \
        else [(piece.lo, piece.hi) for piece in grid]
    k = len(pieces) // 2
    f = parse(cert.fn_source)
    lo, hi = eval_d1(f, *pieces[k])[2:] if row.deriv else eval_iv(f, *pieces[k])
    for name, side in row.arrays:
        values = getattr(cert, name)
        result = check(replace(cert, **{name: tuple_set(values, k, _past(side, lo, hi))}))
        assert not result and result.piece == k, (name, result)


# ---------------------------------------------------------------------------
# hostile documents: each checker verdict, and exit 1 from `suparg check`
# ---------------------------------------------------------------------------

def _subcover_of_three():
    cover = Cover(tuple(_rat_open(lo, hi) for lo, hi in
                        (("-1/10", "2/5"), ("3/10", "7/10"), ("3/5", "11/10"))))
    return extract_subcover(cover, Fraction(0), Fraction(1))


def _hostile(make, *edits):
    """The document of make()'s certificate with each (path, value) of
    edits set in it."""
    def build():
        doc = to_document(make())
        for path, value in edits:
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        return doc
    return build


def _gap_and_piece_past():
    # eps set to the stored gap fails the gap test, and the first piece
    # bound set below f fails its fresh enclosure
    cert = prove_integral("x^2", 0.0, 1.0, 1e-3)
    doc = to_document(cert)
    doc["params"]["eps"] = _HEX(cert.upper_sum - cert.lower_sum)
    doc["certificate"]["piece_hi"][0] = _HEX(-1.0)
    return doc


_HEX = certificates.float_to_hex

HOSTILE = {
    "inverted domain": _hostile(ROW_PROBLEMS["bound"],
                                (["domain"], [_HEX(3.0), _HEX(0.0)])),
    "partition does not start at a": _hostile(ROW_PROBLEMS["bound"],
                                              (["domain", 0], _HEX(-1.0))),
    # a == b with one degenerate piece [0, 0] that starts and ends there
    "degenerate domain with nonempty pieces": _hostile(
        lambda: overlap_modulus("x", 0.0, 0.0, 1.0),
        (["certificate", "pieces"], [[_HEX(0.0), _HEX(0.0)]]),
        (["certificate", "piece_osc"], [_HEX(0.0)])),
    "no cover elements chosen": _hostile(_subcover_of_three,
                                         (["certificate", "indices"], [])),
    "chosen index 5 outside the cover": _hostile(_subcover_of_three,
                                                 (["certificate", "indices"], [0, 5, 2])),
    "chosen index 2 outside the cover": _hostile(_subcover_of_three,
                                                 (["certificate", "cover_size"], 2)),
    "chosen elements do not match the chosen indices": _hostile(
        _subcover_of_three, (["certificate", "elements"], ["(-1/10, 2/5)", "(3/10, 7/10)"])),
    # element 0 is (-1/10, 2/5) where the chain first takes it
    "cover element 0 stated twice, differently": _hostile(
        _subcover_of_three, (["certificate", "indices"], [0, 0, 2])),
    "cover element is not an open interval": _hostile(
        _subcover_of_three, (["certificate", "elements", 1], "[3/10, 7/10)")),
    # the chain is 0, 2/5, 7/10, 1
    "chosen element (9/20, 7/10) does not contain the chain point 2/5": _hostile(
        _subcover_of_three, (["certificate", "elements", 1], "(9/20, 7/10)")),
    # (-1/10, 1/5) holds 0 and (3/10, 7/10) holds 2/5, but [1/5, 3/10] lies
    # between them
    "chosen elements miss the point 1/5": _hostile(
        _subcover_of_three, (["certificate", "elements", 0], "(-1/10, 1/5)")),
    "stored verdict not reproduced by exact set algebra": _hostile(
        ROW_PROBLEMS["clopen"], (["certificate", "verdict"], "covers_all")),
    # the gap test is among the row's requires, so it is reported before
    # the piece past its fresh enclosure
    "Darboux gap not below eps": _gap_and_piece_past,
}


@pytest.mark.parametrize("reason", sorted(HOSTILE))
def test_hostile_document_gives_its_reason(reason, tmp_path, capsys):
    from suparg.cli import run
    doc = HOSTILE[reason]()
    result = check(from_document(doc))
    assert not result and result.reason == reason
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert run(["check", str(path)]) == 1
    assert capsys.readouterr() == (f"{result}\n", "")


def test_unknown_certificate_type_is_a_structure_error(tmp_path, capsys):
    from suparg.cli import run
    doc = _hostile(ROW_PROBLEMS["bound"], (["certificate", "type"], "lemma"))()
    with pytest.raises(StructureError, match="unknown certificate type 'lemma'"):
        from_document(doc)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert run(["check", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    # a value of no certificate class: Invalid from check, TypeError elsewhere
    assert check((1.0, 2.0)) == (False, "unknown certificate type tuple", None)
    with pytest.raises(TypeError, match="unknown certificate type tuple"):
        piece_count((1.0, 2.0))


def test_caller_domain_mismatch_at_a():
    cert = ROW_PROBLEMS["bound"]()
    result = check(cert, parse("sin(x)"), 0.5, 3.0)
    assert not result and result.reason == "domain mismatch: a"


# ---------------------------------------------------------------------------
# exact float and scaled-integer tests against the Fraction forms they replaced
# ---------------------------------------------------------------------------

def _ref_osc_holds(v, e):
    return Fraction(v) >= Fraction(e.hi) - Fraction(e.lo)


def _ref_abs_holds(v, e):
    return Fraction(v) >= max(abs(Fraction(e.lo)), abs(Fraction(e.hi)))


def _ref_overlap_gap(c):
    delta = Fraction(c.delta)
    for k, (piece, nxt) in enumerate(zip(c.pieces, c.pieces[1:])):
        if nxt.lo < piece.lo:
            return k, "pieces not sorted by left endpoint"
        if Fraction(nxt.lo) + delta > Fraction(piece.hi):
            return k, "adjacent pieces overlap by less than delta"
    return None


def _ref_evt_limit_holds(v, c):
    return Fraction(v) <= Fraction(c.f_at_c_lo) + Fraction(c.eps)


def _ref_darboux_sums(c):
    if c.a == c.b and (c.lower_sum != 0.0 or c.upper_sum != 0.0):
        return "degenerate integral must be [0, 0]"
    lower = upper = Fraction(0)
    points = c.partition.points
    for u, v, lo, hi in zip(points, points[1:], c.piece_lo, c.piece_hi):
        w = Fraction(v) - Fraction(u)
        lower += Fraction(lo) * w
        upper += Fraction(hi) * w
    if Fraction(c.lower_sum) > lower:
        return "stored lower sum above the exact piece sum"
    if Fraction(c.upper_sum) < upper:
        return "stored upper sum below the exact piece sum"
    return None


def _ref_darboux_gap(c):
    if not Fraction(c.upper_sum) - Fraction(c.lower_sum) < Fraction(c.eps):
        return "Darboux gap not below eps"
    return None


def _ref_shrink_modulus(s, w):
    # never above an overlap with the piece before, rounded down once; the
    # first piece keeps the start's delta
    if s.pieces:
        overlap = Fraction(w.x) - Fraction(w.ext_lo)
        if overlap <= 0:
            raise StructureError("uniform-continuity pieces must overlap")
        s.delta = min(s.delta, float_down(overlap))


_MAX = sys.float_info.max
_TINY = 5e-324
# subnormals, the normal range's edges, ±max and values whose sums and
# differences round
_EDGES = (0.0, -0.0, _TINY, -_TINY, 3 * _TINY, 2.0 ** -1022, -(2.0 ** -1022),
          2.0 ** -1021, 2.225073858507201e-308, _MAX, -_MAX, math.nextafter(_MAX, 0.0),
          2.0 ** 1023, 1.0, -1.0, 0.1, 1e-17, -1e-17, 3.0, 2.0 ** 53, 1e300, -1e300)
_finite = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-4.0, 4.0),
    st.integers(-2 ** 52, 2 ** 52).map(lambda n: n * _TINY))
_ulps = st.integers(-2, 2)
_exact_settings = settings(max_examples=400, derandomize=True, database=None, deadline=None)


def _step(v, ulps):
    """v moved by the given number of ulps, staying finite."""
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return min(max(v, -_MAX), _MAX)


def _nearest(q):
    """A finite float next to the rational q (clamped to ±max)."""
    try:
        return min(max(float(q), -_MAX), _MAX)
    except OverflowError:
        return _MAX if q > 0 else -_MAX


def _interval(x, y):
    return FloatInterval(min(x, y), max(x, y))


@_exact_settings
@example(x=-_MAX, y=_MAX, ulps=0, other=_MAX, near=False)
@example(x=1e-17, y=1.0, ulps=0, other=0.0, near=True)
@example(x=-1e-17, y=1.0, ulps=0, other=0.0, near=True)
@example(x=-_TINY, y=_TINY, ulps=0, other=0.0, near=True)
@given(x=_finite, y=_finite, ulps=_ulps, other=_finite, near=st.booleans())
def test_oscillation_test_matches_fraction_reference(x, y, ulps, other, near):
    e = _interval(x, y)
    d = e.hi - e.lo
    v = _step(d, ulps) if near and math.isfinite(d) else other
    assert OSC.holds(v, e.lo, e.hi) == _ref_osc_holds(v, e)


@_exact_settings
@example(x=-3.0, y=1.0, ulps=0, other=0.0, near=True)
@example(x=-_MAX, y=_TINY, ulps=-1, other=0.0, near=True)
@given(x=_finite, y=_finite, ulps=_ulps, other=_finite, near=st.booleans())
def test_magnitude_test_matches_fraction_reference(x, y, ulps, other, near):
    e = _interval(x, y)
    v = _step(max(abs(e.lo), abs(e.hi)), ulps) if near else other
    assert ABS.holds(v, e.lo, e.hi) == _ref_abs_holds(v, e)


@_exact_settings
@example(los=[0.0, 1.0 - 1e-17], his=[1.0, 2.0], delta=1e-17, ulps=0, near=True)
@example(los=[0.0, -_MAX], his=[_MAX, _MAX], delta=_MAX, ulps=0, near=True)
@example(los=[-_TINY, -_TINY], his=[_TINY, _TINY], delta=2 * _TINY, ulps=0, near=True)
@given(los=st.lists(_finite, min_size=1, max_size=4), his=st.lists(_finite, min_size=4,
                                                                   max_size=4),
       delta=_finite.filter(lambda v: v > 0.0), ulps=_ulps, near=st.booleans())
def test_overlap_test_matches_fraction_reference(los, his, delta, ulps, near):
    pieces = [_interval(lo, hi) for lo, hi in zip(los, his)]
    if near and len(pieces) > 1:
        # delta at the exact overlap of the first two pieces, rounded, ± ulps
        delta = max(_step(_nearest(Fraction(pieces[0].hi) - Fraction(pieces[1].lo)), ulps),
                    _TINY)
    c = SimpleNamespace(pieces=pieces, delta=delta)
    assert _overlap_gap(c) == _ref_overlap_gap(c)


@_exact_settings
@example(f_lo=1.0, eps=1e-17, ulps=0, other=1.0, near=True)
@example(f_lo=_MAX, eps=_MAX, ulps=0, other=_MAX, near=False)
@example(f_lo=-_MAX, eps=_TINY, ulps=1, other=0.0, near=True)
@given(f_lo=_finite, eps=_finite.filter(lambda v: v > 0.0), ulps=_ulps, other=_finite,
       near=st.booleans())
def test_evt_limit_matches_fraction_reference(f_lo, eps, ulps, other, near):
    c = SimpleNamespace(f_at_c_lo=f_lo, eps=eps)
    op, t, reason = ROW_OF[MaxCert].limit(c)
    v = _step(_nearest(Fraction(f_lo) + Fraction(eps)), ulps) if near else other
    assert op(v, t) == _ref_evt_limit_holds(v, c)
    assert reason == "piece sup-bound above f(c) + eps"


@st.composite
def _integral_cert(draw):
    points = sorted(set(draw(st.lists(_finite, min_size=2, max_size=6))))
    assume(len(points) >= 2)
    n = len(points) - 1
    piece_lo = draw(st.lists(_finite, min_size=n, max_size=n))
    # equal or nearby bounds give stored sums a representable gap, so that
    # U - L can be exactly eps
    piece_hi = draw(st.one_of(st.just(piece_lo),
                              st.lists(_finite, min_size=n, max_size=n),
                              st.just([_step(v, 1) for v in piece_lo])))
    lower = sum(Fraction(m) * (Fraction(v) - Fraction(u))
                for u, v, m in zip(points, points[1:], piece_lo))
    upper = sum(Fraction(m) * (Fraction(v) - Fraction(u))
                for u, v, m in zip(points, points[1:], piece_hi))
    # stored sums at the exact sums, or one ulp either side
    lower_sum = _step(_nearest(lower), draw(st.integers(-1, 1)))
    upper_sum = _step(_nearest(upper), draw(st.integers(-1, 1)))
    gap = Fraction(upper_sum) - Fraction(lower_sum)
    eps = draw(st.one_of(_finite.filter(lambda v: v > 0.0),
                         st.just(_step(_nearest(gap), draw(_ulps)))))
    return IntegralCert("x", points[0], points[-1], eps if eps > 0.0 else 1.0,
                        Partition(tuple(points)), tuple(piece_lo), tuple(piece_hi),
                        lower_sum, upper_sum)


@_exact_settings
@example(c=IntegralCert("x", 0.0, 1.0, 2 * _TINY, Partition((0.0, 0.5, 1.0)), (1.0, 2.0),
                        (1.0, 2.0), 1.5, 1.5))
@example(c=IntegralCert("x", -_MAX, _MAX, _MAX, Partition((-_MAX, _TINY, _MAX)),
                        (-_MAX, _MAX), (_MAX, _MAX), -_MAX, _MAX))
@example(c=IntegralCert("x", 0.0, 1.0, 2.0 ** -52, Partition((0.0, 1.0)), (1.0,), (1.0,),
                        1.0, 1.0 + 2.0 ** -52))
@given(c=_integral_cert())
def test_darboux_sums_match_fraction_reference(c):
    assert _darboux_sums(c) == _ref_darboux_sums(c)


@_exact_settings
@example(c=IntegralCert("x", 0.0, 1.0, 2 * _TINY, Partition((0.0, 0.5, 1.0)), (1.0, 2.0),
                        (1.0, 2.0), 1.5, 1.5))
@example(c=IntegralCert("x", -_MAX, _MAX, _MAX, Partition((-_MAX, _TINY, _MAX)),
                        (-_MAX, _MAX), (_MAX, _MAX), -_MAX, _MAX))
@example(c=IntegralCert("x", 0.0, 1.0, 2.0 ** -52, Partition((0.0, 1.0)), (1.0,), (1.0,),
                        1.0, 1.0 + 2.0 ** -52))
@given(c=_integral_cert())
def test_darboux_gap_matches_fraction_reference(c):
    (gap_below_eps, reason), = ROW_OF[IntegralCert].requires
    assert (None if gap_below_eps(c, None) else reason) == _ref_darboux_gap(c)


@_exact_settings
@example(x=0.0, y=3 * _TINY, ext_lo=-_TINY, delta=1.0, first=False)
@example(x=-_MAX, y=_MAX, ext_lo=-_MAX, delta=1.0, first=False)
@example(x=-_MAX, y=_MAX, ext_lo=-_MAX, delta=1.0, first=True)
@example(x=2.0 ** -1021, y=2.0 ** -1020 + _TINY, ext_lo=0.0, delta=1.0, first=False)
@given(x=_finite, y=_finite, ext_lo=_finite, delta=_finite.filter(lambda v: v > 0.0),
       first=st.booleans())
def test_shrink_modulus_matches_fraction_reference(x, y, ext_lo, delta, first):
    piece = _interval(x, y)
    w = LocalWitness(piece.lo, piece.hi, 0.0, 0.0, ext_lo=min(ext_lo, piece.lo))
    got = SimpleNamespace(pieces=[] if first else [piece], delta=delta)
    want = SimpleNamespace(pieces=[] if first else [piece], delta=delta)
    try:
        _ref_shrink_modulus(want, w)
    except StructureError as err:
        with pytest.raises(StructureError, match=str(err)):
            _shrink_modulus(got, w)
        return
    _shrink_modulus(got, w)
    assert got.delta == want.delta


@_exact_settings
@example(x=1.0 + 2.0 ** -52, h=2.0 ** -53, a=0.0, prev=None)  # x + h ties and rounds up
@example(x=2.0 ** -1022, h=_TINY, a=-_TINY, prev=-_TINY)
@example(x=_MAX, h=_MAX, a=-_MAX, prev=None)
@given(x=_finite, h=_finite.filter(lambda v: v > 0.0), a=_finite, prev=st.none() | _finite)
def test_overlap_window_is_left_of_every_frontier_a_probe_reaches(x, h, a, prev):
    # the sweep probes [x, y] past a > x only when x + h rounds above x (a y
    # clipped to b is above x too); then x - h rounds below x, so the stored
    # uniform-continuity pieces overlap and _shrink_modulus never refuses them
    assume(a < x and x + h > x and (prev is None or prev < x))
    s = SimpleNamespace(pieces=[] if prev is None else [FloatInterval(prev, x)])
    assert ROW_OF[ModulusCert].window(s, SimpleNamespace(a=a), x, h) < x


def test_sweep_and_checker_build_no_interval_per_piece(monkeypatch):
    # both carry float ends; a FloatInterval is built only where a value
    # leaves them, as a stored uniform-continuity piece
    made = []
    original = FloatInterval.__init__
    monkeypatch.setattr(FloatInterval, "__init__",
                        lambda self, lo, hi: made.append(self) or original(self, lo, hi))
    dit = GOLDEN_PROBLEMS["dit"]()
    assert (piece_count(dit), len(made)) == (205, 0)
    assert check(dit) and len(made) == 0
    bound = prove_bound("sin(x)", 0.0, 3.0)
    assert check(bound) and len(made) == 0
    modulus = overlap_modulus("x", 0.0, 1.0, 1e-3)
    assert (piece_count(modulus), len(made)) == (2222, 2222)
    assert check(modulus) and len(made) == 2222


def _long_cover(size):
    """Three open links chaining [0, 1], then size - 3 elements that each
    lie inside the first two links and reach less far than they do."""
    links = [_rat_open(lo, hi) for lo, hi in (("-1/10", "2/5"), ("3/10", "7/10"),
                                              ("3/5", "11/10"))]
    inner = [RatInterval(Fraction(j, 2 * size), Fraction(j + 1, 2 * size), True, True)
             for j in range(size - 3)]
    return Cover(tuple(inner[:size // 2] + links + inner[size // 2:]))


def test_subcover_check_builds_only_the_chosen_intervals(monkeypatch):
    # a document states the chain's elements alone, so reading and checking
    # it builds one RatInterval per chosen element, whatever the cover's size
    cert = extract_subcover(_long_cover(2000), Fraction(0), Fraction(1))
    text = dumps(cert)
    made = []
    original = RatInterval.__new__
    monkeypatch.setattr(RatInterval, "__new__",
                        lambda cls, *args: made.append(args) or original(cls, *args))
    again = loads(text)
    assert again == cert and check(again)
    assert (cert.cover_size, len(cert.indices), len(made)) == (2000, 3, 3)


def test_subcover_document_does_not_grow_with_the_cover():
    cert = extract_subcover(_long_cover(10_000), Fraction(0), Fraction(1))
    assert cert.indices == (5000, 5001, 5002)
    assert len(dumps(cert).encode()) < 1000


class _CountedFraction(Fraction):
    """Fraction that counts its constructions."""

    made = 0

    def __new__(cls, *args, **kwargs):
        _CountedFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


# a small and a large problem for each certificate type whose per-piece tests
# were once Fraction arithmetic; "x - x", "abs(x) - abs(x)" and "x*x - x*x"
# (for f') enclose with width about h, so the piece count scales as 1 / eps.
# uct is measured on the overlap route, whose pieces depend on eps
_PIECE_COUNT_PROBLEMS = {
    "dit": (lambda: prove_integral("x - x", 0.0, 1.0, 1e-2),
            lambda: prove_integral("x - x", 0.0, 1.0, 4e-4)),
    "uct": (lambda: overlap_modulus("abs(x) - abs(x)", 0.0, 1.0, 1e-2),
            lambda: overlap_modulus("abs(x) - abs(x)", 0.0, 1.0, 5e-4)),
    "evt": (lambda: prove_max("x - x", 0.0, 1.0, 1e-2),
            lambda: prove_max("x - x", 0.0, 1.0, 1.5e-4)),
    "cft": (lambda: prove_flat("x*x - x*x", 0.0, 1.0, 4e-2),
            lambda: prove_flat("x*x - x*x", 0.0, 1.0, 4e-4)),
}


@pytest.mark.parametrize("name", sorted(_PIECE_COUNT_PROBLEMS))
def test_fraction_count_does_not_grow_with_pieces(name, monkeypatch):
    monkeypatch.setattr(certificates, "Fraction", _CountedFraction)
    made = []
    for prove in _PIECE_COUNT_PROBLEMS[name]:
        _CountedFraction.made = 0
        cert = prove()
        assert check(cert)
        made.append((piece_count(cert), _CountedFraction.made))
    (small, small_made), (large, large_made) = made
    assert small < 1000 < 5000 < large
    assert large_made == small_made


# ---------------------------------------------------------------------------
# records: a certificate equals only its own type, and _replace checks
# ---------------------------------------------------------------------------

def test_certificates_of_two_types_with_equal_values_differ():
    values = ("x", 0.0, 1.0, 1.0, Partition((0.0, 1.0)), (1.0,))
    bound, mvi = BoundCert(*values), MviCert(*values)
    assert tuple(bound) == tuple(mvi)
    assert bound != mvi and not bound == mvi and mvi != bound
    assert bound == BoundCert(*values) and not bound != BoundCert(*values)
    assert hash(bound) == hash(BoundCert(*values))


@pytest.mark.parametrize("name", sorted(GOLDEN_PROBLEMS))
def test_golden_certificate_is_no_plain_tuple_and_hashes_as_it_compares(name):
    cert = GOLDEN_PROBLEMS[name]()
    again = loads(dumps(cert))
    assert again == cert and hash(again) == hash(cert)
    plain = tuple(cert)
    assert cert != plain and plain != cert and not cert == plain and not plain == cert


def test_topology_certificates_round_trip_and_differ_from_tuples():
    a, b = Fraction(0), Fraction(1)
    report = analyze_clopen(RatIntervalSet([parse_rat_interval("[0, 1]")]), a, b)
    cover = extract_subcover(Cover([parse_rat_interval("(-1, 2)")]), a, b)
    for cert in (report, cover):
        again = loads(dumps(cert))
        assert again == cert and hash(again) == hash(cert) and cert != tuple(cert)


def test_replace_checks_as_the_constructor_does():
    p = Problem(parse("x"), 0.0, 1.0, "evt", eps=1e-3)
    assert p._replace(a=0.5).a == 0.5 and p._replace(eps=1e-2).row is p.row
    with pytest.raises(ValueError, match="out of order"):
        p._replace(a=2.0)
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be finite"):
            p._replace(eps=eps)
    with pytest.raises(StructureError, match="not strictly increasing"):
        Partition((0.0, 1.0))._replace(points=(1.0, 0.0))
    with pytest.raises(ValueError, match="not an open interval"):
        Cover([parse_rat_interval("(0, 1)")])._replace(elements=[parse_rat_interval("[0, 1]")])
    pieces = [parse_rat_interval("[1, 2]"), parse_rat_interval("[0, 1]")]
    merged = RatIntervalSet(pieces[1:])._replace(components=pieces)
    assert merged.components == (parse_rat_interval("[0, 2]"),)
    # FloatInterval is a slotted class, built only by its constructor
    with pytest.raises(ValueError, match="inverted interval"):
        FloatInterval(2.0, 1.0)


def test_problem_repr_leaves_out_the_prior_and_the_row():
    p = Problem(parse("x"), 0.0, 1.0, "dit", eps=1e-3)
    prior = prove_integral("x", 0.0, 1.0, 1e-2)
    shown = repr(p._replace(prior=prior))
    assert shown == repr(p) and "prior" not in shown and "row" not in shown
    assert shown.endswith(", theorem='dit', eps=0.001, M=None, eta=None, fn_source='x', "
                          "max_pieces=1048576)")


def test_rows_do_not_share_a_keys_dict():
    assert len({id(row.keys) for row in ROWS}) == len(ROWS)
