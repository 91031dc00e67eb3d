"""Checker soundness: fresh-enclosure re-certification and mutation flips."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from suparg.certificates import (
    BoundCert,
    ClopenReport,
    ClopenVerdict,
    ModulusCert,
    Partition,
    StructureError,
    check,
    conclusion_of,
    dumps,
    from_document,
    loads,
    to_document,
)
from suparg.expr import parse
from suparg.numeric import FloatInterval, RatInterval
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

UP = lambda v: math.nextafter(v, math.inf)      # noqa: E731
DOWN = lambda v: math.nextafter(v, -math.inf)   # noqa: E731


def replace(cert, **kw):
    return dataclasses.replace(cert, **kw)


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
    cert = prove_modulus("sin(x)", 0.0, 4.0, 0.1)
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


def test_integral_mutations():
    cert = prove_integral("x^2", 0.0, 1.0, 1e-2)
    assert check(cert)
    assert not check(replace(cert, lower_sum=UP(cert.lower_sum)))
    assert not check(replace(cert, upper_sum=DOWN(cert.upper_sum)))
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
    assert c.data["L"] == ic.lower_sum and c.data["U"] == ic.upper_sum
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
        prove_modulus("sin(x)", 0.0, 2.0, 0.3),
        prove_integral("x^2", 0.0, 1.0, 1e-2),
        prove_monotone("exp(x)", 0.0, 1.0, strict=True),
        prove_mvi("x^2", 0.0, 1.0, 2.5),
        prove_flat("sin(x)", 0.0, 1.0, 1.5),
    ]
    assert all(check(c) for c in certs)
    return certs


def _float_scalar_fields(cert):
    return [f.name for f in dataclasses.fields(cert) if isinstance(getattr(cert, f.name), float)]


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
    assert len(seen) == 9


def test_nonfinite_per_piece_value_is_invalid():
    cert = prove_modulus("sin(x)", 0.0, 2.0, 0.3)
    result = check(replace(cert, piece_osc=tuple_set(cert.piece_osc, 0, math.nan)))
    assert not result and result.reason == "piece_osc is not finite"
