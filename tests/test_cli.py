"""Command-line behavior: exit codes, determinism, and the JSON surfaces."""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import suparg
from suparg import cli
from suparg.certificates import (
    CheckResult,
    StructureError,
    check,
    from_document,
    loads,
    piece_count,
    to_document,
)
from suparg.cli import run
from suparg.expr import parse
from suparg.numeric import RatInterval, float_down, parse_rational
from suparg.sweep import FailureKind, Problem, SweepFailure, run_sweep
from suparg.topology import Cover, RatIntervalSet, analyze_clopen, extract_subcover
from test_certificates import overlap_modulus


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------

def test_prove_ivt_happy(capsys, tmp_path):
    out_file = tmp_path / "root.json"
    code, out, err = invoke(capsys, "prove", "ivt", "--fn", "x^2 - 2",
                            "--a", "0", "--b", "2", "--tol", "1e-9",
                            "--out", str(out_file))
    assert code == 0 and err == ""
    assert "f(c) = 0" in out
    doc = json.loads(out_file.read_text())
    assert doc["theorem"] == "ivt"
    assert doc["certificate"]["type"] == "root_bracket"


def test_prove_then_check_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "dit.json"
    code, _, _ = invoke(capsys, "prove", "dit", "--fn", "x^2", "--a", "0",
                        "--b", "1", "--eps", "1e-3", "--out", str(out_file))
    assert code == 0
    code, out, err = invoke(capsys, "check", str(out_file))
    assert code == 0 and out.strip() == "Valid"


def test_check_flags_tampered_certificate(capsys, tmp_path):
    out_file = tmp_path / "dit.json"
    invoke(capsys, "prove", "dit", "--fn", "x^2", "--a", "0", "--b", "1",
           "--eps", "1e-3", "--out", str(out_file))
    doc = json.loads(out_file.read_text())
    doc["certificate"]["L"] = "0x1.8000000000000p-2"  # claim a tighter 0.375
    out_file.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "check", str(out_file))
    assert code == 1
    assert "Invalid" in out


def test_check_reads_an_indented_certificate_as_the_compact_one(capsys, tmp_path):
    compact = tmp_path / "dit.json"
    invoke(capsys, "prove", "dit", "--fn", "x^2", "--a", "0", "--b", "1",
           "--eps", "1e-3", "--out", str(compact))
    doc = json.loads(compact.read_text())
    assert compact.read_text() == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    tampered = copy.deepcopy(doc)
    tampered["certificate"]["L"] = "0x1.8000000000000p-2"
    for d, want in ((doc, 0), (tampered, 1)):
        # the indented file is the layout written before the compact one
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(d, sort_keys=True, indent=2) + "\n")
        compact.write_text(json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n")
        for fmt in ("text", "json"):
            seen = invoke(capsys, "check", "--format", fmt, str(compact))
            assert seen[0] == want
            assert invoke(capsys, "check", "--format", fmt, str(indented)) == seen


def test_prove_failure_exits_one_with_witness(capsys):
    code, out, err = invoke(capsys, "prove", "sift", "--fn", "x^3",
                            "--a", "-1", "--b", "1")
    assert code == 1
    record = json.loads(out)
    assert record["failure"] == "stalled"
    code, out, _ = invoke(capsys, "prove", "mvi", "--fn", "x^2", "--a", "0",
                          "--b", "1", "--M", "1.9")
    assert code == 1
    record = json.loads(out)
    assert record["failure"] == "hypothesis_fail"
    assert record["witness"] is not None


def test_sift_of_abs_is_refuted_across_its_kink_and_proved_past_it(capsys, tmp_path):
    # abs takes Clarke's generalized derivative, so a derivative theorem is
    # judged for it as for any f, not refused as a usage error
    code, out, _ = invoke(capsys, "prove", "sift", "--fn", "abs(x)", "--a", "-1", "--b", "1")
    assert code == 1
    assert json.loads(out)["failure"] == "hypothesis_fail"
    out_file = tmp_path / "sift.json"
    code, _, err = invoke(capsys, "prove", "sift", "--fn", "abs(x)", "--a", "0", "--b", "1",
                          "--out", str(out_file))
    assert (code, err) == (0, "")
    code, out, _ = invoke(capsys, "check", str(out_file))
    assert code == 0 and out.strip() == "Valid"


def test_prove_precondition_failure(capsys):
    code, out, _ = invoke(capsys, "prove", "ivt", "--fn", "x^2",
                          "--a", "-1", "--b", "1")
    assert code == 1
    assert json.loads(out)["failure"] == "precondition"


def test_domain_error_exit_two(capsys):
    code, out, err = invoke(capsys, "prove", "uct", "--fn", "log(x)",
                            "--a", "-1", "--b", "1", "--eps", "0.1")
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "domain"
    assert "log" in record["detail"]
    assert record["subexpression"] == "log(x)"


def test_domain_error_past_a_stall_names_its_point(capsys):
    # x^3 has f' = 0 at 0, where the sweep stalls; the look past the stall
    # doubles its step up to 1.49999999999797, past 1, where sqrt(1 - x) is
    # undefined, and the error names that point as its piece
    code, out, err = invoke(capsys, "prove", "sift", "--fn", "x^3 + 0*sqrt(1 - x)",
                            "--a", "-1", "--b", "2")
    assert (code, out) == (2, "")
    record = json.loads(err)
    assert (record["error"], record["subexpression"]) == ("domain", "sqrt(1 - x)")
    assert record["piece"] == ["0x1.7ffffffffdc4ep+0", "0x1.7ffffffffdc4ep+0"]


def test_exp_overflow_exits_two_naming_exp(capsys):
    # exp(exp(3)) is about 5.3e8, far beyond the binary64 range of exp
    code, out, err = invoke(capsys, "prove", "bvt", "--fn", "exp(exp(exp(x)))",
                            "--a", "0", "--b", "3")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "domain",
                               "detail": "overflow: exp above the finite binary64 range"}


@pytest.mark.parametrize("argv, detail", [
    # osc_bound, eta * (b - a), rounds to max with a positive error, so no
    # finite bound exists and no certificate may be written
    (("cft", "--fn", "1", "--a", "0", "--b", "3367420450492015/2251799813685248",
      "--eta", "1.2021204734189789e+308"), "overflow: value above the finite binary64 range"),
    # the point enclosure of -max - 1 rounds down past -max
    (("bvt", "--fn", "x", "--a", "-1.7976931348623158e308", "--b", "0"),
     "overflow: value below the finite binary64 range"),
])
def test_overflow_past_max_exits_two(capsys, argv, detail):
    code, out, err = invoke(capsys, "prove", *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "domain", "detail": detail}


def test_parse_error_exit_two(capsys):
    code, out, err = invoke(capsys, "prove", "bvt", "--fn", "2*+x",
                            "--a", "0", "--b", "1")
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "parse"
    assert record["position"] == 2


@pytest.mark.parametrize("argv", [
    ["evt", "--fn", "x", "--a", "0", "--b", "1", "--eps", "1/0"],
    ["bvt", "--fn", "x", "--a", "1/0", "--b", "1"],
    ["bvt", "--fn", "x", "--a", "0", "--b=-3/0"],
    ["mvi", "--fn", "x", "--a", "0", "--b", "1", "--M", "2/0"],
], ids=["eps", "a", "b", "M"])
def test_zero_denominator_exits_two(capsys, argv):
    code, out, err = invoke(capsys, "prove", *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "usage" and "zero denominator" in record["detail"]


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_non_positive_piece_budget_exits_two(capsys, budget):
    code, out, err = invoke(capsys, "prove", "bvt", "--fn", "sin(x)", "--a", "0",
                            "--b", "1", "--max-pieces", budget)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "usage" and "max_pieces" in record["detail"]


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unwritable_out_exits_two(capsys, tmp_path, where, fmt):
    # exit 1 is a proof failure; a path that cannot be written is a usage error
    path = tmp_path / "no" / "such" / "c.json" if where == "missing-dir" else tmp_path
    code, out, err = invoke(capsys, "prove", "bvt", "--fn", "x", "--a", "0", "--b", "1",
                            "--format", fmt, "--out", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "usage"
    assert record["detail"].startswith(f"cannot write certificate {str(path)!r}: ")


DEEP = "(" * 2000 + "x" + ")" * 2000
LONG = " + ".join(["x"] * 3000)
# a long sum parses; one whose last term is nested past the limit does not
LONG_DEEP = LONG + " + " + "(" * 101 + "x" + ")" * 101


@pytest.mark.parametrize("fn", [DEEP, LONG_DEEP], ids=["nested", "long-sum"])
def test_deep_or_long_expression_exits_two(capsys, fn):
    code, out, err = invoke(capsys, "prove", "bvt", "--fn", fn, "--a", "0", "--b", "1")
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "parse" and "levels of nesting" in record["detail"]
    assert record["position"] == fn.index("(" * 101) + 100


@pytest.mark.parametrize("fn", [DEEP, LONG_DEEP], ids=["nested", "long-sum"])
def test_stored_function_over_the_nesting_limit_is_invalid(capsys, tmp_path, fn):
    code, out, _ = invoke(capsys, "prove", "bvt", "--fn", "x", "--a", "0", "--b", "1",
                          "--format", "json")
    assert code == 0
    cert = loads(out)._replace(fn_source=fn)
    result = check(cert)
    assert not result.valid
    assert result.reason.startswith("stored function does not parse")
    path = tmp_path / "deep.json"
    doc = json.loads(out)
    doc["function"] = fn
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "check", str(path))
    assert code == 1 and err == "" and out.startswith("Invalid")


# 50,001 terms: 100,001 nodes, one more than parse takes
TOO_MANY_NODES = " + ".join(["x"] * 50_001)


def test_stored_function_over_the_node_limit_is_invalid(capsys, tmp_path):
    code, out, _ = invoke(capsys, "prove", "bvt", "--fn", "x", "--a", "0", "--b", "1",
                          "--format", "json")
    assert code == 0
    reason = ("stored function does not parse: "
              "expected at most 100000 nodes at offset 200001, found more")
    assert check(loads(out)._replace(fn_source=TOO_MANY_NODES)) == \
        CheckResult(False, reason)
    path = tmp_path / "big.json"
    doc = json.loads(out)
    doc["function"] = TOO_MANY_NODES
    path.write_text(json.dumps(doc))
    assert invoke(capsys, "check", str(path)) == (1, f"Invalid: {reason}\n", "")


@pytest.mark.parametrize("fn", [" + ".join(["x"] * 101), LONG, "-" * 3000 + "x"],
                         ids=["sum-101", "long-sum", "minus-run"])
def test_long_expression_proves_and_checks_valid(capsys, tmp_path, fn):
    # the "=" form; the spaced form "--fn VALUE" gives the same result, as
    # test_fn_value_starting_with_two_dashes checks
    code, out, err = invoke(capsys, "prove", "bvt", f"--fn={fn}", "--a", "0", "--b", "1",
                            "--format", "json")
    assert code == 0 and err == ""
    cert = loads(out)
    assert cert.fn_source == fn and check(cert).valid
    path = tmp_path / "long.json"
    path.write_text(out)
    assert invoke(capsys, "check", str(path)) == (0, "Valid\n", "")


@pytest.mark.parametrize("fn", ["--x", "-" * 3000 + "x"], ids=["double-minus", "minus-run"])
def test_fn_value_starting_with_two_dashes(capsys, tmp_path, fn):
    # argparse took "--x" for an option flag and left "--fn --x" without a value
    spaced = invoke(capsys, "prove", "bvt", "--fn", fn, "--a", "0", "--b", "1",
                    "--format", "json")
    assert spaced == invoke(capsys, "prove", "bvt", f"--fn={fn}", "--a", "0", "--b", "1",
                            "--format", "json")
    code, out, err = spaced
    assert (code, err) == (0, "")
    assert loads(out).fn_source == fn
    path = tmp_path / "dashes.json"
    path.write_text(out)
    assert invoke(capsys, "check", str(path)) == (0, "Valid\n", "")


# a constant whose decimal expansion (4,400 digits) is longer than CPython
# converts between int and str in one piece
LONG_CONSTANT = "1" + "0" * 299 + "." + "1" * 4100


def test_domain_error_names_a_long_constant(capsys, tmp_path):
    fn = f"log(x - {LONG_CONSTANT})"
    code, out, err = invoke(capsys, "prove", "bvt", "--fn", fn, "--a", "0", "--b", "1")
    assert (code, out) == (2, "")
    record = json.loads(err)
    assert record["error"] == "domain" and record["subexpression"] == fn
    code, out, _ = invoke(capsys, "prove", "bvt", "--fn", "x", "--a", "0", "--b", "1",
                          "--format", "json")
    result = check(loads(out)._replace(fn_source=fn))
    assert not result.valid and result.reason.startswith("re-evaluation failed: log undefined")
    path = tmp_path / "constant.json"
    doc = json.loads(out)
    doc["function"] = fn
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "check", str(path))
    assert code == 1 and err == "" and out.startswith("Invalid")


RUN = "9" * 5000


@pytest.mark.parametrize("fn, start", [(RUN + " * x", 0), ("x + 0." + RUN, 6), ("x^" + RUN, 2)],
                         ids=["integer", "fraction", "exponent"])
def test_over_long_digit_run_is_a_parse_error(capsys, tmp_path, fn, start):
    code, out, err = invoke(capsys, "prove", "bvt", "--fn", fn, "--a", "0", "--b", "1")
    assert (code, out) == (2, "")
    record = json.loads(err)
    assert (record["error"], record["position"]) == ("parse", start)
    code, out, _ = invoke(capsys, "prove", "bvt", "--fn", "x", "--a", "0", "--b", "1",
                          "--format", "json")
    result = check(loads(out)._replace(fn_source=fn))
    assert not result.valid and result.reason.startswith("stored function does not parse")
    path = tmp_path / "digits.json"
    doc = json.loads(out)
    doc["function"] = fn
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "check", str(path))
    assert code == 1 and err == "" and out.startswith("Invalid")


@pytest.mark.parametrize("theorem, eps", [("uct", "1e307"), ("dit", "1.5e308")])
def test_probe_wider_than_max_is_rejected_not_fatal(capsys, tmp_path, theorem, eps):
    # the first probe, [0, 10], encloses f in [-1.5e308, 1.5e308], whose
    # width is above max: the sweep halves instead of overflowing
    fn = "15" + "0" * 307 + "*sin(x)/(1+x^2)"
    path = tmp_path / "wide.json"
    code, _, err = invoke(capsys, "prove", theorem, "--fn", fn, "--a", "0", "--b", "80",
                          "--eps", eps, "--out", str(path))
    assert (code, err) == (0, "")
    assert invoke(capsys, "check", str(path)) == (0, "Valid\n", "")


def _per_prefix_integral(f, a, b, eps, max_pieces):
    return run_sweep(Problem(f, a, b, "dit", eps=eps, max_pieces=max_pieces))


@pytest.mark.parametrize("argv, code", [
    (["--fn", "1000000000000000+x", "--a", "0", "--b", "1", "--eps", "1e-3"], 1),
    (["--fn", "log(x)", "--a", "-1", "--b", "1", "--eps", "1e-3"], 2),
    (["--fn", "sin(x)", "--a", "0", "--b", "3", "--eps", "1e-3", "--max-pieces", "50"], 1),
], ids=["stall", "domain", "budget"])
def test_failing_integral_prints_what_the_per_prefix_sweep_prints(capsys, monkeypatch,
                                                                   argv, code):
    got = invoke(capsys, "prove", "dit", *argv)
    monkeypatch.setattr(cli, "prove_integral", _per_prefix_integral)
    assert got == invoke(capsys, "prove", "dit", *argv)
    assert got[0] == code


# uct inputs the mean-value route cannot certify, and the sha256 of the exit
# code and the output that the overlap route alone printed for them
@pytest.mark.parametrize("argv, digest", [
    (["--fn", "sqrt(x)", "--a", "0", "--b", "4", "--eps", "0.1"],  # f' unbounded at 0
     "69b8a3980e5cc2bff2703bc8d0f9c3573cb04db57a6746cce0ef34a78a2def78"),
    (["--fn", "sqrt(4 - x)", "--a", "0", "--b", "4", "--eps", "0.1"],  # f' unbounded at b
     "f2fa7592a48d448fa1b0da43ac26ecdd74088669165de7a019674ee9226fa5df"),
    # f' is 0 at every point, but its enclosure on a piece never is
    (["--fn", "x*x - x*x", "--a", "0", "--b", "1", "--eps", "0.1"],
     "d9522327fd243444e5bdb25cb253de69a7972ac98dedd986ae7f896159f909cd"),
    (["--fn", "sin(x)", "--a", "0", "--b", "2", "--eps", "0.1", "--max-pieces", "2"],
     "dd2e80e2e99091af22930ac939a9e727db264fbe41db8a156c3855d41aea37d0"),
    (["--fn", "log(x)", "--a", "-1", "--b", "1", "--eps", "0.1"],
     "0bf6d71487e1e4bbe68f6d9b55eb71abd2f143b3527e3b11a7ce6184026a867b"),
], ids=["sqrt-boundary", "sqrt-boundary-at-b", "stall", "budget", "domain"])
def test_uct_fallback_prints_what_the_overlap_route_prints(capsys, monkeypatch, argv, digest):
    code, out, err = invoke(capsys, "prove", "uct", *argv)
    assert hashlib.sha256(f"{code}\n{out}{err}".encode()).hexdigest() == digest
    monkeypatch.setattr(cli, "prove_modulus", overlap_modulus)
    assert invoke(capsys, "prove", "uct", *argv) == (code, out, err)


def test_integral_gap_lifted_by_rounding_is_a_stall(capsys):
    # every directed Darboux term of 10^12 + x rounds by up to ulp(10^12),
    # about 1.2e-4, so the pieces keep their budget but the sums' gap does
    # not stay below eps: no certificate is returned that check rejects
    code, out, err = invoke(capsys, "prove", "dit", "--fn", "1000000000000+x",
                            "--a", "0", "--b", "1", "--eps", "1e-3")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"failure": "stalled", "at": "0x1.0000000000000p+0",
                               "detail": "Darboux gap not below eps",
                               "witness": None, "enclosure": None}
    res = run_sweep(Problem(parse("1000000000000+x"), 0.0, 1.0, "dit", eps=1e-3))
    assert res == SweepFailure(FailureKind.STALLED, at=1.0,
                               detail="Darboux gap not below eps")


_CONTRACT_PARAMS = {"evt": ["--eps", "1e-3"], "uct": ["--eps", "1e-3"],
                    "dit": ["--eps", "1e-3"], "mvi": ["--M", "10"], "cft": ["--eta", "10"]}
_CONTRACT_G = ("x", "x^3 - x", "sqrt(x + 2)", "sin(3*x)", "exp(x)", "1/(1 + x^2)")


def _quiet(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


@example(theorem="dit", c=10 ** 12, g="x^3 - x")
@example(theorem="dit", c=10 ** 12, g="sqrt(x + 2)")
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(theorem=st.sampled_from(cli.THEOREMS),
       c=st.sampled_from([0] + [s * 10 ** k for k in range(16) for s in (1, -1)]),
       g=st.sampled_from(_CONTRACT_G))
def test_every_proved_certificate_checks_valid(tmp_path_factory, theorem, c, g):
    # the exit-code contract: a prove that exits 0 wrote a certificate that
    # the independent checker calls Valid, whatever the size of f
    path = tmp_path_factory.mktemp("contract") / "cert.json"
    code, _ = _quiet(["prove", theorem, "--fn", f"{c} + {g}", "--a", "0", "--b", "1",
                        *_CONTRACT_PARAMS.get(theorem, []), "--max-pieces", "20000",
                        "--out", str(path)])
    if code == 0:
        assert _quiet(["check", str(path)]) == (0, "Valid\n"), (theorem, c, g)


_MUTATED_PROVES = [
    ["bvt", "--fn", "x^2", "--a", "0", "--b", "1"],
    ["evt", "--fn", "sin(x)", "--a", "0", "--b", "3", "--eps", "0.1"],
    ["ivt", "--fn", "x - 3", "--a", "0", "--b", "1"],
    ["ivt", "--fn", "x^2 - 2", "--a", "0", "--b", "2", "--tol", "1e-3"],
    ["uct", "--fn", "sin(x)", "--a", "0", "--b", "2", "--eps", "0.5"],
    ["dit", "--fn", "x^2", "--a", "0", "--b", "1", "--eps", "0.1"],
    ["mvi", "--fn", "x^2", "--a", "0", "--b", "1", "--M", "2.5"],
    ["cft", "--fn", "sin(x)", "--a", "0", "--b", "1", "--eta", "1.5"],
    ["sift", "--fn", "exp(x)", "--a", "0", "--b", "1"],
]
_MUTANTS = [None, True, False, 0, -1, 2 ** 70, "0x1.fffffffffffffp+1023",
            "-0x1.fffffffffffffp+1023", "0x0.0000000000001p-1022", "0x1.0000000000000p-1022",
            "nan", "inf", "", [], {}]
_DELETE = object()


def _leaves(node, path=()):
    """The paths of the scalar leaves of a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key)


@pytest.fixture(scope="module")
def proved_documents():
    docs = []
    for argv in _MUTATED_PROVES:
        code, text = _quiet(["prove", *argv, "--format", "json"])
        assert code == 0, argv
        docs.append(json.loads(text))
    return docs


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_documents_never_raise_past_the_checker(proved_documents, data):
    # a checker reads documents from anywhere: a hostile one is Invalid or
    # refused as malformed, never an exception of another kind
    doc = copy.deepcopy(data.draw(st.sampled_from(proved_documents)))
    for _ in range(data.draw(st.integers(1, 2))):
        *parents, key = data.draw(st.sampled_from(list(_leaves(doc))))
        target = doc
        for step in parents:
            target = target[step]
        value = data.draw(st.sampled_from([_DELETE, *_MUTANTS]))
        if value is _DELETE:
            del target[key]
        else:
            target[key] = copy.deepcopy(value)
    try:
        result = check(from_document(doc))
    except StructureError:
        return
    assert isinstance(result, CheckResult)


def test_one_process_runs_like_fresh_processes(capsys, tmp_path):
    # the argparse parser is built once per process; no parsed state may
    # carry from one run to the next
    cert = tmp_path / "evt.json"
    cover = tmp_path / "cover.txt"
    cover.write_text("(-1/10, 6/10)\n(4/10, 11/10)\n")
    runs = [
        ["prove", "evt", "--fn", "x^2", "--a", "0", "--b", "1", "--eps", "0.01",
         "--out", str(cert)],
        ["prove", "bvt", "--fn", "x^2", "--a", "0", "--b", "1"],
        ["prove", "dit", "--fn", "x^2", "--a", "0", "--b", "1"],
        ["check", str(cert)],
        ["cover", "--file", str(cover), "--a", "0", "--b", "1"],
    ]
    in_process = [invoke(capsys, *argv) for argv in runs]
    src = os.path.dirname(os.path.dirname(suparg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv, got in zip(runs, in_process):
        fresh = subprocess.run([sys.executable, "-m", "suparg.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert in_process[2][0] == 2  # dit without --eps is refused


def test_python_dash_m_suparg_runs_the_cli(capsys):
    argv = ["prove", "bvt", "--fn", "x", "--a", "0", "--b", "1", "--format", "json"]
    code, out, _ = invoke(capsys, *argv)
    src = os.path.dirname(os.path.dirname(suparg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh = subprocess.run([sys.executable, "-m", "suparg", *argv], env=env,
                           capture_output=True, text=True, timeout=120)
    assert code == 0
    assert (fresh.returncode, fresh.stdout) == (0, out)


_WIDEST = str(2 ** 1023)


@pytest.mark.parametrize("theorem", cli.THEOREMS)
def test_domain_wider_than_binary64_exits_two(capsys, theorem):
    # b - a = 2^1024 overflows: refused before any sweep, which would
    # otherwise halve an infinite step width forever
    code, out, err = invoke(capsys, "prove", theorem, "--fn", "x", "--a", "-" + _WIDEST,
                            "--b", _WIDEST, *_CONTRACT_PARAMS.get(theorem, []))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage",
                               "detail": "domain width b - a overflows binary64"}


_LEAST = "1/" + str(2 ** 1074)


@pytest.mark.parametrize("theorem", cli.THEOREMS)
def test_domain_too_narrow_for_h_min_exits_two(capsys, theorem):
    # b - a = 2^-1074, the least subnormal: the sweep's h_min underflows to 0
    code, out, err = invoke(capsys, "prove", theorem, "--fn", "x", "--a", "0", "--b", _LEAST,
                            *_CONTRACT_PARAMS.get(theorem, []))
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert json.loads(err) == {
        "error": "usage",
        "detail": "domain width b - a too narrow: h_min = (b - a) * 2**-40 underflows to 0"}


@pytest.mark.parametrize("theorem", cli.THEOREMS)
def test_engine_record_counts_pieces_and_names_h_min(capsys, theorem):
    a, b = 0.5, 1.75
    code, out, err = invoke(capsys, "prove", theorem, "--fn", "x^2 - 1/2", "--a", str(a),
                            "--b", str(b), *_CONTRACT_PARAMS.get(theorem, []),
                            "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["engine"] == {"pieces": piece_count(from_document(doc)),
                             "h_min": float.hex((b - a) * 2 ** -40)}


def test_prove_takes_exactly_the_known_options():
    # the theorem's inputs, the rows' parameter keys and the output options:
    # a new sweep knob fails here until it is added on purpose
    parser = cli._build_parser()
    subparsers = next(act for act in parser._actions
                      if isinstance(act, argparse._SubParsersAction))
    options = {opt for act in subparsers.choices["prove"]._actions
               if not isinstance(act, argparse._HelpAction) for opt in act.option_strings}
    assert options == {"--fn", "--a", "--b", "--eps", "--M", "--eta", "--tol",
                       "--max-pieces", "--out", "--format"}


def test_integral_budget_overflow_comes_after_the_first_domain_error(capsys):
    # on [0, 2^1023] the per-prefix budget eps / (2 (b - a)) overflows; the
    # first piece's domain error is still the one reported
    code, out, err = invoke(capsys, "prove", "dit", "--fn", "log(x)", "--a", "0",
                            "--b", _WIDEST, "--eps", "1")
    record = json.loads(err)
    assert (code, out, record["error"]) == (2, "", "domain")
    assert record["detail"].startswith("log undefined")
    code, _, err = invoke(capsys, "prove", "dit", "--fn", "x", "--a", "0", "--b", _WIDEST,
                          "--eps", "1")
    assert code == 2 and json.loads(err)["detail"].startswith("overflow")


def test_usage_errors(capsys):
    code, _, err = invoke(capsys, "prove", "dit", "--fn", "x", "--a", "0", "--b", "1")
    assert code == 2 and json.loads(err)["error"] == "usage"  # missing --eps
    code, _, err = invoke(capsys, "prove", "bvt", "--fn", "x", "--a", "0.1", "--b", "1")
    assert code == 2
    assert "not exactly representable" in json.loads(err)["detail"]
    code, _, err = invoke(capsys, "prove", "zvt", "--fn", "x", "--a", "0", "--b", "1")
    assert code == 2


_IVT_HALF = ["prove", "ivt", "--fn", "x-0.5", "--a", "0", "--b", "1"]


@pytest.mark.parametrize("argv, code, stream, record", [
    (["prove", "bvt", "--fn", "x", "--a", "1", "--b", "0"], 2, "err",
     {"error": "usage", "detail": "--a must not exceed --b"}),
    (["prove", "dit", "--fn", "x", "--a", "0", "--b", "1", "--eps", "1e-400"], 2, "err",
     {"error": "usage", "detail": "--eps '1e-400' underflows to zero"}),
    (_IVT_HALF + ["--tol", "0"], 2, "err", {"error": "usage", "detail": "tol must be positive"}),
    (_IVT_HALF + ["--tol", "1e-300"], 1, "out",
     {"failure": "inconclusive",
      "detail": "sign undecidable everywhere inside [0.49999999999999994, 0.5000000000000001] "
                "(width 1.6653345369377348e-16 > tol 9.999999999999999e-301)"}),
    (["cover", "--file", "{missing}", "--a", "0", "--b", "1"], 2, "err",
     {"error": "usage", "detail": "[Errno 2] No such file or directory: '{missing}'"}),
    (["clopen", "--file", "{missing}", "--a", "0", "--b", "1"], 2, "err",
     {"error": "usage", "detail": "[Errno 2] No such file or directory: '{missing}'"}),
    (["clopen", "--file", "{set}", "--a", "0", "--b", "1"], 2, "err",
     {"error": "usage", "detail": "set component [1/2, 2] is not contained in [0, 1]"}),
    (["cover", "--file", "{cover}", "--a", "0", "--b", "1"], 2, "err",
     {"error": "usage", "detail": "line 3: cover element [1/2, 2) is not an open interval"}),
    (["prove", "bvt", "--fn", TOO_MANY_NODES, "--a", "0", "--b", "1"], 2, "err",
     {"error": "parse", "position": 200_001,
      "detail": "expected at most 100000 nodes at offset 200001, found more"}),
], ids=["a-after-b", "eps-underflow", "tol-zero", "tol-below-ulp", "cover-no-file",
        "clopen-no-file", "clopen-set-outside", "cover-element-not-open", "too-many-nodes"])
def test_contract_line(capsys, tmp_path, argv, code, stream, record):
    # one record on one stream, the other empty, and the exit code
    files = {"{missing}": str(tmp_path / "missing.txt"), "{set}": str(tmp_path / "set.txt"),
             "{cover}": str(tmp_path / "cover.txt")}
    # of the two components outside [0, 1], the message names the first
    (tmp_path / "set.txt").write_text("[3, 4]\n[0, 1/4]\n[1/2, 2]\n[5/2, 3)\n")
    (tmp_path / "cover.txt").write_text("(-1, 1/2)\n\n[1/2, 2)\n(0, 3)\n")
    argv = [files.get(arg, arg) for arg in argv]
    record = {k: v.replace("{missing}", files["{missing}"]) if isinstance(v, str) else v
              for k, v in record.items()}
    got_code, out, err = invoke(capsys, *argv)
    quiet, loud = (err, out) if stream == "out" else (out, err)
    assert (got_code, quiet, json.loads(loud)) == (code, "", record)


@pytest.mark.parametrize("argv, option", [
    (["prove", "bvt", "--fn", "x", "--a", "0", "--b", "1", "--eps", "0.1"], "--eps"),
    (["prove", "bvt", "--fn", "x", "--a", "0", "--b", "1", "--tol", "1e-9"], "--tol"),
    (["prove", "mvi", "--fn", "x", "--a", "0", "--b", "1", "--M", "2", "--eta", "5",
      "--eps", "3"], "--eps"),
    (["prove", "evt", "--fn", "x", "--a", "0", "--b", "1", "--eps", "0.1", "--M", "1"], "--M"),
], ids=["bvt-eps", "bvt-tol", "mvi-eta-eps", "evt-M"])
def test_prove_refuses_a_parameter_its_theorem_does_not_take(capsys, argv, option):
    # as Problem refuses eps for bvt; ivt alone takes --tol, which defaults to 1e-9
    assert invoke(capsys, *argv) == (
        2, "", json.dumps({"detail": f"{argv[1]} takes no {option}", "error": "usage"}) + "\n")


@pytest.mark.parametrize("head, option, value, tail, exit_code", [
    (["prove", "bvt", "--fn", "x"], "--a", "-1e2", ["--b", "1"], 0),
    (["prove", "bvt", "--fn", "x"], "--a", "-5E-1", ["--b", "1"], 0),
    (["prove", "bvt", "--fn", "x"], "--a", "-1/2", ["--b", "1"], 0),
    (["prove", "bvt", "--fn", "x", "--a", "-2e2"], "--b", "-1e2", [], 0),
    (["prove", "mvi", "--fn", "x", "--a", "0", "--b", "1"], "--M", "-1e2", [], 2),
    (["prove", "evt", "--fn", "x", "--a", "0", "--b", "1"], "--eps", "-1e-3", [], 2),
    (["cover", "--file", "{open}"], "--a", "-1e1", ["--b", "1"], 0),
    (["clopen", "--file", "{closed}"], "--a", "-1e1", ["--b", "1"], 0),
    (["prove", "bvt"], "--fn", "-x^2", ["--a", "0", "--b", "1"], 0),
    (["prove", "bvt"], "--fn", "-(x)", ["--a", "0", "--b", "1"], 0),
    (["prove", "bvt"], "--fn", "-sin(x)", ["--a", "0", "--b", "1"], 0),
], ids=["a-e2", "a-E-1", "a-ratio", "b-e2", "M", "eps", "cover", "clopen",
        "fn-power", "fn-paren", "fn-call"])
def test_negative_option_value_in_e_notation(capsys, tmp_path, head, option, value, tail,
                                             exit_code):
    # argparse took "-1e2" or "-x^2" for an option flag and refused "--a -1e2"
    files = {"{open}": tmp_path / "cover.txt", "{closed}": tmp_path / "set.txt"}
    files["{open}"].write_text("(-20, 2)\n")
    files["{closed}"].write_text("[-10, 1]\n")
    head = [str(files.get(arg, arg)) for arg in head]
    spaced = invoke(capsys, *head, option, value, *tail)
    assert spaced == invoke(capsys, *head, f"{option}={value}", *tail)
    assert spaced[0] == exit_code


def test_negative_inexact_endpoint_still_refused(capsys):
    code, out, err = invoke(capsys, "prove", "bvt", "--fn", "x", "--a", "-1e-3", "--b", "1")
    assert code == 2 and out == ""
    assert "not exactly representable" in json.loads(err)["detail"]


@pytest.mark.parametrize("text, where", [
    ("0.1", ["--a", "0", "--b"]),
    ("-0.1", ["--b", "1", "--a"]),
    ("709.78", ["--a", "0", "--b"]),
    ("1e300", ["--a", "0", "--b"]),
    ("1e-320", ["--b", "1", "--a"]),  # a subnormal
])
def test_suggested_endpoint_is_accepted(capsys, text, where):
    # the suggestion once printed the shortest repr, which reads back as the
    # decimal it was rounded from, so each retry was refused one ulp lower
    code, _, err = invoke(capsys, "prove", "bvt", "--fn", "x", *where, text)
    assert code == 2
    suggested = json.loads(err)["detail"].rsplit(" ", 1)[-1]
    want = float_down(parse_rational(text))
    assert F(want) < parse_rational(text)
    code, out, err = invoke(capsys, "prove", "bvt", "--fn", "x", *where, suggested,
                            "--format", "json")
    assert (code, err) == (0, "")
    assert cli._exact_endpoint(suggested, where[-1][2:]) == want
    domain = json.loads(out)["domain"]
    assert float.fromhex(domain[where[-1] == "--b"]) == want


def test_prove_determinism_bytes(capsys):
    args = ("prove", "dit", "--fn", "x^2", "--a", "0", "--b", "1",
            "--eps", "1e-3", "--format", "json")
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["schema"] == "suparg-cert/1"


def test_prove_all_theorems_quick(capsys):
    cases = [
        ("bvt", []),
        ("evt", ["--eps", "0.01"]),
        ("uct", ["--eps", "0.5"]),
        ("dit", ["--eps", "0.05"]),
        ("sift", []),
        ("ift", []),
        ("mvi", ["--M", "8"]),
    ]
    for theorem, extra in cases:
        code, out, err = invoke(capsys, "prove", theorem, "--fn", "exp(x)",
                                "--a", "0", "--b", "2", *extra)
        assert code == 0, (theorem, out, err)
    code, _, _ = invoke(capsys, "prove", "cft", "--fn", "5", "--a", "0",
                        "--b", "2", "--eta", "0")
    assert code == 0


# ---------------------------------------------------------------------------
# cover / clopen
# ---------------------------------------------------------------------------

def test_cover_command(capsys, tmp_path):
    cov = tmp_path / "cover.txt"
    cov.write_text("(-1/10, 6/10)\n(4/10, 11/10)\n")
    code, out, _ = invoke(capsys, "cover", "--file", str(cov), "--a", "0", "--b", "1")
    assert code == 0
    assert "[0, 1]" in out

    cov.write_text("(-1/10, 1/2)\n(1/2, 11/10)\n")
    code, out, _ = invoke(capsys, "cover", "--file", str(cov), "--a", "0", "--b", "1")
    assert code == 1
    assert json.loads(out)["point"] == "1/2"


def test_cover_json_checks(capsys, tmp_path):
    cov = tmp_path / "cover.txt"
    cov.write_text("(-1/10, 6/10)\n(4/10, 11/10)\n")
    code, out, _ = invoke(capsys, "cover", "--file", str(cov), "--a", "0",
                          "--b", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["type"] == "subcover"
    assert doc["certificate"]["indices"] == [0, 1]
    # the emitted document is itself checkable
    path = tmp_path / "subcover.json"
    path.write_text(out)
    code, out, _ = invoke(capsys, "check", str(path))
    assert code == 0


def test_clopen_command(capsys, tmp_path):
    sfile = tmp_path / "set.txt"
    sfile.write_text("[0, 1]\n")
    code, out, _ = invoke(capsys, "clopen", "--file", str(sfile), "--a", "0", "--b", "1")
    assert code == 0
    assert "covers_all" in out

    sfile.write_text("[0, 1/2)\n")
    code, out, _ = invoke(capsys, "clopen", "--file", str(sfile), "--a", "0", "--b", "1")
    assert code == 1
    assert "not_rel_closed" in out and "1/2" in out


def _subcover_doc():
    cover = Cover(tuple(RatInterval(F(lo), F(hi), True, True) for lo, hi in
                        (("-1/10", "2/5"), ("3/10", "7/10"), ("3/5", "11/10"))))
    return to_document(extract_subcover(cover, F(0), F(1)))


def _clopen_doc():
    u = RatIntervalSet((RatInterval(F(0), F(1, 2), False, True),))
    return to_document(analyze_clopen(u, F(0), F(1)))


def _set_chain(*points):
    return lambda doc: doc["certificate"].update(chain=list(points))


def _reversed_subcover(doc):
    doc["domain"] = ["1", "0"]
    doc["certificate"]["chain"] = ["1", "7/10", "2/5", "0"]


HOSTILE_TOPOLOGY = {
    "chain-leaves-domain": (_subcover_doc, _set_chain("0", "5", "-3")),
    "chain-not-increasing": (_subcover_doc, _set_chain("0", "7/10", "2/5", "1")),
    "chain-too-short": (_subcover_doc, _set_chain("0", "1")),
    "chain-too-long": (_subcover_doc, _set_chain("0", "1/5", "2/5", "7/10", "1")),
    "chain-point-outside-element": (_subcover_doc, _set_chain("0", "1/4", "7/10", "1")),
    "subcover-reversed-domain": (_subcover_doc, _reversed_subcover),
    "clopen-reversed-domain": (_clopen_doc, lambda doc: doc.update(domain=["1", "0"])),
    "clopen-set-outside-domain":
        (_clopen_doc, lambda doc: doc["certificate"]["set"].__setitem__(0, "[0, 2)")),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_TOPOLOGY))
def test_hostile_topology_document_is_invalid(capsys, tmp_path, name):
    make, tamper = HOSTILE_TOPOLOGY[name]
    doc = make()
    assert check(from_document(doc))
    tamper(doc)
    assert not check(from_document(doc))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "check", str(path))
    assert code == 1 and err == ""
    assert out.startswith("Invalid")


def test_cover_rejects_closed_elements(capsys, tmp_path):
    cov = tmp_path / "cover.txt"
    cov.write_text("[0, 1]\n")
    code, _, err = invoke(capsys, "cover", "--file", str(cov), "--a", "0", "--b", "1")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_huge_decimal_exponent_exits_two_at_once(capsys, tmp_path):
    # "1e100000000" would be a 330-Mbit power of ten; it is refused unbuilt
    cov = tmp_path / "cover.txt"
    cov.write_text("(0, 1e100000000)\n")
    start = time.perf_counter()
    code, out, err = invoke(capsys, "cover", "--file", str(cov), "--a", "0", "--b", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "usage" and "decimal exponent" in record["detail"]

    doc = _subcover_doc()
    doc["certificate"]["elements"][0] = "(-1e100000000, 2/5)"
    path = tmp_path / "subcover.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "check", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_check_rejects_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    zero_den = _subcover_doc()
    zero_den["certificate"]["chain"][1] = "1/0"
    # the second nests too deep; the third has a zero denominator
    for text in ("{not json", "[" * 100_000 + "]" * 100_000, json.dumps(zero_den)):
        bad.write_text(text)
        code, _, err = invoke(capsys, "check", str(bad))
        assert code == 2
        assert json.loads(err)["error"] == "usage"
