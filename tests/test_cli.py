"""Command-line behavior: exit codes, determinism, and the JSON surfaces."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import suparg
from suparg.certificates import check, from_document, loads, to_document
from suparg.cli import run
from suparg.numeric import RatInterval
from suparg.topology import Cover, RatIntervalSet, analyze_clopen, extract_subcover


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
    cert = dataclasses.replace(loads(out), fn_source=fn)
    result = check(cert)
    assert not result.valid
    assert result.reason.startswith("stored function does not parse")
    path = tmp_path / "deep.json"
    doc = json.loads(out)
    doc["function"] = fn
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "check", str(path))
    assert code == 1 and err == "" and out.startswith("Invalid")


@pytest.mark.parametrize("fn", [" + ".join(["x"] * 101), LONG, "-" * 3000 + "x"],
                         ids=["sum-101", "long-sum", "minus-run"])
def test_long_expression_proves_and_checks_valid(capsys, tmp_path, fn):
    # "=" keeps argparse from taking a value that starts with "--" for a flag
    code, out, err = invoke(capsys, "prove", "bvt", f"--fn={fn}", "--a", "0", "--b", "1",
                            "--format", "json")
    assert code == 0 and err == ""
    cert = loads(out)
    assert cert.fn_source == fn and check(cert).valid
    path = tmp_path / "long.json"
    path.write_text(out)
    assert invoke(capsys, "check", str(path)) == (0, "Valid\n", "")


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
    result = check(dataclasses.replace(loads(out), fn_source=fn))
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


def test_usage_errors(capsys):
    code, _, err = invoke(capsys, "prove", "dit", "--fn", "x", "--a", "0", "--b", "1")
    assert code == 2 and json.loads(err)["error"] == "usage"  # missing --eps
    code, _, err = invoke(capsys, "prove", "bvt", "--fn", "x", "--a", "0.1", "--b", "1")
    assert code == 2
    assert "not exactly representable" in json.loads(err)["detail"]
    code, _, err = invoke(capsys, "prove", "zvt", "--fn", "x", "--a", "0", "--b", "1")
    assert code == 2


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
        (_clopen_doc, lambda doc: doc["certificate"]["set"][0].update(hi="2")),
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
    doc["certificate"]["cover"][0]["lo"] = "-1e100000000"
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
