"""Command-line front end: prove, check, cover, clopen.

Scalar arguments are parsed as exact decimals.  Domain endpoints must be
exactly representable in binary64 (they anchor exact partition arithmetic);
tolerance-like parameters are rounded toward the stricter side.  Output is
deterministic: identical invocations produce byte-identical certificate
JSON, in the compact layout of certificates.dumps; `check` reads any JSON
layout.  Proof failures exit 1 with a witness record on stdout; usage, parse
and domain errors exit 2 with a one-line JSON record on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .certificates import (
    ROWS,
    CheckResult,
    ClopenVerdict,
    check,
    conclusion_of,
    dumps,
    from_document,
    piece_count,
)
from .expr import ParseError, parse
from .numeric import (
    DomainError,
    float_down,
    float_to_hex,
    format_rational,
    interval_to_hex,
    parse_rational,
)
from .sweep import SweepFailure, default_h_min
from .theorems import (  # noqa: F401  provers are called by the name their row gives
    Inconclusive,
    PreconditionError,
    prove_bound,
    prove_flat,
    prove_integral,
    prove_max,
    prove_modulus,
    prove_monotone,
    prove_mvi,
    prove_root,
)
from .topology import Cover, RatIntervalSet, UncoveredPoint, analyze_clopen, \
    extract_subcover, parse_interval_file

# theorem code -> the row of the certificate its prover returns on success
_PROVED = {th: row for row in ROWS if row.prover for th in row.theorems}
THEOREMS = tuple(_PROVED)
# parameters a theorem that takes them may omit
_DEFAULTS = {"tol": "1e-9"}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a token that starts with "-" for an option flag unless
        # its negative-number pattern, which has no exponent or ratio form,
        # matches; so "--a -1e2" or "--fn -x^2" would find no value.  The only
        # single-dash option is -h, which argparse matches before this
        # pattern, so every other token with one leading "-" is a value, left
        # to parse_rational or parse
        self._negative_number_matcher = re.compile(r"-[^-]")

    def parse_args(self, args: list[str], namespace=None):
        # A token that starts with "--" is taken for an option flag even as
        # the value of --fn, where "--x" is -(-x); joined as "--fn=--x" it is
        # the value, as argparse reads that form
        joined = []
        for token in args:
            if joined and joined[-1] == "--fn":
                joined[-1] = "--fn=" + token
            else:
                joined.append(token)
        return super().parse_args(joined, namespace)

    def error(self, message):  # one machine-parsable line instead of usage spam
        raise UsageError(message)


@functools.cache  # built on the first run; parsing leaves the parser unchanged
def _build_parser() -> _Parser:
    p = _Parser(prog="suparg", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("prove", help="run a prover and emit a certificate")
    pr.add_argument("theorem", choices=THEOREMS)
    pr.add_argument("--fn", required=True, help="function expression in x")
    pr.add_argument("--a", required=True, help="left endpoint (exact binary64)")
    pr.add_argument("--b", required=True, help="right endpoint (exact binary64)")
    pr.add_argument("--eps", help="tolerance for evt/uct/dit")
    pr.add_argument("--M", help="derivative cap for mvi")
    pr.add_argument("--eta", help="flatness budget for cft")
    pr.add_argument("--tol", help="bracket width for ivt (default 1e-9)")
    pr.add_argument("--max-pieces", dest="max_pieces", type=int, default=2 ** 20)
    pr.add_argument("--out", help="write certificate JSON to this file")
    pr.add_argument("--format", choices=("json", "text"), default="text")

    ck = sub.add_parser("check", help="re-verify a certificate file")
    ck.add_argument("file")
    ck.add_argument("--format", choices=("json", "text"), default="text")

    cv = sub.add_parser("cover", help="extract a finite subcover")
    cv.add_argument("--file", required=True, help="one open interval per line")
    cv.add_argument("--a", required=True)
    cv.add_argument("--b", required=True)
    cv.add_argument("--format", choices=("json", "text"), default="text")

    cl = sub.add_parser("clopen", help="analyze a relatively clopen candidate")
    cl.add_argument("--file", required=True, help="one interval per line")
    cl.add_argument("--a", required=True)
    cl.add_argument("--b", required=True)
    cl.add_argument("--format", choices=("json", "text"), default="text")
    return p


def _exact_endpoint(text: str, name: str) -> float:
    q = parse_rational(text)
    f = float_down(q)
    if Fraction(f) != q:
        raise UsageError(
            f"--{name} {text!r} is not exactly representable in binary64; "
            f"use a dyadic value such as {format_rational(Fraction(f))}")
    return f


def _strict_param(text: str, name: str) -> float:
    q = parse_rational(text)
    f = float_down(q)  # round toward the stricter side
    if f <= 0 and q > 0:
        raise UsageError(f"--{name} {text!r} underflows to zero")
    return f


def _error_line(category: str, detail: str, **extra) -> None:
    record = {"error": category, "detail": detail}
    record.update(extra)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _emit_failure(record: dict) -> int:
    print(json.dumps(record, sort_keys=True))
    return 1


def _failure_record(res: SweepFailure) -> dict:
    record = {"failure": res.kind.value, "at": float_to_hex(res.at),
              "detail": res.detail}
    record["witness"] = None if res.witness is None else interval_to_hex(res.witness)
    record["enclosure"] = None if res.enclosure is None else interval_to_hex(res.enclosure)
    return record


def _cmd_prove(args) -> int:
    f = parse(args.fn)
    a = _exact_endpoint(args.a, "a")
    b = _exact_endpoint(args.b, "b")
    if a > b:
        raise UsageError("--a must not exceed --b")
    th = args.theorem
    row = _PROVED[th]
    takes = [row.key(name) for name in row.params]
    for key in ("eps", "M", "eta", "tol"):
        if getattr(args, key) is not None and key not in takes:
            raise UsageError(f"{th} takes no --{key}")
    values = []
    for key in takes:
        text = _DEFAULTS.get(key) if getattr(args, key) is None else getattr(args, key)
        if text is None:
            raise UsageError(f"{th} requires --{key}")
        values.append(_strict_param(text, key))
    # looked up at call time, so a wrapper installed on this module sees the call
    prover = globals()[row.prover]
    try:
        result = prover(f, a, b, *values, *row.theorems[th].values(),
                        max_pieces=args.max_pieces)
    except PreconditionError as err:
        return _emit_failure({"failure": "precondition", "detail": str(err)})
    except Inconclusive as err:
        return _emit_failure({"failure": "inconclusive", "detail": str(err)})

    if isinstance(result, SweepFailure):
        return _emit_failure(_failure_record(result))

    engine = {"pieces": piece_count(result), "h_min": float_to_hex(default_h_min(a, b))}
    text = dumps(result, engine)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as err:
            raise UsageError(f"cannot write certificate {args.out!r}: {err}") from None
    if args.format == "json":
        sys.stdout.write(text)
    else:
        print(conclusion_of(result).text)
        if not args.out:
            sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    try:
        with open(args.file) as handle:
            doc = json.load(handle)
        cert = from_document(doc)
    # JSON and StructureError are ValueErrors; nesting too deep for the
    # decoder is a RecursionError
    except (OSError, ValueError, RecursionError) as err:
        raise UsageError(f"cannot load certificate {args.file!r}: {err}") from None
    result: CheckResult = check(cert)
    if args.format == "json":
        print(json.dumps({"valid": result.valid, "reason": result.reason,
                          "piece": result.piece}, sort_keys=True))
    else:
        print(str(result))
    return 0 if result.valid else 1


def _read_intervals(path: str):
    try:
        with open(path) as handle:
            return parse_interval_file(handle.read())
    except OSError as err:
        raise UsageError(str(err)) from None


def _cmd_cover(args) -> int:
    elements = _read_intervals(args.file)
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    try:
        cover = Cover(tuple(elements))
    except ValueError as err:
        raise UsageError(str(err)) from None
    result = extract_subcover(cover, a, b)
    if isinstance(result, UncoveredPoint):
        return _emit_failure({"failure": "uncovered_point", "point": str(result.point)})
    if args.format == "json":
        sys.stdout.write(dumps(result))
    else:
        print(conclusion_of(result).text)
        print("chain: " + " -> ".join(str(p) for p in result.chain))
    return 0


def _cmd_clopen(args) -> int:
    elements = _read_intervals(args.file)
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    u = RatIntervalSet(tuple(elements))
    try:
        report = analyze_clopen(u, a, b)
    except ValueError as err:
        raise UsageError(str(err)) from None
    if args.format == "json":
        sys.stdout.write(dumps(report))
    else:
        print(conclusion_of(report).text)
    return 0 if report.verdict is ClopenVerdict.COVERS_ALL else 1


def run(argv: list[str]) -> int:
    """Parse argv and run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "prove":
            return _cmd_prove(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "cover":
            return _cmd_cover(args)
        return _cmd_clopen(args)
    except UsageError as err:
        _error_line("usage", str(err))
        return 2
    except ParseError as err:
        _error_line("parse", str(err), position=err.position)
        return 2
    except DomainError as err:
        extra = {}
        context = getattr(err, "context", None)
        if context:
            extra["subexpression"] = context
        piece = getattr(err, "piece", None)
        if piece is not None:
            extra["piece"] = interval_to_hex(piece)
        _error_line("domain", str(err), **extra)
        return 2
    except OverflowError as err:
        _error_line("domain", f"overflow: {err}")
        return 2
    except ValueError as err:
        _error_line("usage", str(err))
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
