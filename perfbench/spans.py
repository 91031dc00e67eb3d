"""In-memory span tracing around suparg's layer boundaries.

The tracer replaces a function at the name an importing module binds it
under (several suparg modules import by name, so patching the defining
module alone would miss their calls), records one span per call and
restores every original on uninstall.  A span is
[id, parent id, invocation id, name, start ns, end ns].
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute) pairs wrapped in a traced run; the span name is
# "<last module component>.<attribute>"
TARGETS = (
    ("suparg.sweep", "eval_iv"),
    ("suparg.sweep", "eval_d1"),
    ("suparg.certificates", "eval_iv"),
    ("suparg.certificates", "eval_d1"),
    ("suparg.certificates", "parse"),
    ("suparg.theorems", "run_sweep"),
    ("suparg.theorems", "eval_iv"),
    ("suparg.cli", "parse"),
    ("suparg.cli", "prove_bound"),
    ("suparg.cli", "prove_max"),
    ("suparg.cli", "prove_root"),
    ("suparg.cli", "prove_modulus"),
    ("suparg.cli", "prove_integral"),
    ("suparg.cli", "prove_monotone"),
    ("suparg.cli", "prove_mvi"),
    ("suparg.cli", "prove_flat"),
    ("suparg.cli", "check"),
    ("suparg.cli", "dumps"),
    ("suparg.cli", "from_document"),
    ("suparg.cli", "extract_subcover"),
    ("suparg.cli", "analyze_clopen"),
    ("suparg.cli", "parse_interval_file"),
    ("suparg.topology", "uncovered_point"),
    ("suparg.topology", "analyze_clopen"),
)

ID, PARENT, INVOCATION, NAME, START, END = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.invocation: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.invocation,
                   name, clock(), 0]
            spans.append(rec)
            stack.append(rec[ID])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = self.spans[:]
        self.spans.clear()
        return out


def self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered, reach = 0, lo
        for c_lo, c_hi in sorted(children.get(s[ID], ())):
            c_lo, c_hi = max(c_lo, reach), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out[s[ID]] = (hi - lo) - covered
    return out


class Totals:
    """Per-name total and self time (ns) over a span list, and call counts
    both overall and split by the kind of invocation each span belongs to."""

    def __init__(self, spans: list[list], kinds: dict[int, str]):
        selfs = self_times(spans)
        self.count: dict[tuple, int] = defaultdict(int)
        self.total: dict[str, int] = defaultdict(int)
        self.self_: dict[str, int] = defaultdict(int)
        for s in spans:
            self.count[(s[NAME], None)] += 1
            self.count[(s[NAME], kinds[s[INVOCATION]])] += 1
            self.total[s[NAME]] += s[END] - s[START]
            self.self_[s[NAME]] += selfs[s[ID]]

    def calls(self, names, kind=None) -> int:
        return sum(self.count[(n, kind)] for n in names)

    def seconds(self, names) -> float:
        return sum(self.total[n] for n in names) / 1e9

    def self_seconds(self, names) -> float:
        return sum(self.self_[n] for n in names) / 1e9

    def mean_us(self, names) -> float:
        n = self.calls(names)
        return sum(self.total[x] for x in names) / n / 1e3 if n else 0.0
