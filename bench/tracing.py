"""Span and counter tracing of riskbook's layers, applied from outside.

:class:`Tracer` replaces public riskbook functions with wrappers in every
riskbook module that holds a reference to them, which is where their
callers look them up (``riskaware.assess``, ``reports.tradeoff_witnesses``
and so on).  Each wrapped call records a span ``[name, start, end, parent]``
in memory; a few small hot functions only bump a counter.  Nothing in
riskbook changes, and :meth:`Tracer.uninstall` restores every reference.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _witness_hits(args, result) -> dict:
    return {"hits": 1 if result else 0, "scenarios": sum(len(w.witness_scenarios) for w in result)}


def _bytes_out(args, result) -> dict:
    return {"bytes": len(result)}


# (module, attribute, span name, counter).  The counter maps a call's
# positional arguments and result to extra counts kept under the span's name.
SPANS = (
    ("riskbook.cli", "main", "cli.main", None),
    ("riskbook.instances", "parse_instance", "instances.parse_instance", lambda a, r: {"bytes": len(a[0])}),
    ("riskbook.reports", "run_rank", "reports.run_rank", None),
    ("riskbook.reports", "run_explain", "reports.run_explain", None),
    ("riskbook.reports", "run_check", "reports.run_check", None),
    ("riskbook.reports", "render_rank", "reports.render", _bytes_out),
    ("riskbook.reports", "render_explanation", "reports.render", _bytes_out),
    ("riskbook.reports", "render_check", "reports.render", _bytes_out),
    ("riskbook.riskaware", "comparison_matrix", "riskaware.comparison_matrix", None),
    ("riskbook.riskaware", "tradeoff_witnesses", "riskaware.tradeoff_witnesses", _witness_hits),
    ("riskbook.riskaware", "risk_of", "riskaware.risk_of", None),
    ("riskbook.riskaware", "induced_random_cost", "riskaware.induced_random_cost", None),
    ("riskbook.risk", "assess", "risk.assess", None),
)

# Small functions called thousands of times per operation: a span each
# would dominate their cost, so they are only counted.
COUNTERS = (
    ("riskbook.probspace", "distribution", "probspace.distribution", lambda a, r: {"atoms": len(r)}),
    ("riskbook.rulebook", "at_most_as_bad", "rulebook.at_most_as_bad", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, module: str, attr: str, wrapper) -> None:
        original = getattr(sys.modules[module], attr)
        for name, mod in list(sys.modules.items()):
            if (name == "riskbook" or name.startswith("riskbook.")) and getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self) -> None:
        for module, attr, name, counter in SPANS:
            self._replace_everywhere(module, attr, self._span(name, getattr(sys.modules[module], attr), counter))
        for module, attr, name, counter in COUNTERS:
            self._replace_everywhere(module, attr, self._count(name, getattr(sys.modules[module], attr), counter))
        preorder = sys.modules["riskbook.preorder"].Preorder
        self._undo.append((preorder, "compare", preorder.compare))
        preorder.compare = self._count("preorder.compare", preorder.compare, None)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- recording ------------------------------------------------------------

    def _span(self, name: str, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, n in counter(args, result).items():
                    counts[f"{name}.{key}"] += n
            return result

        return wrapper

    def _count(self, name: str, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            result = fn(*args, **kwargs)
            if counter is not None:
                for key, n in counter(args, result).items():
                    counts[f"{name}.{key}"] += n
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one operation;
        spans opened inside it name it as their parent."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    # -- results ----------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive seconds ``s`` and ``self_s``,
        where a span's self time excludes the time of its direct children."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
        return dict(out)

    def write(self, path) -> None:
        """All spans, with times in microseconds from the first span's start."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_us", "end_us", "parent"],
                    "names": names,
                    "spans": [
                        [index[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
                        for n, s, e, p in self.spans
                    ],
                    "counts": dict(self.counts),
                },
                fh,
                separators=(",", ":"),
            )

