"""riskbook benchmark: one single-process, closed-loop client.

    python3 bench/run.py --workload rank-tradeoffs --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The client sends its next operation only after the previous one returns.
It drives riskbook only through public entry points: ``riskbook.cli.main``
in process for the ``rank`` workloads, and ``parse_instance`` /
``run_check`` / ``run_explain`` plus the render functions for the session
workload.  Inputs come from ``gen.py`` and the seed alone; every output is
checked against ``oracle.py`` outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``ops_per_s``: operations per busy second in the slowest fifth of the
  run's timed operations (see ``SLICES``);
- ``op_p50_ms``: the highest median operation latency among those fifths;
- ``op_p90_ms``: the 90th-percentile latency over the whole run;
- ``setup_s``: median seconds to parse and validate the whole corpus with
  ``riskbook.parse_instance``, repeated before and after the timed loop;
- ``peak_rss_mb``: peak resident memory of this process.

Whole-run throughput and median are printed next to them, as are failed
operations over attempted ones.  With ``--trace 1`` it wraps riskbook's
layers (``tracing.py``), runs whole passes over the workload's operations,
reports per-layer metrics per operation and writes every span to
``.bench_work/spans-<workload>.json``.  Readable lines come first; the last
line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

# An untraced run times at least MIN_OPS operations, so that ten lie beyond
# p90, unless they take more than MAX_BUSY_S seconds.
MIN_OPS = 100
MAX_BUSY_S = 100.0
# Consecutive equal slices of a run's timed operations.  A shared host can
# switch between two speeds for seconds to minutes at a time (about 1.45x
# apart on the 2-vCPU Xeon VM this was tuned on), so the whole-run mean and
# median move with the share of time spent fast.  The slowest slice of a run
# is steady, since nearly every run holds a slow stretch.
SLICES = 5


@dataclass(frozen=True)
class Workload:
    kind: str  # "rank" through the CLI, or "session" through the library
    instances: int
    optimal: int | None  # optimal-set size every instance is drawn to have
    warmup_ops: int
    why: str


WORKLOADS = {
    # Loads the witness and render layers: many optimal candidates, each
    # with many compensated improvements and long scenario lists.  Drawing
    # every instance with exactly four optimal candidates keeps the cost
    # of one operation alike across seeds.
    "rank-tradeoffs": Workload(
        "rank", 40, 4, 4,
        "rank --json where 4 of 10 candidates are optimal: witness search and rendering dominate",
    ),
    # Bypasses the witness layer (the optimal set is {t0}, so no witness is
    # searched) and loads CVaR assessment over up to 200 atoms plus parsing.
    "rank-tail-risk": Workload(
        "rank", 12, None, 2,
        "rank --json under cvar(0.9) with a safe fallback: assessment and parsing, no witness search",
    ),
    # Loads assessment reuse: instances are parsed once, then every explain
    # re-assesses all rule x trajectory pairs of the same instance.  Three
    # optimal candidates per instance keep the witness share alike across seeds.
    "explain-session": Workload(
        "session", 3, 3, 30,
        "check plus every ordered explain on instances parsed once: repeated assessment per instance",
    ),
}


def _import_riskbook():
    """riskbook from this checkout's ``src``, never an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import riskbook
        import riskbook.cli
        import riskbook.reports
    except ImportError as exc:
        raise SystemExit(f"cannot import riskbook from {src}: {exc}") from None
    if not Path(riskbook.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"riskbook was imported from {riskbook.__file__}, not from {src}")
    return riskbook


@dataclass
class Op:
    key: tuple
    instance: int
    run: object  # () -> rendered output
    verify: object  # rendered output -> list of problems


def _json_check(check):
    def verify(out: str) -> list[str]:
        try:
            return check(json.loads(out))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]

    return verify


def _cli(rb, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = rb.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"riskbook {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def build(rb, name: str, seed: int, workdir: Path):
    """Generate the corpus (not timed) and return ``(texts, make_ops)``, where
    ``make_ops(instances)`` turns the parsed instances into the operation list."""
    spec = WORKLOADS[name]

    def keep(doc):
        return spec.optimal is None or len(oracle.Expected(doc).optimal) == spec.optimal

    docs = gen.corpus(name, seed, spec.instances, keep)
    texts = [json.dumps(doc) for doc in docs]
    expected = [oracle.Expected(doc) for doc in docs]
    del docs  # the parsed JSON trees would otherwise count in peak_rss_mb

    if spec.kind == "rank":
        paths = []
        for i, text in enumerate(texts):
            paths.append(workdir / f"{i:03d}.json")
            paths[-1].write_text(text, encoding="utf-8")

        def make_ops(instances):
            return [
                Op(
                    ("rank", i),
                    i,
                    lambda p=str(path): _cli(rb, ["rank", p, "--json"]),
                    _json_check(lambda out, e=exp: oracle.check_rank(e, out)),
                )
                for i, (path, exp) in enumerate(zip(paths, expected))
            ]

        return texts, make_ops

    reports = rb.reports

    def make_ops(instances):
        ops = []
        for i, (inst, exp) in enumerate(zip(instances, expected)):
            ops.append(
                Op(
                    ("check", i),
                    i,
                    lambda inst=inst: reports.render_check(reports.run_check(inst), as_json=True),
                    _json_check(oracle.check_check),
                )
            )
            for a in exp.trajectories:
                for b in exp.trajectories:
                    if a != b:
                        ops.append(
                            Op(
                                ("explain", i, a, b),
                                i,
                                lambda inst=inst, a=a, b=b: reports.render_explanation(
                                    reports.run_explain(inst, a, b), as_json=True
                                ),
                                _json_check(lambda out, e=exp, a=a, b=b: oracle.check_explain(e, a, b, out)),
                            )
                        )
        return ops

    return texts, make_ops


class Checker:
    """Runs the oracle once per distinct operation; every repeat of it must
    give the same bytes as the first output."""

    def __init__(self) -> None:
        self.first: dict[tuple, tuple[bytes, list[str]]] = {}
        self.repeated: set[int] = set()  # instances with a repeated operation
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: Op, out: str | None, error: Exception | None) -> None:
        self.attempted += 1
        if error is not None:
            problems = [f"raised {error!r}"]
        else:
            digest = hashlib.sha256(out.encode()).digest()
            if op.key in self.first:
                self.repeated.add(op.instance)
                first, problems = self.first[op.key]
                if first != digest:
                    problems = ["different bytes on repeat"]
            else:
                problems = op.verify(out)
                self.first[op.key] = (digest, problems)
        if problems:
            self.failed += 1
            self.problems.append(f"{op.key}: {problems[0]}")


def attempt(op: Op):
    """Run one operation; returns ``(seconds, output, error)``."""
    start = perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:  # any failure of the program counts against it
        out, error = None, exc
    return perf_counter() - start, out, error


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop, to show host drift."""
    times = []
    for _ in range(5):
        start, acc = perf_counter(), 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def setup(rb, texts: list[str], times: list[float]):
    """Parse and validate the corpus at least three times and for at least a
    second, appending the seconds of each repeat to ``times``; returns the
    instances of the last repeat."""
    start_len, instances = len(times), None
    while len(times) - start_len < 3 or (sum(times[start_len:]) < 1.0 and len(times) - start_len < 50):
        instances = None  # so peak memory holds one parsed corpus, not two
        start = perf_counter()
        instances = [rb.parse_instance(t) for t in texts]
        times.append(perf_counter() - start)
    return instances


def nearest_rank(n: int, percent: int) -> int:
    """1-based rank of the ``percent``-th percentile among ``n`` sorted values."""
    return max(1, -(-n * percent // 100))


def percentile(values: list[float], percent: int) -> float:
    return sorted(values)[nearest_rank(len(values), percent) - 1]


def timed_loop(ops: list[Op], checker: Checker, seconds: float) -> list[float]:
    latencies, busy, i = [], 0.0, 0
    while busy < seconds or (len(latencies) < MIN_OPS and busy < MAX_BUSY_S):
        op = ops[i % len(ops)]
        dt, out, error = attempt(op)
        latencies.append(dt)
        busy += dt
        checker.record(op, out, error)
        i += 1
    return latencies


def traced_loop(ops: list[Op], checker: Checker, seconds: float, warm: int):
    """Whole passes over ``ops`` under the tracer, so counts per operation
    are exact.  Also times the first ``warm`` operations without and with
    the tracer; returns ``(tracer, ops run, traced seconds, (untraced,
    traced) seconds of those first operations)``."""
    untraced = 0.0
    for op in ops[:warm]:
        dt, out, error = attempt(op)
        untraced += dt
        checker.record(op, out, error)
    tracer = Tracer()
    tracer.install()
    busy, traced_warm, n = 0.0, 0.0, 0
    try:
        while busy < seconds:
            for op in ops:
                with tracer.span("op"):
                    dt, out, error = attempt(op)
                busy += dt
                if n < warm:
                    traced_warm += dt
                n += 1
                checker.record(op, out, error)
    finally:
        tracer.uninstall()
    return tracer, n, busy, (untraced, traced_warm)


def layer_metrics(tracer: Tracer, n: int, overhead: float, host_ms: float) -> dict:
    spans, counts = tracer.totals(), tracer.counts
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def span(name, field):
        return spans.get(name, empty)[field] / n

    witness_calls = spans.get("riskaware.tradeoff_witnesses", empty)["calls"]
    values = {
        "instances.parse_instance.s": (span("instances.parse_instance", "s"), "s/op"),
        "instances.bytes_in": (counts["instances.parse_instance.bytes"] / n, "bytes/op"),
        "riskaware.risk_of.calls": (span("riskaware.risk_of", "calls"), "calls/op"),
        "riskaware.risk_of.s": (span("riskaware.risk_of", "s"), "s/op"),
        "riskaware.induced_random_cost.calls": (span("riskaware.induced_random_cost", "calls"), "calls/op"),
        "riskaware.induced_random_cost.s": (span("riskaware.induced_random_cost", "s"), "s/op"),
        "risk.assess.calls": (span("risk.assess", "calls"), "calls/op"),
        "risk.assess.s": (span("risk.assess", "s"), "s/op"),
        "probspace.distribution.calls": (counts["probspace.distribution.calls"] / n, "calls/op"),
        "probspace.distribution.atoms": (counts["probspace.distribution.atoms"] / n, "atoms/op"),
        "riskaware.comparison_matrix.calls": (span("riskaware.comparison_matrix", "calls"), "calls/op"),
        "riskaware.comparison_matrix.s": (span("riskaware.comparison_matrix", "s"), "s/op"),
        "rulebook.at_most_as_bad.calls": (counts["rulebook.at_most_as_bad.calls"] / n, "calls/op"),
        "preorder.compare.calls": (counts["preorder.compare.calls"] / n, "calls/op"),
        "riskaware.tradeoff_witnesses.calls": (witness_calls / n, "calls/op"),
        "riskaware.tradeoff_witnesses.s": (span("riskaware.tradeoff_witnesses", "s"), "s/op"),
        "riskaware.tradeoff_witnesses.hit_ratio": (
            counts["riskaware.tradeoff_witnesses.hits"] / witness_calls if witness_calls else 0.0,
            "ratio",
        ),
        "riskaware.witness_scenarios": (counts["riskaware.tradeoff_witnesses.scenarios"] / n, "ids/op"),
        "reports.run_rank.s": (span("reports.run_rank", "s"), "s/op"),
        "reports.run_rank.self_s": (span("reports.run_rank", "self_s"), "s/op"),
        "reports.run_explain.s": (span("reports.run_explain", "s"), "s/op"),
        "reports.run_explain.self_s": (span("reports.run_explain", "self_s"), "s/op"),
        "reports.run_check.s": (span("reports.run_check", "s"), "s/op"),
        "reports.render.s": (span("reports.render", "s"), "s/op"),
        "reports.bytes_out": (counts["reports.render.bytes"] / n, "bytes/op"),
        "cli.main.self_s": (span("cli.main", "self_s"), "s/op"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "host.loop_ms": (host_ms, "ms"),
    }
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds of operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    rb = _import_riskbook()
    spec = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        texts, make_ops = build(rb, args.workload, args.seed, workdir)
        setup_times: list[float] = []
        ops = make_ops(setup(rb, texts, setup_times))
        checker = Checker()
        for op in ops[: spec.warmup_ops]:
            checker.record(op, *attempt(op)[1:])
        host_ms = host_loop_ms()
        if args.trace:
            tracer, n, busy, (untraced, traced) = traced_loop(ops, checker, args.seconds, spec.warmup_ops)
        else:
            latencies = timed_loop(ops, checker, args.seconds)
            # Set up again after the loop, so setup_s spans the run's host drift.
            setup(rb, texts, setup_times)
        # Every instance that ran gets one operation repeated and its bytes compared.
        for op in ops:
            if op.key in checker.first and op.instance not in checker.repeated:
                checker.record(op, *attempt(op)[1:])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(texts)} instances, {len(ops)} ops per pass")
    print(f"ops_failed_ratio {checker.failed / checker.attempted!r} ratio ({checker.failed} of {checker.attempted})")
    for line in checker.problems[:10]:
        print(f"  failed {line}")
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}.json"
        tracer.write(spans_path)
        values = layer_metrics(tracer, n, traced / untraced - 1.0, host_ms)
        print(f"traced {n} ops in {busy:.3f} s; spans in {spans_path.relative_to(ROOT)}")
        print(f"trace overhead: first {spec.warmup_ops} ops took {untraced:.4f} s untraced, {traced:.4f} s traced")
        _print_split(tracer, n)
    else:
        n = len(latencies)
        slices = [latencies[i * n // SLICES : (i + 1) * n // SLICES] for i in range(SLICES)]
        slices = [s for s in slices if s]
        rates = [len(s) / sum(s) for s in slices]
        medians = [percentile(s, 50) * 1e3 for s in slices]
        print(f"{n} timed ops, {n - nearest_rank(n, 90)} beyond p90; setup repeated {len(setup_times)} times")
        print(f"whole run: {n / sum(latencies)!r} ops/s, p50 {percentile(latencies, 50) * 1e3!r} ms")
        print(f"per slice of {n // SLICES}+ ops: ops/s {[round(r, 3) for r in rates]}, p50 ms {[round(m, 3) for m in medians]}")
        values = {
            "ops_per_s": (min(rates), "ops/s"),
            "op_p50_ms": (max(medians), "ms"),
            "op_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"host.loop_ms {host_ms!r} ms")
    for name, (value, unit) in values.items():
        print(f"{name} {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; the last line
    merges their results with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def _print_split(tracer: Tracer, n: int) -> None:
    """Self time per span name, as ms per op and as a share of op time."""
    totals = tracer.totals()
    op_s = totals["op"]["s"]
    for name, agg in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  self {name:32s} {agg['self_s'] / n * 1e3:9.3f} ms/op {agg['self_s'] / op_s:7.1%}")

    def inclusive(name):
        return totals.get(name, {"s": 0.0})["s"]

    print(f"  risk_of (induced cost + assess) / op = {inclusive('riskaware.risk_of') / op_s:.1%}")
    if "reports.run_rank" in totals:
        share = inclusive("riskaware.tradeoff_witnesses") / inclusive("reports.run_rank")
        print(f"  tradeoff_witnesses / run_rank = {share:.1%}")


if __name__ == "__main__":
    raise SystemExit(main())
