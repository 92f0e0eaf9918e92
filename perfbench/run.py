#!/usr/bin/env python3
"""The repository benchmark: serve a seeded trace on Llama3-8B and report
host-clock and simulated-clock metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chat_decode --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload chat_decode --seed 1 --trace 1
    python3 perfbench/run.py --workload chat_decode --seed 1 --selfcheck

One run first compiles the tiny Llama and checks its paged entries
against the NumPy reference model (:func:`checks.compiler_check`).  It
then makes ``workloads.SERVES`` serves: each builds a fresh engine with
a cold compile cache (timed: set-up) and serves its own seeded trace
(timed: serve).  Every served request passes through
:func:`checks.failed_requests`.  The amount of work is fixed by the
workload, so ``--seconds`` is accepted but does not change it; one run
takes 25-45 s on a 2-core host.

``--trace 0`` prints the end-to-end metrics: medians of the host times,
and simulated-clock metrics pooled over the measured requests of the
serves.  The host times are corrected for the host's momentary speed
by :class:`hostspeed.ScaledTimer`; the plain wall-time medians are
printed on the line above the result.  ``--trace 1`` serves the first trace
untraced and then again under :class:`spans.SpanTracer`, and prints the
per-layer metrics of the traced serve; spans go to
``.perfbench_spans/``.
``--selfcheck`` runs the traced measurement twice with ``--seed`` and
once with the next seed, and checks that the deterministic metrics
repeat exactly and that the seed changes them.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from hostspeed import ScaledTimer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_spans"

#: (name, unit, host) -- ``host`` marks host-clock (noisy) metrics; the
#: rest are deterministic in the seed.
END_TO_END = [
    ("setup_s", "s", True),
    ("serve_s", "s", True),
    ("peak_rss_mib", "MiB", True),
    ("ttft_p50_s", "s", False),
    ("ttft_p90_s", "s", False),
    ("tpot_p50_s", "s", False),
    ("tpot_p90_s", "s", False),
    ("sim_tok_per_s", "tok/s", False),
    ("goodput_req_per_s", "req/s", False),
    ("ok_frac", "ratio", False),
]

ENTRIES = ("decode_paged", "prefill_paged")
#: The five slowest Llama3-8B passes when the benchmark was defined.
PASSES = ("LegalizeOps", "FuseTensorIR", "LowerCallTIR", "MemoryPlan",
          "ScheduleRules")
VM_COUNTERS = ("kernel_launches", "lib_calls", "graph_captures",
               "graph_replays", "allocations")

PER_LAYER = (
    [("transform.build_s", "s", True), ("transform.passes_run", "count", False)]
    + [(f"transform.pass_s.{p}", "s", True) for p in PASSES]
    + [("models.export_s", "s", True)]
    + [(f"vm.calls.{e}", "count", False) for e in ENTRIES]
    + [(f"vm.run_s.{e}", "s", True) for e in ENTRIES]
    + [(f"vm.ms_per_call.{e}", "ms", True) for e in ENTRIES]
    + [(f"vm.sig_reuse.{e}", "ratio", False) for e in ENTRIES]
    + [(f"vm.{c}", "count", False) for c in VM_COUNTERS]
    + [
        ("mesh.run_s", "s", True),
        ("sim.comm_s", "s", False),
        ("scheduler.calls", "count", False),
        ("scheduler.schedule_s", "s", True),
        ("scheduler.decode_batch_mean", "seqs", False),
        ("scheduler.prefill_tokens_mean", "tokens", False),
        ("scheduler.preemptions", "count", False),
        ("prefix.hit_rate", "ratio", False),
        ("prefix.cached_token_frac", "ratio", False),
        ("prefix.inserts", "count", False),
        ("prefix.evictions", "count", False),
        ("prefix.match_s", "s", True),
        ("prefix.insert_s", "s", True),
        ("prefix.evictable_count_calls", "count", False),
        ("prefix.evictable_count_s", "s", True),
        ("kv.peak_required_blocks", "blocks", False),
        ("kv.cow_copies", "count", False),
        ("router.calls", "count", False),
        ("router.choose_s", "s", True),
        ("router.affinity_frac", "ratio", False),
        ("router.load_entropy", "ratio", False),
        ("cluster.compile_cache_hits", "count", False),
        ("engine.iterations", "count", False),
        ("engine.step_ms_p50", "ms", True),
        ("engine.step_ms_p98", "ms", True),
        ("engine.self_s", "s", True),
        ("engine.report_s", "s", True),
        ("telemetry.on_iteration_s", "s", True),
        ("sim.prefill_s", "s", False),
        ("sim.decode_s", "s", False),
        ("sim.swap_s", "s", False),
        ("sim.launch_overhead_s", "s", False),
        ("trace.overhead_frac", "ratio", True),
    ]
)


@dataclass
class Serve:
    """One served trace."""

    requests: list
    #: Serve time: host-speed-scaled in the measured serves, plain wall
    #: time in the traced pair.
    serve_s: float
    wall_s: float
    #: Per-replica ``ServeReport``s (empty when serving raised).
    reports: list
    routing_entropy: Optional[float]
    #: Compile-cache hits while building the engine that served.
    compile_cache_hits: int
    failed: Set[int]

    def outcome(self) -> Tuple:
        """Everything the simulation decided, for exact comparison."""
        per_request = sorted(
            (m.req_id, tuple(m.token_times), tuple(m.output_tokens))
            for rep in self.reports for m in rep.requests
        )
        counters = [
            (len(rep.iterations), rep.stats.summary(),
             rep.summary.get("prefix_cache"), rep.summary["kv_pool"])
            for rep in self.reports
        ]
        return per_request, repr(counters)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated);
    0 for no values, as when every request failed."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    k = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[k - 1]


def build_and_serve(wl, requests, tracer=None, scaled=False
                    ) -> Tuple[ScaledTimer, Serve]:
    """Build a fresh engine with a cold compile cache (timed: set-up),
    then serve ``requests`` on it (timed: serve).  ``scaled``: time both
    with the host-speed probe running (:mod:`hostspeed`); ``Serve.serve_s``
    is then the scaled time."""
    from checks import failed_requests
    from repro.bench.relax_runner import clear_compile_cache, compile_cache_stats
    from repro.serve import ClusterReport

    clear_compile_cache()
    gc.collect()
    with ScaledTimer(probe=scaled) as setup:
        engine = wl.make_engine()
    hits = compile_cache_stats()["hits"]
    if tracer is not None:
        tracer.new_serve()
    gc.collect()
    timer = ScaledTimer(probe=scaled)
    try:
        with timer:
            report = engine.run(requests)
    except Exception as exc:
        # A stall or a failed end-of-run audit fails the whole serve.
        print(f"perfbench: serve raised {exc!r}", file=sys.stderr)
        return setup, Serve(requests, timer.scaled_s, timer.wall_s, [], None,
                            hits, {r.req_id for r in requests})
    if isinstance(report, ClusterReport):
        reports, assignments = report.replica_reports, report.assignments
        entropy = report.summary["routing"]["load_balance_entropy"]
    else:
        reports, assignments, entropy = [report], None, None
    failed = failed_requests(requests, reports, assignments,
                             engine.cfg.vocab_size)
    return setup, Serve(requests, timer.scaled_s, timer.wall_s, reports,
                        entropy, hits, failed)


def measure(wl, seed: int) -> Tuple[List[ScaledTimer], List[Serve]]:
    """Set-ups and serves of the run's ``SERVES`` traces, timed with the
    host-speed probe."""
    from workloads import SERVES

    runs = [build_and_serve(wl, wl.requests(seed, i), scaled=True)
            for i in range(SERVES)]
    return [setup for setup, _ in runs], [s for _, s in runs]


def end_to_end(wl, setups: List[ScaledTimer], serves: List[Serve]
               ) -> Tuple[Dict[str, float], str]:
    """End-to-end metrics plus a line stating the sample counts.

    Simulated metrics pool the serves and skip their warm-up requests;
    the rates divide by the summed time from each serve's first
    measured arrival to its last finish."""
    from repro.serve import EngineConfig

    econf = EngineConfig()
    ttfts, tpots = [], []
    tokens = good = 0
    makespan = 0.0
    for s in serves:
        start = min(r.arrival_s for r in s.requests if r.req_id >= wl.warmup)
        finish = [start]
        for rep in s.reports:
            for m in rep.requests:
                if m.req_id < wl.warmup or m.req_id in s.failed:
                    continue
                ttfts.append(m.ttft)
                tokens += len(m.output_tokens)
                finish.append(m.finish_s)
                if m.tpot is not None:
                    tpots.append(m.tpot)
                good += m.ttft <= econf.slo_ttft_s and (
                    m.tpot is None or m.tpot <= econf.slo_tpot_s)
        makespan += max(finish) - start
    attempted = sum(len(s.requests) for s in serves)
    failed = sum(len(s.failed) for s in serves)
    metrics = {
        "setup_s": statistics.median(t.scaled_s for t in setups),
        "serve_s": statistics.median(s.serve_s for s in serves),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ttft_p50_s": percentile(ttfts, 50),
        "ttft_p90_s": percentile(ttfts, 90),
        "tpot_p50_s": percentile(tpots, 50),
        "tpot_p90_s": percentile(tpots, 90),
        "sim_tok_per_s": tokens / makespan if makespan else 0.0,
        "goodput_req_per_s": good / makespan if makespan else 0.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    note = (f"samples: {len(setups)} set-ups and serves (plain wall-time "
            f"medians: set-up "
            f"{statistics.median(t.wall_s for t in setups):.4g} s, serve "
            f"{statistics.median(s.wall_s for s in serves):.4g} s); ttft "
            f"n={len(ttfts)}, tpot n={len(tpots)} (warm-up requests "
            f"excluded); requests attempted={attempted} failed={failed}")
    return metrics, note


def per_layer(tracer, serve: Serve, overhead: float) -> Dict[str, float]:
    """Per-layer metrics of one traced serve: span times and counts from
    ``tracer``, counters from the serve's reports (zero when the serve
    raised and left none)."""
    from spans import MESH_RUN, VM_RUN

    spans = tracer.spans
    selfs = tracer.self_times()

    def spans_of(name, tag=None):
        return [i for i, s in enumerate(spans)
                if s[0] == name and (tag is None or s[1] == tag)]

    def busy(name, tag=None) -> float:
        return sum(spans[i][3] - spans[i][2] for i in spans_of(name, tag))

    m: Dict[str, float] = {
        "transform.build_s": busy("transform.build"),
        "transform.passes_run": tracer.passes_run,
        "models.export_s": busy("models.build_llama"),
    }
    for p in PASSES:
        m[f"transform.pass_s.{p}"] = tracer.pass_s.get(p, 0.0)
    for e in ENTRIES:
        calls = len(spans_of(VM_RUN, e))
        run_s = busy(VM_RUN, e)
        m[f"vm.calls.{e}"] = calls
        m[f"vm.run_s.{e}"] = run_s
        m[f"vm.ms_per_call.{e}"] = 1e3 * run_s / calls if calls else 0.0
        m[f"vm.sig_reuse.{e}"] = tracer.sig_reuse[e] / calls if calls else 0.0

    reports = serve.reports
    iterations = [it for rep in reports for it in rep.iterations]
    for c in VM_COUNTERS:
        m[f"vm.{c}"] = sum(getattr(rep.stats, c) for rep in reports)
    m["mesh.run_s"] = sum(selfs[i] for i in spans_of(MESH_RUN))
    m["sim.comm_s"] = sum(rep.stats.comm_time_s for rep in reports)

    m["scheduler.calls"] = len(spans_of("ContinuousBatchingScheduler.schedule"))
    m["scheduler.schedule_s"] = busy("ContinuousBatchingScheduler.schedule")
    m["scheduler.decode_batch_mean"] = statistics.fmean(
        [it["decode_batch"] for it in iterations] or [0.0])
    m["scheduler.prefill_tokens_mean"] = statistics.fmean(
        [it["prefill_tokens"] for it in iterations] or [0.0])
    m["scheduler.preemptions"] = sum(rep.summary["preemptions"] for rep in reports)

    pc = [rep.summary["prefix_cache"] for rep in reports
          if "prefix_cache" in rep.summary]
    lookups = sum(p["lookups"] for p in pc)
    requested = sum(p["requested_tokens"] for p in pc)
    m["prefix.hit_rate"] = sum(p["hits"] for p in pc) / lookups if lookups else 0.0
    m["prefix.cached_token_frac"] = (
        sum(p["matched_tokens"] for p in pc) / requested if requested else 0.0)
    m["prefix.inserts"] = sum(p["inserts"] for p in pc)
    m["prefix.evictions"] = sum(p["evictions"] for p in pc)
    m["prefix.match_s"] = busy("PrefixCache.match")
    m["prefix.insert_s"] = busy("PrefixCache.insert")
    m["prefix.evictable_count_calls"] = len(spans_of("PrefixCache.evictable_count"))
    m["prefix.evictable_count_s"] = busy("PrefixCache.evictable_count")
    m["kv.peak_required_blocks"] = max(
        (rep.summary["kv_pool"]["peak_required_blocks"] for rep in reports),
        default=0)
    m["kv.cow_copies"] = sum(rep.summary["kv_pool"]["cow_copies"] for rep in reports)

    m["router.calls"] = tracer.routed
    m["router.choose_s"] = busy("RoutingPolicy.choose")
    m["router.affinity_frac"] = (
        tracer.routed_affine / tracer.routed if tracer.routed else 0.0)
    m["router.load_entropy"] = serve.routing_entropy or 0.0
    m["cluster.compile_cache_hits"] = serve.compile_cache_hits

    steps = spans_of("ServingEngine.step")
    step_ms = [1e3 * (spans[i][3] - spans[i][2])
               for i in spans_of("ServingEngine.step", "iteration")]
    m["engine.iterations"] = len(iterations)
    m["engine.step_ms_p50"] = percentile(step_ms, 50)
    m["engine.step_ms_p98"] = percentile(step_ms, 98)
    m["engine.self_s"] = sum(selfs[i] for i in steps)
    m["engine.report_s"] = busy("ServingEngine.report")
    m["telemetry.on_iteration_s"] = busy("EngineTelemetry.on_iteration")

    m["sim.prefill_s"] = tracer.sim_s.get("prefill_paged", 0.0)
    m["sim.decode_s"] = tracer.sim_s.get("decode_paged", 0.0)
    m["sim.swap_s"] = sum(it["swap_s"] for it in iterations)
    m["sim.launch_overhead_s"] = sum(rep.stats.launch_overhead_s for rep in reports)
    m["trace.overhead_frac"] = overhead
    return m


def traced_run(wl, seed: int, span_path: Optional[Path]
               ) -> Tuple[Dict[str, float], Serve, Serve]:
    """Per-layer metrics: the first trace served untraced, then traced.

    The traced serve must reproduce its untraced twin exactly (tracing
    only observes); if it does not, its requests fail."""
    from spans import SpanTracer

    requests = wl.requests(seed, 0)
    untraced = build_and_serve(wl, requests)[1]
    with SpanTracer() as tracer:
        traced = build_and_serve(wl, requests, tracer)[1]
    if traced.outcome() != untraced.outcome():
        print("perfbench: traced serve diverged from its untraced twin",
              file=sys.stderr)
        traced.failed = {r.req_id for r in requests}
    if span_path is not None:
        tracer.write(span_path)
    overhead = traced.serve_s / untraced.serve_s - 1.0
    return per_layer(tracer, traced, overhead), untraced, traced


def selfcheck(wl, seed: int) -> Tuple[bool, List[str]]:
    """Deterministic metrics repeat for one seed and move with the seed."""
    def deterministic(seed_):
        layer, untraced, _ = traced_run(wl, seed_, None)
        e2e, _ = end_to_end(wl, [ScaledTimer(probe=False)], [untraced])
        out = {n: e2e[n] for n, _, host in END_TO_END if not host}
        out.update((n, layer[n]) for n, _, host in PER_LAYER if not host)
        return out

    first, second, other = (deterministic(seed), deterministic(seed),
                            deterministic(seed + 1))
    lines = []
    repeat_ok = first == second
    for name in first:
        if first[name] != second[name]:
            lines.append(f"differs between two runs with seed {seed}: "
                         f"{name} {first[name]!r} != {second[name]!r}")
    moved = [n for n in first if first[n] != other[n]]
    seed_ok = any(n in moved for n, _, host in END_TO_END if not host)
    lines.append(f"seed {seed + 1} changed {len(moved)} of {len(first)} "
                 f"deterministic metrics; unchanged: "
                 f"{sorted(set(first) - set(moved))}")
    return repeat_ok and seed_ok, lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="accepted for the benchmark contract; the "
                             "work per run is fixed by the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import compiler_check
    from workloads import DEVICE, WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    problem = compiler_check(DEVICE)
    if problem is not None:
        print(f"perfbench: compiler check failed: {problem}", file=sys.stderr)

    if args.selfcheck:
        ok, lines = selfcheck(wl, args.seed)
        print("\n".join(lines))
        print(json.dumps({"selfcheck": ok and problem is None}))
        return 0 if ok and problem is None else 1

    if args.trace:
        span_path = SPAN_DIR / f"{wl.name}-seed{args.seed}.json"
        values, untraced, traced = traced_run(wl, args.seed, span_path)
        serves = [untraced, traced]
        table = PER_LAYER
        note = f"spans: {span_path.relative_to(ROOT)}"
    else:
        setups, serves = measure(wl, args.seed)
        values, note = end_to_end(wl, setups, serves)
        table = END_TO_END
    attempted = sum(len(s.requests) for s in serves)
    failed = sum(len(s.failed) for s in serves)
    correct = problem is None and failed == 0
    for name, unit, _ in table:
        print(f"{name:34s} {values[name]:.6g} {unit}")
    print(note)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
