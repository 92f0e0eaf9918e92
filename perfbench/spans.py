"""Span tracing from outside the program.

:class:`SpanTracer` wraps the public entry points of each layer for the
duration of a ``with`` block and restores the originals on exit; the
untraced benchmark never constructs one.  Each call records a span
``[name, tag, start_s, end_s, parent]`` (``parent`` indexes the
enclosing span, -1 at top level) in an in-memory list that is written
out once, after the run.  All engine work is single-threaded (the mesh
runs its abstract shards sequentially), so spans nest strictly and a
span's self time is its duration minus that of its direct children.

Besides spans the tracer keeps the few counts that only the call
boundary can see: argument-signature reuse per VM entry, the simulated
time each engine-facing VM call advanced the clock, the compiler's
per-pass times, and whether the router sent each request to a replica
already holding its prefix.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro import transform
from repro.bench import relax_runner
from repro.dist import MeshVM
from repro.runtime import VirtualMachine
from repro.serve import (
    ROUTING_POLICIES,
    ContinuousBatchingScheduler,
    EngineTelemetry,
    PrefixCache,
    ServingEngine,
)

#: Span names of the VM-like calls the engine issues (a ``MeshVM.run``
#: encloses one ``VirtualMachine.run`` per shard).
VM_RUN = "VirtualMachine.run"
MESH_RUN = "MeshVM.run"


class SpanTracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        #: Probes the benchmark itself makes are not spans of the program.
        self._suspended = False
        self.sigs_seen: Dict[int, set] = {}
        self.sig_reuse: Counter = Counter()
        self.sim_s: Dict[str, float] = defaultdict(float)
        self.pass_s: Dict[str, float] = defaultdict(float)
        self.passes_run = 0
        self.routed = 0
        self.routed_affine = 0

    # -- install / restore ----------------------------------------------------

    def __enter__(self) -> "SpanTracer":
        self._wrap(transform, "build", "transform.build",
                   after=self._after_build)
        self._wrap(relax_runner, "build_llama", "models.build_llama")
        self._wrap(VirtualMachine, "run", VM_RUN, tag=_entry,
                   before=self._before_vm, after=self._after_vm)
        self._wrap(MeshVM, "run", MESH_RUN, tag=_entry,
                   before=self._before_vm, after=self._after_vm)
        self._wrap(ContinuousBatchingScheduler, "schedule",
                   "ContinuousBatchingScheduler.schedule")
        for attr in ("match", "insert", "evictable_count"):
            self._wrap(PrefixCache, attr, f"PrefixCache.{attr}")
        for cls in ROUTING_POLICIES.values():
            if "choose" in vars(cls):
                self._wrap(cls, "choose", "RoutingPolicy.choose",
                           after=self._after_choose)
        self._wrap(ServingEngine, "step", "ServingEngine.step",
                   after=self._after_step)
        self._wrap(ServingEngine, "report", "ServingEngine.report")
        self._wrap(EngineTelemetry, "on_iteration",
                   "EngineTelemetry.on_iteration")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _wrap(self, owner, attr: str, name: str,
              tag: Optional[Callable] = None,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        orig = vars(owner)[attr]
        self._patches.append((owner, attr, orig))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if self._suspended:
                return orig(*args, **kwargs)
            state = before(args) if before is not None else None
            span = [name, tag(args) if tag is not None else None, 0.0, 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result, state)
            return result

        setattr(owner, attr, traced)

    # -- boundary counts --------------------------------------------------------

    def new_serve(self) -> None:
        """Signature reuse is per VM instance within one serve."""
        self.sigs_seen.clear()

    def _engine_facing(self) -> bool:
        # A shard VM's run inside MeshVM.run is not an engine call.
        top = self._stack[-1] if self._stack else -1
        return top < 0 or self.spans[top][0] != MESH_RUN

    def _before_vm(self, args):
        vm, entry = args[0], args[1]
        if isinstance(vm, VirtualMachine):
            sig = (entry, tuple((a.shape, a.dtype) for a in args[2:]))
            seen = self.sigs_seen.setdefault(id(vm), set())
            if sig in seen:
                self.sig_reuse[entry] += 1
            else:
                seen.add(sig)
        if self._engine_facing():
            return vm.stats.time_s
        return None

    def _after_vm(self, span, args, kwargs, result, sim_before) -> None:
        if sim_before is not None:
            self.sim_s[span[1]] += args[0].stats.time_s - sim_before

    def _after_build(self, span, args, kwargs, result, state) -> None:
        ctx = kwargs.get("ctx")
        if ctx is None:
            return
        for record in ctx.report.executed:
            self.passes_run += 1
            self.pass_s[record.name] += record.duration_s or 0.0

    def _after_choose(self, span, args, kwargs, idx, state) -> None:
        request, views = args[1], args[2]
        self._suspended = True
        try:
            held = views[idx].prefix_match_tokens(request.prompt_tokens)
        finally:
            self._suspended = False
        self.routed += 1
        self.routed_affine += held > 0

    def _after_step(self, span, args, kwargs, record, state) -> None:
        # Steps that only advanced the clock to the next arrival carry no
        # iteration; tag the ones that executed one.
        span[1] = "iteration" if record is not None else None

    # -- derived ----------------------------------------------------------------

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["name", "tag", "start_s", "end_s", "parent"],
                       "spans": self.spans}, f)


def _entry(args) -> Any:
    return args[1]
