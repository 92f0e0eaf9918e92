"""The serving engine: continuous batching on the compiled VM.

A seeded discrete-event simulation whose per-iteration costs come from
the *real* compiled artifact: every decode batch issues one
``decode_paged`` call and every prefill chunk one ``prefill`` call on a
``VirtualMachine`` in abstract mode, so the clock advances by whatever
the analytical device model meters for the actual instruction stream —
kernel launches, CUDA-graph capture/replay, allocator behaviour and all.
Host⇄device KV swaps (preemption recovery) are charged analytically
against the device's host-link bandwidth.

Iteration timing uses ``ExecutionStats.copy()``/``delta()`` snapshots —
never ``reset_stats()`` — so the shared VM's pool keeps recycling across
iterations exactly as an uninterrupted run would, and the sum of
per-iteration deltas equals the end-to-end totals.

Prefill chunks run through the ``prefill_paged`` entry: new K/V slices
are written straight into the shared page pool (no contiguous-cache
staging), and attention over the ``past`` tokens gathers through the
block table — the same data path the real paged kernels use, verified
bit-exact against the dense ``prefill`` entry in the model tests.

With prefix caching enabled (:class:`EngineConfig.enable_prefix_caching`,
the default) a :class:`~repro.serve.prefix_cache.PrefixCache` indexes
finished prompts' full pages; later prompts sharing a prefix attach
those blocks instead of recomputing them.  See
:mod:`repro.serve.kv_cache` for the shared-ownership model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..models.llama import LlamaConfig, build_llama
from ..runtime import NDArray, VirtualMachine
from ..runtime.device import Device
from ..runtime.profiler import ExecutionStats
from .kv_cache import CacheError, PagedKVCache
from .metrics import RequestMetrics, summarize
from .prefix_cache import PrefixCache
from .program import program_for
from .spec import SpecConfig, TokenOracle
from .telemetry import EngineTelemetry, TelemetryConfig
from .scheduler import (
    ContinuousBatchingScheduler,
    Iteration,
    Phase,
    RequestState,
    SchedulerConfig,
)
from .workload import Request, WorkloadConfig, generate


class _RunState:
    """Mutable state of one in-flight serving run.

    Everything :meth:`ServingEngine.run` used to keep in local variables
    lives here so the run can be driven incrementally — ``submit()`` /
    ``step()`` / ``drain()`` / ``report()`` — by an outer coordinator
    (the data-parallel :class:`~repro.serve.cluster.ClusterEngine`
    interleaves N of these the way ``MeshExecutor`` interleaves
    per-shard VMs).  Dropped wholesale by ``report()``; the engine's
    compiled VMs persist across runs.
    """

    def __init__(self, *, kv: PagedKVCache, cache: Optional[PrefixCache],
                 sched: ContinuousBatchingScheduler, oracle: TokenOracle,
                 tel: Optional[EngineTelemetry], denoise_budget: int,
                 token_bytes: int, ctl_cap: int,
                 stats_start: List[ExecutionStats]):
        self.kv = kv
        self.cache = cache
        self.sched = sched
        self.oracle = oracle
        self.tel = tel
        self.denoise_budget = denoise_budget
        self.token_bytes = token_bytes
        self.stats_start = stats_start
        #: Submitted requests in submission order (report order).
        self.requests: List[Request] = []
        self.states: Dict[int, RequestState] = {}
        #: Submitted but not yet admitted, sorted by (arrival_s, req_id).
        self.pending: List[Request] = []
        self.clock = 0.0
        self.iterations: List[Dict[str, Any]] = []
        self.trace_events: List[Dict[str, Any]] = []
        self.queue_samples: List[int] = []
        self.util_samples: List[float] = []
        self.swap_total_s = 0.0
        # Acceptance-aware speculative-width controller state (windowed
        # proposal/accept counters); inert unless ``spec.adaptive``.
        self.ctl_proposed = 0
        self.ctl_accepted = 0
        self.ctl_cap = ctl_cap


@dataclass
class EngineConfig:
    page_size: int = 16
    #: KV blocks in the device pool; ``None`` sizes the pool from the
    #: device's VRAM minus weights, capped at ``max_kv_blocks``.
    num_blocks: Optional[int] = None
    max_kv_blocks: int = 4096
    #: Fraction of post-weights VRAM granted to the KV pool.
    kv_memory_fraction: float = 0.9
    #: Host-link bandwidth for swap preemption (bytes/s).  PCIe 4.0 x16
    #: ballpark; the analytical device model does not model the host link.
    host_link_bandwidth: float = 16e9
    #: Share prompt-prefix KV blocks across requests (radix prefix cache).
    enable_prefix_caching: bool = True
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    slo_ttft_s: float = 1.0
    slo_tpot_s: float = 0.1
    #: Speculative decoding (draft/verify).  ``None`` — the default —
    #: keeps the engine byte-identical to its vanilla behaviour: same
    #: schedule, same records, same trace, same summary JSON.
    spec: Optional[SpecConfig] = None
    #: Serve-layer telemetry (:mod:`repro.serve.telemetry`).  ``None`` —
    #: the default — emits no telemetry and keeps summary/trace bytes
    #: identical to the untelemetered engine (pinned by baseline-hash
    #: tests); any config object turns on the metrics registry,
    #: lifecycle spans and the SLO monitor.
    telemetry: Optional[TelemetryConfig] = None
    #: Tensor-parallel width.  ``tp > 1`` builds the sharded module
    #: (Megatron column/row-parallel blocks, head-sharded KV pools) and
    #: serves it on a :class:`~repro.dist.MeshExecutor` of ``tp`` device
    #: models; ``tp=1`` — the default — is byte-identical to the
    #: unsharded engine.
    tp: int = 1
    #: Link model for the mesh collectives (``repro.dist.NVLINK`` /
    #: ``PCIE`` / any :class:`~repro.dist.Interconnect`).  ``None``
    #: defaults to the NVLink-class preset when ``tp > 1``.
    interconnect: Optional[Any] = None


class ServingEngine:
    def __init__(
        self,
        cfg: LlamaConfig,
        device: Device,
        engine_config: Optional[EngineConfig] = None,
        *,
        whisper_config: Optional[Any] = None,
        denoise_config: Optional[Any] = None,
        enable_library_dispatch: bool = True,
        enable_cuda_graph: bool = True,
    ):
        from ..bench.relax_runner import (
            RelaxDenoise,
            RelaxLLM,
            RelaxSpecPair,
            RelaxWhisper,
        )

        self.cfg = cfg
        self.device = device
        self.econfig = engine_config or EngineConfig()
        page = self.econfig.page_size
        bounds = {
            "b": 64,
            "s": cfg.context_length,
            "m": cfg.context_length,
            "w": -(-cfg.context_length // page),
        }
        self.spec = self.econfig.spec
        self.tp = self.econfig.tp
        self.draft = None
        if self.spec is not None:
            # Paired compilation: target and draft share one compile-cache
            # entry, so rate/acceptance sweeps compile the pair once.
            pair = RelaxSpecPair(
                cfg, self.spec.draft, device,
                sym_var_upper_bounds=bounds,
                enable_library_dispatch=enable_library_dispatch,
                enable_cuda_graph=enable_cuda_graph,
                page_size=page,
                tp=self.tp,
                interconnect=self.econfig.interconnect,
            )
            self.llm = pair.target
            self.draft = pair.draft
        else:
            self.llm = RelaxLLM(
                cfg, device,
                sym_var_upper_bounds=bounds,
                enable_library_dispatch=enable_library_dispatch,
                enable_cuda_graph=enable_cuda_graph,
                page_size=page,
                tp=self.tp,
                interconnect=self.econfig.interconnect,
            )
        self.vm: VirtualMachine = self.llm.vm
        self.params = self.llm.params
        self.num_blocks = self._pool_blocks()
        # The device-side pool, one (p, page, h_kv, d) pair per layer.
        # Abstract mode: shape-only arrays, allocated once per engine.
        # Under tensor parallelism every shard owns its own pool slice:
        # same block-id space, ``h_kv / tp`` heads per page.
        self.pools: List[NDArray] = []
        kv_local = cfg.num_kv_heads // self.tp
        for _ in range(cfg.num_layers):
            shape = (self.num_blocks, page, kv_local, cfg.head_dim)
            self.pools.append(NDArray.abstract(shape, cfg.dtype))
            self.pools.append(NDArray.abstract(shape, cfg.dtype))
        # Draft pools mirror the target's block-id space: both models are
        # indexed through the *same* block tables (one allocator), so the
        # draft pool is sized to the same num_blocks.
        self.draft_pools: List[NDArray] = []
        if self.draft is not None:
            dcfg = self.draft.cfg
            dshape = (self.num_blocks, page, dcfg.num_kv_heads, dcfg.head_dim)
            for _ in range(dcfg.num_layers):
                self.draft_pools.append(NDArray.abstract(dshape, dcfg.dtype))
                self.draft_pools.append(NDArray.abstract(dshape, dcfg.dtype))
        # Optional heterogeneous model families, one compiled VM each.
        # All families share one block-id space (the PagedKVCache
        # allocator): per-family pool arrays are sized to the same
        # num_blocks, so any allocated block id indexes any family's pool.
        self.whisper = None
        self.whisper_pools: List[NDArray] = []
        if whisper_config is not None:
            wbounds = {
                "b": 64,
                "f": whisper_config.max_frames,
                "m": whisper_config.max_target,
                "t": whisper_config.enc_positions,
                "w": -(-whisper_config.max_target // page),
                "u": -(-whisper_config.enc_positions // page),
            }
            self.whisper = RelaxWhisper(
                whisper_config, device,
                sym_var_upper_bounds=wbounds,
                page_size=page,
                enable_library_dispatch=enable_library_dispatch,
            )
            wshape = (self.num_blocks, page, whisper_config.num_heads,
                      whisper_config.head_dim)
            for _ in range(whisper_config.decoder_layers):
                self.whisper_pools.append(
                    NDArray.abstract(wshape, whisper_config.dtype))
                self.whisper_pools.append(
                    NDArray.abstract(wshape, whisper_config.dtype))
        self.denoise = None
        if denoise_config is not None:
            self.denoise = RelaxDenoise(denoise_config, device)
        self._vms: List[VirtualMachine] = [self.vm]
        self._vm_names: List[str] = ["llm"]
        if self.draft is not None:
            self._vms.append(self.draft.vm)
            self._vm_names.append("draft")
        if self.whisper is not None:
            self._vms.append(self.whisper.vm)
            self._vm_names.append("whisper")
        if self.denoise is not None:
            self._vms.append(self.denoise.vm)
            self._vm_names.append("denoise")
        #: The in-flight run, if any (see the steppable core below).
        self._run: Optional[_RunState] = None

    def _block_bytes(self) -> int:
        from .. import dtypes

        cfg = self.cfg
        per_layer = (
            self.econfig.page_size * cfg.num_kv_heads * cfg.head_dim
            * dtypes.itemsize(cfg.dtype)
        )
        return 2 * cfg.num_layers * per_layer  # K and V

    def _pool_blocks(self) -> int:
        if self.econfig.num_blocks is not None:
            return self.econfig.num_blocks
        weights = self.llm.exported.param_bytes()
        if self.draft is not None:
            # The draft model's weights live in the same VRAM budget.
            weights += self.draft.exported.param_bytes()
        budget = (self.device.vram_bytes - weights)
        budget = int(budget * self.econfig.kv_memory_fraction)
        # Per-device budget against per-device block bytes: sharded pools
        # hold h_kv/tp heads per page (and `weights` is already the
        # per-rank slice), so TP frees VRAM for more KV blocks.
        blocks = budget // (self._block_bytes() // self.tp)
        blocks = min(blocks, self.econfig.max_kv_blocks)
        if blocks < 2:
            raise CacheError(
                f"device {self.device.name} has no VRAM left for a KV pool "
                f"({blocks} blocks)"
            )
        return blocks

    # -- steppable core ---------------------------------------------------------
    #
    # One run is the submit() -> step()* -> report() protocol; ``run()``
    # is the thin loop over it.  The engine never owns an outer clock
    # loop any more: each ``step()`` plans and executes exactly one
    # scheduler iteration and advances this engine's analytical clock,
    # which is what lets a cluster coordinator interleave N engines on
    # independent clocks (always stepping the lagging one first).

    def submit(self, requests: Sequence[Request]) -> None:
        """Feed requests into the active run, starting one if needed.

        May be called repeatedly (the cluster router feeds arrivals as
        the shared clock reaches them); a request only becomes eligible
        for admission once the engine clock reaches its ``arrival_s``.
        """
        self.validate(requests)
        if self._run is None:
            self._run = self._begin_run()
        run = self._run
        spec = self.spec
        spec_k = spec.num_spec_tokens if spec is not None else 0
        for r in requests:
            if r.req_id in run.states:
                raise ValueError(
                    f"request {r.req_id} was already submitted to this run"
                )
            run.states[r.req_id] = RequestState(
                request=r,
                metrics=RequestMetrics(
                    req_id=r.req_id,
                    arrival_s=r.arrival_s,
                    prompt_len=r.prompt_len,
                    output_len=r.output_len,
                    kind=r.kind,
                ),
                program=program_for(
                    r, denoise_budget_per_step=run.denoise_budget,
                    llm_spec_tokens=spec_k,
                ),
            )
            run.requests.append(r)
        run.pending.extend(requests)
        run.pending.sort(key=lambda r: (r.arrival_s, r.req_id))

    def validate(self, requests: Sequence[Request]) -> None:
        """Reject requests this engine could never serve, with the cause.

        :meth:`submit` calls this; a coordinator that feeds requests over
        time (the cluster router) calls it on the whole trace up front,
        so a bad request fails before serving starts, not mid-run.
        """
        sconf = self.econfig.scheduler
        for r in requests:
            if (r.kind == "llm" and sconf.prefill_chunk is None
                    and r.prompt_len > sconf.max_num_batched_tokens):
                # Unchunked prefill is all-or-nothing: this prompt could
                # never be scheduled, and the run would stall on it.
                raise ValueError(
                    f"request {r.req_id}: prompt of {r.prompt_len} tokens "
                    f"exceeds max_num_batched_tokens="
                    f"{sconf.max_num_batched_tokens} with prefill_chunk=None "
                    f"(unchunked prefill needs the whole prompt in one "
                    f"iteration); raise the budget or enable chunking"
                )
            if r.kind == "whisper" and self.whisper is None:
                raise ValueError(
                    "workload contains whisper requests but the engine was "
                    "built without whisper_config"
                )
            if r.kind == "denoise" and self.denoise is None:
                raise ValueError(
                    "workload contains denoise requests but the engine was "
                    "built without denoise_config"
                )

    def _begin_run(self) -> _RunState:
        econf = self.econfig
        # A denoise step computes over every latent token — charge the
        # shared token budget accordingly.
        denoise_budget = (
            self.denoise.cfg.latent_tokens if self.denoise is not None else 1
        )
        kv = PagedKVCache(self.num_blocks, econf.page_size)
        cache = PrefixCache(kv) if econf.enable_prefix_caching else None
        sched = ContinuousBatchingScheduler(econf.scheduler, kv)
        # Token identity comes from the oracle (abstract mode: the VM
        # meters cost but produces no logits).  The vanilla engine uses
        # seed 0, so a speculative run pinning ``SpecConfig.seed=0``
        # emits the exact same token stream.
        spec = self.spec
        oracle = TokenOracle(
            seed=spec.seed if spec is not None else 0,
            vocab_size=self.cfg.vocab_size,
            draft_quality=spec.draft_quality if spec is not None else 0.0,
        )
        sched.spec_k_cap = None
        tel: Optional[EngineTelemetry] = None
        if econf.telemetry is not None:
            tel = EngineTelemetry(
                econf.telemetry,
                slo_ttft_s=econf.slo_ttft_s,
                slo_tpot_s=econf.slo_tpot_s,
                vm_names=self._vm_names,
                max_num_seqs=econf.scheduler.max_num_seqs,
                max_num_batched_tokens=econf.scheduler.max_num_batched_tokens,
            )
            tel.attach(self._vms)
        return _RunState(
            kv=kv, cache=cache, sched=sched, oracle=oracle, tel=tel,
            denoise_budget=denoise_budget,
            token_bytes=self._block_bytes() // econf.page_size,
            ctl_cap=spec.num_spec_tokens if spec is not None else 0,
            stats_start=[vm.stats.copy() for vm in self._vms],
        )

    @property
    def has_work(self) -> bool:
        """True while the active run still has pending or unfinished
        requests (i.e. :meth:`step` can make progress)."""
        run = self._run
        return run is not None and (
            bool(run.pending) or run.sched.has_unfinished()
        )

    @property
    def clock(self) -> float:
        """The engine's analytical clock (0.0 outside a run)."""
        return self._run.clock if self._run is not None else 0.0

    @property
    def active_run(self) -> Optional[_RunState]:
        """The in-flight run state, for coordinators (read-mostly:
        routers inspect ``sched``/``kv``/``cache`` for load and prefix
        feedback).  ``None`` between runs."""
        return self._run

    def step(self) -> Optional[Dict[str, Any]]:
        """Advance the run by one scheduler iteration.

        Returns the iteration record when work was executed, or ``None``
        when the engine only advanced its clock to the next pending
        arrival (call again) or has fully drained (``has_work`` is then
        False).  Raises :class:`CacheError` when the scheduler is
        stalled with no way to make progress.
        """
        if self._run is None:
            raise RuntimeError("no active run: call submit() first")
        try:
            return self._step(self._run)
        except BaseException:
            # Engine VMs persist across runs: never leave a telemetry
            # tracer attached, even when the step raises.
            self._teardown_telemetry()
            raise

    def drain(self) -> None:
        """Step until every submitted request has finished."""
        while self.has_work:
            self.step()

    def _step(self, run: _RunState) -> Optional[Dict[str, Any]]:
        econf = self.econfig
        sched = run.sched
        # Admit arrivals up to the current simulated time.
        while run.pending and run.pending[0].arrival_s <= run.clock:
            sched.add_request(run.states[run.pending[0].req_id])
            run.pending.pop(0)

        it = sched.schedule()
        if it.empty:
            if run.pending:
                run.clock = max(run.clock, run.pending[0].arrival_s)
                return None
            if sched.has_unfinished():
                raise CacheError(
                    "scheduler stalled: KV pool too small for the "
                    "remaining requests"
                )
            return None  # drained

        t_begin = run.clock
        before = [vm.stats.copy() for vm in self._vms]

        # Swap traffic (blocks to/from host) on the analytic host link.
        swap_s = 0.0
        for _, tokens, mode in it.preempted:
            if mode == "swap" and tokens:
                swap_s += (tokens * run.token_bytes
                           / econf.host_link_bandwidth)
        for _, tokens in it.swapped_in:
            if tokens:
                swap_s += (tokens * run.token_bytes
                           / econf.host_link_bandwidth)

        self._execute(it)

        delta = ExecutionStats.merge_serial([
            vm.stats.delta(b) for vm, b in zip(self._vms, before)
        ])
        run.clock = t_begin + delta.time_s + swap_s
        run.swap_total_s += swap_s

        self._advance(it, sched, run.clock, run.kv, run.oracle)
        spec = self.spec
        if spec is not None and spec.adaptive and it.spec_decode:
            run.ctl_proposed += sum(k for _, _, k in it.spec_decode)
            run.ctl_accepted += sum(it.spec_accepted.values())
            if run.ctl_proposed >= spec.adapt_window:
                rate = run.ctl_accepted / run.ctl_proposed
                if rate < spec.adapt_low:
                    run.ctl_cap = max(1, run.ctl_cap - 1)
                elif rate > spec.adapt_high:
                    run.ctl_cap = min(spec.num_spec_tokens, run.ctl_cap + 1)
                sched.spec_k_cap = run.ctl_cap
                run.ctl_proposed = run.ctl_accepted = 0
        self._record(it, run.iterations, run.trace_events, t_begin,
                     run.clock, swap_s, delta, run.kv, sched)
        if run.tel is not None:
            run.tel.on_iteration(
                it=it, sched=sched, kv=run.kv, cache=run.cache,
                index=len(run.iterations) - 1,
                t_begin=t_begin, t_end=run.clock, swap_s=swap_s,
                delta=delta, before=before, vms=self._vms,
            )
        run.queue_samples.append(sched.queue_depth)
        # Required utilization: cache-only (reclaimable) blocks are
        # spare VRAM, not load; identical to raw when caching is off.
        run.util_samples.append(run.kv.required_utilization())
        return run.iterations[-1]

    def _teardown_telemetry(self) -> None:
        run = self._run
        if run is not None and run.tel is not None:
            run.tel.detach(self._vms)

    def report(self) -> "ServeReport":
        """Finalize the run: audits, aggregation, and the ServeReport.

        Ends the run — the engine is ready for a fresh ``submit()`` (or
        ``run()``) afterwards; the compiled VMs persist.
        """
        if self._run is None:
            raise RuntimeError("no active run to report")
        if self.has_work:
            raise RuntimeError(
                "report() before the run drained: "
                "call drain() (or step() until has_work is False) first"
            )
        run = self._run
        econf = self.econfig
        spec = self.spec
        self._teardown_telemetry()
        kv = run.kv
        cache = run.cache
        tel = run.tel
        states = run.states
        clock = run.clock

        kv.check_no_leaks()
        if self.tp > 1:
            # Per-shard pool audit: SPMD ranks must balance identically.
            self.vm.check_no_leaks()
        refcount_audit = kv.refcount_audit()
        if tel is not None:
            tel.finalize(clock=clock, kv=kv)
        total = ExecutionStats.merge_serial([
            vm.stats.delta(s) for vm, s in zip(self._vms, run.stats_start)
        ])
        summary = summarize(
            [s.metrics for s in states.values()],
            slo_ttft_s=econf.slo_ttft_s,
            slo_tpot_s=econf.slo_tpot_s,
            queue_depth_samples=run.queue_samples,
            kv_utilization_samples=run.util_samples,
        )
        summary["vm"] = total.summary()
        summary["swap_time_s"] = run.swap_total_s
        summary["kv_pool"] = {
            "num_blocks": self.num_blocks,
            "page_size": econf.page_size,
            "peak_used_blocks": kv.peak_used_blocks,
            "peak_required_blocks": kv.peak_required_blocks,
            "peak_utilization": kv.peak_required_blocks / self.num_blocks,
            "peak_raw_utilization": kv.peak_used_blocks / self.num_blocks,
            "cow_copies": kv.cow_copies,
            "leaked_blocks": 0,  # check_no_leaks() raised otherwise
        }
        if cache is not None:
            summary["prefix_cache"] = cache.stats.to_dict()
        if spec is not None:
            proposed = sum(s.metrics.spec_proposed for s in states.values())
            accepted = sum(s.metrics.spec_accepted for s in states.values())
            checked = sum(s.metrics.spec_checked for s in states.values())
            summary["spec_decode"] = {
                "num_spec_tokens": spec.num_spec_tokens,
                "draft_quality": spec.draft_quality,
                "draft_model": self.draft.cfg.name,
                "adaptive": spec.adaptive,
                "proposed": proposed,
                "accepted": accepted,
                "checked": checked,
                # Drafting efficiency: fraction of proposed drafts that
                # committed (greedy matching truncates at the first miss,
                # so this sits below the per-position quality).
                "acceptance_rate": (
                    accepted / proposed if proposed else None
                ),
                # Per-position acceptance: each *checked* position is an
                # independent Bernoulli(draft_quality) draw, so this
                # converges to the configured draft quality.
                "per_position_acceptance": (
                    accepted / checked if checked else None
                ),
            }
        if tel is not None:
            # Telemetry-gated keys: the telemetry-off summary byte
            # format is pinned by the baseline-hash tests, and the
            # telemetry-on single-device format by the strip-equality
            # test — so comm_fraction additionally needs a mesh.
            summary["kv_pool"]["refcount_audit"] = refcount_audit
            summary["telemetry"] = tel.summary_brief()
            if self.tp > 1:
                summary["comm_fraction"] = (
                    total.comm_time_s / total.time_s if total.time_s else 0.0
                )
        report = ServeReport(
            device=self.device.name,
            model=self.cfg.name,
            summary=summary,
            requests=[states[r.req_id].metrics for r in run.requests],
            iterations=run.iterations,
            trace_events=run.trace_events,
            stats=total,
            telemetry=tel,
            refcount_audit=refcount_audit,
        )
        self._run = None
        return report

    # -- one run ----------------------------------------------------------------

    def run(self, requests: Sequence[Request]) -> "ServeReport":
        """Serve ``requests`` to completion: the submit/drain/report
        protocol as one call.  Always starts a fresh run."""
        self._run = None
        try:
            self.submit(requests)
            self.drain()
        except BaseException:
            self._teardown_telemetry()
            self._run = None
            raise
        return self.report()

    # -- internals --------------------------------------------------------------

    def _execute(self, it: Iteration) -> None:
        """Issue this iteration's VM calls (abstract mode: cost only)."""
        if it.decode:
            b = len(it.decode)
            # Ragged batch: pad every block table to the widest sequence.
            w = max(
                max(it.decode_lengths) // self.econfig.page_size + 1, 1
            )
            self.vm.run(
                "decode_paged",
                NDArray.abstract((b, 1), "i64"),
                NDArray.abstract((b, w), "i64"),
                NDArray.abstract((b,), "i64"),
                *self.pools,
                *self.params,
            )
        page = self.econfig.page_size
        if it.spec_decode:
            # Draft proposal rounds: round r decodes one draft token for
            # every sequence still proposing (k > r); the draft reads the
            # target's block tables (shared block-id space) with context
            # grown by the r tokens already proposed this step.
            max_k = max(k for _, _, k in it.spec_decode)
            for r in range(max_k):
                group = [ctx for _, ctx, k in it.spec_decode if k > r]
                if not group:
                    break
                b = len(group)
                w = max(max(c + r for c in group) // page + 1, 1)
                self.draft.vm.run(
                    "decode_paged",
                    NDArray.abstract((b, 1), "i64"),
                    NDArray.abstract((b, w), "i64"),
                    NDArray.abstract((b,), "i64"),
                    *self.draft_pools,
                    *self.draft.params,
                )
            # One ragged multi-token verify on the target: row 0 is the
            # last committed token, rows 1..k the draft proposals; the
            # target scores all k + 1 positions in a single weights pass —
            # which is the whole speculative bet (decode is weights-bound,
            # so verifying k extra rows costs barely more than one token).
            b = len(it.spec_decode)
            s = max_k + 1
            w = max(max(ctx for _, ctx, _ in it.spec_decode) // page + 1, 1)
            self.vm.run(
                "verify_paged",
                NDArray.abstract((b, s), "i64"),
                NDArray.abstract((b, w), "i64"),
                NDArray.abstract((b,), "i64"),
                NDArray.abstract((b,), "i64"),
                *self.pools,
                *self.params,
            )
        for _, past, chunk in it.prefill:
            w = max(-(-(past + chunk) // page), 1)
            self.vm.run(
                "prefill_paged",
                NDArray.abstract((1, chunk), "i64"),
                NDArray.abstract((1, w), "i64"),
                NDArray.abstract((past,), "i64"),
                *self.pools,
                *self.params,
            )
        # Heterogeneous per-request steps.  Whisper decodes run per
        # sequence (each carries its own cross-stream block table);
        # KV-free denoise steps batch into one call.
        denoise_batch = 0
        for state, ctx in it.steps:
            prog = state.program
            if prog.kind == "denoise":
                denoise_batch += 1
                continue
            t = prog.enc_positions
            w = max(ctx // page + 1, 1)
            u = max(-(-t // page), 1)
            self.whisper.vm.run(
                "decode_paged",
                NDArray.abstract((1, 1), "i64"),
                NDArray.abstract((1, w), "i64"),
                NDArray.abstract((ctx,), "i64"),
                NDArray.abstract((1, u), "i64"),
                NDArray.abstract((t,), "i64"),
                *self.whisper_pools,
                *self.whisper.params,
            )
        if denoise_batch:
            dcfg = self.denoise.cfg
            self.denoise.vm.run(
                "denoise_step",
                NDArray.abstract(
                    (denoise_batch, dcfg.latent_tokens, dcfg.latent_dim),
                    dcfg.dtype,
                ),
                *self.denoise.params,
            )
        # Heterogeneous chunked-phase work (whisper encode / cross-KV
        # projection).  The encode cost model runs the chunk's frame
        # slice through the encoder entry.
        for state, phase_name, past, chunk in it.chunks:
            if phase_name == "encode":
                self.whisper.vm.run(
                    "encode_chunk",
                    NDArray.abstract(
                        (1, chunk, self.whisper.cfg.n_mel),
                        self.whisper.cfg.dtype,
                    ),
                    *self.whisper.params,
                )
            elif phase_name == "cross_project":
                self.whisper.vm.run(
                    "cross_project",
                    NDArray.abstract(
                        (1, chunk, self.whisper.cfg.d_model),
                        self.whisper.cfg.dtype,
                    ),
                    *self.whisper.params,
                )
            else:
                raise ValueError(
                    f"no engine entry for chunked phase {phase_name!r}"
                )

    def _advance(self, it: Iteration, sched: ContinuousBatchingScheduler,
                 clock: float, kv: PagedKVCache,
                 oracle: TokenOracle) -> None:
        """Commit token production and completions at ``clock``.

        Token *identity* always comes from the oracle, indexed by output
        position — so any execution strategy (vanilla, speculative,
        recompute-after-preemption) reconstructs the identical stream;
        only the timestamps differ.
        """
        for state in it.decode:
            state.metrics.output_tokens.append(
                oracle.target_token(state.seq_id, state.generated))
            state.generated += 1
            state.metrics.token_times.append(clock)
            if state.done:
                state.metrics.finish_s = clock
                sched.finish(state)
        for state, ctx, k in it.spec_decode:
            # Greedy-match acceptance: the emitted stream is the longest
            # prefix of draft proposals the target agrees with, plus the
            # target's own "bonus" token — so between 1 and k + 1 tokens
            # commit, all byte-identical to what vanilla decode would
            # have emitted at these positions.
            pos = state.generated
            n = 0
            while n < k and oracle.draft_matches(state.seq_id, pos + n):
                n += 1
            state.metrics.spec_proposed += k
            state.metrics.spec_accepted += n
            state.metrics.spec_checked += n if n == k else n + 1
            it.spec_accepted[state.seq_id] = n
            # Exact rollback: the scheduler appended k + 1 KV tokens
            # optimistically; the k - n rejected tail tokens come back
            # out, returning fully-vacated tail pages to the pool in
            # LIFO order.
            if k - n:
                kv.rollback(state.seq_id, k - n)
            for i in range(n + 1):
                state.metrics.output_tokens.append(
                    oracle.target_token(state.seq_id, pos + i))
                state.generated += 1
                state.metrics.token_times.append(clock)
            if state.done:
                state.metrics.finish_s = clock
                sched.finish(state)
        for state, _ in it.steps:
            state.generated += 1
            state.metrics.token_times.append(clock)
            if state.done:
                state.metrics.finish_s = clock
                sched.finish(state)
        for state, _, _ in it.prefill:
            if (
                state.phase is Phase.DECODE
                and state.prefilled == state.prefill_target
                and state.generated == 0
            ):
                # Final prefill chunk yields the first output token.
                state.metrics.output_tokens.append(
                    oracle.target_token(state.seq_id, 0))
                state.generated = 1
                state.metrics.token_times.append(clock)
                if state.done:
                    state.metrics.finish_s = clock
                    sched.finish(state)

    def _record(self, it: Iteration, iterations, trace_events,
                t_begin: float, t_end: float, swap_s: float,
                delta: ExecutionStats, kv: PagedKVCache,
                sched: ContinuousBatchingScheduler) -> None:
        idx = len(iterations)
        us = 1e6
        record = {
            "index": idx,
            "start_s": t_begin,
            "dur_s": t_end - t_begin,
            "decode_batch": len(it.decode),
            "prefill_tokens": sum(n for _, _, n in it.prefill),
            "num_batched_tokens": it.num_batched_tokens,
            "preemptions": len(it.preempted),
            "swap_s": swap_s,
            "kernel_launches": delta.kernel_launches,
            "free_blocks": kv.num_free_blocks,
            "reclaimable_blocks": kv.num_reclaimable_blocks,
            "cache_hits": len(it.cache_hits),
            "cached_tokens": sum(n for _, n in it.cache_hits),
            "queue_depth": sched.queue_depth,
        }
        # Heterogeneous keys only appear when such work was scheduled, so
        # single-type (LLM-only) runs keep their exact legacy records.
        if it.steps or it.chunks:
            record["steps"] = len(it.steps)
            record["chunk_tokens"] = sum(n for _, _, _, n in it.chunks)
        # Speculative keys likewise: vanilla runs must stay byte-identical.
        if it.spec_decode:
            record["spec_batch"] = len(it.spec_decode)
            record["spec_proposed"] = sum(k for _, _, k in it.spec_decode)
            record["spec_accepted"] = sum(it.spec_accepted.values())
        iterations.append(record)
        # Engine track (pid 0 / tid 0): one slice per iteration plus a
        # KV-utilisation counter.
        trace_events.append({
            "name": f"iteration[{idx}]",
            "ph": "X", "pid": 0, "tid": 0,
            "ts": t_begin * us, "dur": (t_end - t_begin) * us,
            "args": {
                "decode_batch": len(it.decode),
                "prefill_tokens": sum(n for _, _, n in it.prefill),
                "preemptions": len(it.preempted),
            },
        })
        trace_events.append({
            "name": "kv_used_blocks",
            "ph": "C", "pid": 0, "tid": 0,
            "ts": t_end * us,
            "args": {"used": kv.allocator.num_used},
        })
        # Request tracks (pid 1, one tid per request): a slice per
        # iteration the request participated in, instants for preemption.
        for state in it.decode:
            trace_events.append({
                "name": "decode",
                "ph": "X", "pid": 1, "tid": state.seq_id,
                "ts": t_begin * us, "dur": (t_end - t_begin) * us,
                "args": {"token": state.generated + 1},
            })
        for state, ctx, k in it.spec_decode:
            trace_events.append({
                "name": "spec_decode",
                "ph": "X", "pid": 1, "tid": state.seq_id,
                "ts": t_begin * us, "dur": (t_end - t_begin) * us,
                "args": {
                    "ctx": ctx,
                    "proposed": k,
                    "accepted": it.spec_accepted.get(state.seq_id, 0),
                },
            })
        for state, past, chunk in it.prefill:
            trace_events.append({
                "name": "prefill",
                "ph": "X", "pid": 1, "tid": state.seq_id,
                "ts": t_begin * us, "dur": (t_end - t_begin) * us,
                "args": {"past": past, "chunk": chunk},
            })
        for state, ctx in it.steps:
            trace_events.append({
                "name": state.program.stepped.name,
                "ph": "X", "pid": 1, "tid": state.seq_id,
                "ts": t_begin * us, "dur": (t_end - t_begin) * us,
                "args": {"step": state.generated + 1, "ctx": ctx},
            })
        for state, phase_name, past, chunk in it.chunks:
            trace_events.append({
                "name": phase_name,
                "ph": "X", "pid": 1, "tid": state.seq_id,
                "ts": t_begin * us, "dur": (t_end - t_begin) * us,
                "args": {"past": past, "chunk": chunk},
            })
        for state, tokens, mode in it.preempted:
            trace_events.append({
                "name": f"preempt[{mode}]",
                "ph": "i", "pid": 1, "tid": state.seq_id,
                "ts": t_begin * us, "s": "t",
                "args": {"tokens": tokens},
            })
        for state, cached in it.cache_hits:
            trace_events.append({
                "name": "prefix_cache_hit",
                "ph": "i", "pid": 1, "tid": state.seq_id,
                "ts": t_begin * us, "s": "t",
                "args": {"cached_tokens": cached},
            })


@dataclass
class ServeReport:
    """Everything one serving run produced, JSON- and Perfetto-ready."""

    device: str
    model: str
    summary: Dict[str, Any]
    requests: List[RequestMetrics]
    iterations: List[Dict[str, Any]]
    trace_events: List[Dict[str, Any]]
    stats: ExecutionStats
    #: :class:`~repro.serve.telemetry.EngineTelemetry` when the run was
    #: telemetered, else ``None``.  In-memory field; serialized (under a
    #: ``"telemetry"`` key / extra trace tracks) only when present.
    telemetry: Optional[EngineTelemetry] = None
    #: Allocator accounting snapshot taken at teardown, *always*
    #: populated (the refcount audit is cheap); folded into the summary
    #: only behind the telemetry gate.
    refcount_audit: Optional[Dict[str, Any]] = None

    def chrome_trace(self) -> Dict[str, Any]:
        """Perfetto-compatible trace: engine track + one track/request.

        A telemetered run extends the same file with lifecycle spans on
        the request tracks, scheduler/pool counter tracks, and — with
        kernel capture — the VMs' per-op events on the shared clock.
        """
        meta: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": f"repro-serve engine ({self.device})"}},
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "requests"}},
        ]
        for r in self.requests:
            meta.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": r.req_id,
                "args": {"name": f"request {r.req_id}"},
            })
        events = meta + self.trace_events
        if self.telemetry is not None:
            events = events + self.telemetry.trace_extension()
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
        }

    def export_chrome_trace(self, path: str) -> Dict[str, Any]:
        from ..obs.report import validate_chrome_trace

        trace = validate_chrome_trace(self.chrome_trace())
        with open(path, "w") as f:
            json.dump(trace, f)
        return trace

    def to_dict(self) -> Dict[str, Any]:
        out_requests = []
        for r in self.requests:
            d = {
                "req_id": r.req_id,
                "arrival_s": r.arrival_s,
                "prompt_len": r.prompt_len,
                "output_len": r.output_len,
                "ttft_s": r.ttft,
                "tpot_s": r.tpot,
                "finish_s": r.finish_s,
                "preemptions": r.preemptions,
                "cached_prompt_tokens": r.cached_prompt_tokens,
            }
            if r.kind != "llm":
                d["kind"] = r.kind
            if r.spec_proposed:
                d["spec_proposed"] = r.spec_proposed
                d["spec_accepted"] = r.spec_accepted
            out_requests.append(d)
        out = {
            "device": self.device,
            "model": self.model,
            "summary": self.summary,
            "requests": out_requests,
            "iterations": self.iterations,
        }
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry.to_dict()
        return out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def serve_workload(
    cfg: LlamaConfig,
    device: Device,
    workload: "WorkloadConfig | Sequence[Request]",
    engine_config: Optional[EngineConfig] = None,
    *,
    whisper_config: Optional[Any] = None,
    denoise_config: Optional[Any] = None,
) -> ServeReport:
    """Run a workload through a fresh engine.

    ``workload`` is either a :class:`WorkloadConfig` (the seeded trace is
    generated here) or an already-generated request sequence (e.g. one
    replayed from :func:`~repro.serve.workload.workload_from_json`).
    Heterogeneous workloads need the matching model configs.
    """
    engine = ServingEngine(
        cfg, device, engine_config,
        whisper_config=whisper_config,
        denoise_config=denoise_config,
    )
    if isinstance(workload, WorkloadConfig):
        requests = generate(workload)
    else:
        requests = list(workload)
    return engine.run(requests)
