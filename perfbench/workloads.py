"""The benchmark's workloads: one engine (or cluster) factory and one
seeded request trace per name.

Every workload serves Llama3-8B at paper configuration on the RTX 4090
device model.  Each is chosen so that one layer does most of the host
work in it and little in the others (see README.md for the layer ->
metric predictions):

* ``chat_decode`` -- the ROADMAP baseline engine (default
  ``EngineConfig``).  Short prompts without token ids: the VM's
  ``decode_paged``/``prefill_paged`` calls dominate, the prefix cache
  and router stay idle.
* ``shared_prefix_dp2`` -- two replicas behind ``prefix_affinity``
  routing, prompts opening with one of four 256-token prefixes: prefix
  cache reads and writes, the router, and the second replica's
  compile-cache hit.
* ``long_prompt_tp2`` -- tensor-parallel (tp=2, NVLink) with telemetry
  on and unchunked prefill of long prompts: the mesh lockstep,
  collectives, the sharded compile, telemetry, and VM calls whose
  argument signatures rarely repeat.

Traces are open-loop: every arrival is due on a schedule fixed before
serving starts, and latencies count from the due time.  The traces are
*stratified* samples: the inter-arrival gaps come from the exponential
distribution (a Poisson process's gaps) and the output lengths from
their uniform range with one draw in each of N equal-probability
strata, in seeded random order, and prompts divide evenly among the
prefix families, also in seeded order.  The seed thus changes which request gets which gap, output
length and family, but not the trace's span, token total or family
sizes -- with independent draws those vary between seeds by 5-10% at
this trace size, and every rate and tail-latency metric inherits the
spread.  Prompt lengths are stratified the same way, except in
``chat_decode``: its prompts fit one prefill chunk, so its TTFT barely
depends on their length, and independent draws keep prefill calls
repeating an argument signature as often as they would in real
traffic (stratified, the lengths of a serve are nearly all distinct).

A shared-prefix serve opens with one short request per family, due at
t=0 and excluded from the latency metrics; measured arrivals start
``WARMUP_S`` later.  Measured requests thus meet the prefix cache a
steady-state server has, with its system prompts already cached, rather
than a cold start whose few full-prompt prefills would sit right at the
p90 of a serve this size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.dist import NVLINK
from repro.models import LLAMA3_8B
from repro.runtime.device import RTX_4090
from repro.serve import (
    ClusterConfig,
    ClusterEngine,
    EngineConfig,
    Request,
    SchedulerConfig,
    ServingEngine,
    TelemetryConfig,
)

MODEL = LLAMA3_8B
DEVICE = RTX_4090


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """One uniform draw from each of ``n`` equal-probability strata of
    [0, 1), in seeded random order."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _uniform_ints(rng: np.random.Generator, lo: int, hi: int,
                  n: int) -> np.ndarray:
    return lo + np.floor(_strata(rng, n) * (hi - lo + 1)).astype(np.int64)


#: Simulated seconds between the warm-up requests and the first
#: measured arrival (a warm-up prefill takes ~0.1 s).
WARMUP_S = 0.5

#: Serves per run, each on a fresh engine and its own trace; the
#: simulated metrics pool their measured requests.
SERVES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    #: Builds a fresh engine or cluster (the timed set-up).
    make_engine: Callable[[], Any]
    #: Measured requests per serve.
    num_requests: int
    #: Mean arrival rate (requests per simulated second).
    rate: float
    prompt: Tuple[int, int]
    output: Tuple[int, int]
    #: > 0: prompts open with one of this many ``prefix_len``-token
    #: prefixes and carry token ids (the prefix cache keys on them).
    prefix_families: int = 0
    prefix_len: int = 0
    #: Stratified prompt lengths (like gaps and outputs) rather than
    #: independent draws; see the module docstring.
    stratified_prompts: bool = True

    @property
    def warmup(self) -> int:
        """Leading warm-up requests (ids ``0 .. warmup - 1``)."""
        return self.prefix_families

    def requests(self, seed: int, serve: int) -> List[Request]:
        """The trace of serve ``serve`` of a run with ``seed``: warm-up
        requests, then measured ones."""
        rng = np.random.default_rng([seed, serve])
        n, w = self.num_requests, self.warmup
        gaps = -np.log1p(-_strata(rng, n)) / self.rate
        arrivals = [0.0] * w + list((WARMUP_S if w else 0.0) + np.cumsum(gaps))
        if self.stratified_prompts:
            drawn = _uniform_ints(rng, *self.prompt, n)
        else:
            drawn = rng.integers(self.prompt[0], self.prompt[1] + 1, size=n)
        prompts = [self.prompt[0]] * w + list(drawn)
        outputs = [self.output[0]] * w + list(
            _uniform_ints(rng, *self.output, n))
        tokens = [None] * (w + n)
        if self.prefix_families:
            vocab = MODEL.vocab_size
            prefixes = rng.integers(
                0, vocab, size=(self.prefix_families, self.prefix_len))
            families = list(range(w)) + list(
                rng.permutation(np.arange(n) % self.prefix_families))
            for i in range(w + n):
                suffix = rng.integers(
                    0, vocab, size=int(prompts[i]) - self.prefix_len)
                tokens[i] = tuple(
                    int(t) for t in np.concatenate([prefixes[families[i]],
                                                    suffix]))
        return [
            Request(req_id=i, arrival_s=float(arrivals[i]),
                    prompt_len=int(prompts[i]), output_len=int(outputs[i]),
                    prompt_tokens=tokens[i])
            for i in range(w + n)
        ]


def _chat_engine() -> ServingEngine:
    return ServingEngine(MODEL, DEVICE, EngineConfig())


def _dp2_cluster() -> ClusterEngine:
    return ClusterEngine(
        MODEL, DEVICE, ClusterConfig(dp=2, policy="prefix_affinity")
    )


def _tp2_engine() -> ServingEngine:
    return ServingEngine(
        MODEL, DEVICE,
        EngineConfig(
            tp=2,
            interconnect=NVLINK,
            telemetry=TelemetryConfig(),
            scheduler=SchedulerConfig(
                prefill_chunk=None, max_num_batched_tokens=2048
            ),
        ),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="chat_decode",
            make_engine=_chat_engine,
            # 12 req/s, not the baseline's 20: at 20 bursts fill the 16
            # sequence slots and the p90 TTFT swings ~17% between seeds.
            num_requests=60,
            rate=12.0,
            prompt=(8, 64),
            output=(4, 32),
            stratified_prompts=False,
        ),
        Workload(
            name="shared_prefix_dp2",
            make_engine=_dp2_cluster,
            # Well below saturation: at 40 req/s latencies swing by 5x
            # between seeds, at 24 the p90 TTFT by ~13%, at 16 by ~6%.
            # Suffixes of at most 128 tokens prefill in one or two
            # 64-token chunks, so the p90 TTFT does not sit on the
            # boundary between two- and three-chunk prompts.
            num_requests=56,
            rate=16.0,
            prompt=(272, 384),
            output=(4, 32),
            prefix_families=4,
            prefix_len=256,
        ),
        Workload(
            name="long_prompt_tp2",
            make_engine=_tp2_engine,
            # At 1 req/s few decodes overlap another request's unchunked
            # prefill; at 2 req/s about 12% do, right at the p90 TPOT.
            # 39 requests leave at least 34 with two or more output
            # tokens, so the three serves give over 100 TPOT samples.
            num_requests=39,
            rate=1.0,
            prompt=(128, 1024),
            output=(1, 8),
        ),
    ]
}
