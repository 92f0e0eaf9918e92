"""Correctness checks the benchmark runs around its timed serves.

* :func:`failed_requests` -- the per-request output check applied to
  every served trace.  A request that fails it counts as failed.
* :func:`compiler_check` -- run once before timing: compile the tiny
  Llama through the same runner and pipeline flags the serving engine
  uses, execute the paged prefill/decode entries on real numbers, and
  compare every logit with the pure-NumPy reference model.  The
  reference shares nothing with the compiler, so a miscompile that the
  abstract (cost-only) serving runs cannot see still fails the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bench.relax_runner import RelaxLLM
from repro.models import TINY_LLAMA, ReferenceLlama
from repro.runtime import NDArray, VirtualMachine
from repro.serve import Request, RequestMetrics, ServeReport, TokenOracle


def failed_requests(
    requests: Sequence[Request],
    replica_reports: Sequence[ServeReport],
    assignments: Optional[Sequence[Tuple[int, int]]],
    vocab_size: int,
) -> Set[int]:
    """Ids of the requests whose output is wrong.

    A request passes when it appears in exactly one replica report (and,
    on a cluster, was routed exactly once, to that replica); it finished
    with exactly ``output_len`` tokens at non-decreasing times no earlier
    than its arrival; its token ids equal a fresh ``TokenOracle(seed=0)``
    replay; and its replica's end-of-run leak audit found no leaked
    block.
    """
    oracle = TokenOracle(seed=0, vocab_size=vocab_size)
    placed: Dict[int, List[Tuple[int, RequestMetrics]]] = {}
    leaky: Set[int] = set()
    for i, rep in enumerate(replica_reports):
        if rep.refcount_audit is None or rep.refcount_audit["leaked_blocks"]:
            leaky.add(i)
        for m in rep.requests:
            placed.setdefault(m.req_id, []).append((i, m))
    routed: Dict[int, List[int]] = {}
    for req_id, idx in assignments or ():
        routed.setdefault(req_id, []).append(idx)

    failed: Set[int] = set()
    for r in requests:
        where = placed.get(r.req_id, [])
        if len(where) != 1:
            failed.add(r.req_id)
            continue
        replica, m = where[0]
        if assignments is not None and routed.get(r.req_id) != [replica]:
            failed.add(r.req_id)
            continue
        times = m.token_times
        ok = (
            replica not in leaky
            and m.finish_s is not None
            and len(times) == r.output_len
            and len(m.output_tokens) == r.output_len
            and times[0] >= r.arrival_s
            and all(a <= b for a, b in zip(times, times[1:]))
            and m.finish_s == times[-1]
            and m.output_tokens == [
                oracle.target_token(r.req_id, i) for i in range(r.output_len)
            ]
        )
        if not ok:
            failed.add(r.req_id)
    return failed


def compiler_check(device) -> Optional[str]:
    """Compile ``TINY_LLAMA`` as the engine compiles its model and check
    the paged entries against :class:`ReferenceLlama`.

    A 21-token prompt is prefilled in chunks of 16 and 5 (crossing a
    page boundary), each chunk's K/V written into a concrete page pool
    through the block table, then three single-token decodes read it
    back.  Returns ``None`` on success, else a description of the first
    mismatch.
    """
    cfg, page, chunks, decode_steps = TINY_LLAMA, 16, (16, 5), 3
    llm = RelaxLLM(cfg, device, page_size=page, use_compile_cache=False)
    llm.exported.module.initialize(seed=5, scale=0.1)
    params = llm.exported.concrete_params()
    reference = ReferenceLlama(
        cfg, {name: p.data for name, p in llm.exported.param_order}
    )
    vm = VirtualMachine(llm.exe, device, concrete=True,
                        enable_cuda_graph=llm.enable_cuda_graph)

    rng = np.random.default_rng(11)
    total = sum(chunks) + decode_steps
    tokens = rng.integers(0, cfg.vocab_size, size=(1, total), dtype=np.int64)
    blocks = list(range(1, 1 + -(-total // page)))  # page 0 pads
    table = NDArray.from_numpy(np.asarray([blocks], np.int64))
    kv_shape = (len(blocks) + 1, page, cfg.num_kv_heads, cfg.head_dim)
    pools = [np.zeros(kv_shape, np.float32) for _ in range(2 * cfg.num_layers)]
    ref_caches = [
        np.zeros((1, 0, cfg.num_kv_heads, cfg.head_dim), np.float32)
        for _ in range(2 * cfg.num_layers)
    ]

    def write_back(slices, past: int) -> None:
        for j, sl in enumerate(slices):
            sl = sl.numpy()
            for t in range(sl.shape[1]):
                pos = past + t
                pools[j][blocks[pos // page], pos % page] = sl[0, t]

    steps = [("prefill_paged", c) for c in chunks]
    steps += [("decode_paged", 1)] * decode_steps
    pos = 0
    for entry, n in steps:
        step_tokens = tokens[:, pos:pos + n]
        w = -(-(pos + n) // page)
        if entry == "prefill_paged":
            res = vm.run(
                entry,
                NDArray.from_numpy(step_tokens),
                NDArray.from_numpy(np.asarray([blocks[:w]], np.int64)),
                NDArray.from_numpy(np.zeros(pos, np.int64)),
                *[NDArray.from_numpy(p) for p in pools],
                *params,
            )
        else:
            res = vm.run(
                entry,
                NDArray.from_numpy(step_tokens),
                table,
                NDArray.from_numpy(np.asarray([pos], np.int64)),
                *[NDArray.from_numpy(p) for p in pools],
                *params,
            )
        write_back(res[1:], pos)
        got = res[0].numpy()[:, -1:, :]
        want, ref_caches = reference.forward(step_tokens, ref_caches)
        if not np.allclose(got, want, rtol=1e-3, atol=1e-4):
            err = float(np.max(np.abs(got - want)))
            return (f"{entry} at position {pos}: logits differ from the "
                    f"NumPy reference (max abs error {err:.3g})")
        pos += n
    return None
