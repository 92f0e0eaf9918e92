"""Cost-tape replay: an untraced abstract VM applies recorded graph-replay
costs instead of interpreting, and must stay bit-identical to a traced
twin (which always interprets) after every call."""

from dataclasses import fields

import numpy as np
import pytest

from repro import sym, tir
from repro.bench.relax_runner import RelaxLLM
from repro.dist import NVLINK, PCIE
from repro.models import TINY_LLAMA, TINY_LLAMA_TP
from repro.obs.trace import TraceRecorder
from repro.runtime import (
    AllocStorage,
    AllocTensor,
    CallBuiltin,
    CallTir,
    ComputeShape,
    Executable,
    KillTensor,
    MakeShape,
    MakeTupleI,
    MatchShape,
    NDArray,
    Ret,
    ShapeTuple,
    TEST_DEVICE,
    VMError,
    VMFunction,
    VirtualMachine,
    const_dim,
    slot_dim,
)

PAGE = 4


def assert_same_stats(a, b):
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, float):
            assert x.hex() == y.hex(), f"{f.name}: {x!r} != {y!r}"
        else:
            assert x == y, f"{f.name}: {x!r} != {y!r}"


def structure(value):
    if isinstance(value, tuple):
        return tuple(structure(v) for v in value)
    if isinstance(value, NDArray):
        return ("nd", value.shape, value.dtype, value.data is None)
    if isinstance(value, ShapeTuple):
        return ("shape", value.values)
    return value


def run_twins(taped, traced, name, args):
    out = taped.run(name, *args)
    ref = traced.run(name, *args)
    assert structure(out) == structure(ref)
    assert_same_stats(taped.stats, traced.stats)
    return out


# -- a hand-assembled graph function touching every tape operation -----------------


def _scale_prim_func():
    n = sym.SymVar("n")
    f = tir.TirBuilder("scale")
    x = f.arg("X", (n, 4), "f32")
    y = f.out("Y", (n, 4), "f32")
    i, j = f.spatial(n, 4)
    f.store(y, [i, j], x[i, j] * 2.0)
    return f.build()


def _graph_exe():
    """main(x: (n, 4) f32) as a captured graph whose dim ``n`` is bounded
    (dropped from the capture key) yet sizes a planned storage, so one
    captured graph sees its storage resized between replays.  It also
    allocates and frees a pool tensor and calls a data-dependent builtin
    and a collective, and returns an argument and a shape unchanged."""
    exe = Executable()
    exe.tir_funcs["scale"] = _scale_prim_func()
    n_var = sym.SymVar("n")
    body = [
        MatchShape(reg=0, actions=[(0, "store", 0), (1, "assert_const", 4)],
                   ndim=2, dtype="f32", context="main: x"),
        ComputeShape(dst_slot=1, expr=n_var * 16, var_slots=[(n_var, 0)]),
        AllocStorage(dst=1, size=slot_dim(1), escapes=True),
        AllocTensor(dst=2, dims=[slot_dim(0), const_dim(4)], dtype="f32",
                    storage=1, escapes=True),
        CallTir(func="scale", args=[0], outs=[2]),
        AllocTensor(dst=3, dims=[slot_dim(0), const_dim(4)], dtype="f32"),
        CallTir(func="scale", args=[2], outs=[3]),
        CallBuiltin(dst=4, name="vm.builtin.unique", args=[3]),
        KillTensor(reg=3),
        MakeShape(dst=5, dims=[const_dim(2)]),
        CallBuiltin(dst=6, name="vm.builtin.ccl.all_reduce", args=[2, 5]),
        MakeTupleI(dst=7, srcs=[2, 4, 6, 0, 5]),
        Ret(reg=7),
    ]
    exe.functions["main"] = VMFunction(
        "main", ["x"], body, num_regs=8, num_slots=2,
        attrs={"cuda_graph": True, "graph_dynamic_dims": {0: (0,)}},
    )
    return exe


def _graph_twins(**kwargs):
    exe = _graph_exe()
    taped = VirtualMachine(exe, TEST_DEVICE, concrete=False, **kwargs)
    traced = VirtualMachine(exe, TEST_DEVICE, concrete=False, **kwargs)
    traced.tracer = TraceRecorder()
    for vm in (taped, traced):
        vm.interconnect = NVLINK
    return taped, traced


class TestHandBuiltGraph:
    def test_storage_resize_between_tape_hits(self):
        taped, traced = _graph_twins()
        # n=4: capture, record, hit; n=8 reuses the captured graph but
        # resizes the storage; back at n=4 the tape must re-charge the
        # resize it did not see when recording.
        for n in (4, 4, 4, 8, 4, 8, 8, 4, 4):
            out = run_twins(taped, traced, "main",
                            [NDArray.abstract((n, 4), "f32")])
            assert out[0].storage is taped._storage_cache[
                next(iter(taped._storage_cache))]
        assert taped.stats.graph_captures == 1
        assert taped.tape_hits == 6  # calls 3 and 5-9
        assert taped.tape_misses == 2  # first replays of n=4 and n=8
        assert traced.tape_hits == 0 and not traced._tapes
        assert taped.stats.comm_time_s > 0  # the collective was charged
        assert taped.stats.builtin_calls == 18

    def test_result_passes_arguments_through(self):
        taped, _ = _graph_twins()
        for _ in range(3):
            x = NDArray.abstract((4, 4), "f32")
            out = taped.run("main", x)
            assert out[3] is x
            assert out[4] == ShapeTuple([2])
        assert taped.tape_hits == 1

    def test_dtype_change_on_a_taped_signature_still_fails_match_shape(self):
        taped, _ = _graph_twins()
        for _ in range(3):
            taped.run("main", NDArray.abstract((4, 4), "f32"))
        assert taped.tape_hits == 1
        with pytest.raises(VMError, match="dtype mismatch"):
            taped.run("main", NDArray.abstract((4, 4), "f16"))

    def test_never_taped_when_concrete(self):
        vm = VirtualMachine(_graph_exe(), TEST_DEVICE, concrete=True)
        for _ in range(4):
            vm.run("main", NDArray.from_numpy(np.ones((4, 4), np.float32)))
        assert vm.stats.graph_replays == 3
        assert vm.tape_hits == vm.tape_misses == 0 and not vm._tapes

    def test_attached_tracer_bypasses_existing_tapes(self):
        taped, traced = _graph_twins()
        x = [NDArray.abstract((4, 4), "f32")]
        for _ in range(3):
            run_twins(taped, traced, "main", x)
        assert taped.tape_hits == 1
        taped.tracer = TraceRecorder()
        run_twins(taped, traced, "main", x)
        assert taped.tape_hits == 1
        assert [e.kind for e in taped.tracer.events].count("kernel") == 2
        taped.tracer = None
        run_twins(taped, traced, "main", x)
        assert taped.tape_hits == 2

    def test_new_interconnect_drops_tapes(self):
        taped, traced = _graph_twins()
        x = [NDArray.abstract((4, 4), "f32")]
        for _ in range(3):
            run_twins(taped, traced, "main", x)
        taped.interconnect = traced.interconnect = PCIE
        run_twins(taped, traced, "main", x)  # re-recorded at PCIe prices
        assert (taped.tape_hits, taped.tape_misses) == (1, 2)
        run_twins(taped, traced, "main", x)
        assert taped.tape_hits == 2


# -- the paged TINY_LLAMA serving functions ------------------------------------------


def _paged_args(llm, vm_pools, name, rows, cols, third):
    return [
        NDArray.abstract((rows, cols), "i64"),
        NDArray.abstract((rows, -(-third // PAGE) + 1), "i64"),
        NDArray.abstract((rows if name == "decode_paged" else third,), "i64"),
        *vm_pools,
        *llm.params,
    ]


def _pools(cfg, tp=1, num_blocks=32):
    shape = (num_blocks, PAGE, cfg.num_kv_heads // tp, cfg.head_dim)
    return [NDArray.abstract(shape, cfg.dtype)
            for _ in range(2 * cfg.num_layers)]


# (entry, rows, token columns, context/past): repeats, new signatures,
# and returns to old ones.
CALLS = [
    ("decode_paged", 2, 1, 5),
    ("decode_paged", 2, 1, 5),
    ("decode_paged", 2, 1, 5),
    ("prefill_paged", 1, 6, 0),
    ("prefill_paged", 1, 6, 0),
    ("decode_paged", 3, 1, 9),
    ("prefill_paged", 1, 6, 0),
    ("decode_paged", 2, 1, 5),
    ("prefill_paged", 1, 3, 6),
    ("decode_paged", 3, 1, 9),
    ("prefill_paged", 1, 3, 6),
    ("decode_paged", 2, 1, 5),
]


class TestPagedLlama:
    def test_taped_vm_matches_traced_twin_call_by_call(self):
        llm = RelaxLLM(TINY_LLAMA, TEST_DEVICE, page_size=PAGE)
        taped = llm.vm
        traced = VirtualMachine(llm.exe, TEST_DEVICE, concrete=False,
                                enable_cuda_graph=llm.enable_cuda_graph)
        traced.tracer = TraceRecorder()
        pools = _pools(TINY_LLAMA)
        for name, rows, cols, third in CALLS:
            run_twins(taped, traced, name,
                      _paged_args(llm, pools, name, rows, cols, third))
        assert taped.tape_hits >= 5
        assert taped.stats.graph_replays == traced.stats.graph_replays > 0
        assert traced.tape_hits == 0

    def test_dtype_change_still_raises(self):
        llm = RelaxLLM(TINY_LLAMA, TEST_DEVICE, page_size=PAGE)
        pools = _pools(TINY_LLAMA)
        for _ in range(3):
            llm.vm.run("decode_paged",
                       *_paged_args(llm, pools, "decode_paged", 2, 1, 5))
        assert llm.vm.tape_hits == 1
        args = _paged_args(llm, pools, "decode_paged", 2, 1, 5)
        args[0] = NDArray.abstract((2, 1), "i32")
        with pytest.raises(VMError, match="dtype mismatch"):
            llm.vm.run("decode_paged", *args)

    def test_tp2_mesh_matches_traced_twin_shard_by_shard(self):
        taped = RelaxLLM(TINY_LLAMA_TP, TEST_DEVICE, page_size=PAGE, tp=2)
        traced = RelaxLLM(TINY_LLAMA_TP, TEST_DEVICE, page_size=PAGE, tp=2)
        traced.vm.tracer = TraceRecorder()
        pools = _pools(TINY_LLAMA_TP, tp=2)
        for name, rows, cols, third in CALLS:
            args = _paged_args(taped, pools, name, rows, cols, third)
            out = taped.vm.run(name, *args)
            ref = traced.vm.run(name, *args)
            assert structure(out) == structure(ref)
            for a, b in zip(taped.vm.shard_stats, traced.vm.shard_stats):
                assert_same_stats(a, b)
        # Collectives keep the sharded functions out of graph capture
        # today, so these shards interpret; the equality must hold
        # whichever path they take.
        assert taped.mesh.vms[0].stats.comm_time_s > 0
