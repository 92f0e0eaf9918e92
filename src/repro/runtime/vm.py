"""The Relax virtual machine.

After the lowering pipeline (§4.7) a Relax program is "a sequence of
virtual machine instructions, each of which is a call into a generated or
builtin function".  This module defines that instruction set and its
interpreter.

Symbolic shapes at runtime follow the paper's design: each VM function owns
an integer *shape heap*; ``MatchShape`` populates variable slots from input
tensor shapes (and asserts the lightweight §4.1 boundary checks),
``ComputeShape`` evaluates derived symbolic expressions into slots, and
every downstream shape-consuming instruction (``AllocStorage``,
``AllocTensor``, ``MakeShape``, ``CallTir`` symbolic arguments) reads slots.

Execution accounting runs on the analytical device model (DESIGN.md §2):
each kernel contributes roofline time + launch overhead; captured graphs
replay with one graph-launch overhead (§4.5); storages and pool traffic
feed the Table 2 memory numbers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import dtypes, sym, tir
from ..obs.trace import TraceRecorder
from .device import Device
from .library import REGISTRY, LibraryRegistry
from .ndarray import NDArray, ShapeTuple, Storage
from .profiler import ExecutionStats, RuntimePool

# A shape dimension spec: ("const", value) or ("slot", heap index).
DimSpec = Tuple[str, int]


def const_dim(value: int) -> DimSpec:
    return ("const", int(value))


def slot_dim(slot: int) -> DimSpec:
    return ("slot", slot)


# -- instructions ------------------------------------------------------------------


@dataclass
class Instr:
    pass


@dataclass
class MatchShape(Instr):
    """Read a tensor's shape; store into / assert against heap slots.

    ``actions`` is a list of (dim_index, kind, payload):
    ``("store", slot)`` binds a fresh symbolic variable;
    ``("assert_slot", slot)`` / ``("assert_const", value)`` are the runtime
    checks generated from annotations (§4.1, match_cast §3.2).
    """

    reg: int
    actions: List[Tuple[int, str, int]]
    ndim: Optional[int] = None
    dtype: Optional[str] = None
    context: str = ""


@dataclass
class ComputeShape(Instr):
    """Evaluate a symbolic expression over heap slots into a slot."""

    dst_slot: int
    expr: sym.PrimExpr
    var_slots: List[Tuple[sym.SymVar, int]]


@dataclass
class MakeShape(Instr):
    """Construct a first-class runtime ShapeTuple from slots/consts."""

    dst: int
    dims: List[DimSpec]


@dataclass
class LoadConst(Instr):
    dst: int
    const_idx: int


@dataclass
class AllocStorage(Instr):
    """Allocate (or reuse, across calls) a storage of ``size`` bytes."""

    dst: int
    size: DimSpec
    escapes: bool = False  # holds a returned value (KV cache, logits)
    prov: Tuple[str, ...] = ()  # source-op provenance chain


@dataclass
class AllocTensor(Instr):
    """Instantiate a tensor, either from a planned storage or the pool."""

    dst: int
    dims: List[DimSpec]
    dtype: str
    storage: Optional[int] = None  # register holding a Storage
    escapes: bool = False
    prov: Tuple[str, ...] = ()


@dataclass
class KillTensor(Instr):
    """Last use passed: release a pool-allocated tensor."""

    reg: int
    prov: Tuple[str, ...] = ()  # provenance of the alloc whose life this ends


@dataclass
class CallTir(Instr):
    """Launch a tensor program in destination-passing style."""

    func: str
    args: List[int]
    outs: List[int]
    sym_args: List[DimSpec] = field(default_factory=list)
    prov: Tuple[str, ...] = ()


@dataclass
class CallLib(Instr):
    """Launch an external library kernel in DPS."""

    name: str
    args: List[int]
    outs: List[int]
    prov: Tuple[str, ...] = ()


@dataclass
class CallBuiltin(Instr):
    """Call a VM builtin (allocating/data-dependent routines)."""

    dst: Optional[int]
    name: str
    args: List[int]
    prov: Tuple[str, ...] = ()


@dataclass
class CallFunc(Instr):
    """Call another VM-level function (subgraph function call)."""

    dst: int
    func: str
    args: List[int]


@dataclass
class MakeTupleI(Instr):
    dst: int
    srcs: List[int]


@dataclass
class GetItemI(Instr):
    dst: int
    src: int
    index: int


@dataclass
class If(Instr):
    cond: int
    then_body: List[Instr]
    then_out: int
    else_body: List[Instr]
    else_out: int
    dst: int


@dataclass
class Ret(Instr):
    reg: int


@dataclass
class VMFunction:
    name: str
    params: List[str]
    body: List[Instr]
    num_regs: int
    num_slots: int
    attrs: Dict = field(default_factory=dict)


class Executable:
    """A compiled module: VM functions + bound tensor programs + constants."""

    def __init__(self):
        self.functions: Dict[str, VMFunction] = {}
        self.tir_funcs: Dict[str, tir.PrimFunc] = {}
        self.constants: List[np.ndarray] = []

    def add_constant(self, array: np.ndarray) -> int:
        self.constants.append(array)
        return len(self.constants) - 1


class VMError(Exception):
    pass


class _Frame:
    __slots__ = ("regs", "heap")

    def __init__(self, num_regs: int, num_slots: int):
        self.regs: List = [None] * num_regs
        self.heap = np.zeros(num_slots, dtype=np.int64)


# Cost-tape operation codes.  A code >= 0 is a storage site index (the
# operation re-runs that ``AllocStorage`` at the recorded size); the
# negative codes are pool traffic and non-kernel clock charges.
_POOL_ALLOC = -1  # AllocTensor from the pool; alloc overhead unless reused
_POOL_ALLOC_ESC = -2  # the same for an escaping tensor
_POOL_TAKE = -3  # builtin result from the pool; never charges overhead
_POOL_FREE = -4  # KillTensor of a pool tensor
_CLOCK = -5  # time_s += other_s[arg]
_COMM = -6  # time_s and comm_time_s += other_s[arg]


class _CostTape:
    """What one graph-replayed call in abstract mode did to the clocks,
    counters and memory, recorded so that later calls with the same full
    argument signature can apply it instead of interpreting (DESIGN.md
    §16).

    ``kernel_s`` holds every kernel and library launch's time in launch
    order; each is added to both ``time_s`` and ``kernel_time_s``.
    ``ops`` holds flattened ``(position, code, arg)`` triples: the
    operation runs just before ``kernel_s[position]``, so every float
    charge lands in its original order.  ``other_s`` holds the builtin
    clock charges the ``_CLOCK``/``_COMM`` ops index.
    """

    __slots__ = ("kernel_s", "ops", "other_s", "kernel_launches",
                 "lib_calls", "builtin_calls", "result")

    def __init__(self):
        self.kernel_s = array("d")
        self.ops = array("q")
        self.other_s = array("d")
        self.kernel_launches = self.lib_calls = self.builtin_calls = 0
        self.result = None

    def op(self, code: int, arg: int) -> None:
        self.ops.extend((len(self.kernel_s), code, arg))

    def clock(self, code: int, seconds: float) -> None:
        self.op(code, len(self.other_s))
        self.other_s.append(seconds)


def ccl_combine(kind: str, chunks: List[np.ndarray], rank: int,
                extra: int) -> np.ndarray:
    """Combine rank-ordered collective contributions (shared by the VM's
    degenerate single-device path and the mesh's CollectiveChannel).

    Reductions accumulate strictly in rank order (``((c0 + c1) + c2)...``)
    and in f64 — the fixed order and precision that make sharded float
    results deterministic to the last bit (the caller casts back to the
    input dtype, a single rounding, matching the one rounding of the
    f64-internal compute kernels).  ``extra`` is the axis (all_gather /
    reduce_scatter) or the root rank (broadcast).
    """
    def widen(c):
        return c.astype(np.float64) if c.dtype.kind == "f" else c

    if kind == "all_reduce":
        acc = widen(chunks[0])
        for c in chunks[1:]:
            acc = acc + widen(c)
        return acc
    if kind == "all_gather":
        return np.concatenate(chunks, axis=extra)
    if kind == "reduce_scatter":
        acc = widen(chunks[0])
        for c in chunks[1:]:
            acc = acc + widen(c)
        world = len(chunks)
        if acc.shape[extra] % world:
            raise VMError(
                f"ccl.reduce_scatter: dim {extra} of size "
                f"{acc.shape[extra]} is not divisible by {world}"
            )
        return np.split(acc, world, axis=extra)[rank]
    if kind == "broadcast":
        return chunks[extra]
    raise VMError(f"unknown collective ccl.{kind!r}")


class VirtualMachine:
    """Interprets an Executable on a modeled device.

    ``concrete`` selects the execution mode: with it, kernels compute real
    values via the tensor-program interpreter and the library registry;
    without it, only shapes, allocations and the device clock advance.
    """

    def __init__(
        self,
        executable: Executable,
        device: Device,
        concrete: bool = True,
        enable_cuda_graph: bool = True,
        registry: LibraryRegistry = REGISTRY,
    ):
        self.exe = executable
        self.device = device
        self.concrete = concrete
        self.enable_cuda_graph = enable_cuda_graph
        self.registry = registry
        self.stats = ExecutionStats()
        #: Optional trace hook (see :mod:`repro.obs.trace`).  ``None`` —
        #: the default — keeps execution bit-identical to an untraced run.
        self.tracer: Optional[TraceRecorder] = None
        #: Optional mesh placement (:class:`repro.dist.mesh.MeshContext`):
        #: rank/world/channel for ``ccl.*`` builtins.  ``None`` — the
        #: default — selects degenerate single-device replica semantics.
        self.mesh = None
        #: Optional :class:`repro.dist.interconnect.Interconnect` charged
        #: by collective builtins; ``None`` prices collectives at zero.
        self.interconnect = None
        self.pool = RuntimePool(self.stats)
        self._storage_cache: Dict[Tuple[str, int], Storage] = {}
        self._graph_cache: Dict[Tuple, int] = {}
        self._cost_cache: Dict[Tuple, Tuple[int, int]] = {}
        self._replay_depth = 0
        self._const_cache: Dict[int, NDArray] = {}
        # Per function: for each parameter, the bounded dims the graph
        # key drops (``None`` when there are none).
        self._graph_skips: Dict[str, Tuple] = {}
        # Cost tapes by full argument signature (``None``: the call's
        # result cannot be rebuilt, so that signature always interprets),
        # the tape being recorded, and the storage sites tapes name.
        self._tapes: Dict[Tuple, Optional[_CostTape]] = {}
        self._tape_env: Tuple = ()
        self._recording: Optional[_CostTape] = None
        self._site_index: Dict[Tuple[str, int], int] = {}
        self._sites: List[Tuple[Tuple[str, int], bool]] = []
        self._result_parts: Dict[Tuple, Tuple] = {}
        #: Graph replays served from a cost tape / interpreted although
        #: eligible for one (abstract mode, no tracer attached).
        self.tape_hits = 0
        self.tape_misses = 0

    # -- public API ------------------------------------------------------------

    def run(self, func_name: str, *args):
        """Invoke a VM function with NDArray / ShapeTuple / int arguments."""
        return self._call(func_name, list(args))

    def reset_stats(self, *, reset_pool: bool = True) -> ExecutionStats:
        """Start a fresh :class:`ExecutionStats` window; returns the old one.

        With ``reset_pool=True`` (the default, and the historical
        behaviour) the :class:`RuntimePool` free list is dropped too, so
        the next run re-allocates blocks an uninterrupted run would have
        recycled — correct for "measure one steady-state step from
        scratch", but it *double-counts allocations* if used to split one
        continuous workload into windows.  For per-window deltas on a
        shared VM (e.g. scheduler iterations in ``repro.serve``) either
        pass ``reset_pool=False``, which re-binds the live pool to the new
        stats object, or — preferably — leave the stats alone and use
        ``stats.copy()`` / ``stats.delta()``.
        """
        old = self.stats
        self.stats = ExecutionStats()
        if reset_pool:
            self.pool = RuntimePool(self.stats)
        else:
            self.pool.stats = self.stats
        return old

    # -- function invocation ------------------------------------------------------

    def _call(self, func_name: str, args: List):
        if func_name not in self.exe.functions:
            raise VMError(f"no VM function named {func_name!r}")
        func = self.exe.functions[func_name]
        if len(args) != len(func.params):
            raise VMError(
                f"{func_name}: expected {len(func.params)} arguments, got {len(args)}"
            )

        use_graph = (
            func.attrs.get("cuda_graph")
            and self.enable_cuda_graph
            and self._replay_depth == 0
        )
        if use_graph:
            taping = not self.concrete and self.tracer is None
            key, tape_key = self._call_keys(func, args, taping)
            if key in self._graph_cache:
                if tape_key is None:
                    return self._run_replayed(func, args)
                env = (self.device, self.interconnect, self.registry)
                if env != self._tape_env:
                    # Tapes hold prices from the old cost model.
                    self._tapes.clear()
                    self._tape_env = env
                tape = self._tapes.get(tape_key)
                if tape is not None:
                    self.tape_hits += 1
                    return self._apply_tape(tape, args)
                self.tape_misses += 1
                return self._run_replayed(
                    func, args, None if tape_key in self._tapes else tape_key
                )
            # First run with this shape signature: capture.
            self.stats.graph_captures += 1
            capture_s = 10 * self.device.kernel_launch_overhead
            if self.tracer is not None:
                self.tracer.emit("graph_capture", func_name,
                                 self.stats.time_s, capture_s)
            self.stats.time_s += capture_s
            result = self._run_body(func, args)
            self._graph_cache[key] = 1
            return result
        return self._run_body(func, args)

    def _run_replayed(self, func: VMFunction, args: List,
                      tape_key: Optional[Tuple] = None):
        """Interpret a graph replay; with ``tape_key``, record its tape."""
        stats = self.stats
        tape = None
        if tape_key is not None:
            tape = self._recording = _CostTape()
            builtins_before = stats.builtin_calls
        self._replay_depth += 1
        kernels_before = stats.kernel_launches
        libs_before = stats.lib_calls
        try:
            result = self._run_body(func, args)
        finally:
            self._replay_depth -= 1
            self._recording = None
        stats.graph_replays += 1
        kernels = stats.kernel_launches - kernels_before
        libs = stats.lib_calls - libs_before
        replayed = kernels + libs
        stats.replayed_kernels += replayed
        if self.tracer is not None:
            self.tracer.emit("graph_replay", func.name, stats.time_s,
                             self.device.graph_launch_overhead, kernels=replayed)
        stats.time_s += self.device.graph_launch_overhead
        if tape is not None:
            tape.kernel_launches = kernels
            tape.lib_calls = libs
            tape.builtin_calls = stats.builtin_calls - builtins_before
            cache = self._storage_cache
            owners = {id(cache[k]): site for k, site in self._site_index.items()
                      if k in cache}
            positions = {id(a): i for i, a in enumerate(args)}
            tape.result = self._result_template(result, positions, owners)
            self._tapes[tape_key] = None if tape.result is None else tape
        return result

    def _apply_tape(self, tape: _CostTape, args: List):
        """Charge a graph replay from its tape instead of interpreting.

        Float charges are added one at a time in their recorded order,
        so every clock ends bit-identical to interpretation; storage and
        pool operations re-run against the live caches.
        """
        stats = self.stats
        pool = self.pool
        cache = self._storage_cache
        sites = self._sites
        alloc_s = self.device.alloc_overhead
        kernel_s = tape.kernel_s
        ops = tape.ops
        t = stats.time_s
        kt = stats.kernel_time_s
        done = 0
        for j in range(0, len(ops), 3):
            at = ops[j]
            for dt in kernel_s[done:at]:
                t += dt
                kt += dt
            done = at
            code = ops[j + 1]
            arg = ops[j + 2]
            if code >= 0:
                key, escapes = sites[code]
                cached = cache.get(key)
                if cached is not None and cached.size == arg:
                    continue
                if cached is not None:
                    stats.record_free(cached.size)
                stats.record_alloc(arg, escapes)
                t += alloc_s
                cache[key] = Storage(arg, False)
            elif code == _POOL_FREE:
                pool.release(arg)
            elif code >= _POOL_TAKE:
                reused = pool.allocate(arg, code == _POOL_ALLOC_ESC)
                if not reused and code != _POOL_TAKE:
                    t += alloc_s
            else:
                dt = tape.other_s[arg]
                t += dt
                if code == _COMM:
                    stats.comm_time_s += dt
        for dt in kernel_s[done:]:
            t += dt
            kt += dt
        stats.time_s = t + self.device.graph_launch_overhead
        stats.kernel_time_s = kt
        stats.kernel_launches += tape.kernel_launches
        stats.lib_calls += tape.lib_calls
        stats.builtin_calls += tape.builtin_calls
        stats.graph_replays += 1
        stats.replayed_kernels += tape.kernel_launches + tape.lib_calls
        return self._build_result(tape.result, args)

    def _result_template(self, value, positions: Dict[int, int],
                         owners: Dict[int, int]) -> Optional[Tuple]:
        """How to rebuild a replay's result from a tape, or ``None`` when
        it holds a value that cannot be rebuilt.  ``positions`` maps
        argument ids to their index, ``owners`` storage ids to their
        storage site.  A returned argument is stored as its bare index;
        tensor entries are interned, so tapes whose results agree share
        them."""
        if isinstance(value, tuple):
            parts = [self._result_template(v, positions, owners) for v in value]
            return None if None in parts else ("tup", tuple(parts))
        if id(value) in positions:
            return positions[id(value)]
        if isinstance(value, NDArray):
            if value.storage is not None:
                site = owners.get(id(value.storage))
                if site is None:
                    return None
                part = ("st", value.shape, value.dtype, site)
            elif any(value is c for c in self._const_cache.values()):
                return ("obj", value)
            else:
                part = ("nd", value.shape, value.dtype)
            return self._result_parts.setdefault(part, part)
        if value is None or isinstance(value, (int, ShapeTuple)):
            return ("obj", value)
        return None

    def _build_result(self, template, args: List):
        if type(template) is int:
            return args[template]
        tag = template[0]
        if tag == "tup":
            return tuple(self._build_result(t, args) for t in template[1])
        if tag == "st":
            key = self._sites[template[3]][0]
            return NDArray(template[1], template[2],
                           storage=self._storage_cache[key])
        if tag == "nd":
            return NDArray(template[1], template[2])
        return template[1]

    def _call_keys(self, func: VMFunction, args: List,
                   taping: bool) -> Tuple[Tuple, Optional[Tuple]]:
        """The graph-capture key and, with ``taping``, the cost-tape key.

        The capture key skips bounded dynamic dims: dims planned with
        worst-case storage (declared upper bounds) do not invalidate the
        captured graph when they vary — the replay updates kernel
        parameters in place (cudaGraphExecUpdate semantics).  The tape
        key keeps every dim, and adds dtypes, because kernel costs
        depend on both.  It reuses the arguments' own shape tuples and
        is ``None`` when an argument is neither a tensor, a shape nor an
        int.  Argument kinds cannot collide in either key: a tensor adds
        an all-int shape (capture key) or a dtype string and its shape
        (tape key), a shape a tuple led by ``"s"`` (or ``None`` and its
        values), an int itself.
        """
        skips = self._graph_skips.get(func.name)
        if skips is None:
            dynamic = func.attrs.get("graph_dynamic_dims") or {}
            skips = self._graph_skips[func.name] = tuple(
                frozenset(dynamic[i]) if dynamic.get(i) else None
                for i in range(len(func.params))
            )
        sig: List = []
        tape: List = [func.name]
        for arg, skip in zip(args, skips):
            if isinstance(arg, NDArray):
                shape = arg.shape
                sig.append(shape if skip is None else tuple(
                    -1 if d in skip else v for d, v in enumerate(shape)
                ))
                tape.append(arg.dtype)
                tape.append(shape)
            elif isinstance(arg, ShapeTuple):
                sig.append(("s",) + arg.values)
                tape.append(None)
                tape.append(arg.values)
            elif isinstance(arg, int):
                sig.append(arg)
                tape.append(arg)
            else:
                sig.append(("x",) + VirtualMachine._signature([arg]))
                taping = False
        return ((func.name, tuple(sig)),
                tuple(tape) if taping else None)

    @staticmethod
    def _signature(args: List) -> Tuple:
        sig = []
        for arg in args:
            if isinstance(arg, NDArray):
                sig.append(("t",) + arg.shape)
            elif isinstance(arg, ShapeTuple):
                sig.append(("s",) + arg.values)
            elif isinstance(arg, int):
                sig.append(("i", arg))
            elif isinstance(arg, tuple):
                sig.append(("tup", VirtualMachine._signature(list(arg))))
            else:
                sig.append(("o",))
        return tuple(sig)

    def _run_body(self, func: VMFunction, args: List):
        frame = _Frame(func.num_regs, func.num_slots)
        for i, arg in enumerate(args):
            frame.regs[i] = arg
        result = self._exec_block(func, func.body, frame)
        if result is _NO_RETURN:
            raise VMError(f"{func.name}: function body fell through without Ret")
        return result

    # -- instruction dispatch --------------------------------------------------------

    def _exec_block(self, func: VMFunction, body: List[Instr], frame: _Frame):
        for instr in body:
            if isinstance(instr, Ret):
                return frame.regs[instr.reg]
            self._exec_instr(func, instr, frame)
        return _NO_RETURN

    def _exec_instr(self, func: VMFunction, instr: Instr, frame: _Frame) -> None:
        if isinstance(instr, MatchShape):
            self._exec_match_shape(instr, frame)
        elif isinstance(instr, ComputeShape):
            env = {var: int(frame.heap[slot]) for var, slot in instr.var_slots}
            frame.heap[instr.dst_slot] = sym.evaluate(instr.expr, env)
        elif isinstance(instr, MakeShape):
            frame.regs[instr.dst] = ShapeTuple(
                [self._dim_value(d, frame) for d in instr.dims]
            )
        elif isinstance(instr, LoadConst):
            frame.regs[instr.dst] = self._load_const(instr.const_idx)
        elif isinstance(instr, AllocStorage):
            frame.regs[instr.dst] = self._alloc_storage(func, instr, frame)
        elif isinstance(instr, AllocTensor):
            frame.regs[instr.dst] = self._alloc_tensor(instr, frame)
        elif isinstance(instr, KillTensor):
            arr = frame.regs[instr.reg]
            if isinstance(arr, NDArray) and arr.storage is None:
                self.pool.release(arr.size_bytes())
                if self._recording is not None:
                    self._recording.op(_POOL_FREE, arr.size_bytes())
                if self.tracer is not None:
                    self.tracer.emit("free", "pool_tensor", self.stats.time_s,
                                     0.0, instr.prov, size=arr.size_bytes())
            frame.regs[instr.reg] = None
        elif isinstance(instr, CallTir):
            self._exec_call_tir(instr, frame)
        elif isinstance(instr, CallLib):
            self._exec_call_lib(instr, frame)
        elif isinstance(instr, CallBuiltin):
            self._exec_builtin(instr, frame)
        elif isinstance(instr, CallFunc):
            callee_args = [frame.regs[r] for r in instr.args]
            frame.regs[instr.dst] = self._call(instr.func, callee_args)
        elif isinstance(instr, MakeTupleI):
            frame.regs[instr.dst] = tuple(frame.regs[r] for r in instr.srcs)
        elif isinstance(instr, GetItemI):
            frame.regs[instr.dst] = frame.regs[instr.src][instr.index]
        elif isinstance(instr, If):
            cond = frame.regs[instr.cond]
            taken = self._truth_value(cond)
            body = instr.then_body if taken else instr.else_body
            out = instr.then_out if taken else instr.else_out
            result = self._exec_block(func, body, frame)
            if result is not _NO_RETURN:
                raise VMError("Ret inside If branches is not supported")
            frame.regs[instr.dst] = frame.regs[out]
        else:
            raise VMError(f"unknown instruction {type(instr).__name__}")

    # -- shape machinery -------------------------------------------------------------

    def _dim_value(self, dim: DimSpec, frame: _Frame) -> int:
        kind, payload = dim
        if kind == "const":
            return payload
        return int(frame.heap[payload])

    def _exec_match_shape(self, instr: MatchShape, frame: _Frame) -> None:
        value = frame.regs[instr.reg]
        if isinstance(value, NDArray):
            shape = value.shape
            if instr.dtype is not None and value.dtype != instr.dtype:
                raise VMError(
                    f"{instr.context}: dtype mismatch, expected {instr.dtype}, "
                    f"got {value.dtype}"
                )
        elif isinstance(value, ShapeTuple):
            shape = value.values
        else:
            raise VMError(f"{instr.context}: cannot match shape of {type(value).__name__}")
        if instr.ndim is not None and len(shape) != instr.ndim:
            raise VMError(
                f"{instr.context}: rank mismatch, expected {instr.ndim}, got {len(shape)}"
            )
        for dim_idx, kind, payload in instr.actions:
            actual = shape[dim_idx]
            if kind == "store":
                frame.heap[payload] = actual
            elif kind == "assert_slot":
                if int(frame.heap[payload]) != actual:
                    raise VMError(
                        f"{instr.context}: symbolic dim {dim_idx} expected "
                        f"{int(frame.heap[payload])}, got {actual}"
                    )
            elif kind == "assert_const":
                if actual != payload:
                    raise VMError(
                        f"{instr.context}: dim {dim_idx} expected {payload}, got {actual}"
                    )
            else:  # pragma: no cover
                raise VMError(f"unknown MatchShape action {kind!r}")

    # -- memory ------------------------------------------------------------------------

    def _alloc_storage(self, func: VMFunction, instr: AllocStorage, frame: _Frame) -> Storage:
        size = self._dim_value(instr.size, frame)
        key = (func.name, id(instr))
        if self._recording is not None:
            site = self._site_index.get(key)
            if site is None:
                site = self._site_index[key] = len(self._sites)
                self._sites.append((key, instr.escapes))
            self._recording.op(site, size)
        cached = self._storage_cache.get(key)
        if cached is not None and cached.size == size:
            return cached
        if cached is not None:
            self.stats.record_free(cached.size)
            if self.tracer is not None:
                self.tracer.emit("free", "storage", self.stats.time_s, 0.0,
                                 instr.prov, size=cached.size, resized=True)
        self.stats.record_alloc(size, instr.escapes)
        if self.tracer is not None:
            self.tracer.emit("alloc", "storage", self.stats.time_s,
                             self.device.alloc_overhead, instr.prov,
                             size=size, escapes=instr.escapes)
        self.stats.time_s += self.device.alloc_overhead
        storage = Storage(size, self.concrete)
        self._storage_cache[key] = storage
        return storage

    def _alloc_tensor(self, instr: AllocTensor, frame: _Frame) -> NDArray:
        shape = [self._dim_value(d, frame) for d in instr.dims]
        if instr.storage is not None:
            storage = frame.regs[instr.storage]
            if not isinstance(storage, Storage):
                raise VMError("AllocTensor storage register does not hold a Storage")
            needed = math.prod(shape) * dtypes.itemsize(instr.dtype)
            if needed > storage.size:
                raise VMError(
                    f"tensor of {needed} bytes does not fit storage of {storage.size}"
                )
            return NDArray.empty(shape, instr.dtype, self.concrete, storage=storage)
        arr = NDArray.empty(shape, instr.dtype, self.concrete)
        reused = self.pool.allocate(arr.size_bytes(), instr.escapes)
        if self._recording is not None:
            self._recording.op(_POOL_ALLOC_ESC if instr.escapes else _POOL_ALLOC,
                               arr.size_bytes())
        if self.tracer is not None:
            self.tracer.emit(
                "alloc", "pool_tensor", self.stats.time_s,
                0.0 if reused else self.device.alloc_overhead, instr.prov,
                size=arr.size_bytes(), escapes=instr.escapes, reused=reused,
            )
        if not reused:
            self.stats.time_s += self.device.alloc_overhead
        return arr

    # -- kernels -----------------------------------------------------------------------

    def _exec_call_tir(self, instr: CallTir, frame: _Frame) -> None:
        if instr.func not in self.exe.tir_funcs:
            raise VMError(f"no tensor program named {instr.func!r}")
        func = self.exe.tir_funcs[instr.func]
        inputs = [self._as_ndarray(frame.regs[r], instr.func) for r in instr.args]
        outputs = [self._as_ndarray(frame.regs[r], instr.func) for r in instr.outs]
        sym_values = [self._dim_value(d, frame) for d in instr.sym_args]

        bindings = self._bind_shapes(func, inputs + outputs, sym_values)
        flops, nbytes = self._kernel_cost(instr.func, func, inputs + outputs, bindings)
        event = self._account_kernel(
            func, outputs, flops, nbytes, is_lib=False,
            trace_name=instr.func, prov=instr.prov, inputs=inputs,
            bindings=bindings,
        )

        if self.concrete:
            arrays = [a.numpy() for a in inputs] + [a.numpy() for a in outputs]
            sym_bindings = {
                var: value for var, value in bindings.items()
            }
            tir.run_prim_func(func, arrays, sym_bindings=sym_bindings)
            if event is not None and self.tracer.capture_outputs:
                event.outputs = [o.numpy().copy() for o in outputs]

    def _exec_call_lib(self, instr: CallLib, frame: _Frame) -> None:
        kernel = self.registry.get(instr.name)
        if self.device.backend not in kernel.backends:
            raise VMError(
                f"library {instr.name!r} is unavailable on backend "
                f"{self.device.backend!r}"
            )
        inputs = [self._as_ndarray(frame.regs[r], instr.name) for r in instr.args]
        outputs = [self._as_ndarray(frame.regs[r], instr.name) for r in instr.outs]
        in_sd = [(a.shape, a.dtype) for a in inputs]
        out_sd = [(a.shape, a.dtype) for a in outputs]
        flops, nbytes = kernel.cost(in_sd, out_sd)
        eff_class = kernel.efficiency_class(in_sd, out_sd)
        efficiency = {
            "lib": self.device.lib_efficiency,
            "gen": self.device.gen_efficiency,
            "gen_matvec": self.device.gen_matvec_efficiency,
        }[eff_class]
        include_launch = self._replay_depth == 0
        time = self.device.kernel_time(flops, nbytes, efficiency, include_launch)
        if not include_launch:
            time += self.device.graph_kernel_overhead
        event = None
        if self.tracer is not None:
            roofline = self.device.kernel_roofline(flops, nbytes, efficiency)
            event = self.tracer.emit(
                "library", instr.name, self.stats.time_s, time, instr.prov,
                flops=flops, bytes=nbytes, efficiency=efficiency,
                roofline_s=roofline, launch_s=time - roofline,
                replayed=not include_launch,
                shapes=[list(a.shape) for a in inputs + outputs],
            )
        self.stats.time_s += time
        self.stats.kernel_time_s += time
        if self._recording is not None:
            self._recording.kernel_s.append(time)
        if include_launch:
            self.stats.launch_overhead_s += self.device.kernel_launch_overhead
        self.stats.lib_calls += 1
        if self.concrete:
            kernel.compute([a.numpy() for a in inputs], [a.numpy() for a in outputs])
            if event is not None and self.tracer.capture_outputs:
                event.outputs = [o.numpy().copy() for o in outputs]

    def _account_kernel(self, func: tir.PrimFunc, outputs, flops, nbytes, is_lib,
                        trace_name=None, prov=(), inputs=(), bindings=None):
        efficiency = self.device.gen_efficiency
        if func.attrs.get("schedule_class") == "opaque":
            # No analysis rule covers this program: the naive fallback
            # schedule applies unless Ansor-style tuning found better
            # (§4.6's "rare tensor programs" case).
            efficiency = self.device.gen_efficiency * 0.6
        tuned = func.attrs.get("tuned_efficiency")
        if tuned is not None:
            efficiency = float(tuned)
        if func.attrs.get("op_kind") == "matmul" and outputs:
            rows = 1
            for d in outputs[0].shape[:-1]:
                rows *= d
            if rows == 1:
                # Compiler-specialized matrix-vector kernels at batch 1
                # (the paper's Fig. 15 advantage).
                efficiency = self.device.gen_matvec_efficiency
            else:
                # Analysis-based schedules without autotuning trail the
                # vendor GEMM on compute-bound shapes (why partial library
                # lowering is the biggest Fig. 17 contributor).
                efficiency = self.device.gen_gemm_efficiency
        include_launch = self._replay_depth == 0
        time = self.device.kernel_time(flops, nbytes, efficiency, include_launch)
        if not include_launch:
            time += self.device.graph_kernel_overhead
        event = None
        if self.tracer is not None:
            roofline = self.device.kernel_roofline(flops, nbytes, efficiency)
            event = self.tracer.emit(
                "kernel", trace_name or func.name, self.stats.time_s, time, prov,
                flops=flops, bytes=nbytes, efficiency=efficiency,
                roofline_s=roofline, launch_s=time - roofline,
                replayed=not include_launch,
                shapes=[list(a.shape) for a in list(inputs) + list(outputs)],
                sym={var.name: int(v) for var, v in (bindings or {}).items()},
            )
        self.stats.time_s += time
        self.stats.kernel_time_s += time
        if self._recording is not None:
            self._recording.kernel_s.append(time)
        if include_launch:
            self.stats.launch_overhead_s += self.device.kernel_launch_overhead
        self.stats.kernel_launches += 1
        return event

    def _bind_shapes(self, func: tir.PrimFunc, arrays: List[NDArray], sym_values):
        bindings: Dict[sym.SymVar, int] = {}
        for var, value in zip(func.sym_params, sym_values):
            bindings[var] = int(value)
        for buf, arr in zip(func.params, arrays):
            for dim, actual in zip(buf.shape, arr.shape):
                if isinstance(dim, sym.SymVar) and dim not in bindings:
                    bindings[dim] = int(actual)
        return bindings

    def _kernel_cost(self, name, func, arrays, bindings):
        key = (name, tuple(a.shape for a in arrays))
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        flops = tir.count_flops(func, bindings)
        nbytes = tir.count_bytes(func, bindings)
        self._cost_cache[key] = (flops, nbytes)
        return flops, nbytes

    # -- builtins -----------------------------------------------------------------------

    def _exec_builtin(self, instr: CallBuiltin, frame: _Frame) -> None:
        args = [frame.regs[r] for r in instr.args]
        self.stats.builtin_calls += 1
        ts = self.stats.time_s
        if instr.name == "vm.builtin.shape_of":
            arr = args[0]
            result = ShapeTuple(arr.shape)
        elif instr.name == "vm.builtin.unique":
            result = self._builtin_unique(args[0])
        elif instr.name == "vm.builtin.nonzero":
            result = self._builtin_nonzero(args[0])
        elif instr.name.startswith("vm.builtin.ccl."):
            result = self._builtin_ccl(
                instr.name[len("vm.builtin.ccl."):], args
            )
        else:
            raise VMError(f"unknown builtin {instr.name!r}")
        if self.tracer is not None:
            # Builtins charge the clock internally; the delta is the cost.
            self.tracer.emit("builtin", instr.name, ts,
                             self.stats.time_s - ts, instr.prov)
        if instr.dst is not None:
            frame.regs[instr.dst] = result

    def _builtin_clock(self, code: int, seconds: float) -> None:
        """Charge a builtin's clock time (``_COMM``: interconnect time)."""
        self.stats.time_s += seconds
        if code == _COMM:
            self.stats.comm_time_s += seconds
        if self._recording is not None:
            self._recording.clock(code, seconds)

    def _pool_take(self, size: int) -> None:
        """Allocate a builtin's result from the pool (no alloc overhead)."""
        self.pool.allocate(size)
        if self._recording is not None:
            self._recording.op(_POOL_TAKE, size)

    def _builtin_unique(self, arr: NDArray) -> NDArray:
        self._builtin_clock(_CLOCK, self.device.kernel_launch_overhead * 2)
        if self.concrete:
            out = np.unique(arr.numpy())
            self._pool_take(out.nbytes)
            return NDArray.from_numpy(out)
        # Abstract mode: data-dependent length is unknowable; use the upper
        # bound (every element distinct), matching §4.3's bound-based planning.
        result = NDArray.abstract((arr.num_elements(),), arr.dtype)
        self._pool_take(result.size_bytes())
        return result

    def _builtin_ccl(self, kind: str, args: List) -> NDArray:
        """Collective over the device mesh (``vm.builtin.ccl.*``).

        Integer operands (world, then axis or root) arrive as one-element
        shape tuples — the ``PrimValue`` calling convention.  With a mesh
        attached the value comes from the rank-ordered exchange over the
        :class:`~repro.dist.mesh.CollectiveChannel`; without one the VM
        acts as one rank of a mesh whose peers all hold this replica.
        The modeled interconnect (when attached) charges ring time into
        both ``time_s`` and ``comm_time_s``.
        """
        if kind not in ("all_reduce", "all_gather", "reduce_scatter",
                        "broadcast"):
            raise VMError(f"unknown collective ccl.{kind!r}")
        arr = self._as_ndarray(args[0], f"ccl.{kind}")
        world = int(args[1][0])
        extra = int(args[2][0]) if len(args) > 2 else 0
        if world < 1:
            raise VMError(f"ccl.{kind}: world must be >= 1, got {world}")
        mesh = self.mesh
        rank = 0
        if mesh is not None:
            if mesh.world != world:
                raise VMError(
                    f"ccl.{kind}: compiled for world {world} but running "
                    f"on a mesh of {mesh.world}"
                )
            rank = mesh.rank

        # One host-side enqueue, like every builtin; the wire time is the
        # interconnect's ring cost over the full logical payload.
        self._builtin_clock(_CLOCK, self.device.kernel_launch_overhead)
        if self.interconnect is not None and world > 1:
            full_bytes = arr.size_bytes()
            if kind == "all_gather":
                full_bytes *= world
            comm_s = getattr(self.interconnect, f"{kind}_s")(
                world, full_bytes
            )
            self._builtin_clock(_COMM, comm_s)

        if not self.concrete:
            shape = list(arr.shape)
            if kind == "all_gather":
                shape[extra] *= world
            elif kind == "reduce_scatter":
                if shape[extra] % world:
                    raise VMError(
                        f"ccl.reduce_scatter: dim {extra} of size "
                        f"{shape[extra]} is not divisible by {world}"
                    )
                shape[extra] //= world
            result = NDArray.abstract(tuple(shape), arr.dtype)
            self._pool_take(result.size_bytes())
            return result

        x = arr.numpy()
        if mesh is not None and mesh.channel is not None:
            chunks = mesh.channel.exchange(rank, x)
        else:
            chunks = [x] * world
        out = ccl_combine(kind, chunks, rank, extra)
        if out.dtype != x.dtype:
            out = out.astype(x.dtype)  # round the f64 reduction once
        elif any(out is c or out.base is not None for c in chunks):
            # Never alias a peer's (or our own) buffer: reduce_scatter
            # slices and broadcast returns the root's array directly.
            out = out.copy()
        self._pool_take(out.nbytes)
        return NDArray.from_numpy(out)

    def _builtin_nonzero(self, arr: NDArray) -> NDArray:
        self._builtin_clock(_CLOCK, self.device.kernel_launch_overhead * 2)
        if self.concrete:
            out = np.flatnonzero(arr.numpy()).astype(np.int64)
            self._pool_take(out.nbytes)
            return NDArray.from_numpy(out)
        result = NDArray.abstract((arr.num_elements(),), "i64")
        self._pool_take(result.size_bytes())
        return result

    # -- misc --------------------------------------------------------------------------

    def _load_const(self, idx: int) -> NDArray:
        cached = self._const_cache.get(idx)
        if cached is None:
            array = self.exe.constants[idx]
            if self.concrete:
                cached = NDArray.from_numpy(array)
            else:
                cached = NDArray.abstract(array.shape, dtypes.from_numpy(array.dtype))
            self._const_cache[idx] = cached
        return cached

    def _as_ndarray(self, value, context: str) -> NDArray:
        if not isinstance(value, NDArray):
            raise VMError(f"{context}: expected a tensor argument, got {type(value).__name__}")
        return value

    def _truth_value(self, cond) -> bool:
        if isinstance(cond, bool):
            return cond
        if isinstance(cond, int):
            return bool(cond)
        if isinstance(cond, NDArray):
            if not self.concrete:
                raise VMError("cannot evaluate a data-dependent branch in abstract mode")
            return bool(cond.numpy().reshape(()))
        raise VMError(f"invalid condition value {type(cond).__name__}")


class _NoReturn:
    pass


_NO_RETURN = _NoReturn()
