"""Differential oracle: one plan, every pipeline ablation, same answers.

For a generated :class:`~repro.fuzz.gen.Plan` the oracle compiles a fresh
materialization under every configuration in :func:`config_matrix` — each
``enable_*`` flag toggled off the full pipeline (``no-<flag>``), each flag
alone on top of the unoptimized baseline (``only-<flag>``), plus
``full-off`` and ``full-on`` — and runs all of them on the VM with the
plan's deterministic inputs.  The ``full-off`` execution is the reference;
every other configuration must agree tensor-by-tensor (float tolerance,
positional NaN/Inf, exact int/bool/shape equality).

Further invariants ride along:

* a :class:`~repro.transform.WellFormedVerifier` instrument asserts
  well-formedness after *every* pass in every configuration;
* the ``full-on`` executable runs twice and must reproduce itself exactly
  (CUDA-graph replay must not capture stale state);
* the ``full-on`` executable runs three times in abstract mode on a plain
  VM and on a traced twin, which always interprets: the plain VM's cost
  tapes (captured, recorded, then applied) must leave every
  :class:`~repro.runtime.ExecutionStats` field exactly equal;
* the memory planner's Algorithm-3 invariant — two simultaneously-live
  tensors never share a storage — is checked structurally on the lowered
  module (:func:`aliasing_violations`).

Any violation raises :class:`FuzzFailure`, which names the configuration
and carries a human-readable detail string for the shrinker and corpus.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import dtypes, transform
from ..core import Call, Function, If, SeqExpr
from ..core import Tuple as IRTuple
from ..core import TupleGetItem, Var
from ..obs.trace import TraceRecorder
from ..runtime import NDArray, TEST_DEVICE, VirtualMachine, compare_values
from ..transform import (
    PassContext,
    WellFormedVerifier,
    alloc_tensor_from_storage_op,
)
from .gen import Plan, PlanError, build_module, make_inputs

FLAGS = ("library_dispatch", "fusion", "memory_planning", "cuda_graph",
         "autotuning")


class FuzzFailure(Exception):
    """A differential-testing invariant broke for one configuration.

    ``kind`` is one of: ``compile-error``, ``ill-formed``, ``runtime-error``,
    ``divergence``, ``replay-divergence``, ``tape-divergence``, ``aliasing``.
    """

    def __init__(self, kind: str, config: str, detail: str):
        self.kind = kind
        self.config = config
        self.detail = detail
        super().__init__(f"[{kind} @ {config}] {detail}")


def config_matrix() -> List[Tuple[str, Dict[str, bool]]]:
    """All pipeline ablations, reference (``full-off``) first."""
    configs: List[Tuple[str, Dict[str, bool]]] = [
        ("full-off", {f: False for f in FLAGS}),
        ("full-on", {f: True for f in FLAGS}),
    ]
    for flag in FLAGS:
        ablated = {f: True for f in FLAGS}
        ablated[flag] = False
        configs.append((f"no-{flag}", ablated))
        solo = {f: False for f in FLAGS}
        solo[flag] = True
        configs.append((f"only-{flag}", solo))
    return configs


def _compile(plan: Plan, config: str, flags: Dict[str, bool]):
    try:
        mod = build_module(plan)
    except PlanError:
        # An invalid *plan* (e.g. a bad shrink edit) is not a compiler bug.
        raise
    except Exception as err:
        raise FuzzFailure("compile-error", config,
                          f"build_module: {type(err).__name__}: {err}")
    kwargs = {f"enable_{f}": v for f, v in flags.items()}
    try:
        return transform.build(
            mod, TEST_DEVICE,
            sym_var_upper_bounds=dict(plan.dims),
            instruments=[WellFormedVerifier()],
            **kwargs,
        )
    except Exception as err:
        text = f"{type(err).__name__}: {err}"
        kind = "ill-formed" if "ill-formed" in str(err) else "compile-error"
        raise FuzzFailure(kind, config, text)


def _localized(diff: str, ref_exe, exe, inputs) -> str:
    """Append a first-divergent-op location to a divergence detail.

    Localization replays both executables with per-op output capture
    (:mod:`repro.fuzz.localize`); it is strictly best-effort and must
    never mask the original diff, so every error is swallowed.
    """
    try:
        from .localize import first_divergent_op

        where = first_divergent_op(ref_exe, exe, inputs)
    except Exception:
        return diff
    return f"{diff}; {where}" if where else diff


def _check_tape(exe, config: str, inputs, runs: int = 3) -> None:
    """Abstract-mode cost tape vs interpretation, call by call."""
    args = [NDArray.abstract(np.shape(a), dtypes.from_numpy(np.asarray(a).dtype))
            for a in inputs]
    taped = VirtualMachine(exe, TEST_DEVICE, concrete=False)
    traced = VirtualMachine(exe, TEST_DEVICE, concrete=False)
    traced.tracer = TraceRecorder()
    for i in range(runs):
        outcomes = []
        for vm in (taped, traced):
            try:
                outcomes.append(_structure(vm.run("main", *args)))
            except Exception as err:
                # Abstract mode cannot take data-dependent branches; both
                # VMs must then fail alike.
                outcomes.append(f"{type(err).__name__}: {err}")
        if outcomes[0] != outcomes[1]:
            raise FuzzFailure("tape-divergence", config,
                              f"call {i}: result {outcomes[0]!r} vs "
                              f"{outcomes[1]!r}")
        if taped.stats != traced.stats:
            raise FuzzFailure("tape-divergence", config,
                              f"call {i}: stats {taped.stats} vs "
                              f"{traced.stats}")
        if isinstance(outcomes[0], str):
            return


def _structure(value):
    if isinstance(value, tuple):
        return tuple(_structure(v) for v in value)
    if isinstance(value, NDArray):
        return (value.shape, value.dtype)
    return value


def _run(exe, config: str, inputs):
    vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
    args = [NDArray.from_numpy(np.asarray(a)) for a in inputs]
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return vm.run("main", *args)
    except Exception as err:
        raise FuzzFailure("runtime-error", config,
                          f"{type(err).__name__}: {err}")


def run_plan(plan: Plan, *, check_aliasing: bool = True) -> Dict[str, object]:
    """Run every configuration; raise :class:`FuzzFailure` on divergence.

    Returns a small report (``configs``: names run, ``leaves``: number of
    result leaves in the reference output) for tests that want evidence the
    oracle exercised the matrix.
    """
    inputs = make_inputs(plan)
    reference = None
    ref_exe = None
    configs_run = []
    for config, flags in config_matrix():
        exe = _compile(plan, config, flags)
        out = _run(exe, config, inputs)
        if reference is None:
            reference = out
            ref_exe = exe
        else:
            diff = compare_values(reference, out)
            if diff is not None:
                raise FuzzFailure(
                    "divergence", config,
                    _localized(diff, ref_exe, exe, inputs))
        if config == "full-on":
            again = _run(exe, config + " (replay)", inputs)
            diff = compare_values(out, again, rtol=0.0, atol=0.0)
            if diff is not None:
                raise FuzzFailure("replay-divergence", config, diff)
            _check_tape(exe, config, inputs)
        configs_run.append(config)

    if check_aliasing:
        violations = plan_aliasing_violations(plan)
        if violations:
            raise FuzzFailure("aliasing", "memory-planning", violations[0])

    from ..runtime import flatten_values

    return {"configs": configs_run, "leaves": len(flatten_values(reference))}


# ---------------------------------------------------------------------------
# Algorithm-3 invariant: no two simultaneously-live tensors share storage
# ---------------------------------------------------------------------------


def _scan_uses(expr, idx: int, last_use: Dict[int, int]) -> None:
    if isinstance(expr, Var):
        last_use[expr._id] = idx
    elif isinstance(expr, Call):
        for a in expr.args:
            _scan_uses(a, idx, last_use)
    elif isinstance(expr, IRTuple):
        for f in expr.fields:
            _scan_uses(f, idx, last_use)
    elif isinstance(expr, TupleGetItem):
        _scan_uses(expr.tuple_value, idx, last_use)
    elif isinstance(expr, If):
        _scan_uses(expr.cond, idx, last_use)
        _scan_uses(expr.true_branch, idx, last_use)
        _scan_uses(expr.false_branch, idx, last_use)
    elif isinstance(expr, SeqExpr):
        for block in expr.blocks:
            for binding in block.bindings:
                _scan_uses(binding.value, idx, last_use)
        _scan_uses(expr.body, idx, last_use)


def aliasing_violations(func: Function) -> List[str]:
    """Pairs of overlapping-live tensors sharing a storage, as messages."""
    bindings = [b for block in func.body.blocks for b in block.bindings]
    storage_of: Dict[int, int] = {}
    born_at: Dict[int, int] = {}
    names: Dict[int, str] = {}
    for idx, binding in enumerate(bindings):
        value = binding.value
        if isinstance(value, Call) and value.op is alloc_tensor_from_storage_op:
            storage_of[binding.var._id] = value.args[0]._id
            born_at[binding.var._id] = idx
            names[binding.var._id] = binding.var.name_hint

    last_use: Dict[int, int] = {}
    for idx, binding in enumerate(bindings):
        _scan_uses(binding.value, idx, last_use)
    _scan_uses(func.body.body, len(bindings) + 1, last_use)

    out: List[str] = []
    tensors = list(storage_of)
    for i, t1 in enumerate(tensors):
        for t2 in tensors[i + 1:]:
            if storage_of[t1] != storage_of[t2]:
                continue
            live1 = (born_at[t1], last_use.get(t1, born_at[t1]))
            live2 = (born_at[t2], last_use.get(t2, born_at[t2]))
            if not (live1[1] <= live2[0] or live2[1] <= live1[0]):
                out.append(
                    f"tensors {names[t1]!r} (live {live1}) and {names[t2]!r} "
                    f"(live {live2}) share a storage"
                )
    return out


def plan_aliasing_violations(plan: Plan) -> List[str]:
    """Aliasing violations across all Relax functions of the planned module."""
    try:
        mod = build_module(plan)
    except PlanError:
        raise
    except Exception as err:
        raise FuzzFailure("compile-error", "memory-planning",
                          f"build_module: {type(err).__name__}: {err}")
    ctx = PassContext(device=TEST_DEVICE,
                      sym_var_upper_bounds=dict(plan.dims))
    try:
        lowered = transform.optimize(mod, ctx)
    except Exception as err:
        raise FuzzFailure("compile-error", "memory-planning",
                          f"optimize: {type(err).__name__}: {err}")
    out: List[str] = []
    for name, func in lowered.functions():
        if isinstance(func, Function):
            out.extend(f"{name}: {v}" for v in aliasing_violations(func))
    return out
