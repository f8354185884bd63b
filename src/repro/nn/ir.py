"""Per-segment op IR and pluggable executors for :class:`~repro.nn.forward_plan.ForwardPlan`.

A traced forward plan chains *segments* (single modules) linearly.  This
module lowers each segment into a small list of :class:`IROp` nodes — conv,
bias-add, relu, elementwise chains, pooling — so executors can work at op
granularity instead of treating every module call as opaque:

* :func:`lower_segment` maps a leaf module to its op list (``None`` for
  module types the IR does not model, e.g. atomic residual blocks);
* :class:`InterpreterExecutor` runs the lowered ops one by one through the
  same :mod:`repro.nn.functional` kernels the modules themselves call, so
  its output is bit-identical to the module path by construction;
* :class:`ModuleExecutor` is the legacy direct-module-call path;
* ``repro.nn.fuse`` registers a third executor (``"fused"``) that collapses
  op runs into single in-place kernels with planned buffer reuse.

Executors are pluggable via :func:`register_executor`; campaign code selects
one by name (spec knob ``execution.executor`` / CLI ``--executor``) and the
plan trace validates the chosen executor bit-exactly against the traced
model output before trusting it.

**Hook transparency.**  Fault-injection hooks must keep firing: an executor
may only bypass a module's ``__call__`` when the module has no pre-hooks and
every forward hook declares itself transparent for the current pass by
exposing ``hook.plan_transparent()`` returning ``True`` (disabled monitors
do this).  :func:`module_blocked` implements that check; blocked modules are
executed through the ordinary module call so hooks observe exactly what they
would in an unplanned forward.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F, layers
from repro.nn.module import Module

__all__ = [
    "IROp",
    "ALIAS_KINDS",
    "ELEMENTWISE_KINDS",
    "lower_segment",
    "module_blocked",
    "PlanExecutor",
    "ModuleExecutor",
    "InterpreterExecutor",
    "register_executor",
    "make_executor",
    "executor_names",
]


class IROp:
    """One primitive operation of a lowered segment.

    Attributes:
        kind: op identifier (``"conv2d"``, ``"bias_add"``, ``"relu"``, ...).
        module: the module the op was lowered from; kernels read its
            parameters/buffers *live* at execution time so in-place weight
            faults between trace and execution are observed.
        name: dotted module path of ``module`` inside the planned model.
    """

    __slots__ = ("kind", "module", "name")

    def __init__(self, kind: str, module: Module, name: str):
        self.kind = kind
        self.module = module
        self.name = name

    def run(self, value):
        """Execute this op (allocating) and return its output."""
        kernel = _KERNELS.get(self.kind)
        if kernel is None:
            return self.module.forward(value)
        return kernel(self.module, value)

    def __repr__(self) -> str:
        return f"IROp({self.kind!r}, {self.name!r})"


# Ops that map one array elementwise to an array of the same shape; maximal
# runs of these fuse into a single chain (see repro.nn.fuse).
ELEMENTWISE_KINDS = frozenset(
    {"bias_add", "relu", "leaky_relu", "sigmoid", "tanh", "batchnorm2d"}
)

# Ops that return their input (or a view of it) unchanged; they propagate
# buffer ownership instead of producing a fresh array.
ALIAS_KINDS = frozenset({"flatten", "identity", "dropout"})


def _bias_add(module: Module, x):
    bias = module.bias.data
    if x.ndim == 2:
        return x + bias
    return x + bias.reshape((1, -1) + (1,) * (x.ndim - 2))


# Split kernels: a Conv2d/Linear segment lowers to a weight op plus a
# separate bias_add so the bias participates in elementwise fusion.  The
# split is bit-identical to the module forward because the module forward
# adds the bias to the same weight-op result with the same float32 add
# (the float32->float32 astype in F.linear preserves bits).
_KERNELS = {
    "conv2d": lambda m, x: F.conv2d(x, m.weight.data, None, m.stride, m.padding, m.groups),
    "matmul": lambda m, x: F.linear(x, m.weight.data, None),
    "bias_add": _bias_add,
}


# Leaf module types whose forward is a single IR op.  Exact type match:
# subclasses may override forward and stay opaque.
_SINGLE_OP_TYPES = {
    layers.Conv3d: "conv3d",
    layers.BatchNorm2d: "batchnorm2d",
    layers.ReLU: "relu",
    layers.LeakyReLU: "leaky_relu",
    layers.Sigmoid: "sigmoid",
    layers.Tanh: "tanh",
    layers.Softmax: "softmax",
    layers.MaxPool2d: "max_pool2d",
    layers.AvgPool2d: "avg_pool2d",
    layers.AdaptiveAvgPool2d: "adaptive_avg_pool2d",
    layers.Upsample: "upsample",
    layers.Flatten: "flatten",
    layers.Dropout: "dropout",
    layers.Identity: "identity",
}


def lower_segment(module: Module, name: str):
    """Lower one plan segment to its op list, or ``None`` if it stays opaque.

    Only exact layer types are lowered — subclasses and containers that did
    not linearise (residual blocks, detection heads) return ``None`` and are
    executed as ordinary module calls by every executor.
    """
    module_type = type(module)
    if module_type is layers.Conv2d:
        ops = [IROp("conv2d", module, name)]
        if module.bias is not None:
            ops.append(IROp("bias_add", module, name))
        return ops
    if module_type is layers.Linear:
        ops = [IROp("matmul", module, name)]
        if module.bias is not None:
            ops.append(IROp("bias_add", module, name))
        return ops
    kind = _SINGLE_OP_TYPES.get(module_type)
    if kind is None:
        return None
    return [IROp(kind, module, name)]


def module_blocked(module: Module) -> bool:
    """True if hooks force this module through the ordinary call path.

    Any pre-hook blocks (it may rewrite the input).  A forward hook blocks
    unless it declares itself transparent for the current pass via a
    ``plan_transparent()`` attribute returning ``True`` — disabled inference
    monitors do this so an idle monitor does not forbid fused execution.
    """
    if module._forward_pre_hooks:
        return True
    for hook in module._forward_hooks.values():
        transparent = getattr(hook, "plan_transparent", None)
        if transparent is None or not transparent():
            return True
    return False


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #
class PlanExecutor:
    """Executes the segments of one :class:`ForwardPlan`.

    Subclasses implement :meth:`run_segment`; :meth:`run_range` may be
    overridden to exploit cross-segment structure (the fused executor does).
    Executors must be bit-identical to the module call path whenever
    non-transparent hooks are present (see :func:`module_blocked`).
    """

    name = "abstract"

    def __init__(self, plan):
        self.plan = plan

    def run_segment(self, index: int, value):
        """Run segment ``index`` on boundary value ``a_index``; return ``a_{index+1}``."""
        raise NotImplementedError

    def run_range(self, start: int, stop: int, value):
        """Run segments ``[start, stop)`` and return the boundary value ``a_stop``."""
        for index in range(start, stop):
            value = self.run_segment(index, value)
        return value


class ModuleExecutor(PlanExecutor):
    """Legacy executor: one ordinary module call per segment."""

    name = "module"

    def run_segment(self, index: int, value):
        return self.plan.segments[index](value)


class InterpreterExecutor(PlanExecutor):
    """Op-by-op IR interpreter.

    Runs lowered ops through the same functional kernels the modules call,
    allocating one fresh output per op (O(sum) activation memory — the
    baseline the fused executor's buffer plan is measured against, see
    :attr:`alloc_bytes`).  Segments that did not lower, or whose module is
    hook-blocked, fall back to the module call.
    """

    name = "interpreter"

    def __init__(self, plan):
        super().__init__(plan)
        self.segment_ops = [
            lower_segment(module, name)
            for module, name in zip(plan.segments, plan.segment_names)
        ]
        # Cumulative bytes of op outputs allocated by the IR path (alias ops
        # excluded); tests compare this against the fused executor's planned
        # footprint.  Kernel-internal temporaries are identical across
        # executors and intentionally not counted.
        self.alloc_bytes = 0

    def reset_stats(self) -> None:
        """Zero the allocation accounting."""
        self.alloc_bytes = 0

    def run_segment(self, index: int, value):
        ops = self.segment_ops[index]
        module = self.plan.segments[index]
        if ops is None or module_blocked(module):
            return module(value)
        for op in ops:
            value = op.run(value)
            if op.kind not in ALIAS_KINDS and isinstance(value, np.ndarray):
                self.alloc_bytes += value.nbytes
        return value


# --------------------------------------------------------------------------- #
# executor registry
# --------------------------------------------------------------------------- #
_EXECUTORS: dict = {}


def register_executor(name: str, factory, override: bool = False) -> None:
    """Register an executor factory ``factory(plan) -> PlanExecutor``.

    Args:
        name: registry key (``"module"``, ``"interpreter"``, ``"fused"``, ...).
        factory: callable building an executor bound to one plan.
        override: allow replacing an existing registration.
    """
    if name in _EXECUTORS and not override:
        raise ValueError(f"executor {name!r} is already registered")
    _EXECUTORS[name] = factory


def _ensure_builtin_executors() -> None:
    # The fused executor lives in repro.nn.fuse which imports this module;
    # import it lazily so merely importing repro.nn.ir has no cycle.
    from repro.nn import fuse  # noqa: F401


def executor_names() -> list:
    """Sorted names of all registered executors."""
    _ensure_builtin_executors()
    return sorted(_EXECUTORS)


def make_executor(name: str, plan) -> PlanExecutor:
    """Instantiate the executor registered under ``name`` for ``plan``."""
    _ensure_builtin_executors()
    factory = _EXECUTORS.get(name)
    if factory is None:
        raise KeyError(f"unknown executor {name!r}; registered: {sorted(_EXECUTORS)}")
    return factory(plan)


register_executor("module", ModuleExecutor)
register_executor("interpreter", InterpreterExecutor)
