"""Forward plans: flatten a module tree into a resumable segment chain.

Fault-injection campaigns run the same input through a fault-free ("golden")
and a faulty model whose weights differ only from the *first faulted layer*
onwards.  Every activation upstream of that layer is bit-identical between
the two lanes, so recomputing it for the faulty lane is pure waste.  A
:class:`ForwardPlan` makes the prefix reusable:

* the module tree is flattened into an ordered list of *segments* whose
  outputs chain linearly (``a_{i+1} = segment_i(a_i)``).  Sub-trees whose
  children do not form such a chain (e.g. residual blocks) are kept as one
  atomic segment, so the plan is exact for any architecture — in the worst
  case it degenerates to a single segment and prefix reuse is simply a no-op;
* :meth:`run_recording` executes a full pass while checkpointing selected
  boundary activations (into a reusable :class:`ActivationArena` or as owned
  copies for a cache) and, optionally, snapshotting monitor event counts at
  every boundary so NaN/Inf events can later be attributed to the prefix;
* :meth:`resume` re-enters the pass at segment ``k`` from a cached boundary
  activation and only executes the suffix.

The flattening is *trace-based*: one instrumented forward pass records every
module call with the identities of its first input and its output, and a
sub-tree is linearised only if its children were each called exactly once,
with exactly one positional input, and chained by object identity from the
parent's input to the parent's output.  The resulting plan is validated by
replaying the traced input segment-by-segment and comparing the output
bit-exactly against the traced full-model output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.module import Module


@dataclass
class _TraceCall:
    """One module invocation recorded during the instrumented forward pass."""

    module: Module
    num_inputs: int
    in_id: int | None
    out_id: int | None = None
    children: list["_TraceCall"] = field(default_factory=list)


class ActivationArena:
    """Reusable per-boundary activation buffers for recording forward passes.

    Recording the same plan step after step would otherwise allocate a fresh
    checkpoint array per boundary per step; the arena keeps one buffer per
    boundary index and copies into it when shape and dtype match.
    """

    def __init__(self) -> None:
        self._buffers: dict[int, np.ndarray] = {}

    def store(self, index: int, value):
        """Store a snapshot of ``value`` for boundary ``index`` and return it."""
        if not isinstance(value, np.ndarray):
            # Non-array boundaries (e.g. detection structures) are kept by
            # reference; plans over such models are atomic in practice.
            return value
        buffer = self._buffers.get(index)
        if buffer is None or buffer.shape != value.shape or buffer.dtype != value.dtype:
            buffer = np.empty_like(value)
            self._buffers[index] = buffer
        np.copyto(buffer, value)
        return buffer

    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def clear(self) -> None:
        """Drop all buffers."""
        self._buffers = {}


def _snapshot(value):
    """Owned copy of a boundary value (for cache entries that outlive a step)."""
    if isinstance(value, np.ndarray):
        return np.array(value, copy=True)
    return value


def _bitwise_equal(a, b) -> bool:
    """Bit-exact structural comparison (NaN payloads like any other pattern).

    Arrays compare by bytes, lists/tuples recurse (covering detection-style
    list-of-objects outputs via their box/score/label arrays).  Anything the
    function cannot compare counts as *unequal*, so an unvalidatable output
    type invalidates the plan instead of silently trusting it.
    """
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_bitwise_equal(x, y) for x, y in zip(a, b))
    if hasattr(a, "boxes") and hasattr(b, "boxes"):
        return all(
            _bitwise_equal(
                np.asarray(getattr(a, field)), np.asarray(getattr(b, field))
            )
            for field in ("boxes", "scores", "labels")
        )
    if isinstance(a, (int, float, np.generic)) and isinstance(b, (int, float, np.generic)):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return False


class ForwardPlan:
    """An ordered, resumable segmentation of one model's forward pass.

    Build with :meth:`trace`.  A plan with :attr:`valid` ``False`` (no linear
    chain found, or the replay validation failed) must not be used for
    prefix reuse; callers fall back to plain full forward passes.
    """

    def __init__(
        self,
        model: Module,
        segments: list[Module],
        segment_names: list[str],
        valid: bool,
    ):
        self.model = model
        self.segments = segments
        self.segment_names = segment_names
        self.valid = valid
        self._by_name = {name: index for index, name in enumerate(segment_names)}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def trace(cls, model: Module, example_input: np.ndarray) -> "ForwardPlan":
        """Trace one forward pass of ``model`` and build its plan.

        The instrumented pass runs with whatever hooks are currently
        registered (inactive injection hooks are no-ops), so it must be
        called outside any active fault group.  Every segment of the plan
        runs as an ordinary module call, so hooks fire exactly as in an
        unplanned forward.

        Args:
            model: the model to plan.
            example_input: one representative input batch; the plan is
                replayed on it and must reproduce the traced output bit
                for bit, or the degenerate single-segment plan is returned.
        """
        root_call, output = cls._record_trace(model, example_input)
        calls = cls._linearize(root_call)
        names = {id(module): name for name, module in model.named_modules()}
        segments = [call.module for call in calls]
        segment_names = [names.get(id(module), "") for module in segments]
        if len(segments) > 1:
            plan = cls(model, segments, segment_names, valid=True)
            try:
                replayed = plan.resume(0, example_input)
            except Exception:
                replayed = None
            if replayed is not None and _bitwise_equal(replayed, output):
                return plan
        # Degenerate single-segment plan: resume(0) is a full forward.
        return cls(model, [model], [names.get(id(model), "")], valid=False)

    @staticmethod
    def _record_trace(model: Module, example_input) -> tuple[_TraceCall, object]:
        stack: list[_TraceCall] = []
        root: list[_TraceCall] = []
        # Pin every traced array for the duration of the trace so that id()
        # values cannot be recycled by the allocator mid-pass.
        pinned: list[object] = []

        def pre_hook(module, inputs):
            call = _TraceCall(
                module=module,
                num_inputs=len(inputs),
                in_id=id(inputs[0]) if inputs else None,
            )
            pinned.extend(inputs)
            if stack:
                stack[-1].children.append(call)
            else:
                root.append(call)
            stack.append(call)
            return None

        def post_hook(module, inputs, output):
            call = stack.pop()
            call.out_id = id(output)
            pinned.append(output)
            return None

        handles = []
        seen: set[int] = set()
        for module in model.modules():
            if id(module) in seen:
                continue
            seen.add(id(module))
            handles.append(module.register_forward_pre_hook(pre_hook))
            handles.append(module.register_forward_hook(post_hook))
        try:
            output = model(example_input)
        finally:
            for handle in handles:
                handle.remove()
        if len(root) != 1 or stack:
            raise RuntimeError("forward trace did not produce a single root call")
        return root[0], output

    @classmethod
    def _linearize(cls, call: _TraceCall) -> list[_TraceCall]:
        """Flatten a traced call into chain elements (atomic if not linear)."""
        children = call.children
        if not children:
            return [call]
        module_ids = [id(child.module) for child in children]
        chained = (
            len(set(module_ids)) == len(module_ids)
            and all(child.num_inputs == 1 for child in children)
            and children[0].in_id == call.in_id
            and children[-1].out_id == call.out_id
            and all(nxt.in_id == prev.out_id for prev, nxt in zip(children, children[1:]))
        )
        if not chained:
            return [call]
        flattened: list[_TraceCall] = []
        for child in children:
            flattened.extend(cls._linearize(child))
        return flattened

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_segments(self) -> int:
        """Number of chain segments (1 for a degenerate plan)."""
        return len(self.segments)

    def segment_for(self, module_name: str) -> int | None:
        """Index of the segment that is, or contains, module ``module_name``.

        Resuming a faulty pass at this index guarantees the faulted module is
        (re-)executed: for a module buried inside an atomic segment the whole
        segment is re-run.
        """
        name = module_name
        while True:
            index = self._by_name.get(name)
            if index is not None:
                return index
            if not name:
                return None
            name = name.rsplit(".", 1)[0] if "." in name else ""

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def resume(self, start: int, activation):
        """Execute the segments ``[start, ...)`` from a boundary activation.

        ``activation`` must be the (golden) boundary value ``a_start`` — the
        input of segment ``start``.  ``resume(0, x)`` is a full pass.
        """
        if not 0 <= start <= len(self.segments):
            raise IndexError(f"resume index {start} outside plan of {len(self.segments)} segments")
        value = activation
        for segment in self.segments[start:]:
            value = segment(value)
        return value

    def run_prefix(self, x, stop: int):
        """Execute segments ``[0, stop)`` and return the boundary value ``a_stop``."""
        if not 0 <= stop <= len(self.segments):
            raise IndexError(f"prefix stop {stop} outside plan of {len(self.segments)} segments")
        value = x
        for segment in self.segments[:stop]:
            value = segment(value)
        return value

    def run_recording(
        self,
        x,
        boundaries="all",
        arena: ActivationArena | None = None,
        monitor=None,
    ):
        """Run a full pass while checkpointing boundary activations.

        Args:
            x: the model input (boundary 0; never recorded).
            boundaries: ``"all"`` or an iterable of boundary indices in
                ``[1, num_segments)`` to checkpoint.
            arena: reuse buffers of this arena for the checkpoints; without
                an arena each checkpoint is an owned copy (safe to cache
                beyond the current step).
            monitor: optional :class:`~repro.alficore.monitoring.InferenceMonitor`
                whose event counts are snapshotted before every segment, so a
                later suffix-only pass can inherit the prefix events.  The
                caller owns reset/enable/collect of the monitor.

        Returns:
            Tuple ``(output, checkpoints, marks)`` where ``checkpoints`` maps
            boundary index to activation and ``marks`` (or ``None`` without a
            monitor) is a list of ``num_segments + 1`` event-count tuples:
            ``marks[k]`` are the counts accumulated before segment ``k`` ran.
        """
        wanted = None if boundaries == "all" else set(boundaries)
        checkpoints: dict[int, object] = {}
        marks: list[tuple[int, int, int]] | None = [] if monitor is not None else None
        value = x
        for index, segment in enumerate(self.segments):
            if index > 0 and (wanted is None or index in wanted):
                checkpoints[index] = (
                    arena.store(index, value) if arena is not None else _snapshot(value)
                )
            if marks is not None:
                marks.append(monitor.event_counts())
            value = segment(value)
        if marks is not None:
            marks.append(monitor.event_counts())
        return value, checkpoints, marks
