"""Inference monitors.

``alficore`` offers monitoring capabilities that detect NaN or Inf values in
intermediate activations during a (fault-injected) inference run and allow
custom monitoring functions to be attached to the same hook points.  Detected
NaN/Inf events are what the evaluation later counts as DUE (Detected and
Uncorrectable Errors) as opposed to silent data errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.module import Module, RemovableHandle


@dataclass
class MonitorResult:
    """Summary of what the monitors observed during one inference."""

    nan_layers: list[str] = field(default_factory=list)
    inf_layers: list[str] = field(default_factory=list)
    custom_events: list[dict] = field(default_factory=list)

    @property
    def nan_detected(self) -> bool:
        """True if any monitored layer produced a NaN."""
        return len(self.nan_layers) > 0

    @property
    def inf_detected(self) -> bool:
        """True if any monitored layer produced an Inf."""
        return len(self.inf_layers) > 0

    @property
    def due_detected(self) -> bool:
        """True if the inference would be flagged as a DUE (NaN or Inf seen)."""
        return self.nan_detected or self.inf_detected

    def as_dict(self) -> dict:
        """Return a JSON-friendly summary."""
        return {
            "nan_detected": self.nan_detected,
            "inf_detected": self.inf_detected,
            "nan_layers": list(self.nan_layers),
            "inf_layers": list(self.inf_layers),
            "custom_events": list(self.custom_events),
        }


# A custom monitor gets (layer_name, output_array) and returns an event dict or None.
CustomMonitor = Callable[[str, np.ndarray], dict | None]


class InferenceMonitor:
    """Attach NaN/Inf (and custom) monitors to all or selected layers of a model.

    Usage::

        monitor = InferenceMonitor(model)
        monitor.attach()
        output = model(batch)
        result = monitor.collect()     # MonitorResult for this inference
        monitor.detach()
    """

    def __init__(
        self,
        model: Module,
        layer_names: list[str] | None = None,
        custom_monitors: list[CustomMonitor] | None = None,
    ):
        self.model = model
        self.layer_names = layer_names
        self.custom_monitors = list(custom_monitors or [])
        self._handles: list[RemovableHandle] = []
        self._current = MonitorResult()
        # Cheap gate for long-lived monitors: campaign loops keep the hooks
        # attached for the whole run and flip this flag instead of paying the
        # per-layer NaN/Inf scan on inferences they do not want monitored
        # (e.g. the golden pass).
        self.enabled = True

    def add_custom_monitor(self, monitor: CustomMonitor) -> None:
        """Register an additional custom monitoring callback."""
        self.custom_monitors.append(monitor)

    def attach(self) -> None:
        """Attach monitoring hooks to the selected layers (idempotent)."""
        if self._handles:
            return
        for name, module in self.model.named_modules():
            if not name:
                continue
            if self.layer_names is not None and name not in self.layer_names:
                continue
            if len(module._modules) > 0:
                # Only monitor leaf modules; containers just forward tensors.
                continue
            self._handles.append(module.register_forward_hook(self._make_hook(name)))

    def detach(self) -> None:
        """Remove all monitoring hooks."""
        for handle in self._handles:
            handle.remove()
        self._handles = []

    def reset(self) -> None:
        """Clear collected events (start of a new inference)."""
        self._current = MonitorResult()

    def collect(self) -> MonitorResult:
        """Return the events of the current inference and reset the collector."""
        result = self._current
        self._current = MonitorResult()
        return result

    def event_counts(self) -> tuple[int, int, int]:
        """Current ``(nan, inf, custom)`` event counts without resetting.

        Forward plans snapshot these at every segment boundary so a
        suffix-only faulty pass can inherit exactly the prefix's events.
        """
        current = self._current
        return (len(current.nan_layers), len(current.inf_layers), len(current.custom_events))

    def _make_hook(self, layer_name: str):
        def hook(module, inputs, output):
            if not self.enabled:
                return None
            if isinstance(output, (list, tuple)):
                # Detection heads return lists of Detections (boxes/scores);
                # route them through the structured NaN/Inf check so DUEs in
                # object-detection campaigns are not undercounted.
                has_nan, has_inf = output_has_nan_or_inf(output)
                if has_nan:
                    self._current.nan_layers.append(layer_name)
                if has_inf:
                    self._current.inf_layers.append(layer_name)
                return None
            values = np.asarray(output)
            if np.issubdtype(values.dtype, np.floating):
                if np.isnan(values).any():
                    self._current.nan_layers.append(layer_name)
                if np.isinf(values).any():
                    self._current.inf_layers.append(layer_name)
                for monitor in self.custom_monitors:
                    event = monitor(layer_name, values)
                    if event is not None:
                        self._current.custom_events.append(dict(event))
            return None

        return hook

    def __enter__(self) -> "InferenceMonitor":
        self.attach()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()


class MonitorCache:
    """Attach-once monitor registry for the stable models of clone-free sessions.

    Clone-free campaign sessions reuse stable model objects — the original
    model for weight faults, one hooked clone for neuron faults — so hooks
    only need to be attached once per campaign instead of once per fault
    group.  The cache keys monitors by model identity, hands them out with
    the per-layer scan *disabled* (golden passes must not pay for it), and
    detaches everything at campaign teardown.
    """

    def __init__(self) -> None:
        self._monitors: dict[int, InferenceMonitor] = {}

    def monitor_for(self, model: Module) -> InferenceMonitor:
        """Return the (lazily attached) monitor of a faulty model instance."""
        key = id(model)
        monitor = self._monitors.get(key)
        if monitor is None:
            monitor = InferenceMonitor(model)
            monitor.attach()
            # Disabled outside the faulty inference: for weight campaigns the
            # monitored model is also the golden model, and the golden pass
            # should not pay the per-layer NaN/Inf scan.
            monitor.enabled = False
            self._monitors[key] = monitor
        return monitor

    def detach_all(self) -> None:
        """Remove the hooks of every cached monitor and empty the cache."""
        for monitor in self._monitors.values():
            monitor.detach()
        self._monitors = {}


class RangeMonitor:
    """Custom monitor flagging activations outside a configured magnitude bound.

    This is a simple example of the "integration of custom monitoring"
    extension point described in the paper; it is also useful to observe how
    often faults push activations outside their fault-free operating range.
    """

    def __init__(self, bound: float = 1e4):
        if bound <= 0:
            raise ValueError("bound must be positive")
        self.bound = float(bound)

    def __call__(self, layer_name: str, output: np.ndarray) -> dict | None:
        finite = output[np.isfinite(output)]
        if finite.size == 0:
            return None
        peak = float(np.abs(finite).max())
        if peak > self.bound:
            return {"monitor": "range", "layer": layer_name, "peak": peak, "bound": self.bound}
        return None


def output_has_nan_or_inf(output) -> tuple[bool, bool]:
    """Check a model output (array or list of detections) for NaN / Inf values.

    Returns:
        Tuple ``(has_nan, has_inf)``.
    """
    has_nan = False
    has_inf = False
    if isinstance(output, (list, tuple)):
        for item in output:
            if hasattr(item, "boxes"):
                arrays = [np.asarray(item.boxes, dtype=np.float64), np.asarray(item.scores, dtype=np.float64)]
            else:
                arrays = [np.asarray(item, dtype=np.float64)]
            for arr in arrays:
                if arr.size == 0:
                    continue
                has_nan |= bool(np.isnan(arr).any())
                has_inf |= bool(np.isinf(arr).any())
        return has_nan, has_inf
    arr = np.asarray(output, dtype=np.float64)
    if arr.size:
        has_nan = bool(np.isnan(arr).any())
        has_inf = bool(np.isinf(arr).any())
    return has_nan, has_inf
