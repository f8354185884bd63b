"""Fluent programmatic construction of experiment specs.

::

    from repro.experiments import Experiment

    result = (
        Experiment.builder()
        .name("quickstart")
        .model("lenet5", num_classes=10, seed=0)
        .dataset("synthetic-classification", num_samples=30, num_classes=10)
        .scenario(injection_target="weights", rnd_bit_range=(0, 31))
        .backend("sharded", workers=2, num_shards=3)
        .output_dir("campaign_output")
        .run()
    )
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.alficore.scenario import ScenarioConfig
from repro.experiments.result import CampaignResult
from repro.experiments.spec import (
    BackendSpec,
    CachingSpec,
    ComponentSpec,
    ExecutionSpec,
    ExperimentSpec,
    SweepSpec,
    _bool_field,
)


class ExperimentBuilder:
    """Accumulates spec fields; ``build()`` validates and returns the spec."""

    def __init__(self) -> None:
        self._spec = ExperimentSpec()

    def name(self, name: str) -> "ExperimentBuilder":
        """Set the experiment name (used in result file names)."""
        self._spec.name = str(name)
        return self

    def task(self, name: str) -> "ExperimentBuilder":
        """Select the task plugin (``"classification"``, ``"detection"``, ...)."""
        self._spec.task = str(name)
        return self

    def model(self, name: str, **params: Any) -> "ExperimentBuilder":
        """Select the model component and its constructor params."""
        self._spec.model = ComponentSpec(str(name), dict(params))
        return self

    def dataset(self, name: str, **params: Any) -> "ExperimentBuilder":
        """Select the dataset component and its constructor params."""
        self._spec.dataset = ComponentSpec(str(name), dict(params))
        return self

    def scenario(
        self, scenario: ScenarioConfig | None = None, **overrides: Any
    ) -> "ExperimentBuilder":
        """Set the scenario: an explicit config, field overrides, or both.

        With neither argument the accumulated scenario is left untouched.
        """
        base = scenario if scenario is not None else self._spec.scenario
        self._spec.scenario = base.copy(**overrides) if overrides else base
        return self

    def protection(self, name: str | None, **params: Any) -> "ExperimentBuilder":
        """Select a protection mechanism (``None`` removes it)."""
        self._spec.protection = ComponentSpec(str(name), dict(params)) if name else None
        return self

    def backend(
        self,
        name: str = "serial",
        workers: int = 1,
        num_shards: int | None = None,
        step_range: tuple[int, int] | None = None,
    ) -> "ExperimentBuilder":
        """Select the execution backend (``"serial"`` or ``"sharded"``)."""
        self._spec.backend = BackendSpec(str(name), int(workers), num_shards, step_range)
        return self

    def caching(self, golden_cache_mb: int = 0, prefix_reuse: bool = True) -> "ExperimentBuilder":
        """Golden-cache budget (MiB) and prefix-reuse toggle."""
        self._spec.caching = CachingSpec(
            int(golden_cache_mb),
            _bool_field(prefix_reuse, "caching.prefix_reuse", default=True),
        )
        return self

    def execution(
        self,
        retries: int = 2,
        shard_timeout: float | None = None,
        backoff: float = 0.5,
        resume: bool = False,
    ) -> "ExperimentBuilder":
        """Execution knobs: fault tolerance (retry/timeout/resume)."""
        self._spec.execution = ExecutionSpec(
            int(retries),
            float(shard_timeout) if shard_timeout is not None else None,
            float(backoff),
            _bool_field(resume, "execution.resume", default=False),
        )
        return self

    def sweep(
        self,
        axes: dict[str, list] | None = None,
        points: list[dict] | None = None,
        store: str | Path | None = None,
    ) -> "ExperimentBuilder":
        """Declare a parameter grid (see :class:`SweepSpec`).

        ``axes`` maps dotted axis paths (``scenario.layer_range``,
        ``model.params.seed``, ...) to value lists — their cartesian product
        in declaration order — and ``points`` appends explicit extra grid
        points.  A spec with a sweep runs through
        :func:`repro.experiments.run_sweep` (``builder.run()`` refuses it).
        """
        self._spec.sweep = SweepSpec(
            axes={path: list(values) for path, values in (axes or {}).items()},
            points=[dict(point) for point in (points or [])],
            store=Path(store) if store is not None else None,
        )
        return self

    def input_shape(self, *shape: int) -> "ExperimentBuilder":
        """Per-sample input shape (e.g. ``input_shape(3, 32, 32)``)."""
        self._spec.input_shape = tuple(int(v) for v in shape) if shape else None
        return self

    def shuffle(self, dl_shuffle: bool = True) -> "ExperimentBuilder":
        """Toggle dataloader shuffling."""
        self._spec.dl_shuffle = _bool_field(dl_shuffle, "dl_shuffle", default=True)
        return self

    def output_dir(self, path: str | Path | None) -> "ExperimentBuilder":
        """Directory for result files (``None`` keeps results in memory)."""
        self._spec.output_dir = Path(path) if path is not None else None
        return self

    def options(self, **task_options: Any) -> "ExperimentBuilder":
        """Merge task-specific options into ``task_options``."""
        self._spec.task_options.update(task_options)
        return self

    def build(self) -> ExperimentSpec:
        """Validate and return (a copy of) the accumulated spec."""
        return self._spec.copy()  # copy() re-validates the clone

    def run(self) -> CampaignResult:
        """Shortcut: build the spec and execute it."""
        return Experiment(self.build()).run()


class Experiment:
    """A spec plus conveniences: ``Experiment.builder()``, ``load``, ``run``."""

    def __init__(self, spec: ExperimentSpec) -> None:
        self.spec = spec

    @staticmethod
    def builder() -> ExperimentBuilder:
        """Start a fluent spec builder."""
        return ExperimentBuilder()

    @classmethod
    def load(cls, path: str | Path) -> "Experiment":
        """Load an experiment from a spec file (YAML or JSON)."""
        return cls(ExperimentSpec.load(path))

    def save(self, path: str | Path) -> Path:
        """Persist the spec (format chosen by suffix)."""
        return self.spec.save(path)

    def run(self, artifacts: Any = None) -> CampaignResult:
        """Execute the experiment through :func:`repro.experiments.run`."""
        from repro.experiments.runner import run

        return run(self.spec, artifacts=artifacts)
