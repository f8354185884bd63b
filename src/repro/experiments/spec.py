"""The declarative experiment specification.

One :class:`ExperimentSpec` describes a complete fault-injection campaign —
model, dataset, scenario, protection, task, execution backend and caching —
and round-trips to YAML/JSON with a ``schema_version`` and strict
unknown-key validation.  It is the single input of
:func:`repro.experiments.run`.

Schema (YAML)::

    schema_version: 1
    name: quickstart
    task: classification            # registry: TASKS
    model:
      name: lenet5                  # registry: MODELS
      params: {num_classes: 10, seed: 0}
    dataset:
      name: synthetic-classification  # registry: DATASETS
      params: {num_samples: 30, num_classes: 10, noise: 0.25, seed: 1}
    protection: null                # or {name: ranger, params: {...}}
    scenario:                       # the ScenarioConfig document
      schema_version: 1
      injection_target: weights
      ...
    backend:
      name: serial                  # registry: BACKENDS ("serial" | "sharded")
      workers: 1
      num_shards: null
      step_range: null              # optional [start, stop) slice of the campaign
    caching:
      golden_cache_mb: 0
      prefix_reuse: true
    execution:                      # fault tolerance of the campaign run
      retries: 2                    # extra attempts per failed shard
      shard_timeout: null           # per-shard wall-clock deadline (seconds)
      backoff: 0.5                  # base of the capped exponential re-queue delay
      resume: false                 # skip manifest-recorded completed shards
    sweep: null                     # or a parameter grid (see SweepSpec):
    #   schema_version: 1
    #   axes:                       # cartesian product, declaration order
    #     scenario.layer_range: [[0, 0], [1, 1], [2, 2]]
    #     scenario.rnd_bit_range: [[23, 23], [30, 30]]
    #   points:                     # explicit extra grid points
    #     - {scenario.rnd_bit_range: [0, 0]}
    #   store: sweep_store          # campaign store directory (run_id-addressed)
    input_shape: null               # per-sample shape; task default when null
    dl_shuffle: false
    output_dir: null                # directory for result files; null = no files
    task_options: {}                # task-plugin specific knobs
"""

from __future__ import annotations

import dataclasses
import difflib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from repro.alficore.scenario import ScenarioConfig, coerce_schema_version, default_scenario

SPEC_SCHEMA_VERSION = 1


class SpecError(ValueError):
    """Raised for malformed experiment specifications."""


def _reject_unknown(data: dict, known: set[str], where: str) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            f"unknown {where} keys: {unknown}; known keys: {sorted(known)}"
        )


def _int_field(value: object, where: str) -> int:
    if isinstance(value, bool):
        raise SpecError(f"{where} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SpecError(f"{where} must be an integer, got {value!r}")


def _bool_field(value: object, where: str, default: bool) -> bool:
    # Explicit nulls mean "default"; anything but a real bool is an error
    # (``bool("false")`` would silently read as True).
    if value is None:
        return default
    if not isinstance(value, bool):
        raise SpecError(f"{where} must be a boolean, got {value!r}")
    return value


@dataclass
class ComponentSpec:
    """A registry reference: component ``name`` plus factory ``params``."""

    name: str
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {"name": self.name, "params": _plain(self.params)}

    @classmethod
    def from_dict(cls, data: dict | str, where: str) -> "ComponentSpec":
        """Parse from a plain mapping, rejecting unknown keys and bad types."""
        if isinstance(data, str):
            return cls(name=data)
        if not isinstance(data, dict):
            raise SpecError(f"{where} must be a name or a mapping, got {type(data).__name__}")
        _reject_unknown(data, {"name", "params"}, where)
        if data.get("name") is None:
            raise SpecError(f"{where} requires a 'name'")
        params = data.get("params") or {}
        if not isinstance(params, dict):
            raise SpecError(f"{where}.params must be a mapping, got {type(params).__name__}")
        return cls(name=str(data["name"]), params=dict(params))


@dataclass
class BackendSpec:
    """Execution backend selection (see ``BACKENDS`` registry)."""

    name: str = "serial"
    workers: int = 1
    num_shards: int | None = None
    step_range: tuple[int, int] | None = None

    def as_dict(self) -> dict:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "workers": self.workers,
            "num_shards": self.num_shards,
            "step_range": list(self.step_range) if self.step_range is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict | str) -> "BackendSpec":
        """Parse from a plain mapping, rejecting unknown keys and bad types."""
        if isinstance(data, str):
            return cls(name=data)
        if not isinstance(data, dict):
            raise SpecError(f"backend must be a name or a mapping, got {type(data).__name__}")
        _reject_unknown(data, {"name", "workers", "num_shards", "step_range"}, "backend")
        step_range = data.get("step_range")
        if step_range is not None:
            if not isinstance(step_range, (list, tuple)) or len(step_range) != 2:
                raise SpecError(
                    f"backend.step_range must be a [start, stop) pair, got {step_range!r}"
                )
            step_range = (
                _int_field(step_range[0], "backend.step_range[0]"),
                _int_field(step_range[1], "backend.step_range[1]"),
            )
        workers = data.get("workers")
        return cls(
            name=str(data.get("name") or "serial"),
            workers=_int_field(workers if workers is not None else 1, "backend.workers"),
            num_shards=(
                _int_field(data["num_shards"], "backend.num_shards")
                if data.get("num_shards") is not None
                else None
            ),
            step_range=step_range,
        )

    def validate(self) -> None:
        """Raise :class:`SpecError` on invalid field values or combinations."""
        if self.workers < 1:
            raise SpecError(f"backend.workers must be >= 1, got {self.workers}")
        if self.name == "serial" and self.workers != 1:
            raise SpecError(
                f"backend 'serial' runs with workers=1 (got {self.workers}); "
                "use backend 'sharded' for parallel execution"
            )
        if self.num_shards is not None and self.num_shards < 1:
            raise SpecError(f"backend.num_shards must be >= 1, got {self.num_shards}")
        if self.name == "serial" and self.num_shards not in (None, 1):
            raise SpecError(
                f"backend 'serial' runs unsharded (got num_shards={self.num_shards}); "
                "use backend 'sharded' for shard partitioning"
            )
        if self.name == "sharded" and self.step_range is not None:
            raise SpecError(
                "backend 'sharded' does not support step_range; run 'serial' slices "
                "and combine them with CampaignResult.merge"
            )
        if self.step_range is not None:
            start, stop = self.step_range
            if start < 0 or stop < start:
                raise SpecError(f"backend.step_range {self.step_range} is not a valid [start, stop)")


@dataclass
class CachingSpec:
    """Golden-cache budget and prefix-reuse switch."""

    golden_cache_mb: int = 0
    prefix_reuse: bool = True

    def as_dict(self) -> dict:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {"golden_cache_mb": self.golden_cache_mb, "prefix_reuse": self.prefix_reuse}

    @classmethod
    def from_dict(cls, data: dict) -> "CachingSpec":
        """Parse from a plain mapping, rejecting unknown keys and bad types."""
        if not isinstance(data, dict):
            raise SpecError(f"caching must be a mapping, got {type(data).__name__}")
        _reject_unknown(data, {"golden_cache_mb", "prefix_reuse"}, "caching")
        prefix_reuse = data.get("prefix_reuse")
        golden_cache_mb = data.get("golden_cache_mb")
        return cls(
            # Explicit nulls (e.g. unset template variables) mean "default",
            # like everywhere else in the schema.
            golden_cache_mb=_int_field(
                golden_cache_mb if golden_cache_mb is not None else 0,
                "caching.golden_cache_mb",
            ),
            prefix_reuse=_bool_field(prefix_reuse, "caching.prefix_reuse", default=True),
        )

    def validate(self) -> None:
        """Raise :class:`SpecError` on invalid field values or combinations."""
        if self.golden_cache_mb < 0:
            raise SpecError(f"caching.golden_cache_mb must be >= 0, got {self.golden_cache_mb}")


def _float_field(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{where} must be a number, got {value!r}")
    return float(value)


@dataclass
class ExecutionSpec:
    """Fault-tolerance knobs of the supervised campaign executor.

    Maps onto :class:`repro.alficore.resilience.ExecutionPolicy`: ``retries``
    extra attempts per failed shard, an optional per-shard wall-clock
    ``shard_timeout`` (seconds), the base ``backoff`` of the capped
    exponential re-queue delay, and ``resume`` to skip shards the run
    manifest records as completed.
    """

    retries: int = 2
    shard_timeout: float | None = None
    backoff: float = 0.5
    resume: bool = False

    def as_dict(self) -> dict:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {
            "retries": self.retries,
            "shard_timeout": self.shard_timeout,
            "backoff": self.backoff,
            "resume": self.resume,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionSpec":
        """Parse from a plain mapping, rejecting unknown keys and bad types."""
        if not isinstance(data, dict):
            raise SpecError(f"execution must be a mapping, got {type(data).__name__}")
        _reject_unknown(data, {"retries", "shard_timeout", "backoff", "resume"}, "execution")
        retries = data.get("retries")
        backoff = data.get("backoff")
        shard_timeout = data.get("shard_timeout")
        return cls(
            # Explicit nulls mean "default", like everywhere else in the schema.
            retries=_int_field(retries if retries is not None else 2, "execution.retries"),
            shard_timeout=(
                _float_field(shard_timeout, "execution.shard_timeout")
                if shard_timeout is not None
                else None
            ),
            backoff=_float_field(backoff if backoff is not None else 0.5, "execution.backoff"),
            resume=_bool_field(data.get("resume"), "execution.resume", default=False),
        )

    def validate(self) -> None:
        """Raise :class:`SpecError` on invalid field values or combinations."""
        if self.retries < 0:
            raise SpecError(f"execution.retries must be >= 0, got {self.retries}")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise SpecError(
                f"execution.shard_timeout must be positive, got {self.shard_timeout}"
            )
        if self.backoff < 0:
            raise SpecError(f"execution.backoff must be >= 0, got {self.backoff}")


SWEEP_SCHEMA_VERSION = 1

#: sweep-axis grammar: dotted paths into the experiment spec.  ``<key>`` is
#: free-form (params/task_options accept arbitrary keys); ``scenario.<field>``
#: is validated against the ScenarioConfig fields.
SWEEP_AXIS_FORMS = (
    "task",
    "model.name",
    "model.params.<key>",
    "dataset.name",
    "dataset.params.<key>",
    "protection",
    "protection.name",
    "protection.params.<key>",
    "scenario.<field>",
    "task_options.<key>",
    "input_shape",
    "dl_shuffle",
)


def _scenario_field_names() -> list[str]:
    return [f.name for f in dataclasses.fields(ScenarioConfig)]


def _axis_error(path: str, detail: str) -> SpecError:
    """A sweep-axis error with a did-you-mean suggestion."""
    candidates = (
        ["task", "model.name", "dataset.name", "protection", "protection.name",
         "input_shape", "dl_shuffle"]
        + [f"scenario.{name}" for name in _scenario_field_names()]
    )
    suggestions = difflib.get_close_matches(path, candidates, n=3, cutoff=0.5)
    message = f"invalid sweep axis {path!r}: {detail}"
    if suggestions:
        message += f"; did you mean {', '.join(repr(s) for s in suggestions)}?"
    message += f" (axis forms: {', '.join(SWEEP_AXIS_FORMS)})"
    return SpecError(message)


def validate_sweep_axis(path: str) -> None:
    """Check one sweep-axis path against the axis grammar.

    Raises :class:`SpecError` with a did-you-mean suggestion for typos —
    ``scenario.<field>`` names are validated against the actual
    :class:`ScenarioConfig` fields, the component roots against the spec
    structure.
    """
    if not isinstance(path, str) or not path:
        raise SpecError(f"sweep axis must be a non-empty string, got {path!r}")
    parts = path.split(".")
    root, rest = parts[0], parts[1:]
    if root in ("task", "input_shape", "dl_shuffle"):
        if rest:
            raise _axis_error(path, f"{root!r} takes no sub-path")
        return
    if root in ("model", "dataset", "protection"):
        if not rest:
            if root == "protection":
                return  # whole-component axis: null / name / {name, params}
            raise _axis_error(path, f"pick {root}.name or {root}.params.<key>")
        if rest[0] == "name" and len(rest) == 1:
            return
        if rest[0] == "params" and len(rest) == 2:
            return
        raise _axis_error(path, f"pick {root}.name or {root}.params.<key>")
    if root == "scenario":
        known = _scenario_field_names()
        if len(rest) == 1 and rest[0] in known:
            return
        detail = (
            f"unknown scenario field {rest[0]!r}" if len(rest) == 1
            else "pick exactly one scenario field"
        )
        raise _axis_error(path, detail)
    if root == "task_options":
        if len(rest) == 1 and rest[0]:
            return
        raise _axis_error(path, "pick task_options.<key>")
    raise _axis_error(path, f"unknown axis root {root!r}")


@dataclass
class SweepSpec:
    """A declarative parameter grid over experiment-spec fields.

    ``axes`` maps dotted axis paths (see :data:`SWEEP_AXIS_FORMS`) to their
    value lists; the grid is their cartesian product in *declaration order*
    (the last declared axis varies fastest).  ``points`` appends explicit
    grid points — mappings of axis paths to values — after the product, for
    the odd extra configurations a product cannot express.  ``store`` names
    the campaign-store directory holding the content-addressed per-point
    results (``<store>/<run_id>/``).
    """

    axes: dict[str, list] = field(default_factory=dict)
    points: list[dict] = field(default_factory=list)
    store: Path | None = None

    def as_dict(self) -> dict:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {
            "schema_version": SWEEP_SCHEMA_VERSION,
            "axes": {path: _plain(list(values)) for path, values in self.axes.items()},
            "points": [_plain(dict(point)) for point in self.points],
            "store": str(self.store) if self.store is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Parse from a plain mapping, rejecting unknown keys and bad types."""
        if not isinstance(data, dict):
            raise SpecError(f"sweep must be a mapping, got {type(data).__name__}")
        try:
            coerce_schema_version(data.get("schema_version"), SWEEP_SCHEMA_VERSION, "sweep")
        except ValueError as error:
            raise SpecError(str(error)) from None
        _reject_unknown(data, {"schema_version", "axes", "points", "store"}, "sweep")
        axes = data.get("axes") or {}
        if not isinstance(axes, dict):
            raise SpecError(f"sweep.axes must be a mapping, got {type(axes).__name__}")
        points = data.get("points") or []
        if not isinstance(points, list):
            raise SpecError(f"sweep.points must be a list, got {type(points).__name__}")
        for point in points:
            if not isinstance(point, dict):
                raise SpecError(
                    f"sweep.points entries must be mappings, got {type(point).__name__}"
                )
        store = data.get("store")
        return cls(
            axes={str(path): list(values) for path, values in axes.items()},
            points=[dict(point) for point in points],
            store=Path(store) if store else None,
        )

    def validate(self) -> None:
        """Raise :class:`SpecError` on invalid field values or combinations."""
        if not self.axes and not self.points:
            raise SpecError("sweep declares neither axes nor points")
        for path, values in self.axes.items():
            validate_sweep_axis(path)
            if not isinstance(values, (list, tuple)) or not values:
                raise SpecError(
                    f"sweep axis {path!r} needs a non-empty list of values, got {values!r}"
                )
        for point in self.points:
            if not point:
                raise SpecError("sweep.points entries must not be empty")
            for path in point:
                validate_sweep_axis(path)

    def copy(self) -> "SweepSpec":
        """Deep-enough copy: axes/points lists are duplicated."""
        return SweepSpec(
            axes={path: list(values) for path, values in self.axes.items()},
            points=[dict(point) for point in self.points],
            store=self.store,
        )


def _plain(value: Any) -> Any:
    """Recursively convert to YAML/JSON-serialisable plain python.

    Delegates to the result writer's converter so numpy scalars/arrays and
    Paths in spec params serialize the same way everywhere.
    """
    from repro.alficore.results import _to_plain

    return _to_plain(value)


@dataclass
class ExperimentSpec:
    """Complete declarative description of one fault-injection experiment."""

    name: str = "experiment"
    task: str = "classification"
    model: ComponentSpec = field(default_factory=lambda: ComponentSpec("lenet5"))
    dataset: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("synthetic-classification")
    )
    scenario: ScenarioConfig = field(default_factory=default_scenario)
    protection: ComponentSpec | None = None
    backend: BackendSpec = field(default_factory=BackendSpec)
    caching: CachingSpec = field(default_factory=CachingSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    sweep: SweepSpec | None = None
    input_shape: tuple[int, ...] | None = None
    dl_shuffle: bool = False
    output_dir: Path | None = None
    task_options: dict = field(default_factory=dict)

    @classmethod
    def _known_fields(cls) -> set[str]:
        return {f.name for f in dataclasses.fields(cls)} | {"schema_version"}

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self, registries: bool = False) -> None:
        """Check structural consistency; with ``registries=True`` also check
        that every referenced component name is registered (did-you-mean
        errors for typos)."""
        if not self.name:
            raise SpecError("experiment name must not be empty")
        self.backend.validate()
        self.caching.validate()
        self.execution.validate()
        self.scenario.validate()
        if self.sweep is not None:
            self.sweep.validate()
        if self.execution.resume and self.backend.name == "serial":
            raise SpecError(
                "execution.resume requires the 'sharded' backend: the run "
                "manifest tracks completed shard ranges"
            )
        if self.execution.resume and self.output_dir is None:
            raise SpecError(
                "execution.resume requires output_dir: the run manifest and "
                "the per-shard record files live there"
            )
        if self.input_shape is not None:
            self.input_shape = tuple(int(v) for v in self.input_shape)
            if any(v <= 0 for v in self.input_shape):
                raise SpecError(f"input_shape must be positive, got {self.input_shape}")
        if registries:
            from repro.experiments.builtins import register_builtins
            from repro.experiments.registry import (
                BACKENDS,
                DATASETS,
                ERROR_MODELS,
                MODELS,
                PROTECTIONS,
                TASKS,
            )

            # Pick up components added to the legacy model registries after
            # repro.experiments was first imported (idempotent, cheap).
            register_builtins()

            plugin = TASKS.get(self.task)
            MODELS.get(self.model.name)
            model_kind = MODELS.metadata(self.model.name).get("kind")
            expected_kind = getattr(plugin, "model_kind", None)
            if model_kind is not None and expected_kind is not None and model_kind != expected_kind:
                choices = ", ".join(MODELS.names(kind=expected_kind)) or "none registered"
                raise SpecError(
                    f"model {self.model.name!r} is registered as a {model_kind!r} but task "
                    f"{self.task!r} expects a {expected_kind!r} model (choices: {choices})"
                )
            DATASETS.get(self.dataset.name)
            dataset_task = DATASETS.metadata(self.dataset.name).get("task")
            if dataset_task is not None and dataset_task != self.task:
                choices = ", ".join(DATASETS.names(task=self.task)) or "none registered"
                raise SpecError(
                    f"dataset {self.dataset.name!r} is registered for task "
                    f"{dataset_task!r} but the spec's task is {self.task!r} "
                    f"(choices: {choices})"
                )
            BACKENDS.get(self.backend.name)
            ERROR_MODELS.get(self.scenario.rnd_value_type)
            if self.protection is not None:
                PROTECTIONS.get(self.protection.name)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict:
        """Plain-python document (the YAML/JSON body)."""
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "task": self.task,
            "model": self.model.as_dict(),
            "dataset": self.dataset.as_dict(),
            "scenario": self.scenario.as_dict(),
            "protection": self.protection.as_dict() if self.protection is not None else None,
            "backend": self.backend.as_dict(),
            "caching": self.caching.as_dict(),
            "execution": self.execution.as_dict(),
            "sweep": self.sweep.as_dict() if self.sweep is not None else None,
            "input_shape": list(self.input_shape) if self.input_shape is not None else None,
            "dl_shuffle": self.dl_shuffle,
            "output_dir": str(self.output_dir) if self.output_dir is not None else None,
            "task_options": _plain(self.task_options),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Build a spec from a document; unknown keys and newer schema
        versions are errors."""
        if not isinstance(data, dict):
            raise SpecError(f"experiment spec must be a mapping, got {type(data).__name__}")
        try:
            coerce_schema_version(data.get("schema_version"), SPEC_SCHEMA_VERSION, "spec")
        except ValueError as error:
            raise SpecError(str(error)) from None
        _reject_unknown(data, cls._known_fields(), "experiment spec")
        scenario_doc = data.get("scenario") or {}
        if not isinstance(scenario_doc, dict):
            raise SpecError(
                f"scenario must be a mapping, got {type(scenario_doc).__name__}"
            )
        try:
            scenario = ScenarioConfig.from_dict(scenario_doc)
        except KeyError as error:
            raise SpecError(f"invalid scenario section: {error.args[0]}") from error
        protection = data.get("protection")
        input_shape = data.get("input_shape")
        if input_shape is not None:
            if not isinstance(input_shape, (list, tuple)):
                raise SpecError(
                    f"input_shape must be a list of dimensions, got {input_shape!r}"
                )
            input_shape = tuple(_int_field(v, "input_shape entry") for v in input_shape)
        output_dir = data.get("output_dir")
        task_options = data.get("task_options") or {}
        if not isinstance(task_options, dict):
            raise SpecError(
                f"task_options must be a mapping, got {type(task_options).__name__}"
            )
        spec = cls(
            name=str(data.get("name") or "experiment"),
            task=str(data.get("task") or "classification"),
            model=ComponentSpec.from_dict(data.get("model", {"name": "lenet5"}), "model"),
            dataset=ComponentSpec.from_dict(
                data.get("dataset", {"name": "synthetic-classification"}), "dataset"
            ),
            scenario=scenario,
            protection=(
                ComponentSpec.from_dict(protection, "protection")
                if protection is not None
                else None
            ),
            backend=BackendSpec.from_dict(data.get("backend") or {}),
            caching=CachingSpec.from_dict(data.get("caching") or {}),
            execution=ExecutionSpec.from_dict(data.get("execution") or {}),
            sweep=(
                SweepSpec.from_dict(data["sweep"])
                if data.get("sweep") is not None
                else None
            ),
            input_shape=input_shape,
            dl_shuffle=_bool_field(data.get("dl_shuffle"), "dl_shuffle", default=False),
            output_dir=Path(output_dir) if output_dir else None,
            task_options=dict(task_options),
        )
        spec.validate()
        return spec

    def copy(self, **overrides: Any) -> "ExperimentSpec":
        """A deep copy with selected (top-level) fields replaced."""
        clone = dataclasses.replace(
            self,
            model=dataclasses.replace(self.model, params=dict(self.model.params)),
            dataset=dataclasses.replace(self.dataset, params=dict(self.dataset.params)),
            scenario=self.scenario.copy(),
            protection=(
                dataclasses.replace(self.protection, params=dict(self.protection.params))
                if self.protection is not None
                else None
            ),
            backend=dataclasses.replace(self.backend),
            caching=dataclasses.replace(self.caching),
            execution=dataclasses.replace(self.execution),
            sweep=self.sweep.copy() if self.sweep is not None else None,
            task_options=dict(self.task_options),
        )
        field_names = {f.name for f in dataclasses.fields(self)}
        for key, value in overrides.items():
            if key not in field_names:
                raise SpecError(f"unknown spec field {key!r}")
            setattr(clone, key, value)
        clone.validate()
        return clone

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_yaml(self) -> str:
        """The spec as a YAML document string."""
        return "# repro experiment specification\n" + yaml.safe_dump(
            self.as_dict(), default_flow_style=False, sort_keys=True
        )

    def to_json(self) -> str:
        """The spec as a JSON document string."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def save(self, path: str | Path) -> Path:
        """Write the spec to ``path`` (format chosen by suffix: .json or YAML)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = self.to_json() if path.suffix == ".json" else self.to_yaml()
        path.write_text(text, encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a YAML or JSON file."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"experiment spec not found: {path}")
        text = path.read_text(encoding="utf-8")
        data = json.loads(text) if path.suffix == ".json" else yaml.safe_load(text)
        if not isinstance(data, dict):
            raise SpecError(f"spec file {path} does not contain a mapping")
        return cls.from_dict(data)


def load_spec(path: str | Path) -> ExperimentSpec:
    """Module-level alias of :meth:`ExperimentSpec.load`."""
    return ExperimentSpec.load(path)
