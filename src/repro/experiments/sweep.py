"""Sweep grids: declarative multi-run campaigns over one experiment spec.

A spec with a ``sweep:`` section (see
:class:`~repro.experiments.spec.SweepSpec`) describes a *family* of
campaigns: a cartesian grid over scenario/model/protection/task fields plus
optional explicit extra points.  This module turns that declaration into a
deterministic :class:`SweepPlan` of concrete child specs, executes the plan
through the ordinary :func:`repro.experiments.run` path (so the supervised
sharded backend's retry/timeout/backoff applies per point), and persists
every completed point in a content-addressed
:class:`~repro.experiments.campaigns.CampaignStore` — re-running a finished
sweep recomputes **zero** points, and an interrupted sweep resumed with
``resume=True`` produces a byte-identical aggregate table.

Typical use::

    spec = ExperimentSpec.load("layer_sweep.yml")     # has a sweep: section
    outcome = run_sweep(spec)                          # skip-completed
    print(outcome.format_table())                      # one row per point
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.alficore.digests import config_digest, model_fingerprint
from repro.experiments.campaigns.store import (
    CampaignStore,
    StoredPoint,
    StoreError,
    SweepManifest,
    canonical_spec_document,
    point_run_id,
)
from repro.experiments.result import CampaignResult
from repro.experiments.runner import Artifacts, run
from repro.experiments.spec import ComponentSpec, ExperimentSpec, SpecError, _bool_field

TABLE_SCHEMA_VERSION = 1


class SweepError(RuntimeError):
    """Raised for invalid sweep declarations or unusable sweep state."""


# --------------------------------------------------------------------------- #
# grid expansion
# --------------------------------------------------------------------------- #
@dataclass
class SweepPoint:
    """One concrete grid point: axis assignment plus materialized spec."""

    index: int
    overrides: dict[str, Any]
    spec: ExperimentSpec
    run_id: str | None = None  # filled by SweepPlan.resolve()


@dataclass
class SweepPlan:
    """The deterministic expansion of one sweep declaration."""

    base: ExperimentSpec
    points: list[SweepPoint]
    axis_order: list[str]
    #: per-point (model, dataset) instances, filled by :meth:`resolve`
    artifacts: dict[int, tuple[Any, Any]] = field(default_factory=dict)
    fingerprints: dict[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    def resolve(self, artifacts: Artifacts | None = None) -> None:
        """Assign content-addressed run IDs to every point.

        Builds each point's model/dataset (deduplicated by configuration, so
        a scenario-only grid builds the model exactly once), fingerprints
        the weights, and derives ``run_id`` from the canonical spec document
        plus the fingerprint.  With pre-built ``artifacts`` the supplied
        model/dataset are used for every point — only legal when no axis
        changes the model, dataset or task.
        """
        from repro.experiments.builtins import register_builtins
        from repro.experiments.registry import DATASETS, TASKS

        register_builtins()
        supplied = artifacts is not None and (
            artifacts.model is not None or artifacts.dataset is not None
        )
        if supplied:
            component_axes = [
                path
                for point in self.points
                for path in point.overrides
                if path == "task" or path.split(".")[0] in ("model", "dataset")
            ]
            if component_axes:
                raise SweepError(
                    "pre-built model/dataset artifacts cannot be combined with "
                    f"sweep axes over {sorted(set(component_axes))}: each grid "
                    "point would need its own build"
                )
        datasets: dict[str, Any] = {}
        models: dict[str, tuple[Any, str]] = {}
        for point in self.points:
            spec = point.spec
            plugin = TASKS.get(spec.task)
            if supplied and artifacts.dataset is not None:
                dataset = artifacts.dataset
            else:
                dataset_key = config_digest(spec.dataset.as_dict())
                if dataset_key not in datasets:
                    datasets[dataset_key] = DATASETS.get(spec.dataset.name)(
                        **spec.dataset.params
                    )
                dataset = datasets[dataset_key]
            if supplied and artifacts.model is not None:
                model = artifacts.model
                model_key = "supplied"
                if model_key not in models:
                    models[model_key] = (model, model_fingerprint(model))
            else:
                model_key = config_digest(
                    {
                        "task": spec.task,
                        "model": spec.model.as_dict(),
                        "dataset": spec.dataset.as_dict(),
                    }
                )
                if model_key not in models:
                    built = plugin.build_model(spec, dataset)
                    models[model_key] = (built, model_fingerprint(built))
            model, fingerprint = models[model_key]
            point.run_id = point_run_id(canonical_spec_document(spec), fingerprint)
            self.artifacts[point.index] = (model, dataset)
            self.fingerprints[point.index] = fingerprint


def _apply_axis(spec: ExperimentSpec, path: str, value: Any) -> None:
    """Set one axis value on a child spec (path already grammar-validated)."""
    parts = path.split(".")
    root = parts[0]
    if root == "task":
        spec.task = str(value)
    elif root == "input_shape":
        spec.input_shape = tuple(int(v) for v in value) if value is not None else None
    elif root == "dl_shuffle":
        spec.dl_shuffle = _bool_field(value, "sweep axis dl_shuffle", default=False)
    elif root in ("model", "dataset") and parts[1] == "name":
        getattr(spec, root).name = str(value)
    elif root in ("model", "dataset"):  # <root>.params.<key>
        getattr(spec, root).params[parts[2]] = value
    elif root == "protection" and len(parts) == 1:
        spec.protection = (
            ComponentSpec.from_dict(value, "protection") if value is not None else None
        )
    elif root == "protection" and parts[1] == "name":
        if spec.protection is None:
            spec.protection = ComponentSpec(str(value))
        else:
            spec.protection.name = str(value)
    elif root == "protection":  # protection.params.<key>
        if spec.protection is None:
            raise SweepError(
                f"axis {path!r} needs a protection to parameterize: declare a "
                "'protection.name' axis or a protection in the base spec"
            )
        spec.protection.params[parts[2]] = value
    elif root == "scenario":
        spec.scenario = spec.scenario.copy(**{parts[1]: value})
    elif root == "task_options":
        spec.task_options[parts[1]] = value
    else:  # pragma: no cover - validate_sweep_axis precedes
        raise SweepError(f"unsupported axis {path!r}")


def expand(spec: ExperimentSpec) -> SweepPlan:
    """Materialize a sweep declaration into concrete child specs.

    The grid is the cartesian product of the declared axes in declaration
    order (the last axis varies fastest), followed by the explicit
    ``points`` entries.  Expansion is fully deterministic: the same spec
    always yields the same points in the same order.  Each child spec is
    validated (so a grid value that breaks scenario invariants fails here,
    before anything runs), has its ``sweep`` section stripped, and is named
    ``<base>-p<index>``.
    """
    if spec.sweep is None:
        raise SweepError("spec has no sweep: section; use repro.experiments.run()")
    sweep = spec.sweep
    sweep.validate()
    base = spec.copy()
    base.sweep = None
    assignments: list[dict[str, Any]] = []
    if sweep.axes:
        paths = list(sweep.axes)
        for combination in itertools.product(*(sweep.axes[p] for p in paths)):
            assignments.append(dict(zip(paths, combination)))
    assignments.extend(dict(point) for point in sweep.points)
    axis_order = list(sweep.axes)
    for point in sweep.points:
        for path in point:
            if path not in axis_order:
                axis_order.append(path)
    points = []
    for index, overrides in enumerate(assignments):
        child = base.copy()
        child.name = f"{base.name}-p{index:03d}"
        for path, value in overrides.items():
            try:
                _apply_axis(child, path, value)
            except (SpecError, ValueError, TypeError) as error:
                raise SweepError(
                    f"point {index}: cannot apply {path!r}={value!r}: {error}"
                ) from error
        try:
            child.validate()
        except SpecError as error:
            raise SweepError(f"point {index} ({overrides!r}) is invalid: {error}") from error
        points.append(SweepPoint(index=index, overrides=dict(overrides), spec=child))
    return SweepPlan(base=base, points=points, axis_order=axis_order)


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
@dataclass
class SweepPointOutcome:
    """What one grid point contributed to the sweep."""

    point: SweepPoint
    run_id: str
    cached: bool
    summary: dict
    stored: StoredPoint | None = None
    _result: CampaignResult | None = None

    def load_result(self) -> CampaignResult:
        """The point's full campaign result (lazy for cached points)."""
        if self._result is not None:
            return self._result
        if self.stored is None:
            raise SweepError(f"point {self.run_id} ran without a store; no result kept")
        return self.stored.load_result()


def _flatten_summary(summary: dict, prefix: str = "") -> dict[str, Any]:
    """Dotted-path scalars of a nested KPI summary.

    Non-scalars are dropped, as is the ``output_files`` map — file locations
    are machine-local bookkeeping, not KPIs, and would break the table's
    byte-for-byte determinism across store locations.
    """
    flat: dict[str, Any] = {}
    for key, value in summary.items():
        if not prefix and key == "output_files":
            continue
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_summary(value, prefix=f"{path}."))
        elif isinstance(value, (int, float, str, bool)) or value is None:
            flat[path] = value
    return flat


class SweepResult:
    """Aggregate of one sweep run: per-point outcomes plus comparison table.

    ``executed`` / ``cached`` count how many points actually ran versus were
    served from the content-addressed store.  :meth:`table_rows` aggregates
    every point's KPI scalars into one comparison table (axis columns in
    declaration order, then sorted KPI columns); :meth:`write_table`
    persists it as CSV and JSON.  Per-point campaign results stay lazy —
    :meth:`SweepPointOutcome.load_result` unpickles a cached point's task
    state only on demand.
    """

    def __init__(
        self,
        plan: SweepPlan,
        outcomes: list[SweepPointOutcome],
        store: CampaignStore | None,
    ) -> None:
        self.plan = plan
        self.outcomes = outcomes
        self.store = store
        self.executed = sum(1 for outcome in outcomes if not outcome.cached)
        self.cached = sum(1 for outcome in outcomes if outcome.cached)
        self.table_files: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self.outcomes)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def table_columns(self) -> list[str]:
        """Union of per-point summary keys, in first-appearance order."""
        kpi_columns: set[str] = set()
        for outcome in self.outcomes:
            kpi_columns.update(_flatten_summary(outcome.summary))
        return ["point", "run_id", *self.plan.axis_order, *sorted(kpi_columns)]

    def table_rows(self) -> list[dict[str, Any]]:
        """One comparison row per grid point (JSON-friendly values)."""
        columns = self.table_columns()
        rows = []
        for outcome in self.outcomes:
            flat = _flatten_summary(outcome.summary)
            row: dict[str, Any] = {
                "point": outcome.point.index,
                "run_id": outcome.run_id,
            }
            for axis in self.plan.axis_order:
                row[axis] = _json_value(outcome.point.overrides.get(axis))
            for column in columns:
                if column not in row:
                    row[column] = flat.get(column)
            rows.append(row)
        return rows

    def write_table(self, directory: str | Path, name: str | None = None) -> dict[str, str]:
        """Write the comparison table as ``<name>_sweep_table.{csv,json}``.

        Output is fully deterministic (stable column order, JSON-formatted
        cells), so a resumed sweep's table is byte-identical to an
        uninterrupted run's.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        name = name or self.plan.base.name
        columns = self.table_columns()
        rows = self.table_rows()
        csv_path = directory / f"{name}_sweep_table.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_csv_cell(row.get(column)) for column in columns])
        json_path = directory / f"{name}_sweep_table.json"
        json_path.write_text(
            json.dumps(
                {
                    "schema_version": TABLE_SCHEMA_VERSION,
                    "name": name,
                    "columns": columns,
                    "rows": rows,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        self.table_files = {"table_csv": str(csv_path), "table_json": str(json_path)}
        return dict(self.table_files)

    def format_table(self, columns: list[str] | None = None) -> str:
        """A fixed-width text rendering of (a column subset of) the table."""
        columns = columns or self.table_columns()
        rows = self.table_rows()
        cells = [[_csv_cell(row.get(column)) for column in columns] for row in rows]
        widths = [
            max(len(column), *(len(line[i]) for line in cells)) if cells else len(column)
            for i, column in enumerate(columns)
        ]
        out = ["  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))]
        for line in cells:
            out.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(line)))
        return "\n".join(out)


def _json_value(value: Any) -> Any:
    """JSON round-trip so in-memory and store-loaded values render alike."""
    return json.loads(json.dumps(value, default=str))


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _execute_point(
    point: SweepPoint,
    model: Any,
    dataset: Any,
    *,
    output_dir: Path | None,
    workers: int | None,
    resume: bool,
) -> CampaignResult:
    """Run one grid point through the ordinary experiment path.

    Worker/resume overrides touch only execution policy — never the
    canonical (run-ID-addressed) content — so a ``--workers 4`` re-run still
    reuses a serial run's committed points.  With ``resume`` the child runs
    the supervised sharded backend with ``execution.resume``, composing
    shard-level crash recovery with point-level skip.
    """
    child = point.spec.copy()
    if output_dir is not None:
        child.output_dir = output_dir
    if workers is not None and workers > 1:
        child.backend.name = "sharded"
        child.backend.workers = workers
        child.backend.step_range = None
    if resume and output_dir is not None:
        child.execution.resume = True
        if child.backend.name == "serial":
            child.backend.name = "sharded"
    child.validate()
    return run(child, Artifacts(model=model, dataset=dataset))


def run_sweep(
    spec: ExperimentSpec,
    artifacts: Artifacts | None = None,
    *,
    store: CampaignStore | str | Path | None = None,
    workers: int | None = None,
    resume: bool = False,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Execute a sweep spec: expand, skip completed points, aggregate.

    Args:
        spec: an :class:`ExperimentSpec` with a ``sweep:`` section.
        artifacts: optional pre-built model/dataset shared by every point
            (only legal when no axis varies model, dataset or task).
        store: campaign-store directory (or instance).  Defaults to the
            sweep's declared ``store``, then ``<output_dir>/sweep_store``;
            with neither, the sweep runs without persistence (every point
            executes, nothing can be skipped).
        workers: override worker count for point execution (sharded backend
            when > 1); excluded from run IDs, so cached points still match.
        resume: resume an interrupted sweep — completed points are skipped
            via the store, the in-flight point resumes shard-by-shard from
            its work-in-progress manifest, and the sweep manifest must match
            the sweep configuration.
        progress: optional callback receiving one line per point.

    Returns:
        A :class:`SweepResult`; with a store, the comparison table has also
        been written to the store root.
    """
    plan = expand(spec)
    plan.resolve(artifacts)
    emit = progress if progress is not None else (lambda line: None)
    campaign_store = _resolve_store(spec, store)
    manifest = None
    if campaign_store is not None:
        campaign_store.root.mkdir(parents=True, exist_ok=True)
        manifest_config = {
            "sweep": {
                key: value
                for key, value in spec.sweep.as_dict().items()
                if key != "store"
            },
            "base": canonical_spec_document(plan.base),
            "run_ids": [point.run_id for point in plan.points],
        }
        manifest_path = campaign_store.manifest_path()
        if resume:
            manifest = SweepManifest.load(manifest_path)
            if manifest is not None and not manifest.matches(manifest_config):
                raise StoreError(
                    f"sweep manifest {manifest_path} records a different sweep "
                    "configuration; refusing to resume (point to a fresh store "
                    "or drop --resume)"
                )
        if manifest is None:
            manifest = SweepManifest.fresh(manifest_path, manifest_config)
    outcomes = []
    for point in plan.points:
        run_id = point.run_id
        assert run_id is not None  # plan.resolve() filled it
        stored = campaign_store.lookup(run_id) if campaign_store is not None else None
        if stored is not None:
            outcome = SweepPointOutcome(
                point=point, run_id=run_id, cached=True, summary=stored.summary,
                stored=stored,
            )
            emit(f"point {point.index:>3} {run_id}  cached    {point.overrides}")
        else:
            model, dataset = plan.artifacts[point.index]
            output_dir = (
                campaign_store.begin(run_id, resume=resume)
                if campaign_store is not None
                else None
            )
            # A failure here leaves the .wip directory in place: a later
            # --resume picks up its shard manifest; a plain re-run discards it.
            result = _execute_point(
                point, model, dataset,
                output_dir=output_dir, workers=workers, resume=resume,
            )
            if campaign_store is not None:
                committed = campaign_store.commit(
                    run_id,
                    result,
                    canonical_spec=canonical_spec_document(point.spec),
                    weights_fingerprint=plan.fingerprints[point.index],
                    overrides=point.overrides,
                )
                summary = committed.summary
                stored = committed
            else:
                committed = None
                summary = _json_value(result.summary)
            outcome = SweepPointOutcome(
                point=point, run_id=run_id, cached=False, summary=summary,
                stored=stored, _result=result,
            )
            emit(f"point {point.index:>3} {run_id}  executed  {point.overrides}")
        if manifest is not None:
            manifest.mark_completed(point.index, run_id, cached=outcome.cached)
        outcomes.append(outcome)
    sweep_result = SweepResult(plan, outcomes, campaign_store)
    if campaign_store is not None:
        sweep_result.write_table(campaign_store.root)
    return sweep_result


def _resolve_store(
    spec: ExperimentSpec, store: CampaignStore | str | Path | None
) -> CampaignStore | None:
    if isinstance(store, CampaignStore):
        return store
    if store is not None:
        return CampaignStore(store)
    if spec.sweep is not None and spec.sweep.store is not None:
        return CampaignStore(spec.sweep.store)
    if spec.output_dir is not None:
        return CampaignStore(Path(spec.output_dir) / "sweep_store")
    return None
