"""Tests for the sweep grid manager (`repro.experiments.sweep`).

Covers the versioned ``sweep:`` spec section (round-trip, strict unknown-key
rejection, axis grammar with did-you-mean), deterministic grid expansion,
content-addressed skip, interrupted-sweep resume with byte-identical
aggregate tables, and KPI parity with the hand-written per-step loop the
sweep manager replaces.
"""

import json

import pytest

from repro.experiments import (
    Artifacts,
    CampaignStore,
    DATASETS,
    Experiment,
    ExperimentSpec,
    MODELS,
    SpecError,
    StoreError,
    SweepError,
    SweepSpec,
    expand,
    run,
    run_sweep,
)
from repro.experiments.spec import validate_sweep_axis
import repro.experiments.sweep as sweep_module

IMAGES = 6


def base_builder(images=IMAGES):
    return (
        Experiment.builder()
        .name("sweep-test")
        .model("lenet5", num_classes=10, seed=0)
        .dataset(
            "synthetic-classification",
            num_samples=images, num_classes=10, noise=0.25, seed=1,
        )
        .scenario(
            injection_target="weights", rnd_bit_range=(23, 30),
            random_seed=3, model_name="lenet5", dataset_size=images,
        )
    )


def layer_sweep_spec(layers=((0, 0), (1, 1)), **sweep_kwargs):
    return (
        base_builder()
        .sweep(axes={"scenario.layer_range": [list(pair) for pair in layers]}, **sweep_kwargs)
        .build()
    )


class TestSweepSpecSection:
    def test_yaml_round_trip(self, tmp_path):
        spec = layer_sweep_spec()
        path = spec.save(tmp_path / "spec.yml")
        loaded = ExperimentSpec.load(path)
        assert loaded.sweep is not None
        assert loaded.sweep.axes == spec.sweep.axes
        assert loaded.sweep.points == spec.sweep.points

    def test_json_round_trip(self, tmp_path):
        spec = layer_sweep_spec()
        spec.sweep.points = [{"scenario.rnd_bit_range": [30, 30]}]
        path = spec.save(tmp_path / "spec.json")
        loaded = ExperimentSpec.load(path)
        assert loaded.sweep.points == [{"scenario.rnd_bit_range": [30, 30]}]

    def test_schema_version_serialized_and_enforced(self):
        document = layer_sweep_spec().as_dict()
        assert document["sweep"]["schema_version"] == 1
        document["sweep"]["schema_version"] = 2
        with pytest.raises(SpecError, match="sweep schema version 2 is newer"):
            ExperimentSpec.from_dict(document)

    def test_unknown_sweep_keys_rejected(self):
        document = layer_sweep_spec().as_dict()
        document["sweep"]["grid"] = {}
        with pytest.raises(SpecError, match="unknown sweep keys.*grid"):
            ExperimentSpec.from_dict(document)

    def test_axis_typo_gets_did_you_mean(self):
        with pytest.raises(SpecError, match="scenario.layer_range"):
            validate_sweep_axis("scenario.layer_rnage")

    def test_unknown_axis_root_rejected(self):
        with pytest.raises(SpecError, match="unknown axis root"):
            validate_sweep_axis("optimizer.lr")

    def test_empty_axis_values_rejected(self):
        spec = layer_sweep_spec()
        spec.sweep.axes["scenario.layer_range"] = []
        with pytest.raises(SpecError, match="non-empty list"):
            spec.validate()

    def test_sweep_without_axes_or_points_rejected(self):
        spec = layer_sweep_spec()
        spec.sweep = SweepSpec()
        with pytest.raises(SpecError, match="neither axes nor points"):
            spec.validate()

    def test_copy_is_deep(self):
        spec = layer_sweep_spec()
        clone = spec.copy()
        clone.sweep.axes["scenario.layer_range"].append([9, 9])
        assert len(spec.sweep.axes["scenario.layer_range"]) == 2

    def test_run_refuses_sweep_specs(self):
        with pytest.raises(SpecError, match="run_sweep"):
            run(layer_sweep_spec())


class TestExpand:
    def test_cartesian_product_declaration_order(self):
        spec = (
            base_builder()
            .sweep(axes={
                "scenario.random_seed": [3, 4],
                "scenario.rnd_bit_range": [[23, 23], [30, 30]],
            })
            .build()
        )
        plan = expand(spec)
        assert [point.overrides for point in plan.points] == [
            {"scenario.random_seed": 3, "scenario.rnd_bit_range": [23, 23]},
            {"scenario.random_seed": 3, "scenario.rnd_bit_range": [30, 30]},
            {"scenario.random_seed": 4, "scenario.rnd_bit_range": [23, 23]},
            {"scenario.random_seed": 4, "scenario.rnd_bit_range": [30, 30]},
        ]
        assert plan.axis_order == ["scenario.random_seed", "scenario.rnd_bit_range"]

    def test_explicit_points_append_after_the_grid(self):
        spec = layer_sweep_spec()
        spec.sweep.points = [{"scenario.rnd_bit_range": [30, 30]}]
        plan = expand(spec)
        assert len(plan) == 3
        assert plan.points[2].overrides == {"scenario.rnd_bit_range": [30, 30]}
        assert plan.axis_order[-1] == "scenario.rnd_bit_range"

    def test_children_are_concrete_validated_specs(self):
        plan = expand(layer_sweep_spec())
        for index, point in enumerate(plan.points):
            assert point.spec.sweep is None
            assert point.spec.name == f"sweep-test-p{index:03d}"
        assert plan.points[1].spec.scenario.layer_range == (1, 1)
        # The base spec is untouched by expansion.
        assert plan.base.scenario.layer_range is None

    def test_dl_shuffle_axis_takes_booleans_only(self):
        spec = base_builder().sweep(axes={"dl_shuffle": [False, True]}).build()
        assert [point.spec.dl_shuffle for point in expand(spec).points] == [False, True]
        spec.sweep.axes["dl_shuffle"] = [False, "false"]
        with pytest.raises(SweepError, match="dl_shuffle must be a boolean"):
            expand(spec)

    def test_invalid_grid_value_fails_at_expansion(self):
        spec = layer_sweep_spec()
        spec.sweep.axes["scenario.layer_range"] = [[0, 0], "not-a-range"]
        with pytest.raises(SweepError, match="point 1"):
            expand(spec)

    def test_model_axis_changes_the_child_component(self):
        spec = (
            base_builder()
            .sweep(axes={"model.params.seed": [0, 1]})
            .build()
        )
        plan = expand(spec)
        assert plan.points[0].spec.model.params["seed"] == 0
        assert plan.points[1].spec.model.params["seed"] == 1

    def test_protection_params_without_protection_is_an_error(self):
        spec = (
            base_builder()
            .sweep(axes={"protection.params.bound": [1.0, 2.0]})
            .build()
        )
        with pytest.raises(SweepError, match="protection"):
            expand(spec)

    def test_whole_protection_axis_accepts_none_and_components(self):
        spec = (
            base_builder()
            .sweep(axes={"protection": [None, "ranger", {"name": "clipper"}]})
            .build()
        )
        plan = expand(spec)
        assert plan.points[0].spec.protection is None
        assert plan.points[1].spec.protection.name == "ranger"
        assert plan.points[2].spec.protection.name == "clipper"

    def test_expand_without_sweep_section(self):
        with pytest.raises(SweepError, match="no sweep"):
            expand(base_builder().build())


class TestResolve:
    def test_run_ids_are_stable_and_distinct(self):
        spec = layer_sweep_spec()
        plan_a, plan_b = expand(spec), expand(spec)
        plan_a.resolve()
        plan_b.resolve()
        ids_a = [point.run_id for point in plan_a.points]
        assert ids_a == [point.run_id for point in plan_b.points]
        assert len(set(ids_a)) == len(ids_a)
        assert all(len(run_id) == 16 for run_id in ids_a)

    def test_scenario_only_grid_builds_the_model_once(self, monkeypatch):
        from repro.experiments.registry import TASKS

        plugin = TASKS.get("classification")
        builds = []
        original = type(plugin).build_model

        def counting(self, spec, dataset):
            builds.append(spec.name)
            return original(self, spec, dataset)

        monkeypatch.setattr(type(plugin), "build_model", counting)
        plan = expand(layer_sweep_spec())
        plan.resolve()
        assert len(builds) == 1

    def test_supplied_artifacts_forbid_component_axes(self):
        spec = (
            base_builder()
            .sweep(axes={"model.params.seed": [0, 1]})
            .build()
        )
        plan = expand(spec)
        model = MODELS.get("lenet5")(num_classes=10, seed=0)
        with pytest.raises(SweepError, match="pre-built"):
            plan.resolve(Artifacts(model=model))


class TestRunSweep:
    def test_without_store_every_point_executes_in_memory(self):
        result = run_sweep(layer_sweep_spec())
        assert (result.executed, result.cached) == (2, 0)
        for outcome in result.outcomes:
            assert outcome.load_result().summary["corrupted"]["num_inferences"] == IMAGES

    def test_store_skip_and_lazy_results(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        spec = layer_sweep_spec()
        first = run_sweep(spec, store=store)
        assert first.executed == 2
        second = run_sweep(spec, store=store)
        assert (second.executed, second.cached) == (0, 2)
        reloaded = second.outcomes[0].load_result()
        assert reloaded.summary == second.outcomes[0].summary
        assert reloaded.task == "classification"

    def test_rerun_invokes_zero_point_executions(self, tmp_path, monkeypatch):
        store = CampaignStore(tmp_path / "store")
        spec = layer_sweep_spec()
        run_sweep(spec, store=store)

        def forbidden(*args, **kwargs):
            raise AssertionError("a cached sweep must not execute any point")

        monkeypatch.setattr(sweep_module, "_execute_point", forbidden)
        result = run_sweep(spec, store=store)
        assert (result.executed, result.cached) == (0, 2)

    def test_workers_override_reuses_serial_points(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        spec = layer_sweep_spec()
        run_sweep(spec, store=store)
        again = run_sweep(spec, store=store, workers=2)
        assert again.executed == 0

    def test_store_from_sweep_section(self, tmp_path):
        spec = layer_sweep_spec(store=tmp_path / "declared-store")
        result = run_sweep(spec)
        assert result.executed == 2
        assert (tmp_path / "declared-store" / "sweep-test_sweep_table.csv").exists()
        assert run_sweep(spec).executed == 0

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path, monkeypatch):
        spec = layer_sweep_spec(layers=((0, 0), (1, 1), (2, 2)))
        baseline_store = CampaignStore(tmp_path / "baseline")
        run_sweep(spec, store=baseline_store)
        baseline_csv = (baseline_store.root / "sweep-test_sweep_table.csv").read_bytes()
        baseline_json = (baseline_store.root / "sweep-test_sweep_table.json").read_bytes()

        store = CampaignStore(tmp_path / "interrupted")
        original = sweep_module._execute_point
        calls = []

        def crash_on_third(point, *args, **kwargs):
            calls.append(point.index)
            if len(calls) == 3:
                raise RuntimeError("simulated crash mid-sweep")
            return original(point, *args, **kwargs)

        monkeypatch.setattr(sweep_module, "_execute_point", crash_on_third)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_sweep(spec, store=store)
        monkeypatch.setattr(sweep_module, "_execute_point", original)

        resumed = run_sweep(spec, store=store, resume=True)
        assert (resumed.executed, resumed.cached) == (1, 2)
        assert (store.root / "sweep-test_sweep_table.csv").read_bytes() == baseline_csv
        assert (store.root / "sweep-test_sweep_table.json").read_bytes() == baseline_json

    def test_resume_refuses_a_different_sweeps_manifest(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        run_sweep(layer_sweep_spec(), store=store)
        other = layer_sweep_spec(layers=((0, 0), (2, 2)))
        with pytest.raises(StoreError, match="different sweep configuration"):
            run_sweep(other, store=store, resume=True)


class TestAggregation:
    def test_table_rows_carry_axes_and_kpis(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        result = run_sweep(layer_sweep_spec(), store=store)
        rows = result.table_rows()
        assert [row["point"] for row in rows] == [0, 1]
        assert rows[0]["scenario.layer_range"] == [0, 0]
        assert rows[1]["scenario.layer_range"] == [1, 1]
        for row in rows:
            assert 0.0 <= row["corrupted.sde_rate"] <= 1.0
            assert row["corrupted.num_inferences"] == IMAGES
            # file locations are bookkeeping, not KPIs
            assert not any(column.startswith("output_files") for column in row)

    def test_format_table_renders_every_point(self):
        result = run_sweep(layer_sweep_spec())
        rendered = result.format_table()
        assert "run_id" in rendered.splitlines()[0]
        assert len(rendered.splitlines()) == 3

    def test_kpi_rows_match_the_hand_written_loop(self, tmp_path):
        """The sweep manager reproduces the manual spec-copy loop bit for bit.

        This is the migration guarantee for ``examples/layer_sweep.py``: the
        per-step KPI rows of the replaced hand-written loop and the sweep
        grid's aggregated rows serialize byte-identically.
        """
        base = base_builder().build()
        dataset = DATASETS.get(base.dataset.name)(**base.dataset.params)
        from repro.models.pretrained import fit_classifier_head

        model = fit_classifier_head(
            MODELS.get(base.model.name)(**base.model.params), dataset, 10
        )
        artifacts = Artifacts(model=model, dataset=dataset)
        layers = [(0, 0), (1, 1)]

        manual_rows = []
        for pair in layers:
            spec = base.copy(scenario=base.scenario.copy(layer_range=pair))
            kpis = run(spec, artifacts=artifacts).summary["corrupted"]
            manual_rows.append(json.loads(json.dumps(kpis, default=str)))

        sweep_spec = base.copy()
        sweep_spec.sweep = SweepSpec(
            axes={"scenario.layer_range": [list(pair) for pair in layers]}
        )
        result = run_sweep(sweep_spec, artifacts, store=tmp_path / "store")
        sweep_rows = [outcome.summary["corrupted"] for outcome in result.outcomes]

        assert json.dumps(sweep_rows, sort_keys=True) == json.dumps(
            manual_rows, sort_keys=True
        )
