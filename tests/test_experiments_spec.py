"""Tests for the declarative experiment specification (round-trip, validation)."""

from pathlib import Path

import pytest

from repro.alficore.scenario import default_scenario
from repro.experiments import (
    BackendSpec,
    CachingSpec,
    ComponentSpec,
    ExecutionSpec,
    Experiment,
    ExperimentSpec,
    SPEC_SCHEMA_VERSION,
    SpecError,
    UnknownComponentError,
)


def full_spec() -> ExperimentSpec:
    """A spec touching every field with a non-default value."""
    return ExperimentSpec(
        name="full",
        task="detection",
        model=ComponentSpec("yolov3", {"num_classes": 5, "seed": 3}),
        dataset=ComponentSpec("synthetic-coco", {"num_samples": 6, "num_classes": 5, "seed": 2}),
        scenario=default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=9,
            model_name="yolov3", dataset_size=6,
        ),
        protection=ComponentSpec("ranger", {"layer_types": None}),
        backend=BackendSpec("sharded", workers=2, num_shards=3),
        caching=CachingSpec(golden_cache_mb=64, prefix_reuse=False),
        execution=ExecutionSpec(retries=1, shard_timeout=30.0, backoff=0.25, resume=False),
        input_shape=(3, 64, 64),
        dl_shuffle=True,
        output_dir=Path("out/dir"),
        task_options={"collect_applied_log": False},
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = full_spec()
        assert ExperimentSpec.from_dict(spec.as_dict()) == spec

    def test_yaml_round_trip(self):
        import yaml

        spec = full_spec()
        assert ExperimentSpec.from_dict(yaml.safe_load(spec.to_yaml())) == spec

    def test_json_round_trip(self):
        import json

        spec = full_spec()
        assert ExperimentSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_numpy_params_serialize(self, tmp_path):
        import numpy as np

        spec = full_spec()
        spec.model.params["num_classes"] = np.int64(5)
        spec.model.params["scale"] = np.float32(0.5)
        reloaded = ExperimentSpec.load(spec.save(tmp_path / "np.yml"))
        assert reloaded.model.params["num_classes"] == 5
        assert reloaded.model.params["scale"] == 0.5
        spec.to_json()  # JSON path serializes too

    def test_file_round_trip_yaml_and_json(self, tmp_path):
        spec = full_spec()
        for name in ("spec.yml", "spec.json"):
            path = spec.save(tmp_path / name)
            assert ExperimentSpec.load(path) == spec

    def test_schema_version_in_document(self):
        assert full_spec().as_dict()["schema_version"] == SPEC_SCHEMA_VERSION

    def test_step_range_round_trips(self):
        spec = ExperimentSpec(backend=BackendSpec("serial", step_range=(0, 5)))
        rebuilt = ExperimentSpec.from_dict(spec.as_dict())
        assert rebuilt.backend.step_range == (0, 5)


class TestValidation:
    def test_newer_schema_version_rejected(self):
        data = full_spec().as_dict()
        data["schema_version"] = SPEC_SCHEMA_VERSION + 1
        with pytest.raises(SpecError, match="newer than the supported"):
            ExperimentSpec.from_dict(data)

    def test_null_and_non_numeric_schema_version_fail_cleanly(self):
        data = full_spec().as_dict()
        data["schema_version"] = None  # YAML `schema_version:` loads as null
        assert ExperimentSpec.from_dict(data) == full_spec()
        data["schema_version"] = "latest"
        with pytest.raises(SpecError, match="schema_version must be an integer"):
            ExperimentSpec.from_dict(data)
        data["schema_version"] = True
        with pytest.raises(SpecError, match="schema_version must be an integer"):
            ExperimentSpec.from_dict(data)

    def test_unknown_top_level_key_rejected(self):
        data = full_spec().as_dict()
        data["turbo"] = True
        with pytest.raises(SpecError, match="unknown experiment spec keys.*turbo"):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("section", ["model", "backend", "caching", "execution"])
    def test_unknown_nested_key_rejected(self, section):
        data = full_spec().as_dict()
        data[section] = dict(data[section], bogus=1)
        with pytest.raises(SpecError, match=f"unknown {section}"):
            ExperimentSpec.from_dict(data)

    def test_unknown_scenario_key_rejected(self):
        data = full_spec().as_dict()
        data["scenario"] = dict(data["scenario"], warp=1)
        with pytest.raises(SpecError, match="invalid scenario section"):
            ExperimentSpec.from_dict(data)

    def test_non_mapping_scenario_rejected(self):
        data = full_spec().as_dict()
        data["scenario"] = "weights"
        with pytest.raises(SpecError, match="scenario must be a mapping"):
            ExperimentSpec.from_dict(data)

    def test_bad_backend_values_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(backend=BackendSpec(workers=0)).validate()
        with pytest.raises(SpecError):
            ExperimentSpec(backend=BackendSpec(step_range=(4, 2))).validate()
        with pytest.raises(SpecError):
            ExperimentSpec(caching=CachingSpec(golden_cache_mb=-1)).validate()

    def test_bad_execution_values_rejected(self):
        with pytest.raises(SpecError, match="execution.retries"):
            ExperimentSpec(execution=ExecutionSpec(retries=-1)).validate()
        with pytest.raises(SpecError, match="execution.shard_timeout"):
            ExperimentSpec(execution=ExecutionSpec(shard_timeout=0.0)).validate()
        with pytest.raises(SpecError, match="execution.backoff"):
            ExperimentSpec(execution=ExecutionSpec(backoff=-0.5)).validate()

    def test_execution_round_trips_without_an_executor_key(self):
        data = full_spec().as_dict()
        assert "executor" not in data["execution"]
        spec = ExperimentSpec.from_dict(data)
        assert not hasattr(spec.execution, "executor")
        assert spec.as_dict() == data

    def test_removed_executor_key_is_rejected(self):
        data = full_spec().as_dict()
        data["execution"]["executor"] = "module"
        with pytest.raises(SpecError, match=r"unknown execution keys: \['executor'\]"):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize(
        "section, key, default",
        [
            ("execution", "resume", False),
            ("caching", "prefix_reuse", True),
            (None, "dl_shuffle", False),
        ],
    )
    def test_boolean_fields_are_strict(self, section, key, default):
        data = full_spec().as_dict()  # sharded with an output_dir, so resume is legal
        target = data[section] if section is not None else data
        where = f"{section}.{key}" if section is not None else key

        def parse(value):
            target[key] = value
            spec = ExperimentSpec.from_dict(data)
            owner = getattr(spec, section) if section is not None else spec
            return getattr(owner, key)

        for bad in ("false", "true", 0, 1, [], {}):
            with pytest.raises(SpecError, match=f"{where} must be a boolean"):
                parse(bad)
        assert parse(None) is default
        assert parse(not default) is (not default)

    def test_resume_requires_sharded_backend_and_output_dir(self):
        with pytest.raises(SpecError, match="resume requires the 'sharded' backend"):
            ExperimentSpec(execution=ExecutionSpec(resume=True)).validate()
        with pytest.raises(SpecError, match="resume requires output_dir"):
            ExperimentSpec(
                backend=BackendSpec("sharded", workers=2),
                execution=ExecutionSpec(resume=True),
            ).validate()
        ExperimentSpec(
            backend=BackendSpec("sharded", workers=2),
            execution=ExecutionSpec(resume=True),
            output_dir=Path("out"),
        ).validate()

    def test_execution_nulls_mean_defaults(self):
        data = full_spec().as_dict()
        data["execution"] = {"retries": None, "shard_timeout": None, "backoff": None, "resume": None}
        spec = ExperimentSpec.from_dict(data)
        assert spec.execution == ExecutionSpec()
        data["execution"] = {"backoff": "slow"}
        with pytest.raises(SpecError, match="execution.backoff must be a number"):
            ExperimentSpec.from_dict(data)

    def test_serial_backend_with_workers_rejected_at_validation(self):
        # validate and run must agree: a serial backend with workers>1 is a
        # spec error, not a run-time crash.
        with pytest.raises(SpecError, match="serial.*workers=1"):
            ExperimentSpec(backend=BackendSpec("serial", workers=2)).validate()

    def test_backend_combinations_validate_and_run_agree(self):
        with pytest.raises(SpecError, match="serial.*num_shards"):
            ExperimentSpec(backend=BackendSpec("serial", num_shards=3)).validate()
        with pytest.raises(SpecError, match="sharded.*step_range"):
            ExperimentSpec(
                backend=BackendSpec("sharded", workers=2, step_range=(0, 4))
            ).validate()

    def test_empty_protection_mapping_rejected(self):
        data = full_spec().as_dict()
        data["protection"] = {}
        with pytest.raises(SpecError, match="protection requires a 'name'"):
            ExperimentSpec.from_dict(data)

    def test_null_values_mean_defaults_not_literals(self):
        data = full_spec().as_dict()
        data["caching"] = {"golden_cache_mb": None, "prefix_reuse": None}
        data["backend"] = {"name": "sharded", "workers": None}
        data["task"] = None
        data["name"] = None
        spec = ExperimentSpec.from_dict(data)
        assert spec.caching.prefix_reuse is True
        assert spec.caching.golden_cache_mb == 0
        assert spec.backend.workers == 1
        assert spec.task == "classification" and spec.name == "experiment"
        data["model"] = {"name": None}
        with pytest.raises(SpecError, match="model requires a 'name'"):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("mutation", [
        {"backend": {"step_range": [5]}},
        {"backend": {"workers": {}}},
        {"input_shape": 5},
        {"model": {"name": "lenet5", "params": 5}},
        {"task_options": 7},
        {"caching": {"golden_cache_mb": "lots"}},
    ], ids=["short-step-range", "mapping-workers", "scalar-input-shape",
            "scalar-params", "scalar-task-options", "string-cache-mb"])
    def test_malformed_field_types_raise_spec_errors(self, mutation):
        # Every malformed document fails with a SpecError (clean CLI
        # message), never a raw TypeError/IndexError traceback.
        data = full_spec().as_dict()
        data.update(mutation)
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict(data)

    def test_registry_validation_catches_typos(self):
        spec = full_spec()
        spec.model = ComponentSpec("yolov")
        with pytest.raises(UnknownComponentError, match="did you mean.*yolov3"):
            spec.validate(registries=True)

    def test_component_from_plain_string(self):
        assert ComponentSpec.from_dict("ranger", "protection") == ComponentSpec("ranger")

    def test_copy_overrides_and_isolates(self):
        spec = full_spec()
        clone = spec.copy(name="other")
        assert clone.name == "other" and spec.name == "full"
        clone.model.params["seed"] = 99
        assert spec.model.params["seed"] == 3
        with pytest.raises(SpecError):
            spec.copy(warp=1)


class TestBuilder:
    def test_builder_equals_explicit_spec(self):
        built = (
            Experiment.builder()
            .name("full")
            .task("detection")
            .model("yolov3", num_classes=5, seed=3)
            .dataset("synthetic-coco", num_samples=6, num_classes=5, seed=2)
            .protection("ranger", layer_types=None)
            .scenario(
                injection_target="weights", rnd_bit_range=(23, 30), random_seed=9,
                model_name="yolov3", dataset_size=6,
            )
            .backend("sharded", workers=2, num_shards=3)
            .caching(golden_cache_mb=64, prefix_reuse=False)
            .execution(retries=1, shard_timeout=30.0, backoff=0.25)
            .input_shape(3, 64, 64)
            .shuffle(True)
            .output_dir("out/dir")
            .options(collect_applied_log=False)
            .build()
        )
        assert built == full_spec()

    def test_builder_boolean_knobs_are_strict(self):
        builder = Experiment.builder()
        with pytest.raises(SpecError, match="caching.prefix_reuse must be a boolean"):
            builder.caching(prefix_reuse="false")
        with pytest.raises(SpecError, match="execution.resume must be a boolean"):
            builder.execution(resume="false")
        with pytest.raises(SpecError, match="dl_shuffle must be a boolean"):
            builder.shuffle("false")
        assert builder.shuffle(False).caching(prefix_reuse=False).build().dl_shuffle is False

    def test_builder_returns_independent_specs(self):
        builder = Experiment.builder().name("a")
        first = builder.build()
        builder.name("b")
        assert first.name == "a"

    def test_builder_noarg_scenario_keeps_accumulated_config(self):
        builder = Experiment.builder().scenario(injection_target="weights", random_seed=7)
        builder.scenario()  # no-op, not a reset
        spec = builder.build()
        assert spec.scenario.injection_target == "weights"
        assert spec.scenario.random_seed == 7

    def test_fractional_integers_rejected(self):
        data = full_spec().as_dict()
        data["backend"] = {"name": "sharded", "workers": 2.5}
        with pytest.raises(SpecError, match="backend.workers must be an integer"):
            ExperimentSpec.from_dict(data)
        data["backend"] = {"name": "sharded", "workers": 2.0}  # int-valued float ok
        assert ExperimentSpec.from_dict(data).backend.workers == 2
        data["backend"] = {"name": "sharded", "workers": True}
        with pytest.raises(SpecError, match="backend.workers must be an integer"):
            ExperimentSpec.from_dict(data)

    def test_experiment_load_and_save(self, tmp_path):
        path = Experiment(full_spec()).save(tmp_path / "spec.yml")
        assert Experiment.load(path).spec == full_spec()
