"""Integration tests for the clone-free streaming campaign engine."""

import json

import numpy as np
import pytest

from campaign_support import run_campaign
from repro.alficore import CampaignResultWriter, default_scenario
from repro.data import SyntheticClassificationDataset
from repro.models import lenet5
from repro.models.pretrained import fit_classifier_head
from repro.tensor.bitops import float_to_bits


@pytest.fixture(scope="module")
def fitted_model_and_dataset():
    dataset = SyntheticClassificationDataset(num_samples=10, num_classes=10, noise=0.2, seed=5)
    model = fit_classifier_head(lenet5(seed=1), dataset, 10)
    return model, dataset


class TestCampaignEngine:
    """Streaming runs (``collect_outputs=False``): KPIs come from the counters."""

    def test_weight_campaign_restores_model_bit_exactly(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        bits_before = {n: float_to_bits(p.data).copy() for n, p in model.named_parameters()}
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=3)
        result = run_campaign(model, dataset, scenario, collect_outputs=False)
        assert result.state.inferences == len(dataset)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(bits_before[name], float_to_bits(param.data))

    def test_rates_sum_to_one(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", random_seed=4)
        result = run_campaign(model, dataset, scenario, collect_outputs=False)
        kpis = result.results["corrupted"]
        assert kpis.masked_rate + kpis.sde_rate + kpis.due_rate == pytest.approx(1.0)
        assert kpis.golden_top1_accuracy >= 0.9
        assert sum(result.state.outcomes.values()) == kpis.num_inferences

    def test_neuron_campaign_applies_one_fault_per_inference(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="neurons", random_seed=6)
        result = run_campaign(model, dataset, scenario, collect_outputs=False)
        assert result.state.groups == len(dataset)
        assert result.state.applied_faults == len(dataset)
        # Shared injector log stays empty: records are collected per group.
        assert result.wrapper.fault_injection.applied_faults == []

    def test_streams_written_and_readable(self, fitted_model_and_dataset, tmp_path):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", max_faults_per_image=2, random_seed=7, model_name="stream"
        )
        result = run_campaign(model, dataset, scenario, output_dir=tmp_path, collect_outputs=False)
        for key in ("meta", "faults", "applied_faults", "golden_csv", "corrupted_csv", "kpis"):
            assert key in result.output_files

        writer = CampaignResultWriter(tmp_path, campaign_name="stream")
        corrupted_rows = writer.read_classification_csv("corrupted")
        golden_rows = writer.read_classification_csv("golden")
        assert len(corrupted_rows) == len(golden_rows) == len(dataset)
        positions = json.loads(corrupted_rows[0]["fault_positions"])
        assert len(positions) == 2
        assert {"layer", "bit_position", "original_value", "corrupted_value"} <= set(positions[0])

        applied = json.loads((tmp_path / "stream_applied_faults.json").read_text())
        assert len(applied) == 2 * len(dataset)
        kpis = json.loads((tmp_path / "stream_summary_kpis.json").read_text())
        assert kpis["corrupted"]["num_inferences"] == len(dataset)

    @pytest.mark.parametrize("policy,expected_groups", [("per_batch", 6), ("per_epoch", 2)])
    def test_batch_and_epoch_policies(self, fitted_model_and_dataset, policy, expected_groups):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights",
            inj_policy=policy,
            batch_size=4,
            num_runs=2,
            random_seed=9,
        )
        result = run_campaign(model, dataset, scenario, collect_outputs=False)
        assert result.state.inferences == 2 * len(dataset)
        assert result.state.groups == expected_groups

    def test_per_image_forces_batch_size_one(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", batch_size=4, random_seed=10)
        result = run_campaign(model, dataset, scenario, collect_outputs=False)
        assert result.core.scenario.batch_size == 1
        assert result.core.scenario.dataset_size == len(dataset)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(lenet5(seed=0), [], default_scenario())

    def test_summary_as_dict_round_trips_json(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        result = run_campaign(
            model, dataset, default_scenario(injection_target="weights", random_seed=11),
            collect_outputs=False,
        )
        blob = json.dumps(result.summary)
        assert json.loads(blob)["corrupted"] == result.results["corrupted"].as_dict()
