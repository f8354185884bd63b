"""Prefix-reuse faulty inference and the epoch-invariant golden cache.

The contract under test: suffix-only faulty forwards (and golden passes
served from the cache) are *bit-identical* to the plain full-forward path —
same stream-file bytes, same logits, same KPI summaries — for weight and
neuron error models, with and without a hardened resil lane, serial and
sharded.
"""

import numpy as np
import pytest

from campaign_support import OUTPUT_MODES, assert_same_campaign, run_campaign
from repro.alficore import (
    GoldenCache,
    apply_protection,
    collect_activation_bounds,
    default_scenario,
)
from repro.data import CocoLikeDetectionDataset, SyntheticClassificationDataset
from repro.models import lenet5, resnet18
from repro.models.detection import yolov3_tiny
from repro.models.pretrained import fit_classifier_head
from repro.tensor.bitops import float_to_bits


@pytest.fixture(scope="module")
def fitted_model_and_dataset():
    dataset = SyntheticClassificationDataset(num_samples=10, num_classes=10, noise=0.2, seed=4)
    model = fit_classifier_head(lenet5(seed=2), dataset, 10)
    return model, dataset


def _stream_bytes(output_files, tags):
    return {tag: open(output_files[tag], "rb").read() for tag in tags}


class TestSuffixOnlyBitExactness:
    @pytest.mark.parametrize("target", ["weights", "neurons"])
    def test_streams_byte_identical_to_full_forward(
        self, fitted_model_and_dataset, tmp_path, target
    ):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target=target, rnd_bit_range=(23, 30), random_seed=21,
            num_runs=2, model_name="reuse",
        )

        def run(sub, reuse, collect_outputs):
            return run_campaign(
                model, dataset, scenario, output_dir=tmp_path / f"{sub}_{collect_outputs}",
                prefix_reuse=reuse, collect_outputs=collect_outputs,
            )

        for collect_outputs in OUTPUT_MODES:
            full = run(f"{target}_full", False, collect_outputs)
            reused = run(f"{target}_reuse", True, collect_outputs)
            tags = ("golden_csv", "corrupted_csv", "applied_faults", "kpis")
            assert _stream_bytes(full.output_files, tags) == _stream_bytes(
                reused.output_files, tags
            )
            assert_same_campaign(full, reused)

    @pytest.mark.parametrize("target", ["weights", "neurons"])
    def test_logits_bit_identical_per_error_model(self, fitted_model_and_dataset, target):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target=target, rnd_bit_range=(23, 30), random_seed=22,
            model_name="bits", max_faults_per_image=2,
        )
        full = run_campaign(model, dataset, scenario, prefix_reuse=False)
        reused = run_campaign(model, dataset, scenario, prefix_reuse=True)
        assert_same_campaign(full, reused)

    def test_residual_model_with_atomic_blocks(self, fitted_model_and_dataset):
        _, dataset = fitted_model_and_dataset
        model = fit_classifier_head(resnet18(num_classes=10, seed=3), dataset, 10)
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=23
        )
        for collect_outputs in OUTPUT_MODES:
            full = run_campaign(
                model, dataset, scenario, prefix_reuse=False, collect_outputs=collect_outputs
            )
            reused = run_campaign(
                model, dataset, scenario, prefix_reuse=True, collect_outputs=collect_outputs
            )
            assert_same_campaign(full, reused)

    def test_weights_restored_bit_exactly_with_prefix_reuse(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        bits_before = {n: float_to_bits(p.data).copy() for n, p in model.named_parameters()}
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=24, num_runs=2
        )
        run_campaign(model, dataset, scenario, prefix_reuse=True, golden_cache=GoldenCache())
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(bits_before[name], float_to_bits(param.data))

    def test_resil_lane_bit_identical(self, fitted_model_and_dataset, tmp_path):
        model, dataset = fitted_model_and_dataset
        calibration = np.stack([dataset[i][0] for i in range(len(dataset))])
        bounds = collect_activation_bounds(model, [calibration])
        hardened = apply_protection(model, bounds, "ranger")
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(30, 30), random_seed=25,
            model_name="resil", num_runs=2,
        )

        def run(sub, reuse, cache):
            return run_campaign(
                model, dataset, scenario, resil_model=hardened, output_dir=tmp_path / sub,
                prefix_reuse=reuse, golden_cache=GoldenCache() if cache else None,
            )

        full = run("full", False, False)
        reused = run("reuse", True, True)
        assert "resil" in full.summary and "resil" in reused.summary
        assert_same_campaign(full, reused)
        assert open(full.output_files["resil_csv"], "rb").read() == open(
            reused.output_files["resil_csv"], "rb").read()

    def test_registration_order_differs_from_execution_order(self):
        # Layer indices follow registration order; here the head is
        # registered before the body but executes last.  A group faulting
        # both layers must resume from the body's (earlier) segment, or the
        # patched body would never be re-executed.
        from repro import nn
        from repro.alficore.campaign import CampaignCore, ClassificationTask

        class OutOfOrderNet(nn.Module):
            def __init__(self, seed=0):
                super().__init__()
                rng = np.random.default_rng(seed)
                self.head = nn.Linear(32, 10, rng=rng)  # registered first, runs last
                self.flatten = nn.Flatten()
                self.body = nn.Linear(3 * 32 * 32, 32, rng=rng)

            def forward(self, x):
                return self.head(self.body(self.flatten(x)))

        dataset = SyntheticClassificationDataset(num_samples=8, num_classes=10, noise=0.2, seed=9)
        model = OutOfOrderNet().eval()
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=34, num_runs=2
        )
        core = CampaignCore(model, dataset, ClassificationTask(), scenario=scenario)
        images = np.stack([dataset[i][0] for i in range(2)])
        plan = core._plan_for(model, images)
        body_segment = plan.segment_for("body")
        head_segment = plan.segment_for("head")
        assert body_segment < head_segment  # execution order, not registration

        class FakeGroup:
            first_faulted_layer = 0  # the head, by registration index
            faulted_layers = [0, 1]  # head and body

        resume = core._resume_index(plan, plan, core.wrapper, FakeGroup())
        assert resume == body_segment

        for collect_outputs in OUTPUT_MODES:
            full = run_campaign(
                model, dataset, scenario, prefix_reuse=False, collect_outputs=collect_outputs
            )
            reused = run_campaign(
                model, dataset, scenario, prefix_reuse=True, collect_outputs=collect_outputs
            )
            assert_same_campaign(full, reused)

    def test_detection_campaign_unchanged_by_prefix_reuse(self, tmp_path):
        dataset = CocoLikeDetectionDataset(num_samples=4, num_classes=5, seed=6)
        model = yolov3_tiny(num_classes=5, seed=0).eval()
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=26, model_name="det"
        )

        def run(sub, reuse):
            return run_campaign(
                model, dataset, scenario, task="detection", output_dir=tmp_path / sub,
                prefix_reuse=reuse,
            )

        full, reused = run("full", False), run("reuse", True)
        tags = ("golden_json", "corrupted_json", "applied_faults", "kpis")
        assert _stream_bytes(full.output_files, tags) == _stream_bytes(reused.output_files, tags)
        assert full.summary["corrupted"] == reused.summary["corrupted"]


class TestGoldenCache:
    def test_per_epoch_cache_on_vs_off_byte_identical_streams(
        self, fitted_model_and_dataset, tmp_path
    ):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=27,
            inj_policy="per_epoch", batch_size=4, num_runs=3, model_name="cache",
        )

        def run(sub, cache, collect_outputs):
            return run_campaign(
                model, dataset, scenario, output_dir=tmp_path / f"{sub}_{collect_outputs}",
                prefix_reuse=True, golden_cache=cache, collect_outputs=collect_outputs,
            )

        for collect_outputs in OUTPUT_MODES:
            cache = GoldenCache()
            cold = run("off", None, collect_outputs)
            warm = run("on", cache, collect_outputs)
            tags = ("golden_csv", "corrupted_csv", "applied_faults")
            assert _stream_bytes(cold.output_files, tags) == _stream_bytes(
                warm.output_files, tags
            )
            assert_same_campaign(cold, warm)
            # Epochs 2 and 3 must be served from the epoch-invariant entries.
            assert cache.hits > 0
            stats = cache.stats()
            assert stats["entries"] > 0 and stats["nbytes"] > 0

    def test_cache_reuse_across_campaigns_via_spillover(
        self, fitted_model_and_dataset, tmp_path
    ):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=28, num_runs=2
        )
        for collect_outputs in OUTPUT_MODES:
            spill = tmp_path / f"spill_{collect_outputs}"

            def run(cache):
                return run_campaign(
                    model, dataset, scenario, prefix_reuse=True, golden_cache=cache,
                    collect_outputs=collect_outputs,
                )

            baseline = run(None)
            first = run(GoldenCache(spill_dir=spill))
            # A fresh in-memory cache sharing the spill dir starts warm, as a
            # shard process reusing another shard's golden passes would.
            second_cache = GoldenCache(spill_dir=spill)
            second = run(second_cache)
            assert second_cache.hits > 0
            assert_same_campaign(baseline, first)
            assert_same_campaign(baseline, second)

    def test_stale_spillover_entries_never_match_changed_weights(
        self, fitted_model_and_dataset, tmp_path
    ):
        # Spillover directories outlive a campaign (e.g. reruns into the
        # same output dir): entries recorded for different weights must miss,
        # not be served as golden truth.
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=33, num_runs=2
        )
        mutated = model.clone()
        first_param = next(iter(mutated.parameters()))
        first_param.data[...] = first_param.data * 1.5
        for collect_outputs in OUTPUT_MODES:
            spill = tmp_path / f"spill_{collect_outputs}"
            run_campaign(
                model, dataset, scenario, prefix_reuse=True,
                golden_cache=GoldenCache(spill_dir=spill), collect_outputs=collect_outputs,
            )
            baseline = run_campaign(
                mutated, dataset, scenario, prefix_reuse=False, collect_outputs=collect_outputs
            )
            stale_cache = GoldenCache(spill_dir=spill)
            reused = run_campaign(
                mutated, dataset, scenario, prefix_reuse=True, golden_cache=stale_cache,
                collect_outputs=collect_outputs,
            )
            assert_same_campaign(baseline, reused)
            # The old entries were keyed under the old weight fingerprint.
            assert stale_cache.misses > 0

    def test_tiny_budget_evicts_but_stays_correct(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=29, num_runs=2
        )
        for collect_outputs in OUTPUT_MODES:
            tiny = GoldenCache(byte_budget=1)  # evicts everything but the newest entry
            baseline = run_campaign(
                model, dataset, scenario, prefix_reuse=True, collect_outputs=collect_outputs
            )
            constrained = run_campaign(
                model, dataset, scenario, prefix_reuse=True, golden_cache=tiny,
                collect_outputs=collect_outputs,
            )
            assert len(tiny) <= 2
            assert_same_campaign(baseline, constrained)

    def test_neuron_campaign_with_cache_matches_baseline(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="neurons", random_seed=30, num_runs=2)
        for collect_outputs in OUTPUT_MODES:
            baseline = run_campaign(
                model, dataset, scenario, prefix_reuse=False, collect_outputs=collect_outputs
            )
            cached = run_campaign(
                model, dataset, scenario, prefix_reuse=True, golden_cache=GoldenCache(),
                collect_outputs=collect_outputs,
            )
            assert_same_campaign(baseline, cached)

    def test_stale_spillover_entries_never_match_changed_dataset(
        self, fitted_model_and_dataset, tmp_path
    ):
        # Same ids, same length, different pixels: the per-batch image
        # digest in the cache key must prevent stale spillover hits.
        model, _ = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=35, num_runs=2
        )
        old_dataset = SyntheticClassificationDataset(num_samples=8, num_classes=10, noise=0.2, seed=11)
        new_dataset = SyntheticClassificationDataset(num_samples=8, num_classes=10, noise=0.2, seed=12)
        for collect_outputs in OUTPUT_MODES:
            spill = tmp_path / f"spill_{collect_outputs}"
            run_campaign(
                model, old_dataset, scenario, prefix_reuse=True,
                golden_cache=GoldenCache(spill_dir=spill), collect_outputs=collect_outputs,
            )
            baseline = run_campaign(
                model, new_dataset, scenario, prefix_reuse=False, collect_outputs=collect_outputs
            )
            reused = run_campaign(
                model, new_dataset, scenario, prefix_reuse=True,
                golden_cache=GoldenCache(spill_dir=spill), collect_outputs=collect_outputs,
            )
            assert_same_campaign(baseline, reused)

    def test_single_epoch_campaign_drops_useless_in_memory_cache(
        self, fitted_model_and_dataset, tmp_path
    ):
        # num_runs=1 visits every batch once: an in-memory cache can never
        # hit and is dropped; a spill directory keeps it (cross-run reuse).
        from repro.alficore.campaign import CampaignCore, ClassificationTask

        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", random_seed=36, num_runs=1)
        dropped = CampaignCore(
            model, dataset, ClassificationTask(), scenario=scenario, golden_cache=GoldenCache()
        )
        assert dropped.golden_cache is None
        kept = CampaignCore(
            model, dataset, ClassificationTask(), scenario=scenario,
            golden_cache=GoldenCache(spill_dir=tmp_path / "spill"),
        )
        assert kept.golden_cache is not None

    def test_cache_rejects_invalid_budget(self):
        with pytest.raises(ValueError):
            GoldenCache(byte_budget=0)
