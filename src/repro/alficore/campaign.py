"""Task-pluggable clone-free campaign core with sharded parallel execution.

The campaign engine is split into three layers:

* :class:`CampaignCore` owns everything that is identical for every workload:
  the golden/faulty lock-step loop over the clone-free fault group sessions
  (:meth:`~repro.alficore.wrapper.ptfiwrap.get_fault_group_iter`), session
  handling for the primary and the optional hardened ("resil") model lane,
  attach-once monitor caching (:class:`~repro.alficore.monitoring.MonitorCache`)
  and the streamed-record plumbing.  The core never interprets model outputs.
* :class:`CampaignTask` adapters interpret outputs per workload.
  :class:`ClassificationTask` classifies each inference masked / SDE / DUE
  against its golden top-1 and streams CSV rows;  :class:`DetectionTask`
  collects per-image predictions for IVMOD / mAP evaluation and streams
  detection JSON records.  Both keep a picklable aggregate ``state`` so shard
  workers can ship partial results back to the parent process.
* :class:`ShardedCampaignExecutor` partitions a campaign into contiguous
  ``(epoch, fault-group, dataset-index)`` shards and runs them through the
  supervised scheduler in :mod:`repro.alficore.resilience` (or sequentially
  in-process for ``workers=1``): failed, killed or hung shards are re-queued
  by their deterministic step range with capped exponential backoff, shard
  outputs land via atomic directory renames, and a crash-safe run manifest
  makes interrupted campaigns resumable.  Per-shard result files are merged
  deterministically — the merged output is byte-identical to a
  single-process run of the same seed, because every fault corruption is
  pre-drawn in the fault matrix and the loader's epoch permutations depend
  only on ``(seed, epoch)``.

Campaigns are defined and run through :func:`repro.experiments.run`, which
assembles a :class:`CampaignCore` with the task adapter of the spec's task
and hands it to the selected execution backend.
"""

from __future__ import annotations

import copy
import os
import pickle
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.alficore.digests import bytes_digest, model_fingerprint
from repro.alficore.goldencache import GoldenCache
from repro.alficore.monitoring import MonitorCache, MonitorResult
from repro.alficore.policies import InjectionPolicy
from repro.alficore.resilience import (
    ExecutionPolicy,
    RunManifest,
    ShardSupervisor,
    atomic_write_pickle,
)
from repro.alficore.results import (
    CampaignResultWriter,
    ClassificationRecord,
    DetectionRecord,
    merge_csv_files,
    merge_json_array_files,
)
from repro.alficore.scenario import ScenarioConfig, default_scenario
from repro.alficore.wrapper import ptfiwrap
from repro.data.wrapper import AlfiDataLoaderWrapper, ImageRecord
from repro.eval.classification import top_k_predictions
from repro.eval.sdc import classify_classification_outcome
from repro.nn.forward_plan import ActivationArena, ForwardPlan
from repro.nn.module import Module
from repro.pytorchfi.errormodels import ErrorModel


def normalize_campaign_scenario(scenario: ScenarioConfig | None, dataset) -> ScenarioConfig:
    """Align a scenario with the dataset and the per-image batch convention.

    ``dataset_size`` is matched to the dataset, and ``per_image`` campaigns
    run with ``batch_size=1`` (the paper's convention: one fault group per
    image).
    """
    scenario = scenario if scenario is not None else default_scenario()
    overrides: dict = {}
    if scenario.dataset_size != len(dataset):
        overrides["dataset_size"] = len(dataset)
    if scenario.inj_policy == "per_image" and scenario.batch_size != 1:
        overrides["batch_size"] = 1
    return scenario.copy(**overrides) if overrides else scenario


@dataclass
class StepContext:
    """Everything one lock-step golden/faulty step hands to the task."""

    batch: list[ImageRecord]
    epoch: int
    step: int
    group_index: int
    golden: object
    corrupted: object
    applied: list[dict]
    monitor: MonitorResult
    collect_applied: bool
    resil_golden: object | None = None
    resil: object | None = None


class CampaignTask:
    """Per-batch evaluation plug-in for :class:`CampaignCore`.

    A task interprets model outputs for one workload: it opens the workload's
    record streams in :meth:`begin`, folds every :class:`StepContext` into a
    picklable aggregate ``state`` in :meth:`consume` (streaming per-inference
    records as they are produced), and closes the streams in :meth:`end`.
    ``state`` objects of shards are combined with :meth:`merge_states` in
    shard order, which must reproduce the state of an unsharded run.
    """

    name = "task"
    # Tasks whose ``infer`` is exactly ``finish(model(images))`` may be run
    # through a :class:`~repro.nn.forward_plan.ForwardPlan` (prefix-reuse
    # suffix-only forwards).  Override with ``False`` when ``infer`` does
    # anything beyond that contract.
    plan_compatible = True

    def fresh(self) -> "CampaignTask":
        """Return an unstarted copy for a shard worker (configuration only)."""
        clone = copy.deepcopy(self)
        clone.reset()
        return clone

    def reset(self) -> None:
        """Drop accumulated state (start of a new run)."""
        raise NotImplementedError

    def begin(self, writer: CampaignResultWriter | None, resil: bool = False) -> dict[str, str]:
        """Open record streams; return ``{tag: path}`` of the stream files."""
        return {}

    def finish(self, output):
        """Convert a raw model output into the task's working form (idempotent)."""
        return output

    def infer(self, model: Module, images: np.ndarray, batch: list[ImageRecord]):
        """Run one forward pass (identical for the golden and faulty lanes)."""
        return self.finish(model(images))

    def consume(self, ctx: StepContext) -> None:
        """Fold one step's outputs into the aggregate state and streams."""
        raise NotImplementedError

    def end(self) -> None:
        """Close the record streams opened by :meth:`begin`."""

    @staticmethod
    def merge_states(states: list):
        """Combine shard states (in shard order) into one campaign state."""
        raise NotImplementedError


def _close_streams(streams: dict) -> None:
    for stream in streams.values():
        stream.close()


# --------------------------------------------------------------------------- #
# classification task
# --------------------------------------------------------------------------- #
@dataclass
class ClassificationState:
    """Picklable aggregates of a (possibly sharded) classification campaign."""

    inferences: int = 0
    groups: int = 0
    applied_faults: int = 0
    golden_top1_hits: int = 0
    golden_top5_hits: int = 0
    corrupted_top1_hits: int = 0
    outcomes: Counter = field(default_factory=Counter)
    # Buffers below are only filled with ``collect_outputs=True`` (the
    # classification task's logit-based evaluation and ``extras`` need them).
    golden_logits: list = field(default_factory=list)
    corrupted_logits: list = field(default_factory=list)
    resil_golden_logits: list = field(default_factory=list)
    resil_logits: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    due_flags: list = field(default_factory=list)
    applied_log: list = field(default_factory=list)


class ClassificationTask(CampaignTask):
    """Masked / SDE / DUE classification of each inference vs its golden run.

    Args:
        collect_outputs: additionally buffer raw logits, labels, DUE flags
            and the applied-fault log in ``state`` for the logit-based
            evaluation; off, a run keeps O(batch) memory and reports its
            KPIs from the aggregate counters.
    """

    name = "classification"

    def __init__(self, collect_outputs: bool = False):
        self.collect_outputs = collect_outputs
        self.state = ClassificationState()
        self._streams: dict = {}

    def reset(self) -> None:
        self.state = ClassificationState()
        self._streams = {}

    def begin(self, writer: CampaignResultWriter | None, resil: bool = False) -> dict[str, str]:
        self._streams = {}
        if writer is None:
            return {}
        self._streams["golden_csv"] = writer.stream_classification("golden")
        self._streams["corrupted_csv"] = writer.stream_classification("corrupted")
        if resil:
            self._streams["resil_csv"] = writer.stream_classification("resil")
        self._streams["applied_faults"] = writer.stream_applied_faults()
        return {tag: str(stream.path) for tag, stream in self._streams.items()}

    def finish(self, output) -> np.ndarray:
        return np.asarray(output)

    def consume(self, ctx: StepContext) -> None:
        state = self.state
        golden_out = np.asarray(ctx.golden)
        corrupted_out = np.asarray(ctx.corrupted)
        if ctx.collect_applied:
            state.groups += 1
            state.applied_faults += len(ctx.applied)
            if self.collect_outputs:
                state.applied_log.extend(ctx.applied)
            stream = self._streams.get("applied_faults")
            if stream is not None:
                for entry in ctx.applied:
                    stream.write(entry)

        golden_classes, golden_probs = top_k_predictions(golden_out, k=5)
        corrupted_classes, corrupted_probs = top_k_predictions(corrupted_out, k=5)
        for i, record in enumerate(ctx.batch):
            label = int(record.target)
            # Monitor events are batch-scoped; per-image output NaN/Inf adds
            # image resolution on top (for batch_size=1 they coincide).
            nan_detected = ctx.monitor.nan_detected or bool(np.isnan(corrupted_out[i]).any())
            inf_detected = ctx.monitor.inf_detected or bool(np.isinf(corrupted_out[i]).any())
            outcome = classify_classification_outcome(
                int(golden_classes[i, 0]),
                int(corrupted_classes[i, 0]),
                nan_detected or inf_detected,
            )
            state.inferences += 1
            state.outcomes[outcome] += 1
            state.golden_top1_hits += int(golden_classes[i, 0] == label)
            state.golden_top5_hits += int(label in golden_classes[i])
            state.corrupted_top1_hits += int(corrupted_classes[i, 0] == label)
            if self.collect_outputs:
                state.golden_logits.append(golden_out[i])
                state.corrupted_logits.append(corrupted_out[i])
                state.labels.append(label)
                state.due_flags.append(bool(nan_detected or inf_detected))
            self._write_row(
                "golden_csv", record, label, golden_classes[i], golden_probs[i], [], False, False, "golden"
            )
            self._write_row(
                "corrupted_csv", record, label, corrupted_classes[i], corrupted_probs[i],
                ctx.applied, nan_detected, inf_detected, "corrupted",
            )
        if ctx.resil is not None:
            self._consume_resil(ctx)

    def _consume_resil(self, ctx: StepContext) -> None:
        state = self.state
        resil_out = np.asarray(ctx.resil)
        resil_golden_out = np.asarray(ctx.resil_golden)
        resil_classes, resil_probs = top_k_predictions(resil_out, k=5)
        for i, record in enumerate(ctx.batch):
            label = int(record.target)
            resil_nan = bool(np.isnan(resil_out[i]).any())
            resil_inf = bool(np.isinf(resil_out[i]).any())
            if self.collect_outputs:
                state.resil_golden_logits.append(resil_golden_out[i])
                state.resil_logits.append(resil_out[i])
            self._write_row(
                "resil_csv", record, label, resil_classes[i], resil_probs[i],
                ctx.applied, resil_nan, resil_inf, "resil",
            )

    def _write_row(
        self,
        tag: str,
        record: ImageRecord,
        label: int,
        classes: np.ndarray,
        probabilities: np.ndarray,
        applied: list[dict],
        nan_detected: bool,
        inf_detected: bool,
        model_tag: str,
    ) -> None:
        stream = self._streams.get(tag)
        if stream is None:
            return
        stream.write(
            ClassificationRecord(
                image_id=record.image_id,
                file_name=record.file_name,
                ground_truth=label,
                top5_classes=[int(c) for c in classes],
                top5_probabilities=[float(p) for p in probabilities],
                fault_positions=applied,
                nan_detected=nan_detected,
                inf_detected=inf_detected,
                model_tag=model_tag,
            )
        )

    def end(self) -> None:
        _close_streams(self._streams)
        self._streams = {}

    @staticmethod
    def merge_states(states: list) -> ClassificationState:
        merged = ClassificationState()
        for state in states:
            merged.inferences += state.inferences
            merged.groups += state.groups
            merged.applied_faults += state.applied_faults
            merged.golden_top1_hits += state.golden_top1_hits
            merged.golden_top5_hits += state.golden_top5_hits
            merged.corrupted_top1_hits += state.corrupted_top1_hits
            merged.outcomes.update(state.outcomes)
            merged.golden_logits.extend(state.golden_logits)
            merged.corrupted_logits.extend(state.corrupted_logits)
            merged.resil_golden_logits.extend(state.resil_golden_logits)
            merged.resil_logits.extend(state.resil_logits)
            merged.labels.extend(state.labels)
            merged.due_flags.extend(state.due_flags)
            merged.applied_log.extend(state.applied_log)
        return merged


# --------------------------------------------------------------------------- #
# detection task
# --------------------------------------------------------------------------- #
@dataclass
class DetectionState:
    """Picklable aggregates of a (possibly sharded) detection campaign.

    Per-image *predictions* (small box/score/label dicts) are retained for
    the campaign-level IVMOD / mAP evaluation; the much larger per-image
    result records are streamed to disk instead of being buffered.
    """

    inferences: int = 0
    groups: int = 0
    applied_faults: int = 0
    golden_predictions: list = field(default_factory=list)
    corrupted_predictions: list = field(default_factory=list)
    resil_golden_predictions: list = field(default_factory=list)
    resil_predictions: list = field(default_factory=list)
    targets: list = field(default_factory=list)
    due_flags: list = field(default_factory=list)
    applied_log: list = field(default_factory=list)


class DetectionTask(CampaignTask):
    """IVMOD / mAP bookkeeping for object-detection campaigns.

    Each step's detections are converted to prediction dicts (golden,
    corrupted and optionally the hardened "resil" lane), NaN and Inf are
    attributed separately per event type via ``Detection.has_nan()`` /
    ``has_inf()`` plus the layer monitors, and per-image
    :class:`DetectionRecord` JSON entries are streamed as they are produced.
    """

    name = "detection"

    def __init__(self, collect_applied_log: bool = False):
        self.collect_applied_log = collect_applied_log
        self.state = DetectionState()
        self._streams: dict = {}

    def reset(self) -> None:
        self.state = DetectionState()
        self._streams = {}

    def begin(self, writer: CampaignResultWriter | None, resil: bool = False) -> dict[str, str]:
        self._streams = {}
        if writer is None:
            return {}
        self._streams["golden_json"] = writer.stream_detection("golden")
        self._streams["corrupted_json"] = writer.stream_detection("corrupted")
        if resil:
            self._streams["resil_json"] = writer.stream_detection("resil")
        self._streams["applied_faults"] = writer.stream_applied_faults()
        return {tag: str(stream.path) for tag, stream in self._streams.items()}

    def consume(self, ctx: StepContext) -> None:
        state = self.state
        if ctx.collect_applied:
            state.groups += 1
            state.applied_faults += len(ctx.applied)
            if self.collect_applied_log:
                state.applied_log.extend(ctx.applied)
            stream = self._streams.get("applied_faults")
            if stream is not None:
                for entry in ctx.applied:
                    stream.write(entry)

        for i, record in enumerate(ctx.batch):
            golden_detection = ctx.golden[i]
            corrupted_detection = ctx.corrupted[i]
            target = record.target
            nan_detected = ctx.monitor.nan_detected or corrupted_detection.has_nan()
            inf_detected = ctx.monitor.inf_detected or corrupted_detection.has_inf()

            state.inferences += 1
            state.golden_predictions.append(golden_detection.as_dict())
            state.corrupted_predictions.append(corrupted_detection.as_dict())
            state.targets.append(
                {
                    "boxes": np.asarray(target["boxes"], dtype=np.float32),
                    "labels": np.asarray(target["labels"], dtype=np.int64),
                    "image_id": record.image_id,
                    "file_name": record.file_name,
                }
            )
            state.due_flags.append(bool(nan_detected or inf_detected))

            self._write_record("golden_json", record, golden_detection, [], False, False, "golden")
            self._write_record(
                "corrupted_json", record, corrupted_detection,
                ctx.applied, nan_detected, inf_detected, "corrupted",
            )
            if ctx.resil is not None:
                # Judge the hardened detector against its own fault-free run.
                resil_detection = ctx.resil[i]
                state.resil_golden_predictions.append(ctx.resil_golden[i].as_dict())
                state.resil_predictions.append(resil_detection.as_dict())
                self._write_record(
                    "resil_json", record, resil_detection, ctx.applied,
                    resil_detection.has_nan(), resil_detection.has_inf(), "resil",
                )

    def _write_record(
        self,
        tag: str,
        record: ImageRecord,
        detection,
        applied: list[dict],
        nan_detected: bool,
        inf_detected: bool,
        model_tag: str,
    ) -> None:
        stream = self._streams.get(tag)
        if stream is None:
            return
        as_dict = detection.as_dict()
        stream.write(
            DetectionRecord(
                image_id=record.image_id,
                file_name=record.file_name,
                boxes=as_dict["boxes"],
                scores=as_dict["scores"],
                labels=as_dict["labels"],
                fault_positions=applied,
                nan_detected=bool(nan_detected),
                inf_detected=bool(inf_detected),
                model_tag=model_tag,
            )
        )

    def end(self) -> None:
        _close_streams(self._streams)
        self._streams = {}

    @staticmethod
    def merge_states(states: list) -> DetectionState:
        merged = DetectionState()
        for state in states:
            merged.inferences += state.inferences
            merged.groups += state.groups
            merged.applied_faults += state.applied_faults
            merged.golden_predictions.extend(state.golden_predictions)
            merged.corrupted_predictions.extend(state.corrupted_predictions)
            merged.resil_golden_predictions.extend(state.resil_golden_predictions)
            merged.resil_predictions.extend(state.resil_predictions)
            merged.targets.extend(state.targets)
            merged.due_flags.extend(state.due_flags)
            merged.applied_log.extend(state.applied_log)
        return merged


# --------------------------------------------------------------------------- #
# the task-agnostic core
# --------------------------------------------------------------------------- #
def _epoch_segments(start: int, stop: int, num_batches: int) -> Iterator[tuple[int, int, int]]:
    """Split a global step range into ``(epoch, first_batch, stop_batch)`` runs."""
    step = start
    while step < stop:
        epoch, batch = divmod(step, num_batches)
        segment_stop = min(stop, (epoch + 1) * num_batches)
        yield epoch, batch, batch + (segment_stop - step)
        step = segment_stop


class CampaignCore:
    """Task-agnostic campaign loop over the clone-free fault group sessions.

    The core owns the mechanics shared by every workload — dataset iteration,
    golden/faulty lock-step inference, session handling for the primary and
    the optional hardened model lane, attach-once monitor caching and stream
    lifecycle — and delegates all output interpretation to a
    :class:`CampaignTask`.

    Args:
        model: the fault-free baseline model (restored bit-exactly after
            every weight fault group).
        dataset: map-style dataset yielding ``(image, label_or_target)``.
        task: the workload adapter receiving every step's outputs.
        scenario: campaign configuration.  ``dataset_size`` is aligned with
            the dataset, and ``per_image`` campaigns run with ``batch_size=1``
            (the paper's convention: one fault group per image).
        writer: optional result writer; when given, per-inference records and
            the applied-fault log are streamed as they are produced.
        error_model: overrides the error model derived from the scenario.
        input_shape: per-sample input shape used for model profiling.
        dl_shuffle: shuffle the dataset between epochs (seeded).
        resil_model: optional hardened variant evaluated under the same
            faults (its own fault-free pass is the resil baseline).
        wrapper: optional pre-built ``ptfiwrap`` (e.g. with a reloaded fault
            file); built from the scenario otherwise.
        resil_wrapper: optional pre-built wrapper for the hardened model.
        prefix_reuse: run the faulty (and resil-faulty) lane as a suffix-only
            forward from the first faulted layer, reusing the golden pass's
            checkpointed prefix activations (bit-identical to a full faulty
            forward).  Disabled automatically for models whose forward does
            not linearise into a :class:`~repro.nn.forward_plan.ForwardPlan`.
        golden_cache: optional epoch-invariant :class:`GoldenCache`; golden
            (and resil-golden) passes are computed once per batch of images
            instead of once per epoch, and their boundary checkpoints are
            reused by later epochs' suffix-only faulty lanes.
    """

    def __init__(
        self,
        model: Module,
        dataset,
        task: CampaignTask,
        scenario: ScenarioConfig | None = None,
        writer: CampaignResultWriter | None = None,
        error_model: ErrorModel | None = None,
        input_shape: tuple[int, ...] = (3, 32, 32),
        dl_shuffle: bool = False,
        resil_model: Module | None = None,
        wrapper: ptfiwrap | None = None,
        resil_wrapper: ptfiwrap | None = None,
        prefix_reuse: bool = True,
        golden_cache: GoldenCache | None = None,
    ):
        if dataset is None or len(dataset) == 0:
            raise ValueError("a non-empty dataset is required to run a campaign")
        self.model = model.eval()
        self.dataset = dataset
        self.task = task
        self.scenario = normalize_campaign_scenario(scenario, dataset)
        self.writer = writer
        self.input_shape = tuple(input_shape)
        self.dl_shuffle = dl_shuffle
        self._error_model = error_model
        self.wrapper = (
            wrapper
            if wrapper is not None
            else ptfiwrap(model, scenario=self.scenario, input_shape=self.input_shape)
        )
        self.resil_model = resil_model.eval() if resil_model is not None else None
        if self.resil_model is not None and resil_wrapper is None:
            resil_wrapper = ptfiwrap(
                self.resil_model,
                scenario=self.scenario,
                input_shape=self.input_shape,
                fault_matrix=self.wrapper.get_fault_matrix(),
            )
        self.resil_wrapper = resil_wrapper
        self._monitors = MonitorCache()
        self.prefix_reuse = prefix_reuse
        if (
            golden_cache is not None
            and self.scenario.num_runs <= 1
            and golden_cache.spill_dir is None
        ):
            # A single-epoch campaign visits every batch exactly once, so an
            # in-memory epoch-invariant cache can never hit — recording all
            # boundary checkpoints for it would be pure overhead.  A spill
            # directory keeps the cache on (entries are reused *across*
            # campaign runs and shards).
            golden_cache = None
        self.golden_cache = golden_cache
        # Forward plans and recording arenas, lazily built per model object
        # (``None`` marks a model whose forward could not be linearised).
        self._plans: dict[int, ForwardPlan | None] = {}
        self._arenas: dict[int, ActivationArena] = {}
        self._fingerprints: dict[int, str] = {}

    # ------------------------------------------------------------------ #
    # campaign geometry
    # ------------------------------------------------------------------ #
    def make_loader(self) -> AlfiDataLoaderWrapper:
        """Build the metadata-enriched loader of this campaign."""
        return AlfiDataLoaderWrapper(
            self.dataset,
            batch_size=self.scenario.batch_size,
            shuffle=self.dl_shuffle,
            seed=self.scenario.random_seed,
        )

    @property
    def num_batches(self) -> int:
        """Batches per epoch."""
        return (len(self.dataset) + self.scenario.batch_size - 1) // self.scenario.batch_size

    @property
    def total_steps(self) -> int:
        """Total batch steps of the whole campaign (all epochs)."""
        return self.scenario.num_runs * self.num_batches

    def _group_range(self, start: int, stop: int, policy: InjectionPolicy) -> tuple[int, int]:
        """Fault-group range consumed by the step range ``[start, stop)``."""
        if start >= stop:
            return 0, 0
        if policy is InjectionPolicy.PER_EPOCH:
            return start // self.num_batches, (stop - 1) // self.num_batches + 1
        return start, stop

    # ------------------------------------------------------------------ #
    # campaign execution
    # ------------------------------------------------------------------ #
    def run(self, start: int = 0, stop: int | None = None) -> dict[str, str]:
        """Execute the steps ``[start, stop)`` of the campaign (all by default).

        Results accumulate in ``self.task.state``; the returned dictionary
        maps stream tags to the record files written (empty without writer).
        """
        total = self.total_steps
        stop = total if stop is None else min(stop, total)
        # Weights may have been mutated between runs of the same core; the
        # cache fingerprint must reflect the state of this run.
        self._fingerprints = {}
        if not 0 <= start <= total:
            raise ValueError(f"step range start {start} outside campaign of {total} steps")
        policy = InjectionPolicy.from_string(self.scenario.inj_policy)
        loader = self.make_loader()
        group_start, group_stop = self._group_range(start, stop, policy)
        groups = self.wrapper.get_fault_group_iter(
            self._error_model, start=group_start, stop=group_stop
        )
        resil_groups = None
        if self.resil_wrapper is not None:
            resil_groups = self.resil_wrapper.get_fault_group_iter(
                self._error_model, start=group_start, stop=group_stop
            )
        stream_paths = self.task.begin(self.writer, resil=self.resil_model is not None)
        try:
            for epoch, first_batch, stop_batch in _epoch_segments(start, stop, self.num_batches):
                group = resil_group = None
                group_index = -1
                if policy is InjectionPolicy.PER_EPOCH:
                    group = self._next_group(groups)
                    if resil_groups is not None:
                        resil_group = self._next_group(resil_groups)
                    group_index = epoch
                for offset, batch in enumerate(loader.iter_batches(epoch, first_batch, stop_batch)):
                    step = epoch * self.num_batches + first_batch + offset
                    if policy is not InjectionPolicy.PER_EPOCH:
                        group = self._next_group(groups)
                        if resil_groups is not None:
                            resil_group = self._next_group(resil_groups)
                        group_index = step
                        collect_applied = True
                    else:
                        # The applied-fault log of an epoch group is collected
                        # exactly once, on the epoch's first (global) batch.
                        collect_applied = first_batch + offset == 0
                    self._run_step(
                        batch, epoch, step, group, group_index, collect_applied, resil_group
                    )
        finally:
            self.task.end()
            groups.close()
            if resil_groups is not None:
                resil_groups.close()
            self._monitors.detach_all()
        return stream_paths

    @staticmethod
    def _next_group(groups: Iterator):
        try:
            return next(groups)
        except StopIteration:
            raise RuntimeError(
                "fault matrix exhausted before the campaign finished; the loaded "
                "fault file provides fewer fault groups than the scenario needs"
            ) from None

    # ------------------------------------------------------------------ #
    # prefix-reuse plumbing
    # ------------------------------------------------------------------ #
    def _plan_for(self, model: Module, images: np.ndarray) -> ForwardPlan | None:
        """Return the (lazily traced) forward plan of a model, or ``None``.

        Must be called outside any active fault group: the trace pass runs
        the model once, and active faults would corrupt it (and pollute the
        group's applied-fault log).
        """
        if not self.prefix_reuse or not getattr(self.task, "plan_compatible", False):
            return None
        key = id(model)
        if key not in self._plans:
            try:
                plan = ForwardPlan.trace(model, images)
            except Exception:
                plan = None
            self._plans[key] = plan if plan is not None and plan.valid else None
        return self._plans[key]

    def _arena_for(self, model: Module) -> ActivationArena:
        key = id(model)
        if key not in self._arenas:
            self._arenas[key] = ActivationArena()
        return self._arenas[key]

    def _model_fingerprint(self, model: Module) -> str:
        """Digest of the model's weights.

        Part of every golden-cache key: spillover directories outlive one
        campaign (shards of later runs reuse them), so entries recorded for
        different weights must never match.  Computed while the model is
        unpatched (outside any fault group).  Input-content mismatches are
        covered separately by the per-batch image digest in the key.
        """
        key = id(model)
        fingerprint = self._fingerprints.get(key)
        if fingerprint is None:
            fingerprint = model_fingerprint(model)
            self._fingerprints[key] = fingerprint
        return fingerprint

    @staticmethod
    def _resume_index(
        golden_plan: ForwardPlan | None,
        faulty_plan: ForwardPlan | None,
        wrapper: ptfiwrap,
        group,
    ) -> int | None:
        """Plan segment to resume the faulty lane at (``None`` = full forward).

        The golden and the faulty model (a bit-identical clone for neuron
        campaigns) must segment identically, since the golden plan's
        checkpoints are fed into the faulty plan's suffix.  The resume point
        is the earliest *executed* segment over all of the group's faulted
        layers — layer indices follow registration order, which may differ
        from execution order, so mapping only ``first_faulted_layer`` could
        skip a patched layer that runs earlier in the chain.
        """
        if golden_plan is None or faulty_plan is None:
            return None
        if faulty_plan is not golden_plan and faulty_plan.segment_names != golden_plan.segment_names:
            return None
        layers = getattr(group, "faulted_layers", None)
        if layers is None:
            first = getattr(group, "first_faulted_layer", None)
            layers = [] if first is None else [first]
        if not layers:
            return None
        segments = []
        for layer in layers:
            name = wrapper.fault_injection.layers[layer].name
            index = faulty_plan.segment_for(name)
            if index is None:
                return None
            segments.append(index)
        index = min(segments)
        if index <= 0:
            return None
        return index

    def _golden_pass(
        self,
        model: Module,
        plan: ForwardPlan | None,
        images: np.ndarray,
        batch: list[ImageRecord],
        cache_key: tuple,
        resume_at: int | None,
        with_monitor: bool,
    ):
        """Run (or fetch) one lane's golden pass.

        Returns ``(raw_output, boundary, marks, events)`` where ``boundary``
        is the checkpointed activation for ``resume_at`` (``None`` when not
        available), and ``marks``/``events`` carry the golden monitor state
        used to inherit prefix NaN/Inf events (``None`` without monitoring).
        """
        cache = self.golden_cache
        if cache is not None:
            entry = cache.get(cache_key, batch_shape=images.shape)
            if entry is not None:
                boundary = None
                if resume_at is not None:
                    boundary = entry.boundaries.get(resume_at)
                    if boundary is None and plan is not None:
                        # Epoch-invariant output is cached but this epoch's
                        # fault group needs a boundary no one recorded yet:
                        # recompute the prefix only (still no full pass).
                        boundary = plan.run_prefix(images, resume_at)
                        stored = (
                            np.array(boundary, copy=True)
                            if isinstance(boundary, np.ndarray)
                            else boundary
                        )
                        cache.add_boundary(cache_key, resume_at, stored)
                return entry.output, boundary, entry.marks, entry.events
        if plan is not None:
            monitor = None
            if with_monitor:
                monitor = self._monitors.monitor_for(model)
                monitor.reset()
                monitor.enabled = True
            try:
                # With a cache every boundary is checkpointed (owned copies),
                # so any later epoch's fault group can resume anywhere; the
                # transient path records only this step's boundary into the
                # reusable arena.
                wanted = "all" if cache is not None else ([resume_at] if resume_at is not None else [])
                arena = None if cache is not None else self._arena_for(model)
                output, checkpoints, marks = plan.run_recording(
                    images, wanted, arena=arena, monitor=monitor
                )
            finally:
                if monitor is not None:
                    monitor.enabled = False
            events = monitor.collect() if monitor is not None else None
            if cache is not None:
                cache.put(
                    cache_key, output, checkpoints, marks, events, batch_shape=images.shape
                )
            boundary = checkpoints.get(resume_at) if resume_at is not None else None
            return output, boundary, marks, events
        output = self.task.infer(model, images, batch)
        if cache is not None:
            cache.put(cache_key, output, batch_shape=images.shape)
        return output, None, None, None

    def _cache_lane_key(
        self, lane: str, model: Module, cache_key: tuple, images: np.ndarray
    ) -> tuple:
        """Full golden-cache key: lane, weight fingerprint, ids, image digest.

        The per-batch content digest guards spillover reuse against a
        changed dataset whose image ids happen to collide with an earlier
        campaign's.
        """
        if self.golden_cache is None:
            return (lane,) + cache_key
        batch_digest = bytes_digest(np.ascontiguousarray(images).tobytes())
        return (lane, self._model_fingerprint(model)) + cache_key + (batch_digest,)

    @staticmethod
    def _inherit_prefix_events(
        events: MonitorResult | None,
        marks: list | None,
        resume_at: int | None,
        suffix: MonitorResult,
    ) -> MonitorResult:
        """Prepend the golden prefix's monitor events to a suffix-only result.

        A suffix-only faulty pass never executes the prefix layers, but their
        activations (hence their NaN/Inf/custom events) are bit-identical to
        the golden pass's — inheriting them reproduces the full-forward
        monitor result exactly.
        """
        if resume_at is None or events is None or marks is None:
            return suffix
        n_nan, n_inf, n_custom = marks[resume_at]
        return MonitorResult(
            nan_layers=list(events.nan_layers[:n_nan]) + suffix.nan_layers,
            inf_layers=list(events.inf_layers[:n_inf]) + suffix.inf_layers,
            custom_events=list(events.custom_events[:n_custom]) + suffix.custom_events,
        )

    def _run_step(
        self,
        batch: list[ImageRecord],
        epoch: int,
        step: int,
        group,
        group_index: int,
        collect_applied: bool,
        resil_group,
    ) -> None:
        task = self.task
        images = AlfiDataLoaderWrapper.stack_images(batch)
        cache_key = tuple(record.image_id for record in batch)

        # Plans are traced before the patch session opens (the faulty model
        # object exists, and is fault-free, outside the ``with group`` scope).
        golden_plan = self._plan_for(self.model, images)
        faulty_model = group.model
        faulty_plan = (
            golden_plan if faulty_model is self.model else self._plan_for(faulty_model, images)
        )
        resume_at = self._resume_index(golden_plan, faulty_plan, self.wrapper, group)

        # Golden pass runs before the patch is applied.  The monitor scan on
        # the golden pass is only paid when something consumes its events: a
        # suffix-only resume (prefix inheritance) or a cache recording.
        golden_raw, boundary, marks, golden_events = self._golden_pass(
            self.model,
            golden_plan,
            images,
            batch,
            self._cache_lane_key("golden", self.model, cache_key, images),
            resume_at,
            with_monitor=golden_plan is not None
            and (self.golden_cache is not None or resume_at is not None),
        )
        golden = task.finish(golden_raw)

        with group:
            monitor = self._monitors.monitor_for(group.model)
            monitor.reset()
            monitor.enabled = True
            try:
                if resume_at is not None and boundary is not None:
                    corrupted = task.finish(faulty_plan.resume(resume_at, boundary))
                else:
                    resume_at = None
                    corrupted = task.infer(group.model, images, batch)
            finally:
                monitor.enabled = False
            monitor_result = self._inherit_prefix_events(
                golden_events, marks, resume_at, monitor.collect()
            )
        applied = [fault.as_dict() for fault in group.applied_faults]
        resil_golden = resil_out = None
        if resil_group is not None:
            # The hardened model is judged against its *own* fault-free
            # baseline, so that range clamping of rare fault-free activations
            # is not misattributed to the injected fault.  Its golden pass
            # must run before the patch session opens.
            resil_plan = self._plan_for(self.resil_model, images)
            resil_faulty = resil_group.model
            resil_faulty_plan = (
                resil_plan
                if resil_faulty is self.resil_model
                else self._plan_for(resil_faulty, images)
            )
            resil_resume = self._resume_index(
                resil_plan, resil_faulty_plan, self.resil_wrapper, resil_group
            )
            resil_golden_raw, resil_boundary, _, _ = self._golden_pass(
                self.resil_model,
                resil_plan,
                images,
                batch,
                self._cache_lane_key("resil", self.resil_model, cache_key, images),
                resil_resume,
                with_monitor=False,
            )
            resil_golden = task.finish(resil_golden_raw)
            with resil_group:
                if resil_resume is not None and resil_boundary is not None:
                    resil_out = task.finish(resil_faulty_plan.resume(resil_resume, resil_boundary))
                else:
                    resil_out = task.infer(resil_group.model, images, batch)
        task.consume(
            StepContext(
                batch=batch,
                epoch=epoch,
                step=step,
                group_index=group_index,
                golden=golden,
                corrupted=corrupted,
                applied=applied,
                monitor=monitor_result,
                collect_applied=collect_applied,
                resil_golden=resil_golden,
                resil=resil_out,
            )
        )


# --------------------------------------------------------------------------- #
# sharded parallel execution
# --------------------------------------------------------------------------- #
@dataclass
class _ShardJob:
    """Self-contained, picklable description of one campaign shard."""

    index: int
    start: int
    stop: int
    model: Module
    resil_model: Module | None
    dataset: object
    task: CampaignTask
    scenario: ScenarioConfig
    error_model: ErrorModel | None
    input_shape: tuple[int, ...]
    dl_shuffle: bool
    fault_matrix: object
    shard_dir: str | None
    campaign_name: str
    prefix_reuse: bool = True
    cache_budget: int | None = None
    cache_spill_dir: str | None = None


def _execute_shard(job: _ShardJob) -> tuple[int, object, dict[str, str]]:
    """Run one shard (in a worker process or in-process) and return its state."""
    # A fresh, unstarted task copy per attempt: an in-process retry must not
    # inherit the partial state a failed attempt accumulated into job.task.
    task = job.task.fresh()
    writer = (
        CampaignResultWriter(job.shard_dir, campaign_name=job.campaign_name)
        if job.shard_dir is not None
        else None
    )
    wrapper = ptfiwrap(
        job.model,
        scenario=job.scenario,
        input_shape=job.input_shape,
        fault_matrix=job.fault_matrix,
    )
    golden_cache = (
        GoldenCache(job.cache_budget, spill_dir=job.cache_spill_dir)
        if job.cache_budget is not None
        else None
    )
    core = CampaignCore(
        job.model,
        job.dataset,
        task,
        scenario=job.scenario,
        writer=writer,
        error_model=job.error_model,
        input_shape=job.input_shape,
        dl_shuffle=job.dl_shuffle,
        resil_model=job.resil_model,
        wrapper=wrapper,
        prefix_reuse=job.prefix_reuse,
        golden_cache=golden_cache,
    )
    stream_paths = core.run(start=job.start, stop=job.stop)
    return job.index, task.state, stream_paths


class ShardedCampaignExecutor:
    """Partition a campaign into contiguous shards and run them in parallel.

    The campaign's global step sequence is split into ``num_shards``
    contiguous, balanced ranges.  Each shard re-derives its exact slice of
    the work deterministically — the seeded epoch permutations, the shared
    pre-generated fault matrix and the shard's fault-group range — runs it
    through its own :class:`CampaignCore`, and streams records into a
    per-shard directory (``<output>/shards/shard_XX``).  Afterwards the shard
    states are merged in shard order and the per-shard record files are
    concatenated byte-identically to a single-process run.

    Execution is fault tolerant: shards are dispatched through a
    :class:`~repro.alficore.resilience.ShardSupervisor`, so a worker that
    raises, hangs past the per-shard timeout or dies (e.g. is OOM-killed) is
    re-queued by its deterministic step range with capped exponential
    backoff until the retry budget of the :class:`ExecutionPolicy` is
    exhausted — at which point a structured
    :class:`~repro.alficore.resilience.ShardError` is raised.  When a writer
    is configured, each shard streams into a ``shard_XX.wip`` directory that
    is atomically renamed to ``shard_XX`` on completion, and a crash-safe
    run manifest (``<campaign>_manifest.json``) tracks completed shard
    ranges; ``policy.resume=True`` skips the recorded shards and merges
    byte-identically to an uninterrupted run.

    ``workers=1`` executes the shards sequentially in-process (no
    subprocesses, no pickling) with the same retry budget and
    ``ShardError`` semantics; ``workers>1`` uses supervised worker
    processes.

    Args:
        core: the configured campaign (model, dataset, task, scenario...).
        workers: number of worker processes (1 = in-process execution).
        num_shards: number of shards (defaults to ``workers``).
        policy: retry/timeout/backoff/resume configuration (defaults to
            :class:`~repro.alficore.resilience.ExecutionPolicy`).
    """

    SHARD_STATE_FILENAME = "shard_state.pkl"

    def __init__(
        self,
        core: CampaignCore,
        workers: int = 1,
        num_shards: int | None = None,
        policy: ExecutionPolicy | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.core = core
        self.workers = int(workers)
        num_shards = self.workers if num_shards is None else int(num_shards)
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = min(num_shards, core.total_steps)
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.policy.validate()
        #: per-shard failure history of the last run (index -> attempts)
        self.attempt_log: dict[int, list[dict]] = {}

    def shard_bounds(self) -> list[tuple[int, int]]:
        """Contiguous, balanced ``[start, stop)`` step ranges of the shards."""
        total = self.core.total_steps
        n = self.num_shards
        return [(i * total // n, (i + 1) * total // n) for i in range(n)]

    def run(self) -> tuple[object, dict[str, str]]:
        """Execute all shards and return ``(merged_state, merged_stream_paths)``.

        The merged state is also installed as ``core.task.state`` so callers
        can keep reading results from the task they configured.
        """
        core = self.core
        policy = self.policy
        if policy.resume and core.writer is None:
            raise ValueError(
                "resume=True requires a result writer: the run manifest and the "
                "per-shard record files live under the campaign output directory"
            )
        if self.num_shards <= 1 and not policy.resume:
            stream_paths = core.run()
            return core.task.state, stream_paths

        bounds = self.shard_bounds()
        manifest: RunManifest | None = None
        shards_root: Path | None = None
        scratch_dir: Path | None = None
        completed: dict[int, tuple[int, object, dict[str, str]]] = {}
        if core.writer is not None:
            shards_root = core.writer.output_dir / "shards"
            manifest_path = (
                core.writer.output_dir / f"{core.writer.campaign_name}_manifest.json"
            )
            config = self._manifest_config(bounds)
            existing = RunManifest.load(manifest_path) if policy.resume else None
            if existing is not None:
                if not existing.matches(config):
                    raise ValueError(
                        f"cannot resume from {manifest_path}: it records a different "
                        "campaign configuration (model, scenario or shard geometry "
                        "changed); delete the manifest or re-run without resume"
                    )
                manifest = existing
                completed = self._load_completed(manifest, shards_root)
            else:
                manifest = RunManifest.fresh(manifest_path, config)
            self._clean_stale_wip(shards_root)
            scratch_dir = core.writer.output_dir / ".supervisor"

        cache = core.golden_cache
        cache_budget = cache.byte_budget if cache is not None else None
        cache_spill_dir = None
        if cache is not None:
            # Shards are separate processes: a shared spillover directory is
            # what lets them reuse each other's golden passes.
            if cache.spill_dir is not None:
                cache_spill_dir = str(cache.spill_dir)
            elif core.writer is not None:
                cache_spill_dir = str(core.writer.output_dir / "golden_cache")
        jobs = []
        for index, (start, stop) in enumerate(bounds):
            if index in completed:
                continue
            shard_dir = None
            if shards_root is not None:
                # Shards stream into a .wip directory that the finalizer
                # renames atomically on completion: a half-written shard is
                # never mistaken for a finished one.
                shard_dir = str(shards_root / f"shard_{index:02d}.wip")
            jobs.append(
                _ShardJob(
                    index=index,
                    start=start,
                    stop=stop,
                    model=core.model,
                    resil_model=core.resil_model,
                    dataset=core.dataset,
                    task=core.task.fresh(),
                    scenario=core.scenario,
                    error_model=core._error_model,
                    input_shape=core.input_shape,
                    dl_shuffle=core.dl_shuffle,
                    fault_matrix=core.wrapper.get_fault_matrix(),
                    shard_dir=shard_dir,
                    campaign_name=core.writer.campaign_name if core.writer is not None else "campaign",
                    prefix_reuse=core.prefix_reuse,
                    cache_budget=cache_budget,
                    cache_spill_dir=cache_spill_dir,
                )
            )

        results: dict[int, tuple[int, object, dict[str, str]]] = dict(completed)
        if jobs:
            supervisor = ShardSupervisor(
                jobs,
                _execute_shard,
                workers=self.workers,
                policy=policy,
                scratch_dir=scratch_dir,
                prepare=self._prepare_attempt,
                finalize=self._make_finalizer(manifest, shards_root),
            )
            run_results = supervisor.run() if self.workers > 1 else supervisor.run_serial()
            self.attempt_log = supervisor.attempt_log
            for index, state, paths in run_results:
                results[index] = (index, state, paths)

        ordered = [results[index] for index in sorted(results)]
        merged_state = type(core.task).merge_states([state for _, state, _ in ordered])
        core.task.state = merged_state
        merged_paths: dict[str, str] = {}
        if core.writer is not None:
            merged_paths = self._merge_stream_files([paths for _, _, paths in ordered])
            if scratch_dir is not None:
                shutil.rmtree(scratch_dir, ignore_errors=True)
        return merged_state, merged_paths

    # ------------------------------------------------------------------ #
    # fault tolerance plumbing
    # ------------------------------------------------------------------ #
    def _manifest_config(self, bounds: list[tuple[int, int]]) -> dict:
        """Campaign configuration the manifest digest is derived from.

        Execution-policy knobs (retries, timeout, resume itself) are
        deliberately excluded: changing them between the interrupted run and
        the resume is legitimate and must not invalidate the manifest.
        """
        core = self.core
        return {
            "campaign_name": core.writer.campaign_name if core.writer is not None else "campaign",
            "task": type(core.task).__name__,
            "total_steps": core.total_steps,
            "num_shards": self.num_shards,
            "bounds": [[start, stop] for start, stop in bounds],
            "scenario": core.scenario.as_dict(),
        }

    @staticmethod
    def _prepare_attempt(job: _ShardJob, attempt: int) -> None:
        """Reset the shard's .wip directory before every (re-)attempt."""
        if job.shard_dir is None:
            return
        wip = Path(job.shard_dir)
        if wip.exists():
            shutil.rmtree(wip)
        wip.mkdir(parents=True, exist_ok=True)

    def _make_finalizer(self, manifest: RunManifest | None, shards_root: Path | None):
        """Parent-side success hook: commit the shard dir, update the manifest."""

        def finalize(
            job: _ShardJob, result: tuple[int, object, dict[str, str]]
        ) -> tuple[int, object, dict[str, str]]:
            index, state, stream_paths = result
            if job.shard_dir is None or shards_root is None:
                return result
            wip = Path(job.shard_dir)
            final = shards_root / f"shard_{index:02d}"
            files = {tag: Path(path).name for tag, path in stream_paths.items()}
            # The shard's merged-state payload travels with its record files
            # so a resumed run can rebuild the full result without re-running
            # the shard.
            atomic_write_pickle(
                wip / self.SHARD_STATE_FILENAME, {"state": state, "files": files}
            )
            if final.exists():
                shutil.rmtree(final)
            os.replace(wip, final)
            new_paths = {tag: str(final / name) for tag, name in files.items()}
            if manifest is not None:
                manifest.mark_completed(index, job.start, job.stop)
            return index, state, new_paths

        return finalize

    def _load_completed(
        self, manifest: RunManifest, shards_root: Path
    ) -> dict[int, tuple[int, object, dict[str, str]]]:
        """Rebuild results of manifest-recorded shards from their directories.

        A recorded shard whose directory or state pickle is missing or
        unreadable is demoted back to pending and simply re-run — resume
        never trusts bytes it cannot load.
        """
        completed: dict[int, tuple[int, object, dict[str, str]]] = {}
        for index in manifest.completed_indices():
            final = shards_root / f"shard_{index:02d}"
            try:
                with open(final / self.SHARD_STATE_FILENAME, "rb") as handle:
                    payload = pickle.load(handle)
                state = payload["state"]
                files = dict(payload["files"])
            except Exception:
                manifest.mark_pending(index)
                continue
            paths = {tag: str(final / name) for tag, name in files.items()}
            completed[index] = (index, state, paths)
        return completed

    @staticmethod
    def _clean_stale_wip(shards_root: Path) -> None:
        """Remove .wip leftovers of attempts killed before completion."""
        if not shards_root.exists():
            return
        for leftover in shards_root.glob("shard_*.wip"):
            shutil.rmtree(leftover, ignore_errors=True)

    def _merge_stream_files(self, shard_paths: list[dict[str, str]]) -> dict[str, str]:
        """Concatenate the shards' record files into the campaign directory."""
        merged: dict[str, str] = {}
        tags: list[str] = []
        for paths in shard_paths:
            for tag in paths:
                if tag not in tags:
                    tags.append(tag)
        for tag in tags:
            parts = [Path(paths[tag]) for paths in shard_paths if tag in paths]
            out_path = self.core.writer.output_dir / parts[0].name
            if parts[0].suffix == ".csv":
                merge_csv_files(parts, out_path)
            else:
                merge_json_array_files(parts, out_path)
            merged[tag] = str(out_path)
        return merged
