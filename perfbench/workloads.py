"""The benchmark's workloads: one sweep spec per workload, built from a seed.

Every workload runs through :func:`repro.experiments.run_sweep` with a
campaign store, so each one also has a re-run (served from the store, 0
points executed).  The serial workload is a one-point sweep: the point runs
through the same :func:`repro.experiments.run` path as a plain campaign.

There are two workloads so that each run can measure for long enough to
average out the host's speed drift; between them they exercise every layer
the per-layer metrics name.

The seed picks the dataset images and the fault locations and values; the
model weights are fixed per workload.  Sizes: ``full`` is what the benchmark
measures, ``tiny`` is the smoke-check size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: the ``--workload`` argument.
        why: one line on why it is in the benchmark.
        build: ``build(seed, size) -> ExperimentSpec`` (with a sweep section).
    """

    name: str
    why: str
    build: Callable[[int, str], Any]


def _dataset_seed(seed: int) -> int:
    return 1_000 + seed


def _fault_seed(seed: int) -> int:
    return 2_000 + seed


def _spec(
    *,
    name: str,
    task: str,
    model: tuple[str, dict],
    dataset: tuple[str, dict],
    scenario: dict,
    sweep: dict,
    backend: dict | None = None,
    golden_cache_mb: int = 0,
) -> Any:
    from repro.alficore.scenario import default_scenario
    from repro.experiments import ExperimentSpec
    from repro.experiments.spec import BackendSpec, CachingSpec, ComponentSpec, SweepSpec

    return ExperimentSpec(
        name=name,
        task=task,
        model=ComponentSpec(model[0], dict(model[1])),
        dataset=ComponentSpec(dataset[0], dict(dataset[1])),
        scenario=default_scenario(batch_size=1, model_name=name, **scenario),
        backend=BackendSpec.from_dict(backend or {"name": "serial"}),
        caching=CachingSpec(golden_cache_mb=golden_cache_mb, prefix_reuse=True),
        sweep=SweepSpec.from_dict(sweep),
    )


# VGG-16, per-image weight bit flips (bits 0-31, Eq. 1 weighting over every
# conv/fc layer), several epochs over the same images with the golden cache
# on, result files written.  After epoch 1 every golden pass is a cache hit,
# so the faulty suffixes (ForwardPlan.resume), the per-step classification
# and the CSV writing carry the time: this is the workload that exercises
# prefix reuse and the golden cache.
def _vgg16_weights_epochs(seed: int, size: str) -> Any:
    images, epochs = (24, 4) if size == "full" else (4, 2)
    return _spec(
        name="vgg16_weights_epochs",
        task="classification",
        model=("vgg16", {"num_classes": 10, "seed": 0}),
        dataset=(
            "synthetic-classification",
            {"num_samples": images, "num_classes": 10, "noise": 0.25,
             "seed": _dataset_seed(seed)},
        ),
        scenario={
            "dataset_size": images,
            "num_runs": epochs,
            "injection_target": "weights",
            "rnd_bit_range": (0, 31),
            "weighted_layer_selection": True,
        },
        sweep={"points": [{"scenario.random_seed": _fault_seed(seed)}]},
        golden_cache_mb=64,
    )


# YOLOv3 detection campaigns swept over scenario.layer_range x
# scenario.injection_target, on the sharded backend with 2 workers (the box
# has 2 cores), into a cold campaign store and then re-run from the store.
# Detection passes are full forwards (task.infer), so prefix reuse and the
# golden cache do no work; per-campaign fixed costs (core build, fault
# matrix, fork, manifest fsync, merge) dominate; the store is written on the
# cold run and read on the re-run.  Its neuron points exercise the
# neuron-hook injection path beside the weight patches, and its Darknet
# blocks the batch-norm kernel.  It also shows a known defect: sharded
# workers oversubscribe the BLAS threads and run slower than serial.  The
# benchmark never sets BLAS thread variables, which would hide it.
def _yolov3_sweep_sharded(seed: int, size: str) -> Any:
    layers, images = (3, 8) if size == "full" else (1, 4)
    return _spec(
        name="yolov3_sweep_sharded",
        task="detection",
        model=("yolov3", {"num_classes": 5, "seed": 0}),
        dataset=(
            "synthetic-coco",
            {"num_samples": images, "num_classes": 5, "seed": _dataset_seed(seed)},
        ),
        scenario={
            "dataset_size": images,
            "num_runs": 1,
            "injection_target": "weights",
            "rnd_bit_range": (0, 31),
            "random_seed": _fault_seed(seed),
        },
        sweep={
            "axes": {
                "scenario.layer_range": [[layer, layer] for layer in range(layers)],
                "scenario.injection_target": ["weights", "neurons"],
            }
        },
        backend={"name": "sharded", "workers": 2},
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "vgg16_weights_epochs",
            "golden cache hits after epoch 1, so prefix reuse, suffixes and result writing carry the time",
            _vgg16_weights_epochs,
        ),
        Workload(
            "yolov3_sweep_sharded",
            "sharded detection sweep: full forwards, per-campaign fixed costs, store write and re-run",
            _yolov3_sweep_sharded,
        ),
    )
}


def naive_spec(spec: Any) -> Any:
    """The reference configuration of ``spec``: serial, no prefix reuse, no cache.

    Backend and caching are not part of a point's run ID, so the reference
    sweep addresses the same points and must write the same bytes.
    """
    from repro.experiments.spec import BackendSpec, CachingSpec

    naive = spec.copy()
    naive.backend = BackendSpec(name="serial")
    naive.caching = CachingSpec(golden_cache_mb=0, prefix_reuse=False)
    return naive


def pairs_per_point(spec: Any) -> int:
    """Golden+faulty inference pairs of one point (batch size 1)."""
    return spec.scenario.dataset_size * spec.scenario.num_runs
