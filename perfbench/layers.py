"""Metric definitions and the per-layer numbers derived from a trace.

Every per-layer value is an average per measured cold sweep (one benchmark
iteration), except ``models.build_ms``, which is paid once in set-up, and the
step-time percentiles, which are taken over every step of every traced
iteration.  Kernel times are self times (a conv2d's own time excludes the
im2col it calls); every other time is inclusive.  ``kernel.conv2d_gflop`` and
``kernel.conv2d_mb`` are computed from call shapes, not measured.
"""

from __future__ import annotations

import statistics
from typing import Any

from tracing import Span, self_times

#: (name, unit, better) — printed with ``--trace 0``
END_TO_END = [
    ("pairs_per_s", "pairs/s", "higher"),
    ("setup_s", "s", "lower"),
    ("cpu_ms_per_pair", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("rerun_s", "s", "lower"),
]

KERNELS = ("conv2d", "im2col", "max_pool2d", "batch_norm2d", "linear", "elementwise")

#: (name, unit, better) — printed with ``--trace 1``
PER_LAYER = (
    [(f"kernel.{k}_ms", "ms", "lower") for k in KERNELS]
    + [(f"kernel.{k}_calls", "count", "lower") for k in KERNELS]
    + [
        ("kernel.conv2d_gflop", "GFLOP-computed", "lower"),
        ("kernel.conv2d_mb", "MB-computed", "lower"),
        ("plan.golden_ms", "ms", "lower"),
        ("plan.suffix_ms", "ms", "lower"),
        ("plan.prefix_ms", "ms", "lower"),
        ("plan.full_forward_ms", "ms", "lower"),
        ("plan.trace_ms", "ms", "lower"),
        ("plan.skip_ratio", "ratio", "higher"),
        ("cache.hits", "count", "higher"),
        ("cache.misses", "count", "lower"),
        ("cache.hit_ratio", "ratio", "higher"),
        ("cache.get_ms", "ms", "lower"),
        ("cache.put_ms", "ms", "lower"),
        ("cache.mb", "MB", "lower"),
        ("cache.evictions", "count", "lower"),
        ("cache.spills", "count", "lower"),
        ("inject.apply_ms", "ms", "lower"),
        ("inject.restore_ms", "ms", "lower"),
        ("inject.groups", "count", "lower"),
        ("wrapper.init_ms", "ms", "lower"),
        ("monitor.hook_ms", "ms", "lower"),
        ("monitor.hook_calls", "count", "lower"),
        ("numeric.warnings", "count", "lower"),
        ("campaign.step_ms_p50", "ms", "lower"),
        ("campaign.step_ms_p99", "ms", "lower"),
        ("task.consume_ms", "ms", "lower"),
        ("writer.write_ms", "ms", "lower"),
        ("writer.records", "count", "lower"),
        ("writer.mb", "MB", "lower"),
        ("writer.merge_ms", "ms", "lower"),
        ("shard.attempts", "count", "lower"),
        ("shard.failed_attempts", "count", "lower"),
        ("shard.supervisor_ms", "ms", "lower"),
        ("shard.worker_busy_ms", "ms", "lower"),
        ("shard.efficiency", "ratio", "higher"),
        ("shard.skew", "ratio", "lower"),
        ("shard.manifest_ms", "ms", "lower"),
        ("sweep.points_executed", "count", "lower"),
        ("sweep.points_cached", "count", "higher"),
        ("store.lookup_ms", "ms", "lower"),
        ("store.commit_ms", "ms", "lower"),
        ("sweep.table_ms", "ms", "lower"),
        ("models.build_ms", "ms", "lower"),
        ("tasks.evaluate_ms", "ms", "lower"),
        ("tasks.write_outputs_ms", "ms", "lower"),
        ("trace.untraced_pairs_per_s", "pairs/s", "higher"),
        ("trace.traced_pairs_per_s", "pairs/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

MB = 2**20


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _step_times(spans: list[Span], by_id: dict[int, Span]) -> list[float]:
    """Step durations from consume timestamps, per campaign run.

    The first step of a run is measured from the run's start, every later
    one from the previous step's consume exit.
    """
    ends: dict[int, list[float]] = {}
    for span_id, parent, name, _, end, _ in spans:
        if name == "task.consume" and parent in by_id:
            ends.setdefault(parent, []).append(end)
    steps = []
    for parent, stamps in ends.items():
        previous = by_id[parent][3]
        for stamp in sorted(stamps):
            steps.append(stamp - previous)
            previous = stamp
    return steps


def _skew(spans: list[Span]) -> float:
    """Mean over supervisor runs of slowest worker / median worker."""
    workers: dict[int, list[float]] = {}
    for _, parent, name, start, end, _ in spans:
        if name == "shard.worker" and parent is not None:
            workers.setdefault(parent, []).append(end - start)
    ratios = [max(times) / statistics.median(times) for times in workers.values() if times]
    return statistics.fmean(ratios) if ratios else 0.0


def layer_metrics(
    spans: list[Span],
    counts: dict[tuple[str, str], float],
    traced: list[str],
    setup_run: str,
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics (see the module docstring) from a finished trace.

    ``traced`` are the run ids of the measured traced iterations and
    ``extra`` holds values measured outside the trace (shard attempts, sweep
    point counts, tracing overhead).
    """
    runs = set(traced)
    n = max(1, len(runs))
    measured = [span for span in spans if span[5] in runs]
    own = self_times(measured)
    inclusive: dict[str, float] = {}
    exclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span_id, _, name, start, end, _ in measured:
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        exclusive[name] = exclusive.get(name, 0.0) + own[span_id]
        calls[name] = calls.get(name, 0) + 1

    def total(name: str) -> float:
        return sum(value for (run, key), value in counts.items() if run in runs and key == name)

    def ms(name: str) -> float:
        return inclusive.get(name, 0.0) * 1000 / n

    hits, misses = total("cache.hits"), total("cache.misses")
    segments = max(
        (value for (run, key), value in counts.items() if key == "plan.segments"), default=0
    )
    groups = total("inject.groups")
    slot_seconds = total("shard.slot_seconds")
    by_id = {span[0]: span for span in measured}
    steps = _step_times(measured, by_id)
    metrics: dict[str, float] = {}
    for kernel in KERNELS:
        metrics[f"kernel.{kernel}_ms"] = exclusive.get(f"kernel.{kernel}", 0.0) * 1000 / n
        metrics[f"kernel.{kernel}_calls"] = calls.get(f"kernel.{kernel}", 0) / n
    metrics.update(
        {
            "kernel.conv2d_gflop": total("kernel.conv2d_flop") / n / 1e9,
            "kernel.conv2d_mb": total("kernel.conv2d_bytes") / n / MB,
            "plan.golden_ms": ms("plan.golden"),
            "plan.suffix_ms": ms("plan.suffix"),
            "plan.prefix_ms": ms("plan.prefix"),
            "plan.full_forward_ms": ms("plan.full_forward"),
            "plan.trace_ms": ms("plan.trace"),
            "plan.skip_ratio": (
                total("plan.skipped_segments") / (groups * segments) if groups and segments else 0.0
            ),
            "cache.hits": hits / n,
            "cache.misses": misses / n,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.get_ms": ms("cache.get"),
            "cache.put_ms": ms("cache.put"),
            "cache.mb": max(
                (v for (run, key), v in counts.items() if run in runs and key == "cache.peak_bytes"),
                default=0,
            ) / MB,
            "cache.evictions": (total("cache.puts") - total("cache.entries_end")) / n,
            "cache.spills": total("cache.spills") / n,
            "inject.apply_ms": ms("inject.apply"),
            "inject.restore_ms": ms("inject.restore"),
            "inject.groups": groups / n,
            "wrapper.init_ms": ms("wrapper.init"),
            "monitor.hook_ms": ms("monitor.hook"),
            "monitor.hook_calls": calls.get("monitor.hook", 0) / n,
            "numeric.warnings": total("numeric.warnings") / n,
            "campaign.step_ms_p50": percentile(steps, 50) * 1000,
            "campaign.step_ms_p99": percentile(steps, 99) * 1000,
            "task.consume_ms": ms("task.consume"),
            "writer.write_ms": ms("writer.write"),
            "writer.records": total("writer.records") / n,
            "writer.mb": total("writer.bytes") / n / MB,
            "writer.merge_ms": ms("writer.merge"),
            "shard.supervisor_ms": ms("shard.supervisor"),
            "shard.worker_busy_ms": ms("shard.worker"),
            "shard.efficiency": (
                inclusive.get("shard.worker", 0.0) / slot_seconds if slot_seconds else 0.0
            ),
            "shard.skew": _skew(measured),
            "shard.manifest_ms": ms("shard.manifest"),
            "store.lookup_ms": ms("store.lookup"),
            "store.commit_ms": ms("store.commit"),
            "sweep.table_ms": ms("sweep.table"),
            "models.build_ms": sum(
                end - start for _, _, name, start, end, run in spans
                if run == setup_run and name == "models.build"
            ) * 1000,
            "tasks.evaluate_ms": ms("tasks.evaluate"),
            "tasks.write_outputs_ms": ms("tasks.write_outputs"),
        }
    )
    metrics.update(extra)
    return metrics


def render(metrics: dict[str, Any], names: list[tuple[str, str, str]]) -> dict[str, dict]:
    """The ``metrics`` object of the result line, in declaration order."""
    return {name: {"value": metrics[name], "unit": unit} for name, unit, _ in names}
