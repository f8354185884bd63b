"""Outside-in tracing of the ``repro`` layers for the benchmark's traced runs.

Nothing in ``src/`` knows about this module.  :class:`Tracer` wraps public
functions and methods of the ``repro`` modules listed in :data:`TARGETS`
with a recorder that keeps one span per call in memory::

    (span_id, parent_id, name, start, end, run_id)

``start``/``end`` come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux,
shared by every process of the machine), ``parent_id`` is the innermost
wrapped call that was active when the span started, and ``run_id`` names the
benchmark iteration the span belongs to.  Counters (cache hits, records
written, computed FLOPs, ...) are recorded at the same boundaries.

Shard workers are forked by ``repro.alficore.resilience.ShardSupervisor``.
They inherit the wrappers; :meth:`Tracer.install` also replaces the
supervisor's child entry point so that every worker drops the spans it
inherited, records its own, and writes them to ``worker_dir`` before it
exits.  :meth:`Tracer.collect_workers` merges those files back.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import pickle
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Callable

Span = tuple  # (span_id, parent_id, name, start, end, run_id)


# --------------------------------------------------------------------------- #
# counters recorded at span exit
# --------------------------------------------------------------------------- #
def _conv2d_work(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, _: float) -> None:
    """FLOPs and bytes of one ungrouped conv2d, computed from call shapes.

    Grouped calls recurse into one ungrouped call per group, so only the
    ungrouped calls are counted.
    """
    groups = args[5] if len(args) > 5 else kwargs.get("groups", 1)
    if groups != 1:
        return
    x, weight = args[0], args[1]
    bias = args[2] if len(args) > 2 else kwargs.get("bias")
    n, _, h_out, w_out = result.shape
    c_out, c_in, kh, kw = weight.shape
    tracer.add("kernel.conv2d_flop", 2 * n * c_out * h_out * w_out * c_in * kh * kw)
    nbytes = x.nbytes + weight.nbytes + result.nbytes
    if bias is not None:
        nbytes += bias.nbytes
    tracer.add("kernel.conv2d_bytes", nbytes)


def _count(name: str) -> Callable:
    def after(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, _: float) -> None:
        tracer.add(name)

    return after


def _cache_get(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, _: float) -> None:
    tracer.add("cache.misses" if result is None else "cache.hits")


def _cache_store(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, _: float) -> None:
    cache = args[0]
    tracer.peak("cache.peak_bytes", cache.nbytes)
    if cache.spill_dir is not None:
        tracer.add("cache.spills")


def _cache_put(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, d: float) -> None:
    tracer.add("cache.puts")
    _cache_store(tracer, args, kwargs, result, d)


def _cache_created(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, _: float) -> None:
    tracer.caches.append((tracer.run_id, args[0]))


def _plan_resume(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, _: float) -> None:
    start = args[1] if len(args) > 1 else kwargs["start"]
    tracer.add("plan.skipped_segments", start)


def _plan_traced(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, _: float) -> None:
    if result is not None and result.valid:
        tracer.counts[(tracer.run_id, "plan.segments")] = result.num_segments


def _file_bytes(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _stream_closed(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, _: float) -> None:
    tracer.add("writer.bytes", _file_bytes(args[0].path))


def _file_written(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, _: float) -> None:
    tracer.add("writer.bytes", _file_bytes(result))


def _wrap_monitor_hook(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, _: float):
    return tracer.wrap("monitor.hook", result)


def _supervised(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, duration: float) -> None:
    tracer.add("shard.slot_seconds", args[0].workers * duration)


#: (span name, module, attribute path, after-hook).  The attribute path is
#: ``function``, ``Class.method`` or ``mapping[key]``.  An after-hook runs
#: when the call returns and may return a replacement result.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    # nn.functional — the kernels every executor ends up in
    ("kernel.conv2d", "repro.nn.functional", "conv2d", _conv2d_work),
    ("kernel.im2col", "repro.nn.functional", "im2col", None),
    ("kernel.max_pool2d", "repro.nn.functional", "max_pool2d", None),
    ("kernel.batch_norm2d", "repro.nn.functional", "batch_norm2d", None),
    ("kernel.linear", "repro.nn.functional", "linear", None),
    ("kernel.elementwise", "repro.nn.functional", "relu", None),
    ("kernel.elementwise", "repro.nn.functional", "leaky_relu", None),
    ("kernel.elementwise", "repro.nn.functional", "sigmoid", None),
    ("kernel.elementwise", "repro.nn.functional", "tanh", None),
    ("kernel.elementwise", "repro.nn.ir", "_KERNELS[bias_add]", None),
    # nn.forward_plan — golden recording, faulty suffix, prefix recompute
    ("plan.golden", "repro.nn.forward_plan", "ForwardPlan.run_recording", None),
    ("plan.suffix", "repro.nn.forward_plan", "ForwardPlan.resume", _plan_resume),
    ("plan.prefix", "repro.nn.forward_plan", "ForwardPlan.run_prefix", None),
    ("plan.trace", "repro.nn.forward_plan", "ForwardPlan.trace", _plan_traced),
    ("plan.full_forward", "repro.alficore.campaign", "CampaignTask.infer", None),
    # alficore.goldencache
    ("cache.init", "repro.alficore.goldencache", "GoldenCache.__init__", _cache_created),
    ("cache.get", "repro.alficore.goldencache", "GoldenCache.get", _cache_get),
    ("cache.put", "repro.alficore.goldencache", "GoldenCache.put", _cache_put),
    ("cache.put", "repro.alficore.goldencache", "GoldenCache.add_boundary", _cache_store),
    # pytorchfi.core and alficore.wrapper — fault sessions
    ("inject.apply", "repro.pytorchfi.core", "WeightPatchSession.__enter__", _count("inject.groups")),
    ("inject.restore", "repro.pytorchfi.core", "WeightPatchSession.__exit__", None),
    ("inject.apply", "repro.pytorchfi.core", "NeuronFaultGroup.__enter__", _count("inject.groups")),
    ("inject.restore", "repro.pytorchfi.core", "NeuronFaultGroup.__exit__", None),
    ("wrapper.init", "repro.alficore.wrapper", "ptfiwrap.__init__", None),
    # alficore.monitoring — the hooks InferenceMonitor.attach registers
    ("monitor.make_hook", "repro.alficore.monitoring", "InferenceMonitor._make_hook",
     _wrap_monitor_hook),
    # alficore.campaign
    ("campaign.run", "repro.alficore.campaign", "CampaignCore.run", None),
    ("task.consume", "repro.alficore.campaign", "ClassificationTask.consume", None),
    ("task.consume", "repro.alficore.campaign", "DetectionTask.consume", None),
    ("shard.executor", "repro.alficore.campaign", "ShardedCampaignExecutor.run", None),
    # alficore.results
    ("writer.write", "repro.alficore.results", "CsvRecordStream.write", _count("writer.records")),
    ("writer.write", "repro.alficore.results", "JsonArrayStream.write", _count("writer.records")),
    ("writer.write", "repro.alficore.results", "CsvRecordStream.close", _stream_closed),
    ("writer.write", "repro.alficore.results", "JsonArrayStream.close", _stream_closed),
    ("writer.write", "repro.alficore.results", "CampaignResultWriter.write_meta", _file_written),
    ("writer.write", "repro.alficore.results", "CampaignResultWriter.write_fault_matrix",
     _file_written),
    ("writer.write", "repro.alficore.results", "CampaignResultWriter.write_kpi_summary",
     _file_written),
    ("writer.write", "repro.alficore.results", "CampaignResultWriter.write_ground_truth_json",
     _file_written),
    ("writer.merge", "repro.alficore.results", "merge_csv_files", None),
    ("writer.merge", "repro.alficore.results", "merge_json_array_files", None),
    # alficore.resilience — the shard supervisor
    ("shard.supervisor", "repro.alficore.resilience", "ShardSupervisor.run", _supervised),
    ("shard.manifest", "repro.alficore.resilience", "RunManifest.save", None),
    # experiments.sweep and experiments.campaigns.store
    ("sweep.run", "repro.experiments.sweep", "run_sweep", None),
    ("store.lookup", "repro.experiments.campaigns.store", "CampaignStore.lookup", None),
    ("store.commit", "repro.experiments.campaigns.store", "CampaignStore.commit", None),
    ("sweep.table", "repro.experiments.sweep", "SweepResult.write_table", None),
    # models and experiments.tasks
    ("models.build", "repro.experiments.tasks", "ClassificationExperimentTask.build_model", None),
    ("models.build", "repro.experiments.tasks", "DetectionExperimentTask.build_model", None),
    ("tasks.evaluate", "repro.experiments.tasks", "ClassificationExperimentTask.evaluate", None),
    ("tasks.evaluate", "repro.experiments.tasks", "DetectionExperimentTask.evaluate", None),
    ("tasks.write_outputs", "repro.experiments.tasks", "ExperimentTask.write_outputs", None),
]

#: the supervisor's worker entry point, replaced while tracing
WORKER_ENTRY = ("repro.alficore.resilience", "_subprocess_entry")


class Tracer:
    """In-memory span and counter recorder (see the module docstring)."""

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = Path(worker_dir)
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = {}
        self.caches: list[tuple[str, Any]] = []
        self.run_id = "setup"
        self._stack: list[int] = []
        self._serial = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def add(self, name: str, value: float = 1) -> None:
        key = (self.run_id, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, name: str, value: float) -> None:
        key = (self.run_id, name)
        self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recording one span per call (plus ``after`` counters)."""
        stack = self._stack
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self._serial += 1
            span_id = os.getpid() * 10**9 + self._serial
            parent = stack[-1] if stack else None
            run_id = self.run_id
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, run_id))
            if after is not None:
                replaced = after(self, args, kwargs, result, end - start)
                if replaced is not None:
                    result = replaced
            return result

        return traced

    # ------------------------------------------------------------------ #
    # installing wrappers
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every target in :data:`TARGETS` and the worker entry point."""
        for name, module_name, path, after in TARGETS:
            self._patch(module_name, path, lambda fn, n=name, a=after: self.wrap(n, fn, a))
        self._patch(*WORKER_ENTRY, self._traced_worker_entry)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []

    def _patch(self, module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
        module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
        if "[" in path:
            mapping_name, key = path[:-1].split("[")
            mapping = getattr(module, mapping_name)
            self._patches.append((mapping, key, mapping[key]))
            mapping[key] = make(mapping[key])
            return
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            if attr not in vars(owner):
                raise AttributeError(f"{module_name}.{class_name} does not define {attr}")
            raw = vars(owner)[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                replacement = type(raw)(make(raw.__func__))
            else:
                replacement = make(raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            return
        # A module-level function: replace it in every repro module that
        # holds a reference (``from x import f`` copies the binding).
        original = getattr(module, path)
        replacement = make(original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if namespace is None or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, replacement)

    def _traced_worker_entry(self, original: Callable) -> Callable:
        def entry(execute: Callable, job: Any, result_path: str, error_path: str) -> None:
            # Runs in the forked child: keep the inherited call stack (the
            # worker span's parent is the supervisor span) but drop the
            # parent's recorded spans and counters.
            self.spans = []
            self.counts = {}
            self.caches = []
            try:
                self.wrap("shard.worker", original)(execute, job, result_path, error_path)
            finally:
                self.flush_worker()

        return entry

    def end_run(self) -> None:
        """Close the current iteration: merge worker spans, record cache sizes."""
        self.collect_workers()
        for run_id, cache in self.caches:
            if run_id == self.run_id:
                self.add("cache.entries_end", len(cache))
        self.caches = []

    # ------------------------------------------------------------------ #
    # worker hand-back and output
    # ------------------------------------------------------------------ #
    def flush_worker(self) -> None:
        """Write this process's spans and counters for the parent to merge."""
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        path = self.worker_dir / f"worker-{os.getpid()}-{time.monotonic_ns()}.pkl"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump({"spans": self.spans, "counts": self.counts}, handle)
        os.replace(tmp, path)

    def collect_workers(self) -> int:
        """Merge and delete the files flushed by finished workers."""
        merged = 0
        if not self.worker_dir.is_dir():
            return merged
        for path in sorted(self.worker_dir.glob("worker-*.pkl")):
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            path.unlink()
            self.spans.extend(payload["spans"])
            for key, value in payload["counts"].items():
                if key[1] == "plan.segments":
                    self.counts[key] = value
                else:
                    self.counts[key] = self.counts.get(key, 0) + value
            merged += 1
        return merged

    def write_spans(self, path: Path) -> None:
        """Write all spans as gzip'd JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[Span]:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


# --------------------------------------------------------------------------- #
# numeric warnings
# --------------------------------------------------------------------------- #
class WarningCounter:
    """Count numpy floating-point ``RuntimeWarning``s instead of printing them.

    Forked shard workers inherit the replacement ``showwarning``; their
    counts travel back with their spans when tracing.  ``every`` reports
    each occurrence (the ``always`` filter) so the count repeats exactly;
    without it Python's default once-per-location filter applies.
    """

    def __init__(self, add: Callable[[str], None], every: bool) -> None:
        self._add = add
        self._every = every
        self._saved = warnings.catch_warnings()

    def __enter__(self) -> "WarningCounter":
        self._saved.__enter__()
        original = warnings.showwarning

        def showwarning(message, category, filename, lineno, file=None, line=None):
            if issubclass(category, RuntimeWarning) and "encountered in" in str(message):
                self._add("numeric.warnings")
                return
            original(message, category, filename, lineno, file, line)

        warnings.showwarning = showwarning
        if self._every:
            warnings.simplefilter("always", RuntimeWarning)
        return self

    def __exit__(self, *exc: object) -> None:
        self._saved.__exit__(*exc)


# --------------------------------------------------------------------------- #
# span analysis
# --------------------------------------------------------------------------- #
def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, parent, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _, _, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


def nesting_violations(spans: list[Span], tolerance: float = 1e-6) -> list[str]:
    """Spans that do not lie inside their parent (parents must be recorded)."""
    by_id = {span[0]: span for span in spans}
    problems = []
    for span_id, parent, name, start, end, _ in spans:
        if end < start:
            problems.append(f"{name} ends before it starts")
        if parent is None:
            continue
        outer = by_id.get(parent)
        if outer is None:
            problems.append(f"{name} has an unrecorded parent {parent}")
        elif start < outer[3] - tolerance or end > outer[4] + tolerance:
            problems.append(f"{name} lies outside its parent {outer[2]}")
    return problems
