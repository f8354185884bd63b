"""Campaign benchmark of the repro fault-injection engine.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run builds the workload's sweep spec from the seed (see
``workloads.py``) and drives it through :func:`repro.experiments.run_sweep`:

1. the first cold sweep ends set-up (process start, before ``repro`` is
   imported, to the first campaign step) and warms the process up;
2. the naive reference sweep on the same seed (serial backend, no prefix
   reuse, no golden cache) gives the bytes every measured sweep must match;
3. cold sweeps into fresh campaign stores, each followed by re-runs from the
   store that must execute 0 points, repeat for ``--seconds`` seconds.

With ``--trace 0`` the result line holds the end-to-end metrics: pairs per
second and CPU per pair over all measured sweeps together, the median store
re-run, and set-up as the median of this process and a few fresh set-up
processes.  Timings of work done in this process (serial sweeps, store
re-runs, set-up) are stated at a reference host speed: each is divided by a
host factor timed beside it (see ``hostspeed.py``); the unnormalised
throughput and the factors are printed and kept in the report.  With ``--trace 1`` the measured sweeps alternate
between untraced and traced (see ``tracing.py``), and the result line holds
the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Operations are
pairs (golden+faulty inference), shard attempts and sweep points; a pair
fails when its record differs from the reference.  The exit code is 0 only
when nothing failed.  A full report (environment fingerprint, every sample)
and, for traced runs, the spans are written to ``.perfbench_out/``.
"""

import time

_T0 = time.perf_counter()  # workload start: before numpy and repro are imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REFERENCE_STORE_SECONDS, calibrate, calibrate_store, host_factor  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_MEASURED = 3  # measured cold sweeps per untraced run
MIN_TRACED = 2  # traced and untraced sweeps each, per traced run
RERUNS = 10  # store re-runs after every cold sweep
BRACKET = 3  # host calibrations right before and right after every cold sweep
SETUP_PROCESSES = {"full": 6, "tiny": 1}  # fresh set-up processes per untraced run
TIME_CAP = 140.0  # no new sweep starts after this many seconds


class SetupReached(Exception):
    """Raised at the first campaign step of a set-up process."""


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Probe:
    """Marks at the two campaign entry points, installed in every run.

    It records when (and at what CPU time) the first campaign step of a
    sweep starts and reads the shard executor's attempt log; it times no
    layer, so untraced runs carry no tracing cost.
    """

    def __init__(self, stop_at_first_step: bool = False) -> None:
        self.stop_at_first_step = stop_at_first_step
        self.reset()

    def reset(self) -> None:
        self.first_step: tuple[float, float] | None = None
        self.shard_attempts = 0
        self.shard_failures = 0

    def mark(self) -> None:
        if self.first_step is None:
            self.first_step = (time.perf_counter(), cpu_seconds())
            if self.stop_at_first_step:
                raise SetupReached

    def install(self) -> None:
        from repro.alficore.campaign import CampaignCore, ShardedCampaignExecutor

        core_run = CampaignCore.run
        executor_run = ShardedCampaignExecutor.run
        probe = self

        def run_core(core, *args, **kwargs):
            probe.mark()
            return core_run(core, *args, **kwargs)

        def run_executor(executor):
            probe.mark()
            try:
                return executor_run(executor)
            finally:
                failures = sum(len(log) for log in executor.attempt_log.values())
                probe.shard_failures += failures
                probe.shard_attempts += executor.num_shards + failures

        CampaignCore.run = run_core
        ShardedCampaignExecutor.run = run_executor


@dataclass
class Iteration:
    """One cold sweep and its store re-runs."""

    index: int
    traced: bool
    seconds: float
    cpu_seconds: float
    pairs: int
    points: int
    executed: int
    rerun_seconds: list[float]
    rerun_executed: int
    rerun_points: int
    shard_attempts: int
    shard_failures: int
    calibration_seconds: list[float]
    rerun_calibration_seconds: list[float]
    sweep_in_process: bool
    mismatched_pairs: int = 0
    mismatched_points: int = 0
    mismatch_details: list[str] = field(default_factory=list)

    @property
    def sweep_factor(self) -> float:
        """Host factor of the cold sweep; 1 when shard workers computed it.

        The calibration runs in this process, on one core, between sweeps; it
        tracks work done in this process, but not that of forked workers
        busy on every core at once with their own BLAS threads.
        """
        return host_factor(self.calibration_seconds) if self.sweep_in_process else 1.0

    @property
    def rerun_factor(self) -> float:
        """Host factor of the store re-runs, each of which is followed by a store calibration."""
        return host_factor(self.rerun_calibration_seconds, REFERENCE_STORE_SECONDS)

    @property
    def attempted(self) -> int:
        return self.pairs + self.shard_attempts + self.points + self.rerun_points

    @property
    def failed(self) -> int:
        # A cold sweep into a fresh store executes every point; its re-runs
        # execute none.
        return (
            self.mismatched_pairs + self.shard_failures + self.mismatched_points
            + (self.points - self.executed) + self.rerun_executed
        )


class Bench:
    """State of one benchmark run."""

    def __init__(self, args: argparse.Namespace, scratch: Path) -> None:
        from workloads import WORKLOADS, naive_spec, pairs_per_point

        self.args = args
        self.scratch = scratch
        self.spec = WORKLOADS[args.workload].build(args.seed, args.size)
        self.naive = naive_spec(self.spec)
        self.pairs_per_point = pairs_per_point(self.spec)
        self.probe = Probe(stop_at_first_step=args.setup_probe)
        self.tracer = None
        self.artifacts = None
        self.reference: Path | None = None
        self.setup_seconds = 0.0

    def sweep(self, spec, store: Path):
        from repro.experiments import run_sweep

        return run_sweep(spec, self.artifacts, store=store)

    def iteration(self, index: int, traced: bool) -> Iteration:
        from checks import compare_stores
        from repro.experiments import Artifacts

        store = self.scratch / f"store-{index}"
        gc.collect()  # start every cold sweep with the same collector state
        calibrations = [calibrate() for _ in range(BRACKET)]
        self.probe.reset()
        result = self.sweep(self.spec, store)
        end, cpu_end = time.perf_counter(), cpu_seconds()
        calibrations += [calibrate() for _ in range(BRACKET)]
        rerun_calibrations = []
        start, cpu_start = self.probe.first_step
        if index == 0:
            self.setup_seconds = start - _T0
        if self.artifacts is None:
            model, dataset = result.plan.artifacts[0]
            self.artifacts = Artifacts(model=model, dataset=dataset)
        reruns, rerun_executed, rerun_points = [], 0, 0
        for _ in range(RERUNS):
            began = time.perf_counter()
            again = self.sweep(self.spec, store)
            reruns.append(time.perf_counter() - began)
            rerun_executed += again.executed
            rerun_points += len(again)
            rerun_calibrations.append(calibrate_store(self.scratch))
        record = Iteration(
            index=index,
            traced=traced,
            seconds=end - start,
            cpu_seconds=cpu_end - cpu_start,
            pairs=result.executed * self.pairs_per_point,
            points=len(result),
            executed=result.executed,
            rerun_seconds=reruns,
            rerun_executed=rerun_executed,
            rerun_points=rerun_points,
            shard_attempts=self.probe.shard_attempts,
            shard_failures=self.probe.shard_failures,
            calibration_seconds=calibrations,
            rerun_calibration_seconds=rerun_calibrations,
            sweep_in_process=self.spec.backend.name == "serial",
        )
        if self.reference is None:
            self.reference = self.scratch / "reference"
            self.probe.reset()
            if self.tracer is not None:
                self.tracer.run_id = "reference"
            self.sweep(self.naive, self.reference)
        found = compare_stores(store, self.reference, [o.run_id for o in result.outcomes])
        record.mismatched_pairs = found.pairs
        record.mismatched_points = found.points
        record.mismatch_details = found.details
        shutil.rmtree(store, ignore_errors=True)
        return record


def median_and_quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def setup_samples(args: argparse.Namespace) -> list[float]:
    """Normalised set-up seconds of fresh processes (imports and model build included)."""
    samples = []
    for _ in range(SETUP_PROCESSES[args.size]):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def measure(bench: Bench) -> tuple[list[Iteration], float, float]:
    """Run the workload; returns (iterations, own normalised set-up seconds, peak RSS MB)."""
    args = bench.args
    first = bench.iteration(0, traced=args.trace == 1)
    if bench.tracer is not None:
        bench.tracer.end_run()
        bench.tracer.uninstall()
    iterations = [first]
    window_start = time.perf_counter()
    while True:
        measured = iterations[1:]
        untraced = [it for it in measured if not it.traced]
        traced = [it for it in measured if it.traced]
        if args.trace:
            enough = len(untraced) >= MIN_TRACED and len(traced) >= MIN_TRACED
        else:
            enough = len(untraced) >= MIN_MEASURED
        elapsed = time.perf_counter() - window_start
        if (enough and elapsed >= args.seconds) or time.perf_counter() - _T0 > TIME_CAP:
            break
        index = len(iterations)
        trace_this = args.trace == 1 and index % 2 == 0
        if bench.tracer is not None:
            bench.tracer.run_id = f"it{index}"
            if trace_this:
                bench.tracer.install()
        try:
            iterations.append(bench.iteration(index, traced=trace_this))
        finally:
            if trace_this:
                bench.tracer.end_run()
                bench.tracer.uninstall()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup = bench.setup_seconds / host_factor(first.calibration_seconds)
    return iterations, setup, max(own, kids) / 1024


def rate(items: list[Iteration]) -> list[float]:
    """Pairs per second of each sweep, at the reference host speed."""
    return [it.pairs * it.sweep_factor / it.seconds for it in items]


def end_to_end(iterations: list[Iteration], setup: list[float], peak_rss: float) -> dict:
    """``name -> (value, q1, q3, samples)``; quartiles are of the per-sample values.

    Every timing of a sweep is divided by the sweep's host factor (1 for
    sharded sweeps; see ``hostspeed.py``).  Throughput and CPU per pair are totals over the whole
    measuring window rather than medians of single sweeps, so that every
    moment of the window weighs alike.
    """
    measured = iterations[1:]
    pairs = sum(it.pairs for it in measured)
    totals = {
        "pairs_per_s": pairs / sum(it.seconds / it.sweep_factor for it in measured),
        "cpu_ms_per_pair": sum(it.cpu_seconds / it.sweep_factor for it in measured) * 1000 / pairs,
    }
    samples = {
        "pairs_per_s": rate(measured),
        "setup_s": setup,
        "cpu_ms_per_pair": [it.cpu_seconds * 1000 / (it.pairs * it.sweep_factor) for it in measured],
        "peak_rss_mb": [peak_rss],
        "rerun_s": [s / it.rerun_factor for it in measured for s in it.rerun_seconds],
    }
    stats = {}
    for name, values in samples.items():
        median, q1, q3 = median_and_quartiles(values)
        stats[name] = (totals.get(name, median), q1, q3, len(values))
    return stats


def per_layer(bench: Bench, iterations: list[Iteration]) -> dict[str, float]:
    from layers import layer_metrics

    measured = iterations[1:]
    traced = [it for it in measured if it.traced]
    untraced = [it for it in measured if not it.traced]
    traced_rate = statistics.median(rate(traced))
    untraced_rate = statistics.median(rate(untraced))
    n = len(traced)
    extra = {
        "shard.attempts": sum(it.shard_attempts for it in traced) / n,
        "shard.failed_attempts": sum(it.shard_failures for it in traced) / n,
        "sweep.points_executed": sum(it.executed + it.rerun_executed for it in traced) / n,
        "sweep.points_cached": sum(it.rerun_points - it.rerun_executed for it in traced) / n,
        "trace.untraced_pairs_per_s": untraced_rate,
        "trace.traced_pairs_per_s": traced_rate,
        "trace.overhead_pct": (untraced_rate / traced_rate - 1) * 100,
    }
    tracer = bench.tracer
    return layer_metrics(
        tracer.spans, tracer.counts, [f"it{it.index}" for it in traced], "it0", extra
    )


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny runs the smoke-check size")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: stop at the first campaign step, print set-up time")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT))
    tempfile.tempdir = str(scratch)  # keep repro's temp files inside the checkout
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args: argparse.Namespace, scratch: Path) -> int:
    import repro.experiments  # noqa: F401  (loads every layer the probe and tracer wrap)
    from checks import fingerprint
    from layers import END_TO_END, PER_LAYER, render
    from tracing import Tracer, WarningCounter

    bench = Bench(args, scratch)
    bench.probe.install()
    counts: dict[str, int] = {}
    if args.trace:
        bench.tracer = Tracer(scratch / "workers")
        bench.tracer.run_id = "it0"
        bench.tracer.install()
        warning_counter = WarningCounter(bench.tracer.add, every=True)
    else:
        warning_counter = WarningCounter(lambda name: counts.update({name: counts.get(name, 0) + 1}),
                                         every=False)

    if args.setup_probe:
        try:
            with warning_counter:
                bench.sweep(bench.spec, scratch / "setup-store")
        except SetupReached:
            seconds = bench.probe.first_step[0] - _T0
            factor = host_factor([calibrate() for _ in range(RERUNS)])
            print(json.dumps({"setup_s": seconds / factor, "unnormalised_setup_s": seconds}))
            return 0
        print("perfbench: the sweep finished without a campaign step", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    try:
        with warning_counter:
            iterations, own_setup, peak_rss = measure(bench)
        setup = [] if args.trace else [own_setup] + setup_samples(args)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    env = fingerprint(ROOT, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    for it in iterations:
        for detail in it.mismatch_details:
            print(f"MISMATCH it{it.index}: {detail}")
    print(f"cold sweeps: 1 warm-up + {len(iterations) - 1} measured, "
          f"{iterations[0].pairs} pairs each, {RERUNS} store re-runs after each")
    print(f"failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    report: dict = {"workload": args.workload, "trace": args.trace, "size": args.size,
                    "env": env, "iterations": [asdict(it) for it in iterations]}
    if args.trace:
        values = per_layer(bench, iterations)
        names = PER_LAYER
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        bench.tracer.write_spans(spans_path)
        report["spans"] = spans_path.name
        print(f"tracing overhead: traced {values['trace.traced_pairs_per_s']:.4g} pairs/s vs "
              f"untraced {values['trace.untraced_pairs_per_s']:.4g} pairs/s "
              f"({values['trace.overhead_pct']:.3g}%)")
        for name, unit, _ in names:
            print(f"{name} = {values[name]:.6g} {unit}")
    else:
        stats = end_to_end(iterations, setup, peak_rss)
        values = {name: stat[0] for name, stat in stats.items()}
        names = END_TO_END
        for name, unit, _ in names:
            value, q1, q3, count = stats[name]
            how = "over" if name in ("pairs_per_s", "cpu_ms_per_pair") else "median of"
            print(f"{name} = {value:.6g} {unit}  ({how} {count}; q1 {q1:.6g}, q3 {q3:.6g})")
        measured = iterations[1:]
        raw = sum(it.pairs for it in measured) / sum(it.seconds for it in measured)
        factors = [host_factor(it.calibration_seconds) for it in measured]
        applied = "applied" if measured[0].sweep_in_process else "not applied: shard workers"
        print(f"unnormalised pairs_per_s = {raw:.6g} pairs/s; sweep host factor median "
              f"{statistics.median(factors):.4g} (min {min(factors):.4g}, max {max(factors):.4g}; "
              f"{applied})")
        print(f"numeric warnings: {counts.get('numeric.warnings', 0)} "
              "(counted once per code location instead of printed)")
    report["metrics"] = values
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": render(values, names)}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
