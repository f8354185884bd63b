"""Command-line interface for fault injection campaigns.

Exposes the declarative Experiment API as a console script (``pytorchalfi``):

* ``pytorchalfi run <spec.yml>`` — run a campaign described by an experiment
  specification file (YAML or JSON); the one entry point every workload
  shares.
* ``pytorchalfi sweep <spec.yml>`` — expand the spec's ``sweep:`` grid and
  run every point through the content-addressed campaign store; completed
  points are skipped, ``--resume`` continues an interrupted sweep, and
  ``--dry-run`` lists the points with their run IDs without executing.
* ``pytorchalfi validate <spec.yml ...>`` — load and validate spec files
  against the component registries (typos get did-you-mean suggestions).
* ``pytorchalfi run-imgclass`` / ``pytorchalfi run-objdet`` — flag-driven
  spec *builders* for the two built-in workloads; ``--save-spec`` writes the
  equivalent spec file for later ``run`` invocations.
* ``pytorchalfi analyze`` — post-process a stored campaign directory
  (bit-wise / layer-wise vulnerability breakdown).
* ``pytorchalfi lint`` — run the repro-lint determinism/bit-exactness
  static analysis (same engine as ``python -m repro.lint``).

All ``choices`` lists are derived from the central registries
(``sorted(registry)``), so registering a new model/protection/value type
automatically extends the CLI help text.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.alficore import default_scenario, load_scenario
from repro.alficore.analysis import analyze_classification_campaign, analyze_detection_campaign
from repro.alficore.scenario import INJECTION_POLICIES, INJECTION_TARGETS
from repro.experiments import (
    BackendSpec,
    CachingSpec,
    CampaignStore,
    ComponentSpec,
    ERROR_MODELS,
    ExecutionSpec,
    ExperimentSpec,
    MODELS,
    PROTECTIONS,
    SpecError,
    TASKS,
    run,
)
from repro.visualization import comparison_table, sde_per_bit_chart, sde_per_layer_chart


def _optional_path(value: str) -> Path | None:
    """``--fault-file ""`` (e.g. an unset shell variable) means "not given"."""
    return Path(value) if value else None


def _add_common_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--images", type=int, default=40, help="number of dataset images")
    parser.add_argument("--num-faults", type=int, default=1, help="faults per image")
    parser.add_argument("--num-runs", type=int, default=1, help="epochs over the dataset")
    parser.add_argument(
        "--batch-size", type=int, default=None,
        help="images per batch (per_batch/per_epoch policies; per_image always uses 1)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for sharded campaign execution (1 = serial)",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="extra attempts per failed campaign shard before giving up",
    )
    parser.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard wall-clock deadline; a hung shard is killed and retried "
        "(workers > 1 only)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign from its run manifest, "
        "re-running only the shards not yet completed",
    )
    parser.add_argument(
        "--no-prefix-reuse", action="store_true",
        help="escape hatch: run the faulty lane as a full forward instead of a "
        "suffix-only forward from the first faulted layer",
    )
    parser.add_argument(
        "--golden-cache", type=int, default=256, metavar="MB",
        help="in-memory budget (MB) of the epoch-invariant golden cache; 0 disables it",
    )
    parser.add_argument(
        "--target", choices=INJECTION_TARGETS, default="weights", help="fault injection target"
    )
    parser.add_argument(
        "--value-type", choices=sorted(ERROR_MODELS), default="bitflip",
        help="how the targeted value is corrupted",
    )
    parser.add_argument(
        "--bit-range", type=int, nargs=2, default=(23, 30), metavar=("LOW", "HIGH"),
        help="inclusive bit range for bit flips",
    )
    parser.add_argument(
        "--inj-policy", choices=INJECTION_POLICIES, default="per_image",
        help="how long one fault set stays active",
    )
    parser.add_argument("--seed", type=int, default=1234, help="campaign random seed")
    parser.add_argument("--scenario", type=Path, default=None, help="optional scenario yml file")
    parser.add_argument(
        "--fault-file", type=_optional_path, default=None, help="reuse a stored fault matrix"
    )
    parser.add_argument("--output-dir", type=Path, default=Path("campaign_output"))
    parser.add_argument(
        "--save-spec", type=Path, default=None, metavar="SPEC",
        help="also write the equivalent experiment spec file (YAML/JSON by suffix)",
    )


def _scenario_from_args(args: argparse.Namespace):
    if args.scenario is not None:
        scenario = load_scenario(args.scenario)
    else:
        scenario = default_scenario()
    overrides = {
        "injection_target": args.target,
        "rnd_value_type": args.value_type,
        "rnd_bit_range": tuple(args.bit_range),
        "random_seed": args.seed,
        "dataset_size": args.images,
        "max_faults_per_image": args.num_faults,
        "inj_policy": args.inj_policy,
        "num_runs": args.num_runs,
        "model_name": args.model,
    }
    if args.fault_file is not None:
        # Only an explicit --fault-file overrides; a fault_file declared in
        # the --scenario yml keeps replaying its stored matrix.
        overrides["fault_file"] = args.fault_file
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    return scenario.copy(**overrides)


def _spec_from_args(args: argparse.Namespace, task: str, dataset: ComponentSpec) -> ExperimentSpec:
    """Assemble the experiment spec a ``run-imgclass``/``run-objdet`` call describes."""
    protection = getattr(args, "protection", "none")
    return ExperimentSpec(
        name=args.model,
        task=task,
        model=ComponentSpec(
            args.model, {"num_classes": args.num_classes, "seed": args.model_seed}
        ),
        dataset=dataset,
        scenario=_scenario_from_args(args),
        protection=ComponentSpec(protection) if protection != "none" else None,
        backend=BackendSpec(
            # --resume needs the sharded backend (the run manifest tracks
            # shard ranges); with workers=1 it runs the shards in-process.
            name="sharded" if (args.workers > 1 or args.resume) else "serial",
            workers=args.workers,
        ),
        caching=CachingSpec(
            golden_cache_mb=args.golden_cache, prefix_reuse=not args.no_prefix_reuse
        ),
        execution=ExecutionSpec(
            retries=args.retries,
            shard_timeout=args.shard_timeout,
            resume=args.resume,
        ),
        output_dir=args.output_dir,
    )


def _print_result_files(output_files: dict[str, str]) -> None:
    print("\nresult files:")
    for kind, path in output_files.items():
        print(f"  {kind:15s} {path}")


def _execute_spec(spec: ExperimentSpec, save_spec: Path | None = None) -> int:
    try:
        spec.validate(registries=True)
        if save_spec is not None:
            # Only validated specs are persisted — a saved spec must be
            # runnable by a later ``pytorchalfi run``.
            spec.save(save_spec)
            print(f"experiment spec written to {save_spec}")
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    # Campaign-runtime failures propagate with their traceback — they are
    # bugs or environment problems, not spec mistakes.
    result = run(spec)
    plugin = TASKS.get(spec.task)
    print(plugin.report(result, spec))
    if result.output_files:
        _print_result_files(result.output_files)
    return 0


def _cmd_run_spec(args: argparse.Namespace) -> int:
    import yaml

    try:
        spec = ExperimentSpec.load(args.spec)
    except (ValueError, KeyError, FileNotFoundError, yaml.YAMLError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if spec.sweep is not None:
        print(
            f"error: {args.spec} declares a sweep: section; use `pytorchalfi sweep`",
            file=sys.stderr,
        )
        return 1
    if args.output_dir is not None:
        spec.output_dir = args.output_dir
    if args.workers is not None:
        spec.backend.workers = args.workers
        if spec.backend.name == "serial" and args.workers > 1:
            # Built-in backends switch to sharded execution; registered
            # custom backends keep their name (they own their parallelism).
            spec.backend.name = "sharded"
    if args.retries is not None:
        spec.execution.retries = args.retries
    if args.shard_timeout is not None:
        spec.execution.shard_timeout = args.shard_timeout
    if args.resume:
        spec.execution.resume = True
        if spec.backend.name == "serial":
            # The run manifest lives in the sharded executor; with workers=1
            # the shards still run in-process.
            spec.backend.name = "sharded"
    return _execute_spec(spec)


def _load_sweep_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Load a spec for ``pytorchalfi sweep`` and check it declares a grid."""
    import yaml

    try:
        spec = ExperimentSpec.load(args.spec)
    except (ValueError, KeyError, FileNotFoundError, yaml.YAMLError) as error:
        raise SystemExit(f"error: {error}")
    if spec.sweep is None:
        raise SystemExit(
            f"error: {args.spec} declares no sweep: section; use `pytorchalfi run`"
        )
    return spec


def _sweep_store(args: argparse.Namespace, spec: ExperimentSpec) -> CampaignStore:
    """Resolve the campaign-store directory (flag > spec > output_dir)."""
    if args.store is not None:
        return CampaignStore(args.store)
    if spec.sweep is not None and spec.sweep.store is not None:
        return CampaignStore(spec.sweep.store)
    if spec.output_dir is not None:
        return CampaignStore(Path(spec.output_dir) / "sweep_store")
    raise SystemExit(
        "error: no campaign store: pass --store, declare sweep.store in the "
        "spec, or set output_dir"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import StoreError, SweepError, expand, run_sweep

    spec = _load_sweep_spec(args)
    store = _sweep_store(args, spec)
    try:
        if args.dry_run:
            plan = expand(spec)
            plan.resolve()
            print(f"sweep {spec.name!r}: {len(plan)} points, store {store.root}")
            for point in plan.points:
                status = "cached" if store.lookup(point.run_id) else "pending"
                print(f"  point {point.index:>3}  {point.run_id}  {status:8s}  {point.overrides}")
            return 0
        result = run_sweep(
            spec, store=store, workers=args.workers, resume=args.resume, progress=print,
        )
    except (SweepError, StoreError, SpecError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print()
    print(result.format_table())
    print(
        f"\nsweep complete: points={len(result)} executed={result.executed} "
        f"cached={result.cached}"
    )
    _print_result_files(result.table_files)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    import yaml

    failures = 0
    for path in args.specs:
        try:
            spec = ExperimentSpec.load(path)
            spec.validate(registries=True)
        except (ValueError, KeyError, FileNotFoundError, yaml.YAMLError) as error:
            failures += 1
            print(f"FAIL  {path}: {error}")
        else:
            print(f"ok    {path}  ({spec.task}: {spec.model.name} on {spec.dataset.name})")
    return 1 if failures else 0


def _cmd_run_imgclass(args: argparse.Namespace) -> int:
    dataset = ComponentSpec(
        "synthetic-classification",
        {
            "num_samples": args.images,
            "num_classes": args.num_classes,
            "noise": 0.25,
            "seed": args.data_seed,
        },
    )
    return _run_built_spec(args, "classification", dataset)


def _cmd_run_objdet(args: argparse.Namespace) -> int:
    dataset = ComponentSpec(
        "synthetic-coco",
        {"num_samples": args.images, "num_classes": args.num_classes, "seed": args.data_seed},
    )
    return _run_built_spec(args, "detection", dataset)


def _run_built_spec(args: argparse.Namespace, task: str, dataset: ComponentSpec) -> int:
    try:
        spec = _spec_from_args(args, task, dataset)
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return _execute_spec(spec, args.save_spec)


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.kind == "imgclass":
        analysis = analyze_classification_campaign(args.output_dir, args.campaign)
    else:
        analysis = analyze_detection_campaign(args.output_dir, args.campaign)
    print(
        comparison_table(
            [
                {
                    "campaign": analysis.campaign_name,
                    "inferences": analysis.num_inferences,
                    "masked": analysis.masked_rate,
                    "SDE": analysis.sde_rate,
                    "DUE": analysis.due_rate,
                }
            ],
            ["campaign", "inferences", "masked", "SDE", "DUE"],
            title="Campaign post-processing",
        )
    )
    if analysis.sde_by_bit:
        print()
        print(sde_per_bit_chart(analysis.sde_by_bit, title="corruption rate per flipped bit"))
    if analysis.sde_by_layer:
        print()
        print(sde_per_layer_chart(analysis.sde_by_layer, title="corruption rate per injected layer"))
    if analysis.flip_direction_counts:
        print(f"\nflip directions: {dict(analysis.flip_direction_counts)}")
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        args.json_out.write_text(json.dumps(analysis.as_dict(), indent=2))
        print(f"\nanalysis written to {args.json_out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_from_args

    return run_from_args(args)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="pytorchalfi",
        description="Application-level fault injection campaigns for neural networks",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_cmd = subparsers.add_parser("run", help="run an experiment spec file")
    run_cmd.add_argument("spec", type=Path, help="experiment spec (YAML or JSON)")
    run_cmd.add_argument(
        "--output-dir", type=Path, default=None, help="override the spec's output directory"
    )
    run_cmd.add_argument(
        "--workers", type=int, default=None, help="override the spec's backend workers"
    )
    run_cmd.add_argument(
        "--retries", type=int, default=None,
        help="override the spec's per-shard retry budget",
    )
    run_cmd.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="override the spec's per-shard wall-clock deadline",
    )
    run_cmd.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign from its run manifest",
    )
    run_cmd.set_defaults(handler=_cmd_run_spec)

    sweep = subparsers.add_parser(
        "sweep", help="run a parameter-grid sweep through the campaign store"
    )
    sweep.add_argument("spec", type=Path, help="experiment spec with a sweep: section")
    sweep.add_argument(
        "--store", type=Path, default=None,
        help="campaign store directory (default: the spec's sweep.store, then "
        "<output_dir>/sweep_store)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker processes per grid point (sharded execution when > 1); "
        "does not affect run IDs, so cached points still match",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep: skip store-committed points and "
        "continue the in-flight point from its shard manifest",
    )
    sweep.add_argument(
        "--dry-run", action="store_true",
        help="list the expanded points with run IDs and cached/pending state "
        "without executing anything",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    validate = subparsers.add_parser("validate", help="validate experiment spec files")
    validate.add_argument("specs", type=Path, nargs="+", help="spec files to check")
    validate.set_defaults(handler=_cmd_validate)

    imgclass = subparsers.add_parser("run-imgclass", help="run a classification campaign")
    imgclass.add_argument(
        "--model", choices=MODELS.names(kind="classifier"), default="lenet5"
    )
    imgclass.add_argument("--num-classes", type=int, default=10)
    imgclass.add_argument(
        "--protection", choices=["none", *PROTECTIONS.names()], default="none"
    )
    imgclass.add_argument("--model-seed", type=int, default=0)
    imgclass.add_argument("--data-seed", type=int, default=0)
    _add_common_campaign_arguments(imgclass)
    imgclass.set_defaults(handler=_cmd_run_imgclass)

    objdet = subparsers.add_parser("run-objdet", help="run an object-detection campaign")
    objdet.add_argument("--model", choices=MODELS.names(kind="detector"), default="yolov3")
    objdet.add_argument("--num-classes", type=int, default=5)
    objdet.add_argument("--model-seed", type=int, default=0)
    objdet.add_argument("--data-seed", type=int, default=0)
    _add_common_campaign_arguments(objdet)
    objdet.set_defaults(handler=_cmd_run_objdet)

    analyze = subparsers.add_parser("analyze", help="post-process a stored campaign")
    analyze.add_argument("--output-dir", type=Path, required=True)
    analyze.add_argument("--campaign", type=str, required=True, help="campaign (file prefix) name")
    analyze.add_argument("--kind", choices=("imgclass", "objdet"), default="imgclass")
    analyze.add_argument("--json-out", type=Path, default=None, help="write the analysis as JSON")
    analyze.set_defaults(handler=_cmd_analyze)

    from repro.lint.cli import add_lint_arguments

    lint = subparsers.add_parser(
        "lint", help="run the determinism/bit-exactness static analysis"
    )
    add_lint_arguments(lint)
    lint.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
