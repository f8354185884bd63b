"""Campaign helpers shared by the test suite and the benchmark harness.

:func:`run_campaign` runs one campaign on pre-built objects through the
Experiment API (``run(spec, Artifacts(...))``); :func:`assert_same_campaign`
compares two classification runs bit for bit.  Test modules import this
module as ``campaign_support`` (pytest puts ``tests/`` on ``sys.path``);
``benchmarks/conftest.py`` imports it as ``tests.campaign_support``.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments import (
    Artifacts,
    BackendSpec,
    CachingSpec,
    CampaignResult,
    ComponentSpec,
    ExperimentSpec,
    run,
)

#: ``collect_outputs`` values of a classification run: buffered logits with
#: logit-based KPIs, and streaming with KPIs from the merged counters.
OUTPUT_MODES = (True, False)


def run_campaign(
    model,
    dataset,
    scenario,
    *,
    task: str = "classification",
    resil_model=None,
    output_dir=None,
    workers: int = 1,
    num_shards: int | None = None,
    prefix_reuse: bool = True,
    golden_cache=None,
    error_model=None,
    num_classes: int | None = None,
    collect_outputs: bool = True,
    dl_shuffle: bool = False,
    input_shape: tuple[int, ...] | None = None,
) -> CampaignResult:
    """Run one campaign on pre-built objects with ``run(spec, Artifacts(...))``.

    The spec is named after the scenario's ``model_name`` (which also names
    the result files); any sharding request selects the sharded backend.
    ``collect_outputs=False`` runs a classification campaign in streaming
    mode (``task_options["collect_outputs"]``).
    """
    sharded = workers > 1 or (num_shards or 1) > 1
    spec = ExperimentSpec(
        name=scenario.model_name,
        task=task,
        model=ComponentSpec(scenario.model_name),
        dataset=ComponentSpec("in-memory"),
        scenario=scenario,
        backend=BackendSpec(
            "sharded" if sharded else "serial", workers=workers, num_shards=num_shards
        ),
        caching=CachingSpec(prefix_reuse=prefix_reuse),
        input_shape=input_shape,
        dl_shuffle=dl_shuffle,
        task_options={} if collect_outputs else {"collect_outputs": False},
        output_dir=output_dir,
    )
    artifacts = Artifacts(
        model=model.eval(),
        resil_model=resil_model.eval() if resil_model is not None else None,
        dataset=dataset,
        golden_cache=golden_cache,
        error_model=error_model,
        num_classes=num_classes,
    )
    return run(spec, artifacts)


def campaign_kpis(result: CampaignResult) -> dict:
    """KPIs and aggregate counters of a classification run, without file paths."""
    state = result.state
    return {
        **{tag: kpis for tag, kpis in result.summary.items() if tag != "output_files"},
        "inferences": state.inferences,
        "groups": state.groups,
        "applied_faults": state.applied_faults,
        "golden_top1_hits": state.golden_top1_hits,
        "golden_top5_hits": state.golden_top5_hits,
        "corrupted_top1_hits": state.corrupted_top1_hits,
        "outcomes": dict(state.outcomes),
    }


def assert_same_campaign(first: CampaignResult, second: CampaignResult) -> None:
    """Two classification runs agree on KPIs, counters and outputs bit for bit.

    Buffered runs also compare their raw logits, labels and DUE flags (a
    streaming run has no ``extras``); when both runs wrote a KPI file, the
    files are compared too.
    """
    assert campaign_kpis(first) == campaign_kpis(second)
    assert first.extras.keys() == second.extras.keys()
    for key, a in first.extras.items():
        b = second.extras[key]
        assert (a is None) == (b is None), key
        if a is not None:
            assert a.tobytes() == b.tobytes(), key
    if "kpis" in first.output_files and "kpis" in second.output_files:
        first_kpis = Path(first.output_files["kpis"]).read_bytes()
        assert first_kpis == Path(second.output_files["kpis"]).read_bytes()
