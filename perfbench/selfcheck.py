"""Smoke self-check of the benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/selfcheck.py

Runs every workload at the tiny size, untraced and traced, and asserts that

* each run exits 0 and reports ``correct`` with nothing failed;
* every metric ``BENCHMARK.json`` names is printed, with the unit it declares
  (end-to-end metrics untraced, per-layer metrics traced), and the metric
  tables in ``layers.py`` match ``BENCHMARK.json``;
* every span of the traced run lies inside its parent, worker spans
  included, and no self time is negative.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import END_TO_END, PER_LAYER  # noqa: E402
from tracing import nesting_violations, read_spans, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
TOLERANCE = 1e-6  # seconds; float rounding of perf_counter differences


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _check_metrics(result: dict, declared: list[dict], where: str) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    for metric in declared:
        printed = result["metrics"].get(metric["name"])
        if printed is None:
            problems.append(f"{where}: {metric['name']} not printed")
        elif printed["unit"] != metric["unit"]:
            problems.append(f"{where}: {metric['name']} unit {printed['unit']!r} "
                            f"!= declared {metric['unit']!r}")
        elif not isinstance(printed["value"], (int, float)):
            problems.append(f"{where}: {metric['name']} value {printed['value']!r}")
    return problems


def _check_spans(workload: str) -> list[str]:
    spans = read_spans(ROOT / ".perfbench_out" / f"{workload}-seed{SEED}.spans.jsonl.gz")
    problems = [f"{workload}: {problem}" for problem in nesting_violations(spans, TOLERANCE)]
    negative = [value for value in self_times(spans).values() if value < -TOLERANCE]
    if negative:
        problems.append(f"{workload}: {len(negative)} negative self times")
    if workload == "yolov3_sweep_sharded" and not any(s[2] == "shard.worker" for s in spans):
        problems.append(f"{workload}: no spans came back from the shard workers")
    return problems


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        mine = [(name, unit, better) for name, unit, better in table]
        theirs = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        if mine != theirs:
            problems.append(f"BENCHMARK.json {key} does not match layers.py")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match workloads.py")
    for workload in WORKLOADS:
        problems += _check_metrics(_run(workload, 0), declared["end_to_end"],
                                   f"{workload} trace=0")
        problems += _check_metrics(_run(workload, 1), declared["per_layer"],
                                   f"{workload} trace=1")
        problems += _check_spans(workload)
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
