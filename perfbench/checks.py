"""Correctness checks and the environment fingerprint of a benchmark run.

:func:`compare_stores` holds a measured sweep's committed points against the
naive reference sweep of the same seed, byte for byte.  A pair fails when its
golden or faulty record differs from the reference; a point fails when any
other file of it (KPIs, meta file, fault matrix, ground truth, applied-fault
log) differs; the sweep table counts as one more point-level check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

# Record streams holding one row per inference; the golden and faulty rows
# of image i together are pair i.
PAIR_TAGS = (("golden_csv", "corrupted_csv"), ("golden_json", "corrupted_json"))

BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Mismatches:
    """Failed operations found by one comparison."""

    pairs: int = 0
    points: int = 0
    details: list[str] = field(default_factory=list)


def _records(path: Path) -> list[str]:
    data = path.read_bytes()
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        return [json.dumps(row) for row in rows[1:]]
    return [json.dumps(item, sort_keys=True) for item in json.loads(data or b"[]")]


def _point_files(point_dir: Path) -> dict[str, str]:
    document = json.loads((point_dir / "point.json").read_text(encoding="utf-8"))
    return dict(document["files"])


def compare_stores(measured: Path, reference: Path, run_ids: list[str]) -> Mismatches:
    """Compare every point in ``run_ids`` and the sweep tables of two stores."""
    found = Mismatches()
    for run_id in run_ids:
        ours, theirs = measured / run_id, reference / run_id
        files, ref_files = _point_files(ours), _point_files(theirs)
        point_ok = set(files) == set(ref_files)
        if not point_ok:
            found.details.append(f"{run_id}: file tags {sorted(files)} != {sorted(ref_files)}")
        pair_tags = {tag for tags in PAIR_TAGS for tag in tags}
        for tag in sorted(set(files) & set(ref_files) - pair_tags):
            if (ours / files[tag]).read_bytes() != (theirs / ref_files[tag]).read_bytes():
                point_ok = False
                found.details.append(f"{run_id}: {files[tag]} differs from the reference")
        for golden_tag, faulty_tag in PAIR_TAGS:
            if golden_tag not in ref_files:
                continue
            lanes = []
            for tag in (golden_tag, faulty_tag):
                mine = ours / files[tag] if tag in files else None
                ref = theirs / ref_files[tag]
                if mine is not None and mine.read_bytes() == ref.read_bytes():
                    lanes.append(None)
                    continue
                lanes.append((_records(mine) if mine is not None else [], _records(ref)))
                if mine is not None and lanes[-1][0] == lanes[-1][1]:
                    point_ok = False  # same records, different bytes
                    found.details.append(f"{run_id}: {ref.name} formatting differs")
            bad = set()
            for lane in lanes:
                if lane is None:
                    continue
                mine_rows, ref_rows = lane
                for index in range(max(len(mine_rows), len(ref_rows))):
                    row = mine_rows[index] if index < len(mine_rows) else None
                    if row != (ref_rows[index] if index < len(ref_rows) else None):
                        bad.add(index)
            if bad:
                found.pairs += len(bad)
                found.details.append(f"{run_id}: {len(bad)} pair record(s) differ")
        if not point_ok:
            found.points += 1
    for table in sorted(reference.glob("*_sweep_table.*")):
        mine = measured / table.name
        if not mine.is_file() or mine.read_bytes() != table.read_bytes():
            found.points += 1
            found.details.append(f"{table.name} differs from the reference")
    return found


# --------------------------------------------------------------------------- #
# environment fingerprint
# --------------------------------------------------------------------------- #
def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None}


def fingerprint(root: Path, seed: int) -> dict:
    """Where and on what the numbers were measured.

    The checkout the benchmark runs in need not be a git repository, so the
    digest of ``src/`` identifies the code when no commit is available.
    """
    import numpy as np

    return {
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {
            name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARIABLES
        },
    }
