"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds and minutes while neighbours load its cores and
its disk.  The drift is common to all work of one kind in the process: a
fixed reference computation slows down and speeds up together with the
campaign.  So the benchmark times such a computation beside every timing it
reports and states the timing at the reference host speed by dividing it by

    host factor = mean calibration seconds / reference seconds

over the calibrations beside it (one calibration sample is as noisy as the
host; a mean of several tracks the drift).  There are two reference
computations, one for each kind of work:

* :func:`calibrate` is a tiny convolutional network in plain numpy (im2col
  matmul, ReLU, 2x2 max pool, a Python loop over layers), the mix of small
  BLAS calls, array temporaries and interpreter work a campaign step does.
  It is timed three times right before and three times right after every
  measured cold sweep, and in set-up; serial sweeps and set-up use it.
* :func:`calibrate_store` serialises a small JSON document, writes it
  atomically with ``fsync`` and reads it back, as the campaign store does
  when a sweep re-runs; its time follows the disk's contention as well as
  the cores'.  It is timed after each store re-run.

Sharded sweeps compute in forked workers that keep both cores busy with
their own BLAS threads; a calibration run on one core between sweeps does
not track them (their sweep times barely move with it), so their timings
are reported as measured.

Neither computation imports anything from ``repro``, so no change to the
program moves them; a faster campaign shows as a higher normalised
throughput exactly as it would unnormalised.  The reference seconds are the
computations' times on an uncontended 2-vCPU Intel Xeon (Haswell-class,
OpenBLAS 0.3.31, overlay file system): normalised figures read as the
figures that host gives when nothing else runs.  Every report keeps the raw
sweep and re-run timings and the calibrations beside the normalised values.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

REFERENCE_SECONDS = 0.0025  # calibrate()
REFERENCE_STORE_SECONDS = 0.0023  # calibrate_store()
REPEATS = 5  # network passes per calibration
STORE_REPEATS = 3  # store steps per calibration

_CHANNELS = (3, 8, 16, 32, 64, 64)
_rng = np.random.default_rng(0)
_WEIGHTS = [
    (_rng.standard_normal((c_in * 9, c_out)) * 0.1).astype(np.float32)
    for c_in, c_out in zip(_CHANNELS, _CHANNELS[1:])
]
_IMAGE = _rng.standard_normal((32, 32, 3)).astype(np.float32)
_DOCUMENT = {
    "points": [
        {
            "run_id": f"{index:016x}",
            "axes": {"scenario.layer_range": [index, index], "scenario.injection_target": "weights"},
            "kpis": {"sde": index / 7, "due": 0.5, "images": index},
            "files": {f"tag{tag}": f"file_{index}_{tag}.csv" for tag in range(8)},
        }
        for index in range(8)
    ]
}


def _network(x: np.ndarray) -> np.ndarray:
    for weight in _WEIGHTS:
        height, width, channels = x.shape
        padded = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(0, 1))
        y = np.maximum(windows.reshape(height * width, channels * 9) @ weight, 0)
        y = y.reshape(height, width, -1)
        x = y.reshape(height // 2, 2, width // 2, 2, -1).max(axis=(1, 3))
    return x


def _store_step(directory: Path) -> None:
    text = json.dumps(_DOCUMENT, sort_keys=True, indent=1)
    staging = directory / "calibration.tmp"
    with open(staging, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(staging, directory / "calibration.json")
    json.loads((directory / "calibration.json").read_text(encoding="utf-8"))


def host_factor(calibrations: list[float], reference: float = REFERENCE_SECONDS) -> float:
    """How many times slower than the reference speed the host ran."""
    return sum(calibrations) / len(calibrations) / reference


def calibrate() -> float:
    """Seconds the reference computation takes now (after one untimed pass
    that brings its data back into the caches)."""
    _network(_IMAGE)
    start = time.perf_counter()
    for _ in range(REPEATS):
        _network(_IMAGE)
    return time.perf_counter() - start


def calibrate_store(directory: Path) -> float:
    """Seconds the reference store step takes now, in ``directory``."""
    _store_step(directory)
    start = time.perf_counter()
    for _ in range(STORE_REPEATS):
        _store_step(directory)
    return time.perf_counter() - start
