"""Kernel table kept for the per-layer tracer of the campaign benchmark.

Forward plans run every segment as an ordinary module call, so nothing in
the package reads this table.  ``perfbench/tracing.py`` still patches
``_KERNELS["bias_add"]`` when it installs its tracers, and a missing target
would make every traced benchmark run fail; the table stays until that
tracer row is dropped.
"""

from __future__ import annotations


def _bias_add(module, x):
    bias = module.bias.data
    if x.ndim == 2:
        return x + bias
    return x + bias.reshape((1, -1) + (1,) * (x.ndim - 2))


_KERNELS = {"bias_add": _bias_add}
