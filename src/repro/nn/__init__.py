"""Numpy-backed neural-network substrate.

This subpackage stands in for PyTorch's ``torch.nn``.  It reproduces the
subset of the PyTorch module contract that PyTorchFI / PyTorchALFI rely on:

* :class:`~repro.nn.module.Module` with registered parameters and buffers,
  ``named_modules`` traversal, ``state_dict`` / ``load_state_dict`` and --
  crucially for neuron fault injection -- **forward hooks** that receive the
  layer output tensor and may modify it in place.
* The layer types the paper supports for fault injection (``Conv2d``,
  ``Conv3d``, ``Linear``) plus the auxiliary layers needed to build real
  CNN classifiers and detectors (pooling, batch norm, activations, upsample).
* ``Sequential`` / ``ModuleList`` containers and seeded weight initialisers
  so every model in the zoo is deterministic.
"""

from repro.nn import functional, init
from repro.nn.containers import ModuleList, Sequential
from repro.nn.layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Conv3d,
    Dropout,
    Flatten,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    Upsample,
)
from repro.nn.forward_plan import ActivationArena, ForwardPlan
from repro.nn.module import Module, Parameter, RemovableHandle

__all__ = [
    "ActivationArena",
    "AdaptiveAvgPool2d",
    "AvgPool2d",
    "ForwardPlan",
    "BatchNorm2d",
    "Conv2d",
    "Conv3d",
    "Dropout",
    "Flatten",
    "Identity",
    "LeakyReLU",
    "Linear",
    "MaxPool2d",
    "Module",
    "ModuleList",
    "Parameter",
    "ReLU",
    "RemovableHandle",
    "Sequential",
    "Sigmoid",
    "Softmax",
    "Tanh",
    "Upsample",
    "functional",
    "init",
]
