"""Compact CNN architectures (MobileNet- and SqueezeNet-style).

One of the PyTorchALFI use cases is "comparing the robustness of different
types of NN".  Beyond the classic AlexNet/VGG/ResNet families these compact
architectures add two structurally different designs to the zoo:

* :class:`MobileNetLite` — depthwise-separable convolutions (grouped 3x3
  depthwise + 1x1 pointwise), where each weight participates in far fewer
  MACs than in a dense convolution;
* :class:`SqueezeNetLite` — fire modules (1x1 squeeze followed by parallel
  1x1 / 3x3 expands) with no fully connected layers at all (the classifier is
  a 1x1 convolution followed by global average pooling).

Both use the same ``(N, 3, 32, 32)`` input convention as the rest of the zoo
and are valid targets for the fault injector (their conv layers are ordinary
``Conv2d`` modules).
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn import init
from repro.nn.module import Module


def _scaled(channels: int, width: float) -> int:
    """Scale a channel count by ``width`` keeping at least 4 channels."""
    return max(4, int(round(channels * width)))


class DepthwiseSeparableBlock(Module):
    """Depthwise 3x3 convolution followed by a pointwise 1x1 convolution."""

    def __init__(self, in_channels: int, out_channels: int, stride: int, rng: np.random.Generator):
        super().__init__()
        self.depthwise = nn.Conv2d(
            in_channels,
            in_channels,
            3,
            stride=stride,
            padding=1,
            groups=in_channels,
            bias=False,
            rng=rng,
        )
        self.bn1 = nn.BatchNorm2d(in_channels)
        self.relu1 = nn.ReLU()
        self.pointwise = nn.Conv2d(in_channels, out_channels, 1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(out_channels)
        self.relu2 = nn.ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.relu1(self.bn1(self.depthwise(x)))
        return self.relu2(self.bn2(self.pointwise(x)))


class MobileNetLite(Module):
    """MobileNet-v1-style classifier built from depthwise-separable blocks."""

    def __init__(self, num_classes: int = 10, width: float = 0.5, seed: int = 0):
        super().__init__()
        rng = init.make_rng(seed)
        c1 = _scaled(32, width)
        stages = [
            (_scaled(64, width), 1),
            (_scaled(128, width), 2),
            (_scaled(128, width), 1),
            (_scaled(256, width), 2),
            (_scaled(256, width), 1),
            (_scaled(512, width), 2),
        ]
        self.stem = nn.Sequential(
            nn.Conv2d(3, c1, 3, stride=1, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(c1),
            nn.ReLU(),
        )
        blocks = []
        in_channels = c1
        for out_channels, stride in stages:
            blocks.append(DepthwiseSeparableBlock(in_channels, out_channels, stride, rng))
            in_channels = out_channels
        self.blocks = nn.Sequential(*blocks)
        self.avgpool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(in_channels, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.stem(x)
        x = self.blocks(x)
        x = self.flatten(self.avgpool(x))
        return self.classifier(x)


class FireModule(Module):
    """SqueezeNet fire module: 1x1 squeeze, then parallel 1x1 and 3x3 expands."""

    def __init__(
        self,
        in_channels: int,
        squeeze_channels: int,
        expand_channels: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.squeeze = nn.Conv2d(in_channels, squeeze_channels, 1, rng=rng)
        self.squeeze_relu = nn.ReLU()
        self.expand1x1 = nn.Conv2d(squeeze_channels, expand_channels, 1, rng=rng)
        self.expand3x3 = nn.Conv2d(squeeze_channels, expand_channels, 3, padding=1, rng=rng)
        self.expand_relu = nn.ReLU()
        self.out_channels = expand_channels * 2

    def forward(self, x: np.ndarray) -> np.ndarray:
        squeezed = self.squeeze_relu(self.squeeze(x))
        expanded = np.concatenate(
            [self.expand1x1(squeezed), self.expand3x3(squeezed)], axis=1
        )
        return self.expand_relu(expanded)


class SqueezeNetLite(Module):
    """SqueezeNet-style classifier: fire modules and a conv classifier head.

    Note that the final :class:`~repro.nn.Linear` layer is a 1x1 convolution
    here, so the architecture has *no* fully connected layers — a structural
    difference that matters for layer-type-restricted fault campaigns.
    """

    def __init__(self, num_classes: int = 10, width: float = 0.5, seed: int = 0):
        super().__init__()
        rng = init.make_rng(seed)
        c1 = _scaled(64, width)
        self.stem = nn.Sequential(
            nn.Conv2d(3, c1, 3, stride=1, padding=1, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
        )
        fire1 = FireModule(c1, _scaled(16, width), _scaled(64, width), rng)
        fire2 = FireModule(fire1.out_channels, _scaled(16, width), _scaled(64, width), rng)
        fire3 = FireModule(fire2.out_channels, _scaled(32, width), _scaled(128, width), rng)
        self.fire1 = fire1
        self.fire2 = fire2
        self.pool = nn.MaxPool2d(2)
        self.fire3 = fire3
        # Classifier head: 1x1 conv to class scores, then global average pooling.
        self.class_conv = nn.Conv2d(fire3.out_channels, num_classes, 1, rng=rng)
        self.class_relu = nn.ReLU()
        self.avgpool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.num_classes = num_classes

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.stem(x)
        x = self.fire2(self.fire1(x))
        x = self.fire3(self.pool(x))
        x = self.class_relu(self.class_conv(x))
        return self.flatten(self.avgpool(x))


def mobilenet_lite(num_classes: int = 10, width: float = 0.5, seed: int = 0) -> MobileNetLite:
    """MobileNet-style classifier with depthwise-separable convolutions."""
    return MobileNetLite(num_classes=num_classes, width=width, seed=seed)


def squeezenet_lite(num_classes: int = 10, width: float = 0.5, seed: int = 0) -> SqueezeNetLite:
    """SqueezeNet-style classifier with fire modules and a conv classifier."""
    return SqueezeNetLite(num_classes=num_classes, width=width, seed=seed)
