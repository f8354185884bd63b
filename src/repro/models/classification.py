"""Classification model zoo (AlexNet / VGG / ResNet / LeNet / MLP).

All models accept ``(N, 3, 32, 32)`` images by default (a CIFAR-like
resolution that keeps the pure-numpy convolutions fast) and expose a
``width`` multiplier so campaigns can trade fidelity for speed.  Layer
*structure* follows the original architectures: VGG-16 has its 13 conv +
3 linear layers, ResNet-50 its bottleneck blocks, AlexNet its 5 conv +
3 linear layers — which is what the per-layer and per-bit vulnerability
analyses of the paper exercise.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import nn
from repro.models.compact import mobilenet_lite, squeezenet_lite
from repro.nn import init
from repro.nn.module import Module


def _scaled(channels: int, width: float) -> int:
    """Scale a channel count by ``width`` keeping at least 4 channels."""
    return max(4, int(round(channels * width)))


class MLP(Module):
    """Small fully connected network, useful for fast unit tests."""

    def __init__(
        self,
        in_features: int = 3 * 32 * 32,
        hidden: tuple[int, ...] = (128, 64),
        num_classes: int = 10,
        seed: int = 0,
    ):
        super().__init__()
        rng = init.make_rng(seed)
        layers: list[Module] = [nn.Flatten()]
        previous = in_features
        for size in hidden:
            layers.append(nn.Linear(previous, size, rng=rng))
            layers.append(nn.ReLU())
            previous = size
        layers.append(nn.Linear(previous, num_classes, rng=rng))
        self.classifier = nn.Sequential(*layers)
        self.num_classes = num_classes

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.classifier(x)


class LeNet5(Module):
    """LeNet-5 style network: 2 conv layers + 3 linear layers."""

    def __init__(self, num_classes: int = 10, in_channels: int = 3, seed: int = 0):
        super().__init__()
        rng = init.make_rng(seed)
        self.features = nn.Sequential(
            nn.Conv2d(in_channels, 6, 5, padding=2, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(6, 16, 5, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
        )
        self.classifier = nn.Sequential(
            nn.Flatten(),
            nn.Linear(16 * 6 * 6, 120, rng=rng),
            nn.ReLU(),
            nn.Linear(120, 84, rng=rng),
            nn.ReLU(),
            nn.Linear(84, num_classes, rng=rng),
        )
        self.num_classes = num_classes

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.classifier(self.features(x))


class AlexNet(Module):
    """AlexNet-style network: 5 conv layers + 3 linear layers.

    The torchvision AlexNet geometry is preserved (channel progression
    64-192-384-256-256 scaled by ``width``), adapted to 32x32 inputs.
    """

    def __init__(self, num_classes: int = 10, width: float = 0.25, seed: int = 0):
        super().__init__()
        rng = init.make_rng(seed)
        c1, c2, c3, c4, c5 = (
            _scaled(64, width),
            _scaled(192, width),
            _scaled(384, width),
            _scaled(256, width),
            _scaled(256, width),
        )
        self.features = nn.Sequential(
            nn.Conv2d(3, c1, 3, stride=1, padding=1, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(c1, c2, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(c2, c3, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.Conv2d(c3, c4, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.Conv2d(c4, c5, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
        )
        self.avgpool = nn.AdaptiveAvgPool2d(2)
        hidden = _scaled(4096, width * 0.25)
        self.classifier = nn.Sequential(
            nn.Flatten(),
            nn.Dropout(0.5),
            nn.Linear(c5 * 2 * 2, hidden, rng=rng),
            nn.ReLU(),
            nn.Dropout(0.5),
            nn.Linear(hidden, hidden, rng=rng),
            nn.ReLU(),
            nn.Linear(hidden, num_classes, rng=rng),
        )
        self.num_classes = num_classes

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.features(x)
        x = self.avgpool(x)
        return self.classifier(x)


_VGG_CONFIGS: dict[str, list] = {
    # Numbers are conv output channels, "M" is a 2x2 max pool.
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M", 512, 512, 512, "M"],
}


class VGG(Module):
    """VGG-style network built from a conv/pool configuration string."""

    def __init__(
        self,
        config: str = "vgg16",
        num_classes: int = 10,
        width: float = 0.125,
        seed: int = 0,
    ):
        super().__init__()
        if config not in _VGG_CONFIGS:
            raise ValueError(f"unknown VGG config {config!r}; choose from {sorted(_VGG_CONFIGS)}")
        rng = init.make_rng(seed)
        layers: list[Module] = []
        in_channels = 3
        for item in _VGG_CONFIGS[config]:
            if item == "M":
                layers.append(nn.MaxPool2d(2))
            else:
                out_channels = _scaled(int(item), width)
                layers.append(nn.Conv2d(in_channels, out_channels, 3, padding=1, rng=rng))
                layers.append(nn.ReLU())
                in_channels = out_channels
        self.features = nn.Sequential(*layers)
        hidden = _scaled(4096, width * 0.125)
        self.classifier = nn.Sequential(
            nn.Flatten(),
            nn.Linear(in_channels, hidden, rng=rng),
            nn.ReLU(),
            nn.Dropout(0.5),
            nn.Linear(hidden, hidden, rng=rng),
            nn.ReLU(),
            nn.Linear(hidden, num_classes, rng=rng),
        )
        self.config = config
        self.num_classes = num_classes

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.classifier(self.features(x))


class BasicBlock(Module):
    """ResNet basic block: two 3x3 convs with an identity/projection shortcut."""

    expansion = 1

    def __init__(self, in_channels: int, channels: int, stride: int, rng: np.random.Generator):
        super().__init__()
        out_channels = channels * self.expansion
        self.conv1 = nn.Conv2d(in_channels, channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(channels)
        self.relu = nn.ReLU()
        self.conv2 = nn.Conv2d(channels, out_channels, 3, padding=1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.downsample = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                nn.BatchNorm2d(out_channels),
            )
        else:
            self.downsample = nn.Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        identity = self.downsample(x)
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return self.relu(out + identity)


class Bottleneck(Module):
    """ResNet bottleneck block (1x1 -> 3x3 -> 1x1) used by ResNet-50."""

    expansion = 4

    def __init__(self, in_channels: int, channels: int, stride: int, rng: np.random.Generator):
        super().__init__()
        out_channels = channels * self.expansion
        self.conv1 = nn.Conv2d(in_channels, channels, 1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(channels)
        self.conv2 = nn.Conv2d(channels, channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(channels)
        self.conv3 = nn.Conv2d(channels, out_channels, 1, bias=False, rng=rng)
        self.bn3 = nn.BatchNorm2d(out_channels)
        self.relu = nn.ReLU()
        if stride != 1 or in_channels != out_channels:
            self.downsample = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                nn.BatchNorm2d(out_channels),
            )
        else:
            self.downsample = nn.Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        identity = self.downsample(x)
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.relu(self.bn2(self.conv2(out)))
        out = self.bn3(self.conv3(out))
        return self.relu(out + identity)


class ResNet(Module):
    """ResNet built from a block type and per-stage block counts."""

    def __init__(
        self,
        block: type,
        layers: tuple[int, int, int, int],
        num_classes: int = 10,
        width: float = 0.25,
        seed: int = 0,
    ):
        super().__init__()
        rng = init.make_rng(seed)
        base = _scaled(64, width)
        self.stem = nn.Sequential(
            nn.Conv2d(3, base, 3, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(base),
            nn.ReLU(),
        )
        self.in_channels = base
        self.layer1 = self._make_stage(block, base, layers[0], 1, rng)
        self.layer2 = self._make_stage(block, base * 2, layers[1], 2, rng)
        self.layer3 = self._make_stage(block, base * 4, layers[2], 2, rng)
        self.layer4 = self._make_stage(block, base * 8, layers[3], 2, rng)
        self.avgpool = nn.AdaptiveAvgPool2d(1)
        self.fc = nn.Linear(self.in_channels, num_classes, rng=rng)
        self.flatten = nn.Flatten()
        self.num_classes = num_classes

    def _make_stage(
        self,
        block: type,
        channels: int,
        num_blocks: int,
        stride: int,
        rng: np.random.Generator,
    ) -> nn.Sequential:
        blocks = []
        for index in range(num_blocks):
            block_stride = stride if index == 0 else 1
            blocks.append(block(self.in_channels, channels, block_stride, rng))
            self.in_channels = channels * block.expansion
        return nn.Sequential(*blocks)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.stem(x)
        x = self.layer1(x)
        x = self.layer2(x)
        x = self.layer3(x)
        x = self.layer4(x)
        x = self.avgpool(x)
        x = self.flatten(x)
        return self.fc(x)


# --------------------------------------------------------------------------- #
# factory functions
# --------------------------------------------------------------------------- #
def mlp(num_classes: int = 10, seed: int = 0) -> MLP:
    """Small MLP classifier (fast; used heavily in the test suite)."""
    return MLP(num_classes=num_classes, seed=seed)


def lenet5(num_classes: int = 10, seed: int = 0) -> LeNet5:
    """LeNet-5 style CNN."""
    return LeNet5(num_classes=num_classes, seed=seed)


def alexnet(num_classes: int = 10, width: float = 0.25, seed: int = 0) -> AlexNet:
    """AlexNet-style CNN (5 conv + 3 linear layers)."""
    return AlexNet(num_classes=num_classes, width=width, seed=seed)


def vgg11(num_classes: int = 10, width: float = 0.125, seed: int = 0) -> VGG:
    """VGG-11 style CNN."""
    return VGG("vgg11", num_classes=num_classes, width=width, seed=seed)


def vgg16(num_classes: int = 10, width: float = 0.125, seed: int = 0) -> VGG:
    """VGG-16 style CNN (13 conv + 3 linear layers, as in the paper)."""
    return VGG("vgg16", num_classes=num_classes, width=width, seed=seed)


def resnet18(num_classes: int = 10, width: float = 0.25, seed: int = 0) -> ResNet:
    """ResNet-18 with basic blocks."""
    return ResNet(BasicBlock, (2, 2, 2, 2), num_classes=num_classes, width=width, seed=seed)


def resnet50(num_classes: int = 10, width: float = 0.125, seed: int = 0) -> ResNet:
    """ResNet-50 with bottleneck blocks (as evaluated in the paper)."""
    return ResNet(Bottleneck, (3, 4, 6, 3), num_classes=num_classes, width=width, seed=seed)


# The compact architectures (mobilenet/squeezenet) live in their own module;
# listing them here keeps build_model() the single entry point for every
# classifier family.
MODEL_REGISTRY: dict[str, Callable[..., Module]] = {
    "mlp": mlp,
    "lenet5": lenet5,
    "alexnet": alexnet,
    "vgg11": vgg11,
    "vgg16": vgg16,
    "resnet18": resnet18,
    "resnet50": resnet50,
    "mobilenet": mobilenet_lite,
    "squeezenet": squeezenet_lite,
}


def build_model(name: str, **kwargs) -> Module:
    """Build a classification model by registry name.

    Args:
        name: one of ``MODEL_REGISTRY`` keys (e.g. ``"vgg16"``).
        **kwargs: forwarded to the model factory (``num_classes``, ``width``,
            ``seed``).

    Raises:
        KeyError: for unknown model names.
    """
    if name not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[name](**kwargs)
