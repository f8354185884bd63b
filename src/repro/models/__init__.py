"""Model zoo used in the fault injection experiments.

The paper evaluates PyTorchALFI on torchvision classification models
(AlexNet, VGG-16, ResNet-50) and on object detectors (YoloV3, RetinaNet,
Faster-RCNN).  Since no pre-trained weights can be downloaded offline, the
zoo provides architecture-faithful, deterministically-initialised and
optionally width-scaled variants of the same families:

* classification: :func:`lenet5`, :func:`alexnet`, :func:`vgg11`,
  :func:`vgg16`, :func:`resnet18`, :func:`resnet50`, :func:`mlp`
* detection (see :mod:`repro.models.detection`): ``yolov3_tiny``,
  ``retinanet_lite``, ``faster_rcnn_lite``

What matters for the fault injection study is the architecture *shape*
(number and relative size of conv/linear layers, activation/normalisation
placement), which these models reproduce.
"""

from repro.models.classification import (
    MODEL_REGISTRY,
    AlexNet,
    LeNet5,
    MLP,
    ResNet,
    VGG,
    alexnet,
    build_model,
    lenet5,
    mlp,
    resnet18,
    resnet50,
    vgg11,
    vgg16,
)
from repro.models.compact import (
    MobileNetLite,
    SqueezeNetLite,
    mobilenet_lite,
    squeezenet_lite,
)

__all__ = [
    "MODEL_REGISTRY",
    "AlexNet",
    "LeNet5",
    "MLP",
    "MobileNetLite",
    "ResNet",
    "SqueezeNetLite",
    "VGG",
    "alexnet",
    "build_model",
    "lenet5",
    "mlp",
    "mobilenet_lite",
    "resnet18",
    "resnet50",
    "squeezenet_lite",
    "vgg11",
    "vgg16",
]
