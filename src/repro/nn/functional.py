"""Functional (stateless) neural-network operations.

All operations work on numpy arrays with the PyTorch layout conventions:
images are ``(N, C, H, W)``, volumes are ``(N, C, D, H, W)`` and linear
inputs are ``(N, features)``.  Convolutions unfold patches with im2col and
run one BLAS GEMM (``np.dot``) per call, and max pooling is a running
``np.maximum`` over strided taps; this keeps the pure-python substrate fast
enough for fault injection campaigns.

Every kernel's result bits are part of the campaign contract: prefix reuse,
the golden cache and sharding must reproduce them exactly
(``docs/forward-plans.md``), so a rewrite of a kernel here must keep its
bytes, operand layouts included.
"""

from __future__ import annotations

import numpy as np


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _pair(value: int | tuple[int, int]) -> tuple[int, int]:
    """Normalise an int-or-pair argument to a pair."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _triple(value: int | tuple[int, int, int]) -> tuple[int, int, int]:
    """Normalise an int-or-triple argument to a triple."""
    if isinstance(value, (tuple, list)):
        if len(value) != 3:
            raise ValueError(f"expected a triple, got {value!r}")
        return int(value[0]), int(value[1]), int(value[2])
    return int(value), int(value), int(value)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def _pad2d(x: np.ndarray, ph: int, pw: int, fill: float) -> np.ndarray:
    """Constant-pad the two trailing axes of ``(N, C, H, W)`` by ``(ph, pw)``.

    A filled buffer plus one slice assignment: the same bytes as
    ``np.pad(..., constant_values=fill)`` without its per-call overhead.
    """
    n, c, h, w = x.shape
    padded = np.full((n, c, h + 2 * ph, w + 2 * pw), fill, dtype=x.dtype)
    padded[:, :, ph : ph + h, pw : pw + w] = x
    return padded


def im2col(
    images: np.ndarray,
    kernel_size: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> tuple[np.ndarray, int, int]:
    """Unfold image patches into columns for matmul-based convolution.

    Args:
        images: input of shape ``(N, C, H, W)``.
        kernel_size: ``(kh, kw)``.
        stride: ``(sh, sw)``.
        padding: ``(ph, pw)`` zero padding.

    Returns:
        A tuple ``(columns, out_h, out_w)`` where ``columns`` has shape
        ``(N, C * kh * kw, out_h * out_w)``.
    """
    n, c, h, w = images.shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)

    if ph or pw:
        images = _pad2d(images, ph, pw, 0.0)

    # Strided view over all (kh, kw) patches.
    stride_n, stride_c, stride_h, stride_w = images.strides
    patches = np.lib.stride_tricks.as_strided(
        images,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(stride_n, stride_c, stride_h * sh, stride_w * sw, stride_h, stride_w),
        writeable=False,
    )
    columns = patches.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(columns), out_h, out_w


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
    groups: int = 1,
) -> np.ndarray:
    """2D convolution with optional channel groups.

    Args:
        x: input of shape ``(N, C_in, H, W)``.
        weight: kernel of shape ``(C_out, C_in / groups, kh, kw)``.
        bias: optional per-output-channel bias of shape ``(C_out,)``.
        stride: stride as int or pair.
        padding: zero padding as int or pair.
        groups: number of channel groups; ``groups == C_in`` gives a
            depthwise convolution (MobileNet-style).

    Returns:
        Output of shape ``(N, C_out, H_out, W_out)``.
    """
    x = np.asarray(x, dtype=np.float32)
    weight = np.asarray(weight, dtype=np.float32)
    if x.ndim != 4:
        raise ValueError(f"conv2d expects 4D input (N, C, H, W), got shape {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d expects 4D weight (O, I, kh, kw), got shape {weight.shape}")
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups}")
    if x.shape[1] != weight.shape[1] * groups:
        raise ValueError(
            f"input channels ({x.shape[1]}) do not match weight channels "
            f"({weight.shape[1]}) * groups ({groups})"
        )
    if weight.shape[0] % groups != 0:
        raise ValueError(
            f"output channels ({weight.shape[0]}) must be divisible by groups ({groups})"
        )

    if groups > 1:
        in_per_group = x.shape[1] // groups
        out_per_group = weight.shape[0] // groups
        group_outputs = []
        for group in range(groups):
            group_input = x[:, group * in_per_group : (group + 1) * in_per_group]
            group_weight = weight[group * out_per_group : (group + 1) * out_per_group]
            group_outputs.append(conv2d(group_input, group_weight, None, stride, padding))
        output = np.concatenate(group_outputs, axis=1)
        if bias is not None:
            output += np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1)
        return output

    n = x.shape[0]
    out_channels, _, kh, kw = weight.shape
    columns, out_h, out_w = im2col(x, (kh, kw), _pair(stride), _pair(padding))
    features, positions = columns.shape[1], columns.shape[2]
    kernel_matrix = weight.reshape(out_channels, -1)
    if features == 1:
        # A contraction of size 1 is no GEMM: einsum multiplies elementwise
        # with its own signed-zero handling, which differs between numpy
        # releases, so only einsum itself reproduces it.
        output = np.einsum("of,nfp->nop", kernel_matrix, columns, optimize=True)
    else:
        # The single GEMM einsum("of,nfp->nop") performs, called directly.
        # The operand layouts pick the BLAS kernel and so the result bits:
        # the left operand is F-ordered when n == 1 and a C-order copy when
        # n > 1, the layouts einsum hands to BLAS.
        output = np.dot(columns.transpose(0, 2, 1).reshape(n * positions, features),
                        kernel_matrix.T)
        # A view of the GEMM result, channels fastest in memory (docs/forward-plans.md).
        output = output.reshape(n, positions, out_channels).transpose(0, 2, 1)
    output = output.reshape(n, out_channels, out_h, out_w)
    if bias is not None:
        output += np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1)
    return output


def conv3d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int | tuple[int, int, int] = 1,
    padding: int | tuple[int, int, int] = 0,
) -> np.ndarray:
    """3D convolution over volumes of shape ``(N, C, D, H, W)``.

    Implemented by looping over the (small) kernel depth and reusing the
    2D im2col path, which is accurate and fast enough for the small conv3d
    layers used in the test models.
    """
    x = np.asarray(x, dtype=np.float32)
    weight = np.asarray(weight, dtype=np.float32)
    if x.ndim != 5:
        raise ValueError(f"conv3d expects 5D input (N, C, D, H, W), got shape {x.shape}")
    if weight.ndim != 5:
        raise ValueError(f"conv3d expects 5D weight (O, I, kd, kh, kw), got {weight.shape}")
    n, c, d, h, w = x.shape
    out_channels, in_channels, kd, kh, kw = weight.shape
    if c != in_channels:
        raise ValueError(f"input channels ({c}) do not match weight channels ({in_channels})")
    sd, sh, sw = _triple(stride)
    pd, ph, pw = _triple(padding)
    out_d = conv_output_size(d, kd, sd, pd)

    if pd:
        x = np.pad(x, ((0, 0), (0, 0), (pd, pd), (0, 0), (0, 0)), mode="constant")

    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    output = np.zeros((n, out_channels, out_d, out_h, out_w), dtype=np.float32)
    for od in range(out_d):
        accum = np.zeros((n, out_channels, out_h, out_w), dtype=np.float32)
        for kz in range(kd):
            plane = x[:, :, od * sd + kz, :, :]
            accum += conv2d(plane, weight[:, :, kz, :, :], None, (sh, sw), (ph, pw))
        output[:, :, od, :, :] = accum
    if bias is not None:
        output += np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1, 1)
    return output


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Fully connected layer ``y = x @ W.T + b``.

    Args:
        x: input of shape ``(N, in_features)``.
        weight: weight of shape ``(out_features, in_features)``.
        bias: optional bias of shape ``(out_features,)``.
    """
    x = np.asarray(x, dtype=np.float32)
    weight = np.asarray(weight, dtype=np.float32)
    if x.ndim != 2:
        raise ValueError(f"linear expects 2D input (N, features), got shape {x.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"input features ({x.shape[1]}) do not match weight in_features ({weight.shape[1]})"
        )
    output = x @ weight.T
    if bias is not None:
        output = output + np.asarray(bias, dtype=np.float32)
    return output.astype(np.float32)


# --------------------------------------------------------------------------- #
# activations
# --------------------------------------------------------------------------- #
def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(x, dtype=np.float32), 0.0)


def leaky_relu(x: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    """Leaky ReLU with configurable negative slope."""
    x = np.asarray(x, dtype=np.float32)
    return np.where(x >= 0, x, negative_slope * x).astype(np.float32)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    x = np.asarray(x, dtype=np.float32)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(np.asarray(x, dtype=np.float32))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    The input is made contiguous first: numpy reductions block by memory
    layout, so canonicalising keeps the result independent of the input's
    strides (see ``docs/forward-plans.md``).
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log of softmax, computed stably (layout-canonical, like :func:`softmax`)."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


# --------------------------------------------------------------------------- #
# pooling and resampling
# --------------------------------------------------------------------------- #
def max_pool2d(
    x: np.ndarray,
    kernel_size: int | tuple[int, int],
    stride: int | tuple[int, int] | None = None,
    padding: int | tuple[int, int] = 0,
) -> np.ndarray:
    """Max pooling over ``(N, C, H, W)`` inputs."""
    return _pool2d(x, kernel_size, stride, padding, mode="max")


def avg_pool2d(
    x: np.ndarray,
    kernel_size: int | tuple[int, int],
    stride: int | tuple[int, int] | None = None,
    padding: int | tuple[int, int] = 0,
) -> np.ndarray:
    """Average pooling over ``(N, C, H, W)`` inputs."""
    return _pool2d(x, kernel_size, stride, padding, mode="avg")


def _pool2d(x, kernel_size, stride, padding, mode: str) -> np.ndarray:
    """Vectorized pooling; :func:`_pool2d_reference` is its oracle.

    ``mode="max"`` is a running ``np.maximum`` over the ``kh * kw`` strided
    taps ``x[:, :, i::sh, j::sw]``, taken in row-major window order: one
    elementwise pass per tap, whose result does not depend on the input's
    memory layout.  A NaN anywhere in a window propagates, with the bits of
    the first NaN tap.

    ``mode="avg"`` reduces ``sliding_window_view(...).mean`` over each
    window.  Its summation order defines its bits, so the input is made
    contiguous first and the result does not depend on the input's layout.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4:
        raise ValueError(f"pooling expects 4D input, got shape {x.shape}")
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    if mode == "max":
        if ph or pw:
            x = _pad2d(x, ph, pw, -np.inf)
        span_h, span_w = sh * (out_h - 1) + 1, sw * (out_w - 1) + 1
        taps = [
            x[:, :, i : i + span_h : sh, j : j + span_w : sw] for i in range(kh) for j in range(kw)
        ]
        output = taps[0].copy()
        for tap in taps[1:]:
            np.maximum(output, tap, out=output)
        return output
    x = np.ascontiguousarray(x)
    if ph or pw:
        x = _pad2d(x, ph, pw, 0.0)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw]
    assert windows.shape[2] == out_h and windows.shape[3] == out_w
    return windows.mean(axis=(4, 5)).astype(np.float32)


def _pool2d_reference(x, kernel_size, stride, padding, mode: str) -> np.ndarray:
    """Naive per-window pooling loop (correctness oracle for :func:`_pool2d`)."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 4:
        raise ValueError(f"pooling expects 4D input, got shape {x.shape}")
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    if ph or pw:
        fill = -np.inf if mode == "max" else 0.0
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)
    output = np.empty((n, c, out_h, out_w), dtype=np.float32)
    for i in range(out_h):
        for j in range(out_w):
            window = x[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
            if mode == "max":
                output[:, :, i, j] = window.max(axis=(2, 3))
            else:
                # Innermost-axis-first summation mirrors the reduction order
                # of ``mean(axis=(4, 5))`` on the window view, keeping the
                # reference bit-identical to the vectorized path.
                output[:, :, i, j] = window.sum(axis=3).sum(axis=2) / (kh * kw)
    return output


def adaptive_avg_pool2d(x: np.ndarray, output_size: int | tuple[int, int]) -> np.ndarray:
    """Adaptive average pooling to a fixed output size (layout-canonical)."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 4:
        raise ValueError(f"adaptive_avg_pool2d expects 4D input, got shape {x.shape}")
    out_h, out_w = _pair(output_size)
    n, c, h, w = x.shape
    output = np.zeros((n, c, out_h, out_w), dtype=np.float32)
    for i in range(out_h):
        h0 = (i * h) // out_h
        h1 = max(((i + 1) * h + out_h - 1) // out_h, h0 + 1)
        for j in range(out_w):
            w0 = (j * w) // out_w
            w1 = max(((j + 1) * w + out_w - 1) // out_w, w0 + 1)
            output[:, :, i, j] = x[:, :, h0:h1, w0:w1].mean(axis=(2, 3))
    return output


def upsample_nearest(x: np.ndarray, scale_factor: int) -> np.ndarray:
    """Nearest-neighbour upsampling by an integer factor."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4:
        raise ValueError(f"upsample expects 4D input, got shape {x.shape}")
    factor = int(scale_factor)
    if factor < 1:
        raise ValueError(f"scale_factor must be >= 1, got {scale_factor}")
    return x.repeat(factor, axis=2).repeat(factor, axis=3)


# --------------------------------------------------------------------------- #
# normalisation
# --------------------------------------------------------------------------- #
def batch_norm2d(
    x: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    weight: np.ndarray | None = None,
    bias: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Inference-mode batch normalisation over ``(N, C, H, W)`` inputs."""
    x = np.asarray(x, dtype=np.float32)
    mean = np.asarray(running_mean, dtype=np.float32).reshape(1, -1, 1, 1)
    var = np.asarray(running_var, dtype=np.float32).reshape(1, -1, 1, 1)
    normalized = (x - mean) / np.sqrt(var + eps)
    if weight is not None:
        normalized = normalized * np.asarray(weight, dtype=np.float32).reshape(1, -1, 1, 1)
    if bias is not None:
        normalized = normalized + np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1)
    return normalized.astype(np.float32)


def flatten(x: np.ndarray, start_dim: int = 1) -> np.ndarray:
    """Flatten all dimensions from ``start_dim`` onwards."""
    x = np.asarray(x)
    shape = x.shape[:start_dim] + (-1,)
    return x.reshape(shape)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy loss between logits ``(N, classes)`` and int targets."""
    logits = np.asarray(logits, dtype=np.float32)
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=1)
    picked = log_probs[np.arange(len(targets)), targets]
    return float(-picked.mean())
