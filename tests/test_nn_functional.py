"""Unit tests for the functional operations (conv, pooling, activations)."""

import numpy as np
import pytest

from repro.experiments import MODELS
from repro.nn import ForwardPlan, functional as F


def naive_conv2d(x, weight, bias, stride, padding):
    """Straightforward quadruple-loop reference convolution."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    x_padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, out_h, out_w), dtype=np.float64)
    for ni in range(n):
        for oc in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x_padded[ni, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[ni, oc, i, j] = np.sum(patch * weight[oc])
            if bias is not None:
                out[ni, oc] += bias[oc]
    return out.astype(np.float32)


# --------------------------------------------------------------------------- #
# Byte-level oracles: the einsum / np.pad / sliding-window kernels that the
# GEMM, pad-free im2col and strided-tap max-pool implementations replaced.
# The production kernels must reproduce their bytes and output layouts.
# --------------------------------------------------------------------------- #
def oracle_im2col(images, kernel_size, stride, padding):
    n, c, h, w = images.shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    out_h = F.conv_output_size(h, kh, sh, ph)
    out_w = F.conv_output_size(w, kw, sw, pw)
    if ph or pw:
        images = np.pad(images, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    stride_n, stride_c, stride_h, stride_w = images.strides
    patches = np.lib.stride_tricks.as_strided(
        images,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(stride_n, stride_c, stride_h * sh, stride_w * sw, stride_h, stride_w),
        writeable=False,
    )
    columns = patches.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(columns), out_h, out_w


def oracle_conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
    x = np.asarray(x, dtype=np.float32)
    weight = np.asarray(weight, dtype=np.float32)
    if groups > 1:
        in_per_group = x.shape[1] // groups
        out_per_group = weight.shape[0] // groups
        group_outputs = []
        for group in range(groups):
            group_input = x[:, group * in_per_group : (group + 1) * in_per_group]
            group_weight = weight[group * out_per_group : (group + 1) * out_per_group]
            group_outputs.append(oracle_conv2d(group_input, group_weight, None, stride, padding))
        output = np.concatenate(group_outputs, axis=1)
        if bias is not None:
            output += np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1)
        return output.astype(np.float32)
    out_channels, _, kh, kw = weight.shape
    columns, out_h, out_w = oracle_im2col(x, (kh, kw), F._pair(stride), F._pair(padding))
    kernel_matrix = weight.reshape(out_channels, -1)
    output = np.einsum("of,nfp->nop", kernel_matrix, columns, optimize=True)
    output = output.reshape(x.shape[0], out_channels, out_h, out_w)
    if bias is not None:
        output += np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1)
    return output.astype(np.float32)


def oracle_max_pool2d(x, kernel_size, stride=None, padding=0):
    x = np.ascontiguousarray(x, dtype=np.float32)
    kh, kw = F._pair(kernel_size)
    sh, sw = F._pair(stride) if stride is not None else (kh, kw)
    ph, pw = F._pair(padding)
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return windows[:, :, ::sh, ::sw].max(axis=(4, 5)).astype(np.float32)


ORACLE_KERNELS = {
    "im2col": oracle_im2col,
    "conv2d": oracle_conv2d,
    "max_pool2d": oracle_max_pool2d,
}


def use_oracle_kernels(monkeypatch):
    for name, kernel in ORACLE_KERNELS.items():
        monkeypatch.setattr(F, name, kernel)


def assert_same_array(actual, expected):
    """Equal shape, dtype, memory layout and bytes (-0.0 != 0.0, NaN bits count).

    The stride of an axis of length 1 is never used, so it is not compared.
    """
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    used = [i for i, size in enumerate(actual.shape) if size > 1]
    assert [actual.strides[i] for i in used] == [expected.strides[i] for i in used]
    assert actual.tobytes() == expected.tobytes()


def with_specials(values, rng):
    """Sprinkle signed zeros, infinities and NaNs over a float32 array."""
    values = values.copy()
    draw = rng.random(values.shape)
    values[draw < 0.1] = 0.0
    values[(draw >= 0.1) & (draw < 0.2)] = -0.0
    values[(draw >= 0.2) & (draw < 0.22)] = np.inf
    values[(draw >= 0.22) & (draw < 0.24)] = -np.inf
    values[(draw >= 0.24) & (draw < 0.26)] = np.nan
    return values


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((2, 2), (1, 1)), ((1, 2), (2, 0))])
    def test_matches_naive_reference(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 9)).astype(np.float32)
        weight = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        bias = rng.normal(size=(4,)).astype(np.float32)
        expected = naive_conv2d(x, weight, bias, stride, padding)
        actual = F.conv2d(x, weight, bias, stride, padding)
        np.testing.assert_allclose(actual, expected, rtol=1e-4, atol=1e-5)

    def test_no_bias(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        weight = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        expected = naive_conv2d(x, weight, None, (1, 1), (0, 0))
        np.testing.assert_allclose(F.conv2d(x, weight), expected, rtol=1e-4, atol=1e-5)

    def test_output_shape(self):
        x = np.zeros((2, 3, 32, 32), dtype=np.float32)
        weight = np.zeros((8, 3, 3, 3), dtype=np.float32)
        out = F.conv2d(x, weight, stride=2, padding=1)
        assert out.shape == (2, 8, 16, 16)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(np.zeros((1, 3, 8, 8)), np.zeros((4, 2, 3, 3)))

    def test_wrong_rank_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(np.zeros((3, 8, 8)), np.zeros((4, 3, 3, 3)))

    def test_too_large_kernel_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 6, 6)))

    def test_identity_kernel(self):
        x = np.random.default_rng(2).normal(size=(1, 1, 6, 6)).astype(np.float32)
        weight = np.zeros((1, 1, 1, 1), dtype=np.float32)
        weight[0, 0, 0, 0] = 1.0
        np.testing.assert_allclose(F.conv2d(x, weight), x)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestConv2dOracle:
    """conv2d reproduces the einsum kernel's bytes and output layout."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize(
        "c_in,c_out,kernel,stride,padding,groups",
        [
            (3, 4, 3, 1, 0, 1),
            (3, 8, 3, 2, 1, 1),
            (5, 6, (2, 3), (1, 2), (2, 0), 1),
            (4, 4, 1, 1, 0, 1),
            (1, 5, 3, 1, 1, 1),
            (1, 3, 1, 1, 0, 1),  # contraction of size 1
            (1, 3, 1, 2, 1, 1),
            (4, 6, 3, 1, 1, 2),
            (6, 6, 3, 2, 1, 6),  # depthwise: every group contracts 9 values
            (4, 4, 1, 1, 0, 4),  # depthwise 1x1: every group contracts 1 value
        ],
    )
    def test_matches_einsum_oracle(
        self, n, with_bias, c_in, c_out, kernel, stride, padding, groups
    ):
        rng = np.random.default_rng(n * 100 + c_in * 10 + c_out)
        kh, kw = F._pair(kernel)
        x = with_specials(rng.normal(size=(n, c_in, 9, 10)).astype(np.float32), rng)
        weight = rng.normal(size=(c_out, c_in // groups, kh, kw)).astype(np.float32)
        weight[rng.random(weight.shape) < 0.2] = -0.0
        bias = rng.normal(size=(c_out,)).astype(np.float32) if with_bias else None
        expected = oracle_conv2d(x, weight, bias, stride, padding, groups)
        assert_same_array(F.conv2d(x, weight, bias, stride, padding, groups), expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_size_one_contraction_keeps_signed_zeros(self, n):
        # C_in=1 with a 1x1 kernel and no bias: the products alone decide the
        # sign of every zero in the output, which a BLAS GEMM gets wrong.
        rng = np.random.default_rng(20 + n)
        x = rng.choice(np.array([0.0, -0.0, 1.5, -2.0], dtype=np.float32), size=(n, 1, 5, 6))
        weight = np.array([[[[-0.0]]], [[[-1.0]]], [[[0.0]]], [[[2.0]]]], dtype=np.float32)
        expected = oracle_conv2d(x, weight)
        assert np.signbit(expected[expected == 0]).any()
        assert_same_array(F.conv2d(x, weight), expected)

    @pytest.mark.parametrize("n", [1, 2])
    def test_non_contiguous_input(self, n):
        rng = np.random.default_rng(30 + n)
        x = rng.normal(size=(n, 7, 8, 3)).astype(np.float32).transpose(0, 3, 1, 2)
        weight = rng.normal(size=(5, 3, 3, 3)).astype(np.float32)
        assert_same_array(F.conv2d(x, weight, None, 1, 1), oracle_conv2d(x, weight, None, 1, 1))

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_conv3d_through_conv2d(self, monkeypatch, n, with_bias):
        rng = np.random.default_rng(40 + n)
        x = with_specials(rng.normal(size=(n, 2, 4, 6, 6)).astype(np.float32), rng)
        weight = rng.normal(size=(3, 2, 2, 3, 3)).astype(np.float32)
        bias = rng.normal(size=(3,)).astype(np.float32) if with_bias else None
        actual = F.conv3d(x, weight, bias, stride=(1, 2, 1), padding=(1, 1, 0))
        use_oracle_kernels(monkeypatch)
        expected = F.conv3d(x, weight, bias, stride=(1, 2, 1), padding=(1, 1, 0))
        assert_same_array(actual, expected)

    @pytest.mark.parametrize("padding", [0, 1, (2, 1)])
    def test_im2col_matches_padded_oracle(self, padding):
        x = with_specials(np.random.default_rng(50).normal(size=(2, 3, 7, 6)).astype(np.float32),
                          np.random.default_rng(51))
        columns, out_h, out_w = F.im2col(x, (3, 2), (2, 1), F._pair(padding))
        expected, exp_h, exp_w = oracle_im2col(x, (3, 2), (2, 1), F._pair(padding))
        assert (out_h, out_w) == (exp_h, exp_w)
        assert_same_array(columns, expected)


class TestConv3d:
    def test_reduces_to_summed_conv2d(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 3, 6, 6)).astype(np.float32)
        weight = rng.normal(size=(4, 2, 1, 3, 3)).astype(np.float32)
        out3d = F.conv3d(x, weight)
        # kd=1 means each depth slice is an independent conv2d.
        for d in range(3):
            expected = F.conv2d(x[:, :, d], weight[:, :, 0])
            np.testing.assert_allclose(out3d[:, :, d], expected, rtol=1e-4, atol=1e-5)

    def test_output_shape(self):
        x = np.zeros((2, 3, 4, 8, 8), dtype=np.float32)
        weight = np.zeros((5, 3, 2, 3, 3), dtype=np.float32)
        out = F.conv3d(x, weight, padding=(0, 1, 1))
        assert out.shape == (2, 5, 3, 8, 8)

    def test_bias_added(self):
        x = np.zeros((1, 1, 2, 4, 4), dtype=np.float32)
        weight = np.zeros((2, 1, 1, 3, 3), dtype=np.float32)
        bias = np.array([1.5, -2.0], dtype=np.float32)
        out = F.conv3d(x, weight, bias)
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)


class TestLinear:
    def test_matches_matmul(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 7)).astype(np.float32)
        weight = rng.normal(size=(3, 7)).astype(np.float32)
        bias = rng.normal(size=(3,)).astype(np.float32)
        np.testing.assert_allclose(F.linear(x, weight, bias), x @ weight.T + bias, rtol=1e-5)

    def test_feature_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.linear(np.zeros((2, 5)), np.zeros((3, 4)))


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(F.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_leaky_relu(self):
        out = F.leaky_relu(np.array([-10.0, 5.0], dtype=np.float32), 0.1)
        np.testing.assert_allclose(out, [-1.0, 5.0])

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-20, 20, 41).astype(np.float32)
        s = F.sigmoid(x)
        assert np.all(s >= 0) and np.all(s <= 1)
        np.testing.assert_allclose(s + F.sigmoid(-x), 1.0, atol=1e-6)

    def test_sigmoid_extreme_values_no_overflow(self):
        out = F.sigmoid(np.array([-1e30, 1e30], dtype=np.float32))
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 9)).astype(np.float32)
        np.testing.assert_allclose(F.softmax(x, axis=1).sum(axis=1), 1.0, rtol=1e-5)

    def test_softmax_stability_large_values(self):
        out = F.softmax(np.array([[1e30, 0.0]], dtype=np.float64))
        assert np.isfinite(out).all()

    def test_log_softmax_consistency(self):
        x = np.random.default_rng(6).normal(size=(3, 5)).astype(np.float32)
        np.testing.assert_allclose(np.exp(F.log_softmax(x)), F.softmax(x), rtol=1e-4)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]], dtype=np.float32)
        assert F.cross_entropy(logits, np.array([0, 1])) < 1e-3


class TestPooling:
    def test_max_pool_basic(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.max_pool2d(x, 2)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_basic(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_stride_one(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        out = F.max_pool2d(x, 2, stride=1)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out[0, 0], [[4, 5], [7, 8]])

    def test_max_pool_padding_uses_neg_inf(self):
        x = -np.ones((1, 1, 2, 2), dtype=np.float32)
        out = F.max_pool2d(x, 2, stride=2, padding=1)
        # Padding must not introduce zeros that beat the real (negative) values.
        assert out.max() == -1.0

    def test_adaptive_avg_pool_to_one(self):
        x = np.random.default_rng(7).normal(size=(2, 3, 7, 5)).astype(np.float32)
        out = F.adaptive_avg_pool2d(x, 1)
        np.testing.assert_allclose(out[:, :, 0, 0], x.mean(axis=(2, 3)), rtol=1e-5)

    def test_adaptive_avg_pool_identity(self):
        x = np.random.default_rng(8).normal(size=(1, 2, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(F.adaptive_avg_pool2d(x, 4), x, rtol=1e-6)

    def test_upsample_nearest(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        out = F.upsample_nearest(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(out[0, 0, :2, :2], [[1, 1], [1, 1]])
        np.testing.assert_array_equal(out[0, 0, 2:, 2:], [[4, 4], [4, 4]])


class TestNormalisationAndShaping:
    def test_batch_norm_normalises(self):
        x = np.random.default_rng(9).normal(loc=5.0, scale=3.0, size=(4, 2, 8, 8)).astype(np.float32)
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        out = F.batch_norm2d(x, mean, var)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_batch_norm_affine(self):
        x = np.ones((1, 2, 2, 2), dtype=np.float32)
        out = F.batch_norm2d(x, np.zeros(2), np.ones(2), weight=np.array([2.0, 3.0]), bias=np.array([1.0, -1.0]))
        np.testing.assert_allclose(out[0, 0], 2 * 1 / np.sqrt(1 + 1e-5) + 1, rtol=1e-5)

    def test_flatten(self):
        x = np.zeros((2, 3, 4, 5))
        assert F.flatten(x).shape == (2, 60)
        assert F.flatten(x, start_dim=2).shape == (2, 3, 20)


class TestLayoutCanonicalReductions:
    def test_functional_reductions_are_layout_canonical(self):
        # A boundary activation read back from a golden-cache spill file is
        # contiguous while the live activation may be a strided conv output;
        # reductions must give the same bits for both (docs/forward-plans.md).
        rng = np.random.default_rng(12)
        base = rng.normal(size=(2, 6, 8, 8)).astype(np.float32)
        strided = np.asfortranarray(base)
        assert not strided.flags["C_CONTIGUOUS"]
        assert F.softmax(base, axis=1).tobytes() == F.softmax(strided, axis=1).tobytes()
        assert (
            F.adaptive_avg_pool2d(base, 1).tobytes()
            == F.adaptive_avg_pool2d(strided, 1).tobytes()
        )
        assert (
            F.max_pool2d(base, 2, 2, 0).tobytes() == F.max_pool2d(strided, 2, 2, 0).tobytes()
        )


class TestPool2dVectorized:
    """The vectorized pooling must match the naive window-loop oracle byte for byte."""

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize(
        "kernel,stride,padding",
        [(2, None, 0), (3, 1, 0), (3, 2, 1), ((2, 3), (1, 2), (0, 1)), (4, 3, 2), (1, 1, 0)],
    )
    def test_matches_reference_loop(self, mode, kernel, stride, padding):
        rng = np.random.default_rng(42)
        layouts = [
            rng.normal(size=(2, 3, 11, 13)).astype(np.float32),
            rng.normal(size=(2, 3, 13, 11)).astype(np.float32).transpose(0, 1, 3, 2),
            rng.normal(size=(2, 3, 22, 13)).astype(np.float32)[:, :, ::2],
        ]
        for x in layouts:
            fast = F._pool2d(x, kernel, stride, padding, mode)
            slow = F._pool2d_reference(x, kernel, stride, padding, mode)
            assert_same_array(fast, slow)

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_matches_reference_with_nonfinite_values(self, mode):
        rng = np.random.default_rng(7)
        x = with_specials(rng.normal(size=(2, 3, 9, 8)).astype(np.float32), rng)
        x_strided = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        for kernel, stride, padding in [(2, 2, 0), (3, 2, 1), (3, 1, 1)]:
            for value in (x, x_strided):
                fast = F._pool2d(value, kernel, stride, padding, mode)
                slow = F._pool2d_reference(value, kernel, stride, padding, mode)
                assert_same_array(fast, slow)

    @pytest.mark.parametrize("padding", [0, 1])
    def test_max_keeps_signed_zero_ties_of_the_oracle(self, padding):
        rng = np.random.default_rng(8)
        x = rng.choice(np.array([0.0, -0.0], dtype=np.float32), size=(2, 2, 8, 8))
        for kernel, stride in [(2, 2), (3, 1), (3, 2)]:
            fast = F.max_pool2d(x, kernel, stride, padding)
            assert_same_array(fast, F._pool2d_reference(x, kernel, stride, padding, "max"))
            assert_same_array(fast, oracle_max_pool2d(x, kernel, stride, padding))

    def test_max_nan_keeps_the_bits_of_the_first_nan_tap(self):
        first, second = np.uint32(0xFFC00001), np.uint32(0x7FC12345)
        bits = np.zeros((1, 1, 4, 4), dtype=np.uint32)
        bits[0, 0, 0, 1] = first  # window (0, 0), row-major tap 1
        bits[0, 0, 1, 0] = second  # window (0, 0), row-major tap 2
        bits[0, 0, 3, 3] = second  # window (1, 1), alone
        x = bits.view(np.float32)
        x_strided = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        for value in (x, x_strided):
            out = F.max_pool2d(value, 2).view(np.uint32)
            assert out[0, 0, 0, 0] == first
            assert out[0, 0, 1, 1] == second
            assert out[0, 0, 0, 1] == out[0, 0, 1, 0] == 0

    def test_reference_and_fast_reject_non_4d(self):
        with pytest.raises(ValueError):
            F._pool2d(np.zeros((2, 3, 4)), 2, None, 0, "max")
        with pytest.raises(ValueError):
            F._pool2d_reference(np.zeros((2, 3, 4)), 2, None, 0, "max")


class TestZooKernelOracles:
    """Whole models, run through their forward plans, give the oracle kernels' bytes."""

    @pytest.mark.parametrize("name", MODELS.names())
    @pytest.mark.parametrize("batch", [1, 3])
    def test_outputs_match_oracle_kernels(self, monkeypatch, name, batch):
        model = MODELS.get(name)(seed=0).eval()
        x = np.random.default_rng(batch).normal(size=(batch, 3, 32, 32)).astype(np.float32)

        def run_plan():
            return _output_bytes(ForwardPlan.trace(model, x).resume(0, x))

        actual = run_plan()
        use_oracle_kernels(monkeypatch)
        assert actual == run_plan()


def _output_bytes(output):
    if isinstance(output, np.ndarray):
        return output.shape, output.tobytes()
    return [
        (d.boxes.tobytes(), d.scores.tobytes(), d.labels.tobytes()) for d in output
    ]
