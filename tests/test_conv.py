import numpy as np
import pytest
from numpy.testing import assert_allclose

from ttconv.conv import (
    _im2col_pixels_fastest,
    col2im_batch,
    conv2d_direct,
    conv2d_gemm,
    im2col,
    im2col_batch,
    kernel_to_matrix,
    matrix_to_kernel,
)
from ttconv.errors import ShapeError


def conv_loop_oracle(x, k):
    """Plain loop transcription of the convolution sum, scalar arithmetic."""
    ell = k.shape[0]
    wo = x.shape[0] - ell + 1
    ho = x.shape[1] - ell + 1
    s_out = k.shape[3]
    y = np.zeros((wo, ho, s_out))
    for xx in range(wo):
        for yy in range(ho):
            for s in range(s_out):
                acc = 0.0
                for i in range(ell):
                    for j in range(ell):
                        for c in range(x.shape[2]):
                            acc += k[i, j, c, s] * x[xx + i, yy + j, c]
                y[xx, yy, s] = acc
    return y


class TestConvDirect:
    def test_1x1_scalar_scaling(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 5, 1))
        k = np.full((1, 1, 1, 1), 2.0)
        assert_allclose(conv2d_direct(x, k), 2.0 * x)

    def test_zero_kernel(self):
        x = np.random.default_rng(1).standard_normal((5, 5, 3))
        k = np.zeros((2, 2, 3, 4))
        assert np.all(conv2d_direct(x, k) == 0.0)

    def test_3x3_all_ones_patch_sums(self):
        # X(x, y) laid out x-major; all-ones 2x2 kernel sums each patch
        x = np.array([[1.0, 2, 3], [4, 5, 6], [7, 8, 9]]).reshape(3, 3, 1)
        k = np.ones((2, 2, 1, 1))
        y = conv2d_direct(x, k)
        assert_allclose(y, conv_loop_oracle(x, k))
        assert_allclose(y[:, :, 0], np.array([[12.0, 16.0], [24.0, 28.0]]))

    def test_matches_loop_oracle_random(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            w, h = rng.integers(3, 7, size=2)
            ell = int(rng.integers(1, min(w, h) + 1))
            c, s = rng.integers(1, 4, size=2)
            x = rng.standard_normal((w, h, c))
            k = rng.standard_normal((ell, ell, c, s))
            assert_allclose(conv2d_direct(x, k), conv_loop_oracle(x, k), rtol=1e-13)

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError):
            conv2d_direct(np.zeros((2, 2, 1)), np.zeros((3, 3, 1, 1)))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d_direct(np.zeros((4, 4, 2)), np.zeros((2, 2, 3, 1)))


class TestIm2col:
    def test_ell1_rows_are_pixel_channels(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 2))
        mat = im2col(x, 1)
        assert mat.shape == (12, 2)
        for yy in range(4):
            for xx in range(3):
                assert_allclose(mat[xx + 3 * yy], x[xx, yy])

    def test_index_formula_all_rows(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 5, 3))
        ell = 2
        wo, ho = 3, 4
        mat = im2col(x, ell)
        assert mat.shape == (wo * ho, ell * ell * 3)
        for yy in range(ho):
            for xx in range(wo):
                for i in range(ell):
                    for j in range(ell):
                        for c in range(3):
                            row = xx + wo * yy
                            col = i + ell * j + ell * ell * c
                            assert mat[row, col] == x[xx + i, yy + j, c]

    def test_first_row_of_3x3(self):
        x = np.arange(9, dtype=float).reshape(3, 3, 1)
        mat = im2col(x, 2)
        assert mat.shape == (4, 4)
        assert_allclose(mat[0], [x[0, 0, 0], x[1, 0, 0], x[0, 1, 0], x[1, 1, 0]])

    def test_constant_input_identical_rows(self):
        mat = im2col(np.full((5, 5, 2), 3.5), 3)
        assert np.all(mat == mat[0])


class TestKernelMatrix:
    def test_ell1(self):
        rng = np.random.default_rng(4)
        k = rng.standard_normal((1, 1, 3, 5))
        assert_allclose(kernel_to_matrix(k), k[0, 0])

    def test_ell2_column_vector(self):
        k = np.zeros((2, 2, 1, 1))
        k[0, 0], k[1, 0], k[0, 1], k[1, 1] = 1.0, 2.0, 3.0, 4.0
        assert_allclose(kernel_to_matrix(k)[:, 0], [1.0, 2.0, 3.0, 4.0])

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        k = rng.standard_normal((3, 3, 4, 2))
        assert_allclose(matrix_to_kernel(kernel_to_matrix(k), 3, 4), k)


class TestConvGemm:
    def test_matches_direct_random(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w, h = rng.integers(2, 9, size=2)
            ell = int(rng.integers(1, min(w, h) + 1))
            c, s = rng.integers(1, 5, size=2)
            x = rng.standard_normal((w, h, c))
            k = rng.standard_normal((ell, ell, c, s))
            ref = conv2d_direct(x, k)
            got = conv2d_gemm(x, k)
            assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))

    def test_ell1_is_per_pixel_matvec(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((4, 4, 3))
        k = rng.standard_normal((1, 1, 3, 2))
        y = conv2d_gemm(x, k)
        for xx in range(4):
            for yy in range(4):
                assert_allclose(y[xx, yy], k[0, 0].T @ x[xx, yy], rtol=1e-13)

    def test_zero_input(self):
        y = conv2d_gemm(np.zeros((5, 5, 2)), np.ones((3, 3, 2, 4)))
        assert np.all(y == 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(31)
        x1 = rng.standard_normal((5, 6, 2))
        x2 = rng.standard_normal((5, 6, 2))
        k = rng.standard_normal((3, 3, 2, 3))
        a, b = 2.5, -1.25
        lhs = conv2d_direct(a * x1 + b * x2, k)
        rhs = a * conv2d_direct(x1, k) + b * conv2d_direct(x2, k)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))

    def test_output_shape(self):
        y = conv2d_gemm(np.zeros((7, 6, 2)), np.zeros((3, 3, 2, 5)))
        assert y.shape == (5, 4, 5)


class TestIm2colBatch:
    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("c", [1, 3, 6])
    def test_col2im_is_adjoint(self, ell, c):
        rng = np.random.default_rng(10 * ell + c)
        x = rng.standard_normal((2, 5, 4, c))
        d = rng.standard_normal((2 * (5 - ell + 1) * (4 - ell + 1), ell * ell * c))
        lhs = np.sum(im2col_batch(x, ell) * d)
        rhs = np.sum(x * col2im_batch(d, ell, x.shape))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_columns_run_channels_fastest(self):
        x = np.random.default_rng(11).standard_normal((2, 5, 4, 3))
        cols = im2col_batch(x, 2).reshape(2, 4, 3, 2, 2, 3)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(cols[:, :, :, i, j, :], x[:, i : i + 4, j : j + 3, :])

    def test_flattened_kernel_is_weight_matrix(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 6, 5, 3))
        k = rng.standard_normal((3, 3, 3, 4))
        y = (im2col_batch(x, 3) @ k.reshape(-1, 4)).reshape(2, 4, 3, 4)
        for b in range(2):
            assert_allclose(y[b], conv2d_direct(x[b], k), rtol=1e-12, atol=1e-12)


def _window_copy(xb, ell):
    """Oracle patch matrix: the sliding windows copied to a new array in one step."""
    b, w, h, c = xb.shape
    wins = np.lib.stride_tricks.sliding_window_view(xb, (ell, ell), axis=(1, 2))
    cols = np.ascontiguousarray(wins.transpose(0, 1, 2, 4, 5, 3))
    return cols.reshape(b * (w - ell + 1) * (h - ell + 1), ell * ell * c)


class TestIm2colOut:
    """``im2col_batch(xb, ell, out=...)`` writes the patches into ``out``."""

    @pytest.mark.parametrize("c", [1, 3, 64])
    @pytest.mark.parametrize("ell", [1, 2, 3, 5])
    def test_returns_out_bitwise_fresh(self, ell, c):
        x = np.random.default_rng(ell * c).standard_normal((2, ell + 3, ell + 2, c))
        fresh = im2col_batch(x, ell)
        out = np.full(fresh.shape, np.nan)
        assert im2col_batch(x, ell, out=out) is out
        assert np.array_equal(out.view(np.uint64), fresh.view(np.uint64))
        assert np.array_equal(fresh.view(np.uint64), _window_copy(x, ell).view(np.uint64))

    @pytest.mark.parametrize(
        "make_out",
        [
            lambda rows, cols: np.empty((rows, cols + 1)),
            lambda rows, cols: np.empty((rows * cols,)),
            lambda rows, cols: np.empty((cols, rows)).T,
            lambda rows, cols: np.empty((rows, 2 * cols))[:, ::2],
            lambda rows, cols: np.empty((rows, cols), dtype=np.float32),
            lambda rows, cols: [[0.0] * cols] * rows,
        ],
        ids=["wide", "flat", "transposed", "strided", "float32", "list"],
    )
    def test_rejects_wrong_out(self, make_out):
        x = np.zeros((2, 5, 4, 3))
        out = make_out(2 * 3 * 2, 27)
        with pytest.raises(ShapeError, match=r"^im2col out must be a C-contiguous float64 array"):
            im2col_batch(x, 3, out=out)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_conv2d_gemm_unchanged(self, ell):
        rng = np.random.default_rng(20 + ell)
        x = rng.standard_normal((6, 5, 3))
        k = rng.standard_normal((ell, ell, 3, 4))
        y = conv2d_gemm(x, k)
        ref = (_window_copy(x[None], ell) @ k.reshape(-1, 4)).reshape(y.shape)
        assert np.array_equal(y.view(np.uint64), ref.view(np.uint64))
        assert_allclose(y, conv2d_direct(x, k), rtol=1e-12, atol=1e-12)


class TestIm2colPixelsFastest:
    """The one-channel writer returns ``im2col_batch``'s matrix bitwise, as the
    F-ordered transpose of the C-contiguous buffer it filled."""

    @pytest.mark.parametrize(
        "shape, ell",
        [((3, 16, 16, 1), 3), ((2, 9, 7, 1), 5), ((1, 4, 6, 1), 1), ((2, 5, 4, 3), 2), ((1, 3, 3, 1), 3)],
    )
    def test_matches_im2col_batch(self, shape, ell):
        x = np.random.default_rng(sum(shape) + ell).standard_normal(shape)
        ref = im2col_batch(x, ell)
        out = np.full(ref.shape[::-1], np.nan)
        cols = _im2col_pixels_fastest(x, ell, out)
        assert cols.base is out and cols.flags.f_contiguous
        assert np.array_equal(np.ascontiguousarray(cols).view(np.uint64), ref.view(np.uint64))
