"""Dense 2-D convolution and its im2col/GEMM matrix reformulation.

Inputs are W x H x C arrays, kernels l x l x C x S, outputs W' x H' x S with
W' = W - l + 1 and H' = H - l + 1 (valid convolution, stride 1).  The matrix
reformulation flattens pixel (x, y) to row ``x + W' * y`` and patch offset
(i, j, c) to column ``i + l * j + l * l * c`` (all 0-based, first index
fastest), so that convolution becomes ``Y_mat = X_mat @ K_mat``.  This is the
paper's order, kept by ``im2col``, ``kernel_to_matrix`` and
``matrix_to_kernel``.

The batched patch matrix that training runs on (``im2col_batch``) orders its
columns channels fastest instead, ``(i * l + j) * C + c``: the C-order
flattening of an ``(l, l, C, S)`` kernel, so ``k.reshape(-1, S)`` is its
weight matrix and each patch is copied as contiguous runs of C channels.
With one input channel those runs are single entries, so a convolution
layer writes a one-channel input's patches with ``_im2col_pixels_fastest``
instead: the same matrix, stored transposed (F order), which it copies as
contiguous runs of input pixels; a GEMM reads either orientation.

``check_kernel`` is the one check that an array is an l x l x C x S kernel,
for every function of the package that takes a dense kernel.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError


def check_kernel(k) -> np.ndarray:
    """``k`` as a float64 array, once it is an l x l x C x S kernel."""
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 4 or k.shape[0] != k.shape[1]:
        raise ShapeError(f"kernel must be l x l x C x S, got shape {k.shape}")
    return k


def _check_image(x) -> np.ndarray:
    """``x`` as a float64 array, once it is a W x H x C image."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"input must be W x H x C, got {x.ndim} dimensions")
    return x


def _check_conv_shapes(x, k):
    """``(x, k)`` as float64 arrays, once k can convolve the W x H x C input x."""
    x, k = _check_image(x), check_kernel(k)
    if k.shape[2] != x.shape[2]:
        raise ShapeError(f"channel mismatch: input {x.shape[2]}, kernel {k.shape[2]}")
    im2col_shape((1,) + x.shape, k.shape[0])
    return x, k


def conv2d_direct(x, k) -> np.ndarray:
    """Valid convolution by summing over kernel offsets.

    Y[x, y, s] = sum_{i,j,c} K[i, j, c, s] * X[x+i, y+j, c].
    """
    x, k = _check_conv_shapes(x, k)
    ell = k.shape[0]
    wo = x.shape[0] - ell + 1
    ho = x.shape[1] - ell + 1
    out = np.zeros((wo, ho, k.shape[3]))
    for i in range(ell):
        for j in range(ell):
            # (wo, ho, C) x (C, S) contraction for this offset
            out += np.tensordot(x[i : i + wo, j : j + ho], k[i, j], axes=(2, 0))
    return out


def im2col_shape(shape, ell: int):
    """Shape (B*W'*H', l*l*C) of ``im2col_batch``'s patch matrix for a batch of ``shape``."""
    if len(shape) != 4:
        raise ShapeError(f"batch input must be B x W x H x C, got {len(shape)} dimensions")
    b, w, h, c = shape
    if ell > min(w, h):
        raise ShapeError(f"filter size {ell} exceeds input dims ({w}, {h})")
    return b * (w - ell + 1) * (h - ell + 1), ell * ell * c


def im2col_batch(xb, ell: int, out=None) -> np.ndarray:
    """Patch matrix of a B x W x H x C batch, of shape (B*W'*H', l*l*C).

    Row ``(b*W' + x)*H' + y`` holds the patch of image b at pixel (x, y);
    column ``(i*l + j)*C + c`` holds X[b, x+i, y+j, c], channels fastest, so
    the matching weight matrix is ``kernel.reshape(l*l*C, S)``.

    The patches are written into ``out`` and it is returned; without it they
    go to a new array.  ``out`` must be a C-contiguous float64 array of
    exactly that shape, or it is a ShapeError; reusing one buffer spares the
    page faults of a fresh large block on every call.
    """
    xb = np.asarray(xb, dtype=np.float64)
    rows, width = im2col_shape(xb.shape, ell)
    if out is None:
        out = np.empty((rows, width))
    elif not (
        isinstance(out, np.ndarray)
        and out.shape == (rows, width)
        and out.dtype == np.float64
        and out.flags.c_contiguous
    ):
        got = f"{getattr(out, 'shape', None)} {getattr(out, 'dtype', type(out).__name__)}"
        raise ShapeError(
            f"im2col out must be a C-contiguous float64 array of shape {(rows, width)}, got {got}"
        )
    b, w, h, c = xb.shape
    wins = sliding_window_view(xb, (ell, ell), axis=(1, 2))  # (B, W', H', C, i, j)
    out.reshape(b, w - ell + 1, h - ell + 1, ell, ell, c)[...] = wins.transpose(0, 1, 2, 4, 5, 3)
    return out


def _im2col_pixels_fastest(xb, ell: int, out) -> np.ndarray:
    """``im2col_batch(xb, ell)``, written pixel-fastest into ``out``.

    ``out`` is a C-contiguous float64 (l*l*C, B*W'*H') buffer; it receives
    the transposed patch matrix in one strided copy, and its transpose, an
    F-ordered (B*W'*H', l*l*C) view equal to ``im2col_batch(xb, ell)``, is
    returned.  Each copied run is a row of H' input pixels of one channel,
    against runs of C entries in ``im2col_batch``, so this is the faster
    writer when C == 1 and the slower one as C grows: 0.19 against 0.56 ms
    at 128 x 16 x 16 x 1 and l = 3, 0.26 against 0.09 ms at 128 x 6 x 6 x 8,
    on one core of a 2-vCPU x86 VM.
    """
    b, w, h, c = xb.shape
    wins = sliding_window_view(xb, (ell, ell), axis=(1, 2))  # (B, W', H', C, i, j)
    out.reshape(ell, ell, c, b, w - ell + 1, h - ell + 1)[...] = wins.transpose(4, 5, 3, 0, 1, 2)
    return out.T


def col2im_batch(dcols, ell: int, in_shape) -> np.ndarray:
    """Adjoint of im2col_batch: sum patch-matrix rows back onto a batch of shape in_shape.

    Columns are in im2col_batch's channels-fastest order, so each kernel
    offset (i, j) adds one contiguous (..., C) slab.
    """
    b, w, h, c = in_shape
    wo, ho = w - ell + 1, h - ell + 1
    dwin = dcols.reshape(b, wo, ho, ell, ell, c)
    dx = np.zeros(in_shape)
    for i in range(ell):
        for j in range(ell):
            dx[:, i : i + wo, j : j + ho, :] += dwin[:, :, :, i, j, :]
    return dx


def im2col(x, ell: int) -> np.ndarray:
    """Patch matrix of shape (W'H', l*l*C) in the paper's order.

    Row ``x + W'*y`` holds the patch for pixel (x, y); column
    ``i + l*j + l*l*c`` holds X[x+i, y+j, c].
    """
    x = _check_image(x)
    cols = im2col_batch(x[None], ell)
    # batch rows run y fastest and columns c fastest; reverse both orders
    wo, ho, c = x.shape[0] - ell + 1, x.shape[1] - ell + 1, x.shape[2]
    patches = cols.reshape(wo, ho, ell, ell, c).transpose(1, 0, 4, 3, 2)
    return patches.reshape(wo * ho, ell * ell * c)


def kernel_to_matrix(k) -> np.ndarray:
    """Kernel as an (l*l*C, S) matrix: row i + l*j + l*l*c holds K[i, j, c, :]."""
    k = check_kernel(k)
    ell, _, c, s = k.shape
    return np.ascontiguousarray(k.transpose(2, 1, 0, 3)).reshape(ell * ell * c, s)


def matrix_to_kernel(mat, ell: int, channels: int) -> np.ndarray:
    """Inverse of kernel_to_matrix."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != ell * ell * channels:
        raise ShapeError(
            f"matrix with {mat.shape[0]} rows does not match l={ell}, C={channels}"
        )
    s = mat.shape[1]
    return np.ascontiguousarray(
        mat.reshape(channels, ell, ell, s).transpose(2, 1, 0, 3)
    )


def conv2d_gemm(x, k) -> np.ndarray:
    """Convolution as one matrix product of batched patches and the flattened kernel."""
    x, k = _check_conv_shapes(x, k)
    ell = k.shape[0]
    y_mat = im2col_batch(x[None], ell) @ k.reshape(-1, k.shape[3])
    return y_mat.reshape(x.shape[0] - ell + 1, x.shape[1] - ell + 1, k.shape[3])
