"""Tensor Train numerics and TT-convolutional layers for CNN compression.

The package provides, bottom up:

- ``tt``: the TT format (cores, element access, reconstruction, TT-SVD);
- ``ttmatrix``: matrix TT format with factorized row/column indices, and
  batched products through its cores with their gradients;
- ``conv``: dense valid convolution and its im2col/GEMM reformulation;
- ``kernels``: TT-convolutional kernels (the reshaped higher-order
  decomposition and the naive 4-mode baseline);
- ``nn``: layers computing image patches times a weight matrix, with
  hand-written gradients, SGD with momentum, gradient checking, and a
  training loop;
- ``data``: a synthetic stripes-vs-blobs image dataset;
- ``io``: binary tensor containers (.ten, .tt, .ttm, .ttcv);
- ``cli``: the ``ttconv`` command-line tool.
"""

from .conv import conv2d_direct, conv2d_gemm, im2col, kernel_to_matrix, matrix_to_kernel
from .kernels import (
    ChannelFactorization,
    NaiveTTConvKernel,
    TTConvKernel,
    compression_ratio,
    factorize_channels,
    fit_factorization,
    naive_ttconv_forward,
    naive_ttconv_from_dense,
    naive_ttconv_to_dense,
    random_ttconv_kernel,
    ttconv_forward,
    ttconv_from_dense,
    ttconv_to_dense,
    ttconv_to_ttmatrix,
)
from .tt import TTTensor, random_tt, tt_element, tt_full, tt_param_count, tt_svd
from .ttmatrix import (
    TTMatrix,
    index_to_multi,
    multi_to_index,
    ttm_batch,
    ttm_batch_vjp,
    ttm_element,
    ttm_from_dense,
    ttm_full,
    ttm_matvec,
)

__version__ = "0.1.0"
