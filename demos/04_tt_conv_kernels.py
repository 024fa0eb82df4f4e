"""TT-convolutional kernels: the reshaped decomposition vs the naive one.

The naive route runs TT-SVD on the raw (l, l, C, S) kernel.  The better route
flattens the kernel to its (l*l*C, S) matrix, factorizes the channel counts,
and decomposes the resulting higher-order tensor; on kernels with channel
structure it reaches the same error with far fewer parameters.  The forward
pass rebuilds the kernel matrix from the cores and multiplies the image
patches by it.
"""

import numpy as np

from ttconv import (
    conv2d_direct,
    factorize_channels,
    naive_ttconv_from_dense,
    naive_ttconv_to_dense,
    random_ttconv_kernel,
    ttconv_forward,
    ttconv_from_dense,
    ttconv_to_dense,
)
rng = np.random.default_rng(3)

# ----------------------------------------------------------------------
# Channel factorizations (with dummy-channel padding when needed)
# ----------------------------------------------------------------------
for c, s, d in ((64, 64, 3), (3, 5, 2), (16, 16, 2)):
    fact = factorize_channels(c, s, d)
    print(
        f"C={c:3d} S={s:3d} d={d}: c_factors {fact.c_factors} s_factors "
        f"{fact.s_factors} pads ({fact.pad_c}, {fact.pad_s})"
    )

# ----------------------------------------------------------------------
# A kernel with channel-separable structure: proposed vs naive
# ----------------------------------------------------------------------
fact = factorize_channels(16, 16, 2)
kernel = ttconv_to_dense(random_ttconv_kernel(3, fact, (2, 2), rng))
dense_params = kernel.size
print(f"\nkernel 3x3x16x16, dense params {dense_params}")

proposed = ttconv_from_dense(kernel, fact, max_ranks=(2, 2))
err = np.linalg.norm(ttconv_to_dense(proposed) - kernel) / np.linalg.norm(kernel)
print(
    f"proposed, ranks {proposed.ranks}: {proposed.param_count} params, "
    f"error {err:.2e}, compression {dense_params / proposed.param_count:.2f}x"
)

print("naive rank sweep:")
for r in (1, 2, 4, 8, 16):
    nk = naive_ttconv_from_dense(kernel, max_ranks=(3, min(r, 9), r))
    err = np.linalg.norm(naive_ttconv_to_dense(nk) - kernel) / np.linalg.norm(kernel)
    print(
        f"  caps (3, {min(r, 9):d}, {r:2d}): {nk.param_count:5d} params, error {err:.3e}"
    )

# ----------------------------------------------------------------------
# Forward pass: patches times the kernel matrix rebuilt from the cores
# ----------------------------------------------------------------------
x = rng.standard_normal((10, 10, 16))
y_tt = ttconv_forward(x, proposed)
y_ref = conv2d_direct(x, ttconv_to_dense(proposed))
print(f"\nttconv_forward vs dense path: max dev {np.max(np.abs(y_tt - y_ref)):.3e}")

# error budget mode: hand the decomposition a tolerance instead of ranks
loose = ttconv_from_dense(kernel + 0.05 * rng.standard_normal(kernel.shape), fact, tol=0.1)
print(f"tol=0.1 chose ranks {loose.ranks} -> {loose.param_count} params")
