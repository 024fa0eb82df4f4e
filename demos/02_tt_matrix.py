"""Matrix TT format: factorized indices and matrix-vector products.

A matrix is reshaped into a tensor by splitting its row and column indices
into mixed-radix digits and pairing them mode by mode; the TT of that tensor
can be far smaller than a plain low-rank factorization, and A @ x runs
core-by-core without ever materializing A, for one vector or a batch of rows.
"""

import numpy as np

from ttconv import (
    index_to_multi,
    multi_to_index,
    tt_param_count,
    ttm_batch,
    ttm_batch_vjp,
    ttm_from_dense,
    ttm_full,
    ttm_matvec,
)

rng = np.random.default_rng(1)

# ----------------------------------------------------------------------
# The index bijection: little-endian digits, first digit fastest
# ----------------------------------------------------------------------
factors = (2, 3, 4)
print("flat -> digits for factors", factors)
for t in (0, 1, 5, 23):
    digits = index_to_multi(t, factors)
    print(f"  {t:2d} -> {digits} -> {multi_to_index(digits, factors)}")

# ----------------------------------------------------------------------
# Compress a 64 x 64 matrix with multiplicative (Kronecker) structure
# ----------------------------------------------------------------------
# sums of Kronecker products are exactly what the digit pairing captures
def kron3(b, c, d):
    return np.kron(np.kron(b, c), d)


a = sum(
    kron3(*(rng.standard_normal((4, 4)) for _ in range(3))) for _ in range(2)
) + 0.001 * rng.standard_normal((64, 64))

print("\n64 x 64 matrix = 2 Kronecker terms + noise, factors (4,4,4):(4,4,4)")
for caps in ((1, 1), (2, 2), (4, 4)):
    ttm = ttm_from_dense(a, (4, 4, 4), (4, 4, 4), max_ranks=caps)
    err = np.linalg.norm(ttm_full(ttm) - a) / np.linalg.norm(a)
    print(
        f"rank caps {caps}: {tt_param_count(ttm.tt):5d} params "
        f"(dense {a.size}), error {err:.3e}"
    )

# ----------------------------------------------------------------------
# Matrix-vector product straight from the cores
# ----------------------------------------------------------------------
ttm = ttm_from_dense(a, (4, 4, 4), (4, 4, 4), max_ranks=(2, 2))
x = rng.standard_normal(64)
y_tt = ttm_matvec(ttm, x)
y_ref = ttm_full(ttm) @ x
print(f"\nmatvec deviation from the materialized matrix: {np.max(np.abs(y_tt - y_ref)):.3e}")

# ----------------------------------------------------------------------
# A batch of rows at once: Y = X A^T, one GEMM per core, and its gradient
# ----------------------------------------------------------------------
xs = rng.standard_normal((5, 64))
ys, sweep = ttm_batch(ttm, xs)
print(f"batched product of {len(xs)} rows, deviation: "
      f"{np.max(np.abs(ys - xs @ ttm_full(ttm).T)):.3e}")
dys = rng.standard_normal(ys.shape)
dxs, dcores = ttm_batch_vjp(ttm, sweep, dys)
print(f"its input gradient, deviation from dY @ A: {np.max(np.abs(dxs - dys @ ttm_full(ttm))):.3e}")
print("core gradient shapes:", [g.shape for g in dcores])
