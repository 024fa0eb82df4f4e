"""Tensor Train (TT) format: cores, element access, reconstruction, TT-SVD.

A d-dimensional tensor ``A`` with mode sizes ``(n_1, ..., n_d)`` is stored as a
chain of cores ``G_k`` of shape ``(r_{k-1}, n_k, r_k)`` with ``r_0 = r_d = 1``,
so that ``A[j_1, ..., j_d] = G_1[:, j_1, :] @ ... @ G_d[:, j_d, :]`` collapses
to a scalar.  All indices in this package are 0-based; dense arrays use numpy's
C order (last index fastest).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, SizeError

# Materialization cap for tt_chain and tt_full (number of elements).
FULL_ELEMENT_CAP = 10**8

# Singular values closer than this (relative to the largest one) are treated
# as tied at a truncation boundary; the tied value is kept.
_TIE_RTOL = 1e-12

# Under max_ranks, singular values at or below this (relative to the largest
# one) count as zero; LAPACK returns an exact zero as 0.0 or ~1e-16 noise.
# Not above 1e-14: a spectrum graded down to 1e-13 is real.
_RANK_RTOL = 1e-14

# tt_svd takes the R factor of a tall unfolding from row blocks of this many
# bytes (_qr_r), so LAPACK's copies of it stay block-sized.  A block is never
# shorter than _QR_MIN_ASPECT times its width (at least 2, or the stacked R's
# do not shrink): near-square blocks cost more than one whole call.  On one
# OpenBLAS thread of a 2-vCPU x86 VM, (2048, 384) took 52 ms in blocks of 2n
# rows against 37 ms whole; blocks of 8n rows or more took 0.4-1.1x the whole
# call from (4608, 512) to (393216, 3).
_QR_BLOCK_BYTES = 2 << 20
_QR_MIN_ASPECT = 8


class TTTensor:
    """Immutable tensor in TT format.

    Parameters
    ----------
    cores : sequence of ndarray
        Core ``k`` has shape ``(r_{k-1}, n_k, r_k)``; boundary ranks must be 1
        and adjacent ranks must chain.
    """

    __slots__ = ("cores",)

    def __init__(self, cores):
        if len(cores) == 0:
            raise ShapeError("TT tensor needs at least one core")
        frozen = []
        for k, core in enumerate(cores):
            arr = np.array(core, dtype=np.float64)
            if arr.ndim != 3:
                raise ShapeError(f"core {k} must be 3-dimensional, got shape {arr.shape}")
            frozen.append(arr)
        if frozen[0].shape[0] != 1 or frozen[-1].shape[2] != 1:
            raise ShapeError("boundary TT-ranks must equal 1")
        for k, arr in enumerate(frozen[:-1]):
            if arr.shape[2] < 1:
                raise ShapeError(f"TT-rank {k + 1} is {arr.shape[2]}, must be at least 1")
        for k in range(len(frozen) - 1):
            if frozen[k].shape[2] != frozen[k + 1].shape[0]:
                raise ShapeError(
                    f"rank mismatch between cores {k} and {k + 1}: "
                    f"{frozen[k].shape[2]} vs {frozen[k + 1].shape[0]}"
                )
        for arr in frozen:
            arr.flags.writeable = False
        self.cores = tuple(frozen)

    @property
    def ndim(self) -> int:
        return len(self.cores)

    @property
    def mode_sizes(self) -> tuple:
        return tuple(core.shape[1] for core in self.cores)

    @property
    def ranks(self) -> tuple:
        return (1,) + tuple(core.shape[2] for core in self.cores)

    def __repr__(self):
        return f"TTTensor(mode_sizes={self.mode_sizes}, ranks={self.ranks})"


def tt_element(tt: TTTensor, index) -> float:
    """Single element ``G_1[j_1] @ ... @ G_d[j_d]``, evaluated left to right."""
    index = tuple(index)
    if len(index) != tt.ndim:
        raise IndexError(f"expected {tt.ndim} indices, got {len(index)}")
    for k, (j, n) in enumerate(zip(index, tt.mode_sizes)):
        if not 0 <= j < n:
            raise IndexError(f"index {j} out of range for mode {k} of size {n}")
    v = tt.cores[0][:, index[0], :]
    for k in range(1, tt.ndim):
        v = v @ tt.cores[k][:, index[k], :]
    return float(v[0, 0])


def tt_full(tt: TTTensor) -> np.ndarray:
    """Materialize the full dense tensor (shape = mode_sizes)."""
    return tt_chain(tt.cores).reshape(tt.mode_sizes)


def tt_chain(cores) -> np.ndarray:
    """Chain product of cores ``(r_{k-1}, n_k, r_k)`` with ``r_0 = r_d = 1``.

    Returns the entries of the tensor the cores represent, flat in C order of
    the mode sizes; raises SizeError above FULL_ELEMENT_CAP entries.
    """
    n_elements = math.prod(core.shape[1] for core in cores)
    if n_elements > FULL_ELEMENT_CAP:
        raise SizeError(
            f"refusing to materialize {n_elements} elements (cap {FULL_ELEMENT_CAP})"
        )
    full = cores[0].reshape(cores[0].shape[1], -1)
    for core in cores[1:]:
        r_prev, n_k, r_k = core.shape
        full = full.reshape(-1, r_prev) @ core.reshape(r_prev, n_k * r_k)
    return full.reshape(-1)


def tt_chain_grad(cores, grad) -> list:
    """Gradient of ``sum(grad * tt_chain(cores))`` with respect to each core.

    Core k gets P_k^T R_k: P_k is the product of the cores left of it, as
    (prod n_<k, r_{k-1}); R_k is ``grad`` contracted with the cores right of
    it, as (prod n_<k, n_k * r_k).  Contracting ``grad`` one core at a time
    never forms the product of the cores right of core k.
    """
    prefixes = [np.ones((1, 1))]
    for core in cores[:-1]:
        r_in, n, r_out = core.shape
        prefixes.append((prefixes[-1] @ core.reshape(r_in, n * r_out)).reshape(-1, r_out))
    grads = [None] * len(cores)
    rest = grad
    for k in range(len(cores) - 1, -1, -1):
        r_in, n, r_out = cores[k].shape
        rest = rest.reshape(-1, n * r_out)
        grads[k] = (prefixes[k].T @ rest).reshape(r_in, n, r_out)
        if k:
            rest = rest @ cores[k].reshape(r_in, n * r_out).T
    return grads


def tt_param_count(tt: TTTensor) -> int:
    """Total number of core entries: sum over k of n_k * r_{k-1} * r_k."""
    return sum(core.size for core in tt.cores)


def _truncation_rank(s: np.ndarray, budget: float) -> int:
    """Smallest kept rank whose discarded tail satisfies sum(s_i^2) <= budget^2.

    Ties at the cutoff (values equal within _TIE_RTOL of s[0]) keep the extra
    value; sub-noise values never extend the rank.
    """
    tail = np.cumsum(s[::-1] ** 2)[::-1]
    keep = np.nonzero(tail > budget**2)[0]
    r = int(keep[-1]) + 1 if keep.size else 1
    while r < len(s) and s[r] > _TIE_RTOL * s[0] and s[r - 1] - s[r] <= _TIE_RTOL * s[0]:
        r += 1
    return r


def _qr_r(a: np.ndarray) -> np.ndarray:
    """R factor of ``a`` (m, n) with m >= n, as ``np.linalg.qr(a, mode="r")``
    gives it up to row signs and rounding.

    A matrix taller than one block (``_QR_BLOCK_BYTES``, and at least
    ``_QR_MIN_ASPECT`` times its width) is cut into row blocks; the R's of
    the blocks are stacked and reduced the same way until one call fits
    (TSQR, Demmel et al. 2012).  No call copies more than one block.
    """
    n = a.shape[1]
    height = max(_QR_BLOCK_BYTES // (8 * n), _QR_MIN_ASPECT * n)
    while len(a) > height:
        a = np.concatenate(
            [np.linalg.qr(a[i : i + height], mode="r") for i in range(0, len(a), height)]
        )
    return np.linalg.qr(a, mode="r")


def tt_svd(a, max_ranks=None, tol: float | None = None) -> TTTensor:
    """Decompose a dense tensor into TT format by a sequential SVD sweep.

    Exactly one of ``max_ranks`` (interior rank caps, length d-1) and ``tol``
    (relative Frobenius error budget in (0, 1)) must be given.  With ``tol``,
    each of the d-1 unfoldings is truncated at threshold
    ``tol * ||a||_F / sqrt(d-1)``, which bounds the total relative error by
    ``tol`` (Oseledets 2011, Thm 2.2).  A zero tensor returns an all-ranks-1
    TT with zero cores.

    No unfolding is decomposed in full.  A Householder QR of its long side
    leaves a small triangle R with the same singular values, and only R gets
    an SVD (Chan's R-SVD).  The R of a tall-skinny long side comes from row
    blocks (``_qr_r``), so LAPACK makes no full-size copy of it.  A wide
    unfolding is projected onto the kept left singular vectors, a tall one
    onto the kept right singular vectors and re-orthonormalized by a thin QR.
    Every core but the last is therefore left-orthonormal, and the ranks and
    the error are those of the sweep that takes a full SVD of each
    unfolding; cores may differ from it in column signs.  Under
    ``max_ranks`` a singular value at or below ``_RANK_RTOL`` times the
    largest counts as zero, so a zero slice gives the exact rank.  A tensor
    with a NaN or infinite entry raises ValueError.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.size == 0:
        raise ShapeError("cannot decompose an empty tensor")
    if (max_ranks is None) == (tol is None):
        raise ValueError("exactly one of max_ranks and tol must be supplied")
    d = a.ndim
    shape = a.shape
    if max_ranks is not None:
        max_ranks = tuple(int(r) for r in max_ranks)
        if len(max_ranks) != d - 1:
            raise ValueError(f"max_ranks must have length {d - 1}, got {len(max_ranks)}")
        if any(r < 1 for r in max_ranks):
            raise ValueError("rank caps must be positive")
    else:
        if not 0.0 < tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {tol}")

    norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):  # a finite tensor whose norm overflows passes
        nan = int(np.count_nonzero(np.isnan(a)))
        inf = int(np.count_nonzero(np.isinf(a)))
        if nan or inf:
            raise ValueError(
                f"cannot decompose a tensor with non-finite entries ({nan} NaN, {inf} inf)"
            )
    if norm == 0.0:
        return TTTensor([np.zeros((1, n, 1)) for n in shape])

    budget = tol * norm / math.sqrt(d - 1) if (tol is not None and d > 1) else 0.0

    cores = []
    r_prev = 1
    rest = a
    for k in range(d - 1):
        mat = rest.reshape(r_prev * shape[k], -1)
        # mat^T = Q R (wide) or mat = Q R (tall); Q is never formed.
        wide = mat.shape[0] <= mat.shape[1]
        if wide:
            u, s, _ = np.linalg.svd(_qr_r(mat.T).T)
        else:
            _, s, vt = np.linalg.svd(_qr_r(mat))
        if max_ranks is not None:
            r = min(max_ranks[k], int(np.count_nonzero(s > _RANK_RTOL * s[0])))
        else:
            r = _truncation_rank(s, budget)
        r = max(r, 1)
        if wide:
            core = u[:, :r]
            rest = core.T @ mat
        else:
            core, t = np.linalg.qr(mat @ vt[:r].T)
            rest = t @ vt[:r]
        cores.append(core.reshape(r_prev, shape[k], r))
        r_prev = r
    cores.append(rest.reshape(r_prev, shape[-1], 1))
    return TTTensor(cores)


def random_tt(mode_sizes, ranks, rng) -> TTTensor:
    """TT tensor with i.i.d. standard normal core entries at the given ranks.

    ``ranks`` lists the d-1 interior ranks; boundary ranks are fixed to 1.
    """
    mode_sizes = tuple(int(n) for n in mode_sizes)
    full_ranks = (1,) + tuple(int(r) for r in ranks) + (1,)
    if len(full_ranks) != len(mode_sizes) + 1:
        raise ShapeError("need one interior rank per adjacent mode pair")
    cores = [
        rng.standard_normal((full_ranks[k], mode_sizes[k], full_ranks[k + 1]))
        for k in range(len(mode_sizes))
    ]
    return TTTensor(cores)
