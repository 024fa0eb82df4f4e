"""Matrix TT format: TT decomposition of a matrix with factorized indices.

An ``M x N`` matrix with ``M = prod(m_k)`` and ``N = prod(n_k)`` is reshaped
into a d-dimensional tensor whose mode ``k`` has size ``m_k * n_k``, by mapping
row and column indices to mixed-radix digit vectors and pairing the digits.
Both digit maps are little-endian (digit 0 varies fastest); within a mode the
compound slice index is ``row_digit * n_k + col_digit`` (column digit fastest).
The same pairing convention is reused by the TT-convolution kernels.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .tt import TTTensor, tt_element, tt_full, tt_svd


def index_to_multi(t: int, factors) -> tuple:
    """Little-endian mixed-radix digits of flat index ``t`` (all 0-based)."""
    factors = tuple(int(f) for f in factors)
    total = math.prod(factors)
    if not 0 <= t < total:
        raise IndexError(f"index {t} out of range for factors {factors}")
    digits = []
    for f in factors:
        digits.append(t % f)
        t //= f
    return tuple(digits)


def multi_to_index(multi, factors) -> int:
    """Inverse of index_to_multi."""
    factors = tuple(int(f) for f in factors)
    if len(multi) != len(factors):
        raise IndexError("digit count does not match factor count")
    t = 0
    stride = 1
    for digit, f in zip(multi, factors):
        if not 0 <= digit < f:
            raise IndexError(f"digit {digit} out of range for factor {f}")
        t += digit * stride
        stride *= f
    return t


def _interleave(a: np.ndarray, d: int) -> np.ndarray:
    """(mu_1..mu_d, nu_1..nu_d) axes -> (mu_1, nu_1, ..., mu_d, nu_d)."""
    perm = []
    for k in range(d):
        perm.extend((k, d + k))
    return a.transpose(perm)


def to_compound_tensor(a: np.ndarray, row_factors, col_factors) -> np.ndarray:
    """Permute an M x N matrix into the d-mode compound-index tensor."""
    row_factors = tuple(int(f) for f in row_factors)
    col_factors = tuple(int(f) for f in col_factors)
    d = len(row_factors)
    if len(col_factors) != d:
        raise ShapeError("row and column factorizations must have equal length")
    m, n = math.prod(row_factors), math.prod(col_factors)
    if a.shape != (m, n):
        raise ShapeError(f"matrix shape {a.shape} does not match factors ({m}, {n})")
    digits = a.reshape(row_factors + col_factors, order="F")
    paired = _interleave(digits, d)
    return np.ascontiguousarray(paired).reshape(
        tuple(mk * nk for mk, nk in zip(row_factors, col_factors))
    )


def from_compound_tensor(t: np.ndarray, row_factors, col_factors) -> np.ndarray:
    """Inverse of to_compound_tensor."""
    row_factors = tuple(int(f) for f in row_factors)
    col_factors = tuple(int(f) for f in col_factors)
    d = len(row_factors)
    pairs = t.reshape(tuple(x for mk, nk in zip(row_factors, col_factors) for x in (mk, nk)))
    # (mu_1, nu_1, ..., mu_d, nu_d) -> (mu_d..mu_1, nu_d..nu_1): C order puts
    # digit 1 fastest, and one C-order copy is cheaper than an F-order reshape
    perm = [2 * k for k in reversed(range(d))] + [2 * k + 1 for k in reversed(range(d))]
    m, n = math.prod(row_factors), math.prod(col_factors)
    return pairs.transpose(perm).reshape(m, n)


class TTMatrix:
    """Matrix in TT format: factorized indices plus the compound-mode TT."""

    __slots__ = ("tt", "row_factors", "col_factors")

    def __init__(self, tt: TTTensor, row_factors, col_factors):
        row_factors = tuple(int(f) for f in row_factors)
        col_factors = tuple(int(f) for f in col_factors)
        if len(row_factors) != len(col_factors) or len(row_factors) != tt.ndim:
            raise ShapeError("factorizations must match the TT order")
        for k, (mk, nk) in enumerate(zip(row_factors, col_factors)):
            if tt.mode_sizes[k] != mk * nk:
                raise ShapeError(
                    f"mode {k} has size {tt.mode_sizes[k]}, expected {mk}*{nk}"
                )
        self.tt = tt
        self.row_factors = row_factors
        self.col_factors = col_factors

    @property
    def shape(self) -> tuple:
        return (math.prod(self.row_factors), math.prod(self.col_factors))

    @property
    def ranks(self) -> tuple:
        return self.tt.ranks

    def __repr__(self):
        return (
            f"TTMatrix(shape={self.shape}, row_factors={self.row_factors}, "
            f"col_factors={self.col_factors}, ranks={self.ranks})"
        )


def ttm_from_dense(a, row_factors, col_factors, max_ranks=None, tol=None) -> TTMatrix:
    """Decompose a dense matrix into matrix-TT format via tt_svd."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a matrix, got {a.ndim} dimensions")
    tensor = to_compound_tensor(a, row_factors, col_factors)
    return TTMatrix(tt_svd(tensor, max_ranks=max_ranks, tol=tol), row_factors, col_factors)


def ttm_full(a: TTMatrix) -> np.ndarray:
    """Materialize the dense M x N matrix."""
    return from_compound_tensor(tt_full(a.tt), a.row_factors, a.col_factors)


def ttm_element(a: TTMatrix, l: int, t: int) -> float:
    """Entry (l, t), looked up through the compound multi-index."""
    m, n = a.shape
    if not 0 <= l < m:
        raise IndexError(f"row index {l} out of range for {m} rows")
    if not 0 <= t < n:
        raise IndexError(f"column index {t} out of range for {n} columns")
    mu = index_to_multi(l, a.row_factors)
    nu = index_to_multi(t, a.col_factors)
    compound = tuple(
        mu_k * nk + nu_k for mu_k, nu_k, nk in zip(mu, nu, a.col_factors)
    )
    return tt_element(a.tt, compound)


def ttm_matvec(a: TTMatrix, x) -> np.ndarray:
    """Product A @ x computed core by core, never materializing A.

    The sweep runs left to right, carrying an intermediate with one rank axis,
    the row digits produced so far, and the column digits not yet contracted.
    """
    x = np.asarray(x, dtype=np.float64)
    m, n = a.shape
    if x.shape != (n,):
        raise ShapeError(f"expected a vector of length {n}, got shape {x.shape}")
    d = a.tt.ndim
    # Axes: (rank, mu_1..mu_{k-1}, nu_k..nu_d); column digits little-endian.
    t = x.reshape(a.col_factors, order="F")[None]
    for k in range(d):
        mk, nk = a.row_factors[k], a.col_factors[k]
        core = a.tt.cores[k]
        r_in, _, r_out = core.shape
        quad = core.reshape(r_in, mk, nk, r_out)
        # Contract rank + nu_k; remaining quad axes (mu_k, r_out) lead.
        t = np.tensordot(quad, t, axes=[(0, 2), (0, k + 1)])
        # (mu_k, r_out, mu_1..mu_{k-1}, nu_{k+1}..) -> rank first, mu_k after mu_{k-1}
        order = (1, *range(2, 2 + k), 0, *range(2 + k, t.ndim))
        t = t.transpose(order)
    return t.reshape(m, order="F")
