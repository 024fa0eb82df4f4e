"""Matrix TT format: TT decomposition of a matrix with factorized indices.

An ``M x N`` matrix with ``M = prod(m_k)`` and ``N = prod(n_k)`` is reshaped
into a d-dimensional tensor whose mode ``k`` has size ``m_k * n_k``, by mapping
row and column indices to mixed-radix digit vectors and pairing the digits.
Both digit maps are little-endian (digit 0 varies fastest); within a mode the
compound slice index is ``row_digit * n_k + col_digit`` (column digit fastest).
The same pairing convention is reused by the TT-convolution kernels.

Products with A never materialize it: ``_ttm_sweep`` computes ``X A^T`` for
a batch of rows by one GEMM per core and keeps the operands for its VJP.  It
takes cores input digit first, (r_{k-1}, n_k, m_k, r_k), as ``nn.TTDense``'s
channel cores are; ``ttm_batch`` and ``ttm_batch_vjp`` sweep a ``TTMatrix``'s
cores viewed in that order, and ``ttm_matvec`` is the one-row call.
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


def _matrix_axes(d: int) -> list:
    """Axes that take the compound digits (mu_1, nu_1, ..., mu_d, nu_d) to
    (mu_d..mu_1, nu_d..nu_1), which in C order are the M x N matrix's (digit
    1 fastest); one C-order copy is cheaper than an F-order reshape."""
    return [2 * k for k in reversed(range(d))] + [2 * k + 1 for k in reversed(range(d))]


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
    digits = a.reshape(row_factors[::-1] + col_factors[::-1])
    return digits.transpose(np.argsort(_matrix_axes(d))).reshape(
        tuple(mk * nk for mk, nk in zip(row_factors, col_factors))
    )


def from_compound_tensor(t: np.ndarray, row_factors, col_factors) -> np.ndarray:
    """Inverse of to_compound_tensor."""
    row_factors = tuple(int(f) for f in row_factors)
    col_factors = tuple(int(f) for f in col_factors)
    pairs = t.reshape(tuple(x for mk, nk in zip(row_factors, col_factors) for x in (mk, nk)))
    m, n = math.prod(row_factors), math.prod(col_factors)
    return pairs.transpose(_matrix_axes(len(row_factors))).reshape(m, n)


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
    """Product A @ x computed core by core, never materializing A: the
    one-row call of ``ttm_batch``."""
    x = np.asarray(x, dtype=np.float64)
    n = a.shape[1]
    if x.shape != (n,):
        raise ShapeError(f"expected a vector of length {n}, got shape {x.shape}")
    return ttm_batch(a, x[None])[0][0]


def ttm_batch(a: TTMatrix, x):
    """``Y = X A^T`` for the rows of X, shape (B, N), one core at a time.

    Returns Y, shape (B, M), and the sweep, which ``ttm_batch_vjp`` reuses.
    """
    x = np.asarray(x, dtype=np.float64)
    n = a.shape[1]
    if x.ndim != 2 or x.shape[1] != n:
        raise ShapeError(f"expected rows of length {n}, got shape {x.shape}")
    return _ttm_sweep(_input_first(a), x)


def ttm_batch_vjp(a: TTMatrix, sweep, dy, input_grad=True):
    """Gradients (dX, [dG_k]) of ``sum(dy * Y)`` for ``Y, sweep = ttm_batch(a, X)``."""
    dx, dcores = _ttm_sweep_vjp(_input_first(a), sweep, dy, input_grad)
    return dx, [g.transpose(0, 2, 1, 3).reshape(c.shape) for g, c in zip(dcores, a.tt.cores)]


def _input_first(a: TTMatrix) -> list:
    """A's cores viewed input digit first, as (r_{k-1}, n_k, m_k, r_k)."""
    return [
        core.reshape(core.shape[0], mk, nk, core.shape[2]).transpose(0, 2, 1, 3)
        for core, mk, nk in zip(a.tt.cores, a.row_factors, a.col_factors)
    ]


# (L, n_{k+1}, prod m_<k, m_k, r_k) <-> (L, m_k, prod m_<k, n_{k+1}, r_k)
_SWAP = (0, 3, 2, 1, 4)


def _ttm_sweep(cores, x):
    """``Y = X A^T`` for the rows of X, shape (B, N), A the matrix TT of
    ``cores`` (r_{k-1}, n_k, m_k, r_k).  Returns Y, shape (B, M), and the
    sweep: the GEMM operands of every core.

    Before core k the rows of the carried left operand run over (batch,
    nu_d..nu_{k+1}, mu_{k-1}..mu_1) and its columns over (nu_k, r_{k-1}).
    One GEMM with the core as (n_k * r_{k-1}, m_k * r_k) replaces nu_k by
    mu_k, and ``_SWAP`` moves mu_k to the front of the row digits and
    nu_{k+1} into the columns (n_{d+1} = 1).  Digit 1 is fastest on both
    sides, so after the last core the rows are Y.
    """
    lhs = x.reshape(-1, cores[0].shape[1])
    sweep = []
    done = 1
    for k, core in enumerate(cores):
        r_in, nk, mk, r_out = core.shape
        n_next = cores[k + 1].shape[1] if k + 1 < len(cores) else 1
        g = core.transpose(1, 0, 2, 3).reshape(nk * r_in, mk * r_out)
        sweep.append((lhs, g))
        lhs = (lhs @ g).reshape(-1, n_next, done, mk, r_out).transpose(_SWAP).reshape(-1, n_next * r_out)
        done *= mk
    return lhs.reshape(len(x), done), sweep


def _ttm_sweep_vjp(cores, sweep, dy, input_grad=True):
    """Gradients (dX, [dG_k]) of ``sum(dy * Y)``, dy (B, M), for ``Y, sweep =
    _ttm_sweep(cores, X)``; dG_k is a view in core k's shape.

    Runs the sweep backwards: the carried gradient is brought back to core
    k's output order by the inverse of its transpose (the same axis swap),
    core k gets ``lhs^T @ dout`` and the carried gradient becomes
    ``dout @ g^T``.  With ``input_grad=False`` dX is None and core 1's
    ``dout @ g^T`` is skipped.
    """
    grad = np.asarray(dy, dtype=np.float64)
    n, done = (math.prod(core.shape[axis] for core in cores) for axis in (1, 2))
    batch = sweep[0][0].size // n
    if grad.shape != (batch, done):
        raise ShapeError(f"expected dy of shape {(batch, done)}, got {grad.shape}")
    dcores = [None] * len(cores)
    for k in reversed(range(len(cores))):
        lhs, g = sweep[k]
        r_in, nk, mk, r_out = cores[k].shape
        n_next = cores[k + 1].shape[1] if k + 1 < len(cores) else 1
        done //= mk
        dout = grad.reshape(-1, mk, done, n_next, r_out).transpose(_SWAP)
        dout = dout.reshape(len(lhs), g.shape[1])
        dcores[k] = (lhs.T @ dout).reshape(nk, r_in, mk, r_out).transpose(1, 0, 2, 3)
        if k or input_grad:
            grad = dout @ g.T
    return (grad.reshape(batch, n) if input_grad else None), dcores
