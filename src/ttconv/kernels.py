"""TT-convolutional kernels: the reshaped higher-order decomposition and the
naive direct decomposition of a 4-way convolution kernel.

A TT weight is a chain of 3-D cores plus a layout, and ``KernelLayout`` is
the one place a layout lives: it says where the chain's entries sit in the
(l, l, C, S) kernel.  Its pair of maps gives the kernel matrix W as
``layout.matrix(tt_chain(chain))`` and the cores' gradients given dL/dW as
``tt_chain_grad(chain, layout.entries(dW))``; a dense kernel, once
``conv.check_kernel`` passes it, decomposes as ``tt_svd(layout.entries(kernel))``.
Every function here that builds, decomposes or reconstructs a kernel goes
through that pair, and the TT layers of ``nn`` build W and its gradient
through it (``weight_matrix`` and ``weight_grads``, the one route that
differentiates a kernel).  The cores of a 1x1 kernel also map to a matrix TT
(``ttconv_to_ttmatrix``); tt-fc sweeps its channel cores in their own
(c_k, s_k) order through ``ttmatrix``'s sweep, which never forms W.

The proposed form (``kernel_layout``) factorizes channels as
``C = prod(C_k)`` and ``S = prod(S_k)`` (padding with zero channels when
needed), reshapes the padded ``l x l x C x S`` kernel into a (d+1)-mode
tensor with mode 0 of size ``l*l`` and mode k of size ``C_k * S_k``, and runs
TT-SVD.  Chain entries reconstruct the kernel as

    K[x, y, c', s'] = G0[x, y] @ G1[c_1, s_1] @ ... @ Gd[c_d, s_d]

where ``c'`` and ``s'`` are little-endian mixed-radix flattenings of the digit
vectors, the spatial slice index is ``x + l * y`` and the compound slice index
within mode k is ``c_k * S_k + s_k``, matching the matrix-TT convention.  The
chain's entries are thus in C order of the digits (y, x, c_1, s_1, ..., c_d,
s_d), the kernel's in C order of (x, y, c_d..c_1, s_d..s_1): one permutation
maps either to the other.  ``TTConvKernel`` holds its chain as a
``TTTensor``; ``_chain_cores`` and its inverse ``_kernel_cores`` map between
the chain's cores and (G0, G1, ..., Gd).

The naive baseline (``naive_layout``) applies TT-SVD to the raw
``(l, l, C, S)`` tensor: its layout is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conv import check_kernel, conv2d_direct, conv2d_gemm
from .errors import ShapeError
from .tt import TTTensor, tt_chain, tt_param_count, tt_svd
from .ttmatrix import TTMatrix, _matrix_axes


@dataclass(frozen=True)
class ChannelFactorization:
    """Factorizations of the (padded) input/output channel counts."""

    c_factors: tuple
    s_factors: tuple
    pad_c: int = 0
    pad_s: int = 0

    def __post_init__(self):
        object.__setattr__(self, "c_factors", tuple(int(f) for f in self.c_factors))
        object.__setattr__(self, "s_factors", tuple(int(f) for f in self.s_factors))
        if len(self.c_factors) != len(self.s_factors) or not self.c_factors:
            raise ShapeError("c_factors and s_factors must have equal nonzero length")
        if any(f < 1 for f in self.c_factors + self.s_factors):
            raise ShapeError("channel factors must be >= 1")
        if self.pad_c < 0 or self.pad_s < 0:
            raise ShapeError("channel padding cannot be negative")
        if self.pad_c >= self.c_padded or self.pad_s >= self.s_padded:
            raise ShapeError("padding must leave at least one real channel")

    @property
    def depth(self) -> int:
        return len(self.c_factors)

    @property
    def c_padded(self) -> int:
        return math.prod(self.c_factors)

    @property
    def s_padded(self) -> int:
        return math.prod(self.s_factors)

    @property
    def channels_in(self) -> int:
        return self.c_padded - self.pad_c

    @property
    def channels_out(self) -> int:
        return self.s_padded - self.pad_s


def _prime_multiplicity(n: int) -> int:
    count = 0
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count + (1 if n > 1 else 0)


def _divisor_chains(n: int, d: int, cap: int):
    """Non-increasing tuples of d divisors >= 2 with product n."""
    if d == 1:
        if 2 <= n <= cap:
            yield (n,)
        return
    for f in range(2, min(cap, n) + 1):
        if n % f == 0:
            for rest in _divisor_chains(n // f, d - 1, f):
                yield (f,) + rest


def _balanced_factors(n: int, d: int) -> tuple:
    if n == 1:
        return (1,) * d
    best = None
    for chain in _divisor_chains(n, d, n):
        key = (chain[0] / chain[-1], chain)  # max/min spread, then lexicographic
        if best is None or key < best[0]:
            best = (key, chain)
    if best is None:
        raise ShapeError(f"{n} has no factorization into {d} factors >= 2")
    return best[1]


def _padded_size(value: int, d: int) -> int:
    if value == 1:
        return 1
    if _prime_multiplicity(value) >= d:
        return value
    exp = max(d, math.ceil(math.log2(value)))
    return 2**exp


def fit_factorization(fact: ChannelFactorization, channels_in: int, channels_out: int) -> ChannelFactorization:
    """Recompute dummy-channel padding for concrete channel counts."""
    pad_c = fact.c_padded - channels_in
    pad_s = fact.s_padded - channels_out
    if pad_c < 0 or pad_s < 0:
        raise ShapeError(
            f"factor products ({fact.c_padded}, {fact.s_padded}) cannot cover "
            f"({channels_in}, {channels_out}) channels"
        )
    return ChannelFactorization(fact.c_factors, fact.s_factors, pad_c, pad_s)


def factorize_channels(channels_in: int, channels_out: int, d: int) -> ChannelFactorization:
    """Balanced d-level factorization of both channel counts.

    Counts whose prime multiplicity is below d are padded up to the next power
    of two (with exponent at least d) by appending zero-filled dummy channels;
    among all divisor chains of the padded count the one with the smallest
    max/min ratio is chosen, reported in descending order.
    """
    if channels_in < 1 or channels_out < 1 or d < 1:
        raise ValueError("channel counts and depth must be positive")
    if d == 1:
        return ChannelFactorization((channels_in,), (channels_out,), 0, 0)
    cp = _padded_size(channels_in, d)
    sp = _padded_size(channels_out, d)
    return ChannelFactorization(
        _balanced_factors(cp, d),
        _balanced_factors(sp, d),
        cp - channels_in,
        sp - channels_out,
    )


class KernelLayout(NamedTuple):
    """Where the entries of a TT chain sit in an (l, l, C, S) kernel.

    The chain's entries, in C order of its ``modes``, have the digit shape
    ``digits``; ``axes`` order those digits as the ``padded`` kernel
    (l, l, C_pad, S_pad), whose real part is its first ``shape`` entries.
    """

    modes: tuple
    digits: tuple
    axes: tuple
    padded: tuple
    shape: tuple

    def matrix(self, entries) -> np.ndarray:
        """The real kernel of the chain's ``entries`` flattened in C order to
        (l*l*C, S): the weight matrix of ``im2col_batch`` patches."""
        kernel = entries.reshape(self.digits).transpose(self.axes).reshape(self.padded)
        _, _, channels, n_out = self.shape
        return kernel[:, :, :channels, :n_out].reshape(-1, n_out)

    def entries(self, kernel) -> np.ndarray:
        """The transpose of ``matrix``: an (l, l, c, S) kernel, or its
        (l*l*c, S) matrix, zero-padded and shaped as the chain's modes."""
        ell, _, c_pad, s_pad = self.padded
        kernel = kernel.reshape(ell, ell, -1, self.shape[3])
        if kernel.shape != self.padded:
            widths = ((0, 0), (0, 0), (0, c_pad - kernel.shape[2]), (0, s_pad - kernel.shape[3]))
            kernel = np.pad(kernel, widths)
        kernel = kernel.reshape([self.digits[a] for a in self.axes])
        return kernel.transpose(np.argsort(self.axes)).reshape(self.modes)


def kernel_layout(ell, fact: ChannelFactorization) -> KernelLayout:
    """The proposed form's layout.

    Digits (y, x, c_1, s_1, ..., c_d, s_d), ordered as the padded kernel's
    (x, y, c_d..c_1, s_d..s_1), over modes (l*l, C_1*S_1, ..., C_d*S_d)."""
    d = fact.depth
    modes = (ell * ell,) + tuple(c * s for c, s in zip(fact.c_factors, fact.s_factors))
    digits = (ell, ell) + tuple(f for pair in zip(fact.c_factors, fact.s_factors) for f in pair)
    axes = (1, 0) + tuple(2 + a for a in _matrix_axes(d))
    padded = (ell, ell, fact.c_padded, fact.s_padded)
    shape = (ell, ell, fact.channels_in, fact.channels_out)
    return KernelLayout(modes, digits, axes, padded, shape)


def naive_layout(shape) -> KernelLayout:
    """The naive form's layout: the chain's modes are the (l, l, C, S) kernel's axes."""
    shape = tuple(shape)
    return KernelLayout(shape, shape, (0, 1, 2, 3), shape, shape)


class TTConvKernel:
    """Convolution kernel held as its TT chain ``tt`` over (l*l, C_1*S_1, ..., C_d*S_d).

    ``g0`` (l, l, r1) and the channel cores (r_k, C_k, S_k, r_{k+1}), r_{d+1} = 1,
    are read-only views of the chain's cores."""

    __slots__ = ("ell", "fact", "tt", "g0", "cores")

    def __init__(self, ell: int, fact: ChannelFactorization, g0, cores):
        if ell < 1:
            raise ShapeError(f"spatial size l must be at least 1, got {ell}")
        g0, cores = np.asarray(g0), [np.asarray(c) for c in cores]
        if g0.ndim != 3 or g0.shape[:2] != (ell, ell):
            raise ShapeError(f"spatial core must be {ell} x {ell} x r1, got {g0.shape}")
        if len(cores) != fact.depth:
            raise ShapeError(f"expected {fact.depth} channel cores, got {len(cores)}")
        for k, (core, ck, sk) in enumerate(zip(cores, fact.c_factors, fact.s_factors)):
            if core.ndim != 4 or core.shape[1:3] != (ck, sk):
                raise ShapeError(f"channel core {k} must be (r, {ck}, {sk}, r'), got {core.shape}")
        if cores[-1].shape[3] != 1:
            raise ShapeError("final TT-rank must equal 1")
        self.ell = ell
        self.fact = fact
        self.tt = TTTensor(_chain_cores(g0, cores))
        self.g0, self.cores = _kernel_cores(self.tt.cores, ell, fact)

    @property
    def ranks(self) -> tuple:
        return self.tt.ranks

    @property
    def param_count(self) -> int:
        return tt_param_count(self.tt)

    def __repr__(self):
        return (
            f"TTConvKernel(ell={self.ell}, c_factors={self.fact.c_factors}, "
            f"s_factors={self.fact.s_factors}, ranks={self.ranks})"
        )


def ttconv_from_dense(kernel, fact: ChannelFactorization, max_ranks=None, tol=None) -> TTConvKernel:
    """Decompose a dense l x l x C x S kernel into the proposed TT form."""
    kernel = check_kernel(kernel)
    if kernel.shape[2] != fact.channels_in or kernel.shape[3] != fact.channels_out:
        raise ShapeError(
            f"kernel channels {kernel.shape[2:]} do not match factorization "
            f"({fact.channels_in}, {fact.channels_out})"
        )
    ell = kernel.shape[0]
    tt = tt_svd(kernel_layout(ell, fact).entries(kernel), max_ranks=max_ranks, tol=tol)
    return TTConvKernel(ell, fact, *_kernel_cores(tt.cores, ell, fact))


def _chain_cores(g0, cores) -> list:
    """The proposed form's cores as a TT chain over (l*l, C_1*S_1, ..., C_d*S_d)."""
    ell, _, r1 = g0.shape
    chain = [g0.transpose(1, 0, 2).reshape(1, ell * ell, r1)]
    for core in cores:
        r_in, ck, sk, r_out = core.shape
        chain.append(core.reshape(r_in, ck * sk, r_out))
    return chain


def _kernel_cores(chain, ell, fact: ChannelFactorization):
    """Inverse of ``_chain_cores``: (g0, channel cores) of a TT-conv kernel's chain."""
    g0 = chain[0].reshape(ell, ell, chain[0].shape[2]).transpose(1, 0, 2)
    cores = tuple(
        core.reshape(core.shape[0], ck, sk, core.shape[2])
        for core, ck, sk in zip(chain[1:], fact.c_factors, fact.s_factors)
    )
    return g0, cores


def ttconv_to_dense(tk: TTConvKernel) -> np.ndarray:
    """Materialize the dense kernel and strip dummy channels."""
    layout = kernel_layout(tk.ell, tk.fact)
    return layout.matrix(tt_chain(tk.tt.cores)).reshape(layout.shape)


def ttconv_forward(x, tk: TTConvKernel) -> np.ndarray:
    """Forward convolution of a single W x H x C input with a TT kernel."""
    return conv2d_gemm(x, ttconv_to_dense(tk))


def ttconv_to_ttmatrix(tk: TTConvKernel) -> TTMatrix:
    """The per-pixel linear map of a 1x1 TT kernel as a matrix in TT format.

    Returns the (S_padded x C_padded) matrix mapping input channels to output
    channels, with the spatial core absorbed into the first channel core and
    each (c_k, s_k) mode taken as (s_k, c_k).
    """
    if tk.ell != 1:
        raise ShapeError("per-pixel matrix form requires a 1x1 kernel")
    first = np.tensordot(tk.g0[0, 0], tk.cores[0], axes=(0, 0))[None]  # (1, C1, S1, r2)
    chain = [first, *tk.cores[1:]]
    mats = [g.transpose(0, 2, 1, 3).reshape(g.shape[0], -1, g.shape[3]) for g in chain]
    return TTMatrix(TTTensor(mats), tk.fact.s_factors, tk.fact.c_factors)


def ttconv_core_shapes(ell: int, fact: ChannelFactorization, ranks) -> list:
    """Shapes of g0 and the channel cores at interior ranks (r_1, ..., r_d)."""
    if len(ranks) != fact.depth:
        raise ShapeError(f"need {fact.depth} interior ranks, got {len(ranks)}")
    chain = tuple(int(r) for r in ranks) + (1,)
    return [(ell, ell, chain[0])] + [
        (chain[k], fact.c_factors[k], fact.s_factors[k], chain[k + 1]) for k in range(fact.depth)
    ]


def random_ttconv_kernel(ell: int, fact: ChannelFactorization, ranks, rng) -> TTConvKernel:
    """TT kernel with standard normal cores at the given interior ranks (r_1, ..., r_d)."""
    g0, *cores = [rng.standard_normal(shape) for shape in ttconv_core_shapes(ell, fact, ranks)]
    return TTConvKernel(ell, fact, g0, cores)


class NaiveTTConvKernel:
    """TT decomposition applied to the raw (l, l, C, S) kernel tensor."""

    __slots__ = ("tt",)

    def __init__(self, tt: TTTensor):
        if tt.ndim != 4:
            raise ShapeError(f"naive kernel TT must have 4 modes, got {tt.ndim}")
        if tt.mode_sizes[0] != tt.mode_sizes[1]:
            raise ShapeError("filter must be square")
        self.tt = tt

    @property
    def ell(self) -> int:
        return self.tt.mode_sizes[0]

    @property
    def param_count(self) -> int:
        return tt_param_count(self.tt)

    def __repr__(self):
        return f"NaiveTTConvKernel(mode_sizes={self.tt.mode_sizes}, ranks={self.tt.ranks})"


def naive_ttconv_from_dense(kernel, max_ranks=None, tol=None) -> NaiveTTConvKernel:
    kernel = check_kernel(kernel)
    entries = naive_layout(kernel.shape).entries(kernel)
    return NaiveTTConvKernel(tt_svd(entries, max_ranks=max_ranks, tol=tol))


def naive_ttconv_to_dense(nk: NaiveTTConvKernel) -> np.ndarray:
    layout = naive_layout(nk.tt.mode_sizes)
    return layout.matrix(tt_chain(nk.tt.cores)).reshape(layout.shape)


def naive_ttconv_forward(x, nk: NaiveTTConvKernel) -> np.ndarray:
    """Dense convolution with the reconstructed kernel (desk-scale sizes)."""
    return conv2d_direct(x, naive_ttconv_to_dense(nk))


def compression_ratio(dense_params: int, compressed_params: int) -> float:
    """Network-level ratio: uncompressed / compressed parameter count."""
    if dense_params <= 0 or compressed_params <= 0:
        raise ValueError("parameter counts must be positive")
    return dense_params / compressed_params
