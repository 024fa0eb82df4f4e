import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ttconv.conv import conv2d_direct, kernel_to_matrix, matrix_to_kernel
from ttconv.errors import ShapeError
from ttconv.kernels import (
    ChannelFactorization,
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
from ttconv.nn import NaiveTTConv, TTConv, TTDense
from ttconv.tt import TTTensor, tt_chain, tt_chain_grad, tt_param_count, tt_svd
from ttconv.ttmatrix import (
    TTMatrix,
    from_compound_tensor,
    to_compound_tensor,
    ttm_batch,
    ttm_batch_vjp,
    ttm_matvec,
)


def full_ranks_for(ell, fact):
    """Feasible maximal interior ranks of the (d+1)-mode kernel tensor."""
    modes = [ell * ell] + [c * s for c, s in zip(fact.c_factors, fact.s_factors)]
    caps = []
    for k in range(1, len(modes)):
        caps.append(min(math.prod(modes[:k]), math.prod(modes[k:])))
    return tuple(caps)


def balanced_chains_oracle(n, d):
    """Every multiset of d factors >= 2 with product n, by brute force."""
    chains = set()

    def rec(rem, prefix):
        if len(prefix) == d:
            if rem == 1:
                chains.add(tuple(sorted(prefix, reverse=True)))
            return
        for f in range(2, rem + 1):
            if rem % f == 0:
                rec(rem // f, prefix + [f])

    rec(n, [])
    return chains


class TestFactorizeChannels:
    def test_64_64_d3_balanced(self):
        fact = factorize_channels(64, 64, 3)
        assert fact.c_factors == (4, 4, 4)
        assert fact.s_factors == (4, 4, 4)
        assert fact.pad_c == fact.pad_s == 0
        # balance agrees with brute-force enumeration
        chains = balanced_chains_oracle(64, 3)
        best = min(c[0] / c[-1] for c in chains)
        assert fact.c_factors[0] / fact.c_factors[-1] == best

    def test_single_channel(self):
        for d in (1, 2, 3):
            fact = factorize_channels(1, 1, d)
            assert fact.c_factors == (1,) * d
            assert fact.pad_c == 0

    def test_pad_3_to_4(self):
        fact = factorize_channels(3, 3, 2)
        assert fact.c_factors == (2, 2)
        assert fact.pad_c == 1
        assert fact.channels_in == 3

    def test_d1_identity(self):
        fact = factorize_channels(7, 5, 1)
        assert fact.c_factors == (7,)
        assert fact.s_factors == (5,)
        assert fact.pad_c == fact.pad_s == 0

    def test_12_d2(self):
        fact = factorize_channels(12, 12, 2)
        assert fact.c_factors == (4, 3)

    def test_pad_to_2_pow_d(self):
        fact = factorize_channels(2, 2, 3)
        assert fact.c_padded == 8
        assert fact.c_factors == (2, 2, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            factorize_channels(0, 4, 2)
        with pytest.raises(ShapeError):
            ChannelFactorization((2, 2), (2,))


class TestFromToDense:
    def test_ell1_d1_full_rank_roundtrip(self):
        rng = np.random.default_rng(0)
        kernel = rng.standard_normal((1, 1, 4, 6))
        fact = factorize_channels(4, 6, 1)
        tk = ttconv_from_dense(kernel, fact, max_ranks=full_ranks_for(1, fact))
        assert_allclose(ttconv_to_dense(tk), kernel, rtol=1e-10, atol=1e-12)

    def test_3x3x4x4_d2_roundtrip(self):
        rng = np.random.default_rng(1)
        kernel = rng.standard_normal((3, 3, 4, 4))
        fact = ChannelFactorization((2, 2), (2, 2))
        tk = ttconv_from_dense(kernel, fact, max_ranks=full_ranks_for(3, fact))
        back = ttconv_to_dense(tk)
        assert np.linalg.norm(back - kernel) <= 1e-10 * np.linalg.norm(kernel)

    def test_recovers_exact_chain(self):
        rng = np.random.default_rng(2)
        fact = ChannelFactorization((2, 2), (2, 2))
        tk = random_ttconv_kernel(3, fact, (2, 2), rng)
        kernel = ttconv_to_dense(tk)
        again = ttconv_from_dense(kernel, fact, max_ranks=(2, 2))
        assert np.linalg.norm(ttconv_to_dense(again) - kernel) <= 1e-10 * np.linalg.norm(kernel)

    def test_padded_channels_roundtrip(self):
        rng = np.random.default_rng(3)
        kernel = rng.standard_normal((3, 3, 3, 5))
        fact = factorize_channels(3, 5, 2)
        assert fact.pad_c == 1 and fact.pad_s == 3
        tk = ttconv_from_dense(kernel, fact, max_ranks=full_ranks_for(3, fact))
        assert_allclose(ttconv_to_dense(tk), kernel, rtol=1e-9, atol=1e-12)

    def test_all_scalar_ones_chain(self):
        fact = ChannelFactorization((1, 1), (1, 1))
        tk = TTConvKernel(
            2, fact, np.ones((2, 2, 1)), [np.ones((1, 1, 1, 1)), np.ones((1, 1, 1, 1))]
        )
        assert_allclose(ttconv_to_dense(tk), np.ones((2, 2, 1, 1)))

    def test_spatial_size_zero_rejected(self):
        fact = ChannelFactorization((1,), (1,))
        with pytest.raises(ShapeError, match="l must be at least 1"):
            TTConvKernel(0, fact, np.ones((0, 0, 1)), [np.ones((1, 1, 1, 1))])

    def test_factorization_mismatch(self):
        fact = ChannelFactorization((2, 2), (2, 2))
        with pytest.raises(ShapeError):
            ttconv_from_dense(np.zeros((3, 3, 5, 4)), fact, max_ranks=(2, 2))

    def test_spatial_slice_indexing(self):
        # G0[x, y] must be the slice l*y + x of the mode-0 core
        rng = np.random.default_rng(4)
        kernel = rng.standard_normal((3, 3, 2, 2))
        fact = factorize_channels(2, 2, 1)
        tk = ttconv_from_dense(kernel, fact, max_ranks=full_ranks_for(3, fact))
        tt = tk.tt
        for x in range(3):
            for y in range(3):
                assert_allclose(tk.g0[x, y], tt.cores[0][0, x + 3 * y])


def reference_matrix(tk, channels):
    """Kernel matrix by the paper-order route: the chain as a compound matrix in
    kernel_to_matrix's row order, then matrix_to_kernel and a C-order flattening."""
    ell, fact = tk.ell, tk.fact
    rows, cols = (ell * ell,) + fact.c_factors, (1,) + fact.s_factors
    mat = from_compound_tensor(tt_chain(tk.tt.cores), rows, cols)
    mat = mat[: ell * ell * channels, : fact.channels_out]
    return matrix_to_kernel(mat, ell, channels).reshape(mat.shape)


def reference_matrix_grad(tk, dmat):
    """VJP of reference_matrix through an F-order zero-padded kernel buffer."""
    ell, fact = tk.ell, tk.fact
    rows, cols = (ell * ell,) + fact.c_factors, (1,) + fact.s_factors
    channels, n_out = dmat.shape[0] // (ell * ell), dmat.shape[1]
    dkernel = np.zeros((ell, ell, fact.c_padded, fact.s_padded), order="F")
    dkernel[:, :, :channels, :n_out] = dmat.reshape(ell, ell, channels, n_out)
    # kernel_to_matrix's row i + l*j + l*l*c is the F-order flattening of (i, j, c)
    dfull = to_compound_tensor(dkernel.reshape((-1, fact.s_padded), order="F"), rows, cols)
    grads = tt_chain_grad(tk.tt.cores, dfull)
    dg0 = grads[0].reshape(ell, ell, -1).transpose(1, 0, 2)
    return [dg0] + [g.reshape(core.shape) for g, core in zip(grads[1:], tk.cores)]


def reference_from_dense(kernel, fact, max_ranks):
    """Cores of the proposed form via kernel_to_matrix and to_compound_tensor."""
    ell = kernel.shape[0]
    mat = kernel_to_matrix(np.pad(kernel, ((0, 0), (0, 0), (0, fact.pad_c), (0, fact.pad_s))))
    tensor = to_compound_tensor(mat, (ell * ell,) + fact.c_factors, (1,) + fact.s_factors)
    tt = tt_svd(tensor, max_ranks=max_ranks)
    g0 = tt.cores[0].reshape(ell, ell, -1).transpose(1, 0, 2)
    cores = [
        core.reshape(core.shape[0], ck, sk, core.shape[2])
        for core, ck, sk in zip(tt.cores[1:], fact.c_factors, fact.s_factors)
    ]
    return [g0] + cores


def assert_bitwise_equal(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# (l, c_factors, s_factors, pad_c, pad_s): l in 1..3 and d in 1..3, each with and
# without dummy channels, and the paper-like tt-fc 14400 -> 64 (120x120:8x8)
LAYOUT_SHAPES = [
    (ell, c, s, pc, ps)
    for ell in (1, 2, 3)
    for c, s, pc, ps in (
        ((6,), (4,), 0, 0),
        ((6,), (4,), 1, 2),
        ((3, 2), (2, 2), 0, 0),
        ((2, 2), (4, 2), 1, 3),
        ((2, 2, 2), (2, 3, 1), 0, 0),
        ((2, 2, 2), (2, 2, 2), 3, 1),
    )
] + [(1, (120, 120), (8, 8), 0, 0)]
LAYOUT_IDS = [
    f"l{ell}-{'x'.join(map(str, c))}:{'x'.join(map(str, s))}-pad{pc},{ps}"
    for ell, c, s, pc, ps in LAYOUT_SHAPES
]


@pytest.mark.parametrize("ell,c_factors,s_factors,pad_c,pad_s", LAYOUT_SHAPES, ids=LAYOUT_IDS)
class TestLayoutMatchesPaperOrderRoute:
    """The single chain <-> kernel permutation gives bitwise the values of the
    paper-order route through conv's and ttmatrix's layout helpers."""

    @staticmethod
    def kernel(ell, c_factors, s_factors, pad_c, pad_s):
        fact = ChannelFactorization(c_factors, s_factors, pad_c, pad_s)
        ranks = (2, 3, 2)[: fact.depth]
        return random_ttconv_kernel(ell, fact, ranks, np.random.default_rng(ell * 100 + fact.depth))

    @staticmethod
    def layer(tk, channels):
        """A tt-conv layer holding tk's cores over its first ``channels`` input
        channels, which it factorizes by ``fit_factorization``."""
        layer = TTConv(tk.ell, tk.fact.channels_out, tk.ranks[1:-1], factors=tk.fact, bias=False)
        layer.build((tk.ell, tk.ell, channels), np.random.default_rng(0))
        assert layer.fact == fit_factorization(tk.fact, channels, tk.fact.channels_out)
        for p, core in zip(layer.params, [tk.g0, *tk.cores], strict=True):
            p[...] = core
        return layer

    def test_matrix(self, ell, c_factors, s_factors, pad_c, pad_s):
        tk = self.kernel(ell, c_factors, s_factors, pad_c, pad_s)
        for channels in {1, tk.fact.channels_in}:
            got = self.layer(tk, channels).weight_matrix()
            assert_bitwise_equal(got, reference_matrix(tk, channels))

    def test_matrix_grad(self, ell, c_factors, s_factors, pad_c, pad_s):
        tk = self.kernel(ell, c_factors, s_factors, pad_c, pad_s)
        rng = np.random.default_rng(7)
        for channels in {1, tk.fact.channels_in}:
            layer = self.layer(tk, channels)
            dmat = rng.standard_normal((ell * ell * channels, tk.fact.channels_out))
            # the network passes dL/dW as the transpose of a C-order product
            for layout in (dmat, np.asfortranarray(dmat)):
                grads = layer.weight_grads(layout)
                for got, want in zip(grads, reference_matrix_grad(tk, dmat), strict=True):
                    assert_bitwise_equal(got, want)

    def test_from_dense(self, ell, c_factors, s_factors, pad_c, pad_s):
        fact = ChannelFactorization(c_factors, s_factors, pad_c, pad_s)
        rng = np.random.default_rng(11)
        kernel = rng.standard_normal((ell, ell, fact.channels_in, fact.channels_out))
        max_ranks = (3,) * fact.depth
        tk = ttconv_from_dense(kernel, fact, max_ranks=max_ranks)
        for got, want in zip([tk.g0, *tk.cores], reference_from_dense(kernel, fact, max_ranks)):
            assert_bitwise_equal(got, want)


def reference_ttmatrix(g0, cores, fact):
    """The matrix TT of the 1x1 kernel (g0, cores) through a ``TTConvKernel``:
    the spatial core absorbed into channel core 1, each (c_k, s_k) mode as
    (s_k, c_k).  Returns the kernel too, for ``reference_ttmatrix_grad``."""
    tk = TTConvKernel(1, fact, g0, cores)
    first = np.tensordot(tk.g0[0, 0], tk.cores[0], axes=(0, 0))
    chain = [first.transpose(1, 0, 2).reshape(1, -1, tk.cores[0].shape[3])]
    for core in tk.cores[1:]:
        r_in, ck, sk, r_out = core.shape
        chain.append(core.transpose(0, 2, 1, 3).reshape(r_in, sk * ck, r_out))
    return tk, TTMatrix(TTTensor(chain), fact.s_factors, fact.c_factors)


def reference_ttmatrix_grad(tk, dcores):
    """VJP of reference_ttmatrix: gradients (dg0, [dG_k]) of the kernel's cores."""
    dchan = [
        g.reshape(g.shape[0], sk, ck, g.shape[2]).transpose(0, 2, 1, 3)
        for g, ck, sk in zip(dcores, tk.fact.c_factors, tk.fact.s_factors)
    ]
    dfirst = dchan[0][0]
    dg0 = np.tensordot(tk.cores[0], dfirst, axes=3).reshape(tk.g0.shape)
    dchan[0] = np.multiply.outer(tk.g0[0, 0], dfirst)
    return [dg0, *dchan]


def reference_tt_fc_pass(layer, x, dy):
    """y, dx and parameter gradients of a training pass of a ``TTDense`` through
    ``ttm_batch`` / ``ttm_batch_vjp`` on reference_ttmatrix of its cores."""
    fact = layer.fact
    tk, a = reference_ttmatrix(layer.params[0], layer.params[1 : 1 + fact.depth], fact)
    cols = np.pad(x.reshape(len(x), -1), ((0, 0), (0, fact.pad_c)))
    y, sweep = ttm_batch(a, cols)
    y = y[:, : layer.out_features]
    dx, dmats = ttm_batch_vjp(a, sweep, np.pad(dy, ((0, 0), (0, fact.pad_s))))
    grads = reference_ttmatrix_grad(tk, dmats)
    if layer.with_bias:
        y = y + layer.params[-1]
        grads.append(dy.sum(axis=0))
    return [y, dx[:, : layer.in_features].reshape(x.shape)] + grads


# (C, S): channel counts whose factorization needs no dummy channels, and
# counts that need them on both sides
LAYER_CHANNELS = [(4, 6), (3, 5)]
# (input features, outputs, d, ranks): unpadded, padded outputs, padded inputs,
# both padded, d = 1, and the paper-like tt-fc 14400 -> 64
TT_FC_LAYERS = [
    (16, 8, 2, (3, 2)),
    (6, 5, 2, (2, 3)),
    (5, 8, 2, (2, 2)),
    (3, 7, 3, (2, 2, 2)),
    (12, 9, 1, (3,)),
    (14400, 64, 2, (8, 8)),
]


class TestLayersMatchKernelRoute:
    """Each TT layer kind's weights, gradients and (for tt-fc) whole pass give
    bitwise the values of its kernel-level route, at the same cores."""

    @staticmethod
    def dmat_layouts(shape):
        # the network passes dL/dW as the transpose of a C-order product
        dmat = np.random.default_rng(7).standard_normal(shape)
        return dmat, np.asfortranarray(dmat)

    @pytest.mark.parametrize("ell", [1, 3])
    @pytest.mark.parametrize("c,s", LAYER_CHANNELS)
    def test_naive_tt_conv(self, c, s, ell):
        layer = NaiveTTConv(ell, s, ranks=(2, 3, 2))
        layer.build((5, 5, c), np.random.default_rng(3))
        chain = layer.params[:4]
        assert_bitwise_equal(layer.weight_matrix(), tt_chain(chain).reshape(ell * ell * c, s))
        for dmat in self.dmat_layouts((ell * ell * c, s)):
            ref = tt_chain_grad(chain, dmat)
            for got, want in zip(layer.weight_grads(dmat), ref, strict=True):
                assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("ell", [1, 3])
    @pytest.mark.parametrize("c,s", LAYER_CHANNELS)
    def test_tt_conv(self, c, s, ell):
        layer = TTConv(ell, s, ranks=(2, 3), d=2)
        layer.build((5, 5, c), np.random.default_rng(4))
        g0, *cores = layer.params[:3]
        tk = TTConvKernel(ell, layer.fact, g0, cores)
        assert_bitwise_equal(layer.weight_matrix(), reference_matrix(tk, c))
        for dmat in self.dmat_layouts((ell * ell * c, s)):
            grads = layer.weight_grads(dmat)
            for got, want in zip(grads, reference_matrix_grad(tk, dmat), strict=True):
                assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("c,s,d,ranks", TT_FC_LAYERS)
    def test_tt_fc(self, c, s, d, ranks, bias):
        layer = TTDense(s, ranks=ranks, d=d, bias=bias)
        layer.build((c,), np.random.default_rng(5))
        rng = np.random.default_rng(6)
        if bias:
            layer.params[-1][...] = rng.standard_normal(s)
        x, dy = rng.standard_normal((4, c)), rng.standard_normal((4, s))
        want = reference_tt_fc_pass(layer, x, dy)
        y = layer.forward(x, train=True)
        got = [y, layer.backward(dy)] + layer.grads
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_bitwise_equal(a, b)


class TestChainProductOracle:
    def test_dense_entries_equal_explicit_chain(self):
        # K[x, y, c', s'] = G0[x,y] @ G1[c1,s1] @ ... with little-endian digits
        from ttconv.ttmatrix import index_to_multi

        rng = np.random.default_rng(17)
        fact = ChannelFactorization((2, 3), (3, 2))
        tk = random_ttconv_kernel(2, fact, (2, 3), rng)
        dense = ttconv_to_dense(tk)
        assert dense.shape == (2, 2, 6, 6)
        for x in range(2):
            for y in range(2):
                for c in range(6):
                    for s in range(6):
                        cd = index_to_multi(c, fact.c_factors)
                        sd = index_to_multi(s, fact.s_factors)
                        v = tk.g0[x, y][None, :]
                        for k in range(fact.depth):
                            v = v @ tk.cores[k][:, cd[k], sd[k], :]
                        assert_allclose(dense[x, y, c, s], v[0, 0], rtol=1e-12, atol=1e-14)


class TestForward:
    def test_ell1_d1_is_per_pixel_matvec(self):
        rng = np.random.default_rng(5)
        kernel = rng.standard_normal((1, 1, 4, 3))
        fact = factorize_channels(4, 3, 1)
        tk = ttconv_from_dense(kernel, fact, max_ranks=full_ranks_for(1, fact))
        x = rng.standard_normal((5, 4, 4))
        y = ttconv_forward(x, tk)
        for xx in range(5):
            for yy in range(4):
                assert_allclose(y[xx, yy], kernel[0, 0].T @ x[xx, yy], rtol=1e-10)

    def test_matches_dense_path_full_rank(self):
        rng = np.random.default_rng(6)
        kernel = rng.standard_normal((3, 3, 4, 4))
        fact = ChannelFactorization((2, 2), (2, 2))
        tk = ttconv_from_dense(kernel, fact, max_ranks=full_ranks_for(3, fact))
        x = rng.standard_normal((8, 8, 4))
        ref = conv2d_direct(x, ttconv_to_dense(tk))
        got = ttconv_forward(x, tk)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_truncated_ranks_consistency(self):
        rng = np.random.default_rng(7)
        kernel = rng.standard_normal((3, 3, 4, 4))
        fact = ChannelFactorization((2, 2), (2, 2))
        tk = ttconv_from_dense(kernel, fact, max_ranks=(1, 1))
        x = rng.standard_normal((6, 6, 4))
        ref = conv2d_direct(x, ttconv_to_dense(tk))
        got = ttconv_forward(x, tk)
        assert np.linalg.norm(got - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))

    def test_input_channel_padding(self):
        # 3 real input channels, padded factorization (2,2)
        rng = np.random.default_rng(8)
        kernel = rng.standard_normal((3, 3, 3, 4))
        fact = factorize_channels(3, 4, 2)
        tk = ttconv_from_dense(kernel, fact, max_ranks=full_ranks_for(3, fact))
        x = rng.standard_normal((7, 7, 3))
        ref = conv2d_direct(x, ttconv_to_dense(tk))
        got = ttconv_forward(x, tk)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_wrong_channel_count_rejected(self):
        # a 3-channel kernel padded to 4: 2 channels would drop one, and 4 would
        # read the dummy channel's (nonzero) chain weights
        rng = np.random.default_rng(18)
        fact = factorize_channels(3, 4, 2)
        tk = random_ttconv_kernel(3, fact, (2, 2), rng)
        for channels in (2, 4):
            with pytest.raises(ShapeError, match="channel mismatch"):
                ttconv_forward(rng.standard_normal((6, 6, channels)), tk)

    def test_equivalence_many_seeds(self):
        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            c, s = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            ell = int(rng.choice([1, 3]))
            d = int(rng.integers(1, 4))
            fact = factorize_channels(c, s, d)
            kernel = rng.standard_normal((ell, ell, c, s))
            caps = full_ranks_for(ell, fact)
            if rng.random() < 0.5:
                caps = tuple(max(1, r // 2) for r in caps)
            tk = ttconv_from_dense(kernel, fact, max_ranks=caps)
            x = rng.standard_normal((6, 6, c))
            ref = conv2d_direct(x, ttconv_to_dense(tk))
            got = ttconv_forward(x, tk)
            assert np.linalg.norm(got - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


class TestOneByOneCoincidence:
    def test_matches_ttm_matvec(self):
        rng = np.random.default_rng(9)
        fact = factorize_channels(6, 6, 2)
        tk = random_ttconv_kernel(1, fact, (2, 3), rng)
        a = ttconv_to_ttmatrix(tk)
        assert a.shape == (fact.s_padded, fact.c_padded)
        x = rng.standard_normal((3, 3, 6))
        y = ttconv_forward(x, tk)
        for xx in range(3):
            for yy in range(3):
                xpad = np.zeros(fact.c_padded)
                xpad[:6] = x[xx, yy]
                ref = ttm_matvec(a, xpad)[: fact.channels_out]
                assert np.max(np.abs(y[xx, yy] - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))

    def test_requires_1x1(self):
        fact = factorize_channels(4, 4, 2)
        tk = random_ttconv_kernel(3, fact, (2, 2), np.random.default_rng(0))
        with pytest.raises(ShapeError):
            ttconv_to_ttmatrix(tk)


class TestNaive:
    def test_full_rank_roundtrip(self):
        rng = np.random.default_rng(10)
        kernel = rng.standard_normal((3, 3, 4, 5))
        nk = naive_ttconv_from_dense(kernel, max_ranks=(3, 9, 5))
        assert_allclose(naive_ttconv_to_dense(nk), kernel, rtol=1e-10, atol=1e-12)

    def test_rank1_separable_kernel(self):
        rng = np.random.default_rng(11)
        a, b, c, d = (rng.standard_normal(n) for n in (3, 3, 4, 4))
        kernel = np.einsum("i,j,c,s->ijcs", a, b, c, d)
        nk = naive_ttconv_from_dense(kernel, max_ranks=(1, 1, 1))
        assert np.linalg.norm(naive_ttconv_to_dense(nk) - kernel) <= 1e-10 * np.linalg.norm(kernel)

    def test_forward_matches_dense(self):
        rng = np.random.default_rng(12)
        kernel = rng.standard_normal((3, 3, 4, 4))
        nk = naive_ttconv_from_dense(kernel, max_ranks=(2, 4, 3))
        x = rng.standard_normal((6, 6, 4))
        ref = conv2d_direct(x, naive_ttconv_to_dense(nk))
        assert_allclose(naive_ttconv_forward(x, nk), ref, rtol=1e-12)

    def test_full_rank_naive_and_proposed_agree(self):
        rng = np.random.default_rng(13)
        kernel = rng.standard_normal((3, 3, 4, 4))
        fact = ChannelFactorization((2, 2), (2, 2))
        tk = ttconv_from_dense(kernel, fact, max_ranks=full_ranks_for(3, fact))
        nk = naive_ttconv_from_dense(kernel, max_ranks=(3, 9, 4))
        x = rng.standard_normal((7, 7, 4))
        ya = ttconv_forward(x, tk)
        yb = naive_ttconv_forward(x, nk)
        assert np.linalg.norm(ya - yb) <= 1e-10 * np.linalg.norm(yb)


class TestParamsAndRatio:
    def test_param_formula_matches_tt(self):
        rng = np.random.default_rng(14)
        for d, ranks in ((1, (3,)), (2, (2, 3)), (3, (2, 2, 2))):
            fact = factorize_channels(8, 8, d)
            tk = random_ttconv_kernel(3, fact, ranks, rng)
            r = tk.ranks
            expected = 9 * r[1] + sum(
                fact.c_factors[k] * fact.s_factors[k] * r[k + 1] * r[k + 2]
                for k in range(d)
            )
            assert tk.param_count == expected
            assert tk.param_count == tt_param_count(tk.tt)

    def test_compression_ratio(self):
        assert compression_ratio(1000, 250) == 4.0
        assert compression_ratio(64, 64) == 1.0
        with pytest.raises(ValueError):
            compression_ratio(0, 5)


class TestDummyChannelNeutrality:
    def test_zero_padding_is_neutral(self):
        rng = np.random.default_rng(15)
        kernel = rng.standard_normal((3, 3, 3, 3))
        x = rng.standard_normal((6, 6, 3))
        ref = conv2d_direct(x, kernel)
        # extend both input and kernel with zero channels
        xpad = np.zeros((6, 6, 4))
        xpad[..., :3] = x
        kpad = np.zeros((3, 3, 4, 4))
        kpad[:, :, :3, :3] = kernel
        ypad = conv2d_direct(xpad, kpad)
        assert np.array_equal(ypad[..., :3], ref)
        assert np.all(ypad[..., 3] == 0.0)


class TestBackwardBatch:
    def test_finite_difference_gradients(self):
        rng = np.random.default_rng(16)
        fact = factorize_channels(4, 4, 2)
        tk = random_ttconv_kernel(2, fact, (2, 2), rng)
        xb = rng.standard_normal((2, 5, 5, 4))
        w = rng.standard_normal((2, 4, 4, 4))  # projection making a scalar loss

        layer = TTConv(tk.ell, 4, ranks=(2, 2), factors=fact, bias=False)
        layer.build(xb.shape[1:], np.random.default_rng(0))
        for p, value in zip(layer.params, (tk.g0, *tk.cores)):
            p[...] = value

        def loss(x):
            return float(np.sum(layer.forward(x) * w))

        layer.forward(xb, train=True)
        dx = layer.backward(w)
        dg0, *dcores = [np.array(g) for g in layer.grads]

        h = 1e-6

        def check(analytic, arr, x):
            flat = arr.ravel()
            idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                fp = loss(x)
                flat[i] = orig - h
                fm = loss(x)
                flat[i] = orig
                fd = (fp - fm) / (2 * h)
                an = analytic.ravel()[i]
                assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))

        check(dg0, layer.params[0], xb)
        for k in range(2):
            check(dcores[k], layer.params[1 + k], xb)
        xv = np.array(xb)
        check(dx, xv, xv)
