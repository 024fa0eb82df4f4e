import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ttconv.errors import ShapeError
from ttconv.tt import TTTensor, random_tt, tt_param_count
from ttconv.ttmatrix import (
    TTMatrix,
    from_compound_tensor,
    index_to_multi,
    multi_to_index,
    to_compound_tensor,
    ttm_batch,
    ttm_batch_vjp,
    ttm_element,
    ttm_from_dense,
    ttm_full,
    ttm_matvec,
)


def mixed_radix_oracle(factors):
    """All digit tuples in flat-index order, built by explicit counting."""
    out = []
    digits = [0] * len(factors)
    total = int(np.prod(factors))
    for _ in range(total):
        out.append(tuple(digits))
        for k in range(len(factors)):
            digits[k] += 1
            if digits[k] < factors[k]:
                break
            digits[k] = 0
    return out


class TestIndexMaps:
    def test_zero_maps_to_zeros(self):
        assert index_to_multi(0, (3, 4, 5)) == (0, 0, 0)

    def test_enumeration_matches_counting_oracle(self):
        factors = (2, 3)
        expected = mixed_radix_oracle(factors)
        got = [index_to_multi(t, factors) for t in range(6)]
        assert got == expected
        # spec anchor: flat index 3 has digits (1, 1)
        assert index_to_multi(3, factors) == (1, 1)

    def test_roundtrip_bijection(self):
        factors = (3, 2, 4)
        seen = set()
        for t in range(24):
            multi = index_to_multi(t, factors)
            assert multi_to_index(multi, factors) == t
            seen.add(multi)
        assert len(seen) == 24

    def test_bounds(self):
        with pytest.raises(IndexError):
            index_to_multi(6, (2, 3))
        with pytest.raises(IndexError):
            index_to_multi(-1, (2, 3))
        with pytest.raises(IndexError):
            multi_to_index((2, 0), (2, 3))


class TestCompoundReshape:
    def test_entry_placement(self):
        rng = np.random.default_rng(0)
        rf, cf = (2, 3), (3, 2)
        a = rng.standard_normal((6, 6))
        t = to_compound_tensor(a, rf, cf)
        assert t.shape == (6, 6)
        for l in range(6):
            for c in range(6):
                mu = index_to_multi(l, rf)
                nu = index_to_multi(c, cf)
                idx = tuple(m * nk + n for m, n, nk in zip(mu, nu, cf))
                assert t[idx] == a[l, c]

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 12))
        t = to_compound_tensor(a, (2, 4), (3, 4))
        assert_allclose(from_compound_tensor(t, (2, 4), (3, 4)), a)

    def test_factor_mismatch(self):
        with pytest.raises(ShapeError):
            to_compound_tensor(np.ones((4, 4)), (2, 3), (2, 2))


def all_ones_ttm(row_factors, col_factors):
    cores = [np.ones((1, m * n, 1)) for m, n in zip(row_factors, col_factors)]
    return TTMatrix(TTTensor(cores), row_factors, col_factors)


class TestTTMFromDense:
    def test_full_rank_roundtrip_4x4(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        ttm = ttm_from_dense(a, (2, 2), (2, 2), max_ranks=(4,))
        err = np.linalg.norm(ttm_full(ttm) - a) / np.linalg.norm(a)
        assert err <= 1e-10

    def test_identity_matrix(self):
        a = np.eye(4)
        ttm = ttm_from_dense(a, (2, 2), (2, 2), max_ranks=(4,))
        assert ttm.ranks[1] <= 4
        assert np.linalg.norm(ttm_full(ttm) - a) <= 1e-12

    def test_d1_full_rank_roundtrip(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 5))
        ttm = ttm_from_dense(a, (3,), (5,), max_ranks=())
        assert ttm.tt.mode_sizes == (15,)
        assert_allclose(ttm_full(ttm), a, rtol=1e-12)

    def test_factor_mismatch(self):
        with pytest.raises(ShapeError):
            ttm_from_dense(np.ones((4, 4)), (2, 3), (2, 2), max_ranks=(2,))


class TestTTMElement:
    def test_all_ones(self):
        ttm = all_ones_ttm((2, 2), (3, 2))
        for l in range(4):
            for t in range(6):
                assert ttm_element(ttm, l, t) == 1.0

    def test_matches_dense_after_decomposition(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        ttm = ttm_from_dense(a, (2, 3), (3, 2), max_ranks=(6,))
        for l in range(6):
            for t in range(6):
                assert_allclose(ttm_element(ttm, l, t), a[l, t], rtol=1e-10, atol=1e-12)

    def test_bounds(self):
        ttm = all_ones_ttm((2, 2), (2, 2))
        with pytest.raises(IndexError):
            ttm_element(ttm, 4, 0)
        with pytest.raises(IndexError):
            ttm_element(ttm, 0, 4)


class TestTTMMatvec:
    def test_identity(self):
        ttm = ttm_from_dense(np.eye(4), (2, 2), (2, 2), max_ranks=(4,))
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert_allclose(ttm_matvec(ttm, x), x, rtol=1e-10, atol=1e-12)

    def test_all_ones_gives_sum(self):
        ttm = all_ones_ttm((2, 2), (3, 2))
        x = np.arange(6, dtype=float)
        assert_allclose(ttm_matvec(ttm, x), np.full(4, x.sum()), rtol=1e-12)

    def test_matches_dense_matvec(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8))
        ttm = ttm_from_dense(a, (2, 4), (4, 2), max_ranks=(8,))
        x = rng.standard_normal(8)
        dense = ttm_full(ttm)
        assert_allclose(ttm_matvec(ttm, x), dense @ x, rtol=1e-10)

    def test_rectangular(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 8))
        ttm = ttm_from_dense(a, (2, 3), (4, 2), max_ranks=(8,))
        x = rng.standard_normal(8)
        assert_allclose(ttm_matvec(ttm, x), a @ x, rtol=1e-10)

    def test_length_mismatch(self):
        ttm = all_ones_ttm((2, 2), (2, 2))
        with pytest.raises(ShapeError):
            ttm_matvec(ttm, np.ones(5))


class TestInvariants:
    def test_element_equals_full(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 4))
        ttm = ttm_from_dense(a, (3, 2), (2, 2), max_ranks=(3,))
        dense = ttm_full(ttm)
        for l in range(6):
            for t in range(4):
                e = ttm_element(ttm, l, t)
                assert abs(dense[l, t] - e) <= 1e-12 * max(1.0, abs(e))

    def test_matvec_equals_full_times_x(self):
        for seed in range(5):
            rng = np.random.default_rng(20 + seed)
            a = rng.standard_normal((12, 12))
            ttm = ttm_from_dense(a, (3, 4), (4, 3), max_ranks=(5,))
            x = rng.standard_normal(12)
            ref = ttm_full(ttm) @ x
            got = ttm_matvec(ttm, x)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_full_rank_identity_map(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 8))
        ttm = ttm_from_dense(a, (2, 2, 2), (2, 2, 2), max_ranks=(16, 16))
        err = np.linalg.norm(ttm_full(ttm) - a) / np.linalg.norm(a)
        assert err <= 1e-10

    def test_truncated_param_count(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((16, 16))
        ttm = ttm_from_dense(a, (4, 4), (4, 4), max_ranks=(3,))
        assert tt_param_count(ttm.tt) == 16 * 1 * 3 + 16 * 3 * 1


def random_ttm(row_factors, col_factors, ranks, rng):
    modes = [m * n for m, n in zip(row_factors, col_factors)]
    return TTMatrix(random_tt(modes, ranks, rng), row_factors, col_factors)


# (row factors, column factors, interior ranks): d = 1-4, ranks 1-3, size-1
# and rectangular modes
BATCH_CASES = [
    ((5,), (3,), ()),
    ((2, 3), (4, 1), (3,)),
    ((1, 3, 2), (2, 1, 5), (2, 1)),
    ((2, 2, 1, 3), (3, 1, 2, 2), (2, 3, 3)),
]


class TestBatch:
    @pytest.mark.parametrize("rf,cf,ranks", BATCH_CASES)
    def test_vjp_against_finite_differences(self, rf, cf, ranks):
        rng = np.random.default_rng(len(rf))
        a = random_ttm(rf, cf, ranks, rng)
        x = rng.standard_normal((3, a.shape[1]))
        dy = rng.standard_normal((3, a.shape[0]))
        y, sweep = ttm_batch(a, x)
        dx, dcores = ttm_batch_vjp(a, sweep, dy)
        h = 1e-6

        def loss(cores, x):
            return float(np.sum(dy * ttm_batch(TTMatrix(TTTensor(cores), rf, cf), x)[0]))

        fd = np.zeros(x.shape)
        for idx in np.ndindex(x.shape):
            step = np.zeros(x.shape)
            step[idx] = h
            fd[idx] = (loss(a.tt.cores, x + step) - loss(a.tt.cores, x - step)) / (2 * h)
        assert_allclose(dx, fd, rtol=1e-6, atol=1e-7)
        assert len(dcores) == len(a.tt.cores)
        for k, core in enumerate(a.tt.cores):
            fd = np.zeros(core.shape)
            for idx in np.ndindex(core.shape):
                plus = [c.copy() for c in a.tt.cores]
                minus = [c.copy() for c in a.tt.cores]
                plus[k][idx] += h
                minus[k][idx] -= h
                fd[idx] = (loss(plus, x) - loss(minus, x)) / (2 * h)
            assert dcores[k].shape == core.shape
            assert_allclose(dcores[k], fd, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("rf,cf,ranks", BATCH_CASES)
    def test_skipped_input_gradient_keeps_core_gradients(self, rf, cf, ranks):
        rng = np.random.default_rng(7)
        a = random_ttm(rf, cf, ranks, rng)
        y, sweep = ttm_batch(a, rng.standard_normal((4, a.shape[1])))
        dy = rng.standard_normal(y.shape)
        _, full = ttm_batch_vjp(a, sweep, dy)
        dx, dcores = ttm_batch_vjp(a, sweep, dy, input_grad=False)
        assert dx is None
        for g, ref in zip(dcores, full):
            assert np.array_equal(g, ref)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4),
        st.lists(st.integers(1, 3), min_size=3, max_size=3),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_product(self, factors, ranks, batch, seed):
        rng = np.random.default_rng(seed)
        rf, cf = (tuple(f) for f in zip(*factors))
        a = random_ttm(rf, cf, ranks[: len(rf) - 1], rng)
        x = rng.standard_normal((batch, a.shape[1]))
        y, _ = ttm_batch(a, x)
        ref = x @ ttm_full(a).T
        assert y.shape == ref.shape
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(ttm_matvec(a, x[0]), ttm_batch(a, x[:1])[0][0])

    def test_row_length_mismatch(self):
        a = all_ones_ttm((2, 2), (2, 3))
        for bad in (np.ones((2, 4)), np.ones(6), np.ones((1, 2, 3))):
            with pytest.raises(ShapeError):
                ttm_batch(a, bad)

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_dy_shape_mismatch(self, input_grad):
        # a sweep of B = 2 rows and M = 6: dy of the right size but the wrong
        # shape is refused, not read as (2, 6)
        a = all_ones_ttm((2, 3), (2, 2))
        _, sweep = ttm_batch(a, np.ones((2, 4)))
        for bad in (np.ones((6, 2)), np.ones((3, 4)), np.ones((1, 12)), np.ones(12), np.ones((2, 5))):
            with pytest.raises(ShapeError):
                ttm_batch_vjp(a, sweep, bad, input_grad=input_grad)
