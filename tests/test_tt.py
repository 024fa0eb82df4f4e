import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ttconv.errors import ShapeError, SizeError
from ttconv.tt import (
    TTTensor,
    random_tt,
    tt_chain,
    tt_chain_grad,
    tt_element,
    tt_full,
    tt_param_count,
    tt_svd,
)


def chain_element_oracle(cores, index):
    """Scalar chain product evaluated by explicit recursion over rank paths.

    Independent of tt_element's left-to-right matrix products.
    """

    def rec(k, a):
        if k == len(cores):
            return 1.0
        core = cores[k]
        return sum(core[a, index[k], b] * rec(k + 1, b) for b in range(core.shape[2]))

    return rec(0, 0)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(a)


class TestTTElement:
    def test_d1_is_the_vector(self):
        v = np.array([3.0, -1.0, 0.5, 2.0])
        tt = TTTensor([v.reshape(1, 4, 1)])
        for j in range(4):
            assert tt_element(tt, (j,)) == v[j]

    def test_all_ones_rank1(self):
        tt = TTTensor([np.ones((1, n, 1)) for n in (2, 3, 4)])
        for idx in itertools.product(range(2), range(3), range(4)):
            assert tt_element(tt, idx) == 1.0

    def test_matches_path_oracle(self):
        rng = np.random.default_rng(7)
        tt = random_tt((2, 3, 2), (2, 2), rng)
        for idx in itertools.product(range(2), range(3), range(2)):
            expected = chain_element_oracle(tt.cores, idx)
            assert_allclose(tt_element(tt, idx), expected, rtol=1e-13)

    def test_out_of_range_index(self):
        tt = random_tt((2, 3), (2,), np.random.default_rng(0))
        with pytest.raises(IndexError):
            tt_element(tt, (2, 0))
        with pytest.raises(IndexError):
            tt_element(tt, (0, -1))
        with pytest.raises(IndexError):
            tt_element(tt, (0,))


class TestTTFull:
    def test_d1_vector(self):
        v = np.array([1.0, 2.0, 3.0])
        tt = TTTensor([v.reshape(1, 3, 1)])
        assert_allclose(tt_full(tt), v)

    def test_rank1_outer_product(self):
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal(4), rng.standard_normal(5)
        tt = TTTensor([u.reshape(1, 4, 1), v.reshape(1, 5, 1)])
        assert_allclose(tt_full(tt), np.outer(u, v), rtol=1e-14)

    def test_matches_elementwise(self):
        rng = np.random.default_rng(2)
        tt = random_tt((2, 3, 2), (2, 2), rng)
        full = tt_full(tt)
        assert full.shape == (2, 3, 2)
        for idx in itertools.product(range(2), range(3), range(2)):
            assert_allclose(full[idx], tt_element(tt, idx), rtol=1e-14)

    def test_element_cap(self):
        huge = TTTensor([np.ones((1, 10**3, 1)) for _ in range(3)])
        with pytest.raises(SizeError):
            tt_full(huge)


class TestTTSVD:
    def test_rank1_tensor_is_exact(self):
        rng = np.random.default_rng(3)
        u, v, w = (rng.standard_normal(n) for n in (3, 4, 5))
        a = np.einsum("i,j,k->ijk", u, v, w)
        tt = tt_svd(a, max_ranks=(1, 1))
        assert tt.ranks == (1, 1, 1, 1)
        assert rel_err(a, tt_full(tt)) <= 1e-10

    def test_roundtrip_through_tt_full(self):
        rng = np.random.default_rng(4)
        a = tt_full(random_tt((4, 5, 4), (3, 3), rng))
        tt = tt_svd(a, max_ranks=(3, 3))
        assert rel_err(a, tt_full(tt)) <= 1e-10

    def test_2d_matches_truncated_matrix_svd(self):
        # For matrices the TT sweep is a single truncated SVD.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 8))
        for r in (1, 2, 4):
            tt = tt_svd(a, max_ranks=(r,))
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            best = (u[:, :r] * s[:r]) @ vt[:r]
            err_tt = np.linalg.norm(a - tt_full(tt))
            err_svd = np.linalg.norm(a - best)
            assert abs(err_tt - err_svd) <= 1e-10 * (1.0 + err_svd)

    def test_tolerance_mode_meets_budget(self):
        rng = np.random.default_rng(6)
        a = tt_full(random_tt((4, 4, 4, 4), (3, 3, 3), rng))
        a = a + 1e-6 * rng.standard_normal(a.shape)
        for tol in (0.5, 1e-2, 1e-4):
            tt = tt_svd(a, tol=tol)
            assert rel_err(a, tt_full(tt)) <= tol

    def test_zero_tensor(self):
        tt = tt_svd(np.zeros((3, 4, 2)), tol=0.1)
        assert tt.ranks == (1, 1, 1, 1)
        assert np.all(tt_full(tt) == 0.0)

    def test_d1_identity(self):
        v = np.array([1.0, -2.0, 4.0])
        tt = tt_svd(v, max_ranks=())
        assert_allclose(tt_full(tt), v)

    def test_argument_validation(self):
        a = np.ones((2, 2))
        with pytest.raises(ValueError):
            tt_svd(a)
        with pytest.raises(ValueError):
            tt_svd(a, max_ranks=(1,), tol=0.1)
        with pytest.raises(ValueError):
            tt_svd(a, max_ranks=(1, 1))
        with pytest.raises(ValueError):
            tt_svd(a, tol=1.5)


class TestParamCount:
    def test_direct_formula(self):
        tt = random_tt((4, 4, 4), (2, 2), np.random.default_rng(0))
        assert tt_param_count(tt) == 4 * 1 * 2 + 4 * 2 * 2 + 4 * 2 * 1 == 32

    def test_all_ranks_one(self):
        tt = random_tt((3, 5, 7), (1, 1), np.random.default_rng(0))
        assert tt_param_count(tt) == 3 + 5 + 7

    def test_d1_equals_dense(self):
        tt = random_tt((9,), (), np.random.default_rng(0))
        assert tt_param_count(tt) == 9


class TestInvariants:
    def test_roundtrip_many_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ranks = tuple(int(r) for r in rng.integers(1, 4, size=2))
            tt = random_tt((3, 4, 3), ranks, rng)
            a = tt_full(tt)
            back = tt_svd(a, max_ranks=ranks)
            assert rel_err(a, tt_full(back)) <= 1e-10

    def test_elementwise_consistency(self):
        rng = np.random.default_rng(11)
        tt = random_tt((3, 2, 4), (2, 3), rng)
        full = tt_full(tt)
        for idx in itertools.product(range(3), range(2), range(4)):
            e = tt_element(tt, idx)
            assert abs(full[idx] - e) <= 1e-14 * max(1.0, abs(e))

    def test_monotone_truncation(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            a = rng.standard_normal((4, 4, 4))
            errs = []
            for r in (1, 2, 3):
                tt = tt_svd(a, max_ranks=(r, r))
                errs.append(np.linalg.norm(a - tt_full(tt)))
            assert errs[1] <= errs[0] + 1e-12
            assert errs[2] <= errs[1] + 1e-12

    def test_sweep_rank_bound_d2(self):
        rng = np.random.default_rng(12)
        for n1, n2 in ((4, 7), (8, 3), (5, 5)):
            a = rng.standard_normal((n1, n2))
            tt = tt_svd(a, max_ranks=(min(n1, n2),))
            assert tt.ranks[1] <= min(n1, n2)
            assert tt_param_count(tt) <= n1 * n2 + min(n1, n2) ** 2

    def test_core_shapes_and_immutability(self):
        tt = random_tt((2, 3), (2,), np.random.default_rng(0))
        assert tt.cores[0].shape == (1, 2, 2)
        assert tt.cores[1].shape == (2, 3, 1)
        with pytest.raises(ValueError):
            tt.cores[0][0, 0, 0] = 1.0

    def test_bad_chain_rejected(self):
        with pytest.raises(ShapeError):
            TTTensor([np.ones((1, 2, 2)), np.ones((3, 2, 1))])
        with pytest.raises(ShapeError):
            TTTensor([np.ones((2, 2, 1))])


class TestChainGrad:
    @pytest.mark.parametrize(
        "modes,ranks",
        [
            ((3, 4), (2,)),
            ((1, 5), (1,)),
            ((4, 1, 3), (3, 1)),
            ((2, 3, 2), (1, 3)),
            ((1, 3, 1, 2), (2, 3, 2)),
            ((2, 2, 3, 2), (3, 2, 1)),
        ],
    )
    def test_matches_finite_differences(self, modes, ranks):
        rng = np.random.default_rng(sum(modes) + 10 * sum(ranks))
        cores = [np.array(c) for c in random_tt(modes, ranks, rng).cores]
        weight = rng.standard_normal(math.prod(modes))

        def loss():
            return float(weight @ tt_chain(cores))

        assert_allclose(tt_chain(cores), tt_full(TTTensor(cores)).ravel(), rtol=1e-14)
        grads = tt_chain_grad(cores, weight)
        h = 1e-6
        for core, grad in zip(cores, grads):
            assert grad.shape == core.shape
            flat = core.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss()
                flat[i] = orig - h
                fm = loss()
                flat[i] = orig
                assert abs((fp - fm) / (2 * h) - grad.flat[i]) <= 1e-7 * max(1.0, abs(grad.flat[i]))
