import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ttconv import tt as tt_module
from ttconv.errors import ShapeError, SizeError
from ttconv.tt import (
    TTTensor,
    _qr_r,
    _truncation_rank,
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


def qr_height(n):
    """Rows of one _qr_r block for width n, at the module's current constants."""
    return max(tt_module._QR_BLOCK_BYTES // (8 * n), tt_module._QR_MIN_ASPECT * n)


@pytest.fixture
def small_blocks(monkeypatch):
    """QR row blocks of twice the width, so every unfolding taller than that is cut."""
    monkeypatch.setattr(tt_module, "_QR_BLOCK_BYTES", 1)
    monkeypatch.setattr(tt_module, "_QR_MIN_ASPECT", 2)


@pytest.fixture
def r_calls(monkeypatch):
    """Shapes of the R-only np.linalg.qr calls made while the test runs."""
    shapes = []
    qr = np.linalg.qr

    def spy(a, mode="reduced"):
        if mode == "r":
            shapes.append(np.shape(a))
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return shapes


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

    @pytest.mark.parametrize(
        "shape,index,ranks",
        [
            ((6, 6), (2,), (1, 5, 1)),  # square, zero row
            ((6, 8), (3,), (1, 5, 1)),  # wide unfolding, zero row
            ((8, 6), (slice(None), 3), (1, 5, 1)),  # tall unfolding, zero column
            ((6, 4, 5), (1,), (1, 5, 5, 1)),
            ((4, 6, 5), (slice(None), slice(None), 2), (1, 4, 4, 1)),
        ],
    )
    def test_zero_slice_gives_exact_ranks_under_caps(self, shape, index, ranks):
        # the zero slice's singular value comes out of LAPACK as rounding noise
        for seed in range(10):
            a = np.random.default_rng(seed).standard_normal(shape)
            a[index] = 0.0
            tt = tt_svd(a, max_ranks=(100,) * (a.ndim - 1))
            assert tt.ranks == ranks
            assert rel_err(a, tt_full(tt)) <= 1e-13

    def test_zero_tensor(self):
        tt = tt_svd(np.zeros((3, 4, 2)), tol=0.1)
        assert tt.ranks == (1, 1, 1, 1)
        assert np.all(tt_full(tt) == 0.0)

    def test_d1_identity(self):
        v = np.array([1.0, -2.0, 4.0])
        tt = tt_svd(v, max_ranks=())
        assert_allclose(tt_full(tt), v)

    @pytest.mark.parametrize(
        "bad,message", [(np.nan, r"\(1 NaN, 0 inf\)"), (-np.inf, r"\(0 NaN, 1 inf\)")]
    )
    @pytest.mark.parametrize("kwargs", [{"tol": 0.1}, {"max_ranks": (2, 2)}])
    def test_non_finite_entries_rejected_before_any_qr(self, r_calls, bad, message, kwargs):
        a = np.random.default_rng(9).standard_normal((3, 4, 5))
        a[1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite entries " + message):
            tt_svd(a, **kwargs)
        assert r_calls == []

    def test_huge_finite_entries_pass_the_finite_check(self):
        a = np.full((2, 3), 1e300)
        a[0, 0] = 2e300
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.linalg.norm(a))
            tt = tt_svd(a, max_ranks=(2,))
        assert tt.ranks == (1, 2, 1)

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


class TestTruncationRankTies:
    """A value tied with the last one the budget keeps is kept too, unless it
    lies at or below ``_TIE_RTOL * s[0]``."""

    def test_tie_extends_the_rank(self):
        # the budget alone keeps 3 (the tail 2^2 + 1^2 is within 6), but s[3] ties s[2]
        assert _truncation_rank(np.array([4.0, 2.0, 2.0, 2.0, 1.0]), math.sqrt(6)) == 4

    def test_tt_svd_keeps_the_tie(self):
        s = np.array([4.0, 2.0, 2.0, 2.0, 1.0])
        tt = tt_svd(np.diag(s), tol=math.sqrt(6 / 29) * (1 + 1e-9))
        assert tt.ranks == (1, 4, 1)

    def test_ties_below_noise_do_not_extend_the_rank(self):
        s = np.array([1.0, 5e-13, 5e-13, 5e-13])
        assert _truncation_rank(s, math.sqrt(6e-25)) == 2


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


def full_svd_sweep(a, max_ranks=None, tol=None):
    """TT-SVD taking a full SVD of every unfolding: the oracle for tt_svd."""
    a = np.asarray(a, dtype=np.float64)
    d, shape = a.ndim, a.shape
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return TTTensor([np.zeros((1, n, 1)) for n in shape])
    budget = tol * norm / math.sqrt(d - 1) if (tol is not None and d > 1) else 0.0
    cores = []
    r_prev = 1
    rest = a
    for k in range(d - 1):
        mat = rest.reshape(r_prev * shape[k], -1)
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        if max_ranks is not None:
            r = min(max_ranks[k], int(np.count_nonzero(s)))
        else:
            r = _truncation_rank(s, budget)
        r = max(r, 1)
        cores.append(u[:, :r].reshape(r_prev, shape[k], r))
        rest = s[:r, None] * vt[:r]
        r_prev = r
    cores.append(rest.reshape(r_prev, shape[-1], 1))
    return TTTensor(cores)


@st.composite
def sweep_inputs(draw):
    """A dense tensor of order 1-5 with modes 1-9, and a rank cap or a tol.

    The entries come from a drawn seed.  The spectrum is flat, graded down to
    1e-13 along every mode, or that of a low-rank TT (so caps lie above the
    numerical rank); up to two slices are zeroed.
    """
    modes = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spectrum = draw(st.sampled_from(["flat", "graded", "low-rank"]))
    d = len(modes)
    if spectrum == "low-rank":
        a = np.array(tt_full(random_tt(modes, rng.integers(1, 4, size=d - 1), rng)))
    else:
        a = rng.standard_normal(modes)
    if spectrum == "graded":
        for k, n in enumerate(modes):
            grade = rng.permutation(np.logspace(0, -13, n)) if n > 1 else np.ones(1)
            a = a * grade.reshape((1,) * k + (n,) + (1,) * (d - k - 1))
    for axis, j in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 8)), max_size=2)):
        axis %= d
        index = [slice(None)] * d
        index[axis] = j % modes[axis]
        a[tuple(index)] = 0.0
    if draw(st.booleans()):
        return a, {"tol": draw(st.sampled_from([0.3, 1e-3, 1e-9, 1e-12]))}
    caps = draw(st.lists(st.integers(1, 100), min_size=d - 1, max_size=d - 1))
    return a, {"max_ranks": tuple(caps)}


def unfolding_kinds(tt):
    """'wide', 'tall' or 'square' for each unfolding the sweep decomposed."""
    kinds = []
    for k, core in enumerate(tt.cores[:-1]):
        rows, cols = core.shape[0] * core.shape[1], math.prod(tt.mode_sizes[k + 1 :])
        kinds.append("square" if rows == cols else "wide" if rows < cols else "tall")
    return kinds


def assert_matches_full_svd_sweep(a, kwargs):
    """tt_svd against the full-SVD oracle: same error, ranks (up to directions
    that carry nothing) and left-orthonormal cores."""
    tt = tt_svd(a, **kwargs)
    ref = full_svd_sweep(a, **kwargs)
    norm = np.linalg.norm(a)
    err = np.linalg.norm(a - tt_full(tt))
    assert abs(err - np.linalg.norm(a - tt_full(ref))) <= 1e-12 * norm
    if "tol" in kwargs:
        assert err <= kwargs["tol"] * norm
        assert tt.ranks == ref.ranks
    elif tt.ranks != ref.ranks:
        # An unfolding with an exactly zero singular value (a zero slice)
        # gets it from LAPACK as 0.0 or as ~1e-17 depending on its internal
        # path, so count_nonzero keeps or drops that direction by rounding.
        # A rank may then differ only by directions that carry nothing.
        for k in range(1, a.ndim):
            low = min(tt.ranks[k], ref.ranks[k])
            for t in (tt, ref):
                sv = np.linalg.svd(
                    tt_full(t).reshape(math.prod(a.shape[:k]), -1), compute_uv=False
                )
                assert np.all(sv[low:] <= 1e-14 * norm)
    if norm == 0.0:
        return
    for core in tt.cores[:-1]:
        q = core.reshape(-1, core.shape[2])
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-12


class TestSweepAgainstFullSVD:
    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(sweep_inputs())
    @example((np.arange(1.0, 19.0).reshape(9, 2), {"max_ranks": (5,)}))
    @example((np.arange(1.0, 19.0).reshape(2, 9), {"tol": 1e-12}))
    @example((np.eye(4).reshape(2, 2, 2, 2), {"max_ranks": (9, 9, 9)}))
    def test_ranks_error_and_orthonormality_match_oracle(self, case):
        assert_matches_full_svd_sweep(*case)

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(sweep_inputs())
    @example((np.arange(1.0, 19.0).reshape(9, 2), {"max_ranks": (5,)}))
    @example((np.arange(1.0, 19.0).reshape(2, 9), {"tol": 1e-12}))
    def test_row_blocked_r_matches_oracle(self, small_blocks, r_calls, case):
        r_calls.clear()
        assert_matches_full_svd_sweep(*case)
        assert all(m <= qr_height(n) for m, n in r_calls)

    @pytest.mark.parametrize(
        "modes,kinds",
        [
            ((3, 8), ["wide"]),
            ((8, 3), ["tall"]),
            ((4, 4), ["square"]),
            ((2, 9, 2), ["wide", "tall"]),
        ],
    )
    def test_wide_tall_and_square_unfoldings(self, modes, kinds):
        a = np.random.default_rng(sum(modes)).standard_normal(modes)
        caps = tuple(100 for _ in modes[1:])
        tt = tt_svd(a, max_ranks=caps)
        ref = full_svd_sweep(a, max_ranks=caps)
        assert unfolding_kinds(tt) == kinds
        assert tt.ranks == ref.ranks
        assert rel_err(a, tt_full(tt)) <= 1e-13



def signed_rows(r):
    """R with each row scaled so its diagonal entry is nonnegative."""
    return r * np.where(np.diag(r) < 0, -1.0, 1.0)[:, None]


class TestRowBlockedR:
    @pytest.mark.parametrize(
        "shape,calls",
        [
            # blocks of 10 rows: 10,10,10,10,3 -> 23 rows -> 10,10,3 -> 13 -> 10,3 -> 8
            ((43, 5), [(10, 5)] * 4 + [(3, 5), (10, 5), (10, 5), (3, 5), (10, 5), (3, 5), (8, 5)]),
            ((20, 5), [(10, 5), (10, 5), (10, 5)]),
            ((10, 5), [(10, 5)]),
            ((5, 5), [(5, 5)]),
            ((7, 1), [(2, 1)] * 3 + [(1, 1), (2, 1), (2, 1), (2, 1)]),
        ],
    )
    def test_matches_lapack_up_to_row_signs(self, small_blocks, r_calls, shape, calls):
        a = np.random.default_rng(shape[0]).standard_normal(shape)
        whole = np.linalg.qr(a, mode="r")
        r_calls.clear()
        r = _qr_r(a)
        assert r_calls == calls
        assert r.shape == whole.shape
        assert_allclose(signed_rows(r), signed_rows(whole), rtol=0, atol=1e-12)

    def test_near_square_matrix_stays_one_call(self, r_calls):
        a = np.random.default_rng(1).standard_normal((2048, 384))
        _qr_r(a)
        assert r_calls == [(2048, 384)]

    @pytest.mark.parametrize("shape", [(4, 1 << 17), (1 << 14, 64)])
    def test_no_r_call_in_tt_svd_exceeds_one_block(self, r_calls, shape):
        # a wide unfolding (131072 x 4 after transposing) and a tall one, each
        # above the default block budget
        a = np.random.default_rng(2).standard_normal(shape)
        tt = tt_svd(a, max_ranks=(100,))
        assert tt.ranks == (1, min(shape), 1)
        assert len(r_calls) > 1
        assert all(m <= qr_height(n) for m, n in r_calls)
        assert rel_err(a, tt_full(tt)) <= 1e-12
