"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is deterministic.
"""

import itertools
import time

import numpy as np

from ttconv.cli import main as cli_main
from ttconv.conv import conv2d_direct, conv2d_gemm
from ttconv.data import stripes_vs_blobs
from ttconv.io import (
    load_dense,
    load_tt,
    load_ttconv,
    load_ttmatrix,
    save_dense,
    save_tt,
    save_ttconv,
    save_ttmatrix,
)
from ttconv.kernels import (
    factorize_channels,
    random_ttconv_kernel,
    ttconv_forward,
    ttconv_from_dense,
    ttconv_to_dense,
    ttconv_to_ttmatrix,
)
from ttconv.nn import (
    AvgPool,
    BatchNorm,
    Conv2D,
    Dense,
    MaxPool,
    NaiveTTConv,
    Network,
    ReLU,
    SGDMomentum,
    TTConv,
    TTDense,
    ZeroPad,
    format_log_csv,
    gradcheck,
    train,
)
from ttconv.tt import random_tt, tt_full, tt_param_count, tt_svd
from ttconv.ttmatrix import TTMatrix, ttm_matvec


def report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_tt_svd_exactness():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(11)
    for _ in range(100):
        order = int(rng.integers(3, 6))
        modes = tuple(int(m) for m in rng.integers(2, 7, size=order))
        ranks = tuple(int(r) for r in rng.integers(1, 5, size=order - 1))
        a = tt_full(random_tt(modes, ranks, rng))
        back = tt_svd(a, max_ranks=ranks)
        err = np.linalg.norm(a - tt_full(back)) / np.linalg.norm(a)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-10 and elapsed <= 10.0,
        f"100 random TTs recovered at true ranks, worst rel err {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_gemm_equals_direct():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(22)
    for _ in range(200):
        w, h = (int(v) for v in rng.integers(1, 9, size=2))
        ell = int(rng.integers(1, min(w, h) + 1))
        c, s = (int(v) for v in rng.integers(1, 9, size=2))
        x = rng.standard_normal((w, h, c))
        k = rng.standard_normal((ell, ell, c, s))
        ref = conv2d_direct(x, k)
        dev = np.max(np.abs(conv2d_gemm(x, k) - ref)) / (1.0 + np.max(np.abs(ref)))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-12 and elapsed <= 5.0,
        f"200 configs, worst scaled deviation {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_3_ttconv_forward_equals_dense_path():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    grid = list(itertools.product([1, 3], [4, 8, 16], [4, 8, 16], [1, 2, 3]))
    worst = 0.0
    cases = 0
    for i in range(50):
        ell, c, s, d = grid[i % len(grid)]
        fact = factorize_channels(c, s, d)
        kernel = rng.standard_normal((ell, ell, c, s))
        modes = [ell * ell] + [ck * sk for ck, sk in zip(fact.c_factors, fact.s_factors)]
        caps = []
        for k in range(1, len(modes)):
            caps.append(min(int(np.prod(modes[:k])), int(np.prod(modes[k:]))))
        if i % 2:  # alternate full and truncated ranks
            caps = [max(1, cap // 2) for cap in caps]
        tk = ttconv_from_dense(kernel, fact, max_ranks=caps)
        x = rng.standard_normal((6, 6, c))
        ref = conv2d_direct(x, ttconv_to_dense(tk))
        got = ttconv_forward(x, tk)
        err = np.linalg.norm(got - ref) / max(1.0, np.linalg.norm(ref))
        worst = max(worst, err)
        cases += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        worst <= 1e-10 and cases == 50 and elapsed <= 30.0,
        f"50 kernels (full+truncated ranks), worst rel err {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_4_one_by_one_coincides_with_tt_matvec():
    rng = np.random.default_rng(44)
    worst = 0.0
    for case in range(20):
        c = int(rng.choice([4, 6, 8, 12]))
        s = int(rng.choice([4, 6, 8, 12]))
        d = int(rng.integers(1, 4))
        fact = factorize_channels(c, s, d)
        ranks = tuple(int(r) for r in rng.integers(1, 4, size=fact.depth))
        tk = random_ttconv_kernel(1, fact, ranks, rng)
        a = ttconv_to_ttmatrix(tk)
        x = rng.standard_normal((3, 2, c))
        y = ttconv_forward(x, tk)
        for xx in range(3):
            for yy in range(2):
                xpad = np.zeros(fact.c_padded)
                xpad[:c] = x[xx, yy]
                ref = ttm_matvec(a, xpad)[: fact.channels_out]
                dev = np.max(np.abs(y[xx, yy] - ref)) / (1.0 + np.max(np.abs(ref)))
                worst = max(worst, dev)
    report(4, worst <= 1e-12, f"20 seeded 1x1 cases, worst scaled deviation {worst:.3e}")


def _mixed_kind_net():
    return Network(
        [
            ZeroPad(1),
            Conv2D(3, 4),
            BatchNorm(),
            ReLU(),
            TTConv(3, 4, ranks=(2, 2), d=2),
            MaxPool(),
            ReLU(),
            NaiveTTConv(3, 4, ranks=(2, 2, 2)),
            AvgPool(2),
            TTDense(4, ranks=(2,), d=1),
            ReLU(),
            Dense(2),
        ]
    )


def test_criterion_5_gradient_correctness_all_layer_kinds():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    net = _mixed_kind_net()
    net.build((12, 12, 2), np.random.default_rng(7))
    assert net.param_count <= 2000
    x = rng.standard_normal((4, 12, 12, 2))
    y = np.array([0, 1, 0, 1])
    rows = gradcheck(net, x, y, h=1e-6, tol=1e-5)
    kinds = sorted({r["kind"] for r in rows})
    worst = max(r["max_rel_err"] for r in rows)
    elapsed = time.perf_counter() - start
    report(
        5,
        all(r["ok"] for r in rows) and elapsed <= 120.0,
        f"kinds {kinds}: worst rel err {worst:.3e} over {net.param_count} params, {elapsed:.1f}s",
    )


def test_criterion_6_parameter_accounting(tmp_path, capsys):
    rng = np.random.default_rng(66)
    cases_ok = 0
    for case in range(10):
        ell = int(rng.choice([1, 3]))
        c = int(rng.choice([4, 8, 16]))
        s = int(rng.choice([4, 8, 16]))
        d = int(rng.integers(1, 3))
        fact = factorize_channels(c, s, d)
        ranks = tuple(int(r) for r in rng.integers(1, 4, size=fact.depth))
        kernel = rng.standard_normal((ell, ell, c, s))
        src = tmp_path / f"k{case}.ten"
        out = tmp_path / f"k{case}.ttcv"
        save_dense(src, kernel)
        code = cli_main(
            [
                "decompose", str(src), "-o", str(out), "--mode", "ttconv",
                "--d", str(d), "--ranks", ",".join(str(r) for r in ranks),
            ]
        )
        printed = capsys.readouterr().out
        assert code == 0
        tk = load_ttconv(out)
        # independent arithmetic: l^2 r1 + sum C_k S_k r_k r_{k+1}
        r = tk.ranks
        by_hand = ell * ell * r[1]
        for k in range(fact.depth):
            by_hand += fact.c_factors[k] * fact.s_factors[k] * r[k + 1] * r[k + 2]
        formula_ok = tk.param_count == by_hand == tt_param_count(tk.tt)
        printed_ratio = [l for l in printed.splitlines() if l.startswith("compression:")][0]
        printed_ratio = printed_ratio.split(":")[1].strip()
        ratio_ok = printed_ratio == f"{kernel.size / by_hand:.2f}"
        cases_ok += formula_ok and ratio_ok
    report(6, cases_ok == 10, f"{cases_ok}/10 cases: core formula == TT count == CLI ratio")


def _naive_min_params(kernel, budget):
    norm = np.linalg.norm(kernel)
    ell, _, c, s = kernel.shape
    best = None
    for r1 in range(1, ell + 1):
        for r2 in range(1, ell * ell + 1):
            for r3 in range(1, min(ell * ell * c, s) + 1):
                tt = tt_svd(kernel, max_ranks=(r1, r2, r3))
                if np.linalg.norm(tt_full(tt) - kernel) <= budget * norm:
                    p = tt_param_count(tt)
                    if best is None or p < best:
                        best = p
    return best


def test_criterion_7_proposed_beats_naive_on_separable_kernels():
    wins = 0
    details = []
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        fact = factorize_channels(16, 16, 2)
        tk_true = random_ttconv_kernel(3, fact, (2, 2), rng)
        kernel = ttconv_to_dense(tk_true)
        proposed = ttconv_from_dense(kernel, fact, max_ranks=(2, 2))
        err = np.linalg.norm(ttconv_to_dense(proposed) - kernel) / np.linalg.norm(kernel)
        naive_params = _naive_min_params(kernel, budget=1e-2)
        wins += err <= 1e-10 and proposed.param_count < naive_params
        details.append((proposed.param_count, naive_params))
    report(
        7,
        wins == 10,
        f"10 channel-separable kernels: proposed/naive params e.g. {details[0]}, wins {wins}/10",
    )


def _experiment_nets():
    dense = Network([Conv2D(3, 8), ReLU(), MaxPool(), Conv2D(3, 16), ReLU(), Dense(2)])
    # ranks (6, 5) put the replaced layer at ~2x fewer kernel parameters
    tt = Network([Conv2D(3, 8), ReLU(), MaxPool(), TTConv(3, 16, ranks=(6, 5), d=2), ReLU(), Dense(2)])
    return dense, tt


def _run_experiment(net, data):
    net.build(data.input_shape, np.random.default_rng(42))
    opt = SGDMomentum(lr=0.03, momentum=0.9, decay_every=20, decay_factor=10.0)
    return train(net, data, opt, epochs=30, seed=7, batch_size=128)


def test_criterion_8_desk_scale_training():
    start = time.perf_counter()
    data = stripes_vs_blobs(n_train=2000, n_test=500, seed=0)

    dense_net, tt_net = _experiment_nets()
    dense_log = _run_experiment(dense_net, data)
    dense_time = time.perf_counter() - start
    tt_log = _run_experiment(tt_net, data)

    tt_layer = tt_net.layers[3]
    layer_ratio = tt_layer.dense_param_count / tt_layer.param_count

    # bitwise determinism: repeat the dense run from scratch
    dense_net2, _ = _experiment_nets()
    dense_log2 = _run_experiment(dense_net2, data)
    same = format_log_csv(dense_log) == format_log_csv(dense_log2)

    dense_acc = dense_log[-1]["test_acc"]
    tt_acc = tt_log[-1]["test_acc"]
    ok = (
        dense_acc >= 0.95
        and dense_time <= 300.0
        and abs(dense_acc - tt_acc) <= 0.03
        and 1.8 <= layer_ratio <= 2.2
        and same
    )
    report(
        8,
        ok,
        f"dense {100 * dense_acc:.1f}% in {dense_time:.0f}s, tt-conv {100 * tt_acc:.1f}% "
        f"at {layer_ratio:.2f}x layer compression, deterministic={same}",
    )


def test_criterion_9_file_format_roundtrips(tmp_path):
    rng = np.random.default_rng(99)
    checks = 0

    def roundtrip(name, obj, save, load, dtype):
        nonlocal checks
        p1 = tmp_path / f"{checks}_a_{name}"
        p2 = tmp_path / f"{checks}_b_{name}"
        save(p1, obj, dtype=dtype)
        save(p2, load(p1), dtype=dtype)
        assert p1.read_bytes() == p2.read_bytes(), f"{name} roundtrip differs"
        checks += 1

    for case in range(20):
        dtype = "f32" if case % 4 == 3 else "f64"
        order = int(rng.integers(1, 5))
        dims = tuple(int(v) for v in rng.integers(1, 6, size=order))
        roundtrip("t.ten", rng.standard_normal(dims), save_dense, load_dense, dtype)

        order = int(rng.integers(2, 5))
        modes = tuple(int(v) for v in rng.integers(2, 5, size=order))
        ranks = tuple(int(v) for v in rng.integers(1, 4, size=order - 1))
        roundtrip("t.tt", random_tt(modes, ranks, rng), save_tt, load_tt, dtype)

        rf = tuple(int(v) for v in rng.integers(2, 4, size=2))
        cf = tuple(int(v) for v in rng.integers(2, 4, size=2))
        ttm = TTMatrix(
            random_tt((rf[0] * cf[0], rf[1] * cf[1]), (int(rng.integers(1, 4)),), rng),
            rf,
            cf,
        )
        roundtrip("t.ttm", ttm, save_ttmatrix, load_ttmatrix, dtype)

        ell = int(rng.choice([1, 2, 3]))
        fact = factorize_channels(int(rng.choice([2, 3, 4])), int(rng.choice([2, 4])), 2)
        ranks = tuple(int(v) for v in rng.integers(1, 4, size=2))
        roundtrip("t.ttcv", random_ttconv_kernel(ell, fact, ranks, rng),
                  save_ttconv, load_ttconv, dtype)

    report(9, checks == 80, f"{checks} write-read-write byte-identical roundtrips (4 formats x 20)")
