"""The benchmark's three workloads.

Every workload is a closed loop in one process: each step starts after the
previous one returns.  ``worker.py`` alternates two kinds of unit:

- main units (``main_unit``), each followed by its correctness oracle
  (``check_main``) outside the timed region;
- inference units (``infer_unit``), each followed by ``check_infer``.

A unit records its timed regions into ``self.tally``.  The library is called
only through module attributes of its public entry points, so the traced run
can rebind them (see ``spans.py``).
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from time import process_time as clock

import numpy as np

from ttconv import config, conv, data, kernels, nn, tt, ttmatrix
from ttconv import io as tio
from ttconv.errors import TrainingDiverged

ROOT = Path(__file__).resolve().parent.parent


class Tally:
    """Timed regions of one measured stretch of a run."""

    def __init__(self):
        self.step_ms = []
        self.main_s = 0.0
        self.main_items = 0
        self.units = 0
        self.infer_rates = []  # items per second of each inference unit


class Workload:
    name = ""
    # spans the traced run must see at least once (besides the layers)
    expected_spans = ()

    def __init__(self, seed, scratch_dir):
        self.seed = seed
        self.scratch_dir = scratch_dir
        self.tally = Tally()
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.net = None
        self.batch = 0

    def record(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check_final(self):
        """Oracles run once, after the measured loops."""

    def compression_ratio(self):
        return self.net.compression

    def report(self):
        return {}


# -- training workloads ------------------------------------------------------

class _Training(Workload):
    """Shared step clock and optimizer set-up for the two training workloads."""

    expected_spans = ("config.load_config", "config.build_network", "nn.build",
                      "nn.train", "nn.evaluate", "nn.loss", "nn.sgd_step")

    def _load_config(self, path):
        cfg = self.cfg = config.load_config(path)
        self.batch = cfg["batch_size"]
        return cfg

    def _build(self, input_shape):
        net = config.build_network(self.cfg)
        net.build(input_shape, np.random.default_rng(self.cfg["init_seed"]))
        return net

    def _optimizer(self):
        cfg = self.cfg
        opt = nn.SGDMomentum(lr=cfg["lr"], momentum=cfg["momentum"],
                             decay_every=cfg["decay_every"],
                             decay_factor=cfg["decay_factor"])
        step = opt.step
        ends = self._step_ends = []

        def clocked_step(net):  # the one clock read per step
            step(net)
            ends.append(clock())
        opt.step = clocked_step
        if self.tracer is not None:
            self.tracer.instrument_attr(opt, "step", "nn.sgd_step")
        return opt

    def _train(self, opt, epochs, seed):
        """One timed ``nn.train`` call; returns its log, or None if it diverged."""
        data, batch = self.data, self.batch
        n = len(data.x_train)
        per_epoch = math.ceil(n / batch)
        start = clock()
        try:
            log = nn.train(self.net, data, opt, epochs=epochs, seed=seed, batch_size=batch)
        except TrainingDiverged:
            log = None
        self.tally.main_s += clock() - start
        ends = self._step_ends
        self.tally.main_items += sum(min(batch, n - (i % per_epoch) * batch)
                                     for i in range(len(ends)))
        # The first step of every later epoch also covers the previous
        # epoch's nn.evaluate, so it is not a step sample.
        prev = start
        for i, t in enumerate(ends):
            if i % per_epoch or i == 0:
                self.tally.step_ms.append(1e3 * (t - prev))
            prev = t
        self.tally.units += 1
        # a diverged step raises before it reaches the optimizer
        self.attempted += len(ends) + (log is None)
        self.failed += log is None
        return log

    def infer_unit(self):
        x, y = self.eval_set
        start = clock()
        self._infer_acc = nn.evaluate(self.net, x, y)
        self.tally.infer_rates.append(len(x) / (clock() - start))

    def check_infer(self):
        # eval mode is deterministic: same network and images, same answer
        if self.ref_acc is None:
            self.ref_acc = self._infer_acc
        self.record(self._infer_acc == self.ref_acc and self._infer_acc >= self.min_infer_acc)


class DeskTrain(_Training):
    """The shipped demo config, trained from scratch once per unit.

    Training keeps the config's own seeds, as acceptance criterion 8 does:
    with seeds taken from the benchmark seed this config diverges or stays
    at chance on many seeds (see README.md).  The benchmark seed draws the
    held-out images of the inference part instead.
    """

    name = "desk-train"
    config_path = ROOT / "demos" / "configs" / "ttconv.cfg"
    min_test_acc = 0.95
    min_infer_acc = 0.95
    expected_spans = _Training.expected_spans + ("data.stripes_vs_blobs",)

    def setup(self):
        cfg = self._load_config(self.config_path)
        self.data = config.load_dataset(cfg)
        held_out = data.stripes_vs_blobs(n_train=0, n_test=cfg["test_size"], size=cfg["size"],
                                         noise=cfg["noise"], seed=self.seed)
        self.eval_set = (held_out.x_test, held_out.y_test)
        self.net = self._build(self.data.input_shape)
        self.initial_params = self.net.get_params().copy()
        self.ref_acc = None

    def main_unit(self):
        self.net.set_params(self.initial_params)
        opt = self._optimizer()
        self._log = self._train(opt, self.cfg["epochs"], self.cfg["seed"])

    def check_main(self):
        log = self._log
        ok = log is not None and all(math.isfinite(row["train_loss"]) for row in log)
        self.test_acc = log[-1]["test_acc"] if log else 0.0
        self.record(ok and self.test_acc >= self.min_test_acc)

    def report(self):
        return {"test_acc": (self.test_acc, "fraction"),
                "held_out_acc": (self.ref_acc, "fraction")}


class PaperNet(_Training):
    """Paper-like shapes on seeded Gaussian activations with random labels."""

    name = "paper-net"
    config_path = ROOT / "perfbench" / "configs" / "paper-net.cfg"
    input_shape = (32, 32, 64)
    classes = 10
    train_size = 32
    test_size = 8
    probe_rtol = 1e-8
    min_infer_acc = 0.0  # random labels

    def setup(self):
        cfg = self._load_config(self.config_path)
        cfg.update(seed=self.seed, init_seed=self.seed, dataset_seed=self.seed)
        rng = np.random.default_rng(cfg["dataset_seed"])
        n = self.train_size + self.test_size
        x = rng.standard_normal((n,) + self.input_shape)
        y = rng.integers(0, self.classes, n)
        t = self.train_size
        self.data = nn.Dataset(x[:t], y[:t], x[t:], y[t:])
        self.eval_set = (self.data.x_test, self.data.y_test)
        self.net = self._build(self.input_shape)
        self.opt = None
        self.ref_acc = None

    def main_unit(self):
        if self.opt is None:
            self.opt = self._optimizer()
        self._step_ends.clear()
        self._log = self._train(self.opt, 1, self.cfg["seed"] + self.tally.units)

    def check_main(self):
        log = self._log
        self.record(log is not None and math.isfinite(log[-1]["train_loss"]))
        self.ref_acc = None  # the network has moved on

    def check_final(self):
        """Each TT conv layer's forward against im2col/GEMM on its dense kernel.

        The probe is the first test images as they reach the layer.
        """
        self.probe_err = {}
        x = self.data.x_test[:2]
        for layer in self.net.layers:
            if layer.kind == "tt-conv":
                d = layer.fact.depth
                tk = kernels.TTConvKernel(layer.ell, layer.fact, layer.params[0],
                                          layer.params[1:1 + d])
                dense = kernels.ttconv_to_dense(tk)
            elif layer.kind == "naive-tt-conv":
                dense = tt.tt_full(tt.TTTensor(layer.params[:4]))
            else:
                x = layer.forward(x, train=False)
                continue
            y = layer.forward(x, train=False)
            bias = layer.params[-1] if layer.with_bias else 0.0
            ref = np.stack([conv.conv2d_gemm(xi, dense) for xi in x]) + bias
            err = float(np.linalg.norm(y - ref) / np.linalg.norm(ref))
            self.probe_err[layer.kind] = err
            self.record(err <= self.probe_rtol)
            x = y

    def report(self):
        return {f"probe_rel_err.{kind}": (err, "fraction")
                for kind, err in self.probe_err.items()}


# -- compression workload ----------------------------------------------------

_SAVE = {"ttcv": "save_ttconv", "tt": "save_tt", "ttm": "save_ttmatrix"}


def _rel_err(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(a))


def _orthogonal_tt(mode_sizes, weights, rng):
    """TT cores of sum_i w_i a_i x b_i x ... with orthonormal factor columns.

    Every unfolding of this tensor has exactly the singular values
    ``weights``, so a ``tol`` truncation finds the same ranks on every seed.
    """
    rank = len(weights)
    factors = [np.linalg.qr(rng.standard_normal((n, rank)))[0] for n in mode_sizes]
    cores = [factors[0][None]]
    cores += [np.einsum("ni,ij->inj", f, np.eye(rank)) for f in factors[1:-1]]
    cores.append((factors[-1] * weights).T[:, :, None])
    return cores


def _with_noise(a, rng, level):
    """``a`` scaled to unit Frobenius norm plus Gaussian noise of norm ~level."""
    a = a / np.linalg.norm(a)
    return a + level * rng.standard_normal(a.shape) / math.sqrt(a.size)


class CompressModel(Workload):
    """Decompose, store, reload and verify a VGG-style model's weights."""

    name = "compress-model"
    tol = 0.1
    noise = 0.02
    depth = 3
    conv_channels = ((64, 128), (128, 256), (256, 512))
    conv_weights = np.linspace(1.0, 0.5, 6)
    fc_rows = (8, 8, 16)
    fc_cols = (8, 8, 16)
    fc_weights = np.linspace(1.0, 0.5, 8)
    probes = 16
    matvec_rtol = 1e-10
    expected_spans = (
        "tt.tt_svd", "tt.tt_full", "kernels.ttconv_from_dense",
        "kernels.naive_ttconv_from_dense", "kernels.ttconv_to_dense",
        "kernels.naive_ttconv_to_dense", "ttmatrix.ttm_from_dense", "ttmatrix.ttm_full",
        "ttmatrix.ttm_matvec", "io.ttcv.save", "io.ttcv.load", "io.tt.save",
        "io.tt.load", "io.ttm.save", "io.ttm.load",
    )

    def setup(self):
        """Low-rank weights (proposed TT form) plus seeded noise below ``tol``."""
        rng = np.random.default_rng(self.seed)
        self.weights = []
        for c, s in self.conv_channels:
            fact = kernels.factorize_channels(c, s, self.depth)
            modes = [9] + [ck * sk for ck, sk in zip(fact.c_factors, fact.s_factors)]
            g0, *cores = _orthogonal_tt(modes, self.conv_weights, rng)
            tk = kernels.TTConvKernel(
                3, fact, g0.reshape(3, 3, -1).transpose(1, 0, 2),
                [core.reshape(core.shape[0], ck, sk, core.shape[2])
                 for core, ck, sk in zip(cores, fact.c_factors, fact.s_factors)])
            self.weights.append((_with_noise(kernels.ttconv_to_dense(tk), rng, self.noise), fact))
        modes = [m * n for m, n in zip(self.fc_rows, self.fc_cols)]
        cores = _orthogonal_tt(modes, self.fc_weights, rng)
        ttm = ttmatrix.TTMatrix(tt.TTTensor(cores), self.fc_rows, self.fc_cols)
        self.fc = _with_noise(ttmatrix.ttm_full(ttm), rng, self.noise)
        self.x_probe = rng.standard_normal((self.probes, self.fc.shape[1]))
        self.dense_params = sum(w.size for w, _ in self.weights) + self.fc.size
        self.file_bytes = {fmt: [] for fmt in _SAVE}

    def _path(self, i, fmt):
        return os.path.join(self.scratch_dir, f"w{i}.{fmt}")

    def main_unit(self):
        """One pass over the model: decompose, write, read, reconstruct."""
        results = []
        start = clock()
        for i, (dense, fact) in enumerate(self.weights):
            tk = kernels.ttconv_from_dense(dense, fact, tol=self.tol)
            path = self._path(i, "ttcv")
            tio.save_ttconv(path, tk)
            back = tio.load_ttconv(path)
            results.append(("ttcv", path, back, _rel_err(dense, kernels.ttconv_to_dense(back))))
            nk = kernels.naive_ttconv_from_dense(dense, tol=self.tol)
            path = self._path(i, "tt")
            tio.save_tt(path, nk.tt)
            back = tio.load_tt(path)
            recon = kernels.naive_ttconv_to_dense(kernels.NaiveTTConvKernel(back))
            results.append(("tt", path, back, _rel_err(dense, recon)))
        ttm = ttmatrix.ttm_from_dense(self.fc, self.fc_rows, self.fc_cols, tol=self.tol)
        path = self._path(len(self.weights), "ttm")
        tio.save_ttmatrix(path, ttm)
        back = tio.load_ttmatrix(path)
        results.append(("ttm", path, back, _rel_err(self.fc, ttmatrix.ttm_full(back))))
        elapsed = clock() - start
        self.tally.main_s += elapsed
        self.tally.main_items += self.dense_params
        self.tally.step_ms.append(1e3 * elapsed)
        self.tally.units += 1
        self._results = results
        self.ttm = back

    def check_main(self):
        """Error within ``tol``; write -> read -> write gives identical bytes."""
        self.max_err = {}
        proposed = naive = 0
        for fmt, path, obj, err in self._results:
            again = path + ".again"
            getattr(tio, _SAVE[fmt])(again, obj)
            with open(path, "rb") as f1, open(again, "rb") as f2:
                same = f1.read() == f2.read()
            self.file_bytes[fmt].append(os.path.getsize(path))
            self.max_err[fmt] = max(err, self.max_err.get(fmt, 0.0))
            self.record(same and err <= self.tol)
            if fmt == "tt":
                naive += tt.tt_param_count(obj)
            else:
                proposed += obj.param_count if fmt == "ttcv" else tt.tt_param_count(obj.tt)
        conv_dense = self.dense_params - self.fc.size
        self.ratio = self.dense_params / proposed
        self.naive_ratio = conv_dense / naive
        self.ref_y = ttmatrix.ttm_full(self.ttm) @ self.x_probe.T

    def infer_unit(self):
        """The reloaded FC matrix applied to each probe vector in TT form."""
        ys = []
        start = clock()
        for x in self.x_probe:
            ys.append(ttmatrix.ttm_matvec(self.ttm, x))
        self.tally.infer_rates.append(len(ys) / (clock() - start))
        self._ys = ys

    def check_infer(self):
        for k, y in enumerate(self._ys):
            ref = self.ref_y[:, k]
            self.record(np.linalg.norm(y - ref) <= self.matvec_rtol * np.linalg.norm(ref))

    def compression_ratio(self):
        return self.ratio

    def report(self):
        out = {"naive_compression_ratio": (self.naive_ratio, "x")}
        for fmt, err in self.max_err.items():
            out[f"max_rel_err.{fmt}"] = (err, f"tol={self.tol}")
        return out


WORKLOADS = {cls.name: cls for cls in (DeskTrain, PaperNet, CompressModel)}
