import functools
import hashlib
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ttconv import kernels, nn, ttmatrix
from ttconv.config import build_network, load_config, load_dataset
from ttconv.conv import col2im_batch, conv2d_direct, im2col_batch
from ttconv.errors import ShapeError, SizeError, TrainingDiverged
from ttconv.io import FormatError
from ttconv.kernels import (
    ChannelFactorization,
    TTConvKernel,
    factorize_channels,
    ttconv_from_dense,
    ttconv_to_dense,
)
from ttconv.nn import (
    AvgPool,
    BatchNorm,
    Conv2D,
    Dataset,
    Dense,
    MaxPool,
    NaiveTTConv,
    Network,
    ReLU,
    SGDMomentum,
    SoftmaxCrossEntropy,
    TTConv,
    TTDense,
    ZeroPad,
    evaluate,
    format_log_csv,
    gradcheck,
    train,
)
from ttconv.tt import FULL_ELEMENT_CAP, TTTensor, tt_full

ROOT = Path(__file__).resolve().parent.parent


def small_mixed_net():
    """One layer of every parameterized kind, ~220 parameters."""
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


def mixed_batch(rng, n=4, size=12, channels=2):
    x = rng.standard_normal((n, size, size, channels))
    y = np.arange(n) % 2
    return x, y


class TestLayerForward:
    def test_relu(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 2.0]]))
        assert_allclose(out, [[0.0, 2.0]])

    def test_identity_1x1_ttconv_passthrough(self):
        rng = np.random.default_rng(0)
        fact = factorize_channels(4, 4, 2)
        identity = np.eye(4).reshape(1, 1, 4, 4)
        tk = ttconv_from_dense(identity, fact, max_ranks=(4, 4))
        layer = TTConv(1, 4, ranks=tuple(tk.ranks[1:-1]), factors=fact)
        layer.build((5, 5, 4), rng)
        layer.params[0][...] = tk.g0
        for k, core in enumerate(tk.cores):
            layer.params[1 + k][...] = core
        x = rng.standard_normal((2, 5, 5, 4))
        assert_allclose(layer.forward(x), x, rtol=1e-10, atol=1e-12)

    def test_maxpool_values_and_shape(self):
        x = np.zeros((1, 5, 5, 1))
        x[0, :, :, 0] = np.arange(25).reshape(5, 5)
        layer = MaxPool()
        assert layer.build((5, 5, 1), None) == (2, 2, 1)
        y = layer.forward(x, train=True)
        assert_allclose(y[0, :, :, 0], [[12.0, 14.0], [22.0, 24.0]])

    def test_maxpool_backward_routes_to_argmax(self):
        x = np.zeros((1, 3, 3, 1))
        x[0, 1, 2, 0] = 5.0
        layer = MaxPool()
        layer.build((3, 3, 1), None)
        layer.forward(x, train=True)
        dx = layer.backward(np.ones((1, 1, 1, 1)))
        expected = np.zeros((1, 3, 3, 1))
        expected[0, 1, 2, 0] = 1.0
        assert_allclose(dx, expected)

    def test_maxpool_tie_goes_to_first_slot(self):
        layer = MaxPool()
        layer.build((3, 3, 1), None)
        layer.forward(np.ones((1, 3, 3, 1)), train=True)
        dx = layer.backward(np.ones((1, 1, 1, 1)))
        assert dx[0, 0, 0, 0] == 1.0
        assert dx.sum() == 1.0

    def test_avgpool(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        layer = AvgPool(2)
        assert layer.build((4, 4, 1), None) == (2, 2, 1)
        y = layer.forward(x, train=True)
        assert_allclose(y[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]])
        dx = layer.backward(np.ones((1, 2, 2, 1)))
        assert_allclose(dx, np.full((1, 4, 4, 1), 0.25))

    def test_avgpool_divisibility(self):
        with pytest.raises(ShapeError):
            AvgPool(3).build((4, 4, 1), None)

    def test_zeropad(self):
        layer = ZeroPad(2)
        assert layer.build((4, 4, 1), None) == (8, 8, 1)
        x = np.ones((1, 4, 4, 1))
        y = layer.forward(x, train=True)
        assert y.shape == (1, 8, 8, 1)
        assert y[0, 0, 0, 0] == 0.0 and y[0, 2, 2, 0] == 1.0
        assert_allclose(layer.backward(y), x)

    def test_batchnorm_normalizes(self):
        rng = np.random.default_rng(1)
        layer = BatchNorm()
        layer.build((6, 6, 3), rng)
        x = 3.0 + 2.0 * rng.standard_normal((8, 6, 6, 3))
        y = layer.forward(x, train=True)
        assert np.all(np.abs(y.mean(axis=(0, 1, 2))) < 1e-10)
        assert_allclose(y.std(axis=(0, 1, 2)), 1.0, atol=1e-3)

    @pytest.mark.parametrize(
        "logits,targets,message",
        [
            (np.zeros((4, 2, 2, 2)), [0, 1, 0, 1], r"expects \(batch, classes\) logits"),
            (np.zeros(4), [0, 1, 0, 1], r"expects \(batch, classes\) logits"),
            (np.zeros((4, 2)), [0, 1, 0], r"expects \(batch, classes\) logits"),
            (np.zeros((4, 1)), [0, 1, 0, 1], r"targets must lie in \[0, 1\), got 0..1"),
            (np.zeros((4, 2)), [0, -1, 0, 1], r"targets must lie in \[0, 2\), got -1..1"),
        ],
    )
    def test_softmax_loss_checks_its_input(self, logits, targets, message):
        with pytest.raises(ShapeError, match=message):
            SoftmaxCrossEntropy().forward(logits, np.array(targets), train=True)

    def test_softmax_loss_uniform(self):
        loss = SoftmaxCrossEntropy()
        logits = np.zeros((4, 2))
        targets = np.array([0, 1, 0, 1])
        assert_allclose(loss.forward(logits, targets, train=True), np.log(2.0))

    def test_backward_before_forward(self):
        layer = ReLU()
        with pytest.raises(RuntimeError):
            layer.backward(np.ones(3))


class _NumpyStyleMemoryError(MemoryError):
    """Like numpy's _ArrayMemoryError: constructed from (shape, dtype), not a message."""

    def __init__(self, shape, dtype):
        super().__init__(shape, dtype)

    def __str__(self):
        return "Unable to allocate"


class _Failing(ReLU):
    kind = "failing"

    def __init__(self, error, when):
        super().__init__()
        self.error, self.when = error, when

    def build(self, in_shape, rng):
        if self.when == "build":
            raise self.error
        return super().build(in_shape, rng)

    def forward(self, x, train=False):
        if self.when == "forward":
            raise self.error
        return super().forward(x, train)


class TestNetworkForward:
    def test_shape_chain_error_names_layer(self):
        net = Network([Conv2D(3, 4), Conv2D(9, 4)])
        with pytest.raises(ShapeError, match="layer 1"):
            net.build((8, 8, 1), np.random.default_rng(0))

    @pytest.mark.parametrize("when", ["build", "forward"])
    @pytest.mark.parametrize(
        "error,expected",
        [
            (ShapeError("bad shape"), ShapeError),
            (SizeError("too big"), SizeError),
            (_NumpyStyleMemoryError((2**40,), np.dtype("f8")), MemoryError),
        ],
    )
    def test_build_and_forward_name_the_layer(self, when, error, expected):
        net = Network([ReLU(), _Failing(error, when)])
        with pytest.raises(expected, match=rf"^layer 1 \(failing\): {error}$") as info:
            net.build((2, 2, 1), np.random.default_rng(0))
            net.forward(np.ones((1, 2, 2, 1)))
        assert info.value.__cause__ is error

    @pytest.mark.parametrize(
        "layers,in_shape,message",
        [
            # a spatial layer after a flat one
            *(
                (
                    [Dense(4), layer],
                    (6, 6, 1),
                    rf"layer 1 \({layer.kind}\): {layer.kind} expects W x H x C samples, "
                    r"got shape \(4,\)",
                )
                for layer in (MaxPool(), ZeroPad(1), Conv2D(3, 4), AvgPool(2))
            ),
            (
                [MaxPool()],
                (2, 5, 1),
                r"layer 0 \(max-pool\): input \(2, 5\) smaller than 3x3 pool",
            ),
        ],
        ids=["max-pool", "zero-pad", "dense-conv", "avg-pool", "max-pool-2x5"],
    )
    def test_build_names_a_layer_its_input_does_not_fit(self, layers, in_shape, message):
        with pytest.raises(ShapeError, match=f"^{message}$"):
            Network(layers).build(in_shape, np.random.default_rng(0))

    def test_compression_of_a_net_without_parameters(self):
        net = Network([ReLU()])
        net.build((2, 2, 1), np.random.default_rng(0))
        with pytest.raises(ValueError, match="parameter counts must be positive"):
            net.compression

    def test_tt_layers_match_dense_reference(self):
        # TT-conv net vs dense net built from the reconstructed kernels
        rng = np.random.default_rng(2)
        fact = factorize_channels(3, 4, 2)
        tt_layer = TTConv(3, 4, ranks=(3, 3), factors=fact)
        head = Dense(2)
        net_tt = Network([tt_layer, ReLU(), head])
        net_tt.build((6, 6, 3), np.random.default_rng(42))

        from ttconv.kernels import TTConvKernel, ttconv_to_dense

        tk = TTConvKernel(3, fact, tt_layer.params[0], list(tt_layer.params[1:3]))
        dense_layer = Conv2D(3, 4)
        head2 = Dense(2)
        net_dense = Network([dense_layer, ReLU(), head2])
        net_dense.build((6, 6, 3), np.random.default_rng(0))
        dense_layer.params[0][...] = ttconv_to_dense(tk)
        dense_layer.params[1][...] = tt_layer.params[3]
        head2.params[0][...] = head.params[0]
        head2.params[1][...] = head.params[1]

        x = rng.standard_normal((5, 6, 6, 3))
        y = np.array([0, 1, 0, 1, 1])
        _, loss_tt = net_tt.forward_loss(x, y, train=True)
        _, loss_dense = net_dense.forward_loss(x, y, train=True)
        assert abs(loss_tt - loss_dense) <= 1e-10 * max(1.0, abs(loss_dense))


class TestGradients:
    def test_gradcheck_every_layer_kind(self):
        rng = np.random.default_rng(3)
        net = small_mixed_net()
        net.build((12, 12, 2), np.random.default_rng(7))
        x, y = mixed_batch(rng)
        report = gradcheck(net, x, y)
        kinds = {r["kind"] for r in report}
        assert kinds == {
            "dense-conv",
            "batch-norm",
            "tt-conv",
            "naive-tt-conv",
            "tt-fc",
            "dense-fc",
        }
        for r in report:
            assert r["ok"], f"{r['kind']}: max rel err {r['max_rel_err']:.2e}"

    def test_gradcheck_negative_control(self):
        rng = np.random.default_rng(4)
        net = Network([Dense(2)])
        net.build((6,), np.random.default_rng(1))
        x = rng.standard_normal((4, 6))
        y = np.array([0, 1, 1, 0])
        report = gradcheck(net, x, y, corrupt=True)
        assert not report[0]["ok"]

    def test_gradcheck_nan_weight_fails(self):
        # the loss and every difference quotient are NaN: that is not a pass
        rng = np.random.default_rng(4)
        net = Network([Dense(2)])
        net.build((6,), np.random.default_rng(1))
        net.layers[0].params[0][0, 0] = np.nan
        x = rng.standard_normal((4, 6))
        report = gradcheck(net, x, np.array([0, 1, 1, 0]))
        assert np.isnan(report[0]["max_rel_err"])
        assert report[0]["ok"] is False

    def test_fc_bias_gradient_zero_at_uniform_logits(self):
        net = Network([Dense(2)])
        net.build((4,), np.random.default_rng(0))
        net.layers[0].params[0][...] = 0.0
        net.layers[0].params[1][...] = 0.0
        x = np.random.default_rng(5).standard_normal((6, 4))
        y = np.array([0, 1, 0, 1, 0, 1])
        net.forward_loss(x, y, train=True)
        net.backward()
        assert_allclose(net.layers[0].grads[1], 0.0, atol=1e-15)

    def test_forward_backward_leaves_params_unchanged(self):
        rng = np.random.default_rng(13)
        net = small_mixed_net()
        net.build((12, 12, 2), np.random.default_rng(7))
        before = net.get_params()
        x, y = mixed_batch(rng)
        net.forward_loss(x, y, train=True)
        net.backward()
        assert np.array_equal(net.get_params(), before)

    def test_loss_scale_linearity(self):
        loss = SoftmaxCrossEntropy()
        logits = np.random.default_rng(6).standard_normal((5, 3))
        targets = np.array([0, 1, 2, 1, 0])
        loss.forward(logits, targets, train=True)
        g1 = loss.backward(1.0)
        g2 = loss.backward(2.0)
        assert np.array_equal(g2, 2.0 * g1)


class TestSGD:
    def test_no_gradient_no_motion(self):
        net = Network([Dense(3)])
        net.build((2,), np.random.default_rng(0))
        before = net.get_params()
        for g in net.layers[0].grads:
            g[...] = 0.0
        SGDMomentum(lr=0.1).step(net)
        assert np.array_equal(net.get_params(), before)

    def test_momentum_zero_is_plain_gd(self):
        net = Network([Dense(2, bias=False)])
        net.build((2,), np.random.default_rng(0))
        p0 = net.get_params()
        g = np.arange(1.0, 5.0).reshape(2, 2)
        net.layers[0].grads[0][...] = g
        SGDMomentum(lr=0.1, momentum=0.0).step(net)
        assert_allclose(net.get_params(), p0 - 0.1 * g.ravel())

    def test_two_momentum_steps_hand_checked(self):
        net = Network([Dense(2, bias=False)])
        net.build((2,), np.random.default_rng(0))
        p0 = net.get_params()
        g = np.ones((2, 2))
        opt = SGDMomentum(lr=0.1, momentum=0.9)
        net.layers[0].grads[0][...] = g
        opt.step(net)  # v1 = -0.1 g
        net.layers[0].grads[0][...] = g
        opt.step(net)  # v2 = 0.9*v1 - 0.1 g = -0.19 g
        v2 = opt._velocity[(0, 0)]
        assert_allclose(v2, -0.19 * g, rtol=1e-14)
        assert_allclose(net.get_params(), p0 - 0.29 * g.ravel(), rtol=1e-13)

    @pytest.mark.parametrize("lr", [-0.1, float("nan")])
    def test_rejects_negative_or_nan_lr(self, lr):
        with pytest.raises(ValueError, match="learning rate must be a non-negative number"):
            SGDMomentum(lr=lr)

    def test_lr_schedule(self):
        opt = SGDMomentum(lr=0.1, decay_every=30, decay_factor=10.0)
        opt.set_epoch(0)
        assert opt.lr == 0.1
        opt.set_epoch(29)
        assert opt.lr == 0.1
        opt.set_epoch(30)
        assert_allclose(opt.lr, 0.01)
        opt.set_epoch(60)
        assert_allclose(opt.lr, 0.001)

    def test_frozen_layer_untouched(self):
        net = Network([Dense(3), ReLU(), Dense(2)])
        net.build((4,), np.random.default_rng(0))
        net.layers[0].frozen = True
        before = [p.copy() for p in net.layers[0].params]
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 4))
        y = rng.integers(0, 2, size=8)
        opt = SGDMomentum(lr=0.1)
        for _ in range(3):
            net.forward_loss(x, y, train=True)
            net.backward()
            opt.step(net)
        for p, b in zip(net.layers[0].params, before):
            assert np.array_equal(p, b)


def tiny_dataset(rng, n_train=64, n_test=32):
    def gen(n):
        x = rng.standard_normal((n, 6, 6, 1))
        y = (x.mean(axis=(1, 2, 3)) > 0).astype(np.int64)
        x[y == 1] += 0.5
        return x, y

    xtr, ytr = gen(n_train)
    xte, yte = gen(n_test)
    return Dataset(xtr, ytr, xte, yte)


def tiny_net():
    return Network([Conv2D(3, 4), ReLU(), Dense(2)])


class TestTrain:
    def test_zero_lr_keeps_loss_constant(self):
        rng = np.random.default_rng(8)
        data = tiny_dataset(rng)
        net = tiny_net()
        net.build(data.input_shape, np.random.default_rng(0))
        log = train(net, data, SGDMomentum(lr=0.0), epochs=3, seed=1, batch_size=16)
        losses = [row["train_loss"] for row in log]
        assert_allclose(losses, losses[0], rtol=1e-10)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(9)
        data = tiny_dataset(rng)
        logs = []
        for _ in range(2):
            net = tiny_net()
            net.build(data.input_shape, np.random.default_rng(3))
            log = train(net, data, SGDMomentum(lr=0.05), epochs=3, seed=5, batch_size=16)
            logs.append(format_log_csv(log, name="tiny", compression=net.compression))
        assert logs[0] == logs[1]

    def test_divergence_reports_epoch(self):
        rng = np.random.default_rng(10)
        data = tiny_dataset(rng)
        net = tiny_net()
        net.build(data.input_shape, np.random.default_rng(0))
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged) as exc:
                train(net, data, SGDMomentum(lr=1e300), epochs=3, seed=0, batch_size=16)
        assert exc.value.epoch == 0

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(11)
        data = tiny_dataset(rng, n_train=128)
        net = tiny_net()
        net.build(data.input_shape, np.random.default_rng(2))
        log = train(net, data, SGDMomentum(lr=0.05), epochs=5, seed=4, batch_size=16)
        assert log[-1]["train_loss"] < log[0]["train_loss"]
        assert 0.0 <= log[-1]["test_acc"] <= 1.0

    def test_evaluate_range(self):
        rng = np.random.default_rng(12)
        data = tiny_dataset(rng)
        net = tiny_net()
        net.build(data.input_shape, np.random.default_rng(0))
        acc = evaluate(net, data.x_test, data.y_test)
        assert 0.0 <= acc <= 1.0

    def test_log_csv_format(self):
        log = [
            {"epoch": 0, "lr": 0.1, "train_loss": 0.5, "train_acc": 0.75, "test_acc": 0.7}
        ]
        text = format_log_csv(log, name="conv", compression=1.0)
        lines = text.strip().split("\n")
        assert lines[0] == "# model = conv"
        assert lines[1] == "# compression = 1.0"
        assert lines[2] == "epoch,lr,train_loss,train_acc,test_acc"
        assert lines[3].startswith("0,0.1,0.5,")


class TestInitParity:
    """Initial parameters of the shipped configs, fixed by their init_seed."""

    @pytest.mark.parametrize(
        "path,input_shape,digest",
        [
            ("demos/configs/ttconv.cfg", None, "394dd7c3f9bcae7d"),
            ("demos/configs/dense-baseline.cfg", None, "663cbb915c2dac9b"),
            ("perfbench/configs/paper-net.cfg", (32, 32, 64), "eb078249d9b473a2"),
        ],
    )
    def test_params_after_build(self, path, input_shape, digest):
        cfg = load_config(ROOT / path)
        net = build_network(cfg)
        net.build(input_shape or (cfg["size"], cfg["size"], 1), np.random.default_rng(cfg["init_seed"]))
        assert hashlib.sha256(net.get_params().tobytes()).hexdigest().startswith(digest)


# (C, S, d): channel counts whose factorization needs dummy channels
PADDED_CHANNELS = [(6, 5, 2), (3, 7, 3)]


def _dense_weight(layer):
    """The dense kernel (convolutions) or matrix (fully-connected) of a layer."""
    if layer.kind in ("dense-conv", "dense-fc"):
        return layer.params[0]
    if layer.kind == "naive-tt-conv":
        return tt_full(TTTensor(layer.params[:4]))
    d = layer.fact.depth
    tk = TTConvKernel(layer.ell, layer.fact, layer.params[0], layer.params[1 : 1 + d])
    kernel = ttconv_to_dense(tk)
    return kernel[0, 0] if layer.kind == "tt-fc" else kernel


class TestPaddedChannels:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("c,s,d", PADDED_CHANNELS)
    @pytest.mark.parametrize("kind", ["dense-conv", "tt-conv", "naive-tt-conv"])
    def test_conv_kinds(self, kind, c, s, d, ell, bias):
        layer = {
            "dense-conv": lambda: Conv2D(ell, s, bias=bias),
            "tt-conv": lambda: TTConv(ell, s, ranks=(2,) * d, d=d, bias=bias),
            "naive-tt-conv": lambda: NaiveTTConv(ell, s, ranks=(2, 3, 2), bias=bias),
        }[kind]()
        self._check(layer, (4, 4, c), bias)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("c,s,d", PADDED_CHANNELS)
    @pytest.mark.parametrize("kind", ["dense-fc", "tt-fc"])
    def test_fc_kinds(self, kind, c, s, d, bias):
        layer = Dense(s, bias=bias) if kind == "dense-fc" else TTDense(s, ranks=(2,) * d, d=d, bias=bias)
        self._check(layer, (c,), bias)

    def _check(self, layer, in_shape, bias):
        rng = np.random.default_rng(17)
        net = Network([layer, Dense(2)])
        net.build(in_shape, np.random.default_rng(5))
        if bias:
            layer.params[-1][...] = rng.standard_normal(layer.params[-1].shape)
        x = rng.standard_normal((3,) + in_shape)
        weight = _dense_weight(layer)
        if len(in_shape) == 1:
            ref = x @ weight
        else:
            ref = np.stack([conv2d_direct(xi, weight) for xi in x])
        if bias:
            ref = ref + layer.params[-1]
        assert_allclose(layer.forward(x), ref, rtol=1e-12, atol=1e-12)
        for r in gradcheck(net, x, np.array([0, 1, 1])):
            assert r["ok"], f"{r['kind']}: max rel err {r['max_rel_err']:.2e}"


def _train_one_step(net, in_shape, n_out):
    """Build ``net``, run one forward/backward/SGD step at batch 2 and return the loss."""
    net.build(in_shape, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((2,) + in_shape)
    _, loss = net.forward_loss(x, np.array([0, n_out - 1]), train=True)
    net.backward()
    SGDMomentum(0.01).step(net)
    return loss


class TestOversizeGuard:
    """The element cap applies where W is formed: tt-fc never forms it."""

    def test_tt_fc_above_cap_builds_and_trains(self):
        fact = ChannelFactorization((1024, 1024), (16, 16))
        assert 2**20 * 256 > FULL_ELEMENT_CAP
        net = Network([TTDense(256, ranks=(2, 2), factors=fact)])
        assert np.isfinite(_train_one_step(net, (1024, 1024, 1), 256))

    @pytest.mark.parametrize(
        "c,s,ranks,d,factors",
        [
            # VGG fc6 (Novikov et al. 2015)
            (25088, 4096, (8, 8, 8, 8), 4, ((16, 14, 14, 8), (8, 8, 8, 8))),
            (16384, 16384, (8, 8), 2, ((128, 128), (128, 128))),
        ],
    )
    def test_large_tt_fc_trains_without_forming_w(self, c, s, ranks, d, factors):
        layer = TTDense(s, ranks=ranks, d=d)
        assert np.isfinite(_train_one_step(Network([layer]), (c,), s))
        assert (layer.fact.c_factors, layer.fact.s_factors) == factors
        assert np.isfinite(layer.grads[1]).all() and np.abs(layer.grads[1]).max() > 0
        with pytest.raises(SizeError, match="refusing to materialize"):
            layer.weight_matrix()

    @pytest.mark.parametrize("kind", ["tt-conv", "naive-tt-conv"])
    def test_conv_above_cap_fails_at_first_forward(self, kind):
        # 3 * 3 * 10000 * 1200 kernel entries; the layer's input has 10000 channels
        if kind == "tt-conv":
            layer = TTConv(3, 1200, ranks=(2, 2))
        else:
            layer = NaiveTTConv(3, 1200, ranks=(1, 1, 1))
        net = Network([Conv2D(1, 10000), layer])
        net.build((3, 3, 1), np.random.default_rng(0))
        with pytest.raises(SizeError, match=rf"^layer 1 \({kind}\): refusing to materialize"):
            net.forward(np.ones((1, 3, 3, 1)))


# (input features, outputs, d, ranks): unpadded, padded outputs, padded
# inputs, both padded, d = 1
TT_FC_SHAPES = [
    (16, 8, 2, (3, 2)),
    (6, 5, 2, (2, 3)),
    (5, 8, 2, (2, 2)),
    (3, 7, 3, (2, 2, 2)),
    (12, 9, 1, (3,)),
]


def _tt_fc_pass(layer, x, dy, body=TTDense):
    """Forward, dx and parameter gradients of one training pass of ``layer``
    through ``body``'s forward and backward."""
    y = body.forward(layer, x, train=True)
    dx = body.backward(layer, dy)
    return [y, dx] + [g.copy() for g in layer.grads]


class TestTTDenseChain:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("c,s,d,ranks", TT_FC_SHAPES)
    def test_matches_reconstruct_body(self, c, s, d, ranks, bias):
        # reference: W rebuilt from the cores by the shared y = X W + b body
        layer = TTDense(s, ranks=ranks, d=d, bias=bias)
        layer.build((c,), np.random.default_rng(1))
        rng = np.random.default_rng(2)
        if bias:
            layer.params[-1][...] = rng.standard_normal(s)
        x, dy = rng.standard_normal((4, c)), rng.standard_normal((4, s))
        ref = _tt_fc_pass(layer, x, dy, body=nn._MatrixLayer)
        got = _tt_fc_pass(layer, x, dy)
        assert [a.shape for a in got] == [a.shape for a in ref]
        for a, b in zip(got, ref):
            assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

    @pytest.mark.parametrize("c,s,d,ranks", TT_FC_SHAPES)
    def test_gradcheck(self, c, s, d, ranks):
        # the dense layer below checks the tt-fc input gradient too
        net = Network([Dense(c), TTDense(s, ranks=ranks, d=d), ReLU(), Dense(2)])
        net.build((4,), np.random.default_rng(3))
        x = np.random.default_rng(4).standard_normal((3, 4))
        for r in gradcheck(net, x, np.array([0, 1, 1])):
            assert r["ok"], f"{r['kind']}: max rel err {r['max_rel_err']:.2e}"

    def test_never_forms_w(self, monkeypatch):
        layer = TTDense(256, ranks=(2, 2), d=2)
        layer.build((256,), np.random.default_rng(7))

        def refuse(*args):
            raise AssertionError("tt-fc materialized W")

        for module, name in ((nn, "tt_chain"), (nn, "tt_chain_grad"), (kernels, "tt_chain")):
            monkeypatch.setattr(module, name, refuse)
        rng = np.random.default_rng(8)
        y = layer.forward(rng.standard_normal((2, 256)), train=True)
        dx = layer.backward(rng.standard_normal(y.shape))
        assert y.shape == dx.shape == (2, 256)

    def test_builds_no_tt_tensor(self, monkeypatch):
        # the layer sweeps its own cores: no matrix TT is built per step
        layer = TTDense(9, ranks=(2, 3), d=2)
        layer.build((14,), np.random.default_rng(7))

        def refuse(*args):
            raise AssertionError("tt-fc built a TTTensor")

        for module in (kernels, ttmatrix):
            monkeypatch.setattr(module, "TTTensor", refuse)
        rng = np.random.default_rng(8)
        y = layer.forward(rng.standard_normal((3, 14)), train=True)
        dx = layer.backward(rng.standard_normal(y.shape))
        assert y.shape == (3, 9) and dx.shape == (3, 14)

    def test_paper_net_tt_fc_factorization(self):
        assert factorize_channels(14400, 64, 2) == ChannelFactorization((120, 120), (8, 8))


def _parametrized_layer(kind):
    """A built layer of one parametrized kind and an input batch for it."""
    layer, in_shape = {
        "dense-conv": (lambda: Conv2D(3, 4), (5, 5, 3)),
        "tt-conv": (lambda: TTConv(2, 4, ranks=(2, 2), d=2), (5, 5, 3)),
        "naive-tt-conv": (lambda: NaiveTTConv(3, 4, ranks=(2, 3, 2)), (5, 5, 3)),
        "dense-fc": (lambda: Dense(4), (6,)),
        "tt-fc": (lambda: TTDense(4, ranks=(2, 2), d=2), (6,)),
        "batch-norm": (lambda: BatchNorm(), (4, 4, 3)),
    }[kind]
    layer = layer()
    layer.build(in_shape, np.random.default_rng(8))
    x = np.random.default_rng(9).standard_normal((3,) + in_shape)
    return layer, x


class TestSkippedInputGradient:
    @pytest.mark.parametrize(
        "kind", ["dense-conv", "tt-conv", "naive-tt-conv", "dense-fc", "tt-fc", "batch-norm"]
    )
    def test_parameter_gradients_unchanged(self, kind):
        layer, x = _parametrized_layer(kind)
        y = layer.forward(x, train=True)
        dy = np.random.default_rng(10).standard_normal(y.shape)
        dx = layer.backward(dy)
        assert dx.shape == x.shape
        full = [g.copy() for g in layer.grads]
        for g in layer.grads:
            g[...] = 0.0
        layer.forward(x, train=True)  # a matrix layer's backward uses up its cache
        assert layer.backward(dy, input_grad=False) is None
        for g, ref in zip(layer.grads, full):
            assert np.array_equal(g, ref)

    def _padded_tt_net(self):
        net = Network([ZeroPad(1), TTConv(3, 4, ranks=(2, 2), d=2), ReLU(), Dense(2)])
        net.build((5, 5, 2), np.random.default_rng(3))

        def refuse(dy):
            raise AssertionError("backward reached a layer below the lowest parametrized one")

        net.layers[0].backward = refuse
        return net

    def test_network_backward_stops_at_lowest_parametrized_layer(self):
        net = self._padded_tt_net()
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5, 5, 2))
        net.forward_loss(x, np.array([0, 1, 1]), train=True)
        assert net.backward() is None
        assert np.any(net.layers[1].grads[0] != 0.0)

    def test_gradcheck_on_padded_net(self):
        net = self._padded_tt_net()
        x = np.random.default_rng(5).standard_normal((3, 5, 5, 2))
        for r in gradcheck(net, x, np.array([1, 0, 1])):
            assert r["ok"], f"{r['kind']}: max rel err {r['max_rel_err']:.2e}"


class TestGradcheckSideEffects:
    def test_batchnorm_running_stats_untouched(self):
        net = Network([Conv2D(3, 3), BatchNorm(), ReLU(), Dense(2)])
        net.build((5, 5, 2), np.random.default_rng(6))
        rng = np.random.default_rng(7)
        norm = net.layers[1]
        norm.running_mean = rng.standard_normal(3)
        norm.running_var = rng.uniform(0.5, 2.0, 3)
        mean, var = norm.running_mean.copy(), norm.running_var.copy()
        x = rng.standard_normal((4, 5, 5, 2))
        report = gradcheck(net, x, np.array([0, 1, 0, 1]))
        assert all(r["ok"] for r in report)
        assert np.array_equal(norm.running_mean, mean)
        assert np.array_equal(norm.running_var, var)


class TestForwardInputShape:
    def test_wrong_per_sample_shape_names_both(self):
        net = Network([Conv2D(3, 4), ReLU(), Dense(2)])
        net.build((6, 6, 1), np.random.default_rng(0))
        x = np.zeros((2, 7, 6, 1))
        with pytest.raises(ShapeError, match=r"\(7, 6, 1\).*\(6, 6, 1\)"):
            net.forward(x)

    def test_unbuilt_network(self):
        net = Network([Dense(2)])
        with pytest.raises(ShapeError, match="not built"):
            net.forward(np.zeros((2, 3)))


def _maxpool_oracle(x, dy):
    """3x3 stride-2 max pooling by window copies, argmax and np.add.at."""
    from numpy.lib.stride_tricks import sliding_window_view

    wins = sliding_window_view(x, (3, 3), axis=(1, 2))[:, ::2, ::2]
    flat = wins.reshape(wins.shape[:4] + (9,))
    arg = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    dx = np.zeros(x.shape)
    bi, xi, yi, ci = np.indices(arg.shape, sparse=True)
    px = 2 * xi + arg // 3
    py = 2 * yi + arg % 3
    np.add.at(dx, (np.broadcast_to(bi, arg.shape), px, py, np.broadcast_to(ci, arg.shape)), dy)
    return y, dx


def _pool_inputs(rng, shape):
    """Tie-free values, values rounded to halves (ties, and -0.0 beside +0.0),
    and a ReLU output with all-zero windows."""
    tie_free = rng.standard_normal(shape)
    rounded = np.round(2.0 * rng.standard_normal(shape)) / 2.0
    relu = ReLU().forward(rng.standard_normal(shape) - 1.0)
    return {"tie-free": tie_free, "rounded": rounded, "relu": relu}


POOL_SIZES = [3, 5, 6, 7, 14, 32]


class TestMaxPoolEquivalence:
    """The strided-view max pool against window copies, argmax and np.add.at."""

    @pytest.mark.parametrize("h", POOL_SIZES)
    @pytest.mark.parametrize("w", POOL_SIZES)
    def test_matches_argmax_pool(self, w, h):
        rng = np.random.default_rng(100 * w + h)
        for c in (1, 3, 8):
            for name, x in _pool_inputs(rng, (2, w, h, c)).items():
                layer = MaxPool()
                out_shape = (2,) + layer.build((w, h, c), None)
                dy = rng.standard_normal(out_shape)
                y_ref, dx_ref = _maxpool_oracle(x, dy)
                y = layer.forward(x, train=True)
                assert y.shape == out_shape
                assert np.array_equal(y.view(np.uint64), y_ref.view(np.uint64)), (name, c)
                y_eval = layer.forward(x)
                assert np.array_equal(y_eval.view(np.uint64), y.view(np.uint64)), (name, c)
                layer.forward(x, train=True)
                assert np.array_equal(layer.backward(dy).view(np.uint64), dx_ref.view(np.uint64))

    @pytest.mark.parametrize("w,h", [(3, 3), (5, 6), (7, 7)])
    def test_one_slot_per_window(self, w, h):
        rng = np.random.default_rng(w * h)
        for name, x in _pool_inputs(rng, (2, w, h, 3)).items():
            layer = MaxPool()
            out_shape = (2,) + layer.build((w, h, 3), None)
            y = layer.forward(x, train=True)
            for window in np.ndindex(out_shape):
                dy = np.zeros(out_shape)
                dy[window] = 1.0
                dx = layer.backward(dy)
                assert np.count_nonzero(dx) == 1 and dx.sum() == 1.0, (name, window)
                assert x[np.unravel_index(dx.argmax(), dx.shape)] == y[window]
                assert np.array_equal(dx, _maxpool_oracle(x, dy)[1]), (name, window)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_reaches_one_cell(self, bad):
        x = np.arange(50.0).reshape(2, 5, 5, 1)  # a ramp: each window's max is its last slot
        layer = MaxPool()
        out_shape = (2,) + layer.build((5, 5, 1), None)
        dy = np.random.default_rng(3).standard_normal(out_shape)
        dy[0, 0, 1, 0] = bad
        layer.forward(x, train=True)
        with np.errstate(all="raise"):
            dx = layer.backward(dy)
        assert np.count_nonzero(~np.isfinite(dx)) == 1
        assert np.array_equal(_bits(dx), _bits(_maxpool_oracle(x, dy)[1]))

    @pytest.mark.parametrize("w,h", [(5, 5), (7, 6), (14, 14)])
    def test_non_finite_gradients_match_the_oracle(self, w, h):
        rng = np.random.default_rng(w * h + 1)
        for name, x in _pool_inputs(rng, (2, w, h, 3)).items():
            x[0, 2, 2, 0] = np.nan
            layer = MaxPool()
            out_shape = (2,) + layer.build((w, h, 3), None)
            dy = rng.standard_normal(out_shape)
            flat = dy.reshape(-1)
            picks = rng.choice(flat.size, size=6, replace=False)
            flat[picks] = [np.inf, -np.inf, np.nan, np.inf, -np.inf, np.nan]
            y = layer.forward(x, train=True)
            with np.errstate(invalid="ignore"):  # inf - inf in a shared cell
                # a NaN window routes no gradient, where argmax picks its NaN
                want = _maxpool_oracle(x, np.where(np.isnan(y), 0.0, dy))[1]
                got = layer.backward(dy)
            assert np.array_equal(_bits(got), _bits(want)), name

    def test_gradcheck_conv_relu_pool_dense(self):
        net = Network([Conv2D(3, 4), ReLU(), MaxPool(), Dense(2)])
        net.build((9, 9, 2), np.random.default_rng(11))
        x = np.random.default_rng(12).standard_normal((3, 9, 9, 2))
        report = gradcheck(net, x, np.array([0, 1, 1]))
        assert [r["kind"] for r in report] == ["dense-conv", "dense-fc"]
        for r in report:
            assert r["ok"], f"{r['kind']}: max rel err {r['max_rel_err']:.2e}"


class TestNaNPropagation:
    def test_relu_keeps_nan(self):
        y = ReLU().forward(np.array([np.nan, -1.0, 2.0]))
        np.testing.assert_array_equal(y, [np.nan, 0.0, 2.0])

    def test_maxpool_window_with_nan(self):
        x = np.random.default_rng(14).standard_normal((1, 7, 7, 2))
        x[0, 0, 0, 0] = np.nan  # in window (0, 0) only
        x[0, 4, 4, 1] = np.nan  # shared by windows (1, 1), (1, 2), (2, 1), (2, 2)
        layer = MaxPool()
        layer.build((7, 7, 2), None)
        for train in (True, False):
            y = layer.forward(x, train=train)
            nan = np.zeros(y.shape, dtype=bool)
            nan[0, 0, 0, 0] = True
            nan[0, 1:, 1:, 1] = True
            assert np.array_equal(np.isnan(y), nan)

    def test_shipped_tt_config_diverges_at_huge_lr(self):
        cfg = load_config(ROOT / "demos/configs/ttconv.cfg")
        data = load_dataset(cfg)
        net = build_network(cfg)
        net.build(data.input_shape, np.random.default_rng(cfg["init_seed"]))
        opt = SGDMomentum(lr=1e300, momentum=cfg["momentum"])
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged) as exc:
                train(net, data, opt, epochs=1, seed=cfg["seed"], batch_size=cfg["batch_size"])
        assert exc.value.epoch == 0


class TestEvaluateChecksLogits:
    """evaluate checks its logits and targets as the loss head does."""

    @pytest.mark.parametrize(
        "layers,message",
        [
            ([Dense(1)], r"targets must lie in \[0, 1\), got 0..1"),
            ([Conv2D(1, 2)], r"expects \(batch, classes\) logits, got \(4, 2, 2, 2\) logits"),
        ],
    )
    def test_rejects_what_the_loss_head_rejects(self, layers, message):
        net = Network(layers)
        net.build((2, 2, 1), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((4, 2, 2, 1))
        y = np.array([0, 1, 1, 0])
        with pytest.raises(ShapeError, match=message):
            net.loss.forward(net.forward(x), y)
        with pytest.raises(ShapeError, match=message):
            evaluate(net, x, y)


class TestLogCsvRoundTrip:
    def test_read_inverts_format(self, tmp_path):
        log = [
            {"epoch": 0, "lr": 0.03, "train_loss": 0.6931471805599453, "train_acc": 0.5,
             "test_acc": 0.498},
            {"epoch": 1, "lr": 0.003, "train_loss": 1e-17, "train_acc": 1.0, "test_acc": 1.0},
        ]
        path = tmp_path / "log.csv"
        path.write_text(format_log_csv(log, name="TT-conv", compression=1.4881756756756757))
        assert nn.read_log_csv(path) == (log, "TT-conv", 1.4881756756756757)

    def test_trained_log(self, tmp_path):
        rng = np.random.default_rng(11)
        data = tiny_dataset(rng, n_train=32)
        net = tiny_net()
        net.build(data.input_shape, np.random.default_rng(2))
        log = train(net, data, SGDMomentum(lr=0.05), epochs=2, seed=4, batch_size=16)
        path = tmp_path / "log.csv"
        path.write_text(format_log_csv(log, name="tiny", compression=net.compression))
        assert nn.read_log_csv(path) == (log, "tiny", net.compression)

    @pytest.mark.parametrize(
        "text",
        ["epoch,lr\n0,0.1\n", "# model = m\n# compression = 1.0\nepoch,lr\n0,0.1\n",
         "# model = m\n# compression = 1.0\nepoch,lr,train_loss,train_acc,test_acc\n"],
    )
    def test_not_a_log(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"^{path}: "):
            nn.read_log_csv(path)


def _conv_layer(kind, ell, s):
    return {
        "dense-conv": lambda: Conv2D(ell, s),
        "tt-conv": lambda: TTConv(ell, s, ranks=(2, 3), d=2),
        "naive-tt-conv": lambda: NaiveTTConv(ell, s, ranks=(2, 3, 2)),
    }[kind]()


class TestConvInputGradient:
    """A conv layer's dx, formed per kernel offset, against the patch-gradient
    route it replaces: ``col2im_batch(dY W^T)``."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("c", [1, 3, 8, 64])
    @pytest.mark.parametrize("ell", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", ["dense-conv", "tt-conv", "naive-tt-conv"])
    def test_equals_col2im_of_patch_gradient(self, kind, ell, c, batch):
        # S = 5 pads every tt-conv's output channels, and C = 3 its input ones
        layer = _conv_layer(kind, ell, 5)
        in_shape = (ell + 3, ell + 2, c)
        layer.build(in_shape, np.random.default_rng(ell * c))
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((batch,) + in_shape)
        y = layer.forward(x, train=True)
        dy = rng.standard_normal(y.shape)
        ref = col2im_batch(dy.reshape(-1, 5) @ layer.weight_matrix().T, ell, x.shape)
        dx = layer.backward(dy)
        if c == 1 and ell > 1:
            # one input channel makes each per-offset product a matrix-vector
            # product, which BLAS sums in another order than the full GEMM
            assert np.max(np.abs(dx - ref)) <= 1e-12
        else:
            assert np.array_equal(dx.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("kind", ["dense-conv", "tt-conv", "naive-tt-conv"])
    def test_gradcheck_above_a_parametrized_layer(self, kind):
        # the lower conv's parameter gradients pass through the upper conv's dx
        net = Network([Conv2D(2, 3), ReLU(), _conv_layer(kind, 2, 5), ReLU(), Dense(2)])
        net.build((6, 5, 2), np.random.default_rng(12))
        x = np.random.default_rng(13).standard_normal((3, 6, 5, 2))
        report = gradcheck(net, x, np.array([0, 1, 1]))
        assert [r["kind"] for r in report] == ["dense-conv", kind, "dense-fc"]
        for r in report:
            assert r["ok"], f"{r['kind']}: max rel err {r['max_rel_err']:.2e}"


class TestBackwardFreesCaches:
    """Network.backward drops every layer's training cache once used."""

    def _stepped_net(self):
        net = small_mixed_net()
        net.build((12, 12, 2), np.random.default_rng(7))
        x, y = mixed_batch(np.random.default_rng(3))
        net.forward_loss(x, y, train=True)
        net.backward()
        return net

    def test_every_layer_cache_is_dropped(self):
        net = self._stepped_net()
        assert [layer._cache for layer in net.layers] == [None] * len(net.layers)
        assert net.loss._cache is not None

    def test_second_backward_needs_a_forward(self):
        net = self._stepped_net()
        with pytest.raises(RuntimeError, match="^dense-fc: backward called before forward$"):
            net.backward()

    def test_conv_backward_forms_no_patch_gradient(self):
        b, w, h, c, s, ell = 8, 18, 18, 32, 32, 3
        layer = Conv2D(ell, s)
        layer.build((w, h, c), np.random.default_rng(0))
        rng = np.random.default_rng(1)
        y = layer.forward(rng.standard_normal((b, w, h, c)), train=True)
        dy = rng.standard_normal(y.shape)
        patch_bytes = b * (w - ell + 1) * (h - ell + 1) * ell * ell * c * 8
        tracemalloc.start()
        try:
            layer.backward(dy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < patch_bytes


class TestWrongInputSize:
    """A parametrized layer fed another per-sample size than it was built for,
    a pool or zero-pad fed samples that are not W x H x C, and an avg-pool fed
    a size its window does not divide."""

    @pytest.mark.parametrize(
        "layer, in_shape, x_shape, message",
        [
            (lambda: Conv2D(3, 4), (5, 5, 3), (2, 5, 5, 4), "dense-conv expects 3 input channels, got 4"),
            (
                lambda: TTConv(3, 4, ranks=(2, 2), d=2),
                (5, 5, 3),
                (2, 5, 5, 2),
                "tt-conv expects 3 input channels, got 2",
            ),
            (
                lambda: NaiveTTConv(2, 4, ranks=(2, 2, 2)),
                (5, 5, 3),
                (2, 6, 6, 4),
                "naive-tt-conv expects 3 input channels, got 4",
            ),
            (lambda: Dense(3), (5,), (2, 6), "dense-fc expects 5 input features per sample, got 6"),
            (
                lambda: TTDense(4, ranks=(2, 2), d=2),
                (2, 3),
                (2, 7),
                "tt-fc expects 6 input features per sample, got 7",
            ),
            (lambda: BatchNorm(), (4, 4, 3), (2, 4, 4, 5), "batch-norm expects 3 channels, got 5"),
            (
                lambda: MaxPool(),
                (5, 5, 3),
                (5, 5, 3),
                r"max-pool expects W x H x C samples, got shape \(5, 3\)",
            ),
            (
                lambda: AvgPool(2),
                (4, 4, 1),
                (1, 5, 5, 1),
                r"avg-pool input \(5, 5\) not divisible by pool size 2",
            ),
            (
                lambda: AvgPool(2),
                (4, 4, 1),
                (1, 4, 4),
                r"avg-pool expects W x H x C samples, got shape \(4, 4\)",
            ),
            (
                lambda: ZeroPad(1),
                (4, 4, 1),
                (1, 4, 4),
                r"zero-pad expects W x H x C samples, got shape \(4, 4\)",
            ),
        ],
    )
    @pytest.mark.parametrize("train", [False, True])
    def test_shape_error_names_kind_and_sizes(self, layer, in_shape, x_shape, message, train):
        layer = layer()
        layer.build(in_shape, np.random.default_rng(0))
        with pytest.raises(ShapeError, match=f"^{message}$"):
            layer.forward(np.zeros(x_shape), train=train)

    @pytest.mark.parametrize(
        "x_shape, message",
        [
            ((5, 5, 3), "^batch input must be B x W x H x C, got 3 dimensions$"),
            ((2, 2, 5, 3), r"^filter size 3 exceeds input dims \(2, 5\)$"),
        ],
    )
    def test_conv_shape_errors_keep_their_text(self, x_shape, message):
        layer = Conv2D(3, 4)
        layer.build((5, 5, 3), np.random.default_rng(0))
        with pytest.raises(ShapeError, match=message):
            layer.forward(np.zeros(x_shape))

    def test_conv_takes_other_spatial_sizes(self):
        layer = Conv2D(3, 4)
        layer.build((5, 5, 3), np.random.default_rng(0))
        assert layer.forward(np.zeros((2, 7, 6, 3))).shape == (2, 5, 4, 4)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestSharedPatchWorkspace:
    """Convs that run between another conv's forward and backward passes
    leave its kept patches and cached input alone.  Each conv's output, grads and dx are compared bitwise with a reference
    built from ``im2col_batch(x, l)`` and ``(dY^T P)^T``."""

    KINDS = ["dense-conv", "tt-conv", "naive-tt-conv"]

    def _conv(self, kind, ell, in_shape, seed):
        layer = {
            # C = 3 and S = 5 pad a d = 2 tt-conv's input and output channels
            "dense-conv": lambda: Conv2D(ell, 5),
            "tt-conv": lambda: TTConv(ell, 5, ranks=(2, 3), d=2),
            "naive-tt-conv": lambda: NaiveTTConv(ell, 5, ranks=(2, 3, 2)),
        }[kind]()
        layer.build(in_shape, np.random.default_rng(seed))
        return layer

    def _pair(self, kind_a, kind_b):
        """Two convs whose patch matrices differ in shape, their inputs and dY."""
        rng = np.random.default_rng(31)
        a = self._conv(kind_a, 3, (7, 6, 3), 1)
        b = self._conv(kind_b, 2, (5, 8, 4), 2)
        xa, xb = rng.standard_normal((2, 7, 6, 3)), rng.standard_normal((3, 5, 8, 4))
        dya, dyb = rng.standard_normal((2, 5, 4, 5)), rng.standard_normal((3, 4, 7, 5))
        return (a, xa, dya), (b, xb, dyb)

    @staticmethod
    def _reference(layer, x, dy):
        patches = im2col_batch(x, layer.ell)
        w = layer.weight_matrix()
        y = patches @ w + layer.params[-1]
        dy = dy.reshape(patches.shape[0], -1)
        grads = layer.weight_grads((dy.T @ patches).T) + [dy.sum(axis=0)]
        dx = np.zeros(x.shape)
        layer._input_grad(dy, w, dx)
        return y, grads, dx

    def _check(self, layer, x, dy, y, dx):
        y_ref, grads_ref, dx_ref = self._reference(layer, x, dy)
        assert np.array_equal(_bits(y), _bits(y_ref.reshape(y.shape)))
        assert len(layer.grads) == len(grads_ref)
        for g, ref in zip(layer.grads, grads_ref):
            assert np.array_equal(_bits(g), _bits(ref.reshape(g.shape)))
        if dx is not None:
            assert np.array_equal(_bits(dx), _bits(dx_ref))

    @pytest.mark.parametrize("kind_b", KINDS)
    @pytest.mark.parametrize("kind_a", KINDS)
    @pytest.mark.parametrize("b_first", [True, False], ids=["bwd-B-first", "bwd-A-first"])
    def test_two_convs_any_backward_order(self, kind_a, kind_b, b_first):
        (a, xa, dya), (b, xb, dyb) = self._pair(kind_a, kind_b)
        ya = a.forward(xa, train=True)
        yb = b.forward(xb, train=True)
        order = [(b, xb, dyb, yb), (a, xa, dya, ya)]
        for layer, x, dy, y in order if b_first else order[::-1]:
            self._check(layer, x, dy, y, layer.backward(dy))

    @pytest.mark.parametrize("kind", KINDS)
    def test_eval_forward_of_another_conv_between(self, kind):
        (a, xa, dya), (b, xb, _) = self._pair(kind, "dense-conv")
        ya = a.forward(xa, train=True)
        b.forward(xb)
        self._check(a, xa, dya, ya, a.backward(dya))

    @pytest.mark.parametrize("kind", KINDS)
    def test_eval_network_forward_between(self, kind):
        (a, xa, dya), _ = self._pair(kind, "dense-conv")
        net = small_mixed_net()
        net.build((12, 12, 2), np.random.default_rng(7))
        ya = a.forward(xa, train=True)
        net.forward(mixed_batch(np.random.default_rng(3))[0], train=False)
        self._check(a, xa, dya, ya, a.backward(dya))

    @pytest.mark.parametrize("kind", KINDS)
    def test_training_forward_twice(self, kind):
        (a, xa, dya), _ = self._pair(kind, "dense-conv")
        a.forward(np.random.default_rng(5).standard_normal(xa.shape), train=True)
        ya = a.forward(xa, train=True)
        self._check(a, xa, dya, ya, a.backward(dya))

    def test_network_step(self):
        # each conv's batch is one block, so each keeps its own patches
        net = Network(
            [
                ZeroPad(1),
                TTConv(3, 5, ranks=(2, 2), d=2),
                ReLU(),
                NaiveTTConv(2, 4, ranks=(2, 2, 2)),
                ReLU(),
                Conv2D(3, 3),
                Dense(2),
            ]
        )
        net.build((8, 7, 3), np.random.default_rng(11))
        seen = {}
        for idx in (1, 3, 5):
            layer = net.layers[idx]

            def forward(x, train=False, layer=layer, call=layer.forward):
                seen[layer] = [x, call(x, train)]
                return seen[layer][1]

            def backward(dy, input_grad=True, layer=layer, call=layer.backward):
                seen[layer] += [dy, call(dy, input_grad)]
                return seen[layer][3]

            layer.forward, layer.backward = forward, backward
        x = np.random.default_rng(12).standard_normal((3, 8, 7, 3))
        net.forward_loss(x, np.array([0, 1, 1]), train=True)
        net.backward()
        assert seen[net.layers[1]][3] is None  # the lowest layer skips dx
        for layer, (x, y, dy, dx) in seen.items():
            self._check(layer, x, dy, y, dx)

    def test_caches_hold_no_global_reference_to_the_input(self):
        net = Network([Conv2D(3, 4), ReLU(), Conv2D(2, 3), Dense(2)])
        net.build((7, 7, 2), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 7, 7, 2))
        net.forward_loss(x, np.array([0, 1]), train=True)
        hidden = weakref.ref(net.layers[1]._cache)
        upper_input = weakref.ref(net.layers[2]._cache[0])
        net.backward()
        assert hidden() is None and upper_input() is None


class TestPatchWorkspaceMemory:
    """The patch matrix is held once, in the shared workspace, not per conv."""

    def test_network_step_holds_under_two_patch_matrices(self):
        b, w, h, c, ell = 4, 18, 18, 32, 3
        layers = []
        for _ in range(3):
            layers += [ZeroPad(1), Conv2D(ell, c)]
        net = Network(layers + [Dense(2)])
        net.build((w, h, c), np.random.default_rng(0))
        rng = np.random.default_rng(1)
        targets = np.array([0, 1, 1, 0])
        net.forward_loss(rng.standard_normal((b, w, h, c)), targets, train=True)
        net.backward()
        x = rng.standard_normal((b, w, h, c))
        patch_bytes = b * w * h * ell * ell * c * 8
        tracemalloc.start()
        try:
            net.forward_loss(x, targets, train=True)
            net.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * patch_bytes

    def test_eval_forward_allocates_under_one_patch_matrix(self):
        b, w, h, c, s, ell = 8, 18, 18, 32, 32, 3
        layer = Conv2D(ell, s)
        layer.build((w, h, c), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((b, w, h, c))
        layer.forward(x)
        patch_bytes = b * (w - ell + 1) * (h - ell + 1) * ell * ell * c * 8
        tracemalloc.start()
        try:
            layer.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < patch_bytes


class TestPatchBlocks:
    """A conv walks its batch in blocks of whole images.  With the block budget
    shrunk so that a batch splits into several blocks, y and dx equal the
    whole-batch ``im2col_batch`` reference bitwise, and dW the whole-batch
    ``(dY^T P)^T`` to 1e-12 relative (the blocks sum it in another order)."""

    KINDS = ["dense-conv", "tt-conv", "naive-tt-conv"]
    IN_SHAPE, ELL = (7, 6, 3), 3  # 5 x 4 output pixels of 27 patch columns per image

    @pytest.fixture
    def two_images_per_block(self, monkeypatch):
        monkeypatch.setattr(nn, "_BLOCK_BYTES", 2 * 20 * 27 * 8)

    def _conv(self, kind):
        layer = _conv_layer(kind, self.ELL, 5)
        layer.build(self.IN_SHAPE, np.random.default_rng(4))
        return layer

    @pytest.mark.parametrize("batch, blocks", [(7, 4), (1, 1)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_blocks_match_the_whole_batch(self, kind, batch, blocks, two_images_per_block):
        layer = self._conv(kind)
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((batch,) + self.IN_SHAPE)
        sizes = [len(cols) // 20 for _, _, cols in layer._patch_blocks(x)]
        assert sizes == [2] * (blocks - 1) + [2 - batch % 2]
        y = layer.forward(x, train=True)
        dy = rng.standard_normal(y.shape)
        dx = layer.backward(dy)
        patches, w = im2col_batch(x, self.ELL), layer.weight_matrix()
        dy_rows = dy.reshape(-1, 5)
        assert np.array_equal(_bits(y), _bits((patches @ w + layer.params[-1]).reshape(y.shape)))
        assert np.array_equal(_bits(dx), _bits(col2im_batch(dy_rows @ w.T, self.ELL, x.shape)))
        grads = layer.weight_grads((dy_rows.T @ patches).T) + [dy_rows.sum(axis=0)]
        for g, ref in zip(layer.grads, grads):
            assert np.max(np.abs(g - ref.reshape(g.shape))) <= 1e-12 * np.max(np.abs(ref))
        if blocks == 1:
            for g, ref in zip(layer.grads, grads):
                assert np.array_equal(_bits(g), _bits(ref.reshape(g.shape)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_gradcheck_with_one_image_per_block(self, kind, monkeypatch):
        monkeypatch.setattr(nn, "_BLOCK_BYTES", 1)
        net = Network([Conv2D(2, 3), ReLU(), _conv_layer(kind, 2, 5), ReLU(), Dense(2)])
        net.build((6, 5, 2), np.random.default_rng(12))
        x = np.random.default_rng(13).standard_normal((3, 6, 5, 2))
        assert len(list(net.layers[2]._patch_blocks(np.zeros((3, 5, 4, 3))))) == 12
        for r in gradcheck(net, x, np.array([0, 1, 1])):
            assert r["ok"], f"{r['kind']}: max rel err {r['max_rel_err']:.2e}"


class TestRowBlocks:
    """When one image's patches exceed the block budget, a conv walks each
    image in runs of whole output rows, as many as fit and split as evenly as
    they go.  y and dx still equal the whole-batch ``im2col_batch`` reference
    bitwise, and every gradient the whole-batch one to 1e-12 relative."""

    KINDS = ["dense-conv", "tt-conv", "naive-tt-conv"]
    IN_SHAPE, ELL = (9, 6, 3), 3  # 7 x 4 output pixels of 27 patch columns per image
    ROW_BYTES = 4 * 27 * 8  # the patches of one output row

    def _fit_rows(self, monkeypatch, rows):
        monkeypatch.setattr(nn, "_BLOCK_BYTES", rows * self.ROW_BYTES + 8)

    @pytest.mark.parametrize(
        "fit, runs", [(1, [1] * 7), (2, [1, 2, 2, 2]), (3, [2, 2, 3]), (6, [3, 4])]
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_match_the_whole_batch(self, kind, fit, runs, monkeypatch):
        self._fit_rows(monkeypatch, fit)
        layer = _conv_layer(kind, self.ELL, 5)
        layer.build(self.IN_SHAPE, np.random.default_rng(4))
        rng = np.random.default_rng(fit)
        x = rng.standard_normal((3,) + self.IN_SHAPE)
        blocks = [(samples, len(cols) // 4) for samples, _, cols in layer._patch_blocks(x)]
        assert blocks == [(slice(s, s + 1), r) for s in range(3) for r in runs]
        y = layer.forward(x, train=True)
        dy = rng.standard_normal(y.shape)
        dx = layer.backward(dy)
        patches, w = im2col_batch(x, self.ELL), layer.weight_matrix()
        dy_rows = dy.reshape(-1, 5)
        assert np.array_equal(_bits(y), _bits((patches @ w + layer.params[-1]).reshape(y.shape)))
        assert np.array_equal(_bits(layer.forward(x)), _bits(y))
        assert np.array_equal(_bits(dx), _bits(col2im_batch(dy_rows @ w.T, self.ELL, x.shape)))
        grads = layer.weight_grads((dy_rows.T @ patches).T) + [dy_rows.sum(axis=0)]
        for g, ref in zip(layer.grads, grads):
            assert np.max(np.abs(g - ref.reshape(g.shape))) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", KINDS)
    def test_gradcheck_through_row_blocks(self, kind, monkeypatch):
        self._fit_rows(monkeypatch, 2)
        net = Network([ZeroPad(1), _conv_layer(kind, 3, 4), ReLU(), Conv2D(3, 3), Dense(2)])
        net.build((7, 4, 3), np.random.default_rng(21))
        assert len(list(net.layers[1]._patch_blocks(np.zeros((2, 9, 6, 3))))) == 8
        x = np.random.default_rng(22).standard_normal((2, 7, 4, 3))
        for r in gradcheck(net, x, np.array([0, 1])):
            assert r["ok"], f"{r['kind']}: max rel err {r['max_rel_err']:.2e}"

    def test_paper_net_row_blocks_keep_dw_bitwise(self):
        # 34 x 34 x 64 -> 32 x 32 x 64 at the default budget: runs of 10, 11 and
        # 11 output rows, so 320 and 352 patch rows of 576 columns.  dW is the
        # sum of the blocks' P^T dY, whichever orientation forms each product.
        layer = Conv2D(3, 64)
        layer.build((34, 34, 64), np.random.default_rng(5))
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 34, 34, 64))
        dy = rng.standard_normal(layer.forward(x, train=True).shape)
        layer.backward(dy, input_grad=False)
        dy_rows = dy.reshape(-1, 64)
        blocks = [(rows, cols.copy()) for _, rows, cols in layer._patch_blocks(x)]
        assert [cols.shape for _, cols in blocks] == [(320, 576), (352, 576), (352, 576)]
        rows, cols = blocks[1]
        assert np.array_equal(_bits((dy_rows[rows].T @ cols).T), _bits(cols.T @ dy_rows[rows]))
        ref = functools.reduce(np.add, [cols.T @ dy_rows[rows] for rows, cols in blocks])
        assert np.array_equal(_bits(layer.grads[0].reshape(ref.shape)), _bits(ref))


class TestTrainingStepMemory:
    """A training step holds its activations and one patch block, even when
    one image's patches exceed the block budget: 32 x 32 x 64 zero-padded to
    34 x 34 x 64 has 1024 x 576 patch entries (4.7 MB) per image."""

    def test_step_holds_activations_and_one_block(self, monkeypatch):
        net = Network([ZeroPad(1), Conv2D(3, 8), Dense(2)])
        net.build((32, 32, 64), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((1, 32, 32, 64))
        targets = np.array([1])
        buffers = []

        def im2col(xb, ell, out=None):
            buffers.append(out.nbytes if out.base is None else out.base.nbytes)
            return im2col_batch(xb, ell, out=out)

        monkeypatch.setattr(nn, "im2col_batch", im2col)
        net.forward_loss(x, targets, train=True)
        net.backward()
        padded = 34 * 34 * 64 * 8
        tracemalloc.start()
        try:
            net.forward_loss(x, targets, train=True)
            net.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert buffers and max(buffers) <= nn._BLOCK_BYTES
        assert peak <= padded + nn._BLOCK_BYTES + 256 * 1024

    def test_train_holds_no_batch_in_backward(self):
        rng = np.random.default_rng(2)
        data = Dataset(
            rng.standard_normal((4, 6, 6, 2)), np.array([0, 1, 1, 0]),
            rng.standard_normal((2, 6, 6, 2)), np.array([1, 0]),
        )
        net = Network([ZeroPad(1), Conv2D(3, 4), ReLU(), Dense(2)])
        net.build((6, 6, 2), np.random.default_rng(3))
        batches, alive, alive_at_layer_1 = [], [], []
        forward, backward, conv_forward = net.forward, net.backward, net.layers[1].forward

        def forward_spy(x, train=False):
            batches.append(weakref.ref(x))
            held = [x]
            del x
            return forward(held.pop(), train)  # the spy keeps no reference

        def conv_forward_spy(x, train=False):
            alive_at_layer_1.append(batches[-1]() is not None)
            return conv_forward(x, train)

        def backward_spy():
            alive.append(batches[-1]() is not None)
            backward()

        net.forward, net.backward = forward_spy, backward_spy
        net.layers[1].forward = conv_forward_spy
        train(net, data, SGDMomentum(lr=0.01), epochs=1, seed=0, batch_size=2)
        assert alive == [False, False]
        assert alive_at_layer_1[:2] == [False, False]


class TestBlockedPatchMemory:
    """No conv call holds more than one block of patches, and none of several
    blocks outlives the call.  One image of 18 x 18 x 32 has 256 x 288 patch entries (590 KB),
    so at the shipped block budget a block holds 3 images.  Each test takes a
    batch larger than any conv before it, so a buffer kept from an earlier
    call could not hide its own."""

    W, H, C, S, ELL = 18, 18, 32, 32, 3

    def _layer_and_batch(self, b):
        layer = Conv2D(self.ELL, self.S)
        layer.build((self.W, self.H, self.C), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((b, self.W, self.H, self.C))
        patch_bytes = b * (self.W - 2) * (self.H - 2) * self.ELL**2 * self.C * 8
        return layer, x, patch_bytes

    def test_training_step_peak_under_half_a_patch_matrix(self):
        layer, x, patch_bytes = self._layer_and_batch(32)
        dy = np.random.default_rng(2).standard_normal((32, self.W - 2, self.H - 2, self.S))
        tracemalloc.start()
        try:
            layer.forward(x, train=True)
            layer.backward(dy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < patch_bytes / 2

    def test_eval_forward_leaves_no_patch_buffer(self):
        layer, x, _ = self._layer_and_batch(40)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            y = layer.forward(x)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before - y.nbytes < 64 * 1024


def _drop_kept_block(layer):
    """Forget the patch block a training forward kept, so backward rebuilds it."""
    x, w, _ = layer._cache
    layer._cache = (x, w, None)


class TestKeptPatchBlock:
    """A conv whose whole batch fits one block of patches keeps that block for
    its backward pass instead of building it again, and the kept block gives
    the bits a rebuilt one does.  With two or more blocks nothing is kept."""

    KINDS = ["dense-conv", "tt-conv", "naive-tt-conv"]
    IN_SHAPE, ELL = (7, 6, 3), 3  # 5 x 4 output pixels of 27 patch columns per image

    @pytest.fixture
    def im2col_calls(self, monkeypatch):
        calls = []

        def im2col(xb, ell, out=None):
            calls.append(len(xb))
            return im2col_batch(xb, ell, out=out)

        monkeypatch.setattr(nn, "im2col_batch", im2col)
        return calls

    def _conv(self, kind):
        layer = _conv_layer(kind, self.ELL, 5)
        layer.build(self.IN_SHAPE, np.random.default_rng(4))
        return layer

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_block_builds_its_patches_once(self, kind, im2col_calls):
        layer = self._conv(kind)
        rng = np.random.default_rng(1)
        y = layer.forward(rng.standard_normal((3,) + self.IN_SHAPE), train=True)
        assert layer._cache[2].shape == (3 * 20, 27)
        layer.backward(rng.standard_normal(y.shape))
        assert im2col_calls == [3]
        assert layer._cache is None
        layer.forward(rng.standard_normal((3,) + self.IN_SHAPE))
        assert im2col_calls == [3, 3]

    @pytest.mark.parametrize("kind", KINDS)
    def test_two_blocks_keep_nothing(self, kind, im2col_calls, monkeypatch):
        monkeypatch.setattr(nn, "_BLOCK_BYTES", 2 * 20 * 27 * 8)  # two images per block
        layer = self._conv(kind)
        rng = np.random.default_rng(2)
        y = layer.forward(rng.standard_normal((4,) + self.IN_SHAPE), train=True)
        assert layer._cache[2] is None
        layer.backward(rng.standard_normal(y.shape))
        assert im2col_calls == [2, 2, 2, 2]

    def test_dense_fc_keeps_a_view_of_its_input(self):
        layer = Dense(3)
        layer.build((4, 2), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 4, 2))
        layer.forward(x, train=True)
        assert layer._cache[2].base is x

    @pytest.mark.parametrize(
        "ell, in_shape, out, batch",
        [(3, IN_SHAPE, 5, 3), (3, (16, 16, 1), 8, 128), (3, (6, 6, 8), 16, 128)],
        ids=["small", "desk-conv-1", "desk-conv-2"],
    )
    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("kind", KINDS)
    def test_kept_block_gives_the_rebuilt_bits(self, kind, input_grad, ell, in_shape, out, batch):
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((batch,) + in_shape)
        runs = []
        for keep in (True, False):
            layer = _conv_layer(kind, ell, out)
            layer.build(in_shape, np.random.default_rng(5))
            y = layer.forward(x, train=True)
            assert layer._cache[2] is not None
            if not keep:
                _drop_kept_block(layer)
            dy = np.random.default_rng(6).standard_normal(y.shape)
            dx = layer.backward(dy, input_grad=input_grad)
            runs.append([y] + ([dx] if input_grad else []) + layer.grads)
        for kept, rebuilt in zip(*runs, strict=True):
            assert np.array_equal(_bits(kept), _bits(rebuilt))

    def test_desk_step_holds_at_most_one_block_per_conv(self):
        # the shipped TT-conv net at its batch of 128: both convs keep a block
        net = build_network(load_config(ROOT / "demos/configs/ttconv.cfg"))
        net.build((16, 16, 1), np.random.default_rng(0))
        convs = [layer for layer in net.layers if isinstance(layer, nn._ConvLayer)]
        x = np.random.default_rng(1).standard_normal((128, 16, 16, 1))
        targets = np.arange(128) % 2

        def step(keep):
            tracemalloc.start()
            try:
                net.forward_loss(x, targets, train=True)
                kept = [layer._cache[2].nbytes for layer in convs]
                if not keep:
                    for layer in convs:
                        _drop_kept_block(layer)
                net.backward()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return kept, peak

        step(True)
        kept, peak = step(True)
        _, rebuilt_peak = step(False)
        assert len(kept) == 2 and max(kept) <= nn._BLOCK_BYTES
        assert peak <= rebuilt_peak + sum(kept) + 64 * 1024


class TestEmptyBatch:
    """A parametrized layer fed a batch of no samples is a ShapeError naming it."""

    @pytest.mark.parametrize(
        "layer, in_shape",
        [
            (lambda: Conv2D(3, 4), (5, 5, 3)),
            (lambda: TTConv(3, 4, ranks=(2, 2), d=2), (5, 5, 3)),
            (lambda: NaiveTTConv(2, 4, ranks=(2, 2, 2)), (5, 5, 3)),
            (lambda: Dense(3), (5,)),
            (lambda: TTDense(4, ranks=(2, 2), d=2), (2, 3)),
            (lambda: BatchNorm(), (4, 4, 3)),
        ],
    )
    @pytest.mark.parametrize("train", [False, True])
    def test_layer(self, layer, in_shape, train):
        layer = layer()
        layer.build(in_shape, np.random.default_rng(0))
        with pytest.raises(ShapeError, match=f"^{layer.kind} got an empty batch$"):
            layer.forward(np.zeros((0,) + in_shape), train=train)

    def test_network(self):
        net = small_mixed_net()
        net.build((12, 12, 2), np.random.default_rng(7))
        with pytest.raises(ShapeError, match=r"^layer 1 \(dense-conv\): dense-conv got an empty batch$"):
            net.forward_loss(np.zeros((0, 12, 12, 2)), np.zeros(0, dtype=int), train=True)

    def test_evaluate(self):
        net = tiny_net()
        net.build((6, 6, 1), np.random.default_rng(0))
        with pytest.raises(ShapeError, match="^evaluate got an empty set$"):
            evaluate(net, np.zeros((0, 6, 6, 1)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("empty", ["training", "test"])
    def test_train(self, empty):
        data = tiny_dataset(np.random.default_rng(0), n_train=8, n_test=4)
        if empty == "training":
            data.x_train, data.y_train = data.x_train[:0], data.y_train[:0]
        else:
            data.x_test, data.y_test = data.x_test[:0], data.y_test[:0]
        net = tiny_net()
        net.build(data.input_shape, np.random.default_rng(0))
        with pytest.raises(ShapeError, match=f"^train got an empty {empty} set$"):
            train(net, data, SGDMomentum(lr=0.01), epochs=1, seed=0, batch_size=4)


@pytest.mark.parametrize("batch_size", [0, -1])
class TestBatchSizeBelowOne:
    """A batch_size below 1 is a ShapeError naming it, raised before any epoch."""

    def test_evaluate(self, batch_size):
        data = tiny_dataset(np.random.default_rng(0), n_train=1, n_test=4)
        net = tiny_net()
        net.build(data.input_shape, np.random.default_rng(0))
        with pytest.raises(ShapeError, match=f"^evaluate: batch_size must be at least 1, got {batch_size}$"):
            evaluate(net, data.x_test, data.y_test, batch_size=batch_size)

    def test_train(self, batch_size):
        data = tiny_dataset(np.random.default_rng(0), n_train=8, n_test=4)
        net = tiny_net()
        net.build(data.input_shape, np.random.default_rng(0))
        before = net.get_params()
        with pytest.raises(ShapeError, match=f"^train: batch_size must be at least 1, got {batch_size}$"):
            train(net, data, SGDMomentum(lr=0.01), epochs=1, seed=0, batch_size=batch_size)
        assert np.array_equal(net.get_params(), before)


class TestStepHoldsWhatBackwardReads:
    """A training step holds the activations its backward pass reads, and
    little more: each batch goes once its first layer returns, max-pool caches
    a slot index, a matrix layer frees its input before it allocates dx, and
    batch-norm works in two full-size buffers."""

    B = 4
    ACT = B * 32 * 32 * 64 * 8  # one 32 x 32 x 64 activation of the batch
    PADDED = B * 34 * 34 * 64 * 8

    def test_paper_net_shaped_step_peak(self, monkeypatch):
        net = Network([ZeroPad(1), Conv2D(3, 64), BatchNorm(), ReLU(), ZeroPad(1),
                       Conv2D(3, 64), ReLU(), MaxPool(), Dense(2)])
        net.build((32, 32, 64), np.random.default_rng(0))
        rng = np.random.default_rng(1)
        data = Dataset(rng.standard_normal((self.B, 32, 32, 64)), np.arange(self.B) % 2,
                       rng.standard_normal((1, 32, 32, 64)), np.array([0]))
        monkeypatch.setattr(nn, "evaluate", lambda *args, **kwargs: 0.0)
        opt = SGDMomentum(lr=0.01)
        train(net, data, opt, epochs=1, seed=0, batch_size=self.B)  # momentum buffers
        tracemalloc.start()
        try:
            train(net, data, opt, epochs=1, seed=1, batch_size=self.B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the upper conv's backward: both convs' padded inputs, batch-norm's
        # xhat, the gradient, the ReLU masks and one block of patches
        assert peak <= 2 * self.PADDED + 2.5 * self.ACT + nn._BLOCK_BYTES

    def test_maxpool_keeps_no_reference_to_its_input(self):
        layer = MaxPool()
        layer.build((7, 7, 2), None)
        x = np.random.default_rng(0).standard_normal((2, 7, 7, 2))
        ref = np.array(x)
        alive = weakref.ref(x)
        y = layer.forward(x, train=True)
        del x
        assert alive() is None
        dy = np.random.default_rng(1).standard_normal(y.shape)
        assert np.array_equal(_bits(layer.backward(dy)), _bits(_maxpool_oracle(ref, dy)[1]))

    def test_matrix_layer_frees_its_input_before_forming_dx(self):
        layer = Conv2D(3, 8)
        layer.build((18, 18, 32), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((4, 18, 18, 32))
        alive = weakref.ref(x)
        y = layer.forward(x, train=True)
        del x
        freed = []

        def input_grad(*args, call=layer._input_grad):
            freed.append(alive() is None)
            return call(*args)

        layer._input_grad = input_grad
        layer.backward(np.ones(y.shape))
        assert freed and all(freed)
        assert layer._cache is None


def _batchnorm_oracle(layer, x, dy, train):
    """The batch-norm expressions as plain array arithmetic: y, dx, dgamma,
    dbeta and the running statistics."""
    axes = tuple(range(x.ndim - 1))
    gamma, beta = layer.params
    running_mean, running_var = layer.running_mean, layer.running_var
    if train:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean = layer.momentum * running_mean + (1 - layer.momentum) * mean
        running_var = layer.momentum * running_var + (1 - layer.momentum) * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    xhat = (x - mean) * inv_std
    y = gamma * xhat + beta
    n = math.prod(dy.shape[a] for a in axes)
    dxhat = dy * gamma
    dx = inv_std * (dxhat - dxhat.mean(axis=axes) - xhat * (dxhat * xhat).sum(axis=axes) / n)
    return y, dx, (dy * xhat).sum(axis=axes), dy.sum(axis=axes), running_mean, running_var


class TestBatchNormSameBits:
    """BatchNorm's buffered passes give bitwise (uint64 views) the plain
    expressions' output, input and parameter gradients and running statistics."""

    @pytest.mark.parametrize("shape", [(8, 32, 32, 64), (3, 5, 4, 3), (1, 1, 1, 2), (7, 6), (1, 9)])
    @pytest.mark.parametrize("seed", range(3))
    def test_train_and_eval(self, shape, seed):
        rng = np.random.default_rng(seed)
        layer = BatchNorm()
        layer.build(shape[1:], rng)
        layer.params[0][...] = rng.uniform(0.5, 2.0, shape[-1])
        layer.params[1][...] = rng.standard_normal(shape[-1])
        for _ in range(2):
            layer.forward(rng.uniform(-3, 5) + 2 * rng.standard_normal(shape), train=True)
        x = rng.uniform(-3, 5) + rng.uniform(0.1, 4) * rng.standard_normal(shape)
        dy = rng.standard_normal(shape)
        want = _batchnorm_oracle(layer, x, dy, train=False)
        assert np.array_equal(_bits(layer.forward(x)), _bits(want[0]))
        want = _batchnorm_oracle(layer, x, dy, train=True)
        got = [layer.forward(x, train=True), layer.backward(dy)] + layer.grads
        got += [layer.running_mean, layer.running_var]
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(_bits(a), _bits(b))


class TestOneChannelConv:
    """A conv whose input has one channel builds its patch blocks pixel-fastest
    (F-ordered).  y, dW and the bias gradient match ``conv2d_direct`` to 1e-12
    relative, with one kept block, several image blocks and row runs, and a
    kept block gives the bits a rebuilt one does.  Tolerance, not bits: BLAS
    may sum a transposed operand in another order (at l = 5, or S = 1)."""

    KINDS = ["dense-conv", "tt-conv", "naive-tt-conv"]
    SIZE, BATCH = 9, 3

    def _budget(self, blocks, ell):
        """The block budget of one kept block, two images or two output rows."""
        wo = self.SIZE - ell + 1
        row = wo * ell * ell * 8
        return {"one": nn._BLOCK_BYTES, "images": 2 * wo * row, "rows": 2 * row + 8}[blocks]

    def _run(self, kind, ell, s, x, dy, keep=True):
        layer = _conv_layer(kind, ell, s)
        layer.build(x.shape[1:], np.random.default_rng(ell * s))
        layer.params[-1][...] = np.random.default_rng(s).standard_normal(s)
        y = layer.forward(x, train=True)
        if not keep:
            _drop_kept_block(layer)
        dx = layer.backward(dy)
        return layer, [y, dx] + layer.grads

    @pytest.mark.parametrize("blocks", ["one", "images", "rows"])
    @pytest.mark.parametrize("s", [1, 2, 8])
    @pytest.mark.parametrize("ell", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_direct_convolution(self, kind, ell, s, blocks, monkeypatch):
        monkeypatch.setattr(nn, "_BLOCK_BYTES", self._budget(blocks, ell))
        rng = np.random.default_rng(100 * ell + s)
        x = rng.standard_normal((self.BATCH, self.SIZE, self.SIZE, 1))
        wo = self.SIZE - ell + 1
        dy = rng.standard_normal((self.BATCH, wo, wo, s))
        layer, got = self._run(kind, ell, s, x, dy)
        blocks_made = [cols for _, _, cols in layer._patch_blocks(x)]
        assert all(cols.flags.f_contiguous for cols in blocks_made)
        per_image = [len(cols) / (wo * wo) for cols in blocks_made]
        assert per_image == {"one": [self.BATCH], "images": [2, 1]}.get(blocks, per_image)
        assert blocks != "rows" or max(per_image) < 1
        k = layer.weight_matrix().reshape(ell, ell, 1, s)
        y_ref = np.stack([conv2d_direct(xb, k) for xb in x]) + layer.params[-1]
        # dW[i, j, 0, :] = sum over pixels of X[b, x+i, y+j] dY[b, x, y, :]:
        # a valid convolution of each image with its dY as the kernel
        dw_ref = sum(conv2d_direct(xb, dyb[:, :, None, :]) for xb, dyb in zip(x, dy))
        grads_ref = layer.weight_grads(dw_ref.reshape(ell * ell, s)) + [dy.sum(axis=(0, 1, 2))]
        for a, ref in zip([got[0]] + got[2:], [y_ref] + grads_ref, strict=True):
            assert np.max(np.abs(a - ref.reshape(a.shape))) <= 1e-12 * np.max(np.abs(ref))
        if blocks == "one":
            _, rebuilt = self._run(kind, ell, s, x, dy, keep=False)
            for a, b in zip(got, rebuilt, strict=True):
                assert np.array_equal(_bits(a), _bits(b))

    @pytest.mark.parametrize("kind", KINDS)
    def test_gradcheck(self, kind):
        net = Network([_conv_layer(kind, 3, 4), ReLU(), MaxPool(), Conv2D(2, 3), Dense(2)])
        net.build((8, 8, 1), np.random.default_rng(41))
        x = np.random.default_rng(42).standard_normal((3, 8, 8, 1))
        for r in gradcheck(net, x, np.array([0, 1, 1])):
            assert r["ok"], f"{r['kind']}: max rel err {r['max_rel_err']:.2e}"


class TestBiasGradBits:
    """A matrix layer's bias gradient is bitwise ``dy.sum(axis=0)`` over its
    patch rows, at every output width (einsum for S >= 2, the sum itself at
    S == 1) and for odd and prime row counts."""

    @pytest.mark.parametrize("n", [1, 7, 97, 257, 1024, 25088])
    @pytest.mark.parametrize("s", [1, 2, 3, 5, 8, 10, 16, 64])
    def test_bias_grad_is_the_row_sum(self, s, n):
        rng = np.random.default_rng(s * n)
        layer = Dense(s)
        layer.build((2,), rng)
        layer.forward(rng.standard_normal((n, 2)), train=True)
        # heavy tails over 16 decades, where any change of summation order shows
        dy = rng.standard_cauchy((n, s)) * 10.0 ** rng.integers(-8, 8, (n, s))
        layer.backward(dy, input_grad=False)
        assert np.array_equal(_bits(layer.grads[-1]), _bits(dy.sum(axis=0)))
