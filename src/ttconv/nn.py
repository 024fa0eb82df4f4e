"""Sequential networks with hand-written reverse-mode gradients.

Layers operate on batches: images are (B, W, H, C) arrays, flat features
(B, F).  Every layer owns its parameter arrays and matching gradient buffers;
``backward`` must be called right after ``forward`` on the same batch.  A
parametrized layer's training cache holds that batch by reference, so it must
not be modified between the two calls, and one backward call uses the cache
up.  A parametrized layer checks that its input has the per-sample size it
was built for (channels for a convolution, features for a fully-connected
layer) and at least one sample, and raises a ShapeError otherwise.  A spatial
layer (a conv, a pool or zero-pad) built on a sample shape that is not
W x H x C, such as the output of a fully-connected layer, raises a
ShapeError naming that shape.  All parametrized layers share one body,
``y = patches @ W + b``, and differ only in how the weight matrix W is built
from their parameters: the dense kinds hold W itself, reshaped.  A
convolution's patches are in ``im2col_batch``'s channels-fastest column
order, so its W is the (l, l, C, S) kernel flattened in C order.  A
one-channel convolution (the first layer of a grey-scale net) stores the
same matrix transposed, written by ``conv._im2col_pixels_fastest``: copied
channels-fastest its runs would be single entries, copied pixel-fastest they
are rows of input pixels, and the GEMMs read either orientation.  A conv's
bias is added over one row per sample, tiled once per output pixel, and a
bias gradient of two or more outputs is summed by einsum's in-order row
loop: the bits of ``dy.sum(axis=0)``, in less time.

The three TT kinds share one weight, ``_TTWeight``: a chain of 3-D cores,
viewed per call from the layer's parameters, plus its layout, a
``kernels.KernelLayout``, which is the one place that says where the chain's
entries sit in W.  W is ``layout.matrix(tt_chain(chain))``, rebuilt on every
forward pass, and dL/dW goes back to the cores as
``tt_chain_grad(chain, layout.entries(dW))``.  ``TTDense`` is the exception:
it computes ``Y = X W`` one core at a time by the matrix-TT sweep
(``ttmatrix._ttm_sweep``) over its channel cores as they are, the spatial
core absorbed into the first, and never forms W.

The one size limit is the element cap of ``tt.tt_chain``, which forms a TT
layer's W: a TT conv layer above it fails at its first forward pass.

A convolution builds its (B*W'*H', l*l*C) patch matrix a block at a time,
in one buffer per call: blocks of whole images, as many as fit
``_BLOCK_BYTES``, while one image's patches fit it, and otherwise runs of
whole output rows of one image, as many as fit and at least one.  When one
block holds the whole batch, a training forward pass keeps it for the
backward pass, which forms dW from it; otherwise the backward pass rebuilds
each block from the cached input and sums dW over them.  No conv holds more
than one block of patches, and only a kept one outlives the call.

A convolution's input gradient is one GEMM per kernel offset (i, j),
``dY @ K[i, j]^T``, added straight into the input pixels that offset reads,
so the (B*W'*H', l*l*C) patch gradient is never formed.  It needs no
patches, so the backward pass forms dx apart from the patch blocks, in
blocks of whole images written straight into their slice of dx.

A training cache holds only what the backward pass reads: a matrix layer
its input x, W and its patches when they are one block (tt-fc the cores it
swept and its forward sweep), max-pool each window's first maximal
slot as a uint8 and the input shape, batch-norm xhat and inv_std, ReLU its
mask, zero-pad the input shape.  The backward pass uses the caches up.  A
matrix layer drops its own, and frees x and the kept patches once dW is
summed, before it allocates dx.

``Network.backward`` only fills the parameter gradients.  Nothing reads the
gradient of the network input, so the lowest parametrized layer skips its
input gradient (``backward(dy, input_grad=False)``) and the layers below it
are not called.  It then drops every layer's training cache, so the next
forward pass does not hold the last step's activations next to its own.
``train`` hands each batch to ``Network.forward`` as its only holder, which
drops it once the first layer returns.
"""

from __future__ import annotations

import math

import numpy as np

from .conv import _im2col_pixels_fastest, im2col_batch, im2col_shape
from .errors import FormatError, ShapeError, SizeError, TrainingDiverged
from .kernels import (
    _chain_cores,
    _kernel_cores,
    compression_ratio,
    factorize_channels,
    fit_factorization,
    kernel_layout,
    naive_layout,
    ttconv_core_shapes,
)
from .tt import tt_chain, tt_chain_grad
from .ttmatrix import _ttm_sweep, _ttm_sweep_vjp

__all__ = [
    "Layer",
    "Conv2D",
    "TTConv",
    "NaiveTTConv",
    "Dense",
    "TTDense",
    "ReLU",
    "MaxPool",
    "AvgPool",
    "BatchNorm",
    "ZeroPad",
    "SoftmaxCrossEntropy",
    "Network",
    "SGDMomentum",
    "Dataset",
    "gradcheck",
    "train",
    "evaluate",
]


class Layer:
    """Base layer: parameter/gradient bookkeeping and the forward contract."""

    kind = "base"

    def __init__(self):
        self.params = []
        self.grads = []
        self.frozen = False
        self._cache = None

    def build(self, in_shape, rng):
        """Allocate parameters for the given input shape; return the output shape."""
        return in_shape

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError

    def _spatial(self, in_shape):
        """The per-sample ``in_shape`` of a spatial layer, once it is W x H x C."""
        if len(in_shape) != 3:
            raise ShapeError(f"{self.kind} expects W x H x C samples, got shape {tuple(in_shape)}")
        return in_shape

    def _check_not_empty(self, x):
        if len(x) == 0:
            raise ShapeError(f"{self.kind} got an empty batch")

    def _require_cache(self):
        if self._cache is None:
            raise RuntimeError(f"{self.kind}: backward called before forward")
        return self._cache

    @property
    def param_count(self):
        return sum(p.size for p in self.params)

    @property
    def dense_param_count(self):
        """Parameter count of the dense layer this one stands in for."""
        return self.param_count

    def _register(self, *arrays):
        self.params = [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]
        self.grads = [np.zeros_like(p) for p in self.params]
        return self.params


# The byte budget of one block of patches (see ``_ConvLayer._patch_blocks``).
_BLOCK_BYTES = 2 << 20


class _MatrixLayer(Layer):
    """Shared body of the parametrized layers: ``y = patches @ W + b``.

    A patch row is one flattened sample here, one output pixel in
    ``_ConvLayer``.  ``_patch_blocks(x)`` hands out the patches in blocks,
    ``(samples, rows, patches)``: the samples the block reads, its rows of y
    and its patches; here one block, a view of x.  The forward pass writes
    each block's ``patches @ W`` into its rows of y.  The backward pass forms
    dW from the block a training forward kept, when there was only one, and
    otherwise walks the same blocks again, summing each block's dW.  It then
    forms dx over ``_sample_blocks(x.shape)``, blocks of whole samples
    ``(samples, rows)``, each written into its slice of dx by ``_input_grad``
    (which a conv forms per kernel offset instead of as ``dY W^T``).  The
    training cache is the input x (held by reference, so it must not change
    before ``backward``), W, and that one block or None; ``backward`` drops
    it, and frees x and the block once dW is summed.
    A subclass supplies ``_init_weights(channels, n_out, rng)``, its weight
    parameters; bias goes last.  ``weight_matrix()`` is then the first
    parameter reshaped to ``weight_shape``, and ``weight_grads(dw)`` gives
    dL/dW back in its shape.  Only a TT weight (``_TTWeight``) builds W and
    its gradients another way.
    """

    ell = 1
    in_features = None

    def __init__(self, out_features, bias=True):
        super().__init__()
        self.out_features = out_features
        self.with_bias = bias

    def _build(self, channels, n_out, rng):
        weights = self._init_weights(channels, n_out, rng)
        self.weight_shape = (self.ell * self.ell * channels, n_out)
        self._register(*weights, *([np.zeros(n_out)] if self.with_bias else []))

    def _weights(self):
        return self.params[:-1] if self.with_bias else self.params

    def weight_matrix(self):
        return self.params[0].reshape(self.weight_shape)

    def weight_grads(self, dw):
        return [dw.reshape(self.params[0].shape)]

    def build(self, in_shape, rng):
        self.in_features = math.prod(in_shape)
        self._build(self.in_features, self.out_features, rng)
        return (self.out_features,)

    def _check_input(self, x):
        got = math.prod(x.shape[1:])
        if got != self.in_features:
            raise ShapeError(
                f"{self.kind} expects {self.in_features} input features per sample, got {got}"
            )
        self._check_not_empty(x)

    def _patch_blocks(self, x):
        yield slice(None), slice(None), x.reshape(len(x), -1)

    def _sample_blocks(self, shape):
        yield slice(None), slice(None)

    def _out_shape(self, x):
        return (len(x), self.out_features)

    def _input_grad(self, dy, w, out):
        """Write dx of the samples whose output gradients are ``dy`` into
        ``out``, zeros of their input shape."""
        np.matmul(dy, w.T, out=out.reshape(len(dy), -1))

    def forward(self, x, train=False):
        self._check_input(x)
        w = self.weight_matrix()
        y = np.empty(self._out_shape(x))
        y_rows = y.reshape(-1, w.shape[1])
        for _, rows, cols in self._patch_blocks(x):
            np.matmul(cols, w, out=y_rows[rows])
        if self.with_bias:
            # added over one long row per sample, the bias tiled once per output
            # pixel: the sums of broadcasting S entries per pixel, in fewer
            # loops (0.11 instead of 0.21 ms at 128 x 14 x 14 x 8)
            y_samples = y.reshape(len(y), -1)
            y_samples += np.tile(self.params[-1], y_samples.shape[1] // w.shape[1])
        # a block of every patch row is the whole batch's: backward reuses it
        self._cache = (x, w, cols if len(cols) == len(y_rows) else None) if train else None
        return y

    def _weight_grad(self, x, cols, dy):
        """dL/dW, from ``cols`` when forward kept the whole batch's patches,
        else summed over the patch blocks of x.  The last block's patches go
        when this returns, before ``backward`` allocates dx."""
        blocks = self._patch_blocks(x) if cols is None else [(None, slice(None), cols)]
        dw = None
        for _, rows, cols in blocks:
            dy_b = dy[rows]
            # dW = P^T dY, formed as (dY^T P)^T for patches with at least
            # min(columns, 64) rows: 18 instead of 28 ms for 8192 x 576 patches
            # and 0.87 instead of 1.04 ms for 352 x 576 on one OpenBLAS thread of a
            # 2-vCPU x86 VM.  With few rows the copy out of that view costs more:
            # 424 against 72 ms, dense-fc 4096 -> 4096, batch 8.
            g = (dy_b.T @ cols).T if len(cols) >= min(cols.shape[1], 64) else cols.T @ dy_b
            dw = g if dw is None else np.add(dw, g, out=dw)
        return dw

    def backward(self, dy, input_grad=True):
        x, w, cols = self._require_cache()
        self._cache = None
        in_shape = x.shape
        dy = dy.reshape(-1, w.shape[1])
        dw = self._weight_grad(x, cols, dy)
        del x, cols  # nothing reads them again, so they go before dx is allocated
        self._set_grads(self.weight_grads(dw), dy)
        if not input_grad:
            return None
        dx = np.zeros(in_shape)
        for samples, rows in self._sample_blocks(in_shape):
            self._input_grad(dy[rows], w, dx[samples])
        return dx

    def _set_grads(self, weight_grads, dy):
        for g, dp in zip(self.grads, weight_grads):
            g[...] = dp
        if self.with_bias:
            # einsum adds the rows in order, as dy.sum(axis=0) does for S >= 2:
            # the same bits without numpy's short reduce loop, 0.11 instead of
            # 0.44 ms at 25088 x 8.  At S == 1 the sum runs along memory and is
            # pairwise: other bits.
            self.grads[-1][...] = np.einsum("ns->s", dy) if dy.shape[1] > 1 else dy.sum(axis=0)

    @property
    def dense_param_count(self):
        rows, n_out = self.weight_shape
        return rows * n_out + (n_out if self.with_bias else 0)


class _ConvLayer(_MatrixLayer):
    """Valid stride-1 convolution: one patch row per output pixel (im2col_batch).

    ``_patch_blocks`` walks the batch in blocks of whole images whose patches
    fit ``_BLOCK_BYTES`` or, when one image's do not, in even runs of whole
    output rows of one image, at least one, all in one buffer per call.  A
    block of a one-channel input is written pixel-fastest, an F-ordered view
    of its buffer (``conv._im2col_pixels_fastest``): the same patch matrix,
    copied in runs of input pixels rather than of single channels, which the
    forward GEMM, the kept block and ``_weight_grad`` read as they are.
    ``_sample_blocks`` gives dx the same whole images, or one image each.
    """

    in_channels = None

    def __init__(self, ell, out_channels, bias=True):
        Layer.__init__(self)
        self.ell = ell
        self.out_channels = out_channels
        self.with_bias = bias

    def build(self, in_shape, rng):
        w, h, c = self._spatial(in_shape)
        im2col_shape((1, w, h, c), self.ell)  # its ShapeError for a filter larger than the input
        self.in_channels = c
        self._build(c, self.out_channels, rng)
        return (w - self.ell + 1, h - self.ell + 1, self.out_channels)

    def _check_input(self, x):
        im2col_shape(x.shape, self.ell)  # its ShapeErrors for a wrong rank or size
        if x.shape[3] != self.in_channels:
            raise ShapeError(
                f"{self.kind} expects {self.in_channels} input channels, got {x.shape[3]}"
            )
        self._check_not_empty(x)

    def _split(self, shape):
        """Images per block, and the output rows an image's blocks end at."""
        _, w, h, c = shape
        wo, ho = w - self.ell + 1, h - self.ell + 1
        fit = max(1, _BLOCK_BYTES // (8 * ho * self.ell * self.ell * c))  # output rows
        runs = -(-wo // fit)
        return max(1, fit // wo), [wo * k // runs for k in range(runs + 1)]

    def _patch_blocks(self, x):
        b, w, h, c = x.shape
        wo, ho, width = w - self.ell + 1, h - self.ell + 1, self.ell * self.ell * c
        step, cuts = self._split(x.shape)
        spans = [
            (s, min(s + step, b), r0, r1)
            for s in range(0, b, step)
            for r0, r1 in zip(cuts, cuts[1:])
        ]
        buf = np.empty(max((s1 - s0) * (r1 - r0) for s0, s1, r0, r1 in spans) * ho * width)
        for s0, s1, r0, r1 in spans:
            n = (s1 - s0) * (r1 - r0) * ho
            start = (s0 * wo + r0) * ho
            xb = x[s0:s1, r0 : r1 + self.ell - 1]
            if c == 1:
                cols = _im2col_pixels_fastest(xb, self.ell, buf[: n * width].reshape(width, n))
            else:
                cols = im2col_batch(xb, self.ell, out=buf[: n * width].reshape(n, width))
            yield slice(s0, s1), slice(start, start + n), cols

    def _sample_blocks(self, shape):
        per_image = (shape[1] - self.ell + 1) * (shape[2] - self.ell + 1)
        step, _ = self._split(shape)
        for s in range(0, shape[0], step):
            yield slice(s, s + step), slice(s * per_image, (s + step) * per_image)

    def _out_shape(self, x):
        b, w, h, _ = x.shape
        return (b, w - self.ell + 1, h - self.ell + 1, self.out_channels)

    def _input_grad(self, dy, w, out):
        """``col2im_batch(dy @ w.T, l, out.shape)`` added into ``out`` without
        the patch gradient: offset (i, j) adds ``dY @ K[i, j]^T`` into the
        pixels it reads, in col2im_batch's (i, j) order."""
        b, w_in, h_in, c = out.shape
        wo, ho = w_in - self.ell + 1, h_in - self.ell + 1
        for k, kernel in enumerate(w.reshape(self.ell * self.ell, c, -1)):
            i, j = divmod(k, self.ell)
            out[:, i : i + wo, j : j + ho, :] += (dy @ kernel.T).reshape(b, wo, ho, c)


class Conv2D(_ConvLayer):
    """Dense convolution, computed as one GEMM over image patches."""

    kind = "dense-conv"

    def _init_weights(self, channels, n_out, rng):
        std = math.sqrt(2.0 / (self.ell * self.ell * channels))
        return [std * rng.standard_normal((self.ell, self.ell, channels, n_out))]


def _scaled_tt_init(rng, shapes, fan_in):
    """Gaussian cores at per-core variance 2/size, rescaled so the
    reconstructed kernel matches He initialization elementwise."""
    path_count = math.prod(shape[-1] for shape in shapes[:-1])
    arrays = []
    var = 1.0
    for shape in shapes:
        std = math.sqrt(2.0 / math.prod(shape))
        arrays.append(std * rng.standard_normal(shape))
        var *= std * std
    implied = var * path_count
    target = 2.0 / fan_in
    fix = (target / implied) ** (1.0 / (2 * len(shapes)))
    return [fix * a for a in arrays]


class _TTWeight:
    """The weight of the three TT kinds: a chain of 3-D cores and its
    ``layout`` in W (``kernels.KernelLayout``), which a kind sets when it builds.

    ``_chain()`` is the chain as a view of the weight parameters, taken per
    call, and ``_unchain`` takes the chain's gradients back to the
    parameters' shapes; by default the parameters are the chain's cores.
    """

    layout = None

    def _chain(self):
        return self._weights()

    def _unchain(self, grads):
        return grads

    def weight_matrix(self):
        return self.layout.matrix(tt_chain(self._chain()))

    def weight_grads(self, dw):
        return self._unchain(tt_chain_grad(self._chain(), self.layout.entries(dw)))


class _ProposedTT(_TTWeight):
    """Weights in the proposed TT form (spatial core, then channel cores)."""

    fact = None

    def __init__(self, ranks, d, factors, *geometry):
        super().__init__(*geometry)
        self.ranks = tuple(int(r) for r in ranks)
        self.d = d if factors is None else factors.depth
        self.factors = factors

    def _init_weights(self, channels, n_out, rng):
        if self.factors is not None:
            fact = fit_factorization(self.factors, channels, n_out)
        else:
            fact = factorize_channels(channels, n_out, self.d)
        shapes = ttconv_core_shapes(self.ell, fact, self.ranks)
        self.fact = fact
        self.layout = kernel_layout(self.ell, fact)
        return _scaled_tt_init(rng, shapes, self.ell * self.ell * channels)

    def _chain(self):
        g0, *cores = self._weights()
        return _chain_cores(g0, cores)

    def _unchain(self, grads):
        dg0, dcores = _kernel_cores(grads, self.ell, self.fact)
        return [dg0, *dcores]


class TTConv(_ProposedTT, _ConvLayer):
    """Convolution whose kernel lives in the proposed TT form.

    The parameters are the spatial core, the channel cores, and (optionally) a
    bias; each forward pass rebuilds the kernel matrix from the cores.
    """

    kind = "tt-conv"

    def __init__(self, ell, out_channels, ranks, d=2, factors=None, bias=True):
        super().__init__(ranks, d, factors, ell, out_channels, bias)


class NaiveTTConv(_TTWeight, _ConvLayer):
    """Convolution with the raw 4-mode TT kernel (the baseline variant).

    Each forward pass rebuilds the dense kernel from the chain of cores.
    """

    kind = "naive-tt-conv"

    def __init__(self, ell, out_channels, ranks, bias=True):
        super().__init__(ell, out_channels, bias)
        self.ranks = tuple(int(r) for r in ranks)

    def _init_weights(self, channels, n_out, rng):
        if len(self.ranks) != 3:
            raise ShapeError("naive TT kernel has 4 modes and needs 3 interior ranks")
        modes = (self.ell, self.ell, channels, n_out)
        chain = (1,) + self.ranks + (1,)
        shapes = [(chain[k], modes[k], chain[k + 1]) for k in range(4)]
        self.layout = naive_layout(modes)
        return _scaled_tt_init(rng, shapes, self.ell * self.ell * channels)


class Dense(_MatrixLayer):
    """Fully-connected layer; flattens trailing input axes."""

    kind = "dense-fc"

    def _init_weights(self, channels, n_out, rng):
        std = math.sqrt(2.0 / channels)
        return [std * rng.standard_normal((channels, n_out))]


class TTDense(_ProposedTT, _MatrixLayer):
    """Fully-connected layer with the weight matrix in TT form.

    The weights are those of a 1x1 TT convolution over the flattened input's
    features.  The forward pass absorbs the spatial core into channel core 1
    and sweeps the channel cores as they are (``ttmatrix._ttm_sweep``), with
    the padded input channels of X zero-filled and the padded output channels
    sliced off Y, so W is never formed; the backward pass reuses the sweep and
    splits core 1's gradient between the spatial core and channel core 1.
    """

    kind = "tt-fc"

    def __init__(self, out_features, ranks, d=2, factors=None, bias=True):
        super().__init__(ranks, d, factors, out_features, bias)

    def forward(self, x, train=False):
        self._check_input(x)
        g0, first, *rest = self._weights()
        chain = [np.tensordot(g0[0, 0], first, axes=(0, 0))[None], *rest]
        cols = x.reshape(x.shape[0], -1)
        if self.fact.pad_c:
            cols = np.pad(cols, ((0, 0), (0, self.fact.pad_c)))
        y, sweep = _ttm_sweep(chain, cols)
        y = y[:, : self.out_features]
        if self.with_bias:
            y = y + self.params[-1]
        self._cache = (chain, sweep, x.shape) if train else None
        return y

    def backward(self, dy, input_grad=True):
        chain, sweep, in_shape = self._require_cache()
        self._cache = None
        dy = dy.reshape(dy.shape[0], -1)
        dx, dchain = _ttm_sweep_vjp(chain, sweep, np.pad(dy, ((0, 0), (0, self.fact.pad_s))), input_grad)
        g0, first = self._weights()[:2]
        dfirst = dchain[0][0]  # (C1, S1, r2)
        dg0 = np.tensordot(first, dfirst, axes=3).reshape(g0.shape)
        self._set_grads([dg0, np.multiply.outer(g0[0, 0], dfirst), *dchain[1:]], dy)
        return dx[:, : self.in_features].reshape(in_shape) if input_grad else None


class ReLU(Layer):
    """Rectifier ``y = max(x, 0)``; NaN propagates, so divergence stays visible.

    Training caches the boolean mask ``y > 0``, not ``y``, and the backward
    pass is ``dy * mask``.
    """

    kind = "relu"

    def forward(self, x, train=False):
        y = np.maximum(x, 0.0)
        self._cache = y > 0 if train else None
        return y

    def backward(self, dy):
        return dy * self._require_cache()


class MaxPool(Layer):
    """3x3 max pooling with stride 2; ties resolve to the first window slot.

    The nine window slots, in order ``i*3 + j`` (i along W, j along H), are
    strided views of the input, so no window is copied.  The forward pass is
    separable: a running ``np.maximum`` over the three columns j of every
    window row, then over the three rows i.  Either keeps the earlier operand
    on ties, so y holds the bits of the first maximal slot in ``i*3 + j``
    order, and a window that holds a NaN pools to NaN.  Training caches the
    input shape and, per window, the first slot whose value equals the
    output, as a uint8 (``size * size`` for a NaN window, which equals no
    slot).  The backward pass turns the slots into flat input indices and
    scatters dy to them in one ``np.bincount``, which adds in window order:
    a cell shared by overlapping windows sums their gradients as a
    scatter-add over the windows does, and a non-finite gradient reaches its
    one cell only.  A NaN window routes no gradient.
    """

    kind = "max-pool"

    size = 3
    stride = 2

    def build(self, in_shape, rng):
        w, h, c = self._spatial(in_shape)
        if w < self.size or h < self.size:
            raise ShapeError(f"input ({w}, {h}) smaller than {self.size}x{self.size} pool")
        return ((w - self.size) // self.stride + 1, (h - self.size) // self.stride + 1, c)

    def _slots(self, a, out_shape):
        """Window slot (i, j) of every pooling window of ``a``, as strided views."""
        s = self.stride
        span_x = s * (out_shape[1] - 1) + 1
        span_y = s * (out_shape[2] - 1) + 1
        for i in range(self.size):
            for j in range(self.size):
                yield a[:, i : i + span_x : s, j : j + span_y : s]

    def forward(self, x, train=False):
        wo, ho, _ = self.build(x.shape[1:], None)
        k, s = self.size, self.stride
        span_x, span_y = s * (wo - 1) + 1, s * (ho - 1) + 1
        used = x[:, : span_x + k - 1]
        # on equal values numpy returns the second operand, so the running
        # maximum keeps the earlier slot's bits (this only shows for +0.0
        # against -0.0)
        rows = used[:, :, 0:span_y:s].copy()
        for j in range(1, k):
            np.maximum(used[:, :, j : j + span_y : s], rows, out=rows)
        y = rows[:, 0:span_x:s].copy()
        for i in range(1, k):
            np.maximum(rows[:, i : i + span_x : s], y, out=y)
        self._cache = (self._first_max(x, y), x.shape) if train else None
        return y

    def _first_max(self, x, y):
        """Per window, the first slot whose value equals y, as the count of
        slots before it: ``size * size`` when none does (a NaN window)."""
        slot = np.zeros(y.shape, dtype=np.uint8)
        before = np.ones(y.shape, dtype=bool)  # no slot so far equals y
        differs = np.empty(y.shape, dtype=bool)
        for v in self._slots(x, y.shape):
            np.not_equal(v, y, out=differs)
            before &= differs
            slot += before
        return slot

    def backward(self, dy):
        slot, in_shape = self._require_cache()
        b, w, h, c = in_shape
        n = b * w * h * c
        s = self.stride
        _, wo, ho, _ = slot.shape
        # flat input index of slot (i, j): the window's corner plus (i*H + j)*C;
        # a NaN window's slot, size * size, maps past the end
        i, j = np.divmod(np.arange(self.size * self.size), self.size)
        idx = np.append((i * h + j) * c, n)[slot]
        idx += ((np.arange(b)[:, None, None, None] * w + s * np.arange(wo)[:, None, None]) * h
                + s * np.arange(ho)[:, None]) * c + np.arange(c)
        np.minimum(idx, n, out=idx)
        # bincount adds in window order, so a cell shared by overlapping
        # windows sums their gradients as a scatter-add over the windows does
        dx = np.bincount(idx.ravel(), weights=dy.ravel(), minlength=n + 1)[:n]
        return dx.reshape(in_shape)


class AvgPool(Layer):
    """Non-overlapping k x k average pooling (stride k)."""

    kind = "avg-pool"

    def __init__(self, size):
        super().__init__()
        self.size = size

    def build(self, in_shape, rng):
        w, h, c = self._spatial(in_shape)
        if w % self.size or h % self.size:
            raise ShapeError(f"{self.kind} input ({w}, {h}) not divisible by pool size {self.size}")
        return (w // self.size, h // self.size, c)

    def forward(self, x, train=False):
        wo, ho, c = self.build(x.shape[1:], None)
        k = self.size
        y = x.reshape(len(x), wo, k, ho, k, c).mean(axis=(2, 4))
        self._cache = x.shape if train else None
        return y

    def backward(self, dy):
        in_shape = self._require_cache()
        k = self.size
        scaled = dy / (k * k)
        return np.repeat(np.repeat(scaled, k, axis=1), k, axis=2).reshape(in_shape)


class BatchNorm(Layer):
    """Batch normalization over all axes but the channel one.

    Training uses batch statistics; evaluation uses running averages kept with
    momentum 0.9.  Epsilon is 1e-5.  Training caches xhat and inv_std.  Each
    pass evaluates ``y = gamma * (x - mean) * inv_std + beta`` and its
    gradient operation by operation, as the plain array expressions do (so to
    the same bits), but into at most two full-size buffers: the centred x
    squared gives the batch variance as ``x.var`` does, and later holds y.
    """

    kind = "batch-norm"
    momentum = 0.9
    eps = 1e-5

    def __init__(self):
        super().__init__()
        self.running_mean = None
        self.running_var = None

    def build(self, in_shape, rng):
        c = in_shape[-1]
        self._register(np.ones(c), np.zeros(c))
        self.running_mean = np.zeros(c)
        self.running_var = np.ones(c)
        return in_shape

    def forward(self, x, train=False):
        axes = tuple(range(x.ndim - 1))
        gamma, beta = self.params
        if x.shape[-1] != gamma.size:
            raise ShapeError(f"{self.kind} expects {gamma.size} channels, got {x.shape[-1]}")
        self._check_not_empty(x)
        if not train:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            y = np.subtract(x, self.running_mean)
            y *= inv_std
            y *= gamma
            y += beta
            self._cache = None
            return y
        mean = x.mean(axis=axes)
        xhat = np.subtract(x, mean)
        y = np.multiply(xhat, xhat)
        var = y.sum(axis=axes) / math.prod(x.shape[a] for a in axes)  # x.var(axis=axes)
        self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
        self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std
        np.multiply(gamma, xhat, out=y)
        y += beta
        self._cache = (xhat, inv_std, axes)
        return y

    def backward(self, dy, input_grad=True):
        xhat, inv_std, axes = self._require_cache()
        gamma = self.params[0]
        n = math.prod(dy.shape[a] for a in axes)
        buf = np.multiply(dy, xhat)
        self.grads[0][...] = buf.sum(axis=axes)
        self.grads[1][...] = dy.sum(axis=axes)
        if not input_grad:
            return None
        dx = np.multiply(dy, gamma)  # dxhat
        mean = dx.mean(axis=axes)
        np.multiply(dx, xhat, out=buf)
        np.multiply(xhat, buf.sum(axis=axes), out=buf)
        buf /= n
        dx -= mean
        dx -= buf
        dx *= inv_std
        return dx


class ZeroPad(Layer):
    """Symmetric spatial zero padding."""

    kind = "zero-pad"

    def __init__(self, pad):
        super().__init__()
        self.pad = pad

    def build(self, in_shape, rng):
        w, h, c = self._spatial(in_shape)
        return (w + 2 * self.pad, h + 2 * self.pad, c)

    def forward(self, x, train=False):
        self.build(x.shape[1:], None)
        p = self.pad
        self._cache = x.shape if train else None
        return np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))

    def backward(self, dy):
        self._require_cache()
        p = self.pad
        return dy[:, p:-p, p:-p, :] if p else dy


class SoftmaxCrossEntropy(Layer):
    """Softmax cross-entropy with mean reduction; the terminal loss node."""

    kind = "softmax-cross-entropy"

    def check(self, logits, targets):
        """``targets`` as an array, once the logits are (batch, classes) and
        every target is a class index."""
        targets = np.asarray(targets)
        if logits.ndim != 2 or targets.shape != logits.shape[:1]:
            got = f"{logits.shape} logits for {targets.shape} targets"
            raise ShapeError(f"{self.kind} expects (batch, classes) logits, got {got}")
        if targets.size and not 0 <= targets.min() <= targets.max() < logits.shape[1]:
            got = f"{targets.min()}..{targets.max()}"
            raise ShapeError(f"{self.kind}: targets must lie in [0, {logits.shape[1]}), got {got}")
        return targets

    def forward(self, logits, targets, train=False):
        targets = self.check(logits, targets)
        z = logits - logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
        log_probs = z - log_norm
        b = logits.shape[0]
        loss = -log_probs[np.arange(b), targets].mean()
        self._cache = (np.exp(log_probs), targets) if train else None
        return loss

    def backward(self, dy=1.0):
        probs, targets = self._require_cache()
        b = probs.shape[0]
        grad = probs.copy()
        grad[np.arange(b), targets] -= 1.0
        return dy * grad / b


def _named(idx, layer, method, *args):
    """``method(*args)``, naming the layer in a ShapeError, SizeError or MemoryError."""
    try:
        return method(*args)
    except (ShapeError, SizeError) as e:
        raise type(e)(f"layer {idx} ({layer.kind}): {e}") from e
    except MemoryError as e:  # numpy's _ArrayMemoryError takes (shape, dtype)
        raise MemoryError(f"layer {idx} ({layer.kind}): {str(e) or 'out of memory'}") from e


class Network:
    """Sequential stack of layers followed by a softmax cross-entropy head."""

    def __init__(self, layers, loss=None):
        self.layers = list(layers)
        self.loss = loss or SoftmaxCrossEntropy()
        self.input_shape = None

    def build(self, input_shape, rng):
        shape = tuple(input_shape)
        self.input_shape = shape
        for idx, layer in enumerate(self.layers):
            shape = _named(idx, layer, layer.build, shape, rng)
        return shape

    def forward(self, x, train=False):
        """The network's output for the batch x.

        Once the first layer returns, this call holds no reference to x, so a
        caller that passes a batch it does not keep frees it there.
        """
        out = np.asarray(x, dtype=np.float64)
        del x
        if self.input_shape is None:
            raise ShapeError("network is not built")
        if out.shape[1:] != self.input_shape:
            raise ShapeError(
                f"input shape {out.shape[1:]} per sample does not match the build shape "
                f"{self.input_shape}"
            )
        for idx, layer in enumerate(self.layers):
            out = _named(idx, layer, layer.forward, out, train)
        return out

    def forward_loss(self, x, targets, train=False):
        logits = self.forward(x, train=train)
        return logits, self.loss.forward(logits, targets, train=train)

    def backward(self):
        """Fill every parameter gradient from the last ``forward_loss(train=True)``.

        The pass stops at the lowest parametrized layer, which skips its
        input gradient; the layers below it are not called.  Every layer's
        cache is dropped once the pass is past it, so a second call needs a
        new forward pass; the loss head keeps its cache.
        """
        grad = self.loss.backward()
        blocks = self.parameter_blocks()
        lowest = blocks[0][0] if blocks else len(self.layers)
        for layer in reversed(self.layers[lowest + 1 :]):
            grad = layer.backward(grad)
            layer._cache = None
        if blocks:
            self.layers[lowest].backward(grad, input_grad=False)
        for layer in self.layers[: lowest + 1]:
            layer._cache = None

    # -- flat parameter/gradient views (gradcheck, reporting) ----------------

    def parameter_blocks(self):
        return [(idx, layer) for idx, layer in enumerate(self.layers) if layer.params]

    def get_params(self):
        chunks = [p.ravel() for _, layer in self.parameter_blocks() for p in layer.params]
        return np.concatenate(chunks) if chunks else np.zeros(0)

    def set_params(self, flat):
        offset = 0
        for _, layer in self.parameter_blocks():
            for p in layer.params:
                p[...] = flat[offset : offset + p.size].reshape(p.shape)
                offset += p.size
        if offset != flat.size:
            raise ShapeError(f"parameter vector length {flat.size}, expected {offset}")

    def get_grads(self):
        chunks = [g.ravel() for _, layer in self.parameter_blocks() for g in layer.grads]
        return np.concatenate(chunks) if chunks else np.zeros(0)

    @property
    def param_count(self):
        return sum(layer.param_count for layer in self.layers)

    @property
    def dense_param_count(self):
        return sum(layer.dense_param_count for layer in self.layers)

    @property
    def compression(self):
        return compression_ratio(self.dense_param_count, self.param_count)


class SGDMomentum:
    """Classical momentum: v <- m*v - lr*g; p <- p + v.

    The learning rate is divided by ``decay_factor`` after every
    ``decay_every`` epochs.  Frozen layers are skipped entirely, leaving their
    parameters bitwise unchanged.
    """

    def __init__(self, lr, momentum=0.9, decay_every=None, decay_factor=10.0):
        if not lr >= 0:
            raise ValueError(f"learning rate must be a non-negative number, got {lr}")
        self.initial_lr = lr
        self.lr = lr
        self.momentum = momentum
        self.decay_every = decay_every
        self.decay_factor = decay_factor
        self._velocity = {}

    def set_epoch(self, epoch):
        if self.decay_every:
            self.lr = self.initial_lr / self.decay_factor ** (epoch // self.decay_every)

    def step(self, net: Network):
        for idx, layer in net.parameter_blocks():
            if layer.frozen:
                continue
            for j, (p, g) in enumerate(zip(layer.params, layer.grads)):
                key = (idx, j)
                v = self._velocity.get(key)
                if v is None:
                    v = np.zeros_like(p)
                    self._velocity[key] = v
                v *= self.momentum
                v -= self.lr * g
                p += v


def gradcheck(net: Network, x, targets, h=1e-6, tol=1e-5, corrupt=False):
    """Central-difference check of every parameter gradient, per layer.

    Entries with analytic gradient below 1e-8 in magnitude are compared
    absolutely.  ``corrupt`` deliberately offsets one analytic gradient entry
    (a negative control: the report must flag it).  Returns a list of dicts
    with keys layer, kind, params, max_rel_err, ok; a non-finite error makes
    its row's max_rel_err non-finite and ok False; a network without
    parameters gives an empty list without a forward pass.  Batch-norm running
    statistics, which every training-mode forward moves, are restored on exit.
    """
    if not net.parameter_blocks():
        return []
    # BatchNorm.forward rebinds the running stats instead of updating them in
    # place, so holding the current arrays is a snapshot
    norms = [layer for layer in net.layers if isinstance(layer, BatchNorm)]
    stats = [(layer.running_mean, layer.running_var) for layer in norms]
    try:
        return _gradcheck(net, x, targets, h, tol, corrupt)
    finally:
        for layer, (mean, var) in zip(norms, stats):
            layer.running_mean, layer.running_var = mean, var


def _gradcheck(net, x, targets, h, tol, corrupt):
    x = np.asarray(x, dtype=np.float64)
    net.forward_loss(x, targets, train=True)
    net.backward()
    analytic = net.get_grads()
    if corrupt and analytic.size:
        analytic = analytic.copy()
        analytic[0] += 1.0

    base = net.get_params()
    flat = base.copy()

    def loss_at(vec):
        net.set_params(vec)
        _, loss = net.forward_loss(x, targets, train=True)
        return loss

    report = []
    offset = 0
    for idx, layer in net.parameter_blocks():
        errs = []
        count = sum(p.size for p in layer.params)
        for i in range(offset, offset + count):
            flat[i] = base[i] + h
            fp = loss_at(flat)
            flat[i] = base[i] - h
            fm = loss_at(flat)
            flat[i] = base[i]
            fd = (fp - fm) / (2 * h)
            a = analytic[i]
            if abs(a) < 1e-8:
                err = abs(fd - a)
            else:
                err = abs(fd - a) / abs(a)
            errs.append(err)
        offset += count
        worst = float(np.max(errs))  # unlike max(), np.max keeps a NaN
        report.append(
            {
                "layer": idx,
                "kind": layer.kind,
                "params": count,
                "max_rel_err": worst,
                "ok": worst <= tol,
            }
        )
    net.set_params(base)
    return report


class Dataset:
    """Train/test split of a labelled image set."""

    __slots__ = ("x_train", "y_train", "x_test", "y_test")

    def __init__(self, x_train, y_train, x_test, y_test):
        self.x_train = x_train
        self.y_train = y_train
        self.x_test = x_test
        self.y_test = y_test

    @property
    def input_shape(self):
        return self.x_train.shape[1:]


def _check_batch_size(caller, batch_size):
    if batch_size < 1:
        raise ShapeError(f"{caller}: batch_size must be at least 1, got {batch_size}")


def evaluate(net: Network, x, targets, batch_size=256):
    """Mean accuracy in eval mode (running batch-norm statistics); the logits
    and targets are checked as the loss head checks them.  A set of no
    samples, or a batch_size below 1, is a ShapeError."""
    _check_batch_size("evaluate", batch_size)
    if len(x) == 0:
        raise ShapeError("evaluate got an empty set")
    correct = 0
    for start in range(0, len(x), batch_size):
        logits = net.forward(x[start : start + batch_size], train=False)
        labels = net.loss.check(logits, targets[start : start + batch_size])
        correct += int((logits.argmax(axis=1) == labels).sum())
    return correct / len(x)


def train(net: Network, data: Dataset, opt: SGDMomentum, epochs, seed, batch_size=128):
    """SGD training loop; returns one log record per epoch.

    The seed fixes the shuffling order (initialization is fixed by whoever
    built the network).  Raises TrainingDiverged as soon as a batch loss is
    not finite, and a ShapeError naming the set if the training or the test
    set holds no samples, or naming batch_size if it is below 1.  Each batch's
    images go to ``Network.forward`` as its only holder, so they are freed
    once the first layer returns, and the backward pass holds only what the
    layers cache.
    """
    _check_batch_size("train", batch_size)
    for name, x in (("training", data.x_train), ("test", data.x_test)):
        if len(x) == 0:
            raise ShapeError(f"train got an empty {name} set")
    rng = np.random.default_rng(seed)
    n = len(data.x_train)
    log = []
    for epoch in range(epochs):
        opt.set_epoch(epoch)
        perm = rng.permutation(n)
        total_loss = 0.0
        total_correct = 0
        for start in range(0, n, batch_size):
            sel = perm[start : start + batch_size]
            yb = data.y_train[sel]
            logits = net.forward(data.x_train[sel], train=True)
            loss = net.loss.forward(logits, yb, train=True)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            net.backward()
            opt.step(net)
            total_loss += loss * len(sel)
            total_correct += int((logits.argmax(axis=1) == yb).sum())
        log.append(
            {
                "epoch": epoch,
                "lr": float(opt.lr),
                "train_loss": float(total_loss / n),
                "train_acc": total_correct / n,
                "test_acc": evaluate(net, data.x_test, data.y_test),
            }
        )
    return log


LOG_COLUMNS = ("epoch", "lr", "train_loss", "train_acc", "test_acc")


def format_log_csv(log, name=None, compression=None):
    """Training log as CSV text, with model metadata in comment lines."""
    lines = []
    if name is not None:
        lines.append(f"# model = {name}")
    if compression is not None:
        lines.append(f"# compression = {compression!r}")
    lines.append(",".join(LOG_COLUMNS))
    for row in log:
        lines.append(
            ",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in LOG_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def read_log_csv(path):
    """``(log, name, compression)`` of a ``format_log_csv`` file.

    A file without the metadata, the header or a row, or whose rows lack a
    number of ``LOG_COLUMNS``, is a FormatError naming the path; so is a
    compression that is not a positive finite number or a test_acc outside
    [0, 1].
    """
    meta, header, rows = {}, None, []
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if line.startswith("#"):
                key, eq, value = line.lstrip("#").partition("=")
                if eq:
                    meta[key.strip()] = value.strip()
            elif line and header is None:
                header = line.split(",")
            elif line:
                rows.append(dict(zip(header, line.split(","))))
    if "model" not in meta or "compression" not in meta or not rows:
        raise FormatError(f"{path}: not a training log (missing metadata or rows)")
    try:
        log = [{c: (int if c == "epoch" else float)(row[c]) for c in LOG_COLUMNS} for row in rows]
    except (KeyError, ValueError):
        raise FormatError(f"{path}: malformed log rows") from None
    try:
        compression = float(meta["compression"])
    except ValueError:
        compression = math.nan
    if not 0 < compression < math.inf:
        raise FormatError(
            f"{path}: compression must be a positive number, got {meta['compression']!r}"
        )
    for row in log:
        if not 0 <= row["test_acc"] <= 1:
            raise FormatError(f"{path}: test_acc must lie in [0, 1], got {row['test_acc']}")
    return log, meta["model"], compression
