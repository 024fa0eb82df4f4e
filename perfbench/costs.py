"""Computed forward FLOP counts for the convolution layer kinds.

Each count is the "Optimized FLOP count" that ``np.einsum_path`` with
``optimize='optimal'`` reports for the layer's forward contraction on one
image (batch-free shapes), written over im2col patches and the layer's
parameters.  It is a property of the shapes alone, so it repeats exactly
from run to run and commit to commit; it is not a measurement of what the
current implementation executes.
"""

from __future__ import annotations

import re
import string

import numpy as np

_FLOPS = re.compile(r"Optimized FLOP count:\s*([0-9.eE+-]+)")


def _optimal_flops(subscripts, *shapes):
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    _, report = np.einsum_path(subscripts, *operands, optimize="optimal")
    return float(_FLOPS.search(report).group(1))


def forward_flops_per_image(layer, in_shape):
    """FLOPs of one image's forward through a conv layer, or None for other kinds."""
    w, h, c = in_shape
    ell = layer.ell
    pixels = (w - ell + 1) * (h - ell + 1)
    if layer.kind == "dense-conv":
        k, s = ell * ell * c, layer.out_channels
        return _optimal_flops("pk,ks->ps", (pixels, k), (k, s))
    if layer.kind == "tt-conv":
        fact = layer.fact
        d = fact.depth
        letters = iter(string.ascii_letters.replace("p", "").replace("x", ""))
        cin = [next(letters) for _ in range(d)]
        sout = [next(letters) for _ in range(d)]
        ranks = [next(letters) for _ in range(d + 1)]
        g0 = layer.params[0]
        terms = ["px" + "".join(cin), "x" + ranks[0]]
        shapes = [(pixels, ell * ell) + fact.c_factors, (ell * ell, g0.shape[2])]
        for k in range(d):
            core = layer.params[1 + k]
            terms.append(ranks[k] + cin[k] + sout[k] + ranks[k + 1])
            shapes.append(core.shape)
        return _optimal_flops(",".join(terms) + "->p" + "".join(sout), *shapes)
    if layer.kind == "naive-tt-conv":
        first, second, third, last = (core.shape for core in layer.params[:4])
        return _optimal_flops(
            "pijc,ia,ajb,bce,es->ps",
            (pixels, ell, ell, c), first[1:], second, third, last[:2],
        )
    return None
