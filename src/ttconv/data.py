"""Synthetic two-class texture dataset: oriented stripe gratings vs blob fields.

Each image is standardized to zero mean and unit variance before pixel noise
is added, so the classes differ in spatial structure rather than intensity
statistics.  Class 0 is a sinusoidal grating at a random orientation, class 1
a superposition of Gaussian bumps.

The order of the random draws fixes the dataset, so it is kept exactly as
when images were built one at a time: image i takes its shape parameters and
then its noise plane, and a final permutation shuffles the set.  Synthesis
is batched in two passes: the first walks the images in that order and only
draws, the second builds the images with array operations over blocks of
images.  A blob's ``2 sigma^2`` is squared as a Python float, which is C
``pow``; numpy squares an array as ``x * x``, which differs in the last bit
for a few draws in a thousand.
"""

from __future__ import annotations

import numpy as np

from .nn import Dataset

# pixels per block of the second pass: 256 images of 16 x 16
_BLOCK_PIXELS = 1 << 16


def _uniform(draws, bounds):
    """Rows of ``rng.uniform(low, high)`` draws from rows of ``rng.random``
    draws: numpy scales each u as ``low + (high - low) * u``."""
    low, high = np.array(bounds).T
    return low + (high - low) * np.concatenate([np.empty((0, len(bounds)))] + draws)


def _draw(n, size, rng, planes):
    """Draw every image's parameters and its noise into ``planes``, in order.

    Returns the stripe rows (wavelength, theta, phase), each blob image's
    number of blobs and the blob rows (cx, cy, 2 sigma^2, amp).
    """
    stripes, counts, blobs = [], [], []
    for i in range(n):
        if i % 2 == 0:
            stripes.append(rng.random((1, 3)))
        else:
            counts.append(int(rng.integers(2, 5)))
            blobs.append(rng.random((counts[-1], 4)))
        rng.standard_normal(out=planes[i])
    stripes = _uniform(stripes, [(3.0, 6.0), (0.0, np.pi), (0.0, 2.0 * np.pi)])
    blobs = _uniform(blobs, [(1.0, size - 2.0)] * 2 + [(1.5, 3.0), (0.5, 1.5)])
    blobs[:, 2] = [2.0 * sigma**2 for sigma in blobs[:, 2].tolist()]  # C pow
    return stripes, np.array(counts, dtype=np.int64), blobs


def _stripes(params, ar):
    wavelength, theta, phase = np.ascontiguousarray(params.T)[:, :, None, None]
    t = (ar[:, None] * np.cos(theta) + ar * np.sin(theta)) * (2.0 * np.pi / wavelength)
    return np.sin(t + phase)


def _blobs(counts, blobs, ar):
    """Each image's bumps added onto zeros in draw order, which fixes the
    rounding of the sum."""
    img = np.zeros((len(counts), len(ar), len(ar)))
    first = np.cumsum(counts) - counts
    for j in range(counts.max(initial=0)):
        has = counts > j
        cx, cy, denom, amp = blobs[first[has] + j, :, None, None].transpose(1, 0, 2, 3)
        d2 = (ar[:, None] - cx) ** 2 + (ar - cy) ** 2
        img[has] += amp * np.exp(-(d2 / denom))
    return img


def make_images(n, size, noise, rng):
    """n shuffled (size, size, 1) images: before the shuffle, even ones are
    stripes (label 0) and odd ones blobs (label 1)."""
    if size < 3:  # blob centres are drawn from [1, size - 2]
        raise ValueError(f"size must be at least 3, got {size}")
    x = np.empty((n, size, size, 1))
    y = np.arange(n, dtype=np.int64) % 2
    planes = x[:, :, :, 0]
    stripes, counts, blobs = _draw(n, size, rng, planes)
    bounds = np.concatenate(([0], np.cumsum(counts)))  # each blob image's first row
    ar = np.arange(size, dtype=np.float64)
    step = max(1, _BLOCK_PIXELS // (size * size))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        img = np.empty((hi - lo, size, size))
        s = lo % 2  # stripes are the even images, blobs the odd ones
        img[s::2] = _stripes(stripes[(lo + 1) // 2 : (hi + 1) // 2], ar)
        rows = slice(bounds[lo // 2], bounds[hi // 2])
        img[1 - s :: 2] = _blobs(counts[lo // 2 : hi // 2], blobs[rows], ar)
        img -= img.mean(axis=(1, 2), keepdims=True)
        img /= np.maximum(img.std(axis=(1, 2), keepdims=True), 1e-8)
        planes[lo:hi] = img + noise * planes[lo:hi]
    perm = rng.permutation(n)
    return x[perm], y[perm]


def stripes_vs_blobs(n_train=2000, n_test=500, size=16, noise=1.0, seed=0) -> Dataset:
    """Balanced train/test split; fully determined by the seed."""
    rng = np.random.default_rng(seed)
    x_train, y_train = make_images(n_train, size, noise, rng)
    x_test, y_test = make_images(n_test, size, noise, rng)
    return Dataset(x_train, y_train, x_test, y_test)
