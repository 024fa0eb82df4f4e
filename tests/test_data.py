import numpy as np
import pytest

from ttconv import data
from ttconv.data import make_images, stripes_vs_blobs

# The per-image generator that the batched one replaced, kept as the oracle:
# the dataset is defined by its draw order and arithmetic.  Its image helpers
# are verbatim; its loop is split into the draws, which do not depend on the
# noise level, and the noise step ``image + noise * plane``, done per image in
# the same order, so one set of draws serves every noise level.


def _stripe(rng, size):
    wavelength = rng.uniform(3.0, 6.0)
    theta = rng.uniform(0.0, np.pi)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    xx, yy = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    t = (xx * np.cos(theta) + yy * np.sin(theta)) * (2.0 * np.pi / wavelength)
    return np.sin(t + phase)


def _blobs(rng, size):
    img = np.zeros((size, size))
    xx, yy = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for _ in range(int(rng.integers(2, 5))):
        cx, cy = rng.uniform(1.0, size - 2.0, size=2)
        sigma = rng.uniform(1.5, 3.0)
        amp = rng.uniform(0.5, 1.5)
        img += amp * np.exp(-(((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sigma**2)))
    return img


def _standardize(img):
    img = img - img.mean()
    return img / max(img.std(), 1e-8)


def oracle_draws(n, size, rng):
    """The per-image generator's draws, which do not depend on the noise
    level: standardized images, noise planes, labels and permutation."""
    images = np.empty((n, size, size))
    planes = np.empty((n, size, size))
    y = np.empty(n, dtype=np.int64)
    for i in range(n):
        label = i % 2
        img = _stripe(rng, size) if label == 0 else _blobs(rng, size)
        images[i] = _standardize(img)
        planes[i] = rng.standard_normal((size, size))
        y[i] = label
    return images, planes, y, rng.permutation(n)


def oracle_images(draws, noise):
    """The per-image generator's (x, y) at one noise level, from its draws."""
    images, planes, y, perm = draws
    x = np.empty(images.shape + (1,))
    for i in range(len(images)):
        x[i, :, :, 0] = images[i] + noise * planes[i]
    return x[perm], y[perm]


def oracle_make_images(n, size, noise, rng):
    return oracle_images(oracle_draws(n, size, rng), noise)


def assert_same_as_oracle(seed, n, size, noises):
    """make_images at each noise level against the oracle, whose draws are
    made once: x as uint64, y and the random state after the call."""
    oracle_rng = np.random.default_rng(seed)
    draws = oracle_draws(n, size, oracle_rng)
    for noise in noises:
        rng = np.random.default_rng(seed)
        x, y = make_images(n, size, noise, rng)
        x_ref, y_ref = oracle_images(draws, noise)
        assert x.shape == x_ref.shape == (n, size, size, 1)
        assert np.array_equal(x.view(np.uint64), x_ref.view(np.uint64))
        assert y.dtype == np.int64
        assert np.array_equal(y, y_ref)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestBitwiseEqualToPerImage:
    """Same images, labels and random state after the call as the per-image
    generator, so every config, CSV and benchmark set is unchanged."""

    @pytest.mark.parametrize("size", [3, 4, 16, 32])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 513, 2000])
    @pytest.mark.parametrize("seed", range(10))
    def test_make_images(self, seed, n, size):
        assert_same_as_oracle(seed, n, size, (0, 1, 2.5, -1.5))

    def test_blocks_of_one_and_odd_starts(self, monkeypatch):
        # 3 images of 4 x 4 per block: blocks start on odd images too
        monkeypatch.setattr(data, "_BLOCK_PIXELS", 3 * 16)
        assert_same_as_oracle(5, 10, 4, [1.0])
        # fewer pixels than one image: one image per block
        monkeypatch.setattr(data, "_BLOCK_PIXELS", 1)
        assert_same_as_oracle(6, 9, 5, [1.0])

    def test_stripes_vs_blobs_split(self):
        ds = stripes_vs_blobs(n_train=40, n_test=12, size=8, noise=0.5, seed=3)
        rng = np.random.default_rng(3)
        x_train, y_train = oracle_make_images(40, 8, 0.5, rng)
        x_test, y_test = oracle_make_images(12, 8, 0.5, rng)
        for got, want in [(ds.x_train, x_train), (ds.y_train, y_train),
                          (ds.x_test, x_test), (ds.y_test, y_test)]:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("size", [2, 0, -1])
def test_size_below_3_is_an_error(size):
    # blob centres are drawn from [1, size - 2]
    with pytest.raises(ValueError, match=f"size must be at least 3, got {size}"):
        stripes_vs_blobs(n_train=4, n_test=4, size=size)
