import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from ttconv.io import (
    FormatError,
    load_any,
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
    ChannelFactorization,
    TTConvKernel,
    factorize_channels,
    random_ttconv_kernel,
)
from ttconv.tt import random_tt, tt_full
from ttconv.ttmatrix import TTMatrix, ttm_full


def roundtrip_bytes(tmp_path, name, save, load, obj, dtype):
    p1 = tmp_path / f"a_{name}"
    p2 = tmp_path / f"b_{name}"
    save(p1, obj, dtype=dtype)
    again = load(p1)
    save(p2, again, dtype=dtype)
    return p1.read_bytes(), p2.read_bytes(), again


def write_huge_dense(path):
    """A .ten header declaring 2^40 x 2^40 values, followed by only one value."""
    path.write_bytes(
        b"TTEN" + struct.pack("<3I", 1, 0, 2) + struct.pack("<2Q", 2**40, 2**40) + bytes(8)
    )
    return path


class TestDense:
    def test_value_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4, 2))
        p = tmp_path / "t.ten"
        save_dense(p, a)
        assert_allclose(load_dense(p), a)

    def test_byte_identical_f64(self, tmp_path):
        a = np.random.default_rng(1).standard_normal((2, 5))
        b1, b2, _ = roundtrip_bytes(tmp_path, "t.ten", save_dense, load_dense, a, "f64")
        assert b1 == b2

    def test_byte_identical_f32(self, tmp_path):
        a = np.random.default_rng(2).standard_normal((4, 3)).astype(np.float32)
        b1, b2, back = roundtrip_bytes(
            tmp_path, "t.ten", save_dense, load_dense, a.astype(np.float64), "f32"
        )
        assert b1 == b2
        assert back.dtype == np.float64

    def test_c_order_layout(self, tmp_path):
        # last index fastest in the payload
        a = np.arange(6, dtype=float).reshape(2, 3)
        p = tmp_path / "t.ten"
        save_dense(p, a)
        raw = p.read_bytes()
        payload = np.frombuffer(raw[-48:], dtype="<f8")
        assert_allclose(payload, [0, 1, 2, 3, 4, 5])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ten"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_dense(p)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(3)
        p = tmp_path / "t.ten"
        save_dense(p, rng.standard_normal((4, 4)))
        (tmp_path / "cut.ten").write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_dense(tmp_path / "cut.ten")

    def test_declared_size_beyond_file(self, tmp_path):
        # 2^40 x 2^40 wraps np.prod to 0; the loader must refuse it before reading
        p = write_huge_dense(tmp_path / "huge.ten")
        with pytest.raises(FormatError, match="more bytes than the file holds"):
            load_dense(p)


class TestTT:
    def test_roundtrip_values(self, tmp_path):
        tt = random_tt((3, 4, 2), (2, 3), np.random.default_rng(4))
        p = tmp_path / "t.tt"
        save_tt(p, tt)
        back = load_tt(p)
        assert back.mode_sizes == tt.mode_sizes
        assert back.ranks == tt.ranks
        assert_allclose(tt_full(back), tt_full(tt))

    def test_byte_identical(self, tmp_path):
        tt = random_tt((2, 3, 4), (3, 2), np.random.default_rng(5))
        b1, b2, _ = roundtrip_bytes(tmp_path, "t.tt", save_tt, load_tt, tt, "f64")
        assert b1 == b2

    def test_slice_major_layout(self, tmp_path):
        # d=1 core (1, n, 1): payload is just the vector
        tt = random_tt((5,), (), np.random.default_rng(6))
        p = tmp_path / "t.tt"
        save_tt(p, tt)
        payload = np.frombuffer(p.read_bytes()[-40:], dtype="<f8")
        assert_allclose(payload, tt.cores[0][0, :, 0])


class TestTTMatrix:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        ttm = TTMatrix(random_tt((6, 6), (3,), rng), (2, 3), (3, 2))
        p = tmp_path / "t.ttm"
        save_ttmatrix(p, ttm)
        back = load_ttmatrix(p)
        assert back.row_factors == (2, 3)
        assert back.col_factors == (3, 2)
        assert_allclose(ttm_full(back), ttm_full(ttm))

    def test_byte_identical(self, tmp_path):
        ttm = TTMatrix(random_tt((4, 4), (2,), np.random.default_rng(8)), (2, 2), (2, 2))
        b1, b2, _ = roundtrip_bytes(tmp_path, "t.ttm", save_ttmatrix, load_ttmatrix, ttm, "f64")
        assert b1 == b2


def pinned_ttconv_kernel():
    """l = 2, C = S = 2x2 with one dummy channel each, ranks (1, 2, 3, 1), entries 1..44."""
    g0 = np.arange(1, 9.0).reshape(2, 2, 2)
    cores = [np.arange(9, 33.0).reshape(2, 2, 2, 3), np.arange(33, 45.0).reshape(3, 2, 2, 1)]
    return TTConvKernel(2, ChannelFactorization((2, 2), (2, 2), 1, 1), g0, cores)


PINNED_TTCV_F32 = bytes.fromhex(
    "545443560100000001000000020000000200000002000000000000000200000000000000"
    "020000000000000002000000000000000100000001000000010000000000000002000000"
    "00000000030000000000000001000000000000000000803f000000400000a0400000c040"
    "00004040000080400000e040000000410000104100002041000030410000a8410000b041"
    "0000b8410000404100005041000060410000c0410000c8410000d0410000704100008041"
    "000088410000d8410000e0410000e84100009041000098410000a0410000f0410000f841"
    "0000004200000442000014420000244200000842000018420000284200000c4200001c42"
    "00002c42000010420000204200003042"
)


class TestTTConv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        fact = factorize_channels(3, 5, 2)
        tk = random_ttconv_kernel(3, fact, (2, 2), rng)
        p = tmp_path / "t.ttcv"
        save_ttconv(p, tk)
        back = load_ttconv(p)
        assert back.ell == 3
        assert back.fact == fact
        assert back.ranks == tk.ranks
        assert_allclose(back.g0, tk.g0)
        for a, b in zip(back.cores, tk.cores):
            assert_allclose(a, b)

    def test_byte_identical(self, tmp_path):
        rng = np.random.default_rng(10)
        fact = factorize_channels(4, 4, 2)
        tk = random_ttconv_kernel(1, fact, (2, 1), rng)
        b1, b2, _ = roundtrip_bytes(tmp_path, "t.ttcv", save_ttconv, load_ttconv, tk, "f64")
        assert b1 == b2

    def test_spatial_size_zero_is_format_error(self, tmp_path):
        p = tmp_path / "t.ttcv"
        rng = np.random.default_rng(0)
        save_ttconv(p, random_ttconv_kernel(1, factorize_channels(2, 2, 1), (1,), rng))
        data = bytearray(p.read_bytes())
        data[12:16] = struct.pack("<I", 0)  # l follows magic, version and dtype
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="l must be at least 1, got 0"):
            load_ttconv(p)

    def test_payload_layout(self, tmp_path):
        # padded l = 2, d = 2 kernel with distinct entries; the expected bytes are
        # built entry by entry: spatial slice x + l*y, then compound slice c*S + s,
        # each slice's r_k x r_{k+1} matrix row-major
        tk = pinned_ttconv_kernel()
        p = tmp_path / "t.ttcv"
        save_ttconv(p, tk)
        header = (
            b"TTCV" + struct.pack("<4I", 1, 0, 2, 2) + struct.pack("<4Q", 2, 2, 2, 2)
            + struct.pack("<2I", 1, 1) + struct.pack("<4Q", 1, 2, 3, 1)
        )
        values = [tk.g0[x, y, r] for y in range(2) for x in range(2) for r in range(2)]
        for core in tk.cores:
            r_in, ck, sk, r_out = core.shape
            values += [
                core[i, c, s, j]
                for c in range(ck) for s in range(sk) for i in range(r_in) for j in range(r_out)
            ]
        assert p.read_bytes() == header + struct.pack(f"<{len(values)}d", *values)

    def test_file_from_earlier_release(self, tmp_path):
        # pinned_ttconv_kernel() saved as f32 by the previous release of this package
        p = tmp_path / "pinned.ttcv"
        p.write_bytes(PINNED_TTCV_F32)
        back = load_ttconv(p)
        tk = pinned_ttconv_kernel()
        assert back.fact == tk.fact
        assert_array_equal(back.g0, tk.g0)
        assert len(back.cores) == len(tk.cores)
        for a, b in zip(back.cores, tk.cores):
            assert_array_equal(a, b)
        save_ttconv(tmp_path / "again.ttcv", back, dtype="f32")
        assert (tmp_path / "again.ttcv").read_bytes() == PINNED_TTCV_F32

    def test_depth_1_and_3_kernels(self, tmp_path):
        rng = np.random.default_rng(11)
        for d, ranks in ((1, (3,)), (3, (2, 3, 2))):
            fact = factorize_channels(8, 8, d)
            tk = random_ttconv_kernel(3, fact, ranks, rng)
            p = tmp_path / f"d{d}.ttcv"
            save_ttconv(p, tk)
            back = load_ttconv(p)
            assert back.fact == fact
            assert_allclose(back.g0, tk.g0)
            for a, b in zip(back.cores, tk.cores):
                assert_allclose(a, b)


class TestLoadAny:
    def test_dispatch(self, tmp_path):
        rng = np.random.default_rng(11)
        save_dense(tmp_path / "a.ten", rng.standard_normal((2, 2)))
        save_tt(tmp_path / "a.tt", random_tt((2, 2), (1,), rng))
        assert isinstance(load_any(tmp_path / "a.ten"), np.ndarray)
        assert load_any(tmp_path / "a.tt").ndim == 2

    def test_unknown_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"ABCD1234")
        with pytest.raises(FormatError):
            load_any(p)


# -- loader fuzzing ----------------------------------------------------------
# fuzz_* are not collected: they run only in the address-space-limited child of
# test_loader_fuzz_under_address_space_limit, where a loader that allocates
# before checking a declared size fails with MemoryError instead.

SAVERS = {"ten": save_dense, "tt": save_tt, "ttm": save_ttmatrix, "ttcv": save_ttconv}
FUZZ_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@st.composite
def containers(draw):
    """A random valid container: (kind, object, storage dtype)."""
    kind = draw(st.sampled_from(sorted(SAVERS)))
    dtype = draw(st.sampled_from(["f64", "f32"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    factors = st.lists(st.integers(1, 4), min_size=d, max_size=d)
    if kind == "ten":
        shape = draw(st.lists(st.integers(0, 4), max_size=4))
        return kind, rng.standard_normal(shape), dtype
    if kind == "ttcv":
        c, s = draw(factors), draw(factors)
        pad_c = draw(st.integers(0, math.prod(c) - 1))
        pad_s = draw(st.integers(0, math.prod(s) - 1))
        fact = ChannelFactorization(c, s, pad_c, pad_s)
        ell = draw(st.integers(1, 3))
        return kind, random_ttconv_kernel(ell, fact, draw(factors), rng), dtype
    rows, cols = draw(factors), draw(factors)
    tt = random_tt([m * n for m, n in zip(rows, cols)], draw(factors)[1:], rng)
    return kind, (tt if kind == "tt" else TTMatrix(tt, rows, cols)), dtype


@FUZZ_SETTINGS
@given(containers())
def fuzz_roundtrip(container):
    kind, obj, dtype = container
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"a.{kind}"
        SAVERS[kind](path, obj, dtype=dtype)
        first = path.read_bytes()
        SAVERS[kind](path, load_any(path), dtype=dtype)
        assert path.read_bytes() == first


_rng = np.random.default_rng(0)
_ORDER_FF = b"\xff" * 4  # a u32 order field of 0xFFFFFFFF declares a 34 GB u64 list


@FUZZ_SETTINGS
@given(
    containers(),
    st.sampled_from(["truncate", "overwrite"]),
    st.integers(0, 139),  # the headers of these containers are at most 136 bytes
    st.binary(min_size=1, max_size=8),
)
# the order field follows magic, version and dtype; in a .ttcv it follows l
@example(("ten", np.zeros((2, 3)), "f64"), "overwrite", 12, _ORDER_FF)
@example(("tt", random_tt((2, 3), (2,), _rng), "f64"), "overwrite", 12, _ORDER_FF)
@example(("ttm", TTMatrix(random_tt((4,), (), _rng), (2,), (2,)), "f64"), "overwrite", 12, _ORDER_FF)
@example(
    ("ttcv", random_ttconv_kernel(1, factorize_channels(2, 2, 1), (1,), _rng), "f64"),
    "overwrite", 16, _ORDER_FF,
)
def fuzz_corrupted(container, how, at, patch):
    """A truncated or header-overwritten file either loads or raises FormatError."""
    kind, obj, dtype = container
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"a.{kind}"
        SAVERS[kind](path, obj, dtype=dtype)
        data = path.read_bytes()
        at %= len(data)
        if how == "truncate":
            data = data[:at]
        else:
            data = data[:at] + patch + data[at + len(patch) :]
        path.write_bytes(data)
        try:
            load_any(path)
        except FormatError:
            pass


ADDRESS_SPACE_LIMIT = 1 << 30


def test_loader_fuzz_under_address_space_limit(tmp_path):
    here = Path(__file__).resolve().parent
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_LIMIT}, {ADDRESS_SPACE_LIMIT}))\n"
        f"sys.path[:0] = [{str(here.parent / 'src')!r}, {str(here)!r}]\n"
        "import test_io\n"
        "test_io.fuzz_roundtrip()\n"
        "test_io.fuzz_corrupted()\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
