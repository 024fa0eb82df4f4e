"""Binary file formats for dense tensors and the three TT containers.

All integers are little-endian; payload values are little-endian IEEE floats
(f64 by default, f32 as a storage option -- values are always promoted to f64
in memory).  Layouts:

``.ten``   magic ``TTEN`` | u32 version=1 | u32 dtype (0=f64, 1=f32) | u32 d |
           d x u64 dims | values in C order (last index fastest).
``.tt``    magic ``TTTN`` | version | dtype | u32 d | d x u64 mode sizes |
           (d+1) x u64 ranks | cores in chain order, each slice-major
           (slice index outer, then row, then column).
``.ttm``   magic ``TTMX`` | version | dtype | u32 d | d x u64 row factors |
           d x u64 col factors | embedded ``.tt`` stream for the compound TT.
``.ttcv``  magic ``TTCV`` | version | dtype | u32 l | u32 d | d x u64
           c_factors | d x u64 s_factors | u32 pad_c | u32 pad_s |
           (d+2) x u64 ranks | the kernel's TT chain over the modes
           (l*l, C_1*S_1, ..., C_d*S_d), its cores written as in ``.tt``:
           spatial slice x + l*y, compound slice c*S + s.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import FormatError, ShapeError
from .kernels import ChannelFactorization, TTConvKernel, _kernel_cores, kernel_layout
from .tt import TTTensor
from .ttmatrix import TTMatrix

MAGIC_DENSE = b"TTEN"
MAGIC_TT = b"TTTN"
MAGIC_TTM = b"TTMX"
MAGIC_TTCV = b"TTCV"

VERSION = 1

_DTYPE_CODES = {"f64": 0, "f32": 1}
_NUMPY_DTYPES = {0: "<f8", 1: "<f4"}


def _write_u32(f, *values):
    f.write(struct.pack("<" + "I" * len(values), *values))


def _write_u64s(f, values):
    f.write(struct.pack(f"<{len(values)}Q", *values))


def _construct(cls, *fields):
    """Build a loaded object; fields that do not fit together are a malformed file."""
    try:
        return cls(*fields)
    except ShapeError as e:
        raise FormatError(str(e)) from e


def _read_exact(f, n, what="the next field"):
    """Read n bytes, checking n against the bytes left in the file before the read
    allocates them, so a corrupt count or shape cannot request more memory."""
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise FormatError(f"{what} needs more bytes than the file holds")
    data = f.read(n)
    if len(data) != n:
        raise FormatError("unexpected end of file")
    return data


def _read_u32(f, count=1):
    vals = struct.unpack(f"<{count}I", _read_exact(f, 4 * count))
    return vals[0] if count == 1 else vals


def _read_u64s(f, count):
    return struct.unpack(f"<{count}Q", _read_exact(f, 8 * count))


def _write_header(f, magic, dtype):
    if dtype not in _DTYPE_CODES:
        raise ValueError(f"dtype must be 'f64' or 'f32', got {dtype!r}")
    f.write(magic)
    _write_u32(f, VERSION, _DTYPE_CODES[dtype])


def _read_header(f, magic):
    got = _read_exact(f, 4)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    version = _read_u32(f)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    code = _read_u32(f)
    if code not in _NUMPY_DTYPES:
        raise FormatError(f"unknown dtype code {code}")
    return _NUMPY_DTYPES[code]

def _write_values(f, arr, dtype):
    f.write(np.ascontiguousarray(arr, dtype="<f8" if dtype == "f64" else "<f4").tobytes())


def _read_values(f, shape, np_dtype):
    """Read an array of the declared shape."""
    nbytes = math.prod(shape) * np.dtype(np_dtype).itemsize
    data = _read_exact(f, nbytes, f"declared shape {tuple(shape)}")
    arr = np.frombuffer(data, dtype=np_dtype).astype(np.float64)
    try:
        return arr.reshape(shape)
    except ValueError:  # an empty array with a dimension beyond numpy's limit
        raise FormatError(f"declared shape {tuple(shape)} is too large") from None


# -- dense tensors -----------------------------------------------------------

def save_dense(path, array, dtype="f64"):
    array = np.asarray(array, dtype=np.float64)
    with open(path, "wb") as f:
        _write_header(f, MAGIC_DENSE, dtype)
        _write_u32(f, array.ndim)
        _write_u64s(f, array.shape)
        _write_values(f, array, dtype)


def load_dense(path) -> np.ndarray:
    with open(path, "rb") as f:
        np_dtype = _read_header(f, MAGIC_DENSE)
        d = _read_u32(f)
        dims = _read_u64s(f, d)
        return _read_values(f, dims, np_dtype)


# -- TT tensors --------------------------------------------------------------

def _write_cores(f, cores, dtype):
    for core in cores:  # (r_prev, n, r_next): slice index outer, then row, then column
        _write_values(f, core.transpose(1, 0, 2), dtype)


def _read_cores(f, modes, ranks, np_dtype) -> list:
    """Cores (r_prev, n, r_next) written by ``_write_cores``."""
    return [
        _read_values(f, (n, r_prev, r_next), np_dtype).transpose(1, 0, 2)
        for n, r_prev, r_next in zip(modes, ranks, ranks[1:])
    ]


def _write_tt_stream(f, tt: TTTensor, dtype):
    _write_header(f, MAGIC_TT, dtype)
    _write_u32(f, tt.ndim)
    _write_u64s(f, tt.mode_sizes)
    _write_u64s(f, tt.ranks)
    _write_cores(f, tt.cores, dtype)


def _read_tt_stream(f) -> TTTensor:
    np_dtype = _read_header(f, MAGIC_TT)
    d = _read_u32(f)
    modes = _read_u64s(f, d)
    ranks = _read_u64s(f, d + 1)
    return _construct(TTTensor, _read_cores(f, modes, ranks, np_dtype))


def save_tt(path, tt: TTTensor, dtype="f64"):
    with open(path, "wb") as f:
        _write_tt_stream(f, tt, dtype)


def load_tt(path) -> TTTensor:
    with open(path, "rb") as f:
        return _read_tt_stream(f)


# -- TT matrices -------------------------------------------------------------

def save_ttmatrix(path, ttm: TTMatrix, dtype="f64"):
    with open(path, "wb") as f:
        _write_header(f, MAGIC_TTM, dtype)
        _write_u32(f, len(ttm.row_factors))
        _write_u64s(f, ttm.row_factors)
        _write_u64s(f, ttm.col_factors)
        _write_tt_stream(f, ttm.tt, dtype)


def load_ttmatrix(path) -> TTMatrix:
    with open(path, "rb") as f:
        _read_header(f, MAGIC_TTM)
        d = _read_u32(f)
        row_factors = _read_u64s(f, d)
        col_factors = _read_u64s(f, d)
        tt = _read_tt_stream(f)
        return _construct(TTMatrix, tt, row_factors, col_factors)


# -- TT convolution kernels --------------------------------------------------

def save_ttconv(path, tk: TTConvKernel, dtype="f64"):
    with open(path, "wb") as f:
        _write_header(f, MAGIC_TTCV, dtype)
        _write_u32(f, tk.ell, tk.fact.depth)
        _write_u64s(f, tk.fact.c_factors)
        _write_u64s(f, tk.fact.s_factors)
        _write_u32(f, tk.fact.pad_c, tk.fact.pad_s)
        _write_u64s(f, tk.ranks)
        _write_cores(f, tk.tt.cores, dtype)


def load_ttconv(path) -> TTConvKernel:
    with open(path, "rb") as f:
        np_dtype = _read_header(f, MAGIC_TTCV)
        ell, d = _read_u32(f, 2)
        c_factors = _read_u64s(f, d)
        s_factors = _read_u64s(f, d)
        pad_c, pad_s = _read_u32(f, 2)
        ranks = _read_u64s(f, d + 2)
        if ranks[0] != 1:  # implicit in TTConvKernel, so only the file can get it wrong
            raise FormatError("boundary TT-ranks must equal 1")
        fact = _construct(ChannelFactorization, c_factors, s_factors, pad_c, pad_s)
        chain = _read_cores(f, kernel_layout(ell, fact).modes, ranks, np_dtype)
        return _construct(TTConvKernel, ell, fact, *_kernel_cores(chain, ell, fact))


# -- format dispatch ---------------------------------------------------------

_LOADERS = {
    MAGIC_DENSE: load_dense,
    MAGIC_TT: load_tt,
    MAGIC_TTM: load_ttmatrix,
    MAGIC_TTCV: load_ttconv,
}


def load_any(path):
    """Load whichever container the file's magic declares."""
    with open(path, "rb") as f:
        magic = f.read(4)
    loader = _LOADERS.get(magic)
    if loader is None:
        raise FormatError(f"unrecognized magic {magic!r}")
    return loader(path)
