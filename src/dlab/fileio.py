"""Binary file formats for grid and space-time data.

GF01 (single GridFunction):
    magic 'G','F','0','1'; u64 LE n; f64 LE length; f64 LE x0;
    u8 side (0 physical, 1 fourier); then n pairs of f64 LE (re, im).

STF1 (SpaceTimeField, physical samples):
    magic 'S','T','F','1'; u64 LE frame count M; u64 LE n; f64 LE length;
    f64 LE x0; then M records of (f64 LE t; n pairs of f64 LE (re, im)).

Samples are read and written as one block (a complex array for GF01, an
array of (t, samples) records for STF1), after the declared sizes have
been checked against the data.
"""

from __future__ import annotations

import struct

import numpy as np

from .grid import FOURIER, PHYSICAL, Grid, GridFunction, SpaceTimeField

GF_MAGIC = b"GF01"
STF_MAGIC = b"STF1"

_SIDE_CODE = {PHYSICAL: 0, FOURIER: 1}
_SIDE_NAME = {0: PHYSICAL, 1: FOURIER}


class GridFileError(ValueError):
    """Structured I/O error for GF01/STF1 data."""


def _take(buf: bytes, offset: int, size: int, what: str) -> tuple[bytes, int]:
    if offset + size > len(buf):
        raise GridFileError(f"unexpected end of data while reading {what}")
    return buf[offset : offset + size], offset + size


def _stf_record(n: int) -> np.dtype:
    try:
        return np.dtype([("t", "<f8"), ("u", "<c16", (n,))])
    except ValueError:  # numpy's limit on a record's array size
        raise GridFileError(f"{n} samples per frame do not fit in one record") from None


def _checked(make, *args):
    """make(*args), with its ValueError raised as a GridFileError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise GridFileError(str(exc)) from exc


def write_grid_function(f: GridFunction, path) -> None:
    header = GF_MAGIC + struct.pack(
        "<Qddb", f.grid.n, f.grid.length, f.grid.x0, _SIDE_CODE[f.side]
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(f.values.astype("<c16").tobytes())


def read_grid_function(path) -> GridFunction:
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, off = _take(buf, 0, 4, "magic")
    if magic != GF_MAGIC:
        raise GridFileError(f"bad magic {magic!r}, expected {GF_MAGIC!r}")
    raw, off = _take(buf, off, 8 + 8 + 8 + 1, "header")
    n, length, x0, side_code = struct.unpack("<Qddb", raw)
    if side_code not in _SIDE_NAME:
        raise GridFileError(f"unknown side code {side_code}")
    raw, off = _take(buf, off, 16 * n, "sample data")
    if off != len(buf):
        raise GridFileError(f"{len(buf) - off} trailing bytes after sample data")
    values = np.frombuffer(raw, dtype="<c16").astype(np.complex128)
    if not np.all(np.isfinite(values)):
        raise GridFileError("non-finite sample values")
    return GridFunction(_checked(Grid, n, length, x0), values, _SIDE_NAME[side_code])


def write_space_time_field(field: SpaceTimeField, path) -> None:
    g = field.grid
    records = np.empty(len(field), dtype=_stf_record(g.n))
    records["t"] = field.times
    records["u"] = field.values
    with open(path, "wb") as fh:
        fh.write(STF_MAGIC + struct.pack("<QQdd", len(field), g.n, g.length, g.x0))
        fh.write(records)


def read_space_time_field(path) -> SpaceTimeField:
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, off = _take(buf, 0, 4, "magic")
    if magic != STF_MAGIC:
        raise GridFileError(f"bad magic {magic!r}, expected {STF_MAGIC!r}")
    raw, off = _take(buf, off, 8 + 8 + 8 + 8, "header")
    m, n, length, x0 = struct.unpack("<QQdd", raw)
    grid = _checked(Grid, n, length, x0)
    need, have = m * (8 + 16 * n), len(buf) - off
    if have < need:
        raise GridFileError(f"unexpected end of data: header declares {m} frames of "
                            f"{n} samples ({need} bytes), found {have} bytes")
    if have > need:
        raise GridFileError(f"{have - need} trailing bytes after frame data")
    records = np.frombuffer(buf, dtype=_stf_record(n), count=m, offset=off)
    times, values = records["t"].astype(np.float64), records["u"].astype(np.complex128)
    finite = np.isfinite(values).all(axis=1) & np.isfinite(times)
    if not finite.all():
        raise GridFileError(f"non-finite values in frame {int(np.argmin(finite))}")
    return _checked(SpaceTimeField, grid, times, values)
