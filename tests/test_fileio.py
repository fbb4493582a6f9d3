import os
import struct

import numpy as np
import pytest

from dlab.fileio import (GridFileError, read_grid_function,
                         read_space_time_field, write_grid_function,
                         write_space_time_field)
from dlab.grid import FOURIER, Grid, GridFunction, SpaceTimeField


def sample_function(n=64, side="physical"):
    g = Grid(n, 12.5, -3.0)
    rng = np.random.default_rng(11)
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    return GridFunction(g, vals, side)


def test_grid_function_round_trip(tmp_path):
    for side in ("physical", "fourier"):
        f = sample_function(side=side)
        path = tmp_path / f"{side}.gf"
        write_grid_function(f, path)
        back = read_grid_function(path)
        assert back.side == side
        assert back.grid.close_to(f.grid)
        assert np.array_equal(back.values, f.values)


def test_file_size_is_header_plus_samples(tmp_path):
    g = Grid(4, 1.0)
    f = GridFunction(g, np.arange(4, dtype=complex))
    path = tmp_path / "tiny.gf"
    write_grid_function(f, path)
    # 4 magic + 8 size + 8 length + 8 anchor + 1 side + 4*16 samples
    assert os.path.getsize(path) == 93


def test_truncated_file(tmp_path):
    f = sample_function()
    path = tmp_path / "cut.gf"
    write_grid_function(f, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(GridFileError, match="unexpected end of data"):
        read_grid_function(path)


def test_trailing_bytes(tmp_path):
    f = sample_function()
    path = tmp_path / "long.gf"
    write_grid_function(f, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(GridFileError, match="trailing bytes"):
        read_grid_function(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.gf"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(GridFileError, match="bad magic"):
        read_grid_function(path)


def test_non_finite_samples_rejected(tmp_path):
    f = sample_function()
    path = tmp_path / "nan.gf"
    write_grid_function(f, path)
    data = bytearray(path.read_bytes())
    data[-16:-8] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(GridFileError, match="non-finite"):
        read_grid_function(path)


def test_bad_grid_size_reported_as_file_error(tmp_path):
    f = sample_function()
    path = tmp_path / "size.gf"
    write_grid_function(f, path)
    data = bytearray(path.read_bytes())
    data[4:12] = (63).to_bytes(8, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(GridFileError):
        read_grid_function(path)


def test_space_time_round_trip(tmp_path):
    g = Grid(32, 6.0, -3.0)
    rng = np.random.default_rng(2)
    times = np.array([0.0, 0.25, 0.75])
    values = rng.normal(size=(3, 32)) + 1j * rng.normal(size=(3, 32))
    field = SpaceTimeField(g, times, values)
    path = tmp_path / "run.stf"
    write_space_time_field(field, path)
    back = read_space_time_field(path)
    assert np.array_equal(back.times, times)
    assert len(back) == 3
    assert np.array_equal(back.values, values)


def test_space_time_stores_physical_side(tmp_path):
    g = Grid(32, 6.0, -3.0)
    f = sample_function(32).to_fourier()
    field = SpaceTimeField(g, np.array([0.0]), f.values[None, :], side=FOURIER)
    path = tmp_path / "one.stf"
    write_space_time_field(field, path)
    back = read_space_time_field(path)
    phys = field.frames[0].to_physical().values
    assert np.max(np.abs(back.frames[0].values - phys)) < 1e-12


def test_space_time_truncation(tmp_path):
    g = Grid(32, 6.0, -3.0)
    rng = np.random.default_rng(8)
    field = SpaceTimeField(g, np.array([0.0, 1.0]), rng.normal(size=(2, 32)))
    path = tmp_path / "cut.stf"
    write_space_time_field(field, path)
    path.write_bytes(path.read_bytes()[:-24])
    with pytest.raises(GridFileError, match="unexpected end of data"):
        read_space_time_field(path)


def test_space_time_bytes_match_hand_packed_file(tmp_path):
    # pins STF1: 36-byte header, then per frame f64 t and n (re, im) f64 pairs
    g = Grid(4, 2.0, -1.0)
    times = np.array([-0.5, 0.25])
    values = np.array([[1 + 2j, -3j, 0.5, 4 - 1j], [7.0, 1j, -2 + 0.125j, 0.0]])
    path = tmp_path / "tiny.stf"
    write_space_time_field(SpaceTimeField(g, times, values), path)
    packed = b"STF1" + struct.pack("<QQdd", 2, 4, 2.0, -1.0)
    for t, row in zip(times, values):
        packed += struct.pack("<d", t)
        for v in row:
            packed += struct.pack("<dd", v.real, v.imag)
    assert len(packed) == 36 + 2 * (8 + 16 * 4)
    assert path.read_bytes() == packed


def test_space_time_size_checked_before_allocating(tmp_path):
    # a bare header claiming 2^40 frames must not try to allocate them
    path = tmp_path / "huge.stf"
    path.write_bytes(b"STF1" + struct.pack("<QQdd", 2 ** 40, 64, 8.0, 0.0))
    with pytest.raises(GridFileError, match="unexpected end of data"):
        read_space_time_field(path)


def test_space_time_trailing_and_non_finite(tmp_path):
    g = Grid(32, 6.0, -3.0)
    values = np.ones((3, 32), dtype=complex)
    values[2, 5] = np.inf
    path = tmp_path / "bad.stf"
    write_space_time_field(SpaceTimeField(g, np.array([0.0, 1.0, 2.0]), values), path)
    with pytest.raises(GridFileError, match="non-finite values in frame 2"):
        read_space_time_field(path)
    values[2, 5] = 1.0
    write_space_time_field(SpaceTimeField(g, np.array([0.0, 1.0, 2.0]), values), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(GridFileError, match="8 trailing bytes"):
        read_space_time_field(path)


def test_non_finite_grid_reported_as_file_error(tmp_path):
    for offset in (12, 20):  # length, then x0
        path = tmp_path / f"inf{offset}.gf"
        write_grid_function(sample_function(), path)
        data = bytearray(path.read_bytes())
        data[offset:offset + 8] = struct.pack("<d", np.inf)
        path.write_bytes(bytes(data))
        with pytest.raises(GridFileError, match="finite"):
            read_grid_function(path)
