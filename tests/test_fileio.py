import contextlib
import io
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dlab.cli import main
from dlab.fileio import (GridFileError, read_grid_function,
                         read_space_time_field, write_grid_function,
                         write_space_time_field)
from dlab.grid import Grid, GridFunction, SpaceTimeField


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


# ---------------------------------------------------------------------------
# fuzzing: every malformed GF01/STF1 byte string is a GridFileError, and
# `dlab gf info` turns it into exit 1 with one stderr line
# ---------------------------------------------------------------------------

def gf_bytes(values=None, n=8, length=12.5, x0=-3.0, side=0) -> bytes:
    values = np.arange(n, dtype=complex) * (1 - 0.5j) if values is None else values
    return (b"GF01" + struct.pack("<Qddb", n, length, x0, side)
            + np.asarray(values, dtype="<c16").tobytes())


def stf_bytes(times=(0.0, 0.5, 1.0), n=8, length=12.5, x0=-3.0) -> bytes:
    m = len(times)
    data = b"STF1" + struct.pack("<QQdd", m, n, length, x0)
    for k, t in enumerate(times):
        data += struct.pack("<d", t) + np.full(n, 1.0 + k, dtype="<c16").tobytes()
    return data


def read_bytes(data: bytes):
    """Read `data` as the format its magic names (GF01 otherwise)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.bin")
        with open(path, "wb") as fh:
            fh.write(data)
        reader = read_space_time_field if data[:4] == b"STF1" else read_grid_function
        return reader(path)


def gf_info(data: bytes) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.bin")
        with open(path, "wb") as fh:
            fh.write(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["gf", "info", path, "--no-timestamps"])
    return code, out.getvalue(), err.getvalue()


def assert_rejected(data: bytes) -> None:
    with pytest.raises(GridFileError):
        read_bytes(data)
    code, out, err = gf_info(data)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1, err


VALID = [gf_bytes(), gf_bytes(side=1), stf_bytes(), stf_bytes(times=())]
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
FUZZ = settings(max_examples=60, deadline=None)


def test_fuzz_inputs_are_valid():
    for data in VALID:
        read_bytes(data)
        code, out, err = gf_info(data)
        assert code == 0 and err == "" and json.loads(out)["n"] == 8


@FUZZ
@given(st.sampled_from(VALID), st.data())
def test_fuzz_truncation(data, draw):
    cut = draw.draw(st.integers(0, len(data) - 1))
    assert_rejected(data[:cut])


@FUZZ
@given(st.sampled_from(VALID), st.binary(min_size=1, max_size=40))
def test_fuzz_trailing_bytes(data, extra):
    assert_rejected(data + extra)


@FUZZ
@given(st.sampled_from(VALID), st.binary(min_size=4, max_size=4))
def test_fuzz_bad_magic(data, magic):
    assume(magic not in (b"GF01", b"STF1"))
    assert_rejected(magic + data[4:])


@FUZZ
@given(st.integers(-128, 127))
def test_fuzz_unknown_side(code):
    assume(code not in (0, 1))
    assert_rejected(gf_bytes(side=code))


@FUZZ
@given(st.integers(0, 40))
def test_fuzz_bad_n(n):
    # sizes that are not a power of two, with the data that n declares
    assume(n == 0 or n & (n - 1))
    assert_rejected(gf_bytes(values=np.ones(n), n=n))
    assert_rejected(b"STF1" + struct.pack("<QQdd", 1, n, 12.5, -3.0)
                    + b"\0" * (8 + 16 * n))


SIZES = st.one_of(st.integers(0, 16), st.sampled_from([2 ** 31, 2 ** 40, 2 ** 62]),
                  st.integers(0, 2 ** 64 - 1))


@FUZZ
@given(SIZES, st.one_of(st.just(8), SIZES), st.integers(0, 3))
def test_fuzz_declared_sizes_against_data(m, n, frames):
    # any declared M, n that disagree with the frames that follow
    body = stf_bytes(times=np.arange(frames, dtype=float))
    assume((m, n) != (frames, 8))
    assert_rejected(b"STF1" + struct.pack("<QQ", m, n) + body[20:])
    if n != 8:
        assert_rejected(b"GF01" + struct.pack("<Q", n) + gf_bytes()[12:])


@FUZZ
@given(st.sampled_from(["sample", "length", "x0", "time"]), NON_FINITE, st.integers(0, 7))
def test_fuzz_non_finite_fields(where, bad, k):
    if where == "sample":
        values = np.ones(8, dtype=complex)
        values[k] = complex(bad, 0.0) if k % 2 else complex(0.0, bad)
        assert_rejected(gf_bytes(values=values))
    elif where == "time":
        times = [0.0, 0.5, 1.0]
        times[k % 3] = bad
        assert_rejected(stf_bytes(times=times))
    else:
        kw = {where: bad}
        assert_rejected(gf_bytes(**kw))
        assert_rejected(stf_bytes(**kw))


@FUZZ
@given(st.sampled_from(VALID), st.data())
def test_fuzz_any_corrupted_byte(data, draw):
    # a changed byte gives a valid file or a one-line GridFileError, never a
    # traceback or a numpy warning
    pos = draw.draw(st.integers(0, len(data) - 1))
    byte = draw.draw(st.integers(0, 255))
    corrupted = data[:pos] + bytes([byte]) + data[pos + 1:]
    try:
        read_bytes(corrupted)
    except GridFileError:
        assert_rejected(corrupted)
    else:
        code, out, err = gf_info(corrupted)
        assert (code, err) == (0, "") or (code == 1 and out == ""
                                          and len(err.splitlines()) == 1)


def test_gf_info_huge_samples_have_a_finite_norm_and_no_warning():
    code, out, err = gf_info(gf_bytes(values=np.full(8, 1e200), length=8.0))
    assert code == 0 and err == ""
    assert json.loads(out)["l2_norm"] == pytest.approx(np.sqrt(8.0) * 1e200, rel=1e-15)


def test_gf_info_subnormal_length_is_a_one_line_error():
    data = gf_bytes(length=5e-324)
    assert_rejected(data)
    assert "dx or dxi" in gf_info(data)[2]


def test_empty_stf_with_oversized_frames_is_a_file_error():
    assert_rejected(b"STF1" + struct.pack("<QQdd", 0, 2 ** 40, 1.0, 0.0))


def test_stf_times_must_increase_and_may_be_huge():
    for times in ((0.5, 0.5), (1.0, 0.0)):
        assert_rejected(stf_bytes(times=times))
    # their difference overflows; the order check must not warn
    field = read_bytes(stf_bytes(times=(-1.7e308, 1.7e308)))
    assert list(field.times) == [-1.7e308, 1.7e308]
