import contextlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlab.cli import build_parser, main
from dlab.evolutions import BlowupError, suggest_dt
from dlab.fileio import read_grid_function, write_grid_function, write_space_time_field
from dlab.grid import FOURIER, ROW_BLOCK, Grid, GridFunction, SpaceTimeField, map_row_blocks
from dlab.norms import SPEC_KEYS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_sample(path, n=256):
    g = Grid(n, 16 * np.pi, -8 * np.pi)
    x = g.nodes()
    f = GridFunction(g, np.exp(-x ** 2 / 2.0).astype(complex))
    write_grid_function(f, path)
    return f


def test_verify_exponents_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "exponents", "--no-timestamps")
    code2, out2, _ = run(capsys, "verify", "exponents", "--no-timestamps")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert payload["results"][0]["name"] == "exponent calculus"
    assert "wall_clock" not in payload


def test_verify_seed_is_used(capsys):
    runs = {seed: run(capsys, "verify", "galilean", "--seed", seed, "--no-timestamps")
            for seed in ("0", "3")}
    assert all(code == 0 for code, _, _ in runs.values())
    payloads = {seed: json.loads(out) for seed, (_, out, _) in runs.items()}
    assert payloads["3"]["config"]["seed"] == 3
    residual = {seed: p["results"][0]["measured"]["max_residual"]
                for seed, p in payloads.items()}
    assert residual["0"] != residual["3"]


def test_options_only_where_read(tmp_path, capsys):
    path = tmp_path / "g.gf"
    write_sample(path)
    manifest = tmp_path / "inputs.json"
    manifest.write_text(json.dumps({"inputs": ["g.gf"]}))
    norm = ["norm", "kind=lhat,r=2.0", str(path)]
    extract = ["profiles", "extract", str(manifest)]
    for argv in (norm + ["--csv", "x.csv"], norm + ["--seed", "1"], norm + ["--out", "x"],
                 norm + ["--window=-2:4"], ["gf", "info", str(path), "--side", "fourier"],
                 extract + ["--sigma", "3.0"], extract + ["--j-max", "2"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_norm_lhat_matches_l2(tmp_path, capsys):
    path = tmp_path / "g.gf"
    f = write_sample(path)
    code, out, _ = run(capsys, "norm", "kind=lhat,r=2.0", str(path),
                       "--no-timestamps")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(f.l2_norm(), rel=1e-10)
    assert payload["spec"].startswith("kind=lhat")


def test_norm_morrey_window_from_spec(tmp_path, capsys):
    path = tmp_path / "g.gf"
    write_sample(path)
    spec = "kind=morrey_hat,p=1.8,q=2.0,r=3.0"
    code_full, out_full, _ = run(capsys, "norm", spec, str(path), "--no-timestamps")
    code_part, out_part, _ = run(capsys, "norm", spec + ",j_min=-2,j_max=4", str(path),
                                 "--no-timestamps")
    assert code_full == 0 and code_part == 0
    assert json.loads(out_part)["value"] < json.loads(out_full)["value"]
    assert json.loads(out_part)["spec"].endswith(",j_min=-2,j_max=4")

    # half a window is rejected, not silently dropped
    code, out, err = run(capsys, "norm", spec + ",j_min=-2", str(path), "--no-timestamps")
    assert code == 1 and out == ""
    assert err == "a norm window needs both j_min and j_max\n"


@pytest.mark.parametrize("kind", ["lhat", "spacetime_X", "spacetime_Y"])
def test_norm_window_on_a_kind_that_ignores_it_exits_1(tmp_path, capsys, kind):
    # the window used to be echoed in "spec" beside the value without one
    path = tmp_path / "g.gf"
    f = write_sample(path)
    if kind != "lhat":
        path = tmp_path / "f.stf"
        write_space_time_field(SpaceTimeField(f.grid, np.array([0.0, 1.0]),
                                              np.stack([f.values, f.values])), path)
    assert run(capsys, "norm", f"kind={kind},r=2.0", str(path), "--no-timestamps")[0] == 0
    code, out, err = run(capsys, "norm", f"kind={kind},r=2.0,j_min=0,j_max=3", str(path),
                         "--no-timestamps")
    assert code == 1 and out == ""
    assert err == f"kind={kind} reads no j_min/j_max window; only morrey_hat and ell do\n"


def test_norm_ell_reports_minimizer(tmp_path, capsys):
    path = tmp_path / "g.gf"
    write_sample(path)
    code, out, _ = run(capsys, "norm", "kind=ell,p=1.8,sigma=3.0", str(path),
                       "--no-timestamps")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] > 0
    assert "minimizer_xi" in payload


@pytest.mark.parametrize("spec, msg", [
    ("kind=morrey_hat,p=1.8,q=2.0,r=3.0,j_min=0,j_max=40", "holds more than"),
    ("kind=ell,p=1.8,sigma=3.0,j_min=0,j_max=40", "holds more than"),
    ("kind=morrey_hat,p=1.8,q=2.0,r=3.0,j_min=-1030,j_max=0", "must lie in"),
    ("kind=ell,p=1.8,sigma=3.0,j_min=0,j_max=1030", "must lie in"),
])
def test_norm_oversized_window_exits_1(tmp_path, capsys, spec, msg):
    # refused before the per-offset interval array is allocated
    path = tmp_path / "small.gf"
    write_sample(path)
    code, out, err = run(capsys, "norm", spec, str(path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and msg in err


@pytest.mark.parametrize("spec, message", [
    ("kind=spacetime_X,s=0", "need r > 0, got nan"),  # a spec without r has r = nan
    ("kind=spacetime_Y,r=nan", "need r > 0, got nan"),
    ("kind=spacetime_X,r=2.0,s=inf", "need a finite s, got inf"),
    ("kind=spacetime_Y,r=2.0,s=nan", "need a finite s, got nan"),
])
def test_norm_spacetime_without_a_finite_exponent_exits_1(tmp_path, capsys, spec, message):
    # before the check both exponents came out NaN, read as infinite: a sup norm
    f = write_sample(tmp_path / "g.gf")
    path = tmp_path / "f.stf"
    write_space_time_field(SpaceTimeField(f.grid, np.array([0.0, 1.0]),
                                          np.stack([f.values, f.values])), path)
    code, out, err = run(capsys, "norm", spec, str(path), "--no-timestamps")
    assert code == 1 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("spec, message", [
    ("kind=morrey_hat,p=1.8,q=2", "kind=morrey_hat needs r > 0, got r=nan"),
    ("kind=morrey_hat,p=1.8,q=2,r=nan", "kind=morrey_hat needs r > 0, got r=nan"),
    ("kind=lhat", "kind=lhat needs r >= 1, got r=nan"),
    ("kind=lhat,r=nan", "kind=lhat needs r >= 1, got r=nan"),
])
def test_norm_without_r_exits_1_before_reading_the_input(tmp_path, capsys, spec, message):
    # morrey_hat used to print its r = inf value with exit 0, and lhat to fail
    # only after the computation; the input here does not exist, so a refusal
    # that names r comes before it is read
    code, out, err = run(capsys, "norm", spec, str(tmp_path / "absent.gf"), "--no-timestamps")
    assert code == 1 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("spec, message", [
    ("kind=lhat,r=2,p=5", "kind=lhat reads no p, got p=5.0; it reads r"),
    ("kind=ell,p=1.8,sigma=3,r=7",
     "kind=ell reads no r, got r=7.0; it reads p, sigma, j_min, j_max"),
    ("kind=morrey_hat,p=1.8,q=2,r=3,sigma=9",
     "kind=morrey_hat reads no sigma, got sigma=9.0; it reads p, q, r, j_min, j_max"),
    ("kind=lhat,r=2,s=1", "kind=lhat reads no s, got s=1.0; it reads r"),
])
def test_norm_key_its_kind_does_not_read_exits_1(tmp_path, capsys, spec, message):
    # the ignored key used to be echoed in "spec" beside a value computed without it
    code, out, err = run(capsys, "norm", spec, str(tmp_path / "absent.gf"), "--no-timestamps")
    assert code == 1 and out == ""
    assert err == message + "\n"


# each spec key is left out or set to one of these
SPEC_VALUES = [None, "nan", "inf", "-inf", "0", "-1.5", "5e-324", "1e308", "1.8", "2", "3"]


@pytest.fixture(scope="module")
def norm_inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("norm")
    f = write_sample(path / "g.gf", n=64)
    write_space_time_field(SpaceTimeField(f.grid, np.array([0.0, 0.5, 1.0]),
                                          np.stack([f.values] * 3)), path / "f.stf")
    return path


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(SPEC_KEYS)), data=st.data())
def test_norm_spec_grammar_gives_a_finite_value_or_one_line(norm_inputs, kind, data):
    # every key the kind reads takes each edge value; one other key may be set too
    keys = [key for key in SPEC_KEYS[kind] if not key.startswith("j_")]
    extra = data.draw(st.sampled_from([None, "p", "q", "r", "s", "sigma"]))
    pairs = [(key, data.draw(st.sampled_from(SPEC_VALUES))) for key in keys]
    if extra is not None and extra not in keys:
        pairs.append((extra, data.draw(st.sampled_from(SPEC_VALUES[1:]))))
    spec = ",".join([f"kind={kind}"] + [f"{key}={val}" for key, val in pairs if val])
    path = norm_inputs / ("f.stf" if kind.startswith("spacetime") else "g.gf")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["norm", spec, str(path), "--no-timestamps"])
    if code == 0:
        assert err.getvalue() == "" and math.isfinite(json.loads(out.getvalue())["value"])
    else:
        assert code == 1 and out.getvalue() == "" and err.getvalue().count("\n") == 1, spec


def test_norm_bad_file_exits_1(tmp_path, capsys):
    path = tmp_path / "junk.gf"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    code, out, err = run(capsys, "norm", "kind=lhat,r=2.0", str(path))
    assert code == 1
    assert "bad magic" in err


def test_norm_non_finite_grid_exits_1(tmp_path, capsys):
    path = tmp_path / "g.gf"
    write_sample(path)
    data = bytearray(path.read_bytes())
    data[20:28] = struct.pack("<d", np.inf)  # x0
    path.write_bytes(bytes(data))
    code, out, err = run(capsys, "norm", "kind=lhat,r=2.0", str(path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "finite" in err


def test_gf_info_oversized_stf_header_exits_1(tmp_path, capsys):
    path = tmp_path / "huge.stf"
    path.write_bytes(b"STF1" + struct.pack("<QQdd", 2 ** 40, 64, 8.0, 0.0))
    code, out, err = run(capsys, "gf", "info", str(path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "unexpected end of data" in err


def test_gf_info_empty_stf(tmp_path, capsys):
    path = tmp_path / "empty.stf"
    path.write_bytes(b"STF1" + struct.pack("<QQdd", 0, 64, 8.0, 0.0))
    code, out, _ = run(capsys, "gf", "info", str(path), "--no-timestamps")
    assert code == 0
    payload = json.loads(out)
    assert payload["frames"] == 0 and payload["t_range"] == []


def test_norm_bad_spec_exits_1(tmp_path, capsys):
    path = tmp_path / "g.gf"
    write_sample(path)
    code, _, err = run(capsys, "norm", "kind=sobolev,r=2.0", str(path))
    assert code == 1
    assert "unknown norm kind" in err


def test_gf_info_and_convert(tmp_path, capsys):
    path = tmp_path / "g.gf"
    f = write_sample(path)
    code, out, _ = run(capsys, "gf", "info", str(path), "--no-timestamps")
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == "GF01"
    assert payload["n"] == 256
    assert payload["l2_norm"] == pytest.approx(f.l2_norm())

    fourier_path = tmp_path / "g_hat.gf"
    code, out, _ = run(capsys, "gf", "convert", str(path), str(fourier_path),
                       "--side", "fourier", "--no-timestamps")
    assert code == 0
    back = read_grid_function(fourier_path)
    assert back.side == FOURIER
    assert np.max(np.abs(back.values - f.to_fourier().values)) < 1e-12

    csv_path = tmp_path / "g.csv"
    code, out, _ = run(capsys, "gf", "convert", str(path), str(csv_path),
                       "--no-timestamps")
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "x,re,im"


def test_gf_convert_requires_output(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gf", "convert", "whatever.gf"])
    assert info.value.code == 2


def test_gf_convert_unknown_extension(tmp_path, capsys):
    path = tmp_path / "g.gf"
    write_sample(path)
    with pytest.raises(SystemExit) as info:
        main(["gf", "convert", str(path), str(tmp_path / "g.txt")])
    assert info.value.code == 2
    assert "unsupported output extension: .txt" in capsys.readouterr().err
    assert not (tmp_path / "g.txt").exists()


def test_solve_gkdv_gaussian(tmp_path, capsys):
    out_path = tmp_path / "run.stf"
    csv_path = tmp_path / "run.csv"
    code, out, _ = run(capsys, "solve", "gkdv", "--n", "256", "--t-end", "0.02",
                       "--dt", "1e-3", "--store-every", "10",
                       "--out", str(out_path), "--csv", str(csv_path),
                       "--no-timestamps")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["equation"] == "gkdv"
    assert payload["mass_drift"] < 1e-8
    assert payload["frames"] >= 2
    assert out_path.exists() and csv_path.exists()
    assert csv_path.read_text().splitlines()[0] == "t,mass,sup"

    code, out, _ = run(capsys, "norm", "kind=spacetime_X,r=1.8,s=0.0",
                       str(out_path), "--no-timestamps")
    assert code == 0
    assert json.loads(out)["value"] > 0

    # no field reads a preset name, so a spec naming one is rejected
    code, out, err = run(capsys, "norm", "kind=spacetime_X,r=1.9,preset=L",
                         str(out_path), "--no-timestamps")
    assert code == 1 and out == ""
    assert err.splitlines() == ["unknown norm spec key 'preset'"]


def test_solve_reports_health_and_warnings(capsys):
    code, out, err = run(capsys, "solve", "gkdv", "--alpha", "1.0", "--preset", "soliton",
                         "--t-end", "0.1", "--no-timestamps")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["config"]["dt"] is None  # the default: solve picks dt
    assert payload["steps"] == round(0.1 / payload["dt"])
    assert payload["mass_drift"] < 1e-10
    assert payload["energy_drift"] < 1e-10
    assert payload["t_reached"] == pytest.approx(payload["steps"] * payload["dt"])
    [line] = payload["warnings"]
    assert re.fullmatch(r"cli\.py:\d+: UserWarning: alpha=1\.0 is outside the range .*", line)


@pytest.mark.parametrize("t_end, t_reached", [("1e-4", 1e-3), ("-1e-4", -1e-3)])
def test_solve_reports_the_time_reached_and_warns_on_overshoot(capsys, t_end, t_reached):
    code, out, err = run(capsys, "solve", "nls", "--n", "64", f"--t-end={t_end}",
                         "--dt", "1e-3", "--no-timestamps")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["steps"] == 1 and payload["t_reached"] == pytest.approx(t_reached)
    [line] = payload["warnings"]
    assert re.fullmatch(r"cli\.py:\d+: UserWarning: the solve ends at \|t\|=0\.001, "
                        r"not \|t_end\|=0\.0001: 1 step\(s\) of dt=0\.001", line)


@pytest.mark.parametrize("t_end", [0.01, -0.01, 1.3])
def test_solve_default_dt_lands_on_t_end(capsys, t_end):
    # suggest_dt is 0.4785 on this grid: 1, 1 and 3 steps
    code, out, err = run(capsys, "solve", "nls", "--n", "64", f"--t-end={t_end}",
                         "--no-timestamps")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert abs(payload["t_reached"] - t_end) <= 1e-15 * abs(t_end)
    assert payload["warnings"] == []
    grid = Grid(64, payload["config"]["length"], -payload["config"]["length"] / 2.0)
    assert payload["dt"] <= suggest_dt(grid)
    assert payload["steps"] == math.ceil(abs(t_end) / suggest_dt(grid))


@pytest.mark.parametrize("argv, message", [
    (["embed", "--n", "64", "--xi", "4", "--t-end", "0.1", "--alpha", "nan"],
     "alpha must be positive and finite, got nan"),
    (["solve", "gkdv", "--n", "64", "--coupling", "nan"],
     "coupling must be nonnegative and finite, got nan"),
    (["solve", "nls", "--n", "64", "--alpha", "inf"],
     "alpha must be positive and finite, got inf"),
])
def test_non_finite_solver_parameter_exits_1(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--no-timestamps")
    assert code == 1 and out == ""
    assert err == message + "\n"


def test_embed_blowup_exits_1_with_one_line(capsys, monkeypatch):
    def blowing_up(cfg):
        raise BlowupError(0.25, None)

    monkeypatch.setattr("dlab.cli.embedding_experiment", blowing_up)
    code, out, err = run(capsys, "embed", "--n", "64", "--xi", "4", "--no-timestamps")
    assert code == 1 and out == ""
    assert err == "embed: blow-up or instability detected after t=0.25\n"


@pytest.mark.parametrize("xi", ["inf", "nan", "1e308"])
def test_embed_non_finite_carrier_exits_1_with_one_line(capsys, xi):
    code, out, err = run(capsys, "embed", "--n", "64", "--xi", xi, "--no-timestamps")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"frequency {float(xi)} gives no finite lattice index")


@pytest.mark.parametrize("argv, message", [
    (["--t-end=inf"], "t_end must be finite and nonzero, got inf"),
    (["--t-end=0"], "t_end must be finite and nonzero, got 0.0"),
    (["--dt=inf"], "dt must be positive and finite, got inf"),
    (["--t-end=1e13", "--dt=1e-3"], "2e+14 frames of 512 points need 1.64e+18 bytes"),
])
def test_solve_bad_time_range_exits_1(capsys, argv, message):
    code, out, err = run(capsys, "solve", "nls", *argv, "--no-timestamps")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(message)


def test_verify_soliton_lists_the_range_warning(capsys):
    code, out, err = run(capsys, "verify", "soliton", "--no-timestamps")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["warnings"] == []
    [line] = payload["results"][0]["warnings"]
    assert re.fullmatch(r"checks\.py:\d+: UserWarning: alpha=1\.0 is outside the range .*",
                        line)


def sample_argv(tmp_path, command):
    """A quick run of `command` on a sample GF01 file written under tmp_path."""
    gf = tmp_path / "g.gf"
    write_sample(gf)
    manifest = tmp_path / "inputs.json"
    manifest.write_text(json.dumps({"inputs": ["g.gf"]}))
    return {
        "solve": ["solve", "nls", "--n", "64", "--t-end", "0.01", "--dt", "1e-3"],
        "norm": ["norm", "kind=lhat,r=2.0", str(gf)],
        "embed": ["embed", "--xi", "4", "--n", "64", "--t-end", "0.1"],
        "profiles": ["profiles", "extract", str(manifest), "--t-scan", "0.1",
                     "--out", str(tmp_path / "out")],
        "profiles decompose": ["profiles", "decompose", str(manifest), "--t-scan", "0.1",
                               "--out", str(tmp_path / "out")],
        "verify": ["verify", "exponents"],
        "gf info": ["gf", "info", str(gf)],
        "gf convert": ["gf", "convert", str(gf), str(tmp_path / "g.csv")],
    }[command]


@pytest.mark.parametrize("command", ["solve", "norm", "embed", "profiles", "verify",
                                     "gf info", "gf convert"])
def test_every_report_lists_its_warnings(tmp_path, capsys, command):
    argv = sample_argv(tmp_path, command)
    code, out, err = run(capsys, *argv, "--no-timestamps")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["command"].startswith(command.split()[0])
    assert isinstance(payload["warnings"], list)
    assert all(isinstance(line, str) for line in payload["warnings"])


@pytest.mark.parametrize("command, extra, expect, absent", [
    ("solve", ["--store-every", "5"], {"equation": "nls", "store_every": 5}, ()),
    ("norm", [], {"spec": "kind=lhat,r=2.0"}, ()),
    ("embed", ["--dt", "5e-4"], {"dt": 5e-4, "alpha": 1.9}, ()),
    ("profiles", [], {"alpha": 1.8, "t_scan": 0.1}, ("sigma", "j_max")),
    ("profiles decompose", ["--j-max", "2"], {"j_max": 2, "sigma": 3.0}, ()),
    ("verify", ["--seed", "4"], {"battery": "exponents", "seed": 4}, ()),
    ("gf info", [], {}, ("side", "output")),
    ("gf convert", [], {"side": "physical"}, ()),
])
def test_every_config_is_the_parsed_arguments(tmp_path, capsys, command, extra, expect,
                                              absent):
    argv = [*sample_argv(tmp_path, command), *extra, "--no-timestamps"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    parsed = vars(build_parser().parse_args(argv))
    del parsed["func"]
    assert payload["command"] == " ".join(
        parsed.pop(key) for key in ("command", "action") if key in parsed)
    assert payload["config"] == parsed
    assert parsed["no_timestamps"] is True
    for key, value in expect.items():
        assert payload["config"][key] == value
    assert not set(absent) & set(payload["config"])


def test_embed_lists_its_warnings_in_the_report(capsys):
    code, out, err = run(capsys, "embed", "--alpha", "1.5", "--xi", "4", "--n", "64",
                         "--t-end", "0.1", "--no-timestamps")
    assert code == 0 and err == ""
    lines = json.loads(out)["warnings"]
    solver = [w for w in lines if "alpha=1.5 is outside the range" in w]
    harmonic = [w for w in lines if "third harmonic" in w]
    # one alpha-range warning per equation, from the SolveConfigs of embedding.py
    assert len(solver) == 2 and all(w.startswith("embedding.py:") for w in solver)
    assert len(harmonic) == 1 and harmonic[0].startswith("cli.py:")
    assert len(lines) == 3


def test_recording_keeps_the_error_filter(tmp_path, capsys, monkeypatch):
    # pyproject.toml makes a RuntimeWarning an error; main records warnings under
    # the process's filters, so it still raises instead of landing in the report
    path = tmp_path / "g.gf"
    write_sample(path)

    def overflowing(f, r):
        warnings.warn("overflow encountered", RuntimeWarning)
        return 1.0

    monkeypatch.setattr("dlab.cli.lhat_norm", overflowing)
    with pytest.raises(RuntimeWarning, match="overflow encountered"):
        main(["norm", "kind=lhat,r=2.0", str(path), "--no-timestamps"])
    assert capsys.readouterr().out == ""


def test_warning_from_a_helper_block_lands_in_the_report(tmp_path, capsys, monkeypatch,
                                                        on_helper):
    path = tmp_path / "g.gf"
    write_sample(path)

    def warn(rows, block):
        warnings.warn(f"raised on a helper at row {rows.start}", UserWarning)

    def norm_with_row_blocks(f, r):
        rows = np.tile(f.values, (3 * ROW_BLOCK, 1))
        map_row_blocks(on_helper(warn), f.grid, rows, symbol=np.ones(f.grid.n))
        return 1.0

    monkeypatch.setattr("dlab.cli.lhat_norm", norm_with_row_blocks)
    code, out, err = run(capsys, "norm", "kind=lhat,r=2.0", str(path), "--no-timestamps")
    assert code == 0 and err == ""
    lines = json.loads(out)["warnings"]
    assert lines and all("UserWarning: raised on a helper at row" in w for w in lines)


def test_embed_zero_dt_exits_1(capsys):
    code, out, err = run(capsys, "embed", "--dt", "0", "--n", "64", "--no-timestamps")
    assert code == 1 and out == ""
    assert err == "nls_dt must be positive and finite, got 0.0\n"


def test_non_finite_result_exits_1_with_empty_stdout(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.gf"
    write_sample(path)
    monkeypatch.setattr("dlab.cli.lhat_norm", lambda f, r: float("nan"))
    code, out, err = run(capsys, "norm", "kind=lhat,r=2.0", str(path), "--no-timestamps")
    assert code == 1
    assert out == ""
    assert err == "norm: result is not finite\n"


def test_profiles_extract_round_trip(tmp_path, capsys):
    from dlab.deformations import Deformation, apply
    g = Grid(1024, 2 * np.pi * 16, -np.pi * 16)
    xi = g.frequencies()
    mask = (xi >= 0.0) & (xi < 1.0)
    psi = GridFunction(g, (np.exp(-((xi - 0.5) * 4.0) ** 2) * mask).astype(complex),
                       FOURIER)
    u = apply(Deformation(1, xi=3.0, s=0.02, y=0.5), psi, d_exponent=1.8)
    write_grid_function(u, tmp_path / "u0.gf")
    manifest = tmp_path / "inputs.json"
    manifest.write_text(json.dumps({"inputs": ["u0.gf"]}))
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "profiles", "extract", str(manifest),
                       "--alpha", "1.8",
                       "--t-scan", "0.1", "--out", str(out_dir),
                       "--no-timestamps")
    assert code == 0
    payload = json.loads(out)
    assert not payload["degenerate"]
    assert len(payload["deformations"]) == 1
    assert payload["deformations"][0].startswith("h=2")
    assert (out_dir / "psi.gf").exists()
    assert (out_dir / "residual_0.gf").exists()


@pytest.mark.parametrize("action", ["extract", "decompose"])
def test_profiles_on_a_non_dyadic_grid_exit_1_and_write_nothing(tmp_path, capsys, action):
    g = Grid(256, 40 * np.pi, -20 * np.pi)  # dxi = 0.05, the solver's default grid
    write_grid_function(GridFunction(g, np.exp(-g.nodes() ** 2).astype(complex)),
                        tmp_path / "u0.gf")
    manifest = tmp_path / "inputs.json"
    manifest.write_text(json.dumps({"inputs": ["u0.gf"]}))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "profiles", action, str(manifest), "--out", str(out_dir),
                         "--no-timestamps")
    assert code == 1
    assert out == ""
    assert err == "frequency spacing 0.05 is not a power of two\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("listing", [{}, [1], {"inputs": [3]}])
def test_profiles_malformed_manifest_exits_1_and_writes_nothing(tmp_path, capsys, listing):
    manifest = tmp_path / "inputs.json"
    manifest.write_text(json.dumps(listing))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "profiles", "extract", str(manifest), "--out", str(out_dir),
                         "--no-timestamps")
    assert code == 1 and out == ""
    assert err == f'{manifest}: a profiles manifest must be {{"inputs": [paths]}}\n'
    assert not out_dir.exists()


@pytest.mark.parametrize("action", ["extract", "decompose"])
@pytest.mark.parametrize("t_scan", ["inf", "nan", "0", "-1", "1e200", "1e308"])
def test_profiles_bad_t_scan_exits_1_and_writes_nothing(tmp_path, capsys, action, t_scan):
    write_sample(tmp_path / "u0.gf")
    manifest = tmp_path / "inputs.json"
    manifest.write_text(json.dumps({"inputs": ["u0.gf"]}))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "profiles", action, str(manifest),
                         "--alpha", "1.8", f"--t-scan={t_scan}",
                         "--out", str(out_dir), "--no-timestamps")
    assert code == 1
    assert out == ""
    message = ("t_scan must be positive and finite" if not 0 < float(t_scan) < math.inf
               else f"t_scan {float(t_scan)} puts Airy phases up to")
    assert err.count("\n") == 1 and err.startswith(message)
    assert not out_dir.exists()


def test_import_loads_no_scipy():
    # scipy.integrate / special / linalg drag scipy.optimize, numpy.f2py and
    # numpy.testing into every dlab process; dlab needs only numpy, so a fresh
    # import of the CLI must not load any scipy module.  Nor may it load
    # concurrent.futures (which loads logging, about 8 ms): the helper pool
    # imports it on first use, so a command that runs no row blocks or
    # solve tasks does not pay for it
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, dlab, dlab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
