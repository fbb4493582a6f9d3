"""Command line front end.

Subcommands: solve gkdv|nls, norm, embed, profiles extract|decompose,
verify <battery>, gf info|convert.  Each subcommand and action declares
only the options its cmd_* reads; a norm's dyadic window is the spec's
j_min and j_max, which only morrey_hat and ell accept.  Each cmd_*
returns its exit code and what it computed (solve: the resolved dt
beside steps and t_reached); main runs it under
one warnings recorder and writes the report to stdout as JSON, adding
the command, every parsed argument with its default filled in under
"config", and the warnings the run raised as
"<file>:<line>: <Category>: <message>" lines.  CSV tables go to --csv
where a command writes one.  Exit code 0 when all requested checks pass,
1 on a failed check or bad data (one line on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .grid import PHYSICAL, Grid, GridFunction
from . import checks as _checks
from .evolutions import (BlowupError, SolveConfig, drift, energy, gkdv_solve, mass,
                         nls_solve, soliton_Q, suggest_dt)
from .embedding import EmbeddingConfig, embedding_experiment
from .fileio import (GF_MAGIC, STF_MAGIC, read_grid_function, read_space_time_field,
                     write_grid_function, write_space_time_field)
from .norms import NormSpec, ell, lhat_norm, morrey_norm, spacetime_norm
from .profiles import extract_profile, profile_decompose

VERIFY_BATTERIES = {name: fn for _, name, fn in _checks.BATTERIES}


def _json_default(obj):
    if isinstance(obj, warnings.WarningMessage):
        return (f"{os.path.basename(obj.filename)}:{obj.lineno}: "
                f"{obj.category.__name__}: {obj.message}")
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit(manifest: dict, args) -> None:
    """Write the manifest as JSON; a NaN or infinity in it raises ValueError
    before anything reaches stdout."""
    if not args.no_timestamps:
        manifest["wall_clock"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest["version"] = __version__
    try:
        text = json.dumps(manifest, indent=2, default=_json_default, allow_nan=False)
    except ValueError:
        raise ValueError(f"{manifest['command']}: result is not finite") from None
    sys.stdout.write(text + "\n")


def _write_csv(path: str, columns: dict) -> None:
    """CSV with a column per entry of `columns`, written as plain Python values
    (floats; a flag such as `harmonics_resolved` as True/False)."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns.values())))


def _convert_output(path: str) -> str:
    """argparse type of gf convert's output: a .csv or a .gf path."""
    ext = os.path.splitext(path)[1]
    if ext not in (".csv", ".gf"):
        raise argparse.ArgumentTypeError(f"unsupported output extension: {ext}")
    return path


def _make_grid(args) -> Grid:
    return Grid(args.n, args.length, -args.length / 2.0)


def _initial_data(args, grid: Grid) -> GridFunction:
    if args.preset == "gaussian":
        x = grid.nodes()
        return GridFunction(grid, np.exp(-x ** 2).astype(complex), PHYSICAL)
    if args.preset == "soliton":
        return soliton_Q(args.alpha, grid)
    return read_grid_function(args.preset)


def _default_dt(grid: Grid, t_end: float) -> float:
    """The largest step no longer than suggest_dt(grid) that lands on t_end in
    whole steps; suggest_dt itself when |t_end| / suggest_dt is not a finite
    positive number, which SolveConfig then rejects."""
    dt = suggest_dt(grid)
    steps = abs(t_end) / dt
    return abs(t_end) / math.ceil(steps) if 0 < steps < math.inf else dt


def cmd_solve(args) -> tuple[int, dict]:
    grid = _make_grid(args)
    u0 = _initial_data(args, grid)
    dt = args.dt if args.dt is not None else _default_dt(grid, args.t_end)
    solver = gkdv_solve if args.equation == "gkdv" else nls_solve
    cfg = SolveConfig(alpha=args.alpha, mu=args.mu, coupling=args.coupling,
                      t_end=args.t_end, dt=dt, store_every=args.store_every)
    try:
        run = solver(u0, cfg)
    except BlowupError as err:
        return 1, {"blowup": True, "t_last": err.t_last}
    masses = mass(run.grid, run.values)
    # times ascend either way, so a backward solve ends at the first frame
    health = {"steps": cfg.n_steps, "dt": dt,
              "t_reached": run.times[0 if args.t_end < 0 else -1],
              "mass_drift": drift(masses)}
    if args.equation == "gkdv":
        health["energy_drift"] = drift(
            energy(run.grid, run.values, args.alpha, args.mu * args.coupling))
    if args.out:
        write_space_time_field(run, args.out)
    if args.csv:
        _write_csv(args.csv, {"t": run.times, "mass": masses,
                              "sup": np.max(np.abs(run.values), axis=1)})
    return 0, {"frames": len(run), **health}


def cmd_norm(args) -> tuple[int, dict]:
    spec = NormSpec.parse(args.spec)
    report = {"spec": spec.serialize()}
    if spec.kind in ("spacetime_X", "spacetime_Y"):
        field = read_space_time_field(args.input)
        report["value"] = spacetime_norm(field, spec)
        report["frames"] = len(field)
    else:
        f = read_grid_function(args.input)
        if spec.kind == "lhat":
            report["value"] = lhat_norm(f, spec.r)
        elif spec.kind == "morrey_hat":
            report["value"] = morrey_norm(f, spec.p, spec.q, spec.r, window=spec.window)
        else:  # ell
            report["value"], report["minimizer_xi"] = ell(f, spec.p, spec.sigma,
                                                          window=spec.window)
    return 0, report


def cmd_embed(args) -> tuple[int, dict]:
    grid = _make_grid(args)
    x = grid.nodes()
    phi = GridFunction(grid, np.exp(-x ** 2).astype(complex), PHYSICAL)
    xi_list = tuple(float(v) for v in args.xi.split(","))
    cfg = EmbeddingConfig(alpha=args.alpha, phi=phi, xi_list=xi_list,
                          T=args.t_end, nls_dt=args.dt)
    try:
        rows = embedding_experiment(cfg)
    except BlowupError as err:
        raise ValueError(f"embed: {err}") from None
    if args.csv:
        _write_csv(args.csv, {key: [r[key] for r in rows] for key in rows[0]})
    errs = [r["err_lhat_alpha"] for r in rows]
    return 0, {"rows": rows,
               "error_decreasing": all(b < a for a, b in zip(errs, errs[1:]))}


def _read_inputs(manifest: str) -> list[GridFunction]:
    """The GF01 states a profiles manifest lists, relative to the manifest."""
    with open(manifest) as fh:
        listing = json.load(fh)
    names = listing.get("inputs") if isinstance(listing, dict) else None
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise ValueError(f"{manifest}: a profiles manifest must be {{\"inputs\": [paths]}}")
    base = os.path.dirname(os.path.abspath(manifest))
    return [read_grid_function(os.path.join(base, name)) for name in names]


def _write_states(out_dir: str, stem: str, states) -> None:
    """Write the states to out_dir as <stem>_<i>.gf, making out_dir if needed."""
    os.makedirs(out_dir, exist_ok=True)
    for i, f in enumerate(states):
        write_grid_function(f, os.path.join(out_dir, f"{stem}_{i}.gf"))


def cmd_profiles_extract(args) -> tuple[int, dict]:
    psi, gammas, residuals, diag = extract_profile(
        _read_inputs(args.manifest), args.alpha, t_scan=args.t_scan)
    _write_states(args.out, "residual", residuals)
    write_grid_function(psi, os.path.join(args.out, "psi.gf"))
    return 0, {"deformations": [g.serialize() for g in gammas],
               "selector": diag["selector"],
               "degenerate": diag.get("degenerate", False)}


def cmd_profiles_decompose(args) -> tuple[int, dict]:
    dec = profile_decompose(_read_inputs(args.manifest), args.alpha, args.sigma,
                            j_max=args.j_max, t_scan=args.t_scan)
    _write_states(args.out, "psi", [psi for psi, _ in dec.profiles])
    _write_states(args.out, "residual", dec.residuals)
    d = dec.diagnostics
    return 0, {"profiles": [{"index": j, "deformations": [g.serialize() for g in gammas]}
                            for j, (_, gammas) in enumerate(dec.profiles)],
               "selector_values": d["selector_values"],
               "ledger_entries": d["ledger_entries"],
               "ledger_sum": d["ledger_sum"],
               "ell_input": d["ell_input"],
               "ell_residual": d["ell_residual"],
               "orthogonality_gaps": d["orthogonality_gaps"],
               "nonresonance_gaps": d["nonresonance_gaps"]}


def cmd_verify(args) -> tuple[int, dict]:
    names = list(VERIFY_BATTERIES) if args.battery == "all" else [args.battery]
    results = [_checks.run_battery(VERIFY_BATTERIES[name], args.seed) for name in names]
    ok = all(r["passed"] for r in results)
    return (0 if ok else 1), {"results": results, "passed": ok}


def cmd_gf_info(args) -> tuple[int, dict]:
    with open(args.input, "rb") as fh:
        magic = fh.read(len(STF_MAGIC))
    if magic == STF_MAGIC:
        field = read_space_time_field(args.input)
        return 0, {"format": STF_MAGIC.decode(), "frames": len(field),
                   "n": field.grid.n, "length": field.grid.length, "x0": field.grid.x0,
                   "t_range": field.times[[0, -1]].tolist() if len(field) else []}
    f = read_grid_function(args.input)
    return 0, {"format": GF_MAGIC.decode(),
               "n": f.grid.n, "length": f.grid.length, "x0": f.grid.x0,
               "side": f.side, "l2_norm": f.l2_norm(),
               "sup": float(np.max(np.abs(f.values)))}


def cmd_gf_convert(args) -> tuple[int, dict]:
    f = read_grid_function(args.input)
    if args.output.endswith(".csv"):
        fp = f.to_physical()
        _write_csv(args.output, {"x": fp.grid.nodes(), "re": fp.values.real,
                                 "im": fp.values.imag})
    else:
        write_grid_function(f.to_fourier() if args.side == "fourier" else f.to_physical(),
                            args.output)
    return 0, {}


def _add_common(p: argparse.ArgumentParser, func) -> None:
    """The option every action takes, and the cmd_* the action runs."""
    p.add_argument("--no-timestamps", action="store_true")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlab", description="spectral dispersive-equation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a nonlinear solver")
    p.add_argument("equation", choices=["gkdv", "nls"])
    p.add_argument("--alpha", type=float, default=1.8)
    p.add_argument("--mu", type=int, default=-1, choices=[-1, 1])
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--length", type=float, default=40.0 * math.pi)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", type=float, default=0.5)
    p.add_argument("--store-every", type=int, default=50)
    p.add_argument("--preset", default="gaussian",
                   help="gaussian, soliton, or a GF01 file path")
    p.add_argument("--out", default=None, help="STF1 file for the trajectory")
    p.add_argument("--csv", default=None, help="CSV file for per-frame mass and sup")
    _add_common(p, cmd_solve)

    p = sub.add_parser("norm", help="evaluate a norm on stored data")
    p.add_argument("spec", help="key=value norm specification; "
                   "j_min and j_max set the dyadic window of morrey_hat and ell")
    p.add_argument("input", help="GF01 or STF1 file")
    _add_common(p, cmd_norm)

    p = sub.add_parser("embed", help="carrier-frequency embedding sweep")
    p.add_argument("--alpha", type=float, default=1.9)
    p.add_argument("--xi", default="8,16,32,64",
                   help="comma-separated carrier frequencies")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--length", type=float, default=8.0 * math.pi)
    p.add_argument("--dt", type=float, default=1e-3, help="NLS time step")
    p.add_argument("--t-end", type=float, default=1.0,
                   help="handoff time T")
    p.add_argument("--csv", default=None, help="CSV file for the result rows")
    _add_common(p, cmd_embed)

    actions = sub.add_parser("profiles", help="profile extraction").add_subparsers(
        dest="action", required=True)
    for name, func, summary in (("extract", cmd_profiles_extract, "extract one profile"),
                                ("decompose", cmd_profiles_decompose,
                                 "iterated profile decomposition")):
        p = actions.add_parser(name, help=summary)
        p.add_argument("manifest", help='JSON file with {"inputs": [gf paths]}')
        p.add_argument("--alpha", type=float, default=1.8)
        if func is cmd_profiles_decompose:
            p.add_argument("--sigma", type=float, default=3.0)
            p.add_argument("--j-max", type=int, default=4)
        p.add_argument("--t-scan", type=float, default=None,
                       help="half-width of the Airy-parameter scan")
        p.add_argument("--out", default=".", help="directory for the GF01 outputs")
        _add_common(p, func)

    p = sub.add_parser("verify", help="run a verification battery")
    p.add_argument("battery", choices=sorted(VERIFY_BATTERIES) + ["all"])
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled batteries")
    _add_common(p, cmd_verify)

    actions = sub.add_parser("gf", help="grid file tooling").add_subparsers(
        dest="action", required=True)
    p = actions.add_parser("info", help="describe a GF01 or STF1 file")
    p.add_argument("input")
    _add_common(p, cmd_gf_info)
    p = actions.add_parser("convert", help="rewrite a GF01 file as .gf or .csv")
    p.add_argument("input")
    p.add_argument("output", type=_convert_output, help="a .gf or a .csv path")
    p.add_argument("--side", choices=["physical", "fourier"], default="physical",
                   help="side of a .gf output")
    _add_common(p, cmd_gf_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and emit its report: what it computed, its parsed
    arguments as "config" and the warnings it raised."""
    args = build_parser().parse_args(argv)
    config = dict(vars(args))
    func = config.pop("func")
    command = " ".join(config.pop(key) for key in ("command", "action") if key in config)
    try:
        # the process's filters stay, so one that makes a warning an error still raises
        with warnings.catch_warnings(record=True) as caught:
            code, computed = func(args)
        report = {"command": command, **computed, "config": config, "warnings": caught}
        _emit(report, args)
    except (ValueError, OSError) as err:
        print(str(err), file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
