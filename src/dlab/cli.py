"""Command line front end.

Subcommands: solve gkdv|nls, norm, embed, profiles extract|decompose,
verify <battery>, gf info|convert.  Results go to stdout as JSON; CSV
tables go to --csv where a command writes one.  Exit code 0 when all
requested checks pass, 1 on a failed check or bad data, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .grid import FOURIER, PHYSICAL, Grid, GridFunction
from . import checks as _checks
from .evolutions import (BlowupError, SolveConfig, drift, energy, gkdv_solve, mass,
                         nls_solve, soliton_Q, suggest_dt)
from .embedding import EmbeddingConfig, embedding_experiment
from .fileio import (GridFileError, read_grid_function, read_space_time_field,
                     write_grid_function, write_space_time_field)
from .norms import NormSpec, ell, lhat_norm, morrey_norm, spacetime_norm
from .profiles import extract_profile, profile_decompose

VERIFY_BATTERIES = {name: fn for _, name, fn in _checks.BATTERIES}


def _json_default(obj):
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
    """CSV with a column per entry of `columns`, written as plain Python floats."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns.values())))


def _window(text: str) -> tuple[int, int]:
    """argparse type of --window: jmin:jmax."""
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected jmin:jmax, got {text!r}") from None


def _make_grid(args) -> Grid:
    return Grid(args.n, args.length, -args.length / 2.0)


def _initial_data(args, grid: Grid) -> GridFunction:
    if args.preset == "gaussian":
        x = grid.nodes()
        return GridFunction(grid, np.exp(-x ** 2).astype(complex), PHYSICAL)
    if args.preset == "soliton":
        return soliton_Q(args.alpha, grid)
    return read_grid_function(args.preset)


def cmd_solve(args) -> int:
    grid = _make_grid(args)
    u0 = _initial_data(args, grid)
    dt = args.dt if args.dt is not None else suggest_dt(grid)
    solver = gkdv_solve if args.equation == "gkdv" else nls_solve
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        cfg = SolveConfig(alpha=args.alpha, mu=args.mu, coupling=args.coupling,
                          t_end=args.t_end, dt=dt, store_every=args.store_every)
        try:
            run = solver(u0, cfg)
        except BlowupError as err:
            _emit({"command": "solve", "equation": args.equation,
                   "blowup": True, "t_last": err.t_last,
                   "warnings": _checks.warning_lines(caught)}, args)
            return 1
        masses = mass(run.grid, run.values)
        health = {"steps": cfg.n_steps, "mass_drift": drift(masses)}
        if args.equation == "gkdv":
            health["energy_drift"] = drift(
                energy(run.grid, run.values, args.alpha, args.mu * args.coupling))
    if args.out:
        write_space_time_field(run, args.out)
    if args.csv:
        _write_csv(args.csv, {"t": run.times, "mass": masses,
                              "sup": np.max(np.abs(run.values), axis=1)})
    _emit({"command": "solve", "equation": args.equation,
           "config": {"alpha": args.alpha, "mu": args.mu,
                      "coupling": args.coupling, "t_end": args.t_end,
                      "dt": dt, "n": args.n, "length": args.length,
                      "preset": args.preset, "store_every": args.store_every},
           "frames": len(run), **health, "out": args.out,
           "warnings": _checks.warning_lines(caught)}, args)
    return 0


def cmd_norm(args) -> int:
    import dataclasses
    spec = NormSpec.parse(args.spec)
    if args.window:
        lo, hi = args.window
        spec = dataclasses.replace(spec, j_min=lo, j_max=hi)
    extra = {}
    try:
        if spec.kind in ("spacetime_X", "spacetime_Y"):
            field = read_space_time_field(args.input)
            value = spacetime_norm(field, spec)
            extra["frames"] = len(field)
        else:
            f = read_grid_function(args.input)
            if spec.kind == "lhat":
                value = lhat_norm(f, spec.r)
            elif spec.kind == "morrey_hat":
                value = morrey_norm(f, spec.p, spec.q, spec.r,
                                    window=spec.window)
            else:  # ell
                value, minimizer = ell(f, spec.p, spec.sigma,
                                       window=spec.window)
                extra["minimizer_xi"] = minimizer
    except GridFileError as err:
        print(str(err), file=sys.stderr)
        return 1
    _emit({"command": "norm", "spec": spec.serialize().replace("\n", ","),
           "input": args.input, "value": value, **extra}, args)
    return 0


def cmd_embed(args) -> int:
    grid = _make_grid(args)
    x = grid.nodes()
    phi = GridFunction(grid, np.exp(-x ** 2).astype(complex), PHYSICAL)
    xi_list = tuple(float(v) for v in args.xi.split(","))
    cfg = EmbeddingConfig(alpha=args.alpha, phi=phi, xi_list=xi_list,
                          T=args.t_end, nls_dt=args.dt or 1e-3)
    rows = embedding_experiment(cfg)
    if args.csv:
        _write_csv(args.csv, {key: [r[key] for r in rows] for key in rows[0]})
    errs = [r["err_lhat_alpha"] for r in rows]
    _emit({"command": "embed",
           "config": {"alpha": args.alpha, "xi_list": list(xi_list),
                      "T": args.t_end, "n": args.n, "length": args.length},
           "rows": rows,
           "error_decreasing": all(b < a for a, b in zip(errs, errs[1:]))},
          args)
    return 0


def cmd_profiles(args) -> int:
    with open(args.manifest) as fh:
        listing = json.load(fh)
    base = os.path.dirname(os.path.abspath(args.manifest))
    u_list = [read_grid_function(os.path.join(base, name))
              for name in listing["inputs"]]
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    if args.action == "extract":
        psi, gammas, residuals, diag = extract_profile(
            u_list, args.alpha, t_scan=args.t_scan)
        write_grid_function(psi, os.path.join(out_dir, "psi.gf"))
        for i, r in enumerate(residuals):
            write_grid_function(r, os.path.join(out_dir, f"residual_{i}.gf"))
        report = {"command": "profiles extract",
                  "deformations": [g.serialize() for g in gammas],
                  "selector": diag["selector"],
                  "degenerate": diag.get("degenerate", False),
                  "out": out_dir}
    else:
        dec = profile_decompose(u_list, args.alpha, args.sigma,
                                j_max=args.j_max, t_scan=args.t_scan)
        for j, (psi, gammas) in enumerate(dec.profiles):
            write_grid_function(psi, os.path.join(out_dir, f"psi_{j}.gf"))
        for i, r in enumerate(dec.residuals):
            write_grid_function(r, os.path.join(out_dir, f"residual_{i}.gf"))
        d = dec.diagnostics
        report = {"command": "profiles decompose",
                  "profiles": [
                      {"index": j,
                       "deformations": [g.serialize() for g in gammas]}
                      for j, (_, gammas) in enumerate(dec.profiles)],
                  "selector_values": d["selector_values"],
                  "ledger_entries": d["ledger_entries"],
                  "ledger_sum": d["ledger_sum"],
                  "ell_input": d["ell_input"],
                  "ell_residual": d["ell_residual"],
                  "orthogonality_gaps": d["orthogonality_gaps"],
                  "nonresonance_gaps": d["nonresonance_gaps"],
                  "out": out_dir}
    report["config"] = {"alpha": args.alpha, "sigma": args.sigma}
    _emit(report, args)
    return 0


def cmd_verify(args) -> int:
    names = list(VERIFY_BATTERIES) if args.battery == "all" else [args.battery]
    results = []
    for fn in (VERIFY_BATTERIES[name] for name in names):
        seeded = "seed" in inspect.signature(fn).parameters
        results.append(fn(seed=args.seed) if seeded else fn())
    ok = all(r["passed"] for r in results)
    _emit({"command": "verify", "battery": args.battery,
           "config": {"seed": args.seed}, "results": results,
           "passed": ok}, args)
    return 0 if ok else 1


def cmd_gf(args) -> int:
    try:
        if args.action == "info":
            with open(args.input, "rb") as fh:
                magic = fh.read(4)
            if magic == b"STF1":
                field = read_space_time_field(args.input)
                _emit({"command": "gf info", "input": args.input,
                       "format": "STF1", "frames": len(field),
                       "n": field.grid.n, "length": field.grid.length,
                       "x0": field.grid.x0,
                       "t_range": field.times[[0, -1]].tolist() if len(field) else []},
                      args)
                return 0
            f = read_grid_function(args.input)
            _emit({"command": "gf info", "input": args.input,
                   "format": "GF01",
                   "n": f.grid.n, "length": f.grid.length, "x0": f.grid.x0,
                   "side": f.side, "l2_norm": f.l2_norm(),
                   "sup": float(np.max(np.abs(f.values)))}, args)
            return 0
        f = read_grid_function(args.input)
        root, ext = os.path.splitext(args.output)
        if ext == ".csv":
            fp = f.to_physical()
            _write_csv(args.output, {"x": fp.grid.nodes(), "re": fp.values.real,
                                     "im": fp.values.imag})
        elif ext == ".gf":
            side = FOURIER if args.side == "fourier" else PHYSICAL
            g = f.to_fourier() if side == FOURIER else f.to_physical()
            write_grid_function(g, args.output)
        else:
            print(f"unsupported output extension: {ext}", file=sys.stderr)
            return 2
    except GridFileError as err:
        print(str(err), file=sys.stderr)
        return 1
    _emit({"command": "gf convert", "input": args.input,
           "output": args.output}, args)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-timestamps", action="store_true")


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
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("norm", help="evaluate a norm on stored data")
    p.add_argument("spec", help="key=value norm specification")
    p.add_argument("input", help="GF01 or STF1 file")
    p.add_argument("--window", type=_window, default=None, metavar="jmin:jmax")
    _add_common(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("embed", help="carrier-frequency embedding sweep")
    p.add_argument("--alpha", type=float, default=1.9)
    p.add_argument("--xi", default="8,16,32,64",
                   help="comma-separated carrier frequencies")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--length", type=float, default=8.0 * math.pi)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", type=float, default=1.0,
                   help="handoff time T")
    p.add_argument("--csv", default=None, help="CSV file for the result rows")
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("profiles", help="profile extraction")
    p.add_argument("action", choices=["extract", "decompose"])
    p.add_argument("manifest", help='JSON file with {"inputs": [gf paths]}')
    p.add_argument("--alpha", type=float, default=1.8)
    p.add_argument("--sigma", type=float, default=3.0)
    p.add_argument("--j-max", type=int, default=4)
    p.add_argument("--t-scan", type=float, default=None,
                   help="half-width of the Airy-parameter scan")
    p.add_argument("--out", default=None, help="directory for the GF01 outputs")
    _add_common(p)
    p.set_defaults(func=cmd_profiles)

    p = sub.add_parser("verify", help="run a verification battery")
    p.add_argument("battery", choices=sorted(VERIFY_BATTERIES) + ["all"])
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled batteries")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gf", help="grid file tooling")
    p.add_argument("action", choices=["info", "convert"])
    p.add_argument("input")
    p.add_argument("output", nargs="?", default=None)
    p.add_argument("--side", choices=["physical", "fourier"],
                   default="physical")
    _add_common(p)
    p.set_defaults(func=cmd_gf)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gf" and args.action == "convert" and not args.output:
        parser.error("gf convert requires an output path")
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
