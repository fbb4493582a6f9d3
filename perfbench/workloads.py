"""The four workloads: seeded inputs, timed operations and their output checks.

A workload is a fixed list of operations run in order; one pass over the
list is a round.  Inputs are generated here from the seed and the library
only ever receives the generated data.  Each operation's output is checked
against the gate of the acceptance battery it comes from, for any seed,
and its `ref_keys` against values stored in reference.json, which was
recorded at DEFAULT_SEED: for an operation whose inputs depend on the seed
(`seeded`) only at that seed, for the others at every seed.

dlab functions are looked up on their modules at call time, never bound
with `from ... import`, so that the tracer's rebinding reaches these calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from dlab import cli, embedding, evolutions, fileio, norms, profiles
from dlab import deformations as deform
from dlab.grid import FOURIER, PHYSICAL, Grid, GridFunction

DEFAULT_SEED = 0
REFERENCE_RTOL = 1e-9
# Already relative errors or drifts of a whole solution: compared at 1e-9
# absolute, i.e. 1e-9 relative to the solution.  Relative to themselves
# they are roundoff, which any reordering of the arithmetic changes.
ABSOLUTE_KEYS = {"max_rel_l2_error", "mass_drift"}


@dataclass
class Op:
    """One timed call and its check.

    run(ctx) -> raw output; check(raw, ctx) -> (record, failures), where
    record holds the numbers (and digests) that are reported and compared.
    ctx is shared by the operations of one round.
    """

    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], tuple[dict, list[str]]]
    ref_keys: tuple[str, ...] = ()
    seeded: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: list[np.ndarray]
    largest_array_bytes: int
    digest: str = field(init=False)

    def __post_init__(self):
        h = hashlib.sha256()
        for arr in self.inputs:
            h.update(np.ascontiguousarray(arr).tobytes())
        self.digest = h.hexdigest()


def _gate(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# restriction: criterion 10, refined Stein-Tomas ratio
# ---------------------------------------------------------------------------

def restriction(seed: int, workdir: Path) -> Workload:
    alpha, sigma = 1.8, 3.0
    grid = Grid(4096, 2.0 * math.pi * 2 ** 8, -math.pi * 2 ** 8)
    x, xi = grid.nodes(), grid.frequencies()
    f0 = GridFunction(grid, np.exp(-x ** 2).astype(complex), PHYSICAL)
    rng = np.random.default_rng(seed)
    shifted = deform.translate(f0, float(rng.uniform(-3.0, 3.0)))
    flowed = deform.airy_flow(f0, float(rng.uniform(-0.5, 0.5)))
    dilated = deform.apply(deform.Deformation(1), f0, d_exponent=alpha)
    band = (np.abs(xi) >= 1.0) & (np.abs(xi) <= 8.0)
    envelope = np.exp(-(x / 4.0) ** 2)
    noisy = []
    for _ in range(2):
        coef = (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))
        coef *= band * np.exp(-xi ** 2 / 64.0)
        noise = GridFunction(grid, coef, FOURIER).to_physical()
        noisy.append(GridFunction(grid, noise.values * envelope, PHYSICAL))

    def ratio(f, window, nt):
        return lambda ctx: profiles.stein_tomas_ratio(f, alpha, sigma, window, nt=nt)

    def check_gaussian(r, ctx):
        fails = []
        _gate(fails, r > 0, "gaussian ratio not positive")
        ctx["r0"] = r
        return {"ratio": r}, fails

    def near_r0(tol, label):
        def check(r, ctx):
            fails = []
            r0 = ctx.get("r0")
            _gate(fails, r0 is not None and abs(r / r0 - 1.0) < tol,
                  f"{label}: |r/r0 - 1| not below {tol}")
            return {"ratio": r}, fails
        return check

    def check_random(r, ctx):
        fails = []
        r0 = ctx.get("r0")
        _gate(fails, r0 is not None and 0.0 < r <= 3.0 * r0, "random ratio outside (0, 3 r0]")
        return {"ratio": r}, fails

    ops = [
        Op("gaussian", ratio(f0, 16.0, 513), check_gaussian, ("ratio",)),
        Op("translate", ratio(shifted, 16.0, 513), near_r0(0.01, "translation invariance"),
           ("ratio",), seeded=True),
        Op("airy_flow", ratio(flowed, 16.0, 513), near_r0(0.01, "Airy-flow invariance"),
           ("ratio",), seeded=True),
        Op("dilate", ratio(dilated, 2.0, 513), near_r0(0.01, "dilation invariance"),
           ("ratio",)),
        Op("wide", ratio(f0, 32.0, 1025), near_r0(0.05, "window stability"), ("ratio",)),
    ] + [Op(f"random_{i}", ratio(f, 24.0, 769), check_random, ("ratio",), seeded=True)
         for i, f in enumerate(noisy)]
    inputs = [shifted.values, flowed.values] + [f.values for f in noisy]
    # the doubled wide window: (2*1025 - 1) frames of 4096 complex samples
    return Workload("restriction", ops, inputs, 16 * grid.n * (2 * 1025 - 1))


# ---------------------------------------------------------------------------
# trajectory: criteria 3 and 13, plus a stored gKdV run through the CLI
# ---------------------------------------------------------------------------

# The solve runs at dt = 1e-3, 8x the step suggest_dt gives for n = 1024;
# drift measured on seeds 0-19 stays below 2e-12, so 1e-8 flags a step that
# no longer resolves the nonlinear dynamics while leaving roundoff room.
GKDV_MASS_DRIFT_GATE = 1e-8


def trajectory(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)

    sgrid = Grid(512, 40.0 * math.pi, -20.0 * math.pi)
    shift = float(rng.uniform(-5.0, 5.0))
    q0 = evolutions.soliton_Q(1.0, sgrid, c=1.0, shift=shift)
    sdt = evolutions.suggest_dt(sgrid)

    def soliton(ctx):
        cfg = evolutions.SolveConfig(alpha=1.0, mu=-1, t_end=0.5, dt=sdt, store_every=50)
        return evolutions.gkdv_solve(q0, cfg)

    def check_soliton(run, ctx):
        err = 0.0
        for t, fr in zip(run.times, run.frames):
            exact = evolutions.soliton_exact(1.0, sgrid, 1.0, float(t), shift)
            err = max(err, (fr - exact).l2_norm() / exact.l2_norm())
        fails = []
        _gate(fails, err < 1e-5, "soliton error not below 1e-5")
        return {"max_rel_l2_error": err, "frames": len(run)}, fails

    # seeded real gKdV data: a Gaussian bump plus band-limited noise
    grid = Grid(1024, 40.0 * math.pi, -20.0 * math.pi)
    x, xi = grid.nodes(), grid.frequencies()
    amp, width, center = rng.uniform(0.6, 0.9), rng.uniform(1.5, 2.5), rng.uniform(-10, 10)
    coef = (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)) * np.exp(-xi ** 2 / 4.0)
    noise = GridFunction(grid, coef * (np.abs(xi) <= 4.0), FOURIER).to_physical().values.real
    u0_vals = amp * np.exp(-((x - center) / width) ** 2) + 0.05 * noise / np.max(np.abs(noise))
    u0 = GridFunction(grid, u0_vals.astype(complex), PHYSICAL)
    u0_path, stf, copy = (str(workdir / n) for n in ("u0.gf", "run.stf", "copy.stf"))
    fileio.write_grid_function(u0, u0_path)
    alpha = 1.9

    def solve(ctx):
        return _cli(["solve", "gkdv", "--alpha", str(alpha), "--n", str(grid.n),
                     "--length", repr(grid.length), "--dt", "1e-3", "--t-end", "1.0",
                     "--store-every", "1", "--preset", u0_path, "--out", stf,
                     "--no-timestamps"])

    def check_solve(out, ctx):
        code, text = out
        fails = []
        _gate(fails, code == 0, f"dlab solve exited {code}")
        report = json.loads(text) if code == 0 else {}
        drift = float(report.get("mass_drift", math.nan))
        _gate(fails, report.get("frames") == 1001, "dlab solve did not store 1001 frames")
        _gate(fails, drift < GKDV_MASS_DRIFT_GATE, f"gKdV mass drift not below {GKDV_MASS_DRIFT_GATE}")
        return {"mass_drift": drift, "frames": report.get("frames", 0),
                "stf_sha256": _sha256(Path(stf).read_bytes())}, fails

    s_l = norms.preset_s("L", alpha)

    def norm(ctx):
        return _cli(["norm", f"kind=spacetime_X,r={alpha!r},s={s_l!r}", stf, "--no-timestamps"])

    def check_norm(out, ctx):
        code, text = out
        fails = []
        _gate(fails, code == 0, f"dlab norm exited {code}")
        report = json.loads(text) if code == 0 else {}
        value = float(report.get("value", math.nan))
        _gate(fails, value > 0, "space-time norm not positive")
        _gate(fails, report.get("frames") == 1001, "dlab norm did not read 1001 frames")
        return {"value": value}, fails

    def roundtrip(ctx):
        first = fileio.read_space_time_field(stf)
        fileio.write_space_time_field(first, copy)
        return first, fileio.read_space_time_field(copy)

    def check_roundtrip(out, ctx):
        first, back = out
        a, b = first.physical_array(), back.physical_array()
        fails = []
        _gate(fails, np.array_equal(first.times, back.times) and np.array_equal(a, b),
              "STF1 write/read is not bit-exact")
        _gate(fails, Path(stf).read_bytes() == Path(copy).read_bytes(),
              "rewritten STF1 file differs from the original")
        _gate(fails, np.array_equal(a[0], u0_vals.astype(complex)),
              "stored first frame differs from the initial data")
        return {"frames": len(back), "bytes": Path(copy).stat().st_size,
                "sha256": _sha256(a.tobytes())}, fails

    # criterion 13 inputs
    ngrid = Grid(256, 16.0 * math.pi, -8.0 * math.pi)
    g0 = GridFunction(ngrid, np.exp(-ngrid.nodes() ** 2).astype(complex), PHYSICAL)

    def nls_final(dt):
        cfg = evolutions.SolveConfig(alpha=2.0, mu=-1, t_end=0.5, dt=dt, store_every=10 ** 9)
        return evolutions.nls_solve(g0, cfg).frames[-1]

    def nls_mass(ctx):
        cfg = evolutions.SolveConfig(alpha=2.0, mu=-1, t_end=1.0, dt=1e-3, store_every=200)
        return evolutions.nls_solve(g0, cfg)

    def check_nls_mass(run, ctx):
        m0 = run.frames[0].l2_norm()
        drift = max(abs(fr.l2_norm() - m0) for fr in run.frames) / m0
        fails = []
        _gate(fails, drift < 1e-10, "NLS mass drift not below 1e-10")
        return {"mass_drift": drift}, fails

    def richardson(ctx):
        ref = nls_final(1.25e-4)
        return (nls_final(2e-3) - ref).l2_norm() / (nls_final(1e-3) - ref).l2_norm()

    def check_richardson(ratio, ctx):
        fails = []
        _gate(fails, 3.5 <= ratio <= 4.5, "Richardson ratio outside [3.5, 4.5]")
        return {"richardson_ratio": ratio}, fails

    ops = [
        Op("soliton", soliton, check_soliton, ("max_rel_l2_error",), seeded=True),
        Op("cli_solve", solve, check_solve, ("mass_drift", "frames"), seeded=True),
        Op("cli_norm", norm, check_norm, ("value",), seeded=True),
        Op("stf_roundtrip", roundtrip, check_roundtrip, ("frames", "bytes")),
        Op("nls_mass", nls_mass, check_nls_mass, ("mass_drift",)),
        Op("richardson", richardson, check_richardson),
    ]
    # the stored trajectory: 1001 frames of 1024 complex samples
    return Workload("trajectory", ops, [q0.values, u0_vals], 16 * grid.n * 1001)


# ---------------------------------------------------------------------------
# scan: criteria 9 and 12, ell scans and Whitney pairs
# ---------------------------------------------------------------------------

def scan(seed: int, workdir: Path) -> Workload:
    alpha, sigma = 1.8, 3.0
    grid = Grid(2048, 2.0 * math.pi * 2 ** 4, -math.pi * 2 ** 4)
    xi = grid.frequencies()
    rng = np.random.default_rng(seed)

    def bump(center, width, amp):
        v = np.where((xi >= center - width / 2 - 1e-12) & (xi < center + width / 2 - 1e-12),
                     amp * np.exp(-(xi - center) ** 2 * 8.0 / width ** 2), 0.0)
        return GridFunction(grid, v.astype(complex), FOURIER)

    # single planted profile (criterion 12) at seeded Airy time and
    # translation: neither changes |fhat|, so ell must equal ell(psi*)
    psi_star = bump(0.5, 1.0, 1.0)
    planted = {n: deform.Deformation(2, xi=float(n), s=float(rng.uniform(-0.2, 0.2)),
                                     y=float(rng.uniform(-2.0, 2.0)))
               for n in (3, 8)}
    states = {n: deform.apply(g, psi_star, d_exponent=alpha) for n, g in planted.items()}

    def ell_op(n):
        return lambda ctx: norms.ell(states[n], alpha, sigma)

    def check_ell(n):
        def check(out, ctx):
            value, minimizer = out
            base, base_min = norms.ell(psi_star, alpha, sigma)
            h = planted[n].h
            fails = []
            _gate(fails, abs(value / base - 1.0) < 1e-8,
                  "ell of the planted state differs from ell(psi*)")
            # D(h) P(n) moves the minimizing modulation to h*(m - n)
            _gate(fails, abs(minimizer - h * (base_min - n)) <= states[n].grid.dxi,
                  "ell minimizer off the planted modulation")
            return {"ell": value, "minimizer": minimizer}, fails
        return check

    # two nonresonant profiles (criterion 12)
    psi1, psi2 = bump(0.5, 1.0, 2.0), bump(0.5, 1.0, 1.0)
    pair_states = [deform.apply(deform.Deformation(0, xi=float(n)), psi1, d_exponent=alpha)
                   + deform.apply(deform.Deformation(0, xi=-float(n), s=0.02, y=3.0), psi2,
                                  d_exponent=alpha)
                   for n in (8, 16, 32, 48)]

    def decompose(ctx):
        return profiles.profile_decompose(pair_states, alpha, sigma, j_max=2,
                                          eps_stop=1e-4, t_scan=0.05)

    def check_decompose(dec, ctx):
        entries = dec.diagnostics["ledger_entries"]
        ells = [e["ell"] for e in entries]
        signs = [np.sign(gammas[-1].xi) for _, gammas in dec.profiles]
        fails = []
        _gate(fails, len(dec.profiles) == 2 and [e["c"] for e in entries] == [1, 1],
              "expected two unpaired profiles")
        _gate(fails, len(ells) == 2 and ells[0] >= ells[1], "profiles not in descending ell")
        _gate(fails, len(signs) == 2 and signs[0] > 0 > signs[1],
              "lead modulations do not have opposite signs")
        rec = {f"ell_{i}": v for i, v in enumerate(ells)}
        rec["ledger_sum"] = dec.diagnostics["ledger_sum"]
        return rec, fails

    def whitney(ctx):
        return profiles.whitney_pairs(-5, 2, 32.0)

    def check_whitney(pairs, ctx):
        ctx["pairs"] = pairs
        fails = []
        for j in range(-5, 3):
            k_hi = int(math.ceil(32.0 / 2.0 ** j))
            counts = set(profiles.partner_counts(pairs, j, k_hi - 5).values())
            _gate(fails, counts <= {2, 4, 6}, f"partner counts {sorted(counts)} at scale {j}")
        return {"pairs": len(pairs)}, fails

    samples = rng.uniform(-16.0, 16.0, size=(4096, 2))

    def partition(ctx):
        return profiles.partition_check(ctx["pairs"], samples)

    def check_partition(res, ctx):
        fails = []
        _gate(fails, res["counted"] > 0 and res["bad"] == 0, "partition of unity broken")
        return {"counted": res["counted"], "bad": res["bad"]}, fails

    ops = [Op(f"ell_n{n}", ell_op(n), check_ell(n), ("ell", "minimizer"), seeded=True)
           for n in planted]
    ops += [
        Op("profile_decompose", decompose, check_decompose, ("ell_0", "ell_1")),
        Op("whitney_pairs", whitney, check_whitney, ("pairs",)),
        Op("partition_check", partition, check_partition, seeded=True),
    ]
    inputs = [s.values for s in states.values()] + [samples]
    # the space-time scan in extract_profile: 257 frames of 2048 complex samples
    return Workload("scan", ops, inputs, 16 * grid.n * 257)


# ---------------------------------------------------------------------------
# embedding: criterion 11, carrier-wave sweep
# ---------------------------------------------------------------------------

def embedding_sweep(seed: int, workdir: Path) -> Workload:
    grid = Grid(1024, 8.0 * math.pi, -4.0 * math.pi)
    x = grid.nodes()
    rng = np.random.default_rng(seed)
    amp, center = rng.uniform(0.95, 1.05), rng.uniform(-0.5, 0.5)
    phi = GridFunction(grid, (amp * np.exp(-(x - center) ** 2)).astype(complex), PHYSICAL)
    xi_list = (16.0, 32.0)

    def sweep(ctx):
        cfg = embedding.EmbeddingConfig(alpha=1.9, phi=phi, xi_list=xi_list, T=1.0,
                                        nls_dt=1e-3)
        return embedding.embedding_experiment(cfg)

    def check_sweep(rows, ctx):
        errs = [r["err_lhat_alpha"] for r in rows]
        sl = [r["norm_S"] + r["norm_L"] for r in rows]
        fails = []
        _gate(fails, [r["xi"] for r in rows] == list(xi_list), "one row per carrier expected")
        _gate(fails, all(b < a for a, b in zip(errs, errs[1:])),
              "seam error not strictly decreasing")
        _gate(fails, (max(sl) - min(sl)) / min(sl) < 0.25, "S+L variation not below 0.25")
        # residual_Y is reported but only gated on being finite (the caller
        # rejects non-finite values): ROADMAP item 5 shows it measures the
        # finite-difference error of the carrier e^{-i t xi^3}, not the
        # residual of the approximation.  A reference would lock the wrong
        # value in and make the fix read as a regression; reporting it keeps
        # the defect visible.
        rec = {f"{k}@{r['xi']:g}": v for r in rows for k, v in r.items() if k != "xi"}
        return rec, fails

    ref_keys = tuple(f"{k}@{x:g}" for x in xi_list
                     for k in ("seam_time", "err_lhat_alpha", "norm_S", "norm_L"))
    ops = [Op("sweep", sweep, check_sweep, ref_keys, seeded=True)]
    # residual frames of the xi = 32 row: 4097 (the clip) of 1024 complex samples
    return Workload("embedding", ops, [phi.values], 16 * grid.n * 4097)


WORKLOADS = {
    "restriction": restriction,
    "trajectory": trajectory,
    "scan": scan,
    "embedding": embedding_sweep,
}


def load_references() -> dict:
    with open(Path(__file__).with_name("reference.json")) as fh:
        return json.load(fh)


def reference_failures(record: dict, op: Op, refs: dict) -> list[str]:
    """Compare op.ref_keys in record with the stored reference values."""
    fails = []
    for key in op.ref_keys:
        if key not in refs:
            fails.append(f"no reference value for {key}")
            continue
        got, want = record.get(key, math.nan), refs[key]
        scale = 1.0 if key in ABSOLUTE_KEYS else abs(want)
        if not abs(got - want) <= REFERENCE_RTOL * scale:
            fails.append(f"{key} = {got!r} differs from reference {want!r}")
    return fails
