"""Outside-in tracer: spans around dlab's public functions and the FFT entry points.

The tracer lives in the benchmark, not in dlab.  `install_fft` must run
before `import dlab` so that a `from scipy.fft import fft` inside the
library would bind the wrapper; `wrap_dlab` runs after the import and
rebinds each traced function in every `dlab.*` namespace that holds it,
because the modules import each other's functions with `from .x import f`.

Spans (name, start, end, parent, wrapped-child time, counters) stay in
memory while the workload runs and are written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

FFT_MODULES = ("numpy.fft", "scipy.fft")
# the 1-D transforms; batched calls pass an axis
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")

LAYER_FUNCS = {
    "grid": ("forward_transform", "inverse_transform", "fractional_derivative"),
    "evolutions": ("gkdv_solve", "nls_solve"),
    "norms": ("ell", "spacetime_norm", "morrey_norm"),
    "profiles": ("stein_tomas_ratio", "whitney_pairs", "extract_profile",
                 "profile_decompose"),
    "deformations": ("translate", "modulate", "airy_flow", "apply", "apply_inverse"),
    "embedding": ("build_approx_solution", "residual_field"),
    "fileio": ("write_space_time_field", "read_space_time_field"),
    "cli": ("main",),
}


def _stf_bytes(field) -> int:
    """Size of a field's STF1 encoding: header plus (t, n complex) per frame."""
    return 40 + len(field) * (8 + 16 * field.grid.n)


def _steps(a) -> int:
    cfg = a["cfg"]
    return max(1, round(abs(cfg.t_end) / cfg.dt))


def _st_frames(a) -> int:
    # the ratio evaluates the window at nt and the doubled window at 2nt-1
    return 3 * a["nt"] - 1


# Counters derived from bound arguments `a` and result `r` ("computed"):
# they repeat exactly from run to run.
COUNTERS = {
    "evolutions.gkdv_solve": lambda a, r: {"steps": _steps(a)},
    "evolutions.nls_solve": lambda a, r: {"steps": _steps(a)},
    "profiles.stein_tomas_ratio": lambda a, r: {
        "frames": _st_frames(a),
        "bytes_computed": 16 * a["f"].grid.n * _st_frames(a)},
    "profiles.whitney_pairs": lambda a, r: {"pairs": len(r)},
    "embedding.residual_field": lambda a, r: {"frames": len(a["u_tilde"])},
    "fileio.write_space_time_field": lambda a, r: {"bytes": _stf_bytes(a["field"])},
    "fileio.read_space_time_field": lambda a, r: {"bytes": _stf_bytes(r)},
}

EXTRA_UNITS = {
    "evolutions.gkdv_solve": {"steps": "count", "s_per_step": "s"},
    "evolutions.nls_solve": {"steps": "count", "s_per_step": "s"},
    "profiles.stein_tomas_ratio": {"frames": "count", "bytes_computed": "bytes"},
    "profiles.whitney_pairs": {"pairs": "count"},
    "embedding.residual_field": {"frames": "count"},
    "fileio.write_space_time_field": {"bytes": "bytes"},
    "fileio.read_space_time_field": {"bytes": "bytes"},
}

PROCESS_UNITS = {"process.cpu_s": "s", "process.trace_overhead_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, funcs in LAYER_FUNCS.items():
        for func in funcs:
            key = f"{module}.{func}"
            units.update({f"{key}.calls": "count", f"{key}.s": "s", f"{key}.self_s": "s"})
            units.update({f"{key}.{k}": u for k, u in EXTRA_UNITS.get(key, {}).items()})
    units.update({"fft.calls": "count", "fft.s": "s", "fft.points": "count",
                  "fft.flops_computed": "flop"})
    units.update(PROCESS_UNITS)
    return units


def _fft_work(func: str, x, args, kwargs) -> dict:
    """Transform points and 5 N log2 N flops per row for one 1-D FFT call."""
    shape = np.shape(x)
    n = kwargs.get("n", args[0] if args else None)
    m = shape[kwargs.get("axis", args[1] if len(args) > 1 else -1)]
    if n is None:
        # irfft of a half spectrum of m bins makes 2(m-1) points
        n = 2 * (m - 1) if func == "irfft" else m
    rows = math.prod(shape) // m if m else 0
    return {"points": rows * n, "flops_computed": rows * 5.0 * n * math.log2(n) if n > 1 else 0.0}


class Tracer:
    """Records spans while `enabled` is true; the wrappers pass straight through otherwise."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, counters=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[2] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - span[1]
            if counters is not None:
                span[5] = counters(args, kwargs, result)
            return result

        return traced

    def install_fft(self) -> None:
        """Wrap the numpy.fft and scipy.fft transforms; call before importing dlab."""
        for modname in FFT_MODULES:
            mod = importlib.import_module(modname)
            for func in FFT_FUNCS:
                def counters(args, kwargs, result, func=func):
                    return _fft_work(func, args[0], args[1:], kwargs)

                setattr(mod, func, self._wrap("fft", getattr(mod, func), counters))

    def wrap_dlab(self) -> None:
        """Rebind every traced public function in each dlab namespace holding it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dlab" or n.startswith("dlab.")]
        for module, funcs in LAYER_FUNCS.items():
            owner = sys.modules[f"dlab.{module}"]
            for func in funcs:
                name = f"{module}.{func}"
                orig = getattr(owner, func)
                counters = None
                if name in COUNTERS:
                    def counters(args, kwargs, result,
                                 sig=inspect.signature(orig), count=COUNTERS[name]):
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        return count(bound.arguments, result)

                wrapped = self._wrap(name, orig, counters)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round value of every non-process metric in `metric_units`."""
        tot: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, child, counters in self.spans:
            tot[f"{name}.calls"] += 1
            tot[f"{name}.s"] += end - start
            tot[f"{name}.self_s"] += end - start - child
            for key, val in (counters or {}).items():
                tot[f"{name}.{key}"] += val
        out = {}
        for key in metric_units():
            if key in PROCESS_UNITS:
                continue
            if key.endswith(".s_per_step"):
                base = key[: -len(".s_per_step")]
                steps = tot[f"{base}.steps"]
                out[key] = tot[f"{base}.s"] / steps if steps else 0.0
            else:
                out[key] = tot[key] / rounds
        return out

    def write(self, path) -> None:
        """Spans as TSV: index, name, start and end (s after the first span), parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent, _child, _counters) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")
