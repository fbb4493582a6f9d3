"""Run one workload in this fresh process and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (set up, report the time the inputs were ready, exit),
`run` (untraced timed rounds) or `trace` (the same rounds under the
tracer).  The process is a closed loop with one caller: each operation
starts when the previous one has finished, and it starts no threads.
Rounds repeat while the next one, at the median round time so far, still
ends within S seconds; at least one round always runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _nonfinite(record: dict) -> list[str]:
    return [f"{k} is not finite" for k, v in record.items()
            if isinstance(v, float) and not math.isfinite(v)]


def _os_threads() -> int | None:
    """Threads of this process, numpy's BLAS pool included."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _digest(record: dict) -> str:
    # repr of a float round-trips its bits, so equal digests mean bit-equal outputs
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def run_rounds(wl, seed: int, seconds: float, tracer, refs: dict) -> dict:
    from workloads import DEFAULT_SEED, reference_failures

    times = {op.name: [] for op in wl.ops}
    cpus = {op.name: [] for op in wl.ops}
    outputs, digests, failures = {}, {}, []
    attempted = failed = 0
    rounds: list[float] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + median(rounds) <= seconds:
        ctx: dict = {}
        r0 = time.perf_counter()
        for op in wl.ops:
            attempted += 1
            c0 = time.process_time()
            if tracer:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                raw, errors = op.run(ctx), []
            except Exception as exc:  # a failed operation is counted, not fatal
                raw, errors = None, [f"raised {type(exc).__name__}: {exc}"]
            t1 = time.perf_counter()
            if tracer:
                tracer.enabled = False
            cpus[op.name].append(time.process_time() - c0)
            times[op.name].append(t1 - t0)
            record = {}
            if not errors:
                try:
                    record, errors = op.check(raw, ctx)
                except Exception as exc:
                    errors = [f"check raised {type(exc).__name__}: {exc}"]
                errors += _nonfinite(record)
                if not op.seeded or seed == DEFAULT_SEED:
                    errors += reference_failures(record, op, refs.get(op.name, {}))
            if errors:
                failed += 1
                failures += [f"{op.name}: {e}" for e in errors]
            if len(rounds) == 0:
                outputs[op.name] = record
                digests[op.name] = _digest(record)
        rounds.append(time.perf_counter() - r0)
        if len(rounds) == 1:
            # ru_maxrss cannot be reset, so the peak is taken over set-up and the
            # first pass only: what one pass costs, free of later heap reuse
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "rounds": len(rounds),
        "op_s": times,
        # one verified pass: the per-operation medians over the rounds, summed
        "wall_s": sum(median(v) for v in times.values()),
        "cpu_s": sum(median(v) for v in cpus.values()),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "threads": _os_threads(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "outputs": outputs,
        "digests": digests,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_fft()
    import dlab
    import workloads
    if Path(dlab.__file__).resolve().parent != SRC / "dlab":
        raise SystemExit(f"imported dlab from {dlab.__file__}, not from {SRC}")
    if tracer:
        tracer.wrap_dlab()

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own start time
        ready = time.monotonic()
        out = {"ready": ready, "inputs_sha256": wl.digest,
               "largest_array_bytes": wl.largest_array_bytes}
        if args.mode != "setup":
            refs = workloads.load_references().get(args.workload, {})
            out.update(run_rounds(wl, args.seed, args.seconds, tracer, refs))
            if tracer:
                out["metrics"] = tracer.metrics(out["rounds"])
                tracer.write(HERE / ".work" / f"trace-{args.workload}.tsv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
