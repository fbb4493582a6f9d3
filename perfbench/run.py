"""dlab benchmark: time to a verified result, end to end and per module.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; dlab is imported from ./src.  Each workload
(restriction, trajectory, scan, embedding; see workloads.py and README.md)
runs in a fresh single process (worker.py) as a closed loop with one
caller, on inputs generated from --seed.  Every output is checked.

--trace 0 reports the end-to-end metrics:
  wall_s       one verified pass over the workload's operations: the
               per-operation medians over the run's rounds, summed
  setup_s      process start until the inputs are ready (interpreter,
               `import dlab`, input generation): median of five fresh
               processes, after one untimed warm-up process
  peak_rss_mb  peak resident memory (ru_maxrss) of the workload process
               over its set-up and first pass
--trace 1 runs the workload untraced and then traced for S/2 seconds each,
checks that both produce bit-identical outputs, and reports per-round
per-layer metrics (`<module>.<function>.<stat>`, see tracer.py) plus
process.cpu_s (untraced) and process.trace_overhead_s (traced wall_s
minus untraced wall_s).  The spans go to perfbench/.work/trace-NAME.tsv.

The second-to-last stdout line is a JSON manifest (versions, nproc, cache
sizes, seed, fail_rate, per-operation times and outputs); the last line is
the result: {"correct", "attempted", "failed", "metrics"}.  fail_rate is
failed / attempted.  Exits 2 without a result when ./src/dlab is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("restriction", "trajectory", "scan", "embedding")
SETUP_SAMPLES = 4  # fresh setup-only processes; the workload process adds one more
DEADLINE_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# numpy and scipy each bundle an OpenBLAS that starts a pool of nproc - 1
# threads at import; dlab's hot paths make no BLAS calls, so one thread each
# keeps the worker within nproc threads.  A value set by the caller is kept.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "1")}


class WorkerError(RuntimeError):
    pass


def spawn(args, mode: str, seconds: float, deadline: float) -> dict:
    """Run worker.py to completion; setup_s is measured from just before the spawn."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"{mode} worker passed the {DEADLINE_S:g} s deadline")
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t0
    return res


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def cache_sizes() -> dict[str, int]:
    """Per-core cache sizes in bytes, from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[label] = int(size.rstrip("KMG")) * {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
    return sizes


def manifest(args, main: dict, extra: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": {k: WORKER_ENV.get(k) for k in THREAD_ENV},
        "cache_bytes": cache_sizes(),
        "largest_array_bytes": main["largest_array_bytes"],
        "inputs_sha256": main["inputs_sha256"],
        "rounds": main["rounds"],
        "worker_threads": main["threads"],
        "op_s": main["op_s"],
        "fail_rate": main["failed"] / main["attempted"],
        "failures": main["failures"],
        "outputs": main["outputs"],
        **extra,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dlab benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dlab" / "__init__.py").is_file():
        print(f"dlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            main_run = spawn(args, "run", args.seconds / 2, deadline)
            traced = spawn(args, "trace", args.seconds / 2, deadline)
            identical = traced["digests"] == main_run["digests"]
            from tracer import metric_units
            values = dict(traced["metrics"])
            values["process.cpu_s"] = main_run["cpu_s"]
            values["process.trace_overhead_s"] = traced["wall_s"] - main_run["wall_s"]
            units = metric_units()
            attempted = main_run["attempted"] + traced["attempted"]
            failed = main_run["failed"] + traced["failed"]
            extra = {"traced_rounds": traced["rounds"], "bit_identical": identical,
                     "traced_failures": traced["failures"]}
            correct = failed == 0 and identical
        else:
            spawn(args, "setup", 0.0, deadline)  # warm-up: bytecode and file cache
            setups = [spawn(args, "setup", 0.0, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
            main_run = spawn(args, "run", args.seconds, deadline)
            setups.append(main_run["setup_s"])
            values = {"wall_s": main_run["wall_s"], "setup_s": median(setups),
                      "peak_rss_mb": main_run["peak_rss_mb"]}
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
            attempted, failed = main_run["attempted"], main_run["failed"]
            extra = {"setup_samples_s": setups}
            correct = failed == 0
    except WorkerError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"manifest": manifest(args, main_run, extra)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
