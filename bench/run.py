"""Benchmark entry point.  From the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts one fresh worker process for the workload (``worker.py``), with
BLAS/OpenMP pinned to one thread and ``src`` on the path; with
``--trace 0`` it also starts several processes that only set up, and
reports the median set-up time.  Prints ``#`` lines describing the run,
then one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics`` holds
the ``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``), each as ``{"value", "unit"}``.
Exits 2 without a result when the checkout has no library source.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # set-up-only processes per untraced run, besides the worker
RUN_LIMIT_S = 170.0  # every process of a run ends within this
ADDR_NO_RANDOMIZE = 0x0040000  # personality flag, from <linux/personality.h>


class RunError(RuntimeError):
    """A worker process failed; the run prints no result."""


def pinned_env() -> dict:
    """One BLAS/OpenMP thread, and a fixed string-hash seed (see
    fixed_address_layout)."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def fixed_address_layout() -> None:
    """Turn off address-space randomization in the child about to exec.

    With random addresses or a random hash seed, the allocator's layout
    differs from run to run, and the peak RSS of exact_and_oracle moved
    between 214 and 241 MB.  If the call is refused, the worker runs with
    random addresses and reports so in ``# env``."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run_worker(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return its set-up time and its result."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *argv],
            env=env, capture_output=True, text=True, timeout=max(deadline - t0, 1.0),
            preexec_fn=fixed_address_layout,
        )
    except subprocess.TimeoutExpired:
        raise RunError("worker ran past the run's time limit") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - t0, result


def git_commit() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not Path("src/ensembles/__init__.py").is_file():
        print("no library source at src/ensembles: run from the root of a checkout", file=sys.stderr)
        return 2
    declared = json.loads(Path("BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    env = pinned_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup, result = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
        metrics = result["metrics"]
        if not args.trace:
            samples = [setup] + [
                run_worker(common + ["--seconds", "0", "--setup-only"], env, deadline)[0]
                for _ in range(SETUP_SAMPLES)
            ]
            metrics["setup_s"] = statistics.median(samples)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1

    print("# env: " + json.dumps({**result["info"].pop("env"), "commit": git_commit()}, sort_keys=True))
    print("# info: " + json.dumps(result["info"], sort_keys=True))
    for op, problems in result["problems"].items():
        print(f"# FAILED {op}: " + "; ".join(problems))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
