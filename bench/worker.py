"""One workload process: set up, run the workload's op list in rounds for
the given number of seconds, check every op, and print one JSON line.

``run.py`` starts it with the settings of ``run.pinned_env`` (one
BLAS/OpenMP thread, the library source on ``PYTHONPATH``)::

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Each op starts with cold library caches.  Ops run one after another in
this one process (a closed loop with one caller).  With ``--trace 1``
untraced and traced rounds alternate, and the layer probes run after them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
PROBE_RESERVE_S = 15.0  # of a traced run's seconds, left for the layer probes


@dataclass
class Round:
    """Op times, problems and output digests of one pass over the ops."""

    op_s: dict = field(default_factory=dict)
    problems: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    tracer: object = None
    elapsed: float = 0.0
    peak_rss_mb: float = 0.0  # of the process, after this round

    @property
    def wall_s(self) -> float:
        return self.tracer.root_s if self.tracer else sum(self.op_s.values())


def artifact_digest(result, out_dir: Path) -> str:
    """Hash of an op's output with its wall-clock fields left out: the
    envelope without ``timings`` plus every CSV, or the drawn heights."""
    h = hashlib.sha256()
    if isinstance(result, dict):
        env = {k: v for k, v in result.items() if k != "timings"}
        h.update(json.dumps(env, sort_keys=True).encode())
        for f in sorted(out_dir.glob("*.csv")):
            h.update(f.name.encode() + b"\0" + f.read_bytes())
    else:
        for path in result:
            h.update(path.heights.tobytes())
    return h.hexdigest()


def run_round(ops, inputs, ref, out_root: Path, tracer=None) -> Round:
    """Run every op once, in order, each from cold caches, then check it."""
    from workloads import clear_library_caches

    rnd = Round(tracer=tracer)
    t_round = time.perf_counter()
    for op, inp in zip(ops, inputs):
        out_dir = out_root / op.name
        shutil.rmtree(out_dir, ignore_errors=True)
        clear_library_caches()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run(inp, out_dir)
            else:
                with tracer.span(f"op.{op.name}"):
                    result = op.run(inp, out_dir)
        except Exception as exc:  # an op that raises counts as failed; the loop goes on
            rnd.op_s[op.name] = time.perf_counter() - t0
            rnd.problems[op.name] = [f"raised {type(exc).__name__}: {exc}"]
            continue
        rnd.op_s[op.name] = time.perf_counter() - t0
        try:
            rnd.problems[op.name] = op.check(inp, result, out_dir, ref.get(op.name))
        except Exception as exc:
            rnd.problems[op.name] = [f"check raised {type(exc).__name__}: {exc}"]
        rnd.digests[op.name] = artifact_digest(result, out_dir)
    rnd.elapsed = time.perf_counter() - t_round
    rnd.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rnd


def source_digest() -> str:
    """Hash of the library source, which names the program measured."""
    h = hashlib.sha256()
    src = Path("src")
    for f in sorted(src.rglob("*.py")):
        h.update(str(f.relative_to(src)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def check_digests(rounds, key_prefix: str, source: str) -> dict[str, list[str]]:
    """Problems where an op's output differs between rounds of this run or
    from an earlier run of the same source, workload and seed."""
    problems: dict[str, list[str]] = {}
    first = rounds[0].digests
    for rnd in rounds[1:]:
        for name, d in rnd.digests.items():
            if first.get(name) not in (None, d):
                problems.setdefault(name, []).append("output differs between rounds of one run")
    store = WORK / "digests.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    known = seen.setdefault(source, {})
    for name, d in first.items():
        key = f"{key_prefix}/{name}"
        if known.setdefault(key, d) != d:
            problems.setdefault(name, []).append("output differs from an earlier run of this source")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, sort_keys=True, indent=1))
    tmp.replace(store)
    return problems


def median_of(rounds, get) -> float:
    return statistics.median(get(r) for r in rounds)


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pythonhashseed_env": os.environ.get("PYTHONHASHSEED"),
        "address_randomization": not int(Path("/proc/self/personality").read_text(), 16) & 0x0040000,
        "cli_threads": 1,
    }


def measure(args, ops, inputs, ref) -> list[Round]:
    """Rounds until the next one would overrun the run's seconds.  With
    tracing, untraced and traced rounds alternate, at least one of each
    runs, and PROBE_RESERVE_S of the seconds are left for the probes."""
    from spans import Tracer

    seconds = args.seconds - PROBE_RESERVE_S if args.trace else args.seconds
    rounds: list[Round] = []
    t_start = time.perf_counter()
    while True:
        traced = args.trace and len(rounds) % 2 == 1
        if traced:
            tracer = Tracer()
            with tracer.installed():
                rounds.append(run_round(ops, inputs, ref, WORK / "out", tracer))
        else:
            rounds.append(run_round(ops, inputs, ref, WORK / "out"))
        elapsed = time.perf_counter() - t_start
        if args.trace and len(rounds) < 2:
            continue
        if elapsed + max(r.elapsed for r in rounds) > seconds:
            return rounds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # set-up: import the library, parse every config, build every input
    import workloads as W

    all_ops = W.build_workloads()
    if args.workload not in all_ops:
        print(f"unknown workload {args.workload!r}; choose from {sorted(all_ops)}", file=sys.stderr)
        return 2
    ops = all_ops[args.workload]
    inputs = [op.prepare(args.seed) for op in ops]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    WORK.mkdir(exist_ok=True)
    rounds = measure(args, ops, inputs, W.load_reference())
    problems: dict[str, list[str]] = {}
    failed = set()  # (round, op) pairs
    for i, rnd in enumerate(rounds):
        for n, ps in rnd.problems.items():
            if ps:
                problems.setdefault(n, []).extend(ps)
                failed.add((i, n))
    source = source_digest()
    # output that is not reproducible fails the op's first run
    for n, ps in check_digests(rounds, f"{args.workload}/{args.seed}", source).items():
        problems.setdefault(n, []).extend(ps)
        failed.add((0, n))
    attempted = sum(len(r.op_s) for r in rounds)

    plain = [r for r in rounds if r.tracer is None]
    op_s = {op.name: median_of(plain, lambda r, n=op.name: r.op_s[n]) for op in ops}
    work_s = sum(op_s.values())
    rates = {
        "ffbs_paths_per_s": sum(op.work.get("ffbs_paths", 0) for op in ops) / work_s,
        "mcmc_chain_sweeps_per_s": sum(op.work.get("chain_sweeps", 0) for op in ops) / work_s,
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "round_wall_s": [r.wall_s for r in plain],
        "op_s": {op.name: [r.op_s[op.name] for r in plain] for op in ops},
        **rates,
        "failed_ops": f"{len(failed)}/{attempted}",
        "source": source,
        "env": environment(),
    }
    if args.trace:
        metrics = traced_metrics(rounds, all_ops, op_s, rates, args.seed)
    else:
        metrics = {
            "wall_s": median_of(plain, lambda r: r.wall_s),
            # after one pass over the ops, as a CLI user sees it; later
            # rounds only add allocator fragmentation
            "peak_rss_mb": rounds[0].peak_rss_mb,
        }
    print(json.dumps({
        "ready": ready,
        "attempted": attempted,
        "failed": len(failed),
        "problems": problems,
        "info": info,
        "metrics": metrics,
    }))
    return 0


def traced_metrics(rounds, all_ops, op_s, rates, seed) -> dict:
    import probes
    from spans import SPAN_NAMES

    plain = [r for r in rounds if r.tracer is None]
    traced = [r for r in rounds if r.tracer is not None]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = traced[0].tracer.calls.get(name, 0)
        out[f"{name}.self_s"] = median_of(traced, lambda r: r.tracer.self_s.get(name, 0.0))
    for ops in all_ops.values():
        for op in ops:
            out[f"cli_io.op_s.{op.name}"] = op_s.get(op.name, 0.0)
    out["exact_engine.ffbs_paths_per_s"] = rates["ffbs_paths_per_s"]
    out["gibbs_sampler.mcmc_chain_sweeps_per_s"] = rates["mcmc_chain_sweeps_per_s"]
    out["trace_overhead_s"] = median_of(traced, lambda r: r.wall_s) - median_of(plain, lambda r: r.wall_s)
    out.update(probes.run_probes(seed))
    return out


if __name__ == "__main__":
    sys.exit(main())
