"""sqgkit benchmark: one workload, measured in fresh processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload turbulent-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every metric is printed on its own line with its
unit, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The inputs come from ``--seed`` and are generated before any timing; their
hash is printed so two runs can be shown to use identical inputs.  A first
fresh process checks the inputs.  Set-up is timed in several fresh
interpreters, half before the ops and half after them, on each CPU in turn
(median), and the ops run in one more fresh process, a single-client closed
loop.  Child processes get ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` = 1.

Everything the run writes goes under ``.perfbench-out/`` in the repository
root: the job and result files, a ``record.json`` with the environment and
every number, and the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 16   # fresh interpreters timed per untraced run, half on each side of the ops
TIME_LIMIT_S = 170    # the whole run, set-up included, ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10      # the tail percentile keeps at least this many ops beyond it


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)      # the worker imports sqgkit from src/ only
    return env


def git_state() -> dict:
    """Commit and dirty flag when the root is a git checkout, else None."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=30,
                               check=True).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": dirty}


def source_sha256() -> str:
    """Hash of the package source, which identifies the code without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "sqgkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "source_sha256": source_sha256(),
        **git_state(),
        "threads": {name: "1" for name in THREAD_VARS},
    }


def time_setup(job_path: str, deadline: float, cpu: int) -> float:
    """Seconds from starting a fresh interpreter on ``cpu`` to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, job_path], stdout=subprocess.PIPE,
                            env=child_env(), text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - t0))[0]:
            raise RuntimeError("set-up process timed out")
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code})")
    return elapsed


def run_worker(job_path: str, deadline: float) -> None:
    proc = subprocess.run([sys.executable, WORKER, job_path], env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(job_path)} exit {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")


def time_setups(job_path: str, deadline: float, count: int) -> list[float]:
    cpus = sorted(os.sched_getaffinity(0))
    return [time_setup(job_path, deadline, cpus[k % len(cpus)]) for k in range(count)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ``TAIL_BEYOND`` of ``n`` ops beyond it."""
    if n < 2 * TAIL_BEYOND:
        raise RuntimeError(f"only {n} timed ops: the tail needs at least "
                           f"{2 * TAIL_BEYOND} (p50 with {TAIL_BEYOND} beyond it)")
    best = 50
    for p in range(50, 100):
        if n - _rank(p, n) >= TAIL_BEYOND:
            best = p
    return best


def _rank(p: int, n: int) -> int:
    """Nearest-rank index (1-based) of percentile ``p`` among ``n`` sorted values."""
    return max(1, -(-p * n // 100))


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    lat = sorted(ns * 1e-6 for ns in result["latencies_ns"])
    n = len(lat)
    if n == 0:
        raise RuntimeError("no op completed inside the measured time")
    p = tail_percentile(n)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (result["timed_passed"] / (sum(lat) * 1e-3), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (lat[_rank(p, n) - 1], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters, half before the ops "
                   "and half after",
        "ops_per_s": f"{n} timed ops",
        "op_p50_ms": f"{n} timed ops",
        "op_tail_ms": f"p{p}, {n - _rank(p, n)} ops beyond it, {n} timed ops",
        "peak_rss_mb": "workload process",
    }
    lines = [f"{k} = {v:.6g} {u}  ({notes[k]})" for k, (v, u) in metrics.items()]
    return metrics, lines


def per_layer(result: dict, units: dict) -> tuple[dict, list[str]]:
    metrics = {k: (result["layers"][k], units[k]) for k in units}
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    selfs = result["self_ms"]
    op_ms = result["layers"]["trace.op_ms"]
    lines.append(f"self time per traced op ({result['traced_ops']} ops, "
                 f"{op_ms:.3f} ms each):")
    for layer, ms in sorted(selfs.items(), key=lambda kv: -kv[1]):
        name = "outside any layer" if layer == "bench" else layer
        lines.append(f"  {name:<18} {ms:10.3f} ms  {100 * ms / op_ms:5.1f} %")
    lines.append(f"  sum of self times {sum(selfs.values()):10.3f} ms = traced op time "
                 f"{op_ms:.3f} ms")
    return metrics, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny grids and short runs, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    deadline = time.perf_counter() + TIME_LIMIT_S
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sqgkit", "__init__.py")):
        print(f"perfbench: no sqgkit source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    pool = workloads.make_inputs(args.workload, args.seed, args.tiny)
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    job = {"root": ROOT, "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
           "workdir": os.path.join(run_dir, "work"),
           "result": os.path.join(run_dir, "result.json"),
           "checks": os.path.join(run_dir, "checks.json"),
           "spans": os.path.join(run_dir, "spans.json")}
    jobs = {}
    for mode in ("check", "setup", "run"):
        jobs[mode] = os.path.join(run_dir, f"{mode}-job.json")
        with open(jobs[mode], "w", encoding="utf-8") as fh:
            json.dump({**job, "mode": mode}, fh)

    try:
        # The input check comes first; it also writes the bytecode caches.
        run_worker(jobs["check"], deadline)
        # Set-up is an end-to-end metric: a traced run does not time it.
        half = 0 if args.trace else (1 if args.tiny else SETUP_REPEATS // 2)
        setups = time_setups(jobs["setup"], deadline, half)
        run_worker(jobs["run"], deadline)
        setups += time_setups(jobs["setup"], deadline, half)
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, lines = per_layer(result, units)
        else:
            metrics, lines = end_to_end(result, setups)
    except (OSError, RuntimeError, subprocess.SubprocessError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(job["workdir"], ignore_errors=True)

    env["loadavg_end"] = os.getloadavg()
    env["numpy"] = result["numpy"]
    attempted, failed = result["attempted"], result["failed"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": workloads.inputs_sha256(pool),
              "environment": env, "setup_runs_s": setups, "result": result,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"inputs_sha256 = {record['inputs_sha256']}  ({len(pool)} inputs)")
    print(f"environment = {json.dumps(env, sort_keys=True)}")
    for line in lines:
        print(line)
    print(f"failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} ops failed)")
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    print(f"record = {os.path.relpath(run_dir, ROOT)}/record.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
