"""One fresh benchmark process: an input check, a set-up, or a closed loop of ops.

Usage: ``python3 worker.py JOB.json``.  ``run.py`` writes the job file and
starts this script with the BLAS/OpenMP thread counts pinned to 1.

With ``"mode": "check"`` the process runs the input half of the gate (the
spectral divergence of each pool entry's initial field) and writes the
verdicts to the job's ``checks`` file.  With ``"mode": "setup"`` it imports
``sqgkit``, builds the per-grid caches the workload's ops use, prints
``ready`` and exits; ``run.py`` times that from process start.  With
``"mode": "run"`` it runs ops one after another (each starts when the previous
one has returned, no extra threads) for the job's seconds, checks every op
with the workload's gate, and writes a result file.  Successive ops run on
the process's CPUs in turn, so a run samples each CPU alike.  A traced run
alternates an untraced and a traced op on the same input and CPU, so the
tracing overhead is measured on identical work, and then times the per-grid
kernel table.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import warnings

KERNEL_GRIDS = (64, 128, 256, 512)
KERNEL_DT = 0.005


def import_package(root: str):
    """Import ``sqgkit`` from the checkout's ``src``, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import sqgkit
    import sqgkit.cli  # noqa: F401  (not imported by the package itself)
    if os.path.dirname(os.path.dirname(os.path.abspath(sqgkit.__file__))) != src:
        raise ImportError(f"sqgkit imported from {sqgkit.__file__}, not {src}")
    return sqgkit


def precompute(sqg, pool, spectral: bool) -> None:
    """Build the cached meshes and multipliers the pool's ops use: every op
    evaluates on the grid's nodes, and with ``spectral`` the ops go on to the
    velocity, dealiasing and ``(-Δ)^α`` multipliers."""
    import numpy as np
    sp = sqg.spectral
    for n in sorted({e.params["grid"] for e in pool}):
        grid = sp.GridSpec(n, n)
        grid.nodes()
        if not spectral:
            continue
        s = sp.forward_transform(sp.PhysicalField(grid, np.zeros(grid.shape)))
        sp.velocity_from_theta(s)
        sp.nonlinear_term(s)
        for alpha in sorted({e.params["alpha"] for e in pool}):
            sp.fractional_laplacian(s, alpha)


def median_ms(fn, tiny: bool) -> float:
    """Median wall time of ``fn`` after one untimed warm call: at least 3 calls,
    more while under 0.3 s, at most 30 (one call when ``tiny``)."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < (1 if tiny else 3) or (
            not tiny and time.perf_counter() - start < 0.3 and len(times) < 30):
        t0 = time.perf_counter_ns()
        fn()
        times.append((time.perf_counter_ns() - t0) * 1e-6)
    return statistics.median(times)


def kernel_table(sqg, runner, entry, tiny: bool) -> dict[str, float]:
    """The per-grid kernel baseline, timed on the workload's own field."""
    sp, integ, fio = sqg.spectral, sqg.integrator, sqg.fileio
    p = entry.params
    params = integ.SolverParams(kappa=p["kappa"], alpha=p["alpha"], dt=KERNEL_DT,
                                t_end=KERNEL_DT)
    out = {}
    for n in KERNEL_GRIDS:
        field = runner.field(entry, n)
        s = sp.forward_transform(field)
        out[f"spectral.nonlinear_term_ms.g{n}"] = median_ms(lambda: sp.nonlinear_term(s), tiny)
        out[f"integrator.step_ms.g{n}"] = median_ms(lambda: integ.step(s, params), tiny)
        if n == 256:
            out["spectral.velocity_ms.g256"] = median_ms(lambda: sp.velocity_from_theta(s), tiny)
            out["spectral.transform_ms.g256"] = median_ms(
                lambda: sp.inverse_transform(sp.forward_transform(field)), tiny)
            out["fileio.csv_write_ms.g256"] = median_ms(
                lambda: fio.write_field_csv(field, "kernel.csv", t=0.0), tiny)
            out["fileio.csv_read_ms.g256"] = median_ms(
                lambda: fio.read_field_csv("kernel.csv"), tiny)
    out["fileio.parse_config_ms"] = median_ms(lambda: fio.parse_config(entry.text), tiny)
    return out


class Loop:
    """Runs and gates ops, optionally traced, and keeps their records."""

    def __init__(self, runner, tracer, input_problems: list[list[str]]):
        self.runner = runner
        self.tracer = tracer
        self.input_problems = input_problems
        self.attempted = 0
        self.failures: list[str] = []
        self.op_counts: dict[int, dict] = {}

    def run(self, pool, index: int, traced: bool = False) -> tuple[int, bool]:
        """Run the op on ``pool[index]`` and its gate; returns its wall time in
        ns and whether it passed."""
        runner, tracer = self.runner, self.tracer
        entry = pool[index]
        runner.clear()
        if traced:
            tracer.op_id = self.attempted
            tracer.counts = {}
            tracer.dt = entry.params.get("dt")
            tracer.install()
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            root = tracer.open_span("op", "bench") if traced else None
            t0 = time.perf_counter_ns()
            try:
                out = runner.op(entry)
            except Exception as exc:  # any failure of the op is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - t0
            if traced:
                tracer.close_span(root)
                span = tracer.spans[root]
                elapsed = span[3] - span[2]
        if traced:
            tracer.uninstall()
            counts = dict(tracer.counts)
            counts["stability_warnings"] = sum(
                issubclass(w.category, runner.sqg.StabilityWarning) for w in caught)
            self.op_counts[tracer.op_id] = counts
        problems = ([error] if error else self.gate(entry, out)) + self.input_problems[index]
        self.attempted += 1
        if problems:
            self.failures.append(f"op {self.attempted - 1} ({entry.kind}): {'; '.join(problems)}")
        return elapsed, not problems

    def gate(self, entry, out) -> list[str]:
        try:
            return self.runner.gate(entry, out)
        except Exception as exc:  # a gate that cannot run is a failed check
            return [f"gate error {type(exc).__name__}: {exc}"]


def run(job: dict) -> dict:
    sqg = import_package(job["root"])
    import numpy as np
    import workloads
    from tracing import Tracer, layer_metrics

    pool = workloads.make_inputs(job["workload"], job["seed"], job["tiny"])
    if job["mode"] == "check":
        runner = workloads.Runner(sqg, job["workload"])
        with open(job["checks"], "w", encoding="utf-8") as fh:
            json.dump([runner.check_input(e) for e in pool], fh)
        return {}
    precompute(sqg, pool, job["workload"] in workloads.SPECTRAL)
    if job["mode"] == "setup":
        print("ready", flush=True)
        return {}

    with open(job["checks"], encoding="utf-8") as fh:
        input_problems = json.load(fh)
    os.makedirs(job["workdir"], exist_ok=True)
    os.chdir(job["workdir"])
    runner = workloads.Runner(sqg, job["workload"])
    tracer = Tracer(sqg, np) if job["trace"] else None
    loop = Loop(runner, tracer, input_problems)
    loop.run(pool, 0)                       # warm-up: gated and counted, not timed

    cpus = sorted(os.sched_getaffinity(0))
    latencies, traced_ns, paired_ns = [], {}, []
    passed = 0
    deadline = time.perf_counter() + job["seconds"]
    i = 0
    while time.perf_counter() < deadline or (tracer and len(traced_ns) < len(pool)):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        ns, ok = loop.run(pool, i % len(pool))
        if tracer:
            paired_ns.append(ns)
            ns, _ = loop.run(pool, i % len(pool), traced=True)
            traced_ns[tracer.op_id] = ns
        else:
            latencies.append(ns)
            passed += ok
        i += 1
    os.sched_setaffinity(0, cpus)

    result = {
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:10],
        "latencies_ns": latencies,
        "timed_passed": passed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if tracer:
        # Whole pool passes only, so every count repeats exactly for a seed.
        passes = len(traced_ns) // len(pool)
        ids = sorted(traced_ns)[:passes * len(pool)]
        ops = set(ids)
        untraced = paired_ns[:len(ids)]
        result["layers"] = layer_metrics(tracer, ops, loop.op_counts, traced_ns, untraced)
        result["self_ms"] = {k: v * 1e-6 / len(ids) for k, v in tracer.self_times(ops).items()}
        result["traced_ops"] = len(ids)
        result["layers"].update(kernel_table(sqg, runner, pool[0], job["tiny"]))
        tracer.write(job["spans"])
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    if job["mode"] == "run":
        with open(job["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
