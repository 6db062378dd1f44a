"""Workload definitions: seeded input generation, the timed op, and its gate.

Inputs are plain data (config texts and argv lists) generated from the seed
before any timing, so the package under test only ever sees generated inputs
and two runs on one seed use byte-identical inputs (see ``inputs_sha256``).

Each pool is built in blocks with a fixed order of input *styles*; the seed
draws the parameters inside each style (and the order inside a block), so any
prefix of the pool has the same mix of op costs whatever the seed.  That keeps
per-run medians comparable across seeds.

Ops run with the working directory set to a scratch directory, so every path
in the inputs is relative.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("turbulent-solve", "exact-check", "artifact-roundtrip")
# The workloads whose ops go on from the grid's nodes to the spectral layer.
SPECTRAL = ("turbulent-solve", "exact-check")

# Grid per workload, and the tiny grids the self-test uses instead.
GRID = {"turbulent-solve": 128, "exact-check": 256, "artifact-roundtrip": 512}
TINY_GRID = {"turbulent-solve": 32, "exact-check": 48, "artifact-roundtrip": 32}

TURBULENT_DT = 0.005
TURBULENT_T_END = 0.25          # 50 full IFRK4 steps plus the snapshot split
EXACT_SNAPSHOTS = 8             # plus t = 0 and t_end: 10 closed-form times
REPORT_HEADER = "check,subject,time,value,threshold,status"


@dataclass(frozen=True)
class Entry:
    """One generated op input.

    ``kind`` names the style it was drawn from; ``text`` is a scenario config
    (turbulent-solve, exact-check) and ``argvs`` the two CLI invocations
    (artifact-roundtrip).  ``params`` holds κ, α and the grid (and, per
    workload, the time or dt) for set-up, the gate and the kernel table.
    """

    kind: str
    text: str = ""
    argvs: tuple = ()
    params: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _turbulent_pool(rng: random.Random, grid: int) -> list[Entry]:
    pool = []
    for _ in range(2):
        for datum in rng.sample(["con-1", "con-2", "con-3"], 3):
            kappa = round(rng.uniform(5e-4, 2e-3), 6)
            alpha = round(rng.uniform(0.1, 0.6), 4)
            snap = round(rng.uniform(0.05, 0.2), 4)
            text = (f"solution = {datum}\nkappa = {_num(kappa)}\nalpha = {_num(alpha)}\n"
                    f"grid = {grid}\nt_end = {_num(TURBULENT_T_END)}\n"
                    f"dt = {_num(TURBULENT_DT)}\nsnapshots = {_num(snap)}\n"
                    f"mode = simulate\noutputs = report\noutdir = op\n")
            pool.append(Entry(datum, text=text,
                              params={"kappa": kappa, "alpha": alpha, "grid": grid,
                                      "dt": TURBULENT_DT}))
    return pool


_PYTHAGOREAN = ((3, 4, 5), (4, 3, 5), (6, 8, 10), (8, 6, 10))


def _coeffs(rng: random.Random, count: int) -> list[float]:
    c = [round(rng.uniform(-2.0, 2.0), 6) for _ in range(count)]
    if max(abs(v) for v in c) < 0.3:
        c[rng.randrange(count)] = 1.0
    return c


def _eigen_section(rng: random.Random, style: str) -> str:
    sign = lambda: rng.choice((-1, 1))  # noqa: E731
    if style == "both":
        n, m, k = rng.choice(_PYTHAGOREAN)
        n, m, k = sign() * n, sign() * m, sign() * k
        c = _coeffs(rng, 8)
    elif style == "a_only":
        n, m, k = sign() * rng.randint(1, 12), sign() * rng.randint(1, 12), 0
        c = _coeffs(rng, 4) + [0.0] * 4
    else:  # b_only: n, m stay nonzero but only the k group carries amplitude
        n, m = sign() * rng.randint(1, 12), sign() * rng.randint(1, 12)
        k = sign() * rng.randint(1, 12)
        c = [0.0] * 4 + _coeffs(rng, 4)
    lines = ["family = eigenmode", f"n = {n}", f"m = {m}", f"k = {k}"]
    lines += [f"c{i} = {_num(v)}" for i, v in enumerate(c, start=1) if v != 0.0]
    return "\n".join(lines) + "\n"


def _uni_section(rng: random.Random, count: int) -> str:
    n = m = 0
    while n == 0 and m == 0:
        n, m = rng.randint(-3, 3), rng.randint(-3, 3)
    # No k = 0 mode: a mean-only field has no pattern, and run_scenario's
    # pattern-correlation check raises ZeroField on it.
    ks = rng.sample((-3, -2, -1, 1, 2, 3), count)
    amp = lambda: _num(round(rng.uniform(-2.0, 2.0), 6))  # noqa: E731
    modes = ", ".join(f"{k}:{amp()}:{amp()}" for k in ks)
    return f"family = unidirectional\nn = {n}\nm = {m}\nmodes = {modes}\n"


# Fixed style order of one exact-check block; the seed fills in each style.
_EXACT_STYLES = ("theta1", "a_only", "uni1", "b_only", "theta2", "uni2",
                 "both", "a_only", "theta3", "uni3", "both", "b_only")


def _exact_pool(rng: random.Random, grid: int) -> list[Entry]:
    pool = []
    for style in _EXACT_STYLES:
        kappa = round(rng.uniform(1e-3, 1e-2), 6)
        alpha = round(rng.uniform(0.0, 0.75), 4)
        t_end = round(rng.uniform(1.0, 10.0), 3)
        snaps = sorted({round(rng.uniform(0.0, t_end), 4) for _ in range(EXACT_SNAPSHOTS)}
                       - {0.0, t_end})
        head = (f"kappa = {_num(kappa)}\nalpha = {_num(alpha)}\ngrid = {grid}\n"
                f"t_end = {_num(t_end)}\ndt = 0.01\n"
                f"snapshots = {', '.join(_num(t) for t in snaps)}\n"
                f"mode = exact\noutputs = report\noutdir = op\n")
        if style.startswith("theta"):
            text = f"solution = {style}\n" + head
        elif style.startswith("uni"):
            text = head + "[solution]\n" + _uni_section(rng, int(style[3:]))
        else:
            text = head + "[solution]\n" + _eigen_section(rng, style)
        pool.append(Entry(style, text=text,
                          params={"kappa": kappa, "alpha": alpha, "grid": grid}))
    return pool


def _artifact_pool(rng: random.Random, grid: int) -> list[Entry]:
    pool = []
    for _ in range(2):
        for name in rng.sample(["theta1", "theta2", "theta3"], 3):
            kappa = round(rng.uniform(1e-3, 1e-2), 6)
            alpha = round(rng.uniform(0.0, 0.9), 4)
            t = round(rng.uniform(0.0, 50.0), 3)
            eval_argv = ("eval", "--solution", name, "--kappa", _num(kappa),
                         "--alpha", _num(alpha), "--time", _num(t), "--grid", str(grid),
                         "--csv", "field.csv", "--ppm", "field.ppm")
            render_argv = ("render", "--input", "field.csv", "--output", "render.ppm")
            # The same evaluation as a config: only the parse_config kernel uses it.
            text = (f"solution = {name}\nkappa = {_num(kappa)}\nalpha = {_num(alpha)}\n"
                    f"grid = {grid}\nt_end = {_num(t)}\ndt = 0.01\nmode = exact\n"
                    f"outputs = csv, ppm\n")
            pool.append(Entry(name, text=text, argvs=(eval_argv, render_argv),
                              params={"kappa": kappa, "alpha": alpha, "t": t, "grid": grid}))
    return pool


def make_inputs(workload: str, seed: int, tiny: bool = False) -> list[Entry]:
    """Generate the op pool of ``workload`` from ``seed`` (no package calls)."""
    rng = random.Random(f"{workload}:{seed}")
    grid = (TINY_GRID if tiny else GRID)[workload]
    build = {"turbulent-solve": _turbulent_pool, "exact-check": _exact_pool,
             "artifact-roundtrip": _artifact_pool}[workload]
    return build(rng, grid)


def inputs_sha256(pool: list[Entry]) -> str:
    """Hash of every generated config text and argv, in pool order."""
    blob = json.dumps([[e.kind, e.text, [list(a) for a in e.argvs]] for e in pool],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------------
# the op and its gate
# --------------------------------------------------------------------------

class Runner:
    """Runs ops of one workload against an imported ``sqgkit``.

    The only hook it installs is ``capture``: a pass-through around
    ``integrator.simulate`` that keeps the last trajectory, so the gate can
    check the final solver state.  It is installed in every namespace that
    binds ``simulate`` before any tracing starts.
    """

    def __init__(self, sqgkit, workload: str):
        self.sqg = sqgkit
        self.workload = workload
        self.last_trajectory = None
        original = sqgkit.integrator.simulate

        def capture(initial, params):
            self.last_trajectory = original(initial, params)
            return self.last_trajectory

        for mod in (sqgkit, sqgkit.integrator, sqgkit.scenario, sqgkit.verify):
            if getattr(mod, "simulate", None) is original:
                mod.simulate = capture

    def clear(self) -> None:
        """Remove the previous op's artifacts so the gate only sees fresh ones."""
        self.last_trajectory = None
        for path in ("op/report.csv", "field.csv", "field.ppm", "render.ppm"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def op(self, entry: Entry):
        """The timed operation; returns what the gate needs."""
        if self.workload == "artifact-roundtrip":
            with contextlib.redirect_stdout(io.StringIO()):
                return tuple(self.sqg.cli.main(list(argv)) for argv in entry.argvs)
        return self.sqg.scenario.run_scenario(self.sqg.fileio.parse_config(entry.text))

    def gate(self, entry: Entry, out) -> list[str]:
        """Check one op's outputs; returns the failed checks (empty = pass)."""
        if self.workload == "artifact-roundtrip":
            return self.check_artifacts(entry, out, "field.csv", "field.ppm", "render.ppm")
        problems = []
        if out.exit_code != 0:
            problems.append(f"exit code {out.exit_code}")
        problems += check_report("op/report.csv", len(out.checks))
        if self.workload == "turbulent-solve":
            problems += self.check_final_state(TURBULENT_T_END)
        return problems

    def field(self, entry: Entry, n: int):
        """The op's input field on an ``n``-square grid, built as the package does."""
        sqg = self.sqg
        grid = sqg.spectral.GridSpec(n, n)
        samples = sqg.solutions.builtin_samples()
        p = entry.params
        if self.workload == "artifact-roundtrip":
            sol = samples[entry.kind].solution(p["kappa"], p["alpha"])
            return sqg.solutions.eval_theta(sol, p["t"], grid)
        sol = sqg.fileio.parse_config(entry.text).solution
        if isinstance(sol, str):
            if not samples[sol].exact:
                return samples[sol].initial_field(grid)
            sol = samples[sol].solution(p["kappa"], p["alpha"])
        return sqg.solutions.eval_theta(sol, 0.0, grid)

    def check_input(self, entry: Entry) -> list[str]:
        """The input half of the gate: the spectral divergence of
        ``velocity_from_theta`` on the op's initial field is exactly 0.  It
        depends on the input only, so it runs once per pool entry, in a
        process of its own, and its verdict is added to every op on it."""
        return self.check_divergence(self.field(entry, entry.params["grid"]))

    def check_divergence(self, field) -> list[str]:
        sp = self.sqg.spectral
        u, v = sp.velocity_from_theta(sp.forward_transform(field))
        kx, ky = field.grid.wavenumbers()
        div = 1j * kx * u.coefficients + 1j * ky * v.coefficients
        worst = float(abs(div).max())
        return [] if worst == 0.0 else [f"spectral divergence {worst:.3e} != 0"]

    def check_final_state(self, t_end: float) -> list[str]:
        traj = self.last_trajectory
        if traj is None:
            return ["solver did not run"]
        final = traj.final
        problems = []
        if final.t != t_end:
            problems.append(f"final time {final.t} != t_end {t_end}")
        if not (math.isfinite(final.l2) and bool(np.isfinite(final.field.values).all())):
            problems.append("final solver state is not finite")
        return problems

    def check_artifacts(self, entry: Entry, codes, csv_path, ppm_path, render_path) -> list[str]:
        """CSV equals ``eval_theta`` bit for bit; the render equals eval's PPM."""
        sqg = self.sqg
        problems = [f"{argv[0]} exit code {code}"
                    for argv, code in zip(entry.argvs, codes) if code != 0]
        expected = self.field(entry, entry.params["grid"])
        try:
            back = sqg.fileio.read_field_csv(csv_path).values
        except (OSError, ValueError, sqg.errors.SqgError) as exc:
            problems.append(f"CSV unreadable: {exc}")
        else:
            if back.shape != expected.values.shape or not np.array_equal(
                    back.view(np.uint64), expected.values.view(np.uint64)):
                problems.append("CSV read back differs from eval_theta")
        try:
            with open(ppm_path, "rb") as a, open(render_path, "rb") as b:
                if a.read() != b.read():
                    problems.append("rendered PPM differs from the one eval wrote")
        except OSError as exc:
            problems.append(f"PPM missing: {exc}")
        return problems


def check_report(path: str, expected_rows: int) -> list[str]:
    """Every row of ``report.csv`` passes (or is informational) and is finite."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"report missing: {exc}"]
    if not lines or lines[0] != REPORT_HEADER:
        return ["report header malformed"]
    rows = [ln.split(",") for ln in lines[1:]]
    problems = []
    if len(rows) != expected_rows or not rows:
        problems.append(f"report has {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        if len(row) != 6 or row[5] not in ("pass", "info"):
            problems.append(f"report row failed: {','.join(row)}")
        elif not math.isfinite(float(row[3])):
            problems.append(f"report value not finite: {','.join(row)}")
    return problems
