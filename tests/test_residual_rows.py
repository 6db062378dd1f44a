"""The ``residual_linf`` rows of a run: every time from one ``verify._residual_linf`` pass.

The pass validates once, fetches the cached terms once and sums each time
into one buffer by the summation of ``verify.residual``, so each row is bit
for bit the ``l_inf`` that ``residual`` returns, its errors are the ones
``residual`` raises, and its cost and memory do not grow with the times but
by one sum per time.  An amplitude near the overflow threshold gives finite
rows.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sqgkit import scenario, solutions, verify
from sqgkit.cli import main
from sqgkit.errors import DomainError, InvalidSolution, UnderResolved
from sqgkit.fileio import parse_config
from sqgkit.solutions import EigenmodeSolution, UnidirectionalSolution, builtin_samples
from sqgkit.spectral import GridSpec

from oracles import direct_residual, residual_atol

_SOLUTIONS = {
    **{name: builtin_samples()[name].solution(0.01, 0.5)
       for name in ("theta1", "theta2", "theta3")},
    # The three eigenmode styles: the (n, m) group alone, the k group alone, both.
    "eigen-a": EigenmodeSolution(n=2, m=-3, k=0, kappa=0.004, alpha=0.3,
                                 c1=0.8, c2=-1.1, c3=0.4, c4=1.7),
    "eigen-b": EigenmodeSolution(n=1, m=2, k=-3, kappa=0.007, alpha=0.6,
                                 c5=1.2, c6=-0.3, c7=0.9, c8=-1.4),
    "eigen-both": EigenmodeSolution(n=-3, m=4, k=5, kappa=0.002, alpha=0.45,
                                    c1=0.5, c2=0.7, c3=-1.3, c4=0.2,
                                    c5=-0.6, c6=1.1, c7=0.3, c8=-0.9),
    **{f"uni{count}": UnidirectionalSolution(
        n=1, m=-2, kappa=0.006, alpha=0.7,
        modes=((-1, 1.4, -0.3), (2, 0.5, 0.8), (3, -1.9, 0.6))[:count])
       for count in (1, 2, 3)},
    # The pair rate 2e308 overflows to inf, and inf·0 would be NaN at t = 0.
    "huge-kappa": UnidirectionalSolution(n=1, m=0, kappa=1e308, alpha=0.3,
                                         modes=((1, 0.5, 0.2),)),
    "no-waves": EigenmodeSolution(n=1, m=1, kappa=0.01, alpha=0.5),
}
_GRIDS = [GridSpec(16, 16), GridSpec(32, 32), GridSpec(48, 32), GridSpec(256, 256)]
_TIMES = [0.0, 0.0, 0.37, 0.37, 2.5, 12.5]


def _resolves(sol, grid):
    mx, my = verify.max_mode(sol)
    return 4 * mx <= grid.n_x and 4 * my <= grid.n_y


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("name,grid", [
    pytest.param(name, grid, id=f"{name}-{grid.n_x}x{grid.n_y}")
    for grid in _GRIDS for name, sol in _SOLUTIONS.items() if _resolves(sol, grid)])
def test_rows_are_the_residual_l_inf_bit_for_bit(name, grid):
    sol = _SOLUTIONS[name]
    rows = verify._residual_linf(sol, _TIMES, grid)
    assert _bits(rows) == _bits([verify.residual(sol, t, grid).l_inf for t in _TIMES])
    if name != "huge-kappa":   # the direct assembly overflows where the terms do not
        direct = [direct_residual(sol, t, grid)[0] for t in _TIMES]
        assert_allclose(rows, direct, rtol=1e-12, atol=residual_atol(sol))


@pytest.mark.parametrize("sol,times,grid,error", [
    (_SOLUTIONS["theta2"], [0.0, 1.0], GridSpec(16, 16), UnderResolved),
    (_SOLUTIONS["eigen-both"], [0.0], GridSpec(32, 16), UnderResolved),
    (EigenmodeSolution(n=1, m=1, kappa=-0.1, alpha=0.5, c1=1.0), [0.0, 1.0],
     GridSpec(16, 16), InvalidSolution),
    (UnidirectionalSolution(n=1, m=1, kappa=0.1, alpha=0.5, modes=((1, 1.0, 0.0),) * 2),
     [0.0], GridSpec(16, 16), InvalidSolution),
    (_SOLUTIONS["theta1"], [0.0, -1e6], GridSpec(16, 16), DomainError),
], ids=["under-resolved", "under-resolved-y", "bad-kappa", "duplicate-modes", "overflow"])
def test_errors_are_the_ones_residual_raises(sol, times, grid, error, monkeypatch):
    with pytest.raises(error) as single:
        for t in times:
            verify.residual(sol, t, grid)
    summed = []
    into = verify._residual_into
    monkeypatch.setattr(verify, "_residual_into",
                        lambda terms, t, *rest, **kw: summed.append(t) or into(terms, t, *rest, **kw))
    with pytest.raises(error) as rows:
        verify._residual_linf(sol, times, grid)
    assert str(rows.value) == str(single.value)
    # Validation and the margin come before any row; a time raises in its own sum.
    assert summed == (times if error is DomainError else [])


def _exact_config(outdir, snapshots, solution="theta1", grid=64):
    return parse_config(f"solution = {solution}\nkappa = 0.01\nalpha = 0.5\ngrid = {grid}\n"
                        f"t_end = 2\ndt = 0.01\nsnapshots = {snapshots}\nmode = exact\n"
                        f"outputs = report\noutdir = {outdir}\n")


def test_a_too_coarse_grid_raises_before_any_row_and_leaves_no_outdir(tmp_path):
    config = _exact_config(tmp_path / "out", "1", "theta2", grid=16)
    with pytest.raises(UnderResolved) as rows:
        scenario.run_scenario(config)
    with pytest.raises(UnderResolved) as single:
        verify.residual(_SOLUTIONS["theta2"], 0.0, config.grid)
    assert str(rows.value) == str(single.value)
    assert not (tmp_path / "out").exists()


def test_validations_and_term_builds_do_not_grow_with_the_times(tmp_path, monkeypatch):
    counts = {"validate": 0, "builds": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(solutions, "validate", counted("validate", solutions.validate))
    monkeypatch.setattr(verify, "validate", counted("validate", verify.validate))
    monkeypatch.setattr(verify, "_pattern_grams", counted("builds", verify._pattern_grams))
    seen = []
    for snapshots in ("1", ", ".join(f"{0.1 * i:.1f}" for i in range(1, 20))):
        config = _exact_config(tmp_path / f"out{len(seen)}", snapshots)
        solutions._GRID_DATA.clear()
        counts.update(validate=0, builds=0)
        result = scenario.run_scenario(config)
        rows = [c for c in result.checks if c.check == "residual_linf"]
        seen.append((len(rows), dict(counts)))
    assert [n for n, _ in seen] == [3, 21]
    assert seen[0][1] == seen[1][1]
    assert seen[0][1]["builds"] == 1


def test_the_rows_pass_peak_does_not_grow_with_the_times():
    sol, grid = _SOLUTIONS["theta1"], GridSpec(64, 64)
    verify._residual_linf(sol, [0.0], grid)   # the terms are built outside the trace
    peaks = []
    for count in (3, 21):
        times = [0.1 * i for i in range(count)]
        tracemalloc.start()
        try:
            verify._residual_linf(sol, times, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Two fields are the sum buffer and its work array; 21 floats are no field.
    assert 2 * grid.size * 8 <= peaks[0] and peaks[1] - peaks[0] < grid.size * 8 // 8


_HUGE = {
    "eigenmode": (EigenmodeSolution(n=2, m=1, k=5, kappa=0.01, alpha=0.5, c1=1e160),
                  "family = eigenmode\nn = 2\nm = 1\nk = 5\nc1 = 1e160\n"),
    "unidirectional": (UnidirectionalSolution(n=1, m=1, kappa=0.01, alpha=0.5,
                                              modes=((1, 1e160, 0.0), (2, 1e160, 0.0))),
                       "family = unidirectional\nn = 1\nm = 1\nmodes = 1:1e160:0, 2:1e160:0\n"),
}


@pytest.mark.parametrize("name", sorted(_HUGE))
def test_amplitudes_near_the_overflow_threshold_give_finite_rows(name, tmp_path, capsys):
    # The kernel's products of 1e160 amplitudes overflowed and the rows were
    # NaN; each pattern now enters the kernel scaled by a power of two.
    sol, section = _HUGE[name]
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"outdir = {tmp_path / 'out'}\nkappa = 0.01\nalpha = 0.5\ngrid = 16\n"
                   f"t_end = 1\ndt = 0.1\nmode = exact\noutputs = report\n[solution]\n"
                   + section)
    solutions._GRID_DATA.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        linf = verify._residual_linf(sol, [0, 1], GridSpec(16, 16))
        assert main(["scenario", str(cfg)]) == 1   # round-off of 1e320 fails the gate
    rows = [row.split(",") for row in (tmp_path / "out" / "report.csv").read_text().splitlines()]
    values = [float(row[3]) for row in rows if row[0] == "residual_linf"]
    assert values == linf and all(1e300 < v < math.inf for v in values)
    assert "error" not in capsys.readouterr().err
