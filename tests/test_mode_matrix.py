"""Every ``mode`` of a scenario on an eigenmode solution (θ1), a unidirectional
solution (θ3) and a non-exact datum (con-1), to t_end = 0 and to t_end = 0.1,
on 16²: the artifacts each run writes and the rows of its report.

The write rule: ``mode = simulate`` writes the solver's records, named
``{name}_sim_t*`` for an exact solution and ``{name}_t*`` for a datum; the other
modes write the closed form.  At t_end = 0 the only record is the initial
field, for exact solutions too.
"""

import numpy as np
import pytest

from sqgkit.errors import ConstraintViolation
from sqgkit.fileio import parse_config, read_field_csv
from sqgkit.scenario import run_scenario
from sqgkit.solutions import builtin_samples, eval_theta
from sqgkit.spectral import GridSpec

_FIELDS = {0.0: "t0", 0.1: "t0 t0.05 t0.1"}
_CLOSED = {
    ("theta1", 0.0): "residual_linf@0",
    ("theta1", 0.1): "residual_linf@0 residual_linf@0.05 correlation_dev@0.05 "
                     "residual_linf@0.1 correlation_dev@0.1",
    ("theta3", 0.0): "residual_linf@0 unidirectional_offray@0",
    ("theta3", 0.1): "residual_linf@0 unidirectional_offray@0 residual_linf@0.05 "
                     "unidirectional_offray@0.05 residual_linf@0.1 unidirectional_offray@0.1",
    ("con-1", 0.0): "validation_rejected@",
    ("con-1", 0.1): "validation_rejected@",
}
_SOLVER = {"theta1": " solver_rel_l2@0.1 decay_rate_rel_err@0.1",
           "theta3": " solver_rel_l2@0.1",
           "con-1": " correlation_final@0.1:info"}

# (solution, mode, t_end) -> (field files by stem, report rows); None: ConstraintViolation.
_MATRIX = {
    ("theta1", "auto", 0.0): ("theta1", _CLOSED["theta1", 0.0]),
    ("theta1", "exact", 0.0): ("theta1", _CLOSED["theta1", 0.0]),
    ("theta1", "both", 0.0): ("theta1", _CLOSED["theta1", 0.0]),
    ("theta1", "simulate", 0.0): ("theta1_sim", _CLOSED["theta1", 0.0]),
    ("theta1", "auto", 0.1): ("theta1", _CLOSED["theta1", 0.1] + _SOLVER["theta1"]),
    ("theta1", "exact", 0.1): ("theta1", _CLOSED["theta1", 0.1]),
    ("theta1", "both", 0.1): ("theta1", _CLOSED["theta1", 0.1] + _SOLVER["theta1"]),
    ("theta1", "simulate", 0.1): ("theta1_sim", _CLOSED["theta1", 0.1] + _SOLVER["theta1"]),
    ("theta3", "auto", 0.0): ("theta3", _CLOSED["theta3", 0.0]),
    ("theta3", "exact", 0.0): ("theta3", _CLOSED["theta3", 0.0]),
    ("theta3", "both", 0.0): ("theta3", _CLOSED["theta3", 0.0]),
    ("theta3", "simulate", 0.0): ("theta3_sim", _CLOSED["theta3", 0.0]),
    ("theta3", "auto", 0.1): ("theta3", _CLOSED["theta3", 0.1] + _SOLVER["theta3"]),
    ("theta3", "exact", 0.1): ("theta3", _CLOSED["theta3", 0.1]),
    ("theta3", "both", 0.1): ("theta3", _CLOSED["theta3", 0.1] + _SOLVER["theta3"]),
    ("theta3", "simulate", 0.1): ("theta3_sim", _CLOSED["theta3", 0.1] + _SOLVER["theta3"]),
    ("con-1", "auto", 0.0): ("con-1", _CLOSED["con-1", 0.0]),
    ("con-1", "exact", 0.0): None,
    ("con-1", "both", 0.0): None,
    ("con-1", "simulate", 0.0): ("con-1", _CLOSED["con-1", 0.0]),
    ("con-1", "auto", 0.1): ("con-1", _CLOSED["con-1", 0.1] + _SOLVER["con-1"]),
    ("con-1", "exact", 0.1): None,
    ("con-1", "both", 0.1): None,
    ("con-1", "simulate", 0.1): ("con-1", _CLOSED["con-1", 0.1] + _SOLVER["con-1"]),
}


def _config(solution, mode, t_end, outdir):
    times = "dt = 0.01\nsnapshots = 0.05\n" if t_end else ""
    return parse_config(f"solution = {solution}\nkappa = 0.01\nalpha = 0.5\ngrid = 16\n"
                        f"t_end = {t_end}\n{times}mode = {mode}\n"
                        f"outputs = csv, ppm, report\noutdir = {outdir}\n")


def _report_rows(path, name):
    rows = []
    for line in path.read_text().splitlines()[1:]:
        check, subject, time, value, _, status = line.split(",")
        assert subject == name and np.isfinite(float(value))
        row = f"{check}@{float(time):g}" if time else f"{check}@"
        rows.append(row if status == "pass" else f"{row}:{status}")
    return " ".join(rows)


@pytest.mark.parametrize("solution,mode,t_end", list(_MATRIX))
def test_mode_matrix(solution, mode, t_end, tmp_path):
    config = _config(solution, mode, t_end, tmp_path)
    expected = _MATRIX[solution, mode, t_end]
    if expected is None:
        with pytest.raises(ConstraintViolation, match=f"mode = {mode} requires an exact"):
            run_scenario(config)
        assert list(tmp_path.iterdir()) == []
        return
    stem, rows = expected
    result = run_scenario(config)
    assert result.exit_code == 0
    fields = [f"{stem}_{tag}.{kind}" for tag in _FIELDS[t_end].split() for kind in ("csv", "ppm")]
    assert [p.name for p in map(tmp_path.joinpath, result.artifacts)] == fields + ["report.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(fields + ["report.csv"])
    assert _report_rows(tmp_path / "report.csv", solution) == rows


@pytest.mark.parametrize("solution", ["theta1", "theta3", "con-1"])
def test_simulate_at_t_end_0_writes_the_initial_field(solution, tmp_path):
    sample = builtin_samples()[solution]
    grid = GridSpec(16, 16)
    initial = (eval_theta(sample.solution(0.01, 0.5), 0.0, grid) if sample.exact
               else sample.initial_field(grid))
    run_scenario(_config(solution, "simulate", 0.0, tmp_path))
    stem = f"{solution}_sim" if sample.exact else solution
    field = read_field_csv(tmp_path / f"{stem}_t0.csv")
    assert np.array_equal(field.values, initial.values)


@pytest.mark.parametrize("mode", ["auto", "exact", "both", "simulate"])
@pytest.mark.parametrize("outputs", ["csv, ppm, report", "report"])
def test_each_closed_form_is_built_once_per_time(mode, outputs, tmp_path, monkeypatch):
    from sqgkit import scenario, solutions

    times = []

    def counted(sol, t, grid):
        times.append(t)
        return eval_theta(sol, t, grid)

    monkeypatch.setattr(scenario, "eval_theta", counted)
    monkeypatch.setattr(solutions, "eval_theta", counted)   # verify's binding
    config = _config("theta1", mode, 0.1, tmp_path)
    config.outputs = tuple(kind.strip() for kind in outputs.split(","))
    run_scenario(config)
    closed_forms = mode != "exact" or "csv" in outputs   # written, or checked against the march
    assert times == ([0.0, 0.05, 0.1] if closed_forms else [0.0])
