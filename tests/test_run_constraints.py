"""Settings that a run could not honour end in their typed error, not a pass:
a correlation requirement on a run with no ``correlation_final`` row, and a
solver-vs-exact comparison across two different equations."""

import os

import pytest

from sqgkit.cli import main
from sqgkit.errors import DomainError
from sqgkit.integrator import SolverParams
from sqgkit.solutions import builtin_samples
from sqgkit.spectral import GridSpec
from sqgkit.verify import solver_vs_exact


class TestCorrelationRequirement:
    @pytest.mark.parametrize("argv", [
        ["--solution", "con-1", "--kappa", "0.001", "--alpha", "0.4", "--grid", "16",
         "--t-end", "0"],
        ["--solution", "theta1", "--kappa", "0.001", "--alpha", "0.001", "--grid", "16",
         "--t-end", "1", "--dt", "0.1"],
        ["--solution", "theta1", "--kappa", "0.001", "--alpha", "0.001", "--grid", "16",
         "--t-end", "1", "--dt", "0.1", "--mode", "exact"],
    ])
    def test_requirement_on_a_run_without_the_row_exits_2(self, argv, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main(["simulate", *argv, "--require-correlation-below", "0.5",
                     "--outputs", "csv,report", "--outdir", str(outdir)])
        assert code == 2
        assert "require_correlation_below" in capsys.readouterr().err
        assert not outdir.exists() or os.listdir(outdir) == []

    def test_requirement_on_a_simulated_datum_still_gates(self, tmp_path):
        code = main(["simulate", "--solution", "con-1", "--kappa", "0.01", "--alpha", "0.4",
                     "--grid", "16", "--t-end", "0.05", "--dt", "0.005",
                     "--require-correlation-below", "0.9", "--outputs", "report",
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert any(r.startswith("correlation_final,") and r.endswith(",<0.9,fail")
                   for r in rows)


class TestSolverVsExactParameters:
    @pytest.mark.parametrize("kappa,alpha", [(0.5, 0.5), (0.5, 0.001), (0.001, 0.5)])
    def test_mismatched_parameters_are_a_domain_error(self, kappa, alpha):
        sol = builtin_samples()["theta1"].solution(0.001, 0.001)
        params = SolverParams(kappa=kappa, alpha=alpha, dt=0.1, t_end=1.0)
        with pytest.raises(DomainError, match="differ"):
            solver_vs_exact(sol, params, GridSpec(16, 16))

    def test_matching_parameters_still_compare(self):
        sol = builtin_samples()["theta1"].solution(0.5, 0.5)
        params = SolverParams(kappa=0.5, alpha=0.5, dt=0.04, t_end=1.0)
        series = solver_vs_exact(sol, params, GridSpec(16, 16))
        assert [t for t, _ in series] == [0.0, 1.0]
        assert max(err for _, err in series) < 1e-10
