"""A scenario writes nothing until its checks and its march are done: the
closed-form rows, then the one ``simulate`` call, then ``outdir`` and one
pass over the times.  So a blowup or a grid too coarse for the solution
leaves no directory (rows of ``test_exit_codes``), and the write pass holds
one closed-form θ(t) at a time.  Also: the quadratic checks of solutions with
tiny amplitudes see a field, not an underflow."""

import gc
import weakref

import pytest

from sqgkit import scenario
from sqgkit.cli import main
from sqgkit.fileio import parse_config
from sqgkit.solutions import eval_theta


def test_the_write_pass_holds_one_closed_form_at_a_time(tmp_path, monkeypatch):
    built, alive_at_build = [], []

    def tracked(sol, t, grid):
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in built))
        field = eval_theta(sol, t, grid)
        built.append(weakref.ref(field))
        return field

    monkeypatch.setattr(scenario, "eval_theta", tracked)
    config = parse_config(f"solution = theta1\nkappa = 0.01\nalpha = 0.5\ngrid = 16\nt_end = 1\n"
                          f"dt = 0.02\nsnapshots = 0.2, 0.4, 0.6, 0.8\nmode = both\n"
                          f"outputs = csv, report\noutdir = {tmp_path}\n")
    assert scenario.run_scenario(config).exit_code == 0
    # θ(0) is the march's initial field and stays; one more is the last time's.
    assert len(built) == 6 and max(alive_at_build) <= 2


_TINY = "kappa = 0.01\nalpha = 0.5\ngrid = 16\nt_end = 1\ndt = 0.1\nmode = exact\n" \
        "outputs = report\n[solution]\n"


@pytest.mark.parametrize("section,check,count", [
    ("family = unidirectional\nn = 1\nm = 1\nmodes = 1:{a}:0, 2:{a}:0\n",
     "unidirectional_offray", 2),   # at t = 0 and 1
    ("family = eigenmode\nn = 2\nm = 1\nc1 = {a}\n", "correlation_dev", 1),   # at t = 1
], ids=["unidirectional", "eigenmode"])
@pytest.mark.parametrize("amplitude", ["1e-160", "1e-170", "1e-300", "2.2e-311"])
def test_tiny_amplitudes_pass_the_quadratic_checks(section, check, count, amplitude,
                                                   tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"outdir = {tmp_path / 'out'}\n" + _TINY + section.format(a=amplitude))
    assert main(["scenario", str(cfg)]) == 0
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()[1:]
    assert rows and all(row.endswith(",pass") for row in rows)
    assert sum(row.startswith(check + ",") for row in rows) == count
    assert "error" not in capsys.readouterr().err
