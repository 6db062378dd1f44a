"""One parameter domain: ``SolverParams``, ``parse_config`` and ``validate``
accept and reject the same κ, α, dt, t_end and snapshot times, all through
``integrator.parameter_issues``."""

import math

import pytest

from sqgkit.errors import ConfigError, DomainError
from sqgkit.fileio import parse_config
from sqgkit.integrator import MAX_STEPS, SolverParams, parameter_issues
from sqgkit.solutions import builtin_samples, validate

_BASE = dict(kappa=0.1, alpha=0.5, dt=0.01, t_end=1.0, snapshot_times=())
_UP = math.nextafter(1.0, math.inf)

# (overrides of _BASE, the key an issue is reported under, accepted?)
_CASES = [
    *[({"kappa": v}, "kappa", False) for v in (math.nan, math.inf, -math.inf, 0.0, -0.0)],
    *[({"alpha": v}, "alpha", ok) for v, ok in ((math.nan, False), (math.inf, False),
                                                (-math.inf, False), (0.0, True), (-0.0, True),
                                                (1.0, False), (math.nextafter(1.0, 0.0), True))],
    *[({"dt": v}, "dt", False) for v in (math.nan, math.inf, -math.inf, 0.0, -0.0)],
    *[({"t_end": v}, "t_end", ok) for v, ok in ((math.nan, False), (math.inf, False),
                                                (-math.inf, False), (0.0, True), (-0.0, True))],
    (dict(dt=1.0), "dt", True),                                     # dt = t_end
    (dict(dt=_UP), "dt", False),                                    # dt just above t_end
    (dict(dt=1.0, t_end=float(MAX_STEPS)), "dt", True),             # exactly 10^7 steps
    (dict(dt=1.0, t_end=math.nextafter(MAX_STEPS, math.inf)), "dt", False),
    (dict(snapshot_times=(1.0,)), "snapshots", True),               # at t_end
    (dict(snapshot_times=(_UP,)), "snapshots", False),
    (dict(snapshot_times=(math.nan,)), "snapshots", False),
]

_KAPPA_ALPHA = [case for case in _CASES if case[1] in ("kappa", "alpha")]


def _config(params: dict) -> str:
    lines = ["solution = theta1", "grid = 16"]
    lines += [f"{key} = {params[key]!r}" for key in ("kappa", "alpha", "t_end", "dt")]
    if params["snapshot_times"]:
        lines.append("snapshots = " + ", ".join(map(repr, params["snapshot_times"])))
    return "\n".join(lines) + "\n"


def _line_of(text: str, key: str) -> int:
    return next(i for i, line in enumerate(text.splitlines(), start=1)
                if line.startswith(key + " "))


@pytest.mark.parametrize("overrides, key, accepted", _CASES, ids=[repr(c[0]) for c in _CASES])
def test_solver_params_and_parse_config_agree(overrides, key, accepted):
    params = {**_BASE, **overrides}
    text = _config(params)
    if accepted:
        SolverParams(**params)
        parse_config(text)
        return
    with pytest.raises(DomainError, match=key):
        SolverParams(**params)
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any(loc == _line_of(text, key) and key in message for loc, message in exc.value.issues)


@pytest.mark.parametrize("overrides, key, accepted", _KAPPA_ALPHA,
                         ids=[repr(c[0]) for c in _KAPPA_ALPHA])
def test_validate_reports_the_same_code(overrides, key, accepted):
    params = {**_BASE, **overrides}
    sol = builtin_samples()["theta1"].solution(params["kappa"], params["alpha"])
    codes = [v.code for v in validate(sol).violations]
    assert codes == ([] if accepted else [key])


def test_a_parameter_given_as_none_is_not_checked():
    assert parameter_issues() == []
    assert parameter_issues(alpha=math.nan, snapshot_times=(math.nan,)) == [
        ("alpha", "alpha must lie in [0, 1), got nan")]
    assert [key for key, _ in parameter_issues(dt=0.5, t_end=0.2)] == ["dt"]


def test_dt_beyond_t_end_is_a_config_error_in_every_mode():
    for mode in ("auto", "exact", "simulate", "both"):
        text = _config({**_BASE, "dt": 0.5, "t_end": 0.2}) + f"mode = {mode}\n"
        with pytest.raises(ConfigError, match="dt = 0.5 exceeds t_end = 0.2"):
            parse_config(text)

