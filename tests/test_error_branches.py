"""Error branches of the config parser, the field-CSV header and validation
that no other test reaches.  Each case pins the error class, the line it is
reported on and the message."""

import pytest

from sqgkit.errors import ConstraintViolation, FormatError, ParseError, UnknownKey
from sqgkit.fileio import parse_config, read_field_csv
from sqgkit.solutions import UnidirectionalSolution, validate

_BASE = "kappa = 0.01\nalpha = 0.5\ngrid = 16\n"                     # lines 1-3
_DATUM = "solution = con-1\n" + _BASE + "t_end = 1\ndt = 0.1\n"      # lines 1-6
_SECTION = _BASE + "t_end = 0\n[solution]\n"                         # lines 1-5


@pytest.mark.parametrize("text,error,issues", [
    (_SECTION + "family = eigenmode\nn = 1\nm = 1\nc1 = 1\nspin = 2\n", UnknownKey,
     [(10, "unknown key 'spin' in [solution]")]),
    (_DATUM + "snapshots = a, b\n", ParseError,
     [(7, "snapshots must be comma-separated numbers, got 'a, b'")]),
    (_DATUM + "require_correlation_below = -1\n", ConstraintViolation,
     [(7, "require_correlation_below must be finite and > 0, got -1.0")]),
    (_DATUM + "require_correlation_below = inf\n", ConstraintViolation,
     [(7, "require_correlation_below must be finite and > 0, got inf")]),
    (_SECTION + "family = unidirectional\nn = 1\nm = 1\nmodes = 1:1:0, 2:x:0, 3:1\n",
     ParseError, [(9, "modes entries must be k:a:b, got '2:x:0'"),
                  (9, "modes entries must be k:a:b, got '3:1'")]),
    (_SECTION + "family = circle\nn = 1\nm = 1\n", ConstraintViolation,
     [(6, "family must be eigenmode or unidirectional, got 'circle'")]),
    (_SECTION + "family = unidirectional\nn = 1\nm = 1\nmodes = 1:nan:0\n",
     ConstraintViolation, [(6, "invalid solution: mode amplitudes must be finite")]),
], ids=["unknown-solution-key", "snapshots-not-numbers", "correlation-negative",
        "correlation-inf", "malformed-modes", "unknown-family", "nan-amplitude"])
def test_config_error(text, error, issues):
    with pytest.raises(error) as info:
        parse_config(text)
    assert type(info.value) is error
    assert info.value.issues == issues


@pytest.mark.parametrize("header,message", [
    ("# 4,4\n", "header must be '# nx,ny,t', got '# 4,4'"),
    ("# 4.5,4,0\n", "bad header: invalid literal for int() with base 10: ' 4.5'"),
], ids=["two-fields", "non-integer-extent"])
def test_field_csv_header_error(header, message, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(header + "0,0,0,0\n" * 4)
    with pytest.raises(FormatError) as info:
        read_field_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_validation_report_messages_list_every_violation_in_order():
    sol = UnidirectionalSolution(n=0, m=0, kappa=0.01, alpha=0.5,
                                 modes=((1, 1.0, 0.0), (1, float("nan"), 0.0)))
    assert validate(sol).messages() == ["direction (n, m) must be nonzero",
                                        "duplicate mode wavenumbers: [1]",
                                        "mode amplitudes must be finite"]
