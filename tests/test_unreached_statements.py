"""Statements no other test runs: a datum with no closed form given to
``sqg verify``, an empty entry in ``outputs``, a non-solution given to the
solution readers, a grid extent that is not an integer, a coefficient array
of the wrong size, and the off-ray fraction of a zero field."""

import numpy as np
import pytest

from sqgkit import solutions, verify
from sqgkit.cli import main
from sqgkit.errors import ZeroField
from sqgkit.fileio import parse_config
from sqgkit.spectral import GridSpec, SpectralField


def test_verify_of_a_datum_without_a_closed_form_exits_2(capsys):
    assert main(["verify", "--solution", "con-2"]) == 2
    assert "no closed-form" in capsys.readouterr().err


def test_an_empty_output_kind_is_skipped():
    config = parse_config("solution = theta1\nkappa = 0.01\nalpha = 0.5\ngrid = 16\n"
                          "t_end = 0\noutputs = csv,,ppm\n")
    assert config.outputs == ("csv", "ppm")


@pytest.mark.parametrize("reader", [solutions.validate, solutions._waves])
def test_a_solution_reader_rejects_a_non_solution(reader):
    with pytest.raises(TypeError, match="not a solution type: int"):
        reader(3)


def test_a_float_grid_extent_is_rejected():
    with pytest.raises(ValueError, match="n_x must be an integer, got 4.0"):
        GridSpec(4.0, 4)


def test_a_spectral_field_of_the_wrong_size_is_rejected():
    with pytest.raises(ValueError, match="expected 16 coefficients for a 4x4 grid, got 12"):
        SpectralField(GridSpec(4, 4), np.zeros((3, 4), dtype=complex))


def test_off_ray_fraction_of_a_zero_field_raises():
    grid = GridSpec(16, 16)
    grams = verify._pattern_grams((0.5,), [np.zeros((16, 9), dtype=complex)], grid, (1, 1))
    with pytest.raises(ZeroField, match="zero field"):
        grams.off_ray_fraction(0.0)
