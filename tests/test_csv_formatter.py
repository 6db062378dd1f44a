"""The field CSV writer's number text: byte for byte what ``b"%.17g"`` prints.

``fileio._csv_text`` prints each value of magnitude in [1e-5, 1e17) from its
exact 17 digits in numpy and leaves 0 and the rest to ``%``.  Each case below
is held to ``%`` itself, and whole files to ``reference_write_field_csv``.
"""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import reference_write_field_csv
from sqgkit import fileio
from sqgkit.errors import DomainError
from sqgkit.fileio import read_field_csv, write_field_csv
from sqgkit.spectral import GridSpec, PhysicalField


def _expected(values, n_x, start=0):
    return b"".join(b"%.17g" % v + (b"\n" if (start + i + 1) % n_x == 0 else b",")
                    for i, v in enumerate(values.tolist()))


def _assert_prints_as_percent(values, n_x=4):
    values = np.asarray(values, dtype=float)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        text = fileio._csv_text(values, n_x, 0)
    assert text == _expected(values, n_x)


def _neighbours(x, steps=3):
    """``x`` and its ``steps`` nearest doubles on each side, with both signs."""
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out + [-y for y in out]


def test_random_bit_patterns():
    # Every exponent from subnormal to the largest double, both signs.
    bits = np.random.default_rng(1).integers(0, 2**64, 100_000, dtype=np.uint64)
    values = bits.view(np.float64)
    _assert_prints_as_percent(values[np.isfinite(values)])


def test_magnitudes_across_the_formatted_range():
    rng = np.random.default_rng(2)
    values = 10.0 ** rng.uniform(-5.5, 17.5, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    _assert_prints_as_percent(values)


def test_zeros_subnormals_and_extremes():
    tiny = sys.float_info.min
    _assert_prints_as_percent([0.0, -0.0, 5e-324, -5e-324, tiny / 3, tiny, -tiny,
                               sys.float_info.max, -sys.float_info.max, 1e-300, 1e300])


@pytest.mark.parametrize("k", range(-8, 18))
def test_powers_of_ten_and_their_neighbours(k):
    _assert_prints_as_percent(_neighbours(float(f"1e{k}")))


def test_rounding_that_carries_into_the_next_decade():
    values = [99999.999999999999, 9.99999999999999999e-5, 0.99999999999999999,
              9.9999999999999999e15, 99999999999999999.0, 9.999999999999999e-6]
    _assert_prints_as_percent([y for v in values for y in _neighbours(v)])


def test_ties_round_half_to_even():
    # 18 significant digits ending in 5: exactly between two 17-digit texts.
    _assert_prints_as_percent([123456789.001953125, 123456789.005859375,
                               12345678.0009765625, 1234567.00048828125])


def test_short_decimals_and_integers():
    rng = np.random.default_rng(3)
    decimals = [round(x, d) for x, d in zip(rng.uniform(-1e3, 1e3, 20_000).tolist(),
                                            rng.integers(0, 8, 20_000).tolist())]
    integers = rng.integers(-10**17, 10**17, 20_000).astype(float)
    _assert_prints_as_percent(decimals + [0.5, 100.0, 1e16, 1e-4, 0.001, 1e17 - 16])
    _assert_prints_as_percent(integers)


def test_values_left_to_percent():
    _assert_prints_as_percent([0.0, 1e-6, np.nextafter(1e-5, 0.0), 1e17, 2.5e17, 1e-320,
                               1.0, -1e-7])


@pytest.mark.parametrize("n_x", [1, 3, 7, 2048, 3000])
def test_blocks_of_any_row_width(n_x):
    # A block may start and end inside a row; 5000 values end in a short block.
    values = np.random.default_rng(n_x).standard_normal(5000)
    values[::97] = 0.0
    size = fileio._CSV_BLOCK_VALUES
    text = b"".join(fileio._csv_text(values[s:s + size], n_x, s)
                    for s in range(0, values.size, size))
    assert text == _expected(values, n_x)


@pytest.mark.parametrize("shape", [(8192, 4), (6, 1000), (48, 34)])
def test_files_match_the_row_writer(shape, tmp_path):
    rng = np.random.default_rng(shape[0])
    grid = GridSpec(*shape)
    values = rng.standard_normal(grid.shape) * 10.0 ** rng.integers(-7, 18, grid.shape)
    f = PhysicalField(grid, values)
    write_field_csv(f, tmp_path / "new.csv", t=0.25)
    reference_write_field_csv(f, tmp_path / "old.csv", t=0.25)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_time_writes_no_file(t, tmp_path):
    path = tmp_path / "f.csv"
    with pytest.raises(DomainError, match="t must be finite"):
        write_field_csv(PhysicalField(GridSpec(4, 4), np.zeros((4, 4))), path, t=t)
    assert not path.exists()


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=16, max_size=16))
def test_round_trip_of_any_finite_values(values, tmp_path):
    f = PhysicalField(GridSpec(4, 4), np.array(values).reshape(4, 4))
    write_field_csv(f, tmp_path / "f.csv", t=0.5)
    assert (tmp_path / "f.csv").read_bytes() == b"# 4,4,0.5\n" + _expected(f.values.ravel(), 4)
    back = read_field_csv(tmp_path / "f.csv")
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))
