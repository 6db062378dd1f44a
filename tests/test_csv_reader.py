"""The canonical field CSV reader: ``float()``'s bits from numpy, or no answer.

``fileio._read_canonical`` reads a file of only ``0-9 . - + e ,`` and
newlines, in the header's rows and columns, and returns None for any other
file, which then goes to the row loop.  Its numbers must be ``float()``'s bit
for bit, whether a token went through the vectorised parse and its
certificate or through ``float()`` itself.
"""

import gc
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from sqgkit import fileio, solutions
from sqgkit.errors import FormatError
from sqgkit.fileio import read_field_csv, write_field_csv
from sqgkit.spectral import GridSpec, PhysicalField


def _no_loop(path):
    raise AssertionError("the row loop ran on a canonical file")


@pytest.fixture
def canonical_only(monkeypatch):
    """Fail the test if a read leaves the canonical reader."""
    monkeypatch.setattr(fileio, "_read_rows", _no_loop)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _theta(name, grid):
    sol = solutions.builtin_samples()[name].solution(5e-3, 0.4)
    return solutions.eval_theta(sol, 12.3, grid)


def _tokens_file(path, tokens, n_x=4):
    """A file of ``tokens`` in rows of ``n_x``, filled up with ``1`` to an
    even number of rows, at least 16: few enough ``e`` forms that the
    canonical reader does not give the file up for them."""
    tokens = list(tokens)
    n_y = max(16, -(-len(tokens) // n_x))
    n_y += n_y % 2
    tokens += ["1"] * (n_x * n_y - len(tokens))
    rows = (",".join(tokens[i:i + n_x]) for i in range(0, len(tokens), n_x))
    path.write_bytes(f"# {n_x},{n_y},0\n".encode() + "".join(r + "\n" for r in rows).encode())
    return tokens


def _outcome(path):
    try:
        f = read_field_csv(path)
    except FormatError as exc:
        return ("error", str(exc), type(exc.__cause__))
    return ("ok", f.grid, f.values.view(np.uint64).tobytes())


def _loop_outcome(path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(fileio, "_read_canonical", lambda path, n_x, n_y: None)
        return _outcome(path)


def _neighbours(text):
    x = float(text)
    return [b"%.17g" % y for y in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]


_NUMBERS = {
    "seventeen_digits": ["0.12345678901234567", "-1.2345678901234567",
                         "12345678901234567", "-98765432109876543", "1234567.8901234567"],
    "eighteen_digits": ["0.123456789012345678", "123456789012345678", "1.00000000000000001",
                        "99999999999999999.5"],
    "leading_zeros": ["0.000012345678901234567", "-0.00012345678901234567",
                      "0.0001234567890123456", "000123.5", "0000000000000000000001.5",
                      "0.0000000000000000000001"],
    "the_1e-05_edge": ["1e-05", "9.9999999999999991e-06", "1.0000000000000001e-05",
                       "0.00001", "0.000009999999999999999", "0.000001", "0.0000009"],
    "powers_of_ten": [t.decode() for k in range(-7, 18) for t in _neighbours(f"1e{k}")],
    "decade_carries": ["9.9999999999999999", "99999.999999999999", "0.99999999999999999",
                       "99999999999999999", "0.000099999999999999999", "9999999999999999.9",
                       "9.99999999999999999e-5"],
    "zeros": ["0", "-0", "0.0", "-0.000", "00", "0.", "-.0"],
    "subnormals_and_extremes": ["5e-324", "-4.9406564584124654e-324",
                                "2.2250738585072009e-308", "1.7976931348623157e+308",
                                "-1.7976931348623157e308", "1e+300"],
    "other_forms": ["+5", ".5", "5.", "-5.", "-.5", "1e5", "+.5e-3", "1e+5"],
    "short_decimals": ["0.1", "0.5", "-2.25", "3", "100", "1e16", "0.3333333333333333"],
    "long_tokens": ["1000000000000000000000000.5", "0.000000000000000000000000012345",
                    "-00000000000000000000000000000000001", "1" * 40 + ".5",
                    "18446744073709551621", "1844674407370955162.1"],   # 2^64 + 5
}


@pytest.mark.parametrize("name", sorted(_NUMBERS))
def test_numbers_read_as_float_reads_them(name, tmp_path, monkeypatch):
    path = tmp_path / "f.csv"
    tokens = _tokens_file(path, _NUMBERS[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = fileio._read_canonical(path, 4, len(tokens) // 4)
    assert np.array_equal(values.ravel().view(np.uint64), _bits([float(t) for t in tokens]))
    assert _outcome(path) == _loop_outcome(path, monkeypatch)


# Tokens the canonical reader leaves to the rest, so that read_field_csv
# reads or reports them as the row loop does: float() rejects all but the last.
_LEFT_TO_THE_REST = {
    "two_points": "1.2.3",
    "two_minus_signs": "--1",
    "minus_inside": "1-2",
    "lone_minus": "-",
    "lone_point": ".",
    "empty_token": "",
    "plus_and_minus": "+-1",
    "e_without_digits": "e5",
    "nan": "nan",
    "capital_e": "1E5",
    "space": " 1",
}


@pytest.mark.parametrize("name", sorted(_LEFT_TO_THE_REST))
def test_tokens_left_to_the_rest_read_as_the_loop_reads_them(name, tmp_path, monkeypatch):
    path = tmp_path / "f.csv"
    tokens = _tokens_file(path, [_LEFT_TO_THE_REST[name]])
    assert fileio._read_canonical(path, 4, len(tokens) // 4) is None
    outcome = _outcome(path)
    assert outcome[0] == ("ok" if name in ("capital_e", "space") else "error")
    assert outcome == _loop_outcome(path, monkeypatch)


@pytest.mark.parametrize("body", [
    b"# 4,4,0\n" + b"1,2,3,4\n" * 3 + b"1,2,3,4",        # no final newline
    b"# 4,4,0\n" + b"1,2,3,4\n" * 4 + b"\n",             # a blank line
    b"# 4,4,0\n" + b"1,2,3,4\n" * 4 + b"5",              # bytes after the last row
    b"# 4,4,0\n" + b"1,2,3,4\n" * 3 + b"1,2,3\n",        # a short row
    b"# 4,4,0\n" + b"1,2,3,4\n" * 2 + b"1,2,3,4,5,6,7\n1\n",   # rows broken elsewhere
    b"# 4,4,0\n" + b"1,2,3,4\n" * 5,                     # a row too many
    b"# 4,4,0\r\n" + b"1,2,3,4\n" * 4,                   # a carriage return in the header
    b"# 4,1,0\r1,2,3,4\n" + b"1,2,3,4\n" * 4,            # and a data row behind it
])
def test_other_layouts_are_left_to_the_rest(body, tmp_path, monkeypatch):
    path = tmp_path / "f.csv"
    path.write_bytes(body)
    assert fileio._read_canonical(path, 4, 4) is None
    assert _outcome(path) == _loop_outcome(path, monkeypatch)


def test_rows_and_tokens_longer_than_a_chunk(tmp_path, monkeypatch, canonical_only):
    # Rows of 200 values in chunks of 256 bytes: chunks end inside rows.
    monkeypatch.setattr(fileio, "_READ_CHUNK_BYTES", 256)
    f = _theta("theta2", GridSpec(200, 6))
    path = tmp_path / "f.csv"
    write_field_csv(f, path)
    assert np.array_equal(read_field_csv(path).values.view(np.uint64), _bits(f.values))
    # A token no chunk holds to its end is left to the row loop.
    monkeypatch.setattr(fileio, "_READ_CHUNK_BYTES", 16)
    assert fileio._read_canonical(path, 200, 6) is None


@pytest.mark.parametrize("name", ["theta1", "theta2", "theta3"])
def test_thetas_at_512_are_read_without_the_rest(name, tmp_path, canonical_only):
    f = _theta(name, GridSpec(512, 512))
    path = tmp_path / "f.csv"
    write_field_csv(f, path, t=12.3)
    assert np.array_equal(read_field_csv(path).values.view(np.uint64), _bits(f.values))


@pytest.mark.parametrize("shape", [(8192, 4), (6, 1000), (48, 34)])
def test_written_files_are_read_without_the_rest(shape, tmp_path, canonical_only):
    # Every decade from 1e-7 to 1e17: about one token in eight an "e" form.
    rng = np.random.default_rng(shape[0])
    grid = GridSpec(*shape)
    values = rng.standard_normal(grid.shape) * 10.0 ** rng.integers(-7, 18, grid.shape)
    path = tmp_path / "f.csv"
    write_field_csv(PhysicalField(grid, values), path)
    assert np.array_equal(read_field_csv(path).values.view(np.uint64), _bits(values))


def test_a_wrong_candidate_is_never_certified(tmp_path, monkeypatch, canonical_only):
    # One double up from each candidate: every one fails its certificate and
    # goes through float(), so the bits stay float()'s.
    exact = fileio._candidates
    monkeypatch.setattr(fileio, "_candidates", lambda n, k: np.nextafter(exact(n, k), np.inf))
    f = _theta("theta3", GridSpec(48, 34))
    path = tmp_path / "f.csv"
    write_field_csv(f, path)
    assert np.array_equal(read_field_csv(path).values.view(np.uint64), _bits(f.values))


def test_e_forms_are_read_by_the_canonical_tier(tmp_path, canonical_only):
    # Almost every token an "e" form, each one through float().
    grid = GridSpec(64, 64)
    rng = np.random.default_rng(5)
    values = 10.0 ** rng.uniform(-300, 300, grid.shape)
    path = tmp_path / "f.csv"
    write_field_csv(PhysicalField(grid, values), path)
    assert np.array_equal(read_field_csv(path).values.view(np.uint64), _bits(values))


def _traced_peak(fn, *args):
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_peak_at_512(tmp_path):
    # The field's 2 MiB and the chunk's work arrays.
    path = tmp_path / "f.csv"
    write_field_csv(_theta("theta1", GridSpec(512, 512)), path)
    assert _traced_peak(read_field_csv, path) <= 2.44 * 2**20


class TestFilesAreClosed:
    """Every way out of a read closes what it opened."""

    def _read(self, path, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            try:
                return _outcome(path)
            finally:
                gc.collect()
                assert unraisable == []

    def test_canonical_file(self, tmp_path, monkeypatch, canonical_only):
        path = tmp_path / "f.csv"
        write_field_csv(_theta("theta1", GridSpec(64, 64)), path)
        assert self._read(path, monkeypatch)[0] == "ok"

    def test_given_up_mid_file_goes_to_the_loop(self, tmp_path, monkeypatch):
        # Canonical chunks first, then one with a blank that the loop reads.
        chunks, loops = [], []
        parse, loop = fileio._parse_tokens, fileio._read_rows
        monkeypatch.setattr(fileio, "_parse_tokens", lambda *a: chunks.append(1) or parse(*a))
        monkeypatch.setattr(fileio, "_read_rows", lambda path: loops.append(1) or loop(path))
        monkeypatch.setattr(fileio, "_READ_CHUNK_BYTES", 256)
        f = _theta("theta1", GridSpec(16, 16))
        path = tmp_path / "f.csv"
        write_field_csv(f, path)
        path.write_bytes(path.read_bytes()[:-1] + b" \n")
        outcome = self._read(path, monkeypatch)
        assert outcome == ("ok", f.grid, f.values.view(np.uint64).tobytes())
        assert len(chunks) > 1 and loops == [1]

    def test_loop_error(self, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        _tokens_file(path, ["1.2.3"])
        assert self._read(path, monkeypatch)[0] == "error"
