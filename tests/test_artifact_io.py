"""Field CSV and contour PPM paths: exactness, error reports, budgets.

The reader parses a canonical file in numpy and leaves every other file to
the row loop, which is also the reader's oracle here: with ``_read_canonical``
switched off, ``read_field_csv`` runs only that loop.  The writers are held
byte for byte to the row-by-row CSV writer and the ``(levels, 3)``-gather
renderer kept in ``tests/oracles.py``.
"""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import reference_render_contour, reference_write_field_csv
from sqgkit import cli, fileio
from sqgkit.errors import FormatError
from sqgkit.fileio import read_field_csv, read_field_csv_time, render_contour, write_field_csv
from sqgkit.spectral import GridSpec, PhysicalField

_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
             2.2250738585072014e-308, 1e308, -1e308, sys.float_info.max,
             -sys.float_info.max, 1.0 / 3.0, 2.0**53, 0.1]


def _field(grid, seed=0):
    """Random magnitudes over many decades, with every special value present."""
    rng = np.random.default_rng(seed)
    values = (10.0 ** rng.uniform(-300, 300, grid.shape)) * rng.choice([-1.0, 1.0], grid.shape)
    flat = values.reshape(-1)
    flat[:len(_SPECIALS)] = _SPECIALS[:flat.size]
    return PhysicalField(grid, values)


def _outcome(path):
    """What ``read_field_csv`` makes of ``path``: the grid and bits, or the error."""
    try:
        f = read_field_csv(path)
    except FormatError as exc:
        return ("error", str(exc), type(exc.__cause__))
    return ("ok", f.grid, f.values.view(np.uint64).tobytes())


def _loop_outcome(path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(fileio, "_read_canonical", lambda path, n_x, n_y: None)
        return _outcome(path)


def _no_loop(path):
    raise AssertionError("the row loop ran on a canonical file")


_ROWS = b"1,2,3,4\n5,6,7,8\n9,10,11,12\n13,14,15,16\n"


def _body(row2: bytes) -> bytes:
    """A 4x4 file whose second row is ``row2``."""
    return b"# 4,4,0\n1,2,3,4\n" + row2 + b"\n9,10,11,12\n13,14,15,16\n"


# Bodies the fast reader must read exactly as the row loop does: accepted
# with the same bits, or rejected with the same message.
_CORPUS = {
    "canonical": b"# 4,4,0.5\n" + _ROWS,
    "crlf_and_blank_lines": b"# 4,4,0\r\n\r\n1,2,3,4\r\n  \r\n5,6,7,8\r\n"
                            b"9,10,11,12\r\n13,14,15,16\r\n\r\n",
    "cr_line_ends": _ROWS.replace(b"\n", b"\r").join([b"# 4,4,0\r", b""]),
    "whitespace_only_lines": b"# 4,4,0\n \t\n1,2,3,4\n\n5,6,7,8\n\x0c\n9,10,11,12\n13,14,15,16\n",
    "vertical_tab_mid_row": _body(b"1.5\x0b,2,3,4"),
    "form_feed_mid_row": _body(b"5,6\x0c,7,8"),
    "form_feed_ends_row": _body(b"5,6,7,8\x0c"),
    "space_inside_number": _body(b"5,6 5,7,8"),
    "spaces_around_numbers": _body(b" 5 , 6\t,7,8 "),
    "extra_column_every_row": b"# 4,4,0\n" + b"1,2,3,4,5\n" * 4,
    "one_row_too_many": b"# 4,4,0\n" + _ROWS + b"17,18,19,20\n",
    "one_row_too_few": b"# 4,4,0\n" + b"1,2,3,4\n" * 3,
    "underscore_digits": _body(b"5,1_5,7,8"),
    "full_width_digits": _body("5,１.５,7,8".encode()),
    "arabic_indic_digits": _body("5,١٢,7,8".encode()),
    "hex_float": _body(b"5,0x1p1,7,8"),
    "quoted_field": _body(b'5,"6",7,8'),
    "trailing_comma": _body(b"5,6,7,8,"),
    "empty_field": _body(b"5,,7,8"),
    "nul_byte": _body(b"5,6\x00,7,8"),
    "nan": _body(b"5,nan,7,8"),
    "minus_inf": _body(b"5,-inf,7,8"),
    "overflow_to_inf": _body(b"5,1e999,7,8"),
    "non_utf8_bytes": _body(b"5,\xff6,7,8"),
    "unit_separator": _body(b"5,\x1f6,7,8\x1f"),
    "file_separator": _body(b"5,6\x1c,7,8"),
    "next_line": _body("5,6\x85,7,8".encode()),
    "unicode_spaces": _body("5,\xa06　,7,8".encode()),
    "hash_in_row": _body(b"5,6#,7,8"),
    "bad_row_and_short_count": b"# 4,4,0\n1,2,3,4\n5,zero,7\n9,10,11,12\n",
    "empty_body": b"# 4,4,0\n",
    "oversized_header": b"# 100000,100000,0\n0,0\n0,0\n",
    "largest_header_short_file": b"# 8192,8192,0\n0,0\n0,0\n",
    "odd_header_extent": b"# 5,4,0\n" + b"1,2,3,4,5\n" * 4,
    "non_finite_header_time": b"# 4,4,nan\n" + _ROWS,
}


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_fast_reader_matches_the_row_loop(name, tmp_path, monkeypatch):
    path = tmp_path / "f.csv"
    path.write_bytes(_CORPUS[name])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fast = _outcome(path)
    assert fast == _loop_outcome(path, monkeypatch)
    assert not caught   # the reader warns of nothing


class TestCanonicalReadBudget:
    @pytest.mark.parametrize("shape", [(4, 4), (48, 34), (256, 256)])
    def test_written_files_skip_the_row_loop(self, shape, tmp_path, monkeypatch):
        # A silent fall back to the loop would pass every exactness test.
        f = _field(GridSpec(*shape))
        path = tmp_path / "f.csv"
        write_field_csv(f, path, t=0.75)
        monkeypatch.setattr(fileio, "_read_rows", _no_loop)
        back = read_field_csv(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))

    def test_read_peak_is_no_more_than_the_row_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        write_field_csv(_field(GridSpec(256, 256)), path)
        fast = _traced_peak(read_field_csv, path)
        monkeypatch.setattr(fileio, "_read_canonical", lambda path, n_x, n_y: None)
        assert fast <= _traced_peak(read_field_csv, path)

    def test_write_peak_is_one_block(self, tmp_path):
        # 8192 values a block, about 64 bytes each while formatted: eight
        # blocks (256x256) peak as one does (256x32).
        one, eight = (_traced_peak(write_field_csv, _field(GridSpec(256, n_y)),
                                   tmp_path / "f.csv") for n_y in (32, 256))
        assert eight <= one + 2**14
        assert eight <= 2**20

    def test_short_file_allocates_no_header_sized_array(self, tmp_path):
        # A reader that trusted the header would allocate 8192 x 8192 doubles (537 MB) here.
        path = tmp_path / "f.csv"
        path.write_text("# 8192,8192,0\n" + ",".join(["0"] * 8192) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="expected 8192 data rows, found 1"):
                read_field_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _traced_peak(fn, *args):
    fn(*args)   # warm: imports and caches are not the call's own memory
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "1e999"])
class TestNonFiniteHeaderTime:
    def test_readers_reject_it(self, t, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(f"# 4,4,{t}\n" + "1,0,-1,0\n" * 4)
        for read in (read_field_csv, read_field_csv_time):
            with pytest.raises(FormatError, match="bad header: t must be finite"):
                read(path)

    def test_render_exits_2(self, t, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_text(f"# 4,4,{t}\n" + "1,0,-1,0\n" * 4)
        assert cli.main(["render", "--input", str(path),
                         "--output", str(tmp_path / "f.ppm")]) == 2
        assert "t must be finite" in capsys.readouterr().err


class TestByteIdentity:
    @pytest.mark.parametrize("shape", [(4, 4), (48, 34), (2000, 6), (8, 2050), (8192, 4)])
    def test_csv_matches_the_row_writer(self, shape, tmp_path):
        # (2000, 6) is one 4-row block and one 2-row block; (8, 2050) two
        # 1024-row blocks and a 2-row one; (8192, 4) one row a block.
        f = _field(GridSpec(*shape), seed=shape[0])
        write_field_csv(f, tmp_path / "new.csv", t=1.0 / 3.0)
        reference_write_field_csv(f, tmp_path / "old.csv", t=1.0 / 3.0)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("levels", [2, 21, 4096])
    @pytest.mark.parametrize("kind", ["random", "zero"])
    def test_ppm_matches_the_row_gather(self, levels, kind, tmp_path):
        grid = GridSpec(48, 34)
        values = (np.random.default_rng(levels).standard_normal(grid.shape)
                  if kind == "random" else np.zeros(grid.shape))
        f = PhysicalField(grid, values)
        render_contour(f, tmp_path / "new.ppm", levels=levels)
        reference_render_contour(f, tmp_path / "old.ppm", levels=levels)
        assert (tmp_path / "new.ppm").read_bytes() == (tmp_path / "old.ppm").read_bytes()

    def test_cached_parser_runs_as_fresh_ones(self, tmp_path, monkeypatch):
        # eval then render, a usage error, then eval and render again.
        argvs = [["eval", "--solution", "theta1", "--grid", "16", "--time", "0.5",
                  "--csv", "a.csv", "--ppm", "a.ppm"],
                 ["render", "--input", "a.csv", "--output", "ra.ppm", "--levels", "7"],
                 ["eval", "--grid", "16"],
                 ["eval", "--solution", "theta2", "--grid", "16x8", "--csv", "b.csv",
                  "--ppm", "b.ppm", "--levels", "5"],
                 ["render", "--input", "b.csv", "--output", "rb.ppm"]]

        def run(outdir):
            outdir.mkdir()
            monkeypatch.chdir(outdir)
            codes = [cli.main(list(argv)) for argv in argvs]
            return codes, {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

        assert cli._build_parser() is cli._build_parser()
        cached = run(tmp_path / "cached")
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = run(tmp_path / "fresh")
        assert cached == fresh
        assert cached[0] == [0, 0, 2, 0, 0]
        assert len(cached[1]) == 6


_VALUES = st.one_of(st.sampled_from(_SPECIALS),
                    st.floats(allow_nan=False, allow_infinity=False))
_GRIDS = st.sampled_from([(4, 4), (8, 8), (6, 4), (4, 10), (12, 6)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), shape=_GRIDS)
def test_round_trip_is_bit_exact_without_the_loop(data, shape, tmp_path, monkeypatch):
    grid = GridSpec(*shape)
    values = data.draw(st.lists(_VALUES, min_size=grid.size, max_size=grid.size))
    f = PhysicalField(grid, np.array(values).reshape(grid.shape))
    write_field_csv(f, tmp_path / "new.csv", t=0.5)
    reference_write_field_csv(f, tmp_path / "old.csv", t=0.5)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    with monkeypatch.context() as m:
        m.setattr(fileio, "_read_rows", _no_loop)
        back = read_field_csv(tmp_path / "new.csv")
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))
