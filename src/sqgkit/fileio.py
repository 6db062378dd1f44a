"""On-disk formats: scenario configs, field CSV files, and contour images.

Config format
-------------
Line-oriented ``key = value`` text.  ``#`` starts a comment (full-line or
trailing), blank lines are ignored, and ``[section]`` headers group keys.
Top-level keys describe the run; an optional ``[solution]`` section defines an
explicit solution instead of referencing a builtin by name.  Later assignments
to the same key win, which is how command-line overrides are implemented.

Top-level keys::

    solution   builtin name (theta1, theta2, theta3, con-1, con-2, con-3)
    kappa      dissipation coefficient, > 0                       (required)
    alpha      fractional exponent in [0, 1)                      (required)
    grid       resolution: "64" or "64x32"                        (required)
    t_end      final time, >= 0                                   (required)
    dt         time step (required when t_end > 0)
    snapshots  comma-separated times in [0, t_end]
    dealias    true/false (default true)
    outdir     artifact directory (default "sqg-out")
    outputs    comma list from {csv, ppm, report}; "pgm" is accepted as an
               alias for ppm (default all three)
    levels     contour quantization bands, >= 2 (default 21)
    mode       exact | simulate | both | auto (default auto)
    name       artifact file prefix (default: the solution name)
    require_correlation_below
               optional threshold: final-vs-initial pattern correlation must
               fall below it (used by the non-stationarity checks)

``[solution]`` keys: ``family`` (eigenmode | unidirectional) plus ``n``, ``m``
and, for eigenmode, ``k`` and ``c1`` … ``c8``; for unidirectional, ``modes``
as comma-separated ``k:a:b`` triples.  ``kappa``/``alpha`` are taken from the
top level.

Field CSV format
----------------
Header ``# nx,ny,t`` (the actual values), then ``n_y`` rows of ``n_x``
comma-separated decimals with 17 significant digits — enough to reproduce the
binary values exactly, so a read of a write is bit-identical.

Images
------
Binary PPM (P6), 8 bits per channel, one pixel per grid node (row ``j`` of the
image is the line ``y = y_j``).  Values map through a fixed blue-white-red
diverging map with ``levels`` quantization bands symmetric about 0, autoscaled
by ``max |f|`` — so ``f`` and ``2f`` render identically, and a zero field is
uniform white.  Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolation, FormatError, ParseError, UnknownKey
from .solutions import (EigenmodeSolution, UnidirectionalSolution, builtin_samples,
                        validate)
from .spectral import GridSpec, PhysicalField

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "write_field_csv",
    "read_field_csv",
    "parse_grid",
    "render_contour",
]

_TOP_KEYS = {
    "solution", "kappa", "alpha", "grid", "t_end", "dt", "snapshots", "dealias",
    "outdir", "outputs", "levels", "mode", "name", "require_correlation_below",
}
_SOLUTION_KEYS = {"family", "n", "m", "k", "modes",
                  "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"}
_REQUIRED = ("solution", "kappa", "alpha", "grid", "t_end")
_OUTPUT_KINDS = ("csv", "ppm", "report")
_MODES = ("auto", "exact", "simulate", "both")


@dataclass
class ScenarioConfig:
    """A fully validated scenario: what to run, on what grid, what to emit."""

    solution: object                 # builtin name (str) or an explicit solution object
    kappa: float
    alpha: float
    grid: GridSpec
    t_end: float
    dt: float | None = None
    snapshot_times: tuple = ()
    dealias: bool = True
    outdir: str = "sqg-out"
    outputs: tuple = _OUTPUT_KINDS
    levels: int = 21
    mode: str = "auto"
    name: str = ""
    require_correlation_below: float | None = None


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def _parse_bool(raw: str):
    lowered = raw.strip().lower()
    if lowered in ("true", "on", "yes", "1"):
        return True
    if lowered in ("false", "off", "no", "0"):
        return False
    return None


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate the documented key=value scenario format.

    All problems found in one pass are reported together, each tagged with its
    line number.

    Raises:
        ParseError: Malformed lines or missing required keys.
        UnknownKey: Assignments to keys the format does not define.
        ConstraintViolation: Values outside their domain, or an explicit
            solution that fails validation.
    """
    syntax: list = []      # (line, message) — malformed lines / missing keys
    unknown: list = []     # unknown key assignments
    semantic: list = []    # range/constraint problems
    top: dict[str, tuple[int, str]] = {}
    sol_section: dict[str, tuple[int, str]] = {}
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section != "solution":
                syntax.append((lineno, f"unknown section [{section}]"))
                section = "?"
            continue
        if "=" not in line:
            syntax.append((lineno, f"expected 'key = value', got {line!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if section is None:
            if key not in _TOP_KEYS:
                unknown.append((lineno, f"unknown key {key!r}"))
            else:
                top[key] = (lineno, value)   # last assignment wins
        elif section == "solution":
            if key not in _SOLUTION_KEYS:
                unknown.append((lineno, f"unknown key {key!r} in [solution]"))
            else:
                sol_section[key] = (lineno, value)

    def take_float(key, lo=None, lo_strict=None, hi_strict=None):
        if key not in top:
            return None
        lineno, raw = top[key]
        try:
            val = float(raw)
        except ValueError:
            syntax.append((lineno, f"{key} must be a number, got {raw!r}"))
            return None
        if not math.isfinite(val):
            semantic.append((lineno, f"{key} must be finite"))
            return None
        if lo is not None and val < lo:
            semantic.append((lineno, f"{key} must be >= {lo}, got {raw}"))
            return None
        if lo_strict is not None and val <= lo_strict:
            semantic.append((lineno, f"{key} must be > {lo_strict}, got {raw}"))
            return None
        if hi_strict is not None and val >= hi_strict:
            semantic.append((lineno, f"{key} must be < {hi_strict}, got {raw}"))
            return None
        return val

    for key in _REQUIRED:
        if key not in top and not (key == "solution" and sol_section):
            syntax.append(("config", f"missing required key: {key}"))

    kappa = take_float("kappa", lo_strict=0.0)
    alpha = take_float("alpha", lo=0.0, hi_strict=1.0)
    t_end = take_float("t_end", lo=0.0)
    dt = take_float("dt", lo_strict=0.0)
    if dt is None and "dt" not in top and t_end is not None and t_end > 0.0:
        syntax.append(("config", "missing required key: dt (t_end > 0)"))

    grid = None
    if "grid" in top:
        lineno, raw = top["grid"]
        try:
            grid = parse_grid(raw)
        except ValueError as exc:
            semantic.append((lineno, f"bad grid {raw!r}: {exc}"))

    snapshot_times: tuple = ()
    if "snapshots" in top:
        lineno, raw = top["snapshots"]
        try:
            snapshot_times = tuple(sorted(float(p) for p in raw.split(",") if p.strip()))
        except ValueError:
            syntax.append((lineno, f"snapshots must be comma-separated numbers, got {raw!r}"))
        else:
            if t_end is not None and not all(0.0 <= t <= t_end for t in snapshot_times):
                semantic.append((lineno, f"snapshots {raw!r} must lie in [0, {t_end}]"))

    dealias = True
    if "dealias" in top:
        lineno, raw = top["dealias"]
        parsed = _parse_bool(raw)
        if parsed is None:
            syntax.append((lineno, f"dealias must be true/false, got {raw!r}"))
        else:
            dealias = parsed

    levels = 21
    if "levels" in top:
        lineno, raw = top["levels"]
        try:
            levels = int(raw)
        except ValueError:
            syntax.append((lineno, f"levels must be an integer, got {raw!r}"))
        else:
            if levels < 2:
                semantic.append((lineno, f"levels must be >= 2, got {levels}"))

    outputs: tuple = _OUTPUT_KINDS
    if "outputs" in top:
        lineno, raw = top["outputs"]
        kinds = []
        for token in raw.split(","):
            token = token.strip().lower()
            if not token:
                continue
            if token == "pgm":   # accepted alias; files are binary PPM (P6)
                token = "ppm"
            if token not in _OUTPUT_KINDS:
                semantic.append((lineno, f"unknown output kind {token!r}"))
            elif token not in kinds:
                kinds.append(token)
        outputs = tuple(kinds)

    mode = "auto"
    if "mode" in top:
        lineno, raw = top["mode"]
        if raw.lower() not in _MODES:
            semantic.append((lineno, f"mode must be one of {_MODES}, got {raw!r}"))
        else:
            mode = raw.lower()

    corr_below = take_float("require_correlation_below", lo_strict=0.0)

    solution: object = None
    name = top.get("name", (0, ""))[1]
    if "solution" in top and sol_section:
        lineno = sol_section[next(iter(sol_section))][0]
        semantic.append((lineno, "give either 'solution = <name>' or a [solution] "
                                 "section, not both"))
    elif "solution" in top:
        lineno, raw = top["solution"]
        if raw not in builtin_samples():
            semantic.append((lineno, f"unknown builtin solution {raw!r}; known: "
                                     f"{', '.join(builtin_samples())}"))
        else:
            solution = raw
            name = name or raw
    elif sol_section:
        solution = _parse_solution_section(sol_section, kappa, alpha, syntax, semantic)
        name = name or "custom"

    def by_line(issue):
        loc = issue[0]
        return (0, loc) if isinstance(loc, int) else (1, 0)

    if syntax:
        raise ParseError(sorted(syntax + unknown + semantic, key=by_line))
    if unknown:
        raise UnknownKey(sorted(unknown + semantic, key=by_line))
    if semantic:
        raise ConstraintViolation(sorted(semantic, key=by_line))

    return ScenarioConfig(
        solution=solution, kappa=kappa, alpha=alpha, grid=grid, t_end=t_end, dt=dt,
        snapshot_times=snapshot_times, dealias=dealias,
        outdir=top.get("outdir", (0, "sqg-out"))[1], outputs=outputs, levels=levels,
        mode=mode, name=name, require_correlation_below=corr_below)


def parse_grid(text: str) -> GridSpec:
    """Parse a resolution: ``"64"`` (square) or ``"64x32"`` (``n_x`` by ``n_y``).

    Raises:
        ValueError: Not one or two integers joined by ``x``, or extents that
            :class:`GridSpec` rejects.
    """
    dims = [int(p) for p in text.lower().split("x")]
    if len(dims) == 1:
        dims *= 2
    if len(dims) != 2:
        raise ValueError("expected N or NXxNY")
    return GridSpec(*dims)


def _parse_solution_section(section, kappa, alpha, syntax, semantic):
    if kappa is None or alpha is None:
        return None   # already reported as missing/invalid at the top level
    lineno = section[next(iter(section))][0]
    family = section.get("family", (lineno, ""))[1].lower()

    def take_num(key, cast, default):
        if key not in section:
            return default
        ln, raw = section[key]
        try:
            return cast(raw)
        except ValueError:
            syntax.append((ln, f"{key} must be a number, got {raw!r}"))
            return default

    if family == "eigenmode":
        sol = EigenmodeSolution(
            n=take_num("n", int, 0), m=take_num("m", int, 0), k=take_num("k", int, 0),
            kappa=kappa, alpha=alpha,
            **{f"c{i}": take_num(f"c{i}", float, 0.0) for i in range(1, 9)})
    elif family == "unidirectional":
        modes = []
        if "modes" in section:
            ln, raw = section["modes"]
            for triple in raw.split(","):
                parts = triple.split(":")
                try:
                    if len(parts) != 3:
                        raise ValueError
                    modes.append((int(parts[0]), float(parts[1]), float(parts[2])))
                except ValueError:
                    syntax.append((ln, f"modes entries must be k:a:b, got {triple.strip()!r}"))
        sol = UnidirectionalSolution(n=take_num("n", int, 0), m=take_num("m", int, 0),
                                     kappa=kappa, alpha=alpha, modes=tuple(modes))
    else:
        semantic.append((lineno, f"family must be eigenmode or unidirectional, got {family!r}"))
        return None
    report = validate(sol)
    if not report.ok:
        for v in report.violations:
            semantic.append((lineno, f"invalid solution: {v.message}"))
        return None
    return sol


# --------------------------------------------------------------------------
# field CSV
# --------------------------------------------------------------------------

def write_field_csv(f: PhysicalField, path, t: float = 0.0) -> None:
    """Write a field as CSV: header ``# nx,ny,t`` then n_y rows of n_x values.

    Values are printed with 17 significant digits, which round-trips IEEE
    doubles exactly.
    """
    line = ",".join(["%.17g"] * f.grid.n_x) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {f.grid.n_x},{f.grid.n_y},{t:.17g}\n")
        for row in f.values:
            # Row by row: tolist() of the whole array would hold every value
            # as a Python float at once.
            fh.write(line % tuple(row.tolist()))


def read_field_csv(path) -> PhysicalField:
    """Read a field written by :func:`write_field_csv`.

    Raises:
        FormatError: Missing/malformed header, a row with the wrong value
            count, a non-numeric or non-finite entry, or a truncated file (the
            message names the offending row, except for non-finite entries).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = _lines(fh, path)
        grid, _ = _read_header(lines, path)
        n_x, n_y = grid.n_x, grid.n_y
        # A wrong row count is reported before a bad row, so the first bad row
        # is held until every row is counted.  Rows are kept one array each:
        # nothing the size of the header's grid is allocated before the count
        # has confirmed it.
        rows: list[np.ndarray] = []
        count = 0
        bad_row = None
        for ln in lines:
            if not ln.strip():
                continue
            count += 1
            if bad_row is not None or count > n_y:
                continue
            parts = ln.split(",")
            if len(parts) != n_x:
                bad_row = (f"row {count} has {len(parts)} values, expected {n_x}", None)
                continue
            try:
                rows.append(np.array([float(p) for p in parts]))
            except ValueError as exc:
                bad_row = (f"row {count}: {exc}", exc)
    if count != n_y:
        raise FormatError(f"{path}: expected {n_y} data rows, found {count}")
    if bad_row is not None:
        message, cause = bad_row
        raise FormatError(f"{path}: {message}") from cause
    values = np.vstack(rows)
    del rows   # before PhysicalField copies ``values``
    try:
        return PhysicalField(grid, values)
    except ValueError as exc:   # a non-finite entry such as "nan" or "inf"
        raise FormatError(f"{path}: {exc}") from exc


def read_field_csv_time(path) -> float:
    """Return the time stamp recorded in a field CSV header."""
    with open(path, "r", encoding="utf-8") as fh:
        return _read_header(_lines(fh, path), path)[1]


def _lines(fh, path):
    """The lines of ``fh`` as ``fh.read().splitlines()`` gives them, one at a time."""
    try:
        for line in fh:
            yield from line.splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_header(lines, path) -> tuple[GridSpec, float]:
    """``(grid, t)`` from the ``# nx,ny,t`` header, the first of ``lines``."""
    first = next(lines, None)
    if first is None or not first.lstrip().startswith("#"):
        raise FormatError(f"{path}: missing '# nx,ny,t' header")
    header = first.lstrip()[1:].split(",")
    if len(header) != 3:
        raise FormatError(f"{path}: header must be '# nx,ny,t', got {first!r}")
    try:
        return GridSpec(int(header[0]), int(header[1])), float(header[2])
    except ValueError as exc:
        raise FormatError(f"{path}: bad header: {exc}") from exc


# --------------------------------------------------------------------------
# contour rendering
# --------------------------------------------------------------------------

# Diverging endpoints (blue → white → red), chosen once and fixed.
_COLD = np.array([59.0, 76.0, 192.0])
_MID = np.array([255.0, 255.0, 255.0])
_HOT = np.array([180.0, 4.0, 38.0])


def _colormap_lut(levels: int) -> np.ndarray:
    """RGB lookup table for the band centers, shape (levels, 3), dtype uint8."""
    lut = np.empty((levels, 3), dtype=np.uint8)
    for band in range(levels):
        center = (2.0 * band + 1.0) / levels - 1.0   # in (-1, 1)
        if center < 0.0:
            rgb = _MID + (-center) * (_COLD - _MID)
        else:
            rgb = _MID + center * (_HOT - _MID)
        lut[band] = np.round(rgb).astype(np.uint8)
    return lut


def render_contour(f: PhysicalField, path, levels: int = 21) -> None:
    """Render a field to a binary PPM (P6) contour-band image.

    One pixel per node.  The field is autoscaled by ``max |f|`` and quantized
    into ``levels`` bands symmetric about zero, then mapped through the fixed
    blue-white-red diverging map.  Rendering is deterministic: identical
    fields yield byte-identical files.

    Args:
        f: Field to render.
        path: Output file path.
        levels: Number of quantization bands, >= 2 (odd values center a band
            exactly on zero; the default 21 gives the banded contour look).
    """
    levels = int(levels)
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    vmax = float(np.max(np.abs(f.values)))
    scaled = f.values / vmax if vmax > 0.0 else np.zeros_like(f.values)
    # (scaled + 1.0) * 0.5 * levels, rounded step by step as written, in place
    scaled += 1.0
    scaled *= 0.5
    scaled *= levels
    bands = np.floor(scaled, out=scaled).astype(int)
    del scaled
    np.clip(bands, 0, levels - 1, out=bands)
    pixels = _colormap_lut(levels)[bands]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{f.grid.n_x} {f.grid.n_y}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
