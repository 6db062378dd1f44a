"""On-disk formats: scenario configs, field CSV files, and contour images.

Config format
-------------
Line-oriented ``key = value`` text.  ``#`` starts a comment (full-line or
trailing), blank lines are ignored, and ``[section]`` headers group keys.
Top-level keys describe the run; an optional ``[solution]`` section defines an
explicit solution instead of referencing a builtin by name.  Later assignments
to the same key win.  Command-line flags are ``overrides`` of
:func:`parse_config`: values, not config lines.

Top-level keys, the fields of :class:`ScenarioConfig` in order::

    solution   builtin name (theta1, theta2, theta3, con-1, con-2, con-3);
               required unless a [solution] section is given
    kappa      dissipation coefficient, > 0                       (required)
    alpha      fractional exponent in [0, 1)                      (required)
    grid       resolution: "64" or "64x32", each extent <= 8192    (required)
    t_end      final time, >= 0                                   (required)
    dt         time step (required when t_end > 0), <= t_end; t_end/dt <= 1e7 steps
    snapshots  comma-separated times in [0, t_end]
    dealias    true/false (default true)
    outdir     artifact directory, not empty (default "sqg-out")
    outputs    comma list from {csv, ppm, report}; "pgm" is accepted as an
               alias for ppm (default all three)
    levels     contour quantization bands, in [2, 4096] (default 21)
    mode       exact | simulate | both | auto (default auto)
    name       artifact file prefix (default: the solution name)
    require_correlation_below
               optional threshold: final-vs-initial pattern correlation must
               fall below it (used by the non-stationarity checks); only a
               non-exact datum with t_end > 0 takes it

``[solution]`` keys: ``family`` names a class of ``solutions._FAMILIES``, and
that class's fields but ``kappa`` and ``alpha`` (the top level's) are the
section's other keys, in order.  A field's type picks its reader, a field
with no default is a required key, and a key of another family is unknown::

    eigenmode       n, m (integers, required), k (an integer, default 0),
                    c1, c2, c3, c4, c5, c6, c7, c8 (numbers, default 0)
    unidirectional  n, m (integers, required), modes (comma-separated
                    k:a:b triples, default none)

An issue of the whole section (its family, a missing key, a solution that
fails validation) is reported at the line of its first key.

Field CSV format
----------------
Header ``# nx,ny,t`` (the actual values, ``t`` finite), then ``n_y`` rows of
``n_x`` comma-separated decimals with 17 significant digits — enough to
reproduce the binary values exactly, so a read of a write is bit-identical.
The writer prints each number as ``%.17g`` does, in numpy: a value of
magnitude in [1e-5, 1e17) from its exact 17 digits (Dekker's error-free
product of the value and a power of ten, rounded half to even), laid out by a
mask per exponent; 0 and other magnitudes go through ``%`` one at a time.  A
non-finite ``t`` is refused before the file is opened.

The reader gives every number ``float()``'s bits, in one of two tiers.  A
canonical file, one with a printable header line and then only the bytes
``0-9 . - + e ,`` and newlines, in exactly ``n_y`` newline-ended rows of
``n_x`` tokens, is parsed in numpy, a chunk of bytes at a time: each token's
digits N < 10^17 and its k decimals, read from 8-byte words, give a candidate
N/10^k, which is kept only where it re-prints to the token's own 17 digits;
0, ``e`` forms and the other tokens go through ``float()``.  Any other file
goes through a row loop, which reports every error with the messages it
always had: the row count before the first bad row.

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
import os
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache, partial

import numpy as np

from .errors import ConstraintViolation, DomainError, FormatError, ParseError, UnknownKey
from .integrator import parameter_issues
from .solutions import _FAMILIES, builtin_samples, validate
from .spectral import MAX_EXTENT, GridSpec, PhysicalField

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "write_field_csv",
    "read_field_csv",
    "parse_grid",
    "render_contour",
    "MAX_LEVELS",
]

MAX_LEVELS = 4096   # contour bands; the colour table is built one band at a time
_CSV_BLOCK_VALUES = 2048   # values formatted per write, about 200 bytes each meanwhile
_RENDER_BLOCK_VALUES = 1 << 15   # pixels rendered per write, about 19 bytes each meanwhile

_OUTPUT_KINDS = ("csv", "ppm", "report")
_MODES = ("auto", "exact", "simulate", "both")
_BOOLS = {"true": True, "on": True, "yes": True, "1": True,
          "false": False, "off": False, "no": False, "0": False}


# A key's reader takes the key and its text and returns the value.  It raises
# ParseError for text that does not parse and ConstraintViolation for a value
# outside the key's domain, located at the key; parse_config and _read_flags
# move the issues to the line or flag that gave the text.

def _read_number(key: str, text: str, cast=float):
    try:
        return cast(text)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ParseError([(key, f"{key} must be {kind}, got {text!r}")])


_read_integer = partial(_read_number, cast=int)


def _read_modes(key: str, text: str) -> tuple:
    modes, issues = [], []
    for triple in text.split(","):
        try:
            k, a, b = triple.split(":")   # a ValueError unless three parts
            modes.append((int(k), float(a), float(b)))
        except ValueError:
            issues.append((key, f"modes entries must be k:a:b, got {triple.strip()!r}"))
    if issues:
        raise ParseError(issues)
    return tuple(modes)


def _read_solution(key: str, text: str) -> str:
    if text not in builtin_samples():
        raise ConstraintViolation([(key, f"unknown builtin solution {text!r}; known: "
                                         f"{', '.join(builtin_samples())}")])
    return text


def _read_grid(key: str, text: str) -> GridSpec:
    try:
        return parse_grid(text)
    except ValueError as exc:
        raise ConstraintViolation([(key, f"bad grid {text!r}: {exc}")]) from exc


def _read_times(key: str, text: str) -> tuple:
    try:
        return tuple(sorted(float(part) for part in text.split(",") if part.strip()))
    except ValueError:
        raise ParseError([(key, f"{key} must be comma-separated numbers, got {text!r}")])


def _read_bool(key: str, text: str) -> bool:
    if text.lower() not in _BOOLS:
        raise ParseError([(key, f"{key} must be true/false, got {text!r}")])
    return _BOOLS[text.lower()]


def _read_outdir(key: str, text: str) -> str:
    if not text:   # no directory has an empty name
        raise ConstraintViolation([(key, "outdir must not be empty")])
    if "\0" in text:   # no path holds one
        raise ConstraintViolation([(key, f"outdir must not contain a NUL byte, got {text!r}")])
    return text


def _read_outputs(key: str, text: str) -> tuple:
    tokens = [token.strip().lower() for token in text.split(",")]
    kinds = ["ppm" if token == "pgm" else token   # an alias: files are binary PPM (P6)
             for token in tokens if token]
    issues = [(key, f"unknown output kind {kind!r}")
              for kind in kinds if kind not in _OUTPUT_KINDS]
    if issues:
        raise ConstraintViolation(issues)
    return tuple(dict.fromkeys(kinds))   # each kind once, in order


def _read_levels(key: str, text: str) -> int:
    levels = _read_integer(key, text)
    try:
        _check_levels(levels)
    except ValueError as exc:
        raise ConstraintViolation([(key, str(exc))]) from exc
    return levels


def _read_mode(key: str, text: str) -> str:
    if text.lower() not in _MODES:
        raise ConstraintViolation([(key, f"mode must be one of {_MODES}, got {text!r}")])
    return text.lower()


def _read_name(key: str, text: str) -> str:
    if set(text) & {",", "/", os.sep, os.altsep, "\0"}:   # a report field, a file name in outdir
        raise ConstraintViolation([(key, f"name must not contain ',', a path "
                                         f"separator or a NUL byte, got {text!r}")])
    return text


def _read_finite(key: str, text: str, low: float = -math.inf) -> float:
    value = _read_number(key, text)
    if not low < value < math.inf:
        above = "" if low == -math.inf else f" and > {low:g}"
        raise ConstraintViolation([(key, f"{key} must be finite{above}, got {value}")])
    return value


_read_threshold = partial(_read_finite, low=0.0)


def _read_instants(key: str, text: str) -> tuple:
    """Finite times in the order given, at least one: a NaN or no time at all
    would read as a pass of ``sqg verify``."""
    times = tuple(_read_finite(key, part) for part in text.split(",") if part.strip())
    if not times:
        raise ConstraintViolation([(key, f"{key} must name at least one time, got {text!r}")])
    return times


def _key(read, default=MISSING, key: str | None = None):
    """A :class:`ScenarioConfig` field for the top-level config ``key`` (its
    name unless given), read by ``read``; a required key has no ``default``."""
    return field(default=default, metadata={"read": read, "key": key})


@dataclass
class ScenarioConfig:
    """A fully validated scenario: what to run, on what grid, what to emit;
    each field is a top-level config key, with its reader and default (:func:`_key`)."""

    solution: object = _key(_read_solution)   # builtin name (str) or an explicit solution object
    kappa: float = _key(_read_number)
    alpha: float = _key(_read_number)
    grid: GridSpec = _key(_read_grid)
    t_end: float = _key(_read_number)
    dt: float | None = _key(_read_number, None)
    snapshot_times: tuple = _key(_read_times, (), key="snapshots")
    dealias: bool = _key(_read_bool, True)
    outdir: str = _key(_read_outdir, "sqg-out")
    outputs: tuple = _key(_read_outputs, _OUTPUT_KINDS)
    levels: int = _key(_read_levels, 21)
    mode: str = _key(_read_mode, "auto")
    name: str = _key(_read_name, "")   # parse_config gives the solution's name
    require_correlation_below: float | None = _key(_read_threshold, None)


_FIELDS = {f.metadata["key"] or f.name: f for f in fields(ScenarioConfig)}   # by key
_TOP_KEYS = tuple(_FIELDS)
# A family's [solution] keys: its class's fields but κ and α, read by type name.
_FAMILY_FIELDS = {family: {f.name: f for f in fields(cls) if f.name not in ("kappa", "alpha")}
                  for family, cls in _FAMILIES.items()}
_SOLUTION_KEYS = {"family"}.union(*_FAMILY_FIELDS.values())
_SHARED = {key: spec for key, spec in next(iter(_FAMILY_FIELDS.values())).items()
           if all(key in keys for keys in _FAMILY_FIELDS.values())}   # every family's
_TYPE_READERS = {"int": _read_integer, "float": _read_number, "tuple": _read_modes}
# Each key's reader: a config key's field's, then those of sqg eval's and verify's own values.
_READERS = {**{key: spec.metadata["read"] for key, spec in _FIELDS.items()},
            "time": _read_finite, "tol": _read_finite, "times": _read_instants}


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def _section_header(line: str) -> str | None:
    """The lower-cased name of a ``[section]`` header, given a line without its
    comment and outer blanks; None for any other line."""
    if line.startswith("[") and line.endswith("]"):
        return line[1:-1].strip().lower()
    return None


def _flag(key: str) -> str:
    """The command-line flag that overrides the top-level ``key``."""
    return "--" + key.replace("_", "-")


def _read(read, key: str, entry: tuple, syntax: list, semantic: list):
    """``read(key, text)`` of an ``entry`` ``(location, text)``; None if it raises,
    and its issues go at that location to ``syntax`` (ParseError) or ``semantic``."""
    location, text = entry
    try:
        return read(key, text)
    except ParseError as exc:
        syntax.extend((location, message) for _, message in exc.issues)
    except ConstraintViolation as exc:
        semantic.extend((location, message) for _, message in exc.issues)
    return None


def _known(keys, entries: list, unknown: list, where: str = "") -> dict:
    """The last entry of each of ``keys`` in ``entries``; any other is unknown."""
    unknown += [(e[0], f"unknown key {k!r}{where}") for k, e in entries if k not in keys]
    return {k: e for k, e in entries if k in keys}


def _read_keys(keys: dict, given: dict, at, syntax: list, semantic: list) -> dict:
    """By field name, each of ``keys`` (dataclass fields by key) that ``given`` holds, read by
    its ``read`` or type; None where that raises or a required key is missing (at ``at``)."""
    values = {}
    for key, spec in keys.items():
        if key in given:
            read = spec.metadata.get("read") or _TYPE_READERS[spec.type]
            values[spec.name] = _read(read, key, given[key], syntax, semantic)
        elif spec.default is MISSING and spec.default_factory is MISSING:
            syntax.append((at, f"missing required key: {key}"))
            values[spec.name] = None
    return values


def _read_flags(texts: dict) -> dict:
    """The values of the flags in ``texts`` (text by key) that have a reader in
    :data:`_READERS`, κ and α checked by :func:`parameter_issues` too.  All
    issues, each at its flag, are raised together: as a ParseError if a text
    does not parse, else as a ConstraintViolation."""
    syntax: list = []
    semantic: list = []
    values = {key: _read(_READERS[key], key, (_flag(key), text), syntax, semantic)
              for key, text in texts.items() if key in _READERS}
    issues = parameter_issues(values.get("kappa"), values.get("alpha"))
    semantic += [(_flag(key), message) for key, message in issues]
    if syntax or semantic:
        raise (ParseError if syntax else ConstraintViolation)(syntax + semantic)
    return values


def parse_config(text: str, overrides=()) -> ScenarioConfig:
    """Parse and validate the documented key=value scenario format.

    ``overrides`` are ``(key, value)`` pairs of top-level keys, applied after
    the file's entries, so they win.  A value is stripped as a file value is
    and may hold a ``#``; a line break in it is an error.

    Each key given is read by its field's reader, of :class:`ScenarioConfig`
    at the top level and of the family's class in a ``[solution]`` section
    (:func:`_read_keys`); a key not given takes the field's default.  All
    problems are reported together, each tagged with its line number, or for
    an override with its flag (:func:`_flag`).

    Raises:
        ParseError: Malformed lines or missing required keys.
        UnknownKey: Assignments to keys the format does not define.
        ConstraintViolation: Values outside their domain, or an explicit
            solution that fails validation.
    """
    syntax: list = []      # (line, message) — malformed lines / missing keys
    unknown: list = []     # unknown key assignments
    semantic: list = []    # range/constraint problems
    entries: dict = {None: [], "solution": [], "?": []}   # (key, (line or flag, value)) by section
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        header = _section_header(line)
        if header is not None:
            section = header
            if section != "solution":
                syntax.append((lineno, f"unknown section [{section}]"))
                section = "?"
            continue
        if "=" not in line:
            syntax.append((lineno, f"expected 'key = value', got {line!r}"))
            continue
        key, _, value = line.partition("=")
        entries[section].append((key.strip().lower(), (lineno, value.strip())))
    for key, value in overrides:
        if "".join(value.splitlines()) != value:   # it drops every line break
            syntax.append((_flag(key), f"{key} must not contain a line break, got {value!r}"))
        else:
            entries[None].append((key, (_flag(key), value.strip())))

    top = _known(_TOP_KEYS, entries[None], unknown)
    family = dict(entries["solution"]).get("family", (0, ""))[1].lower()
    sol_section = _known({"family", *_FAMILY_FIELDS.get(family, _SOLUTION_KEYS)},
                         entries["solution"], unknown, " in [solution]")
    # The section's own issues go at the first entry of its first known key.
    at = next((e[0] for k, e in entries["solution"] if k in sol_section), None)
    keys = {k: f for k, f in _FIELDS.items() if k != "solution" or not sol_section}
    values = _read_keys(keys, top, "config", syntax, semantic)   # a section's solution: below

    kappa, alpha, t_end = values.get("kappa"), values.get("alpha"), values.get("t_end")
    if "dt" not in top and t_end is not None and t_end > 0.0:
        syntax.append(("config", "missing required key: dt (t_end > 0)"))
    issues = parameter_issues(kappa, alpha, values.get("dt"), t_end,
                              values.get("snapshot_times") or ())
    semantic += [(top[key][0], message) for key, message in issues]
    if {"kappa", "alpha"} & {key for key, _ in issues}:
        kappa = None   # reported here, so the [solution] section is not validated
    if sol_section and "solution" in top:
        semantic.append((at, "give either 'solution = <name>' or a [solution] "
                             "section, not both"))
    elif sol_section and None not in (kappa, alpha):   # else reported at the top level
        values["solution"] = _read_section(family, sol_section, at, kappa, alpha, syntax,
                                           semantic)
    if not values.get("name"):
        values["name"] = "custom" if sol_section else values.get("solution", "")

    def by_line(issue):   # line numbers in order, then flags and "config" as found
        return (0, issue[0]) if isinstance(issue[0], int) else (1, 0)

    if syntax:
        raise ParseError(sorted(syntax + unknown + semantic, key=by_line))
    if unknown:
        raise UnknownKey(sorted(unknown + semantic, key=by_line))
    if semantic:
        raise ConstraintViolation(sorted(semantic, key=by_line))
    return ScenarioConfig(**values)


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


def _read_section(family: str, section: dict, lineno: int, kappa, alpha, syntax, semantic):
    """The solution a ``[solution]`` ``section`` (entries by key) defines, or None;
    an issue of the whole section goes at ``lineno``."""
    values = _read_keys(_FAMILY_FIELDS.get(family, _SHARED), section, lineno, syntax, semantic)
    if family not in _FAMILIES:
        semantic.append((lineno, f"family must be {' or '.join(_FAMILIES)}, got {family!r}"))
    elif None not in values.values():   # else reported by their readers
        sol = _FAMILIES[family](kappa=kappa, alpha=alpha, **values)
        semantic += [(lineno, "invalid solution: " + v.message) for v in validate(sol).violations]
        return sol
    return None


# --------------------------------------------------------------------------
# field CSV
# --------------------------------------------------------------------------

def write_field_csv(f: PhysicalField, path, t: float = 0.0) -> None:
    """Write a field as CSV: header ``# nx,ny,t`` then n_y rows of n_x values.

    Every number is printed as ``%.17g`` prints it, which round-trips IEEE
    doubles exactly.  The values go in blocks of ``_CSV_BLOCK_VALUES``.

    Raises:
        DomainError: ``t`` is not finite; no file is written.
    """
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    n_x, n_y = f.grid.n_x, f.grid.n_y
    values = f.values.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(f"# {n_x},{n_y},{t:.17g}\n".encode("ascii"))
        for start in range(0, values.size, _CSV_BLOCK_VALUES):
            fh.write(_csv_text(values[start:start + _CSV_BLOCK_VALUES], n_x, start))


# Each value is laid out in a record of 13 four-byte words that holds the text
# of every layout ``%.17g`` gives a value in [1e-5, 1e17), in order; a mask
# per (sign, decimal exponent X, last non-zero digit) keeps one of them:
#   byte 0        "-"
#   bytes 1-3     "0.0"            X < 0: "0." and a first leading zero
#   bytes 4-7     "000" d0         two more leading zeros (byte 6 unused), digit 0
#   bytes 8-23    d1 .. d16        X < 0: the fraction; X >= 0: the integer part
#   bytes 24-27   "...."           the point of X >= 0 and of X = -5 (byte 27)
#   bytes 28-43   d1 .. d16        the digits after that point
#   bytes 44-47   "e-05"           X = -5
#   byte 48       "," or newline
_RECORD = np.frombuffer(b"-0.0" + bytes(20) + b"...." + bytes(16) + b"e-05,\0\0\0", np.uint32)
_NEWLINE = np.frombuffer(b"\n\0\0\0", np.uint32)[0]
_POW10 = np.array([float(10**k) for k in range(23)])   # exact doubles


def _split(a):
    """Veltkamp's split of ``a`` into two halves of 26 bits: ``a = hi + lo``."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


@lru_cache(maxsize=None)
def _csv_tables():
    """The text of each 4-digit group as one word, the index of its last
    non-zero digit (-99 for 0000), and the record's masks, the one for a
    sign bit s, exponent X and last non-zero digit L in row
    ``(22·s + X + 5)·17 + L``."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    nonzero = quads.reshape(-1, 4) != ord("0")
    last = np.where(nonzero.any(axis=1), 3 - nonzero[:, ::-1].argmax(axis=1), -99)
    # rank[X + 5, b]: byte b is kept when rank <= the last non-zero digit
    # (-1: always, 99: never); a digit after the point ranks as its index.
    rank = np.full((22, 4 * _RECORD.size), 99, dtype=np.int8)
    rank[:, 48] = -1
    for x, row in zip(range(-5, 17), rank):
        if x == -5:      # d.ddde-05
            row[7], row[27], row[28:44], row[44:48] = -1, 1, np.arange(1, 17), -1
        elif x < 0:      # 0.000ddd
            row[1:2 - x], row[7], row[8:24] = -1, -1, np.arange(1, 17)
        else:            # ddd.ddd
            row[7:8 + x], row[27], row[28 + x:44] = -1, x + 1, np.arange(x + 1, 17)
    keep = rank[:, None, :] <= np.arange(17, dtype=np.int8)[:, None]
    keep = np.stack([keep, keep])
    keep[..., 0] = [[[False]], [[True]]]
    tables = quads.view(np.uint32).ravel(), last.astype(np.int8), keep.reshape(-1, keep.shape[-1])
    for table in tables:
        table.setflags(write=False)
    return tables


def _csv_text(values: np.ndarray, n_x: int, start: int) -> bytes:
    """The text of ``values``, a field's flat values from index ``start`` on in
    rows of ``n_x``: each as ``%.17g`` prints it, then ``,`` or, where a row
    ends, a newline.

    Each ``|v|`` in [1e-5, 1e17) is printed from its exact 17 digits
    (:func:`_decimal_digits`); 0 and the rest go through ``%`` one at a time.
    """
    quads, last_digit, masks = _csv_tables()
    magnitude = np.abs(values)
    others = np.flatnonzero(~((magnitude >= 1e-5) & (magnitude < 1e17)))
    magnitude[others] = 1.0
    digits, exponent = _decimal_digits(magnitude)
    words = np.empty((values.size, _RECORD.size), dtype=np.uint32)
    words[:] = _RECORD
    words[(n_x - 1 - start) % n_x::n_x, -1] = _NEWLINE
    lead = digits // 10**16
    words[:, 1] = quads[lead]
    rest = digits - lead * 10**16
    last = np.zeros(values.size, dtype=np.int8)
    for w in range(1, 5):
        scale = 10 ** (16 - 4 * w)
        group = rest // scale
        rest -= group * scale
        words[:, 1 + w] = words[:, 6 + w] = quads[group]
        np.maximum(last, last_digit[group] + np.int8(4 * w - 3), out=last)
    keep = masks[(np.signbit(values) * 22 + exponent + 5) * 17 + last]
    chars = words.view(np.uint8)
    for i in others:
        text = b"%.17g" % values[i]
        chars[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        keep[i, :-4] = False   # all but the separator
        keep[i, :len(text)] = True
    return chars[keep].tobytes()


def _decimal_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(N, X)`` with ``N·10^(X-16)`` each ``a`` in [1e-5, 1e17) rounded half
    to even to 17 digits, 10^16 <= N < 10^17.

    X starts as ⌊log10 a⌋, which may be one off near a power of ten; the
    exact product a·10^(16-X) tells, and those that are off are redone.
    """
    x = np.log10(a)
    np.floor(x, out=x)
    np.clip(x, -5, 16, out=x)
    x = x.astype(np.intp)
    hi, lo = _scaled(a, 16 - x)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(below | above)
    x[off] += np.where(above[off], 1, -1)
    hi[off], lo[off] = _scaled(a[off], 16 - x[off])
    n = _nearest_integer(hi, lo)
    carry = n == 10**17
    n[carry] = 10**16
    x += carry
    return n, x


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a·10^k`` as the exact sum ``hi + lo``: Dekker's TwoProduct, with
    ``10^k`` an exact double for ``0 <= k <= 22``."""
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    # ((a_hi·p_hi - hi) + a_hi·p_lo + a_lo·p_hi) + a_lo·p_lo, in place
    lo = a_hi * p_hi
    lo -= hi
    a_hi *= p_lo
    lo += a_hi
    p_hi *= a_lo
    lo += p_hi
    a_lo *= p_lo
    lo += a_lo
    return hi, lo


def _nearest_integer(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``hi + lo`` rounded half to even, for ``hi`` in [2^53, 2^63).

    Such an ``hi`` is an even integer, as doubles there are 2 or more apart,
    so rounding ``lo`` half to even rounds ``hi + lo`` half to even.
    """
    n = hi.astype(np.int64)
    n += np.rint(lo).astype(np.int64)
    return n


def read_field_csv(path) -> PhysicalField:
    """Read a field written by :func:`write_field_csv`.

    A canonical file is parsed in numpy (:func:`_read_canonical`); any other
    goes to the row loop, :func:`_read_rows`.

    Raises:
        FormatError: Missing/malformed header, a non-finite time, a row with
            the wrong value count, a non-numeric or non-finite entry, or a
            truncated file (the message names the offending row, except for
            non-finite entries).
    """
    with open(path, "r", encoding="utf-8") as fh:
        n_x, n_y, _ = _read_header(_lines(fh, path), path)
    values = None if max(n_x, n_y) > MAX_EXTENT else _read_canonical(path, n_x, n_y)
    if values is None:
        values = _read_rows(path)
    grid = _header_grid(n_x, n_y, path)
    try:
        return PhysicalField._owning(grid, values)
    except ValueError as exc:   # a non-finite entry such as "nan" or "inf"
        raise FormatError(f"{path}: {exc}") from exc


_READ_CHUNK_BYTES = 1 << 16   # file bytes the canonical reader parses at a time
# The canonical reader's byte map: a digit stays, "." becomes 0x00, a newline
# 0x10, "," 0x20, "-" 0x40, "+" 0x50 and "e" 0x60 (a low nibble of 0 reads as
# the digit 0), any byte outside the form 0xFF.
_TOKEN_BYTES = bytes(b if 0x30 <= b <= 0x39 else
                     {0x2E: 0x00, 0x0A: 0x10, 0x2C: 0x20, 0x2D: 0x40, 0x2B: 0x50,
                      0x65: 0x60}.get(b, 0xFF)
                     for b in range(256))
_WINDOW = 24   # the last bytes of a token, as three words of 8 digits
_PAD = b"0" * _WINDOW   # before a chunk's text, so that every window lies inside
# _DIGIT_MASKS[s] keeps the low nibbles of a window's bytes s..23, one item
# of three words.
_DIGIT_MASKS = np.array([[(0x0F0F0F0F0F0F0F0F << 8 * min(max(s - 8 * i, 0), 8)) % 2**64
                          for i in range(3)] for s in range(_WINDOW + 1)],
                        dtype=np.uint64).view(f"V{_WINDOW}").ravel()
_INT_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _read_canonical(path, n_x: int, n_y: int) -> np.ndarray | None:
    """The ``(n_y, n_x)`` values of a canonical field file, each as ``float()``
    reads it, or None for any other file.

    A canonical file has a printable ASCII header line, then only the bytes
    ``0-9 . - + e ,`` and newline: ``n_y`` newline-ended rows of ``n_x``
    tokens.  Its bytes go in chunks cut after a separator
    (:func:`_parse_tokens`).  None means "not taken", never an error: a
    token ``float()`` rejects, a token longer than a chunk, another layout.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        # A printable header holds no other line break, so the data begin where
        # the text reader's second line does.
        if not (header.endswith(b"\n") and header.isascii()
                and header[:-1].decode().isprintable()):
            return None
        # Each value takes two bytes or more, so a short file allocates nothing
        # the size of the header's grid.
        if os.fstat(fh.fileno()).st_size - fh.tell() < 2 * n_x * n_y:
            return None
        out = np.empty(n_x * n_y)
        done = 0
        tail = b""
        while block := fh.read(_READ_CHUNK_BYTES):
            text = b"".join((_PAD, tail, block))
            del block
            cut = text.rfind(b",")
            cut = max(cut, text.rfind(b"\n", cut + 1)) + 1
            if cut == 0:
                return None
            tail = text[cut:]
            done = _parse_tokens(text, cut, out, done, n_x)
            if done is None:
                return None
    if tail or done != out.size:
        return None
    return out.reshape(n_y, n_x)


def _parse_tokens(text: bytes, cut: int, out: np.ndarray, start: int, n_x: int) -> int | None:
    """Put the numbers of ``text[:cut]``, :data:`_PAD` and then whole tokens
    each ended by ``,`` or a newline, into ``out[start:]``; return how many
    values ``out`` now holds, or None where the canonical reader gives the
    file up.

    A token's digits N and the count k after its point come from
    :func:`_token_digits`, a candidate for N/10^k from :func:`_candidates`.
    The candidate is kept where it re-prints to N's 17 digits, which makes it
    ``float()``'s double: a decade's 17-digit quantum is below every double
    spacing in it, so at most one double rounds to a given 17 digits.  Other
    tokens (0, ``e`` forms, magnitudes below 1e-6, more digits, a failed
    certificate) go through ``float()``.
    """
    tokens = _token_digits(text, cut, start, n_x, out.size)
    if tokens is None:
        return None
    ends, negative, n, k, ok = tokens
    d = _candidates(n, k)
    # The certificate: d·10^(k+pad) rounds to N·10^pad, N's 17 digits.  Below
    # 1e-6, k + pad passes 22, and no d passes at the clipped power.
    pad = 17 - np.searchsorted(_INT_POW10, n, side="right")
    k += pad
    np.minimum(k, 22, out=k)
    ok &= _nearest_integer(*_scaled(d, k)) == n * _INT_POW10[pad]

    values = out[start:start + ends.size]
    values[:] = d
    np.negative(values, out=values, where=negative)
    others = np.flatnonzero(~ok)
    begin = np.where(others > 0, ends[others - 1] + 1, _WINDOW)
    for i, b, e in zip(others.tolist(), begin.tolist(), ends[others].tolist()):
        try:
            values[i] = float(text[b:e])
        except ValueError:
            return None
    return start + ends.size


def _token_digits(text: bytes, cut: int, start: int, n_x: int, size: int):
    """``(ends, negative, n, k, ok)`` for the tokens of ``text[:cut]``, as
    :func:`_parse_tokens` takes them, or None where they break the layout of
    a canonical file from value ``start`` of ``size`` on.

    ``ends`` are the tokens' separators.  A token ``-?D*.?D*`` of at most 23
    bytes with digits 0 < N < 10^17 is ``ok``; its ``n`` is N and ``k``
    counts its digits after the point.  Its bytes, mapped by
    :data:`_TOKEN_BYTES`, end three 8-byte words that read as a number V,
    the point a digit 0: V = I·10^(k+1) + F for N = I·10^k + F.  Any other
    token has ``n`` 1 and ``k`` 0.
    """
    mapped = text.translate(_TOKEN_BYTES)
    if b"\xff" in mapped:
        return None
    chars = np.frombuffer(mapped, dtype=np.uint8, count=cut)
    marks = np.flatnonzero(chars < 0x30)   # separators and points
    point = chars[marks] == 0x00
    ends = np.compress(~point, marks)
    count = ends.size
    row_ends = ends[(n_x - 1 - start) % n_x::n_x]
    if (start + count > size or np.count_nonzero(chars == 0x10) != row_ends.size
            or not (chars[row_ends] == 0x10).all()):
        return None
    exotic = np.flatnonzero(chars >= 0x50)   # "e" and "+": tokens for float()
    points = np.flatnonzero(point)
    if point[points + 1].any():   # float() takes one point a token
        return None
    # The mark after a point is its token's separator.
    after_point = np.zeros(count, dtype=np.intp)   # k + 1, or 0 without a point
    after_point[points - np.arange(points.size)] = marks[points + 1] - marks[points]
    del marks, point, points
    length = np.empty_like(ends)
    length[0] = ends[0] - _WINDOW
    np.subtract(ends[1:], ends[:-1] + 1, out=length[1:])
    negative = chars[ends - length] == 0x40
    # Every "-" leads a token or follows an "e"; float() rejects any other.
    if (np.count_nonzero(chars == 0x40)
            != np.count_nonzero(negative) + np.count_nonzero(chars[exotic + 1] == 0x40)):
        return None

    windows = np.ndarray((chars.size - _WINDOW + 1,), dtype=f"V{_WINDOW}", buffer=chars,
                         strides=(1,))
    ok = length <= 23
    first = np.subtract(_WINDOW, length, out=length)   # the token's first byte in its window
    np.maximum(first, 0, out=first)
    words = windows[ends - _WINDOW].view(np.uint64).reshape(count, 3)
    words &= _DIGIT_MASKS[first].view(np.uint64).reshape(count, 3)
    del first, length
    # Eight digits to a number in three steps, the first digit in the low byte.
    words *= 10 * 2**8 + 1
    words >>= 8
    words &= 0x00FF00FF00FF00FF
    words *= 100 * 2**16 + 1
    words >>= 16
    words &= 0x0000FFFF0000FFFF
    words *= 10000 * 2**32 + 1
    words >>= 32
    ok &= words[:, 0] < 100   # V < 10^18
    n = words[:, 0] * 10**16
    n += words[:, 1] * 10**8
    n += words[:, 2]
    del words
    n = n.view(np.int64)
    ok[np.searchsorted(ends, exotic)] = False
    # N = V - I·(10^(k+1) - 10^k) with I = V // 10^(k+1).  Without a point both
    # powers are 10^0; from k = 17 on, V < 10^18 makes I 0.
    k = np.maximum(after_point - 1, 0)
    np.minimum(after_point, 18, out=after_point)
    whole = n // _INT_POW10[after_point]
    whole *= _INT_POW10[after_point] - _INT_POW10[np.minimum(k, 18)]
    n -= whole
    ok &= n > 0
    ok &= n < 10**17
    np.copyto(n, 1, where=~ok)
    np.copyto(k, 0, where=~ok)
    return ends, negative, n, k, ok


def _candidates(n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """A double near ``n/10^k`` for integers 0 < n < 10^17 and 0 <= k <= 22,
    mostly the nearest: ``float(n)/10^k`` corrected once by its residual,
    which Dekker's product gives exactly."""
    a = n.astype(float)   # rounded above 2^53, and n - a is exact
    d = a / _POW10[k]
    hi, lo = _scaled(d, k)   # d·10^k, within 2x of a, so hi - a is exact
    hi -= a
    hi += lo
    del lo
    rounded = a.astype(np.int64)
    np.subtract(n, rounded, out=rounded)
    hi -= rounded
    hi /= _POW10[k]
    d -= hi
    return d


def _read_rows(path) -> np.ndarray:
    """The values of the field CSV at ``path``, parsed one ``float()`` at a time.

    This loop reports every error of a field file, so :func:`read_field_csv`
    runs it for every file the canonical reader does not take.

    Raises:
        FormatError: As :func:`read_field_csv`, except for non-finite entries.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = _lines(fh, path)
        n_x, n_y, _ = _read_header(lines, path)
        # A wrong row count is reported before a bad row, so the first bad row
        # is held until every row is counted.  Rows are kept one array each:
        # nothing the size of the header's grid is allocated before the count
        # has confirmed it, and no row at all for a grid beyond MAX_EXTENT.
        oversized = max(n_x, n_y) > MAX_EXTENT
        rows: list[np.ndarray] = []
        count = 0
        bad_row = None
        for ln in lines:
            if not ln.strip():
                continue
            count += 1
            if oversized or bad_row is not None or count > n_y:
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
    _header_grid(n_x, n_y, path)
    if bad_row is not None:
        message, cause = bad_row
        raise FormatError(f"{path}: {message}") from cause
    return np.vstack(rows)


def read_field_csv_time(path) -> float:
    """Return the time stamp recorded in a field CSV header."""
    with open(path, "r", encoding="utf-8") as fh:
        n_x, n_y, t = _read_header(_lines(fh, path), path)
    _header_grid(n_x, n_y, path)
    return t


def _lines(fh, path):
    """The lines of ``fh`` as ``fh.read().splitlines()`` gives them, one at a time.

    A printable line holds none of the other breaks ``splitlines`` knows
    (U+000B, U+000C, U+001C..U+001E, U+0085, U+2028, U+2029), so only the
    rest are split again.
    """
    try:
        for line in fh:
            body = line[:-1] if line.endswith("\n") else line
            if body.isprintable():
                yield body
            else:
                yield from line.splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_header(lines, path) -> tuple[int, int, float]:
    """``(n_x, n_y, t)`` from the ``# nx,ny,t`` header, the first of ``lines``.

    The extents are checked as :class:`GridSpec` checks them, except for the
    ``MAX_EXTENT`` bound, which ``_header_grid`` adds.
    """
    first = next(lines, None)
    if first is None or not first.lstrip().startswith("#"):
        raise FormatError(f"{path}: missing '# nx,ny,t' header")
    header = first.lstrip()[1:].split(",")
    if len(header) != 3:
        raise FormatError(f"{path}: header must be '# nx,ny,t', got {first!r}")
    try:
        n_x, n_y, t = int(header[0]), int(header[1]), float(header[2])
    except ValueError as exc:
        raise FormatError(f"{path}: bad header: {exc}") from exc
    _header_grid(min(n_x, MAX_EXTENT), min(n_y, MAX_EXTENT), path)
    if not math.isfinite(t):
        raise FormatError(f"{path}: bad header: t must be finite")
    return n_x, n_y, t


def _header_grid(n_x: int, n_y: int, path) -> GridSpec:
    try:
        return GridSpec(n_x, n_y)
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


def _check_levels(levels: int) -> None:
    """Raise ValueError unless ``2 <= levels <= MAX_LEVELS``."""
    if not 2 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must lie in [2, {MAX_LEVELS}], got {levels}")


def render_contour(f: PhysicalField, path, levels: int = 21) -> None:
    """Render a field to a binary PPM (P6) contour-band image.

    One pixel per node.  The field is autoscaled by ``max |f|`` and quantized
    into ``levels`` bands symmetric about zero, then mapped through the fixed
    blue-white-red diverging map.  Rendering is deterministic: identical
    fields yield byte-identical files.

    Args:
        f: Field to render.
        path: Output file path.
        levels: Number of quantization bands in [2, ``MAX_LEVELS``] (odd values
            center a band exactly on zero; the default 21 gives the banded
            contour look).
    """
    levels = int(levels)
    _check_levels(levels)
    values = f.values
    vmax = max(float(values.max()), -float(values.min()))   # max |f|
    # One 3-byte item per pixel: numpy gathers these faster than rows of 3.
    colours = _colormap_lut(levels).view((np.void, 3)).ravel()
    rows = max(1, _RENDER_BLOCK_VALUES // f.grid.n_x)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{f.grid.n_x} {f.grid.n_y}\n255\n".encode("ascii"))
        for start in range(0, f.grid.n_y, rows):
            block = values[start:start + rows]
            scaled = block / vmax if vmax > 0.0 else np.zeros_like(block)
            # (scaled + 1.0) * 0.5 * levels, rounded step by step as written, in place
            scaled += 1.0
            scaled *= 0.5
            scaled *= levels
            bands = np.floor(scaled, out=scaled).astype(int)
            del scaled
            np.clip(bands, 0, levels - 1, out=bands)
            fh.write(colours[bands].view(np.uint8))
