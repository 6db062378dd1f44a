"""Only ``spectral`` reads the half-spectrum and 2/3 layouts.

Every other module of the package goes through ``spectral._mirror_sum`` (a
half-spectrum density summed over the full spectrum) and
``spectral._dealiased`` (the 2/3 cut).  This scan fails on the signs of a
second copy of those rules: a reference to the multiplier table
``_multipliers``, a two-axis subscript whose second slice is ``1:-1`` (the
mirrored columns), or ``n_x``/``n_y`` floor-divided by 2 or 3 (the half and
2/3 widths, the Nyquist row).
"""

import ast
import pathlib

import pytest

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "sqgkit"


def _is_int(node, value):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_int(node.operand, -value)
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == value


def _extent(node):
    while isinstance(node, ast.UnaryOp):
        node = node.operand
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("n_x", "n_y")


def layout_reads(source: str) -> list[tuple[int, str]]:
    """``(line, what)`` for every read of the spectral layouts in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        if "_multipliers" in names:
            found.append((node.lineno, "_multipliers"))
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                and len(node.slice.elts) == 2 and isinstance(node.slice.elts[1], ast.Slice)):
            cut = node.slice.elts[1]
            if cut.step is None and _is_int(cut.lower, 1) and _is_int(cut.upper, -1):
                found.append((node.lineno, "[:, 1:-1]"))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                and _extent(node.left) and (_is_int(node.right, 2) or _is_int(node.right, 3))):
            found.append((node.lineno, "n_x/n_y // 2 or 3"))
    return found


@pytest.mark.parametrize("source,expected", [
    ("from .spectral import _multipliers", ["_multipliers"]),
    ("t = spectral._multipliers(8, 8, 5)", ["_multipliers"]),
    ("s = a.sum() + a[:, 1:-1].sum()", ["[:, 1:-1]"]),
    ("box = grid.n_x // 3 + 1", ["n_x/n_y // 2 or 3"]),
    ("row = n_y // 2", ["n_x/n_y // 2 or 3"]),
    ("k = -grid.n_x // 2", ["n_x/n_y // 2 or 3"]),
    ("key = line[1:-1].strip()", []),
    ("ok = max_k <= n // 4", []),
    ("w = grid.n_x // 4", []),
])
def test_the_scan_sees_each_layout_read(source, expected):
    assert [what for _, what in layout_reads(source)] == expected


def test_only_spectral_reads_the_layouts():
    modules = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "spectral.py")
    assert modules
    reads = [f"{path.name}:{line}: {what}"
             for path in modules
             for line, what in layout_reads(path.read_text(encoding="utf-8"))]
    assert reads == []
