"""Field CSVs are read in two tiers: the canonical numpy reader, then the row loop.

A third parser in front of the row loop would read some files on its own
terms, so every accepted file would need it held to the loop's bits and
messages too.  This scan fails on a call of one of numpy's text or file
parsers from anywhere in the package.
"""

import ast
import pathlib

import pytest

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "sqgkit"
_PARSERS = {"loadtxt", "genfromtxt", "fromstring", "fromfile"}


def parser_calls(source: str) -> list[tuple[int, str, str]]:
    """``(line, caller, callee)`` for every call of a numpy parser in ``source``.

    The caller is the innermost enclosing function, or ``<module>``.
    """
    found = []

    def visit(node, caller):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            caller = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _PARSERS:
                found.append((node.lineno, caller, name))
        for child in ast.iter_child_nodes(node):
            visit(child, caller)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("source,expected", [
    ("def f(rows):\n    return np.loadtxt(rows, delimiter=',')", [("f", "loadtxt")]),
    ("def f(p):\n    return numpy.genfromtxt(p)", [("f", "genfromtxt")]),
    ("v = np.fromstring(text, sep=',')", [("<module>", "fromstring")]),
    ("def f(fh):\n    def g():\n        fromfile(fh)", [("g", "fromfile")]),
    ("def f(b):\n    return np.frombuffer(b) + loadtxt_count(b)", []),
])
def test_the_scan_sees_each_parser_call(source, expected):
    assert [(caller, callee) for _, caller, callee in parser_calls(source)] == expected


def test_no_third_read_tier():
    modules = sorted(_PACKAGE.glob("*.py"))
    assert modules
    calls = [f"{path.name}:{line}: {caller} calls {callee}"
             for path in modules
             for line, caller, callee in parser_calls(path.read_text(encoding="utf-8"))]
    assert calls == []
