"""Only ``integrator._march`` steps the solver.

The symbol, the decay factors built from it, the step work arrays and the
IFRK4 step itself are reached through ``_march`` alone, so every observer of
a run sees the same steps and one blowup guard.  This scan fails on a call of
``_ifrk4_step``, ``_step_work`` or ``_symbol`` from any other function of the
package.
"""

import ast
import pathlib

import pytest

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "sqgkit"
_STEPPING = {"_ifrk4_step", "_step_work", "_symbol"}
_ALLOWED = {("_march", name) for name in _STEPPING}


def stepping_calls(source: str) -> list[tuple[int, str, str]]:
    """``(line, caller, callee)`` for every call of a stepping function in ``source``.

    The caller is the innermost enclosing function, or ``<module>``.
    """
    found = []

    def visit(node, caller):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            caller = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _STEPPING:
                found.append((node.lineno, caller, name))
        for child in ast.iter_child_nodes(node):
            visit(child, caller)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("source,expected", [
    ("def step(c):\n    return _ifrk4_step(c, 0.1)", [("step", "_ifrk4_step")]),
    ("def simulate(g, p):\n    w = integrator._step_work(g, True)", [("simulate", "_step_work")]),
    ("sym = _symbol(grid, 1.0, 0.5)", [("<module>", "_symbol")]),
    ("def _march(g):\n    def inner():\n        _symbol(g, 1, 0)",
     [("inner", "_symbol")]),
    ("def _march(c):\n    c = _ifrk4_step(c, 0.1)", [("_march", "_ifrk4_step")]),
    ("def f(c):\n    return _ifrk4_step_count + symbol(c)", []),
])
def test_the_scan_sees_each_stepping_call(source, expected):
    assert [(caller, callee) for _, caller, callee in stepping_calls(source)] == expected


def test_only_the_march_steps():
    modules = sorted(_PACKAGE.glob("*.py"))
    assert modules
    calls = [f"{path.name}:{line}: {caller} calls {callee}"
             for path in modules
             for line, caller, callee in stepping_calls(path.read_text(encoding="utf-8"))
             if path.name != "integrator.py" or (caller, callee) not in _ALLOWED]
    assert calls == []
