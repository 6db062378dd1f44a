"""Only ``solutions`` tells the two solution families apart, and ``scenario``
starts the solver in one place.

Both families are exact for one reason, and ``solutions._waves`` turns either
into one wave list, so no other module needs to know which family a solution
belongs to.  This scan fails when

- a module other than ``solutions.py`` calls ``isinstance`` on
  ``EigenmodeSolution`` or ``UnidirectionalSolution``;
- a module other than ``solutions.py``, ``fileio.py`` (the ``[solution]``
  parser builds them) and ``__init__.py`` (it exports them) names either class;
- ``scenario.py`` calls ``simulate`` other than exactly once, or names
  ``_solver_error`` (a name for a verify helper that runs the solver itself).
"""

import ast
import pathlib

import pytest

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "sqgkit"
_FAMILIES = {"EigenmodeSolution", "UnidirectionalSolution"}
_NAMING_ALLOWED = {"solutions.py", "fileio.py", "__init__.py"}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def scan(source: str) -> dict[str, list[tuple[int, str]]]:
    """``(line, name)`` of every family ``isinstance`` test, every naming of
    a family class or of ``_solver_error``, and every call of ``simulate``."""
    found = {"isinstance": [], "names": [], "simulate": []}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if _name(node.func) == "simulate":
                found["simulate"].append((node.lineno, "simulate"))
            if _name(node.func) == "isinstance" and len(node.args) == 2:
                kinds = node.args[1]
                for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                    if _name(kind) in _FAMILIES:
                        found["isinstance"].append((node.lineno, _name(kind)))
        names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                 else [_name(node)])
        found["names"] += [(node.lineno, name) for name in names
                           if name in _FAMILIES | {"_solver_error"}]
    return found


def _modules():
    modules = sorted(_PACKAGE.glob("*.py"))
    assert modules
    return [(path.name, scan(path.read_text(encoding="utf-8"))) for path in modules]


@pytest.mark.parametrize("source,kind,expected", [
    ("isinstance(s, UnidirectionalSolution)", "isinstance", ["UnidirectionalSolution"]),
    ("isinstance(s, _sol.EigenmodeSolution)", "isinstance", ["EigenmodeSolution"]),
    ("isinstance(s, (int, EigenmodeSolution))", "isinstance", ["EigenmodeSolution"]),
    ("isinstance(s, Solution)", "isinstance", []),
    ("from .solutions import EigenmodeSolution as E", "names", ["EigenmodeSolution"]),
    ("t = verify._solver_error(s, f, p)", "names", ["_solver_error"]),
    ("x = UnidirectionalSolution_count", "names", []),
    ("traj = simulate(f, p)\nverify.simulate(f, p)", "simulate", ["simulate", "simulate"]),
    ("from .integrator import simulate", "simulate", []),
])
def test_the_scan_sees_each_use(source, kind, expected):
    assert [name for _, name in scan(source)[kind]] == expected


def test_no_family_isinstance_outside_solutions():
    tests = [f"{module}:{line}: isinstance on {name}"
             for module, found in _modules() if module != "solutions.py"
             for line, name in found["isinstance"]]
    assert tests == []


def test_only_the_parser_and_the_exports_name_the_families():
    names = [f"{module}:{line}: {name}"
             for module, found in _modules() if module not in _NAMING_ALLOWED
             for line, name in found["names"] if name in _FAMILIES]
    assert names == []


def test_scenario_starts_the_solver_once():
    found = dict(_modules())["scenario.py"]
    assert len(found["simulate"]) == 1
    assert [name for _, name in found["names"] if name == "_solver_error"] == []
