"""Only ``fileio`` reads the config format.

Command-line flags reach ``fileio.parse_config`` as ``(key, value)`` pairs, so
no other module needs the config syntax.  This scan fails on any module but
``fileio.py`` that names ``_section_header`` or ``_strip_comment``, and on an
f-string in ``cli.py`` that builds a config line ``<key> = <value>``.
"""

import ast
import pathlib
import re

import pytest

from sqgkit.fileio import _SOLUTION_KEYS, _TOP_KEYS

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "sqgkit"
_SYNTAX = {"_section_header", "_strip_comment"}
# A key, or a placeholder for one, then "=": the head of a config line.
_CONFIG_LINE = re.compile(r"\s*(\{\}|%s)\s*=" % "|".join(sorted({*_TOP_KEYS, *_SOLUTION_KEYS})))


def syntax_names(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for every name, attribute or import of a config-syntax helper."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in _SYNTAX]
            continue
        else:
            continue
        if name in _SYNTAX:
            found.append((node.lineno, name))
    return sorted(found)


def config_lines(source: str) -> list[tuple[int, str]]:
    """``(line, template)`` for every f-string whose text starts a config line.

    The template is the f-string with each replacement field shown as ``{}``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.JoinedStr):
            template = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                               for part in node.values)
            if _CONFIG_LINE.match(template):
                found.append((node.lineno, template))
    return sorted(found)


@pytest.mark.parametrize("source,expected", [
    ("from .fileio import _TOP_KEYS, _section_header", [(1, "_section_header")]),
    ("x = fileio._strip_comment(line)", [(1, "_strip_comment")]),
    ("if _section_header(line):\n    pass", [(1, "_section_header")]),
    ("x = _section_headers + strip_comment", []),
])
def test_the_scan_sees_each_syntax_name(source, expected):
    assert syntax_names(source) == expected


@pytest.mark.parametrize("source,expected", [
    ('x = f"{key} = {value}"', [(1, "{} = {}")]),
    ('x = [f"outdir = {d}"]', [(1, "outdir = {}")]),
    ('x = f"  t_end={t}\\n"', [(1, "  t_end={}\n")]),
    ('print(f"t = {t:g}: residual l_inf = {r:.3e}")', []),
    ('print(f"wrote {path} ({n}x{m}, t = {t:g})")', []),
    ('x = "outdir = o"', []),
])
def test_the_scan_sees_each_config_line(source, expected):
    assert config_lines(source) == expected


def test_only_fileio_names_the_config_syntax():
    modules = sorted(_PACKAGE.glob("*.py"))
    assert modules
    names = [f"{path.name}:{line}: {name}"
             for path in modules if path.name != "fileio.py"
             for line, name in syntax_names(path.read_text(encoding="utf-8"))]
    assert names == []


def test_cli_builds_no_config_line():
    path = _PACKAGE / "cli.py"
    lines = [f"cli.py:{line}: {template!r}"
             for line, template in config_lines(path.read_text(encoding="utf-8"))]
    assert lines == []
