"""Each decision behind the exactness claims stays with one owner module.

``scan`` lists what a module's source does; each rule of ``RULES`` names the
findings that move a decision away from its owner:

- *layout*: only ``spectral`` reads the half-spectrum and 2/3 layouts, so new
  spectrum sums go there, not to a copy of ``_mirror_sum`` or ``_dealiased``.
  Signs of a copy: the table ``_multipliers``, a two-axis subscript whose
  second slice is ``1:-1`` (the mirrored columns), or ``n_x``/``n_y``
  floor-divided by 2 or 3 (the half and 2/3 widths, the Nyquist row).
- *march*: only ``integrator._march`` calls ``_ifrk4_step``, ``_step_work`` or
  ``_symbol``, so every observer of a run sees the same steps and one guard.
- *tiers*: field CSVs are read by the canonical reader, then the row loop; a
  numpy text or file parser in front would read some files on its own terms.
- *families*: only ``solutions`` tells the two families apart (``_waves`` turns
  either into one wave list): no other module calls ``isinstance`` on one, and
  only ``__init__`` names one, to export it; ``fileio`` reads a ``[solution]``
  section through the table ``solutions._FAMILIES``.
- *solver*: ``scenario`` calls ``simulate`` once (``CONTROLS`` counts the one)
  and names no ``_solver_error``, a verify helper that would run the solver.
- *syntax*: flags reach ``fileio.parse_config`` as ``(key, value)`` pairs, so
  only ``fileio`` names ``_section_header`` or ``_strip_comment``, and ``cli``
  builds no f-string that starts a config line ``<key> = <value>``.
- *writes*: ``scenario._run`` makes no directory and writes no field file
  before its ``simulate`` call, so a failed check or a blowup leaves no
  ``outdir``: no call of ``makedirs``, ``write_field_csv``, ``render_contour``
  or a helper that calls one comes first (``CONTROLS`` sees ``_run`` hold
  both calls).
- *rows*: ``scenario`` never calls ``verify.residual``: its ``residual_linf``
  rows come from one ``verify._residual_linf`` pass, which validates once for
  every time (``CONTROLS`` sees ``_run`` make the one call).
- *exits*: only ``cli.main`` turns a rejection into exit 2 or 3, from a typed
  error, so every such exit prints the same prefix: no other ``cli`` function
  returns the literal 2 or 3 (``CONTROLS`` counts the two in ``main``).
- *values*: only ``fileio``'s readers turn a command-line value's text into a
  value, so every subcommand reads it as a config file's value is read and an
  error names the flag: ``cli`` makes no ``float`` call and passes no
  ``type=`` to ``add_argument`` (``CONTROLS`` sees the keywords of
  ``_build_parser`` and the ``float`` call of ``fileio._read_times``).

A new rule is one ``RULES`` entry plus its ``PLANTED`` rows; a rule with an
owner gets a ``CONTROLS`` row too, so a scan blind to its construct fails.  A
control's owner is a module, or ``module:function`` when it counts one function,
with ``:rule`` after it for a second control of that function.
"""

import ast
import pathlib
import re

import pytest

from sqgkit.fileio import _SOLUTION_KEYS, _TOP_KEYS

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "sqgkit"
_STEPPING = {"_ifrk4_step", "_step_work", "_symbol"}
_PARSERS = {"loadtxt", "genfromtxt", "fromstring", "fromfile"}
_FAMILIES = {"EigenmodeSolution", "UnidirectionalSolution"}
_NAMERS = {"solutions.py", "__init__.py"}   # may name a family
_SYNTAX = {"_section_header", "_strip_comment"}
_WRITERS = {"makedirs", "write_field_csv", "render_contour"}
# A key, or a placeholder for one, then "=": the head of a config line.
_CONFIG_LINE = re.compile(r"\s*(\{\}|%s)\s*=" % "|".join(sorted({*_TOP_KEYS, *_SOLUTION_KEYS})))


def _name(node) -> str | None:
    """The name a name, an attribute or an import reads, else None."""
    if isinstance(node, ast.alias):
        return node.name
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _is_int(node, value) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_int(node.operand, -value)
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == value


def _layout(node) -> str | None:
    """The layout shape ``node`` reads, or None."""
    if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
            and len(node.slice.elts) == 2 and isinstance(node.slice.elts[1], ast.Slice)):
        cut = node.slice.elts[1]
        if cut.step is None and _is_int(cut.lower, 1) and _is_int(cut.upper, -1):
            return "[:, 1:-1]"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
        left = node.left
        while isinstance(left, ast.UnaryOp):
            left = left.operand
        if _name(left) in ("n_x", "n_y") and (_is_int(node.right, 2) or _is_int(node.right, 3)):
            return "n_x/n_y // 2 or 3"
    return None


def scan(source: str) -> list[tuple[int, str, str | int | None, str]]:
    """Every finding in ``source`` as ``(line, kind, what, caller)``.

    Kinds: ``name`` (a name, attribute or imported name), ``call`` (the callee's
    name), ``keyword`` (each keyword argument of a call, as ``callee(name=)``),
    ``isinstance`` (each class tested), ``layout`` (a layout shape),
    ``config line`` (an f-string that starts one, each replacement field shown
    as ``{}``) and ``return`` (a constant int returned, as the int).  The
    caller is the innermost enclosing function, or ``<module>``.
    """
    found = []

    def visit(node, caller):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            caller = node.name
        line = getattr(node, "lineno", 0)
        if name := _name(node):
            found.append((line, "name", name, caller))
        if isinstance(node, ast.Call):
            found.append((line, "call", _name(node.func), caller))
            found.extend((line, "keyword", f"{_name(node.func)}({kw.arg}=)", caller)
                         for kw in node.keywords)
            if _name(node.func) == "isinstance" and len(node.args) == 2:
                kinds = node.args[1]
                found.extend((line, "isinstance", _name(kind), caller)
                             for kind in (kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]))
        if (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                and type(node.value.value) is int):
            found.append((line, "return", node.value.value, caller))
        if shape := _layout(node):
            found.append((line, "layout", shape, caller))
        if isinstance(node, ast.JoinedStr):
            template = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                               for part in node.values)
            if _CONFIG_LINE.match(template):
                found.append((line, "config line", template, caller))
        for child in ast.iter_child_nodes(node):
            visit(child, caller)

    visit(ast.parse(source), "<module>")
    return found


def _writes_before_simulate(module, found):
    """The calls in ``scenario._run`` above its ``simulate`` call that write:
    a writer, or a helper that calls one."""
    if module != "scenario.py":
        return []
    writers = _WRITERS | {caller for _, kind, what, caller in found
                          if kind == "call" and what in _WRITERS}
    march = min((line for line, kind, what, caller in found
                 if (kind, what, caller) == ("call", "simulate", "_run")), default=float("inf"))
    return [(line, f"{what} before simulate") for line, kind, what, caller in found
            if kind == "call" and caller == "_run" and what in writers and line < march]


# Each rule: (module, its findings) -> the offending (line, what).
RULES = {
    "layout": lambda module, found: [
        (line, what) for line, kind, what, _ in found if module != "spectral.py"
        and (kind == "layout" or (kind, what) == ("name", "_multipliers"))],
    "march": lambda module, found: [
        (line, f"{caller} calls {what}") for line, kind, what, caller in found
        if kind == "call" and what in _STEPPING
        and (module, caller) != ("integrator.py", "_march")],
    "tiers": lambda module, found: [
        (line, f"{caller} calls {what}") for line, kind, what, caller in found
        if kind == "call" and what in _PARSERS],
    "families": lambda module, found: [
        (line, what) for line, kind, what, _ in found
        if what in _FAMILIES and (kind == "isinstance" and module != "solutions.py"
                                  or kind == "name" and module not in _NAMERS)],
    "solver": lambda module, found: [] if module != "scenario.py" else [
        (line, "second simulate") for line, kind, what, _ in found
        if (kind, what) == ("call", "simulate")][1:] + [
        (line, what) for line, kind, what, _ in found
        if (kind, what) == ("name", "_solver_error")],
    "syntax": lambda module, found: [
        (line, what) for line, kind, what, _ in found
        if kind == "name" and what in _SYNTAX and module != "fileio.py"
        or kind == "config line" and module == "cli.py"],
    "writes": _writes_before_simulate,
    "rows": lambda module, found: [] if module != "scenario.py" else [
        (line, f"{caller} calls residual") for line, kind, what, caller in found
        if (kind, what) == ("call", "residual")],
    "exits": lambda module, found: [] if module != "cli.py" else [
        (line, f"{caller} returns {what}") for line, kind, what, caller in found
        if kind == "return" and what in (2, 3) and caller != "main"],
    "values": lambda module, found: [] if module != "cli.py" else [
        (line, f"{caller} calls {what}") for line, kind, what, caller in found
        if (kind, what) in (("call", "float"), ("keyword", "add_argument(type=)"))],
}

# (rule, module, planted source, what the rule finds in it)
PLANTED = [
    ("layout", "verify.py", "from .spectral import _multipliers", ["_multipliers"]),
    ("layout", "verify.py", "t = spectral._multipliers(8, 8, 5)", ["_multipliers"]),
    ("layout", "verify.py", "s = a.sum() + a[:, 1:-1].sum()", ["[:, 1:-1]"]),
    ("layout", "verify.py", "box = grid.n_x // 3 + 1", ["n_x/n_y // 2 or 3"]),
    ("layout", "verify.py", "row = n_y // 2", ["n_x/n_y // 2 or 3"]),
    ("layout", "verify.py", "k = -grid.n_x // 2", ["n_x/n_y // 2 or 3"]),
    ("layout", "verify.py", "key = line[1:-1].strip()", []),
    ("layout", "verify.py", "ok = max_k <= n // 4", []),
    ("layout", "verify.py", "w = grid.n_x // 4", []),
    ("march", "integrator.py", "def step(c):\n    return _ifrk4_step(c, 0.1)",
     ["step calls _ifrk4_step"]),
    ("march", "integrator.py", "def simulate(g, p):\n    w = integrator._step_work(g, True)",
     ["simulate calls _step_work"]),
    ("march", "integrator.py", "sym = _symbol(grid, 1.0, 0.5)", ["<module> calls _symbol"]),
    ("march", "integrator.py", "def _march(g):\n    def inner():\n        _symbol(g, 1, 0)",
     ["inner calls _symbol"]),
    ("march", "integrator.py", "def _march(c):\n    c = _ifrk4_step(c, 0.1)", []),
    ("march", "verify.py", "def _march(c):\n    c = _ifrk4_step(c, 0.1)",
     ["_march calls _ifrk4_step"]),
    ("march", "integrator.py", "def f(c):\n    return _ifrk4_step_count + symbol(c)", []),
    ("tiers", "fileio.py", "def f(rows):\n    return np.loadtxt(rows, delimiter=',')",
     ["f calls loadtxt"]),
    ("tiers", "fileio.py", "def f(p):\n    return numpy.genfromtxt(p)", ["f calls genfromtxt"]),
    ("tiers", "fileio.py", "v = np.fromstring(text, sep=',')", ["<module> calls fromstring"]),
    ("tiers", "fileio.py", "def f(fh):\n    def g():\n        fromfile(fh)", ["g calls fromfile"]),
    ("tiers", "fileio.py", "def f(b):\n    return np.frombuffer(b) + loadtxt_count(b)", []),
    # fileio may neither test for a family nor name one: each is a finding
    ("families", "fileio.py", "isinstance(s, UnidirectionalSolution)",
     ["UnidirectionalSolution"] * 2),
    ("families", "fileio.py", "isinstance(s, _sol.EigenmodeSolution)", ["EigenmodeSolution"] * 2),
    ("families", "fileio.py", "isinstance(s, (int, EigenmodeSolution))", ["EigenmodeSolution"] * 2),
    ("families", "__init__.py", "isinstance(s, EigenmodeSolution)", ["EigenmodeSolution"]),
    ("families", "fileio.py", "isinstance(s, Solution)", []),
    ("families", "cli.py", "from .solutions import EigenmodeSolution as E", ["EigenmodeSolution"]),
    ("families", "fileio.py", "sol = EigenmodeSolution(n=n, m=m, kappa=k, alpha=a)",
     ["EigenmodeSolution"]),
    ("families", "fileio.py", "sol = _FAMILIES[family](kappa=k, alpha=a, **values)", []),
    ("families", "cli.py", "x = UnidirectionalSolution_count", []),
    ("solver", "scenario.py", "t = verify._solver_error(s, f, p)", ["_solver_error"]),
    ("solver", "scenario.py", "traj = simulate(f, p)\nverify.simulate(f, p)", ["second simulate"]),
    ("solver", "scenario.py", "from .integrator import simulate", []),
    ("syntax", "cli.py", "from .fileio import _TOP_KEYS, _section_header", ["_section_header"]),
    ("syntax", "cli.py", "x = fileio._strip_comment(line)", ["_strip_comment"]),
    ("syntax", "cli.py", "if _section_header(line):\n    pass", ["_section_header"]),
    ("syntax", "cli.py", "x = _section_headers + strip_comment", []),
    ("syntax", "cli.py", 'x = f"{key} = {value}"', ["{} = {}"]),
    ("syntax", "cli.py", 'x = [f"outdir = {d}"]', ["outdir = {}"]),
    ("syntax", "cli.py", 'x = f"  t_end={t}\\n"', ["  t_end={}\n"]),
    ("syntax", "cli.py", 'print(f"t = {t:g}: residual l_inf = {r:.3e}")', []),
    ("syntax", "cli.py", 'print(f"wrote {path} ({n}x{m}, t = {t:g})")', []),
    ("syntax", "cli.py", 'x = "outdir = o"', []),
    ("writes", "scenario.py", "def _run(c):\n    os.makedirs(d)\n    t = simulate(f, p)",
     ["makedirs before simulate"]),
    ("writes", "scenario.py", "def _run(c):\n    t = simulate(f, p)\n    os.makedirs(d)", []),
    ("writes", "scenario.py", "def _run(c):\n    write_field_csv(f, b)\n    render_contour(f, b)\n"
     "    t = simulate(f, p)", ["write_field_csv before simulate", "render_contour before simulate"]),
    ("writes", "scenario.py", "def _run(c):\n    def emit(f):\n        write_field_csv(f, b)\n"
     "    emit(f)\n    t = simulate(f, p)\n    emit(f)", ["emit before simulate"]),
    ("writes", "scenario.py", "def _run(c):\n    os.makedirs(d)", ["makedirs before simulate"]),
    ("writes", "scenario.py", "def run_builtin(c):\n    os.makedirs(d)\n    _run(c)", []),
    ("writes", "fileio.py", "def _run(c):\n    os.makedirs(d)\n    simulate(f, p)", []),
    ("rows", "scenario.py", "rep = verify.residual(sol, t, grid)", ["<module> calls residual"]),
    ("rows", "scenario.py", "def _run(c):\n    for t in times:\n        r = residual(s, t, g).l_inf",
     ["_run calls residual"]),
    ("rows", "scenario.py", "def _run(c):\n    linf = verify._residual_linf(s, times, g)", []),
    ("rows", "scenario.py", "from .verify import residual\nx = rep.residual + residual_tol", []),
    ("rows", "cli.py", "rep = residual(sol, t, grid)", []),
    ("exits", "cli.py", "def _cmd_eval(a):\n    return 2", ["_cmd_eval returns 2"]),
    ("exits", "cli.py", "def main(a):\n    return 3", []),
    ("exits", "cli.py", "def _cmd_verify(a):\n    return 1", []),
    ("values", "cli.py", 'p.add_argument("--kappa", type=float, default=0.001)',
     ["<module> calls add_argument(type=)"]),
    ("values", "cli.py", 'def _build_parser():\n    p.add_argument("--n", type=int)',
     ["_build_parser calls add_argument(type=)"]),
    ("values", "cli.py", 'def _cmd_verify(a):\n    times = [float(t) for t in a.times.split(",")]',
     ["_cmd_verify calls float"]),
    ("values", "cli.py", "if not math.isfinite(float(args.tol)):\n    pass",
     ["<module> calls float"]),
    ("values", "cli.py", 'p.add_argument("--tol", default="1e-10")\nv = _read_flags(vars(a))', []),
    ("values", "cli.py", "x = float_text + floats(t) + parser.add(type=float)", []),
    ("values", "fileio.py", "def _read_times(k, t):\n    return [float(p) for p in t]", []),
]

# owner: (the finding it owns, how many its scan holds; None for at least one)
CONTROLS = {
    "spectral.py": (lambda kind, what, caller: kind == "layout", None),
    "integrator.py": (lambda *finding: finding == ("call", "_ifrk4_step", "_march"), None),
    "solutions.py": (lambda kind, what, caller: kind == "isinstance" and what in _FAMILIES, None),
    "fileio.py": (lambda kind, what, caller: (kind, what) == ("name", "_section_header"), None),
    "scenario.py": (lambda kind, what, caller: (kind, what) == ("call", "simulate"), 1),
    "scenario.py:_run": (lambda kind, what, caller: kind == "call" and caller == "_run"
                         and what in ("simulate", "makedirs"), 2),
    "scenario.py:_run:rows": (lambda *finding: finding == ("call", "_residual_linf", "_run"), 1),
    "cli.py:main": (lambda kind, what, caller: kind == "return" and caller == "main"
                    and what in (2, 3), 2),
    "cli.py:_build_parser": (lambda kind, what, caller: kind == "keyword"
                             and what.startswith("add_argument(") and caller == "_build_parser",
                             None),
    "fileio.py:_read_times": (lambda *finding: finding == ("call", "float", "_read_times"), 1),
}


_SCANS = {path.name: scan(path.read_text(encoding="utf-8"))
          for path in sorted(_PACKAGE.glob("*.py"))}   # a missing owner fails its control


@pytest.mark.parametrize("rule,module,source,expected", PLANTED)
def test_each_rule_finds_its_planted_breaks(rule, module, source, expected):
    assert [what for _, what in RULES[rule](module, scan(source))] == expected


@pytest.mark.parametrize("owner", sorted(CONTROLS))
def test_the_scan_sees_what_each_owner_owns(owner):
    owns, count = CONTROLS[owner]
    hits = [line for line, kind, what, caller in _SCANS[owner.partition(":")[0]]
            if owns(kind, what, caller)]
    assert len(hits) == count if count is not None else hits


@pytest.mark.parametrize("rule", sorted(RULES))
def test_each_decision_stays_with_its_owner(rule):
    offences = [f"{module}:{line}: {what}"
                for module, found in _SCANS.items()
                for line, what in RULES[rule](module, found)]
    assert offences == []
