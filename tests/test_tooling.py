"""Checks that the benchmark's tracer still matches the package it wraps, and
that its exact-check ops leave no state behind that moves a later op's report."""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np

import sqgkit
from sqgkit.integrator import SolverParams
from sqgkit.solutions import builtin_samples
from sqgkit.spectral import GridSpec

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_WORKLOADS = _TRACING.with_name("workloads.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_layer_functions_exist():
    # The tracer looks each boundary function up by name when a traced run
    # starts; a rename would only show up there.
    tracing = _tracing()
    modules = {layer: importlib.import_module(f"sqgkit.{layer}")
               for layer in tracing.LAYER_FUNCTIONS}
    missing = [f"{layer}.{name}"
               for layer, names in tracing.LAYER_FUNCTIONS.items()
               for name in names
               if not callable(getattr(modules[layer], name, None))]
    assert tracing.LAYER_FUNCTIONS and missing == []
    # Building the patch plan (without installing it) looks up the rest.
    assert tracing.Tracer(sqgkit, np).patches


def test_tracer_counts_the_solver_transforms():
    # The tracer counts transforms by patching ``numpy.fft``; a kernel that
    # bound numpy's FFT functions at import time would run unseen.  Each of
    # the 20 transforms of an IFRK4 step makes at least one counted call.
    tracer = _tracing().Tracer(sqgkit, np)
    grid = GridSpec(16, 16)
    initial = builtin_samples()["con-1"].initial_field(grid)
    params = SolverParams(kappa=0.01, alpha=0.5, dt=0.01, t_end=0.03)
    tracer.install()
    try:
        sqgkit.integrator.simulate(initial, params)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["steps"] == 3
    assert counts["fft_calls"] > 0 and counts["fft_in_integrator"] > 0
    assert counts["fft_in_integrator"] >= 20 * counts["steps"]


def test_exact_check_ops_leave_no_state_that_moves_a_report(tmp_path, monkeypatch):
    # The tiny seed-1 exact-check pool, run twice in one process and once
    # more with the one-entry pattern cache and the kept kernel workspace
    # cleared before each op: every op writes the same report, byte for byte.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for mod in (sqgkit, sqgkit.integrator, sqgkit.scenario, sqgkit.verify):
        if hasattr(mod, "simulate"):   # the runner wraps it; undone after the test
            monkeypatch.setattr(mod, "simulate", mod.simulate)
    runner = workloads.Runner(sqgkit, "exact-check")
    pool = workloads.make_inputs("exact-check", 1, tiny=True)
    monkeypatch.chdir(tmp_path)

    def replay(cold):
        reports = []
        for entry in pool:
            if cold:
                sqgkit.solutions._GRID_DATA.clear()
                sqgkit.verify._kernel_workspace.cache_clear()
            runner.clear()
            assert runner.gate(entry, runner.op(entry)) == []
            reports.append((tmp_path / "op" / "report.csv").read_bytes())
        return reports

    first = replay(cold=False)
    assert len(first) == len(pool) == 12
    assert replay(cold=False) == first
    assert replay(cold=True) == first
