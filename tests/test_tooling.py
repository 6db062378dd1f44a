"""Checks that the benchmark's tracer still matches the package it wraps."""

import importlib
import importlib.util
import pathlib

import numpy as np

import sqgkit
from sqgkit.integrator import SolverParams
from sqgkit.solutions import builtin_samples
from sqgkit.spectral import GridSpec

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
