"""Checks that the benchmark's tracer still matches the package it wraps."""

import importlib
import importlib.util
import pathlib

import numpy as np

import sqgkit

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_layer_functions_exist():
    # The tracer looks each boundary function up by name when a traced run
    # starts; a rename would only show up there.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {layer: importlib.import_module(f"sqgkit.{layer}")
               for layer in tracing.LAYER_FUNCTIONS}
    missing = [f"{layer}.{name}"
               for layer, names in tracing.LAYER_FUNCTIONS.items()
               for name in names
               if not callable(getattr(modules[layer], name, None))]
    assert tracing.LAYER_FUNCTIONS and missing == []
    # Building the patch plan (without installing it) looks up the rest.
    assert tracing.Tracer(sqgkit, np).patches
