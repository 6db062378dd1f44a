"""Shared fixtures for the test suite."""

import os
import pathlib

import pytest

from sqgkit.spectral import GridSpec

# Child processes such as ``python -m sqgkit.cli`` import the checkout's package too.
_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def grid64():
    return GridSpec(64, 64)


@pytest.fixture
def grid32():
    return GridSpec(32, 32)
