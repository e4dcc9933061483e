"""Every walkthrough under ``examples/`` imports and defines ``main``.

The examples train models and serve traffic, so running them belongs outside
the test suite; importing them is cheap (each guards ``main()`` behind
``if __name__ == "__main__":``) and catches an example that still names an
API the library no longer has.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_imports_and_defines_main(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
