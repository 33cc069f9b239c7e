"""The benchmark's per-layer tracer must still find every function it hooks.

perfbench/spans.py wraps functions by (module, name). A rename in the
package would otherwise surface only when someone runs the traced
benchmark, so its hook lists are checked here against the package.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # leave no bytecode cache beside the benchmark's files
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


spans = _load_spans()


@pytest.mark.parametrize("mod_name, attr", spans.FUNCTIONS)
def test_traced_function_exists(mod_name, attr):
    module = importlib.import_module(f"tpshift.{mod_name}")
    assert callable(getattr(module, attr, None)), f"tpshift.{mod_name}.{attr} is gone"


@pytest.mark.parametrize("mod_name, attr", spans.GENERATORS)
def test_traced_generator_exists(mod_name, attr):
    module = importlib.import_module(f"tpshift.{mod_name}")
    fn = getattr(module, attr, None)
    assert fn is not None, f"tpshift.{mod_name}.{attr} is gone"
    # the tracer times these once per next(), so they must stay generators
    assert inspect.isgeneratorfunction(fn)
