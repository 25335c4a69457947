"""The traced benchmark run wraps program functions by name; every name resolves.

``perfbench/spans.py`` lists the module functions (``FUNCTIONS``) and class
methods (``METHODS``) it wraps, and its ``install`` looks each up as a
module attribute or as ``cls.__dict__[method]``.  A refactor that moves or
renames one of them would crash the traced run; here it fails the test
suite instead.  The spans file is read, never changed.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass reads it there
    spec.loader.exec_module(module)
    return module


spans = _spans()


def _module(name: str):
    return importlib.import_module(f"{spans.PACKAGE}.{name}")


@pytest.mark.parametrize("module, attr, span", spans.FUNCTIONS, ids=str)
def test_traced_function_is_a_module_attribute(module, attr, span):
    assert inspect.isfunction(getattr(_module(module), attr))


@pytest.mark.parametrize("module, cls, method, span", spans.METHODS, ids=str)
def test_traced_method_is_defined_in_its_class_body(module, cls, method, span):
    assert inspect.isfunction(getattr(_module(module), cls).__dict__[method])
