"""The function names the benchmark's tracer test pins still exist, so that
deleting one fails here in seconds rather than in the traced benchmark run,
which takes minutes.  perfbench/tests/test_tracer.py is read, not changed."""

import importlib
import importlib.util
import inspect
import os
import re

import pytest

TRACER_TEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tests", "test_tracer.py")


def tracer_test():
    spec = importlib.util.spec_from_file_location("perfbench_test_tracer", TRACER_TEST)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


PINS = tracer_test()
SPANS = sorted({name for names in PINS.EXPECTED.values() for name in names})


@pytest.mark.parametrize("name", SPANS)
def test_pinned_span_is_a_function_or_method_of_moufang(name):
    # the tracer wraps what a module defines itself, not what it imports
    layer, first, *rest = name.split(".")
    mod = importlib.import_module("moufang." + layer)
    obj = getattr(mod, first, None)
    assert getattr(obj, "__module__", None) == mod.__name__, name
    for attr in rest:
        obj = vars(obj).get(attr)
    assert callable(obj) or isinstance(obj, (property, classmethod)), name


def test_pinned_from_import_bindings_exist():
    # the names that test_from_import_bindings_are_wrapped looks up, such as
    # cli.mat_det: bound in one module, defined in another
    code = inspect.getsource(PINS.test_from_import_bindings_are_wrapped)
    names = re.findall(r"(\w+)\.(\w+)", re.search(r"names = \[(.*?)\]", code,
                                                   re.S).group(1))
    assert names
    for layer, attr in names:
        assert callable(getattr(importlib.import_module("moufang." + layer),
                                attr, None)), (layer, attr)
