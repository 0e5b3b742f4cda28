"""The names perfbench's span tracer wraps exist in the package, so that a
rename fails here rather than in ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    spans = load_spans()
    for module, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"qautcert.{module}"), attr, None)), \
            (module, attr)


def test_traced_methods_are_defined_in_their_class():
    spans = load_spans()
    for module, cls, method, _ in spans.METHODS:
        owner = getattr(importlib.import_module(f"qautcert.{module}"), cls)
        assert method in owner.__dict__, (module, cls, method)
