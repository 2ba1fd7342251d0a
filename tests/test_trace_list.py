"""The benchmark's layer trace names functions of the library by module and
attribute; a refactor that deletes or renames one must fail here rather
than break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def traced_functions():
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS


@pytest.mark.parametrize("name, module_name, attr", traced_functions())
def test_traced_function_resolves(name, module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        # the tracer rebinds the method found in the class's own namespace
        assert attr in vars(owner), f"{name}: {cls_name}.{attr} not defined"
    assert callable(getattr(owner, attr, None)), f"{name}: {module_name}.{attr}"
