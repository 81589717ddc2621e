"""The benchmark's layer trace wraps udfield functions by module and name
(`perfbench/layertrace.py`, TARGETS).  A rename in src/ would silently drop
a layer from the trace, so every target must still resolve."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _layertrace():
    path = os.path.join(ROOT, "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layertrace_targets_resolve():
    targets = _layertrace().TARGETS
    assert targets
    for span, modname, attr, _ in targets:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{span}: {modname}.{attr} is gone"
        assert callable(owner), f"{span}: {modname}.{attr} is not callable"
