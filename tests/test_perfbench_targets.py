"""The benchmark's layer trace wraps udfield functions by module and name
(`perfbench/layertrace.py`, TARGETS).  A rename in src/ would silently drop
a layer from the trace, so every target must still resolve."""

import importlib
import importlib.util
import os
import subprocess
import sys

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


# a fresh process that has run only `count`: the trace installs over the
# lazily bound modules as well as over those the command ran
AFTER_COUNT = """
import sys
sys.path.insert(0, sys.argv[1])
from layertrace import LayerTrace
from udfield import cli
assert cli.main(["count", "--csv", "in/pointset.csv", "--method", "exact"]) == 0
with LayerTrace().installed() as trace:
    assert cli.main(["count", "--csv", "in/pointset.csv", "--method", "exact"]) == 0
assert trace.calls["counting.count_float"] == 0 and trace.calls["cli"] == 1
"""


def test_layertrace_installs_after_count(tmp_path):
    from udfield.cli import main

    assert main(["generate", "--field", "gaussian", "--scale", "1", "--R", "4",
                 "--no-plot", "--out", str(tmp_path / "in")]) == 0
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src") + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", AFTER_COUNT,
                           os.path.join(ROOT, "perfbench")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_layertrace_counts_the_window_pairs(tmp_path, capsys):
    # a window's pairs come from the join, still through unit_pair_indices,
    # so the trace's pair counter is the report's measured count
    import json

    from udfield.cli import main

    LayerTrace = _layertrace().LayerTrace
    with LayerTrace().installed() as trace:
        assert main(["generate", "--field", "gaussian", "--prime", "5", "--k", "2",
                     "--scale", "1", "--R", "5", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    pairs = report["construction"]["measured_unit_pairs"]
    assert pairs > 0
    assert trace.calls["counting.unit_pair_indices"] == 1
    assert trace.counters["counting.unit_pair_indices.pairs"] == pairs
    assert trace.calls["enumeration.polydisc"] >= 3
    test_layertrace_targets_resolve()
