"""perfbench's span wrappers still see every traced call of a tiny run.

perfbench wraps ``gradient``, ``forward``, ``features``, ``randmix`` and
``centroid_pseudo_labels`` where codag's modules look them up, and
``Sgd.step`` on its class. A call routed around those names drops out of
the counts pinned here, which come from ``perfbench/traced_cli.py`` on
``test_cli``'s tiny config.
"""

import importlib.util
import json
import os
import subprocess
import sys

import codag
from test_cli import TINY

_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
_spec = importlib.util.spec_from_file_location("spans", os.path.join(_BENCH, "spans.py"))
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

TRACED_COUNTS = {
    "nnmodel.gradient.calls": 84,
    "nnmodel.sgd_step.calls": 84,
    "augment.randmix.calls": 12,
    "adapt.centroid_pseudo_labels.calls": 2,
    "nnmodel.forward.calls": 31,
    "nnmodel.forward.rows": 1870,
    "nnmodel.features.calls": 8,
    "evaluate.accuracy.calls": 15,
    "replay.herding_select.calls": 8,
}


def test_traced_tiny_run_keeps_every_call_count(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    span_dir = tmp_path / "spans"
    span_dir.mkdir()
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(codag.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, os.path.join(_BENCH, "traced_cli.py"), str(span_dir),
                    "run", "--config", str(config), "--out", str(tmp_path / "out")],
                   env=env, capture_output=True, check=True, timeout=120)
    metrics = spans.layer_metrics(spans.load_spans(str(span_dir)))
    assert {name: metrics[name] for name in TRACED_COUNTS} == TRACED_COUNTS
