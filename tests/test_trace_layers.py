"""The benchmark's per-layer tracer still finds every name it wraps.

perfbench/tracing.py wraps program functions at the names their callers look
them up by. A rename or deletion of one of them breaks only the traced
benchmark run, so this installs the layers, drives a short episode through
them and removes them again.
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from gpnav import episode  # noqa: E402
from gpnav.scenario import load_scenario, resolve_scenario  # noqa: E402


def test_install_layers_wraps_every_name_and_uninstalls():
    cfg = replace(load_scenario(resolve_scenario("static_slalom")), max_time=1.0)
    tracer = tracing.Tracer()
    originals = {}
    try:
        tracing.install_layers(tracer)
        originals = {(owner, attr): inner
                     for owner, attr, inner in tracer._installed}
        assert all(getattr(owner, attr) is not inner
                   for (owner, attr), inner in originals.items())
        episode.run_episode(cfg)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is inner
               for (owner, attr), inner in originals.items())
    traced = {layer for _, layer, *_ in tracer.spans}
    assert {"episode", "simworld.lidar", "pipeline", "clustering", "ellipse",
            "gp.build", "barrier.eval", "controller"} <= traced
    metrics = tracing.layer_metrics(tracer, ops=1, wall_s=1.0)
    assert set(tracing.TIME_METRICS) <= set(metrics)
