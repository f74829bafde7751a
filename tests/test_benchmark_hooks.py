"""The names the benchmark patches or stamps resolve to callables in src/,
and the calls it makes still take its arguments, so that a rename or a
signature change fails here, not in a benchmark run.  perfbench/ is read,
never changed."""

import importlib
import importlib.util
import re
from pathlib import Path

from tendonctl import cli, harness, plant, static_ctrl

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# the (owner, attribute) of every TickClock in perfbench/workloads.py
TICK_TARGETS = [("harness.PedalRig", "apply"), ("harness", "solve_tension_qp"),
                ("harness", "safety_reflex_step"), ("harness", "ekf_step"),
                ("static_ctrl.IntersensoryModel", "prediction_error")]


def patched(owner, attr):
    """What tracing.Patches.wrap replaces: a class's own attribute, else the
    module's; None if there is none."""
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def test_trace_points_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.TRACE_POINTS
               if not callable(patched(owner, attr))]
    assert not missing


def test_tick_clock_targets_resolve_to_callables():
    source = (PERFBENCH / "workloads.py").read_text()
    assert sorted(re.findall(r'TickClock\(\[\(([\w.]+), "(\w+)"\)\]\)', source)) == sorted(TICK_TARGETS)
    modules = {"harness": harness, "static_ctrl": static_ctrl}
    for dotted, attr in TICK_TARGETS:
        module, *path = dotted.split(".")
        owner = modules[module]
        for name in path:
            owner = getattr(owner, name)
        assert callable(patched(owner, attr)), f"{dotted}.{attr}"


def test_init_from_geometry_takes_the_benchmark_s_keywords(tmp_path, monkeypatch):
    # estimate_learn's STATIC_KW and quick keywords, and drive_mpc's quick
    # static section as the CLI reads it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    drive = workloads.DriveMPC(0, ROOT, tmp_path, quick=True)
    keywords = [workloads.STATIC_KW,
                workloads.EstimateLearn(0, ROOT, tmp_path, quick=True).static_kw,
                cli.read_config(drive.doc).static]
    assert {"grid_points", "f_samples", "loss_threshold", "train_cfg"} <= set(keywords[1])
    for kw in keywords:
        model = static_ctrl.init_from_geometry(plant.default_ankle_geometry(), **kw)
        assert model.net.weights
