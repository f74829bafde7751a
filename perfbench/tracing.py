"""Timing shims for the benchmark: per-tick stamps and layer spans.

Everything here patches attributes of the ``tendonctl`` modules from the
outside and restores them afterwards; nothing under ``src/`` changes.

``TickClock`` adds one ``perf_counter`` stamp per control tick and is the
only instrumentation the untraced (end-to-end) runs carry.  ``Tracer``
wraps the public functions of every layer in spans (name, start, end,
parent) kept in memory, and derives the per-layer metrics from them.
"""

import csv
import gzip
from time import perf_counter

import numpy as np

from tendonctl import cli, dynamic_ctrl, harness, nets, plant, reflex, static_ctrl

LAYERS = ("plant", "nets", "static_ctrl", "dynamic_ctrl", "reflex", "harness")

# (owner, attribute, span name).  Functions imported by name into harness
# or cli are wrapped at that import site, which is where the loop calls them.
TRACE_POINTS = [
    (plant.Plant, "step", "plant.step"),
    (plant.MuscleGeometry, "jacobian", "plant.jacobian"),
    (harness, "car_step", "plant.car_step"),
    (nets.MLPNetwork, "forward", "nets.forward"),
    (nets.MLPNetwork, "gradients", "nets.gradients"),
    (nets, "train", "nets.train"),
    (static_ctrl, "init_from_geometry", "static_ctrl.init"),
    (harness, "init_from_geometry", "static_ctrl.init"),
    (static_ctrl.IntersensoryModel, "infer_command", "static_ctrl.infer"),
    (static_ctrl.IntersensoryModel, "length_jacobian_theta", "static_ctrl.length_jacobian"),
    (static_ctrl.IntersensoryModel, "online_update", "static_ctrl.online_update"),
    (harness, "ekf_step", "static_ctrl.ekf_step"),
    (harness, "collect_rollout", "dynamic_ctrl.collect"),
    (harness, "train_dynamics", "dynamic_ctrl.train"),
    (harness, "mpc_control_step", "dynamic_ctrl.mpc_tick"),
    (dynamic_ctrl, "optimize_commands", "dynamic_ctrl.optimize"),
    (dynamic_ctrl.DynamicsModel, "loss_and_grad", "dynamic_ctrl.loss_and_grad"),
    (harness, "solve_tension_qp", "reflex.qp"),
    (harness, "mrc_step", "reflex.mrc_step"),
    (harness, "safety_reflex_step", "reflex.safety"),
    (harness.PedalRig, "apply", "harness.apply"),
    (cli, "train_pedal_dynamics", "harness.train_pedal_dynamics"),
    (cli, "build_pedal_rig", "harness.build_pedal_rig"),
    (cli, "run_scenario", "harness.run_scenario"),
    (harness, "run_scenario", "harness.run_scenario"),
    (harness, "run_mrc_experiment", "harness.run_mrc_experiment"),
    (harness, "run_safety_experiment", "harness.run_safety_experiment"),
    (harness, "run_ekf_experiment", "harness.run_ekf_experiment"),
    (harness, "run_online_learning_experiment", "harness.run_online_learning_experiment"),
]

PER_CALL_US = ["plant.step", "plant.jacobian", "plant.car_step", "nets.forward",
               "nets.gradients", "static_ctrl.infer", "static_ctrl.length_jacobian",
               "static_ctrl.ekf_step", "static_ctrl.online_update",
               "dynamic_ctrl.mpc_tick", "dynamic_ctrl.loss_and_grad", "reflex.qp",
               "reflex.mrc_step", "reflex.safety", "harness.apply"]
CALLS = ["plant.step", "plant.jacobian", "nets.forward", "nets.gradients",
         "static_ctrl.init", "dynamic_ctrl.loss_and_grad", "reflex.qp"]
TOTAL_S = ["nets.train", "static_ctrl.init", "dynamic_ctrl.collect", "dynamic_ctrl.train"]


def unit_of(metric):
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(("_calls", "_batches")):
        return "count"
    if metric.endswith("_s"):
        return "s"
    return "x" if metric == "trace_overhead" else "1"


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_shim):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make_shim(orig))
        self._saved.append((owner, attr, orig))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class TickClock:
    """One ``perf_counter`` stamp on entry to each call of the wrapped functions."""

    def __init__(self, targets):
        self.stamps = []
        self._targets = targets
        self._patches = Patches()

    def __enter__(self):
        stamps = self.stamps

        def make_shim(orig):
            def shim(*args, **kwargs):
                stamps.append(perf_counter())
                return orig(*args, **kwargs)
            return shim

        for owner, attr in self._targets:
            self._patches.wrap(owner, attr, make_shim)
        return self

    def __exit__(self, *exc):
        self._patches.restore()


class Tracer:
    """Spans around every layer's public functions, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.train_epochs = 0    # loss-history entries nets.train returned
        self.iters_run = 0
        self.iters_useful = 0
        self.qp_solutions = []   # (qp, x) pairs, KKT-checked after the run
        self._stack = []
        self._patches = Patches()

    def __enter__(self):
        for owner, attr, name in TRACE_POINTS:
            self._patches.wrap(owner, attr, self._span_shim(name))
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def _span_shim(self, name):
        spans, stack = self.spans, self._stack
        after = {"nets.train": self._count_epochs,
                 "dynamic_ctrl.optimize": self._count_iterations,
                 "reflex.qp": self._keep_qp}.get(name)

        def make_shim(orig):
            def shim(*args, **kwargs):
                idx = len(spans)
                record = [name, 0.0, 0.0, stack[-1] if stack else -1]
                spans.append(record)
                stack.append(idx)
                record[1] = perf_counter()
                try:
                    out = orig(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    stack.pop()
                if after is not None:
                    after(args, kwargs, out)
                return out
            return shim

        return make_shim

    def _count_epochs(self, args, kwargs, out):
        self.train_epochs += len(out)

    def _count_iterations(self, args, kwargs, out):
        losses = out[2]
        self.iters_run += len(losses)
        self.iters_useful += int(np.argmin(losses)) + 1

    def _keep_qp(self, args, kwargs, out):
        self.qp_solutions.append((args[0] if args else kwargs["qp"], out))

    # -- reduction ----------------------------------------------------------

    def durations(self, name):
        return np.array([s[2] - s[1] for s in self.spans if s[0] == name])

    def self_time_by_layer(self):
        child = np.zeros(len(self.spans))
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = dict.fromkeys(LAYERS, 0.0)
        for s, c in zip(self.spans, child):
            out[s[0].split(".", 1)[0]] += (s[2] - s[1]) - c
        return out

    def layer_metrics(self):
        m = {}
        for name in PER_CALL_US:
            d = self.durations(name)
            m[f"{name}_us"] = float(np.median(d) * 1e6) if d.size else 0.0
        for name in CALLS:
            m[f"{name}_calls"] = sum(1 for s in self.spans if s[0] == name)
        for name in TOTAL_S:
            m[f"{name}_s"] = float(self.durations(name).sum())
        # nets.train runs one forward per batch plus one full-set loss per epoch
        train = {i for i, s in enumerate(self.spans) if s[0] == "nets.train"}
        m["nets.train_batches"] = sum(1 for s in self.spans
                                      if s[0] == "nets.forward" and s[3] in train) \
            - self.train_epochs
        m["dynamic_ctrl.useful_iter_frac"] = (self.iters_useful / self.iters_run
                                              if self.iters_run else 0.0)
        m["reflex.kkt_max"] = max((reflex.kkt_residual(qp, x) for qp, x in self.qp_solutions),
                                  default=0.0)
        for layer, t in self.self_time_by_layer().items():
            m[f"{layer}.self_s"] = t
        return m

    def write(self, path):
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start_s", "end_s", "parent"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent in self.spans:
                w.writerow([name, f"{start - t0:.7f}", f"{end - t0:.7f}", parent])
