"""Command-line experiment runner.

Subcommands collect rollouts, train the dynamics net, run the scripted
scenarios and the arm and ankle experiments.  Every command that needs h
builds it from the config's body at --seed.  Exit codes: 0 success,
1 config/usage, model or IO error (one line on stderr), 2 acceptance-metric
failure under --assert.
"""

import argparse
import os
import sys
import zipfile
from dataclasses import dataclass

import numpy as np

from . import harness, static_ctrl
from .dynamic_ctrl import (DynamicsModel, OptimizerConfig, PIDController,
                           TrainingThresholdError, collect_rollout, train_dynamics)
from .harness import (Scenario, build_pedal_rig, compare_controllers,
                      run_scenario, train_pedal_dynamics)
from .documents import (VERSION, DocumentError, as_object, build, done, load_json, read,
                        take, versioned)
from .plant import CarConfig, MuscleGeometry, default_ankle_geometry, ticks
from .static_ctrl import InitializationError

# The config schema.  Attribute of the read config: (section, what takes its
# keys, the keys as "key" or "key:parameter", whether their numbers must be
# positive).  A key left out takes its parameter's default; "train" holds a
# TrainConfig's documents.TRAIN_KEYS.  Bound at import: a wrapped module
# attribute hides a signature.
SCHEMA = {
    "scenario": ("scenario", Scenario, "name duration_s v_ref events controller", False),
    "static": ("static", static_ctrl.init_from_geometry,
               "grid_points f_samples loss_threshold train:train_cfg", True),
    "rollout": ("dynamics", train_pedal_dynamics, "N:horizon rollout_s:duration_s", True),
    "train": ("dynamics", train_dynamics, "rms_threshold train:train_cfg", True),
    "opt_cfg": ("dynamics", OptimizerConfig, "alpha", False),
    "pid_gains": ("pid", PIDController, "kp ki kd", False),
}


class ConfigError(Exception):
    """A usage error: a flag, or a model or rollout file the run cannot use."""


class Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so that they
    end in one line like every other, not in a usage block."""

    def error(self, message):
        raise ConfigError(message)


def read_config(doc, seed=0):
    """Check the whole document and read it by the SCHEMA, ``plant`` into
    ``geom`` and ``car_cfg``.  Raises documents.DocumentError."""
    top = versioned(doc, "config")
    sections = {name: as_object(top.pop(name), name)
                for name, *_ in SCHEMA.values() if name in top}
    cfg = argparse.Namespace(doc=doc, n_set="N" in sections.get("dynamics", {}),
                             geom=default_ankle_geometry(), car_cfg=CarConfig())
    if "plant" in top:
        plant = versioned(top.pop("plant"), "plant")
        cfg.car_cfg = read(plant.pop("car", {}), "plant.car", CarConfig)
        cfg.geom = read(plant, "plant", MuscleGeometry)
        try:
            cfg.geom.validate_antagonism()
        except ValueError as exc:
            raise DocumentError(f"plant: {exc}") from exc
    done(top, "")
    for attr, (name, target, keys, positive) in SCHEMA.items():
        section = sections.get(name, {} if name != "pid" else None)
        setattr(cfg, attr, section if section is None   # no pid: harness.DEFAULT_PID
                else take(section, name, target, keys, positive, seed))
    for name, section in sections.items():
        done(section, f"{name}.")
    cfg.scenario = build("scenario", Scenario, dict(cfg.scenario, seed=seed))
    cfg.opt_cfg = build("dynamics", OptimizerConfig,
                         dict(cfg.opt_cfg, horizon=cfg.rollout["horizon"]))
    n, rollout_s = cfg.rollout["horizon"], cfg.rollout["duration_s"]
    if ticks(rollout_s) <= n:   # one window: none left to fit after hold-out
        raise DocumentError(f"dynamics.rollout_s: {rollout_s} s is not longer than N = {n} ticks")
    return cfg


# --------------------------------------------------------------------------
# the stack: h, the pedal rigs and the dynamics model


def _static_model(args, cfg):
    """h built from the config's body at --seed."""
    return static_ctrl.init_from_geometry(cfg.geom, seed=args.seed, **cfg.static)


def _stack(args, cfg, learned=True):
    """Pedal rigs sharing one h and, for the learned controller, the dynamics
    model: --dynamics-model checked against the config and the rig, or trained."""
    path = args.dynamics_model if learned else None
    dyn = DynamicsModel.load(path) if path else None
    if dyn and cfg.n_set and dyn.horizon != cfg.opt_cfg.horizon:
        raise ConfigError(f"dynamics.N is {cfg.opt_cfg.horizon} but {path} has "
                          f"horizon {dyn.horizon}")
    model = _static_model(args, cfg)

    def rig_factory():
        return build_pedal_rig(static_model=model, car_cfg=cfg.car_cfg)

    n = rig_factory().extended_state().size if dyn else None
    if dyn and dyn.state_dim != n:
        raise ConfigError(f"{path} has state_dim {dyn.state_dim} but the rig's state has {n}")
    if learned and not dyn:
        dyn = train_pedal_dynamics(rig_factory, seed=args.seed, **cfg.rollout, **cfg.train)
    return rig_factory, dyn


# --------------------------------------------------------------------------
# commands


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _emit(args, report, name="report.json"):
    report.save(_out_path(args, name))
    print(report.to_json())


def cmd_collect(args, cfg):
    rig = _stack(args, cfg, learned=False)[0]()
    S0, U, Y = collect_rollout(rig, cfg.rollout["duration_s"], args.seed,
                               cfg.rollout["horizon"])
    path = _out_path(args, "rollout.npz")
    np.savez(path, version=VERSION, **vars(Rollout(S0, U, Y, *rig.u_limits)))
    print(f"wrote {path} ({S0.shape[0]} windows)")
    return 0


@dataclass
class Rollout:
    """A ``collect`` archive: two or more windows (one to fit, one to hold out)
    of initial states, commands and the task states that followed, and limits."""

    S0: np.ndarray
    U: np.ndarray
    Y: np.ndarray
    u_lo: float
    u_hi: float

    def __post_init__(self):
        S0, U, Y = self.S0, self.U, self.Y
        if not (S0.ndim == U.ndim == 2 and Y.shape == U.shape and len(S0) == len(U)
                and self.u_lo < self.u_hi):
            raise ValueError(f"S0 {S0.shape}, U {U.shape}, Y {Y.shape} and limits "
                             f"({self.u_lo}, {self.u_hi}) do not form windows")
        if len(S0) < 2:
            raise ValueError(f"{len(S0)} window; training needs at least two")


def _read_rollout(path):
    """The Rollout of a ``collect`` archive, read as a document of its
    arrays, each 0-d array as its number.  Raises ConfigError unless the
    file is an .npz archive and DocumentError unless it holds a Rollout."""
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: not an .npz archive") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path}: not an .npz archive")
    with data:
        try:
            doc = {k: data[k] for k in data.files}
        except (ValueError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{path}: unreadable rollout archive ({exc})") from exc
    doc = {k: a.item() if a.ndim == 0 else a for k, a in doc.items()}
    return read(versioned(doc, "rollout"), "rollout", Rollout)


def cmd_train_dynamics(args, cfg):
    data = _read_rollout(args.data)
    model = train_dynamics((data.S0, data.U, data.Y), (data.u_lo, data.u_hi),
                           seed=args.seed, **cfg.train)
    path = _out_path(args, "dynamics_model.json")
    model.save(path)
    print(f"wrote {path} (holdout RMS {model.holdout_rms:.3f} km/h)")
    return 0


def cmd_run(args, cfg):
    learned = cfg.scenario.controller == "learned"
    if args.dynamics_model and not learned:
        raise ConfigError("--dynamics-model: a pid scenario runs no dynamics model")
    rig_factory, dyn = _stack(args, cfg, learned)
    _emit(args, run_scenario(cfg.scenario, rig_factory(), dyn,
                             opt_cfg=cfg.opt_cfg, pid_gains=cfg.pid_gains,
                             out_dir=args.out, cfg_doc=cfg.doc))
    return 0


def cmd_compare(args, cfg):
    rig_factory, dyn = _stack(args, cfg)
    report = compare_controllers(cfg.scenario, rig_factory, dyn, cfg.doc,
                                 opt_cfg=cfg.opt_cfg, pid_gains=cfg.pid_gains,
                                 out_dir=args.out)
    _emit(args, report, "compare.json")
    m = report.metrics
    if args.assert_metrics and not m["settle_time_learned_s"] < m["settle_time_pid_s"]:
        print("ASSERT FAILED: learned controller did not beat PID", file=sys.stderr)
        return 2
    return 0


EXPERIMENTS = ("relax", "safety", "ekf", "online")


def cmd_experiment(args, cfg):
    """One of EXPERIMENTS, each on its own body; --assert checks the limits
    of its acceptance criterion in tests/test_acceptance.py."""
    run, files = args.experiment, []
    if "plant" in cfg.doc:
        raise ConfigError(f"plant: experiment {run} runs on its own body, not the config's")
    if run == "relax":      # MRC on a co-contracted arm, criterion 5
        files.append(_out_path(args, "relax_log.csv"))
        m = harness.run_mrc_experiment(log_path=files[0])
        m["tension_norm_no_mrc_N"] = \
            harness.run_mrc_experiment(use_mrc=False)["tension_norm_after_N"]
        m["tension_norm_constrained_N"] = \
            harness.run_mrc_experiment(constrained=True)["tension_norm_after_N"]
        ok = (m["tension_norm_after_N"] / m["tension_norm_no_mrc_N"] < 0.60
              and m["max_drift_rad"] <= 0.05
              and m["tension_norm_constrained_N"] < m["tension_norm_after_N"])
    elif run == "safety":   # ankle tension overload, criterion 6
        m = harness.run_safety_experiment(use_reflex=True)
        m["peak_tension_no_reflex_N"] = \
            harness.run_safety_experiment(use_reflex=False)["peak_tension_N"]
        ok = (m["max_dl_step_m"] <= 5e-4 + 1e-12
              and m["peak_tension_N"] < m["peak_tension_no_reflex_N"])
    elif run == "ekf":      # joint angle from noisy muscle lengths, criterion 7
        m = harness.run_ekf_experiment(_static_model(args, cfg), seed=args.seed)
        ok = m["rmse_rad"] < 0.05
    else:                   # online learning of a +5 mm length offset, criterion 4
        m = harness.run_online_learning_experiment(_static_model(args, cfg))
        ok = (m["pred_error_after_m"] / m["pred_error_before_m"] < 0.40
              and m["peak_tension_after_N"] < m["peak_tension_before_N"]
              and m["pred_error_after_m"] < 1e-3)
    _emit(args, harness.RunReport(run, args.seed, harness.config_hash(cfg.doc), m, files))
    return 2 if args.assert_metrics and not ok else 0


COMMANDS = {
    "collect": cmd_collect,
    "train-dynamics": cmd_train_dynamics,
    "run": cmd_run,
    "compare": cmd_compare,
    "experiment": cmd_experiment,
}


def build_parser():
    p = Parser(prog="tendonctl", description="tendon-driven robot control experiments")
    sub = p.add_subparsers(dest="command", required=True)   # each a Parser too
    for name in COMMANDS:   # the flags every command reads
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config path")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default="results")
    # the others, each only where a command reads it
    for name in ("run", "compare"):
        sub.choices[name].add_argument("--dynamics-model", default=None)
    for name in ("compare", "experiment"):
        sub.choices[name].add_argument("--assert", dest="assert_metrics", action="store_true",
                                       help="exit 2 when the run misses its target metric")
    sub.choices["train-dynamics"].add_argument("--data", required=True)
    sub.choices["experiment"].add_argument("experiment", choices=EXPERIMENTS)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.seed < 0:
            raise ConfigError(f"--seed: expected a non-negative integer, got {args.seed}")
        doc = load_json(args.config) if args.config else {"version": VERSION}
        return COMMANDS[args.command](args, read_config(doc, args.seed))
    except SystemExit as exc:   # -h printed the help
        return exc.code
    except (ConfigError, DocumentError, InitializationError, TrainingThresholdError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
