"""Command-line experiment runner.

Subcommands build models, collect rollouts, train the dynamics net, run the
scripted scenarios and the arm and ankle experiments.  Exit codes: 0 success,
1 config/usage, model or IO error (one line on stderr), 2 acceptance-metric
failure under --assert.
"""

import argparse
import dataclasses
import inspect
import json
import os
import sys
import typing
import zipfile

import numpy as np

from . import harness, static_ctrl
from .dynamic_ctrl import (DynamicsModel, OptimizerConfig, PIDController,
                           TrainingThresholdError, collect_rollout, train_dynamics)
from .harness import (Scenario, build_pedal_rig, compare_controllers,
                      run_scenario, train_pedal_dynamics)
from .nets import ModelFormatError, TrainConfig
from .plant import CarConfig, MuscleGeometry, default_ankle_geometry, ticks
from .static_ctrl import InitializationError, IntersensoryModel

CONFIG_VERSION = 1
DESCRIPTION_VERSION = 1   # of the body description in the config's plant section
ROLLOUT_VERSION = 1   # of the rollout.npz archive that collect writes
ROLLOUT_KEYS = ("version", "S0", "U", "Y", "u_lo", "u_hi")

# The config schema.  Attribute of the read config: (section, what takes its
# keys, the keys as "key" or "key:parameter", whether their numbers must be
# positive).  A key left out takes its parameter's default; "train" holds a
# TrainConfig's TRAIN_KEYS.  Bound at import: a wrapped module attribute hides
# a signature.
SCHEMA = {
    "scenario": ("scenario", Scenario, "name duration_s v_ref events controller", False),
    "static": ("static", static_ctrl.init_from_geometry,
               "grid_points f_samples loss_threshold train:train_cfg", True),
    "rollout": ("dynamics", train_pedal_dynamics, "N:horizon rollout_s:duration_s", True),
    "train": ("dynamics", train_dynamics, "rms_threshold train:train_cfg", True),
    "opt_cfg": ("dynamics", OptimizerConfig, "alpha", False),
    "pid_gains": ("pid", PIDController, "kp ki kd", False),
}
TRAIN_KEYS = "learning_rate batch_size epochs"


class ConfigError(Exception):
    pass


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:   # not JSON, not UTF-8, nested too deep
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _object(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    return dict(value)


def _checked(path, value, kind, positive):
    """``value`` if it is a JSON ``kind``, else ConfigError.  A dataclass kind
    is an object read by _read; ``tuple[...]`` is an array of one item per
    kind and ``list[...]`` one of one or more, read into a tuple or a list."""
    if dataclasses.is_dataclass(kind):
        return _read(value, path, kind)
    array, kinds = typing.get_origin(kind), typing.get_args(kind)
    if array:
        items = _checked(path, value, list, False)
        if array is list:
            kinds *= len(items)
        if not items or len(items) != len(kinds):
            raise ConfigError(f"{path}: expected {len(kinds) or 'one or more'} items, got {items}")
        return array(_checked(f"{path}[{i}]", v, k, positive)
                     for i, (v, k) in enumerate(zip(items, kinds)))
    types = {float: (int, float), int: int, str: str, list: list}
    ok = isinstance(value, types.get(kind, ())) and not isinstance(value, bool)
    if ok and kind in (int, float):   # finite as a float: no NaN, inf or huge int
        ok = abs(value) <= sys.float_info.max and (value > 0 or not positive)
    if not ok:
        raise ConfigError(f"{path}: expected {kind.__name__}{' > 0' * positive}, got {value!r}")
    return value


def _take(section, path, target, keys, positive, seed=0):
    """Pop the keyword arguments ``keys`` of ``target`` (all by default) from a
    config section, each checked against the type of its parameter's annotation
    or default.  A ``train`` section's TrainConfig takes ``seed``, as the default does."""
    params = inspect.signature(target).parameters
    kwargs = {}
    for name in keys.split() if keys else params:
        key, _, param = name.partition(":")
        p, at = params[param or key], f"{path}.{key}"
        if key not in section:
            if p.default is p.empty:
                raise ConfigError(f"{at}: missing")
            kwargs[p.name] = p.default
        elif key == "train":
            kwargs[p.name] = _read(section.pop(key), at, TrainConfig, TRAIN_KEYS, seed=seed)
        else:
            kind = type(p.default) if p.annotation is p.empty else p.annotation
            kwargs[p.name] = _checked(at, section.pop(key), kind, positive)
    return kwargs


def _done(section, path):
    if section:
        raise ConfigError(f"{path}{sorted(section)[0]}: unknown key")


def _build(path, cls, kwargs):
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read(value, path, cls, keys=None, **fixed):
    """A ``cls`` built from the JSON object ``value``, which holds ``keys``
    (all of ``cls``'s parameters by default) and no other key, and from the
    keyword arguments ``fixed``."""
    section = _object(value, path)
    kwargs = _take(section, path, cls, keys, False)
    _done(section, f"{path}.")
    return _build(path, cls, dict(kwargs, **fixed))


def read_config(doc, seed=0):
    """Check the whole document and read it by the SCHEMA, ``plant`` into
    ``geom`` and ``car_cfg``.  Raises ConfigError."""
    top = _object(doc, "config")
    if top.pop("version", None) != CONFIG_VERSION:
        raise ConfigError(f"version: expected {CONFIG_VERSION}, got {doc.get('version')!r}")
    sections = {name: _object(top.pop(name), name)
                for name, *_ in SCHEMA.values() if name in top}
    cfg = argparse.Namespace(doc=doc, n_set="N" in sections.get("dynamics", {}),
                             geom=default_ankle_geometry(), car_cfg=CarConfig())
    if "plant" in top:
        plant = _object(top.pop("plant"), "plant")
        version = plant.pop("version", None)
        if version != DESCRIPTION_VERSION:
            raise ConfigError(f"plant.version: expected {DESCRIPTION_VERSION}, got {version!r}")
        cfg.car_cfg = _read(plant.pop("car", {}), "plant.car", CarConfig)
        cfg.geom = _read(plant, "plant", MuscleGeometry)
        try:
            cfg.geom.validate_antagonism()
        except ValueError as exc:
            raise ConfigError(f"plant: {exc}") from exc
    _done(top, "")
    for attr, (name, target, keys, positive) in SCHEMA.items():
        section = sections.get(name, {} if name != "pid" else None)
        setattr(cfg, attr, section if section is None   # no pid: harness.DEFAULT_PID
                else _take(section, name, target, keys, positive, seed))
    for name, section in sections.items():
        _done(section, f"{name}.")
    cfg.scenario = _build("scenario", Scenario, dict(cfg.scenario, seed=seed))
    cfg.opt_cfg = _build("dynamics", OptimizerConfig,
                         dict(cfg.opt_cfg, horizon=cfg.rollout["horizon"]))
    n, rollout_s = cfg.rollout["horizon"], cfg.rollout["duration_s"]
    if ticks(rollout_s) <= n:   # one window: none left to fit after hold-out
        raise ConfigError(f"dynamics.rollout_s: {rollout_s} s is not longer than N = {n} ticks")
    return cfg


# --------------------------------------------------------------------------
# the stack: h, the pedal rigs and the dynamics model


def _static_model(args, cfg):
    """h from --static-model, else pre-trained on the config's body."""
    if args.static_model:
        model = IntersensoryModel.load(args.static_model)
        body = (cfg.geom.n_joints, cfg.geom.n_muscles)
        if (model.n_joints, model.n_muscles) != body:
            raise ConfigError(f"{args.static_model} has {model.n_joints} joints and "
                              f"{model.n_muscles} muscles but the body has {body[0]} and {body[1]}")
        return model
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
        return build_pedal_rig(static_model=model, car_cfg=cfg.car_cfg, geom=cfg.geom)

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


def cmd_init_model(args, cfg):
    path = _out_path(args, "static_model.json")
    _static_model(args, cfg).save(path)
    print(f"wrote {path}")
    return 0


def cmd_collect(args, cfg):
    rig = _stack(args, cfg, learned=False)[0]()
    S0, U, Y = collect_rollout(rig, cfg.rollout["duration_s"], args.seed,
                               cfg.rollout["horizon"])
    path = _out_path(args, "rollout.npz")
    np.savez(path, version=ROLLOUT_VERSION, S0=S0, U=U, Y=Y,
             u_lo=rig.u_limits[0], u_hi=rig.u_limits[1])
    print(f"wrote {path} ({S0.shape[0]} windows)")
    return 0


def _read_rollout(path):
    """The windows (S0, U, Y) and command limits of a ``collect`` archive.
    Raises ConfigError unless it is one of ROLLOUT_VERSION with at least two
    windows, one to fit and one to hold out."""
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: not an .npz archive") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path}: not an .npz archive")
    with data:
        missing = [k for k in ROLLOUT_KEYS if k not in data.files]
        if missing:
            raise ConfigError(f"{path}: no {missing[0]!r} array in the rollout archive")
        try:
            a = {k: data[k] for k in ROLLOUT_KEYS}
        except (ValueError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{path}: unreadable rollout archive ({exc})") from exc
    for k, v in a.items():
        if v.dtype.kind not in "fiu" or not np.isfinite(v).all():
            raise ConfigError(f"{path}: the rollout archive's {k!r} array holds a "
                              f"non-numeric or non-finite value")
    version, lo, hi = (a[k] for k in ("version", "u_lo", "u_hi"))
    if version.shape or version != ROLLOUT_VERSION:
        raise ConfigError(f"{path}: rollout archive version {version}; expected {ROLLOUT_VERSION}")
    S0, U, Y = a["S0"], a["U"], a["Y"]
    if not (S0.ndim == U.ndim == 2 and Y.shape == U.shape and len(S0) == len(U)
            and lo.shape == hi.shape == () and lo < hi):
        raise ConfigError(f"{path}: S0 {S0.shape}, U {U.shape}, Y {Y.shape} and limits "
                          f"({lo}, {hi}) do not form windows")
    if len(S0) < 2:
        raise ConfigError(f"{path}: {len(S0)} window; training needs at least two")
    return (S0, U, Y), (float(lo), float(hi))


def cmd_train_dynamics(args, cfg):
    dataset, u_limits = _read_rollout(args.data)
    model = train_dynamics(dataset, u_limits, seed=args.seed, **cfg.train)
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
    if args.static_model and run in ("relax", "safety"):
        raise ConfigError(f"--static-model: experiment {run} runs no h")
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
    "init-model": cmd_init_model,
    "collect": cmd_collect,
    "train-dynamics": cmd_train_dynamics,
    "run": cmd_run,
    "compare": cmd_compare,
    "experiment": cmd_experiment,
}


def build_parser():
    p = argparse.ArgumentParser(prog="tendonctl",
                                description="tendon-driven robot control experiments")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:   # the flags every command reads
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config path")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default="results")
    # the others, each only where a command reads it
    for name in ("init-model", "collect", "run", "compare", "experiment"):
        sub.choices[name].add_argument("--static-model", default=None)
    for name in ("run", "compare"):
        sub.choices[name].add_argument("--dynamics-model", default=None)
    for name in ("compare", "experiment"):
        sub.choices[name].add_argument("--assert", dest="assert_metrics", action="store_true",
                                       help="exit 2 when the run misses its target metric")
    sub.choices["train-dynamics"].add_argument("--data", required=True)
    sub.choices["experiment"].add_argument("experiment", choices=EXPERIMENTS)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed: expected a non-negative integer, got {args.seed}")
        doc = load_config(args.config) if args.config else {"version": CONFIG_VERSION}
        return COMMANDS[args.command](args, read_config(doc, args.seed))
    except (ConfigError, InitializationError, TrainingThresholdError,
            ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
