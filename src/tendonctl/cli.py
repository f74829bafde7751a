"""Command-line experiment runner.

Subcommands build models, collect rollouts, train the dynamics net, and
run the scripted scenarios.  Exit codes: 0 success, 1 config/usage, model
or IO error (one line on stderr), 2 acceptance-metric failure under --assert.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import harness
from .dynamic_ctrl import (DynamicsModel, OptimizerConfig, TrainingThresholdError,
                           collect_rollout, train_dynamics)
from .harness import (Scenario, build_pedal_rig, compare_controllers,
                      run_ekf_experiment, run_mrc_experiment, run_scenario,
                      train_pedal_dynamics)
from .nets import ModelVersionError, TrainConfig
from .plant import default_ankle_geometry, geometry_from_description
from .static_ctrl import InitializationError, IntersensoryModel, init_from_geometry

CONFIG_VERSION = 1


class ConfigError(Exception):
    pass


def load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if doc.get("version") != CONFIG_VERSION:
        raise ConfigError(f"{path}: unsupported config version {doc.get('version')}")
    return doc


def _components(doc):
    geom = car_cfg = None
    if "plant" in doc:
        geom, car_cfg = geometry_from_description(doc["plant"])
    static_kwargs = dict(doc.get("static", {}))
    train_doc = static_kwargs.pop("train", None)
    if train_doc:
        static_kwargs["train_cfg"] = TrainConfig(**train_doc)
    return geom, car_cfg, static_kwargs


def _opt_cfg(doc):
    d = doc.get("dynamics", {})
    return OptimizerConfig(alpha=d.get("alpha", 0.1), beta=d.get("beta", 0.02),
                           iterations=d.get("iterations", 30),
                           horizon=d.get("N", 10))


def _dyn_train_cfg(doc):
    d = doc.get("dynamics", {}).get("train")
    return TrainConfig(**d) if d else None


def _pretrain_static(args, doc):
    geom, _, static_kwargs = _components(doc)
    static_kwargs.setdefault("seed", args.seed)
    return init_from_geometry(geom or default_ankle_geometry(), **static_kwargs)


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_init_model(args, doc):
    model = _pretrain_static(args, doc)
    path = _out_path(args, "static_model.json")
    model.save(path)
    print(f"wrote {path}")
    return 0


def _rig_factory(args, doc):
    """Pedal rigs sharing one static model, loaded or pre-trained by the first."""
    geom, car_cfg, static_kwargs = _components(doc)
    model = IntersensoryModel.load(args.static_model) if args.static_model else None
    static_kwargs.setdefault("seed", args.seed)

    def factory():
        nonlocal model
        rig = build_pedal_rig(seed=args.seed, static_model=model,
                              car_cfg=car_cfg, geom=geom,
                              static_kwargs=static_kwargs)
        model = rig.model
        return rig

    return factory


def cmd_collect(args, doc):
    rig = _rig_factory(args, doc)()
    cfg = _opt_cfg(doc)
    duration = doc.get("dynamics", {}).get("rollout_s", 60.0)
    S0, U, Y = collect_rollout(rig, duration, args.seed, cfg.horizon)
    path = _out_path(args, "rollout.npz")
    np.savez(path, S0=S0, U=U, Y=Y, u_lo=rig.u_limits[0], u_hi=rig.u_limits[1])
    print(f"wrote {path} ({S0.shape[0]} windows)")
    return 0


def cmd_train_dynamics(args, doc):
    data = np.load(args.data)
    model = train_dynamics((data["S0"], data["U"], data["Y"]),
                           (float(data["u_lo"]), float(data["u_hi"])),
                           train_cfg=_dyn_train_cfg(doc),
                           rms_threshold=doc.get("dynamics", {}).get("rms_threshold", 0.3),
                           seed=args.seed)
    path = _out_path(args, "dynamics_model.json")
    model.save(path)
    print(f"wrote {path} (holdout RMS {model.holdout_rms:.3f} km/h)")
    return 0


def _scenario(doc, args, controller):
    s = doc.get("scenario", {})
    return Scenario(name=s.get("name", "run"),
                    duration_s=s.get("duration_s", 20.0),
                    v_ref=s.get("v_ref", 5.0),
                    events=[tuple(e) for e in s.get("events", [])],
                    seed=args.seed, controller=controller)


def _ensure_dynamics(args, doc, rig_factory):
    if args.dynamics_model:
        return DynamicsModel.load(args.dynamics_model)
    d = doc.get("dynamics", {})
    return train_pedal_dynamics(rig_factory,
                                duration_s=d.get("rollout_s", 60.0),
                                seed=args.seed, opt_cfg=_opt_cfg(doc),
                                train_cfg=_dyn_train_cfg(doc),
                                rms_threshold=d.get("rms_threshold", 0.3))


def cmd_run(args, doc):
    controller = doc.get("scenario", {}).get("controller", "learned")
    scenario = _scenario(doc, args, controller)
    rig_factory = _rig_factory(args, doc)
    dyn = _ensure_dynamics(args, doc, rig_factory) if controller == "learned" else None
    report = run_scenario(scenario, rig_factory(), dyn,
                          opt_cfg=_opt_cfg(doc),
                          pid_gains=doc.get("pid", harness.DEFAULT_PID),
                          out_dir=args.out, cfg_doc=doc)
    report.save(_out_path(args, "report.json"))
    print(report.to_json())
    return 0


def cmd_compare(args, doc):
    scenario = _scenario(doc, args, "learned")
    rig_factory = _rig_factory(args, doc)
    dyn = _ensure_dynamics(args, doc, rig_factory)
    report = compare_controllers(scenario, rig_factory, dyn,
                                 opt_cfg=_opt_cfg(doc),
                                 pid_gains=doc.get("pid", harness.DEFAULT_PID),
                                 out_dir=args.out)
    report.save(_out_path(args, "compare.json"))
    print(report.to_json())
    if args.assert_metrics:
        learned = report.metrics["settle_time_learned_s"]
        pid = report.metrics["settle_time_pid_s"]
        if not (learned < pid):
            print("ASSERT FAILED: learned controller did not beat PID", file=sys.stderr)
            return 2
    return 0


def cmd_relax_demo(args, doc):
    log = _out_path(args, "relax_log.csv")
    metrics = run_mrc_experiment(log_path=log)
    baseline = run_mrc_experiment(use_mrc=False)
    metrics["tension_norm_no_mrc_N"] = baseline["tension_norm_after_N"]
    report = harness.RunReport("relax-demo", args.seed, harness.config_hash(doc),
                               metrics, [log])
    report.save(os.path.join(args.out, "report.json"))
    print(report.to_json())
    if args.assert_metrics:
        ok = metrics["tension_norm_after_N"] < 0.6 * metrics["tension_norm_no_mrc_N"]
        return 0 if ok else 2
    return 0


def cmd_ekf_demo(args, doc):
    model = (IntersensoryModel.load(args.static_model) if args.static_model
             else _pretrain_static(args, doc))
    metrics = run_ekf_experiment(model, seed=args.seed,
                                 **doc.get("ekf", {}))
    report = harness.RunReport("ekf-demo", args.seed, harness.config_hash(doc),
                               metrics, [])
    report.save(_out_path(args, "report.json"))
    print(report.to_json())
    if args.assert_metrics:
        return 0 if metrics["rmse_rad"] < 0.05 else 2
    return 0


COMMANDS = {
    "init-model": cmd_init_model,
    "collect": cmd_collect,
    "train-dynamics": cmd_train_dynamics,
    "run": cmd_run,
    "compare": cmd_compare,
    "relax-demo": cmd_relax_demo,
    "ekf-demo": cmd_ekf_demo,
}


def build_parser():
    p = argparse.ArgumentParser(prog="tendonctl",
                                description="tendon-driven robot control experiments")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config path")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default="results")
        sp.add_argument("--assert", dest="assert_metrics", action="store_true",
                        help="exit 2 when the run misses its target metric")
        sp.add_argument("--static-model", default=None)
        sp.add_argument("--dynamics-model", default=None)
    sub.choices["train-dynamics"].add_argument("--data", required=True)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        doc = load_config(args.config) if args.config else {"version": CONFIG_VERSION}
        return COMMANDS[args.command](args, doc)
    except (ConfigError, InitializationError, TrainingThresholdError,
            ModelVersionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
