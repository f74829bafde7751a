"""Experiment harness: wires plant, models, and reflexes into scenarios.

Recognition events (person, horn, traffic light) are scripted stand-ins
that latch the brake; everything else runs the real control stack.  All
runs are deterministic per (config, seed).
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dynamic_ctrl import (OptimizerConfig, PIDController, collect_rollout,
                           mpc_control_step, train_dynamics)
from .plant import (CarConfig, CarState, Plant, car_step,
                    default_ankle_geometry, default_ankle_plant_config,
                    default_arm_geometry, default_arm_plant_config,
                    elastic_elongation)
from .reflex import (RelaxationConfig, RelaxationState, SafetyReflex,
                     TensionQP, mrc_step, safety_reflex_step, solve_tension_qp)
from .static_ctrl import EKFEstimator, ekf_step, init_from_geometry

CTRL_DT = 0.02
PLANT_DT = 0.005

BRAKE_EVENTS = {"person_detected", "horn_detected", "light_red"}
RESUME_EVENTS = {"light_blue"}
EVENT_NAMES = BRAKE_EVENTS | RESUME_EVENTS


@dataclass
class Scenario:
    name: str
    duration_s: float
    v_ref: float = 5.0
    events: list = field(default_factory=list)   # [(time_s, event_name)]
    seed: int = 0
    controller: str = "learned"                  # "learned" or "pid"

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        for t, name in self.events:
            if name not in EVENT_NAMES:
                raise ValueError(f"unknown event {name!r}")
        self.events = sorted(self.events, key=lambda e: e[0])


@dataclass
class RunReport:
    name: str
    seed: int
    config_hash: str
    metrics: dict
    files: list

    def to_json(self):
        clean = {k: ("never" if isinstance(v, float) and math.isinf(v) else v)
                 for k, v in self.metrics.items()}
        return json.dumps({"name": self.name, "seed": self.seed,
                           "config_hash": self.config_hash,
                           "metrics": clean, "files": self.files}, indent=2)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())


def config_hash(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def settle_time(times, values, ref, frac=0.2):
    """First time after which |v - ref| stays within frac*|ref|.  inf if never."""
    values = np.asarray(values, dtype=float)
    band = frac * abs(ref)
    ok = np.abs(values - ref) <= band
    if not ok[-1]:
        return math.inf
    # last index where tracking was out of band
    bad = np.where(~ok)[0]
    idx = 0 if bad.size == 0 else bad[-1] + 1
    return float(times[idx])


# --------------------------------------------------------------------------
# pedal driving rig: ankle chain + car + intersensory command path


class PedalRig:
    """Closed loop from pedal-angle commands to car velocity.

    Commands pass through the intersensory model to muscle lengths, the
    muscle plant moves the ankle, and the ankle angle drives the car's
    accelerator (with the car's own transport delay).
    """

    def __init__(self, geom, plant_cfg, car_cfg, static_model,
                 f_bias=20.0, u_limits=(0.0, 0.6),
                 ctrl_dt=CTRL_DT, plant_dt=PLANT_DT):
        self.plant = Plant(geom, plant_cfg)
        self.car_cfg = car_cfg
        self.model = static_model
        self.f_bias = np.full(geom.n_muscles, float(f_bias))
        self.u_limits = u_limits
        self.ctrl_dt = ctrl_dt
        self.plant_dt = plant_dt
        self.substeps = int(round(ctrl_dt / plant_dt))
        self.state = self.plant.initial_state()
        self.car = CarState.at_creep(car_cfg, plant_dt)
        self._l_prev = self.state.l.copy()

    def task_state(self):
        return self.car.v_car

    def extended_state(self):
        l_dot = (self.state.l - self._l_prev) / self.ctrl_dt
        return np.concatenate(([self.car.v_car], self.state.theta,
                               self.state.theta_dot, self.state.l, l_dot))

    def apply(self, u, brake=0.0):
        """One control tick: pedal-angle command u, optional brake pedal."""
        u = min(max(float(u), self.u_limits[0]), self.u_limits[1])
        l_ref = self.model.infer_command(np.array([u]), self.f_bias)
        self._l_prev = self.state.l.copy()
        for _ in range(self.substeps):
            self.state = self.plant.step(self.state, l_ref, self.plant_dt)
            self.car = car_step(self.car, self.car_cfg,
                                pedal=float(self.state.theta[0]),
                                brake=brake, steer_joint=0.0, dt=self.plant_dt)
        return self.state, self.car


def build_pedal_rig(seed=0, static_model=None, car_cfg=None, geom=None,
                    static_kwargs=None):
    geom = geom or default_ankle_geometry()
    plant_cfg = default_ankle_plant_config(geom)
    car_cfg = car_cfg or CarConfig()
    if static_model is None:
        kw = dict(grid_points=15, f_samples=12, f_max=120.0, seed=seed)
        kw.update(static_kwargs or {})
        static_model = init_from_geometry(geom, **kw)
    return PedalRig(geom, plant_cfg, car_cfg, static_model)


def train_pedal_dynamics(rig_factory, duration_s=60.0, seed=0,
                         opt_cfg=None, train_cfg=None, rms_threshold=0.3):
    """Collect a random-pedal rollout on a fresh rig and fit the dynamics net."""
    cfg = opt_cfg or OptimizerConfig()
    rig = rig_factory()
    dataset = collect_rollout(rig, duration_s, seed, cfg.horizon)
    return train_dynamics(dataset, rig.u_limits, train_cfg=train_cfg,
                          rms_threshold=rms_threshold, seed=seed)


# --------------------------------------------------------------------------
# scenario execution


DEFAULT_PID = {"kp": 0.010, "ki": 0.020, "kd": 0.0}


def _make_pid(gains, u_limits):
    return PIDController(kp=gains["kp"], ki=gains["ki"], kd=gains["kd"],
                         out_lo=u_limits[0], out_hi=u_limits[1])


def run_scenario(scenario, rig, dynamics_model=None, opt_cfg=None,
                 pid_gains=None, out_dir=None, cfg_doc=None):
    """Fixed-step scenario loop: events latch the brake, the controller
    drives the pedal otherwise.  Returns a RunReport (plus the trace)."""
    opt_cfg = opt_cfg or OptimizerConfig()
    if scenario.controller == "learned" and dynamics_model is None:
        raise ValueError("learned controller requires a dynamics model")
    pid = _make_pid(pid_gains or DEFAULT_PID, rig.u_limits)

    n_ticks = int(round(scenario.duration_s / rig.ctrl_dt))
    events = list(scenario.events)
    brake_on = False
    warm = None
    rows = []
    t_vals, v_vals, brake_flags = [], [], []
    for k in range(n_ticks):
        t = k * rig.ctrl_dt
        while events and events[0][0] <= t + 1e-9:
            _, name = events.pop(0)
            if name in BRAKE_EVENTS:
                brake_on = True
            elif name in RESUME_EVENTS:
                brake_on = False
                warm = None
                pid.reset()
        loss = 0.0
        if brake_on:
            u_cmd, brake_cmd = rig.u_limits[0], 0.4
        else:
            brake_cmd = 0.0
            if scenario.controller == "learned":
                u_cmd, warm, loss = mpc_control_step(
                    dynamics_model, rig.extended_state(), scenario.v_ref,
                    warm, opt_cfg)
            else:
                u_cmd = pid.step(scenario.v_ref - rig.task_state(), rig.ctrl_dt)
        rig.apply(u_cmd, brake=brake_cmd)
        t_vals.append(t + rig.ctrl_dt)
        v_vals.append(rig.task_state())
        brake_flags.append(brake_on)
        rows.append((t + rig.ctrl_dt, rig.task_state(), scenario.v_ref,
                     u_cmd, float(rig.state.theta[0]), loss))

    t_arr = np.array(t_vals)
    v_arr = np.array(v_vals)
    metrics = {
        "settle_time_s": settle_time(t_arr, v_arr, scenario.v_ref),
        "final_v_kmh": float(v_arr[-1]),
        "max_v_kmh": float(v_arr.max()),
        "peak_tension_N": float(rig.state.f.max()),
    }
    files = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, f"{scenario.name}_{scenario.controller}.csv")
        with open(csv_path, "w") as fh:
            fh.write("t,v_car,v_ref,theta_ankle_cmd,theta_ankle_actual,loss\n")
            for row in rows:
                fh.write(",".join(format(x, ".9g") for x in row) + "\n")
        files.append(csv_path)
    report = RunReport(name=scenario.name, seed=scenario.seed,
                       config_hash=config_hash(cfg_doc or asdict_scenario(scenario)),
                       metrics=metrics, files=files)
    report.trace = (t_arr, v_arr, np.array(brake_flags))
    return report


def asdict_scenario(s):
    return {"name": s.name, "duration_s": s.duration_s, "v_ref": s.v_ref,
            "events": [[t, n] for t, n in s.events], "seed": s.seed,
            "controller": s.controller}


def compare_controllers(scenario, rig_factory, dynamics_model,
                        opt_cfg=None, pid_gains=None, out_dir=None):
    """Run learned and PID controllers on identical plants; report both."""
    metrics = {}
    files = []
    for ctrl in ("pid", "learned"):
        s = Scenario(scenario.name, scenario.duration_s, scenario.v_ref,
                     list(scenario.events), scenario.seed, controller=ctrl)
        rep = run_scenario(s, rig_factory(), dynamics_model,
                           opt_cfg=opt_cfg, pid_gains=pid_gains, out_dir=out_dir)
        metrics[f"settle_time_{ctrl}_s"] = rep.metrics["settle_time_s"]
        files.extend(rep.files)
    return RunReport(name=scenario.name, seed=scenario.seed,
                     config_hash=config_hash(asdict_scenario(scenario)),
                     metrics=metrics, files=files)


# --------------------------------------------------------------------------
# arm rig experiments: relaxation, safety, online learning, EKF


def _geometric_commands(geom, theta_ref, f_ref):
    """Ideal inverse command: geometric length minus elastic elongation."""
    elong = np.array([elastic_elongation(p, fi)
                      for p, fi in zip(geom.elastic_params(), f_ref)])
    return geom.muscle_lengths(theta_ref) - elong


def run_mrc_experiment(duration_s=5.0, theta_hold=(0.3, -0.4), f_bias=40.0,
                       constrained=False, mrc_cfg=None, settle_s=2.0,
                       use_mrc=True, log_path=None):
    """Hold an arm pose with heavy co-contraction, then let MRC unwind it.

    Returns metrics: tension L2 norm before/after, max joint drift.
    """
    geom = default_arm_geometry()
    p = Plant(geom, default_arm_plant_config(geom))
    theta_hold = np.array(theta_hold, dtype=float)
    f_ref = np.full(geom.n_muscles, float(f_bias))
    l_base = _geometric_commands(geom, theta_hold, f_ref)
    state = p.initial_state(theta_hold)
    substeps = int(round(CTRL_DT / PLANT_DT))

    # settle into the co-contracted hold
    for _ in range(int(settle_s / CTRL_DT)):
        for _ in range(substeps):
            state = p.step(state, l_base, PLANT_DT)
    norm_before = float(np.linalg.norm(state.f))

    if constrained:
        p.constrained[:] = True
    cfg = mrc_cfg or RelaxationConfig()
    mrc = RelaxationState.create(geom.n_muscles)
    mrc.mode = "static" if use_mrc else "moving"
    log_rows = []
    for k in range(int(duration_s / CTRL_DT)):
        if use_mrc:
            G = geom.jacobian(state.theta)
            qp = TensionQP(W1=np.full(geom.n_muscles, 1e-6),
                           W2=np.ones(geom.n_joints), G=G,
                           tau_nec=p.holding_torque(state.theta),
                           f_min=np.full(geom.n_muscles, cfg.f_min))
            x = solve_tension_qp(qp)
            mrc, offsets = mrc_step(mrc, cfg, state.f, state.theta, x,
                                    constrained=p.constrained)
        else:
            offsets = np.zeros(geom.n_muscles)
        for _ in range(substeps):
            state = p.step(state, l_base + offsets, PLANT_DT)
        if log_path:
            for m in range(geom.n_muscles):
                log_rows.append((state.t, m, offsets[m], 0.0,
                                 state.f[m], state.c[m]))
    if log_path:
        with open(log_path, "w") as fh:
            fh.write("t,muscle,dl_relax,dl_safe,f,c\n")
            for row in log_rows:
                fh.write(",".join(format(x, ".9g") for x in row) + "\n")

    return {"tension_norm_before_N": norm_before,
            "tension_norm_after_N": float(np.linalg.norm(state.f)),
            "max_drift_rad": float(np.max(np.abs(state.theta - theta_hold))),
            "constrained": constrained}


def run_safety_experiment(duration_s=3.0, overload_factor=2.0, use_reflex=True,
                          reflex_cfg=None):
    """Command a shortening that drives tension to overload_factor * f_lim."""
    geom = default_ankle_geometry()
    p = Plant(geom, default_ankle_plant_config(geom))
    p.constrained[:] = True  # isolate the tension response
    state = p.initial_state()
    sr = reflex_cfg or SafetyReflex.create(geom.n_muscles)
    stretch = np.sqrt(overload_factor * sr.f_lim / geom.muscles[0].k2)
    l_cmd = state.l - stretch

    substeps = int(round(CTRL_DT / PLANT_DT))
    peak = 0.0
    max_step = 0.0
    prev_dl = sr.dl_safe.copy()
    for _ in range(int(duration_s / CTRL_DT)):
        if use_reflex:
            sr, dl = safety_reflex_step(sr, state.f, state.c)
            max_step = max(max_step, float(np.max(np.abs(dl - prev_dl))))
            prev_dl = dl
        else:
            dl = np.zeros(geom.n_muscles)
        for _ in range(substeps):
            state = p.step(state, l_cmd + dl, PLANT_DT)
        peak = max(peak, float(state.f.max()))
    return {"peak_tension_N": peak, "max_dl_step_m": max_step,
            "final_dl_safe_m": float(sr.dl_safe.max()) if use_reflex else 0.0}


def run_online_learning_experiment(model, offset_m=0.005, n_updates=500,
                                   f_bias=20.0, probe_amp=0.3, probe_period=4.0):
    """Inject a systematic length offset into the plant and learn it away.

    The intersensory model (trained on nominal geometry) commands a probe
    sinusoid; prediction error and peak tension are measured before and
    after n_updates online refinement steps.
    """
    geom_true = default_ankle_geometry(length_offsets=(offset_m, 0.0))
    plant_cfg = default_ankle_plant_config(geom_true)
    f_ref = np.full(geom_true.n_muscles, float(f_bias))

    def probe(update):
        p = Plant(geom_true, plant_cfg)
        state = p.initial_state()
        substeps = int(round(CTRL_DT / PLANT_DT))
        n_ticks = int(round(n_updates)) if update else int(probe_period / CTRL_DT) * 2
        errs, peak = [], 0.0
        for k in range(n_ticks):
            t = k * CTRL_DT
            theta_ref = np.array([probe_amp * np.sin(2 * np.pi * t / probe_period)])
            l_ref = model.infer_command(theta_ref, f_ref)
            for _ in range(substeps):
                state = p.step(state, l_ref, PLANT_DT)
            errs.append(model.prediction_error(state.theta, state.f, state.l))
            peak = max(peak, float(state.f.max()))
            if update:
                model.online_update(state.theta, state.f, state.l)
        return float(np.mean(errs)), peak

    err_before, peak_before = probe(update=False)
    probe(update=True)
    err_after, peak_after = probe(update=False)
    return {"pred_error_before_m": err_before, "pred_error_after_m": err_after,
            "peak_tension_before_N": peak_before, "peak_tension_after_N": peak_after}


def run_ekf_experiment(model, duration_s=10.0, noise_m=5e-4, amp=0.4,
                       mean=0.3, period=4.0, f_bias=20.0, q=1e-2, r=1e-6,
                       burn_in_s=1.0, seed=0):
    """Track a sinusoidal joint trajectory from noisy muscle lengths."""
    geom = default_ankle_geometry()
    f_ref = np.full(geom.n_muscles, float(f_bias))
    elong = np.array([elastic_elongation(p, fi)
                      for p, fi in zip(geom.elastic_params(), f_ref)])
    rng = np.random.default_rng(seed)
    est = EKFEstimator.create(np.full(geom.n_joints, float(mean)), q=q, r=r,
                              n_muscles=geom.n_muscles)
    errors, times = [], []
    n_ticks = int(round(duration_s / CTRL_DT))
    for k in range(n_ticks):
        t = k * CTRL_DT
        theta_true = np.array([mean + amp * np.sin(2 * np.pi * t / period)])
        l_meas = (geom.muscle_lengths(theta_true) - elong
                  + rng.normal(0.0, noise_m, size=geom.n_muscles))
        est = ekf_step(est, model, l_meas, f_ref, CTRL_DT)
        times.append(t)
        errors.append(est.theta_est - theta_true)
    times = np.array(times)
    errors = np.array(errors)
    mask = times >= burn_in_s
    rmse = float(np.sqrt(np.mean(errors[mask] ** 2)))
    return {"rmse_rad": rmse, "final_P_trace": float(np.trace(est.P))}
