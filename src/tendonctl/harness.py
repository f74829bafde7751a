"""Experiment harness: wires plant, models, and reflexes into scenarios.

Recognition events (person, horn, traffic light) are scripted stand-ins
that latch the brake; everything else runs the real control stack.  All
runs are deterministic per (config, seed).
"""

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dynamic_ctrl import (OptimizerConfig, PIDController, collect_rollout,
                           mpc_control_step, train_dynamics)
from .plant import (ANKLE_PLANT_CONFIG, ARM_PLANT_CONFIG, CTRL_DT, CarConfig, CarState,
                    Plant, car_step, default_ankle_geometry, default_arm_geometry,
                    elastic_elongation, ticks)
from .reflex import (RELAX_F_MIN, RelaxationState, SafetyReflex, TensionQP,
                     mrc_step, safety_reflex_step, solve_tension_qp)
# not called here: perfbench/tracing.py wraps harness.init_from_geometry
from .static_ctrl import EKFEstimator, ekf_step, init_from_geometry  # noqa: F401

# pedal MPC horizon in control ticks: 0.5 s out-spans the car's 0.3 s pedal delay
PEDAL_HORIZON = 25

F_BIAS = 20.0   # co-contraction tension of the ankle's length commands [N]

BRAKE_EVENTS = {"person_detected", "horn_detected", "light_red"}
RESUME_EVENTS = {"light_blue"}
EVENT_NAMES = BRAKE_EVENTS | RESUME_EVENTS


@dataclass
class Scenario:
    name: str = "run"
    duration_s: float = 20.0
    v_ref: float = 5.0
    events: list = field(default_factory=list)   # [(time_s, event_name)]
    seed: int = 0
    controller: str = "learned"                  # "learned" or "pid"

    def __post_init__(self):
        if ticks(self.duration_s) < 1:
            raise ValueError(f"duration must span at least one {CTRL_DT} s control tick")
        if self.controller not in ("learned", "pid"):
            raise ValueError(f"unknown controller {self.controller!r}")
        events = [(float(t), name) for t, name in self.events]
        for t, name in events:
            if name not in EVENT_NAMES:
                raise ValueError(f"unknown event {name!r}")
            if not 0.0 <= t < self.duration_s:   # else it would never fire, or fire at 0
                raise ValueError(f"event {name!r} at {t} s is outside the "
                                 f"{self.duration_s} s scenario")
        self.events = sorted(events, key=lambda e: e[0])


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


SETTLE_BAND = 0.2   # settled: within this share of |ref|


def settle_time(times, values, ref):
    """First time after which |v - ref| stays within SETTLE_BAND * |ref|.
    inf if never."""
    values = np.asarray(values, dtype=float)
    band = SETTLE_BAND * abs(ref)
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

    u_limits = (0.0, 0.6)   # pedal-angle command range [rad]

    def __init__(self, geom, plant_cfg, car_cfg, static_model):
        self.plant = Plant(geom, plant_cfg)
        self.car_cfg = car_cfg
        self.model = static_model
        self.f_bias = np.full(geom.n_muscles, F_BIAS)
        self.state = self.plant.initial_state()
        self.car = CarState.at_creep(car_cfg)
        self._l_prev = self.state.l

    def task_state(self):
        return self.car.v_car

    def extended_state(self):
        l_dot = (self.state.l - self._l_prev) / CTRL_DT
        return np.concatenate(([self.car.v_car], self.state.theta,
                               self.state.theta_dot, self.state.l, l_dot))

    def apply(self, u, brake=0.0):
        """One control tick: pedal-angle command u, optional brake pedal."""
        u = min(max(float(u), self.u_limits[0]), self.u_limits[1])
        l_ref = self.model.infer_command(np.array([u]), self.f_bias)
        self._l_prev = self.state.l
        self.state, thetas = self.plant.step(self.state, l_ref)
        self.car = car_step(self.car, self.car_cfg, thetas[:, 0], brake)
        return self.state, self.car


def build_pedal_rig(static_model, car_cfg=None, geom=None):
    """A pedal rig on ``geom`` (the default ankle) driven through ``static_model``."""
    geom = geom or default_ankle_geometry()
    return PedalRig(geom, ANKLE_PLANT_CONFIG, car_cfg or CarConfig(), static_model)


def train_pedal_dynamics(rig_factory, horizon=PEDAL_HORIZON, duration_s=60.0,
                         seed=0, **train_kw):
    """Collect a random-pedal rollout on a fresh rig and fit the dynamics
    net; ``train_kw`` go to train_dynamics."""
    rig = rig_factory()
    dataset = collect_rollout(rig, duration_s, seed, horizon)
    return train_dynamics(dataset, rig.u_limits, seed=seed, **train_kw)


# --------------------------------------------------------------------------
# scenario execution


DEFAULT_PID = {"kp": 0.010, "ki": 0.020, "kd": 0.0}


def write_csv(path, header, rows):
    """``header``, then one line per row of numbers, each as %.9g."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(x, ".9g") for x in row) + "\n")


def run_scenario(scenario, rig, dynamics_model=None, opt_cfg=None,
                 pid_gains=None, out_dir=None, cfg_doc=None):
    """Fixed-step scenario loop: events latch the brake, the controller
    drives the pedal otherwise.  Returns a RunReport (plus the trace)."""
    opt_cfg = opt_cfg or OptimizerConfig()
    if scenario.controller == "learned" and dynamics_model is None:
        raise ValueError("learned controller requires a dynamics model")
    pid = PIDController(**(pid_gains or DEFAULT_PID), out_lo=rig.u_limits[0],
                        out_hi=rig.u_limits[1])

    events = list(scenario.events)
    brake_on = False
    warm = None
    rows = []   # per tick: the six CSV columns, the brake flag, the peak tension
    for k in range(ticks(scenario.duration_s)):
        t = k * CTRL_DT
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
                u_cmd = pid.step(scenario.v_ref - rig.task_state())
        rig.apply(u_cmd, brake=brake_cmd)
        rows.append((t + CTRL_DT, rig.task_state(), scenario.v_ref, u_cmd,
                     rig.state.theta[0], loss, brake_on, rig.state.f.max()))

    table = np.array(rows)
    t_arr, v_arr = table[:, 0], table[:, 1]
    metrics = {
        "settle_time_s": settle_time(t_arr, v_arr, scenario.v_ref),
        "final_v_kmh": float(v_arr[-1]),
        "max_v_kmh": float(v_arr.max()),
        "peak_tension_N": float(table[:, 7].max()),   # over tick ends
    }
    files = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, f"{scenario.name}_{scenario.controller}.csv")
        write_csv(csv_path, "t,v_car,v_ref,theta_ankle_cmd,theta_ankle_actual,loss",
                  table[:, :6])
        files.append(csv_path)
    report = RunReport(name=scenario.name, seed=scenario.seed,
                       config_hash=config_hash(cfg_doc or asdict(scenario)),
                       metrics=metrics, files=files)
    report.trace = (t_arr, v_arr, table[:, 6] > 0)
    return report


def compare_controllers(scenario, rig_factory, dynamics_model, cfg_doc,
                        opt_cfg=None, pid_gains=None, out_dir=None):
    """Run learned and PID controllers on identical plants; report both,
    under the hash of the whole config document ``cfg_doc``."""
    metrics, files = {}, []
    for ctrl in ("pid", "learned"):
        rep = run_scenario(replace(scenario, controller=ctrl), rig_factory(), dynamics_model,
                           opt_cfg=opt_cfg, pid_gains=pid_gains, out_dir=out_dir)
        metrics[f"settle_time_{ctrl}_s"] = rep.metrics["settle_time_s"]
        files.extend(rep.files)
    return RunReport(name=scenario.name, seed=scenario.seed,
                     config_hash=config_hash(cfg_doc),
                     metrics=metrics, files=files)


# --------------------------------------------------------------------------
# arm rig experiments: relaxation, safety, online learning, EKF


def _geometric_commands(geom, theta_ref, f_ref):
    """Ideal inverse command: geometric length minus elastic elongation."""
    return geom.muscle_lengths(theta_ref) - elastic_elongation(geom, f_ref)


MRC_SETTLE_S = 2.0   # co-contracted hold before relaxation starts [s]


def run_mrc_experiment(duration_s=5.0, theta_hold=(0.3, -0.4), f_bias=40.0,
                       constrained=False, use_mrc=True, log_path=None):
    """Hold an arm pose with heavy co-contraction, then let MRC unwind it.

    Returns metrics: tension L2 norm before/after, max joint drift.
    """
    geom = default_arm_geometry()
    p = Plant(geom, ARM_PLANT_CONFIG)
    theta_hold = np.array(theta_hold, dtype=float)
    f_ref = np.full(geom.n_muscles, float(f_bias))
    l_base = _geometric_commands(geom, theta_hold, f_ref)
    state = p.initial_state(theta_hold)

    # settle into the co-contracted hold
    for _ in range(ticks(MRC_SETTLE_S)):
        state = p.step(state, l_base)[0]
    norm_before = float(np.linalg.norm(state.f))

    if constrained:
        p.constrained[:] = True
    mrc = RelaxationState.create(geom.n_muscles)
    log_rows = []
    for _ in range(ticks(duration_s)):
        if use_mrc:
            G = geom.jacobian(state.theta)
            qp = TensionQP(W1=np.full(geom.n_muscles, 1e-6),
                           W2=np.ones(geom.n_joints), G=G,
                           tau_nec=p.holding_torque(state.theta),
                           f_min=np.full(geom.n_muscles, RELAX_F_MIN))
            x = solve_tension_qp(qp)
            mrc, offsets = mrc_step(mrc, state.f, state.theta, x,
                                    constrained=p.constrained)
        else:
            offsets = np.zeros(geom.n_muscles)
        state = p.step(state, l_base + offsets)[0]
        if log_path:
            log_rows += [(state.t, m, offsets[m], state.f[m], state.c[m])
                         for m in range(geom.n_muscles)]
    if log_path:
        write_csv(log_path, "t,muscle,dl_relax,f,c", log_rows)

    return {"tension_norm_before_N": norm_before,
            "tension_norm_after_N": float(np.linalg.norm(state.f)),
            "max_drift_rad": float(np.max(np.abs(state.theta - theta_hold))),
            "constrained": constrained}


def run_safety_experiment(duration_s=3.0, overload_factor=2.0, use_reflex=True):
    """Command a shortening that drives tension to overload_factor * f_lim."""
    geom = default_ankle_geometry()
    p = Plant(geom, ANKLE_PLANT_CONFIG)
    p.constrained[:] = True  # isolate the tension response
    state = p.initial_state()
    sr = SafetyReflex.create(geom.n_muscles)
    l_cmd = state.l - elastic_elongation(geom, overload_factor * sr.f_lim)

    peak = max_step = 0.0
    prev_dl = sr.dl_safe.copy()
    for _ in range(ticks(duration_s)):
        if use_reflex:
            sr, dl = safety_reflex_step(sr, state.f, state.c)
            max_step = max(max_step, float(np.max(np.abs(dl - prev_dl))))
            prev_dl = dl
        else:
            dl = np.zeros(geom.n_muscles)
        state = p.step(state, l_cmd + dl)[0]
        peak = max(peak, float(state.f.max()))
    return {"peak_tension_N": peak, "max_dl_step_m": max_step,
            "final_dl_safe_m": float(sr.dl_safe.max()) if use_reflex else 0.0}


PROBE_AMP, PROBE_PERIOD = 0.3, 4.0   # online-learning probe sinusoid [rad], [s]


def run_online_learning_experiment(model, offset_m=0.005, n_updates=500):
    """Inject a systematic length offset into the plant and learn it away.

    The intersensory model (trained on nominal geometry) commands a probe
    sinusoid; prediction error and peak tension are measured before and
    after n_updates online refinement steps.
    """
    geom_true = default_ankle_geometry(length_offsets=(offset_m, 0.0))
    f_ref = np.full(geom_true.n_muscles, F_BIAS)

    def probe(update):
        p = Plant(geom_true, ANKLE_PLANT_CONFIG)
        state = p.initial_state()
        errs, peak = [], 0.0
        for k in range(n_updates if update else 2 * ticks(PROBE_PERIOD)):
            t = k * CTRL_DT
            theta_ref = np.array([PROBE_AMP * np.sin(2 * np.pi * t / PROBE_PERIOD)])
            l_ref = model.infer_command(theta_ref, f_ref)
            state = p.step(state, l_ref)[0]
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


# the EKF experiment's ankle sinusoid: mean and amplitude [rad], period [s]
EKF_MEAN, EKF_AMP, EKF_PERIOD = 0.3, 0.4, 4.0


def run_ekf_experiment(model, duration_s=10.0, noise_m=5e-4, burn_in_s=1.0, seed=0):
    """Track a sinusoidal joint trajectory from noisy muscle lengths."""
    geom = default_ankle_geometry()
    f_ref = np.full(geom.n_muscles, F_BIAS)
    elongation = elastic_elongation(geom, f_ref)   # f_ref is constant: once, not per tick
    rng = np.random.default_rng(seed)
    est = EKFEstimator.create(np.full(geom.n_joints, EKF_MEAN), geom.n_muscles)
    times = np.arange(ticks(duration_s)) * CTRL_DT
    errors = []
    for t in times:
        theta_true = np.array([EKF_MEAN + EKF_AMP * np.sin(2 * np.pi * t / EKF_PERIOD)])
        l_meas = (geom.muscle_lengths(theta_true) - elongation
                  + rng.normal(0.0, noise_m, size=geom.n_muscles))
        est = ekf_step(est, model, l_meas, f_ref)
        errors.append(est.theta_est - theta_true)
    rmse = float(np.sqrt(np.mean(np.array(errors)[times >= burn_in_s] ** 2)))
    return {"rmse_rad": rmse, "final_P_trace": float(np.trace(est.P))}
