"""Learned task dynamics and gradient-based command sequence optimization.

A network maps (initial extended state, command sequence over a horizon)
to the predicted task-state sequence.  Commands are found by repeatedly
backpropagating a tracking + smoothness loss to the command inputs and
taking normalized gradient steps, keeping the best sequence seen.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import nets
from .nets import FeatureScaler, MLPNetwork, TrainConfig


class TrainingThresholdError(RuntimeError):
    """Held-out prediction error exceeded the configured threshold."""

    def __init__(self, message, metrics=None):
        super().__init__(message)
        self.metrics = metrics or {}


@dataclass
class OptimizerConfig:
    alpha: float = 0.1       # smoothness weight
    beta: float = 0.02       # normalized-gradient step size [rad]
    iterations: int = 30
    horizon: int = 10

    def __post_init__(self):
        if self.alpha < 0 or self.beta <= 0:
            raise ValueError("alpha must be >= 0 and beta > 0")
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")


def adjacent_smoothness(u):
    """Mean squared difference between adjacent commands."""
    u = np.asarray(u, dtype=float)
    d = np.diff(u)
    return float(np.mean(d * d)) if d.size else 0.0


class DynamicsModel(nets.JSONPersisted):
    """Task-state transition net over a fixed horizon (scalar command)."""

    def __init__(self, net, state_dim, horizon, u_limits):
        self.net = net
        self.state_dim = state_dim
        self.horizon = horizon
        self.u_limits = (float(u_limits[0]), float(u_limits[1]))

    def predict(self, s0, u_seq):
        """Predicted task-state sequence, physical units."""
        x = self.net.in_scaler.to_unit(np.concatenate([s0, u_seq]))
        return self.net.out_scaler.from_unit(self.net.forward(x))

    def objective(self, s0, s_ref, alpha):
        """``f(u) -> (loss, dL/du)`` of tracking + smoothness from state s0.

        The scalers and the constant s0 columns are folded into a net of u
        alone, once per call, so a changed net is never folded stale.
        """
        net, n_s, N = self.net, self.state_dim, self.horizon
        in_s, out_s = net.in_scaler, net.out_scaler
        weights, biases = list(net.weights), list(net.biases)
        # the unit input is x * scale + to_unit(0): s0 and the offset are fixed
        fixed = in_s.to_unit(np.concatenate([s0, np.zeros(N)]))
        biases[0] = biases[0] + weights[0] @ fixed
        weights[0] = weights[0][:, n_s:] * in_s.to_unit_scale()[n_s:]
        out_scale = out_s.from_unit_scale()
        weights[-1] = out_scale[:, None] * weights[-1]
        biases[-1] = out_s.lo + (biases[-1] + 1.0) * out_scale
        folded = MLPNetwork([N, *net.layer_sizes[1:]], weights, biases)

        def f(u_seq):
            y, pullback = folded.vjp(u_seq)
            err = y - s_ref
            _, du = pullback(err * (2.0 / N), weights=False)
            loss = float(err @ err) / N
            d = np.diff(u_seq)
            if d.size:
                loss += alpha * float(d @ d) / d.size
                c = (2.0 * alpha / d.size) * d
                du[:-1] -= c
                du[1:] += c
            return loss, du

        return f

    def loss_and_grad(self, s0, u_seq, s_ref, alpha):
        """Tracking + smoothness loss at u_seq and dL/du."""
        return self.objective(s0, s_ref, alpha)(u_seq)

    def to_dict(self):
        return {"version": nets.VERSION, "state_dim": self.state_dim,
                "horizon": self.horizon, "u_limits": list(self.u_limits),
                "net": self.net.to_dict()}

    @classmethod
    def from_dict(cls, d):
        nets.check_version(d)
        return cls(MLPNetwork.from_dict(d["net"]), d["state_dim"],
                   d["horizon"], tuple(d["u_limits"]))


def random_command_profile(duration_s, dt, u_limits, seed, hold_s=0.5,
                           dwell_every=20, dwell_knots=5):
    """Band-limited exploration signal: new target every hold_s, linear ramps.

    Every ``dwell_every`` knots the signal is pinned to the low stop for
    ``dwell_knots`` knots, so each rollout contains launches from standstill
    (otherwise the random walk almost never revisits the low-speed regime).
    """
    rng = np.random.default_rng(seed)
    steps = int(round(duration_s / dt))
    hold = max(1, int(round(hold_s / dt)))
    n_knots = steps // hold + 2
    knots = rng.uniform(u_limits[0], u_limits[1], size=n_knots)
    if dwell_every:
        for k in range(0, n_knots, dwell_every):
            knots[k:k + dwell_knots] = u_limits[0]
    t_knots = np.arange(n_knots) * hold
    return np.interp(np.arange(steps), t_knots, knots)


def collect_rollout(rig, duration_s, seed, horizon, hold_s=0.5):
    """Drive the rig with a seeded random pedal signal and slice windows.

    Returns (S0, U, Y): initial extended states, command windows of length
    ``horizon``, and the observed task-state sequences that followed.
    """
    dt = rig.ctrl_dt
    if duration_s < horizon * dt:
        raise ValueError("duration too short for the horizon")
    u = random_command_profile(duration_s, dt, rig.u_limits, seed, hold_s)
    steps = u.size

    states = [rig.extended_state()]
    task = [rig.task_state()]
    for k in range(steps):
        rig.apply(u[k])
        states.append(rig.extended_state())
        task.append(rig.task_state())
    states = np.array(states)
    task = np.array(task)

    n_win = steps - horizon + 1
    S0 = states[:n_win]
    U = np.stack([u[k:k + horizon] for k in range(n_win)])
    Y = np.stack([task[k + 1:k + horizon + 1] for k in range(n_win)])
    return S0, U, Y


def train_dynamics(dataset, u_limits, train_cfg=None, hidden=(64, 64),
                   holdout_fraction=0.1, rms_threshold=0.3, seed=0):
    """Fit the horizon-transition net; verify one-step held-out accuracy."""
    S0, U, Y = dataset
    if S0.shape[0] == 0:
        raise ValueError("empty dataset")
    n, state_dim = S0.shape
    horizon = U.shape[1]
    X = np.hstack([S0, U])

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_hold = max(1, int(round(holdout_fraction * n)))
    hold, fit = order[:n_hold], order[n_hold:]

    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = np.maximum(hi - lo, 1e-6)
    in_scaler = FeatureScaler(lo - 0.05 * span, hi + 0.05 * span)
    ylo, yhi = Y.min(), Y.max()
    yspan = max(yhi - ylo, 1e-6)
    out_scaler = FeatureScaler(np.full(horizon, ylo - 0.05 * yspan),
                               np.full(horizon, yhi + 0.05 * yspan))

    net = MLPNetwork.seeded([X.shape[1], *hidden, horizon], seed=seed,
                            in_scaler=in_scaler, out_scaler=out_scaler)
    cfg = train_cfg or TrainConfig(learning_rate=0.05, batch_size=32,
                                   epochs=150, seed=seed)
    nets.train(net, in_scaler.to_unit(X[fit]), out_scaler.to_unit(Y[fit]), cfg)

    model = DynamicsModel(net, state_dim, horizon, u_limits)
    pred1 = np.array([model.predict(S0[i], U[i])[0] for i in hold])
    rms = float(np.sqrt(np.mean((pred1 - Y[hold, 0]) ** 2)))
    if rms > rms_threshold:
        raise TrainingThresholdError(
            f"held-out one-step RMS {rms:.3f} above {rms_threshold}",
            metrics={"holdout_rms": rms})
    model.holdout_rms = rms
    return model


def optimize_commands(model, s0, s_ref, u_init, cfg):
    """Iterative normalized-gradient refinement of the command sequence.

    Each iteration: predict, score (tracking MSE + alpha * smoothness),
    backprop to the commands, step by beta along -g/|g|, clamp to the
    actuator limits.  Returns the lowest-loss sequence seen.
    """
    N = cfg.horizon
    u = np.clip(np.asarray(u_init, dtype=float).copy(), *model.u_limits)
    if u.shape != (N,):
        raise ValueError("u_init length must equal the horizon")
    s0 = np.asarray(s0, dtype=float)
    ref = np.full(N, float(s_ref)) if np.isscalar(s_ref) or np.ndim(s_ref) == 0 \
        else np.asarray(s_ref, dtype=float)

    objective = model.objective(s0, ref, cfg.alpha)
    lo, hi = model.u_limits
    best_u = u.copy()
    best_loss = np.inf
    losses = np.full(cfg.iterations, np.nan)
    for it in range(cfg.iterations):
        loss, g = objective(u)
        losses[it] = loss
        if loss < best_loss:
            best_loss = loss
            best_u = u.copy()
        norm = math.sqrt(g @ g)
        if norm < 1e-12:
            losses = losses[:it + 1]
            break
        u = np.minimum(np.maximum(u - (cfg.beta / norm) * g, lo), hi)
    return best_u, best_loss, losses


def shift_warm_start(u, fill=None):
    """Receding-horizon shift: drop the executed head, repeat the tail."""
    out = np.empty_like(u)
    out[:-1] = u[1:]
    out[-1] = u[-1] if fill is None else fill
    return out


def mpc_control_step(model, s0, s_ref, warm_start, cfg):
    """One receding-horizon tick: optimize, pick head, shift for next tick."""
    if warm_start is None:
        mid = 0.5 * (model.u_limits[0] + model.u_limits[1])
        warm_start = np.full(cfg.horizon, mid)
    u_best, loss, _ = optimize_commands(model, s0, s_ref, warm_start, cfg)
    return u_best[0], shift_warm_start(u_best), loss


@dataclass
class PIDController:
    """Frozen-gain baseline controller (output = pedal angle command)."""

    kp: float
    ki: float
    kd: float
    out_lo: float
    out_hi: float
    integral: float = 0.0
    prev_err: float = None

    def step(self, err, dt):
        d = 0.0 if self.prev_err is None else (err - self.prev_err) / dt
        self.prev_err = err
        self.integral += err * dt
        out = self.kp * err + self.ki * self.integral + self.kd * d
        clipped = min(max(out, self.out_lo), self.out_hi)
        if clipped != out:       # anti-windup: stop integrating against saturation
            self.integral -= err * dt
        return clipped

    def reset(self):
        self.integral = 0.0
        self.prev_err = None
