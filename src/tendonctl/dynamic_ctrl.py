"""Learned task dynamics and command sequence optimization through the net.

A network maps (initial extended state, command sequence over a horizon)
to the predicted task-state sequence.  Commands are found by GN_STEPS
Gauss-Newton steps on a tracking + smoothness loss, each damped by a
proximal pull of weight PROX_MU toward the warm start: the Jacobian of the
predicted sequence with respect to the commands comes from one batched
pullback through the net.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import nets
from .nets import FeatureScaler, MLPNetwork, TrainConfig
from .plant import CTRL_DT, ticks

# exploration signal: a new random knot every HOLD_S, and every DWELL_EVERY
# knots DWELL_KNOTS knots pinned to the low stop
HOLD_S, DWELL_EVERY, DWELL_KNOTS = 0.5, 20, 5

HIDDEN = (64, 64)        # the dynamics net's hidden layer sizes
HOLDOUT_FRACTION = 0.1   # share of the windows held out of training

# Two steps, anchored to the warm start: a tighter fit of the learned model
# exploits its errors, and the closed loop tracks worse.
GN_STEPS = 2
PROX_MU = 3.0            # weight of the pull toward the warm start


class TrainingThresholdError(RuntimeError):
    """Held-out prediction error exceeded the configured threshold."""


@dataclass
class OptimizerConfig:
    alpha: float = 0.1       # smoothness weight
    horizon: int = 10        # of a model to train; a trained model runs on its own

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")


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

    def fold(self, s0):
        """The net as a function of the command sequence alone from state s0,
        in physical units: the scalers and the constant s0 columns folded
        into the first and last layers.  Folded per call, so a changed net
        is never folded stale."""
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
        return MLPNetwork([N, *net.layer_sizes[1:]], weights, biases)

    def objective(self, s0, s_ref, alpha):
        """``f(u) -> (loss, dL/du)`` of tracking + smoothness from state s0."""
        N, folded = self.horizon, self.fold(s0)

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
        """The model of a ``to_dict`` document.  Raises nets.ModelFormatError
        unless the net carries both scalers and maps state_dim + horizon
        inputs to horizon >= 2 outputs, and u_limits has lo < hi."""
        nets.check_version(d)
        net = MLPNetwork.from_dict(nets.field(d, "net", dict, "dynamics model"))
        n_s, N = (nets.field(d, key, int, "dynamics model") for key in ("state_dim", "horizon"))
        lo, hi = nets.finite_array(nets.field(d, "u_limits", list, "dynamics model"), (2,),
                                   "dynamics model.u_limits")
        if net.in_scaler is None or net.out_scaler is None:
            raise nets.ModelFormatError("dynamics model: its net has no input_range "
                                        "or output_range")
        sizes = net.layer_sizes
        if n_s < 0 or N < 2 or sizes[0] != n_s + N or sizes[-1] != N:
            raise nets.ModelFormatError(
                f"dynamics model: net layers {sizes} do not map state_dim "
                f"{n_s} + horizon {N} inputs to horizon >= 2 outputs")
        if not lo < hi:
            raise nets.ModelFormatError(f"dynamics model: u_limits [{lo}, {hi}] are not "
                                        "[lo, hi] with lo < hi")
        return cls(net, n_s, N, (lo, hi))


def random_command_profile(duration_s, u_limits, seed):
    """Band-limited exploration signal, one command per control tick: a new
    target every HOLD_S with linear ramps between them.

    The low-stop dwells put launches from standstill into each rollout
    (otherwise the random walk almost never revisits the low-speed regime).
    """
    rng = np.random.default_rng(seed)
    steps, hold = ticks(duration_s), ticks(HOLD_S)
    n_knots = steps // hold + 2
    knots = rng.uniform(u_limits[0], u_limits[1], size=n_knots)
    for k in range(0, n_knots, DWELL_EVERY):
        knots[k:k + DWELL_KNOTS] = u_limits[0]
    t_knots = np.arange(n_knots) * hold
    return np.interp(np.arange(steps), t_knots, knots)


def collect_rollout(rig, duration_s, seed, horizon):
    """Drive the rig with a seeded random pedal signal and slice windows.

    Returns (S0, U, Y): initial extended states, command windows of length
    ``horizon``, and the observed task-state sequences that followed.
    """
    if ticks(duration_s) < horizon:
        raise ValueError("duration too short for the horizon")
    u = random_command_profile(duration_s, rig.u_limits, seed)
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


def train_dynamics(dataset, u_limits, train_cfg=None, rms_threshold=0.3, seed=0):
    """Fit the horizon-transition net; verify one-step held-out accuracy."""
    S0, U, Y = dataset
    if S0.shape[0] == 0:
        raise ValueError("empty dataset")
    n, state_dim = S0.shape
    horizon = U.shape[1]
    X = np.hstack([S0, U])

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_hold = max(1, int(round(HOLDOUT_FRACTION * n)))
    hold, fit = order[:n_hold], order[n_hold:]

    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = np.maximum(hi - lo, 1e-6)
    in_scaler = FeatureScaler(lo - 0.05 * span, hi + 0.05 * span)
    ylo, yhi = Y.min(), Y.max()
    yspan = max(yhi - ylo, 1e-6)
    out_scaler = FeatureScaler(np.full(horizon, ylo - 0.05 * yspan),
                               np.full(horizon, yhi + 0.05 * yspan))

    net = MLPNetwork.seeded([X.shape[1], *HIDDEN, horizon], seed=seed,
                            in_scaler=in_scaler, out_scaler=out_scaler)
    cfg = train_cfg or TrainConfig(learning_rate=0.05, batch_size=32,
                                   epochs=150, seed=seed)
    nets.train(net, in_scaler.to_unit(X[fit]), out_scaler.to_unit(Y[fit]), cfg)

    model = DynamicsModel(net, state_dim, horizon, u_limits)
    # the first predicted step of every held-out window, in one batch
    pred1 = out_scaler.from_unit(net.forward(in_scaler.to_unit(X[hold])))[:, 0]
    rms = float(np.sqrt(np.mean((pred1 - Y[hold, 0]) ** 2)))
    if not rms <= rms_threshold:   # NaN too
        raise TrainingThresholdError(
            f"held-out one-step RMS {rms:.3f} above {rms_threshold}")
    model.holdout_rms = rms
    return model


@lru_cache(maxsize=16)
def _gn_matrices(N, alpha):
    """I, a D'D and a D'D + mu I of optimize_commands, read-only."""
    eye = np.eye(N)
    D = np.diff(eye, axis=0)
    smooth = (alpha / (N - 1)) * (D.T @ D)
    damped = smooth + PROX_MU * eye
    for a in (eye, smooth, damped):
        a.flags.writeable = False
    return eye, smooth, damped


def optimize_commands(model, s0, s_ref, u_init, cfg):
    """GN_STEPS proximal Gauss-Newton steps on the command sequence.

    The loss is L(u) = |y(u) - s_ref|^2 / N + alpha * |Du|^2 / (N - 1), with
    y the model's predicted sequence from s0 over its horizon N and D the
    first difference.  From u_w, the warm start clipped to the actuator
    limits, each step solves

        (J'J / N + a D'D + mu I) delta = -(J'r / N + a D'D u + mu (u - u_w))

    with J = dy/du, r = y - s_ref, a = alpha / (N - 1) and mu = PROX_MU, and
    clips u + delta to the limits.  Returns (u, L(u), the losses at u_w and
    after each step).
    """
    N = model.horizon
    u_w = np.clip(np.asarray(u_init, dtype=float), *model.u_limits)
    if u_w.shape != (N,):
        raise ValueError("u_init length must equal the horizon")
    ref = np.full(N, float(s_ref)) if np.isscalar(s_ref) or np.ndim(s_ref) == 0 \
        else np.asarray(s_ref, dtype=float)

    folded = model.fold(np.asarray(s0, dtype=float))
    lo, hi = model.u_limits
    eye, smooth, damped = _gn_matrices(N, cfg.alpha)

    def loss(r, u):
        d = u[1:] - u[:-1]
        return float(r @ r) / N + cfg.alpha * float(d @ d) / (N - 1)

    u, losses = u_w, []
    for _ in range(GN_STEPS):
        y, pullback = folded.vjp(u)
        r = y - ref
        losses.append(loss(r, u))
        J = pullback(eye, weights=False)[1]   # row i: dy_i/du
        g = J.T @ r / N + smooth @ u + PROX_MU * (u - u_w)
        u = np.minimum(np.maximum(u + np.linalg.solve(J.T @ J / N + damped, -g), lo), hi)
    losses.append(loss(folded.forward(u) - ref, u))
    return u, losses[-1], np.array(losses)


def shift_warm_start(u):
    """Receding-horizon shift: drop the executed head, repeat the tail."""
    out = np.empty_like(u)
    out[:-1] = u[1:]
    out[-1] = u[-1]
    return out


def mpc_control_step(model, s0, s_ref, warm_start, cfg):
    """One receding-horizon tick: optimize, pick head, shift for next tick."""
    if warm_start is None:
        mid = 0.5 * (model.u_limits[0] + model.u_limits[1])
        warm_start = np.full(model.horizon, mid)
    u, loss, _ = optimize_commands(model, s0, s_ref, warm_start, cfg)
    return u[0], shift_warm_start(u), loss


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

    def step(self, err):
        """The command for one control tick of tracking error ``err``."""
        d = 0.0 if self.prev_err is None else (err - self.prev_err) / CTRL_DT
        self.prev_err = err
        self.integral += err * CTRL_DT
        out = self.kp * err + self.ki * self.integral + self.kd * d
        clipped = min(max(out, self.out_lo), self.out_hi)
        if clipped != out:       # anti-windup: stop integrating against saturation
            self.integral -= err * CTRL_DT
        return clipped

    def reset(self):
        self.integral = 0.0
        self.prev_err = None
