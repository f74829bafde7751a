"""Intersensory model: muscle length as a function of pose and tension.

Learns l = h(theta, f) from the man-made geometric model, converts
task-level (theta_ref, f_ref) into muscle length commands, refines itself
online from measured sensor triples, and estimates joint angles from
muscle lengths/tensions with an EKF.
"""

from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from . import nets
from .nets import FeatureScaler, MLPNetwork, TrainConfig


class InitializationError(RuntimeError):
    """Geometric pre-training failed to reach the loss threshold."""


@dataclass
class OnlineConfig:
    buffer_capacity: int = 2000
    batch_size: int = 16
    learning_rate: float = 0.05
    new_fraction: float = 0.5   # share of the update batch taken from the newest samples
    seed: int = 0


class IntersensoryModel(nets.JSONPersisted):
    """h(theta, f) -> l with a replay buffer for online refinement."""

    def __init__(self, net, n_joints, n_muscles, online_cfg=None):
        self.net = net
        self.n_joints = n_joints
        self.n_muscles = n_muscles
        self.online_cfg = online_cfg or OnlineConfig()
        self.buffer = deque(maxlen=self.online_cfg.buffer_capacity)
        self._rng = np.random.default_rng(self.online_cfg.seed)

    def _pack(self, theta, f):
        theta = np.asarray(theta, dtype=float)
        f = np.asarray(f, dtype=float)
        if theta.shape != (self.n_joints,) or f.shape != (self.n_muscles,):
            raise ValueError("theta/f dimension mismatch")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(f))):
            raise FloatingPointError("non-finite model input")
        return np.concatenate([theta, f])

    def infer_command(self, theta_ref, f_ref):
        """Muscle length command realizing (theta_ref, f_ref).  Pure."""
        x = self.net.in_scaler.to_unit(self._pack(theta_ref, f_ref))
        return self.net.out_scaler.from_unit(self.net.forward(x))

    def length_jacobian_theta(self, theta, f):
        """d l / d theta at (theta, f), in physical units (for the EKF)."""
        x = self.net.in_scaler.to_unit(self._pack(theta, f))
        in_scale = self.net.in_scaler.to_unit_scale()[:self.n_joints]
        out_scale = self.net.out_scaler.from_unit_scale()
        _, pullback = self.net.vjp(x)
        _, dx = pullback(np.eye(self.n_muscles), weights=False)
        return out_scale[:, None] * dx[:, :self.n_joints] * in_scale

    def online_update(self, theta_meas, f_meas, l_meas):
        """One replay-mixed SGD step on a measured (theta, f, l) triple."""
        l_meas = np.asarray(l_meas, dtype=float)
        if l_meas.shape != (self.n_muscles,):
            raise ValueError("l dimension mismatch")
        x = self._pack(theta_meas, f_meas)
        self.buffer.append((x, l_meas.copy()))

        cfg = self.online_cfg
        n_new = max(1, int(round(cfg.batch_size * cfg.new_fraction)))
        n_new = min(n_new, len(self.buffer))
        newest = list(self.buffer)[-n_new:]
        n_replay = min(cfg.batch_size - n_new, len(self.buffer))
        if n_replay > 0:
            idx = self._rng.integers(0, len(self.buffer), size=n_replay)
            replay = [self.buffer[i] for i in idx]
        else:
            replay = []
        batch = newest + replay
        X = self.net.in_scaler.to_unit(np.array([b[0] for b in batch]))
        Y = self.net.out_scaler.to_unit(np.array([b[1] for b in batch]))

        pred, pullback = self.net.vjp(X)
        grads, _ = pullback(2.0 * (pred - Y) / (len(batch) * self.n_muscles))
        nets.sgd_step(self.net, grads, cfg.learning_rate)

    def prediction_error(self, theta, f, l_meas):
        return np.abs(self.infer_command(theta, f) - np.asarray(l_meas, float))

    # -- persistence -------------------------------------------------------

    def to_dict(self):
        # the replay buffer is transient and deliberately not persisted
        return {"version": nets.VERSION, "n_joints": self.n_joints,
                "n_muscles": self.n_muscles, "net": self.net.to_dict(),
                "online": asdict(self.online_cfg)}

    @classmethod
    def from_dict(cls, d):
        nets.check_version(d)
        return cls(MLPNetwork.from_dict(d["net"]), d["n_joints"], d["n_muscles"],
                   OnlineConfig(**d["online"]))


def init_from_geometry(geom, grid_points=15, f_samples=12, f_max=120.0,
                       hidden=(64, 64), train_cfg=None, loss_threshold=1e-4,
                       online_cfg=None, seed=0):
    """Pre-train the model on the man-made geometric muscle model.

    Dataset: joint-angle grid over the limits crossed with sampled tension
    vectors; targets are the geometric lengths minus the series elastic
    elongation each tension implies.
    """
    rng = np.random.default_rng(seed)
    axes = [np.linspace(lo, hi, grid_points)
            for lo, hi in zip(geom.limits_lo, geom.limits_hi)]
    thetas = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)

    X, Y = [], []
    for theta in thetas:
        l_geo = geom.muscle_lengths(theta)
        # sample uniformly in elongation (the steep region sits near f = 0)
        e_max = np.sqrt(f_max / geom.k2)
        e_rows = np.vstack([np.zeros(geom.n_muscles),
                            rng.uniform(0.0, 1.0, size=(f_samples - 1, geom.n_muscles)) * e_max])
        for e in e_rows:
            f = geom.k2 * e * e
            X.append(np.concatenate([theta, f]))
            Y.append(l_geo - e - geom.slack * (f > 0))
    X = np.array(X)
    Y = np.array(Y)

    l_lo = Y.min(axis=0)
    l_hi = Y.max(axis=0)
    pad = 0.1 * (l_hi - l_lo)
    in_scaler = FeatureScaler(
        np.concatenate([geom.limits_lo, np.zeros(geom.n_muscles)]),
        np.concatenate([geom.limits_hi, np.full(geom.n_muscles, f_max)]))
    out_scaler = FeatureScaler(l_lo - pad, l_hi + pad)

    layer_sizes = [geom.n_joints + geom.n_muscles, *hidden, geom.n_muscles]
    net = MLPNetwork.seeded(layer_sizes, seed=seed,
                            in_scaler=in_scaler, out_scaler=out_scaler)
    cfg = train_cfg or TrainConfig(learning_rate=0.3, batch_size=64,
                                   epochs=3000, seed=seed)
    Xu, Yu = in_scaler.to_unit(X), out_scaler.to_unit(Y)
    history = nets.train(net, Xu, Yu, cfg)
    # annealed continuation: minibatch noise at a fixed rate floors the loss
    lr = cfg.learning_rate
    while history[-1] > loss_threshold and lr > cfg.learning_rate / 100:
        lr /= 4.0
        cont = TrainConfig(learning_rate=lr, batch_size=cfg.batch_size,
                           epochs=max(1, cfg.epochs // 3), seed=cfg.seed + 1)
        history = np.concatenate([history, nets.train(net, Xu, Yu, cont)])
    if history[-1] > loss_threshold:
        raise InitializationError(
            f"geometric pre-training loss {history[-1]:.3e} above {loss_threshold:.1e}")
    return IntersensoryModel(net, geom.n_joints, geom.n_muscles, online_cfg)


# --------------------------------------------------------------------------
# EKF joint-angle estimation


@dataclass
class EKFEstimator:
    theta_est: np.ndarray
    P: np.ndarray
    Q: np.ndarray     # process noise [rad^2/s]
    R: np.ndarray     # observation noise [m^2]

    @classmethod
    def create(cls, theta0, q=1e-4, r=1e-6, p0=1e-2, n_muscles=None):
        theta0 = np.asarray(theta0, dtype=float)
        n = theta0.size
        m = n_muscles if n_muscles is not None else n
        return cls(theta_est=theta0.copy(), P=p0 * np.eye(n),
                   Q=q * np.eye(n), R=r * np.eye(m))


def ekf_step(est, model, l_meas, f_meas, dt):
    """Random-walk predict + length-observation update.  Returns a new estimator."""
    l_meas = np.asarray(l_meas, dtype=float)
    P = est.P + est.Q * dt
    theta = est.theta_est

    h = model.infer_command(theta, f_meas)
    H = model.length_jacobian_theta(theta, f_meas)
    S = H @ P @ H.T + est.R
    try:
        K = np.linalg.solve(S, H @ P).T
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular innovation covariance; R must be positive definite") from exc
    theta_new = theta + K @ (l_meas - h)
    P_new = (np.eye(theta.size) - K @ H) @ P
    P_new = 0.5 * (P_new + P_new.T)
    return EKFEstimator(theta_est=theta_new, P=P_new, Q=est.Q, R=est.R)
