"""Intersensory model: muscle length as a function of pose and tension.

Learns l = h(theta, f) from the man-made geometric model, converts
task-level (theta_ref, f_ref) into muscle length commands, refines itself
online from measured sensor triples, and estimates joint angles from
muscle lengths/tensions with an EKF.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import nets
from .nets import FeatureScaler, MLPNetwork, TrainConfig
from .plant import CTRL_DT


class InitializationError(RuntimeError):
    """Geometric pre-training failed to reach the loss threshold."""


HIDDEN = (64, 64)   # h's hidden layer sizes
F_MAX = 120.0       # top of the pre-training tensions and of h's tension input [N]

# online refinement: replay buffer size; SGD batch size, and how many of its
# samples are the newest (the rest are replayed at random); learning rate
ONLINE_CAPACITY, ONLINE_BATCH, ONLINE_NEWEST, ONLINE_LR = 2000, 16, 8, 0.05


class IntersensoryModel(nets.JSONPersisted):
    """h(theta, f) -> l with a replay buffer for online refinement.

    The buffer is a ring of the last ONLINE_CAPACITY triples, held as two
    arrays of rows already mapped to the net's unit ranges: each triple is
    scaled once, when it is inserted, and a batch is one gather."""

    def __init__(self, net, n_joints, n_muscles):
        self.net = net
        self.n_joints = n_joints
        self.n_muscles = n_muscles
        self._ring_x = np.empty((ONLINE_CAPACITY, n_joints + n_muscles))
        self._ring_l = np.empty((ONLINE_CAPACITY, n_muscles))
        self._inserted = 0   # triples inserted so far; the ring holds the last ones
        self._rng = np.random.default_rng(0)

    def _pack(self, theta, f):
        theta = np.asarray(theta, dtype=float)
        f = np.asarray(f, dtype=float)
        if theta.shape != (self.n_joints,) or f.shape != (self.n_muscles,):
            raise ValueError("theta/f dimension mismatch")
        x = np.concatenate([theta, f])
        if not np.isfinite(x).all():
            raise FloatingPointError("non-finite model input")
        return x

    def infer_command(self, theta_ref, f_ref):
        """Muscle length command realizing (theta_ref, f_ref).  Pure."""
        x = self.net.in_scaler.to_unit(self._pack(theta_ref, f_ref))
        return self.net.out_scaler.from_unit(self.net.forward(x))

    def length_jacobian_theta(self, theta, f):
        """(l, d l / d theta) at (theta, f), in physical units, from one
        forward pass: l is infer_command's; the pair is the EKF's h and H."""
        x = self.net.in_scaler.to_unit(self._pack(theta, f))
        in_scale = self.net.in_scaler.to_unit_scale()[:self.n_joints]
        out_scale = self.net.out_scaler.from_unit_scale()
        y, pullback = self.net.vjp(x)
        _, dx = pullback(_identity(self.n_muscles), weights=False)
        return (self.net.out_scaler.from_unit(y),
                out_scale[:, None] * dx[:, :self.n_joints] * in_scale)

    def online_update(self, theta_meas, f_meas, l_meas):
        """One replay-mixed SGD step on a measured (theta, f, l) triple."""
        l_meas = np.asarray(l_meas, dtype=float)
        if l_meas.shape != (self.n_muscles,):
            raise ValueError("l dimension mismatch")
        x = self._pack(theta_meas, f_meas)
        row = self._inserted % ONLINE_CAPACITY
        self._ring_x[row] = self.net.in_scaler.to_unit(x)
        self._ring_l[row] = self.net.out_scaler.to_unit(l_meas)
        self._inserted += 1

        # the newest, then replays drawn over the held triples, oldest = 0
        end = self._inserted
        size = min(end, ONLINE_CAPACITY)
        n_new = min(ONLINE_NEWEST, size)
        replay = self._rng.integers(0, size, size=min(ONLINE_BATCH - n_new, size))
        rows = np.concatenate([np.arange(end - n_new, end), replay + (end - size)])
        rows %= ONLINE_CAPACITY
        nets.sgd_step(self.net, self._ring_x[rows], self._ring_l[rows], ONLINE_LR)

    def prediction_error(self, theta, f, l_meas):
        return np.abs(self.infer_command(theta, f) - np.asarray(l_meas, float))

    # -- persistence -------------------------------------------------------

    def to_dict(self):
        # the replay buffer is transient and deliberately not persisted
        return {"version": nets.VERSION, "n_joints": self.n_joints,
                "n_muscles": self.n_muscles, "net": self.net.to_dict()}

    @classmethod
    def from_dict(cls, d):
        """The model of a ``to_dict`` document; an ``"online"`` entry, which
        older documents carry, is not read.  Raises nets.ModelFormatError
        unless the net carries both scalers and maps n_joints + n_muscles
        inputs to n_muscles outputs, with one or more of each."""
        nets.check_version(d)
        net = MLPNetwork.from_dict(nets.field(d, "net", dict, "h"))
        n_j, n_m = (nets.field(d, key, int, "h") for key in ("n_joints", "n_muscles"))
        if net.in_scaler is None or net.out_scaler is None:
            raise nets.ModelFormatError("h: its net has no input_range or output_range")
        if min(n_j, n_m) < 1 or net.layer_sizes[0] != n_j + n_m or net.layer_sizes[-1] != n_m:
            raise nets.ModelFormatError(
                f"h: net layers {net.layer_sizes} do not map n_joints {n_j} + n_muscles "
                f"{n_m} inputs to n_muscles outputs")
        return cls(net, n_j, n_m)


def init_from_geometry(geom, grid_points=15, f_samples=12, train_cfg=None,
                       loss_threshold=1e-4, seed=0):
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
        e_max = np.sqrt(F_MAX / geom.k2)
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
        np.concatenate([geom.limits_hi, np.full(geom.n_muscles, F_MAX)]))
    out_scaler = FeatureScaler(l_lo - pad, l_hi + pad)

    layer_sizes = [geom.n_joints + geom.n_muscles, *HIDDEN, geom.n_muscles]
    net = MLPNetwork.seeded(layer_sizes, seed=seed,
                            in_scaler=in_scaler, out_scaler=out_scaler)
    cfg = train_cfg or TrainConfig(learning_rate=0.3, batch_size=64,
                                   epochs=3000, seed=seed)
    Xu, Yu = in_scaler.to_unit(X), out_scaler.to_unit(Y)
    (loss,) = nets.train(net, Xu, Yu, cfg)
    # annealed continuation: minibatch noise at a fixed rate floors the loss
    lr = cfg.learning_rate
    while loss > loss_threshold and lr > cfg.learning_rate / 100:
        lr /= 4.0
        cont = TrainConfig(learning_rate=lr, batch_size=cfg.batch_size,
                           epochs=max(1, cfg.epochs // 3), seed=cfg.seed + 1)
        (loss,) = nets.train(net, Xu, Yu, cont)
    if not loss <= loss_threshold:   # a NaN loss leaves the loop above at once
        raise InitializationError(
            f"geometric pre-training loss {loss:.3e} above {loss_threshold:.1e}")
    return IntersensoryModel(net, geom.n_joints, geom.n_muscles)


# --------------------------------------------------------------------------
# EKF joint-angle estimation


# the EKF's process [rad^2/s] and length observation [m^2] noise, and its
# initial covariance [rad^2]
EKF_Q, EKF_R, EKF_P0 = 1e-2, 1e-6, 1e-2


@lru_cache(maxsize=16)
def _identity(n):
    """np.eye(n), read-only: h's cotangents and the EKF's update read it."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@dataclass
class EKFEstimator:
    theta_est: np.ndarray
    P: np.ndarray
    Q: np.ndarray     # process noise [rad^2/s]
    R: np.ndarray     # observation noise [m^2]

    @classmethod
    def create(cls, theta0, n_muscles):
        theta0 = np.asarray(theta0, dtype=float)
        n = theta0.size
        return cls(theta_est=theta0.copy(), P=EKF_P0 * np.eye(n),
                   Q=EKF_Q * np.eye(n), R=EKF_R * np.eye(n_muscles))


def ekf_step(est, model, l_meas, f_meas):
    """One control tick of random-walk predict + length-observation update.
    Returns a new estimator.
    Raises ValueError unless ``l_meas`` has one length and ``est.R`` one row
    and column per muscle of the model."""
    l_meas = np.asarray(l_meas, dtype=float)
    m = model.n_muscles
    if l_meas.shape != (m,) or est.R.shape != (m, m):
        raise ValueError(f"{m} muscles, but {l_meas.size} measured lengths and "
                         f"R of shape {est.R.shape}")
    P = est.P + est.Q * CTRL_DT
    theta = est.theta_est

    h, H = model.length_jacobian_theta(theta, f_meas)
    S = H @ P @ H.T + est.R
    try:
        K = np.linalg.solve(S, H @ P).T
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular innovation covariance; R must be positive definite") from exc
    theta_new = theta + K @ (l_meas - h)
    P_new = (_identity(theta.size) - K @ H) @ P
    P_new = 0.5 * (P_new + P_new.T)
    return EKFEstimator(theta_est=theta_new, P=P_new, Q=est.Q, R=est.R)
