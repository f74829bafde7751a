"""Intersensory model: muscle length as a function of pose and tension.

h(theta, f) is the man-made geometric muscle model plus a residual net,
which starts at zero.  h converts task-level (theta_ref, f_ref) into muscle
length commands, refines its net online from measured sensor triples, and
estimates joint angles from muscle lengths/tensions with an EKF.  h is
built from its body, by init_from_geometry, and is not saved.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import nets
from .nets import FeatureScaler, MLPNetwork, TrainConfig
from .plant import CTRL_DT, elastic_elongation


class InitializationError(RuntimeError):
    """The residual net missed the loss threshold on the geometric targets."""


HIDDEN = (16, 16)   # the residual net's hidden layer sizes
F_MAX = 120.0       # top of the grid's tensions and of the net's tension input [N]
RESIDUAL_M = 0.01   # the residual net's output range is +-RESIDUAL_M [m]

# online refinement: replay buffer size; SGD batch size, and how many of its
# samples are the newest (the rest are replayed at random); learning rate
ONLINE_CAPACITY, ONLINE_BATCH, ONLINE_NEWEST, ONLINE_LR = 2000, 16, 8, 0.05


class IntersensoryModel:
    """h(theta, f) -> l = prior(theta, f) + net(theta, f), with a replay
    buffer for online refinement.

    The prior is the body's path lengths less the elastic elongation of each
    tension, l_geo(theta) - (slack + sqrt(f / k2)): the geometry's
    commanded_lengths, on Python floats in its one pass and with no limit
    check (the EKF may step past a limit); d prior / d theta is its G.  The net maps (theta, f)
    to the residual, within about +-RESIDUAL_M.

    The buffer is a ring of the last ONLINE_CAPACITY triples, held as two
    arrays of rows already mapped to the net's unit ranges (the length as
    its residual from the prior): each triple is mapped once, when it is
    inserted, and a batch is one gather."""

    def __init__(self, net: MLPNetwork, geom):
        n_joints, n_muscles = geom.n_joints, geom.n_muscles
        if net.in_scaler is None or net.out_scaler is None:
            raise ValueError("its net has no input_range or output_range")
        if net.layer_sizes[0] != n_joints + n_muscles or net.layer_sizes[-1] != n_muscles:
            raise nets.DimensionError(
                f"net layers {net.layer_sizes} do not map n_joints {n_joints} + n_muscles "
                f"{n_muscles} inputs to n_muscles outputs")
        self.net = net
        self.n_joints = n_joints
        self.n_muscles = n_muscles
        self.geom = geom
        self._ring_x = np.empty((ONLINE_CAPACITY, n_joints + n_muscles))
        self._ring_l = np.empty((ONLINE_CAPACITY, n_muscles))
        self._inserted = 0   # triples inserted so far; the ring holds the last ones
        self._rng = np.random.default_rng(0)

    def _pack(self, theta, f):
        """(theta, f) as one list of floats, the net's input in physical units."""
        theta = np.asarray(theta, dtype=float)
        f = np.asarray(f, dtype=float)
        if theta.shape != (self.n_joints,) or f.shape != (self.n_muscles,):
            raise ValueError("theta/f dimension mismatch")
        x = theta.tolist() + f.tolist()
        if not all(map(math.isfinite, x)):
            raise FloatingPointError("non-finite model input")
        return x

    def _prior(self, x, jacobian=False):
        """The prior at a packed input ``x`` as a list (and with ``jacobian``
        also G)."""
        return self.geom.commanded_lengths(x[:self.n_joints], x[self.n_joints:], jacobian)

    def _lengths(self, y, prior):
        """The net's output ``y`` in metres plus the prior, as an array."""
        residual = self.net.out_scaler.from_unit_floats(y.tolist())
        return np.array([r + p for r, p in zip(residual, prior)])

    def infer_command(self, theta_ref, f_ref):
        """Muscle length command realizing (theta_ref, f_ref).  Pure."""
        x = self._pack(theta_ref, f_ref)
        y = self.net.forward(self.net.in_scaler.to_unit_floats(x))
        return self._lengths(y, self._prior(x))

    def length_jacobian_theta(self, theta, f):
        """(l, d l / d theta) at (theta, f), in physical units, from one
        geometry pass and one forward pass: l is infer_command's; the pair is
        the EKF's h and H."""
        x = self._pack(theta, f)
        prior, G = self._prior(x, jacobian=True)
        net = self.net
        in_scale = net.in_scaler.to_unit_scale()[:self.n_joints]
        out_scale = net.out_scaler.from_unit_scale()
        y, pullback = net.vjp(net.in_scaler.to_unit_floats(x))
        _, dx = pullback(_identity(self.n_muscles), weights=False)
        return (self._lengths(y, prior),
                G + out_scale[:, None] * dx[:, :self.n_joints] * in_scale)

    def online_update(self, theta_meas, f_meas, l_meas):
        """One replay-mixed SGD step of the net toward l_meas - prior on a
        measured (theta, f, l) triple."""
        l_meas = np.asarray(l_meas, dtype=float)
        if l_meas.shape != (self.n_muscles,):
            raise ValueError("l dimension mismatch")
        x = self._pack(theta_meas, f_meas)
        row = self._inserted % ONLINE_CAPACITY
        self._ring_x[row] = self.net.in_scaler.to_unit_floats(x)
        self._ring_l[row] = self.net.out_scaler.to_unit_floats(
            [lm - p for lm, p in zip(l_meas.tolist(), self._prior(x))])
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


def init_from_geometry(geom, grid_points=15, f_samples=12, train_cfg: TrainConfig = None,
                       loss_threshold=1e-4, seed=0):
    """h of the body ``geom``: its geometric prior plus a residual net whose
    last layer starts at zero, so that h starts on the prior exactly.

    Dataset: joint-angle grid over the limits crossed with sampled tension
    vectors; targets are the geometric lengths minus the series elastic
    elongation each tension implies (and minus the slack of a taut wire).
    The net is trained toward the targets' residual from the prior only
    while its loss is above ``loss_threshold``: on a body without slack the
    prior is the targets, and no epoch runs.
    """
    rng = np.random.default_rng(seed)
    axes = [np.linspace(lo, hi, grid_points)
            for lo, hi in zip(geom.limits_lo, geom.limits_hi)]
    thetas = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)

    X, residual = [], []
    # sample uniformly in elongation (the steep region sits near f = 0)
    e_max = np.sqrt(F_MAX / geom.k2)
    for theta in thetas:
        l_geo = geom.muscle_lengths(theta)
        e = np.vstack([np.zeros(geom.n_muscles),
                       rng.uniform(0.0, 1.0, size=(f_samples - 1, geom.n_muscles)) * e_max])
        f = geom.k2 * e * e
        X.append(np.hstack([np.broadcast_to(theta, (f_samples, geom.n_joints)), f]))
        # the targets less the prior
        residual.append((l_geo - e - geom.slack * (f > 0)) - (l_geo - elastic_elongation(geom, f)))
    X, residual = np.concatenate(X), np.concatenate(residual)

    in_scaler = FeatureScaler(
        np.concatenate([geom.limits_lo, np.zeros(geom.n_muscles)]),
        np.concatenate([geom.limits_hi, np.full(geom.n_muscles, F_MAX)]))
    out_scaler = FeatureScaler(np.full(geom.n_muscles, -RESIDUAL_M),
                               np.full(geom.n_muscles, RESIDUAL_M))
    layer_sizes = [geom.n_joints + geom.n_muscles, *HIDDEN, geom.n_muscles]
    net = MLPNetwork.seeded(layer_sizes, seed=seed,
                            in_scaler=in_scaler, out_scaler=out_scaler)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0

    cfg = train_cfg or TrainConfig(learning_rate=0.3, batch_size=64,
                                   epochs=3000, seed=seed)
    Xu, Ru = in_scaler.to_unit(X), out_scaler.to_unit(residual)
    loss = nets.mse_loss(net, Xu, Ru)
    # annealed continuation: minibatch noise at a fixed rate floors the loss
    rounds = [cfg] + [TrainConfig(learning_rate=cfg.learning_rate / 4 ** k,
                                  batch_size=cfg.batch_size,
                                  epochs=max(1, cfg.epochs // 3), seed=cfg.seed + 1)
                      for k in range(1, 5)]
    for round_cfg in rounds:
        if not loss > loss_threshold:   # met, or NaN
            break
        (loss,) = nets.train(net, Xu, Ru, round_cfg)
    if not loss <= loss_threshold:
        raise InitializationError(
            f"residual net loss {loss:.3e} on the geometric grid above {loss_threshold:.1e}")
    return IntersensoryModel(net, geom)


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
