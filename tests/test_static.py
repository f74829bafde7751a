"""Intersensory model: geometric init, inference, online learning, EKF."""

import copy
import json
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from tendonctl import static_ctrl
from tendonctl.nets import FeatureScaler, MLPNetwork, TrainConfig
from tendonctl.plant import (ANKLE_PLANT_CONFIG, CTRL_DT, MuscleGeometry, Plant,
                             default_ankle_geometry, elastic_elongation)
from tendonctl.static_ctrl import (EKFEstimator, InitializationError,
                                   IntersensoryModel, ONLINE_CAPACITY, ekf_step,
                                   init_from_geometry)


# -- geometric pre-training ------------------------------------------------


def test_init_reproduces_geometric_lengths(static_model, ankle_geom):
    # [DERIVED] geometric oracle at 50 held-out poses, zero tension
    rng = np.random.default_rng(17)
    thetas = rng.uniform(ankle_geom.limits_lo, ankle_geom.limits_hi, size=(50, 1))
    f0 = np.zeros(ankle_geom.n_muscles)
    for theta in thetas:
        pred = static_model.infer_command(theta, f0)
        assert np.max(np.abs(pred - ankle_geom.muscle_lengths(theta))) < 1e-3


def test_tension_shifts_length_by_elastic_elongation(static_model, ankle_geom):
    # [DERIVED] elastic_tension inverse: l(theta, 0) - l(theta, 100) ~ elongation
    theta = np.array([0.3])
    f100 = np.full(ankle_geom.n_muscles, 100.0)
    diff = (static_model.infer_command(theta, np.zeros(2))
            - static_model.infer_command(theta, f100))
    elong = elastic_elongation(ankle_geom, f100)   # the geometry holds k2 and slack
    assert np.max(np.abs(diff - elong)) < 5e-4


def test_init_seeded_twice_identical(ankle_geom):
    kwargs = dict(grid_points=5, f_samples=4,
                  train_cfg=TrainConfig(learning_rate=0.1, epochs=40, seed=0),
                  loss_threshold=10.0, seed=0)
    a = init_from_geometry(ankle_geom, **kwargs)
    b = init_from_geometry(ankle_geom, **kwargs)
    for wa, wb in zip(a.net.weights, b.net.weights):
        assert np.array_equal(wa, wb)


def test_init_threshold_failure_raises(ankle_geom):
    # one epoch at a rate of 1e-6 leaves the seeded net's loss far above 1e-12
    with pytest.raises(InitializationError):
        init_from_geometry(ankle_geom, grid_points=5, f_samples=4,
                           train_cfg=TrainConfig(learning_rate=1e-6, epochs=1),
                           loss_threshold=1e-12)


def test_init_refuses_a_nan_loss(ankle_geom):
    # a NaN slack makes NaN targets and weights; NaN > threshold is False
    muscles = [replace(m) for m in ankle_geom.muscles]
    muscles[0].slack = float("nan")
    with pytest.raises(InitializationError, match="nan"):
        init_from_geometry(MuscleGeometry(ankle_geom.joints, muscles), grid_points=3,
                           f_samples=2, train_cfg=TrainConfig(epochs=1), loss_threshold=1e9)


# -- inference -------------------------------------------------------------


def test_neutral_pose_command(static_model, ankle_geom):
    neutral = ankle_geom.neutral_pose()
    pred = static_model.infer_command(neutral, np.zeros(2))
    assert np.max(np.abs(pred - ankle_geom.muscle_lengths(neutral))) < 1e-3


def test_commanded_length_monotone_in_tension(static_model):
    # elastic stretch compensation: command shortens as f_ref rises (the
    # actuated length must fall below the path by the elongation), so the
    # command may never *increase* by more than the 1e-4 m smoke tolerance
    theta = np.array([0.2])
    prev = None
    for f in np.linspace(0.0, 120.0, 13):
        cmd = static_model.infer_command(theta, np.full(2, f))
        if prev is not None:
            assert np.all(cmd - prev < 1e-4)
        prev = cmd


def test_infer_command_pure_and_validates(static_model):
    theta = np.array([0.1])
    f = np.full(2, 30.0)
    assert np.array_equal(static_model.infer_command(theta, f),
                          static_model.infer_command(theta, f))
    with pytest.raises(ValueError):
        static_model.infer_command(np.zeros(2), f)
    with pytest.raises(FloatingPointError):
        static_model.infer_command(np.array([np.nan]), f)


# -- online learning -------------------------------------------------------


def test_self_consistent_triple_is_a_no_op(static_model):
    model = copy.deepcopy(static_model)
    theta = np.array([0.25])
    f = np.full(2, 40.0)
    l = model.infer_command(theta, f)
    before = [w.copy() for w in model.net.weights]
    model.online_update(theta, f, l)
    delta = sum(float(np.linalg.norm(w - b))
                for w, b in zip(model.net.weights, before))
    assert delta < 1e-8


def test_online_update_learns_injected_offset(static_model):
    # [DERIVED] offset-injection: +5 mm on muscle 0, plant oracle supplies
    # measured triples; per-muscle error must drop below 1 mm
    model = copy.deepcopy(static_model)
    geom_true = default_ankle_geometry(length_offsets=(0.005, 0.0))
    plant = Plant(geom_true, ANKLE_PLANT_CONFIG)
    state = plant.initial_state()
    rng = np.random.default_rng(3)
    for k in range(500):
        theta_ref = np.array([rng.uniform(-0.1, 0.6)])
        l_ref = model.infer_command(theta_ref, np.full(2, 20.0))
        state, _ = plant.step(state, l_ref)
        model.online_update(state.theta, state.f, state.l)
    err = model.prediction_error(state.theta, state.f, state.l)
    assert err[0] < 1e-3


def _unit_model():
    net = MLPNetwork.seeded([3, 4, 2], seed=0,
                            in_scaler=FeatureScaler(-np.ones(3), np.ones(3)),
                            out_scaler=FeatureScaler(-np.ones(2), np.ones(2)))
    return IntersensoryModel(net, 1, 2)


def test_buffer_evicts_oldest_first():
    model = _unit_model()
    for k in range(ONLINE_CAPACITY + 2):
        model.online_update(np.array([k / ONLINE_CAPACITY]), np.zeros(2), np.zeros(2))
    assert model._inserted == ONLINE_CAPACITY + 2
    # triples 0 and 1 were overwritten by the two past capacity; the oldest
    # held one (triple 2) sits in the row the next insert will take
    unit = lambda k: model.net.in_scaler.to_unit(np.array([k / ONLINE_CAPACITY, 0.0, 0.0]))
    assert np.array_equal(model._ring_x[0], unit(ONLINE_CAPACITY))
    assert np.array_equal(model._ring_x[1], unit(ONLINE_CAPACITY + 1))
    oldest_row = model._inserted % ONLINE_CAPACITY
    assert np.array_equal(model._ring_x[oldest_row], unit(2))


def _reference_online_update(model, rng, buffer, theta, f, l):
    """The update as it stood with its own batch step and a deque of raw
    triples (the reference): 8 newest triples, 8 replayed, one MSE step at
    rate 0.05."""
    buffer.append((np.concatenate([theta, f]), l.copy()))
    n_new = min(8, len(buffer))
    newest = [buffer[i] for i in range(len(buffer) - n_new, len(buffer))]
    n_replay = min(16 - n_new, len(buffer))
    replay = [buffer[i] for i in rng.integers(0, len(buffer), size=n_replay)] \
        if n_replay > 0 else []
    batch = newest + replay
    X = model.net.in_scaler.to_unit(np.array([b[0] for b in batch]))
    Y = model.net.out_scaler.to_unit(np.array([b[1] for b in batch]))
    pred, pullback = model.net.vjp(X)
    grads, _ = pullback(2.0 * (pred - Y) / (len(batch) * model.n_muscles))
    for (w, b), (dw, db) in zip(zip(model.net.weights, model.net.biases), grads):
        w -= 0.05 * dw
        b -= 0.05 * db


def test_online_update_matches_reference_bit_for_bit():
    # past capacity, so that the ring's wrap-around meets the deque's
    # eviction of the oldest triples
    model, ref = _unit_model(), _unit_model()
    rng, buffer = np.random.default_rng(0), deque(maxlen=ONLINE_CAPACITY)
    data = np.random.default_rng(9).uniform(-1, 1, size=(ONLINE_CAPACITY + 40, 5))
    for row in data:
        model.online_update(row[:1], row[1:3], row[3:])
        _reference_online_update(ref, rng, buffer, row[:1], row[1:3], row[3:])
    for a, b in zip(model.net.weights + model.net.biases, ref.net.weights + ref.net.biases):
        assert np.array_equal(a, b)


def test_online_update_validates_dimensions(static_model):
    model = copy.deepcopy(static_model)
    with pytest.raises(ValueError):
        model.online_update(np.zeros(1), np.zeros(2), np.zeros(3))


# -- serialization ---------------------------------------------------------


def test_model_round_trip(tmp_path, static_model):
    model = copy.deepcopy(static_model)
    theta = np.array([0.4])
    f = np.full(2, 55.0)
    l = model.infer_command(theta, f) + 1e-3
    for k in range(20):
        model.online_update(theta + 0.01 * k, f, l)
    path = tmp_path / "model.json"
    model.save(path)
    back = IntersensoryModel.load(path)
    assert np.array_equal(back.infer_command(theta, f), model.infer_command(theta, f))
    assert back.n_joints == 1 and back.n_muscles == 2
    # the replay buffer is transient: the loaded model's first online update
    # is that of a fresh model of the same net
    fresh = IntersensoryModel(copy.deepcopy(model.net), 1, 2)
    back.online_update(theta, f, l)
    fresh.online_update(theta, f, l)
    for a, b in zip(back.net.weights + back.net.biases, fresh.net.weights + fresh.net.biases):
        assert np.array_equal(a, b)


def test_older_document_with_online_and_seed_loads_bit_identically(static_model):
    # documents written before the online settings and the net seed became
    # constants carry both; they load and infer as before
    d = static_model.to_dict()
    d["online"] = {"buffer_capacity": 2000, "batch_size": 16, "learning_rate": 0.05,
                   "new_fraction": 0.5, "seed": 0}
    d["net"]["seed"] = 0
    back = IntersensoryModel.from_dict(json.loads(json.dumps(d)))
    theta, f = np.array([0.4]), np.full(2, 55.0)
    assert np.array_equal(back.infer_command(theta, f), static_model.infer_command(theta, f))


def test_from_dict_rejects_unknown_version(static_model):
    d = static_model.to_dict()
    d["version"] = 99
    with pytest.raises(ValueError, match="version"):
        IntersensoryModel.from_dict(d)


# -- EKF -------------------------------------------------------------------


def test_ekf_zero_innovation_keeps_estimate(static_model):
    est = EKFEstimator.create(np.array([0.3]), 2)
    f = np.full(2, 20.0)
    l = static_model.infer_command(est.theta_est, f)
    out = ekf_step(est, static_model, l, f)
    assert np.allclose(out.theta_est, est.theta_est, atol=1e-12)


def test_ekf_covariance_stays_psd(static_model):
    est = EKFEstimator.create(np.array([0.3]), 2)
    rng = np.random.default_rng(0)
    f = np.full(2, 20.0)
    base = static_model.infer_command(np.array([0.3]), f)
    for _ in range(10000):
        l = base + rng.normal(0.0, 5e-4, size=2)
        est = ekf_step(est, static_model, l, f)
        assert np.array_equal(est.P, est.P.T)
        assert np.all(np.linalg.eigvalsh(est.P) > -1e-15)


def test_ekf_round_trip_from_model_lengths(static_model):
    # lengths generated by the model at a target pose: estimate converges there
    f = np.full(2, 20.0)
    for theta_true in (0.1, 0.35, 0.6):
        l = static_model.infer_command(np.array([theta_true]), f)
        est = EKFEstimator.create(np.array([0.3]), 2)
        for _ in range(100):
            est = ekf_step(est, static_model, l, f)
        assert abs(est.theta_est[0] - theta_true) < 0.02


def test_ekf_singular_innovation_raises(static_model):
    est = EKFEstimator(theta_est=np.array([0.3]), P=np.zeros((1, 1)), Q=np.zeros((1, 1)),
                       R=np.zeros((2, 2)))
    f = np.full(2, 20.0)
    l = static_model.infer_command(est.theta_est, f)
    with pytest.raises(ValueError):
        ekf_step(est, static_model, l, f)


def test_ekf_rejects_r_or_lengths_of_another_size(static_model):
    # a 1x1 R would be broadcast over the ankle's 2x2 innovation covariance
    f = np.full(2, 20.0)
    l = static_model.infer_command(np.array([0.3]), f)
    with pytest.raises(ValueError, match="R of shape"):
        ekf_step(EKFEstimator.create(np.array([0.3]), n_muscles=1), static_model, l, f)
    with pytest.raises(ValueError, match="measured lengths"):
        ekf_step(EKFEstimator.create(np.array([0.3]), n_muscles=2), static_model, l[:1], f)


def test_length_jacobian_matches_finite_differences(static_model):
    theta = np.array([0.25])
    f = np.full(2, 30.0)
    _, H = static_model.length_jacobian_theta(theta, f)
    h = 1e-5
    fd = (static_model.infer_command(theta + h, f)
          - static_model.infer_command(theta - h, f)) / (2 * h)
    assert np.max(np.abs(H[:, 0] - fd)) < 1e-4 * max(1.0, np.max(np.abs(fd)))


def _reference_length_jacobian(model, theta, f):
    """One input-gradient pass per muscle (the reference)."""
    net, nj = model.net, model.n_joints
    x = net.in_scaler.to_unit(np.concatenate([theta, f]))
    in_scale = net.in_scaler.to_unit_scale()[:nj]
    out_scale = net.out_scaler.from_unit_scale()
    H = np.empty((model.n_muscles, nj))
    for i, e in enumerate(np.eye(model.n_muscles)):
        _, dx = net.gradients(x, e)
        H[i] = out_scale[i] * dx[:nj] * in_scale
    return H


def _arm_model():
    """An untrained h of the arm's 2 joints and 6 muscles."""
    return IntersensoryModel(
        MLPNetwork.seeded([8, 12, 6], seed=3,
                          in_scaler=FeatureScaler(np.r_[-1.0, -1.5, np.zeros(6)],
                                                  np.r_[1.0, 1.5, np.full(6, 120.0)]),
                          out_scaler=FeatureScaler(np.full(6, 0.1), np.full(6, 0.4))),
        n_joints=2, n_muscles=6)


def test_length_jacobian_matches_per_muscle_loop(static_model):
    rng = np.random.default_rng(4)
    for model in (static_model, _arm_model()):
        for _ in range(5):
            theta = rng.uniform(-0.5, 0.5, size=model.n_joints)
            f = rng.uniform(0.0, 100.0, size=model.n_muscles)
            l, H = model.length_jacobian_theta(theta, f)
            np.testing.assert_allclose(H, _reference_length_jacobian(model, theta, f),
                                       rtol=1e-12, atol=0)
            # the lengths of the same pass are infer_command's, bit for bit
            assert np.array_equal(l, model.infer_command(theta, f))


def _old_length_jacobian(model, theta, f):
    """length_jacobian_theta as it was: spans, scales and an identity per call."""
    (i_lo, i_hi), (o_lo, o_hi) = ((s.lo, s.hi) for s in (model.net.in_scaler,
                                                       model.net.out_scaler))
    x = 2.0 * (np.concatenate([theta, f]) - i_lo) / (i_hi - i_lo) - 1.0
    in_scale = (2.0 / (i_hi - i_lo))[:model.n_joints]
    out_scale = (o_hi - o_lo) / 2.0
    y, pullback = model.net.vjp(x)
    _, dx = pullback(np.eye(model.n_muscles), weights=False)
    return (o_lo + (y + 1.0) * (o_hi - o_lo) / 2.0,
            out_scale[:, None] * dx[:, :model.n_joints] * in_scale)


def _old_ekf_step(est, model, l_meas, f_meas):
    """ekf_step as it was: np.eye per call, on the old Jacobian."""
    P = est.P + est.Q * CTRL_DT
    theta = est.theta_est
    h, H = _old_length_jacobian(model, theta, f_meas)
    S = H @ P @ H.T + est.R
    K = np.linalg.solve(S, H @ P).T
    P_new = (np.eye(theta.size) - K @ H) @ P
    return theta + K @ (l_meas - h), 0.5 * (P_new + P_new.T)


def test_length_jacobian_and_ekf_step_match_old_expressions_bit_for_bit(static_model):
    rng = np.random.default_rng(8)
    for model in (static_model, _arm_model()):
        est = EKFEstimator.create(np.zeros(model.n_joints), model.n_muscles)
        for _ in range(25):
            theta = rng.uniform(-0.5, 0.5, size=model.n_joints)
            f = rng.uniform(0.0, 100.0, size=model.n_muscles)
            l, H = model.length_jacobian_theta(theta, f)
            l_old, H_old = _old_length_jacobian(model, theta, f)
            assert np.array_equal(l, l_old) and np.array_equal(H, H_old)
            l_meas = l_old + rng.normal(0.0, 1e-3, size=model.n_muscles)
            theta_old, P_old = _old_ekf_step(est, model, l_meas, f)
            est = ekf_step(est, model, l_meas, f)
            assert np.array_equal(est.theta_est, theta_old) and np.array_equal(est.P, P_old)
    # the identity both read is built once per size, read-only
    assert static_ctrl._identity(2) is static_ctrl._identity(2)
    assert not static_ctrl._identity(2).flags.writeable
