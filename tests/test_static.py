"""Intersensory model: geometric init, inference, online learning, EKF."""

import copy

import numpy as np
import pytest

from tendonctl.nets import FeatureScaler, MLPNetwork, TrainConfig
from tendonctl.plant import (Plant, default_ankle_geometry,
                             default_ankle_plant_config, elastic_elongation)
from tendonctl.static_ctrl import (EKFEstimator, InitializationError,
                                   IntersensoryModel, OnlineConfig, ekf_step,
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
    kwargs = dict(grid_points=5, f_samples=4, hidden=(16,),
                  train_cfg=TrainConfig(learning_rate=0.1, epochs=40, seed=0),
                  loss_threshold=10.0, seed=0)
    a = init_from_geometry(ankle_geom, **kwargs)
    b = init_from_geometry(ankle_geom, **kwargs)
    for wa, wb in zip(a.net.weights, b.net.weights):
        assert np.array_equal(wa, wb)


def test_init_threshold_failure_raises(ankle_geom):
    with pytest.raises(InitializationError):
        init_from_geometry(ankle_geom, grid_points=5, f_samples=4, hidden=(4,),
                           train_cfg=TrainConfig(learning_rate=1e-6, epochs=1),
                           loss_threshold=1e-12)


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
    plant = Plant(geom_true, default_ankle_plant_config(geom_true))
    state = plant.initial_state()
    rng = np.random.default_rng(3)
    for k in range(500):
        theta_ref = np.array([rng.uniform(-0.1, 0.6)])
        l_ref = model.infer_command(theta_ref, np.full(2, 20.0))
        state, _ = plant.step(state, l_ref)
        model.online_update(state.theta, state.f, state.l)
    err = model.prediction_error(state.theta, state.f, state.l)
    assert err[0] < 1e-3


def test_buffer_evicts_oldest_first():
    from tendonctl.nets import MLPNetwork, FeatureScaler
    net = MLPNetwork.seeded([3, 4, 2], seed=0,
                            in_scaler=FeatureScaler(-np.ones(3), np.ones(3)),
                            out_scaler=FeatureScaler(-np.ones(2), np.ones(2)))
    model = IntersensoryModel(net, 1, 2, OnlineConfig(buffer_capacity=3))
    for k in range(5):
        model.online_update(np.array([0.1 * k]), np.zeros(2), np.zeros(2))
    assert len(model.buffer) == 3
    oldest_theta = model.buffer[0][0][0]
    assert oldest_theta == pytest.approx(0.2)   # triples 0 and 1 evicted


def test_online_update_validates_dimensions(static_model):
    model = copy.deepcopy(static_model)
    with pytest.raises(ValueError):
        model.online_update(np.zeros(1), np.zeros(2), np.zeros(3))


# -- serialization ---------------------------------------------------------


def test_model_round_trip(tmp_path, static_model):
    path = tmp_path / "model.json"
    static_model.save(path)
    back = IntersensoryModel.load(path)
    theta = np.array([0.4])
    f = np.full(2, 55.0)
    assert np.array_equal(back.infer_command(theta, f),
                          static_model.infer_command(theta, f))
    assert back.n_joints == 1 and back.n_muscles == 2
    assert len(back.buffer) == 0   # replay buffer is transient


def test_from_dict_rejects_unknown_version(static_model):
    d = static_model.to_dict()
    d["version"] = 99
    with pytest.raises(ValueError, match="version"):
        IntersensoryModel.from_dict(d)


# -- EKF -------------------------------------------------------------------


def test_ekf_zero_innovation_keeps_estimate(static_model):
    est = EKFEstimator.create(np.array([0.3]), n_muscles=2)
    f = np.full(2, 20.0)
    l = static_model.infer_command(est.theta_est, f)
    out = ekf_step(est, static_model, l, f, 0.02)
    assert np.allclose(out.theta_est, est.theta_est, atol=1e-12)


def test_ekf_covariance_stays_psd(static_model):
    est = EKFEstimator.create(np.array([0.3]), n_muscles=2)
    rng = np.random.default_rng(0)
    f = np.full(2, 20.0)
    base = static_model.infer_command(np.array([0.3]), f)
    for _ in range(10000):
        l = base + rng.normal(0.0, 5e-4, size=2)
        est = ekf_step(est, static_model, l, f, 0.02)
        assert np.array_equal(est.P, est.P.T)
        assert np.all(np.linalg.eigvalsh(est.P) > -1e-15)


def test_ekf_round_trip_from_model_lengths(static_model):
    # lengths generated by the model at a target pose: estimate converges there
    f = np.full(2, 20.0)
    for theta_true in (0.1, 0.35, 0.6):
        l = static_model.infer_command(np.array([theta_true]), f)
        est = EKFEstimator.create(np.array([0.3]), q=1e-2, n_muscles=2)
        for _ in range(100):
            est = ekf_step(est, static_model, l, f, 0.02)
        assert abs(est.theta_est[0] - theta_true) < 0.02


def test_ekf_singular_innovation_raises(static_model):
    est = EKFEstimator.create(np.array([0.3]), q=0.0, r=0.0, p0=0.0, n_muscles=2)
    f = np.full(2, 20.0)
    l = static_model.infer_command(est.theta_est, f)
    with pytest.raises(ValueError):
        ekf_step(est, static_model, l, f, 0.02)


def test_length_jacobian_matches_finite_differences(static_model):
    theta = np.array([0.25])
    f = np.full(2, 30.0)
    H = static_model.length_jacobian_theta(theta, f)
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


def test_length_jacobian_matches_per_muscle_loop(static_model):
    rng = np.random.default_rng(4)
    arm = IntersensoryModel(
        MLPNetwork.seeded([8, 12, 6], seed=3,
                          in_scaler=FeatureScaler(np.r_[-1.0, -1.5, np.zeros(6)],
                                                  np.r_[1.0, 1.5, np.full(6, 120.0)]),
                          out_scaler=FeatureScaler(np.full(6, 0.1), np.full(6, 0.4))),
        n_joints=2, n_muscles=6)
    for model in (static_model, arm):
        for _ in range(5):
            theta = rng.uniform(-0.5, 0.5, size=model.n_joints)
            f = rng.uniform(0.0, 100.0, size=model.n_muscles)
            np.testing.assert_allclose(model.length_jacobian_theta(theta, f),
                                       _reference_length_jacobian(model, theta, f),
                                       rtol=1e-12, atol=0)
