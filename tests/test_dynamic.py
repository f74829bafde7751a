"""Task dynamics learning and Gauss-Newton command optimization."""

import numpy as np
import pytest

from tendonctl import dynamic_ctrl
from tendonctl.dynamic_ctrl import (GN_STEPS, HOLDOUT_FRACTION, PROX_MU, DynamicsModel,
                                    OptimizerConfig, PIDController,
                                    TrainingThresholdError, collect_rollout,
                                    mpc_control_step, optimize_commands,
                                    random_command_profile, shift_warm_start,
                                    train_dynamics)
from tendonctl.nets import DimensionError, FeatureScaler, MLPNetwork, TrainConfig


class StubRig:
    """First-order linear task stub: v' = decay * v + gain * u."""

    def __init__(self, decay=0.95, gain=0.5, v0=0.0, u_limits=(0.0, 1.0)):
        self.decay = decay
        self.gain = gain
        self.v = v0
        self.u_limits = u_limits

    def task_state(self):
        return self.v

    def extended_state(self):
        return np.array([self.v])

    def apply(self, u):
        self.v = self.decay * self.v + self.gain * u

    def analytic_rollout(self, v0, u_seq):
        v = v0
        out = []
        for u in u_seq:
            v = self.decay * v + self.gain * u
            out.append(v)
        return np.array(out)


def identity_model(N, lim=2.0):
    """Linear net realizing s_pred,k = u_k (state ignored)."""
    W = np.hstack([np.zeros((N, 1)), np.eye(N)])
    net = MLPNetwork([1 + N, N], [W], [np.zeros(N)],
                     in_scaler=FeatureScaler(-lim * np.ones(1 + N),
                                             lim * np.ones(1 + N)),
                     out_scaler=FeatureScaler(-lim * np.ones(N),
                                              lim * np.ones(N)))
    return DynamicsModel(net, 1, N, (-lim, lim))


# -- rollout collection ----------------------------------------------------


def test_rollout_window_count():
    # [DERIVED] 60 s at 20 ms -> 3000 commands, N=10 -> 2991 windows
    rig = StubRig()
    S0, U, Y = collect_rollout(rig, 60.0, seed=0, horizon=10)
    assert S0.shape[0] == 2991
    assert U.shape == (2991, 10)
    assert Y.shape == (2991, 10)


def test_rollout_too_short_raises():
    with pytest.raises(ValueError):
        collect_rollout(StubRig(), 0.0, seed=0, horizon=10)


def test_rollout_deterministic():
    a = collect_rollout(StubRig(), 10.0, seed=5, horizon=8)
    b = collect_rollout(StubRig(), 10.0, seed=5, horizon=8)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_rollout_windows_consistent():
    rig = StubRig()
    S0, U, Y = collect_rollout(rig, 5.0, seed=1, horizon=6)
    # each observed window must equal the analytic rollout from its own start
    check = StubRig()
    for i in (0, 37, 100):
        assert np.allclose(Y[i], check.analytic_rollout(S0[i, 0], U[i]), atol=1e-12)


def test_random_profile_respects_limits_and_dwells():
    u = random_command_profile(60.0, (0.1, 0.7), seed=2)
    assert u.min() >= 0.1 - 1e-12 and u.max() <= 0.7 + 1e-12
    # dwell segments pin the signal at the low stop
    assert np.sum(np.isclose(u, 0.1)) > 50


# -- dynamics training -----------------------------------------------------


def test_constant_velocity_stub_learns_constant():
    rig = StubRig(decay=1.0, gain=0.0, v0=3.0)
    ds = collect_rollout(rig, 30.0, seed=0, horizon=10)
    # output span is degenerate; widen via the dataset itself is constant -> the
    # scaler guards with a minimum span, training fits the constant easily
    model = train_dynamics(ds, rig.u_limits, seed=0, rms_threshold=0.05)
    assert model.holdout_rms < 0.05


@pytest.fixture(scope="module")
def trained_stub():
    """Stub rig v' = 0.9 v + u and its dynamics model: 60 s rollout, seed 0,
    horizon 10, 300 epochs.  Read-only: a test that changes it copies it."""
    rig = StubRig(decay=0.9, gain=1.0)
    ds = collect_rollout(rig, 60.0, seed=0, horizon=10)
    return rig, train_dynamics(ds, rig.u_limits, seed=0,
                               train_cfg=TrainConfig(learning_rate=0.05,
                                                     batch_size=32, epochs=300))


def test_linear_stub_matches_analytic_rollout(trained_stub):
    # [DERIVED] closed-form linear system oracle
    _, model = trained_stub
    oracle = StubRig(decay=0.9, gain=1.0)
    S0, U, _ = collect_rollout(StubRig(decay=0.9, gain=1.0), 20.0,
                               seed=99, horizon=10)
    for i in range(0, S0.shape[0], 37):
        pred = model.predict(S0[i], U[i])
        assert np.max(np.abs(pred - oracle.analytic_rollout(S0[i, 0], U[i]))) < 0.1


def _reference_holdout_rms(model, dataset, seed):
    """One-step RMS over the held-out windows, one predict per window (the
    reference)."""
    S0, U, Y = dataset
    n = S0.shape[0]
    hold = np.random.default_rng(seed).permutation(n)[:max(1, int(round(HOLDOUT_FRACTION * n)))]
    pred1 = np.array([model.predict(S0[i], U[i])[0] for i in hold])
    return float(np.sqrt(np.mean((pred1 - Y[hold, 0]) ** 2)))


def test_holdout_rms_matches_per_window_reference(trained_stub):
    _, model = trained_stub
    ds = collect_rollout(StubRig(decay=0.9, gain=1.0), 60.0, seed=0, horizon=10)
    np.testing.assert_allclose(model.holdout_rms, _reference_holdout_rms(model, ds, 0),
                               rtol=1e-12, atol=0)


def test_shuffled_dataset_trains_to_similar_loss():
    rig = StubRig(decay=0.9, gain=1.0)
    S0, U, Y = collect_rollout(rig, 30.0, seed=0, horizon=5)
    cfg = TrainConfig(learning_rate=0.05, batch_size=32, epochs=100)

    def fit(dataset):
        m = train_dynamics(dataset, rig.u_limits, seed=0, train_cfg=cfg)
        X = np.hstack([dataset[0], dataset[1]])
        pred = np.array([m.predict(s, u) for s, u in zip(dataset[0], dataset[1])])
        return float(np.mean((pred - dataset[2]) ** 2))

    loss_plain = fit((S0, U, Y))
    perm = np.random.default_rng(1).permutation(S0.shape[0])
    loss_shuffled = fit((S0[perm], U[perm], Y[perm]))
    assert abs(loss_plain - loss_shuffled) < 0.1 * max(loss_plain, loss_shuffled)


def test_training_threshold_error_carries_metrics():
    rig = StubRig(decay=0.9, gain=1.0)
    ds = collect_rollout(rig, 10.0, seed=0, horizon=5)
    with pytest.raises(TrainingThresholdError) as exc:
        train_dynamics(ds, rig.u_limits, seed=0, rms_threshold=1e-12,
                       train_cfg=TrainConfig(epochs=1))
    assert "held-out one-step RMS" in str(exc.value)


def test_training_threshold_refuses_a_nan_rms():
    # one NaN target makes the hold-out RMS NaN; NaN > threshold is False
    rng = np.random.default_rng(0)
    S0, U, Y = rng.normal(size=(40, 2)), rng.uniform(size=(40, 4)), rng.normal(size=(40, 4))
    Y[0, 1] = np.nan
    with pytest.raises(TrainingThresholdError, match="nan"):
        train_dynamics((S0, U, Y), (0.0, 1.0), train_cfg=TrainConfig(epochs=2),
                       rms_threshold=1e9)


def test_empty_dataset_raises():
    with pytest.raises(ValueError):
        train_dynamics((np.empty((0, 1)), np.empty((0, 5)), np.empty((0, 5))),
                       (0.0, 1.0))


# -- command optimization --------------------------------------------------


def test_identity_model_lands_on_the_proximal_minimiser(monkeypatch):
    # [DERIVED] J = I, alpha = 0: the step solves (1/N + mu) u = s_ref/N + mu u_w
    N = 4
    model = identity_model(N)
    cfg = OptimizerConfig(alpha=0.0, horizon=N)
    warm = np.array([1.0, -0.5, 1.9, -1.8])
    for s_ref in (0.0, 30.0, -30.0):   # the last two pin some commands at a limit
        expect = np.clip((s_ref / N + PROX_MU * warm) / (1.0 / N + PROX_MU), *model.u_limits)
        for steps in (1, GN_STEPS):
            monkeypatch.setattr(dynamic_ctrl, "GN_STEPS", steps)
            u, loss, losses = optimize_commands(model, np.zeros(1), s_ref, warm, cfg)
            np.testing.assert_allclose(u, expect, rtol=1e-12, atol=1e-12)
            assert losses.size == steps + 1 and loss == losses[-1]


def _reference_gauss_newton(model, s0, s_ref, u_w, alpha, steps):
    """Proximal Gauss-Newton with J by central differences of predict and a
    dense solve, no clipping (the reference)."""
    N = model.horizon
    D = np.diff(np.eye(N), axis=0)
    a = alpha / (N - 1)
    u = u_w.copy()
    for _ in range(steps):
        h = 1e-6
        J = np.stack([(model.predict(s0, u + h * e) - model.predict(s0, u - h * e)) / (2 * h)
                      for e in np.eye(N)], axis=1)
        r = model.predict(s0, u) - s_ref
        A = J.T @ J / N + a * D.T @ D + PROX_MU * np.eye(N)
        u = u + np.linalg.solve(A, -(J.T @ r / N + a * D.T @ D @ u + PROX_MU * (u - u_w)))
    return u


def test_steps_match_a_finite_difference_reference():
    base = random_dynamics_model()
    model = DynamicsModel(base.net, base.state_dim, base.horizon, (-1e3, 1e3))  # unclipped
    rng = np.random.default_rng(4)
    N = model.horizon
    for alpha in (0.0, 0.1, 5.0):
        s0 = rng.normal(size=model.state_dim)
        ref = rng.uniform(-1.0, 3.0, size=N)
        u_w = rng.uniform(0.0, 1.0, size=N)
        u, loss, losses = optimize_commands(model, s0, ref, u_w,
                                            OptimizerConfig(alpha=alpha, horizon=N))
        np.testing.assert_allclose(
            u, _reference_gauss_newton(model, s0, ref, u_w, alpha, GN_STEPS), rtol=1e-6)
        assert loss == pytest.approx(model.loss_and_grad(s0, u, ref, alpha)[0], rel=1e-12)
        assert losses[0] == pytest.approx(model.loss_and_grad(s0, u_w, ref, alpha)[0],
                                          rel=1e-12)


def test_exact_optimum_stays_put_bit_for_bit():
    # r = 0 and a constant sequence: every term of the step's right-hand side is 0
    N = 5
    model = identity_model(N)
    warm = np.full(N, 0.5)
    u, loss, losses = optimize_commands(model, np.zeros(1), 0.5, warm,
                                        OptimizerConfig(alpha=0.1, horizon=N))
    assert np.array_equal(u, warm) and loss == 0.0 and not np.any(losses)


def test_result_lies_within_the_limits():
    model = random_dynamics_model()
    lo, hi = model.u_limits
    rng = np.random.default_rng(5)
    N = model.horizon
    for _ in range(20):
        u, _, _ = optimize_commands(model, rng.normal(size=model.state_dim),
                                    rng.uniform(-50.0, 50.0, size=N),
                                    rng.uniform(-2.0, 3.0, size=N),
                                    OptimizerConfig(alpha=rng.uniform(0.0, 1.0), horizon=N))
        assert np.all((u >= lo) & (u <= hi))


def test_best_so_far_contract():
    N = 4
    model = identity_model(N)
    cfg = OptimizerConfig(alpha=0.0, horizon=N)
    u0 = np.zeros(N)   # already the global optimum
    _, loss, losses = optimize_commands(model, np.zeros(1), 0.0, u0, cfg)
    assert loss <= losses[0] + 1e-15
    assert loss == pytest.approx(0.0, abs=1e-15)


def test_gauss_newton_matrices_are_cached_read_only():
    # built once per (N, alpha) and shared by every MPC tick, so no caller may write them
    N, alpha = 6, 0.1
    cached = dynamic_ctrl._gn_matrices(N, alpha)
    assert cached is dynamic_ctrl._gn_matrices(N, alpha)
    eye, smooth, damped = cached
    D = np.diff(np.eye(N), axis=0)
    assert np.array_equal(eye, np.eye(N))
    assert np.array_equal(smooth, (alpha / (N - 1)) * (D.T @ D))
    assert np.array_equal(damped, smooth + PROX_MU * np.eye(N))
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0


def test_large_alpha_flattens_sequence():
    N = 8
    model = identity_model(N)
    cfg = OptimizerConfig(alpha=1e6, horizon=N)
    u0 = np.random.default_rng(0).uniform(0.0, 1.0, size=N)
    u, _, _ = optimize_commands(model, np.zeros(1), 0.0, u0, cfg)
    assert np.max(np.abs(np.diff(u))) < 1e-3


def test_loss_gradient_matches_finite_differences():
    rig = StubRig(decay=0.9, gain=1.0)
    ds = collect_rollout(rig, 30.0, seed=0, horizon=6)
    model = train_dynamics(ds, rig.u_limits, seed=0, rms_threshold=1.0,
                           train_cfg=TrainConfig(epochs=50))
    rng = np.random.default_rng(2)
    s0 = np.array([1.5])
    u = rng.uniform(0.0, 1.0, size=6)
    ref = np.full(6, 3.0)
    _, g = model.loss_and_grad(s0, u, ref, alpha=0.1)
    h = 1e-6
    for i in range(6):
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        lu, _ = model.loss_and_grad(s0, up, ref, alpha=0.1)
        ld, _ = model.loss_and_grad(s0, dn, ref, alpha=0.1)
        fd = (lu - ld) / (2 * h)
        assert abs(fd - g[i]) < 1e-4 * max(1.0, abs(fd))


def _reference_loss_and_grad(model, s0, u_seq, s_ref, alpha):
    """Unfused objective: scale, forward, backprop, unscale (the reference)."""
    net, n_s, N = model.net, model.state_dim, model.horizon
    xn = net.in_scaler.to_unit(np.concatenate([s0, u_seq]))
    y = net.out_scaler.from_unit(net.forward(xn))
    err = y - s_ref
    d = np.diff(u_seq)
    loss = float(np.mean(err * err)) + alpha * float(np.mean(d * d))
    _, dxn = net.gradients(xn, 2.0 * err / N * net.out_scaler.from_unit_scale())
    du = dxn[n_s:] * net.in_scaler.to_unit_scale()[n_s:]
    g = np.zeros_like(u_seq)
    g[:-1] -= 2.0 * d / d.size
    g[1:] += 2.0 * d / d.size
    return loss, du + alpha * g


def random_dynamics_model(state_dim=3, N=6, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 0.0, size=state_dim + N)
    net = MLPNetwork.seeded([state_dim + N, 9, 7, N], seed=seed,
                            in_scaler=FeatureScaler(lo, lo + rng.uniform(1.0, 3.0, lo.size)),
                            out_scaler=FeatureScaler(np.full(N, -4.0), np.full(N, 9.0)))
    return DynamicsModel(net, state_dim, N, (0.0, 1.0))


def test_fold_of_a_one_layer_net_matches_predict_and_writes_nothing():
    # with one layer the s0-shifted first bias is the last bias the output
    # scale folds; asymmetric ranges and a nonzero bias show a slip there
    # (identity_model's symmetric ranges and zero bias hide it)
    rng = np.random.default_rng(6)
    n_s, N = 2, 4
    lo = rng.uniform(-3.0, -1.0, size=n_s + N)
    net = MLPNetwork([n_s + N, N], [rng.normal(size=(N, n_s + N))], [rng.normal(size=N)],
                     in_scaler=FeatureScaler(lo, lo + rng.uniform(0.5, 4.0, lo.size)),
                     out_scaler=FeatureScaler(np.array([0.5, -1.0, 2.0, 0.0]),
                                              np.array([1.5, 2.0, 2.5, 2.0])))
    model = DynamicsModel(net, n_s, N, (0.0, 1.0))
    shared = [a for sc in (net.in_scaler, net.out_scaler)
              for a in (sc.lo, sc.hi, sc.to_unit_scale(), sc.from_unit_scale())]
    assert not any(a.flags.writeable for a in shared)
    read = net.weights + net.biases + shared
    before = [a.copy() for a in read]
    for _ in range(5):
        s0, u = rng.uniform(-1.0, 1.0, size=n_s), rng.uniform(-1.0, 2.0, size=N)
        np.testing.assert_allclose(model.fold(s0).forward(u), model.predict(s0, u),
                                   rtol=1e-12, atol=1e-12)
    # fold reads the net and the shared scaler arrays and writes into none
    assert all(np.array_equal(a, b) for a, b in zip(read, before))


@pytest.mark.parametrize("model", [random_dynamics_model(), identity_model(5)],
                         ids=["mlp", "one_layer"])
def test_objective_matches_unfused_reference(model):
    rng = np.random.default_rng(3)
    N = model.horizon
    for alpha in (0.0, 0.1, 5.0):
        s0 = rng.normal(size=model.state_dim)
        ref = rng.uniform(-1.0, 3.0, size=N)
        f = model.objective(s0, ref, alpha)
        for _ in range(3):
            u = rng.uniform(*model.u_limits, size=N)
            loss, g = f(u)
            ref_loss, ref_g = _reference_loss_and_grad(model, s0, u, ref, alpha)
            assert loss == pytest.approx(ref_loss, rel=1e-10)
            np.testing.assert_allclose(g, ref_g, rtol=1e-10, atol=1e-12)
            assert model.loss_and_grad(s0, u, ref, alpha)[0] == loss


def test_dynamics_from_dict_rejects_unknown_version():
    d = identity_model(3).to_dict()
    d["version"] = 99
    with pytest.raises(ValueError, match="version"):
        DynamicsModel.from_dict(d)


def test_constructor_refuses_a_model_it_cannot_run():
    # each was built, and then failed in its first MPC tick or ran on
    net = identity_model(3).net   # 1 state + 3 commands in, 3 states out, both scalers
    bare = MLPNetwork(net.layer_sizes, net.weights, net.biases, out_scaler=net.out_scaler)
    with pytest.raises(ValueError, match="input_range"):
        DynamicsModel(bare, 1, 3, (0.0, 1.0))
    with pytest.raises(DimensionError, match="do not map"):
        DynamicsModel(net, 2, 2, (0.0, 1.0))
    for limits in ((1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="u_limits"):
            DynamicsModel(net, 1, 3, limits)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(horizon=1)
    model = identity_model(4)
    with pytest.raises(ValueError):
        optimize_commands(model, np.zeros(1), 0.0, np.ones(3),
                          OptimizerConfig(horizon=4))


# -- receding-horizon wrapper ----------------------------------------------


def test_shift_warm_start():
    u = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(shift_warm_start(u), [2.0, 3.0, 3.0])


def test_mpc_holds_equilibrium(trained_stub):
    # [DERIVED] steady state of v' = 0.9 v + u: v* = 10 u*
    rig, model = trained_stub
    u_star = 0.5
    v_star = rig.gain * u_star / (1.0 - rig.decay)
    cfg = OptimizerConfig(alpha=0.1, horizon=10)
    u_cmd, warm, _ = mpc_control_step(model, np.array([v_star]), v_star,
                                      np.full(10, u_star), cfg)
    assert abs(u_cmd - u_star) < 0.02


def test_mpc_unreachable_target_pins_at_limit(trained_stub):
    rig, model = trained_stub
    cfg = OptimizerConfig(alpha=0.0, horizon=10)
    warm = None
    u_cmd = None
    for _ in range(5):
        u_cmd, warm, loss = mpc_control_step(model, np.array([0.0]), 50.0,
                                             warm, cfg)
        assert np.isfinite(loss)
    assert u_cmd == pytest.approx(rig.u_limits[1], abs=1e-6)
    assert np.all(warm <= rig.u_limits[1] + 1e-12)


# -- PID baseline ----------------------------------------------------------


def test_pid_proportional_only():
    pid = PIDController(kp=0.5, ki=0.0, kd=0.0, out_lo=-10, out_hi=10)
    assert pid.step(2.0) == pytest.approx(1.0)


def test_pid_anti_windup():
    pid = PIDController(kp=0.0, ki=1.0, kd=0.0, out_lo=0.0, out_hi=0.5)
    for _ in range(100):
        pid.step(10.0)
    # integral must not have wound past what the saturated output uses
    assert pid.integral <= 0.5 / pid.ki + 1e-9
    pid.step(-10.0)
    assert pid.integral < 0.5 / pid.ki   # recovers immediately


def test_pid_reset():
    pid = PIDController(kp=1.0, ki=1.0, kd=1.0, out_lo=-1, out_hi=1)
    pid.step(0.5)
    pid.reset()
    assert pid.integral == 0.0 and pid.prev_err is None
