"""MLP forward/backward/train contracts, checked against independent oracles."""

import copy
import json

import numpy as np
import pytest

from tendonctl import nets
from tendonctl.nets import (DimensionError, FeatureScaler, MLPNetwork, ModelFormatError,
                            TrainConfig, finite_difference_input_grad,
                            mse_loss, sgd_step, train)


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


# -- forward ---------------------------------------------------------------


def test_zero_parameters_give_zero_output():
    net = MLPNetwork([2, 3, 2],
                     [np.zeros((3, 2)), np.zeros((2, 3))],
                     [np.zeros(3), np.zeros(2)])
    assert np.array_equal(net.forward(np.array([1.7, -0.3])), np.zeros(2))


def test_affine_1_1_net():
    net = MLPNetwork([1, 1], [np.array([[2.0]])], [np.array([1.0])])
    assert np.allclose(net.forward(np.array([3.0])), [7.0])


def test_forward_matches_straightline_reimplementation():
    # oracle: explicit re-evaluation of the same arithmetic, no shared code path
    net = MLPNetwork.seeded([2, 3, 1], seed=7)
    x = np.array([0.5, -0.5])
    h = np.tanh(net.weights[0] @ x + net.biases[0])
    expect = net.weights[1] @ h + net.biases[1]
    assert np.allclose(net.forward(x), expect, rtol=0, atol=1e-15)


def test_forward_batched_matches_single():
    net = MLPNetwork.seeded([3, 4, 2], seed=1)
    X = np.random.default_rng(0).normal(size=(5, 3))
    batched = net.forward(X)
    for i in range(5):
        assert np.allclose(batched[i], net.forward(X[i]))


def test_input_dimension_mismatch_raises():
    net = MLPNetwork.seeded([3, 2], seed=0)
    with pytest.raises(DimensionError):
        net.forward(np.zeros(4))


def test_seeded_init_deterministic():
    a = MLPNetwork.seeded([4, 8, 2], seed=3)
    b = MLPNetwork.seeded([4, 8, 2], seed=3)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


# -- gradients -------------------------------------------------------------


def test_linear_input_gradient():
    net = MLPNetwork([1, 1], [np.array([[2.0]])], [np.array([0.5])])
    _, dx = net.gradients(np.array([3.0]), np.array([1.0]))
    assert np.allclose(dx, [2.0])


def test_zero_cotangent_gives_zero_gradients():
    net = MLPNetwork.seeded([3, 5, 2], seed=2)
    wg, dx = net.gradients(np.ones(3), np.zeros(2))
    assert np.array_equal(dx, np.zeros(3))
    for dw, db in wg:
        assert np.array_equal(dw, np.zeros_like(dw))
        assert np.array_equal(db, np.zeros_like(db))


def test_gradients_match_finite_differences_3_5_2():
    net = MLPNetwork.seeded([3, 5, 2], seed=11)
    rng = np.random.default_rng(4)
    x = rng.normal(size=3)
    dL_dy = rng.normal(size=2)

    wg, dx = net.gradients(x, dL_dy)
    fd_dx = finite_difference_input_grad(net, x, dL_dy, h=1e-5)
    assert rel_err(dx, fd_dx) < 1e-4

    h = 1e-5
    for li, (dw, db) in enumerate(wg):
        for idx in np.ndindex(dw.shape):
            orig = net.weights[li][idx]
            net.weights[li][idx] = orig + h
            up = np.dot(dL_dy, net.forward(x))
            net.weights[li][idx] = orig - h
            dn = np.dot(dL_dy, net.forward(x))
            net.weights[li][idx] = orig
            assert abs((up - dn) / (2 * h) - dw[idx]) < 1e-4 * max(1.0, abs(dw[idx]))
        for i in range(db.size):
            orig = net.biases[li][i]
            net.biases[li][i] = orig + h
            up = np.dot(dL_dy, net.forward(x))
            net.biases[li][i] = orig - h
            dn = np.dot(dL_dy, net.forward(x))
            net.biases[li][i] = orig
            assert abs((up - dn) / (2 * h) - db[i]) < 1e-4 * max(1.0, abs(db[i]))


def test_gradients_do_not_mutate_network():
    net = MLPNetwork.seeded([2, 4, 1], seed=5)
    before = [w.copy() for w in net.weights]
    net.gradients(np.array([0.3, -0.2]), np.array([1.0]))
    for w, b in zip(net.weights, before):
        assert np.array_equal(w, b)


def _reference_single_grads(net, x, dL_dy):
    """Single-sample backprop with explicit outer products (the reference)."""
    acts = [x]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ acts[-1] + b
        acts.append(z if i == net.n_layers - 1 else np.tanh(z))
    grads = [None] * net.n_layers
    delta = dL_dy
    for i in range(net.n_layers - 1, -1, -1):
        grads[i] = (np.outer(delta, acts[i]), delta.copy())
        delta = net.weights[i].T @ delta
        if i > 0:
            delta = delta * (1.0 - acts[i] ** 2)
    return grads, delta


def test_vjp_batch_matches_per_sample_loop():
    net = MLPNetwork.seeded([3, 5, 4, 2], seed=21)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(7, 3))
    C = rng.normal(size=(7, 2))
    Y, pullback = net.vjp(X)
    grads, dX = pullback(C)
    assert np.array_equal(Y, net.forward(X))
    ref_dX = np.empty_like(X)
    ref_grads = [(np.zeros_like(w), np.zeros_like(b))
                 for w, b in zip(net.weights, net.biases)]
    for n in range(X.shape[0]):
        g, ref_dX[n] = _reference_single_grads(net, X[n], C[n])
        for (dw, db), (gw, gb) in zip(ref_grads, g):
            dw += gw
            db += gb
    np.testing.assert_allclose(dX, ref_dX, rtol=1e-12, atol=0)
    for (dw, db), (rw, rb) in zip(grads, ref_grads):
        np.testing.assert_allclose(dw, rw, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(db, rb, rtol=1e-12, atol=1e-15)
    # the input-only pullback gives the same input gradient and no weights
    none, dX_only = pullback(C, weights=False)
    assert none is None
    assert np.array_equal(dX_only, dX)


def test_vjp_single_sample_is_a_batch_of_one():
    net = MLPNetwork.seeded([3, 5, 2], seed=8)
    rng = np.random.default_rng(2)
    x, c = rng.normal(size=3), rng.normal(size=2)
    y, pullback = net.vjp(x)
    grads, dx = pullback(c)
    y1, pullback1 = net.vjp(x[None])
    grads1, dx1 = pullback1(c[None])
    assert y.shape == (2,) and dx.shape == (3,)
    assert np.array_equal(y, y1[0])
    assert np.array_equal(dx, dx1[0])
    for (dw, db), (dw1, db1) in zip(grads, grads1):
        assert np.array_equal(dw, dw1) and np.array_equal(db, db1)


def test_input_pullback_takes_a_batch_of_cotangents_for_one_sample():
    net = MLPNetwork.seeded([3, 6, 4], seed=3)
    x = np.array([0.2, -0.5, 0.9])
    C = np.random.default_rng(1).normal(size=(5, 4))
    _, pullback = net.vjp(x)
    _, J = pullback(C, weights=False)
    assert J.shape == (5, 3)
    for k in range(C.shape[0]):
        _, ref = _reference_single_grads(net, x, C[k])
        np.testing.assert_allclose(J[k], ref, rtol=1e-12, atol=0)
    # weight gradients need one cotangent per sample
    with pytest.raises(DimensionError):
        pullback(C)
    with pytest.raises(DimensionError):
        pullback(np.ones(3), weights=False)


def test_gradients_validates_single_sample():
    net = MLPNetwork.seeded([3, 5, 2], seed=2)
    with pytest.raises(DimensionError):
        net.gradients(np.ones(3), np.ones(3))
    with pytest.raises(DimensionError):
        net.gradients(np.ones((4, 3)), np.ones(2))


# -- training --------------------------------------------------------------


def _reference_train(net, X, Y, cfg):
    """Forward, batched weight gradients and SGD, one loop (the reference);
    returns the full-set loss after the last epoch."""
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = X[idx], Y[idx]
            acts = [xb]
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                z = acts[-1] @ w.T + b
                acts.append(z if i == net.n_layers - 1 else np.tanh(z))
            delta = 2.0 * (acts[-1] - yb) / (idx.size * Y.shape[1])
            grads = [None] * net.n_layers
            for i in range(net.n_layers - 1, -1, -1):
                grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
                if i > 0:
                    delta = (delta @ net.weights[i]) * (1.0 - acts[i] ** 2)
            for (w, b), (dw, db) in zip(zip(net.weights, net.biases), grads):
                w -= cfg.learning_rate * dw
                b -= cfg.learning_rate * db
    return mse_loss(net, X, Y)


def _train_data():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(70, 3))
    return X, np.stack([np.sin(X[:, 0]) * X[:, 1], X[:, 2] ** 2], axis=1)


def _shaped_data(n_rows, n_in, n_out, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n_rows, n_in))
    return X, np.tanh(X @ rng.normal(size=(n_in, n_out)))


def test_train_matches_reference_loop_bit_for_bit():
    # a small net, then h's and the dynamics net's shipped shapes and batch
    # sizes; each row count leaves a short last batch
    cases = [([3, 8, 6, 2], 16, 0.1, _train_data()),
             ([3, 64, 64, 2], 64, 0.3, _shaped_data(180, 3, 2, 1)),
             ([32, 64, 64, 25], 32, 0.05, _shaped_data(100, 32, 25, 2))]
    for sizes, batch, lr, (X, Y) in cases:
        cfg = TrainConfig(learning_rate=lr, batch_size=batch, epochs=15, seed=4)
        net = MLPNetwork.seeded(sizes, seed=7)
        ref = MLPNetwork.seeded(sizes, seed=7)
        loss = train(net, X, Y, cfg)
        assert np.array_equal(loss, [_reference_train(ref, X, Y, cfg)])
        for a, b in zip(net.weights + net.biases, ref.weights + ref.biases):
            assert np.array_equal(a, b)


def test_one_sample_forward_and_jacobian_match_old_expressions_bit_for_bit():
    # h's net with the EKF's H cotangents, and the MPC's folded net with its
    # J cotangents; the reference allocates a fresh array per operation
    for sizes, seed in (([3, 64, 64, 2], 1), ([25, 64, 64, 25], 2)):
        net = MLPNetwork.seeded(sizes, seed=seed)
        x = np.random.default_rng(seed).uniform(-1, 1, size=sizes[0])
        acts = [x]
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            acts.append(np.tanh(acts[-1] @ w.T + b))
        y = acts[-1] @ net.weights[-1].T + net.biases[-1]
        J = np.eye(sizes[-1])
        for i in range(net.n_layers - 1, -1, -1):
            J = J @ net.weights[i]
            if i > 0:
                J = J * (1.0 - acts[i] ** 2)
        assert np.array_equal(net.forward(x), y)
        y_vjp, pullback = net.vjp(x)
        assert np.array_equal(y_vjp, y)
        assert np.array_equal(pullback(np.eye(sizes[-1]), weights=False)[1], J)


def test_sgd_step_matches_old_expression_bit_for_bit():
    # the old step formed 2 (pred - Y) / Y.size in fresh arrays and ran the
    # whole pullback, the discarded input gradient included
    for sizes, rows, seed in (([4, 3], 5, 3), ([3, 64, 64, 2], 16, 1),
                              ([32, 64, 64, 25], 32, 2)):
        X, Y = _shaped_data(rows, sizes[0], sizes[-1], seed)
        net, ref = MLPNetwork.seeded(sizes, seed=seed), MLPNetwork.seeded(sizes, seed=seed)
        for _ in range(3):
            sgd_step(net, X, Y, 0.1)
            pred, pullback = ref.vjp(X)
            grads, _ = pullback(2.0 * (pred - Y) / Y.size)
            for (w, b), (dw, db) in zip(zip(ref.weights, ref.biases), grads):
                w -= 0.1 * dw
                b -= 0.1 * db
        for a, b in zip(net.weights + net.biases, ref.weights + ref.biases):
            assert np.array_equal(a, b)
        # without inputs, the pullback stops before dL/dx with the same grads
        cot = np.ones((rows, sizes[-1]))
        _, pullback = net.vjp(X)
        grads, dx = pullback(cot, inputs=False)
        assert dx is None
        for (dw, db), (rw, rb) in zip(grads, pullback(cot)[0]):
            assert np.array_equal(dw, rw) and np.array_equal(db, rb)


def test_train_runs_one_forward_per_batch_and_one_for_the_loss():
    X, Y = _train_data()
    net = MLPNetwork.seeded([3, 8, 2], seed=7)
    calls = []
    forward = net.forward

    def counting(x, acts=None):
        calls.append(np.shape(x)[0])
        return forward(x, acts)

    net.forward = counting
    loss = train(net, X, Y, TrainConfig(batch_size=16, epochs=15, seed=4))
    # 70 rows: four batches of 16 and one of 6 per epoch, then the full set
    assert calls == [16, 16, 16, 16, 6] * 15 + [70]
    assert loss.shape == (1,)


def test_exactly_fit_dataset_keeps_zero_loss():
    net = MLPNetwork([1, 1], [np.array([[2.0]])], [np.array([0.0])])
    X = np.array([[0.5], [-0.25], [1.0]])
    loss = train(net, X, 2.0 * X, TrainConfig(epochs=5, seed=0))
    assert np.array_equal(loss, [0.0])
    assert np.array_equal(net.weights[0], [[2.0]]) and np.array_equal(net.biases[0], [0.0])


def test_linear_target_converges():
    # oracle: least squares on y = 2x has zero residual, SGD must reach it
    net = MLPNetwork.seeded([1, 1], seed=0)
    X = np.linspace(-1, 1, 100)[:, None]
    loss = train(net, X, 2.0 * X,
                 TrainConfig(learning_rate=0.05, batch_size=32,
                             epochs=500, seed=0))
    assert loss[0] < 1e-6


def test_training_deterministic():
    runs = []
    for _ in range(2):
        net = MLPNetwork.seeded([2, 6, 1], seed=9)
        X = np.random.default_rng(1).uniform(-1, 1, size=(64, 2))
        Y = (X[:, :1] * X[:, 1:]).copy()
        runs.append((train(net, X, Y, TrainConfig(epochs=20, seed=9)), net))
    (loss_a, a), (loss_b, b) = runs
    assert np.array_equal(loss_a, loss_b)
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(wa, wb)


def test_train_rejects_bad_dataset():
    net = MLPNetwork.seeded([2, 1], seed=0)
    with pytest.raises(ValueError):
        train(net, np.empty((0, 2)), np.empty((0, 1)), TrainConfig())
    with pytest.raises(DimensionError):
        train(net, np.zeros((4, 2)), np.zeros((3, 1)), TrainConfig())
    with pytest.raises(DimensionError):
        train(net, np.zeros((4, 3)), np.zeros((4, 1)), TrainConfig())
    one = MLPNetwork.seeded([1, 1], seed=0)   # 1-D arrays are not read as columns
    with pytest.raises(DimensionError):
        train(one, np.zeros(4), np.zeros((4, 1)), TrainConfig())
    with pytest.raises(DimensionError):
        train(one, np.zeros((4, 1)), np.zeros(4), TrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


# -- scalers and serialization --------------------------------------------


def test_scaler_round_trip_and_scales():
    sc = FeatureScaler(np.array([-2.0, 0.0]), np.array([2.0, 10.0]))
    x = np.array([1.0, 7.5])
    assert np.allclose(sc.from_unit(sc.to_unit(x)), x)
    assert np.allclose(sc.to_unit(sc.lo), [-1, -1])
    assert np.allclose(sc.to_unit(sc.hi), [1, 1])
    assert np.allclose(sc.to_unit_scale() * sc.from_unit_scale(), 1.0)


def test_scaler_maps_match_old_expressions_bit_for_bit():
    # the old maps and scales each formed hi - lo afresh
    rng = np.random.default_rng(11)
    for n in (1, 3, 25):
        lo = rng.uniform(-5.0, 5.0, n)
        hi = lo + rng.uniform(0.01, 10.0, n)
        sc = FeatureScaler(lo, hi)
        x = rng.uniform(-10.0, 10.0, size=(7, n))
        assert np.array_equal(sc.to_unit(x), 2.0 * (x - lo) / (hi - lo) - 1.0)
        assert np.array_equal(sc.to_unit(x[0]), 2.0 * (x[0] - lo) / (hi - lo) - 1.0)
        assert np.array_equal(sc.from_unit(x), lo + (x + 1.0) * (hi - lo) / 2.0)
        assert np.array_equal(sc.to_unit_scale(), 2.0 / (hi - lo))
        assert np.array_equal(sc.from_unit_scale(), (hi - lo) / 2.0)


def test_scaler_arrays_are_read_only_copies():
    lo, hi = np.array([-2.0, 0.0]), np.array([2.0, 10.0])
    sc = FeatureScaler(lo, hi)
    net = MLPNetwork.seeded([2, 1], seed=0, in_scaler=sc)
    for s in (sc, copy.copy(sc), copy.deepcopy(sc), copy.deepcopy(net).in_scaler):
        for a in (s.lo, s.hi, s.to_unit_scale(), s.from_unit_scale()):
            assert not a.flags.writeable
        assert np.array_equal(s.lo, lo) and np.array_equal(s.hi, hi)
    # the caller's arrays stay the caller's: writeable, and not shared
    assert lo.flags.writeable and hi.flags.writeable
    lo[0] = -4.0
    assert sc.lo[0] == -2.0 and sc.to_unit(np.zeros(2))[0] == 0.0


def test_scaler_validation():
    with pytest.raises(ValueError):
        FeatureScaler(np.array([0.0]), np.array([0.0]))
    with pytest.raises(DimensionError):
        FeatureScaler(np.zeros(2), np.ones(3))


def test_serialization_round_trip_exact(tmp_path):
    sc_in = FeatureScaler(np.array([-1.0, 0.0]), np.array([1.0, 5.0]))
    sc_out = FeatureScaler(np.array([0.1]), np.array([0.3]))
    net = MLPNetwork.seeded([2, 4, 1], seed=13, in_scaler=sc_in, out_scaler=sc_out)
    path = tmp_path / "net.json"
    with open(path, "w") as fh:
        json.dump(net.to_dict(), fh)
    with open(path) as fh:
        back = MLPNetwork.from_dict(json.load(fh))
    for wa, wb in zip(net.weights, back.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(net.biases, back.biases):
        assert np.array_equal(ba, bb)
    x = np.array([0.2, 3.3])
    assert np.array_equal(net.forward(x), back.forward(x))
    assert np.array_equal(back.in_scaler.lo, sc_in.lo)
    assert np.array_equal(back.out_scaler.hi, sc_out.hi)


def test_from_dict_rejects_unknown_version():
    d = MLPNetwork.seeded([1, 1], seed=0).to_dict()
    d["version"] = 99
    with pytest.raises(ModelFormatError, match="version 99"):
        MLPNetwork.from_dict(d)


def test_to_dict_does_not_share_the_layer_sizes():
    net = MLPNetwork.seeded([2, 3, 1], seed=0)
    net.to_dict()["layer_sizes"].append(7)
    assert net.layer_sizes == [2, 3, 1]


def test_mse_loss_value():
    net = MLPNetwork([1, 1], [np.array([[1.0]])], [np.array([0.0])])
    X = np.array([[1.0], [2.0]])
    Y = np.array([[0.0], [0.0]])
    assert mse_loss(net, X, Y) == pytest.approx(2.5)
