"""Dense feed-forward networks with exact backpropagation.

Small numpy MLPs (tanh hidden layers, linear output) shared by the
intersensory and task-dynamics models.  Gradients are available with
respect to the weights *and* the inputs; input gradients are what the
command optimizer and the EKF observation Jacobian need.
"""

import json
from dataclasses import dataclass

import numpy as np

VERSION = 1


class DimensionError(ValueError):
    """Raised on input/target dimension mismatch."""


class ModelVersionError(ValueError):
    """Raised when a persisted model carries an unsupported version."""


def check_version(d):
    """Reject a persisted model document written under another VERSION."""
    if d.get("version") != VERSION:
        raise ModelVersionError(f"unsupported model version {d.get('version')}")


class JSONPersisted:
    """JSON file ``save``/``load`` through the class's ``to_dict``/``from_dict``."""

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class FeatureScaler:
    """Per-feature min-max map between physical units and [-1, 1]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape:
            raise DimensionError("scaler lo/hi shape mismatch")
        if np.any(self.hi <= self.lo):
            raise ValueError("scaler ranges must have hi > lo")

    def to_unit(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo) - 1.0

    def from_unit(self, u):
        return self.lo + (np.asarray(u, dtype=float) + 1.0) * (self.hi - self.lo) / 2.0

    def to_unit_scale(self):
        """d(unit)/d(physical), per feature."""
        return 2.0 / (self.hi - self.lo)

    def from_unit_scale(self):
        """d(physical)/d(unit), per feature."""
        return (self.hi - self.lo) / 2.0


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


class MLPNetwork:
    """Fully-connected net: tanh on hidden layers, identity output.

    Weight matrix for layer i has shape (layer_sizes[i+1], layer_sizes[i]).
    Optional input/output scalers are carried with the network so that
    serialized models are self-contained.
    """

    def __init__(self, layer_sizes, weights, biases, seed=0,
                 in_scaler=None, out_scaler=None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layer")
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.seed = int(seed)
        self.in_scaler = in_scaler
        self.out_scaler = out_scaler
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (self.layer_sizes[i + 1], self.layer_sizes[i])
            if w.shape != expect:
                raise DimensionError(
                    f"layer {i}: weight shape {w.shape}, expected {expect}")
            if b.shape != (self.layer_sizes[i + 1],):
                raise DimensionError(f"layer {i}: bias shape {b.shape}")

    @classmethod
    def seeded(cls, layer_sizes, seed=0, in_scaler=None, out_scaler=None):
        """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(layer_sizes, weights, biases, seed=seed,
                   in_scaler=in_scaler, out_scaler=out_scaler)

    @property
    def n_layers(self):
        return len(self.weights)

    def _check_input(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.layer_sizes[0]:
            raise DimensionError(
                f"input dimension {x.shape[-1]}, expected {self.layer_sizes[0]}")
        return x

    def forward(self, x, acts=None):
        """Output at x; a list ``acts`` receives x and each layer's activation."""
        a = self._check_input(x)
        acts = [] if acts is None else acts
        acts.append(a)
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.tanh(a @ w.T + b)
            acts.append(a)
        a = a @ self.weights[-1].T + self.biases[-1]
        acts.append(a)
        return a

    def vjp(self, x):
        """Output at x (one sample or a batch on the leading axis) and its
        pullback ``(dL_dy, weights=True) -> (weight_grads or None, dL_dx)``;
        weight_grads are (dW, db) per layer summed over the batch.  Without
        weights, one sample's pullback takes a batch of cotangents too."""
        acts = []
        y = self.forward(x, acts)

        def pullback(dL_dy, weights=True):
            delta = np.asarray(dL_dy, dtype=float)
            if delta.shape[-1] != self.layer_sizes[-1] or (
                    weights and delta.shape != y.shape):
                raise DimensionError("cotangent dimension mismatch")
            grads = [None] * self.n_layers if weights else None
            for i in range(self.n_layers - 1, -1, -1):
                if weights:
                    d2 = np.atleast_2d(delta)
                    grads[i] = (d2.T @ np.atleast_2d(acts[i]), d2.sum(axis=0))
                delta = delta @ self.weights[i]
                if i > 0:
                    delta = delta * (1.0 - acts[i] ** 2)
            return grads, delta

        return y, pullback

    def gradients(self, x, dL_dy):
        """(weight_grads, dL/dx) at one input x: the validated one-sample vjp."""
        if np.ndim(x) != 1 or np.shape(dL_dy) != (self.layer_sizes[-1],):
            raise DimensionError("gradients takes one sample and its cotangent")
        return self.vjp(x)[1](dL_dy)

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        d = {
            "version": VERSION,
            "layer_sizes": self.layer_sizes,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "seed": self.seed,
        }
        if self.in_scaler is not None:
            d["input_range"] = {"lo": self.in_scaler.lo.tolist(),
                                "hi": self.in_scaler.hi.tolist()}
        if self.out_scaler is not None:
            d["output_range"] = {"lo": self.out_scaler.lo.tolist(),
                                 "hi": self.out_scaler.hi.tolist()}
        return d

    @classmethod
    def from_dict(cls, d):
        check_version(d)
        in_s = out_s = None
        if "input_range" in d:
            in_s = FeatureScaler(np.array(d["input_range"]["lo"]),
                                 np.array(d["input_range"]["hi"]))
        if "output_range" in d:
            out_s = FeatureScaler(np.array(d["output_range"]["lo"]),
                                  np.array(d["output_range"]["hi"]))
        return cls(d["layer_sizes"],
                   [np.array(w) for w in d["weights"]],
                   [np.array(b) for b in d["biases"]],
                   seed=d.get("seed", 0), in_scaler=in_s, out_scaler=out_s)


def mse_loss(net, X, Y):
    pred = net.forward(X)
    return float(np.mean((pred - Y) ** 2))


def sgd_step(net, weight_grads, lr):
    """One in-place gradient step on every layer's weights and biases."""
    for (w, b), (dw, db) in zip(zip(net.weights, net.biases), weight_grads):
        w -= lr * dw
        b -= lr * db


def train(net, inputs, targets, cfg):
    """Minibatch SGD on mean-squared error, in place.

    Returns the loss history (one MSE over the full dataset per epoch,
    recorded after that epoch's updates).  Deterministic for a fixed seed.
    """
    X = np.asarray(inputs, dtype=float)
    Y = np.asarray(targets, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    if X.shape[0] != Y.shape[0]:
        raise DimensionError("inputs/targets length mismatch")
    if X.shape[1] != net.layer_sizes[0] or Y.shape[1] != net.layer_sizes[-1]:
        raise DimensionError("dataset dimensions do not match the network")

    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    out_dim = Y.shape[1]
    history = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = X[idx], Y[idx]
            pred, pullback = net.vjp(xb)
            grads, _ = pullback(2.0 * (pred - yb) / (idx.size * out_dim))
            sgd_step(net, grads, cfg.learning_rate)
        history[epoch] = mse_loss(net, X, Y)
    return history


def finite_difference_input_grad(net, x, dL_dy, h=1e-5):
    """Central finite differences of <dL_dy, forward(x)> w.r.t. x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (np.dot(dL_dy, net.forward(xp)) - np.dot(dL_dy, net.forward(xm))) / (2 * h)
    return g
