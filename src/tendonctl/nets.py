"""Dense feed-forward networks with exact backpropagation.

Small numpy MLPs (tanh hidden layers, linear output) shared by the
intersensory and task-dynamics models.  Gradients are available with
respect to the weights *and* the inputs; input gradients are what the
command optimizer and the EKF observation Jacobian need.
"""

from dataclasses import dataclass

import numpy as np

from .documents import Document


class DimensionError(ValueError):
    """Raised on input/target dimension mismatch."""


@dataclass
class FeatureScaler:
    """Per-feature min-max map between physical units and [-1, 1].

    ``lo``, ``hi``, their span and both scales are built once, as read-only
    copies, so that no caller can make the span stale; copies and deep
    copies are built by the constructor and are read-only too.  The
    ``_floats`` maps take one sample as Python floats and give the same
    floats as the array maps: on a few features that skips numpy's fixed
    cost per call."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.array(self.lo, dtype=float)
        self.hi = np.array(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape:
            raise DimensionError("scaler lo/hi shape mismatch")
        if np.any(self.hi <= self.lo):
            raise ValueError("scaler ranges must have hi > lo")
        self._span = self.hi - self.lo
        self._to_unit = 2.0 / self._span
        self._from_unit = self._span / 2.0
        for a in (self.lo, self.hi, self._span, self._to_unit, self._from_unit):
            a.flags.writeable = False
        self._lo_span = list(zip(self.lo.tolist(), self._span.tolist()))

    def __reduce__(self):
        return FeatureScaler, (self.lo, self.hi)

    def to_unit(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.lo) / self._span - 1.0

    def from_unit(self, u):
        return self.lo + (np.asarray(u, dtype=float) + 1.0) * self._span / 2.0

    def to_unit_floats(self, x):
        return [2.0 * (v - lo) / span - 1.0 for v, (lo, span) in zip(x, self._lo_span)]

    def from_unit_floats(self, u):
        return [lo + (v + 1.0) * span / 2.0 for v, (lo, span) in zip(u, self._lo_span)]

    def to_unit_scale(self):
        """d(unit)/d(physical), per feature."""
        return self._to_unit

    def from_unit_scale(self):
        """d(physical)/d(unit), per feature."""
        return self._from_unit


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


class MLPNetwork(Document):
    """Fully-connected net: tanh on hidden layers, identity output.

    Weight matrix for layer i has shape (layer_sizes[i+1], layer_sizes[i]).
    Optional input/output scalers are carried with the network so that
    serialized models are self-contained.  The constructor raises
    DimensionError unless there are two or more layer sizes, each >= 1, one
    weight matrix and one bias vector of those shapes per layer, and each
    scaler is of its end's layer size.
    """

    KEYS = "layer_sizes weights biases input_range:in_scaler output_range:out_scaler"
    LEGACY, NAME = ("seed",), "net"   # older files carry the net's seed

    def __init__(self, layer_sizes: list[int], weights: list[np.ndarray],
                 biases: list[np.ndarray], in_scaler: FeatureScaler = None,
                 out_scaler: FeatureScaler = None):
        self.layer_sizes = [int(s) for s in layer_sizes]
        if len(self.layer_sizes) < 2 or min(self.layer_sizes) < 1:
            raise DimensionError(f"layer sizes {self.layer_sizes}: expected two or more, "
                                 f"each >= 1")
        if not len(weights) == len(biases) == len(self.layer_sizes) - 1:
            raise DimensionError(f"{len(self.layer_sizes) - 1} layers, but {len(weights)} "
                                 f"weight matrices and {len(biases)} bias vectors")
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.in_scaler = in_scaler
        self.out_scaler = out_scaler
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (self.layer_sizes[i + 1], self.layer_sizes[i])
            if w.shape != expect:
                raise DimensionError(
                    f"layer {i}: weight shape {w.shape}, expected {expect}")
            if b.shape != (self.layer_sizes[i + 1],):
                raise DimensionError(f"layer {i}: bias shape {b.shape}")
        for end, scaler, n in (("input", in_scaler, self.layer_sizes[0]),
                               ("output", out_scaler, self.layer_sizes[-1])):
            if scaler is not None and scaler.lo.shape != (n,):
                raise DimensionError(f"{end} scaler of shape {scaler.lo.shape}, "
                                     f"expected ({n},)")

    @classmethod
    def seeded(cls, layer_sizes, seed=0, in_scaler=None, out_scaler=None):
        """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(layer_sizes, weights, biases, in_scaler=in_scaler, out_scaler=out_scaler)

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
        # bias and tanh in place on each fresh matmul result
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = a @ w.T
            a += b
            np.tanh(a, out=a)
            acts.append(a)
        a = a @ self.weights[-1].T
        a += self.biases[-1]
        acts.append(a)
        return a

    def vjp(self, x):
        """Output at x (one sample or a batch on the leading axis) and its
        pullback ``(dL_dy, weights=True, inputs=True) -> (weight_grads or
        None, dL_dx or None)``; weight_grads are (dW, db) per layer summed
        over the batch.  Without weights, one sample's pullback takes a batch
        of cotangents too.  The pullback reads no more of y than its shape,
        so a caller may form its cotangent in y's array."""
        acts = []
        y = self.forward(x, acts)

        def pullback(dL_dy, weights=True, inputs=True):
            delta = np.asarray(dL_dy, dtype=float)
            if delta.shape[-1] != self.layer_sizes[-1] or (
                    weights and delta.shape != y.shape):
                raise DimensionError("cotangent dimension mismatch")
            grads = [None] * self.n_layers if weights else None
            one = delta.ndim == 1
            for i in range(self.n_layers - 1, -1, -1):
                if weights:
                    d2, a2 = (delta[None], acts[i][None]) if one else (delta, acts[i])
                    grads[i] = (d2.T @ a2, np.add.reduce(d2, axis=0))
                if i == 0 and not inputs:
                    return grads, None
                delta = delta @ self.weights[i]
                if i > 0:   # times the tanh slope 1 - a^2, in place on fresh arrays
                    slope = np.square(acts[i])
                    delta *= np.subtract(1.0, slope, out=slope)
            return grads, delta

        return y, pullback

    def gradients(self, x, dL_dy):
        """(weight_grads, dL/dx) at one input x: the validated one-sample vjp."""
        if np.ndim(x) != 1 or np.shape(dL_dy) != (self.layer_sizes[-1],):
            raise DimensionError("gradients takes one sample and its cotangent")
        return self.vjp(x)[1](dL_dy)


def mse_loss(net, X, Y):
    pred = net.forward(X)
    return float(np.mean((pred - Y) ** 2))


def sgd_step(net, X, Y, lr):
    """One in-place SGD step at rate ``lr`` on the mean-squared error of the
    batch (X, Y), over every layer's weights and biases."""
    err, pullback = net.vjp(X)
    err -= Y          # 2 (pred - Y) / Y.size, formed in the prediction's array
    err *= 2.0
    err /= Y.size
    grads, _ = pullback(err, inputs=False)
    for (w, b), (dw, db) in zip(zip(net.weights, net.biases), grads):
        dw *= lr
        w -= dw
        db *= lr
        b -= db


def train(net, inputs, targets, cfg):
    """Minibatch SGD on mean-squared error, in place.

    Returns the MSE over the full dataset after the last epoch, as a
    one-entry array (``perfbench/tracing.py`` counts its entries).
    Deterministic for a fixed seed.
    """
    X = np.asarray(inputs, dtype=float)
    Y = np.asarray(targets, dtype=float)
    if not (X.ndim == Y.ndim == 2 and X.shape[1] == net.layer_sizes[0]
            and Y.shape[1] == net.layer_sizes[-1]):
        raise DimensionError("dataset dimensions do not match the network")
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    if X.shape[0] != Y.shape[0]:
        raise DimensionError("inputs/targets length mismatch")

    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            sgd_step(net, X[idx], Y[idx], cfg.learning_rate)
    return np.array([mse_loss(net, X, Y)])


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
