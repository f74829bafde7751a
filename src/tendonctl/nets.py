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


class ModelFormatError(ValueError):
    """Raised when a persisted model document does not describe a usable model."""


def check_version(d):
    """Reject a persisted model document that is not a JSON object written
    under this VERSION."""
    if not isinstance(d, dict):
        raise ModelFormatError(f"model document: expected an object, got {type(d).__name__}")
    if d.get("version") != VERSION:
        raise ModelFormatError(f"unsupported model version {d.get('version')}")


_JSON_KINDS = {int: "an integer", list: "an array", dict: "an object"}


def field(d, key, kind, where):
    """``d[key]`` of the object ``d`` if it is a JSON ``kind`` (int, list or
    dict), else ModelFormatError."""
    if key not in d:
        raise ModelFormatError(f"{where}: missing key {key!r}")
    value = d[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ModelFormatError(f"{where}.{key}: expected {_JSON_KINDS[kind]}, "
                               f"got {type(value).__name__}")
    return value


def finite_array(value, shape, where):
    """``value`` as a float array of ``shape`` holding finite numbers only,
    else ModelFormatError."""
    try:
        a = np.array(value)
    except (TypeError, ValueError, OverflowError):   # ragged nesting
        a = None
    if a is None or a.dtype.kind not in "iuf":
        raise ModelFormatError(f"{where}: expected an array of numbers")
    if a.shape != shape:
        raise ModelFormatError(f"{where}: shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ModelFormatError(f"{where}: non-finite number")
    return a.astype(float)


class JSONPersisted:
    """JSON file ``save``/``load`` through the class's ``to_dict``/``from_dict``."""

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:   # not JSON, not UTF-8, too deep
                raise ModelFormatError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(doc)


@dataclass
class FeatureScaler:
    """Per-feature min-max map between physical units and [-1, 1].

    ``lo``, ``hi``, their span and both scales are built once, as read-only
    copies, so that no caller can make the span stale; copies and deep
    copies are built by the constructor and are read-only too."""

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

    def __reduce__(self):
        return FeatureScaler, (self.lo, self.hi)

    def to_unit(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.lo) / self._span - 1.0

    def from_unit(self, u):
        return self.lo + (np.asarray(u, dtype=float) + 1.0) * self._span / 2.0

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


class MLPNetwork:
    """Fully-connected net: tanh on hidden layers, identity output.

    Weight matrix for layer i has shape (layer_sizes[i+1], layer_sizes[i]).
    Optional input/output scalers are carried with the network so that
    serialized models are self-contained.
    """

    def __init__(self, layer_sizes, weights, biases, in_scaler=None, out_scaler=None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layer")
        self.layer_sizes = [int(s) for s in layer_sizes]
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

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        d = {
            "version": VERSION,
            "layer_sizes": list(self.layer_sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
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
        """The net of a ``to_dict`` document; a ``"seed"`` entry, which older
        documents carry, is not read.  Raises ModelFormatError unless there
        are two or more positive layer sizes, the weights and biases chain
        them, every number is finite and each scaler has hi > lo over its
        end's layer."""
        check_version(d)
        sizes = field(d, "layer_sizes", list, "net")
        if len(sizes) < 2 or not all(type(n) is int and n > 0 for n in sizes):
            raise ModelFormatError(f"net.layer_sizes: expected two or more positive "
                                   f"integers, got {sizes}")
        shapes = list(zip(sizes[1:], sizes[:-1]))
        weights, biases = field(d, "weights", list, "net"), field(d, "biases", list, "net")
        if len(weights) != len(shapes) or len(biases) != len(shapes):
            raise ModelFormatError(f"net: {len(shapes)} layers, but {len(weights)} weight "
                                   f"matrices and {len(biases)} bias vectors")
        weights = [finite_array(w, s, f"net.weights[{i}]")
                   for i, (w, s) in enumerate(zip(weights, shapes))]
        biases = [finite_array(b, s[:1], f"net.biases[{i}]")
                  for i, (b, s) in enumerate(zip(biases, shapes))]
        return cls(sizes, weights, biases, _scaler(d, "input_range", sizes[0]),
                   _scaler(d, "output_range", sizes[-1]))


def _scaler(d, key, n):
    """The scaler of the net document's ``d[key]`` over n features, or None
    without one; else ModelFormatError."""
    if key not in d:
        return None
    r = field(d, key, dict, "net")
    lo, hi = (finite_array(field(r, end, list, f"net.{key}"), (n,), f"net.{key}.{end}")
              for end in ("lo", "hi"))
    try:
        return FeatureScaler(lo, hi)
    except ValueError as exc:   # hi <= lo
        raise ModelFormatError(f"net.{key}: {exc}") from None


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
