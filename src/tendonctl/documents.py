"""The package's documents (the config, the body description, the one model
file, the dynamics model's, and the rollout archive): one typed reader, one
version rule, and the ``Document`` base that writes and reads a model file by
its class constants.  It imports no other module of the package."""

import dataclasses
import inspect
import json
import sys
import typing

import numpy as np

VERSION = 1   # of every document: a config, a body description, a model, a rollout

TRAIN_KEYS = "learning_rate batch_size epochs"   # a config's "train" object


class DocumentError(ValueError):
    """Raised when a document does not describe what it is read into, at a key path."""


def as_object(value, path):
    if not isinstance(value, dict):
        raise DocumentError(f"{path}: expected an object, got {type(value).__name__}")
    return dict(value)


def checked(path, value, kind, positive):
    """``value`` if it is a JSON ``kind``, else DocumentError.  A kind with a
    ``from_dict`` reads its own object, a dataclass kind is an object read by
    read; ``tuple[...]`` is an array of one item per kind and ``list[...]``
    one of zero or more, read into a tuple or a list; ``np.ndarray`` is
    numbers (not booleans) nested to any depth, all finite, read into a
    float array in one pass over the leaves."""
    if hasattr(kind, "from_dict"):
        return kind.from_dict(value, path)
    if dataclasses.is_dataclass(kind):
        return read(value, path, kind)
    if kind is np.ndarray:
        try:   # a JSON list as an array of its leaves, ragged nesting leaves lists
            a = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
            leaves = {float} if a.dtype.kind in "iuf" else set(map(type, a.flat))
            a = a.astype(float) if leaves <= {int, float} else None
        except (TypeError, ValueError, OverflowError):   # a huge int
            a = None
        if a is None or not np.isfinite(a).all():
            raise DocumentError(f"{path}: expected an array of finite numbers")
        return a
    array, kinds = typing.get_origin(kind), typing.get_args(kind)
    if array:
        items = checked(path, value, list, False)
        if array is list:
            kinds *= len(items)
        if len(items) != len(kinds):
            raise DocumentError(f"{path}: expected {len(kinds)} items, got {items}")
        return array(checked(f"{path}[{i}]", v, k, positive)
                     for i, (v, k) in enumerate(zip(items, kinds)))
    types = {float: (int, float), int: int, str: str, list: list}
    ok = isinstance(value, types.get(kind, ())) and not isinstance(value, bool)
    if ok and kind in (int, float):   # finite as a float: no NaN, inf or huge int
        ok = abs(value) <= sys.float_info.max and (value > 0 or not positive)
    if not ok:
        raise DocumentError(f"{path}: expected {kind.__name__}{' > 0' * positive}, "
                            f"got {value!r}")
    return value


def take(section, path, target, keys, positive, seed=0):
    """Pop the keyword arguments ``keys`` of ``target`` (all by default) from an
    object, each as "key" or "key:parameter" and checked against the type of
    its parameter's annotation or default.  A ``train`` key's TrainConfig,
    its parameter's annotation, holds TRAIN_KEYS and takes ``seed``."""
    params = inspect.signature(target).parameters
    kwargs = {}
    for name in keys.split() if keys else params:
        key, _, param = name.partition(":")
        p, at = params[param or key], f"{path}.{key}"
        if key not in section:
            if p.default is p.empty:
                raise DocumentError(f"{at}: missing")
            kwargs[p.name] = p.default
        elif key == "train":
            kwargs[p.name] = dataclasses.replace(
                read(section.pop(key), at, p.annotation, TRAIN_KEYS), seed=seed)
        else:
            kind = type(p.default) if p.annotation is p.empty else p.annotation
            kwargs[p.name] = checked(at, section.pop(key), kind, positive)
    return kwargs


def done(section, path):
    if section:
        raise DocumentError(f"{path}{sorted(section)[0]}: unknown key")


def build(path, cls, kwargs):
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"{path}: {exc}") from exc


def read(value, path, cls, keys=None):
    """A ``cls`` built from the JSON object ``value``, which holds ``keys``
    (all of ``cls``'s parameters by default) and no other key."""
    section = as_object(value, path)
    kwargs = take(section, path, cls, keys, False)
    done(section, f"{path}.")
    return build(path, cls, kwargs)


def versioned(doc, path, *legacy):
    """The object ``doc`` without its version and the ``legacy`` entries older
    documents carry; DocumentError unless its version is the integer VERSION."""
    section = as_object(doc, path)
    version = checked(f"{path}.version", section.pop("version", None), int, False)
    if version != VERSION:
        raise DocumentError(f"{path}.version: expected {VERSION}, got {version}")
    return {k: v for k, v in section.items() if k not in legacy}


def load_json(path):
    """The JSON document in the file ``path``; DocumentError if it is not JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:   # not JSON, not UTF-8, too deep
            raise DocumentError(f"{path}: invalid JSON ({exc})") from exc


def _plain(value):
    """``value`` as JSON: a Document by its keys, a dataclass by its fields."""
    if isinstance(value, Document):
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class Document:
    """A class saved as one versioned JSON object by its constants: ``KEYS``
    in file order, each "key" or "key:attribute", the attribute also the
    constructor's parameter; ``LEGACY``, entries of older files, dropped on
    reading; ``NAME``, its path in errors.  A None attribute is left out."""

    KEYS, LEGACY, NAME = "", (), "document"

    def to_dict(self):
        entries = (name.partition(":") for name in self.KEYS.split())
        values = {key: getattr(self, attr or key) for key, _, attr in entries}
        return {"version": VERSION, **{k: _plain(v) for k, v in values.items() if v is not None}}

    @classmethod
    def from_dict(cls, d, path=None):
        """The ``cls`` of a ``to_dict`` document.  Raises DocumentError."""
        path = path or cls.NAME
        return read(versioned(d, path, *cls.LEGACY), path, cls, cls.KEYS)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path):
        return cls.from_dict(load_json(path))
