"""Canonical JSON helpers and leaf-value (symbol and weight) file I/O.

Output determinism contract: same inputs produce byte-identical files.  That
means sorted keys, fixed separators, eager conversion of numpy scalars and
arrays to plain Python, shortest-round-trip float repr (json's default), no
timestamps, and non-finite floats mapped to null.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import depth_of, leaf_values
from .weights import Weight

__all__ = [
    "to_jsonable",
    "dumps_canonical",
    "write_json",
    "read_json",
    "save_step_function",
    "load_step_function",
    "load_weight",
]


def to_jsonable(obj):
    """Recursively convert to plain JSON-serializable Python values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.ndarray):
        # one tolist() unless a non-finite float (-> null) or an object needs each entry
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if hasattr(obj, "to_dict"):
        return to_jsonable(obj.to_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps_canonical(obj), encoding="utf-8")


def read_json(path: str | Path):
    p = Path(path)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read {p}: {e}") from e
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError(f"{p} is not valid JSON: {e}") from e


def save_step_function(path: str | Path, values: np.ndarray, role: str,
                       spec: dict | None = None) -> None:
    """Write a leaf-value file.  role is "weight" or "symbol" (documentation of
    intent; load_weight enforces positivity regardless)."""
    doc = {
        "type": role,
        "depth": depth_of(values),
        "values": values,
    }
    if spec is not None:
        doc["spec"] = spec
    write_json(path, doc)


def load_step_function(path: str | Path) -> np.ndarray:
    """The checked leaf values (grid.leaf_values) of a leaf-value file."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object with depth and values")
    for key in ("depth", "values"):
        if key not in doc:
            raise ConfigError(f"{path}: missing field {key!r}")
    depth, values = doc["depth"], doc["values"]
    # type(), not isinstance(): JSON true and false load as bool, an int subclass
    if type(depth) is not int:
        raise ConfigError(f"{path}: depth must be a JSON integer, got {depth!r}")
    # one C-level pass over the leaves: the set of their exact types
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise ConfigError(f"{path}: values must be a list of JSON numbers")
    try:
        return leaf_values(values, depth)
    except (TypeError, ValueError, OverflowError) as e:  # overflow: a huge JSON integer
        raise ConfigError(f"{path}: {e}") from e


def load_weight(path: str | Path) -> Weight:
    try:
        return Weight(load_step_function(path))
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e
