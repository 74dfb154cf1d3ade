"""Weights on the dyadic grid: interval averages, A2 characteristic, ensembles.

A weight is a strictly positive step function that stores one heap (grid's
layout) of its interval averages: grid.level_masses' masses scaled by 2^k,
so a parent's mass is the sum of its children's exactly, and the masses
np.ldexp(w.averages, -k) (w.masses on levels 0..D-1) are bitwise
level_masses(w.values).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError, EnsembleTargetError
from .grid import (
    MAX_GRID_DEPTH,
    depth_of,
    heap_scales,
    leaf_values,
    level,
    level_masses,
    synthesize_leaves,
)

__all__ = [
    "Weight",
    "a2_characteristic",
    "EnsembleSpec",
    "generate",
    "WEIGHT_KINDS",
    "SYMBOL_KINDS",
    "KIND_FIELDS",
]


class Weight:
    """A strictly positive step function with its interval averages.

    values are its checked leaf values (grid.leaf_values) and depth their
    depth.  averages is the read-only heap of 2^{D+1} interval averages:
    averages[2^k + j] is <w>_I at the level-k interval at position j, for
    0 <= k <= D (entry 0 repeats the root's), and values is its leaf level,
    a view.
    """

    __slots__ = ("values", "depth", "averages", "__dict__")

    def __init__(self, values):
        values = leaf_values(values)
        if np.any(values <= 0.0):
            raise ValueError("weights must be strictly positive on every leaf")
        with np.errstate(over="ignore"):
            if not np.isfinite(1.0 / values).all():
                raise ValueError("weight leaves must have finite reciprocals (not subnormal)")
        self.depth = depth_of(values)
        n = values.size
        self.averages = level_masses(values)
        np.ldexp(self.averages[:n], heap_scales(n).levels, out=self.averages[:n])
        self.averages[n:] = values
        self.averages.setflags(write=False)
        self.values = self.averages[n:]

    @property
    def total_mass(self) -> float:
        return float(self.averages[1])

    @property
    def masses(self) -> np.ndarray:
        """w(I) on coefficient levels 0..D-1 (entry 0 the root's), bitwise
        level_masses(values)[:2^D]; derived on each read, not kept."""
        n = 1 << self.depth
        return np.ldexp(self.averages[:n], -heap_scales(n).levels)

    @cached_property
    def inverse(self) -> "Weight":
        """The weight 1/w (cached)."""
        return Weight(1.0 / self.values)

    def __repr__(self):
        return f"Weight(depth={self.depth}, total_mass={self.total_mass!r})"


def a2_characteristic(w: Weight) -> float:
    """[w]_{A2} = sup over dyadic I of <w>_I <w^{-1}>_I.

    Always >= 1 by Cauchy-Schwarz, with equality iff w is constant.  The sup
    runs over every level including the leaves (where the product is exactly 1
    for step weights, so leaves never dominate but are included for form).
    """
    return max(1.0, float((w.averages * w.inverse.averages).max()))


WEIGHT_KINDS = ("constant", "two-value", "power", "cascade")
SYMBOL_KINDS = ("log-symbol", "haar-sparse-symbol")
# the recipe fields each kind reads (from_dict refuses others), besides kind, depth, seed, a2_range
KIND_FIELDS = {
    "constant": ("values",),
    "two-value": ("values",),
    "power": ("alpha", "center"),
    "cascade": ("delta",),
    "log-symbol": ("delta",),
    "haar-sparse-symbol": ("sparsity",),
}
# draws an a2_range target gets before generate gives up
_A2_ATTEMPTS = 64


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for one seeded random weight or symbol.

    kind:
      constant            -- weight identically values[0]
      two-value           -- iid choice among `values` per leaf
      power               -- leaf averages of |x - center|^alpha (exact)
      cascade             -- multiplicative cascade, sibling factors (1 +- u*delta)
      log-symbol          -- log of a fresh cascade weight (a BMO-type symbol)
      haar-sparse-symbol  -- sparse Haar series, N(0,1) * |I|^{1/2} coefficients

    a2_range (weights only) retries generation until [w]_{A2} lands inside the
    closed range, drawing up to 64 times from one rng stream; deterministic
    kinds get a single attempt.
    """

    kind: str
    depth: int
    seed: int = 0
    alpha: float = 0.0
    delta: float = 0.4
    sparsity: float = 0.1
    values: tuple[float, ...] = (1.0, 4.0)
    center: float = 0.5
    a2_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS + SYMBOL_KINDS:
            raise ConfigError(f"unknown ensemble kind {self.kind!r}")
        if not 1 <= self.depth <= MAX_GRID_DEPTH:
            raise ConfigError(f"depth must be in [1, {MAX_GRID_DEPTH}], got {self.depth}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("alpha", "delta", "sparsity", "center"):
            _check_finite(name, getattr(self, name))
        if not isinstance(self.values, tuple):
            raise ConfigError(f"values must be a list of numbers, got {self.values!r}")
        _check_finite("values", *self.values)
        if self.kind == "power" and not -1.0 < self.alpha < 1.0:
            raise ConfigError(f"power exponent must be in (-1, 1), got {self.alpha}")
        if "delta" in KIND_FIELDS[self.kind] and not 0.0 < self.delta < 1.0:
            raise ConfigError(f"cascade delta must be in (0, 1), got {self.delta}")
        if self.kind == "haar-sparse-symbol" and not 0.0 < self.sparsity <= 1.0:
            raise ConfigError(f"sparsity must be in (0, 1], got {self.sparsity}")
        if "values" in KIND_FIELDS[self.kind]:
            if not self.values or any(v <= 0 for v in self.values):
                raise ConfigError("constant/two-value kinds need positive values")
            if self.kind == "two-value" and len(self.values) < 2:
                raise ConfigError("two-value kind needs at least two values")
        if self.a2_range is not None:
            if self.kind in SYMBOL_KINDS:
                raise ConfigError("a2_range applies only to weight kinds")
            lo, hi = self.a2_range
            _check_finite("a2_range", lo, hi)
            if not (1.0 <= lo <= hi):
                raise ConfigError(f"a2_range must satisfy 1 <= lo <= hi, got {self.a2_range}")

    def to_dict(self) -> dict:
        d = {n: getattr(self, n) for n in ("kind", "depth", "seed", *KIND_FIELDS[self.kind])}
        if "values" in d:
            d["values"] = list(self.values)
        if self.a2_range is not None:
            d["a2_range"] = list(self.a2_range)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleSpec":
        if not isinstance(d, dict):
            raise ConfigError(f"ensemble spec must be an object, got {type(d).__name__}")
        if "kind" not in d or "depth" not in d:
            raise ConfigError("ensemble spec needs at least 'kind' and 'depth'")
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown ensemble spec fields: {sorted(extra)}")
        if d["kind"] in WEIGHT_KINDS + SYMBOL_KINDS:
            unread = set(d) - {"kind", "depth", "seed", "a2_range", *KIND_FIELDS[d["kind"]]}
            if unread:
                raise ConfigError(f"kind {d['kind']!r} does not read {sorted(unread)}")
        kw = dict(d)
        kw["depth"] = integer_field("depth", kw["depth"])
        if "seed" in kw:
            kw["seed"] = integer_field("seed", kw["seed"])
        if isinstance(kw.get("values"), list):
            kw["values"] = tuple(kw["values"])
        if kw.get("a2_range") is not None:
            r = kw["a2_range"]
            if not isinstance(r, list) or len(r) != 2:
                raise ConfigError("a2_range must be a [lo, hi] pair")
            kw["a2_range"] = tuple(r)
        return cls(**kw)


def integer_field(name: str, v) -> int:
    """An integer field read from JSON, as an int: a float counts only with
    an integral value (4.0), and a string or a bool never (ConfigError)."""
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {v!r}")
    return v


def _check_finite(name: str, *vs) -> None:
    for v in vs:
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise ConfigError(f"{name} must be a finite number, got {v!r}")


def _power_leaf_averages(depth: int, alpha: float, center: float) -> np.ndarray:
    # Exact leaf averages of |x - center|^alpha via the antiderivative
    # H(t) = sign(t) |t|^{alpha+1} / (alpha+1); handles leaves straddling the
    # singularity without quadrature.
    n = 1 << depth
    edges = np.arange(n + 1, dtype=np.float64) * (2.0**-depth) - center
    p = alpha + 1.0
    anti = np.sign(edges) * np.abs(edges) ** p / p
    return np.diff(anti) * n


def _cascade_values(depth: int, delta: float, rng: np.random.Generator) -> np.ndarray:
    # Per level, 2^k draws u then 2^k bits: an interval's children get the
    # factors (1 + x, 1 - x), x = u delta, or -u delta where its bit is 1.
    # random is uniform(0, 1) bit for bit, and a sign flip is exact, so
    # u * -delta is -(u delta).
    signed = np.array([delta, -delta])
    u = np.empty(max((1 << depth) >> 1, 1))
    vals = np.ones(1)
    for k in range(depth):
        rng.random(out=u[: 1 << k])
        x = signed[rng.integers(0, 2, size=1 << k)]
        x *= u[: 1 << k]
        children = np.empty((1 << k, 2))
        np.add(1.0, x, out=children[:, 0])
        np.subtract(1.0, x, out=children[:, 1])
        children *= vals[:, None]
        vals = children.reshape(-1)
    return vals


def _sparse_symbol_values(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    depth = spec.depth
    coeffs = np.zeros(1 << depth)
    any_active = False
    for k in range(depth):
        mask = rng.random(1 << k) < spec.sparsity
        gauss = rng.standard_normal(1 << k)
        level(coeffs, k)[...] = np.where(mask, gauss * (2.0 ** (-k / 2.0)), 0.0)
        any_active = any_active or bool(mask.any())
    if not any_active:
        # force one interval so the symbol is never identically zero: heap
        # entry f sits on level k = floor(log2 f)
        f = int(rng.integers((1 << depth) - 1)) + 1
        coeffs[f] = float(rng.standard_normal()) * (2.0 ** (-(f.bit_length() - 1) / 2.0))
    return synthesize_leaves(coeffs)


def _generate_once(spec: EnsembleSpec, rng: np.random.Generator):
    n = 1 << spec.depth
    if spec.kind == "constant":
        return Weight(np.full(n, float(spec.values[0])))
    if spec.kind == "two-value":
        return Weight(rng.choice(np.asarray(spec.values, dtype=np.float64), size=n))
    if spec.kind == "power":
        return Weight(_power_leaf_averages(spec.depth, spec.alpha, spec.center))
    if spec.kind == "cascade":
        return Weight(_cascade_values(spec.depth, spec.delta, rng))
    if spec.kind == "log-symbol":
        return leaf_values(np.log(_cascade_values(spec.depth, spec.delta, rng)))
    if spec.kind == "haar-sparse-symbol":
        return leaf_values(_sparse_symbol_values(spec, rng))
    raise ConfigError(f"unknown ensemble kind {spec.kind!r}")


def generate(spec: EnsembleSpec):
    """Generate the weight or symbol described by spec, deterministically.

    Returns a Weight for weight kinds and, for symbol kinds, the symbol's
    checked leaf values (grid.leaf_values).
    With a2_range set, regenerates from the same stream until the A2
    characteristic lands in range, up to _A2_ATTEMPTS attempts.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.a2_range is None:
        return _generate_once(spec, rng)
    deterministic = spec.kind in ("constant", "power")
    attempts = 1 if deterministic else _A2_ATTEMPTS
    lo, hi = spec.a2_range
    achieved = []
    for _ in range(attempts):
        w = _generate_once(spec, rng)
        a2 = a2_characteristic(w)
        if lo <= a2 <= hi:
            return w
        achieved.append(a2)
    raise EnsembleTargetError(
        f"kind {spec.kind!r} (seed {spec.seed}, depth {spec.depth}) missed "
        f"a2_range [{lo}, {hi}] after {attempts} attempt(s); achieved "
        f"characteristics ranged over [{min(achieved):.6g}, {max(achieved):.6g}]"
    )
