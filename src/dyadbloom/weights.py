"""Weights on the dyadic grid: interval masses, A2 characteristic, ensembles.

A weight is a strictly positive step function.  Masses of every dyadic
interval are tabulated once by a bottom-up pyramid, so parent mass equals the
sum of its children exactly and w([0,1)) matches the integral of the step
function bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, EnsembleTargetError
from .grid import MAX_GRID_DEPTH, DyadicGrid, DyadicInterval, StepFunction, level_masses

__all__ = [
    "Weight",
    "a2_characteristic",
    "rho_weight",
    "EnsembleSpec",
    "generate",
    "WEIGHT_KINDS",
    "SYMBOL_KINDS",
]


class Weight:
    """A strictly positive step function with cached interval masses.

    level_masses[k][j] is the integral of the weight over the level-k interval
    at position j, for 0 <= k <= D.
    """

    __slots__ = ("base", "level_masses", "__dict__")

    def __init__(self, base: StepFunction):
        if np.any(base.values <= 0.0):
            raise ValueError("weights must be strictly positive on every leaf")
        with np.errstate(over="ignore"):
            if not np.isfinite(1.0 / base.values).all():
                raise ValueError("weight leaves must have finite reciprocals (not subnormal)")
        masses = level_masses(base.values, base.grid.depth)
        for m in masses:
            m.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "level_masses", tuple(masses))

    @property
    def grid(self) -> DyadicGrid:
        return self.base.grid

    @property
    def values(self) -> np.ndarray:
        return self.base.values

    @property
    def total_mass(self) -> float:
        return float(self.level_masses[0][0])

    def mass(self, iv: DyadicInterval) -> float:
        """w(I), exact leaf sum."""
        return float(self.level_masses[iv.level][iv.position])

    def average(self, iv: DyadicInterval) -> float:
        """<w>_I = w(I) / |I|."""
        return float(self.level_masses[iv.level][iv.position]) * (2.0**iv.level)

    @cached_property
    def averages(self) -> tuple[np.ndarray, ...]:
        """averages[k][j] = <w>_I at the level-k interval j, computed once, read-only."""
        out = tuple(m * (2.0**k) for k, m in enumerate(self.level_masses))
        for a in out:
            a.setflags(write=False)
        return out

    @cached_property
    def inverse(self) -> "Weight":
        """The weight 1/w (cached)."""
        return Weight(StepFunction(self.grid, 1.0 / self.values))

    def __repr__(self):
        return f"Weight(depth={self.grid.depth}, total_mass={self.total_mass!r})"


def a2_characteristic(w: Weight) -> float:
    """[w]_{A2} = sup over dyadic I of <w>_I <w^{-1}>_I.

    Always >= 1 by Cauchy-Schwarz, with equality iff w is constant.  The sup
    runs over every level including the leaves (where the product is exactly 1
    for step weights, so leaves never dominate but are included for form).
    """
    return max(1.0, *(float((a * b).max()) for a, b in zip(w.averages, w.inverse.averages)))


def rho_weight(mu: Weight, lam: Weight) -> Weight:
    """The Bloom weight rho = (mu / lambda)^{1/2}."""
    if mu.grid != lam.grid:
        raise ValueError("mu and lambda must live on the same grid")
    return Weight(StepFunction(mu.grid, np.sqrt(mu.values / lam.values)))


WEIGHT_KINDS = ("constant", "two-value", "power", "cascade")
SYMBOL_KINDS = ("log-symbol", "haar-sparse-symbol")


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
    closed range, drawing from one rng stream; deterministic kinds get a single
    attempt.
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
    max_retries: int = 64

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
        retries = self.max_retries
        if isinstance(retries, bool) or not isinstance(retries, numbers.Integral):
            raise ConfigError(f"max_retries must be an integer, got {retries!r}")
        if self.kind == "power" and not -1.0 < self.alpha < 1.0:
            raise ConfigError(f"power exponent must be in (-1, 1), got {self.alpha}")
        if self.kind in ("cascade", "log-symbol") and not 0.0 < self.delta < 1.0:
            raise ConfigError(f"cascade delta must be in (0, 1), got {self.delta}")
        if self.kind == "haar-sparse-symbol" and not 0.0 < self.sparsity <= 1.0:
            raise ConfigError(f"sparsity must be in (0, 1], got {self.sparsity}")
        if self.kind in ("constant", "two-value"):
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
        d = {
            "kind": self.kind,
            "depth": self.depth,
            "seed": self.seed,
        }
        if self.kind == "power":
            d["alpha"] = self.alpha
            d["center"] = self.center
        if self.kind in ("cascade", "log-symbol"):
            d["delta"] = self.delta
        if self.kind == "haar-sparse-symbol":
            d["sparsity"] = self.sparsity
        if self.kind in ("constant", "two-value"):
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
        known = {
            "kind", "depth", "seed", "alpha", "delta", "sparsity",
            "values", "center", "a2_range", "max_retries",
        }
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown ensemble spec fields: {sorted(extra)}")
        kw = dict(d)
        kw["depth"] = int(kw["depth"])
        if "seed" in kw:
            kw["seed"] = int(kw["seed"])
        if isinstance(kw.get("values"), list):
            kw["values"] = tuple(kw["values"])
        if kw.get("a2_range") is not None:
            r = kw["a2_range"]
            if not isinstance(r, list) or len(r) != 2:
                raise ConfigError("a2_range must be a [lo, hi] pair")
            kw["a2_range"] = tuple(r)
        return cls(**kw)


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
    vals = np.ones(1)
    for k in range(depth):
        u = rng.uniform(0.0, 1.0, size=1 << k)
        sign = np.where(rng.integers(0, 2, size=1 << k) == 0, 1.0, -1.0)
        factor = u * delta * sign
        children = np.empty(1 << (k + 1))
        children[0::2] = vals * (1.0 + factor)
        children[1::2] = vals * (1.0 - factor)
        vals = children
    return vals


def _sparse_symbol_values(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    from .grid import synthesize_leaves

    depth = spec.depth
    coeffs = []
    any_active = False
    for k in range(depth):
        mask = rng.random(1 << k) < spec.sparsity
        gauss = rng.standard_normal(1 << k)
        c = np.where(mask, gauss * (2.0 ** (-k / 2.0)), 0.0)
        any_active = any_active or bool(mask.any())
        coeffs.append(c)
    if not any_active:
        # force one interval so the symbol is never identically zero
        total = (1 << depth) - 1
        flat = int(rng.integers(total))
        # map the flat level-major index to (level, position)
        k = 0
        while flat >= (1 << k):
            flat -= 1 << k
            k += 1
        coeffs[k][flat] = float(rng.standard_normal()) * (2.0 ** (-k / 2.0))
    return synthesize_leaves(np.asarray(0.0), coeffs, depth)


def _generate_once(spec: EnsembleSpec, rng: np.random.Generator):
    grid = DyadicGrid(spec.depth)
    if spec.kind == "constant":
        return Weight(StepFunction.constant(grid, spec.values[0]))
    if spec.kind == "two-value":
        vals = rng.choice(np.asarray(spec.values, dtype=np.float64), size=grid.n_leaves)
        return Weight(StepFunction(grid, vals))
    if spec.kind == "power":
        return Weight(StepFunction(grid, _power_leaf_averages(spec.depth, spec.alpha, spec.center)))
    if spec.kind == "cascade":
        return Weight(StepFunction(grid, _cascade_values(spec.depth, spec.delta, rng)))
    if spec.kind == "log-symbol":
        w = _cascade_values(spec.depth, spec.delta, rng)
        return StepFunction(grid, np.log(w))
    if spec.kind == "haar-sparse-symbol":
        return StepFunction(grid, _sparse_symbol_values(spec, rng))
    raise ConfigError(f"unknown ensemble kind {spec.kind!r}")


def generate(spec: EnsembleSpec):
    """Generate the weight or symbol described by spec, deterministically.

    Returns a Weight for weight kinds and a StepFunction for symbol kinds.
    With a2_range set, regenerates from the same stream until the A2
    characteristic lands in range, up to max_retries attempts.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.a2_range is None:
        return _generate_once(spec, rng)
    deterministic = spec.kind in ("constant", "power")
    attempts = 1 if deterministic else max(1, spec.max_retries)
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
