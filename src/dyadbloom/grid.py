"""Finite dyadic grid on [0,1): intervals, step functions, exact Haar algebra.

The grid of depth D consists of the dyadic intervals I = [j 2^{-k}, (j+1) 2^{-k})
for levels 0 <= k <= D; level-D intervals are the leaves.  A step function is
constant on leaves: a StepFunction is its vector of 2^D leaf values,
checked finite and read-only, and nothing more.  Arithmetic happens on leaf
arrays; the operator plans in operators.py map arrays to arrays.  Integrals
are exact leaf sums scaled by 2^{-D}, so every identity in this module is a
finite linear-algebra statement.

The Haar function of an interval I with children I_- (left) and I_+ (right) is

    h_I = |I|^{-1/2} (1_{I_+} - 1_{I_-}),

normalized in unweighted L^2.  A step function of depth D is exactly

    f = mean(f) + sum over levels k < D of fhat(I) h_I,

with fhat(I) = <f, h_I>.  Analysis and synthesis below implement the two sides
of this identity by pyramid passes over sibling pairs; both operate on the last
axis so batched inputs of shape (..., 2^D) work unchanged.

Every pass writes each level at that level's own width (2^k entries), never
all 2^D leaves per level, so a pass costs O(2^D) in all.  Analysis and
level_masses go bottom-up over strided sibling views; synthesis and
accumulate_levels go top-down, doubling their width per level.  Each leaf
keeps the exact chain of floating-point additions of a full-width pass (the
same operands in the same order), so every value is bit for bit what adding
each level onto all 2^D leaves gives, and outputs built from them do not
move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridMismatchError

MAX_GRID_DEPTH = 24  # leaf storage: 2^24 float64 leaves are 128 MiB

__all__ = [
    "DyadicInterval",
    "DyadicGrid",
    "StepFunction",
    "analyze_leaves",
    "synthesize_leaves",
    "level_masses",
    "accumulate_levels",
    "stack_rows",
    "haar_function",
    "square_layers",
]


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The interval [position * 2^-level, (position + 1) * 2^-level)."""

    level: int
    position: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if not 0 <= self.position < (1 << self.level):
            raise ValueError(
                f"position must be in [0, 2^{self.level}), got {self.position}"
            )

    @property
    def left(self) -> "DyadicInterval":
        return DyadicInterval(self.level + 1, 2 * self.position)

    @property
    def right(self) -> "DyadicInterval":
        return DyadicInterval(self.level + 1, 2 * self.position + 1)


ROOT = DyadicInterval(0, 0)


@dataclass(frozen=True)
class DyadicGrid:
    """Dyadic grid of depth D >= 1 on [0,1)."""

    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.depth > MAX_GRID_DEPTH:
            raise ValueError(f"depth {self.depth} is too large for leaf storage")

    @property
    def n_leaves(self) -> int:
        return 1 << self.depth

    @property
    def leaf_width(self) -> float:
        return 2.0 ** (-self.depth)

    @property
    def root(self) -> DyadicInterval:
        return ROOT

    def leaf_slice(self, iv: DyadicInterval) -> slice:
        """Range of leaf indices covered by iv."""
        if iv.level > self.depth:
            raise ValueError(f"interval level {iv.level} exceeds depth {self.depth}")
        shift = self.depth - iv.level
        return slice(iv.position << shift, (iv.position + 1) << shift)


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(
            f"objects live on different grids: depth {a.grid.depth} vs {b.grid.depth}"
        )


class StepFunction:
    """A real step function on [0,1), constant on the leaves of its grid.

    Values are stored as a read-only float64 array of length 2^D, checked
    finite.  It carries no arithmetic: operators and functionals read its
    values.  A plan built from several symbols, and the identities of
    operators.py, raise GridMismatchError when the grids differ.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: DyadicGrid, values):
        arr = np.array(values, dtype=np.float64)
        if arr.shape != (grid.n_leaves,):
            raise ValueError(
                f"expected {grid.n_leaves} leaf values for depth {grid.depth}, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    @classmethod
    def constant(cls, grid: DyadicGrid, value: float) -> "StepFunction":
        return cls(grid, np.full(grid.n_leaves, float(value)))

    def integral(self) -> float:
        """Exact integral over [0,1): mean of the leaf values."""
        return float(self.values.mean())

    def __repr__(self):
        return f"StepFunction(depth={self.grid.depth}, n={self.grid.n_leaves})"


def analyze_leaves(values: np.ndarray, depth: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Haar analysis on the last axis of a (..., 2^depth) array.

    Returns (mean, coeffs) with mean of shape (...) and coeffs[k] of shape
    (..., 2^k).  The level-k coefficient over interval I with child masses
    m_-, m_+ is 2^{k/2} (m_+ - m_-); masses are leaf sums times 2^{-depth}.
    Each level reads its children through the strided views [..., 0::2] and
    [..., 1::2] and writes 2^k parents, so the pass costs O(2^depth); every
    parent mass is m_- + m_+, one addition, as in level_masses.
    """
    values = np.asarray(values, dtype=np.float64)
    n = 1 << depth
    if values.shape[-1] != n:
        raise ValueError(f"last axis must have length {n}, got {values.shape[-1]}")
    masses = values * (2.0 ** (-depth))
    coeffs: list[np.ndarray] = [None] * depth  # type: ignore[list-item]
    for k in range(depth - 1, -1, -1):
        left, right = masses[..., 0::2], masses[..., 1::2]
        coeffs[k] = math.sqrt(2**k) * (right - left)
        masses = left + right
    # masses now has shape batch + (1,); the single entry is the total integral,
    # which equals the mean since |[0,1)| = 1.
    mean = masses[..., 0]
    return mean, coeffs


def synthesize_leaves(mean, coeffs: Sequence[np.ndarray], depth: int) -> np.ndarray:
    """Inverse of analyze_leaves on the last axis.

    Top-down pyramid: v starts as the mean, and level k turns each of its 2^k
    entries into the pair (v - s, v + s), s = coeff * 2^{k/2}, so v doubles
    in width and the pass costs O(2^depth).  A list shorter than depth
    leaves the deeper levels zero: the last v is repeated onto the leaves.
    Every leaf is mean -+ s_0 -+ s_1 -+ ... in level order, the same chain
    of additions as adding each level onto all 2^depth leaves, so the
    values are bit for bit those of that full-width pass.  For inputs whose
    deepest nonzero level is k0, the result is constant on level-(k0+1)
    blocks with bitwise-identical values inside each block, which
    downstream exactness checks rely on.  A scalar mean serves a whole
    stack: it is spread over the coefficients' leading axes.
    """
    mean = np.asarray(mean, dtype=np.float64)
    v = mean[..., None]
    if not mean.shape and len(coeffs) and np.ndim(coeffs[0]) > 1:
        v = np.full(np.shape(coeffs[0])[:-1] + (1,), mean)
    for k, c in enumerate(coeffs):
        s = np.asarray(c, dtype=np.float64) * math.sqrt(2**k)
        w = np.empty(v.shape[:-1] + (2 << k,))
        np.subtract(v, s, out=w[..., 0::2])
        np.add(v, s, out=w[..., 1::2])
        v = w
    return np.repeat(v, (1 << depth) >> len(coeffs), axis=-1)


def accumulate_levels(terms: Sequence[np.ndarray], depth: int) -> np.ndarray:
    """sum_k repeat(terms[k], 2^{depth-k}) on the last axis, terms[k] of
    shape (..., 2^k): each level's values spread over its intervals' leaves.

    Top-down, v = repeat(v, 2) + terms[k], so the pass costs O(2^depth) and
    every leaf is ((0 + t_0) + t_1) + ... in level order.
    """
    v = np.zeros(1)
    for t in terms:
        v = np.repeat(v, t.shape[-1] // v.shape[-1], axis=-1) + t
    return np.repeat(v, (1 << depth) // v.shape[-1], axis=-1)


def stack_rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays on a new leading axis, or the one array itself: a one-row
    stack stays unstacked, where each numpy call costs least.  Every pass
    here is elementwise, so a row's values are the same either way."""
    return np.asarray(arrays[0]) if len(arrays) == 1 else np.stack(arrays)


def level_masses(values: np.ndarray, depth: int) -> list[np.ndarray]:
    """Masses (integrals) of every interval, by level, on the last axis.

    Returns a list of depth+1 arrays; entry k has shape (..., 2^k) and holds
    the integral of the step function over each level-k interval.  Parent mass
    equals the sum of its children exactly (same additions, same order).
    """
    values = np.asarray(values, dtype=np.float64)
    out = [None] * (depth + 1)  # type: ignore[list-item]
    m = values * (2.0 ** (-depth))
    out[depth] = m
    for k in range(depth - 1, -1, -1):
        m = m[..., 0::2] + m[..., 1::2]
        out[k] = m
    return out


def haar_function(grid: DyadicGrid, iv: DyadicInterval) -> StepFunction:
    """The Haar function h_I as a step function: -|I|^{-1/2} on the left child,
    +|I|^{-1/2} on the right child, 0 outside I."""
    if iv.level >= grid.depth:
        raise ValueError(
            f"h_I needs level < depth; got level {iv.level} at depth {grid.depth}"
        )
    vals = np.zeros(grid.n_leaves)
    scale = math.sqrt(2**iv.level)
    vals[grid.leaf_slice(iv.left)] = -scale
    vals[grid.leaf_slice(iv.right)] = scale
    return StepFunction(grid, vals)


def square_layers(values: np.ndarray, depth: int) -> list[np.ndarray]:
    """The square function's layers fhat(I)^2 / |I|, entry k over the level-k
    intervals, k = 0..depth-1, on the last axis."""
    _, coeffs = analyze_leaves(values, depth)
    return [c**2 * 2.0**k for k, c in enumerate(coeffs)]
