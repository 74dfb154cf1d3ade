"""Finite dyadic grid on [0,1): intervals, leaf data, exact Haar algebra.

The grid of depth D consists of the dyadic intervals I = [j 2^{-k}, (j+1) 2^{-k})
for levels 0 <= k <= D; level-D intervals are the leaves.  A step function is
constant on leaves, and is held as its float64 array of 2^D leaf values: the
depth is read off the length (depth_of, which rejects a length that is not a
power of two), and nothing else ties a symbol and two weights together.  So
the passes below take no depth beside an array of leaves; only
synthesize_leaves and accumulate_levels, which build leaves from levels, are
told it.  Data entering the library (files, generated ensembles, weights)
passes leaf_values, which checks the shape, the depth bound and finiteness
and marks the array read-only; same_depth is the one check that several
arrays share a grid.  The operator plans in operators.py map arrays to
arrays.  Integrals are exact leaf sums scaled by 2^{-D}, so every identity
in this module is a finite linear-algebra statement.

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
    "ROOT",
    "leaf_values",
    "depth_of",
    "same_depth",
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


ROOT = DyadicInterval(0, 0)


def leaf_values(values, depth: int | None = None) -> np.ndarray:
    """Checked leaf data: a read-only float64 copy of values, of shape
    (2^depth,) with 1 <= depth <= MAX_GRID_DEPTH and every entry finite.
    depth defaults to the one the length gives."""
    arr = np.array(values, dtype=np.float64)
    if depth is None:
        depth = max(arr.size.bit_length() - 1, 0) if arr.ndim == 1 else 0
    if not 1 <= depth <= MAX_GRID_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_GRID_DEPTH}], got {depth}")
    if arr.shape != (1 << depth,):
        raise ValueError(
            f"expected {1 << depth} leaf values for depth {depth}, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("leaf values must be finite")
    arr.setflags(write=False)
    return arr


def depth_of(a: np.ndarray) -> int:
    """The depth D of leaf data with 2^D entries on its last axis;
    ValueError when that length is not a power of two."""
    n = np.shape(a)[-1]
    if n < 1 or n & (n - 1):
        raise ValueError(f"leaf data needs 2^D entries on its last axis, got {n}")
    return n.bit_length() - 1


def same_depth(*arrays: np.ndarray, depth: int | None = None) -> int:
    """The one depth of the leaf arrays (and of depth, when given).

    The single place a depth mismatch is detected: GridMismatchError when
    the depths differ.
    """
    depths = {depth_of(a) for a in arrays}
    if depth is not None:
        depths.add(depth)
    if len(depths) != 1:
        raise GridMismatchError(
            f"objects live on different grids: depths {sorted(depths)}"
        )
    return depths.pop()


def analyze_leaves(values: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Haar analysis on the last axis of a (..., 2^depth) array.

    Returns (mean, coeffs) with mean of shape (...) and coeffs[k] of shape
    (..., 2^k).  The level-k coefficient over interval I with child masses
    m_-, m_+ is 2^{k/2} (m_+ - m_-); masses are leaf sums times 2^{-depth}.
    Each level reads its children through the strided views [..., 0::2] and
    [..., 1::2] and writes 2^k parents, so the pass costs O(2^depth); every
    parent mass is m_- + m_+, one addition, as in level_masses.
    """
    values = np.asarray(values, dtype=np.float64)
    depth = depth_of(values)
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


def level_masses(values: np.ndarray) -> list[np.ndarray]:
    """Masses (integrals) of every interval, by level, on the last axis.

    Returns a list of depth+1 arrays; entry k has shape (..., 2^k) and holds
    the integral of the step function over each level-k interval.  Parent mass
    equals the sum of its children exactly (same additions, same order).
    """
    values = np.asarray(values, dtype=np.float64)
    depth = depth_of(values)
    out = [None] * (depth + 1)  # type: ignore[list-item]
    m = values * (2.0 ** (-depth))
    out[depth] = m
    for k in range(depth - 1, -1, -1):
        m = m[..., 0::2] + m[..., 1::2]
        out[k] = m
    return out


def haar_function(depth: int, iv: DyadicInterval) -> np.ndarray:
    """The leaf values of the Haar function h_I: -|I|^{-1/2} on the left
    child, +|I|^{-1/2} on the right child, 0 outside I."""
    if iv.level >= depth:
        raise ValueError(
            f"h_I needs level < depth; got level {iv.level} at depth {depth}"
        )
    vals = np.zeros(1 << depth)
    half = 1 << (depth - iv.level - 1)  # leaves per child
    left = 2 * iv.position * half
    scale = math.sqrt(2**iv.level)
    vals[left : left + half] = -scale
    vals[left + half : left + 2 * half] = scale
    return vals


def square_layers(values: np.ndarray) -> list[np.ndarray]:
    """The square function's layers fhat(I)^2 / |I|, entry k over the level-k
    intervals, k = 0..depth-1, on the last axis."""
    _, coeffs = analyze_leaves(values)
    return [c**2 * 2.0**k for k, c in enumerate(coeffs)]
