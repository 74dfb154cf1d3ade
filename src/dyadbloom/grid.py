"""Finite dyadic grid on [0,1): intervals, leaf data, exact Haar algebra.

The grid of depth D consists of the dyadic intervals I = [j 2^{-k}, (j+1) 2^{-k})
for levels 0 <= k <= D; level-D intervals are the leaves.  A step function is
constant on leaves, and is held as its float64 array of 2^D leaf values: the
depth is read off the length (depth_of, which rejects a length that is not a
power of two), and nothing else ties a symbol and two weights together.
Data entering the library (files, generated ensembles, weights) passes
leaf_values, which checks the shape, the depth bound and finiteness and
marks the array read-only; same_depth is the one check that several arrays
share a grid.  Integrals are exact leaf sums scaled by 2^{-D}, so every
identity in this module is a finite linear-algebra statement.

Every per-interval quantity is one heap on the last axis: the level-k
interval at position j is entry 2^k + j (DyadicInterval.at inverts it), so
level k fills [2^k, 2^{k+1}) and the children of entry i are 2i and 2i+1.
Entry 0 holds the mean of a coefficient heap and repeats the root of a mass
heap.  heap_scales gives each entry's level k and sqrt(2^k), so a
per-level scaling is one array operation (np.ldexp for 2^k, exact).

The Haar function of an interval I with children I_- (left) and I_+ (right) is

    h_I = |I|^{-1/2} (1_{I_+} - 1_{I_-}),

normalized in unweighted L^2.  A step function of depth D is exactly

    f = mean(f) + sum over levels k < D of fhat(I) h_I,

with fhat(I) = <f, h_I>.  Two pyramid passes carry the transforms, each
writing every level at its own width, so a pass costs O(2^D): sum_up, the
bottom-up pass (each entry the sum of its children), gives level_masses and
so analysis; split, the top-down pass (each value v splits into its
children v -+ s), gives synthesis and operators.py's shift and remainder;
accumulate_levels folds each level's terms onto its intervals, top-down.
Every leaf keeps the exact chain of floating-point operations of a
full-width pass.  local_integrals, the localized pass, costs O(2^D D): it
builds, deepest level first, every interval's synthesis of the coefficients
within it on the 2^D leaves and integrates a function of it over the interval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import GridMismatchError

MAX_GRID_DEPTH = 24  # leaf storage: 2^24 float64 leaves are 128 MiB

__all__ = [
    "DyadicInterval",
    "ROOT",
    "leaf_values",
    "depth_of",
    "same_depth",
    "HeapScales",
    "heap_scales",
    "level",
    "sum_up",
    "split",
    "local_integrals",
    "spread",
    "analyze_leaves",
    "synthesize_leaves",
    "level_masses",
    "accumulate_levels",
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

    @classmethod
    def at(cls, index: int) -> "DyadicInterval":
        """The interval at heap entry index >= 1 (entry 2^level + position)."""
        k = int(index).bit_length() - 1
        return cls(k, int(index) - (1 << k))


ROOT = DyadicInterval(0, 0)


def leaf_values(values, depth: int | None = None) -> np.ndarray:
    """Checked leaf data: a read-only float64 copy of values, of shape
    (2^depth,) with 1 <= depth <= MAX_GRID_DEPTH and every entry finite.
    depth defaults to the one the length gives."""
    arr = np.array(values, dtype=np.float64)
    if depth is None:
        if arr.ndim != 1:
            raise ValueError(f"leaf values need shape (2^D,), got shape {arr.shape}")
        depth = max(arr.size.bit_length() - 1, 0)
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
    """The depth D of leaf data with 2^D entries on its last axis (for a
    heap, the log2 of its length); ValueError when that length is not a
    power of two."""
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


class HeapScales(NamedTuple):
    levels: np.ndarray  # k, the level of each entry (entry 0 counts as level 0)
    root: np.ndarray  # sqrt(2^k), correctly rounded, as math.sqrt(2**k)


@functools.cache
def heap_scales(n: int) -> HeapScales:
    """Per entry of a heap of n entries; read-only, kept per n.  A level's
    power of two scales exactly by np.ldexp(x, levels)."""
    levels = np.maximum(np.frexp(np.arange(n))[1] - 1, 0).astype(np.int8)
    out = HeapScales(levels, np.sqrt(np.ldexp(1.0, levels)))
    for a in out:
        a.setflags(write=False)
    return out


def level(heap: np.ndarray, k: int) -> np.ndarray:
    """The level-k entries of a heap on the last axis, as a view."""
    return heap[..., 1 << k : 2 << k]


def sum_up(heap: np.ndarray, addend: np.ndarray | None = None) -> np.ndarray:
    """The bottom-up pass, in place on a heap whose deepest level is set,
    and returned: from the level above it up to level 0, entry i becomes
    heap[2i] + heap[2i+1] (+ addend[i], when given)."""
    m = heap[..., heap.shape[-1] >> 1 :]
    for k in range(depth_of(heap) - 2, -1, -1):
        m = np.add(m[..., 0::2], m[..., 1::2], out=level(heap, k))
        if addend is not None:
            m += level(addend, k)
    return heap


def split(steps: np.ndarray) -> np.ndarray:
    """The top-down pass over a heap of 2^m steps: the root value starts at
    steps[..., 0], and each level-k value v, k = 0..m-1, splits into its
    children (v - s, v + s), s its step.  Returns the 2^m values of level m,
    each start -+ s_0 -+ s_1 ... in level order."""
    v = steps[..., :1]
    for k in range(depth_of(steps)):
        s = level(steps, k)
        w = np.empty(s.shape[:-1] + (2 << k,))
        np.subtract(v, s, out=w[..., 0::2])
        np.add(v, s, out=w[..., 1::2])
        v = w
    return v


def local_integrals(coeffs: np.ndarray, integrand: Callable) -> np.ndarray:
    """The bottom-up localized pass over a 1-D coefficient heap of 2^D
    entries.  From level D-1 up to level 0 it adds each level-k step
    s = c_I 2^{k/2} onto the 2^D leaves v in place (-s on I's left child's
    leaves, +s on its right child's), so that on every level-k interval K, v
    is the synthesis sum_{I subset= K} c_I h_I.  Returns the integrals of
    integrand(k, v) over each level-k K (leaf sums / 2^D) as a heap over
    levels 0..D-1, entry 0 zero; the mean c[0] is not read."""
    n = coeffs.size
    steps = coeffs * heap_scales(n).root
    v = np.zeros(n)
    out = np.zeros(n)
    for k in range(depth_of(steps) - 1, -1, -1):
        blocks = v.reshape(1 << k, 2, -1)
        blocks[:, 0, :] -= level(steps, k)[:, None]
        blocks[:, 1, :] += level(steps, k)[:, None]
        level(out, k)[:] = integrand(k, v).reshape(1 << k, -1).sum(axis=1) / n
    return out


def spread(values: np.ndarray, depth: int) -> np.ndarray:
    """The values of one level on the last axis, each repeated over its
    interval's 2^depth leaves."""
    count = (1 << depth) // values.shape[-1]
    return values if count == 1 else np.repeat(values, count, axis=-1)


def level_masses(values: np.ndarray) -> np.ndarray:
    """Masses (integrals) of every interval as a heap of 2^{D+1} entries,
    the leaves' last; each parent is the sum of its children exactly, and
    entry 0 repeats the root's."""
    values = np.asarray(values, dtype=np.float64)
    depth = depth_of(values)
    h = np.empty(values.shape[:-1] + (2 << depth,))
    np.multiply(values, 2.0 ** (-depth), out=level(h, depth))
    sum_up(h)
    h[..., 0] = h[..., 1]
    return h


def analyze_leaves(values: np.ndarray) -> np.ndarray:
    """Haar analysis: the coefficient heap of a (..., 2^D) array, of its
    shape; 2^{k/2} (m_+ - m_-) for a level-k interval with child masses
    m_-, m_+, read off level_masses' heap in one array product."""
    masses = level_masses(values)
    n = masses.shape[-1] >> 1
    c = np.empty(masses.shape[:-1] + (n,))
    c[..., 0] = masses[..., 1]
    np.subtract(masses[..., 3::2], masses[..., 2::2], out=c[..., 1:])
    c[..., 1:] *= heap_scales(n).root[1:]
    return c


def synthesize_leaves(coeffs: np.ndarray, depth: int | None = None) -> np.ndarray:
    """Inverse of analyze_leaves: the split pass from the mean over the
    steps fhat(I) 2^{k/2}.  A heap shorter than 2^depth (depth defaults to
    its own) leaves the deeper levels zero, so the result is constant, with
    bitwise-identical values, on the blocks below its deepest level, which
    downstream exactness checks rely on."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    depth = depth_of(coeffs) if depth is None else depth
    return spread(split(coeffs * heap_scales(1 << depth).root[: coeffs.shape[-1]]), depth)


def accumulate_levels(terms: np.ndarray, op: np.ufunc = np.add) -> np.ndarray:
    """Path sums (op np.add) or maxima (np.maximum) of a heap of 2^m terms:
    its deepest level's 2^{m-1} values op(...op(0.0, t_root)..., t_I) over
    the path from the root down to each interval I (a one-entry heap: 0.0)."""
    v = np.zeros(terms.shape[:-1] + (1,))
    for k in range(depth_of(terms)):
        v = op(np.repeat(v, 2 if k else 1, axis=-1), level(terms, k))
    return v


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


def square_layers(values: np.ndarray) -> np.ndarray:
    """The square function's layers fhat(I)^2 / |I| as a heap of 2^{D+1}
    entries; the leaves and entry 0 carry none (0)."""
    c = analyze_leaves(values)
    n = c.shape[-1]
    out = np.zeros(c.shape[:-1] + (2 * n,))
    np.ldexp(c**2, heap_scales(n).levels, out=out[..., :n])
    out[..., 0] = 0.0
    return out
