"""Stopping times, packing constants, and corona decompositions.

A stopping family under a set of disjoint roots is the collection of maximal
dyadic intervals strictly inside some root where its rule first fires;
descent never continues below a member.  Corona generation g+1 is the family
under all members of generation g, so the corona costs one scan per
generation, and a single family is the one-root case.

Roots and members are `Intervals`, (level, position) arrays ordered by left
endpoint.  A StoppingRule(depth, tests) carries the depth of the grid it
scans, which each factory below reads off its own arrays (grid.same_depth),
and tests(roots) anchors every root at once: it lists the rule's (heap,
comparison, bound) tests, at least one, each bound holding one value per
root.  The scan walks levels top-down with a few array operations per level
and no Python work per root or per interval: owner[j] is the index of the
root the level-k position j lies strictly inside, or -1 outside every root
or inside a member already found, and the rule fires at j where
compare(level(heap, k)[j], bound[owner[j]]) holds for any test.  A family
keeps its rule's depth, and reading its masses from a weight of another
depth raises GridMismatchError; so do roots below the rule's grid.  The
searches and the corona start at the root [0,1).

The unstopped collection is the roots together with every interval inside
them contained in no member, read off the scan's owner arrays; each one below
a root fails every test, which coefficient-sum estimates over it rely on.
Sums over members add left to right from 0, as Python's sum does: np.cumsum
for one sequence, a weighted np.bincount for per-root sums, never a pairwise
reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import GridMismatchError, PackingSearchError
from .grid import ROOT, DyadicInterval, depth_of, level, same_depth, square_layers
from .weights import Weight

__all__ = [
    "Intervals",
    "StoppingRule",
    "StoppingFamily",
    "maximal_stopping_intervals",
    "packing_ratio",
    "ordered_sum",
    "deviation_factory",
    "threshold_factory",
    "three_condition_factory",
    "square_sum_factories",
    "minimal_packing_constant",
    "minimal_corona_constant",
    "corona_generations",
    "PACKING_TARGET",
]

Test = tuple[np.ndarray, np.ufunc, np.ndarray]

# The packing searches find the smallest constant on the geometric grid
# {_GRID_FACTOR^k : k >= 1, up to _C_MAX} whose family packs to at most
# PACKING_TARGET in w-mass.  The grid is built once, each constant the last
# times _GRID_FACTOR.
PACKING_TARGET = 0.5
_GRID_FACTOR = 1.1
_C_MAX = float(1 << 20)
_CONSTANT_GRID = (_GRID_FACTOR,)
while _CONSTANT_GRID[-1] * _GRID_FACTOR <= _C_MAX:
    _CONSTANT_GRID += (_CONSTANT_GRID[-1] * _GRID_FACTOR,)


def ordered_sum(values: np.ndarray) -> float:
    """Python's sum of values, left to right from 0, as one np.cumsum."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


@dataclass(frozen=True, eq=False)
class Intervals:
    """Disjoint dyadic intervals as (level, position) arrays, by left endpoint."""

    levels: np.ndarray
    positions: np.ndarray

    @classmethod
    def of(cls, *ivs: DyadicInterval) -> "Intervals":
        return cls(np.array([iv.level for iv in ivs], dtype=np.intp),
                   np.array([iv.position for iv in ivs], dtype=np.intp))

    def gather(self, heap: np.ndarray) -> np.ndarray:
        """heap[2^level + position] per interval (heap: Weight.averages, ...)."""
        return heap[(1 << self.levels) + self.positions]


class StoppingRule(NamedTuple):
    """A stopping rule on the depth-D grid: tests(roots) -> its anchored
    (heap, comparison, one bound per root) tests (see the module docstring)."""

    depth: int
    tests: Callable[[Intervals], list[Test]]


@dataclass(frozen=True, eq=False)
class StoppingFamily:
    """Maximal stopping intervals under a root set on the depth-D grid:
    member i lies inside root owners[i].  unstopped is the heap of
    2^{D+1} flags (grid's layout) that marks the roots and the intervals
    inside them in no member."""

    depth: int
    roots: Intervals
    members: Intervals
    owners: np.ndarray
    unstopped: np.ndarray

    def member_masses(self, w: Weight) -> np.ndarray:
        """Per root, the w-masses of its members added left to right from 0:
        a weighted np.bincount adds each bin's values in input order."""
        same_depth(w.values, depth=self.depth)
        masses = np.ldexp(self.members.gather(w.averages), -self.members.levels)
        return np.bincount(self.owners, masses, self.roots.levels.size)


def maximal_stopping_intervals(
    roots: Intervals | DyadicInterval, rule: StoppingRule
) -> StoppingFamily:
    """Maximal intervals of the rule's grid strictly inside each root where
    any test of rule.tests(roots) holds, by one top-down level scan over the
    whole root set; descent stops at each member, and the scan ends once no
    position is left inside a root.  Members are ordered by left endpoint,
    so grouped by root."""
    if isinstance(roots, DyadicInterval):
        roots = Intervals.of(roots)
    depth = rule.depth
    starting = {k: np.flatnonzero(roots.levels == k) for k in set(roots.levels.tolist())}
    top, bottom = min(starting), max(starting)
    if bottom > depth:
        raise GridMismatchError(f"a root at level {bottom} lies below the depth-{depth} grid")
    tests = rule.tests(roots)
    owner = np.full(1 << top, -1, dtype=np.intp)
    found = [np.empty(0, dtype=np.intp)] * 3  # levels, positions, owners
    unstopped = np.zeros(2 << depth, dtype=bool)
    for k in range(top, depth + 1):
        hits = 0
        if k > top:
            owner = owner.repeat(2)
            fires = [compare(level(heap, k), bound[owner]) for heap, compare, bound in tests]
            j = ((owner >= 0) & reduce(np.logical_or, fires)).nonzero()[0]
            if hits := j.size:
                found += [np.full(hits, k), j, owner[j]]
                owner[j] = -1
        if k in starting:
            owner[roots.positions[starting[k]]] = starting[k]
        live = level(unstopped, k)
        np.greater_equal(owner, 0, out=live)
        # only a hit empties live, and no root starts below bottom
        if hits and k >= bottom and not live.any():
            break
    levels, positions, owners = (np.concatenate(found[i::3]) for i in range(3))
    # disjoint, so left endpoint orders them; integer shift keeps it exact
    order = np.argsort(positions << (depth - levels))
    members = Intervals(levels[order], positions[order])
    return StoppingFamily(depth, roots, members, owners[order], unstopped)


def packing_ratio(family: StoppingFamily, w: Weight) -> float:
    """Largest over the roots of member w-mass / root w-mass."""
    masses = np.ldexp(family.roots.gather(w.averages), -family.roots.levels)
    return float((family.member_masses(w) / masses).max())


def deviation_factory(weights: Weight | Sequence[Weight], C: float) -> StoppingRule:
    """Stop where any listed weight's average deviates from its root average:
    <w>_I > C <w>_I0 or <w>_I < <w>_I0 / C."""
    if isinstance(weights, Weight):
        weights = [weights]
    ws = list(weights)
    if C <= 1.0:
        raise ValueError(f"deviation constant must exceed 1, got {C}")

    def tests(roots: Intervals) -> list[Test]:
        anchors = [(w.averages, roots.gather(w.averages)) for w in ws]
        return [t for h, a in anchors for t in ((h, np.greater, C * a), (h, np.less, a / C))]

    return StoppingRule(same_depth(*(w.values for w in ws)), tests)


def threshold_factory(w: Weight, factor: float = 4.0) -> StoppingRule:
    """Stop where <w>_I >= factor * <w>_I0 (one-sided)."""
    return StoppingRule(w.depth, lambda roots: [
        (w.averages, np.greater_equal, factor * roots.gather(w.averages))])


def _path_sums(q: np.ndarray, roots: Intervals) -> np.ndarray:
    """The heap whose entry for interval I is the sum of q over the path
    from the root containing I down to it, root first, on every level from
    the top root down (values outside the roots mean nothing)."""
    levels = set(roots.levels.tolist())
    rows = q.copy()
    for k in range(min(levels) + 1, depth_of(q)):
        level(rows, k)[:] += level(rows, k - 1).repeat(2)
        if k in levels:  # a root's own row starts afresh
            at = roots.positions[roots.levels == k]
            level(rows, k)[at] = level(q, k)[at]
    return rows


def three_condition_factory(
    mu: Weight, rho: Weight, b: np.ndarray, C: float, C_b: float
) -> StoppingRule:
    """Stop at the maximal S inside I0 where any of the following holds:

      (1) <mu^{-1}>_S  >  C * <mu^{-1}>_I0
      (2) <rho>_S      >  C * <rho>_I0
      (3) sum over I with S subset= I subset= I0 of bhat(I)^2/|I|
            >  (C_b * <rho>_I0)^2

    rho = (mu/lambda)^{1/2} is passed in, as square_sum_factories takes it,
    and mu, rho and b share a depth (GridMismatchError).  Conditions (1)
    and (2) give definitional Lebesgue packing sum |S| <= 2|I0|/C; (3) is
    controlled only by John-Nirenberg-type behavior and its packing is
    recorded, not derived.
    """
    depth = same_depth(b, mu.values, rho.values)
    mu_inv = mu.inverse
    q = square_layers(b)

    def tests(roots: Intervals) -> list[Test]:
        a_rho = roots.gather(rho.averages)
        # float_power is libm pow, as Python's ** on a float (a square is not)
        return [(mu_inv.averages, np.greater, C * roots.gather(mu_inv.averages)),
                (rho.averages, np.greater, C * a_rho),
                (_path_sums(q, roots), np.greater, np.float_power(C_b * a_rho, 2.0))]

    return StoppingRule(depth, tests)


def square_sum_factories(
    b: np.ndarray, rho: Weight, b2_value: float
) -> Callable[[float], StoppingRule]:
    """C -> the rule that stops where the root-to-I path sum of
    bhat^2/|I'| first exceeds C * b2_value^2 * <rho>_I0^2 (b2_value is a
    Bloom-functional size for b), with b analysed once: the rule_of_c of
    a packing search over C."""
    depth = same_depth(b, rho.values)
    q = square_layers(b)
    return lambda C: StoppingRule(depth, lambda roots: [(
        _path_sums(q, roots), np.greater_equal,
        C * np.float_power(b2_value * roots.gather(rho.averages), 2.0))])


def minimal_packing_constant(
    rule_of_c: Callable[[float], StoppingRule], w: Weight
) -> tuple[float, StoppingFamily]:
    """Smallest constant on the geometric grid whose stopping family under
    the root packs to at most PACKING_TARGET in w-mass, with that family.

    Packing is monotone nonincreasing in C for the factories above (members at
    larger C nest inside members at smaller C), so binary search over the grid
    is valid.  Raises PackingSearchError carrying the best achieved ratio when
    even the largest constant fails.
    """
    found = maximal_stopping_intervals(ROOT, rule_of_c(_CONSTANT_GRID[-1]))
    best = packing_ratio(found, w)
    if best > PACKING_TARGET:
        raise PackingSearchError(
            f"no constant up to {_CONSTANT_GRID[-1]:.6g} reaches packing target "
            f"{PACKING_TARGET}; best achieved ratio {best:.6g}",
            min_ratio=best,
        )
    lo, hi = 0, len(_CONSTANT_GRID) - 1
    # invariant: _CONSTANT_GRID[hi] succeeds, with family found
    while lo < hi:
        mid = (lo + hi) // 2
        fam = maximal_stopping_intervals(ROOT, rule_of_c(_CONSTANT_GRID[mid]))
        if packing_ratio(fam, w) <= PACKING_TARGET:
            hi, found = mid, fam
        else:
            lo = mid + 1
    return _CONSTANT_GRID[hi], found


def corona_generations(rule: StoppingRule) -> list[StoppingFamily]:
    """Iterate stopping families from the root: generation g+1 is one scan
    under all the members of generation g.  Stops after the first empty
    generation (always recorded): members lie strictly below their roots, so
    generation g lies at level >= g and generation D+1 is empty at the
    latest.  Element i of the result is generation i+1."""
    generations: list[StoppingFamily] = []
    roots: Intervals | DyadicInterval = ROOT
    while True:
        fam = maximal_stopping_intervals(roots, rule)
        generations.append(fam)
        roots = fam.members
        if not roots.levels.size:
            return generations


def minimal_corona_constant(
    rule_of_c: Callable[[float], StoppingRule], w: Weight, start: float | None = None
) -> tuple[float, list[StoppingFamily]]:
    """Smallest grid constant whose packing target holds at EVERY corona root
    (so generation masses decay geometrically), with its corona_generations.
    Monotone in C for the same reason as minimal_packing_constant; scanned
    upward from that constant.  A caller that already has
    minimal_packing_constant's constant for the same arguments passes it as
    start, and the search is not run again; a start above the grid, or NaN,
    raises PackingSearchError."""
    if start is None:
        start, _ = minimal_packing_constant(rule_of_c, w)
    idx = next((i for i, c in enumerate(_CONSTANT_GRID) if c >= start * (1 - 1e-12)), None)
    if idx is None:  # start is NaN or above the grid
        raise PackingSearchError(
            f"corona search start {start!r} is NaN or above the grid's largest "
            f"constant {_CONSTANT_GRID[-1]:.6g}",
            min_ratio=math.nan,
        )

    for c in _CONSTANT_GRID[idx:]:
        gens = corona_generations(rule_of_c(c))
        if all(packing_ratio(fam, w) <= PACKING_TARGET for fam in gens):
            return c, gens
    best = _CONSTANT_GRID[-1]
    raise PackingSearchError(
        f"no constant up to {best:.6g} packs every corona root to {PACKING_TARGET}",
        min_ratio=math.nan,
    )
