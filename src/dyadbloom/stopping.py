"""Stopping times, packing constants, and corona decompositions.

A stopping family under a set of disjoint roots is the collection of maximal
dyadic intervals strictly inside some root where a predicate first fires;
descent never continues below a member.  Corona generation g+1 is the family
under all members of generation g, so the corona costs one scan per
generation, and a single family is the one-root case.

Roots and members are `Intervals`, (level, position) arrays ordered by left
endpoint.  A StoppingRule(depth, anchor) carries the depth of the grid it
scans, which each factory below reads off its own arrays (grid.same_depth).
anchor(roots) anchors every root at once, in arrays indexed by root, and
returns predicate(k, owner): owner[j] is the index of the root the level-k
position j lies strictly inside, or -1 outside every root or inside a
member already found, and the predicate answers for all 2^k positions
through anchor[owner], as a bool array or one scalar (answers where owner is
-1 are ignored).  The scan walks levels top-down with a few array operations
per level and no Python work per root or per interval.  A family keeps its
rule's depth, and reading its masses from a weight of another depth raises
GridMismatchError; so do roots below the rule's grid.  The searches and the
corona start at the root [0,1).

The unstopped collection is the roots together with every interval inside
them contained in no member, read off the scan's owner arrays; each one below
a root fails the predicate, which coefficient-sum estimates over it rely on.
Sums over members add left to right from 0, as Python's sum does: np.cumsum
for one sequence, a weighted np.bincount for per-root sums, never a pairwise
reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import GridMismatchError, PackingSearchError
from .grid import ROOT, DyadicInterval, same_depth, square_layers
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

Predicate = Callable[[int, np.ndarray], "np.ndarray | bool"]

# The packing searches find the smallest constant on the geometric grid
# {_GRID_FACTOR^k : k >= 1, up to _C_MAX} whose family packs to at most
# PACKING_TARGET in w-mass.
PACKING_TARGET = 0.5
_GRID_FACTOR = 1.1
_C_MAX = float(1 << 20)


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

    def gather(self, rows: Sequence[np.ndarray]) -> np.ndarray:
        """rows[level][position] per interval (rows: Weight.averages, ...)."""
        out = np.empty(self.levels.size)
        for k in set(self.levels.tolist()):
            at = self.levels == k
            out[at] = rows[k][self.positions[at]]
        return out


class StoppingRule(NamedTuple):
    """A stopping predicate on the depth-D grid: anchor(roots) -> predicate
    (see the module docstring)."""

    depth: int
    anchor: Callable[[Intervals], Predicate]


@dataclass(frozen=True, eq=False)
class StoppingFamily:
    """Maximal stopping intervals under a root set on the depth-D grid:
    member i lies inside root owners[i].  unstopped[k] masks the level-k
    positions of the roots and of the intervals inside them in no member,
    levels in order (a level missing from it has none)."""

    depth: int
    roots: Intervals
    members: Intervals
    owners: np.ndarray
    unstopped: dict[int, np.ndarray]

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
    rule.anchor(roots) holds, by one top-down level scan over the whole
    root set; descent stops at each member, and the scan ends once no
    position is left inside a root.  Members are ordered by left endpoint,
    so grouped by root."""
    if isinstance(roots, DyadicInterval):
        roots = Intervals.of(roots)
    depth = rule.depth
    starting = {k: np.flatnonzero(roots.levels == k) for k in set(roots.levels.tolist())}
    top, bottom = min(starting), max(starting)
    if bottom > depth:
        raise GridMismatchError(f"a root at level {bottom} lies below the depth-{depth} grid")
    predicate = rule.anchor(roots)
    owner = np.full(1 << top, -1, dtype=np.intp)
    found = [np.empty(0, dtype=np.intp)] * 3  # levels, positions, owners
    unstopped: dict[int, np.ndarray] = {}
    for k in range(top, depth + 1):
        hits = 0
        if k > top:
            owner = owner.repeat(2)
            j = ((owner >= 0) & predicate(k, owner)).nonzero()[0]
            if hits := j.size:
                found += [np.full(hits, k), j, owner[j]]
                owner[j] = -1
        if k in starting:
            owner[roots.positions[starting[k]]] = starting[k]
        unstopped[k] = live = owner >= 0
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

    def anchor(roots: Intervals) -> Predicate:
        anchors = [roots.gather(w.averages) for w in ws]
        bands = [(w, C * a, a / C) for w, a in zip(ws, anchors)]

        def predicate(k: int, owner: np.ndarray) -> np.ndarray:
            fires = False
            for w, hi, lo in bands:
                v = w.averages[k]
                fires = fires | (v > hi[owner]) | (v < lo[owner])
            return fires

        return predicate

    return StoppingRule(same_depth(*(w.values for w in ws)), anchor)


def threshold_factory(w: Weight, factor: float = 4.0) -> StoppingRule:
    """Stop where <w>_I >= factor * <w>_I0 (one-sided)."""

    def anchor(roots: Intervals) -> Predicate:
        threshold = factor * roots.gather(w.averages)
        return lambda k, owner: w.averages[k] >= threshold[owner]

    return StoppingRule(w.depth, anchor)


def _scaled_squares(b: np.ndarray, w: Weight) -> list[np.ndarray]:
    """bhat(I)^2/|I| per level k = 0..D of a symbol on w's grid; the leaves
    carry no coefficient."""
    depth = same_depth(b, w.values)
    return square_layers(b) + [np.zeros(1 << depth)]


def _path_sums(q: list[np.ndarray], roots: Intervals) -> dict[int, np.ndarray]:
    """rows[k][j] = sum of q over the path from the root containing I_{k,j}
    down to it, root first, for every level from the top root down (values
    outside the roots mean nothing)."""
    levels = set(roots.levels.tolist())
    top = min(levels)
    rows = {top: q[top]}
    for k in range(top + 1, len(q)):
        rows[k] = q[k] + rows[k - 1].repeat(2)
        if k in levels:  # a root's own row starts afresh
            at = roots.positions[roots.levels == k]
            rows[k][at] = q[k][at]
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
    same_depth(mu.values, rho.values)
    mu_inv = mu.inverse
    q = _scaled_squares(b, rho)

    def anchor(roots: Intervals) -> Predicate:
        hi_mu = C * roots.gather(mu_inv.averages)
        a_rho = roots.gather(rho.averages)
        hi_rho = C * a_rho
        # float_power is libm pow, as Python's ** on a float (a square is not)
        threshold = np.float_power(C_b * a_rho, 2.0)
        rows = _path_sums(q, roots)

        def predicate(k: int, owner: np.ndarray) -> np.ndarray:
            return (
                (mu_inv.averages[k] > hi_mu[owner])
                | (rho.averages[k] > hi_rho[owner])
                | (rows[k] > threshold[owner])
            )

        return predicate

    return StoppingRule(len(q) - 1, anchor)


def square_sum_factories(
    b: np.ndarray, rho: Weight, b2_value: float
) -> Callable[[float], StoppingRule]:
    """C -> the rule that stops where the root-to-I path sum of
    bhat^2/|I'| first exceeds C * b2_value^2 * <rho>_I0^2 (b2_value is a
    Bloom-functional size for b), with b analysed once: the rule_of_c of
    a packing search over C."""
    q = _scaled_squares(b, rho)

    def rule_of_c(C: float) -> StoppingRule:
        def anchor(roots: Intervals) -> Predicate:
            threshold = C * np.float_power(b2_value * roots.gather(rho.averages), 2.0)
            rows = _path_sums(q, roots)
            return lambda k, owner: rows[k] >= threshold[owner]

        return StoppingRule(len(q) - 1, anchor)

    return rule_of_c


def _constant_grid() -> list[float]:
    out = []
    c = _GRID_FACTOR
    while c <= _C_MAX:
        out.append(c)
        c *= _GRID_FACTOR
    return out


def minimal_packing_constant(rule_of_c: Callable[[float], StoppingRule], w: Weight) -> float:
    """Smallest constant on the geometric grid whose stopping family under
    the root packs to at most PACKING_TARGET in w-mass.

    Packing is monotone nonincreasing in C for the factories above (members at
    larger C nest inside members at smaller C), so binary search over the grid
    is valid.  Raises PackingSearchError carrying the best achieved ratio when
    even the largest constant fails.
    """
    candidates = _constant_grid()

    def ratio_at(c: float) -> float:
        return packing_ratio(maximal_stopping_intervals(ROOT, rule_of_c(c)), w)

    best = ratio_at(candidates[-1])
    if best > PACKING_TARGET:
        raise PackingSearchError(
            f"no constant up to {candidates[-1]:.6g} reaches packing target "
            f"{PACKING_TARGET}; best achieved ratio {best:.6g}",
            min_ratio=best,
        )
    lo, hi = 0, len(candidates) - 1
    # invariant: candidates[hi] succeeds
    while lo < hi:
        mid = (lo + hi) // 2
        if ratio_at(candidates[mid]) <= PACKING_TARGET:
            hi = mid
        else:
            lo = mid + 1
    return candidates[hi]


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
) -> float:
    """Smallest grid constant whose packing target holds at EVERY corona root
    (so generation masses decay geometrically).  Monotone in C for the same
    reason as minimal_packing_constant; scanned upward from that constant.
    A caller that already has minimal_packing_constant's result for the same
    arguments passes it as start, and the search is not run again."""
    candidates = _constant_grid()
    if start is None:
        start = minimal_packing_constant(rule_of_c, w)
    idx = candidates.index(min(c for c in candidates if c >= start * (1 - 1e-12)))

    for c in candidates[idx:]:
        gens = corona_generations(rule_of_c(c))
        if all(packing_ratio(fam, w) <= PACKING_TARGET for fam in gens):
            return c
    best = candidates[-1]
    raise PackingSearchError(
        f"no constant up to {best:.6g} packs every corona root to {PACKING_TARGET}",
        min_ratio=math.nan,
    )
