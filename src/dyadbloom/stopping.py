"""Stopping times, packing constants, and corona decompositions.

A stopping family under a root I0 is the collection of maximal dyadic
intervals strictly inside I0 where a predicate first fires; descent never
continues below a member.  Predicates come from factories anchored at the
root (factory(root) -> predicate), so corona generations re-anchor
automatically when members become the next roots.

A predicate answers for a whole level at once: predicate(k) returns a bool
array over the root's level-k descendants, left to right (2^(k - level(I0))
entries), or a scalar, which stands for the same answer everywhere on the
level.  The scan walks levels top-down with a mask of the positions already
inside a member, so its cost is a few array operations per level and no
Python work per interval.

The unstopped collection for a family consists of the root together with
every interval inside it that is not contained in any member; each unstopped
interval therefore fails the predicate (the root vacuously), which is what
coefficient-sum estimates over the unstopped collection rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import PackingSearchError
from .grid import DyadicGrid, DyadicInterval, StepFunction, analyze_leaves
from .weights import Weight

__all__ = [
    "StoppingFamily",
    "maximal_stopping_intervals",
    "unstopped_intervals",
    "packing_ratio",
    "deviation_factory",
    "threshold_factory",
    "three_condition_factory",
    "square_sum_factory",
    "minimal_packing_constant",
    "minimal_corona_constant",
    "corona_generations",
]

Predicate = Callable[[int], "np.ndarray | bool"]
PredicateFactory = Callable[[DyadicInterval], Predicate]


@dataclass(frozen=True)
class StoppingFamily:
    """Maximal stopping intervals under one root."""

    grid: DyadicGrid
    root: DyadicInterval
    members: tuple[DyadicInterval, ...]
    generation: int = 1

    def member_mass(self, w: Weight) -> float:
        return float(sum(w.mass(s) for s in self.members))


def _descendants(root: DyadicInterval, k: int) -> slice:
    """Positions of root's level-k descendants within level k."""
    shift = k - root.level
    return slice(root.position << shift, (root.position + 1) << shift)


def maximal_stopping_intervals(
    grid: DyadicGrid,
    root: DyadicInterval,
    predicate: Predicate,
    generation: int = 1,
) -> StoppingFamily:
    """Maximal intervals strictly inside root where predicate holds, by a
    top-down level-mask scan; descent stops at each member, and the scan
    ends once every position is inside a member.  Left-to-right order."""
    members: list[DyadicInterval] = []
    blocked = np.zeros(1, dtype=bool)
    for k in range(root.level + 1, grid.depth + 1):
        blocked = np.repeat(blocked, 2)
        hit = np.asarray(predicate(k)) & ~blocked
        if not hit.any():
            continue
        start = _descendants(root, k).start
        members.extend(DyadicInterval(k, start + int(j)) for j in np.flatnonzero(hit))
        blocked |= hit
        if blocked.all():
            break
    # disjoint, so left endpoint orders them; integer shift keeps it exact
    members.sort(key=lambda s: s.position << (grid.depth - s.level))
    return StoppingFamily(grid, root, tuple(members), generation)


def unstopped_intervals(family: StoppingFamily) -> Iterator[DyadicInterval]:
    """The root plus every interval inside it not contained in a member,
    level-major within the depth-first order of the scan."""
    grid = family.grid
    member_set = set(family.members)
    out: list[DyadicInterval] = []
    stack = [family.root]
    while stack:
        iv = stack.pop()
        if iv in member_set:
            continue
        out.append(iv)
        if iv.level < grid.depth:
            stack.extend([iv.right, iv.left])
    out.sort()
    yield from out


def packing_ratio(family: StoppingFamily, w: Weight) -> float:
    """sum of w-masses of the members divided by the w-mass of the root."""
    return family.member_mass(w) / w.mass(family.root)


def deviation_factory(
    weights: Weight | Sequence[Weight], C: float, two_sided: bool = True
) -> PredicateFactory:
    """Stop where any listed weight's average deviates from its root average:
    <w>_I > C <w>_I0, or (two_sided) <w>_I < <w>_I0 / C."""
    if isinstance(weights, Weight):
        weights = [weights]
    ws = list(weights)
    if C <= 1.0:
        raise ValueError(f"deviation constant must exceed 1, got {C}")

    def factory(root: DyadicInterval) -> Predicate:
        anchors = [w.average(root) for w in ws]

        def predicate(k: int) -> np.ndarray:
            sl = _descendants(root, k)
            fires = np.zeros(sl.stop - sl.start, dtype=bool)
            for w, a in zip(ws, anchors):
                v = w.averages_at_level(k)[sl]
                fires |= v > C * a
                if two_sided:
                    fires |= v < a / C
            return fires

        return predicate

    return factory


def threshold_factory(w: Weight, factor: float = 4.0) -> PredicateFactory:
    """Stop where <w>_I >= factor * <w>_I0 (one-sided)."""

    def factory(root: DyadicInterval) -> Predicate:
        anchor = w.average(root)

        def predicate(k: int) -> np.ndarray:
            return w.averages_at_level(k)[_descendants(root, k)] >= factor * anchor

        return predicate

    return factory


def _path_sum_table(b: StepFunction, root: DyadicInterval) -> dict[int, np.ndarray]:
    """table[k][j - j0*2^(k-k0)] = sum of bhat(I')^2/|I'| over the path
    root >= I' >= I_{k,j}, for intervals inside root.  Level D rows extend the
    level D-1 values (leaves carry no coefficient of their own)."""
    grid = b.grid
    depth = grid.depth
    _, coeffs = analyze_leaves(b.values, depth)
    q = [coeffs[k] ** 2 * (2.0**k) for k in range(depth)]
    table: dict[int, np.ndarray] = {}
    prev = None
    for k in range(root.level, depth + 1):
        sl = _descendants(root, k)
        own = q[k][sl] if k < depth else np.zeros(sl.stop - sl.start)
        if prev is None:
            table[k] = own
        else:
            table[k] = own + np.repeat(prev, 2)
        prev = table[k]
    return table


def three_condition_factory(
    mu: Weight,
    lam: Weight,
    b: StepFunction,
    C: float,
    C_b: float,
) -> PredicateFactory:
    """Stop at the maximal S inside I0 where any of the following holds:

      (1) <mu^{-1}>_S  >  C * <mu^{-1}>_I0
      (2) <rho>_S      >  C * <rho>_I0
      (3) sum over I with S subset= I subset= I0 of bhat(I)^2/|I|
            >  (C_b * <rho>_I0)^2

    rho = (mu/lambda)^{1/2}.  Conditions (1) and (2) give definitional
    Lebesgue packing sum |S| <= 2|I0|/C; (3) is controlled only by
    John-Nirenberg-type behavior and its packing is recorded, not derived.
    """
    from .weights import rho_weight

    mu_inv = mu.inverse
    rho = rho_weight(mu, lam)

    def factory(root: DyadicInterval) -> Predicate:
        a_mu = mu_inv.average(root)
        a_rho = rho.average(root)
        table = _path_sum_table(b, root)
        threshold = (C_b * a_rho) ** 2

        def predicate(k: int) -> np.ndarray:
            sl = _descendants(root, k)
            return (
                (mu_inv.averages_at_level(k)[sl] > C * a_mu)
                | (rho.averages_at_level(k)[sl] > C * a_rho)
                | (table[k] > threshold)
            )

        return predicate

    return factory


def square_sum_factory(
    b: StepFunction, rho: Weight, C: float, b2_value: float
) -> PredicateFactory:
    """Stop where the root-to-I path sum of bhat^2/|I'| first exceeds
    C * b2_value^2 * <rho>_I0^2 (b2_value is a Bloom-functional size for b)."""

    def factory(root: DyadicInterval) -> Predicate:
        a_rho = rho.average(root)
        table = _path_sum_table(b, root)
        threshold = C * (b2_value * a_rho) ** 2

        def predicate(k: int) -> np.ndarray:
            return table[k] >= threshold

        return predicate

    return factory


def _constant_grid(grid_factor: float, c_max: float) -> list[float]:
    out = []
    c = grid_factor
    while c <= c_max:
        out.append(c)
        c *= grid_factor
    return out


def minimal_packing_constant(
    grid: DyadicGrid,
    root: DyadicInterval,
    factory_of_c: Callable[[float], PredicateFactory],
    w: Weight,
    target: float = 0.5,
    grid_factor: float = 1.1,
    c_max: float = float(1 << 20),
) -> float:
    """Smallest constant on the geometric grid {grid_factor^k : k >= 1} whose
    stopping family packs to at most `target` in w-mass.

    Packing is monotone nonincreasing in C for the factories above (members at
    larger C nest inside members at smaller C), so binary search over the grid
    is valid.  Raises PackingSearchError carrying the best achieved ratio when
    even the largest constant fails.
    """
    candidates = _constant_grid(grid_factor, c_max)

    def ratio_at(c: float) -> float:
        fam = maximal_stopping_intervals(grid, root, factory_of_c(c)(root))
        return packing_ratio(fam, w)

    best = ratio_at(candidates[-1])
    if best > target:
        raise PackingSearchError(
            f"no constant up to {candidates[-1]:.6g} reaches packing target "
            f"{target}; best achieved ratio {best:.6g}",
            min_ratio=best,
        )
    lo, hi = 0, len(candidates) - 1
    # invariant: candidates[hi] succeeds
    while lo < hi:
        mid = (lo + hi) // 2
        if ratio_at(candidates[mid]) <= target:
            hi = mid
        else:
            lo = mid + 1
    return candidates[hi]


def corona_generations(
    grid: DyadicGrid,
    root: DyadicInterval,
    factory: PredicateFactory,
    max_generations: int = 32,
) -> list[list[StoppingFamily]]:
    """Iterate stopping families: generation g+1 roots are generation g
    members.  Stops after an empty generation (always recorded) or at the cap.
    Element i of the result is generation i+1."""
    generations: list[list[StoppingFamily]] = []
    roots = [root]
    for g in range(1, max_generations + 1):
        fams = [
            maximal_stopping_intervals(grid, r, factory(r), generation=g)
            for r in roots
        ]
        generations.append(fams)
        roots = [s for fam in fams for s in fam.members]
        if not roots:
            break
    return generations


def minimal_corona_constant(
    grid: DyadicGrid,
    root: DyadicInterval,
    factory_of_c: Callable[[float], PredicateFactory],
    w: Weight,
    target: float = 0.5,
    grid_factor: float = 1.1,
    c_max: float = float(1 << 20),
    max_generations: int = 64,
    start: float | None = None,
) -> float:
    """Smallest grid constant whose packing target holds at EVERY corona root
    (so generation masses decay geometrically).  Monotone in C for the same
    reason as minimal_packing_constant; scanned upward from that constant.
    A caller that already has minimal_packing_constant's result for the same
    arguments passes it as start, and the search is not run again."""
    candidates = _constant_grid(grid_factor, c_max)
    if start is None:
        start = minimal_packing_constant(
            grid, root, factory_of_c, w, target, grid_factor, c_max
        )
    idx = candidates.index(min(c for c in candidates if c >= start * (1 - 1e-12)))

    def corona_ok(c: float) -> bool:
        gens = corona_generations(grid, root, factory_of_c(c), max_generations)
        for fams in gens:
            for fam in fams:
                if fam.members and packing_ratio(fam, w) > target:
                    return False
        return True

    for i in range(idx, len(candidates)):
        if corona_ok(candidates[i]):
            return candidates[i]
    best = candidates[-1]
    raise PackingSearchError(
        f"no constant up to {best:.6g} packs every corona root to {target}",
        min_ratio=math.nan,
    )
