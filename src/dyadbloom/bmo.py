"""Two-weight BMO-type functionals of a symbol b.

All functionals are suprema over dyadic intervals; each returns the achieved
value, and bmo_report also records the interval achieving it (level-major
first occurrence).  Throughout, mu and lambda are the two weights,
rho = (mu/lambda)^{1/2} is the Bloom weight, and bhat(I) = <b, h_I> are the
unweighted Haar coefficients of b.

The central quantity is the coefficient-form Bloom functional

    bloom_b2(b)^2 = sup_K (1/mu^{-1}(K)) sum_{I subset= K}
                        bhat(I)^2 <mu^{-1}>_I^2 <lambda>_I,

whose localized sums define a Carleson sequence with respect to mu^{-1}; the
sup includes I = K.  bloom_b2_l2form is the corresponding localized-synthesis
supremum.  When lambda is constant the two agree exactly (Parseval); for
general lambda the Haar system is not orthogonal in L^2(lambda), the
off-diagonal terms survive, and the ratio of the two routes is a measured
quantity controlled by the square-function constants of lambda, recorded by
the suites rather than assumed.

Two kinds of supremum carry the functionals here and normest's Carleson
block, each written once.  _carleson_terms(b, squared, linear) builds
a_I = bhat(I)^2 <squared>_I^2 <linear>_I and _carleson_sup(a, w) takes the
sup of its subtree sums over w's level masses (bloom_b2, bloom_b2_dual, the
Carleson sequences and constant, the necessity sums).
_oscillation_masses(b, w) integrates (b - <b>_I)^2 w over every interval of
levels 0..D-1 (bmo_rho with w = 1, neccon_functional and the neccon-chain
suite's mu-normalised oscillation with w = lambda).  _sqrt_sup roots a sup
of squares.  b is a leaf array, and each scan checks once that b and its
weights share a depth (grid.same_depth): GridMismatchError if not.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .grid import DyadicInterval, analyze_leaves, depth_of, level_masses, same_depth, square_layers
from .weights import Weight, rho_weight

__all__ = [
    "bloom_b2",
    "bloom_b2_dual",
    "bloom_b2_l2form",
    "bmo_rho",
    "bmo_rho_l1",
    "neccon_functional",
    "BmoReport",
    "bmo_report",
]


class _SupResult(NamedTuple):
    value: float
    argmax: DyadicInterval


def _sup_over_levels(per_level: list[np.ndarray]) -> _SupResult:
    # per_level[k] holds the candidate value at each level-k interval;
    # ties resolve to the level-major first occurrence.
    best = -math.inf
    where = DyadicInterval(0, 0)
    for k, arr in enumerate(per_level):
        j = int(np.argmax(arr))
        v = float(arr[j])
        if v > best:
            best = v
            where = DyadicInterval(k, j)
    return _SupResult(best, where)


def _sqrt_sup(sup: _SupResult) -> _SupResult:
    # a functional defined as the root of a supremum of squares
    return _SupResult(math.sqrt(max(sup.value, 0.0)), sup.argmax)


def _subtree_sums(per_level: list[np.ndarray]) -> list[np.ndarray]:
    # sums[k][j] = sum of per_level over all intervals contained in I_{k,j}
    # (inclusive), by a bottom-up pass.
    depth = len(per_level)
    sums = [None] * depth  # type: ignore[list-item]
    acc = per_level[depth - 1].copy()
    sums[depth - 1] = acc
    for k in range(depth - 2, -1, -1):
        acc = per_level[k] + acc.reshape(-1, 2).sum(axis=1)
        sums[k] = acc
    return sums


def _carleson_terms(b: np.ndarray, squared: Weight, linear: Weight) -> list[np.ndarray]:
    # a_I = bhat(I)^2 <squared>_I^2 <linear>_I on coefficient levels 0..D-1
    same_depth(b, squared.values, linear.values)
    _, coeffs = analyze_leaves(b)
    return [c**2 * s**2 * t for c, s, t in zip(coeffs, squared.averages, linear.averages)]


def _carleson_sup(per_level: Sequence[np.ndarray], w: Weight) -> _SupResult:
    # sup_J (1/w(J)) sum_{I subset= J} a_I over coefficient levels 0..D-1
    sums = _subtree_sums(per_level)
    return _sup_over_levels([sums[k] / np.ldexp(w.averages[k], -k) for k in range(len(sums))])


def _bloom_b2_scan(b: np.ndarray, squared: Weight, linear: Weight) -> _SupResult:
    # the root of the Carleson constant of _carleson_terms over squared
    return _sqrt_sup(_carleson_sup(_carleson_terms(b, squared, linear), squared))


def bloom_b2(b: np.ndarray, mu: Weight, lam: Weight) -> float:
    """Coefficient-form Bloom functional (see module docstring)."""
    return _bloom_b2_scan(b, mu.inverse, lam).value


def bloom_b2_dual(b: np.ndarray, mu: Weight, lam: Weight) -> float:
    """The dual functional: bloom_b2 with (mu, lambda) -> (lambda^{-1}, mu^{-1}).

    Expanded, its square is sup_K (1/lambda(K)) sum_{I subset= K}
    bhat(I)^2 <lambda>_I^2 <mu^{-1}>_I.
    """
    return _bloom_b2_scan(b, lam, mu.inverse).value


def _bloom_l2form_scan(b: np.ndarray, mu: Weight, lam: Weight) -> _SupResult:
    # For each top level k, the localized syntheses of all level-k intervals
    # K at once: row K of v starts at 0 and level m >= k splits every entry
    # into (v - s, v + s) with s = bhat(I) <mu^{-1}>_I 2^{m/2}, so each leaf
    # sees the additions of a per-K synthesis in the same order.
    depth = same_depth(b, mu.values, lam.values)
    mu_inv = mu.inverse
    _, coeffs = analyze_leaves(b)
    scaled = [
        (coeffs[m] * mu_inv.averages[m]) * math.sqrt(2**m)
        for m in range(depth)
    ]
    lam_vals = lam.values
    leaf_w = 2.0**-depth
    per_level = []
    for k in range(depth):
        v = np.zeros((1 << k, 1))
        for m in range(k, depth):
            s = scaled[m].reshape(1 << k, -1)
            v = np.stack((v - s, v + s), axis=-1).reshape(1 << k, -1)
        energy = (v**2 * lam_vals.reshape(1 << k, -1)).sum(axis=1) * leaf_w
        per_level.append(energy / np.ldexp(mu_inv.averages[k], -k))
    return _sqrt_sup(_sup_over_levels(per_level))


def bloom_b2_l2form(b: np.ndarray, mu: Weight, lam: Weight) -> float:
    """Localized L^2(lambda)-norm form of the Bloom functional:

        sup_K (1/mu^{-1}(K)^{1/2}) || sum_{I subset= K} bhat(I) <mu^{-1}>_I h_I ||_{L^2(lambda)}.

    Independent route from bloom_b2: it synthesizes the localized symbol and
    integrates, instead of summing the coefficient expansion.  The
    syntheses of all level-k intervals K are built together as one
    (2^k, 2^{D-k}) array by a top-down pyramid over levels k..D-1, each leaf
    with the additions of a synthesis on K alone in the same order; the
    energies are its row sums against lambda.  Each top level costs O(2^D),
    so the whole supremum costs O(2^D D).
    """
    return _bloom_l2form_scan(b, mu, lam).value


def _oscillation_masses(b: np.ndarray, w: Weight | None = None) -> list[np.ndarray]:
    # osc[k][j] = integral over I_{k,j} of (b - <b>_I)^2 w (w = 1 when None)
    # on levels 0..D-1, computed by subtracting the interval average from the
    # leaves before squaring; a constant symbol then gives exactly zero
    # instead of cancellation dust.
    depth = depth_of(b)
    n = 1 << depth
    mb = level_masses(b)
    out = []
    for k in range(depth):
        dev2 = (b - np.repeat(mb[k] * (2.0**k), n >> k)) ** 2
        if w is not None:
            dev2 = dev2 * w.values
        out.append(dev2.reshape(1 << k, -1).sum(axis=1) / n)
    return out


def _bmo_rho_scan(b: np.ndarray, rho: Weight) -> _SupResult:
    same_depth(b, rho.values)
    osc = _oscillation_masses(b)
    return _sqrt_sup(_sup_over_levels([osc[k] / np.ldexp(rho.averages[k], -k)
                                       for k in range(len(osc))]))


def bmo_rho(b: np.ndarray, rho: Weight) -> float:
    """Weighted BMO norm: sup_I ( (1/rho(I)) int_I (b - <b>_I)^2 dx )^{1/2}.

    The sup runs over levels 0..D-1; on leaves the oscillation is exactly 0.
    """
    return _bmo_rho_scan(b, rho).value


def _bmo_rho_l1_scan(b: np.ndarray, rho: Weight) -> _SupResult:
    depth = same_depth(b, rho.values)
    n = 1 << depth
    layers = square_layers(b)
    # Bottom-up, suffix becomes the square function restricted to intervals
    # at levels >= k (those contained in a level-k interval): the running sum
    # of the leaf-resolved layers bhat(I)^2/|I| 1_I of levels D-1 down to k.
    suffix = np.zeros(n)
    per_level = [None] * depth  # type: ignore[list-item]
    for k in range(depth - 1, -1, -1):
        suffix = np.repeat(layers[k], n >> k) + suffix
        integrals = np.sqrt(suffix).reshape(1 << k, -1).sum(axis=1) * 2.0**-depth
        per_level[k] = integrals / np.ldexp(rho.averages[k], -k)
    value, where = _sup_over_levels(per_level)
    return _SupResult(max(value, 0.0), where)


def bmo_rho_l1(b: np.ndarray, rho: Weight) -> float:
    """L^1-normalized square-function BMO:

        sup_{I0} (1/rho(I0)) int_{I0} ( sum_{I subset= I0} bhat(I)^2 |I|^{-1} 1_I )^{1/2} dx.
    """
    return _bmo_rho_l1_scan(b, rho).value


def _neccon_scan(b: np.ndarray, mu: Weight, lam: Weight) -> _SupResult:
    mu_inv = mu.inverse
    same_depth(b, mu.values, lam.values)
    osc = _oscillation_masses(b, lam)
    return _sqrt_sup(_sup_over_levels(
        [np.ldexp(mu_inv.averages[k], -k) * (4.0**k) * osc[k] for k in range(len(osc))]
    ))


def neccon_functional(b: np.ndarray, mu: Weight, lam: Weight) -> float:
    """Lower-bound functional:

        sup_I ( (mu^{-1}(I) / |I|^2) int_I (b - <b>_I)^2 lambda dx )^{1/2}.

    The sandwich |I|^2 <= mu(I) mu^{-1}(I) <= [mu]_{A2} |I|^2 (Cauchy-Schwarz
    on the left, the A2 definition on the right) pinches the prefactor
    mu^{-1}(I)/|I|^2 between 1/mu(I) and [mu]_{A2}/mu(I); the suites assert
    the definitional left half of that chain.
    """
    return _neccon_scan(b, mu, lam).value


@dataclass(frozen=True)
class BmoReport:
    """All symbol functionals with their achieving intervals."""

    bloom_b2: float
    bloom_b2_dual: float
    bloom_b2_l2form: float
    bmo_rho: float
    bmo_rho_l1: float
    neccon: float
    argmax: dict

    def to_dict(self) -> dict:
        return asdict(self)


def bmo_report(b: np.ndarray, mu: Weight, lam: Weight) -> BmoReport:
    """Evaluate every functional of b for the pair (mu, lambda)."""
    rho = rho_weight(mu, lam)
    scans = {
        "bloom_b2": _bloom_b2_scan(b, mu.inverse, lam),
        "bloom_b2_dual": _bloom_b2_scan(b, lam, mu.inverse),
        "bloom_b2_l2form": _bloom_l2form_scan(b, mu, lam),
        "bmo_rho": _bmo_rho_scan(b, rho),
        "bmo_rho_l1": _bmo_rho_l1_scan(b, rho),
        "neccon": _neccon_scan(b, mu, lam),
    }
    return BmoReport(**{name: r.value for name, r in scans.items()},
                     argmax={name: r.argmax for name, r in scans.items()})
