"""Two-weight BMO-type functionals of a symbol b.

BmoReport(b, mu, lam) is the one entry: its six attributes are suprema over
dyadic intervals, each scanned when first read and kept with the interval
achieving it (level-major first occurrence).  Throughout, mu and lambda are
the two weights, rho = (mu/lambda)^{1/2} is the Bloom weight, and
bhat(I) = <b, h_I> are the unweighted Haar coefficients of b.

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

Two kinds of supremum carry the functionals here, each written once.  A
CarlesonSequence holds numbers a_I >= 0 on coefficient levels 0..D-1 tested
against a weight w; its subtree sums and its Carleson constant
sup_J (1/w(J)) sum_{I subset= J} a_I are computed on first read and kept.
The report's two sequences, carleson and carleson_dual, are built by
_carleson_terms(coeffs, squared, linear), a_I = bhat(I)^2 <squared>_I^2
<linear>_I, from the report's one Haar analysis: bloom_b2 and bloom_b2_dual
are the roots of their constants, and normest's embedding checks and
necessity sums read the same sequences.  _oscillation_masses(b, w)
integrates (b - <b>_I)^2 w over every interval of levels 0..D-1 (bmo_rho
with w = 1; neccon and the neccon-chain suite's mu-normalised oscillation
read the report's one w = lambda pass).  _sqrt_sup roots a sup of squares.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import DyadicInterval, analyze_leaves, depth_of, level_masses, same_depth
from .weights import Weight

__all__ = ["BmoReport", "CarlesonSequence"]


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


def _carleson_terms(coeffs: list[np.ndarray], squared: Weight, linear: Weight) -> list[np.ndarray]:
    # a_I = bhat(I)^2 <squared>_I^2 <linear>_I on coefficient levels 0..D-1
    same_depth(squared.values, linear.values, depth=len(coeffs))
    return [c**2 * s**2 * t for c, s, t in zip(coeffs, squared.averages, linear.averages)]


class CarlesonSequence:
    """Nonnegative numbers a_I on coefficient levels 0..D-1, tested against a
    weight w of depth D: the sequence's depth is its number of levels.  Its
    subtree sums (sums[k][j] = sum of a_I over I subset= I_{k,j}) and its
    Carleson constant sup_J (1/w(J)) sum_{I subset= J} a_I, with the interval
    achieving it (level-major first occurrence), are computed on first read
    and kept."""

    def __init__(self, level_values, weight: Weight):
        same_depth(weight.values, depth=len(level_values))
        frozen = []
        for k, arr in enumerate(level_values):
            a = np.array(arr, dtype=np.float64)
            if a.shape != (1 << k,):
                raise ValueError(f"level {k} must have {1 << k} entries")
            if np.any(a < 0.0) or not np.all(np.isfinite(a)):
                raise ValueError("Carleson sequence entries must be finite and >= 0")
            a.setflags(write=False)
            frozen.append(a)
        self.level_values = tuple(frozen)
        self.weight = weight

    @cached_property
    def subtree_sums(self) -> list[np.ndarray]:
        return _subtree_sums(self.level_values)

    @cached_property
    def _sup(self) -> _SupResult:
        sums, w = self.subtree_sums, self.weight
        return _sup_over_levels([sums[k] / np.ldexp(w.averages[k], -k) for k in range(len(sums))])

    @property
    def constant(self) -> float:
        return self._sup.value


def _bloom_l2form_scan(coeffs: list[np.ndarray], mu: Weight, lam: Weight) -> _SupResult:
    # For each top level k, the localized syntheses of all level-k intervals
    # K at once, end to end in v: each starts at 0, and level m >= k splits
    # every entry into (v - s, v + s), s = bhat(I) <mu^{-1}>_I 2^{m/2}, so
    # each leaf sees the additions of a per-K synthesis in the same order.
    depth = len(coeffs)
    mu_inv = mu.inverse
    scaled = [
        (coeffs[m] * mu_inv.averages[m]) * math.sqrt(2**m)
        for m in range(depth)
    ]
    leaf_w = 2.0**-depth
    per_level = []
    for k in range(depth):
        v = np.zeros(1 << k)
        for m in range(k, depth):
            split = np.empty(2 << m)
            np.subtract(v, scaled[m], out=split[0::2])
            np.add(v, scaled[m], out=split[1::2])
            v = split
        energy = (v**2 * lam.values).reshape(1 << k, -1).sum(axis=1) * leaf_w
        per_level.append(energy / np.ldexp(mu_inv.averages[k], -k))
    return _sqrt_sup(_sup_over_levels(per_level))


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
    osc = _oscillation_masses(b)
    return _sqrt_sup(_sup_over_levels([osc[k] / np.ldexp(rho.averages[k], -k)
                                       for k in range(len(osc))]))


def _bmo_rho_l1_scan(coeffs: list[np.ndarray], rho: Weight) -> _SupResult:
    depth = len(coeffs)
    n = 1 << depth
    # Bottom-up, suffix becomes the square function restricted to intervals
    # at levels >= k (those contained in a level-k interval): the running sum
    # of the leaf-resolved layers bhat(I)^2/|I| 1_I of levels D-1 down to k.
    suffix = np.zeros(n)
    per_level = [None] * depth  # type: ignore[list-item]
    for k in range(depth - 1, -1, -1):
        suffix = np.repeat(coeffs[k]**2 * 2.0**k, n >> k) + suffix
        integrals = np.sqrt(suffix).reshape(1 << k, -1).sum(axis=1) * 2.0**-depth
        per_level[k] = integrals / np.ldexp(rho.averages[k], -k)
    value, where = _sup_over_levels(per_level)
    return _SupResult(max(value, 0.0), where)


def _neccon_scan(lam_osc: list[np.ndarray], mu_inv: Weight) -> _SupResult:
    return _sqrt_sup(_sup_over_levels(
        [np.ldexp(mu_inv.averages[k], -k) * (4.0**k) * lam_osc[k] for k in range(len(lam_osc))]
    ))


class _Functional:
    """A BmoReport attribute: the value of its scan of the report, run when
    first read and kept with its achieving interval."""

    def __init__(self, scan: Callable[[BmoReport], _SupResult]):
        self.scan = scan

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, report: BmoReport | None, owner: type | None = None):
        if report is None:
            return self
        if self.name not in report._scans:
            report._scans[self.name] = self.scan(report)
        return report._scans[self.name].value


class BmoReport:
    """The six functionals of b for the pair (mu, lambda), each computed the
    first time it is read and then kept.  Sups run over levels 0..D-1.

    bloom_b2         the coefficient-form Bloom functional (module docstring).
    bloom_b2_dual    bloom_b2 with (mu, lambda) -> (lambda^{-1}, mu^{-1}), the root of
                     sup_K (1/lambda(K)) sum_{I subset= K} bhat(I)^2 <lambda>_I^2 <mu^{-1}>_I.
    bloom_b2_l2form  the localized-synthesis form, an independent route from bloom_b2:
                     sup_K (1/mu^{-1}(K)^{1/2}) || sum_{I subset= K} bhat(I) <mu^{-1}>_I h_I
                     ||_{L^2(lambda)}, at O(2^D D) for all K together.
    bmo_rho          the weighted BMO norm sup_I ((1/rho(I)) int_I (b - <b>_I)^2 dx)^{1/2}.
    bmo_rho_l1       the L^1-normalized square-function BMO
                     sup_I0 (1/rho(I0)) int_I0 (sum_{I subset= I0} bhat(I)^2 |I|^{-1} 1_I)^{1/2} dx.
    neccon           the lower-bound functional
                     sup_I ((mu^{-1}(I) / |I|^2) int_I (b - <b>_I)^2 lambda dx)^{1/2}.  As
                     |I|^2 <= mu(I) mu^{-1}(I) <= [mu]_{A2} |I|^2 (Cauchy-Schwarz, then the A2
                     definition), neccon^2 lies between sup_I (1/mu(I)) int_I (b - <b>_I)^2
                     lambda dx and [mu]_{A2} times it; the neccon-chain suite asserts both.

    Two Carleson sequences (module docstring) carry the Bloom functionals:
    carleson, a_I = bhat(I)^2 <mu^{-1}>_I^2 <lambda>_I tested against mu^{-1},
    whose constant is bloom_b2^2, and carleson_dual, a_I = bhat(I)^2
    <lambda>_I^2 <mu^{-1}>_I tested against lambda itself, whose constant is
    bloom_b2_dual^2.  Scans and sequences share b's Haar coefficients
    (coeffs), the Bloom weight rho and lam_oscillation =
    _oscillation_masses(b, lambda), each built on first use.
    The constructor checks that b, mu and lambda share a depth:
    GridMismatchError if not.
    """

    NAMES = ("bloom_b2", "bloom_b2_dual", "bloom_b2_l2form", "bmo_rho", "bmo_rho_l1", "neccon")

    bloom_b2 = _Functional(lambda r: _sqrt_sup(r.carleson._sup))
    bloom_b2_dual = _Functional(lambda r: _sqrt_sup(r.carleson_dual._sup))
    bloom_b2_l2form = _Functional(lambda r: _bloom_l2form_scan(r.coeffs, r.mu, r.lam))
    bmo_rho = _Functional(lambda r: _bmo_rho_scan(r.b, r.rho))
    bmo_rho_l1 = _Functional(lambda r: _bmo_rho_l1_scan(r.coeffs, r.rho))
    neccon = _Functional(lambda r: _neccon_scan(r.lam_oscillation, r.mu.inverse))

    def __init__(self, b: np.ndarray, mu: Weight, lam: Weight):
        same_depth(b, mu.values, lam.values)
        self.b, self.mu, self.lam = b, mu, lam
        self._scans: dict[str, _SupResult] = {}

    @cached_property
    def coeffs(self) -> list[np.ndarray]:
        return analyze_leaves(self.b)[1]

    @cached_property
    def carleson(self) -> CarlesonSequence:
        mu_inv = self.mu.inverse
        return CarlesonSequence(_carleson_terms(self.coeffs, mu_inv, self.lam), mu_inv)

    @cached_property
    def carleson_dual(self) -> CarlesonSequence:
        return CarlesonSequence(_carleson_terms(self.coeffs, self.lam, self.mu.inverse), self.lam)

    @cached_property
    def rho(self) -> Weight:
        return Weight(np.sqrt(self.mu.values / self.lam.values))

    @cached_property
    def lam_oscillation(self) -> list[np.ndarray]:
        return _oscillation_masses(self.b, self.lam)

    @property
    def argmax(self) -> dict[str, DyadicInterval]:
        """The interval achieving each functional (level-major first occurrence)."""
        for name in self.NAMES:
            getattr(self, name)  # runs its scan if not yet read
        return {name: self._scans[name].argmax for name in self.NAMES}

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in self.NAMES},
                "argmax": {name: asdict(iv) for name, iv in self.argmax.items()}}
