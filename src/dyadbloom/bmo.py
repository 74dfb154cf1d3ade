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

Every per-interval array here is a heap over coefficient levels 0..D-1
(grid's layout, entry 0 unread), and each supremum is one argmax over it,
whose first occurrence is the level-major first one.  A CarlesonSequence
holds numbers a_I >= 0 tested against a weight; its subtree sums
(grid.sum_up) and Carleson constant are computed on first read and kept.
_carleson_terms builds the report's two sequences from its one Haar
analysis.  The localized energies int_K |sum_{I subset= K} c_I h_I|^2 w of
bloom_b2_l2form (c_I = bhat(I) <mu^{-1}>_I, w = lambda) and of the
oscillations int_K (b - <b>_K)^2 w (c_I = bhat(I); w = 1 for bmo_rho,
w = lambda for neccon, whose pass the neccon-chain suite reads too) are one
grid.local_integrals pass each, from the one coefficient heap.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import (DyadicInterval, analyze_leaves, depth_of, heap_scales, level, local_integrals,
                   same_depth, sum_up)
from .weights import Weight

__all__ = ["BmoReport", "CarlesonSequence"]


class _SupResult(NamedTuple):
    value: float
    argmax: DyadicInterval


def _sup(heap: np.ndarray) -> _SupResult:
    # the largest of heap[1:] and its level-major first occurrence: the
    # first NaN if there is one (np.argmax), and (-inf, the root) with no
    # number above -inf
    vals = heap[1:]
    i = int(np.argmax(vals))
    return _SupResult(float(vals[i]), DyadicInterval.at(i + 1))


def _sqrt_sup(sup: _SupResult) -> _SupResult:
    # a functional defined as the root of a supremum of squares
    return _SupResult(math.sqrt(max(sup.value, 0.0)), sup.argmax)


def _subtree_sums(values: np.ndarray) -> np.ndarray:
    # sums[i] = sum of values over all intervals contained in interval i
    # (inclusive), by grid's bottom-up pass
    return sum_up(values.copy(), values)


def _carleson_terms(coeffs: np.ndarray, squared: Weight, linear: Weight) -> np.ndarray:
    # a_I = bhat(I)^2 <squared>_I^2 <linear>_I on coefficient levels 0..D-1
    n = coeffs.shape[-1]
    same_depth(squared.values, linear.values, depth=depth_of(coeffs))
    a = coeffs**2 * squared.averages[:n] ** 2 * linear.averages[:n]
    a[0] = 0.0
    return a


class CarlesonSequence:
    """Nonnegative numbers a_I on coefficient levels 0..D-1, tested against a
    weight w of depth D: values is their heap of 2^D entries (entry 0 is
    unread, and 0 in the report's sequences).  Its subtree sums
    (subtree_sums[i] = sum of a_I over I within interval i) and its
    Carleson constant sup_J (1/w(J)) sum_{I subset= J} a_I, with the
    interval achieving it (level-major first occurrence), are computed on
    first read and kept."""

    def __init__(self, values, weight: Weight):
        a = np.array(values, dtype=np.float64)
        if a.ndim != 1:
            raise ValueError(f"expected a heap of 2^D entries, got shape {a.shape}")
        same_depth(weight.values, depth=depth_of(a))
        if np.any(a < 0.0) or not np.all(np.isfinite(a)):
            raise ValueError("Carleson sequence entries must be finite and >= 0")
        a.setflags(write=False)
        self.values = a
        self.weight = weight

    @cached_property
    def subtree_sums(self) -> np.ndarray:
        return _subtree_sums(self.values)

    @cached_property
    def _sup(self) -> _SupResult:
        return _sup(self.subtree_sums / self.weight.masses)

    @property
    def constant(self) -> float:
        return self._sup.value


def _bloom_l2form_scan(coeffs: np.ndarray, mu: Weight, lam: Weight) -> _SupResult:
    mu_inv = mu.inverse
    energy = local_integrals(coeffs * mu_inv.averages[: coeffs.shape[-1]],
                             lambda k, v: v**2 * lam.values)
    return _sqrt_sup(_sup(energy / mu_inv.masses))


def _bmo_rho_scan(coeffs: np.ndarray, rho: Weight) -> _SupResult:
    # on K, b - <b>_K is the synthesis of b's coefficients within K
    return _sqrt_sup(_sup(local_integrals(coeffs, lambda k, v: v**2) / rho.masses))


def _bmo_rho_l1_scan(coeffs: np.ndarray, rho: Weight) -> _SupResult:
    n = coeffs.shape[-1]
    layers = np.ldexp(coeffs**2, heap_scales(n).levels)
    # Bottom-up, suffix becomes the square function restricted to intervals
    # at levels >= k (those contained in a level-k interval): the running sum
    # of the leaf-resolved layers bhat(I)^2/|I| 1_I of levels D-1 down to k.
    suffix = np.zeros(n)
    integrals = np.zeros(n)
    for k in range(depth_of(coeffs) - 1, -1, -1):
        suffix = np.repeat(level(layers, k), n >> k) + suffix
        level(integrals, k)[:] = np.sqrt(suffix).reshape(1 << k, -1).sum(axis=1) / n
    value, where = _sup(integrals / rho.masses)
    return _SupResult(max(value, 0.0), where)


def _neccon_scan(lam_osc: np.ndarray, mu_inv: Weight) -> _SupResult:
    # mu^{-1}(I) 4^k osc(I), each scaling exact
    levels = heap_scales(lam_osc.size).levels
    return _sqrt_sup(_sup(np.ldexp(mu_inv.masses, 2 * levels) * lam_osc))


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
    (coeffs), the Bloom weight rho and lam_oscillation, the integrals
    int_K (b - <b>_K)^2 lambda, each built on first use.
    The constructor checks that b, mu and lambda share a depth:
    GridMismatchError if not.
    """

    NAMES = ("bloom_b2", "bloom_b2_dual", "bloom_b2_l2form", "bmo_rho", "bmo_rho_l1", "neccon")

    bloom_b2 = _Functional(lambda r: _sqrt_sup(r.carleson._sup))
    bloom_b2_dual = _Functional(lambda r: _sqrt_sup(r.carleson_dual._sup))
    bloom_b2_l2form = _Functional(lambda r: _bloom_l2form_scan(r.coeffs, r.mu, r.lam))
    bmo_rho = _Functional(lambda r: _bmo_rho_scan(r.coeffs, r.rho))
    bmo_rho_l1 = _Functional(lambda r: _bmo_rho_l1_scan(r.coeffs, r.rho))
    neccon = _Functional(lambda r: _neccon_scan(r.lam_oscillation, r.mu.inverse))

    def __init__(self, b: np.ndarray, mu: Weight, lam: Weight):
        same_depth(b, mu.values, lam.values)
        self.b, self.mu, self.lam = b, mu, lam
        self._scans: dict[str, _SupResult] = {}

    @cached_property
    def coeffs(self) -> np.ndarray:
        return analyze_leaves(self.b)

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
    def lam_oscillation(self) -> np.ndarray:
        return local_integrals(self.coeffs, lambda k, v: v**2 * self.lam.values)

    @property
    def argmax(self) -> dict[str, DyadicInterval]:
        """The interval achieving each functional (level-major first occurrence)."""
        for name in self.NAMES:
            getattr(self, name)  # runs its scan if not yet read
        return {name: self._scans[name].argmax for name in self.NAMES}

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in self.NAMES},
                "argmax": {name: asdict(iv) for name, iv in self.argmax.items()}}
