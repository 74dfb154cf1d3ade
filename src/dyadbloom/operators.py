"""Paraproducts, the dyadic shift, the commutator, and its exact expansion.

Operators act on step functions of one grid.  With bhat(I) = <b, h_I> and
<f>_I the plain average,

    paraproduct:          Pi_b f        = sum_I bhat(I) <f>_I h_I
    adjoint paraproduct:  Pi*_b f       = sum_I bhat(I) fhat(I) 1_I / |I|
    dyadic shift:         Sh h_I        = (h_{I_-} - h_{I_+}) / sqrt(2)

(sums over coefficient levels 0..D-1).  The pair (Pi_b, Pi*_b) is an
unweighted-adjoint pair, and Sh is an isometry on mean-free functions whose
spectrum avoids the deepest level; shift_adjoint is its transpose.

Admissibility.  Sh maps a level-k coefficient to level k+1, so level-(D-1)
input coefficients have no representation at depth D.  Functions whose
spectrum is supported on levels <= D-2 are called admissible; mode="strict"
(the default) raises InadmissibleLevelError when the input is not, and
mode="truncate" drops the offending level and reports a flag.

Exactness.  Sh and the expansion remainder are computed by quarter patterns:
the image of the I-term of f is coefficient * |I|^{-1} times the sign pattern
(-1, +1, +1, -1) on the four quarters of I, and the remainder term is
bhat(I) fhat(I) |I|^{-1} times (+1, -1, +1, -1).  Both avoid any
sqrt(2)*(1/sqrt(2)) products, so small worked examples reproduce bit for bit.
Both patterns are laid down by one top-down pyramid in O(2^D), like the
grid passes every apply here is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleLevelError
from .grid import (
    DyadicGrid,
    StepFunction,
    accumulate_levels,
    analyze_leaves,
    level_masses,
    synthesize_leaves,
)

__all__ = [
    "admissible_max_level",
    "is_admissible",
    "project_admissible",
    "paraproduct",
    "paraproduct_adjoint",
    "haar_shift",
    "shift_adjoint",
    "commutator_shift",
    "remainder_closed_form",
    "ExpansionTerms",
    "expansion_terms",
]


def admissible_max_level(grid: DyadicGrid) -> int:
    """Deepest coefficient level the shift can represent at this depth: D-2."""
    return grid.depth - 2


def is_admissible(f: StepFunction, atol: float = 0.0) -> bool:
    """True when f's spectrum is supported on levels <= D-2 (within atol)."""
    _, coeffs = analyze_leaves(f.values, f.grid.depth)
    top = f.grid.depth - 1
    if top < 0:
        return True
    return float(np.abs(coeffs[top]).max(initial=0.0)) <= atol


def project_admissible(f: StepFunction) -> StepFunction:
    """Orthogonal projection onto the admissible subspace (levels <= D-2)."""
    mean, coeffs = analyze_leaves(f.values, f.grid.depth)
    keep = coeffs[: max(f.grid.depth - 1, 0)]
    return StepFunction(f.grid, synthesize_leaves(mean, keep, f.grid.depth))


def _check_admissible(coeffs: list[np.ndarray], depth: int, what: str, atol: float):
    top = depth - 1
    if top < 0:
        return
    worst = float(np.abs(coeffs[top]).max(initial=0.0))
    if worst > atol:
        raise InadmissibleLevelError(
            f"{what} has a nonzero Haar coefficient at level {top} "
            f"(max |coeff| = {worst:.3e}); the shift cannot represent its image "
            f"at depth {depth}. Project to levels <= {depth - 2} or use "
            f"mode='truncate'.",
            level=top,
            max_abs=worst,
        )


def paraproduct(b: StepFunction, f: StepFunction) -> StepFunction:
    """Pi_b f = sum_I bhat(I) <f>_I h_I.  Output has mean 0."""
    depth = b.grid.depth
    if b.grid != f.grid:
        from .errors import GridMismatchError

        raise GridMismatchError("b and f must live on the same grid")
    _, cb = analyze_leaves(b.values, depth)
    masses = level_masses(f.values, depth)
    out_coeffs = [cb[k] * (masses[k] * (2.0**k)) for k in range(depth)]
    return StepFunction(b.grid, synthesize_leaves(np.asarray(0.0), out_coeffs, depth))


def paraproduct_adjoint(b: StepFunction, f: StepFunction) -> StepFunction:
    """Pi*_b f = sum_I bhat(I) fhat(I) 1_I / |I|, the unweighted adjoint of Pi_b."""
    depth = b.grid.depth
    if b.grid != f.grid:
        from .errors import GridMismatchError

        raise GridMismatchError("b and f must live on the same grid")
    _, cb = analyze_leaves(b.values, depth)
    _, cf = analyze_leaves(f.values, depth)
    terms = [cb[k] * cf[k] * (1 << k) for k in range(depth)]
    return StepFunction(b.grid, accumulate_levels(terms, depth))


_SHIFT_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])
_REMAINDER_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def _quarter_pyramid(scaled: list[np.ndarray], depth: int, signs) -> np.ndarray:
    # Leaf values of sum_k scaled[k] * signs on the four quarters of each
    # level-k interval, k <= D-2, top-down: v holds the sum so far at the
    # resolution of level-(k+1) intervals, and each level widens it by 2 and
    # adds +-scaled[k] on the quarters (adding s * -1 is subtracting s,
    # exactly).  Every leaf is 0 +- s_0 +- s_1 ... in level order, the chain
    # of adding each level onto all 2^D leaves.
    v = np.zeros(2)
    for k in range(max(depth - 1, 0)):
        v = (np.repeat(v, 2).reshape(1 << k, 4) + scaled[k][:, None] * signs).ravel()
    return v


def _shift_values(coeffs: list[np.ndarray], depth: int) -> np.ndarray:
    # Image of sum_k coeffs: each level-k interval I contributes
    # coeff * |I|^{-1/2} * (-1, +1, +1, -1) on its quarters, which is
    # (h_{I_-} - h_{I_+})/sqrt(2) without irrational intermediates.
    scaled = [coeffs[k] * math.sqrt(2**k) for k in range(max(depth - 1, 0))]
    return _quarter_pyramid(scaled, depth, _SHIFT_SIGNS)


def haar_shift(
    f: StepFunction,
    mode: str = "strict",
    atol: float = 0.0,
    return_flag: bool = False,
):
    """Apply the dyadic shift Sh: h_I -> (h_{I_-} - h_{I_+}) / sqrt(2).

    Constants map to 0.  mode="strict" raises InadmissibleLevelError when f
    has level-(D-1) coefficients above atol; mode="truncate" zeroes them.
    With return_flag=True, returns (result, truncated) where truncated records
    whether anything was dropped.
    """
    if mode not in ("strict", "truncate"):
        raise ValueError(f"mode must be 'strict' or 'truncate', got {mode!r}")
    depth = f.grid.depth
    _, coeffs = analyze_leaves(f.values, depth)
    truncated = False
    if depth >= 1:
        top = depth - 1
        worst = float(np.abs(coeffs[top]).max(initial=0.0))
        if worst > atol:
            if mode == "strict":
                _check_admissible(coeffs, depth, "shift input", atol)
            truncated = True
    result = StepFunction(f.grid, _shift_values(coeffs, depth))
    if return_flag:
        return result, truncated
    return result


def shift_adjoint(f: StepFunction) -> StepFunction:
    """Transpose of the (truncating) shift under the unweighted L^2 pairing.

    The coefficient of Sh^T f on a level-k interval I, k <= D-2, is
    (fhat(I_-) - fhat(I_+)) / sqrt(2); the mean, the level-0 coefficient of
    f and the level-(D-1) coefficient of the image are all zero.
    """
    depth = f.grid.depth
    _, cf = analyze_leaves(f.values, depth)
    out = [(cf[k + 1][0::2] - cf[k + 1][1::2]) / math.sqrt(2.0) for k in range(depth - 1)]
    return StepFunction(f.grid, synthesize_leaves(np.asarray(0.0), out, depth))


def commutator_shift(
    b: StepFunction, f: StepFunction, mode: str = "strict", atol: float = 0.0
) -> StepFunction:
    """[b, Sh] f = b * Sh(f) - Sh(b * f).

    In strict mode both b and f must be admissible; the product b*f is then
    admissible automatically (it is constant on level-(D-1) blocks, with
    bitwise-equal sibling leaves, so its top coefficients vanish exactly) and
    no truncation can occur anywhere in the formula.
    """
    depth = b.grid.depth
    if mode == "strict":
        _, cb = analyze_leaves(b.values, depth)
        _, cf = analyze_leaves(f.values, depth)
        _check_admissible(cb, depth, "commutator symbol b", atol)
        _check_admissible(cf, depth, "commutator argument f", atol)
    shf = haar_shift(f, mode="truncate")
    sh_bf = haar_shift(b * f, mode="truncate")
    return b * shf - sh_bf


def remainder_closed_form(
    b: StepFunction, f: StepFunction, mode: str = "strict", atol: float = 0.0
) -> StepFunction:
    """Closed form of the expansion remainder Pi_{Sh f} b - Sh(Pi_f b):

        sum_I bhat(I) fhat(I) |I|^{-1} * (+1, -1, +1, -1 on the quarters of I),

    equivalently -(1/sqrt(2)) sum_I bhat(I) fhat(I) |I|^{-1/2} (h_{I_-} + h_{I_+}).
    Levels run over 0..D-2 (the shift drops the deepest level either way; in
    strict mode that level must be zero to begin with).
    """
    depth = b.grid.depth
    _, cb = analyze_leaves(b.values, depth)
    _, cf = analyze_leaves(f.values, depth)
    if mode == "strict":
        _check_admissible(cb, depth, "remainder symbol b", atol)
        _check_admissible(cf, depth, "remainder argument f", atol)
    scaled = [cb[k] * cf[k] * (1 << k) for k in range(max(depth - 1, 0))]
    return StepFunction(b.grid, _quarter_pyramid(scaled, depth, _REMAINDER_SIGNS))


@dataclass(frozen=True)
class ExpansionTerms:
    """The six terms of the exact commutator expansion

        [b, Sh] f = Pi_b(Sh f) - Sh(Pi_b f)
                  + Pi*_b(Sh f) - Sh(Pi*_b f)
                  + Pi_{Sh f} b - Sh(Pi_f b),

    together with the directly computed commutator.  signed_sum assembles the
    right-hand side; residual measures the identity.  sign_flipped_sum negates
    the first four terms (a diagnostic variant whose residual is generically
    order one).
    """

    commutator: StepFunction
    pi_b_shf: StepFunction
    sh_pi_b_f: StepFunction
    pi_b_star_shf: StepFunction
    sh_pi_b_star_f: StepFunction
    pi_shf_b: StepFunction
    sh_pi_f_b: StepFunction

    def signed_sum(self) -> StepFunction:
        return (
            self.pi_b_shf
            - self.sh_pi_b_f
            + self.pi_b_star_shf
            - self.sh_pi_b_star_f
            + self.pi_shf_b
            - self.sh_pi_f_b
        )

    def sign_flipped_sum(self) -> StepFunction:
        return (
            self.sh_pi_b_f
            - self.pi_b_shf
            + self.sh_pi_b_star_f
            - self.pi_b_star_shf
            + self.pi_shf_b
            - self.sh_pi_f_b
        )

    def residual(self) -> float:
        diff = self.signed_sum() - self.commutator
        return float(np.abs(diff.values).max())

    def sign_flipped_residual(self) -> float:
        diff = self.sign_flipped_sum() - self.commutator
        return float(np.abs(diff.values).max())

    def remainder(self) -> StepFunction:
        return self.pi_shf_b - self.sh_pi_f_b


def expansion_terms(
    b: StepFunction, f: StepFunction, mode: str = "strict", atol: float = 0.0
) -> ExpansionTerms:
    """Compute all six expansion terms and the direct commutator.

    For admissible b and f every intermediate is admissible where a shift is
    applied: Pi_b f and Pi_f b inherit b's and f's coefficient support, and
    Pi*_b f is constant on the (level of I)-blocks of its deepest active I,
    so its spectrum also stays within levels <= D-2.
    """
    depth = b.grid.depth
    if mode == "strict":
        _, cb = analyze_leaves(b.values, depth)
        _, cf = analyze_leaves(f.values, depth)
        _check_admissible(cb, depth, "expansion symbol b", atol)
        _check_admissible(cf, depth, "expansion argument f", atol)
    shf = haar_shift(f, mode="truncate")
    return ExpansionTerms(
        commutator=commutator_shift(b, f, mode="truncate"),
        pi_b_shf=paraproduct(b, shf),
        sh_pi_b_f=haar_shift(paraproduct(b, f), mode="truncate"),
        pi_b_star_shf=paraproduct_adjoint(b, shf),
        sh_pi_b_star_f=haar_shift(paraproduct_adjoint(b, f), mode="truncate"),
        pi_shf_b=paraproduct(shf, b),
        sh_pi_f_b=haar_shift(paraproduct(f, b), mode="truncate"),
    )
