"""Paraproducts, the dyadic shift, the commutator, and its exact expansion.

Operators act on step functions of one grid.  With bhat(I) = <b, h_I> and
<f>_I the plain average,

    paraproduct:          Pi_b f        = sum_I bhat(I) <f>_I h_I
    adjoint paraproduct:  Pi*_b f       = sum_I bhat(I) fhat(I) 1_I / |I|
    dyadic shift:         Sh h_I        = (h_{I_-} - h_{I_+}) / sqrt(2)

(sums over coefficient levels 0..D-1).  The pair (Pi_b, Pi*_b) is an
unweighted-adjoint pair, and Sh is an isometry on mean-free functions whose
spectrum avoids the deepest level; its plan carries the transpose.

Each operator has one API, a LeafOperator of array kernels on leaf arrays,
built once per symbol (b is analysed when the plan is built, not per apply)
by paraproduct_operator, paraproduct_adjoint_operator, shift_operator or
commutator_operator.  The suites and the norm engine share these plans.  A
plan may also be built for a sequence of symbols on one grid: it then
applies symbol r to row r of a (rows, 2^D) stack, so one plan serves the
lockstep solves of a whole group of trials.

Admissibility.  Sh maps a level-k coefficient to level k+1, so level-(D-1)
input coefficients have no representation at depth D.  Functions whose
spectrum is supported on levels <= D-2 are called admissible.  The plans
truncate, dropping the offending level (is_admissible tells whether anything
is dropped).  The identity functions expansion_terms and
remainder_closed_form are the strict entry points: admissibility is the
identities' precondition, so they raise InadmissibleLevelError when an
input is not admissible, and return leaf arrays.

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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InadmissibleLevelError
from .grid import (
    DyadicGrid,
    StepFunction,
    _check_same_grid,
    accumulate_levels,
    analyze_leaves,
    level_masses,
    stack_rows,
    synthesize_leaves,
)

__all__ = [
    "LeafOperator",
    "paraproduct_operator",
    "paraproduct_adjoint_operator",
    "shift_operator",
    "commutator_operator",
    "is_admissible",
    "project_admissible",
    "remainder_closed_form",
    "ExpansionTerms",
    "expansion_terms",
]


class LeafOperator(NamedTuple):
    """A linear map on the leaf values of one grid, with its transpose under
    the unweighted L^2 pairing <u, v> = mean(u v).  apply and transpose are
    array kernels (2^D leaf values on the last axis in, a new array out)
    that check no finiteness: the norm engine checks its vectors, and a
    StepFunction is checked when it is built.  Every kernel takes leading
    axes: it acts on each row of a stack, bit for bit as on that row alone,
    since every pass is elementwise.  A plan built from stacked symbols
    broadcasts its symbol rows against those axes."""

    grid: DyadicGrid
    apply: Callable[[np.ndarray], np.ndarray]
    transpose: Callable[[np.ndarray], np.ndarray]


Symbols = StepFunction | Sequence[StepFunction]


def _symbol_rows(b: Symbols, values=lambda s: s.values) -> tuple[DyadicGrid, np.ndarray]:
    # the grid and values(s) of each symbol s, stacked by stack_rows
    if isinstance(b, StepFunction):
        b = [b]
    for s in b[1:]:
        _check_same_grid(b[0], s)
    return b[0].grid, stack_rows([values(s) for s in b])


def paraproduct_operator(b: Symbols) -> LeafOperator:
    """Pi_b with transpose Pi*_b; b (one symbol or a stack) is analysed
    once, here."""
    grid, bv = _symbol_rows(b)
    depth = grid.depth
    _, cb = analyze_leaves(bv, depth)

    def apply(f: np.ndarray) -> np.ndarray:
        masses = level_masses(f, depth)
        out = [cb[k] * (masses[k] * (2.0**k)) for k in range(depth)]
        return synthesize_leaves(0.0, out, depth)

    def transpose(g: np.ndarray) -> np.ndarray:
        _, cg = analyze_leaves(g, depth)
        return accumulate_levels([cb[k] * cg[k] * (1 << k) for k in range(depth)], depth)

    return LeafOperator(grid, apply, transpose)


def paraproduct_adjoint_operator(b: Symbols) -> LeafOperator:
    """Pi*_b with transpose Pi_b."""
    grid, apply, transpose = paraproduct_operator(b)
    return LeafOperator(grid, transpose, apply)


def shift_operator(grid: DyadicGrid) -> LeafOperator:
    """The shift with its deepest input level dropped.

    The coefficient of Sh^T g on a level-k interval I, k <= D-2, is
    (ghat(I_-) - ghat(I_+)) / sqrt(2); the mean, the level-0 coefficient of
    g and the level-(D-1) coefficient of the image are all zero.
    """
    depth = grid.depth

    def apply(f: np.ndarray) -> np.ndarray:
        return _shift_values(analyze_leaves(f, depth)[1], depth)

    def transpose(g: np.ndarray) -> np.ndarray:
        _, cg = analyze_leaves(g, depth)
        out = [(cg[k + 1][..., 0::2] - cg[k + 1][..., 1::2]) / math.sqrt(2.0)
               for k in range(depth - 1)]
        return synthesize_leaves(np.zeros(g.shape[:-1]), out, depth)

    return LeafOperator(grid, apply, transpose)


def _commutator_plan(grid: DyadicGrid, bv: np.ndarray) -> LeafOperator:
    # [b, Sh] f = b Sh(f) - Sh(b f), transpose Sh^T(b g) - b Sh^T(g); each
    # pair of shift passes runs as one pass over a (2, 2^D) stack.
    _, sh, sh_t = shift_operator(grid)

    def apply(f: np.ndarray) -> np.ndarray:
        sh_f, sh_bf = sh(np.stack((f, bv * f)))
        return bv * sh_f - sh_bf

    def transpose(g: np.ndarray) -> np.ndarray:
        sh_t_bg, sh_t_g = sh_t(np.stack((bv * g, g)))
        return sh_t_bg - bv * sh_t_g

    return LeafOperator(grid, apply, transpose)


def commutator_operator(b: Symbols) -> LeafOperator:
    """[b, Sh] with transpose Sh^T b - b Sh^T, deepest shift input level
    dropped.

    Each symbol is centred first: [b, Sh] = [b - <b>, Sh], and the centred
    form makes a constant symbol give exactly zero.
    """
    return _commutator_plan(*_symbol_rows(b, lambda s: s.values - s.integral()))


def _top_level_max(coeffs: list[np.ndarray]) -> float:
    # max |coefficient| on level D-1, the level the shift cannot represent
    return float(np.abs(coeffs[-1]).max(initial=0.0))


def is_admissible(f: StepFunction) -> bool:
    """True when f's spectrum is supported on levels <= D-2."""
    return _top_level_max(analyze_leaves(f.values, f.grid.depth)[1]) == 0.0


def project_admissible(f: StepFunction) -> StepFunction:
    """Orthogonal projection onto the admissible subspace (levels <= D-2)."""
    mean, coeffs = analyze_leaves(f.values, f.grid.depth)
    keep = coeffs[: max(f.grid.depth - 1, 0)]
    return StepFunction(f.grid, synthesize_leaves(mean, keep, f.grid.depth))


def _admissible_coeffs(b: StepFunction, f: StepFunction, what: str):
    # the Haar coefficients of b and f, each checked admissible
    _check_same_grid(b, f)
    depth = b.grid.depth
    out = []
    for name, s in (("symbol b", b), ("argument f", f)):
        coeffs = analyze_leaves(s.values, depth)[1]
        worst = _top_level_max(coeffs)
        if worst > 0.0:
            raise InadmissibleLevelError(
                f"{what} {name} has a nonzero Haar coefficient at level {depth - 1} "
                f"(max |coeff| = {worst:.3e}); the shift cannot represent its image "
                f"at depth {depth}. Project to levels <= {depth - 2} or use "
                f"the operator plans, which truncate.",
                level=depth - 1,
                max_abs=worst,
            )
        out.append(coeffs)
    return out


_SHIFT_SIGNS = (np.subtract, np.add, np.add, np.subtract)
_REMAINDER_SIGNS = (np.add, np.subtract, np.add, np.subtract)


def _quarter_pyramid(scaled: list[np.ndarray], depth: int, signs, batch=()) -> np.ndarray:
    # Leaf values of sum_k scaled[k] * signs on the four quarters of each
    # level-k interval, k <= D-2, top-down: v holds the sum so far at the
    # resolution of level-(k+1) intervals, and quarter q of each level-k
    # interval is written as v -+ scaled[k] straight into the strided view
    # [q::4] of the next level.  Every leaf is 0 +- s_0 +- s_1 ... in level
    # order, the chain of adding each level onto all 2^D leaves.
    v = np.zeros(batch + (2,))
    for k in range(max(depth - 1, 0)):
        w = np.empty(batch + (4 << k,))
        for q, op in enumerate(signs):
            op(v[..., q >> 1::2], scaled[k], out=w[..., q::4])
        v = w
    return v


def _shift_values(coeffs: list[np.ndarray], depth: int) -> np.ndarray:
    # Image of sum_k coeffs: each level-k interval I contributes
    # coeff * |I|^{-1/2} * (-1, +1, +1, -1) on its quarters, which is
    # (h_{I_-} - h_{I_+})/sqrt(2) without irrational intermediates.
    scaled = [coeffs[k] * math.sqrt(2**k) for k in range(max(depth - 1, 0))]
    return _quarter_pyramid(scaled, depth, _SHIFT_SIGNS, coeffs[0].shape[:-1])


def remainder_closed_form(b: StepFunction, f: StepFunction) -> np.ndarray:
    """Closed form of the expansion remainder Pi_{Sh f} b - Sh(Pi_f b):

        sum_I bhat(I) fhat(I) |I|^{-1} * (+1, -1, +1, -1 on the quarters of I),

    equivalently -(1/sqrt(2)) sum_I bhat(I) fhat(I) |I|^{-1/2} (h_{I_-} + h_{I_+}).
    Levels run over 0..D-2, and b and f must be admissible: the deepest
    level must be zero to begin with.
    """
    depth = b.grid.depth
    cb, cf = _admissible_coeffs(b, f, "remainder")
    scaled = [cb[k] * cf[k] * (1 << k) for k in range(max(depth - 1, 0))]
    return _quarter_pyramid(scaled, depth, _REMAINDER_SIGNS)


@dataclass(frozen=True)
class ExpansionTerms:
    """The six terms of the exact commutator expansion, as leaf arrays,

        [b, Sh] f = Pi_b(Sh f) - Sh(Pi_b f)
                  + Pi*_b(Sh f) - Sh(Pi*_b f)
                  + Pi_{Sh f} b - Sh(Pi_f b),

    together with the directly computed commutator.  signed_sum assembles the
    right-hand side; residual measures the identity.  sign_flipped_sum negates
    the first four terms (a diagnostic variant whose residual is generically
    order one).
    """

    commutator: np.ndarray
    pi_b_shf: np.ndarray
    sh_pi_b_f: np.ndarray
    pi_b_star_shf: np.ndarray
    sh_pi_b_star_f: np.ndarray
    pi_shf_b: np.ndarray
    sh_pi_f_b: np.ndarray

    def signed_sum(self) -> np.ndarray:
        return (
            self.pi_b_shf
            - self.sh_pi_b_f
            + self.pi_b_star_shf
            - self.sh_pi_b_star_f
            + self.pi_shf_b
            - self.sh_pi_f_b
        )

    def sign_flipped_sum(self) -> np.ndarray:
        return (
            self.sh_pi_b_f
            - self.pi_b_shf
            + self.sh_pi_b_star_f
            - self.pi_b_star_shf
            + self.pi_shf_b
            - self.sh_pi_f_b
        )

    def residual(self) -> float:
        return float(np.abs(self.signed_sum() - self.commutator).max())

    def sign_flipped_residual(self) -> float:
        return float(np.abs(self.sign_flipped_sum() - self.commutator).max())

    def remainder(self) -> np.ndarray:
        return self.pi_shf_b - self.sh_pi_f_b


def expansion_terms(b: StepFunction, f: StepFunction) -> ExpansionTerms:
    """Compute all six expansion terms and the direct commutator.

    b and f must be admissible.  Every intermediate is then admissible where
    a shift is applied, so the plans' shift drops nothing: Pi_b f and Pi_f b
    inherit b's and f's coefficient support, and Pi*_b f is constant on the
    (level of I)-blocks of its deepest active I, so its spectrum also stays
    within levels <= D-2.
    """
    _admissible_coeffs(b, f, "expansion")
    grid = b.grid
    shift = shift_operator(grid).apply
    pi_b = paraproduct_operator(b)
    shf = shift(f.values)
    return ExpansionTerms(
        commutator=_commutator_plan(grid, b.values).apply(f.values),
        pi_b_shf=pi_b.apply(shf),
        sh_pi_b_f=shift(pi_b.apply(f.values)),
        pi_b_star_shf=pi_b.transpose(shf),
        sh_pi_b_star_f=shift(pi_b.transpose(f.values)),
        pi_shf_b=paraproduct_operator(StepFunction(grid, shf)).apply(b.values),
        sh_pi_f_b=shift(paraproduct_operator(f).apply(b.values)),
    )
