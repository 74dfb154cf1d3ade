"""Paraproducts, the dyadic shift, the commutator, and its exact expansion.

Operators act on leaf arrays, the 2^D leaf values of step functions on the
depth-D grid.  With bhat(I) = <b, h_I> and <f>_I the plain average,

    paraproduct:          Pi_b f        = sum_I bhat(I) <f>_I h_I
    adjoint paraproduct:  Pi*_b f       = sum_I bhat(I) fhat(I) 1_I / |I|
    dyadic shift:         Sh h_I        = (h_{I_-} - h_{I_+}) / sqrt(2)
    commutator:           [b, T] f      = b Tf - T(b f), any plan T
    expansion:            [b, Sh] f     = [Pi_b, Sh] f + [Pi*_b, Sh] f + R_b f
    remainder:            R_b f         = Pi_{Sh f} b - Sh(Pi_f b)

(sums over coefficient levels 0..D-1).  The pair (Pi_b, Pi*_b) is an
unweighted-adjoint pair, and Sh is an isometry on mean-free functions whose
spectrum avoids the deepest level; its plan carries the transpose.

Each operator has one API, a LeafOperator of array kernels on leaf arrays,
built once per symbol (b is analysed when the plan is built, not per apply)
by paraproduct_operator, paraproduct_adjoint_operator or shift_operator;
commutator_operator(b, T) builds [b, T] from any of them, so no operator
needs a commutator of its own.  The suites and the norm engine share these
plans.  A plan carries its depth, not a grid.  It may also be built for a
sequence of symbols of one depth (grid.same_depth): it then applies symbol
r to row r of a (rows, 2^D) stack, so one plan serves the lockstep solves
of a whole group of trials.

Admissibility.  Sh maps a level-k coefficient to level k+1, so level-(D-1)
input coefficients have no representation at depth D.  Functions whose
spectrum is supported on levels <= D-2 are called admissible.  The plans
truncate, dropping the offending level (is_admissible tells whether anything
is dropped).  The identity functions expansion_terms (the three pieces of
the expansion and the direct commutator) and remainder_closed_form (R_b f)
are the strict entry points: admissibility is the identities' precondition,
so they raise InadmissibleLevelError when an input is not admissible, and
return leaf arrays.

Exactness.  Sh and the closed-form remainder are computed by quarter patterns:
the image of the I-term of f is coefficient * |I|^{-1} times the sign pattern
(-1, +1, +1, -1) on the four quarters of I, and the remainder term is
bhat(I) fhat(I) |I|^{-1} times (+1, -1, +1, -1).  Both avoid any
sqrt(2)*(1/sqrt(2)) products, so small worked examples reproduce bit for bit.
Both patterns are laid down by one top-down pyramid in O(2^D), like the
grid passes every apply here is built from.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InadmissibleLevelError
from .grid import (
    accumulate_levels,
    analyze_leaves,
    level_masses,
    same_depth,
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
    """A linear map on the leaf values of the depth-D grid, with its
    transpose under the unweighted L^2 pairing <u, v> = mean(u v).  apply
    and transpose are array kernels (2^D leaf values on the last axis in, a
    new array out; another depth raises GridMismatchError) that check no
    finiteness: the norm engine checks its vectors, and leaf data is checked
    where it enters (grid.leaf_values).
    Every kernel takes leading axes: it acts on each row of a stack, bit for
    bit as on that row alone, since every pass is elementwise.  A plan built
    from stacked symbols broadcasts its symbol rows against those axes."""

    depth: int
    apply: Callable[[np.ndarray], np.ndarray]
    transpose: Callable[[np.ndarray], np.ndarray]


Symbols = np.ndarray | Sequence[np.ndarray]


def _symbol_rows(b: Symbols, values=lambda s: s, depth=None) -> tuple[int, np.ndarray]:
    # the symbols' common depth (= depth, if given) and their stacked values(s)
    if isinstance(b, np.ndarray):
        b = [b]
    return same_depth(*b, depth=depth), stack_rows([values(s) for s in b])


def paraproduct_operator(b: Symbols) -> LeafOperator:
    """Pi_b with transpose Pi*_b; b (one symbol's leaf array or a sequence
    of them) is analysed once, here."""
    depth, bv = _symbol_rows(b)
    return _paraproduct_plan(depth, analyze_leaves(bv)[1])


def _paraproduct_plan(depth: int, cb: list[np.ndarray]) -> LeafOperator:
    # Pi_b with transpose Pi*_b from the Haar coefficients cb of b
    def apply(f: np.ndarray) -> np.ndarray:
        same_depth(f, depth=depth)
        masses = level_masses(f)
        out = [cb[k] * (masses[k] * (2.0**k)) for k in range(depth)]
        return synthesize_leaves(0.0, out, depth)

    def transpose(g: np.ndarray) -> np.ndarray:
        same_depth(g, depth=depth)
        _, cg = analyze_leaves(g)
        return accumulate_levels([cb[k] * cg[k] * (1 << k) for k in range(depth)], depth)

    return LeafOperator(depth, apply, transpose)


def paraproduct_adjoint_operator(b: Symbols) -> LeafOperator:
    """Pi*_b with transpose Pi_b."""
    depth, apply, transpose = paraproduct_operator(b)
    return LeafOperator(depth, transpose, apply)


def shift_operator(depth: int) -> LeafOperator:
    """The shift with its deepest input level dropped.

    The coefficient of Sh^T g on a level-k interval I, k <= D-2, is
    (ghat(I_-) - ghat(I_+)) / sqrt(2); the mean, the level-0 coefficient of
    g and the level-(D-1) coefficient of the image are all zero.
    """

    def apply(f: np.ndarray) -> np.ndarray:
        same_depth(f, depth=depth)
        return _shift_values(analyze_leaves(f)[1], depth)

    def transpose(g: np.ndarray) -> np.ndarray:
        same_depth(g, depth=depth)
        _, cg = analyze_leaves(g)
        out = [(cg[k + 1][..., 0::2] - cg[k + 1][..., 1::2]) / math.sqrt(2.0)
               for k in range(depth - 1)]
        return synthesize_leaves(np.zeros(g.shape[:-1]), out, depth)

    return LeafOperator(depth, apply, transpose)


def commutator_operator(b: Symbols, T: LeafOperator) -> LeafOperator:
    """[b, T] f = b Tf - T(b f), transpose T^T(b g) - b T^T g, for any plan T
    of b's depth; each pair of T passes runs as one stack through T's leading
    axes.  Each symbol is centred first, [b, T] = [b - <b>, T], so a constant
    symbol whose computed mean is itself (2.5, say) gives exactly zero."""
    depth, bv = _symbol_rows(b, lambda s: s - s.mean(), T.depth)

    def apply(f: np.ndarray) -> np.ndarray:
        same_depth(f, depth=depth)
        t_f, t_bf = T.apply(np.stack((f, bv * f)))
        return bv * t_f - t_bf

    def transpose(g: np.ndarray) -> np.ndarray:
        same_depth(g, depth=depth)
        t_t_bg, t_t_g = T.transpose(np.stack((bv * g, g)))
        return t_t_bg - bv * t_t_g

    return LeafOperator(depth, apply, transpose)


def _top_level_max(coeffs: list[np.ndarray]) -> float:
    # max |coefficient| on level D-1, the level the shift cannot represent
    return float(np.abs(coeffs[-1]).max(initial=0.0))


def is_admissible(f: np.ndarray) -> bool:
    """True when f's spectrum is supported on levels <= D-2."""
    return _top_level_max(analyze_leaves(f)[1]) == 0.0


def project_admissible(f: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the admissible subspace (levels <= D-2)."""
    mean, coeffs = analyze_leaves(f)
    return synthesize_leaves(mean, coeffs[: max(len(coeffs) - 1, 0)], len(coeffs))


def _admissible_coeffs(b: np.ndarray, f: np.ndarray, what: str):
    # the Haar coefficients of b and f, each checked admissible
    depth = same_depth(b, f)
    out = []
    for name, s in (("symbol b", b), ("argument f", f)):
        coeffs = analyze_leaves(s)[1]
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


def remainder_closed_form(b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Closed form of the expansion remainder Pi_{Sh f} b - Sh(Pi_f b):

        sum_I bhat(I) fhat(I) |I|^{-1} * (+1, -1, +1, -1 on the quarters of I),

    equivalently -(1/sqrt(2)) sum_I bhat(I) fhat(I) |I|^{-1/2} (h_{I_-} + h_{I_+}).
    Levels run over 0..D-2, and b and f must be admissible: the deepest
    level must be zero to begin with.
    """
    cb, cf = _admissible_coeffs(b, f, "remainder")
    depth = len(cb)
    scaled = [cb[k] * cf[k] * (1 << k) for k in range(max(depth - 1, 0))]
    return _quarter_pyramid(scaled, depth, _REMAINDER_SIGNS)


class ExpansionTerms(NamedTuple):
    """The exact commutator expansion in its three pieces, as leaf arrays,

        [b, Sh] f = [Pi_b, Sh] f + [Pi*_b, Sh] f + R_b f,
        paraproduct = Pi_b(Sh f) - Sh(Pi_b f),
        adjoint     = Pi*_b(Sh f) - Sh(Pi*_b f),
        remainder   = R_b f = Pi_{Sh f} b - Sh(Pi_f b),

    together with the directly computed commutator.  signed_sum assembles the
    right-hand side; residual measures the identity.  sign_flipped_sum negates
    the two paraproduct pieces (a diagnostic variant whose residual is
    generically order one).
    """

    commutator: np.ndarray
    paraproduct: np.ndarray
    adjoint: np.ndarray
    remainder: np.ndarray

    def signed_sum(self) -> np.ndarray:
        return self.paraproduct + self.adjoint + self.remainder

    def sign_flipped_sum(self) -> np.ndarray:
        return self.remainder - self.paraproduct - self.adjoint

    def residual(self) -> float:
        return float(np.abs(self.signed_sum() - self.commutator).max())

    def sign_flipped_residual(self) -> float:
        return float(np.abs(self.sign_flipped_sum() - self.commutator).max())


def expansion_terms(b: np.ndarray, f: np.ndarray) -> ExpansionTerms:
    """Compute the three expansion pieces and the direct commutator.

    b and f must be admissible.  Every intermediate is then admissible where
    a shift is applied, so the plans' shift drops nothing: Pi_b f and Pi_f b
    inherit b's and f's coefficient support, and Pi*_b f is constant on the
    (level of I)-blocks of its deepest active I, so its spectrum also stays
    within levels <= D-2.
    """
    cb, cf = _admissible_coeffs(b, f, "expansion")
    depth = len(cb)
    shift = shift_operator(depth).apply
    pi_b = _paraproduct_plan(depth, cb)
    shf = shift(f)
    return ExpansionTerms(
        commutator=b * shf - shift(b * f),
        paraproduct=pi_b.apply(shf) - shift(pi_b.apply(f)),
        adjoint=pi_b.transpose(shf) - shift(pi_b.transpose(f)),
        remainder=paraproduct_operator(shf).apply(b)
        - shift(_paraproduct_plan(depth, cf).apply(b)),
    )
