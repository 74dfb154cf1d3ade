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

Exactness.  Every image is a synthesis, grid.split over a heap of steps:
Sh writes the steps +c and -c, c = fhat(I) |I|^{-1/2}, at the children 2i
and 2i+1 of each interval i, and R_b writes -bhat(I) fhat(I) |I|^{-1} at
both.  Neither forms a sqrt(2)*(1/sqrt(2)) product, so small worked
examples reproduce bit for bit.  Pi_b, Pi*_b and Sh^T are whole-heap
products between one analysis and one synthesis (or accumulate_levels), so
every apply costs O(2^D).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InadmissibleLevelError
from .grid import (
    accumulate_levels,
    analyze_leaves,
    depth_of,
    heap_scales,
    level_masses,
    same_depth,
    split,
    spread,
    synthesize_leaves,
)

__all__ = [
    "LeafOperator",
    "paraproduct_operator",
    "paraproduct_plan",
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
    # the symbols' common depth (= depth, if given) and their stacked values(s);
    # a plan of one symbol holds its values unstacked
    if isinstance(b, np.ndarray):
        b = [b]
    rows = [values(s) for s in b]
    return same_depth(*b, depth=depth), np.asarray(rows[0]) if len(b) == 1 else np.stack(rows)


def paraproduct_operator(b: Symbols) -> LeafOperator:
    """Pi_b with transpose Pi*_b; b (one symbol's leaf array or a sequence
    of them) is analysed once, here."""
    _, bv = _symbol_rows(b)
    return paraproduct_plan(analyze_leaves(bv))


def paraproduct_plan(cb: np.ndarray) -> LeafOperator:
    """Pi_b with transpose Pi*_b from the coefficient heap cb of b."""
    depth = depth_of(cb)
    levels = heap_scales(1 << depth).levels

    def apply(f: np.ndarray) -> np.ndarray:
        same_depth(f, depth=depth)
        c = cb * np.ldexp(level_masses(f)[..., : 1 << depth], levels)
        c[..., 0] = 0.0
        return synthesize_leaves(c)

    def transpose(g: np.ndarray) -> np.ndarray:
        same_depth(g, depth=depth)
        return spread(accumulate_levels(np.ldexp(cb * analyze_leaves(g), levels)), depth)

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
    half = max((1 << depth) >> 1, 1)
    root = heap_scales(1 << depth).root[1:half]

    def apply(f: np.ndarray) -> np.ndarray:
        # child steps +c at 2i and -c at 2i+1, c = fhat(I) |I|^{-1/2}
        same_depth(f, depth=depth)
        c = analyze_leaves(f)[..., 1:half] * root
        steps = np.zeros(f.shape[:-1] + (2 * half,))
        steps[..., 2::2], steps[..., 3::2] = c, -c
        return split(steps)

    def transpose(g: np.ndarray) -> np.ndarray:
        same_depth(g, depth=depth)
        cg = analyze_leaves(g)
        out = np.zeros(g.shape[:-1] + (half,))
        out[..., 1:] = (cg[..., 2 : 2 * half : 2] - cg[..., 3 : 2 * half : 2]) / math.sqrt(2.0)
        return synthesize_leaves(out, depth)

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


def _top_level_max(coeffs: np.ndarray) -> float:
    # max |coefficient| on level D-1, the level the shift cannot represent
    return float(np.abs(coeffs[..., coeffs.shape[-1] >> 1 :]).max(initial=0.0))


def is_admissible(f: np.ndarray) -> bool:
    """True when f's spectrum is supported on levels <= D-2."""
    return _top_level_max(analyze_leaves(f)) == 0.0


def project_admissible(f: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the admissible subspace (levels <= D-2)."""
    c = analyze_leaves(f)
    return synthesize_leaves(c[..., : max(c.shape[-1] >> 1, 1)], same_depth(f))


def _admissible_coeffs(b: np.ndarray, f: np.ndarray, what: str, cb: np.ndarray | None):
    # the coefficient heaps of b (cb, when given) and f, each checked admissible
    depth = same_depth(b, f)
    out = []
    for name, coeffs in (("symbol b", analyze_leaves(b) if cb is None else cb),
                         ("argument f", analyze_leaves(f))):
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


def remainder_closed_form(b: np.ndarray, f: np.ndarray, cb: np.ndarray | None = None) -> np.ndarray:
    """Closed form of the expansion remainder Pi_{Sh f} b - Sh(Pi_f b):

        -(1/sqrt(2)) sum_I bhat(I) fhat(I) |I|^{-1/2} (h_{I_-} + h_{I_+}),

    the synthesis of the step -bhat(I) fhat(I) |I|^{-1} at both children of
    each I.  Levels run over 0..D-2, and b and f (one row or stacks of rows)
    must be admissible: the deepest level must be zero to begin with.  cb,
    when given, is b's coefficient heap (grid.analyze_leaves(b)), read
    instead of analysing b again.
    """
    cb, cf = _admissible_coeffs(b, f, "remainder", cb)
    half = max(cb.shape[-1] >> 1, 1)
    s = np.ldexp(cb[..., 1:half] * cf[..., 1:half], heap_scales(cb.shape[-1]).levels[1:half])
    steps = np.zeros(s.shape[:-1] + (2 * half,))
    steps[..., 2:] = np.repeat(-s, 2, axis=-1)  # the same step at both children
    return split(steps)


class ExpansionTerms(NamedTuple):
    """The exact commutator expansion in its three pieces, as leaf arrays,

        [b, Sh] f = [Pi_b, Sh] f + [Pi*_b, Sh] f + R_b f,
        paraproduct = Pi_b(Sh f) - Sh(Pi_b f),
        adjoint     = Pi*_b(Sh f) - Sh(Pi*_b f),
        remainder   = R_b f = Pi_{Sh f} b - Sh(Pi_f b),

    together with the directly computed commutator.  signed_sum assembles the
    right-hand side; residual measures the identity.  sign_flipped_residual
    measures it with the two paraproduct pieces negated (a diagnostic
    variant, generically order one).
    """

    commutator: np.ndarray
    paraproduct: np.ndarray
    adjoint: np.ndarray
    remainder: np.ndarray

    def signed_sum(self) -> np.ndarray:
        return self.paraproduct + self.adjoint + self.remainder

    def residual(self) -> float:
        return float(np.abs(self.signed_sum() - self.commutator).max())

    def sign_flipped_residual(self) -> float:
        return float(np.abs(self.remainder - self.paraproduct - self.adjoint
                            - self.commutator).max())


def expansion_terms(b: np.ndarray, f: np.ndarray, cb: np.ndarray | None = None) -> ExpansionTerms:
    """Compute the three expansion pieces and the direct commutator.

    b and f must be admissible.  Every intermediate is then admissible where
    a shift is applied, so the plans' shift drops nothing: Pi_b f and Pi_f b
    inherit b's and f's coefficient support, and Pi*_b f is constant on the
    (level of I)-blocks of its deepest active I, so its spectrum also stays
    within levels <= D-2.  cb, when given, is b's coefficient heap, as for
    remainder_closed_form.
    """
    cb, cf = _admissible_coeffs(b, f, "expansion", cb)
    depth = depth_of(cb)
    shift = shift_operator(depth).apply
    pi_b = paraproduct_plan(cb)
    shf = shift(f)
    return ExpansionTerms(
        commutator=b * shf - shift(b * f),
        paraproduct=pi_b.apply(shf) - shift(pi_b.apply(f)),
        adjoint=pi_b.transpose(shf) - shift(pi_b.transpose(f)),
        remainder=paraproduct_operator(shf).apply(b)
        - shift(paraproduct_plan(cf).apply(b)),
    )
