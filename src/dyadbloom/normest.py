"""Weighted operator norms, best constants, Carleson embedding.

Every operator is used only through its plan in operators.py, and [b, T]
through commutator_operator(b, T) on T's plan: a LeafOperator whose apply
and its transpose under the unweighted pairing <u, v> = mean(u v) are
O(2^D) array kernels, built once per symbol and shared with the
verification suites; nothing here builds an n x n array.  Symbols are leaf
arrays and weights carry theirs; every solver checks once that they share
a depth (grid.same_depth).  The pairing's leaf width 2^{-D} cancels between
domain and codomain, so

    || T : L^2(mu) -> L^2(lambda) ||^2 = lambda_max(W'W),
    W = diag(sqrt(lambda)) T diag(1/sqrt(mu)),

with W'W applied as x -> mu^{-1/2} T'(lambda T(mu^{-1/2} x)).

Best constants of the quadratic inequalities x'Ax <= C x'Gx met here have a
diagonal G, so C = lambda_max(G^{-1/2} A G^{-1/2}), with A applied through
the analysis and level_masses heaps.

Every top eigenvalue comes from _top_eigenvalues, a numpy thick-restart
Lanczos on the symmetric operator with full reorthogonalisation, started
from one fixed seeded random vector, so repeated calls return bitwise-equal
floats.  The start vector is random, not constant, because constants lie in
the kernel of the shift.  After every step it takes the top Ritz value
theta, its residual r and the Ritz gap theta_1 - theta_2, and stops once
r^2 <= eps * theta * max(gap, r): a Ritz value's error is about r^2 / gap
(Parlett, The Symmetric Eigenvalue Problem, 1980), and where gap < r the
test is ARPACK's tol=0 test r <= eps * theta.  Under any stop rule theta is
a lower bound on the top eigenvalue up to rounding, and nothing bounds it
from above.  r^2 / gap is an estimate, not a bound: by Cauchy interlacing
theta_2 <= lambda_2, so the Ritz gap can overstate the true gap, and a top
cluster the basis has not yet resolved can leave theta low by up to the
cluster's width.  Each matvec output is checked for finiteness once, and a
zero operator is recognised from the first image, at no extra apply.

The engine runs in lockstep on a (rows, 2^D) stack, one row included:
independent problems share one stacked matvec, the stacked Gram-Schmidt
products and one stacked eigh (each matrix diagonalised on its own) per
step, and only the stop test and the restart run row by row, so each row
returns bitwise what it returns alone.
The solvers (weighted_operator_norms, ppott_best_constants,
carleson_embedding_checks) take one symbol and weight (pair) per row and
return one TopEigen (value, matvecs, residual, gap) per row, and one
problem is a one-row call.  SOLVES is the one table of named eigenproblems:
each entry is a solver and the rows one BmoReport contributes, and
solve_named solves the named entries for a list of reports, each entry in
as few lockstep solves as the width cap allows.  The verification suites
read it for a group of trials, and compute_norm_report for one triple its
paraproduct, shift and commutator entries: ||Pi*_b|| = ||Pi_b|| by
transposition, so the report's adjoint value and diagnostics are the
paraproduct's solve; the paraproduct-bounds suite solves both routes and
checks that duality.

The Carleson block ties the coefficient functionals to embedding constants.
Its sequences are bmo.CarlesonSequence, whose constant is computed once and
kept; BmoReport builds b's two (carleson and carleson_dual), whose
constants are bloom_b2^2 and bloom_b2_dual^2, and the necessity sums read
the primal one's subtree sums.  carleson_embedding_checks solves for the
best constant C* of

    sum_I a_I E^w_I(phi)^2 <= C* ||phi||^2_{L^2(w)},

which the classical dyadic embedding theorem pins within [seq.constant,
4 * seq.constant].
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bmo import BmoReport, CarlesonSequence
from .errors import DyadBloomError
from .grid import (
    accumulate_levels,
    analyze_leaves,
    depth_of,
    heap_scales,
    level,
    level_masses,
    local_integrals,
    same_depth,
    split,
    spread,
    synthesize_leaves,
)
from .operators import (
    LeafOperator,
    commutator_operator,
    is_admissible,
    paraproduct_adjoint_operator,
    paraproduct_operator,
    shift_operator,
)
from .weights import Weight, a2_characteristic

__all__ = [
    "TopEigen",
    "lockstep_chunks",
    "weighted_operator_norms",
    "ppott_best_constants",
    "carleson_embedding_checks",
    "SOLVES",
    "solve_named",
    "necessity_restriction_ratios",
    "necessity_test_function_bound",
    "NormReport",
    "compute_norm_report",
]


# Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000):
# ARPACK's default basis size for one eigenvalue, the Ritz vectors a restart
# keeps, the restart cap per leaf (ARPACK's default maxiter is 10 n restart
# cycles), and the leaf columns a restart rotates at a time so that it needs
# no second basis.
_BASIS = 20
_KEEP = 10
_RESTARTS_PER_LEAF = 10
_ROTATE_COLUMNS = 4096
_EPS = float(np.finfo(np.float64).eps)
# Leaves per lockstep solve: rows x 2^D stays within this.  While 2^D is
# small a stacked step costs about what one row's step does (Python overhead
# per pyramid level), so stacking pays until the arithmetic on the stack
# dominates: measured, 8192 leaves still gain at every depth up to 12, while
# two rows at D=13 cost more than two solves.  So D >= 13 solves one row at
# a time, and reach and peak memory at depth are those of single solves.
_LOCKSTEP_LEAVES = 1 << 13


def lockstep_chunks(rows: Sequence, n: int) -> list:
    """rows in consecutive chunks of at most _LOCKSTEP_LEAVES // n (at least
    one): the rows worth solving in one lockstep solve at length n."""
    width = max(1, _LOCKSTEP_LEAVES // n)
    return [rows[i : i + width] for i in range(0, len(rows), width)]


class TopEigen(NamedTuple):
    """One row's top Ritz value, the matvecs it took, the residual
    |beta s_m| of that Ritz pair (0.0 for a zero operator), and the gap
    theta_1 - theta_2 to the next Ritz value at the stop (0.0 for a zero or
    one-step stop), so residual^2 / gap estimates the value's error."""

    value: float
    matvecs: int
    residual: float
    gap: float


def _top_eigenvalues(
    n: int, matvec: Callable[[np.ndarray], np.ndarray], rows: int
) -> list[TopEigen]:
    """Largest eigenvalue of each of `rows` symmetric positive semidefinite
    n x n operators, applied together: matvec maps a (rows, n) stack to the
    stack of images, row r of the input to row r of the output.  One row is
    a one-row stack, of shape (1, n).

    Each row runs its own thick-restart Lanczos from one fixed seeded random
    start vector.  Each step is one stacked matvec, the stacked products of
    the scaling, the Gram-Schmidt passes, the norms and the basis update
    (per stack item, numpy's matmul makes the same BLAS call as a one-row
    product), and one stacked eigh, which diagonalises each row's
    projected matrix on its own.  Only the stop test and the restart
    rotation run row by row.  Each row's quantities (scaling, projected
    matrix, restart, stop test, restart cap) are its own, so each row
    returns bitwise the result it returns when solved alone, and repeated
    calls return bitwise-equal floats.  A row that has stopped rides along
    on a zero vector until the last row stops; its images are not read.

    Each new vector is reorthogonalised against the whole basis by two
    passes of classical Gram-Schmidt, whose coefficients fill the projected
    matrix.  A full basis of 20 vectors restarts from its top 10 Ritz
    vectors, so at most 21 vectors of length n are held per row.  Images are
    scaled by the power of two that puts the row's first image's largest
    entry in [1/2, 1): exact, and it keeps squared norms from overflowing or
    underflowing.

    After every step the row's (j+1) x (j+1) projected matrix is
    diagonalised, and its top Ritz value theta is returned once

        r^2 <= eps |theta| max(gap, r),

    r = |beta s_m| the residual (beta the next residual norm, s_m the last
    entry of theta's eigenvector) and gap = theta_1 - theta_2 the gap to the
    next Ritz value (0 after one step).  r^2 / gap estimates theta's error,
    so this stops once the estimate is at most eps |theta|; while gap < r it
    is ARPACK's tol=0 test r <= eps |theta|, whose eps^(2/3) floor on
    |theta| cannot bind once theta >= 1/2 after the scaling.  The estimate is
    no bound: the Ritz gap can overstate the true gap (theta_2 <= lambda_2),
    and a top cluster not yet resolved leaves theta low by up to its width.
    theta is a lower bound up to rounding, which builds up over restart
    cycles (57 eps after 110 cycles on a clustered diagonal, n = 4096);
    nothing bounds it from above.  The last step's diagonalisation of a full
    basis also gives its restart.

    A non-finite image raises ValueError (a stopped row's zero input has a
    zero image under the library's linear kernels).  A zero first
    image gives 0.0 (a random start vector lies in the kernel of a nonzero
    operator with probability zero).  A residual at the rounding level of
    the Gram-Schmidt passes, or a basis spanning all n dimensions, means the
    basis is invariant: the top eigenvalue of the projected matrix is taken
    at once.  A row not converged within the restart cap, ARPACK's default
    of 10 n restart cycles, raises DyadBloomError.
    """
    m = min(_BASIS, n)
    basis = np.zeros((rows, m + 1, n))
    proj = np.zeros((rows, m, m))
    start = np.random.default_rng(0).standard_normal(n)
    basis[:, 0] = start / math.sqrt(start @ start)
    ritz: list = [None] * rows  # each row's last (theta, s), for its restart
    out = [TopEigen(0.0, 1, 0.0, 0.0)] * rows  # a zero first image's result
    steps = 0
    j = 0
    cap = _RESTARTS_PER_LEAF * n
    for _ in range(cap):
        while j < m:
            w = matvec(basis[:, j])
            steps += 1
            if not np.isfinite(w).all():
                raise ValueError("operator image is not finite")
            if steps == 1:
                peaks = np.abs(w).max(axis=-1)
                shifts = -np.frexp(peaks)[1]
                live = np.flatnonzero(peaks)
                if not live.size:
                    return out
            w = np.ldexp(w, shifts[:, None])
            image_norms = np.sqrt(w[:, None] @ w[..., None])[..., 0]
            v = basis[:, : j + 1]
            h = v @ w[..., None]
            w -= (h.swapaxes(-1, -2) @ v)[:, 0]
            c = v @ w[..., None]
            w -= (c.swapaxes(-1, -2) @ v)[:, 0]
            h += c
            proj[:, : j + 1, j] = h[..., 0]
            betas = np.sqrt(w[:, None] @ w[..., None])[..., 0]
            # one stacked eigh diagonalises each row's projected matrix on its own
            thetas, ss = np.linalg.eigh(proj[live, : j + 1, : j + 1], UPLO="U")
            going = np.zeros((rows, 1), dtype=bool)
            for r, theta, s in zip(live, thetas, ss):
                ritz[r] = theta, s
                residual = abs(betas[r, 0] * s[-1, -1])
                gap = float(theta[-1] - theta[-2]) if j else 0.0
                if (j + 1 == n or betas[r, 0] <= (j + 1) * _EPS * image_norms[r, 0]
                        or residual * residual <= _EPS * abs(theta[-1]) * max(gap, residual)):
                    out[r] = TopEigen(max(float(np.ldexp(theta[-1], -shifts[r])), 0.0), steps,
                                      float(np.ldexp(residual, -shifts[r])),
                                      float(np.ldexp(gap, -shifts[r])))
                    if len(live) > 1:
                        basis[r] = 0.0  # ride along on a zero vector
                else:
                    going[r] = True
            live = np.flatnonzero(going)
            if not live.size:
                return out
            np.divide(w, betas, out=basis[:, j + 1], where=going)
            j += 1
        for r in live:
            theta, s = ritz[r]
            kept = s[:, -_KEEP:].T
            for lo in range(0, n, _ROTATE_COLUMNS):
                cols = slice(lo, lo + _ROTATE_COLUMNS)
                basis[r, :_KEEP, cols] = kept @ basis[r, :m, cols]
            basis[r, _KEEP] = basis[r, m]
            proj[r] = 0.0
            proj[r, range(_KEEP), range(_KEEP)] = theta[-_KEEP:]
        j = _KEEP
    raise DyadBloomError(
        f"Lanczos did not converge within its restart cap of {cap} restarts"
        f" ({_RESTARTS_PER_LEAF} n, n = {n})"
    )


def weighted_operator_norms(
    T: LeafOperator, mus: Sequence[Weight], lams: Sequence[Weight]
) -> list[TopEigen]:
    """|| T_r : L^2(mu_r) -> L^2(lambda_r) || for each row r, as one
    lockstep solve: T is a plan of one operator or of one symbol per row
    (operators.py), and each row's value is the square root of
    lambda_max(W_r'W_r), bitwise what that row gives alone.  matvecs,
    residual and gap are those of W_r'W_r's top Ritz pair.  One norm is the
    one-row call weighted_operator_norms(T, [mu], [lam])[0].value."""
    depth = same_depth(*(w.values for w in (*mus, *lams)), depth=T.depth)
    scale = 1.0 / np.sqrt(np.stack([mu.values for mu in mus]))
    lam_vals = np.stack([lam.values for lam in lams])

    def normal(x: np.ndarray) -> np.ndarray:
        return scale * T.transpose(lam_vals * T.apply(scale * x))

    return [e._replace(value=math.sqrt(e.value))
            for e in _top_eigenvalues(1 << depth, normal, len(mus))]


def ppott_best_constants(ws: Sequence[Weight]) -> list[TopEigen]:
    """Best constant C of the weighted coefficient-energy inequality

        sum_I fhat(I)^2 / <w>_I  <=  C ||f||^2_{L^2(w^{-1})}

    for each weight w, as one lockstep solve.  With f = sqrt(w) y the right
    side is ||y||^2, so C is the top eigenvalue of
    y -> sqrt(w) * synthesis(analysis(sqrt(w) y) / <w>_I).  Bounded below by
    1/[w]_{A2} and equals 1 exactly when w is constant.
    """
    n = 1 << same_depth(*(w.values for w in ws))
    root_w = np.sqrt(np.stack([w.values for w in ws]))
    inv_avgs = 1.0 / np.stack([w.averages[:n] for w in ws])

    def form(y: np.ndarray) -> np.ndarray:
        c = analyze_leaves(root_w * y) * inv_avgs
        c[..., 0] = 0.0
        return root_w * synthesize_leaves(c)

    return _top_eigenvalues(n, form, len(ws))


def carleson_embedding_checks(seqs: Sequence[CarlesonSequence]) -> list[TopEigen]:
    """Best constant C* of sum_I a_I E^w_I(phi)^2 <= C* ||phi||^2_{L^2(w)}
    for each sequence, as one lockstep solve: each row's value is C* (a zero
    sequence is a zero operator: its row stops at its first image with
    0.0).

    With phi = y / sqrt(w 2^{-D}) the right side is ||y||^2, so C* is the top
    eigenvalue of y -> sqrt(w) sum_I a_I E^w_I(y / sqrt(w)) 1_I / w(I).  The
    classical dyadic embedding theorem pins C* within [seq.constant,
    4 * seq.constant]; callers assert that window.
    """
    depth = same_depth(*(seq.weight.values for seq in seqs))
    n = 1 << depth
    root_w = np.sqrt(np.stack([seq.weight.values for seq in seqs]))
    level_weights = np.stack([seq.values / seq.weight.masses**2 for seq in seqs])

    def form(y: np.ndarray) -> np.ndarray:
        terms = level_weights * level_masses(root_w * y)[..., :n]
        return root_w * spread(accumulate_levels(terms), depth)

    return _top_eigenvalues(1 << depth, form, len(seqs))


def _norms(plan: Callable) -> Callable[[list], list[TopEigen]]:
    # weighted norms of one operator kind over rows (symbol, mu, lambda):
    # one plan for all the rows' symbols
    def solve(rows: list) -> list[TopEigen]:
        bs, mus, lams = zip(*rows)
        return weighted_operator_norms(plan(bs), mus, lams)
    return solve


# name -> (solver, the rows of one report); a solver maps the rows of any
# number of reports to one TopEigen per row.  A zero Carleson sequence is a
# zero operator: its row stops at its first image with 0.0.
SOLVES: dict[str, tuple[Callable[[list], list[TopEigen]], Callable[[BmoReport], list]]] = {
    "paraproduct": (_norms(paraproduct_operator), lambda r: [(r.b, r.mu, r.lam)]),
    "adjoint": (_norms(paraproduct_adjoint_operator),
                lambda r: [(r.b, r.lam.inverse, r.mu.inverse)]),
    "shift": (lambda ws: weighted_operator_norms(shift_operator(ws[0].depth), ws, ws),
              lambda r: [r.mu, r.lam]),
    "commutator": (_norms(lambda bs: commutator_operator(bs, shift_operator(depth_of(bs[0])))),
                   lambda r: [(r.b, r.mu, r.lam)]),
    "embedding": (carleson_embedding_checks, lambda r: [r.carleson]),
    "best_constant": (ppott_best_constants, lambda r: [r.mu, r.lam]),
}


def solve_named(names: Sequence[str], reports: Sequence[BmoReport]) -> list[dict[str, list]]:
    """Each report's TopEigen rows of the named SOLVES entries, {name: rows},
    each entry solved for all the reports in as few lockstep solves as the
    width cap allows; a row's result does not depend on the other rows."""
    n = 1 << reports[0].mu.depth
    out: list[dict[str, list]] = [{} for _ in reports]
    for name in names:
        solver, rows_of = SOLVES[name]
        rows = [rows_of(r) for r in reports]
        flat = [row for report_rows in rows for row in report_rows]
        eigen = iter([e for chunk in lockstep_chunks(flat, n) for e in solver(chunk)])
        for solved, report_rows in zip(out, rows):
            solved[name] = [next(eigen) for _ in report_rows]
    return out


def necessity_restriction_ratios(rep: BmoReport) -> np.ndarray:
    """Per-interval ratios behind the test-function lower bound, for the
    symbol and weights of rep, as a heap over levels 0..D-1 (entry 0 is 0).

    For each K the test function is phi_K = mu^{-1} 1_K, whose L^2(mu) norm is
    mu^{-1}(K)^{1/2}.  With

        num(K)^2 = (1/mu^{-1}(K)) sum_{I subset= K} bhat(I)^2 <mu^{-1}>_I^2 <lambda>_I
        den(K)   = || Pi_b phi_K ||_{L^2(lambda)} / mu^{-1}(K)^{1/2}

    the ratio num/den compares the localized coefficient sum (whose sup over K
    is bloom_b2) with the normalized action of the full paraproduct on the
    test function.  Pi_b phi_K reproduces the localized coefficients on I
    subset= K; intervals containing K add a term constant on K plus mass
    outside K, so the comparison is not an exact identity and the suites
    record where the ratio lands.  num(K) = 0 forces every localized term to
    vanish, and the ratio is defined as 0 there.

    The images are not formed one K at a time: three heaps give all of
    them, so the pass costs O(2^D D) rather than one O(2^D) paraproduct per
    K (O(4^D) in all).  For K at level k, <phi_K>_I is
    <mu^{-1}>_I for I subset= K, mu^{-1}(K)/|I| for I containing K
    strictly, and 0 otherwise, so

      - on K, Pi_b phi_K = L_k + mu^{-1}(K) P(K), where L_k is the synthesis
        of bhat(I) <mu^{-1}>_I over levels >= k and
        P(J) = sum_{I strictly containing J} bhat(I) |I|^{-1} h_I(J), a path
        sum: P(child) = P(parent) -+ bhat(parent) 2^{3 k'/2} for the left and
        right child of a level-k' parent;
      - off K, Pi_b phi_K = mu^{-1}(K) P(S) on each sibling S of K and of
        each ancestor of K; these siblings tile [0,1) outside K.

    Hence ||Pi_b phi_K||^2_{L^2(lambda)} is the integral over K of
    (L_k + mu^{-1}(K) P(K))^2 lambda plus mu^{-1}(K)^2 R(K), with
    R(child) = R(parent) + P(sibling)^2 lambda(sibling) and R(root) = 0:
    P is grid.split, R grid.accumulate_levels, and the integrals over K
    one grid.local_integrals pass, which builds every L_k on the leaves.
    """
    lam, cb, sums = rep.lam, rep.coeffs, rep.carleson.subtree_sums
    n = cb.shape[-1]
    levels, root = heap_scales(n)
    mu_mass = rep.mu.inverse.masses
    # P and R on every level k: the passes over the levels above k
    steps = (np.ldexp(cb, levels) * root)[: n >> 1]  # bhat(I) 2^{3k/2}
    steps[0] = 0.0
    paths = np.concatenate([[0.0], *(split(steps[: 1 << k]) for k in range(depth_of(cb)))])
    terms = (paths**2 * lam.masses)[np.arange(n) ^ 1]
    terms[:2] = 0.0
    outside = np.concatenate([[0.0], *(accumulate_levels(terms[: 2 << k])
                                       for k in range(depth_of(cb)))])
    # (L_k + mu^{-1}(K) P(K))^2 lambda on K, L_k on the leaves of the localized pass
    on = local_integrals(cb * rep.mu.inverse.averages[:n], lambda k, local: (
        local + np.repeat(level(mu_mass, k) * level(paths, k), n >> k))**2 * lam.values)
    num = sums / mu_mass  # entry 0 is no interval: sums[0] is 0
    den = (on + mu_mass**2 * outside) / mu_mass
    return np.sqrt(np.divide(num, den, out=np.zeros(n), where=num != 0.0))


def necessity_test_function_bound(rep: BmoReport) -> float:
    """Max over K of the restriction ratio above (0 when b has no active
    coefficients at all)."""
    return float(necessity_restriction_ratios(rep).max())


@dataclass(frozen=True)
class NormReport:
    """One full snapshot: weight characteristics, symbol functionals, operator
    norms, and their dimensionless ratios."""

    depth: int
    a2_mu: float
    a2_lambda: float
    a2_rho: float
    bmo: BmoReport
    norm_paraproduct: float
    norm_paraproduct_adjoint: float
    norm_shift_mu: float
    norm_shift_lambda: float
    norm_commutator: float
    shift_truncated: bool
    ratios: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # the report is no dataclass: asdict would deep-copy it, not convert it
        return {**asdict(replace(self, bmo=None)), "bmo": self.bmo.to_dict()}


def _safe_ratio(num: float, den: float) -> float:
    if den == 0.0:
        return math.nan
    return num / den


def compute_norm_report(
    b: np.ndarray,
    mu: Weight,
    lam: Weight,
) -> NormReport:
    """Assemble every norm and functional for one (b, mu, lambda) triple.

    Norms use the raw symbol; shift_truncated records whether b (or any shift
    input) carries level-(D-1) content that the shift drops structurally.
    A report reads three SOLVES entries: the paraproduct, the two shift norms
    (one two-row lockstep solve up to D=12), and the commutator.  The adjoint
    paraproduct is not solved: the weighted matrix of
    Pi*_b : L^2(lambda^{-1}) -> L^2(mu^{-1}) is the transpose of that of
    Pi_b : L^2(mu) -> L^2(lambda), so ||Pi*_b|| = ||Pi_b|| (the
    paraproduct-bounds suite solves both routes and checks this), and its
    value and diagnostics are the paraproduct's solve.  diagnostics holds,
    per norm, the Lanczos matvecs and the final Ritz residual r and Ritz gap
    of W'W, so r^2 / gap estimates the error of the norm squared.
    """
    depth = same_depth(b, mu.values, lam.values)
    a2_mu = a2_characteristic(mu)
    rep = BmoReport(b, mu, lam)
    (solved,) = solve_named(("paraproduct", "shift", "commutator"), [rep])
    (para,), (sh_mu, sh_lam), (comm,) = solved.values()
    norms = dict(zip(("norm_paraproduct", "norm_paraproduct_adjoint", "norm_shift_mu",
                      "norm_shift_lambda", "norm_commutator"), (para, para, sh_mu, sh_lam, comm)))
    ratios = {
        "commutator_over_bmo_rho": _safe_ratio(comm.value, rep.bmo_rho),
        "bmo_rho_over_commutator": _safe_ratio(rep.bmo_rho, comm.value),
        "paraproduct_over_bloom_b2": _safe_ratio(para.value, rep.bloom_b2),
        "bloom_b2_over_paraproduct": _safe_ratio(rep.bloom_b2, para.value),
        "adjoint_over_bloom_b2_dual": _safe_ratio(para.value, rep.bloom_b2_dual),
        "l2form_over_bloom_b2": _safe_ratio(rep.bloom_b2_l2form, rep.bloom_b2),
        "shift_mu_norm_over_sqrt_a2": _safe_ratio(sh_mu.value, math.sqrt(a2_mu)),
    }
    return NormReport(
        depth=depth,
        a2_mu=a2_mu,
        a2_lambda=a2_characteristic(lam),
        a2_rho=a2_characteristic(rep.rho),
        bmo=rep,
        **{k: e.value for k, e in norms.items()},
        shift_truncated=not is_admissible(b),
        ratios=ratios,
        diagnostics={k: {"matvecs": e.matvecs, "ritz_residual": e.residual, "ritz_gap": e.gap}
                     for k, e in norms.items()},
    )
