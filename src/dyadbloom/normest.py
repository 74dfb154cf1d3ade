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
the analysis and level_masses pyramids.

Every top eigenvalue comes from _top_eigenvalues, a numpy thick-restart
Lanczos on the symmetric operator with full reorthogonalisation, started
from one fixed seeded random vector, so repeated calls return bitwise-equal
floats.  The start vector is random, not constant, because constants lie in
the kernel of the shift.  It stops on ARPACK's tol=0 test: the top Ritz
value theta has residual at most eps * theta.  theta is then a lower bound
on the top eigenvalue up to rounding; nothing bounds it from above.  Each
matvec output is checked for finiteness once, and a zero operator is
recognised from the first image, at no extra apply.

The engine runs in lockstep: independent problems share one stacked matvec
per step and keep everything else per row, so each row returns bitwise what
it returns alone.  The solvers (weighted_operator_norms,
ppott_best_constants, carleson_embedding_checks) take one symbol and
weight (pair) per row, and one problem is a one-row call; the verification
suites solve a group of trials this way, and compute_norm_report its two
shift norms.  A report makes three solves (paraproduct, shifts, and
[b, Sh] on the shifts' plan): ||Pi*_b|| = ||Pi_b|| by transposition, so
the adjoint's value and diagnostics are the paraproduct's solve; the
paraproduct-bounds suite solves both routes and checks that duality.

The Carleson block ties the coefficient functionals to embedding constants.
The sequences, carleson_constant and the necessity sums are bmo.py's
Carleson kernels (_carleson_terms, _carleson_sup, _subtree_sums), the ones
behind bloom_b2 and bloom_b2_dual, so carleson_constant of a paraproduct
sequence is bloom_b2^2 by construction; tests hold both to brute-force
oracles.  carleson_embedding_checks solves for the best constant C* of

    sum_I a_I E^w_I(phi)^2 <= C* ||phi||^2_{L^2(w)},

which the classical dyadic embedding theorem pins within [carleson,
4 * carleson].
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bmo import BmoReport, _carleson_sup, _carleson_terms, _subtree_sums, bmo_report
from .errors import DyadBloomError
from .grid import (
    accumulate_levels,
    analyze_leaves,
    level_masses,
    same_depth,
    stack_rows,
    synthesize_leaves,
)
from .operators import (
    LeafOperator,
    commutator_operator,
    is_admissible,
    paraproduct_operator,
    shift_operator,
)
from .weights import Weight, a2_characteristic, rho_weight

__all__ = [
    "TopEigen",
    "weighted_operator_norms",
    "ppott_best_constants",
    "CarlesonSequence",
    "carleson_constant",
    "CarlesonEmbeddingReport",
    "carleson_embedding_checks",
    "paraproduct_carleson_sequence",
    "adjoint_paraproduct_carleson_sequence",
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


def _lockstep_chunks(rows: Sequence, n: int) -> list:
    """rows in consecutive chunks of at most _LOCKSTEP_LEAVES // n (at least
    one): the rows worth solving in one lockstep solve at length n."""
    width = max(1, _LOCKSTEP_LEAVES // n)
    return [rows[i : i + width] for i in range(0, len(rows), width)]


class TopEigen(NamedTuple):
    """One row's top Ritz value, the matvecs it took, and the residual
    |beta s_m| of that Ritz pair (0.0 for a zero operator)."""

    value: float
    matvecs: int
    residual: float


def _top_eigenvalues(
    n: int, matvec: Callable[[np.ndarray], np.ndarray], rows: int
) -> list[TopEigen]:
    """Largest eigenvalue of each of `rows` symmetric positive semidefinite
    n x n operators, applied together: matvec maps a (rows, n) stack to the
    stack of images, row r of the input to row r of the output.  One row is
    passed unstacked, as a vector of length n (see grid.stack_rows).

    Each row runs its own thick-restart Lanczos from one fixed seeded random
    start vector; the rows only share the matvec, one stacked apply per
    step.  Every other quantity is the row's own (scaling, Gram-Schmidt,
    projected matrix, restart, stop test, restart cap), computed with the
    same operations as a one-row solve, so each row returns bitwise the
    result it returns when solved alone, and repeated calls return
    bitwise-equal floats.  A row that has stopped rides along on a zero
    vector until the last row stops; its images are not read.

    Per row: each new vector is reorthogonalised against the whole basis by
    two passes of classical Gram-Schmidt, whose coefficients fill the
    projected matrix.  A full basis of 20 vectors restarts from its top 10
    Ritz vectors, so at most 21 vectors of length n are held.  Images are
    scaled by the power of two that puts the first image's largest entry in
    [1/2, 1): exact, and it keeps squared norms from overflowing or
    underflowing.

    The top Ritz value theta is returned once its residual |beta s_m| (beta
    the next residual norm, s_m the last entry of theta's eigenvector in the
    projected matrix) is at most eps |theta|: ARPACK's tol=0 test, whose
    eps^(2/3) floor on |theta| cannot bind once theta >= 1/2 after the
    scaling.  theta is a lower bound up to rounding; nothing bounds it from
    above.

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
    shifts = [0] * rows
    betas = [0.0] * rows
    out: list[TopEigen] = [None] * rows  # type: ignore[list-item]
    live = list(range(rows))
    steps = 0

    def stop(r: int, top: float, residual: float) -> None:
        out[r] = TopEigen(max(float(np.ldexp(top, -shifts[r])), 0.0), steps,
                          float(np.ldexp(residual, -shifts[r])))
        live.remove(r)
        if live:  # ride along on a zero vector
            basis[r] = 0.0

    j = 0
    cap = _RESTARTS_PER_LEAF * n
    for _ in range(cap):
        while j < m:
            images = matvec(basis[:, j] if rows > 1 else basis[0, j]).reshape(rows, n)
            steps += 1
            if not np.isfinite(images).all():
                raise ValueError("operator image is not finite")
            for r in live[:]:
                w = images[r]
                if steps == 1:
                    peak = float(np.abs(w).max())
                    if peak == 0.0:
                        stop(r, 0.0, 0.0)
                        continue
                    shifts[r] = -math.frexp(peak)[1]
                w = np.ldexp(w, shifts[r])
                image_norm = math.sqrt(w @ w)
                v = basis[r, : j + 1]
                h = v @ w
                w -= h @ v
                c = v @ w
                w -= c @ v
                h += c
                proj[r, : j + 1, j] = h
                beta = betas[r] = math.sqrt(w @ w)
                if j + 1 == n or beta <= (j + 1) * _EPS * image_norm:
                    theta, s = np.linalg.eigh(proj[r, : j + 1, : j + 1], UPLO="U")
                    stop(r, theta[-1], abs(beta * s[-1, -1]))
                else:
                    basis[r, j + 1] = w / beta
            if not live:
                return out
            j += 1
        for r in live[:]:
            theta, s = np.linalg.eigh(proj[r], UPLO="U")
            residual = abs(betas[r] * s[-1, -1])
            if residual <= _EPS * abs(theta[-1]):
                stop(r, theta[-1], residual)
                continue
            ritz = s[:, -_KEEP:].T
            for lo in range(0, n, _ROTATE_COLUMNS):
                cols = slice(lo, lo + _ROTATE_COLUMNS)
                basis[r, :_KEEP, cols] = ritz @ basis[r, :m, cols]
            basis[r, _KEEP] = basis[r, m]
            proj[r] = 0.0
            proj[r, range(_KEEP), range(_KEEP)] = theta[-_KEEP:]
        if not live:
            return out
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
    lambda_max(W_r'W_r), bitwise what that row gives alone.  matvecs and
    residual are those of W_r'W_r's top Ritz pair.  One norm is the one-row
    call weighted_operator_norms(T, [mu], [lam])[0].value."""
    depth = same_depth(*(w.values for w in (*mus, *lams)), depth=T.depth)
    scale = 1.0 / np.sqrt(stack_rows([mu.values for mu in mus]))
    lam_vals = stack_rows([lam.values for lam in lams])

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
    depth = same_depth(*(w.values for w in ws))
    root_w = np.sqrt(stack_rows([w.values for w in ws]))
    inv_avgs = [1.0 / stack_rows([w.averages[k] for w in ws]) for k in range(depth)]

    def form(y: np.ndarray) -> np.ndarray:
        _, c = analyze_leaves(root_w * y)
        scaled = [c[k] * inv_avgs[k] for k in range(depth)]
        return root_w * synthesize_leaves(0.0, scaled, depth)

    return _top_eigenvalues(1 << depth, form, len(ws))


class CarlesonSequence:
    """Nonnegative numbers a_I on coefficient levels 0..D-1, tested against a
    weight w of depth D: the sequence's depth is its number of levels."""

    __slots__ = ("level_values", "weight")

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


def carleson_constant(seq: CarlesonSequence) -> float:
    """sup_J (1/w(J)) sum_{I subset= J} a_I over coefficient levels, by
    bmo.py's bottom-up subtree-sum pass."""
    return _carleson_sup(seq.level_values, seq.weight).value


class CarlesonEmbeddingReport(NamedTuple):
    carleson: float
    best_embedding: float
    ratio: float


def carleson_embedding_checks(seqs: Sequence[CarlesonSequence]) -> list[CarlesonEmbeddingReport]:
    """Best constant C* of sum_I a_I E^w_I(phi)^2 <= C* ||phi||^2_{L^2(w)}
    for each sequence, reported against its Carleson constant, as one
    lockstep solve (a zero sequence is a zero operator: its row stops at its
    first image).

    With phi = y / sqrt(w 2^{-D}) the right side is ||y||^2, so C* is the top
    eigenvalue of y -> sqrt(w) sum_I a_I E^w_I(y / sqrt(w)) 1_I / w(I).  The
    classical dyadic embedding theorem pins C* within [carleson,
    4*carleson]; callers assert that window.
    """
    depth = same_depth(*(seq.weight.values for seq in seqs))
    root_w = np.sqrt(stack_rows([seq.weight.values for seq in seqs]))
    level_weights = [stack_rows([seq.level_values[k] / np.ldexp(seq.weight.averages[k], -k) ** 2
                               for seq in seqs]) for k in range(depth)]

    def form(y: np.ndarray) -> np.ndarray:
        masses = level_masses(root_w * y)
        terms = [level_weights[k] * masses[k] for k in range(depth)]
        return root_w * accumulate_levels(terms, depth)

    reports = []
    for seq, top in zip(seqs, _top_eigenvalues(1 << depth, form, len(seqs))):
        car = carleson_constant(seq)
        ratio = top.value / car if car > 0 else math.nan
        reports.append(CarlesonEmbeddingReport(car, top.value, ratio))
    return reports


def paraproduct_carleson_sequence(
    b: np.ndarray, mu: Weight, lam: Weight
) -> CarlesonSequence:
    """a_I = bhat(I)^2 <mu^{-1}>_I^2 <lambda>_I, tested against mu^{-1}.

    Its Carleson constant is bloom_b2(b, mu, lambda)^2: both are one kernel
    of bmo.py.
    """
    mu_inv = mu.inverse
    return CarlesonSequence(_carleson_terms(analyze_leaves(b)[1], mu_inv, lam), mu_inv)


def adjoint_paraproduct_carleson_sequence(
    b: np.ndarray, mu: Weight, lam: Weight
) -> CarlesonSequence:
    """a_I = bhat(I)^2 <lambda>_I^2 <mu^{-1}>_I, tested against lambda.

    Carleson constant equals bloom_b2_dual(b, mu, lambda)^2.
    """
    return CarlesonSequence(_carleson_terms(analyze_leaves(b)[1], lam, mu.inverse), lam)


def necessity_restriction_ratios(
    b: np.ndarray, mu: Weight, lam: Weight
) -> list[np.ndarray]:
    """Per-interval ratios behind the test-function lower bound.

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

    The images are not formed one K at a time: three per-level arrays give
    all of them, so the pass costs O(2^D D) rather than one O(2^D)
    paraproduct per K (O(4^D) in all).  For K at level k, <phi_K>_I is
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
    R(child) = R(parent) + P(sibling)^2 lambda(sibling) and R(root) = 0.
    """
    depth = same_depth(b, mu.values, lam.values)
    n = 1 << depth
    mu_inv = mu.inverse
    _, cb = analyze_leaves(b)
    sums = _subtree_sums(_carleson_terms(cb, mu_inv, lam))

    def siblings(a: np.ndarray) -> np.ndarray:
        return a.reshape(-1, 2)[:, ::-1].ravel()

    paths, outside = [np.zeros(1)], [np.zeros(1)]
    for k in range(1, depth):
        step = cb[k - 1] * (2.0 ** (k - 1)) * math.sqrt(2 ** (k - 1))
        p = np.repeat(paths[-1], 2)
        p[0::2] -= step
        p[1::2] += step
        paths.append(p)
        outside.append(
            np.repeat(outside[-1], 2) + siblings(p) ** 2 * siblings(np.ldexp(lam.averages[k], -k))
        )
    lam_vals = lam.values
    local = np.zeros(n)
    out: list[np.ndarray] = [None] * depth  # type: ignore[list-item]
    for k in range(depth - 1, -1, -1):
        scaled = cb[k] * mu_inv.averages[k] * math.sqrt(2**k)
        blocks = local.reshape(1 << k, 2, n >> (k + 1))
        blocks[:, 0, :] -= scaled[:, None]
        blocks[:, 1, :] += scaled[:, None]
        mass = np.ldexp(mu_inv.averages[k], -k)
        image = local + np.repeat(mass * paths[k], n >> k)
        on_k = (image**2 * lam_vals).reshape(1 << k, -1).sum(axis=1) / n
        num = sums[k] / mass
        den = (on_k + mass**2 * outside[k]) / mass
        row = np.zeros(1 << k)
        live = num != 0.0
        row[live] = np.sqrt(num[live] / den[live])
        out[k] = row
    return out


def necessity_test_function_bound(b: np.ndarray, mu: Weight, lam: Weight) -> float:
    """Max over K of the restriction ratio above (0 when b has no active
    coefficients at all)."""
    ratios = necessity_restriction_ratios(b, mu, lam)
    return max((float(r.max()) for r in ratios if r.size), default=0.0)


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
        return asdict(self)


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
    A report makes three solves: the paraproduct, the two shift norms as one
    two-row lockstep solve up to D=12, and the commutator.  The adjoint
    paraproduct is not solved: the weighted matrix of
    Pi*_b : L^2(lambda^{-1}) -> L^2(mu^{-1}) is the transpose of that of
    Pi_b : L^2(mu) -> L^2(lambda), so ||Pi*_b|| = ||Pi_b|| (the
    paraproduct-bounds suite solves both routes and checks this), and its
    value and diagnostics are the paraproduct's solve.  diagnostics holds,
    per norm, the Lanczos matvecs and the final Ritz residual of W'W.
    """
    depth = same_depth(b, mu.values, lam.values)
    rho = rho_weight(mu, lam)
    a2_mu = a2_characteristic(mu)
    rep = bmo_report(b, mu, lam)
    (para,) = weighted_operator_norms(paraproduct_operator(b), [mu], [lam])
    shift = shift_operator(depth)
    sh_mu, sh_lam = (e for ws in _lockstep_chunks([mu, lam], 1 << depth)
                     for e in weighted_operator_norms(shift, ws, ws))
    (comm,) = weighted_operator_norms(commutator_operator(b, shift), [mu], [lam])
    solves = {
        "norm_paraproduct": para,
        "norm_paraproduct_adjoint": para,
        "norm_shift_mu": sh_mu,
        "norm_shift_lambda": sh_lam,
        "norm_commutator": comm,
    }
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
        a2_rho=a2_characteristic(rho),
        bmo=rep,
        **{k: e.value for k, e in solves.items()},
        shift_truncated=not is_admissible(b),
        ratios=ratios,
        diagnostics={k: {"matvecs": e.matvecs, "ritz_residual": e.residual}
                     for k, e in solves.items()},
    )
