"""Brute-force reference implementations used to cross-check the package.

Everything here trades speed for obviousness: explicit leaf arrays, nested
interval loops, direct dot products, no shared code with the package beyond
numpy and scipy.  The loop oracles are intended for depths up to about 6;
the dense matrix routes (2^D x 2^D arrays, SVD, eigh, power iteration) are
the reference for the package's matrix-free norm engine up to depth 10, and
ARPACK (eigsh_top) is its reference on the same matvecs at any depth.  The
full-width Haar kernels at the end are bitwise references: the package's
O(2^D) pyramids must return exactly their floats.
"""

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg


def leaf_slice(depth, k, j):
    width = 1 << (depth - k)
    return slice(j * width, (j + 1) * width)


def all_intervals(depth, max_level=None):
    top = depth if max_level is None else max_level
    for k in range(top + 1):
        for j in range(1 << k):
            yield k, j


def contained(k, j, K, J):
    """Is the level-k interval j inside the level-K interval J?"""
    return k >= K and (j >> (k - K)) == J


def parent(k, j):
    """(level, position) of the parent of the level-k interval j, k >= 1."""
    return k - 1, j >> 1


def haar_leaves(depth, k, j):
    """Leaf values of h_I for I at (level k, position j): the normalization
    is |I|^{-1/2} = 2^{k/2}, negative on the left half."""
    n = 1 << depth
    out = np.zeros(n)
    scale = math.sqrt(2.0**k)
    sl = leaf_slice(depth, k, j)
    half = (sl.stop - sl.start) // 2
    out[sl.start : sl.start + half] = -scale
    out[sl.start + half : sl.stop] = scale
    return out


def indicator_leaves(depth, k, j):
    n = 1 << depth
    out = np.zeros(n)
    out[leaf_slice(depth, k, j)] = 1.0
    return out


def integral(values):
    # leaves are equal-width cells of [0,1)
    return float(np.asarray(values).mean())


def coeff(values, depth, k, j):
    return integral(values * haar_leaves(depth, k, j))


def square_function_leaves(values, depth):
    """Leaf values of Sf = (sum over I of fhat(I)^2 |I|^{-1} 1_I)^{1/2}, one
    interval at a time."""
    acc = np.zeros(1 << depth)
    for k, j in all_intervals(depth, depth - 1):
        acc += coeff(values, depth, k, j) ** 2 * 2.0**k * indicator_leaves(depth, k, j)
    return np.sqrt(acc)


def average_on(values, depth, k, j):
    return float(np.asarray(values)[leaf_slice(depth, k, j)].mean())


def interval_average(f, iv):
    """<f>_I of a step function's leaf values f over a DyadicInterval iv."""
    return average_on(f, len(f).bit_length() - 1, iv.level, iv.position)


def interval_length(iv):
    """|I| of a DyadicInterval iv."""
    return 2.0 ** (-iv.level)


def mass_on(values, depth, k, j):
    sl = leaf_slice(depth, k, j)
    return float(np.asarray(values)[sl].sum()) / (1 << depth)


def a2_oracle(w, depth):
    best = 0.0
    for k, j in all_intervals(depth):
        best = max(best, average_on(w, depth, k, j) * average_on(1.0 / w, depth, k, j))
    return best


def bloom_oracle(b, mu, lam, depth):
    """sup_K (1/mu^{-1}(K)) sum_{I within K} bhat(I)^2 <mu^{-1}>_I^2 <lam>_I,
    square-rooted; K and I run over coefficient levels 0..depth-1, I = K
    included."""
    mu_inv = 1.0 / np.asarray(mu)
    best = 0.0
    for K, J in all_intervals(depth, depth - 1):
        s = 0.0
        for k in range(K, depth):
            for j in range(1 << k):
                if contained(k, j, K, J):
                    s += (
                        coeff(b, depth, k, j) ** 2
                        * average_on(mu_inv, depth, k, j) ** 2
                        * average_on(lam, depth, k, j)
                    )
        best = max(best, s / mass_on(mu_inv, depth, K, J))
    return math.sqrt(best)


def bloom_dual_oracle(b, mu, lam, depth):
    return bloom_oracle(b, 1.0 / np.asarray(lam), 1.0 / np.asarray(mu), depth)


def bloom_l2form_oracle(b, mu, lam, depth):
    """Same supremum as bloom_oracle but through the localized synthesis:
    per K, g = sum_{I within K} bhat(I) <mu^{-1}>_I h_I, then
    ||g 1_K||_{L^2(lam)} / mu^{-1}(K)^{1/2}."""
    mu_inv = 1.0 / np.asarray(mu)
    n = 1 << depth
    best = 0.0
    for K, J in all_intervals(depth, depth - 1):
        g = np.zeros(n)
        for k in range(K, depth):
            for j in range(1 << k):
                if contained(k, j, K, J):
                    g += (
                        coeff(b, depth, k, j)
                        * average_on(mu_inv, depth, k, j)
                        * haar_leaves(depth, k, j)
                    )
        energy = mass_on(g**2 * np.asarray(lam), depth, K, J)
        best = max(best, energy / mass_on(mu_inv, depth, K, J))
    return math.sqrt(best)


def oscillation_oracle(b, w, depth, k, j):
    """int over I_{k,j} of (b - <b>_I)^2 w dx (w = 1 when None)."""
    b = np.asarray(b)
    dev2 = (b - average_on(b, depth, k, j)) ** 2
    return mass_on(dev2 if w is None else dev2 * np.asarray(w), depth, k, j)


def local_integrals_oracle(coeffs, integrand, depth):
    """For each interval K at levels 0..D-1: the full-width leaf array v that
    is zero outside K and, on K, sum over I within K of c_I h_I;
    integrand(level of K, v) integrated over K.  A heap over levels 0..D-1,
    entry 0 zero."""
    out = np.zeros(1 << depth)
    for K, J in all_intervals(depth, depth - 1):
        v = np.zeros(1 << depth)
        for k, j in all_intervals(depth, depth - 1):
            if contained(k, j, K, J):
                v += coeffs[heap_index(k, j)] * haar_leaves(depth, k, j)
        out[heap_index(K, J)] = mass_on(integrand(K, v), depth, K, J)
    return out


def bmo_rho_oracle(b, rho, depth):
    best = 0.0
    for k, j in all_intervals(depth, depth - 1):
        osc = oscillation_oracle(b, None, depth, k, j)
        best = max(best, osc / mass_on(rho, depth, k, j))
    return math.sqrt(best)


def bmo_rho_l1_oracle(b, rho, depth):
    n = 1 << depth
    best = 0.0
    for K, J in all_intervals(depth, depth - 1):
        sq = np.zeros(n)
        for k in range(K, depth):
            for j in range(1 << k):
                if contained(k, j, K, J):
                    sq += coeff(b, depth, k, j) ** 2 * indicator_leaves(depth, k, j) * (
                        1 << k
                    )
        val = mass_on(np.sqrt(sq), depth, K, J) / mass_on(rho, depth, K, J)
        best = max(best, val)
    return best


def neccon_oracle(b, mu, lam, depth):
    mu_inv = 1.0 / np.asarray(mu)
    best = 0.0
    for k, j in all_intervals(depth, depth - 1):
        osc = oscillation_oracle(b, lam, depth, k, j)
        length = 2.0 ** (-k)
        best = max(best, mass_on(mu_inv, depth, k, j) / length**2 * osc)
    return math.sqrt(best)


def carleson_oracle(level_values, w, depth):
    """sup_J (1/w(J)) sum_{I within J} a_I over coefficient levels."""
    best = 0.0
    for K, J in all_intervals(depth, depth - 1):
        s = 0.0
        for k in range(K, depth):
            for j in range(1 << k):
                if contained(k, j, K, J):
                    s += float(level_values[k][j])
        best = max(best, s / mass_on(w, depth, K, J))
    return best


def paraproduct_oracle(b, f, depth):
    n = 1 << depth
    out = np.zeros(n)
    for k, j in all_intervals(depth, depth - 1):
        out += coeff(b, depth, k, j) * average_on(f, depth, k, j) * haar_leaves(depth, k, j)
    return out


def paraproduct_adjoint_oracle(b, f, depth):
    n = 1 << depth
    out = np.zeros(n)
    for k, j in all_intervals(depth, depth - 1):
        out += (
            coeff(b, depth, k, j)
            * coeff(f, depth, k, j)
            * indicator_leaves(depth, k, j)
            * (1 << k)
        )
    return out


def shift_oracle(f, depth):
    """Map each Haar coefficient at levels 0..depth-2 to
    (h_{left child} - h_{right child})/sqrt(2); deeper coefficients and the
    mean are annihilated."""
    n = 1 << depth
    out = np.zeros(n)
    for k in range(depth - 1):
        for j in range(1 << k):
            c = coeff(f, depth, k, j) / math.sqrt(2.0)
            out += c * (haar_leaves(depth, k + 1, 2 * j) - haar_leaves(depth, k + 1, 2 * j + 1))
    return out


def weighted_norm_oracle(matrix, mu, lam):
    """Best constant in ||M f||_{L^2(lam)} <= C ||f||_{L^2(mu)} via the
    explicitly scaled singular value problem."""
    mu = np.asarray(mu)
    lam = np.asarray(lam)
    scaled = np.sqrt(lam)[:, None] * np.asarray(matrix) / np.sqrt(mu)[None, :]
    return float(np.linalg.norm(scaled, 2))


# ------------------------------------------------------------- dense routes
#
# Matrices act on leaf-value vectors; rows and columns of interval-indexed
# matrices run level-major over coefficient levels 0..depth-1.


def haar_matrix(depth):
    """Shape (2^D - 1, 2^D): row I holds the leaf values of h_I, so the
    coefficients of v are H @ v / 2^D."""
    return np.array([haar_leaves(depth, k, j) for k, j in all_intervals(depth, depth - 1)])


def averaging_matrix(depth):
    """A[I, j] = 1/|I| 2^{-D} for leaves j inside I, so (A v)_I = <v>_I."""
    n = 1 << depth
    return np.array(
        [indicator_leaves(depth, k, j) * (1 << k) / n for k, j in all_intervals(depth, depth - 1)]
    )


def expectation_matrix(w, depth):
    """L[I, j] = w_j 2^{-D} / w(I) for leaves j inside I, so (L phi)_I = E^w_I(phi)."""
    w = np.asarray(w)
    n = 1 << depth
    return np.array(
        [
            indicator_leaves(depth, k, j) * w / n / mass_on(w, depth, k, j)
            for k, j in all_intervals(depth, depth - 1)
        ]
    )


def operator_matrix(fn, depth):
    """Assemble a linear map of leaf arrays column by column from its action
    on leaf indicators."""
    n = 1 << depth
    return np.column_stack([fn(np.eye(n)[j]) for j in range(n)])


def paraproduct_matrix(b, depth):
    """H' diag(bhat) A: h-synthesis of bhat(I) <f>_I."""
    H = haar_matrix(depth)
    bhat = H @ np.asarray(b) / (1 << depth)
    return H.T @ (bhat[:, None] * averaging_matrix(depth))


def paraproduct_adjoint_matrix(b, depth):
    return paraproduct_matrix(b, depth).T


def shift_matrix(depth):
    """G' H / 2^D, where row I of G holds the leaf values of
    Sh h_I = (h_{I_-} - h_{I_+}) / sqrt(2); level-(D-1) rows of G are zero."""
    n = 1 << depth
    rows = []
    for k, j in all_intervals(depth, depth - 1):
        if k <= depth - 2:
            rows.append(
                (haar_leaves(depth, k + 1, 2 * j) - haar_leaves(depth, k + 1, 2 * j + 1))
                / math.sqrt(2.0)
            )
        else:
            rows.append(np.zeros(n))
    return np.array(rows).T @ haar_matrix(depth) / n


def commutator_matrix(b, depth):
    """diag(b) S - S diag(b)."""
    S = shift_matrix(depth)
    b = np.asarray(b)
    return b[:, None] * S - S * b[None, :]


class PowerIterationResult(NamedTuple):
    norm: float
    lower: float
    upper: float
    iterations: int


def power_iteration_norm(W, tol=1e-6, max_iter=20000, seed=0):
    """Largest singular value of W by power iteration on B = W'W.

    Every Rayleigh quotient of B is a lower bound for sigma_max^2.  The
    residual bound r + ||Bx - rx|| bounds the eigenvalue of B nearest r, which
    is the top one only once the iterate has entered the top eigenspace, so
    the upper end of the bracket is a heuristic, capped by the unconditional
    ceilings ||W||_F^2 and ||W||_1 ||W||_inf.  Stops when the bracket's
    relative width is below tol.
    """
    rng = np.random.default_rng(seed)
    W = np.asarray(W)
    x = rng.standard_normal(W.shape[1])
    x /= np.linalg.norm(x)
    abs_w = np.abs(W)
    static_cap = min(
        float((W**2).sum()),
        float(abs_w.sum(axis=1).max() * abs_w.sum(axis=0).max()),
    )
    lower = 0.0
    upper = static_cap
    for it in range(1, max_iter + 1):
        y = W.T @ (W @ x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return PowerIterationResult(0.0, 0.0, 0.0, it)
        r = float(x @ y)
        resid = float(np.linalg.norm(y - r * x))
        lower = max(lower, r)
        upper = min(static_cap, max(lower, r + resid))
        if upper <= lower * (1.0 + tol) or upper - lower <= tol**2:
            break
        x = y / ny
    lo = math.sqrt(max(lower, 0.0))
    hi = math.sqrt(max(upper, 0.0))
    return PowerIterationResult(0.5 * (lo + hi), lo, hi, it)


def eigsh_top(n, matvec):
    """Top eigenvalue of a symmetric positive semidefinite operator by ARPACK
    (eigsh, which="LA", tol=0) from the engine's seeded start vector.  ARPACK
    refuses a zero operator, so a zero first image gives 0.0 here."""
    v0 = np.random.default_rng(0).standard_normal(n)
    if not np.any(matvec(v0 / np.linalg.norm(v0))):
        return 0.0
    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda x: matvec(x.ravel()), dtype=np.float64
    )
    top = scipy.sparse.linalg.eigsh(op, k=1, which="LA", tol=0, v0=v0, return_eigenvectors=False)
    return max(float(top[0]), 0.0)


class NotPositiveDefiniteError(ValueError):
    """A quadratic-form matrix failed its definiteness requirement."""


def best_quadratic_constant(A, G, psd_tol=1e-10):
    """Least C with x'Ax <= C x'Gx for all x: top eigenvalue of the pencil
    (A, G).  G must be symmetric positive definite and A symmetric positive
    semidefinite (up to psd_tol relative slack)."""
    A = np.asarray(A, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if A.shape != G.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A and G must be square matrices of one shape")
    if not np.allclose(A, A.T, atol=1e-12, rtol=1e-12):
        raise NotPositiveDefiniteError("A is not symmetric")
    if not np.allclose(G, G.T, atol=1e-12, rtol=1e-12):
        raise NotPositiveDefiniteError("G is not symmetric")
    try:
        scipy.linalg.cholesky(G, lower=True)
    except scipy.linalg.LinAlgError as e:
        raise NotPositiveDefiniteError(f"G is not positive definite: {e}") from e
    eigs = scipy.linalg.eigh(A, G, eigvals_only=True)
    scale = float(np.abs(eigs).max(initial=0.0))
    if eigs[0] < -psd_tol * max(scale, 1.0):
        raise NotPositiveDefiniteError(
            f"A has a significantly negative pencil eigenvalue {eigs[0]:.3e}"
        )
    return float(max(eigs[-1], 0.0))


def ppott_forms(w, depth):
    """(A, G) of sum_I fhat(I)^2 / <w>_I <= C ||f||^2_{L^2(w^{-1})}:
    A = 2^{-2D} H' diag(1/<w>_I) H and G = 2^{-D} diag(w^{-1})."""
    w = np.asarray(w)
    n = 1 << depth
    H = haar_matrix(depth)
    inv_avgs = np.array([1.0 / average_on(w, depth, k, j) for k, j in all_intervals(depth, depth - 1)])
    A = (H.T * inv_avgs[None, :]) @ H / n**2
    return 0.5 * (A + A.T), np.diag(1.0 / w / n)


def ppott_oracle(w, depth):
    return best_quadratic_constant(*ppott_forms(w, depth))


def carleson_embedding_oracle(level_values, w, depth):
    """Best C* in sum_I a_I E^w_I(phi)^2 <= C* ||phi||^2_{L^2(w)} as the top
    eigenvalue of the pencil (L' diag(a) L, 2^{-D} diag(w))."""
    L = expectation_matrix(w, depth)
    a = np.concatenate([np.asarray(v, dtype=np.float64) for v in level_values])
    A = (L.T * a[None, :]) @ L
    return best_quadratic_constant(0.5 * (A + A.T), np.diag(np.asarray(w) / (1 << depth)))



# ------------------------------------------------------- per-interval routes
#
# One full paraproduct per test function, each by level pyramids on plain
# arrays: O(4^D D) in all, fast enough for depth 10.


def _level_averages(v, depth):
    """Averages of v over every interval, level 0 first (leaves last)."""
    out = [np.asarray(v, dtype=np.float64)]
    for _ in range(depth):
        out.append(out[-1].reshape(-1, 2).mean(axis=1))
    return out[::-1]


def _level_coeffs(v, depth):
    """bhat(I) = |I|^{1/2} (<v>_{I+} - <v>_{I-}) / 2, level by level."""
    avgs = _level_averages(v, depth)
    return [
        (avgs[k + 1][1::2] - avgs[k + 1][0::2]) / (2.0 * math.sqrt(2.0**k))
        for k in range(depth)
    ]


def _pyramid_paraproduct(bhat, f, depth):
    """sum_I bhat(I) <f>_I h_I by adding each level's Haar blocks."""
    n = 1 << depth
    avgs = _level_averages(f, depth)
    out = np.zeros(n)
    for k in range(depth):
        c = bhat[k] * avgs[k] * math.sqrt(2.0**k)
        half = n >> (k + 1)
        out += np.repeat(np.stack([-c, c], axis=1).ravel(), half)
    return out


def necessity_restriction_ratios_oracle(b, mu, lam, depth):
    """Per-interval route for the necessity ratios: for each K, the image of
    phi_K = mu^{-1} 1_K under one full paraproduct, its L^2(lam) energy, and
    the localized coefficient sum over an explicit containment mask.  Row k
    holds the level-k ratios, 0 where the localized sum vanishes."""
    mu_inv = 1.0 / np.asarray(mu)
    lam = np.asarray(lam)
    bhat = _level_coeffs(b, depth)
    mu_avgs = _level_averages(mu_inv, depth)
    lam_avgs = _level_averages(lam, depth)
    out = []
    for K in range(depth):
        row = np.zeros(1 << K)
        for J in range(1 << K):
            s = 0.0
            for k in range(K, depth):
                for j in range(J << (k - K), (J + 1) << (k - K)):
                    s += bhat[k][j] ** 2 * mu_avgs[k][j] ** 2 * lam_avgs[k][j]
            mass = mass_on(mu_inv, depth, K, J)
            num = s / mass
            if num == 0.0:
                continue
            image = _pyramid_paraproduct(bhat, mu_inv * indicator_leaves(depth, K, J), depth)
            den = integral(image**2 * lam) / mass
            row[J] = math.sqrt(num / den)
        out.append(row)
    return out


# ------------------------------------------------------------ stopping scans
#
# Intervals are (level, position) pairs; a predicate answers for one interval.


def stopping_scan_oracle(depth, root, fires):
    """Depth-first scan for the maximal intervals strictly inside root where
    fires(k, j) holds, descending no further below a member.  Left children
    are visited first, so members come out ordered by left endpoint."""
    members = []
    k0, j0 = root
    stack = [(k0 + 1, 2 * j0 + 1), (k0 + 1, 2 * j0)] if k0 < depth else []
    while stack:
        k, j = stack.pop()
        if fires(k, j):
            members.append((k, j))
        elif k < depth:
            stack.extend([(k + 1, 2 * j + 1), (k + 1, 2 * j)])
    return tuple(members)


def unstopped_oracle(depth, root, members):
    """The root plus every interval inside it not contained in a member, by
    a depth-first walk that descends no further below a member; sorted
    level-major."""
    member_set = set(members)
    out = []
    stack = [root]
    while stack:
        k, j = stack.pop()
        if (k, j) in member_set:
            continue
        out.append((k, j))
        if k < depth:
            stack.extend([(k + 1, 2 * j + 1), (k + 1, 2 * j)])
    return sorted(out)


def deviation_predicate(weights, C, depth, root):
    """Any weight's average leaves [<w>_root / C, C <w>_root]."""
    anchors = [average_on(w, depth, *root) for w in weights]

    def fires(k, j):
        for w, a in zip(weights, anchors):
            v = average_on(w, depth, k, j)
            if v > C * a or v < a / C:
                return True
        return False

    return fires


def threshold_predicate(w, factor, depth, root):
    anchor = average_on(w, depth, *root)
    return lambda k, j: average_on(w, depth, k, j) >= factor * anchor


def path_sum(coeffs, root, k, j):
    """sum of bhat(I')^2 / |I'| over root >= I' >= I_{k,j}, root first;
    coeffs maps (level, position) to bhat and leaves carry none."""
    k0 = root[0]
    total = 0.0
    for level in range(k0, k + 1):
        c = coeffs.get((level, j >> (k - level)), 0.0)
        total += c**2 * (1 << level)
    return total


def all_coeffs(b, depth):
    return {(k, j): coeff(b, depth, k, j) for k, j in all_intervals(depth, depth - 1)}


def three_condition_predicate(mu, lam, b, C, C_b, depth, root):
    """<mu^{-1}> > C <mu^{-1}>_root, or <rho> > C <rho>_root, or the path sum
    above (C_b <rho>_root)^2, with rho = (mu / lam)^{1/2}."""
    mu_inv = 1.0 / np.asarray(mu)
    rho = np.sqrt(np.asarray(mu) / np.asarray(lam))
    a_mu = average_on(mu_inv, depth, *root)
    a_rho = average_on(rho, depth, *root)
    coeffs = all_coeffs(b, depth)
    threshold = (C_b * a_rho) ** 2

    def fires(k, j):
        return (
            average_on(mu_inv, depth, k, j) > C * a_mu
            or average_on(rho, depth, k, j) > C * a_rho
            or path_sum(coeffs, root, k, j) > threshold
        )

    return fires


def square_sum_predicate(b, rho, C, b2_value, depth, root):
    coeffs = all_coeffs(b, depth)
    threshold = C * (b2_value * average_on(rho, depth, *root)) ** 2
    return lambda k, j: path_sum(coeffs, root, k, j) >= threshold


# ------------------------------------------------------ full-width kernels
#
# The package's Haar pyramids before they went top-down and into one heap:
# lists of per-level arrays, every level writing all 2^D leaves (O(2^D D)),
# and sibling sums reducing a length-2 axis.  The package must reproduce
# these bit for bit (test_grid compares bit patterns).  heap_levels and
# heap_from convert between the package's heaps (level k at
# [2^k, 2^{k+1})) and these lists.


def heap_index(k, j):
    """The heap entry of the level-k interval at position j."""
    return (1 << k) + j


def heap_levels(heap, levels):
    """[level 0, ..., level levels-1] of a heap on the last axis, by slicing."""
    heap = np.asarray(heap)
    return [heap[..., 1 << k : 2 << k] for k in range(levels)]


def heap_from(first, levels):
    """The heap with entry 0 = first and levels[k] at [2^k, 2^{k+1})."""
    first = np.asarray(first, dtype=np.float64)
    batch = np.broadcast_shapes(first.shape, *(np.shape(v)[:-1] for v in levels))
    out = np.zeros(batch + (1 << len(levels),))
    out[..., 0] = first
    for k, v in enumerate(levels):
        out[..., 1 << k : 2 << k] = v
    return out


def analyze_leaves_reference(values, depth):
    values = np.asarray(values, dtype=np.float64)
    batch = values.shape[:-1]
    masses = values * (2.0 ** (-depth))
    coeffs = [None] * depth
    for k in range(depth - 1, -1, -1):
        pairs = masses.reshape(batch + (1 << k, 2))
        coeffs[k] = math.sqrt(2**k) * (pairs[..., 1] - pairs[..., 0])
        masses = pairs.sum(axis=-1)
    return masses[..., 0], coeffs


def synthesize_leaves_reference(mean, coeffs, depth):
    mean = np.asarray(mean, dtype=np.float64)
    n = 1 << depth
    out = np.broadcast_to(mean[..., None], mean.shape + (n,)).copy()
    batch = mean.shape
    for k, c in enumerate(coeffs):
        scaled = np.asarray(c, dtype=np.float64) * math.sqrt(2**k)
        blocks = out.reshape(batch + (1 << k, 2, n >> (k + 1)))
        blocks[..., 0, :] -= scaled[..., None]
        blocks[..., 1, :] += scaled[..., None]
    return out


def level_masses_reference(values, depth):
    values = np.asarray(values, dtype=np.float64)
    batch = values.shape[:-1]
    m = values * (2.0 ** (-depth))
    out = [None] * (depth + 1)
    out[depth] = m
    for k in range(depth - 1, -1, -1):
        m = m.reshape(batch + (1 << k, 2)).sum(axis=-1)
        out[k] = m
    return out


def accumulate_levels_reference(terms, depth, batch=()):
    """sum_k repeat(terms[k], 2^{depth-k}), one full-width add per level,
    on batch's leading axes (and the terms')."""
    n = 1 << depth
    batch = np.broadcast_shapes(batch, *(np.shape(t)[:-1] for t in terms))
    acc = np.zeros(batch + (n,))
    for k, t in enumerate(terms):
        acc += np.repeat(t, n >> k, axis=-1)
    return acc


def _quarter_pattern_reference(scaled, depth, signs, batch):
    n = 1 << depth
    out = np.zeros(batch + (n,))
    for k in range(max(depth - 1, 0)):
        blocks = out.reshape(batch + (1 << k, 4, n >> (k + 2)))
        for q, sign in enumerate(signs):
            if sign < 0:
                blocks[..., q, :] -= scaled[k][..., None]
            else:
                blocks[..., q, :] += scaled[k][..., None]
    return out


def shift_values_reference(coeffs, depth):
    """Leaf values of the shift image of sum_k coeffs[k] h_I: the quarter
    pattern (-, +, +, -) times coeff 2^{k/2} on each level-k interval."""
    scaled = [coeffs[k] * math.sqrt(2**k) for k in range(max(depth - 1, 0))]
    return _quarter_pattern_reference(scaled, depth, (-1, 1, 1, -1), np.shape(coeffs[0])[:-1])


def remainder_values_reference(cb, cf, depth):
    """Leaf values of the expansion remainder: the quarter pattern
    (+, -, +, -) times bhat(I) fhat(I) |I|^{-1}."""
    scaled = [cb[k] * cf[k] * (1 << k) for k in range(max(depth - 1, 0))]
    return _quarter_pattern_reference(scaled, depth, (1, -1, 1, -1), np.shape(cb[0])[:-1])


def shift_transpose_reference(g, depth):
    """Sh^T g: the coefficient on a level-k interval, k <= D-2, is
    (ghat(I_-) - ghat(I_+)) / sqrt(2), synthesized level by level."""
    mean, cg = analyze_leaves_reference(g, depth)
    out = [(cg[k + 1][..., 0::2] - cg[k + 1][..., 1::2]) / math.sqrt(2.0)
           for k in range(depth - 1)]
    return synthesize_leaves_reference(np.zeros_like(mean), out, depth)


def paraproduct_apply_reference(b, f, depth):
    """Pi_b f: the coefficients bhat(I) <f>_I, synthesized level by level."""
    _, cb = analyze_leaves_reference(b, depth)
    masses = level_masses_reference(f, depth)
    out = [cb[k] * (masses[k] * (2.0**k)) for k in range(depth)]
    return synthesize_leaves_reference(np.zeros(np.shape(f)[:-1]), out, depth)


def paraproduct_transpose_reference(b, g, depth):
    """Pi*_b g: bhat(I) ghat(I) / |I| added onto each interval's leaves."""
    _, cb = analyze_leaves_reference(b, depth)
    _, cg = analyze_leaves_reference(g, depth)
    return accumulate_levels_reference([cb[k] * cg[k] * (1 << k) for k in range(depth)], depth)


def bloom_l2form_scan_reference(b, mu, lam, depth):
    """The localized L^2(lam) form one interval at a time: for each K,
    synthesize sum_{I within K} bhat(I) <mu^{-1}>_I h_I on K's leaves level by
    level, deepest first (the association of grid.local_integrals),
    integrate its square against lam, divide by mu^{-1}(K).  Returns
    (sqrt of the sup, (level, position) of its level-major first
    occurrence), built from the full-width kernels above."""
    mu_inv = 1.0 / np.asarray(mu, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    _, coeffs = analyze_leaves_reference(b, depth)
    inv_masses = level_masses_reference(mu_inv, depth)
    scales = [inv_masses[k] * (2.0**k) for k in range(depth)]
    leaf_w = 2.0 ** (-depth)
    best, where = -math.inf, (0, 0)
    for K in range(depth):
        for J in range(1 << K):
            n_local = 1 << (depth - K)
            g = np.zeros(n_local)
            for k in range(depth - 1, K - 1, -1):
                shift = k - K
                lo, hi = J << shift, (J + 1) << shift
                scaled = (coeffs[k][lo:hi] * scales[k][lo:hi]) * math.sqrt(2**k)
                blocks = g.reshape(1 << shift, 2, n_local >> (shift + 1))
                blocks[:, 0, :] -= scaled[:, None]
                blocks[:, 1, :] += scaled[:, None]
            sl = leaf_slice(depth, K, J)
            energy = float((g**2 * lam[sl]).sum()) * leaf_w
            ratio = energy / float(inv_masses[K][J])
            if ratio > best:
                best, where = ratio, (K, J)
    return math.sqrt(max(best, 0.0)), where
