"""Symbol-and-weight triples shared by the engine-versus-oracle tests."""

import numpy as np

from dyadbloom import EnsembleSpec, Weight, generate, leaf_values

KINDS = ("smooth", "extreme", "sparse")


def triple(depth, ensemble, seed):
    """(b, mu, lam) from one of KINDS: smooth weights and a Gaussian symbol;
    leaf values across 1e-8..1e8 with b constant on random quarters, so
    whole subtrees carry no coefficient; or cascade weights with a sparse
    Haar symbol."""
    r = np.random.default_rng(seed)
    n = 1 << depth
    if ensemble == "smooth":
        mu_v, lam_v = np.exp(r.uniform(-1, 1, (2, n)))
        b_v = r.standard_normal(n)
    elif ensemble == "extreme":
        mu_v, lam_v = 10.0 ** r.uniform(-8, 8, (2, n))
        b_v = r.standard_normal(n)
        quarter = max(n // 4, 1)
        for start in range(0, n, quarter):
            if r.random() < 0.5:
                b_v[start : start + quarter] = b_v[start]
    else:
        mu_v = generate(EnsembleSpec(kind="cascade", depth=depth, seed=seed)).values
        lam_v = generate(EnsembleSpec(kind="cascade", depth=depth, seed=seed + 1)).values
        b_v = generate(
            EnsembleSpec(kind="haar-sparse-symbol", depth=depth, seed=seed, sparsity=0.1)
        )
    return leaf_values(b_v), Weight(mu_v), Weight(lam_v)
