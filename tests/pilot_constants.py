"""Frozen pilot constants for the measured-band acceptance checks.

Three acceptance checks compare runtime measurements against constants frozen
from pilot runs rather than against theory-supplied numbers:

  K_ENS    per-ensemble spread of the five symbol functionals {bloom_b2,
           bloom_b2_dual, bmo_rho, bmo_rho_l1, neccon}: max over pilot trials
           of (max functional / min functional).  Pilot: 200 trials per
           ensemble at depth 4, functionals computed by the brute-force
           oracles in tests/oracles.py; runtime asserts spread <= 2 * K_ENS.

  K_PRIME  per-ensemble commutator band: max over pilot trials of
           max(r, 1/r) with r = ||[b, shift]: L2(mu) -> L2(lambda)|| /
           bmo_rho, both via the oracle routes (dense scaled SVD,
           tests/oracles.py functionals).  Pilot: 200 trials per ensemble at
           depth 4; runtime asserts r within [1/(2 K_PRIME), 2 K_PRIME].

  ALPHA_SWEEP_BOUND  max over the deterministic 19-point alpha sweep
           (alpha in linspace(-0.9, 0.9, 19), power weights, depth 8) of
           ||shift: L2(w) -> L2(w)|| / [w]_{A2}, rounded up in the third
           decimal for float-drift slack; runtime asserts every sweep point
           stays at or below it.

Regenerate (from the repository root; prints fresh values to compare against
the frozen ones):

    python tests/pilot_constants.py

Ensembles and master seeds are defined here and imported by the acceptance
tests so pilot and runtime always agree on the sampling recipes.
"""

PILOT_DEPTH = 4
PILOT_TRIALS = 200

# role recipes per ensemble family; depth and per-trial seeds are supplied by
# ExperimentConfig at runtime
ENSEMBLES = {
    "cascade": {
        "seed": 101,
        "mu": {"kind": "cascade", "delta": 0.4, "a2_range": [1.0, 16.0]},
        "lambda": {"kind": "cascade", "delta": 0.4, "a2_range": [1.0, 16.0]},
        "symbol": {"kind": "log-symbol", "delta": 0.3},
    },
    "two-value": {
        "seed": 202,
        "mu": {"kind": "two-value", "values": [1.0, 4.0], "a2_range": [1.0, 16.0]},
        "lambda": {"kind": "two-value", "values": [1.0, 3.0], "a2_range": [1.0, 16.0]},
        "symbol": {"kind": "log-symbol", "delta": 0.3},
    },
    "sparse": {
        "seed": 303,
        "mu": {"kind": "cascade", "delta": 0.3, "a2_range": [1.0, 16.0]},
        "lambda": {"kind": "cascade", "delta": 0.3, "a2_range": [1.0, 16.0]},
        "symbol": {"kind": "haar-sparse-symbol", "sparsity": 0.15},
    },
}

K_ENS = {
    "cascade": 1.5128573170481716,
    "two-value": 1.5082382090679955,
    "sparse": 1.3504193849657158,
}

K_PRIME = {
    "cascade": 3.0122436806442865,
    "two-value": 2.8134522444270416,
    "sparse": 1.975145287127334,
}

ALPHA_SWEEP_BOUND = 1.190


def _config(name: str, depth: int, trials: int):
    from dyadbloom.config import ExperimentConfig

    e = ENSEMBLES[name]
    return ExperimentConfig.from_dict(
        {
            "depth": depth,
            "seed": e["seed"],
            "trials": trials,
            "suites": ["identities"],
            "mu": e["mu"],
            "lambda": e["lambda"],
            "symbol": e["symbol"],
        }
    )


def _regenerate():
    import numpy as np

    import oracles
    from dyadbloom.suites import make_trial
    from dyadbloom.weights import EnsembleSpec, a2_characteristic, generate

    k_ens = {}
    k_prime = {}
    for name in ENSEMBLES:
        cfg = _config(name, PILOT_DEPTH, PILOT_TRIALS)
        spread = 0.0
        band = 0.0
        used = 0
        for t in range(cfg.trials):
            td = make_trial(cfg, t)
            bv, muv, lamv = td.b, td.mu.values, td.lam.values
            rhov = np.sqrt(muv / lamv)
            funcs = [
                oracles.bloom_oracle(bv, muv, lamv, PILOT_DEPTH),
                oracles.bloom_dual_oracle(bv, muv, lamv, PILOT_DEPTH),
                oracles.bmo_rho_oracle(bv, rhov, PILOT_DEPTH),
                oracles.bmo_rho_l1_oracle(bv, rhov, PILOT_DEPTH),
                oracles.neccon_oracle(bv, muv, lamv, PILOT_DEPTH),
            ]
            if max(funcs) == 0.0:
                # constant projected symbol: every functional vanishes and
                # the spread is undefined; skipped by pilot and runtime alike
                continue
            used += 1
            spread = max(spread, max(funcs) / min(funcs))
            r = oracles.weighted_norm_oracle(
                oracles.commutator_matrix(bv, PILOT_DEPTH), muv, lamv
            ) / funcs[2]
            band = max(band, r, 1.0 / r)
        assert used >= cfg.trials // 2, f"{name}: too many degenerate trials"
        k_ens[name] = spread
        k_prime[name] = band
    sh = oracles.shift_matrix(8)
    worst = 0.0
    for alpha in np.linspace(-0.9, 0.9, 19):
        w = generate(EnsembleSpec(kind="power", depth=8, alpha=float(alpha)))
        norm = oracles.weighted_norm_oracle(sh, w.values, w.values)
        worst = max(worst, norm / a2_characteristic(w))
    return k_ens, k_prime, worst


if __name__ == "__main__":
    ens, prime, sweep = _regenerate()
    print("K_ENS = {")
    for k, v in ens.items():
        print(f"    {k!r}: {v!r},")
    print("}")
    print("K_PRIME = {")
    for k, v in prime.items():
        print(f"    {k!r}: {v!r},")
    print("}")
    print(f"ALPHA_SWEEP_BOUND (raw max) = {sweep!r}")
