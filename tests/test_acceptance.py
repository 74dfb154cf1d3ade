"""End-to-end acceptance gate: eleven criteria, one pass/fail line each.

Every test here prints (and registers for the terminal summary) a single
line "criterion NN PASS/FAIL ..." with the measured worst case, then asserts
it.  Tolerances are pinned in place; measured-band criteria compare against
the frozen pilot constants in pilot_constants.py.  Lower-bound violations
under criterion 7 are audited findings, printed with their replay seeds,
and do not fail the criterion.
"""

import time
from dataclasses import replace

import numpy as np

from conftest import ACCEPTANCE_LINES
from pilot_constants import ALPHA_SWEEP_BOUND, ENSEMBLES, K_ENS, K_PRIME, _config
from dyadbloom.bmo import BmoReport
from dyadbloom.grid import (
    DyadicInterval,
    analyze_leaves,
    haar_function,
    level,
    synthesize_leaves,
)
from dyadbloom.normest import carleson_embedding_checks, weighted_operator_norms
from dyadbloom.operators import (
    commutator_operator,
    expansion_terms,
    paraproduct_adjoint_operator,
    paraproduct_operator,
    project_admissible,
    remainder_closed_form,
    shift_operator,
)
from dyadbloom.suites import make_trial, run_suites
from dyadbloom.weights import EnsembleSpec, Weight, a2_characteristic, generate


def _record(num: int, ok: bool, label: str, detail: str, sub: list[str] = ()):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {label}  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    for s in sub:
        ACCEPTANCE_LINES.append(f"             {s}")
        print(f"             {s}")
    assert ok, line


def _random_admissible(depth: int, rng) -> np.ndarray:
    return project_admissible(rng.standard_normal(1 << depth))


# one shared pass over each ensemble feeds criteria 8 and 9
_ENSEMBLE_STATS: dict[str, tuple[float, float, int]] = {}


def _ensemble_stats(name: str) -> tuple[float, float, int]:
    if name not in _ENSEMBLE_STATS:
        cfg = _config(name, depth=8, trials=200)
        spread = band = 0.0
        used = 0
        shift = shift_operator(cfg.depth)
        for t in range(cfg.trials):
            td = make_trial(cfg, t)
            rep = BmoReport(td.b, td.mu, td.lam)
            funcs = [rep.bloom_b2, rep.bloom_b2_dual, rep.bmo_rho, rep.bmo_rho_l1, rep.neccon]
            if max(funcs) == 0.0:
                continue  # constant projected symbol: spread undefined
            used += 1
            spread = max(spread, max(funcs) / min(funcs))
            comm = commutator_operator(td.b, shift)
            r = weighted_operator_norms(comm, [td.mu], [td.lam])[0].value
            ratio = r / funcs[2]
            band = max(band, ratio, 1.0 / ratio)
        _ENSEMBLE_STATS[name] = (spread, band, used)
    return _ENSEMBLE_STATS[name]


def test_criterion_01_haar_algebra():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(11001)
    for i in range(1000):
        depth = 1 + i % 12
        f = rng.standard_normal(1 << depth)
        coeffs = analyze_leaves(f)
        back = synthesize_leaves(coeffs)
        worst = max(worst, float(np.abs(back - f).max()))
        energy = float((coeffs**2).sum())  # the mean's square included
        worst = max(worst, abs(energy - float(f @ f) / (1 << depth)))
    for depth in range(1, 13):
        H = np.array([haar_function(depth, DyadicInterval(k, j))
                      for k in range(depth) for j in range(1 << k)])
        G = (H @ H.T) / (1 << depth)
        worst = max(worst, float(np.abs(G - np.eye(G.shape[0])).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _record(
        1, ok,
        "Haar algebra: round trip, Parseval, orthonormality (D 1..12, 1000 trials)",
        f"max residual {worst:.3e} <= 1e-12, {elapsed:.2f}s < 10s",
    )


def test_criterion_02_product_decomposition():
    worst = 0.0
    rng = np.random.default_rng(11002)
    for depth in range(4, 9):
        for _ in range(100):
            b = _random_admissible(depth, rng)
            g = _random_admissible(depth, rng)
            pi_b = paraproduct_operator(b)
            lhs = b * g
            rhs = (
                b.mean() * g.mean()
                + pi_b.apply(g)
                + paraproduct_operator(g).apply(b)
                + pi_b.transpose(g)
            )
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst <= 1e-11
    _record(
        2, ok,
        "product decomposition b g = <b><g> + Pi_b g + Pi_g b + Pi*_b g "
        "(500 admissible pairs, D 4..8)",
        f"max residual {worst:.3e} <= 1e-11",
    )


def test_criterion_03_expansion_identity():
    worst = 0.0
    rng = np.random.default_rng(11003)
    for depth in range(4, 9):
        for _ in range(200):
            b = _random_admissible(depth, rng)
            f = _random_admissible(depth, rng)
            worst = max(worst, expansion_terms(b, f).residual())
    h = haar_function(2, DyadicInterval(0, 0))
    comm = expansion_terms(h, h).commutator
    exact = bool(np.array_equal(comm, np.array([1.0, -1.0, 1.0, -1.0])))
    ok = worst <= 1e-11 and exact
    _record(
        3, ok,
        "six-term expansion equals [b, shift]f (200 trials per D 4..8) "
        "and the D=2 worked example is bitwise",
        f"max residual {worst:.3e} <= 1e-11, worked example exact: {exact}",
    )


def test_criterion_04_remainder_closed_form():
    worst = 0.0
    worst_energy = 0.0
    rng = np.random.default_rng(11004)
    for depth in range(4, 9):
        n = 1 << depth
        shift = shift_operator(depth).apply
        for _ in range(100):
            b = _random_admissible(depth, rng)
            f = _random_admissible(depth, rng)
            terms = expansion_terms(b, f)
            rem = remainder_closed_form(b, f)
            shf = shift(f)
            two_term = (paraproduct_operator(shf).apply(b)
                        - shift(paraproduct_operator(f).apply(b)))
            worst = max(worst, float(np.abs(rem - two_term).max()))
            lam = generate(
                EnsembleSpec(kind="cascade", depth=depth, seed=int(rng.integers(1 << 31)))
            )
            cr = analyze_leaves(rem)
            sq = np.zeros(n)
            for k in range(depth):
                sq += np.repeat(level(cr, k) ** 2 * (1 << k), n >> k)
            measured = float((sq * lam.values).mean())
            cb, cf = analyze_leaves(b), analyze_leaves(f)
            predicted = sum(
                float(
                    (level(cb, k) ** 2 * level(cf, k) ** 2 * (1 << k)
                     * level(lam.averages, k)).sum()
                )
                for k in range(depth - 1)
            )
            scale = max(predicted, 1e-30)
            worst_energy = max(worst_energy, abs(measured - predicted) / scale)
            assert terms is not None
    ok = worst <= 1e-11 and worst_energy <= 1e-10
    _record(
        4, ok,
        "remainder closed form equals Pi_{Sf}b - S(Pi_f b); lambda-weighted "
        "energy matches Sigma bhat^2 fhat^2 <lambda>_I/|I|",
        f"max residual {worst:.3e} <= 1e-11, max energy deviation "
        f"{worst_energy:.3e} <= 1e-10",
    )


def test_criterion_05_adjointness_and_norm_duality():
    cfg = _config("cascade", depth=8, trials=100)
    worst_adj = 0.0
    worst_dual = 0.0
    for t in range(cfg.trials):
        td = make_trial(cfg, t)
        b, f, g = td.b, td.f, td.g
        pi_b = paraproduct_operator(b)
        lhs = float((pi_b.apply(f) * g).mean())
        rhs = float((f * pi_b.transpose(g)).mean())
        scale = max(1.0, abs(lhs))
        worst_adj = max(worst_adj, abs(lhs - rhs) / scale)
        n1 = weighted_operator_norms(paraproduct_operator(b), [td.mu], [td.lam])[0].value
        n2 = weighted_operator_norms(
            paraproduct_adjoint_operator(b), [td.lam.inverse], [td.mu.inverse]
        )[0].value
        worst_dual = max(worst_dual, abs(n1 - n2) / max(n1, 1e-30))
    ok = worst_adj <= 1e-9 and worst_dual <= 1e-9
    _record(
        5, ok,
        "paraproduct adjointness and weighted norm duality "
        "(100 triples, D=8)",
        f"max adjointness deviation {worst_adj:.3e}, "
        f"max duality deviation {worst_dual:.3e}, both <= 1e-9",
    )


def test_criterion_06_carleson_inequalities():
    worst_car = -np.inf
    worst_embed = -np.inf
    trials_used = 0
    for name in ENSEMBLES:
        cfg = _config(name, depth=8, trials=50)
        for t in range(cfg.trials):
            td = make_trial(cfg, t)
            b, mu, lam = td.b, td.mu, td.lam
            fns = BmoReport(b, mu, lam)
            b2 = fns.bloom_b2
            if b2 == 0.0:
                continue
            trials_used += 1
            car = fns.carleson.constant
            worst_car = max(worst_car, (car - b2**2) / b2**2)
            b2d = fns.bloom_b2_dual
            car_d = fns.carleson_dual.constant
            worst_car = max(worst_car, (car_d - b2d**2) / b2d**2)
            best = carleson_embedding_checks([fns.carleson])[0].value
            worst_embed = max(worst_embed, (best - 4.0 * car) / car)
    ok = worst_car <= 1e-10 and worst_embed <= 1e-9
    _record(
        6, ok,
        "Carleson constants at most the Bloom functionals squared; embedding "
        f"constant within 4x ({trials_used} trials, D=8)",
        f"worst carleson excess {worst_car:.3e} <= 1e-10, worst embedding "
        f"excess over 4x {worst_embed:.3e}",
    )


def test_criterion_07_lower_bounds_audited():
    sub = []
    audited = 0
    duality_ok = True
    for name in ENSEMBLES:
        cfg = _config(name, depth=8, trials=100)
        (result,) = run_suites(replace(cfg, suites=("paraproduct-bounds",)))
        audited += cfg.trials
        duality_ok = duality_ok and result.passed
        for fd in result.findings:
            seeds = ", ".join(
                f"{k}={fd.data[k]}"
                for k in ("mu_seed", "lambda_seed", "symbol_seed")
                if k in fd.data
            )
            sub.append(
                f"finding [{name}] {fd.name} trial={fd.trial} "
                f"master_seed={fd.data['master_seed']} ({seeds}) "
                f"excess={fd.data['excess']:.6e}"
            )
    ok = duality_ok and audited == 300
    _record(
        7, ok,
        "lower bounds bloom_b2 <= (1+1e-6) ||Pi_b|| audited per trial; "
        "violations reported as findings with seeds (300 trials, D=8)",
        f"{audited} trials audited, {len(sub)} findings reported",
        sub,
    )


def test_criterion_08_equivalence_chain():
    details = []
    ok = True
    for name in ENSEMBLES:
        spread, _, used = _ensemble_stats(name)
        cap = 2.0 * K_ENS[name]
        ok = ok and spread <= cap and used >= 100
        details.append(f"{name}: spread {spread:.4f} <= {cap:.4f} ({used} trials)")
    _record(
        8, ok,
        "equivalence chain: five-functional spread within 2x the frozen "
        "depth-4 oracle pilot (200 triples per ensemble, D=8, A2 <= 16)",
        "; ".join(details),
    )


def test_criterion_09_commutator_band():
    details = []
    ok = True
    for name in ENSEMBLES:
        _, band, used = _ensemble_stats(name)
        cap = 2.0 * K_PRIME[name]
        ok = ok and band <= cap and used >= 100
        details.append(f"{name}: band {band:.4f} <= {cap:.4f} ({used} trials)")
    _record(
        9, ok,
        "commutator norm over bmo_rho within the frozen pilot band "
        "[1/(2K'), 2K'] per ensemble (200 triples, D=8)",
        "; ".join(details),
    )


def test_criterion_10_stopping_machinery():
    ok = True
    worst_k = 0.0
    for name in ENSEMBLES:
        cfg = _config(name, depth=8, trials=20)
        (result,) = run_suites(replace(cfg, suites=("stopping",)))
        ok = ok and result.passed
        stats = result.measured["unstopped_coeff_sum_over_base"]
        if stats["n"]:
            worst_k = max(worst_k, stats["max"])
    _record(
        10, ok,
        "stopping machinery: packing searches terminate, corona mass decays "
        "<= 2^-g, unstopped coefficient sums within the C^3 bound "
        "(3 ensembles x 20 trials, D=8)",
        f"measured unstopped-sum K max {worst_k:.4f}",
    )


def test_criterion_11_shift_bounds():
    depth = 8
    rng = np.random.default_rng(11011)
    worst_iso = 0.0
    for _ in range(200):
        # the heap: mean 0, then levels 0..D-2 drawn, level D-1 zero
        coeffs = [rng.standard_normal(1 << k) for k in range(depth - 1)]
        f = synthesize_leaves(np.concatenate([[0.0], *coeffs]), depth)
        nf = float(np.sqrt((f**2).mean()))
        ns = float(np.sqrt((shift_operator(depth).apply(f) ** 2).mean()))
        worst_iso = max(worst_iso, abs(ns / nf - 1.0))
    one = Weight(np.ones(1 << depth))
    sigma = weighted_operator_norms(shift_operator(depth), [one], [one])[0].value
    worst_sweep = 0.0
    for alpha in np.linspace(-0.9, 0.9, 19):
        w = generate(EnsembleSpec(kind="power", depth=8, alpha=float(alpha)))
        norm = weighted_operator_norms(shift_operator(depth), [w], [w])[0].value
        worst_sweep = max(worst_sweep, norm / a2_characteristic(w))
    ok = worst_iso <= 1e-12 and abs(sigma - 1.0) <= 1e-12 and worst_sweep <= ALPHA_SWEEP_BOUND
    _record(
        11, ok,
        "shift is an isometry on mean-free admissible inputs; weighted norm "
        "over [w]_{A2} bounded across the 19-point alpha sweep (D=8)",
        f"max isometry deviation {worst_iso:.3e}, sigma_max {sigma!r}, "
        f"max sweep ratio {worst_sweep:.6f} <= {ALPHA_SWEEP_BOUND}",
    )
