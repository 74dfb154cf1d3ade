"""End-to-end acceptance gate: eleven criteria, one pass/fail line each.

Every test here prints (and registers for the terminal summary) a single
line "criterion NN PASS/FAIL ..." with the measured worst case, then asserts
it.  Tolerances are pinned in place; measured-band criteria compare against
the frozen pilot constants in pilot_constants.py.  Lower-bound violations
under criterion 7 are audited findings, printed with their replay seeds,
and do not fail the criterion.
"""

import time

import numpy as np
import pytest

import pilot_constants
from conftest import ACCEPTANCE_LINES
from pilot_constants import ALPHA_SWEEP_BOUND, ENSEMBLES, K_ENS, K_PRIME, _config
from dyadbloom.bmo import (
    bloom_b2,
    bloom_b2_dual,
    bmo_rho,
    bmo_rho_l1,
    neccon_functional,
)
from dyadbloom.grid import (
    DyadicGrid,
    DyadicInterval,
    StepFunction,
    analyze_leaves,
    haar_function,
    synthesize_leaves,
)
from dyadbloom.normest import (
    adjoint_paraproduct_carleson_sequence,
    carleson_constant,
    carleson_embedding_checks,
    paraproduct_carleson_sequence,
    weighted_operator_norms,
)
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
from dyadbloom.weights import EnsembleSpec, Weight, a2_characteristic, generate, rho_weight


def _record(num: int, ok: bool, label: str, detail: str, sub: list[str] = ()):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {label}  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    for s in sub:
        ACCEPTANCE_LINES.append(f"             {s}")
        print(f"             {s}")
    assert ok, line


def _random_admissible(grid: DyadicGrid, rng) -> StepFunction:
    return project_admissible(StepFunction(grid, rng.standard_normal(grid.n_leaves)))


# one shared pass over each ensemble feeds criteria 8 and 9
_ENSEMBLE_STATS: dict[str, tuple[float, float, int]] = {}


def _ensemble_stats(name: str) -> tuple[float, float, int]:
    if name not in _ENSEMBLE_STATS:
        cfg = _config(name, depth=8, trials=200)
        spread = band = 0.0
        used = 0
        for t in range(cfg.trials):
            td = make_trial(cfg, t)
            rho = rho_weight(td.mu, td.lam)
            funcs = [
                bloom_b2(td.b, td.mu, td.lam),
                bloom_b2_dual(td.b, td.mu, td.lam),
                bmo_rho(td.b, rho),
                bmo_rho_l1(td.b, rho),
                neccon_functional(td.b, td.mu, td.lam),
            ]
            if max(funcs) == 0.0:
                continue  # constant projected symbol: spread undefined
            used += 1
            spread = max(spread, max(funcs) / min(funcs))
            r = weighted_operator_norms(commutator_operator(td.b), [td.mu], [td.lam])[0].value
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
        grid = DyadicGrid(depth)
        f = rng.standard_normal(grid.n_leaves)
        mean, coeffs = analyze_leaves(f, depth)
        back = synthesize_leaves(mean, coeffs, depth)
        worst = max(worst, float(np.abs(back - f).max()))
        energy = float(mean**2) + sum(float((c**2).sum()) for c in coeffs)
        worst = max(worst, abs(energy - float(f @ f) / grid.n_leaves))
    for depth in range(1, 13):
        grid = DyadicGrid(depth)
        H = np.array([haar_function(grid, DyadicInterval(k, j)).values
                      for k in range(depth) for j in range(1 << k)])
        G = (H @ H.T) / grid.n_leaves
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
        grid = DyadicGrid(depth)
        for _ in range(100):
            b = _random_admissible(grid, rng)
            g = _random_admissible(grid, rng)
            pi_b = paraproduct_operator(b)
            lhs = b.values * g.values
            rhs = (
                b.integral() * g.integral()
                + pi_b.apply(g.values)
                + paraproduct_operator(g).apply(b.values)
                + pi_b.transpose(g.values)
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
        grid = DyadicGrid(depth)
        for _ in range(200):
            b = _random_admissible(grid, rng)
            f = _random_admissible(grid, rng)
            worst = max(worst, expansion_terms(b, f).residual())
    grid2 = DyadicGrid(2)
    h = haar_function(grid2, DyadicInterval(0, 0))
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
        grid = DyadicGrid(depth)
        n = grid.n_leaves
        shift = shift_operator(grid).apply
        for _ in range(100):
            b = _random_admissible(grid, rng)
            f = _random_admissible(grid, rng)
            terms = expansion_terms(b, f)
            rem = remainder_closed_form(b, f)
            shf = StepFunction(grid, shift(f.values))
            two_term = (paraproduct_operator(shf).apply(b.values)
                        - shift(paraproduct_operator(f).apply(b.values)))
            worst = max(worst, float(np.abs(rem - two_term).max()))
            lam = generate(
                EnsembleSpec(kind="cascade", depth=depth, seed=int(rng.integers(1 << 31)))
            )
            _, cr = analyze_leaves(rem, depth)
            sq = np.zeros(n)
            for k in range(depth):
                sq += np.repeat(cr[k] ** 2 * (1 << k), n >> k)
            measured = float((sq * lam.values).mean())
            _, cb = analyze_leaves(b.values, depth)
            _, cf = analyze_leaves(f.values, depth)
            predicted = sum(
                float(
                    (cb[k] ** 2 * cf[k] ** 2 * (1 << k) * lam.averages[k]).sum()
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
        lhs = float((pi_b.apply(f.values) * g.values).mean())
        rhs = float((f.values * pi_b.transpose(g.values)).mean())
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
            b2 = bloom_b2(b, mu, lam)
            if b2 == 0.0:
                continue
            trials_used += 1
            seq = paraproduct_carleson_sequence(b, mu, lam)
            car = carleson_constant(seq)
            worst_car = max(worst_car, (car - b2**2) / b2**2)
            b2d = bloom_b2_dual(b, mu, lam)
            seq_d = adjoint_paraproduct_carleson_sequence(b, mu, lam)
            car_d = carleson_constant(seq_d)
            worst_car = max(worst_car, (car_d - b2d**2) / b2d**2)
            rep = carleson_embedding_checks([seq])[0]
            worst_embed = max(
                worst_embed, (rep.best_embedding - 4.0 * rep.carleson) / rep.carleson
            )
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
        (result,) = run_suites(["paraproduct-bounds"], cfg)
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
        (result,) = run_suites(["stopping"], cfg)
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
    grid = DyadicGrid(8)
    rng = np.random.default_rng(11011)
    worst_iso = 0.0
    for _ in range(200):
        coeffs = [rng.standard_normal(1 << k) for k in range(grid.depth - 1)]
        coeffs.append(np.zeros(1 << (grid.depth - 1)))
        f = StepFunction(grid, synthesize_leaves(np.asarray(0.0), coeffs, grid.depth))
        nf = float(np.sqrt((f.values**2).mean()))
        ns = float(np.sqrt((shift_operator(grid).apply(f.values) ** 2).mean()))
        worst_iso = max(worst_iso, abs(ns / nf - 1.0))
    one = Weight(StepFunction.constant(grid, 1.0))
    sigma = weighted_operator_norms(shift_operator(grid), [one], [one])[0].value
    worst_sweep = 0.0
    for alpha in np.linspace(-0.9, 0.9, 19):
        w = generate(EnsembleSpec(kind="power", depth=8, alpha=float(alpha)))
        norm = weighted_operator_norms(shift_operator(grid), [w], [w])[0].value
        worst_sweep = max(worst_sweep, norm / a2_characteristic(w))
    ok = worst_iso <= 1e-12 and abs(sigma - 1.0) <= 1e-12 and worst_sweep <= ALPHA_SWEEP_BOUND
    _record(
        11, ok,
        "shift is an isometry on mean-free admissible inputs; weighted norm "
        "over [w]_{A2} bounded across the 19-point alpha sweep (D=8)",
        f"max isometry deviation {worst_iso:.3e}, sigma_max {sigma!r}, "
        f"max sweep ratio {worst_sweep:.6f} <= {ALPHA_SWEEP_BOUND}",
    )
