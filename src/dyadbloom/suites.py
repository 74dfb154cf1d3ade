"""Randomized verification suites over seeded ensembles.

Each suite runs cfg.trials seeded trials and returns a SuiteResult holding

  * hard assertions -- exact identities and constant-1 inequalities only;
    any failure flips the suite (and the CLI exit code) to failing;
  * measured constants -- dimensionless ratios whose finiteness or size is
    the empirical content; they are recorded, never asserted here (pinned
    acceptance tests freeze pilot values separately).

Per-trial materials: mu and lambda from the config's weight recipes, the
symbol b projected onto admissible levels (<= D-2) so commutator identities
and functionals see the same symbol, and Gaussian test functions f, g from
the trial's function stream (f, g admissible; raw variants keep all levels
for identities that need no admissibility).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bmo import (
    bloom_b2,
    bloom_b2_dual,
    bloom_b2_l2form,
    bmo_rho,
    bmo_rho_l1,
    neccon_functional,
)
from .config import ExperimentConfig
from .errors import PackingSearchError
from .grid import (
    DyadicGrid,
    StepFunction,
    analyze_leaves,
    haar_analyze,
    haar_function,
    haar_synthesize,
    level_masses,
)
from .normest import (
    adjoint_paraproduct_carleson_sequence,
    carleson_constant,
    carleson_embedding_check,
    commutator_operator,
    necessity_test_function_bound,
    paraproduct_adjoint_operator,
    paraproduct_carleson_sequence,
    paraproduct_operator,
    ppott_best_constant,
    shift_operator,
    weighted_operator_norm,
)
from .operators import (
    commutator_shift,
    expansion_terms,
    haar_shift,
    paraproduct,
    paraproduct_adjoint,
    project_admissible,
    remainder_closed_form,
)
from .stopping import (
    corona_generations,
    deviation_factory,
    maximal_stopping_intervals,
    minimal_corona_constant,
    minimal_packing_constant,
    packing_ratio,
    square_sum_factory,
    three_condition_factory,
    threshold_factory,
    unstopped_intervals,
)
from .weights import Weight, a2_characteristic, generate, rho_weight

__all__ = [
    "Assertion",
    "Finding",
    "SuiteResult",
    "TrialData",
    "lower_bound_finding",
    "make_trial",
    "run_suite",
    "SUITES",
]


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Finding:
    """A measured violation of an audited inequality, reported instead of asserted.

    The constant-one lower bounds are empirical audits, not theorems with
    exact constants: the argument behind them drops a term that need not be
    sign-definite, so individual trials can genuinely exceed the bound.  Each
    violation is recorded verbatim with the seeds needed to replay the trial.
    """

    suite: str
    name: str
    trial: int
    message: str
    data: dict

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "trial": self.trial,
            "message": self.message,
            "data": self.data,
        }


@dataclass
class SuiteResult:
    suite: str
    config: dict
    assertions: list[Assertion] = field(default_factory=list)
    measured: dict = field(default_factory=dict)
    trial_records: list[dict] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "assertions": [a.to_dict() for a in self.assertions],
            "measured": self.measured,
            "trial_records": self.trial_records,
            "findings": [f.to_dict() for f in self.findings],
        }


class _Worst:
    """Track the largest residual and the trial where it occurred."""

    __slots__ = ("value", "trial")

    def __init__(self):
        self.value = 0.0
        self.trial = -1

    def update(self, v: float, trial: int):
        if v > self.value or self.trial < 0:
            self.value = float(v)
            self.trial = trial

    def assertion(self, name: str, tol: float, extra: str = "") -> Assertion:
        detail = f"worst at trial {self.trial}" if self.trial >= 0 else "no trials"
        if extra:
            detail += f"; {extra}"
        return Assertion(name, self.value <= tol, self.value, tol, detail)


def _stats(xs: list[float]) -> dict:
    arr = np.asarray([x for x in xs if math.isfinite(x)], dtype=np.float64)
    if arr.size == 0:
        return {"n": 0}
    return {
        "n": int(arr.size),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
    }


def _rel(diff: float, *scales: float) -> float:
    return diff / max(1.0, *(abs(s) for s in scales))


@dataclass
class TrialData:
    index: int
    mu: Weight
    lam: Weight
    b: StepFunction
    b_raw: StepFunction
    f: StepFunction
    g: StepFunction
    f_raw: StepFunction
    g_raw: StepFunction


def make_trial(cfg: ExperimentConfig, t: int) -> TrialData:
    mu = generate(cfg.mu_spec(t))
    lam = generate(cfg.lambda_spec(t))
    sym = generate(cfg.symbol_spec(t))
    b_raw = sym.base if isinstance(sym, Weight) else sym
    grid = DyadicGrid(cfg.depth)
    rng = np.random.default_rng(cfg.func_seed(t))
    f_raw = StepFunction(grid, rng.standard_normal(grid.n_leaves))
    g_raw = StepFunction(grid, rng.standard_normal(grid.n_leaves))
    return TrialData(
        index=t,
        mu=mu,
        lam=lam,
        b=project_admissible(b_raw),
        b_raw=b_raw,
        f=project_admissible(f_raw),
        g=project_admissible(g_raw),
        f_raw=f_raw,
        g_raw=g_raw,
    )


# ---------------------------------------------------------------- identities


def _worked_example_assertions() -> list[Assertion]:
    # depth-2 grid, b = f = Haar function of the root.  The shift, the direct
    # commutator, and the closed-form remainder are quarter-pattern
    # computations whose outputs are exactly representable, so those three are
    # compared bitwise.  The six-term sum synthesizes two of its terms from
    # Haar coefficients, which costs one ulp on (1/sqrt(2))*sqrt(2); those
    # comparisons are held to 1e-12 instead.
    grid = DyadicGrid(2)
    h_root = haar_function(grid, grid.root)
    shifted = haar_shift(h_root)
    ok_shift = np.array_equal(shifted.values, np.array([-1.0, 1.0, 1.0, -1.0]))
    comm = commutator_shift(h_root, h_root)
    ok_comm = np.array_equal(comm.values, np.array([1.0, -1.0, 1.0, -1.0]))
    rem = remainder_closed_form(h_root, h_root)
    ok_rem = np.array_equal(rem.values, np.array([1.0, -1.0, 1.0, -1.0]))
    bitwise = ok_shift and ok_comm and ok_rem
    six = expansion_terms(h_root, h_root)
    d_sum = float(np.abs(six.signed_sum().values - comm.values).max())
    d_rem = float(np.abs(six.remainder().values - rem.values).max())
    worst = max(d_sum, d_rem)
    return [
        Assertion(
            "worked_example_bitwise",
            bitwise,
            0.0 if bitwise else 1.0,
            0.0,
            "depth-2 shift, commutator, closed-form remainder reproduce bitwise",
        ),
        Assertion(
            "worked_example_expansion",
            worst <= 1e-12,
            worst,
            1e-12,
            "six-term sum and two-term remainder at depth 2",
        ),
    ]


def run_identities(cfg: ExperimentConfig) -> SuiteResult:
    res = SuiteResult("identities", cfg.to_dict())
    w_round = _Worst()
    w_parseval = _Worst()
    w_product = _Worst()
    w_adjoint = _Worst()
    w_isometry = _Worst()
    w_expand = _Worst()
    w_remainder = _Worst()
    w_energy = _Worst()
    flipped = []
    for t in range(cfg.trials):
        td = make_trial(cfg, t)
        grid = td.b.grid
        # round trip and Parseval on a full-spectrum function
        spec = haar_analyze(td.f_raw)
        back = haar_synthesize(spec)
        w_round.update(float(np.abs(back.values - td.f_raw.values).max()), t)
        energy = float((td.f_raw.values**2).mean())
        w_parseval.update(
            _rel(abs(energy - (spec.mean**2 + spec.coeff_energy())), energy), t
        )
        # product decomposition holds for arbitrary b, g
        b, g = td.b_raw, td.g_raw
        lhs = b * g
        rhs = (
            b.integral() * g.integral()
            + paraproduct(b, g)
            + paraproduct(g, b)
            + paraproduct_adjoint(b, g)
        )
        w_product.update(
            _rel(float(np.abs(lhs.values - rhs.values).max()),
                 float(np.abs(lhs.values).max())),
            t,
        )
        # unweighted adjointness <Pi_b f, g> = <f, Pi*_b g>
        pf = paraproduct(td.b_raw, td.f_raw)
        pg = paraproduct_adjoint(td.b_raw, td.g_raw)
        ip1 = float((pf.values * td.g_raw.values).mean())
        ip2 = float((td.f_raw.values * pg.values).mean())
        w_adjoint.update(_rel(abs(ip1 - ip2), ip1, ip2), t)
        # shift isometry on admissible mean-free input
        g0 = td.g - td.g.integral()
        shifted = haar_shift(g0)
        w_isometry.update(
            _rel(abs(shifted.l2_norm() - g0.l2_norm()), g0.l2_norm()), t
        )
        # six-term expansion, remainder closed form, remainder energy
        terms = expansion_terms(td.b, td.f)
        scale = float(np.abs(terms.commutator.values).max())
        w_expand.update(_rel(terms.residual(), scale), t)
        flipped.append(_rel(terms.sign_flipped_residual(), scale))
        rem = remainder_closed_form(td.b, td.f)
        w_remainder.update(
            _rel(float(np.abs(rem.values - terms.remainder().values).max()), scale), t
        )
        _, cr = analyze_leaves(rem.values, grid.depth)
        n = grid.n_leaves
        sq = np.zeros(n)
        for k in range(grid.depth):
            sq += np.repeat(cr[k] ** 2 * (1 << k), n >> k)
        measured_energy = float((sq * td.lam.values).mean())
        _, cb = analyze_leaves(td.b.values, grid.depth)
        _, cf = analyze_leaves(td.f.values, grid.depth)
        predicted = sum(
            float((cb[k] ** 2 * cf[k] ** 2 * (1 << k) * td.lam.averages_at_level(k)).sum())
            for k in range(grid.depth - 1)
        )
        w_energy.update(_rel(abs(measured_energy - predicted), measured_energy), t)
    res.assertions.extend(
        [
            w_round.assertion("haar_round_trip", 1e-12),
            w_parseval.assertion("parseval", 1e-12),
            w_product.assertion("product_decomposition", 1e-11),
            w_adjoint.assertion("paraproduct_adjointness", 1e-12),
            w_isometry.assertion("shift_isometry_admissible", 1e-12),
            w_expand.assertion("six_term_expansion", 1e-11),
            w_remainder.assertion("remainder_closed_form", 1e-11),
            w_energy.assertion("remainder_energy_identity", 1e-10),
        ]
    )
    res.assertions.extend(_worked_example_assertions())
    res.measured["sign_flipped_residual"] = _stats(flipped)
    return res


# --------------------------------------------------------------- equivalences


def run_equivalences(cfg: ExperimentConfig) -> SuiteResult:
    res = SuiteResult("equivalences", cfg.to_dict())
    w_sandwich_low = _Worst()
    w_sandwich_high = _Worst()
    ratios = {
        "l2form_over_b2": [],
        "b2_over_l2form": [],
        "l1_over_bmo": [],
        "bmo_over_l1": [],
        "b2_over_bmo": [],
        "bmo_over_b2": [],
    }
    chain = []
    a2_mu_all, a2_lam_all = [], []
    for t in range(cfg.trials):
        td = make_trial(cfg, t)
        mu, lam, b = td.mu, td.lam, td.b
        rho = rho_weight(mu, lam)
        # A2 sandwich 1 <= <mu>_I <mu^{-1}>_I <= [mu]_{A2}, every interval
        for w in (mu, lam):
            a2 = a2_characteristic(w)
            inv = w.inverse
            for k in range(w.grid.depth + 1):
                prod = w.averages_at_level(k) * inv.averages_at_level(k)
                w_sandwich_low.update(float((1.0 - prod).max()), t)
                w_sandwich_high.update(float((prod - a2).max()), t)
        a2_mu_all.append(a2_characteristic(mu))
        a2_lam_all.append(a2_characteristic(lam))
        b2 = bloom_b2(b, mu, lam)
        l2f = bloom_b2_l2form(b, mu, lam)
        bmo = bmo_rho(b, rho)
        l1 = bmo_rho_l1(b, rho)
        if min(b2, l2f, bmo, l1) > 0.0:
            r = {
                "l2form_over_b2": l2f / b2,
                "b2_over_l2form": b2 / l2f,
                "l1_over_bmo": l1 / bmo,
                "bmo_over_l1": bmo / l1,
                "b2_over_bmo": b2 / bmo,
                "bmo_over_b2": bmo / b2,
            }
            for k, v in r.items():
                ratios[k].append(v)
            chain.append(max(r.values()))
    # degenerate symbol: every functional vanishes exactly
    td0 = make_trial(cfg, 0)
    zero = StepFunction.zero(td0.b.grid)
    vals = [
        bloom_b2(zero, td0.mu, td0.lam),
        bloom_b2_dual(zero, td0.mu, td0.lam),
        bloom_b2_l2form(zero, td0.mu, td0.lam),
        bmo_rho(zero, rho_weight(td0.mu, td0.lam)),
        bmo_rho_l1(zero, rho_weight(td0.mu, td0.lam)),
        neccon_functional(zero, td0.mu, td0.lam),
    ]
    res.assertions.append(
        Assertion(
            "zero_symbol_zero_functionals",
            max(vals) == 0.0,
            max(vals),
            0.0,
            "all six functionals of b == 0",
        )
    )
    const = Weight(StepFunction.constant(DyadicGrid(cfg.depth), 3.0))
    res.assertions.append(
        Assertion(
            "constant_weight_a2_is_one",
            a2_characteristic(const) == 1.0,
            abs(a2_characteristic(const) - 1.0),
            0.0,
            "[w]_{A2} of a constant weight",
        )
    )
    res.assertions.append(w_sandwich_low.assertion("a2_sandwich_lower", 1e-12))
    res.assertions.append(w_sandwich_high.assertion("a2_sandwich_upper", 1e-12))
    for k, v in ratios.items():
        res.measured[k] = _stats(v)
    res.measured["chain_max"] = _stats(chain)
    res.measured["a2_mu"] = _stats(a2_mu_all)
    res.measured["a2_lambda"] = _stats(a2_lam_all)
    return res


# --------------------------------------------------------- paraproduct-bounds


def lower_bound_finding(
    suite: str,
    name: str,
    cfg: ExperimentConfig,
    trial: int,
    functional: float,
    norm: float,
    excess: float,
) -> Finding:
    """Package one constant-1 lower-bound violation with its replay seeds."""
    return Finding(
        suite=suite,
        name=name,
        trial=trial,
        message=(
            f"functional {functional!r} exceeds operator norm {norm!r}"
            f" by {excess:.6e} (allowance 1e-06)"
        ),
        data={
            "depth": cfg.depth,
            "master_seed": cfg.seed,
            "mu_seed": int(cfg.mu_spec(trial).seed),
            "lambda_seed": int(cfg.lambda_spec(trial).seed),
            "symbol_seed": int(cfg.symbol_spec(trial).seed),
            "functional": functional,
            "norm": norm,
            "excess": excess,
        },
    )


def run_paraproduct_bounds(cfg: ExperimentConfig) -> SuiteResult:
    res = SuiteResult("paraproduct-bounds", cfg.to_dict())
    w_duality = _Worst()
    upper_ratio, norms, blooms, necessity = [], [], [], []
    excesses, excesses_dual = [], []
    for t in range(cfg.trials):
        td = make_trial(cfg, t)
        mu, lam, b = td.mu, td.lam, td.b
        n_pi = weighted_operator_norm(paraproduct_operator(b), mu, lam)
        n_adj = weighted_operator_norm(
            paraproduct_adjoint_operator(b), lam.inverse, mu.inverse
        )
        b2 = bloom_b2(b, mu, lam)
        b2d = bloom_b2_dual(b, mu, lam)
        w_duality.update(_rel(abs(n_pi - n_adj), n_pi, n_adj), t)
        # The constant-1 lower bounds are audited, not assumed: the argument
        # behind them discards a constant-on-K term that need not help, so a
        # trial can genuinely exceed the norm.  Every violation is reported
        # as a finding carrying the seeds that replay it.
        for name, val, norm, xs in (
            ("bloom_b2_exceeds_paraproduct_norm", b2, n_pi, excesses),
            ("bloom_b2_dual_exceeds_adjoint_norm", b2d, n_adj, excesses_dual),
        ):
            excess = (val - norm) / norm if norm > 0 else 0.0
            xs.append(excess)
            if excess > 1e-6:
                res.findings.append(
                    lower_bound_finding(res.suite, name, cfg, t, val, norm, excess)
                )
        if b2 > 0:
            upper_ratio.append(n_pi / b2)
        norms.append(n_pi)
        blooms.append(b2)
        necessity.append(necessity_test_function_bound(b, mu, lam))
    res.assertions.append(w_duality.assertion("norm_duality_transpose", 1e-9))
    res.measured["norm_over_bloom_b2"] = _stats(upper_ratio)
    res.measured["norm_paraproduct"] = _stats(norms)
    res.measured["bloom_b2"] = _stats(blooms)
    res.measured["lower_bound_excess"] = _stats(excesses)
    res.measured["lower_bound_excess_dual"] = _stats(excesses_dual)
    res.measured["lower_bound_violations"] = sum(1 for x in excesses if x > 1e-6)
    res.measured["lower_bound_violations_dual"] = sum(
        1 for x in excesses_dual if x > 1e-6
    )
    res.measured["necessity_test_function_bound"] = _stats(necessity)
    return res


# --------------------------------------------------------- commutator-bounds


def run_commutator_bounds(cfg: ExperimentConfig) -> SuiteResult:
    res = SuiteResult("commutator-bounds", cfg.to_dict())
    w_agree = _Worst()
    w_const = _Worst()
    w_adjoint = _Worst()
    ratios, norms, bmos = [], [], []
    for t in range(cfg.trials):
        td = make_trial(cfg, t)
        mu, lam, b = td.mu, td.lam, td.b
        rho = rho_weight(mu, lam)
        M = commutator_operator(b)
        # the norm engine's apply vs the six-term paraproduct route
        via_engine = M.apply(td.f).values
        via_expansion = expansion_terms(b, td.f).signed_sum().values
        w_agree.update(
            _rel(float(np.abs(via_engine - via_expansion).max()),
                 float(np.abs(via_expansion).max())),
            t,
        )
        # a constant symbol commutes exactly
        c = StepFunction.constant(b.grid, 2.5)
        w_const.update(float(np.abs(commutator_operator(c).apply(td.f).values).max()), t)
        # <T f, g> = <f, T' g> for every transpose the engine uses; the raw
        # functions keep level-(D-1) content, which the shift truncates
        f, g = td.f_raw, td.g_raw
        for T in (paraproduct_operator(b), paraproduct_adjoint_operator(b),
                  shift_operator(b.grid), M):
            ip1 = float((T.apply(f).values * g.values).mean())
            ip2 = float((f.values * T.transpose(g).values).mean())
            w_adjoint.update(_rel(abs(ip1 - ip2), ip1, ip2), t)
        n_comm = weighted_operator_norm(M, mu, lam)
        bmo = bmo_rho(b, rho)
        norms.append(n_comm)
        bmos.append(bmo)
        if bmo > 0:
            ratios.append(n_comm / bmo)
    res.assertions.append(
        w_const.assertion("constant_symbol_commutes", 0.0, "[c, shift] f == 0 exactly")
    )
    res.assertions.append(w_agree.assertion("commutator_apply_matches_expansion", 1e-11))
    res.assertions.append(w_adjoint.assertion("adjoint_consistency", 1e-12))
    res.measured["norm_over_bmo_rho"] = _stats(ratios)
    res.measured["norm_commutator"] = _stats(norms)
    res.measured["bmo_rho"] = _stats(bmos)
    return res


# ------------------------------------------------------------------ carleson


def run_carleson(cfg: ExperimentConfig) -> SuiteResult:
    res = SuiteResult("carleson", cfg.to_dict())
    w_cross = _Worst()
    w_cross_dual = _Worst()
    w_embed_low = _Worst()
    w_embed_high = _Worst()
    embed_ratios = []
    for t in range(cfg.trials):
        td = make_trial(cfg, t)
        mu, lam, b = td.mu, td.lam, td.b
        seq = paraproduct_carleson_sequence(b, mu, lam)
        car = carleson_constant(seq)
        b2 = bloom_b2(b, mu, lam)
        w_cross.update(_rel(abs(car - b2**2), b2**2), t)
        seq_d = adjoint_paraproduct_carleson_sequence(b, mu, lam)
        car_d = carleson_constant(seq_d)
        b2d = bloom_b2_dual(b, mu, lam)
        w_cross_dual.update(_rel(abs(car_d - b2d**2), b2d**2), t)
        if car > 0:
            rep = carleson_embedding_check(seq)
            w_embed_low.update((rep.carleson - rep.best_embedding) / rep.carleson, t)
            w_embed_high.update(
                (rep.best_embedding - 4.0 * rep.carleson) / rep.carleson, t
            )
            embed_ratios.append(rep.ratio)
    res.assertions.append(w_cross.assertion("carleson_equals_bloom_b2_sq", 1e-10))
    res.assertions.append(
        w_cross_dual.assertion("carleson_dual_equals_bloom_b2_dual_sq", 1e-10)
    )
    res.assertions.append(
        w_embed_low.assertion("embedding_at_least_carleson", 1e-9)
    )
    res.assertions.append(
        w_embed_high.assertion("embedding_at_most_4x_carleson", 1e-9)
    )
    res.measured["embedding_over_carleson"] = _stats(embed_ratios)
    return res


# --------------------------------------------------------------------- ppott


def run_ppott(cfg: ExperimentConfig) -> SuiteResult:
    res = SuiteResult("ppott", cfg.to_dict())
    w_lower = _Worst()
    cs, c_over_a2 = [], []
    for t in range(cfg.trials):
        td = make_trial(cfg, t)
        for w in (td.mu, td.lam):
            c_star = ppott_best_constant(w)
            a2 = a2_characteristic(w)
            # witness f = w * sign(h_I) on I gives ratio exactly 1, so C* >= 1
            w_lower.update(1.0 - c_star, t)
            cs.append(c_star)
            c_over_a2.append(c_star / a2)
    const = Weight(StepFunction.constant(DyadicGrid(cfg.depth), 1.0))
    c1 = ppott_best_constant(const)
    res.assertions.append(
        Assertion(
            "constant_weight_best_constant_one",
            abs(c1 - 1.0) <= 1e-9,
            abs(c1 - 1.0),
            1e-9,
            "coefficient energy inequality is Parseval at w == 1",
        )
    )
    res.assertions.append(w_lower.assertion("best_constant_at_least_one", 1e-9))
    res.measured["best_constant"] = _stats(cs)
    res.measured["best_constant_over_a2"] = _stats(c_over_a2)
    return res


# ------------------------------------------------------------------ stopping


def run_stopping(cfg: ExperimentConfig) -> SuiteResult:
    res = SuiteResult("stopping", cfg.to_dict())
    grid = DyadicGrid(cfg.depth)
    root = grid.root
    w_pack = _Worst()
    w_decay = _Worst()
    w_lebesgue4 = _Worst()
    w_unstopped = _Worst()
    w_cond1 = _Worst()
    w_cond2 = _Worst()
    search_failures = []
    c_dev, c_cor, c_sq, ks, cond3_packs = [], [], [], [], []
    for t in range(cfg.trials):
        td = make_trial(cfg, t)
        mu, lam, b = td.mu, td.lam, td.b
        mu_inv = mu.inverse
        rho = rho_weight(mu, lam)
        # (a) two-sided lambda deviation: minimal constant and its packing
        try:
            c = minimal_packing_constant(
                grid, root, lambda C: deviation_factory(lam, C), lam, target=0.5
            )
            fam = maximal_stopping_intervals(
                grid, root, deviation_factory(lam, c)(root)
            )
            w_pack.update(packing_ratio(fam, lam) - 0.5, t)
            c_dev.append(c)
        except PackingSearchError as e:
            search_failures.append((t, "deviation", e.min_ratio))
        # corona decay at the corona-wide constant
        try:
            cc = minimal_corona_constant(
                grid, root, lambda C: deviation_factory(lam, C), lam, target=0.5
            )
            gens = corona_generations(grid, root, deviation_factory(lam, cc))
            total_root = lam.mass(root)
            for i, fams in enumerate(gens):
                gen_mass = sum(f.member_mass(lam) for f in fams)
                allowed = 0.5 ** (i + 1) * total_root
                w_decay.update(gen_mass - allowed * (1 + 1e-12), t)
            c_cor.append(cc)
        except PackingSearchError as e:
            search_failures.append((t, "corona", e.min_ratio))
        # (c) one-sided factor-4 threshold: definitional Lebesgue packing
        fam4 = maximal_stopping_intervals(
            grid, root, threshold_factory(mu_inv, 4.0)(root)
        )
        leb = sum(s.length for s in fam4.members)
        w_lebesgue4.update(leb - 0.25 * (1 + 1e-12), t)
        # unstopped coefficient sum under combined two-weight deviation
        b2 = bloom_b2(b, mu, lam)
        if b2 > 0:
            try:
                c_both = minimal_packing_constant(
                    grid,
                    root,
                    lambda C: deviation_factory([mu_inv, lam], C),
                    mu_inv,
                    target=0.5,
                )
                fam_both = maximal_stopping_intervals(
                    grid, root, deviation_factory([mu_inv, lam], c_both)(root)
                )
                spec_b = haar_analyze(b)
                coeff_sum = sum(
                    spec_b.coeff(iv) ** 2
                    for iv in unstopped_intervals(fam_both)
                    if iv.level < grid.depth
                )
                base = b2**2 * 1.0 / (mu_inv.average(root) * lam.average(root))
                bound = c_both**3 * base
                w_unstopped.update(
                    (coeff_sum - bound * (1 + 1e-9)) / max(1.0, bound), t
                )
                ks.append(coeff_sum / base)
            except PackingSearchError as e:
                search_failures.append((t, "two-weight deviation", e.min_ratio))
        # (b) three-condition stopping with C = 2, C_b = 1
        fam3 = maximal_stopping_intervals(
            grid, root, three_condition_factory(mu, lam, b, 2.0, 1.0)(root)
        )
        a_mu = mu_inv.average(root)
        a_rho = rho.average(root)
        leb1 = sum(
            s.length for s in fam3.members if mu_inv.average(s) > 2.0 * a_mu
        )
        leb2 = sum(
            s.length
            for s in fam3.members
            if mu_inv.average(s) <= 2.0 * a_mu and rho.average(s) > 2.0 * a_rho
        )
        w_cond1.update(leb1 - 0.5 * (1 + 1e-12), t)
        w_cond2.update(leb2 - 0.5 * (1 + 1e-12), t)
        cond3_packs.append(
            sum(
                s.length
                for s in fam3.members
                if mu_inv.average(s) <= 2.0 * a_mu and rho.average(s) <= 2.0 * a_rho
            )
        )
        # (d) square-sum stopping: minimal constant in rho-mass
        if b2 > 0:
            try:
                csq = minimal_packing_constant(
                    grid,
                    root,
                    lambda C: square_sum_factory(b, rho, C, b2),
                    rho,
                    target=0.5,
                )
                c_sq.append(csq)
            except PackingSearchError as e:
                search_failures.append((t, "square-sum", e.min_ratio))
    res.assertions.append(
        Assertion(
            "packing_searches_succeed",
            not search_failures,
            float(len(search_failures)),
            0.0,
            f"failures: {search_failures}" if search_failures else "all searches found a constant",
        )
    )
    res.assertions.append(w_pack.assertion("deviation_packing_at_target", 0.0))
    res.assertions.append(w_decay.assertion("corona_geometric_decay", 0.0))
    res.assertions.append(
        w_lebesgue4.assertion("factor4_lebesgue_packing_quarter", 0.0)
    )
    res.assertions.append(
        w_unstopped.assertion("unstopped_coeff_sum_within_C_cubed", 0.0)
    )
    res.assertions.append(w_cond1.assertion("three_cond_weight_packing_half", 0.0))
    res.assertions.append(w_cond2.assertion("three_cond_rho_packing_half", 0.0))
    res.measured["deviation_constant"] = _stats(c_dev)
    res.measured["corona_constant"] = _stats(c_cor)
    res.measured["square_sum_constant"] = _stats(c_sq)
    res.measured["unstopped_coeff_sum_over_base"] = _stats(ks)
    res.measured["three_cond_path_sum_packing"] = _stats(cond3_packs)
    return res


# --------------------------------------------------------------- neccon-chain


def _mu_normalized_oscillation(b: StepFunction, mu: Weight, lam: Weight) -> float:
    """sup_I (1/mu(I)) int_I (b - <b>_I)^2 lambda dx."""
    depth = b.grid.depth
    mb = level_masses(b.values, depth)
    mbl = level_masses(b.values * lam.values, depth)
    mb2l = level_masses(b.values**2 * lam.values, depth)
    ml = lam.level_masses
    best = 0.0
    for k in range(depth):
        avg_b = mb[k] * (2.0**k)
        osc = np.maximum(mb2l[k] - 2.0 * avg_b * mbl[k] + avg_b**2 * ml[k], 0.0)
        best = max(best, float((osc / mu.level_masses[k]).max()))
    return best


def run_neccon_chain(cfg: ExperimentConfig) -> SuiteResult:
    res = SuiteResult("neccon-chain", cfg.to_dict())
    w_low = _Worst()
    w_high = _Worst()
    r_bmo, r_b2, r_comm = [], [], []
    for t in range(cfg.trials):
        td = make_trial(cfg, t)
        mu, lam, b = td.mu, td.lam, td.b
        rho = rho_weight(mu, lam)
        nec = neccon_functional(b, mu, lam)
        base = _mu_normalized_oscillation(b, mu, lam)
        a2 = a2_characteristic(mu)
        # sandwich chain: base <= neccon^2 <= [mu]_{A2} * base, definitional
        w_low.update(_rel(base - nec**2, base), t)
        w_high.update(_rel(nec**2 - a2 * base, a2 * base), t)
        bmo = bmo_rho(b, rho)
        b2 = bloom_b2(b, mu, lam)
        if bmo > 0:
            r_bmo.append(nec / bmo)
        if b2 > 0:
            r_b2.append(nec / b2)
        n_comm = weighted_operator_norm(commutator_operator(b), mu, lam)
        if n_comm > 0:
            r_comm.append(nec / n_comm)
    res.assertions.append(w_low.assertion("neccon_at_least_mu_oscillation", 1e-12))
    res.assertions.append(w_high.assertion("neccon_within_a2_of_oscillation", 1e-12))
    res.measured["neccon_over_bmo_rho"] = _stats(r_bmo)
    res.measured["neccon_over_bloom_b2"] = _stats(r_b2)
    res.measured["neccon_over_commutator_norm"] = _stats(r_comm)
    return res


SUITES = {
    "identities": run_identities,
    "equivalences": run_equivalences,
    "paraproduct-bounds": run_paraproduct_bounds,
    "commutator-bounds": run_commutator_bounds,
    "carleson": run_carleson,
    "ppott": run_ppott,
    "stopping": run_stopping,
    "neccon-chain": run_neccon_chain,
}


def run_suite(name: str, cfg: ExperimentConfig) -> SuiteResult:
    if name not in SUITES:
        from .errors import ConfigError

        raise ConfigError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return SUITES[name](cfg)
