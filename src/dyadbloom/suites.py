"""Randomized verification suites over seeded ensembles.

One pass, run_suites(cfg), draws cfg.trials seeded trials and returns one
SuiteResult per suite of cfg.suites, in that order, each holding

  * hard assertions -- exact identities and constant-1 inequalities only;
    any failure flips the suite (and the CLI exit code) to failing;
  * measured constants -- dimensionless ratios whose finiteness or size is
    the empirical content; they are recorded, never asserted here (pinned
    acceptance tests freeze pilot values separately).

Each suite is a Suite: a per-trial check that reports residuals, samples,
counts and findings to its own Record, and an ordered gate list that fixes
the assertions.  A gate is either (name, tolerance[, detail]), asserting the
worst residual reported under that name, or a callable of the Record for a
check that is not per trial.  A check samples every name on every trial, None
where the value is undefined, so ``n`` counts the trials that define it.

Trials are the outer loop and suites the inner one: each trial is drawn
once and every selected suite checks it, in suite order, reporting to its
own Record, so a suite's assertions and measurements do not depend on which
others ran.

Eigenvalue solves run in lockstep groups.  normest.SOLVES, the table that
compute_norm_report reads too, names every eigenproblem a check may read
(weighted norms, best constants, embedding constants) with its solver and
the rows one trial's BmoReport contributes; Suite.solves lists the names a
suite reads.  For each group of trials, run_suites solves the union of the
selected suites' names once through normest.solve_named, each as one
stacked solve (normest's lockstep Lanczos, one matvec per step for the
whole group).  normest's width cap bounds rows x 2^D per solve at 2^13
leaves, so a group holds 2^13 / 2^D trials, and at D >= 13 every solve has
one row.  Each row of a lockstep solve returns bitwise what it returns
alone, so a trial's values do not depend on its group, and the output does
not depend on the width.

Per-trial materials: mu and lambda from the config's weight recipes, the
symbol b projected onto admissible levels (<= D-2) so commutator identities
and functionals see the same symbol, and Gaussian test functions f, g from
the trial's function stream (f, g admissible; raw variants keep all levels
for identities that need no admissibility), drawn only if a check reads
them.  The functionals of b (bmo, one BmoReport, which also holds the
trial's Bloom weight rho and b's Haar coefficients) and the three pieces of
the expansion of [b, Sh] f (expansion) are built once per trial, and each
functional is computed when a check first reads it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial

import numpy as np

from .bmo import BmoReport
from .config import ROLE_FUNC, ExperimentConfig, derive_seed
from .errors import PackingSearchError
from .grid import (
    ROOT,
    accumulate_levels,
    analyze_leaves,
    haar_function,
    heap_scales,
    level,
    spread,
    square_layers,
    synthesize_leaves,
)
from .normest import (
    lockstep_chunks,
    necessity_test_function_bound,
    ppott_best_constants,
    solve_named,
)
from .operators import (
    ExpansionTerms,
    commutator_operator,
    expansion_terms,
    paraproduct_operator,
    paraproduct_plan,
    project_admissible,
    remainder_closed_form,
    shift_operator,
)
from .stopping import (
    PACKING_TARGET,
    deviation_factory,
    maximal_stopping_intervals,
    minimal_corona_constant,
    minimal_packing_constant,
    ordered_sum,
    packing_ratio,
    square_sum_factories,
    three_condition_factory,
    threshold_factory,
)
from .weights import Weight, a2_characteristic, generate

__all__ = [
    "Assertion",
    "Finding",
    "Record",
    "Suite",
    "SuiteResult",
    "TrialData",
    "make_trial",
    "run_suites",
    "SUITES",
]


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""


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


@dataclass
class SuiteResult:
    suite: str
    config: dict
    assertions: list[Assertion] = field(default_factory=list)
    measured: dict = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _stats(xs: list[float | None]) -> dict:
    arr = np.asarray([x for x in xs if x is not None and math.isfinite(x)], dtype=np.float64)
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


class Record:
    """What one suite's checks report over its trials.

    run_suites sets ``trial`` before each trial's check and keeps trial 0
    as ``first`` for the gates.  ``samples`` and ``counts`` gain a name on
    its first report; a check reports each name on every trial, so a sample
    no trial defines reads {"n": 0} and a count nothing hits reads 0.
    ``failures`` lists (trial, label, detail) for checks that could not run.
    """

    def __init__(self, suite: str, cfg: ExperimentConfig):
        self.suite = suite
        self.cfg = cfg
        self.trial = -1
        self.first: TrialData | None = None
        self.worst: dict[str, tuple[float, int]] = {}
        self.samples: dict[str, list[float | None]] = {}
        self.counts: dict[str, int] = {}
        self.findings: list[Finding] = []
        self.failures: list[tuple] = []

    def residual(self, name: str, v: float) -> None:
        """Keep gate *name*'s largest residual and the first trial reaching
        it.  A NaN is kept once seen, so the gate fails and names its trial."""
        v = float(v)
        old = self.worst.get(name)
        if old is None or (not math.isnan(old[0]) and not v <= old[0]):
            self.worst[name] = (v, self.trial)

    def sample(self, name: str, v: float | None) -> None:
        self.samples.setdefault(name, []).append(v)

    def count(self, name: str, hit: bool) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(hit)

    def assertion(self, name: str, tol: float, extra: str = "") -> Assertion:
        value, trial = self.worst.get(name, (0.0, -1))
        detail = f"worst at trial {trial}" if trial >= 0 else "no trials"
        if extra:
            detail += f"; {extra}"
        return Assertion(name, value <= tol, value, tol, detail)


Solved = dict[str, list]


@dataclass(frozen=True)
class Suite:
    """A per-trial check and the ordered gates that become the assertions.

    solves names the normest.SOLVES entries the check reads; the check
    receives {name: that trial's values, in row order}.
    """

    check: Callable[[Record, TrialData, Solved], None]
    gates: tuple
    solves: tuple[str, ...] = ()


@dataclass
class TrialData:
    """One trial's materials (module docstring); seed is the config's master
    seed.  f_raw and g_raw are the two 2^D draws of the trial's function
    stream, in that order, both drawn when either is first read; f and g,
    their admissible projections, are made when first read."""

    index: int
    seed: int
    mu: Weight
    lam: Weight
    b: np.ndarray
    b_raw: np.ndarray

    @cached_property
    def _functions(self) -> np.ndarray:
        rng = np.random.default_rng(derive_seed(self.seed, self.index, ROLE_FUNC))
        return rng.standard_normal((2, self.b.size))

    f_raw = cached_property(lambda self: self._functions[0])
    g_raw = cached_property(lambda self: self._functions[1])
    f = cached_property(lambda self: project_admissible(self.f_raw))
    g = cached_property(lambda self: project_admissible(self.g_raw))

    @cached_property
    def bmo(self) -> BmoReport:
        return BmoReport(self.b, self.mu, self.lam)

    @cached_property
    def expansion(self) -> ExpansionTerms:
        return expansion_terms(self.b, self.f, self.bmo.coeffs)


def make_trial(cfg: ExperimentConfig, t: int) -> TrialData:
    mu, lam, sym = (generate(spec) for spec in cfg.specs(t))
    b_raw = sym.values if isinstance(sym, Weight) else sym
    return TrialData(t, cfg.seed, mu, lam, project_admissible(b_raw), b_raw)


# ---------------------------------------------------------------- identities


def _worked_example_assertions() -> list[Assertion]:
    # depth-2 grid, b = f = Haar function of the root.  The shift, the direct
    # commutator, and the closed-form remainder synthesize their steps with
    # no irrational intermediate, so those three are compared bitwise.  The
    # expansion's pieces [Pi_b, Sh] f, [Pi*_b, Sh] f and R_b f synthesize
    # some of their terms from Haar coefficients, which costs one ulp on
    # (1/sqrt(2))*sqrt(2); the sum of the three pieces and the piece R_b f
    # are held to 1e-12 instead.
    h_root = haar_function(2, ROOT)
    shifted = shift_operator(2).apply(h_root)
    ok_shift = np.array_equal(shifted, np.array([-1.0, 1.0, 1.0, -1.0]))
    terms = expansion_terms(h_root, h_root)
    ok_comm = np.array_equal(terms.commutator, np.array([1.0, -1.0, 1.0, -1.0]))
    rem = remainder_closed_form(h_root, h_root)
    ok_rem = np.array_equal(rem, np.array([1.0, -1.0, 1.0, -1.0]))
    bitwise = ok_shift and ok_comm and ok_rem
    worst = max(terms.residual(), float(np.abs(terms.remainder - rem).max()))
    return [
        Assertion("worked_example_bitwise", bitwise, 0.0 if bitwise else 1.0, 0.0,
                  "depth-2 shift, commutator, closed-form remainder reproduce bitwise"),
        Assertion("worked_example_expansion", worst <= 1e-12, worst, 1e-12,
                  "six-term sum and two-term remainder at depth 2"),
    ]


def _check_identities(rec: Record, td: TrialData, solved: Solved) -> None:
    depth = rec.cfg.depth
    # round trip and Parseval on a full-spectrum function
    coeffs = analyze_leaves(td.f_raw)
    back = synthesize_leaves(coeffs)
    rec.residual("haar_round_trip", float(np.abs(back - td.f_raw).max()))
    energy = float((td.f_raw**2).mean())
    # summed level by level: one sum over the heap rounds differently
    parseval = float(coeffs[0]) ** 2 + float(sum((level(coeffs, k) ** 2).sum()
                                                  for k in range(depth)))
    rec.residual("parseval", _rel(abs(energy - parseval), energy))
    # product decomposition holds for arbitrary b, g
    b, g = td.b_raw, td.g_raw
    pi_b = paraproduct_operator(b)
    lhs = b * g
    rhs = (
        b.mean() * g.mean()
        + pi_b.apply(g)
        + paraproduct_operator(g).apply(b)
        + pi_b.transpose(g)
    )
    rec.residual(
        "product_decomposition",
        _rel(float(np.abs(lhs - rhs).max()), float(np.abs(lhs).max())),
    )
    # unweighted adjointness <Pi_b f, g> = <f, Pi*_b g>
    ip1 = float((pi_b.apply(td.f_raw) * g).mean())
    ip2 = float((td.f_raw * pi_b.transpose(g)).mean())
    rec.residual("paraproduct_adjointness", _rel(abs(ip1 - ip2), ip1, ip2))
    # shift isometry on admissible mean-free input
    g0 = td.g - td.g.mean()
    norm0 = math.sqrt(float((g0**2).mean()))
    norm1 = math.sqrt(float((shift_operator(depth).apply(g0) ** 2).mean()))
    rec.residual("shift_isometry_admissible", _rel(abs(norm1 - norm0), norm0))
    # the expansion's three pieces, remainder closed form, remainder energy
    terms = td.expansion
    scale = float(np.abs(terms.commutator).max())
    rec.residual("six_term_expansion", _rel(terms.residual(), scale))
    rec.sample("sign_flipped_residual", _rel(terms.sign_flipped_residual(), scale))
    rem = remainder_closed_form(td.b, td.f, td.bmo.coeffs)
    rec.residual(
        "remainder_closed_form",
        _rel(float(np.abs(rem - terms.remainder).max()), scale),
    )
    sq = spread(accumulate_levels(square_layers(rem)), depth)
    measured_energy = float((sq * td.lam.values).mean())
    layers = np.ldexp(td.bmo.coeffs**2 * analyze_leaves(td.f) ** 2, heap_scales(1 << depth).levels)
    predicted = sum(float((level(layers, k) * level(td.lam.averages, k)).sum())
                    for k in range(depth - 1))
    rec.residual("remainder_energy_identity",
                 _rel(abs(measured_energy - predicted), measured_energy))


# --------------------------------------------------------------- equivalences

_CHAIN = ("l2form_over_b2", "b2_over_l2form", "l1_over_bmo", "bmo_over_l1",
          "b2_over_bmo", "bmo_over_b2", "chain_max")


def _check_equivalences(rec: Record, td: TrialData, solved: Solved) -> None:
    mu, lam = td.mu, td.lam
    # A2 sandwich 1 <= <mu>_I <mu^{-1}>_I <= [mu]_{A2}, every interval
    for w, name in ((mu, "a2_mu"), (lam, "a2_lambda")):
        a2 = a2_characteristic(w)
        rec.sample(name, a2)
        prod = w.averages * w.inverse.averages
        rec.residual("a2_sandwich_lower", float((1.0 - prod).max()))
        rec.residual("a2_sandwich_upper", float((prod - a2).max()))
    rep = td.bmo
    b2, l2f, bmo, l1 = rep.bloom_b2, rep.bloom_b2_l2form, rep.bmo_rho, rep.bmo_rho_l1
    defined = min(b2, l2f, bmo, l1) > 0.0
    r = (l2f / b2, b2 / l2f, l1 / bmo, bmo / l1, b2 / bmo, bmo / b2) if defined else (None,) * 6
    for k, v in zip(_CHAIN, (*r, max(r) if defined else None)):
        rec.sample(k, v)


def _degenerate_assertions(rec: Record) -> list[Assertion]:
    # degenerate symbol: every functional vanishes exactly
    rep = BmoReport(np.zeros(1 << rec.cfg.depth), rec.first.mu, rec.first.lam)
    vals = [getattr(rep, name) for name in BmoReport.NAMES]
    a2 = a2_characteristic(Weight(np.full(1 << rec.cfg.depth, 3.0)))
    return [
        Assertion("zero_symbol_zero_functionals", max(vals) == 0.0, max(vals), 0.0,
                  "all six functionals of b == 0"),
        Assertion("constant_weight_a2_is_one", a2 == 1.0, abs(a2 - 1.0), 0.0,
                  "[w]_{A2} of a constant weight"),
    ]


# --------------------------------------------------------- paraproduct-bounds


def _check_paraproduct_bounds(rec: Record, td: TrialData, solved: Solved) -> None:
    (n_pi,), (n_adj,) = solved["paraproduct"], solved["adjoint"]
    b2, b2d = td.bmo.bloom_b2, td.bmo.bloom_b2_dual
    rec.residual("norm_duality_transpose", _rel(abs(n_pi - n_adj), n_pi, n_adj))
    # The constant-1 lower bounds are audited, not assumed: the argument
    # behind them discards a constant-on-K term that need not help, so a
    # trial can genuinely exceed the norm.  Every violation is reported
    # as a finding carrying the seeds that replay it.
    for name, val, norm, side in (
        ("bloom_b2_exceeds_paraproduct_norm", b2, n_pi, ""),
        ("bloom_b2_dual_exceeds_adjoint_norm", b2d, n_adj, "_dual"),
    ):
        excess = (val - norm) / norm if norm > 0 else 0.0
        rec.sample("lower_bound_excess" + side, excess)
        rec.count("lower_bound_violations" + side, excess > 1e-6)
        if excess > 1e-6:
            seeds = zip(("mu_seed", "lambda_seed", "symbol_seed"), rec.cfg.specs(rec.trial))
            rec.findings.append(Finding(
                rec.suite, name, rec.trial,
                f"functional {val!r} exceeds operator norm {norm!r}"
                f" by {excess:.6e} (allowance 1e-06)",
                {"depth": rec.cfg.depth, "master_seed": rec.cfg.seed,
                 **{key: spec.seed for key, spec in seeds},
                 "functional": val, "norm": norm, "excess": excess},
            ))
    rec.sample("norm_over_bloom_b2", n_pi / b2 if b2 > 0 else None)
    rec.sample("norm_paraproduct", n_pi)
    rec.sample("bloom_b2", b2)
    rec.sample("necessity_test_function_bound", necessity_test_function_bound(td.bmo))


# --------------------------------------------------------- commutator-bounds


def _check_commutator_bounds(rec: Record, td: TrialData, solved: Solved) -> None:
    b = td.b
    shift = shift_operator(rec.cfg.depth)
    M = commutator_operator(b, shift)
    # the norm engine's apply vs the expansion's three pieces
    via_engine = M.apply(td.f)
    via_expansion = td.expansion.signed_sum()
    rec.residual(
        "commutator_apply_matches_expansion",
        _rel(float(np.abs(via_engine - via_expansion).max()),
             float(np.abs(via_expansion).max())),
    )
    # a constant symbol commutes exactly
    c = np.full(b.size, 2.5)
    rec.residual(
        "constant_symbol_commutes",
        float(np.abs(commutator_operator(c, shift).apply(td.f)).max()),
    )
    # <T f, g> = <f, T' g> for every transpose the engine uses (Pi*_b's is
    # Pi_b's on g, f); raw functions keep level-(D-1) content, which Sh drops
    pi_b, f, g = paraproduct_plan(td.bmo.coeffs), td.f_raw, td.g_raw
    for T, u, v in ((pi_b, f, g), (pi_b, g, f), (shift, f, g), (M, f, g)):
        ip1 = float((T.apply(u) * v).mean())
        ip2 = float((u * T.transpose(v)).mean())
        rec.residual("adjoint_consistency", _rel(abs(ip1 - ip2), ip1, ip2))
    (n_comm,) = solved["commutator"]
    bmo = td.bmo.bmo_rho
    rec.sample("norm_commutator", n_comm)
    rec.sample("bmo_rho", bmo)
    rec.sample("norm_over_bmo_rho", n_comm / bmo if bmo > 0 else None)


# ------------------------------------------------------------------ carleson


def _check_carleson(rec: Record, td: TrialData, solved: Solved) -> None:
    rep = td.bmo
    # bloom_b2 (bloom_b2_dual) is the root of its sequence's constant, whose
    # subtree sums bmo adds bottom-up; the gates hold its square to the
    # constant with each level-k subtree sum added over its levels m >= k
    for name, seq, root in (("carleson_equals_bloom_b2_sq", rep.carleson, rep.bloom_b2),
                            ("carleson_dual_equals_bloom_b2_dual_sq", rep.carleson_dual,
                             rep.bloom_b2_dual)):
        a, w, depth = seq.values, seq.weight, seq.weight.depth
        sups = [float((sum(level(a, m).reshape(1 << k, -1).sum(axis=1) for m in range(k, depth))
                       / np.ldexp(level(w.averages, k), -k)).max()) for k in range(depth)]
        rec.residual(name, _rel(abs(max(sups) - root**2), root**2))
    (best,) = solved["embedding"]
    car = rep.carleson.constant
    if car > 0:
        rec.residual("embedding_at_least_carleson", (car - best) / car)
        rec.residual("embedding_at_most_4x_carleson", (best - 4.0 * car) / car)
    rec.sample("embedding_over_carleson", best / car if car > 0 else None)


# --------------------------------------------------------------------- ppott


def _check_ppott(rec: Record, td: TrialData, solved: Solved) -> None:
    for w, c_star in zip((td.mu, td.lam), solved["best_constant"]):
        a2 = a2_characteristic(w)
        # witness f = w * sign(h_I) on I gives ratio exactly 1, so C* >= 1
        rec.residual("best_constant_at_least_one", 1.0 - c_star)
        rec.sample("best_constant", c_star)
        rec.sample("best_constant_over_a2", c_star / a2)


def _constant_weight_assertions(rec: Record) -> list[Assertion]:
    const = Weight(np.ones(1 << rec.cfg.depth))
    err = abs(ppott_best_constants([const])[0].value - 1.0)
    return [Assertion("constant_weight_best_constant_one", err <= 1e-9, err, 1e-9,
                      "coefficient energy inequality is Parseval at w == 1")]


# ------------------------------------------------------------------ stopping


def _check_stopping(rec: Record, td: TrialData, solved: Solved) -> None:
    mu, lam, b = td.mu, td.lam, td.b
    mu_inv = mu.inverse
    rho = td.bmo.rho

    def search(label, fn):
        # a search's (constant, what it found there), or (None, None)
        try:
            return fn()
        except PackingSearchError as e:
            rec.failures.append((rec.trial, label, e.min_ratio))
            return None, None

    # C -> the deviation rules of lambda and of (mu^{-1}, lambda)
    by_lam, by_both = partial(deviation_factory, lam), partial(deviation_factory, [mu_inv, lam])
    # (a) two-sided lambda deviation: minimal constant and its packing
    c, fam = search("deviation", lambda: minimal_packing_constant(by_lam, lam))
    if c is not None:
        rec.residual("deviation_packing_at_target", packing_ratio(fam, lam) - PACKING_TARGET)
    rec.sample("deviation_constant", c)
    # corona decay at the corona-wide constant, scanned up from c (without
    # c the search reruns and records its own failure)
    cc, gens = search("corona", lambda: minimal_corona_constant(by_lam, lam, start=c))
    for i, gen in enumerate(gens or ()):
        allowed = PACKING_TARGET ** (i + 1) * lam.total_mass
        gen_mass = ordered_sum(gen.member_masses(lam))
        rec.residual("corona_geometric_decay", gen_mass - allowed * (1 + 1e-12))
    rec.sample("corona_constant", cc)
    # (c) one-sided factor-4 threshold: definitional Lebesgue packing
    fam4 = maximal_stopping_intervals(ROOT, threshold_factory(mu_inv, 4.0))
    leb = ordered_sum(np.ldexp(1.0, -fam4.members.levels))
    rec.residual("factor4_lebesgue_packing_quarter", leb - 0.25 * (1 + 1e-12))
    # unstopped coefficient sum under combined two-weight deviation
    b2 = td.bmo.bloom_b2
    c_both = over_base = None
    if b2 > 0:
        c_both, fam = search("two-weight deviation",
                             lambda: minimal_packing_constant(by_both, mu_inv))
    if c_both is not None:
        coeffs = td.bmo.coeffs
        # float_power is libm pow, as Python's ** on a float (a square is
        # not); the heap lists the unstopped intervals level-major
        coeff_sum = ordered_sum(np.float_power(coeffs[fam.unstopped[: coeffs.size]], 2.0))
        base = b2**2 * 1.0 / (mu_inv.total_mass * lam.total_mass)
        bound = c_both**3 * base
        rec.residual(
            "unstopped_coeff_sum_within_C_cubed",
            (coeff_sum - bound * (1 + 1e-9)) / max(1.0, bound),
        )
        over_base = coeff_sum / base
    rec.sample("unstopped_coeff_sum_over_base", over_base)
    # (b) three-condition stopping with C = 2, C_b = 1
    fam3 = maximal_stopping_intervals(ROOT, three_condition_factory(mu, rho, b, 2.0, 1.0))
    lengths = np.ldexp(1.0, -fam3.members.levels)
    over_mu = fam3.members.gather(mu_inv.averages) > 2.0 * mu_inv.total_mass
    over_rho = fam3.members.gather(rho.averages) > 2.0 * rho.total_mass
    leb1 = ordered_sum(lengths[over_mu])
    leb2 = ordered_sum(lengths[~over_mu & over_rho])
    rec.residual("three_cond_weight_packing_half", leb1 - 0.5 * (1 + 1e-12))
    rec.residual("three_cond_rho_packing_half", leb2 - 0.5 * (1 + 1e-12))
    rec.sample("three_cond_path_sum_packing", ordered_sum(lengths[~over_mu & ~over_rho]))
    # (d) square-sum stopping: minimal constant in rho-mass
    csq = None
    if b2 > 0:
        rules = square_sum_factories(b, rho, b2)
        csq, _ = search("square-sum", lambda: minimal_packing_constant(rules, rho))
    rec.sample("square_sum_constant", csq)


def _packing_assertions(rec: Record) -> list[Assertion]:
    failures = rec.failures
    detail = f"failures: {failures}" if failures else "all searches found a constant"
    return [Assertion("packing_searches_succeed", not failures, float(len(failures)),
                      0.0, detail)]


# --------------------------------------------------------------- neccon-chain


def _check_neccon_chain(rec: Record, td: TrialData, solved: Solved) -> None:
    nec, bmo, b2 = td.bmo.neccon, td.bmo.bmo_rho, td.bmo.bloom_b2
    # sup_I (1/mu(I)) int_I (b - <b>_I)^2 lambda dx
    base = float((td.bmo.lam_oscillation / td.mu.masses)[1:].max())
    a2 = a2_characteristic(td.mu)
    # sandwich chain: base <= neccon^2 <= [mu]_{A2} * base, definitional
    rec.residual("neccon_at_least_mu_oscillation", _rel(base - nec**2, base))
    rec.residual("neccon_within_a2_of_oscillation", _rel(nec**2 - a2 * base, a2 * base))
    rec.sample("neccon_over_bmo_rho", nec / bmo if bmo > 0 else None)
    rec.sample("neccon_over_bloom_b2", nec / b2 if b2 > 0 else None)
    (n_comm,) = solved["commutator"]
    rec.sample("neccon_over_commutator_norm", nec / n_comm if n_comm > 0 else None)


SUITES = {
    "identities": Suite(
        _check_identities,
        (
            ("haar_round_trip", 1e-12),
            ("parseval", 1e-12),
            ("product_decomposition", 1e-11),
            ("paraproduct_adjointness", 1e-12),
            ("shift_isometry_admissible", 1e-12),
            ("six_term_expansion", 1e-11),
            ("remainder_closed_form", 1e-11),
            ("remainder_energy_identity", 1e-10),
            lambda rec: _worked_example_assertions(),
        ),
    ),
    "equivalences": Suite(
        _check_equivalences,
        (
            _degenerate_assertions,
            ("a2_sandwich_lower", 1e-12),
            ("a2_sandwich_upper", 1e-12),
        ),
    ),
    "paraproduct-bounds": Suite(
        _check_paraproduct_bounds,
        (("norm_duality_transpose", 1e-9),),
        solves=("paraproduct", "adjoint"),
    ),
    "commutator-bounds": Suite(
        _check_commutator_bounds,
        (
            ("constant_symbol_commutes", 0.0, "[c, shift] f == 0 exactly"),
            ("commutator_apply_matches_expansion", 1e-11),
            ("adjoint_consistency", 1e-12),
        ),
        solves=("commutator",),
    ),
    "carleson": Suite(
        _check_carleson,
        (
            ("carleson_equals_bloom_b2_sq", 1e-10),
            ("carleson_dual_equals_bloom_b2_dual_sq", 1e-10),
            ("embedding_at_least_carleson", 1e-9),
            ("embedding_at_most_4x_carleson", 1e-9),
        ),
        solves=("embedding",),
    ),
    "ppott": Suite(
        _check_ppott,
        (_constant_weight_assertions, ("best_constant_at_least_one", 1e-9)),
        solves=("best_constant",),
    ),
    "stopping": Suite(
        _check_stopping,
        (
            _packing_assertions,
            ("deviation_packing_at_target", 0.0),
            ("corona_geometric_decay", 0.0),
            ("factor4_lebesgue_packing_quarter", 0.0),
            ("unstopped_coeff_sum_within_C_cubed", 0.0),
            ("three_cond_weight_packing_half", 0.0),
            ("three_cond_rho_packing_half", 0.0),
        ),
    ),
    "neccon-chain": Suite(
        _check_neccon_chain,
        (
            ("neccon_at_least_mu_oscillation", 1e-12),
            ("neccon_within_a2_of_oscillation", 1e-12),
        ),
        solves=("commutator",),
    ),
}


def run_suites(cfg: ExperimentConfig) -> list[SuiteResult]:
    """One result per suite of cfg.suites, in order, from one pass over the
    trials."""
    suites = [SUITES[name] for name in cfg.suites]
    recs = [Record(name, cfg) for name in cfg.suites]
    solves = list(dict.fromkeys(key for s in suites for key in s.solves))
    for trials in lockstep_chunks(range(cfg.trials), 1 << cfg.depth):
        group = [make_trial(cfg, t) for t in trials]
        if trials[0] == 0:
            for rec in recs:
                rec.first = group[0]
        for td, solved in zip(group, solve_named(solves, [td.bmo for td in group])):
            values = {name: [e.value for e in rows] for name, rows in solved.items()}
            for suite, rec in zip(suites, recs):
                rec.trial = td.index
                suite.check(rec, td, values)
    results = []
    for suite, rec in zip(suites, recs):
        res = SuiteResult(rec.suite, cfg.to_dict(), findings=rec.findings)
        for gate in suite.gates:
            res.assertions.extend(gate(rec) if callable(gate) else [rec.assertion(*gate)])
        res.measured = {k: _stats(v) for k, v in rec.samples.items()} | rec.counts
        results.append(res)
    return results
