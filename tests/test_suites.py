"""The suite contract: names, assertion order and tolerances, measured keys.

The verification JSON is read by tools outside this package, so each suite's
ordered (name, tolerance) assertion list and its set of measured keys are
pinned here as literals.  A gate that no trial reaches must still appear,
reading "no trials".
"""

import math
from collections import Counter

import pytest

from conftest import count_calls
from dyadbloom import bmo, grid, normest, operators, suites
from dyadbloom.bmo import BmoReport
from dyadbloom.config import SUITE_NAMES, ExperimentConfig
from dyadbloom.normest import SOLVES, TopEigen, compute_norm_report
from dyadbloom.suites import SUITES, Record, run_suites

CONTRACT = {
    "identities": (
        [
            ("haar_round_trip", 1e-12),
            ("parseval", 1e-12),
            ("product_decomposition", 1e-11),
            ("paraproduct_adjointness", 1e-12),
            ("shift_isometry_admissible", 1e-12),
            ("six_term_expansion", 1e-11),
            ("remainder_closed_form", 1e-11),
            ("remainder_energy_identity", 1e-10),
            ("worked_example_bitwise", 0.0),
            ("worked_example_expansion", 1e-12),
        ],
        {"sign_flipped_residual"},
    ),
    "equivalences": (
        [
            ("zero_symbol_zero_functionals", 0.0),
            ("constant_weight_a2_is_one", 0.0),
            ("a2_sandwich_lower", 1e-12),
            ("a2_sandwich_upper", 1e-12),
        ],
        {"a2_lambda", "a2_mu", "b2_over_bmo", "b2_over_l2form", "bmo_over_b2",
         "bmo_over_l1", "chain_max", "l1_over_bmo", "l2form_over_b2"},
    ),
    "paraproduct-bounds": (
        [("norm_duality_transpose", 1e-9)],
        {"bloom_b2", "lower_bound_excess", "lower_bound_excess_dual",
         "lower_bound_violations", "lower_bound_violations_dual",
         "necessity_test_function_bound", "norm_over_bloom_b2", "norm_paraproduct"},
    ),
    "commutator-bounds": (
        [
            ("constant_symbol_commutes", 0.0),
            ("commutator_apply_matches_expansion", 1e-11),
            ("adjoint_consistency", 1e-12),
        ],
        {"bmo_rho", "norm_commutator", "norm_over_bmo_rho"},
    ),
    "carleson": (
        [
            ("carleson_equals_bloom_b2_sq", 1e-10),
            ("carleson_dual_equals_bloom_b2_dual_sq", 1e-10),
            ("embedding_at_least_carleson", 1e-9),
            ("embedding_at_most_4x_carleson", 1e-9),
        ],
        {"embedding_over_carleson"},
    ),
    "ppott": (
        [
            ("constant_weight_best_constant_one", 1e-9),
            ("best_constant_at_least_one", 1e-9),
        ],
        {"best_constant", "best_constant_over_a2"},
    ),
    "stopping": (
        [
            ("packing_searches_succeed", 0.0),
            ("deviation_packing_at_target", 0.0),
            ("corona_geometric_decay", 0.0),
            ("factor4_lebesgue_packing_quarter", 0.0),
            ("unstopped_coeff_sum_within_C_cubed", 0.0),
            ("three_cond_weight_packing_half", 0.0),
            ("three_cond_rho_packing_half", 0.0),
        ],
        {"corona_constant", "deviation_constant", "square_sum_constant",
         "three_cond_path_sum_packing", "unstopped_coeff_sum_over_base"},
    ),
    "neccon-chain": (
        [
            ("neccon_at_least_mu_oscillation", 1e-12),
            ("neccon_within_a2_of_oscillation", 1e-12),
        ],
        {"neccon_over_bloom_b2", "neccon_over_bmo_rho", "neccon_over_commutator_norm"},
    ),
}


def test_suite_registry_matches_config_names():
    assert tuple(SUITES) == SUITE_NAMES
    assert tuple(CONTRACT) == SUITE_NAMES


def test_every_solve_is_named_and_every_name_solved(monkeypatch):
    # every name a suite lists is a SOLVES entry, and every entry is read by
    # an all-suite pass or by the norms report
    read = set()

    class Reading(dict):
        def __getitem__(self, name):
            read.add(name)
            return super().__getitem__(name)

    assert {name for suite in SUITES.values() for name in suite.solves} <= set(SOLVES)
    monkeypatch.setattr(normest, "SOLVES", Reading(SOLVES))
    run_suites(ExperimentConfig(depth=4, trials=1))
    td = suites.make_trial(ExperimentConfig(depth=4), 0)
    compute_norm_report(td.b, td.mu, td.lam)
    assert read == set(SOLVES)


def test_verify_and_the_norms_report_solve_through_one_table():
    # a one-trial pass and the report of the same trial read the same SOLVES
    # rows, so their paraproduct and commutator norms agree bitwise
    cfg = ExperimentConfig(trials=1, suites=("paraproduct-bounds", "commutator-bounds"))
    para, comm = run_suites(cfg)
    td = suites.make_trial(cfg, 0)
    rep = compute_norm_report(td.b, td.mu, td.lam)
    assert para.measured["norm_paraproduct"]["min"] == rep.norm_paraproduct
    assert comm.measured["norm_commutator"]["min"] == rep.norm_commutator


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_every_solver_returns_one_top_eigen_per_row(name):
    solver, rows_of = SOLVES[name]
    rows = rows_of(suites.make_trial(ExperimentConfig(depth=4), 0).bmo)
    out = solver(rows)
    assert len(out) == len(rows)
    assert all(type(e) is TopEigen for e in out)


def test_carleson_gates_fail_when_the_subtree_sums_drift(monkeypatch):
    # bloom_b2 and bloom_b2_dual are roots of the sups of bmo's bottom-up
    # subtree sums; the two gates hold their squares to a level-by-level
    # route, so a relative drift of 1e-6 in every subtree sum fails both
    subtree_sums = bmo._subtree_sums
    monkeypatch.setattr(bmo, "_subtree_sums",
                        lambda values: subtree_sums(values) * (1 + 1e-6))
    (res,) = run_suites(ExperimentConfig(depth=6, trials=2, suites=("carleson",)))
    failed = {a.name for a in res.assertions if not a.passed}
    assert {"carleson_equals_bloom_b2_sq", "carleson_dual_equals_bloom_b2_dual_sq"} <= failed


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_assertions_and_measured_keys(name):
    (result,) = run_suites(ExperimentConfig.from_dict({"depth": 4, "trials": 2, "suites": [name]}))
    assert result.config["suites"] == [name]
    gates, measured = CONTRACT[name]
    assert [(a.name, a.tolerance) for a in result.assertions] == gates
    assert set(result.measured) == measured
    assert result.passed


def test_suite_json_holds_exactly_the_result_fields():
    # the top-level keys of every suite-<name>.json, and nothing kept empty
    results = run_suites(ExperimentConfig(depth=4, trials=1))
    for res in results:
        assert set(res.to_dict()) == {
            "suite", "config", "assertions", "measured", "findings", "passed"}, res.suite


@pytest.mark.parametrize("names", [(n,) for n in SUITE_NAMES] + [SUITE_NAMES],
                         ids=lambda n: "+".join(n))
def test_every_gate_is_reached_on_the_default_ensembles(names):
    # a (name, tol) gate no check reports reads "no trials" and passes, so a
    # residual renamed on one side only would pass silently: on the default
    # ensembles every gate of every suite, alone or together, sees a trial
    results = run_suites(ExperimentConfig(depth=4, trials=3, suites=names))
    vacuous = [(res.suite, a.name) for res in results for a in res.assertions
               if "no trials" in a.detail]
    assert vacuous == []
    assert all(res.passed for res in results)


def test_constant_symbol_passes_with_unreached_gates():
    cfg = ExperimentConfig.from_dict(
        {"depth": 4, "trials": 2, "symbol": {"kind": "constant"}}
    )
    unreached = {
        "embedding_at_least_carleson",
        "embedding_at_most_4x_carleson",
        "unstopped_coeff_sum_within_C_cubed",
    }
    # every value with a zero denominator or a skipped search is undefined on
    # every trial; its name still appears, with no samples
    undefined = {
        "l2form_over_b2", "b2_over_l2form", "l1_over_bmo", "bmo_over_l1",
        "b2_over_bmo", "bmo_over_b2", "chain_max", "norm_over_bloom_b2",
        "norm_over_bmo_rho", "embedding_over_carleson", "square_sum_constant",
        "unstopped_coeff_sum_over_base", "neccon_over_bmo_rho",
        "neccon_over_bloom_b2", "neccon_over_commutator_norm",
    }
    seen, empty, measured = set(), set(), {}
    for name, result in zip(SUITE_NAMES, run_suites(cfg)):
        assert result.passed, name
        assert set(result.measured) == CONTRACT[name][1], name
        measured.update(result.measured)
        empty |= {k for k, v in result.measured.items() if v == {"n": 0}}
        for a in result.assertions:
            if a.name in unreached:
                assert (a.detail, a.worst) == ("no trials", 0.0)
                seen.add(a.name)
    assert seen == unreached
    assert empty == undefined
    for k in ("lower_bound_violations", "lower_bound_violations_dual"):
        assert type(measured[k]) is int and measured[k] == 0


@pytest.mark.parametrize("residuals", [(1e-15, math.nan, 1.0), (math.nan, 1e-15, 1.0)])
def test_nan_residual_fails_its_gate(residuals):
    rec = Record("identities", ExperimentConfig())
    for t, v in enumerate(residuals):
        rec.trial = t
        rec.residual("parseval", v)
    a = rec.assertion("parseval", 1e-12)
    assert not a.passed
    assert math.isnan(a.worst)
    nan_trial = next(t for t, v in enumerate(residuals) if math.isnan(v))
    assert a.detail == f"worst at trial {nan_trial}"


def test_joint_pass_draws_each_trial_once_and_solves_once(monkeypatch):
    # D=8 x 5 trials is one lockstep group: three generate calls per trial
    # (equivalences' degenerate-symbol check reuses the pass's trial 0) and
    # one commutator solve, which commutator-bounds and neccon-chain share
    generated, solved = [], []
    generate = suites.generate

    def counting_generate(spec):
        generated.append(spec)
        return generate(spec)

    solver, rows_of = SOLVES["commutator"]

    def counting_solver(rows):
        solved.append(len(rows))
        return solver(rows)

    monkeypatch.setattr(suites, "generate", counting_generate)
    monkeypatch.setitem(SOLVES, "commutator", (counting_solver, rows_of))
    results = run_suites(ExperimentConfig.from_dict({"depth": 8, "trials": 5}))
    assert all(res.passed for res in results)
    assert all(res.config["suites"] == list(SUITE_NAMES) for res in results)
    assert len(generated) == 3 * 5
    assert solved == [5]


def test_joint_pass_computes_each_trial_fact_once(monkeypatch):
    # all suites at D=4 x 3 trials: each trial's functionals are one
    # BmoReport (a primal and a dual Carleson constant, one bmo_rho scan, one
    # Bloom weight) and its expansion's three pieces one expansion_terms call,
    # whichever suites read them; equivalences' zero symbol adds one report,
    # identities' worked example one expansion
    calls = {name: count_calls(monkeypatch, module, name) for module, name in (
        (bmo, "_subtree_sums"), (bmo, "_bmo_rho_scan"), (operators, "expansion_terms"))}
    results = run_suites(ExperimentConfig.from_dict({"depth": 4, "trials": 3}))
    assert all(res.passed for res in results)
    assert {name: len(c) for name, c in calls.items()} == {
        "_subtree_sums": 2 * 3 + 2, "_bmo_rho_scan": 3 + 1, "expansion_terms": 3 + 1}
    rep = suites.make_trial(ExperimentConfig(depth=4), 0).bmo
    assert rep.rho is rep.rho


# _subtree_sums runs once per Carleson sequence of the report that is read
# (carleson behind bloom_b2, carleson_dual behind bloom_b2_dual)
_SCANS = ("_subtree_sums", "_bloom_l2form_scan", "_bmo_rho_scan", "_bmo_rho_l1_scan",
          "_neccon_scan")


# per trial: the functional scans each suite runs, and its lambda-weighted
# oscillation passes; equivalences adds its zero-symbol report once
_SCANS_PER_TRIAL = {
    "identities": ({}, 0),
    "equivalences": ({"_subtree_sums": 1, "_bloom_l2form_scan": 1, "_bmo_rho_scan": 1,
                      "_bmo_rho_l1_scan": 1}, 0),
    "paraproduct-bounds": ({"_subtree_sums": 2}, 0),
    "commutator-bounds": ({"_bmo_rho_scan": 1}, 0),
    "carleson": ({"_subtree_sums": 2}, 0),
    "ppott": ({}, 0),
    "stopping": ({"_subtree_sums": 1}, 0),
    "neccon-chain": ({"_subtree_sums": 1, "_bmo_rho_scan": 1, "_neccon_scan": 1}, 1),
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suite_scans_only_the_functionals_it_reads(monkeypatch, suite):
    # a one-suite pass at D=4 x 3 trials computes the functionals its checks
    # read and no other: each trial's report scans on first read
    calls = {name: count_calls(monkeypatch, bmo, name) for name in _SCANS}
    # lam_oscillation is a cached_property: count the computations behind it
    prop, oscillations = bmo.BmoReport.__dict__["lam_oscillation"], []
    compute = prop.func
    monkeypatch.setattr(prop, "func", lambda rep: oscillations.append(rep) or compute(rep))
    (res,) = run_suites(ExperimentConfig(depth=4, trials=3, suites=(suite,)))
    assert res.passed
    per_trial, weighted = _SCANS_PER_TRIAL[suite]
    want = Counter({name: 3 * n for name, n in per_trial.items()})
    want_weighted = 3 * weighted
    if suite == "equivalences":  # its zero-symbol report reads all six
        want.update(_SCANS + ("_subtree_sums",))
        want_weighted += 1
    assert Counter({name: len(c) for name, c in calls.items() if c}) == want
    assert len(oscillations) == want_weighted


# default D=8 x 20 trials: (Carleson term sets, subtree-sum passes, Haar
# analyses of the trials' symbols) for one pass; each trial builds its two
# sequences once and analyses its symbol once for the suites, and the
# equivalences zero-symbol report adds two sequences
_DEFAULT_PASS_WORK = {
    ("carleson",): (40, 40, 20),
    ("paraproduct-bounds",): (40, 40, 20),
    SUITE_NAMES: (42, 42, 140),
}


@pytest.mark.parametrize("names", list(_DEFAULT_PASS_WORK), ids=lambda n: "+".join(n))
def test_default_pass_builds_each_carleson_sequence_once(monkeypatch, names):
    terms = count_calls(monkeypatch, bmo, "_carleson_terms")
    sums = count_calls(monkeypatch, bmo, "_subtree_sums")
    analyses = count_calls(monkeypatch, grid, "analyze_leaves")
    symbols = []
    make_trial = suites.make_trial

    def recording_make_trial(cfg, t):
        td = make_trial(cfg, t)
        symbols.append(td.b)
        return td

    monkeypatch.setattr(suites, "make_trial", recording_make_trial)
    results = run_suites(ExperimentConfig(suites=names))
    assert all(res.passed for res in results)
    of_symbols = sum(any(args[0] is b for b in symbols) for args in analyses)
    assert (len(terms), len(sums), of_symbols) == _DEFAULT_PASS_WORK[names]


def test_trial_report_is_the_cached_bmo_report():
    td = suites.make_trial(ExperimentConfig(depth=6), 1)
    # to_dict holds every value and achieving interval of the report
    assert td.bmo.to_dict() == BmoReport(td.b, td.mu, td.lam).to_dict()
    assert td.bmo is td.bmo
    assert td.expansion is td.expansion
