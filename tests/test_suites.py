"""The suite contract: names, assertion order and tolerances, measured keys.

The verification JSON is read by tools outside this package, so each suite's
ordered (name, tolerance) assertion list and its set of measured keys are
pinned here as literals.  A gate that no trial reaches must still appear,
reading "no trials".
"""

import math
from collections import Counter

import pytest

from dyadbloom import bmo, suites
from dyadbloom.bmo import bmo_report
from dyadbloom.config import SUITE_NAMES, ExperimentConfig
from dyadbloom.suites import SOLVES, SUITES, Record, run_suites

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


def test_every_solve_is_named_and_every_name_solved():
    assert {name for suite in SUITES.values() for name in suite.solves} == set(SOLVES)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_assertions_and_measured_keys(name):
    (result,) = run_suites(ExperimentConfig.from_dict({"depth": 4, "trials": 2, "suites": [name]}))
    assert result.config["suites"] == [name]
    gates, measured = CONTRACT[name]
    assert [(a.name, a.tolerance) for a in result.assertions] == gates
    assert set(result.measured) == measured
    assert result.passed


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
    # bmo_report (a primal and a dual Bloom scan, one bmo_rho scan) and its
    # six-term expansion one expansion_terms call, whichever suites read
    # them; equivalences' zero symbol adds one report, identities' worked
    # example one expansion
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_bloom_b2_scan", "_bmo_rho_scan"):
        monkeypatch.setattr(bmo, name, counted(name, getattr(bmo, name)))
    monkeypatch.setattr(suites, "expansion_terms",
                        counted("expansion_terms", suites.expansion_terms))
    results = run_suites(ExperimentConfig.from_dict({"depth": 4, "trials": 3}))
    assert all(res.passed for res in results)
    assert calls == {"_bloom_b2_scan": 2 * 3 + 2, "_bmo_rho_scan": 3 + 1,
                     "expansion_terms": 3 + 1}


def test_trial_report_is_the_cached_bmo_report():
    td = suites.make_trial(ExperimentConfig(depth=6), 1)
    # repr round-trips every float, so equal reprs are bitwise-equal reports
    assert repr(td.bmo) == repr(bmo_report(td.b, td.mu, td.lam))
    assert td.bmo is td.bmo
    assert td.expansion is td.expansion
