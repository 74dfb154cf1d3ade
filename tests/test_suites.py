"""The suite contract: names, assertion order and tolerances, measured keys.

The verification JSON is read by tools outside this package, so each suite's
ordered (name, tolerance) assertion list and its set of measured keys are
pinned here as literals.  A gate that no trial reaches must still appear,
reading "no trials".
"""

import hashlib
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
# sequences once and analyses its symbol once for its BmoReport, whose
# coefficients the identities and commutator-bounds' one paraproduct plan
# read too, and the equivalences zero-symbol report adds two sequences.  All
# suites analyse each symbol 3 times: the report and stopping's
# three-condition and square-sum rules.
_DEFAULT_PASS_WORK = {
    ("identities",): (0, 0, 20),
    ("carleson",): (40, 40, 20),
    ("paraproduct-bounds",): (40, 40, 20),
    ("commutator-bounds",): (0, 0, 20),
    SUITE_NAMES: (42, 42, 60),
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


# sha256 of the bytes of each array a trial holds, per (depth, seed, trial,
# roles): the default roles, or a mu whose a2_range rejects its first draw and
# a cascade symbol.  Recorded when make_trial still drew every array up front.
_ROLES = {
    "default": {},
    "a2-range": {"mu": {"kind": "cascade", "delta": 0.6, "a2_range": [2.0, 2.2]},
                 "symbol": {"kind": "cascade", "delta": 0.5}},
}
_TRIAL_ARRAYS = ("mu", "lam", "b", "b_raw", "f", "g", "f_raw", "g_raw")
_TRIAL_DIGESTS = {
    (2, 2026, 0, "default"): {
        "mu": "e4116ea0e800aa1e227bb6d55f67af51c804d941ec1a1ae09cf62de16a75bea2",
        "lam": "60de8410de54058dcfd1cbfa45590b25ab9258d93b544e6a6afc05451778004a",
        "b": "9f9832bffa5aaeda7576adb7caff786f31c6bb493047b091c24529082b04a1e9",
        "b_raw": "856fa4d2f2696a7590da076ff73bb880d922a877ffb701496a2add70c706892a",
        "f": "78624ac888155814f35a2b649dbf08c5d355eeab51116079131009419b49d997",
        "g": "a86d1e4d18f1c660507268d309dde5311651ce5e1ad4593110c15271496ed487",
        "f_raw": "7050724cde671449cd101a5b5cec9367dc8dac7f9a32a071a8a8406e9e67fdbd",
        "g_raw": "8d2da9c4d08b49eb78f2d108a43b062a5ad77f42c87a7891d53488f5c621fcb7",
    },
    (3, 7, 1, "default"): {
        "mu": "f5bb29635374e1adcac3f4327887547fa05edc49ff80d17f93429be1ab4a4150",
        "lam": "40de6809a4695f4018c8325e41bbab33404ac4cfd7cd6badfcbc3dba5b08561e",
        "b": "5f213037a423f37989fb436dd08965e3b1ea87ed3eb4bf69172e8f3d92db33ad",
        "b_raw": "ed26290722e44f865f6eedb505b7469464659093699211ac484ad1d74fcfe383",
        "f": "cd9b356fafeada1efbc55b3188f81f7c3b963812a6176539d57c0ee84dc0e53c",
        "g": "638c1658fd53640e0ef02dbda69d37cc7aee14e8cfff0b5fc7b74d8276064692",
        "f_raw": "31337c01c615faf036bed5bf679d21b9ee33f91745682807f9b868a7bddc0694",
        "g_raw": "4c494fd082c2fd3c180735a9c7cf39054431b378439a37519fdd7469db70c4ba",
    },
    (8, 2026, 4, "default"): {
        "mu": "deb0783148fc803363bc59c47de85f6e765d62cd36f37f12c2acdc1a12120eb4",
        "lam": "66cf550a36c2b233ccc3e9e892b39c482720580c29f04ad4096500c3003eaed6",
        "b": "c14137f3e5c25a90bacb4c19d7ddc10fba859453eb1c677e49e7e36571425969",
        "b_raw": "b262d77884305cf74dbe866a52be46ae92e0e5fc527f249dc1fe71e2952e8dc0",
        "f": "976c3b2ae165d7368f47019073c8c68e7bdf6767d018b0447e04f2e34790e7f1",
        "g": "544dc9ceba4073744d31e9901ce1d220b0ef10256f8cf3dc6de018c8ebba476f",
        "f_raw": "36c3aa8cc612131cad4f0ff2d35cd0864c06aba6d4c7ee4689f8a7964a1d3a1a",
        "g_raw": "301837b96649fb3298193017a9adae69db07abb307fb909bf220610e080c3505",
    },
    (12, 5, 2, "default"): {
        "mu": "45b14187391d6407e43836ed5dc84080b151523a9c8b068be8967d68f93c3893",
        "lam": "c73302c356532ce2979a04fd9d4172f65fb864b68e01d95c8f37b22aa0610645",
        "b": "f1950801c6650bc71a490dcaf8bce2fbc40efb2066061d987a4a41b377d150db",
        "b_raw": "c4285d7d2ae1288482a0927bee31d2bdb2edc69eeb68773aaa10a542b75147b0",
        "f": "cee20c91e2d8b088902ef65c69e89ca8c6af9fee60fd7103b49af4356412ea04",
        "g": "52139e4e40309267881f88d00cafb422e5dfe131a3aada41a1678514d0797798",
        "f_raw": "ecf8358193737c5aa9f76ae82029424d467949761d63b69c58127b9fd4705219",
        "g_raw": "20ca65d49d1d80da0b0941099ee3e8b8453c7bbaed9f27236415123b29d6f748",
    },
    (6, 11, 3, "a2-range"): {
        "mu": "4041536887a0f708ebfeafbb497b4f81c88f26a247145faba3eb2b9d0710fa2c",
        "lam": "ce811e3514aba04fe16b531c35c4bf2ed2215bd1f1dd0bf9e573d40f7c52c320",
        "b": "2a6d3bbe6f887631cf01d2d7ded1569801dcdf9f9d917795f9a6ebc9a9dcb1d1",
        "b_raw": "0de582ffa064f910c300e0c42c001e53e7a4fbcb86ee117c79289780a53e8419",
        "f": "191624103a5be24db42d7b0ce938b10d13730733ab958ebad9346b583c0fbcc1",
        "g": "a686132a8605a6c623a2599045803685184f26948f17ea0a0fd53a3b10356345",
        "f_raw": "1d96091059188c2a4100d84b555a1359f27f771027274821ef0c74fc77d15dc1",
        "g_raw": "0837b7bf229888a04f4d1f99ba9affecc1f2571e51b9b37069062a4a10580f17",
    },
}


def _trial_arrays(td):
    return {"mu": td.mu.values, "lam": td.lam.values,
            **{name: getattr(td, name) for name in _TRIAL_ARRAYS[2:]}}


@pytest.mark.parametrize("case", list(_TRIAL_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_trial_data_bytes_are_pinned(case):
    depth, seed, t, roles = case
    cfg = ExperimentConfig.from_dict({"depth": depth, "seed": seed, **_ROLES[roles]})
    got = {name: hashlib.sha256(a.tobytes()).hexdigest()
           for name, a in _trial_arrays(suites.make_trial(cfg, t)).items()}
    assert got == _TRIAL_DIGESTS[case]


def test_trial_functions_do_not_depend_on_read_order():
    # f, g and their raw draws come from one stream in a fixed order, however
    # a check reads them
    cfg = ExperimentConfig(depth=5, seed=3)
    first, second = suites.make_trial(cfg, 2), suites.make_trial(cfg, 2)
    got = {name: getattr(second, name).tobytes() for name in ("g", "g_raw", "f", "f_raw")}
    assert got == {name: getattr(first, name).tobytes() for name in ("f_raw", "f", "g_raw", "g")}
