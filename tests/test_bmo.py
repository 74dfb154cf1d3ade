"""BMO-type functionals against nested-loop oracles and hand examples."""

import math

import numpy as np
import pytest

import ensembles
import oracles
from dyadbloom import (
    DyadicInterval,
    Weight,
    a2_characteristic,
    bloom_b2,
    bloom_b2_dual,
    bloom_b2_l2form,
    bmo,
    bmo_report,
    bmo_rho,
    bmo_rho_l1,
    haar_function,
    neccon_functional,
    rho_weight,
)


def _triple(depth, seed):
    r = np.random.default_rng(seed)
    mu = Weight(np.exp(r.uniform(-1.0, 1.0, 1 << depth)))
    lam = Weight(np.exp(r.uniform(-1.0, 1.0, 1 << depth)))
    b = r.standard_normal(1 << depth)
    return mu, lam, b


def test_bloom_b2_of_haar_function_is_inverse_root_length(unit_weight):
    # mu = lambda = 1: only bhat(J) = 1 survives, K = J gives |J|^{-1/2}
    one = unit_weight(3)
    for iv in (DyadicInterval(0, 0), DyadicInterval(1, 0), DyadicInterval(2, 3)):
        b = haar_function(3, iv)
        want = math.sqrt(2.0**iv.level)
        assert bloom_b2(b, one, one) == pytest.approx(want, rel=1e-14)
        assert bloom_b2_dual(b, one, one) == pytest.approx(want, rel=1e-14)
        assert bloom_b2_l2form(b, one, one) == pytest.approx(want, rel=1e-14)


def test_unit_weight_functionals_of_root_haar(unit_weight):
    one = unit_weight(2)
    b = haar_function(2, DyadicInterval(0, 0))
    rho = rho_weight(one, one)
    assert bmo_rho(b, rho) == pytest.approx(1.0, rel=1e-14)
    assert bmo_rho_l1(b, rho) == pytest.approx(1.0, rel=1e-14)
    assert neccon_functional(b, one, one) == pytest.approx(1.0, rel=1e-14)


# every depth up to 6 and every ensemble, the extreme one with leaf values
# across 1e-8..1e8 and whole subtrees of b without a coefficient
over_ensembles = pytest.mark.parametrize(
    "depth, kind", [(d, k) for d in range(1, 7) for k in ensembles.KINDS]
)


def _ensemble_triple(depth, kind, base):
    return ensembles.triple(depth, kind, base + 10 * depth + ensembles.KINDS.index(kind))


@over_ensembles
def test_bloom_b2_matches_oracle(depth, kind):
    b, mu, lam = _ensemble_triple(depth, kind, 1400)
    want = oracles.bloom_oracle(b, mu.values, lam.values, depth)
    assert bloom_b2(b, mu, lam) == pytest.approx(want, rel=1e-12)


@over_ensembles
def test_bloom_b2_dual_matches_oracle(depth, kind):
    b, mu, lam = _ensemble_triple(depth, kind, 1500)
    want = oracles.bloom_dual_oracle(b, mu.values, lam.values, depth)
    assert bloom_b2_dual(b, mu, lam) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("depth", range(1, 7))
def test_bloom_l2form_matches_oracle(depth):
    for seed in range(3):
        mu, lam, b = _triple(depth, 70 + seed)
        want = oracles.bloom_l2form_oracle(b, mu.values, lam.values, depth)
        assert bloom_b2_l2form(b, mu, lam) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("depth", range(1, 11))
def test_l2form_level_arrays_equal_per_interval_route(depth):
    # the level-array scan must give the per-interval synthesis's floats
    # exactly, value and achieving interval, including where whole subtrees
    # of b vanish and the weights span 16 decades
    for i, ensemble in enumerate(ensembles.KINDS):
        b, mu, lam = ensembles.triple(depth, ensemble, 1300 + 10 * depth + i)
        rep = bmo_report(b, mu, lam)
        where = rep.argmax["bloom_b2_l2form"]
        want = oracles.bloom_l2form_scan_reference(b, mu.values, lam.values, depth)
        assert rep.bloom_b2_l2form == want[0]
        assert (where.level, where.position) == want[1]


def test_bloom_routes_agree_for_constant_lambda():
    # with lambda constant the Haar system is L^2(lambda)-orthogonal, so the
    # coefficient route and the synthesis route coincide by Parseval; for
    # general lambda they differ and only their ratio is tracked
    one = Weight(np.ones(32))
    for seed in range(4):
        mu, _, b = _triple(5, 80 + seed)
        a = bloom_b2(b, mu, one)
        c = bloom_b2_l2form(b, mu, one)
        assert a == pytest.approx(c, rel=1e-10)


def test_bloom_routes_differ_for_generic_lambda():
    # the off-diagonal int h_I h_J lambda terms are real: document that the
    # two routes are distinct functionals, not two codings of one number
    # (suprema attained at a single-interval K still coincide, so the seed
    # below is one whose argmax carries several scales)
    mu, lam, b = _triple(5, 83)
    a = bloom_b2(b, mu, lam)
    c = bloom_b2_l2form(b, mu, lam)
    assert abs(a - c) / a > 1e-3


@over_ensembles
def test_bmo_rho_matches_oracle(depth, kind):
    b, mu, lam = _ensemble_triple(depth, kind, 1600)
    rho = rho_weight(mu, lam)
    want = oracles.bmo_rho_oracle(b, rho.values, depth)
    assert bmo_rho(b, rho) == pytest.approx(want, rel=1e-12)


@over_ensembles
def test_bmo_rho_l1_matches_oracle(depth, kind):
    b, mu, lam = _ensemble_triple(depth, kind, 1700)
    rho = rho_weight(mu, lam)
    want = oracles.bmo_rho_l1_oracle(b, rho.values, depth)
    assert bmo_rho_l1(b, rho) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("weighted", [False, True], ids=["w=1", "w=lambda"])
@pytest.mark.parametrize("depth", range(2, 9))
def test_oscillation_masses_match_per_interval_oracle(depth, weighted):
    # the one oscillation kernel behind bmo_rho, neccon_functional and the
    # neccon-chain suite, interval by interval
    mu, lam, b = _triple(depth, 1900 + depth)
    osc = bmo._oscillation_masses(b, lam if weighted else None)
    w = lam.values if weighted else None
    assert [level.shape for level in osc] == [(1 << k,) for k in range(depth)]
    for k, j in oracles.all_intervals(depth, depth - 1):
        want = oracles.oscillation_oracle(b, w, depth, k, j)
        assert osc[k][j] == pytest.approx(want, rel=1e-12), (k, j)


@over_ensembles
def test_neccon_matches_oracle(depth, kind):
    b, mu, lam = _ensemble_triple(depth, kind, 1800)
    want = oracles.neccon_oracle(b, mu.values, lam.values, depth)
    assert neccon_functional(b, mu, lam) == pytest.approx(want, rel=1e-12)


def test_zero_symbol_gives_zero_everything():
    mu, lam, _ = _triple(4, 0)
    zero = np.zeros(16)
    rho = rho_weight(mu, lam)
    assert bloom_b2(zero, mu, lam) == 0.0
    assert bloom_b2_dual(zero, mu, lam) == 0.0
    assert bloom_b2_l2form(zero, mu, lam) == 0.0
    assert bmo_rho(zero, rho) == 0.0
    assert bmo_rho_l1(zero, rho) == 0.0
    assert neccon_functional(zero, mu, lam) == 0.0


def test_constant_symbol_gives_zero_everything():
    # averages of a constant reproduce it exactly, so subtract-then-square
    # oscillations are bitwise zero, not small
    mu, lam, _ = _triple(3, 1)
    const = np.full(8, 4.25)
    rho = rho_weight(mu, lam)
    assert bloom_b2(const, mu, lam) == 0.0
    assert bmo_rho(const, rho) == 0.0
    assert neccon_functional(const, mu, lam) == 0.0


def test_a2_sandwich_every_interval():
    # 1 <= <w>_I <w^{-1}>_I <= [w]_{A2}: lower half is Cauchy-Schwarz, upper
    # half is the definition of the sup
    mu, lam, _ = _triple(5, 5)
    for w in (mu, lam):
        a2 = a2_characteristic(w)
        for k, j in oracles.all_intervals(5):
            prod = oracles.average_on(w.values, 5, k, j) * oracles.average_on(
                1.0 / w.values, 5, k, j
            )
            assert prod >= 1.0 - 1e-12
            assert prod <= a2 + 1e-12


def test_bmo_report_argmax_is_consistent():
    mu, lam, b = _triple(4, 7)
    rep = bmo_report(b, mu, lam)
    assert rep.bloom_b2 == bloom_b2(b, mu, lam)
    assert rep.bloom_b2_dual == bloom_b2_dual(b, mu, lam)
    assert rep.bmo_rho == bmo_rho(b, rho_weight(mu, lam))
    assert rep.neccon == neccon_functional(b, mu, lam)
    d = rep.to_dict()
    for key in ("bloom_b2", "bloom_b2_dual", "bloom_b2_l2form", "bmo_rho", "bmo_rho_l1", "neccon"):
        assert key in d
    # the recorded argmax interval actually achieves the supremum
    arg = rep.argmax["bmo_rho"]
    rho = rho_weight(mu, lam)
    avg = oracles.interval_average(b, arg)
    sl = oracles.leaf_slice(4, arg.level, arg.position)
    osc = float(((b[sl] - avg) ** 2).sum()) / 16
    achieved = math.sqrt(osc / oracles.mass_on(rho.values, 4, arg.level, arg.position))
    assert achieved == pytest.approx(rep.bmo_rho, rel=1e-12)


def test_functional_scaling_is_linear_in_symbol():
    mu, lam, b = _triple(4, 13)
    rho = rho_weight(mu, lam)
    for func in (
        lambda s: bloom_b2(s, mu, lam),
        lambda s: bloom_b2_dual(s, mu, lam),
        lambda s: bmo_rho(s, rho),
        lambda s: bmo_rho_l1(s, rho),
        lambda s: neccon_functional(s, mu, lam),
    ):
        b3 = 3.0 * b
        assert func(b3) == pytest.approx(3.0 * func(b), rel=1e-12)
