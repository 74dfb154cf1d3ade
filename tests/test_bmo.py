"""BMO-type functionals against nested-loop oracles and hand examples."""

import math

import numpy as np
import pytest

import ensembles
import oracles
from conftest import count_calls
from dyadbloom import (
    ROOT,
    BmoReport,
    DyadicInterval,
    GridMismatchError,
    Weight,
    a2_characteristic,
    bmo,
    haar_function,
)
from dyadbloom.grid import local_integrals


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
        rep = BmoReport(haar_function(3, iv), one, one)
        want = math.sqrt(2.0**iv.level)
        assert rep.bloom_b2 == pytest.approx(want, rel=1e-14)
        assert rep.bloom_b2_dual == pytest.approx(want, rel=1e-14)
        assert rep.bloom_b2_l2form == pytest.approx(want, rel=1e-14)


def test_unit_weight_functionals_of_root_haar(unit_weight):
    one = unit_weight(2)
    rep = BmoReport(haar_function(2, DyadicInterval(0, 0)), one, one)
    assert rep.bmo_rho == pytest.approx(1.0, rel=1e-14)
    assert rep.bmo_rho_l1 == pytest.approx(1.0, rel=1e-14)
    assert rep.neccon == pytest.approx(1.0, rel=1e-14)


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
    assert BmoReport(b, mu, lam).bloom_b2 == pytest.approx(want, rel=1e-12)


@over_ensembles
def test_bloom_b2_dual_matches_oracle(depth, kind):
    b, mu, lam = _ensemble_triple(depth, kind, 1500)
    want = oracles.bloom_dual_oracle(b, mu.values, lam.values, depth)
    assert BmoReport(b, mu, lam).bloom_b2_dual == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("depth", range(1, 7))
def test_bloom_l2form_matches_oracle(depth):
    for seed in range(3):
        mu, lam, b = _triple(depth, 70 + seed)
        want = oracles.bloom_l2form_oracle(b, mu.values, lam.values, depth)
        assert BmoReport(b, mu, lam).bloom_b2_l2form == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("depth", range(1, 11))
def test_l2form_level_arrays_equal_per_interval_route(depth):
    # the level-array scan must give the per-interval synthesis's floats
    # exactly, value and achieving interval, including where whole subtrees
    # of b vanish and the weights span 16 decades
    for i, ensemble in enumerate(ensembles.KINDS):
        b, mu, lam = ensembles.triple(depth, ensemble, 1300 + 10 * depth + i)
        rep = BmoReport(b, mu, lam)
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
        rep = BmoReport(b, mu, one)
        assert rep.bloom_b2 == pytest.approx(rep.bloom_b2_l2form, rel=1e-10)


def test_bloom_routes_differ_for_generic_lambda():
    # the off-diagonal int h_I h_J lambda terms are real: document that the
    # two routes are distinct functionals, not two codings of one number
    # (suprema attained at a single-interval K still coincide, so the seed
    # below is one whose argmax carries several scales)
    mu, lam, b = _triple(5, 83)
    rep = BmoReport(b, mu, lam)
    a, c = rep.bloom_b2, rep.bloom_b2_l2form
    assert abs(a - c) / a > 1e-3


def test_report_rho_is_sqrt_ratio(random_positive):
    mu = random_positive(3, seed=1)
    lam = random_positive(3, seed=2)
    rho = BmoReport(np.zeros(8), mu, lam).rho
    np.testing.assert_allclose(rho.values, np.sqrt(mu.values / lam.values), rtol=1e-15)
    assert rho.depth == 3
    with pytest.raises(GridMismatchError):
        BmoReport(np.zeros(8), mu, random_positive(4, seed=2)).rho


@over_ensembles
def test_bmo_rho_matches_oracle(depth, kind):
    b, mu, lam = _ensemble_triple(depth, kind, 1600)
    rho = np.sqrt(mu.values / lam.values)
    want = oracles.bmo_rho_oracle(b, rho, depth)
    assert BmoReport(b, mu, lam).bmo_rho == pytest.approx(want, rel=1e-12)


@over_ensembles
def test_bmo_rho_l1_matches_oracle(depth, kind):
    b, mu, lam = _ensemble_triple(depth, kind, 1700)
    rho = np.sqrt(mu.values / lam.values)
    want = oracles.bmo_rho_l1_oracle(b, rho, depth)
    assert BmoReport(b, mu, lam).bmo_rho_l1 == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("weighted", [False, True], ids=["w=1", "w=lambda"])
@pytest.mark.parametrize("depth", range(2, 9))
def test_oscillation_masses_match_per_interval_oracle(depth, weighted):
    # the localized pass over b's own coefficients behind bmo_rho (w = 1) and
    # neccon and the neccon-chain suite (the report's lam_oscillation),
    # interval by interval
    mu, lam, b = _triple(depth, 1900 + depth)
    rep = BmoReport(b, mu, lam)
    osc = rep.lam_oscillation if weighted else local_integrals(rep.coeffs, lambda k, v: v**2)
    w = lam.values if weighted else None
    assert osc.shape == (1 << depth,) and osc[0] == 0.0
    for k, j in oracles.all_intervals(depth, depth - 1):
        want = oracles.oscillation_oracle(b, w, depth, k, j)
        assert osc[oracles.heap_index(k, j)] == pytest.approx(want, rel=1e-12), (k, j)


def test_sup_is_the_level_major_first_maximum_and_propagates_nan():
    # a heap over levels 0..2: the argmax is the first maximum in level
    # order; a NaN anywhere is the result, at the first NaN, so a NaN
    # functional reaches the finiteness checks; and nothing above -inf
    # leaves the root
    heap = np.array([0.0, 1.0, 3.0, 2.0, 0.5, 3.0, 3.0, 0.0])
    assert bmo._sup(heap) == (3.0, DyadicInterval(1, 0))
    heap[3] = heap[6] = np.nan
    value, argmax = bmo._sup(heap)
    assert math.isnan(value) and argmax == DyadicInterval(1, 1)
    assert math.isnan(bmo._sqrt_sup(bmo._sup(heap)).value)
    heap[1:] = -np.inf
    assert bmo._sup(heap) == (-math.inf, ROOT)


@over_ensembles
def test_neccon_matches_oracle(depth, kind):
    b, mu, lam = _ensemble_triple(depth, kind, 1800)
    want = oracles.neccon_oracle(b, mu.values, lam.values, depth)
    assert BmoReport(b, mu, lam).neccon == pytest.approx(want, rel=1e-12)


def test_zero_symbol_gives_zero_everything():
    mu, lam, _ = _triple(4, 0)
    rep = BmoReport(np.zeros(16), mu, lam)
    assert [getattr(rep, name) for name in BmoReport.NAMES] == [0.0] * 6


def test_constant_symbol_gives_zero_everything():
    # averages of a constant reproduce it exactly, so subtract-then-square
    # oscillations are bitwise zero, not small
    mu, lam, _ = _triple(3, 1)
    rep = BmoReport(np.full(8, 4.25), mu, lam)
    assert (rep.bloom_b2, rep.bmo_rho, rep.neccon) == (0.0, 0.0, 0.0)


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
    rep = BmoReport(b, mu, lam)
    d = rep.to_dict()
    assert list(d) == [*BmoReport.NAMES, "argmax"]
    assert d["argmax"] == {name: {"level": iv.level, "position": iv.position}
                           for name, iv in rep.argmax.items()}
    # the recorded argmax interval actually achieves the supremum
    arg = rep.argmax["bmo_rho"]
    rho = rep.rho
    avg = oracles.interval_average(b, arg)
    sl = oracles.leaf_slice(4, arg.level, arg.position)
    osc = float(((b[sl] - avg) ** 2).sum()) / 16
    achieved = math.sqrt(osc / oracles.mass_on(rho.values, 4, arg.level, arg.position))
    assert achieved == pytest.approx(rep.bmo_rho, rel=1e-12)


def test_functional_scaling_is_linear_in_symbol():
    mu, lam, b = _triple(4, 13)
    rep, rep3 = BmoReport(b, mu, lam), BmoReport(3.0 * b, mu, lam)
    for name in BmoReport.NAMES:
        assert getattr(rep3, name) == pytest.approx(3.0 * getattr(rep, name), rel=1e-12)


def test_each_functional_is_scanned_once_when_first_read(monkeypatch):
    # the two Bloom functionals are the roots of their Carleson sequences'
    # constants: one subtree-sum pass each
    mu, lam, b = _triple(4, 17)
    scans = count_calls(monkeypatch, bmo, "_subtree_sums")
    others = [count_calls(monkeypatch, bmo, name) for name in (
        "_bloom_l2form_scan", "_bmo_rho_scan", "_bmo_rho_l1_scan", "_neccon_scan")]
    rep = BmoReport(b, mu, lam)
    assert len(scans) == 0
    first = rep.bloom_b2
    assert rep.bloom_b2 == first
    assert len(scans) == 1 and not any(others)
    # argmax and to_dict read the rest, once each, and keep the first read
    rep.to_dict()
    rep.argmax
    assert len(scans) == 2 and [len(c) for c in others] == [1, 1, 1, 1]
    assert rep.bloom_b2 == first
