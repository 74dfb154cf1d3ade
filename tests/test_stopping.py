"""Stopping families, packing searches, and corona iteration.

Worked examples are enumerated by hand at depth 2 (six proper subintervals);
structural invariants (disjointness, maximality, the unstopped partition) are
checked against brute-force subtree walks at moderate depth, and the
root-set level scan with every factory against the depth-first per-interval
scan and unstopped walk in oracles.py, root by root.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dyadbloom.errors import GridMismatchError, PackingSearchError
from dyadbloom.grid import ROOT, DyadicInterval, depth_of, haar_function, level_masses
from dyadbloom.bmo import bloom_b2
from dyadbloom.config import ExperimentConfig
from dyadbloom.stopping import (
    Intervals,
    StoppingFamily,
    StoppingRule,
    corona_generations,
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
from dyadbloom.suites import run_suites
from dyadbloom.weights import EnsembleSpec, Weight, generate, rho_weight


def _subtree(root: DyadicInterval, depth: int) -> list[DyadicInterval]:
    out = []
    for k in range(root.level, depth + 1):
        shift = k - root.level
        for j in range(root.position << shift, (root.position + 1) << shift):
            out.append(DyadicInterval(k, j))
    return out


def _path_sum(b: np.ndarray, root: DyadicInterval, iv: DyadicInterval) -> float:
    # sum of coeff(I')^2/|I'| over root >= I' >= iv, leaves carrying none
    depth = depth_of(b)
    total = 0.0
    for k in range(root.level, min(iv.level, depth - 1) + 1):
        j = iv.position >> (iv.level - k)
        total += oracles.coeff(b, depth, k, j) ** 2 * (1 << k)
    return total


def _fires(rule: StoppingRule, root: DyadicInterval, iv: DyadicInterval) -> bool:
    """A rule's answer, anchored at root, at one interval below root."""
    owner = np.zeros(1 << iv.level, dtype=np.intp)
    row = np.broadcast_to(rule.anchor(Intervals.of(root))(iv.level, owner), owner.shape)
    return bool(row[iv.position])


def _members(fam: StoppingFamily) -> tuple[DyadicInterval, ...]:
    m = fam.members
    return tuple(DyadicInterval(int(k), int(j)) for k, j in zip(m.levels, m.positions))


def _unstopped(fam: StoppingFamily) -> list[DyadicInterval]:
    return [DyadicInterval(k, int(j)) for k, m in fam.unstopped.items() for j in np.flatnonzero(m)]


def _family(depth, root, *members) -> StoppingFamily:
    owners = np.zeros(len(members), np.intp)
    return StoppingFamily(depth, Intervals.of(root), Intervals.of(*members), owners, {})


# anchors of rules that never and always stop
NEVER = lambda roots: (lambda k, owner: False)  # noqa: E731
ALWAYS = lambda roots: (lambda k, owner: True)  # noqa: E731


def test_false_predicate_gives_empty_family():
    fam = maximal_stopping_intervals(ROOT, StoppingRule(4, NEVER))
    assert _members(fam) == ()
    assert _unstopped(fam) == sorted(_subtree(ROOT, 4))


def test_constant_weight_never_deviates(unit_weight):
    one = unit_weight(5)
    fam = maximal_stopping_intervals(ROOT, deviation_factory(one, 2.0))
    assert _members(fam) == ()


def test_worked_example_single_member(weight_4411):
    # root average 2.5, threshold 1.2 * 2.5 = 3; of the six proper
    # subintervals only [0,1/2) (average 4) exceeds it, and its two leaves
    # are shadowed by maximality
    lam = weight_4411
    root = ROOT
    rule = StoppingRule(lam.depth, lambda roots: (
        lambda k, owner: lam.averages[k] > 1.2 * oracles.interval_average(lam.values, root)
    ))
    fam = maximal_stopping_intervals(root, rule)
    assert _members(fam) == (DyadicInterval(1, 0),)
    hits = [iv for iv in _subtree(root, 2) if iv != root and _fires(rule, root, iv)]
    assert hits == [DyadicInterval(1, 0), DyadicInterval(2, 0), DyadicInterval(2, 1)]


def test_members_disjoint_maximal_and_satisfying(random_positive):
    w = random_positive(6, seed=31)
    depth = w.depth
    rule = deviation_factory(w, 1.3)
    fam = maximal_stopping_intervals(ROOT, rule)
    members = _members(fam)
    assert members
    for s in members:
        assert _fires(rule, ROOT, s)
        assert s.level >= 1
        # no strict ancestor below the root satisfies the predicate
        k, j = s.level, s.position
        while k > 1:
            k, j = oracles.parent(k, j)
            assert not _fires(rule, ROOT, DyadicInterval(k, j))
    for a, b in zip(members, members[1:]):
        # sorted and disjoint
        assert (oracles.leaf_slice(depth, a.level, a.position).stop
                <= oracles.leaf_slice(depth, b.level, b.position).start)


def test_unstopped_partition_accounts_for_every_interval(random_positive):
    w = random_positive(5, seed=7)
    depth = w.depth
    rule = deviation_factory(w, 1.2)
    fam = maximal_stopping_intervals(ROOT, rule)
    free = _unstopped(fam)
    assert ROOT in free
    covered = len(free) + sum(len(_subtree(s, depth)) for s in _members(fam))
    assert covered == len(_subtree(ROOT, depth))
    for iv in free:
        if iv != ROOT:
            assert not _fires(rule, ROOT, iv)


def test_packing_ratio_empty_family_is_zero(unit_weight):
    fam = maximal_stopping_intervals(ROOT, StoppingRule(4, NEVER))
    assert packing_ratio(fam, unit_weight(4)) == 0.0


def test_packing_ratio_lebesgue_half(unit_weight):
    fam = _family(2, ROOT, DyadicInterval(1, 0))
    assert packing_ratio(fam, unit_weight(2)) == 0.5


def test_packing_ratio_worked_example(weight_4411):
    # (4 * 1/2) / 2.5 = 0.8
    lam = weight_4411
    fam = _family(2, ROOT, DyadicInterval(1, 0))
    assert packing_ratio(fam, lam) == pytest.approx(0.8, abs=1e-15)


def test_deviation_factory_rejects_small_constant(unit_weight):
    w = unit_weight(2)
    for c in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            deviation_factory(w, c)


def test_deviation_factory_stops_on_both_sides(weight_4411):
    lam = weight_4411
    fam = maximal_stopping_intervals(ROOT, deviation_factory(lam, 1.3))
    assert _members(fam) == (DyadicInterval(1, 0), DyadicInterval(1, 1))


def test_minimal_packing_constant_trivial(unit_weight):
    one = unit_weight(3)
    c = minimal_packing_constant(lambda C: deviation_factory(one, C), one)
    assert c == pytest.approx(1.1, rel=1e-12)


def test_minimal_packing_constant_worked_example(weight_4411):
    # exhaustive over the geometric grid: 4 > 2.5*C fails first at C = 1.1^5
    # and the low side 1 < 2.5/C keeps only [1/2,1), packing 0.2
    lam = weight_4411
    c = minimal_packing_constant(lambda C: deviation_factory(lam, C), lam)
    assert c == pytest.approx(1.1**5, rel=1e-12)

    def ratio_at(cand: float) -> float:
        fam = maximal_stopping_intervals(ROOT, deviation_factory(lam, cand))
        return packing_ratio(fam, lam)

    cands = [1.1**k for k in range(1, 12)]
    winners = [cand for cand in cands if ratio_at(cand) <= 0.5]
    assert winners and winners[0] == pytest.approx(c, rel=1e-12)
    assert ratio_at(c) == pytest.approx(0.2, abs=1e-15)


def test_packing_search_error_carries_ratio(unit_weight):
    one = unit_weight(2)
    with pytest.raises(PackingSearchError) as exc:
        minimal_packing_constant(lambda C: StoppingRule(one.depth, ALWAYS), one)
    assert exc.value.min_ratio == pytest.approx(1.0, abs=1e-15)


def test_corona_trivial_generations(unit_weight):
    one = unit_weight(4)
    gens = corona_generations(StoppingRule(one.depth, NEVER))
    assert len(gens) == 1 and _members(gens[0]) == ()
    gens = corona_generations(deviation_factory(one, 1.5))
    assert len(gens) == 1 and _members(gens[0]) == ()


def test_corona_generation_indices_and_reanchoring(weight_4411):
    # generation 1 stops [1/2,1) at C = 1.1^5; re-anchored there the weight
    # is flat, so generation 2 is empty
    lam = weight_4411
    c = 1.1**5
    gens = corona_generations(deviation_factory(lam, c))
    assert len(gens) == 2
    assert _members(gens[0]) == (DyadicInterval(1, 1),)
    assert _members(gens[1]) == ()


def test_corona_geometric_decay_cascade():
    lam = generate(EnsembleSpec(kind="cascade", depth=10, seed=5, delta=0.6))
    cc = minimal_corona_constant(lambda C: deviation_factory(lam, C), lam)
    cp = minimal_packing_constant(lambda C: deviation_factory(lam, C), lam)
    assert cc >= cp * (1 - 1e-12)
    # handing the packing constant in skips that search, same result
    assert minimal_corona_constant(
        lambda C: deviation_factory(lam, C), lam, start=cp
    ) == cc
    gens = corona_generations(deviation_factory(lam, cc))
    total = lam.total_mass
    for g, gen in enumerate(gens, start=1):
        mass = ordered_sum(gen.member_masses(lam))
        assert mass <= 0.5**g * total * (1 + 1e-12)


def test_threshold_factory_lebesgue_packing(random_positive):
    # Chebyshev: disjoint members with <w>_S >= 4 <w>_root pack to <= 1/4
    # in Lebesgue measure
    for seed in (3, 4, 5):
        w = random_positive(6, seed=seed)
        fam = maximal_stopping_intervals(ROOT, threshold_factory(w, 4.0))
        leb = sum(oracles.interval_length(s) for s in _members(fam))
        assert leb <= 0.25 + 1e-15
        for s in _members(fam):
            assert oracles.interval_average(w.values, s) >= 4.0 * w.total_mass


def test_three_condition_packing_and_unstopped_path_sums(random_positive):
    rng = np.random.default_rng(42)
    mu = random_positive(5, seed=50)
    lam = random_positive(5, seed=51)
    depth = mu.depth
    b = rng.standard_normal(1 << depth)
    mu_inv = mu.inverse
    rho = rho_weight(mu, lam)
    fam = maximal_stopping_intervals(ROOT, three_condition_factory(mu, rho, b, 2.0, 1.0))
    members = _members(fam)
    a_mu = mu_inv.total_mass
    a_rho = rho.total_mass
    # conditions (1) and (2) pack to <= 1/C = 1/2 definitionally
    over_mu = [oracles.interval_average(mu_inv.values, s) > 2.0 * a_mu for s in members]
    over_rho = [oracles.interval_average(rho.values, s) > 2.0 * a_rho for s in members]
    leb1 = sum(oracles.interval_length(s) for s, o in zip(members, over_mu) if o)
    leb2 = sum(oracles.interval_length(s) for s, o in zip(members, over_rho) if o)
    assert leb1 <= 0.5 + 1e-15
    assert leb2 <= 0.5 + 1e-15
    # every member fires at least one condition; every unstopped interval
    # fails all three, so its root-to-I path sum stays under the threshold
    thr = a_rho**2
    for s, o_mu, o_rho in zip(members, over_mu, over_rho):
        assert o_mu or o_rho or _path_sum(b, ROOT, s) > thr
    for iv in _unstopped(fam):
        if iv != ROOT:
            assert _path_sum(b, ROOT, iv) <= thr * (1 + 1e-12)


def test_unstopped_coefficient_sum_bound(random_positive):
    # deviation-stopped collection: the unstopped coefficient mass is
    # controlled by bloom_b2^2 |I0| / (<mu^{-1}> <lambda>) times a power of
    # the searched constant
    rng = np.random.default_rng(77)
    mu = random_positive(6, seed=60)
    lam = random_positive(6, seed=61)
    depth = mu.depth
    b = rng.standard_normal(1 << depth)
    mu_inv = mu.inverse
    b2 = bloom_b2(b, mu, lam)
    c = minimal_packing_constant(lambda C: deviation_factory([mu_inv, lam], C), mu_inv)
    fam = maximal_stopping_intervals(ROOT, deviation_factory([mu_inv, lam], c))
    coeff_sum = sum(
        oracles.coeff(b, 6, iv.level, iv.position) ** 2
        for iv in _unstopped(fam)
        if iv.level < depth
    )
    base = b2**2 / (mu_inv.total_mass * lam.total_mass)
    assert coeff_sum <= c**3 * base * (1 + 1e-9)


def test_square_sum_factory_worked_example(unit_weight):
    one = unit_weight(2)
    b = haar_function(2, DyadicInterval(0, 0))
    # path sum through the root is exactly 1 everywhere below it
    for C, expect in ((0.5, 2), (1.0, 2), (1.5, 0)):
        fam = maximal_stopping_intervals(ROOT, square_sum_factories(b, one, 1.0)(C))
        assert fam.members.levels.size == expect
        if expect:
            assert _members(fam) == (DyadicInterval(1, 0), DyadicInterval(1, 1))


def test_minimal_corona_constant_search_failure(unit_weight):
    one = unit_weight(2)
    with pytest.raises(PackingSearchError):
        minimal_corona_constant(lambda C: StoppingRule(one.depth, ALWAYS), one)


def test_rules_take_their_depth_from_their_arrays(weight_4411, unit_weight):
    lam, one = weight_4411, unit_weight(2)
    b = haar_function(2, ROOT)
    rules = (
        deviation_factory([lam, one], 1.5),
        threshold_factory(lam),
        three_condition_factory(lam, rho_weight(lam, one), b, 2.0, 1.0),
        square_sum_factories(b, one, 1.0)(1.0),
    )
    assert [rule.depth for rule in rules] == [2, 2, 2, 2]
    # a root below the rule's grid has no intervals to scan
    with pytest.raises(GridMismatchError, match="level 3"):
        maximal_stopping_intervals(DyadicInterval(3, 0), rules[0])


def test_member_mass_matches_oracle(weight_4411):
    fam = _family(2, ROOT, DyadicInterval(2, 0), DyadicInterval(1, 1))
    # masses 4/4 and (1+1)/4
    assert fam.member_masses(weight_4411)[0] == pytest.approx(1.5, abs=1e-15)


FACTORY_KINDS = ("deviation", "threshold", "three-condition", "square-sum")


@settings(max_examples=100, deadline=None)
@given(depth=st.integers(1, 10), data=st.data())
def test_level_mask_scan_matches_depth_first_oracle(depth, data):
    # each example scans from the top root, a drawn root, and roots at
    # levels D-1 and D, where the scan has one level or none to walk
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    level = data.draw(st.integers(0, depth), label="root level")
    position = data.draw(st.integers(0, (1 << level) - 1), label="root position")
    kind = data.draw(st.sampled_from(FACTORY_KINDS), label="factory")
    spread = data.draw(st.floats(0.1, 3.0), label="log spread")
    rng = np.random.default_rng(seed)
    mu, lam = (Weight(np.exp(rng.uniform(-spread, spread, 1 << depth))) for _ in range(2))
    b = rng.standard_normal(1 << depth)
    if kind == "deviation":
        ws = data.draw(st.sampled_from([[lam], [mu.inverse, lam]]), label="weights")
        C = data.draw(st.floats(1.01, 4.0), label="C")
        rule = deviation_factory(ws, C)
        oracle = lambda r: oracles.deviation_predicate(  # noqa: E731
            [w.values for w in ws], C, depth, r
        )
    elif kind == "threshold":
        factor = data.draw(st.floats(0.5, 4.0), label="factor")
        rule = threshold_factory(lam, factor)
        oracle = lambda r: oracles.threshold_predicate(  # noqa: E731
            lam.values, factor, depth, r
        )
    elif kind == "three-condition":
        C = data.draw(st.floats(0.5, 4.0), label="C")
        C_b = data.draw(st.floats(0.1, 3.0), label="C_b")
        rule = three_condition_factory(mu, rho_weight(mu, lam), b, C, C_b)
        oracle = lambda r: oracles.three_condition_predicate(  # noqa: E731
            mu.values, lam.values, b, C, C_b, depth, r
        )
    else:
        C = data.draw(st.floats(0.05, 10.0), label="C")
        b2 = data.draw(st.floats(0.1, 3.0), label="b2 value")
        rho = rho_weight(mu, lam)
        rule = square_sum_factories(b, rho, b2)(C)
        oracle = lambda r: oracles.square_sum_predicate(  # noqa: E731
            b, rho.values, C, b2, depth, r
        )
    last = int(rng.integers(1 << depth))
    roots = [(0, 0), (level, position), (depth - 1, last >> 1), (depth, last)]
    for r in roots:
        root = DyadicInterval(*r)
        fam = maximal_stopping_intervals(root, rule)
        got = tuple((s.level, s.position) for s in _members(fam))
        assert got == oracles.stopping_scan_oracle(depth, r, oracle(r))


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(2, 10), data=st.data())
def test_corona_scan_matches_oracle_root_by_root(depth, data):
    # every generation of the root-set scan against the depth-first oracle
    # run under each root in turn; the unstopped set against the oracle walk;
    # packing ratios and generation masses against Python's sum over the same
    # masses in left-endpoint order, bit for bit
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    kind = data.draw(st.sampled_from(["cascade", "two-value"]), label="weights")
    # two-value leaves 1 and 4 keep every average (rho's too) exact, so the
    # oracle's leaf sums and the package's pyramids agree on ties
    mu, lam = (
        generate(EnsembleSpec(kind=kind, depth=depth, seed=seed + i, delta=0.6))
        for i in range(2)
    )
    b = np.random.default_rng(seed).standard_normal(1 << depth)
    factory_kind = data.draw(
        st.sampled_from(["deviation", "deviation2", "threshold", "three-condition",
                         "square-sum"]),
        label="factory",
    )
    if factory_kind in ("deviation", "deviation2"):
        ws = [lam] if factory_kind == "deviation" else [mu.inverse, lam]
        C = data.draw(st.floats(1.01, 3.0), label="C")
        rule = deviation_factory(ws, C)
        oracle = lambda r: oracles.deviation_predicate(  # noqa: E731
            [w.values for w in ws], C, depth, r
        )
    elif factory_kind == "threshold":
        factor = data.draw(st.floats(1.01, 4.0), label="factor")
        rule = threshold_factory(lam, factor)
        oracle = lambda r: oracles.threshold_predicate(  # noqa: E731
            lam.values, factor, depth, r
        )
    elif factory_kind == "three-condition":
        C = data.draw(st.floats(1.01, 4.0), label="C")
        C_b = data.draw(st.floats(0.1, 3.0), label="C_b")
        rule = three_condition_factory(mu, rho_weight(mu, lam), b, C, C_b)
        oracle = lambda r: oracles.three_condition_predicate(  # noqa: E731
            mu.values, lam.values, b, C, C_b, depth, r
        )
    else:
        C = data.draw(st.floats(0.05, 10.0), label="C")
        rho = rho_weight(mu, lam)
        rule = square_sum_factories(b, rho, 1.0)(C)
        oracle = lambda r: oracles.square_sum_predicate(  # noqa: E731
            b, rho.values, C, 1.0, depth, r
        )
    n_gens = data.draw(st.integers(1, 3), label="generations")
    gens = corona_generations(rule)[:n_gens]
    roots = [(0, 0)]
    for g, gen in enumerate(gens, start=1):
        assert list(zip(gen.roots.levels, gen.roots.positions)) == roots
        per_root = [oracles.stopping_scan_oracle(depth, r, oracle(r)) for r in roots]
        want = [(m, i) for i, ms in enumerate(per_root) for m in ms]
        got = list(zip(zip(gen.members.levels, gen.members.positions), gen.owners))
        assert got == want
        got_free = sorted((iv.level, iv.position) for iv in _unstopped(gen))
        want_free = sorted(
            iv for r, ms in zip(roots, per_root)
            for iv in oracles.unstopped_oracle(depth, r, ms)
        )
        assert got_free == want_free
        masses = level_masses(lam.values)
        sums = [sum(float(masses[k][j]) for k, j in ms) for ms in per_root]
        ratios = [s / float(masses[k][j]) for s, (k, j) in zip(sums, roots)]
        assert gen.member_masses(lam).tolist() == sums
        assert packing_ratio(gen, lam) == max(ratios)
        assert ordered_sum(gen.member_masses(lam)) == sum(sums)
        roots = [m for ms in per_root for m in ms]
        if not roots:
            assert g == len(gens)
            break
    else:
        assert len(gens) == n_gens


def test_stopping_suite_at_depth_16_scans_once_per_generation(monkeypatch):
    # one trial above the configured cap: the suite passes, and every corona
    # (one per constant tried, plus the suite's own) costs one root-set scan
    # per generation, not one per root
    import dyadbloom.config as config
    import dyadbloom.stopping as stopping
    import dyadbloom.suites as suites

    monkeypatch.setattr(config, "MAX_DEPTH", 16)
    scans = []
    coronas = []
    scan, corona = stopping.maximal_stopping_intervals, stopping.corona_generations

    def counted_scan(*args, **kwargs):
        scans.append(None)
        return scan(*args, **kwargs)

    def counted_corona(*args, **kwargs):
        before = len(scans)
        gens = corona(*args, **kwargs)
        coronas.append((len(scans) - before, len(gens)))
        return gens

    monkeypatch.setattr(stopping, "maximal_stopping_intervals", counted_scan)
    monkeypatch.setattr(stopping, "corona_generations", counted_corona)
    monkeypatch.setattr(suites, "corona_generations", counted_corona)
    (res,) = run_suites(ExperimentConfig(depth=16, trials=1, suites=("stopping",)))
    assert res.passed
    assert len(coronas) >= 2
    assert all(n == g for n, g in coronas), coronas


def test_stopping_trial_analyses_b_once_per_square_sum_search(monkeypatch):
    # one default D=8 stopping trial: make_trial projects b, f and g (3),
    # the trial's bmo_report (all six functionals, bloom_b2 among them), the
    # unstopped coefficient sum and the three-condition factory analyse b
    # once each (3), and the square-sum search once (1), not once per
    # candidate constant it tries
    import sys

    from dyadbloom import grid as grid_module

    calls = []
    original = grid_module.analyze_leaves

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dyadbloom") and getattr(module, "analyze_leaves", None) is original:
            monkeypatch.setattr(module, "analyze_leaves", counting)
    (res,) = run_suites(ExperimentConfig(trials=1, suites=("stopping",)))
    assert res.measured["square_sum_constant"]["n"] == 1
    assert len(calls) == 7
