"""Paraproducts, the dyadic shift, commutators, and the six-term expansion."""

import numpy as np
import pytest

import oracles
from dyadbloom import (
    DyadicGrid,
    DyadicInterval,
    InadmissibleLevelError,
    StepFunction,
    Weight,
    commutator_operator,
    expansion_terms,
    haar_function,
    is_admissible,
    paraproduct_adjoint_operator,
    paraproduct_operator,
    project_admissible,
    remainder_closed_form,
    shift_operator,
)
from dyadbloom.grid import analyze_leaves


def _pair(depth, seed, admissible=True):
    r = np.random.default_rng(seed)
    grid = DyadicGrid(depth)
    b = StepFunction(grid, r.standard_normal(grid.n_leaves))
    f = StepFunction(grid, r.standard_normal(grid.n_leaves))
    if admissible:
        return project_admissible(b), project_admissible(f)
    return b, f


def _l2(values):
    return float(np.sqrt((values**2).mean()))


def test_paraproduct_matches_oracle():
    for seed in range(4):
        b, f = _pair(4, 200 + seed, admissible=False)
        want = oracles.paraproduct_oracle(b.values, f.values, 4)
        got = paraproduct_operator(b).apply(f.values)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_paraproduct_adjoint_matches_oracle():
    for seed in range(4):
        b, f = _pair(4, 210 + seed, admissible=False)
        want = oracles.paraproduct_adjoint_oracle(b.values, f.values, 4)
        got = paraproduct_adjoint_operator(b).apply(f.values)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_paraproduct_output_is_mean_free():
    b, f = _pair(6, 3, admissible=False)
    assert abs(float(paraproduct_operator(b).apply(f.values).mean())) <= 1e-15


def test_adjointness_in_plain_l2():
    # <Pi_b f, g> = <f, Pi*_b g> for every pair, no weights involved
    r = np.random.default_rng(77)
    grid = DyadicGrid(5)
    for _ in range(5):
        b = StepFunction(grid, r.standard_normal(grid.n_leaves))
        f = StepFunction(grid, r.standard_normal(grid.n_leaves))
        g = StepFunction(grid, r.standard_normal(grid.n_leaves))
        pi_b = paraproduct_operator(b)
        lhs = float((pi_b.apply(f.values) * g.values).mean())
        rhs = float((f.values * pi_b.transpose(g.values)).mean())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_product_decomposition_is_an_identity():
    # b g = <b><g> + Pi_b g + Pi_g b + Pi*_b g for arbitrary step functions
    for seed in range(5):
        b, g = _pair(5, 300 + seed, admissible=False)
        lhs = b.values * g.values
        rhs = (
            b.integral() * g.integral()
            + paraproduct_operator(b).apply(g.values)
            + paraproduct_operator(g).apply(b.values)
            + paraproduct_operator(b).transpose(g.values)
        )
        scale = max(1.0, float(np.abs(lhs).max()))
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_shift_matches_spectrum_oracle():
    for seed in range(4):
        _, f = _pair(5, 400 + seed)
        want = oracles.shift_oracle(f.values, 5)
        got = shift_operator(f.grid).apply(f.values)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_shift_of_root_haar_is_quarter_pattern(grid2):
    h = haar_function(grid2, grid2.root)
    np.testing.assert_array_equal(shift_operator(grid2).apply(h.values), [-1.0, 1.0, 1.0, -1.0])


def test_shift_kills_constants(grid4):
    c = StepFunction.constant(grid4, 5.5)
    assert np.all(shift_operator(grid4).apply(c.values) == 0.0)


def test_shift_is_isometry_on_admissible_mean_free():
    for seed in range(5):
        _, f = _pair(6, 500 + seed)
        f0 = f.values - f.integral()
        assert _l2(shift_operator(f.grid).apply(f0)) == pytest.approx(_l2(f0), rel=1e-13)


def test_identities_reject_deepest_level():
    grid = DyadicGrid(3)
    good = haar_function(grid, grid.root)
    bad = haar_function(grid, DyadicInterval(2, 1))
    for identity in (expansion_terms, remainder_closed_form):
        with pytest.raises(InadmissibleLevelError) as exc:
            identity(good, bad)
        assert exc.value.level == 2
        assert exc.value.max_abs > 0


def test_shift_plan_truncates_what_is_admissible_flags():
    # is_admissible says whether the plan's shift drops anything
    grid = DyadicGrid(3)
    shift = shift_operator(grid).apply
    bad = haar_function(grid, DyadicInterval(2, 1))
    assert not is_admissible(bad)
    assert np.all(shift(bad.values) == 0.0)
    good = haar_function(grid, grid.root)
    assert is_admissible(good)
    want = oracles.shift_values_reference(analyze_leaves(good.values, 3)[1], 3)
    np.testing.assert_array_equal(shift(good.values), want)


def test_admissibility_projection():
    b, _ = _pair(5, 9, admissible=False)
    assert not is_admissible(b)
    p = project_admissible(b)
    assert is_admissible(p)
    # idempotent up to resynthesis ulps, and levels <= depth-2 are untouched
    np.testing.assert_allclose(project_admissible(p).values, p.values, rtol=0, atol=1e-14)
    _, cb = analyze_leaves(b.values, 5)
    _, cp = analyze_leaves(p.values, 5)
    for k in range(4):
        np.testing.assert_allclose(cp[k], cb[k], rtol=0, atol=1e-13)
    assert np.abs(cp[4]).max() <= 1e-13


def test_commutator_definition():
    # [b, T]f = b(Tf) - T(bf), checked against the direct composition
    for seed in range(4):
        b, f = _pair(5, 600 + seed)
        shift = shift_operator(b.grid).apply
        direct = b.values * shift(f.values) - shift(b.values * f.values)
        got = commutator_operator(b).apply(f.values)
        np.testing.assert_allclose(got, direct, rtol=0, atol=1e-12)


def test_commutator_worked_example(grid2):
    h = haar_function(grid2, grid2.root)
    want = [1.0, -1.0, 1.0, -1.0]
    np.testing.assert_array_equal(commutator_operator(h).apply(h.values), want)
    np.testing.assert_array_equal(expansion_terms(h, h).commutator, want)


def test_constant_symbol_commutes(grid4):
    _, f = _pair(4, 11)
    # the uncentred commutator b Sh f - Sh(b f) of expansion_terms.
    # Power-of-two constant: both compositions stay exact, commutator is 0.0
    c2 = StepFunction.constant(grid4, 2.0)
    assert np.all(expansion_terms(c2, f).commutator == 0.0)
    # generic constant: the two compositions round in different orders
    c = StepFunction.constant(grid4, 2.5)
    assert np.abs(expansion_terms(c, f).commutator).max() <= 1e-14
    # the plan centres its symbol, so every constant gives exactly 0.0
    assert np.all(commutator_operator(c).apply(f.values) == 0.0)


def test_six_term_expansion_reproduces_commutator():
    for depth in (4, 5, 6):
        for seed in range(3):
            b, f = _pair(depth, 700 + seed)
            terms = expansion_terms(b, f)
            scale = max(1.0, float(np.abs(terms.commutator).max()))
            assert terms.residual() <= 1e-12 * scale


def test_expansion_analyses_b_once_for_its_four_b_terms(monkeypatch):
    # 2 admissibility checks, Sh f, the commutator's stacked shift pass, one
    # Pi_b plan shared by the four b-terms, its 2 transposes, 2 outer
    # shifts, the Pi_{Sh f} and Pi_f plans and Sh(Pi_f b): 12.  One plan per
    # b-term (four, not one) made it 15.
    from dyadbloom import operators

    calls = []

    def counted(values, depth):
        calls.append(depth)
        return analyze_leaves(values, depth)

    b, f = _pair(8, 31)
    monkeypatch.setattr(operators, "analyze_leaves", counted)
    expansion_terms(b, f)
    assert len(calls) == 12


def test_expansion_signs_are_the_unique_working_ones():
    # negating the first four terms breaks the identity by an O(1) amount,
    # so a sign regression cannot hide inside the tolerance
    b, f = _pair(5, 909)
    terms = expansion_terms(b, f)
    scale = max(1.0, float(np.abs(terms.commutator).max()))
    assert terms.sign_flipped_residual() > 0.05 * scale


def test_remainder_closed_form_equals_two_term_difference():
    for seed in range(4):
        b, f = _pair(5, 800 + seed)
        terms = expansion_terms(b, f)
        rem = remainder_closed_form(b, f)
        assert np.abs(rem - terms.remainder()).max() <= 1e-12


def test_remainder_quarter_pattern_oracle():
    # Sigma bhat(I) fhat(I) |I|^{-1} (+1,-1,+1,-1) on the quarters of I
    depth = 4
    b, f = _pair(depth, 77)
    _, cb = analyze_leaves(b.values, depth)
    _, cf = analyze_leaves(f.values, depth)
    n = 1 << depth
    want = np.zeros(n)
    for k in range(depth - 1):
        for j in range(1 << k):
            s = cb[k][j] * cf[k][j] * (1 << k)
            width = n >> (k + 2)
            base = j * (n >> k)
            want[base : base + width] += s
            want[base + width : base + 2 * width] -= s
            want[base + 2 * width : base + 3 * width] += s
            want[base + 3 * width : base + 4 * width] -= s
    got = remainder_closed_form(b, f)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_remainder_energy_identity():
    # lambda-weighted square-function energy of the remainder equals
    # Sigma bhat^2 fhat^2 <lambda>_I / |I|
    r = np.random.default_rng(5150)
    depth = 5
    grid = DyadicGrid(depth)
    lam = Weight(StepFunction(grid, np.exp(r.uniform(-1, 1, grid.n_leaves))))
    b, f = _pair(depth, 81)
    rem = remainder_closed_form(b, f)
    _, cr = analyze_leaves(rem, depth)
    n = grid.n_leaves
    sq = np.zeros(n)
    for k in range(depth):
        sq += np.repeat(cr[k] ** 2 * (1 << k), n >> k)
    measured = float((sq * lam.values).mean())
    _, cb = analyze_leaves(b.values, depth)
    _, cf = analyze_leaves(f.values, depth)
    predicted = sum(
        float((cb[k] ** 2 * cf[k] ** 2 * (1 << k) * lam.averages[k]).sum())
        for k in range(depth - 1)
    )
    assert measured == pytest.approx(predicted, rel=1e-11)


def test_expansion_requires_admissible_inputs():
    b, f = _pair(4, 13, admissible=False)
    with pytest.raises(InadmissibleLevelError):
        expansion_terms(b, f)
    with pytest.raises(InadmissibleLevelError):
        remainder_closed_form(b, f)
