"""Grid, step functions, and the Haar transform against explicit oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dyadbloom import (
    DyadicGrid,
    DyadicInterval,
    GridMismatchError,
    StepFunction,
    haar_function,
)
from dyadbloom.grid import (
    accumulate_levels,
    analyze_leaves,
    level_masses,
    square_layers,
    synthesize_leaves,
)
from dyadbloom.operators import (
    expansion_terms,
    paraproduct_operator,
    project_admissible,
    remainder_closed_form,
    shift_operator,
)


def test_interval_geometry():
    root = DyadicInterval(0, 0)
    assert root.left == DyadicInterval(1, 0)
    assert root.right == DyadicInterval(1, 1)
    iv = DyadicInterval(3, 5)
    assert DyadicGrid(3).leaf_slice(iv) == slice(5, 6)
    assert DyadicGrid(4).leaf_slice(iv.left) == slice(10, 11)
    assert DyadicGrid(4).leaf_slice(iv.right) == slice(11, 12)


def test_interval_validation():
    with pytest.raises(ValueError):
        DyadicInterval(-1, 0)
    with pytest.raises(ValueError):
        DyadicInterval(2, 4)


def test_interval_ordering_is_level_major():
    ivs = [DyadicInterval(2, 3), DyadicInterval(1, 0), DyadicInterval(2, 0)]
    assert sorted(ivs) == [
        DyadicInterval(1, 0),
        DyadicInterval(2, 0),
        DyadicInterval(2, 3),
    ]


def test_grid_enumeration(grid4):
    assert grid4.n_leaves == 16
    assert grid4.leaf_width == 1 / 16
    assert grid4.root == DyadicInterval(0, 0)
    # leaf_slice agrees with the arithmetic one
    for k, j in oracles.all_intervals(4):
        assert grid4.leaf_slice(DyadicInterval(k, j)) == oracles.leaf_slice(4, k, j)


def test_grid_depth_bounds():
    with pytest.raises(ValueError):
        DyadicGrid(0)
    with pytest.raises(ValueError):
        DyadicGrid(25)


def test_step_function_integral_and_interval_average(grid2):
    f = StepFunction(grid2, np.array([1.0, 2.0, 3.0, 4.0]))
    assert f.integral() == 2.5
    assert oracles.interval_average(f, DyadicInterval(1, 1)) == 3.5


def test_step_function_rejects_other_grid():
    b4 = StepFunction(DyadicGrid(4), np.ones(16))
    b5 = StepFunction(DyadicGrid(5), np.ones(32))
    with pytest.raises(GridMismatchError):
        paraproduct_operator([b4, b5])
    with pytest.raises(GridMismatchError):
        expansion_terms(b4, b5)


def test_step_function_rejects_nonfinite(grid2):
    with pytest.raises(ValueError):
        StepFunction(grid2, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        StepFunction(grid2, np.array([1.0, np.inf, 0.0, 0.0]))


def test_step_function_values_read_only(grid2):
    f = StepFunction.constant(grid2, 0.0)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_haar_function_matches_oracle():
    for depth in (2, 3, 4):
        grid = DyadicGrid(depth)
        for k, j in oracles.all_intervals(depth, depth - 1):
            got = haar_function(grid, DyadicInterval(k, j)).values
            np.testing.assert_array_equal(got, oracles.haar_leaves(depth, k, j))


def test_analysis_matches_dot_product_oracle(rng):
    depth = 4
    grid = DyadicGrid(depth)
    f = StepFunction(grid, rng.standard_normal(grid.n_leaves))
    mean, coeffs = analyze_leaves(f.values, depth)
    assert mean == pytest.approx(oracles.integral(f.values), abs=1e-15)
    for k, j in oracles.all_intervals(depth, depth - 1):
        want = oracles.coeff(f.values, depth, k, j)
        assert coeffs[k][j] == pytest.approx(want, abs=1e-13)


def test_synthesis_matches_superposition_oracle(rng):
    depth = 3
    grid = DyadicGrid(depth)
    mean = 0.7
    coeffs = [rng.standard_normal(1 << k) for k in range(depth)]
    manual = np.full(grid.n_leaves, mean)
    for k in range(depth):
        for j in range(1 << k):
            manual += coeffs[k][j] * oracles.haar_leaves(depth, k, j)
    got = synthesize_leaves(mean, coeffs, depth)
    np.testing.assert_allclose(got, manual, rtol=0, atol=1e-13)


def test_round_trip_exact_cases(grid4):
    # constants and even-level Haar atoms only touch exactly representable
    # scalings (odd levels put sqrt(2) into the coefficients)
    for f in (
        StepFunction.constant(grid4, 0.375),
        haar_function(grid4, grid4.root),
        haar_function(grid4, DyadicInterval(2, 1)),
    ):
        back = synthesize_leaves(*analyze_leaves(f.values, 4), 4)
        np.testing.assert_array_equal(back, f.values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=8, max_size=8))
def test_round_trip_property(leaf_values):
    grid = DyadicGrid(3)
    f = StepFunction(grid, np.array(leaf_values))
    back = synthesize_leaves(*analyze_leaves(f.values, 3), 3)
    scale = max(1.0, float(np.abs(f.values).max()))
    assert np.abs(back - f.values).max() <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=16, max_size=16),
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=16, max_size=16),
)
def test_analysis_is_linear(xs, ys):
    grid = DyadicGrid(4)
    f = StepFunction(grid, np.array(xs))
    g = StepFunction(grid, np.array(ys))
    (mf, cf), (mg, cg), (ms, cs) = (
        analyze_leaves(h, 4) for h in (f.values, g.values, f.values + g.values)
    )
    scale = max(1.0, float(np.abs(f.values).max()), float(np.abs(g.values).max()))
    assert abs(ms - mf - mg) <= 1e-12 * scale
    for k in range(4):
        diff = cs[k] - cf[k] - cg[k]
        assert np.abs(diff).max() <= 1e-11 * scale


def test_parseval(rng):
    for depth in (1, 3, 5, 8):
        grid = DyadicGrid(depth)
        f = StepFunction(grid, rng.standard_normal(grid.n_leaves))
        mean, coeffs = analyze_leaves(f.values, depth)
        energy = float((f.values**2).mean())
        parseval = float(mean) ** 2 + float(sum((c**2).sum() for c in coeffs))
        assert parseval == pytest.approx(energy, rel=1e-13)


def test_level_masses_parents_are_exact_child_sums(rng):
    depth = 6
    vals = rng.standard_normal(1 << depth)
    masses = level_masses(vals, depth)
    assert len(masses) == depth + 1
    for k in range(depth):
        np.testing.assert_array_equal(masses[k], masses[k + 1].reshape(-1, 2).sum(axis=1))
    assert masses[depth].shape == (1 << depth,)


def test_analyze_synthesize_leaves_accept_short_coeff_lists(rng):
    # synthesizing from fewer levels than the depth leaves the tail zero
    depth = 4
    mean, coeffs = analyze_leaves(rng.standard_normal(1 << depth), depth)
    top_only = synthesize_leaves(mean, coeffs[:2], depth)
    manual = np.full(1 << depth, mean)
    for k in range(2):
        for j in range(1 << k):
            manual += coeffs[k][j] * oracles.haar_leaves(depth, k, j)
    np.testing.assert_allclose(top_only, manual, rtol=0, atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(
    depth=st.integers(0, 14),
    batch=st.sampled_from([(), (3,)]),
    exponents=st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(sorted),
    kept=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pyramids_equal_full_width_kernels(depth, batch, exponents, kept, seed):
    # the O(2^D) pyramids keep every leaf's chain of additions, so they
    # reproduce the full-width kernels bit for bit
    r = np.random.default_rng(seed)
    n = 1 << depth
    lo, hi = exponents
    x = r.choice([-1.0, 1.0], batch + (n,)) * 10.0 ** r.uniform(lo, hi, batch + (n,))
    mean, coeffs = analyze_leaves(x, depth)
    want_mean, want_coeffs = oracles.analyze_leaves_reference(x, depth)
    assert np.array_equal(mean, want_mean)
    assert all(np.array_equal(a, b) for a, b in zip(coeffs, want_coeffs, strict=True))
    assert all(
        np.array_equal(a, b)
        for a, b in zip(level_masses(x, depth), oracles.level_masses_reference(x, depth),
                        strict=True)
    )
    short = coeffs[: round(kept * depth)]
    for levels in (coeffs, short, []):
        got = synthesize_leaves(mean, levels, depth)
        want = oracles.synthesize_leaves_reference(mean, levels, depth)
        assert got.shape == want.shape and np.array_equal(got, want)
    terms = [c * c * (1 << k) for k, c in enumerate(short)]
    assert np.array_equal(
        accumulate_levels(terms, depth), oracles.accumulate_levels_reference(terms, depth)
    )
    if batch == () and depth >= 1:
        f = StepFunction(DyadicGrid(depth), x)
        g = StepFunction(f.grid, r.standard_normal(n))
        got = shift_operator(f.grid).apply(x)
        assert np.array_equal(got, oracles.shift_values_reference(coeffs, depth))
        fa, ga = project_admissible(f), project_admissible(g)
        got = remainder_closed_form(fa, ga)
        _, cx = oracles.analyze_leaves_reference(fa.values, depth)
        _, cy = oracles.analyze_leaves_reference(ga.values, depth)
        assert np.array_equal(got, oracles.remainder_values_reference(cx, cy, depth))


def test_haar_matrix_rows_are_haar_functions():
    for depth in (1, 2, 4):
        grid = DyadicGrid(depth)
        H = oracles.haar_matrix(depth)
        assert H.shape == (grid.n_leaves - 1, grid.n_leaves)
        for row, (k, j) in zip(H, oracles.all_intervals(depth, depth - 1)):
            np.testing.assert_array_equal(row, haar_function(grid, DyadicInterval(k, j)).values)


def test_haar_matrix_orthonormality():
    for depth in (1, 2, 3, 5):
        grid = DyadicGrid(depth)
        H = np.array([haar_function(grid, DyadicInterval(k, j)).values
                      for k, j in oracles.all_intervals(depth, depth - 1)])
        gram = (H @ H.T) / grid.n_leaves
        np.testing.assert_allclose(gram, np.eye(grid.n_leaves - 1), rtol=0, atol=1e-13)


def _square_function(values, depth):
    """S f from the package's layers, spread over the leaves as the
    identities suite does."""
    return np.sqrt(accumulate_levels(square_layers(values, depth), depth))


def test_square_function_worked_example(grid2):
    # f = h_{[0,1/2)}: S f = sqrt(f-hat^2 / |I|) = sqrt(2) on [0,1/2)
    f = haar_function(grid2, DyadicInterval(1, 0)).values
    want = [math.sqrt(2), math.sqrt(2), 0.0, 0.0]
    np.testing.assert_allclose(_square_function(f, 2), want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(oracles.square_function_leaves(f, 2), want, rtol=0, atol=1e-15)


def test_square_function_l2_matches_coeff_energy(rng):
    f = rng.standard_normal(32)
    _, coeffs = analyze_leaves(f, 5)
    sf = _square_function(f, 5)
    np.testing.assert_allclose(sf, oracles.square_function_leaves(f, 5), rtol=1e-13, atol=0)
    energy = float(sum((c**2).sum() for c in coeffs))
    assert float((sf**2).mean()) == pytest.approx(energy, rel=1e-13)


def test_square_layers_match_coefficient_oracle(rng):
    # layer k holds fhat(I)^2 / |I| over the level-k intervals, row by row
    x = rng.standard_normal((2, 32))
    layers = square_layers(x, 5)
    assert [layer.shape for layer in layers] == [(2, 1 << k) for k in range(5)]
    for row, v in enumerate(x):
        for k, j in oracles.all_intervals(4):
            want = oracles.coeff(v, 5, k, j) ** 2 * 2.0**k
            assert layers[k][row, j] == pytest.approx(want, rel=1e-13, abs=1e-15)


