"""Grid, leaf data, and the Haar transform against explicit oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dyadbloom import (
    ROOT,
    DyadicInterval,
    GridMismatchError,
    depth_of,
    haar_function,
    leaf_values,
    same_depth,
)
from dyadbloom.grid import (
    accumulate_levels,
    analyze_leaves,
    heap_scales,
    level,
    level_masses,
    local_integrals,
    spread,
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
    # the children of (k, j) are (k+1, 2j) on its left half and (k+1, 2j+1)
    # on its right half
    for iv, left, right in (((0, 0), (1, 0), (1, 1)), ((3, 5), (4, 10), (4, 11))):
        assert oracles.parent(*left) == iv
        assert oracles.parent(*right) == iv
        whole, lo, hi = (oracles.leaf_slice(5, *x) for x in (iv, left, right))
        assert (lo.start, lo.stop, hi.stop) == (whole.start, hi.start, whole.stop)


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


def test_grid_enumeration():
    assert depth_of(np.zeros(16)) == 4
    assert depth_of(np.zeros((3, 16))) == 4
    assert ROOT == DyadicInterval(0, 0)
    # h_I lives on the leaves of the arithmetic leaf_slice
    for k, j in oracles.all_intervals(3):
        support = np.flatnonzero(haar_function(4, DyadicInterval(k, j)))
        sl = oracles.leaf_slice(4, k, j)
        assert (support[0], support[-1] + 1) == (sl.start, sl.stop)


def test_grid_depth_bounds():
    with pytest.raises(ValueError, match="depth must be in"):
        leaf_values([0.0, 1.0], 0)
    with pytest.raises(ValueError, match="depth must be in"):
        leaf_values([0.0, 1.0], 25)
    with pytest.raises(ValueError, match="depth must be in"):
        leaf_values([])
    assert depth_of(leaf_values([0.0, 1.0], 1)) == 1


def test_step_function_integral_and_interval_average():
    f = leaf_values([1.0, 2.0, 3.0, 4.0])
    assert f.mean() == 2.5
    assert oracles.interval_average(f, DyadicInterval(1, 1)) == 3.5


def test_non_power_of_two_lengths_are_rejected():
    # 48 leaves are no grid: no depth is read off them
    x = np.ones(48)
    for fn in (depth_of, same_depth, level_masses, analyze_leaves, square_layers):
        with pytest.raises(ValueError, match="2\\^D entries"):
            fn(x)
    with pytest.raises(ValueError, match="2\\^D entries"):
        same_depth(x, np.ones(32))
    with pytest.raises(ValueError, match="2\\^D entries"):
        depth_of(np.ones((2, 0)))
    # leaf_values keeps its own message, which the CLI reports
    with pytest.raises(ValueError, match="expected 32 leaf values for depth 5"):
        leaf_values(x)


def test_step_function_rejects_other_grid():
    b4, b5 = np.ones(16), np.ones(32)
    assert same_depth(b4, np.zeros(16), depth=4) == 4
    with pytest.raises(GridMismatchError):
        same_depth(b4, b5)
    with pytest.raises(GridMismatchError):
        same_depth(b4, depth=5)
    with pytest.raises(GridMismatchError):
        paraproduct_operator([b4, b5])
    with pytest.raises(GridMismatchError):
        expansion_terms(b4, b5)


def test_leaf_values_reject_nonfinite_and_wrong_shape():
    with pytest.raises(ValueError, match="finite"):
        leaf_values(np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        leaf_values(np.array([1.0, np.inf, 0.0, 0.0]))
    for values, depth in (([1.0, 2.0, 3.0], None), (np.ones(4), 3), (np.ones((2, 4)), 2)):
        with pytest.raises(ValueError, match="leaf values for depth"):
            leaf_values(values, depth)


def test_leaf_values_name_the_shape_of_an_array_that_is_not_1d():
    # no depth is read off a second axis, or off a scalar: the error names
    # the (2^D,) shape rather than a depth of 0
    for values in (np.ones((2, 4)), np.ones((1, 1)), 3.0):
        with pytest.raises(ValueError, match=r"need shape \(2\^D,\), got shape"):
            leaf_values(values)


def test_heap_entries_run_level_major():
    # entry 2^k + j is the level-k interval at position j, level by level
    for depth in (1, 4):
        for i, (k, j) in enumerate(oracles.all_intervals(depth), start=1):
            assert oracles.heap_index(k, j) == i
            assert DyadicInterval.at(i) == DyadicInterval(k, j)


def test_leaf_values_are_read_only():
    raw = np.zeros(4)
    f = leaf_values(raw)
    assert f.dtype == np.float64 and not f.flags.writeable
    with pytest.raises(ValueError):
        f[0] = 1.0
    raw[0] = 1.0  # a copy: the caller's array does not reach it
    assert f[0] == 0.0


def test_haar_function_matches_oracle():
    for depth in (2, 3, 4):
        for k, j in oracles.all_intervals(depth, depth - 1):
            got = haar_function(depth, DyadicInterval(k, j))
            np.testing.assert_array_equal(got, oracles.haar_leaves(depth, k, j))


def test_analysis_matches_dot_product_oracle(rng):
    depth = 4
    f = leaf_values(rng.standard_normal(1 << depth))
    coeffs = analyze_leaves(f)
    assert coeffs[0] == pytest.approx(oracles.integral(f), abs=1e-15)
    for k, j in oracles.all_intervals(depth, depth - 1):
        want = oracles.coeff(f, depth, k, j)
        assert coeffs[oracles.heap_index(k, j)] == pytest.approx(want, abs=1e-13)


def test_synthesis_matches_superposition_oracle(rng):
    depth = 3
    mean = 0.7
    coeffs = [rng.standard_normal(1 << k) for k in range(depth)]
    manual = np.full(1 << depth, mean)
    for k in range(depth):
        for j in range(1 << k):
            manual += coeffs[k][j] * oracles.haar_leaves(depth, k, j)
    got = synthesize_leaves(oracles.heap_from(mean, coeffs))
    np.testing.assert_allclose(got, manual, rtol=0, atol=1e-13)


def test_round_trip_exact_cases():
    # constants and even-level Haar atoms only touch exactly representable
    # scalings (odd levels put sqrt(2) into the coefficients)
    for f in (
        np.full(16, 0.375),
        haar_function(4, ROOT),
        haar_function(4, DyadicInterval(2, 1)),
    ):
        back = synthesize_leaves(analyze_leaves(f))
        np.testing.assert_array_equal(back, f)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=8, max_size=8))
def test_round_trip_property(leaves):
    f = leaf_values(leaves)
    back = synthesize_leaves(analyze_leaves(f))
    scale = max(1.0, float(np.abs(f).max()))
    assert np.abs(back - f).max() <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=16, max_size=16),
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=16, max_size=16),
)
def test_analysis_is_linear(xs, ys):
    f, g = leaf_values(xs), leaf_values(ys)
    cf, cg, cs = (analyze_leaves(h) for h in (f, g, f + g))
    scale = max(1.0, float(np.abs(f).max()), float(np.abs(g).max()))
    diff = cs - cf - cg
    assert abs(diff[0]) <= 1e-12 * scale  # the mean
    assert np.abs(diff[1:]).max() <= 1e-11 * scale


def test_parseval(rng):
    for depth in (1, 3, 5, 8):
        f = leaf_values(rng.standard_normal(1 << depth))
        coeffs = analyze_leaves(f)
        energy = float((f**2).mean())
        parseval = float((coeffs**2).sum())  # the mean's square included
        assert parseval == pytest.approx(energy, rel=1e-13)


def test_level_masses_parents_are_exact_child_sums(rng):
    depth = 6
    vals = rng.standard_normal(1 << depth)
    masses = level_masses(vals)
    assert masses.shape == (2 << depth,)
    for k in range(depth):
        np.testing.assert_array_equal(level(masses, k),
                                      level(masses, k + 1).reshape(-1, 2).sum(axis=1))
    np.testing.assert_array_equal(level(masses, depth), vals * 2.0**-depth)
    assert masses[0] == masses[1]  # entry 0 repeats the root's


@pytest.mark.parametrize("depth", range(1, 11))
def test_local_integrals_match_per_interval_brute_force(depth):
    # the bottom-up localized pass against each K's synthesis built from the
    # coefficients within K alone, under an integrand that adds a per-level
    # offset and a weight, as the necessity bound's does
    r = np.random.default_rng(2100 + depth)
    coeffs = r.standard_normal(1 << depth)
    offsets = r.standard_normal(depth)
    w = np.exp(r.uniform(-2.0, 2.0, 1 << depth))

    def integrand(k, v):
        return (v + offsets[k]) ** 2 * w

    got = local_integrals(coeffs, integrand)
    want = oracles.local_integrals_oracle(coeffs, integrand, depth)
    assert got.shape == (1 << depth,) and got[0] == 0.0
    np.testing.assert_allclose(got[1:], want[1:], rtol=1e-12, atol=0)


def test_analyze_synthesize_leaves_accept_short_coeff_lists(rng):
    # synthesizing from a heap shorter than the depth leaves the tail zero
    depth = 4
    coeffs = analyze_leaves(rng.standard_normal(1 << depth))
    top_only = synthesize_leaves(coeffs[:4], depth)  # the mean, levels 0 and 1
    manual = np.full(1 << depth, coeffs[0])
    for k in range(2):
        for j in range(1 << k):
            manual += coeffs[oracles.heap_index(k, j)] * oracles.haar_leaves(depth, k, j)
    np.testing.assert_allclose(top_only, manual, rtol=0, atol=1e-14)


def _same_bits(a, b) -> bool:
    # equal shapes and equal bit patterns, so -0.0 differs from 0.0
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(
    depth=st.integers(0, 14),
    batch=st.sampled_from([(), (3,)]),
    exponents=st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(sorted),
    kept=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pyramids_equal_full_width_kernels(depth, batch, exponents, kept, seed):
    # the O(2^D) heap passes keep every leaf's chain of operations, so they
    # reproduce the full-width kernels bit for bit, on one row and on stacks
    r = np.random.default_rng(seed)
    n = 1 << depth
    lo, hi = exponents
    x = r.choice([-1.0, 1.0], batch + (n,)) * 10.0 ** r.uniform(lo, hi, batch + (n,))
    coeffs = analyze_leaves(x)
    want_mean, want_coeffs = oracles.analyze_leaves_reference(x, depth)
    assert coeffs.shape == x.shape and _same_bits(coeffs[..., 0], want_mean)
    assert all(_same_bits(a, b) for a, b in
               zip(oracles.heap_levels(coeffs, depth), want_coeffs, strict=True))
    masses = level_masses(x)
    assert all(_same_bits(a, b) for a, b in
               zip(oracles.heap_levels(masses, depth + 1),
                   oracles.level_masses_reference(x, depth), strict=True))
    kept_levels = round(kept * depth)
    for m in (depth, kept_levels, 0):
        got = synthesize_leaves(coeffs[..., : 1 << m], depth)
        want = oracles.synthesize_leaves_reference(want_mean, want_coeffs[:m], depth)
        assert _same_bits(got, want)
    terms = np.ldexp(coeffs[..., : 1 << kept_levels] ** 2, heap_scales(1 << kept_levels).levels)
    want = oracles.accumulate_levels_reference(oracles.heap_levels(terms, kept_levels), depth,
                                               batch)
    assert _same_bits(spread(accumulate_levels(terms), depth), want)
    if depth >= 1:
        b, g = r.standard_normal(n), r.standard_normal(batch + (n,))
        got = shift_operator(depth).apply(x)
        assert _same_bits(got, oracles.shift_values_reference(want_coeffs, depth))
        assert _same_bits(shift_operator(depth).transpose(g),
                              oracles.shift_transpose_reference(g, depth))
        pi_b = paraproduct_operator(b)
        assert _same_bits(pi_b.apply(x), oracles.paraproduct_apply_reference(b, x, depth))
        assert _same_bits(pi_b.transpose(g),
                              oracles.paraproduct_transpose_reference(b, g, depth))
        fa, ga = project_admissible(x), project_admissible(g)
        got = remainder_closed_form(fa, ga)
        _, cx = oracles.analyze_leaves_reference(fa, depth)
        _, cy = oracles.analyze_leaves_reference(ga, depth)
        assert _same_bits(got, oracles.remainder_values_reference(cx, cy, depth))


def test_haar_matrix_rows_are_haar_functions():
    for depth in (1, 2, 4):
        n = 1 << depth
        H = oracles.haar_matrix(depth)
        assert H.shape == (n - 1, n)
        for row, (k, j) in zip(H, oracles.all_intervals(depth, depth - 1)):
            np.testing.assert_array_equal(row, haar_function(depth, DyadicInterval(k, j)))


def test_haar_matrix_orthonormality():
    for depth in (1, 2, 3, 5):
        n = 1 << depth
        H = np.array([haar_function(depth, DyadicInterval(k, j))
                      for k, j in oracles.all_intervals(depth, depth - 1)])
        gram = (H @ H.T) / n
        np.testing.assert_allclose(gram, np.eye(n - 1), rtol=0, atol=1e-13)


def _square_function(values):
    """S f from the package's layers, spread over the leaves as the
    identities suite does."""
    return np.sqrt(spread(accumulate_levels(square_layers(values)), depth_of(values)))


def test_square_function_worked_example():
    # f = h_{[0,1/2)}: S f = sqrt(f-hat^2 / |I|) = sqrt(2) on [0,1/2)
    f = haar_function(2, DyadicInterval(1, 0))
    want = [math.sqrt(2), math.sqrt(2), 0.0, 0.0]
    np.testing.assert_allclose(_square_function(f), want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(oracles.square_function_leaves(f, 2), want, rtol=0, atol=1e-15)


def test_square_function_l2_matches_coeff_energy(rng):
    f = rng.standard_normal(32)
    coeffs = analyze_leaves(f)
    sf = _square_function(f)
    np.testing.assert_allclose(sf, oracles.square_function_leaves(f, 5), rtol=1e-13, atol=0)
    energy = float((coeffs[1:] ** 2).sum())
    assert float((sf**2).mean()) == pytest.approx(energy, rel=1e-13)


def test_square_layers_match_coefficient_oracle(rng):
    # level k holds fhat(I)^2 / |I| over the level-k intervals, row by row
    x = rng.standard_normal((2, 32))
    layers = square_layers(x)
    assert layers.shape == (2, 64) and not layers[:, 0].any() and not layers[:, 32:].any()
    for row, v in enumerate(x):
        for k, j in oracles.all_intervals(4):
            want = oracles.coeff(v, 5, k, j) ** 2 * 2.0**k
            assert layers[row, oracles.heap_index(k, j)] == pytest.approx(
                want, rel=1e-13, abs=1e-15)


