"""Weights, A2 characteristics, and the random ensembles."""

import json

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from dyadbloom import (
    ConfigError,
    DyadicInterval,
    EnsembleSpec,
    EnsembleTargetError,
    Weight,
    a2_characteristic,
    generate,
    weights,
)
from dyadbloom.grid import analyze_leaves, heap_scales, level, level_masses
from dyadbloom.weights import KIND_FIELDS, SYMBOL_KINDS, WEIGHT_KINDS


def test_weight_requires_positive_values():
    with pytest.raises(ValueError):
        Weight(np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Weight(np.array([1.0, 0.0, 1.0, 1.0]))
    # leaf_values' checks come first
    with pytest.raises(ValueError, match="finite"):
        Weight(np.array([1.0, np.inf, 1.0, 1.0]))
    with pytest.raises(ValueError, match="leaf values for depth"):
        Weight(np.ones(3))


def test_interval_mass_and_average_match_slices(random_positive):
    w = random_positive(4, seed=7)
    for k, j in oracles.all_intervals(4):
        i = oracles.heap_index(k, j)
        assert level_masses(w.values)[i] == pytest.approx(
            oracles.mass_on(w.values, 4, k, j), rel=1e-14
        )
        assert w.averages[i] == pytest.approx(
            oracles.interval_average(w.values, DyadicInterval(k, j)), rel=1e-14
        )


def _pyramid_weights():
    # random positive leaves at every depth 1..14, and leaves spanning
    # 1e-300..1e300, where a mass of 2^-k times a tiny average stays normal
    rng = np.random.default_rng(22)
    for depth in range(1, 15):
        yield Weight(rng.uniform(0.1, 10.0, 1 << depth))
        yield Weight(10.0 ** rng.uniform(-300.0, 300.0, 1 << depth))


def test_weight_stores_one_read_only_pyramid():
    for w in _pyramid_weights():
        d = w.depth
        assert w.averages.shape == (2 << d,) and not w.averages.flags.writeable
        assert w.values.base is w.averages and not w.values.flags.writeable
        np.testing.assert_array_equal(w.values, w.averages[1 << d :])
        assert w.averages[0] == w.averages[1]  # entry 0 repeats the root's
        # every array it holds is that heap or a view of it
        held = [getattr(w, n) for n in Weight.__slots__ if n != "__dict__"]
        held += vars(w).values()
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert all(a is w.averages or a.base is w.averages for a in arrays)


def test_scaled_averages_are_bitwise_the_level_masses():
    # a power-of-two scaling is exact, so masses read as ldexp(average, -k)
    # are the masses of grid.level_masses bit for bit
    for w in _pyramid_weights():
        levels = heap_scales(w.averages.size).levels
        scaled = np.ldexp(w.averages, -levels)
        assert scaled.tobytes() == level_masses(w.values).tobytes()
        assert w.total_mass == float(level_masses(w.values)[1])


def test_a2_of_two_leaf_weight_is_four_thirds(weight_13):
    # <w> = 2, <w^{-1}> = 2/3 at the root; each leaf gives 1
    assert a2_characteristic(weight_13) == pytest.approx(4 / 3, abs=1e-15)


def test_a2_of_4411_weight(weight_4411):
    # root: <w> = 2.5, <w^{-1}> = 0.625 -> 25/16
    assert a2_characteristic(weight_4411) == pytest.approx(25 / 16, abs=1e-15)


def test_a2_constant_weight_is_exactly_one(unit_weight):
    w = Weight(np.full(32, 7.25))
    assert a2_characteristic(w) == 1.0
    assert a2_characteristic(unit_weight(3)) == 1.0


def test_a2_matches_brute_force(random_positive):
    for seed in range(5):
        w = random_positive(4, seed=seed)
        want = oracles.a2_oracle(w.values, 4)
        assert a2_characteristic(w) == pytest.approx(want, rel=1e-13)


def test_a2_never_below_one(random_positive):
    # Cauchy-Schwarz floor, sharp exactly for constants
    for seed in range(10):
        w = random_positive(5, seed=100 + seed)
        assert a2_characteristic(w) >= 1.0


def test_inverse_weight_is_pointwise_reciprocal(random_positive):
    w = random_positive(3, seed=3)
    np.testing.assert_allclose(w.inverse.values, 1.0 / w.values, rtol=1e-16)


# ------------------------------------------------------------------ ensembles


def test_every_kind_generates_valid_output():
    for kind in ("constant", "two-value", "power", "cascade"):
        out = generate(EnsembleSpec(kind=kind, depth=4, seed=5))
        assert isinstance(out, Weight)
        assert out.values.shape == (16,)
        assert np.all(out.values > 0)
    for kind in ("log-symbol", "haar-sparse-symbol"):
        out = generate(EnsembleSpec(kind=kind, depth=4, seed=5))
        assert out.shape == (16,) and not out.flags.writeable
        assert np.all(np.isfinite(out))


def test_generation_is_deterministic():
    for kind in ("two-value", "cascade", "log-symbol", "haar-sparse-symbol"):
        a = generate(EnsembleSpec(kind=kind, depth=5, seed=42))
        b = generate(EnsembleSpec(kind=kind, depth=5, seed=42))
        np.testing.assert_array_equal(getattr(a, "values", a), getattr(b, "values", b))
        c = generate(EnsembleSpec(kind=kind, depth=5, seed=43))
        assert not np.array_equal(getattr(a, "values", a), getattr(c, "values", c))


def test_constant_kind_ignores_randomness():
    w = generate(EnsembleSpec(kind="constant", depth=3, seed=0))
    assert np.all(w.values == w.values[0])


def test_two_value_kind_draws_from_declared_values():
    spec = EnsembleSpec(kind="two-value", depth=6, seed=17, values=(0.5, 8.0))
    w = generate(spec)
    assert set(np.unique(w.values)) <= {0.5, 8.0}
    # with 64 iid draws both values appear
    assert len(np.unique(w.values)) == 2


def test_power_leaf_averages_match_quadrature():
    # leaf values must be the exact cell averages of |x - c|^alpha
    for alpha in (-0.5, 0.7):
        spec = EnsembleSpec(kind="power", depth=4, seed=0, alpha=alpha, center=0.5)
        w = generate(spec)
        n = 16
        for j in range(n):
            lo, hi = j / n, (j + 1) / n
            val, _ = quad(lambda x: abs(x - 0.5) ** alpha, lo, hi, points=[0.5], limit=200)
            assert w.values[j] == pytest.approx(val * n, rel=1e-9), (alpha, j)


def test_power_alpha_zero_is_flat():
    w = generate(EnsembleSpec(kind="power", depth=3, seed=0, alpha=0.0))
    np.testing.assert_allclose(w.values, 1.0, rtol=1e-12)


def test_cascade_total_mass_is_exactly_one():
    # each split multiplies the two children by (1 +- u delta), preserving sums
    for seed in range(6):
        w = generate(EnsembleSpec(kind="cascade", depth=6, seed=seed, delta=0.45))
        assert w.total_mass == pytest.approx(1.0, abs=1e-13)


def test_cascade_parent_masses_preserved_by_each_split():
    w = generate(EnsembleSpec(kind="cascade", depth=5, seed=11))
    masses = level_masses(w.values)
    for k in range(5):
        np.testing.assert_allclose(
            level(masses, k), level(masses, k + 1).reshape(-1, 2).sum(axis=1), rtol=1e-15
        )


def _cascade_reference(depth, delta, rng):
    # the cascade loop as first written, frozen: per level one uniform(0, 1)
    # draw and one integers(0, 2) draw of 2^k each, in that order
    vals = np.ones(1)
    for k in range(depth):
        u = rng.uniform(0.0, 1.0, size=1 << k)
        sign = np.where(rng.integers(0, 2, size=1 << k) == 0, 1.0, -1.0)
        factor = u * delta * sign
        children = np.empty(1 << (k + 1))
        children[0::2] = vals * (1.0 + factor)
        children[1::2] = vals * (1.0 - factor)
        vals = children
    return vals


@pytest.mark.parametrize("delta", [0.05, 0.4, 0.95])
def test_cascade_values_match_the_reference_loop_bitwise(delta):
    # the same draws from the same stream, and the same floats, at every depth;
    # the stream's next draw agrees too, so generate's retries see the same state
    for depth in range(1, 17):
        seed = 1000 * depth + round(100 * delta)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = weights._cascade_values(depth, delta, rng)
        want = _cascade_reference(depth, delta, ref_rng)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), depth
        assert rng.random() == ref_rng.random()


def test_log_symbol_is_log_of_cascade():
    sym = generate(EnsembleSpec(kind="log-symbol", depth=4, seed=8, delta=0.3))
    cas = generate(EnsembleSpec(kind="cascade", depth=4, seed=8, delta=0.3))
    np.testing.assert_allclose(sym, np.log(cas.values), rtol=1e-15)


def test_sparse_symbol_has_scaled_coefficients_and_zero_mean():
    spec = EnsembleSpec(kind="haar-sparse-symbol", depth=6, seed=3, sparsity=0.05)
    sym = generate(spec)
    assert abs(sym.mean()) <= 1e-14
    coeffs = analyze_leaves(sym)
    assert int(np.count_nonzero(np.abs(coeffs[1:]) > 1e-13)) >= 1
    # nonzero coefficients carry the 2^{-k/2} normalization: a standard
    # normal draw at level k lands within a few sigma of that scale
    for k in range(6):
        c = level(coeffs, k)
        nz = np.abs(c[np.abs(c) > 1e-13])
        if nz.size:
            assert np.all(nz <= 8.0 * 2.0 ** (-k / 2))


def test_sparse_symbol_forces_at_least_one_interval():
    # sparsity so small that every mask is empty, so generate forces one
    # interval.  The oracle replays the per-level draws, then picks the
    # forced interval from an explicit level-major list of (level, position).
    for depth in range(1, 9):
        level_major = [(k, j) for k in range(depth) for j in range(1 << k)]
        for seed in range(40):
            spec = EnsembleSpec(kind="haar-sparse-symbol", depth=depth, seed=seed,
                                sparsity=1e-12)
            rng = np.random.default_rng(seed)
            for k in range(depth):
                assert not (rng.random(1 << k) < spec.sparsity).any()
                rng.standard_normal(1 << k)
            k, j = level_major[int(rng.integers(len(level_major)))]
            value = float(rng.standard_normal()) * 2.0 ** (-k / 2.0)
            coeffs = analyze_leaves(generate(spec))
            nonzero = [DyadicInterval.at(i) for i in np.flatnonzero(coeffs[1:]) + 1]
            assert coeffs[0] == 0.0 and nonzero == [DyadicInterval(k, j)], (depth, seed)
            assert coeffs[oracles.heap_index(k, j)] == pytest.approx(value, rel=1e-12)


def test_a2_range_rejection_sampling():
    spec = EnsembleSpec(kind="cascade", depth=5, seed=2, delta=0.5, a2_range=(1.05, 1.5))
    w = generate(spec)
    assert 1.05 <= a2_characteristic(w) <= 1.5


def test_a2_range_failure_reports_achieved_range():
    spec = EnsembleSpec(
        kind="two-value",
        depth=4,
        seed=0,
        values=(1.0, 64.0),
        a2_range=(1.0, 1.0001),
    )
    with pytest.raises(EnsembleTargetError) as exc:
        generate(spec)
    assert "a2" in str(exc.value).lower() or "A2" in str(exc.value)
    assert "after 64 attempt(s)" in str(exc.value)


def test_a2_range_on_deterministic_kind_fails_after_one_attempt():
    spec = EnsembleSpec(kind="power", depth=4, seed=0, alpha=0.9, a2_range=(1.0, 1.01))
    with pytest.raises(EnsembleTargetError):
        generate(spec)


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        EnsembleSpec(kind="unknown", depth=4)
    with pytest.raises(ConfigError):
        EnsembleSpec(kind="cascade", depth=0)
    with pytest.raises(ConfigError):
        EnsembleSpec(kind="cascade", depth=4, delta=1.5)
    with pytest.raises(ConfigError):
        EnsembleSpec(kind="two-value", depth=4, values=(1.0,))
    with pytest.raises(ConfigError):
        EnsembleSpec(kind="two-value", depth=4, values=(0.0, 1.0))
    with pytest.raises(ConfigError):
        # a2 targeting is meaningful for weights only
        EnsembleSpec(kind="log-symbol", depth=4, a2_range=(1.0, 2.0))
    with pytest.raises(ConfigError):
        EnsembleSpec(kind="cascade", depth=4, a2_range=(2.0, 1.0))


# each kind with every field it reads away from its default
_KIND_RECIPES = (
    {"kind": "constant", "values": (2.5,)},
    {"kind": "two-value", "values": (1.0, 3.0, 9.0)},
    {"kind": "power", "alpha": -0.4, "center": 0.3},
    {"kind": "cascade", "delta": 0.25},
    {"kind": "log-symbol", "delta": 0.35},
    {"kind": "haar-sparse-symbol", "sparsity": 0.2},
)


def test_spec_dict_round_trip():
    assert set(KIND_FIELDS) == {r["kind"] for r in _KIND_RECIPES} == set(
        WEIGHT_KINDS + SYMBOL_KINDS)
    cases = [(r, None) for r in _KIND_RECIPES]
    cases += [(r, (1.0, 8.0)) for r in _KIND_RECIPES if r["kind"] in WEIGHT_KINDS]
    for recipe, a2_range in cases:
        spec = EnsembleSpec(depth=6, seed=9, a2_range=a2_range, **recipe)
        d = spec.to_dict()
        assert set(d) == {"kind", "depth", "seed", *KIND_FIELDS[spec.kind]} | (
            {"a2_range"} if a2_range else set())
        assert all(isinstance(d[n], list) for n in ("values", "a2_range") if n in d)
        assert EnsembleSpec.from_dict(json.loads(json.dumps(d))) == spec
    for field in ("bogus", "max_retries"):
        with pytest.raises(ConfigError, match="unknown ensemble spec fields"):
            EnsembleSpec.from_dict({"kind": "cascade", "depth": 4, field: 1})
    # a known field the kind does not read is refused, not dropped
    for recipe in ({"kind": "power", "delta": 0.9}, {"kind": "cascade", "values": [1, 2]},
                   {"kind": "log-symbol", "center": 0.5}):
        with pytest.raises(ConfigError, match="does not read"):
            EnsembleSpec.from_dict({"depth": 4, **recipe})


def test_from_dict_coerces_json_numbers():
    spec = EnsembleSpec.from_dict({"kind": "cascade", "depth": 4.0, "seed": 7.0})
    assert spec.depth == 4 and isinstance(spec.depth, int)
    assert spec.seed == 7 and isinstance(spec.seed, int)
