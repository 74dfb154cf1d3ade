"""Paraproducts, the dyadic shift, commutators, and the expansion of [b, Sh]
in its three pieces [Pi_b, Sh] f, [Pi*_b, Sh] f and R_b f."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dyadbloom import (
    ROOT,
    DyadicInterval,
    GridMismatchError,
    InadmissibleLevelError,
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
from dyadbloom.grid import analyze_leaves, leaf_values, level


def _pair(depth, seed, admissible=True):
    r = np.random.default_rng(seed)
    b, f = (leaf_values(r.standard_normal(1 << depth)) for _ in range(2))
    if admissible:
        return project_admissible(b), project_admissible(f)
    return b, f


def _l2(values):
    return float(np.sqrt((values**2).mean()))


def test_plan_kernels_reject_another_depth():
    # the passes read the depth off their input, so each kernel checks it
    # against its plan's: shallower and deeper inputs both raise
    b, _ = _pair(4, 5, admissible=False)
    for plan in (paraproduct_operator(b), paraproduct_adjoint_operator(b), shift_operator(4),
                 commutator_operator(b, shift_operator(4)),
                 commutator_operator(b, paraproduct_operator(b))):
        for kernel in (plan.apply, plan.transpose):
            for n in (8, 64):
                with pytest.raises(GridMismatchError):
                    kernel(np.ones(n))


def test_paraproduct_matches_oracle():
    for seed in range(4):
        b, f = _pair(4, 200 + seed, admissible=False)
        want = oracles.paraproduct_oracle(b, f, 4)
        got = paraproduct_operator(b).apply(f)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_paraproduct_adjoint_matches_oracle():
    for seed in range(4):
        b, f = _pair(4, 210 + seed, admissible=False)
        want = oracles.paraproduct_adjoint_oracle(b, f, 4)
        got = paraproduct_adjoint_operator(b).apply(f)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_paraproduct_output_is_mean_free():
    b, f = _pair(6, 3, admissible=False)
    assert abs(float(paraproduct_operator(b).apply(f).mean())) <= 1e-15


def test_adjointness_in_plain_l2():
    # <Pi_b f, g> = <f, Pi*_b g> for every pair, no weights involved
    r = np.random.default_rng(77)
    for _ in range(5):
        b, f, g = (leaf_values(r.standard_normal(32)) for _ in range(3))
        pi_b = paraproduct_operator(b)
        lhs = float((pi_b.apply(f) * g).mean())
        rhs = float((f * pi_b.transpose(g)).mean())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_product_decomposition_is_an_identity():
    # b g = <b><g> + Pi_b g + Pi_g b + Pi*_b g for arbitrary step functions
    for seed in range(5):
        b, g = _pair(5, 300 + seed, admissible=False)
        lhs = b * g
        rhs = (
            b.mean() * g.mean()
            + paraproduct_operator(b).apply(g)
            + paraproduct_operator(g).apply(b)
            + paraproduct_operator(b).transpose(g)
        )
        scale = max(1.0, float(np.abs(lhs).max()))
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def _wide_leaves(depth, decades, signed, seed):
    # leaves log-uniform in [10^-decades, 10^decades] (1e-8 to 1e8 at
    # decades = 8), of random sign when signed
    r = np.random.default_rng(seed)
    signs = r.choice([-1.0, 1.0], 1 << depth) if signed else 1.0
    return leaf_values(signs * 10.0 ** (decades * r.uniform(-1.0, 1.0, 1 << depth)))


_WIDE = dict(depth=st.integers(2, 12), decades=st.floats(0.0, 8.0), signed=st.booleans(),
             seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(**_WIDE)
def test_product_decomposition_holds_against_its_largest_summand(depth, decades, signed, seed):
    # b g = <b><g> + Pi_b g + Pi_g b + Pi*_b g: the residual is measured
    # against the largest summand, as the summands can dwarf b g itself
    b, g = (_wide_leaves(depth, decades, signed, seed + i) for i in range(2))
    pi_b = paraproduct_operator(b)
    summands = (np.full(b.size, b.mean() * g.mean()), pi_b.apply(g),
                paraproduct_operator(g).apply(b), pi_b.transpose(g))
    residual = np.abs(b * g - sum(summands)).max()
    assert residual <= 1e-11 * max(np.abs(s).max() for s in summands)


@settings(max_examples=60, deadline=None)
@given(**_WIDE)
def test_three_piece_expansion_holds_against_its_largest_summand(depth, decades, signed, seed):
    # [b, Sh] f = [Pi_b, Sh] f + [Pi*_b, Sh] f + R_b f on admissible b, f,
    # measured against the largest of its eight summands and of b f: Sh(b f)
    # rounds at the size of b f, which dwarfs every summand when b is nearly
    # constant
    b, f = (project_admissible(_wide_leaves(depth, decades, signed, seed + i)) for i in range(2))
    sh = shift_operator(depth).apply
    pi_b, pi_f, shf = paraproduct_operator(b), paraproduct_operator(f), sh(f)
    summands = (b * shf, sh(b * f), pi_b.apply(shf), sh(pi_b.apply(f)), pi_b.transpose(shf),
                sh(pi_b.transpose(f)), paraproduct_operator(shf).apply(b), sh(pi_f.apply(b)), b * f)
    assert expansion_terms(b, f).residual() <= 1e-11 * max(np.abs(s).max() for s in summands)


def test_shift_matches_spectrum_oracle():
    for seed in range(4):
        _, f = _pair(5, 400 + seed)
        want = oracles.shift_oracle(f, 5)
        got = shift_operator(5).apply(f)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_shift_of_root_haar_is_quarter_pattern():
    h = haar_function(2, ROOT)
    np.testing.assert_array_equal(shift_operator(2).apply(h), [-1.0, 1.0, 1.0, -1.0])


def test_shift_kills_constants():
    c = np.full(16, 5.5)
    assert np.all(shift_operator(4).apply(c) == 0.0)


def test_shift_is_isometry_on_admissible_mean_free():
    for seed in range(5):
        _, f = _pair(6, 500 + seed)
        f0 = f - f.mean()
        assert _l2(shift_operator(6).apply(f0)) == pytest.approx(_l2(f0), rel=1e-13)


def test_identities_reject_deepest_level():
    good = haar_function(3, ROOT)
    bad = haar_function(3, DyadicInterval(2, 1))
    for identity in (expansion_terms, remainder_closed_form):
        with pytest.raises(InadmissibleLevelError) as exc:
            identity(good, bad)
        assert exc.value.level == 2
        assert exc.value.max_abs > 0
        # a symbol handed in with its coefficient heap is checked from the heap
        with pytest.raises(InadmissibleLevelError, match="symbol b") as exc:
            identity(bad, good, analyze_leaves(bad))
        assert exc.value.level == 2


def test_identities_given_the_symbols_coefficients_agree_bitwise():
    for seed in range(3):
        b, f = _pair(6, 40 + seed)
        cb = analyze_leaves(b)
        for got, want in zip(expansion_terms(b, f, cb), expansion_terms(b, f)):
            assert got.tobytes() == want.tobytes()
        assert remainder_closed_form(b, f, cb).tobytes() == remainder_closed_form(b, f).tobytes()


def test_shift_plan_truncates_what_is_admissible_flags():
    # is_admissible says whether the plan's shift drops anything
    shift = shift_operator(3).apply
    bad = haar_function(3, DyadicInterval(2, 1))
    assert not is_admissible(bad)
    assert np.all(shift(bad) == 0.0)
    good = haar_function(3, ROOT)
    assert is_admissible(good)
    want = oracles.shift_values_reference(oracles.heap_levels(analyze_leaves(good), 3), 3)
    np.testing.assert_array_equal(shift(good), want)


def test_admissibility_projection():
    b, _ = _pair(5, 9, admissible=False)
    assert not is_admissible(b)
    p = project_admissible(b)
    assert is_admissible(p)
    # idempotent up to resynthesis ulps, and levels <= depth-2 are untouched
    np.testing.assert_allclose(project_admissible(p), p, rtol=0, atol=1e-14)
    cb, cp = analyze_leaves(b), analyze_leaves(p)
    np.testing.assert_allclose(cp[:16], cb[:16], rtol=0, atol=1e-13)  # levels 0..3
    assert np.abs(cp[16:]).max() <= 1e-13


def test_commutator_definition():
    # [b, T]f = b(Tf) - T(bf), checked against the direct composition
    for seed in range(4):
        b, f = _pair(5, 600 + seed)
        shift = shift_operator(5).apply
        direct = b * shift(f) - shift(b * f)
        got = commutator_operator(b, shift_operator(5)).apply(f)
        np.testing.assert_allclose(got, direct, rtol=0, atol=1e-12)


def test_commutator_worked_example():
    h = haar_function(2, ROOT)
    want = [1.0, -1.0, 1.0, -1.0]
    np.testing.assert_array_equal(commutator_operator(h, shift_operator(2)).apply(h), want)
    np.testing.assert_array_equal(expansion_terms(h, h).commutator, want)


def test_constant_symbol_commutes():
    _, f = _pair(4, 11)
    # the uncentred commutator b Sh f - Sh(b f) of expansion_terms.
    # Power-of-two constant: both compositions stay exact, commutator is 0.0
    c2 = np.full(16, 2.0)
    assert np.all(expansion_terms(c2, f).commutator == 0.0)
    # generic constant: the two compositions round in different orders
    c = np.full(16, 2.5)
    assert np.abs(expansion_terms(c, f).commutator).max() <= 1e-14


def _base_plans(depth, seed):
    # the plans a commutator is built from: Sh, Pi_c and Pi*_c
    c = np.random.default_rng(seed).standard_normal(1 << depth)
    return shift_operator(depth), paraproduct_operator(c), paraproduct_adjoint_operator(c)


def _row_matrices(kernel, depth, rows):
    # (rows, 2^D, 2^D): column j of each row's matrix is that row's image of
    # the j-th leaf indicator, fed to the kernel as one (rows, 2^D) stack
    return np.stack([kernel(np.tile(e, (rows, 1))) for e in np.eye(1 << depth)], axis=-1)


def _assert_rel(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("depth", range(1, 9))
def test_commutator_of_any_plan_matches_matrix_oracle(depth):
    # [b, T] = diag(b - <b>) M - M diag(b - <b>), M the matrix of T.apply,
    # for one symbol and for a stacked list; the transpose is its transpose
    r = np.random.default_rng(800 + depth)
    bs = [r.standard_normal(1 << depth) * 10.0 ** r.uniform(-2, 2) for _ in range(3)]
    for T in _base_plans(depth, 810 + depth):
        M = oracles.operator_matrix(T.apply, depth)
        want = np.stack([(b - b.mean())[:, None] * M - M * (b - b.mean())[None, :]
                         for b in bs])
        for b, C in zip(bs, want):
            plan = commutator_operator(b, T)
            _assert_rel(oracles.operator_matrix(plan.apply, depth), C)
            _assert_rel(oracles.operator_matrix(plan.transpose, depth), C.T)
        stacked = commutator_operator(bs, T)
        _assert_rel(_row_matrices(stacked.apply, depth, len(bs)), want)
        _assert_rel(_row_matrices(stacked.transpose, depth, len(bs)), want.transpose(0, 2, 1))


@pytest.mark.parametrize("depth", range(1, 9))
def test_constant_symbol_commutes_with_every_plan(depth):
    # 2.5 and -0.75 are their own computed means, so the centred symbols
    # are exactly zero and so is every commutator, stacked or alone
    f = np.random.default_rng(820 + depth).standard_normal((2, 1 << depth))
    consts = [np.full(1 << depth, 2.5), np.full(1 << depth, -0.75)]
    for T in _base_plans(depth, 830 + depth):
        for plan in (commutator_operator(consts[0], T), commutator_operator(consts, T)):
            for kernel in (plan.apply, plan.transpose):
                assert np.all(kernel(f) == 0.0)


def test_commutator_rejects_a_plan_of_another_depth():
    b = np.random.default_rng(840).standard_normal(16)
    for T in (*_base_plans(3, 841), *_base_plans(5, 842)):
        with pytest.raises(GridMismatchError):
            commutator_operator(b, T)
        with pytest.raises(GridMismatchError):
            commutator_operator([b, b], T)
    with pytest.raises(GridMismatchError):
        commutator_operator([b, b[:8]], shift_operator(4))


def test_six_term_expansion_reproduces_commutator():
    for depth in (4, 5, 6):
        for seed in range(3):
            b, f = _pair(depth, 700 + seed)
            terms = expansion_terms(b, f)
            scale = max(1.0, float(np.abs(terms.commutator).max()))
            assert terms.residual() <= 1e-12 * scale


def test_expansion_analyses_b_once_for_its_four_b_terms(monkeypatch):
    # 2 admissibility checks, whose coefficients build the Pi_b plan shared
    # by the four b-terms and the Pi_f plan, Sh f, the commutator's Sh(b f),
    # Pi_b's 2 transposes, 2 outer shifts, the Pi_{Sh f} plan and
    # Sh(Pi_f b): 10.  Analysing b and f again for their plans made it 12,
    # and one plan per b-term (four, not one) 15.
    from dyadbloom import operators

    calls = []

    def counted(values):
        calls.append(values)
        return analyze_leaves(values)

    b, f = _pair(8, 31)
    monkeypatch.setattr(operators, "analyze_leaves", counted)
    expansion_terms(b, f)
    assert len(calls) == 10


def test_expansion_signs_are_the_unique_working_ones():
    # negating the two paraproduct pieces (the first four of the six terms)
    # breaks the identity by an O(1) amount, so a sign regression cannot hide
    # inside the tolerance
    b, f = _pair(5, 909)
    terms = expansion_terms(b, f)
    scale = max(1.0, float(np.abs(terms.commutator).max()))
    assert terms.sign_flipped_residual() > 0.05 * scale


def test_remainder_closed_form_equals_two_term_difference():
    for seed in range(4):
        b, f = _pair(5, 800 + seed)
        terms = expansion_terms(b, f)
        rem = remainder_closed_form(b, f)
        assert np.abs(rem - terms.remainder).max() <= 1e-12


def test_expansion_pieces_match_the_dense_oracle():
    # each piece against its dense commutator: with P = Pi_b, A = Pi*_b and
    # S = Sh as matrices, [Pi_b, Sh] f = (PS - SP) f, [Pi*_b, Sh] f =
    # (AS - SA) f, and R_b f is what remains of the direct commutator C f
    for depth in (3, 4, 5, 6):
        S = oracles.shift_matrix(depth)
        for seed in range(3):
            b, f = _pair(depth, 950 + 10 * depth + seed)
            P = oracles.paraproduct_matrix(b, depth)
            A = oracles.paraproduct_adjoint_matrix(b, depth)
            C = oracles.commutator_matrix(b, depth)
            terms = expansion_terms(b, f)
            tol = 1e-12 * max(1.0, float(np.abs(terms.commutator).max()))
            para, adj = (P @ S - S @ P) @ f, (A @ S - S @ A) @ f
            np.testing.assert_allclose(terms.commutator, C @ f, rtol=0, atol=tol)
            np.testing.assert_allclose(terms.paraproduct, para, rtol=0, atol=tol)
            np.testing.assert_allclose(terms.adjoint, adj, rtol=0, atol=tol)
            np.testing.assert_allclose(terms.remainder, C @ f - para - adj, rtol=0, atol=tol)


def test_remainder_quarter_pattern_oracle():
    # Sigma bhat(I) fhat(I) |I|^{-1} (+1,-1,+1,-1) on the quarters of I
    depth = 4
    b, f = _pair(depth, 77)
    cb, cf = analyze_leaves(b), analyze_leaves(f)
    n = 1 << depth
    want = np.zeros(n)
    for k in range(depth - 1):
        for j in range(1 << k):
            i = oracles.heap_index(k, j)
            s = cb[i] * cf[i] * (1 << k)
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
    lam = Weight(np.exp(r.uniform(-1, 1, 1 << depth)))
    b, f = _pair(depth, 81)
    rem = remainder_closed_form(b, f)
    cr = analyze_leaves(rem)
    n = 1 << depth
    sq = np.zeros(n)
    for k in range(depth):
        sq += np.repeat(level(cr, k) ** 2 * (1 << k), n >> k)
    measured = float((sq * lam.values).mean())
    cb, cf = analyze_leaves(b), analyze_leaves(f)
    predicted = sum(
        float((level(cb, k) ** 2 * level(cf, k) ** 2 * (1 << k)
               * level(lam.averages, k)).sum())
        for k in range(depth - 1)
    )
    assert measured == pytest.approx(predicted, rel=1e-11)


def test_expansion_requires_admissible_inputs():
    b, f = _pair(4, 13, admissible=False)
    with pytest.raises(InadmissibleLevelError):
        expansion_terms(b, f)
    with pytest.raises(InadmissibleLevelError):
        remainder_closed_form(b, f)
