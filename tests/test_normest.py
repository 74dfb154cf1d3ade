"""Matrix-free norm engine against the dense oracles, quadratic-form
constants, Carleson checks."""

import math

import numpy as np
import pytest

import ensembles
import oracles
from dyadbloom import (
    ROOT,
    CarlesonSequence,
    DyadicInterval,
    EnsembleSpec,
    GridMismatchError,
    LeafOperator,
    BmoReport,
    Weight,
    commutator_operator,
    compute_norm_report,
    generate,
    haar_function,
    necessity_test_function_bound,
    paraproduct_adjoint_operator,
    paraproduct_operator,
    project_admissible,
    shift_operator,
)
from dyadbloom import DyadBloomError, normest
from dyadbloom.config import ExperimentConfig
from dyadbloom.normest import (
    carleson_embedding_checks,
    necessity_restriction_ratios,
    ppott_best_constants,
    weighted_operator_norms,
)
from dyadbloom.stopping import (
    deviation_factory,
    maximal_stopping_intervals,
    minimal_corona_constant,
    minimal_packing_constant,
    packing_ratio,
    square_sum_factories,
    three_condition_factory,
    threshold_factory,
)
from dyadbloom.suites import make_trial, run_suites


def _norm(T, mu, lam):
    """|| T : L^2(mu) -> L^2(lambda) ||, a one-row solve."""
    return weighted_operator_norms(T, [mu], [lam])[0].value


def _materials(depth, seed):
    r = np.random.default_rng(seed)
    mu = Weight(np.exp(r.uniform(-1, 1, 1 << depth)))
    lam = Weight(np.exp(r.uniform(-1, 1, 1 << depth)))
    b = project_admissible(r.standard_normal(1 << depth))
    return mu, lam, b


def test_closed_form_matrices_match_column_oracle():
    _, _, b = _materials(4, 21)
    d = 4
    pairs = [
        (oracles.paraproduct_matrix(b, d), paraproduct_operator(b)),
        (oracles.paraproduct_adjoint_matrix(b, d), paraproduct_adjoint_operator(b)),
        (oracles.shift_matrix(d), shift_operator(d)),
        (oracles.commutator_matrix(b, d), commutator_operator(b, shift_operator(d))),
    ]
    for closed, T in pairs:
        applied = oracles.operator_matrix(T.apply, d)
        transposed = oracles.operator_matrix(T.transpose, d)
        np.testing.assert_allclose(applied, closed, rtol=0, atol=1e-12)
        np.testing.assert_allclose(transposed, closed.T, rtol=0, atol=1e-12)


def test_shift_kernels_take_stacks_bitwise():
    # the commutator runs its two shift passes as one (2, 2^D) stack, so
    # each row must be bit for bit the single-vector result
    S = shift_operator(6)
    x = np.random.default_rng(5).standard_normal((2, 64))
    for kernel in (S.apply, S.transpose):
        stacked = kernel(x)
        for row, v in zip(stacked, x):
            assert np.array_equal(row, kernel(v))


def test_shift_transpose_coefficients():
    # the coefficient of Sh^T f on I is (fhat(I_-) - fhat(I_+)) / sqrt(2)
    f = np.random.default_rng(3).standard_normal(32)
    g = shift_operator(5).transpose(f)
    for k in range(4):
        for j in range(1 << k):
            want = (oracles.coeff(f, 5, k + 1, 2 * j)
                    - oracles.coeff(f, 5, k + 1, 2 * j + 1)) / math.sqrt(2.0)
            assert oracles.coeff(g, 5, k, j) == pytest.approx(want, abs=1e-13)
    for j in range(16):
        assert oracles.coeff(g, 5, 4, j) == pytest.approx(0.0, abs=1e-13)
    assert abs(float(g.mean())) <= 1e-15


def test_matrix_reproduces_function_on_random_vectors():
    _, _, b = _materials(5, 33)
    r = np.random.default_rng(34)
    M = oracles.commutator_matrix(b, 5)
    for _ in range(10):
        f = r.standard_normal(32)
        via_matrix = M @ f
        via_ops = commutator_operator(b, shift_operator(5)).apply(f)
        scale = max(1.0, float(np.abs(via_ops).max()))
        assert np.abs(via_matrix - via_ops).max() <= 1e-11 * scale


def test_weighted_norm_of_diagonal_operator():
    # T = diag(d) maps L^2(mu) -> L^2(lam) with norm max |d_i| sqrt(lam_i/mu_i)
    r = np.random.default_rng(4)
    d = r.uniform(-2, 2, 8)
    mu = Weight(r.uniform(0.5, 2.0, 8))
    lam = Weight(r.uniform(0.5, 2.0, 8))
    diag = lambda f: d * f  # noqa: E731
    T = LeafOperator(3, diag, diag)
    want = float(np.max(np.abs(d) * np.sqrt(lam.values / mu.values)))
    assert _norm(T, mu, lam) == pytest.approx(want, rel=1e-13)


def test_weighted_norm_matches_scaled_svd_oracle():
    mu, lam, b = _materials(4, 55)
    want = oracles.weighted_norm_oracle(
        oracles.paraproduct_matrix(b, 4), mu.values, lam.values
    )
    assert _norm(paraproduct_operator(b), mu, lam) == pytest.approx(want, rel=1e-12)


def _engine_values(depth, seed):
    """Each engine quantity of one random triple: the five norms from a raw
    symbol, ppott on mu, and the Carleson embedding of the admissible
    symbol's paraproduct sequence.  Each makes one _top_eigenvalue call."""
    mu, lam, b_adm = _materials(depth, seed)
    b = np.random.default_rng(seed + 1).standard_normal(1 << depth)
    seq = BmoReport(b_adm, mu, lam).carleson
    return {
        "paraproduct": _norm(paraproduct_operator(b), mu, lam),
        "paraproduct_adjoint": _norm(paraproduct_adjoint_operator(b), lam.inverse, mu.inverse),
        "shift_mu": _norm(shift_operator(depth), mu, mu),
        "shift_lambda": _norm(shift_operator(depth), lam, lam),
        "commutator": _norm(commutator_operator(b, shift_operator(depth)), mu, lam),
        "ppott": ppott_best_constants([mu])[0].value,
        "carleson_embedding": carleson_embedding_checks([seq])[0].value,
    }


def _dense_oracles(depth, seed):
    """The dense oracle value of each quantity in _engine_values."""
    mu, lam, b_adm = _materials(depth, seed)
    bv = np.random.default_rng(seed + 1).standard_normal(1 << depth)
    muv, lamv = mu.values, lam.values
    sh = oracles.shift_matrix(depth)
    seq = BmoReport(b_adm, mu, lam).carleson
    return {
        "paraproduct": oracles.weighted_norm_oracle(
            oracles.paraproduct_matrix(bv, depth), muv, lamv
        ),
        "paraproduct_adjoint": oracles.weighted_norm_oracle(
            oracles.paraproduct_adjoint_matrix(bv, depth), 1.0 / lamv, 1.0 / muv
        ),
        "shift_mu": oracles.weighted_norm_oracle(sh, muv, muv),
        "shift_lambda": oracles.weighted_norm_oracle(sh, lamv, lamv),
        "commutator": oracles.weighted_norm_oracle(
            oracles.commutator_matrix(bv, depth), muv, lamv
        ),
        "ppott": oracles.ppott_oracle(muv, depth),
        "carleson_embedding": oracles.carleson_embedding_oracle(
            oracles.heap_levels(seq.values, depth), 1.0 / muv, depth
        ),
    }


@pytest.mark.parametrize("depth", range(2, 11))
def test_engine_matches_dense_oracles(depth):
    got = _engine_values(depth, 900 + depth)
    for name, want in _dense_oracles(depth, 900 + depth).items():
        assert got[name] == pytest.approx(want, rel=1e-12, abs=1e-300), name


@pytest.mark.parametrize("depth", range(1, 13))
def test_engine_matches_arpack(depth, monkeypatch):
    # every top eigenvalue behind _engine_values, against ARPACK on the very
    # same matvec; ARPACK stops once the Ritz residual r is at machine
    # precision, the engine once its error estimate r^2 / gap is
    engine = normest._top_eigenvalues
    pairs = []

    def both(n, matvec, rows):
        (got,) = engine(n, matvec, rows)  # each quantity is a one-row solve
        pairs.append((got.value, oracles.eigsh_top(n, matvec)))
        return [got]

    monkeypatch.setattr(normest, "_top_eigenvalues", both)
    names = list(_engine_values(depth, 1200 + depth))
    assert len(pairs) == len(names)
    for name, (got, want) in zip(names, pairs):
        assert abs(got - want) <= 1e-13 * want, name


def test_engine_is_bitwise_repeatable():
    mu, lam, b = _materials(8, 950)
    seq = BmoReport(b, mu, lam).carleson

    def run():
        return (
            _norm(paraproduct_operator(b), mu, lam),
            _norm(paraproduct_adjoint_operator(b), lam.inverse, mu.inverse),
            _norm(shift_operator(8), mu, mu),
            _norm(commutator_operator(b, shift_operator(8)), mu, lam),
            ppott_best_constants([lam])[0].value,
            carleson_embedding_checks([seq])[0].value,
        )

    assert run() == run()


def test_zero_operators_return_exact_zero():
    # the engine reads a zero first image as 0.0, exactly, at no extra apply
    mu, lam, _ = _materials(6, 71)
    c = np.full(64, 2.5)
    assert _norm(paraproduct_operator(c), mu, lam) == 0.0
    assert _norm(commutator_operator(c, shift_operator(6)), mu, lam) == 0.0
    w1 = Weight([0.5, 3.0])
    assert _norm(shift_operator(1), w1, w1) == 0.0


def test_nonzero_operator_costs_no_extra_apply(monkeypatch):
    # the norm applies T and its transpose once per engine matvec, and no
    # more; its square agrees with ARPACK on the same normal operator
    mu, lam, b = _materials(5, 72)
    T = paraproduct_operator(b)
    calls = {"apply": 0, "transpose": 0, "matvec": 0}

    def counted(name, fn):
        def run(v):
            calls[name] += 1
            return fn(v)
        return run

    engine = normest._top_eigenvalues
    normal = []

    def counting_engine(n, matvec, rows):
        normal.append(matvec)
        return engine(n, counted("matvec", matvec), rows)

    monkeypatch.setattr(normest, "_top_eigenvalues", counting_engine)
    counting = LeafOperator(5, counted("apply", T.apply), counted("transpose", T.transpose))
    norm = _norm(counting, mu, lam)
    assert calls["apply"] == calls["transpose"] == calls["matvec"] > 0
    want = oracles.eigsh_top(32, normal[0])
    assert abs(norm**2 - want) <= 1e-13 * want


def test_rank_one_operator_stops_at_once():
    # x -> u (u.x): the Krylov space of any start vector is span{x0, u}, so
    # the second residual is Gram-Schmidt noise and the 2 x 2 projected
    # matrix already holds the eigenvalue ||u||^2.  At scales 1e-100 and
    # 1e100 the images' squared norms would underflow or overflow unscaled.
    for depth, scale in [(3, 1e-100), (8, 1.0), (12, 1e100)]:
        u = np.random.default_rng(depth).standard_normal(1 << depth) * scale
        matvecs = []

        def rank_one(x):
            matvecs.append(1)
            return u * (x @ u[:, None])

        (got,) = normest._top_eigenvalues(len(u), rank_one, 1)
        assert got.value == pytest.approx(u @ u, rel=4 * np.finfo(float).eps)
        assert len(matvecs) == got.matvecs <= 2


def _gapped_diagonal(n, gap, bulk="dense"):
    # eigenvalue 1 above 1 - gap (gap 0 makes 1 an exact double eigenvalue):
    # "dense" fills [0, 1 - gap] with the other n - 1 eigenvalues evenly, so
    # the top is resolved only after many restarts; "separated" puts n - 2 of
    # them in [0, 1/2], so the Ritz gap is first the gap to that bulk, far
    # wider than the true top gap
    if bulk == "dense":
        return np.append(np.linspace(0.0, 1.0 - gap, n - 1), 1.0)
    return np.append(np.linspace(0.0, 0.5, n - 2), [1.0 - gap, 1.0])


# theta can exceed lambda_1 by more than 4 eps on a dense bulk: the restarts
# carry the kept Ritz values into the projected matrix, and its rounding
# error builds up over the cycles, to 5 eps after 8 cycles at n = 256 with a
# double top and 57 eps after 110 cycles at n = 4096 with gap 1e-9
_DRIFT = {("dense", 256, 0.0): "5 eps after 8 restart cycles",
          ("dense", 4096, 1e-9): "57 eps after 110 restart cycles"}


@pytest.mark.parametrize("bulk, n, gap", [
    pytest.param(bulk, n, gap, marks=[pytest.mark.xfail(strict=True, reason=_DRIFT[bulk, n, gap])]
                 if (bulk, n, gap) in _DRIFT else [])
    for bulk in ("separated", "dense") for n in (256, 4096)
    for gap in (1e-1, 1e-2, 1e-4, 1e-6, 1e-9, 0.0)
])
def test_top_eigenvalue_on_adversarial_spectra(bulk, n, gap):
    # the stop test reads the Ritz gap theta_1 - theta_2, which can overstate
    # the true gap (by interlacing theta_2 <= lambda_2), so residual^2 / gap
    # is an estimate, not a bound.  Still theta is a lower bound up to
    # rounding, an unresolved top pair leaves it low by at most the pair's
    # width, and a top gap of 1e-6 or more is resolved to 1e-13
    d = _gapped_diagonal(n, gap, bulk)
    lam1, lam2 = d[-1], d[-2]
    (got,) = normest._top_eigenvalues(n, lambda x: d * x, 1)
    eps = np.finfo(float).eps
    assert got.value <= lam1 * (1 + 4 * eps)
    assert lam1 - got.value <= max(4 * eps * lam1, lam1 - lam2)
    if gap >= 1e-6:
        assert got.value == pytest.approx(lam1, rel=1e-13)


def _alone(n, ops):
    """Each operator of ops solved as a one-row problem."""
    return [normest._top_eigenvalues(n, op, 1)[0] for op in ops]


def _stacked(n, ops):
    """All of ops as one lockstep problem, row r applying ops[r] to its
    one-row stack."""
    return normest._top_eigenvalues(
        n, lambda x: np.concatenate([op(x[r : r + 1]) for r, op in enumerate(ops)]), len(ops)
    )


def test_lockstep_rows_equal_rows_alone_on_synthetic_operators():
    # a zero row (stops at its first image), a rank-one row (second step),
    # a diagonal with a clustered top (many restarts), a plain diagonal and
    # a diagonal with a top gap of 1e-2, stacked in two orders: every row's
    # value, matvec count, residual and gap are those of the row solved
    # alone, also for rows that retire in the middle of a restart cycle
    n = 256
    r = np.random.default_rng(31)
    u = r.standard_normal(n)
    gapped = _gapped_diagonal(n, 1e-2)
    ops = [
        lambda x: 0.0 * x,
        lambda x: u * (x @ u[:, None]),
        lambda x: np.sqrt(np.linspace(0.1, 1.0, n)) * x,
        lambda x: np.arange(n) ** 4.0 * x,
        lambda x: gapped * x,
    ]
    alone = _alone(n, ops)
    assert alone[0] == (0.0, 1, 0.0, 0.0)
    assert alone[1].matvecs <= 2
    assert len({e.matvecs for e in alone}) == 5  # the rows retire at different steps
    # past the first 20 steps a cycle runs 10 steps: at least two rows stop
    # inside one, while the rows around them go on
    assert sum(e.matvecs > 20 and e.matvecs % 10 != 0 for e in alone) >= 2
    assert _stacked(n, ops) == alone
    assert _stacked(n, ops[::-1]) == alone[::-1]


def test_one_row_solve_is_a_one_row_stack():
    # the engine hands every matvec a (rows, n) stack, one row included: a
    # matvec that takes only stacks solves alone what it solves as a row of
    # a two-row lockstep, where the other row stops at a different step
    n = 256
    d = np.sqrt(np.linspace(0.1, 1.0, n))
    e = _gapped_diagonal(n, 1e-2)

    def stacks_only(x):
        if x.ndim != 2:
            raise ValueError("a matvec takes a (rows, n) stack")
        return d * x

    (alone,) = normest._top_eigenvalues(n, stacks_only, 1)
    first, other = normest._top_eigenvalues(
        n, lambda x: np.concatenate([stacks_only(x[:1]), e * x[1:]]), 2)
    assert (first.value, first.matvecs) == (alone.value, alone.matvecs)
    assert first == alone
    assert other.matvecs != alone.matvecs


def _depth8_rows(count, seed):
    # count (b, mu, lam) triples of the default ensembles
    from dyadbloom import EnsembleSpec, generate

    return [
        (project_admissible(generate(EnsembleSpec(kind="log-symbol", depth=8, seed=seed + 3 * i + 2,
                                                  delta=0.3))),
         generate(EnsembleSpec(kind="cascade", depth=8, seed=seed + 3 * i, delta=0.4)),
         generate(EnsembleSpec(kind="cascade", depth=8, seed=seed + 3 * i + 1, delta=0.4)))
        for i in range(count)
    ]


def test_lockstep_rows_equal_rows_alone_on_real_plans():
    rows = _depth8_rows(4, 40)
    bs, mus, lams = zip(*rows)
    zero = np.zeros(256)
    shift = shift_operator(8)
    for plan in (paraproduct_operator, paraproduct_adjoint_operator,
                 lambda b: commutator_operator(b, shift)):
        stacked = normest.weighted_operator_norms(plan([*bs, zero]), [*mus, mus[0]],
                                                  [*lams, lams[0]])
        alone = [normest.weighted_operator_norms(plan(b), [mu], [lam])[0]
                 for b, mu, lam in rows]
        assert stacked[:4] == alone
        assert stacked[4] == (0.0, 1, 0.0, 0.0)
    assert normest.ppott_best_constants(mus) == [
        normest.ppott_best_constants([w])[0] for w in mus
    ]
    seqs = [BmoReport(zero, mus[0], lams[0]).carleson]
    seqs += [BmoReport(b, mu, lam).carleson for b, mu, lam in rows]
    assert normest.carleson_embedding_checks(seqs)[1:] == [
        carleson_embedding_checks([q])[0] for q in seqs[1:]
    ]
    assert normest.carleson_embedding_checks(seqs)[0] == (0.0, 1, 0.0, 0.0)


def test_paraproduct_suite_makes_one_normal_apply_per_lockstep_step(monkeypatch):
    # 5 trials at D=8 form one group: the paraproduct norms of all five are
    # one solve, whose stacked normal runs once per step, as many steps as
    # the slowest row needs, not the sum of the rows' counts
    engine = normest._top_eigenvalues
    solves = []

    def counting(n, matvec, rows):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return matvec(x)

        got = engine(n, counted, rows)
        solves.append((rows, calls[0], [e.matvecs for e in got]))
        return got

    monkeypatch.setattr(normest, "_top_eigenvalues", counting)
    run_suites(ExperimentConfig(trials=5, suites=("paraproduct-bounds",)))
    assert [rows for rows, _, _ in solves] == [5, 5]
    for _, calls, per_row in solves:
        assert calls == max(per_row) < sum(per_row)


@pytest.mark.parametrize("depth, shift_rows, ppott_rows", [(12, [2], [2, 2]), (13, [1, 1], [1] * 4)])
def test_width_cap_bounds_rows_times_leaves(depth, shift_rows, ppott_rows, monkeypatch):
    # a lockstep solve holds at most 2^13 leaves: a report solves the
    # paraproduct, the shifts and the commutator, its two shift norms
    # sharing a solve at D=12, and two ppott trials (a mu and a lambda
    # row each) make two two-row solves; at D=13 every solve has one row,
    # as before lockstep solves existed (the last 1 is the constant-weight
    # assertion's own solve)
    engine = normest._top_eigenvalues
    seen = []

    def recording(n, matvec, rows):
        seen.append(rows)
        return engine(n, matvec, rows)

    monkeypatch.setattr(normest, "_top_eigenvalues", recording)
    mu, lam, b = _materials(depth, 7)
    compute_norm_report(b, mu, lam)
    assert seen == [1, *shift_rows, 1]
    seen.clear()
    run_suites(ExperimentConfig(depth=depth, trials=2, suites=("ppott",)))
    assert seen == [*ppott_rows, 1]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_matvec_raises(bad):
    one = Weight(np.ones(8))
    T = LeafOperator(3, lambda f: np.full(8, bad), lambda g: np.asarray(g, float).copy())
    with pytest.raises(ValueError, match="not finite"):
        _norm(T, one, one)


# compute_norm_report(...).to_dict() for one seeded D=8 triple, every float
# as float.hex, recorded from the thick-restart Lanczos engine.  The report is
# deterministic, so not one bit may move without a stated reason.  To
# re-record after a change that is meant to move them (and say so in
# CHANGES.md):  PYTHONPATH=src python tests/test_normest.py
# It prints every pin it moves (old -> new, hex and decimal), then the tables.
_PINNED_D8_REPORT = {
    "a2_lambda": "0x1.b4d4d4dffe061p+0",
    "a2_mu": "0x1.8766bd553978bp+0",
    "a2_rho": "0x1.3c6c586fd2495p+0",
    "bmo.bloom_b2": "0x1.85baede560a1dp-1",
    "bmo.bloom_b2_dual": "0x1.6d14c39a3b6efp-1",
    "bmo.bloom_b2_l2form": "0x1.8eb45a3f71389p-1",
    "bmo.bmo_rho": "0x1.18b7682203cc5p-1",
    "bmo.bmo_rho_l1": "0x1.504c95913b235p-1",
    "bmo.neccon": "0x1.64099d147a516p-1",
    "norm_commutator": "0x1.8331849088937p+0",
    "norm_paraproduct": "0x1.dbcb8c726124cp-1",
    "norm_paraproduct_adjoint": "0x1.dbcb8c726124cp-1",
    "norm_shift_lambda": "0x1.eea664626a34bp+0",
    "norm_shift_mu": "0x1.c8e669470426ap+0",
    "ratios.adjoint_over_bloom_b2_dual": "0x1.4da25bc4c219ap+0",
    "ratios.bloom_b2_over_paraproduct": "0x1.a362d7c19b88bp-1",
    "ratios.bmo_rho_over_commutator": "0x1.73339ae6fe4fbp-2",
    "ratios.commutator_over_bmo_rho": "0x1.611a18f0a0aa7p+1",
    "ratios.l2form_over_bloom_b2": "0x1.05e518a0713b7p+0",
    "ratios.paraproduct_over_bloom_b2": "0x1.38887315fc716p+0",
    "ratios.shift_mu_norm_over_sqrt_a2": "0x1.71836576723a2p+0",
}


_PINNED_D8_DIAGNOSTICS = {
    "norm_paraproduct": (13, "0x1.896d5776e5deep-30", "0x1.8b9b6c74b0f06p-2"),
    "norm_paraproduct_adjoint": (13, "0x1.896d5776e5deep-30", "0x1.8b9b6c74b0f06p-2"),
    "norm_shift_mu": (22, "0x1.c96b1a63162b4p-28", "0x1.dfc24dce3e350p-3"),
    "norm_shift_lambda": (18, "0x1.4d9b0fc0fb493p-26", "0x1.cd92ad7c3d23cp-1"),
    "norm_commutator": (16, "0x1.4d779a21e6b35p-29", "0x1.05fb893d6ca10p-2"),
}


def _d8_report() -> dict:
    from dyadbloom import EnsembleSpec, generate

    mu = generate(EnsembleSpec(kind="cascade", depth=8, seed=11, delta=0.4))
    lam = generate(EnsembleSpec(kind="cascade", depth=8, seed=12, delta=0.4))
    b = generate(EnsembleSpec(kind="log-symbol", depth=8, seed=13, delta=0.3))
    return compute_norm_report(b, mu, lam).to_dict()


def _report_floats(d: dict) -> dict:
    got = {}
    for prefix, part in (("", d), ("bmo.", d["bmo"]), ("ratios.", d["ratios"])):
        got.update({prefix + k: v.hex() for k, v in part.items() if isinstance(v, float)})
    return dict(sorted(got.items()))


def _report_diagnostics(d: dict) -> dict:
    # per norm: the Lanczos matvecs and the final Ritz residual and gap of W'W
    return {k: (v["matvecs"], v["ritz_residual"].hex(), v["ritz_gap"].hex())
            for k, v in d["diagnostics"].items()}


def test_norm_report_is_bitwise_pinned():
    d = _d8_report()
    assert _report_floats(d) == _PINNED_D8_REPORT
    assert (d["depth"], d["shift_truncated"]) == (8, True)
    assert d["bmo"]["argmax"] == {
        "bloom_b2": {"level": 5, "position": 30},
        "bloom_b2_dual": {"level": 6, "position": 60},
        "bloom_b2_l2form": {"level": 5, "position": 30},
        "bmo_rho": {"level": 0, "position": 0},
        "bmo_rho_l1": {"level": 7, "position": 120},
        "neccon": {"level": 5, "position": 30},
    }
    # each solve met the stop test r^2 <= eps theta max(gap, r), theta the
    # top Ritz value (the norm squared), r its residual and gap its Ritz gap
    assert _report_diagnostics(d) == _PINNED_D8_DIAGNOSTICS
    for name, v in d["diagnostics"].items():
        r = v["ritz_residual"]
        assert r * r <= np.finfo(float).eps * d[name] ** 2 * max(v["ritz_gap"], r)


@pytest.mark.parametrize("depth", range(2, 11))
def test_report_adjoint_norm_matches_dense_adjoint(depth):
    # the report takes ||Pi*_b|| from the paraproduct's solve (duality), so
    # it is held here to the SVD of the dense adjoint matrix, not to itself
    mu, lam, _ = _materials(depth, 1000 + depth)
    b = np.random.default_rng(1100 + depth).standard_normal(1 << depth)
    rep = compute_norm_report(b, mu, lam)
    want = oracles.weighted_norm_oracle(
        oracles.paraproduct_adjoint_matrix(b, depth), 1.0 / lam.values, 1.0 / mu.values
    )
    assert rep.norm_paraproduct_adjoint == pytest.approx(want, rel=1e-12)
    assert rep.norm_paraproduct_adjoint == rep.norm_paraproduct


def test_clustered_top_spectrum_converges_within_the_restart_cap():
    # diag(sqrt(linspace(0.1, 1, n))) clusters its top eigenvalues, so the
    # solve needs many restarts (about 70 at D=12); its top eigenvalue is 1
    n = 1 << 12
    d = np.sqrt(np.linspace(0.1, 1.0, n))
    (got,) = normest._top_eigenvalues(n, lambda x: d * x, 1)
    assert abs(got.value - 1.0) <= 1e-13


def test_restart_cap_is_ten_restarts_per_leaf():
    # fresh noise on every call is no linear operator, so no step meets the
    # stop test: the solve runs its 20 first steps, then 10 per restart,
    # until the cap of 10 n restarts, and the error names the cap
    n = 32
    noise = np.random.default_rng(3)
    calls = []

    def not_linear(x):
        calls.append(1)
        return noise.standard_normal(x.shape)

    with pytest.raises(DyadBloomError, match=r"restart cap of 320 restarts \(10 n, n = 32\)"):
        normest._top_eigenvalues(n, not_linear, 1)
    assert len(calls) == 20 + 10 * (320 - 1)


@pytest.mark.parametrize("depth", [1, 2, 8])
def test_constant_symbol_report_has_zero_symbol_norms(depth):
    r = np.random.default_rng(960 + depth)
    mu = Weight(np.exp(r.uniform(-1, 1, 1 << depth)))
    lam = Weight(np.exp(r.uniform(-1, 1, 1 << depth)))
    rep = compute_norm_report(np.full(1 << depth, 2.5), mu, lam)
    assert rep.norm_paraproduct == 0.0
    assert rep.norm_paraproduct_adjoint == 0.0
    assert rep.norm_commutator == 0.0
    sh = oracles.shift_matrix(depth)
    want = oracles.weighted_norm_oracle(sh, mu.values, mu.values)
    assert rep.norm_shift_mu == pytest.approx(want, rel=1e-12, abs=1e-300)
    if depth == 1:
        assert rep.norm_shift_mu == 0.0 and rep.norm_shift_lambda == 0.0
    else:
        assert rep.norm_shift_mu > 0.0 and rep.norm_shift_lambda > 0.0


def test_power_iteration_agrees_with_dense():
    mu, lam, b = _materials(5, 66)
    M = oracles.commutator_matrix(b, 5)
    W = np.sqrt(lam.values)[:, None] * M / np.sqrt(mu.values)[None, :]
    powr = oracles.power_iteration_norm(W, tol=1e-9).norm
    assert powr == pytest.approx(oracles.weighted_norm_oracle(M, mu.values, lam.values), rel=1e-7)
    engine = _norm(commutator_operator(b, shift_operator(5)), mu, lam)
    assert powr == pytest.approx(engine, rel=1e-7)


def test_power_iteration_bracket_contains_sigma_max():
    r = np.random.default_rng(8)
    W = r.standard_normal((40, 40))
    res = oracles.power_iteration_norm(W, tol=1e-8)
    truth = float(np.linalg.norm(W, 2))
    assert res.lower <= truth * (1 + 1e-12)
    assert res.upper >= truth * (1 - 1e-12)
    assert res.upper - res.lower <= 1e-7 * truth + 1e-12
    assert res.iterations >= 1


def test_norm_duality_between_paraproduct_and_adjoint():
    # ||Pi_b : L^2(mu) -> L^2(lam)|| = ||Pi*_b : L^2(lam^{-1}) -> L^2(mu^{-1})||
    mu, lam, b = _materials(5, 88)
    n1 = _norm(paraproduct_operator(b), mu, lam)
    n2 = _norm(paraproduct_adjoint_operator(b), lam.inverse, mu.inverse)
    assert n1 == pytest.approx(n2, rel=1e-12)


def test_shift_matrix_is_truncated_and_norm_one():
    one = Weight(np.ones(32))
    S = shift_operator(5)
    deepest = haar_function(5, DyadicInterval(4, 3))
    assert not np.any(S.apply(deepest))
    assert _norm(S, one, one) == pytest.approx(1.0, abs=1e-12)


def test_best_quadratic_constant_known_pencil():
    A = np.diag([2.0, 0.5])
    G = np.eye(2)
    assert oracles.best_quadratic_constant(A, G) == pytest.approx(2.0, rel=1e-14)
    # scaling G scales the constant inversely
    assert oracles.best_quadratic_constant(A, 4.0 * G) == pytest.approx(0.5, rel=1e-14)


def test_best_quadratic_constant_rejects_bad_inputs():
    bad = oracles.NotPositiveDefiniteError
    with pytest.raises(bad):
        oracles.best_quadratic_constant(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(bad):
        oracles.best_quadratic_constant(np.eye(2), np.diag([1.0, 0.0]))
    with pytest.raises(bad):
        oracles.best_quadratic_constant(np.diag([-1.0, 1.0]), np.eye(2))
    with pytest.raises(ValueError):
        oracles.best_quadratic_constant(np.eye(3), np.eye(2))


def test_ppott_constant_weight_gives_one():
    w = Weight(np.full(16, 3.0))
    assert ppott_best_constants([w])[0].value == pytest.approx(1.0, rel=1e-12)


def test_ppott_witness_lower_bound():
    # f = w sign(h_I) on I makes the single-I term equal the right side, so
    # the best constant is always >= 1
    for seed in range(4):
        mu, _, _ = _materials(4, 400 + seed)
        assert ppott_best_constants([mu])[0].value >= 1.0 - 1e-12


def test_ppott_forms_shapes_and_symmetry():
    mu, _, _ = _materials(3, 5)
    A, G = oracles.ppott_forms(mu.values, 3)
    assert A.shape == (8, 8) and G.shape == (8, 8)
    np.testing.assert_allclose(A, A.T, rtol=0, atol=1e-15)


def test_carleson_constant_matches_oracle():
    r = np.random.default_rng(12)
    w = Weight(np.exp(r.uniform(-1, 1, 16)))
    vals = [r.uniform(0.0, 1.0, 1 << k) for k in range(4)]
    seq = CarlesonSequence(oracles.heap_from(0.0, vals), w)
    want = oracles.carleson_oracle(vals, w.values, 4)
    assert seq.constant == pytest.approx(want, rel=1e-13)


def test_carleson_single_root_mass_example():
    one = Weight(np.ones(8))
    seq = CarlesonSequence([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], one)
    assert seq.constant == 1.0
    # phi = 1 achieves E^w_root(phi)^2 = ||phi||^2, so C* = 1 exactly
    assert carleson_embedding_checks([seq])[0].value == pytest.approx(1.0, rel=1e-12)


def test_carleson_sequence_validation():
    one = Weight(np.ones(8))
    with pytest.raises(ValueError, match="finite and >= 0"):
        CarlesonSequence(oracles.heap_from(0.0, [[-1.0], np.zeros(2), np.zeros(4)]), one)
    # two levels against a depth-3 weight: the depths differ
    with pytest.raises(GridMismatchError):
        CarlesonSequence(oracles.heap_from(0.0, [[1.0], np.zeros(2)]), one)
    # no heap: 7 entries, or levels on a second axis
    with pytest.raises(ValueError, match="2\\^D entries"):
        CarlesonSequence(np.ones(7), one)
    with pytest.raises(ValueError, match="2\\^D entries"):
        CarlesonSequence(np.ones((2, 4)), one)


# every entry point that reads a symbol and weights together, given a
# depth-4 symbol and depth-6 weights (or weights of depths 4 and 6)
_MISMATCHED = {
    "BmoReport": BmoReport,
    # each functional and Carleson sequence of a mismatched report, read or
    # not, raises
    **{name: lambda b, mu, lam, name=name: getattr(BmoReport(b, mu, lam), name)
       for name in (*BmoReport.NAMES, "carleson", "carleson_dual")},
    "necessity_test_function_bound": lambda b, mu, lam: necessity_test_function_bound(
        BmoReport(b, mu, lam)),
    "compute_norm_report": compute_norm_report,
    "weighted_operator_norms": lambda b, mu, lam: weighted_operator_norms(
        paraproduct_operator(b), [mu], [lam]),
    "weighted_operator_norms-rows": lambda b, mu, lam: weighted_operator_norms(
        shift_operator(6), [mu, Weight(np.exp(b))], [lam, lam]),
    "ppott_best_constants": lambda b, mu, lam: ppott_best_constants(
        [Weight(np.exp(b)), mu]),
    "CarlesonSequence": lambda b, mu, lam: CarlesonSequence(np.zeros(16), mu),
    "carleson_embedding_checks": lambda b, mu, lam: carleson_embedding_checks([
        CarlesonSequence(np.zeros(1 << w.depth), w) for w in (Weight(np.exp(b)), mu)
    ]),
    "paraproduct_operator-rows": lambda b, mu, lam: paraproduct_operator([b, mu.values]),
    "three_condition_factory": lambda b, mu, lam: three_condition_factory(
        mu, Weight(np.sqrt(mu.values / lam.values)), b, 2.0, 1.0),
    "three_condition_factory-mu": lambda b, mu, lam: three_condition_factory(
        mu, Weight(np.exp(b)), b, 2.0, 1.0),
    "square_sum_factories": lambda b, mu, lam: square_sum_factories(
        b, Weight(np.sqrt(mu.values / lam.values)), 1.0),
    # the stopping searches: a rule on b's depth-4 grid, a depth-6 weight
    "deviation_factory": lambda b, mu, lam: deviation_factory([Weight(np.exp(b)), mu], 2.0),
    "minimal_packing_constant": lambda b, mu, lam: minimal_packing_constant(
        lambda C: deviation_factory(Weight(np.exp(b)), C), mu),
    "minimal_corona_constant": lambda b, mu, lam: minimal_corona_constant(
        lambda C: deviation_factory(Weight(np.exp(b)), C), mu),
    "minimal_corona_constant-start": lambda b, mu, lam: minimal_corona_constant(
        lambda C: deviation_factory(Weight(np.exp(b)), C), mu, start=1.5),
    "packing_ratio": lambda b, mu, lam: packing_ratio(
        maximal_stopping_intervals(ROOT, threshold_factory(Weight(np.exp(b)))), mu),
}


@pytest.mark.parametrize("name", sorted(_MISMATCHED))
def test_mismatched_depths_raise_grid_mismatch(name):
    b = generate(EnsembleSpec(kind="log-symbol", depth=4, seed=1))
    mu, lam = (generate(EnsembleSpec(kind="cascade", depth=6, seed=s)) for s in (2, 3))
    with pytest.raises(GridMismatchError, match=r"depths \[4, 6\]"):
        _MISMATCHED[name](b, mu, lam)


@pytest.mark.parametrize("kind", ensembles.KINDS)
@pytest.mark.parametrize("depth", [1, 3, 5])
def test_paraproduct_sequence_carleson_equals_bloom_squared(depth, kind):
    # the report's sequences, their constants and bloom_b2 share bmo.py's
    # Carleson kernels, so each is held to the nested-loop oracles, not to
    # the other: the sequence's entries through carleson_oracle, its
    # constant through bloom_oracle and bloom_dual_oracle
    b, mu, lam = ensembles.triple(depth, kind, 500 + 10 * depth + ensembles.KINDS.index(kind))
    rep = BmoReport(b, mu, lam)
    for seq, bloom, oracle in (
        (rep.carleson, rep.bloom_b2, oracles.bloom_oracle),
        (rep.carleson_dual, rep.bloom_b2_dual, oracles.bloom_dual_oracle),
    ):
        want = oracle(b, mu.values, lam.values, depth) ** 2
        assert seq.constant == pytest.approx(want, rel=1e-12)
        levels = oracles.heap_levels(seq.values, depth)
        assert oracles.carleson_oracle(levels, seq.weight.values, depth) == (
            pytest.approx(want, rel=1e-12)
        )
        assert bloom**2 == pytest.approx(want, rel=1e-12)


def test_both_bloom_functionals_are_their_sequences_carleson_roots_bitwise():
    # bloom_b2 and bloom_b2_dual are the roots of their Carleson sequences'
    # constants, and each sequence is tested against its own weight (the
    # dual against lambda itself, not 1/(1/lambda)): a sequence rebuilt from
    # the same entries and weight gives the same constant
    cfg = ExperimentConfig(depth=6, trials=37, seed=7)
    for t in range(cfg.trials):
        td = make_trial(cfg, t)
        for seq, weight, bloom in (
            (td.bmo.carleson, td.mu.inverse, td.bmo.bloom_b2),
            (td.bmo.carleson_dual, td.lam, td.bmo.bloom_b2_dual),
        ):
            assert seq.weight is weight
            assert bloom == math.sqrt(CarlesonSequence(seq.values, weight).constant)


def test_embedding_constant_sits_in_the_classical_window():
    for seed in range(4):
        mu, lam, b = _materials(4, 600 + seed)
        seq = BmoReport(b, mu, lam).carleson
        best = carleson_embedding_checks([seq])[0].value
        if seq.constant > 0:
            assert best >= seq.constant * (1 - 1e-9)
            assert best <= 4.0 * seq.constant * (1 + 1e-9)


def test_necessity_single_scale_ratio_is_one(unit_weight):
    # b = h_root with mu = lam = 1: no coarser intervals exist, so the
    # restricted sum and the test-function image coincide at the root
    one = unit_weight(3)
    b = haar_function(3, DyadicInterval(0, 0))
    assert necessity_test_function_bound(BmoReport(b, one, one)) == pytest.approx(1.0, rel=1e-12)


def test_necessity_constant_symbol_reports_zero(unit_weight):
    one = unit_weight(3)
    const = np.full(8, 2.0)
    assert necessity_test_function_bound(BmoReport(const, one, one)) == 0.0


@pytest.mark.parametrize("depth", range(1, 11))
def test_necessity_ratios_match_per_interval_oracle(depth):
    zero_rows = 0
    for i, ensemble in enumerate(ensembles.KINDS):
        b, mu, lam = ensembles.triple(depth, ensemble, 900 + 10 * depth + i)
        got = necessity_restriction_ratios(BmoReport(b, mu, lam))
        want = oracles.necessity_restriction_ratios_oracle(
            b, mu.values, lam.values, depth
        )
        assert got.shape == (1 << depth,) and got[0] == 0.0
        for g, w in zip(oracles.heap_levels(got, depth), want, strict=True):
            np.testing.assert_array_equal(g == 0.0, w == 0.0)
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)
            zero_rows += int((w == 0.0).sum())
    if depth >= 3:
        assert zero_rows > 0


def test_norm_report_end_to_end():
    mu, lam, b = _materials(4, 700)
    rep = compute_norm_report(b, mu, lam)
    d = rep.to_dict()
    for key in (
        "depth",
        "a2_mu",
        "a2_lambda",
        "a2_rho",
        "bmo",
        "norm_paraproduct",
        "norm_paraproduct_adjoint",
        "norm_shift_mu",
        "norm_shift_lambda",
        "norm_commutator",
        "shift_truncated",
        "ratios",
        "diagnostics",
    ):
        assert key in d
    assert d["depth"] == 4
    assert rep.norm_paraproduct > 0
    assert rep.norm_commutator > 0
    assert rep.ratios["commutator_over_bmo_rho"] == pytest.approx(
        rep.norm_commutator / rep.bmo.bmo_rho, rel=1e-12
    )
    assert not rep.shift_truncated  # b was projected to admissible levels
    raw = np.random.default_rng(1).standard_normal(16)
    rep_raw = compute_norm_report(raw, mu, lam)
    assert rep_raw.shift_truncated


def test_indicator_average_identity():
    # averaging against an indicator recovers interval averages; guards the
    # expectation_matrix oracle behind the embedding check
    r = np.random.default_rng(9)
    f = r.standard_normal(16)
    iv = DyadicInterval(2, 1)
    chi = oracles.indicator_leaves(4, iv.level, iv.position)
    assert float((f * chi).mean()) / oracles.interval_length(iv) == pytest.approx(
        oracles.interval_average(f, iv), rel=1e-14
    )


if __name__ == "__main__":
    # prints every pin the re-record moves (old -> new, hex and decimal),
    # then the two pin tables above, to paste over them
    from test_suite_pins import pin_changes

    report = _d8_report()
    tables = {"_PINNED_D8_REPORT": _report_floats(report),
              "_PINNED_D8_DIAGNOSTICS": _report_diagnostics(report)}
    changes = pin_changes({"_PINNED_D8_REPORT": _PINNED_D8_REPORT,
                           "_PINNED_D8_DIAGNOSTICS": _PINNED_D8_DIAGNOSTICS}, tables)
    print("\n".join(changes) if changes else "no pin moves", end="\n\n")
    for name, table in tables.items():
        print(f"{name} = {{")
        for k, v in table.items():
            print(f"    {k!r}: {v!r},".replace("'", '"'))
        print("}\n")
