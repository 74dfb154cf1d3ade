"""Stacked plans and forms: a stack of rows is bit for bit the rows alone.

The lockstep solves run one plan over a (rows, 2^D) stack, with one symbol
and one weight pair per row.  Each row must come out exactly as it does
when applied alone, or a trial's values would depend on its group.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadbloom import BmoReport, Weight
from dyadbloom import normest
from dyadbloom.normest import (
    TopEigen,
    carleson_embedding_checks,
    ppott_best_constants,
    weighted_operator_norms,
)
from dyadbloom.operators import (
    commutator_operator,
    paraproduct_adjoint_operator,
    paraproduct_operator,
    shift_operator,
)


def _plans(depth, c):
    """Plan builders over a symbol list: both paraproducts, and the
    commutators with the shift and with the paraproduct of one symbol c."""
    shift, pi_c = shift_operator(depth), paraproduct_operator(c)
    return (paraproduct_operator, paraproduct_adjoint_operator,
            lambda bs: commutator_operator(bs, shift),
            lambda bs: commutator_operator(bs, pi_c))


def _form(solve, *args):
    """The matvec a lockstep solve hands to the engine."""
    seen = []

    def capture(n, matvec, rows):
        seen.append(matvec)
        return [TopEigen(1.0, 0, 0.0, 0.0)] * rows

    with mock.patch.object(normest, "_top_eigenvalues", capture):
        solve(*args)
    return seen[0]


def _assert_rows(stacked, alone, x):
    out = stacked(x)
    for r in range(len(x)):
        assert np.array_equal(out[r], alone[r](x[r : r + 1])[0])


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 10), rows=st.integers(1, 6),
       decades=st.floats(0.0, 8.0), seed=st.integers(0, 2**32 - 1))
def test_stacked_kernels_and_forms_equal_rows_alone(depth, rows, decades, seed):
    rng = np.random.default_rng(seed)
    n = 1 << depth

    def leaves():
        return 10.0 ** rng.uniform(-decades, decades, n)

    mus = [Weight(leaves()) for _ in range(rows)]
    lams = [Weight(leaves()) for _ in range(rows)]
    bs = [rng.standard_normal(n) * leaves() for _ in range(rows)]
    x = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-decades, decades, (rows, n))

    for plan in _plans(depth, rng.standard_normal(n) * leaves()):
        stacked, alone = plan(bs), [plan(b) for b in bs]
        for kernel in ("apply", "transpose"):
            out = getattr(stacked, kernel)(x)
            for r in range(rows):
                assert np.array_equal(out[r], getattr(alone[r], kernel)(x[r]))
        _assert_rows(
            _form(weighted_operator_norms, stacked, mus, lams),
            [_form(weighted_operator_norms, alone[r], [mus[r]], [lams[r]])
             for r in range(rows)],
            x,
        )
    shift = shift_operator(depth)
    for kernel in (shift.apply, shift.transpose):
        out = kernel(x)
        for r in range(rows):
            assert np.array_equal(out[r], kernel(x[r]))
    _assert_rows(
        _form(weighted_operator_norms, shift, mus, lams),
        [_form(weighted_operator_norms, shift, [mu], [lam]) for mu, lam in zip(mus, lams)],
        x,
    )
    _assert_rows(
        _form(ppott_best_constants, mus),
        [_form(ppott_best_constants, [w]) for w in mus],
        x,
    )
    seqs = [BmoReport(b, mu, lam).carleson for b, mu, lam in zip(bs, mus, lams)]
    _assert_rows(
        _form(carleson_embedding_checks, seqs),
        [_form(carleson_embedding_checks, [q]) for q in seqs],
        x,
    )
