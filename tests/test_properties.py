"""Property tests: the fits routed through the local weighted-least-squares core
match the dense oracles on small random series."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from tvarch import (
    BandwidthGrid,
    CoefficientPartition,
    ReturnSeries,
    cv_bandwidth_tvarch,
    estimate_alpha,
    estimate_beta,
)
from tvarch.errors import NumericalError
from tvarch.testing import nonparametric_fit

import reference

# Well-conditioned instances only: the oracle inverts explicitly, so the
# comparison tolerance holds where the local Grams are far from the gate.
_RCOND_MIN = 1e-6

seeds = st.integers(0, 2**32 - 1)
lengths = st.integers(30, 60)
orders = st.integers(1, 3)
bandwidths = st.floats(0.2, 0.5)


def _series(seed: int, T: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=T)


def _max_rel(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@given(seed=seeds, T=lengths, p=orders, b=bandwidths)
def test_nonparametric_fit_matches_dense(seed, T, p, b):
    x = _series(seed, T)
    try:
        fit = nonparametric_fit(ReturnSeries(x), p, "level", b)
    except NumericalError:
        assume(False)
    assume(fit.rcond.min() > _RCOND_MIN)
    want = reference.dense_nonparametric(x, p, reference.level_weights(x, p), b)
    assert _max_rel(fit.a_tilde, want) <= 1e-10


@given(seed=seeds, T=lengths, p=orders, b=bandwidths, data=st.data())
def test_semiparametric_fit_matches_dense(seed, T, p, b, data):
    constant = tuple(sorted(data.draw(st.sets(st.integers(1, p), min_size=1))))
    varying = tuple(j for j in range(p + 1) if j not in constant)
    x = _series(seed, T)
    s = ReturnSeries(x)
    part = CoefficientPartition(p=p, varying=varying, constant=constant)
    try:
        fit = estimate_beta(s, part, "level", b)
        af = estimate_alpha(s, part, fit.beta, "level", b)
    except NumericalError:
        assume(False)
    assume(fit.rcond_min > _RCOND_MIN)
    want = reference.dense_semiparametric(x, varying, constant, reference.level_weights(x, p), b)
    assert _max_rel(fit.beta, want["beta"]) <= 1e-10
    assert _max_rel(af.alpha, want["alpha"]) <= 1e-10


@given(seed=seeds, T=lengths, p=orders, c=st.floats(1.0, 2.0))
def test_cv_score_matches_dense(seed, T, p, c):
    x = _series(seed, T)
    try:
        cv = cv_bandwidth_tvarch(ReturnSeries(x), p, grid=BandwidthGrid(multipliers=(c,)))
    except NumericalError:
        assume(False)
    b = float(cv.bandwidths[0])
    want = reference.dense_cv_tvarch_score(x, p, reference.level_weights(x, p), b)
    assert abs(cv.scores[0] - want) <= 1e-10 * want
