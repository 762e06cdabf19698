"""Property tests: the smoother matches an explicit double loop on both of its
paths, the fits routed through the local weighted-least-squares core, the
constancy statistic and the semiparametric cross-validation match the dense
oracles on small random series, the plug-in alpha sweep matches its oracle
across chunk edges and gates the whole grid once, and the certified rcond gate decides exactly as the
eigenvalue gate and certifies only what that gate passes."""

import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tvarch import (
    BandwidthGrid,
    CoefficientPartition,
    ReturnSeries,
    cv_bandwidth_semiparametric,
    cv_bandwidth_tvarch,
    estimate,
    estimate_alpha,
    estimate_alpha_plugin,
    estimate_beta,
    kernels,
)
from tvarch.errors import NumericalError, SingularMomentError
from tvarch.estimate import _certify, _psd_rcond, _solve_gated
from tvarch.testing import constancy_statistic, nonparametric_fit

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


_BLOCK = kernels._BLOCK


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@given(
    seed=seeds,
    trailing=st.sampled_from([(), (1,), (2,), (3,), (7,), (1, 2), (2, 2), (3, 4)]),
    column_major=st.booleans(),
    data=st.data(),
)
def test_local_sums_match_dense_loop(n, seed, trailing, column_major, data):
    # Block edges, column counts from 1 to 12, signed values, 1-D to 3-D
    # input, windows longer than 2n - 1 (trimmed), and the transposed layout
    # the local weighted-least-squares core hands over.
    half = data.draw(st.integers(0, 2 * n + 2))
    rng = np.random.default_rng(seed)
    window = rng.uniform(size=2 * half + 1) * (rng.uniform(size=2 * half + 1) > 0.1)
    values = rng.normal(size=(n,) + trailing) * np.exp(rng.normal(size=(n,) + trailing))
    if column_major and len(trailing) == 1:
        values = np.ascontiguousarray(values.T).T
    got = kernels.local_sums(values, window)
    want = reference.dense_local_sums(values, window)
    scale = reference.dense_local_sums(np.abs(values), window)
    assert got.shape == values.shape
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@given(seed=seeds, T=lengths, p=orders, b=bandwidths)
def test_nonparametric_fit_matches_dense(seed, T, p, b):
    x = _series(seed, T)
    try:
        fit = nonparametric_fit(ReturnSeries(x), p, "level", b)
    except NumericalError:
        assume(False)
    assume(_psd_rcond(fit.gram).min() > _RCOND_MIN)
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


@given(
    seed=seeds,
    T=st.integers(40, 120),
    m=orders,
    mu=st.sampled_from([0.0, 0.5]),
    b=st.floats(0.1, 0.25),
    centers=st.integers(1, 4),
    zeroed=st.booleans(),
)
def test_plugin_alpha_matches_dense_across_chunk_edges(seed, T, m, mu, b, centers, zeroed):
    # Chunks of a few centers, so that the sweep has interior chunks (every
    # window in range) between its edge chunks.  With ``zeroed`` the first
    # interior chunk's alpha_init rows are zero and beta is zero, so every
    # sigma^2 of its windows is floored.
    p = 3
    x = _series(seed, T)
    n_t, L = T - p, kernels.kernel_window(T, b).shape[0]
    half = (L - 1) // 2
    varying, constant = tuple(range(m)), tuple(range(m, p + 1))
    rng = np.random.default_rng(seed)
    beta = np.zeros(p + 1 - m) if zeroed else rng.uniform(0.1, 0.5, p + 1 - m)
    alpha_init = rng.uniform(0.5, 2.0, (n_t, m))
    lo = -(-half // centers) * centers  # the first interior chunk
    assume(lo + centers - 1 + half <= n_t - 1)
    if zeroed:
        alpha_init[lo : lo + centers] = 0.0
    part = CoefficientPartition(p=p, varying=varying, constant=constant)
    with mock.patch.object(estimate, "_SWEEP_CELLS", centers * L):
        alpha, se, floored = estimate_alpha_plugin(ReturnSeries(x), part, beta, b, alpha_init, 1.7, mu)
    ref_alpha, ref_se, ref_floored = reference.dense_alpha_plugin(x, varying, constant, beta, b, alpha_init, 1.7, mu)
    assert floored == ref_floored == (centers * L if zeroed else 0)
    assert _max_rel(alpha, ref_alpha) <= 1e-10
    assert _max_rel(se, ref_se) <= 1e-10


def test_plugin_alpha_gates_the_whole_grid_once():
    # A zero run in x zeroes the lag column of M on whole windows, so the
    # plug-in s3 is singular from a center inside an interior chunk on.  One
    # gate over every center reports the eigenvalue gate's first singular
    # center on the dense moments.
    T, b, centers = 120, 0.1, 3
    varying, constant = (0, 1), (2,)
    part = CoefficientPartition(p=2, varying=varying, constant=constant)
    n_t, L = T - 2, kernels.kernel_window(T, b).shape[0]
    beta = np.array([0.3])
    alpha_init = np.random.default_rng(44).uniform(0.5, 2.0, (n_t, 2))
    x = np.random.default_rng(43).normal(size=T)
    healthy = x.copy()
    x[50:90] = 0.0
    gram, cross, _ = reference.dense_plugin_moments(x, varying, constant, beta, b, alpha_init)
    verdict, t, rcond = reference.eigvalsh_gate_solve(gram, cross[..., None], 3)
    lo = (t - 3) // centers * centers
    assert verdict == "raise" and lo >= (L - 1) // 2 and lo + centers - 1 + (L - 1) // 2 <= n_t - 1
    with (
        mock.patch.object(estimate, "_SWEEP_CELLS", centers * L),
        mock.patch.object(estimate, "_solve_gated", wraps=estimate._solve_gated) as gate,
    ):
        with pytest.raises(SingularMomentError) as exc:
            estimate_alpha_plugin(ReturnSeries(x), part, beta, b, alpha_init, 1.7)
        assert (exc.value.t, exc.value.rcond) == (t, rcond)
        assert gate.call_count == 1
        estimate_alpha_plugin(ReturnSeries(healthy), part, beta, b, alpha_init, 1.7)
        assert gate.call_count == 2


def _constancy_partitions(p: int) -> list:
    """Each coefficient constant on its own, then all lags jointly (p >= 2)."""
    consts = [(j,) for j in range(p + 1)] + ([tuple(range(1, p + 1))] if p >= 2 else [])
    return [CoefficientPartition(p=p, varying=tuple(k for k in range(p + 1) if k not in c), constant=c) for c in consts]


@pytest.mark.parametrize("weights", ["level", "unit"])
@given(seed=seeds, T=lengths, p=orders, b=bandwidths)
def test_constancy_statistic_matches_dense(weights, seed, T, p, b):
    x = _series(seed, T)
    s = ReturnSeries(x)
    try:
        fit = nonparametric_fit(s, p, weights, b)
        stats = [constancy_statistic(s, part, weights, b) for part in _constancy_partitions(p)]
    except NumericalError:
        assume(False)
    assume(_psd_rcond(fit.gram).min() > _RCOND_MIN)
    W = reference.level_weights(x, p) if weights == "level" else np.ones(T - p)
    for part, got in zip(_constancy_partitions(p), stats):
        want = reference.dense_constancy(x, part.varying, part.constant, W, b)
        for name in ("s_t", "varpi1", "varpi2", "e_t"):
            assert abs(getattr(got, name) - want[name]) <= 1e-10 * abs(want[name]), (part, name)
        assert _max_rel(got.beta_hat, want["beta"]) <= 1e-10


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


@given(seed=seeds, T=lengths, p=orders, c=st.floats(1.0, 2.0))
def test_cv_semiparametric_matches_dense(seed, T, p, c):
    x = _series(seed, T)
    try:
        cv = cv_bandwidth_semiparametric(ReturnSeries(x), p, grid=BandwidthGrid(multipliers=(c,)))
    except NumericalError:
        assume(False)
    beta, score = reference.dense_cv_semiparametric(x, p, float(cv.bandwidths[0]))
    assert abs(cv.scores[0] - score) <= 1e-10 * score
    assert _max_rel(cv.beta, beta) <= 1e-10


def _planted_stack(rng, n_t: int, k: int, log_rconds, log_scale: float) -> np.ndarray:
    """n_t symmetric PD k x k matrices Q diag(lam) Q' with lam_min / lam_max as planted."""
    stack = np.empty((n_t, k, k))
    for r in range(n_t):
        Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        lam = 10.0 ** np.linspace(0.0, log_rconds[r], k) if k > 1 else np.ones(1)
        stack[r] = 10.0**log_scale * (Q * lam) @ Q.T
    return 0.5 * (stack + stack.transpose(0, 2, 1))


def _with_defect(gram: np.ndarray, r: int, defect: str) -> np.ndarray:
    out = gram.copy()
    if defect == "nan":
        out[r, -1, 0] = np.nan
    elif defect == "inf":
        out[r, 0, 0] = np.inf
    elif defect == "zero":
        out[r] = 0.0
    else:  # indefinite: flip the sign of the largest eigenvalue
        lam, V = np.linalg.eigh(out[r])
        lam[-1] = -lam[-1]
        out[r] = (V * lam) @ V.T
    return out


_EPS = np.finfo(float).eps


def _backward_error(gram, rhs, x):
    """Normwise backward error ||G x - b|| / (||G|| ||x|| + ||b||) per center and column.

    The residual is formed in extended precision so that its own rounding
    does not count against the solve."""
    G, X, B = (np.asarray(a, dtype=np.longdouble) for a in (gram, x, rhs))
    resid = np.linalg.norm((G @ X - B).astype(float), axis=1)
    g_norm = np.linalg.norm(gram, ord=2, axis=(1, 2))
    return resid / (g_norm[:, None] * np.linalg.norm(x, axis=1) + np.linalg.norm(rhs, axis=1))


def _gate_outcome(gram, rhs):
    try:
        return ("solve", _solve_gated(gram, rhs, 5))
    except SingularMomentError as err:
        return ("raise", err.t, err.rcond)


@given(
    seed=seeds, n_t=st.integers(1, 6), log_rcond=st.floats(-14.0, -9.0), log_scale=st.floats(-3.0, 3.0), data=st.data()
)
def test_certified_gate_decides_as_eigvalsh_gate(seed, n_t, log_rcond, log_scale, data):
    rng = np.random.default_rng(seed)
    planted = data.draw(st.integers(0, n_t - 1))
    defective = data.draw(st.integers(0, n_t - 1))
    for k in (1, 2, 3, 11):
        # One center planted at log_rcond, the others well conditioned; the
        # second stack also puts a random center just above the gate, inside
        # the certificate's margin, so only the eigenvalues can pass it.
        log_rconds = rng.uniform(-8.0, 0.0, n_t)
        log_rconds[planted] = log_rcond
        gram = _planted_stack(rng, n_t, k, log_rconds, log_scale)
        log_rconds[rng.integers(n_t)] = rng.uniform(-11.9, -10.5)
        margin = _planted_stack(rng, n_t, k, log_rconds, log_scale)
        rhs = rng.normal(size=(n_t, k, 2))
        defects = [_with_defect(gram, defective, d) for d in ("nan", "inf", "zero", "indefinite")]
        for stack in [gram, margin] + defects:
            with warnings.catch_warnings():
                # A stack the factor rejects must not reach sqrt or a division.
                warnings.simplefilter("error", RuntimeWarning)
                got = _gate_outcome(stack, rhs)
            want = reference.eigvalsh_gate_solve(stack, rhs, 5)
            assert got[0] == want[0]
            if got[0] == "raise":
                assert got[1:] == want[1:]
            elif _certify(stack) is not None:
                # The certified route solves with its own Cholesky factor, not LU.
                assert _backward_error(stack, rhs, got[1]).max() <= 4 * k * _EPS
                lam = np.linalg.eigvalsh(stack)
                kappa = lam[:, -1] / lam[:, 0]
                forward = np.linalg.norm(got[1] - want[1], axis=1) / np.linalg.norm(want[1], axis=1)
                assert np.all(forward <= 8 * k * _EPS * kappa[:, None])
            else:
                np.testing.assert_array_equal(got[1], want[1])


@given(
    seed=seeds, n_t=st.integers(1, 6), k=st.integers(1, 11), log_rcond=st.floats(-13.0, -9.0), log_scale=st.floats(-3.0, 3.0)
)
def test_certificate_is_sound(seed, n_t, k, log_rcond, log_scale):
    # tr G tr G^-1 bounds 1 / rcond from above, so whatever the certificate
    # passes clears 1e-11 by eigenvalues, up to their rounding.
    rng = np.random.default_rng(seed)
    log_rconds = rng.uniform(log_rcond, min(log_rcond + 3.0, 0.0), n_t)
    log_rconds[rng.integers(n_t)] = log_rcond
    gram = _planted_stack(rng, n_t, k, log_rconds, log_scale)
    if _certify(gram) is not None:
        assert _psd_rcond(gram).min() >= 1e-11 * (1.0 - 1e-6)


@given(seed=seeds, n_t=st.integers(1, 6), k=st.integers(2, 5), log_rcond=st.floats(-11.5, -9.0), data=st.data())
def test_certified_gram_certifies_every_principal_sub_block(seed, n_t, k, log_rcond, data):
    # The certificate passes every principal block G[v, v] of a G it passes,
    # since tr G_vv <= tr G and tr G_vv^-1 <= tr (G^-1)_vv <= tr G^-1 (a Schur
    # complement); the eigenvalue gate passes it too (Cauchy interlacing).  The
    # constancy statistic's beta step relies on this when it gates G[v, v].
    rng = np.random.default_rng(seed)
    log_rconds = rng.uniform(log_rcond, 0.0, n_t)
    log_rconds[data.draw(st.integers(0, n_t - 1))] = log_rcond
    gram = _planted_stack(rng, n_t, k, log_rconds, data.draw(st.floats(-3.0, 3.0)))
    assume(_certify(gram) is not None)
    for size in range(1, k):
        for v in itertools.combinations(range(k), size):
            sub = gram[:, list(v)][:, :, list(v)]
            assert _certify(sub) is not None
            assert reference.eigvalsh_gate_solve(sub, np.ones((n_t, size, 1)), 5)[0] == "solve"
