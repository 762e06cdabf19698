"""Replicates evaluated in stacks: the p = 0 simulation route, the batched
semiparametric cross-validation core, the stacked second-order and constancy
cores and the chunked Monte-Carlo calibration.  Each stacked member must
match the same computation run alone, the dense oracle, and, for redraws, a
per-replicate reference loop."""

import collections
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvarch import (
    BandwidthGrid,
    CoefficientFunction,
    CoefficientPartition,
    NoiseSpec,
    ReturnSeries,
    SimulationConfig,
    TvArchModel,
    cv_bandwidth_semiparametric,
    estimate,
    select,
    simulate_path,
    testing,
)
from tvarch.errors import (
    AllSingularError,
    DegenerateSeriesError,
    NonPositiveVolatilityError,
    NumericalError,
    SingularDesignError,
    SingularMomentError,
)
from tvarch.estimate import _psd_rcond
from tvarch.experiments import _COVERAGE_SETUPS
from tvarch.simulate import derive_seed
from tvarch.testing import (
    _CHUNK,
    _MAX_RETRIES,
    _second_order_psi,
    constancy_statistic,
    nonparametric_fit,
    second_order_statistic,
)

import reference

seeds = st.integers(0, 2**32 - 1)


def _rel(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - want) / np.abs(want)))


# ---------------------------------------------------------------------------
# Simulation without lags.


@pytest.mark.parametrize("setup", sorted(_COVERAGE_SETUPS))
@pytest.mark.parametrize("df", [None, 5])
@pytest.mark.parametrize("burn_in", [0, 500])
def test_simulate_path_without_lags_matches_recursion_bit_for_bit(setup, df, burn_in):
    a0 = _COVERAGE_SETUPS[setup]
    noise = NoiseSpec.gaussian() if df is None else NoiseSpec.student_t(df)
    model = TvArchModel(p=0, coeffs=(a0,), noise=noise)
    for seed in range(20):
        got = simulate_path(model, SimulationConfig(T=500, seed=seed, burn_in=burn_in)).values
        np.testing.assert_array_equal(got, reference.simulate_recursion([a0], 500, seed, burn_in=burn_in, df=df))


def test_simulate_path_without_lags_names_the_first_nonpositive_step():
    # Negative only at u = 3/7 and 5/7, which validation's grid misses.
    spike = CoefficientFunction(lambda u: np.where(np.abs(u - 3 / 7) * np.abs(u - 5 / 7) < 1e-12, -1.0, 1.0))
    with pytest.raises(NonPositiveVolatilityError, match=r"sigma_t\^2 = -1 at t=3$"):
        simulate_path(TvArchModel(p=0, coeffs=(spike,)), SimulationConfig(T=7, seed=1))


# ---------------------------------------------------------------------------
# The batched semiparametric cross-validation core.

# At T <= 40, 0.1 leaves the first center no tap of its holed window, so that
# bandwidth is empty for every member.
_CV_GRID = BandwidthGrid(multipliers=(0.1, 1.0, 1.5, 2.0))


def _cv_in_chunks(series, p, grid):
    """The core over the fixed chunks of the replicate index, as the coverage design runs it."""
    return testing._map_chunks(lambda rs: select._cv_semiparametric([series[r] for r in rs], p, grid), len(series), 1)


@settings(max_examples=8)
@given(
    seed=seeds, T=st.integers(30, 40), p=st.integers(1, 3), R=st.sampled_from([1, _CHUNK, _CHUNK + 3]), data=st.data()
)
def test_batched_cv_matches_single_replicate_and_dense(seed, T, p, R, data):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(R, T))
    series = [ReturnSeries(x) for x in xs]
    # One (member, bandwidth) pair fails the design gate: its rcond is zeroed
    # in the gate call of its chunk.  The whole grid of a chunk is one group
    # (at most 4 x 16 x 39 centers), gated by one call over its (bandwidth,
    # member) pairs, bandwidth-major.  Bandwidth 0 is empty and left out of
    # the stack, so bandwidth i of chunk member m sits at (i - 1) n + m, n
    # the chunk's size.
    forced_r = data.draw(st.integers(0, R - 1))
    forced_i = data.draw(st.integers(1, 3))
    sizes = [min(_CHUNK, R - lo) for lo in range(0, R, _CHUNK)]
    chunk_of_forced, member = divmod(forced_r, _CHUNK)
    psd_rcond = estimate._psd_rcond
    calls = []

    def gate(stack):
        rc = psd_rcond(stack)
        calls.append(rc.shape[0])
        if len(calls) == chunk_of_forced + 1:
            rc[(forced_i - 1) * sizes[chunk_of_forced] + member] = 0.0
        return rc

    with mock.patch.object(estimate, "_psd_rcond", gate):
        got = _cv_in_chunks(series, p, _CV_GRID)
    assert calls == [3 * n for n in sizes]  # one gate per chunk: every live member at every live bandwidth

    for r, (s, x, cv) in enumerate(zip(series, xs, got)):
        alone = cv_bandwidth_semiparametric(s, p, grid=_CV_GRID)
        want = alone.scores.copy()
        if r == forced_r:
            want[forced_i] = np.inf
        finite = np.isfinite(want)
        assert not finite[0] and finite[1:].sum() == 3 - (r == forced_r)
        np.testing.assert_array_equal(np.isfinite(cv.scores), finite)
        assert cv.bandwidth == float(_CV_GRID.bandwidths(T)[int(np.argmin(want))])
        assert _rel(cv.scores[finite], want[finite]) <= 1e-12
        if r != forced_r:
            assert _rel(cv.beta, alone.beta) <= 1e-10
        for i in np.flatnonzero(finite):
            beta, score = reference.dense_cv_semiparametric(x, p, float(cv.bandwidths[i]))
            assert abs(cv.scores[i] - score) <= 1e-12 * score
        beta, _ = reference.dense_cv_semiparametric(x, p, cv.bandwidth)
        assert float(np.max(np.abs(cv.beta - beta)) / np.max(np.abs(beta))) <= 1e-10


def test_batched_cv_raises_for_the_lowest_member_whose_bandwidths_all_fail():
    rng = np.random.default_rng(3)
    singular = np.where(np.arange(60) % 2, 1.0, -1.0)  # every residual design is 0
    tiny = 1e100 * rng.normal(size=60)  # level weights underflow to 0: every window is empty
    grid = BandwidthGrid(multipliers=(1.0, 1.5))
    for first, second, message in ((singular, tiny, "residual design is singular"), (tiny, singular, "at t=3")):
        chunk = [ReturnSeries(x) for x in (rng.normal(size=60), first, rng.normal(size=60), second)]
        with pytest.raises(AllSingularError, match=message) as err:
            select._cv_semiparametric(chunk, 2, grid)
        with pytest.raises(AllSingularError) as alone:
            cv_bandwidth_semiparametric(chunk[1], 2, grid=grid)
        assert str(err.value) == str(alone.value)


@settings(max_examples=20)
@given(
    seed=seeds,
    R=st.sampled_from([1, 2]),
    # One bandwidth of the first group of either size, one of the second half.
    fails=st.tuples(st.integers(0, 1), st.integers(4, 7), st.sets(st.integers(0, 7))).map(lambda t: {t[0], t[1], *t[2]}),
)
@example(seed=1, R=1, fails=frozenset(range(8)))
@example(seed=2, R=2, fails=frozenset(range(8)))
def test_cv_pairs_failing_in_two_groups_match_the_per_bandwidth_loop(seed, R, fails):
    # At T = 2000 a group holds 8192 // (R 1998) of the 8 grid bandwidths (4
    # for one series, 2 for two), gated by one call, bandwidth-major.  Member 0
    # fails the gate at the bandwidths in ``fails``, which span two groups,
    # each with its own rcond so the error named can be told apart.
    T, p = 2000, 2
    per = 4 // R
    grid = BandwidthGrid()
    chunk = [ReturnSeries(x) for x in np.random.default_rng(seed).standard_normal((R, T))]
    psd_rcond = estimate._psd_rcond
    calls = []

    def gate(stack):
        rc = psd_rcond(stack)
        g0 = per * len(calls)
        calls.append(rc.shape[0])
        for i in fails:
            if g0 <= i < g0 + per:
                rc[(i - g0) * R] = 1e-20 * (i + 1)
        return rc

    with mock.patch.object(estimate, "_psd_rcond", gate):
        if len(fails) == 8:
            with pytest.raises(AllSingularError, match=r"; last: residual design is singular \(rcond=8\.000e-20\)$") as err:
                select._cv_semiparametric(chunk, p, grid)
            assert isinstance(err.value.__cause__, SingularDesignError)
        else:
            got = select._cv_semiparametric(chunk, p, grid)
    assert calls == [per * R] * (8 // per)

    if len(fails) == 8:
        return
    # The per-bandwidth loop: each bandwidth alone, the failing ones skipped.
    for r, (s, cv) in enumerate(zip(chunk, got)):
        alone = [cv_bandwidth_semiparametric(s, p, grid=BandwidthGrid((m,))) for m in grid.multipliers]
        want = np.array([a.scores[0] for a in alone])
        if r == 0:
            want[sorted(fails)] = np.inf
        np.testing.assert_array_equal(cv.scores, want)
        best = int(np.argmin(want))
        assert cv.bandwidth == alone[best].bandwidth
        np.testing.assert_array_equal(cv.beta, alone[best].beta)


# ---------------------------------------------------------------------------
# The stacked second-order core.


@settings(max_examples=10)
@given(
    seed=seeds, T=st.integers(30, 60), p=st.integers(1, 3), b=st.floats(0.2, 0.5), R=st.integers(1, 5), data=st.data()
)
def test_stacked_second_order_matches_single_and_dense(seed, T, p, b, R, data):
    xs = np.random.default_rng(seed).normal(size=(R, T))
    bad = data.draw(st.integers(-1, R - 1))  # an all-zero row, whose lag design is 0, or none
    if bad >= 0:
        xs[bad] = 0.0
    a_hat, psi, sigma_sq, errors = _second_order_psi(xs, p, b)
    for r, x in enumerate(xs):
        if r == bad:
            assert isinstance(errors[r], SingularDesignError) and "lag design" in str(errors[r])
            with pytest.raises(SingularDesignError, match=re.escape(str(errors[r]))):
                second_order_statistic(ReturnSeries(x), p, b)
            continue
        assert errors[r] is None
        alone = second_order_statistic(ReturnSeries(x), p, b)
        assert abs(psi[r] - alone.psi) <= 1e-12 * abs(alone.psi)
        assert abs(sigma_sq[r] - alone.sigma_sq_hat) <= 1e-12 * alone.sigma_sq_hat
        a_ref, psi_ref, sig_ref = reference.dense_second_order(x, p, b)
        np.testing.assert_allclose(a_hat[r], a_ref, atol=1e-10)
        assert psi[r] == pytest.approx(psi_ref, rel=1e-10, abs=1e-12)
        assert sigma_sq[r] == pytest.approx(sig_ref, rel=1e-10)


# ---------------------------------------------------------------------------
# The stacked constancy core.


def _constancy_partitions(p: int) -> list:
    """Each coefficient constant on its own, then all lags jointly (p >= 2)."""
    consts = [(j,) for j in range(p + 1)] + ([tuple(range(1, p + 1))] if p >= 2 else [])
    return [CoefficientPartition(p=p, varying=tuple(k for k in range(p + 1) if k not in c), constant=c) for c in consts]


def _e_t_scale(stat, T: int, b: float) -> float:
    """The size of E_T's terms, T sqrt(b) (S_T + ||K||^2 varpi1 / (T b)) / (2 ||K*|| sqrt(varpi2))."""
    return T * np.sqrt(b) * (stat.s_t + 0.6 * stat.varpi1 / (T * b)) / (2.0 * np.sqrt(167 / 770 * stat.varpi2))


@settings(max_examples=12, deadline=None)
@given(
    seed=seeds,
    T=st.integers(30, 60),
    p=st.integers(1, 3),
    b=st.floats(0.2, 0.5),
    R=st.sampled_from([1, 3, 5]),  # with stacks of 3 draws: a stack of 1, a full one, a full and a partial one
)
def test_stacked_constancy_matches_single_and_dense(seed, T, p, b, R):
    xs = np.random.default_rng(seed).normal(size=(R, T))
    for part in _constancy_partitions(p):
        try:
            alone = [constancy_statistic(ReturnSeries(x), part, "level", b) for x in xs]
        except NumericalError:
            continue
        with mock.patch.object(testing, "_STACK_CENTERS", 3 * (T - p)):
            with mock.patch.object(testing, "_each", side_effect=AssertionError("fell back")):
                got = testing._pivotal_values("constancy", list(xs), p, part, b)
        for r, (x, e_t, stat) in enumerate(zip(xs, got, alone)):
            assert abs(e_t - stat.e_t) <= 1e-12 * _e_t_scale(stat, T, b), (part, r)
            if _psd_rcond(nonparametric_fit(ReturnSeries(x), p, "level", b).gram).min() > 1e-6:
                want = reference.dense_constancy(x, part.varying, part.constant, reference.level_weights(x, p), b)
                assert abs(e_t - want["e_t"]) <= 1e-10 * abs(want["e_t"]), (part, r)


def _quiet(x: np.ndarray) -> np.ndarray:
    """x with returns 80..139 scaled by 1e-5: at b = 0.1 the full fit's local Gram fails the gate there."""
    x = x.copy()
    x[80:140] *= 1e-5
    return x


@pytest.mark.parametrize("bad", ["zero", "singular"])
def test_stacked_constancy_falls_back_to_each_draw_alone(bad):
    T, p, b = 200, 2, 0.1
    xs = np.random.default_rng(44).normal(size=(4, T))
    xs[2] = 0.0 if bad == "zero" else _quiet(xs[2])
    part = CoefficientPartition(p=2, varying=(0,), constant=(1, 2))
    with pytest.raises(DegenerateSeriesError if bad == "zero" else SingularMomentError):
        testing._constancy_e_t(xs, part, b)
    got = testing._pivotal_values("constancy", list(xs), p, part, b)
    assert isinstance(got[2], DegenerateSeriesError if bad == "zero" else SingularMomentError)
    for x, value in zip(xs, got):
        try:
            stat = constancy_statistic(ReturnSeries(x), part, "level", b)
        except NumericalError as err:
            assert type(value) is type(err) and str(value) == str(err)
        else:
            assert value == testing._constancy_e_t(x[None], part, b)[0]
            assert abs(value - stat.e_t) <= 1e-12 * _e_t_scale(stat, T, b)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, T=st.integers(40, 80), p=st.integers(1, 3), b=st.floats(0.25, 0.5), R=st.integers(2, 3))
def test_uncertified_stack_of_passing_draws_is_solved_as_one_stack(seed, T, p, b, R):
    # The certificate refuses any stack of more than one draw's centers, so
    # every stacked solve falls to the eigenvalue gate, which each draw passes.
    xs = np.random.default_rng(seed).normal(size=(R, T))
    n_t = T - p
    certify, psd_rcond = estimate._certify, estimate._psd_rcond
    gated = []

    def gate(stack):
        gated.append(stack.shape[0])
        return psd_rcond(stack)

    for part in _constancy_partitions(p):
        try:
            alone = [constancy_statistic(ReturnSeries(x), part, "level", b) for x in xs]
        except NumericalError:
            continue
        single = [testing._constancy_e_t(x[None], part, b)[0] for x in xs]
        gated.clear()
        with (
            mock.patch.object(estimate, "_certify", lambda g: None if g.shape[0] > n_t else certify(g)),
            mock.patch.object(estimate, "_psd_rcond", gate),
            mock.patch.object(testing, "_each", side_effect=AssertionError("fell back")),
        ):
            got = testing._pivotal_values("constancy", list(xs), p, part, b)
        assert gated.count(R * n_t) == 2, (part, gated)  # the full fit's Gram and its G[v, v] block
        for r, (e_t, e_alone, stat) in enumerate(zip(got, single, alone)):
            scale = _e_t_scale(stat, T, b)
            assert abs(e_t - e_alone) <= 1e-12 * scale, (part, r)
            assert abs(e_t - stat.e_t) <= 1e-12 * scale, (part, r)


def test_constancy_calibration_identical_across_workers_on_the_chunk_smoother(monkeypatch):
    # T = 2000 takes the chunk-moment smoother, and stacks of 4 draws.  102
    # replicates leave a partial chunk of 6, so a partial stack of 2.
    T, p, b, B = 2000, 1, 0.159, 102
    assert B % _CHUNK == 6 and testing._STACK_CENTERS // (T - p) == 4
    calls = collections.Counter()
    chunk_sums = testing.kernels._chunk_sums
    monkeypatch.setattr(testing.kernels, "_chunk_sums", lambda *args: calls.update(["chunk"]) or chunk_sums(*args))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    one = testing.mc_pivotal_quantiles(T, p, part, b, B, (0.1,), 5, "constancy", workers=1)
    assert calls["chunk"]
    two = testing.mc_pivotal_quantiles(T, p, part, b, B, (0.1,), 5, "constancy", workers=2)
    assert one.sample.tobytes() == two.sample.tobytes() and one.retried == two.retried == 0


# ---------------------------------------------------------------------------
# Chunked Monte-Carlo calibration and its redraws.


class _Zeros:
    def standard_normal(self, n):
        return np.zeros(n)


def _zero_draws(seed: int, zeroed: dict):
    """A generator factory giving all-zero draws for replicate r at attempts 0..zeroed[r]-1."""
    real = testing.generator
    zero_seeds = {derive_seed(seed, r, a) for r, n in zeroed.items() for a in range(n)}
    return lambda s: _Zeros() if s in zero_seeds else real(s)


def _per_replicate_calibration(gen, T, p, partition, b, B, seed, statistic):
    """Sorted sample and redraw count by one replicate at a time, each redrawn until it evaluates."""
    values, retried = [], 0
    for r in range(B):
        for attempt in range(_MAX_RETRIES):
            series = ReturnSeries(gen(derive_seed(seed, r, attempt)).standard_normal(T))
            try:
                if statistic == "second-order":
                    values.append(second_order_statistic(series, p, b).psi)
                else:
                    values.append(constancy_statistic(series, partition, "level", b).e_t)
            except NumericalError:
                continue
            retried += attempt
            break
    return np.sort(values), retried


@pytest.mark.parametrize("statistic", ["second-order", "constancy"])
def test_chunked_calibration_redraws_as_a_per_replicate_loop(statistic):
    T, p, b, B, seed = 120, 1, 0.3, 100, 9
    partition = None if statistic == "second-order" else CoefficientPartition(p=1, varying=(0,), constant=(1,))
    # All-zero draws fail both statistics (a zero lag design; a zero series).
    # Replicates 16 and 17 share a chunk; 17 fails twice.
    zeroed = {0: 1, 5: 1, _CHUNK: 1, _CHUNK + 1: 2, 2 * _CHUNK + 8: 1, B - 1: 3}
    gen = _zero_draws(seed, zeroed)
    with mock.patch.object(testing, "generator", gen):
        cal = testing.mc_pivotal_quantiles(T, p, partition, b, B, (0.1,), seed, statistic)
    want, retried = _per_replicate_calibration(gen, T, p, partition, b, B, seed, statistic)
    assert cal.retried == retried == sum(zeroed.values())
    assert cal.sample.shape == (B,)
    np.testing.assert_allclose(cal.sample, want, rtol=1e-12, atol=1e-300)


def test_chunked_calibration_names_the_lowest_replicate_out_of_redraws():
    seed = 4
    gen = _zero_draws(seed, {_CHUNK + 5: _MAX_RETRIES, 3 * _CHUNK: _MAX_RETRIES, 2: 2})
    with mock.patch.object(testing, "generator", gen):
        with pytest.raises(NumericalError, match=rf"^MC replicate {_CHUNK + 5} failed after {_MAX_RETRIES} redraws$"):
            testing.mc_pivotal_quantiles(120, 1, None, 0.3, 100, (0.1,), seed, "second-order")
