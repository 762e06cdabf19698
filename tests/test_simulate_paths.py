"""The replicate recursion: simulate_paths gives, seed by seed, the path that
simulate_path gives alone, bit for bit and across block edges, raises the
error that the lowest-index failing seed raises alone, and validates and
warns once per call."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvarch import CoefficientFunction, NoiseSpec, SimulationConfig, TvArchModel, simulate_path, simulate_paths
from tvarch.errors import NonPositiveVolatilityError
from tvarch.simulate import _LANES, derive_seed

import reference


@given(
    p=st.integers(0, 3),
    df=st.sampled_from([None, 5]),
    base=st.integers(0, 2**32 - 1),
    T=st.integers(1, 40),
    R=st.integers(1, 300),
    burn_in=st.sampled_from([0, 500]),
    offset=st.floats(0.5, 3.0),
    amplitude=st.floats(0.0, 0.45),
    lags=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    varying_lag=st.booleans(),
)
def test_simulate_paths_match_single_paths_and_recursion(p, df, base, T, R, burn_in, offset, amplitude, lags, varying_lag):
    # Lag coefficients sum to at most 0.9, so the recursion contracts.
    scale = 0.9 / max(1.0, sum(lags[:p]))
    lag_values = [scale * v for v in lags[:p]]
    coeffs = [CoefficientFunction.sine(offset, amplitude * offset)]
    coeffs += [CoefficientFunction.constant(v) for v in lag_values]
    if varying_lag and p:
        coeffs[1] = CoefficientFunction.cosine(lag_values[0] / 2, lag_values[0] / 2)
    noise = NoiseSpec.gaussian() if df is None else NoiseSpec.student_t(df)
    model = TvArchModel(p=p, coeffs=tuple(coeffs), noise=noise)
    seeds = [derive_seed(base, r) for r in range(R)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the short-burn-in warning
        got = simulate_paths(model, T, seeds, burn_in=burn_in)
        single = [simulate_path(model, SimulationConfig(T=T, seed=seed, burn_in=burn_in)) for seed in seeds]
    assert len(got) == R
    for seed, path, alone in zip(seeds, got, single):
        np.testing.assert_array_equal(path.values, alone.values)
        np.testing.assert_array_equal(path.values, reference.simulate_recursion(coeffs, T, seed, burn_in=burn_in, df=df))


def _dipping_model() -> TvArchModel:
    # The intercept is -0.5 at t = 5 and t = 15 of T = 21, between validation's
    # check points, so a path fails there exactly when x^2_{t-1} <= 1.
    dips = (5 / 21, 15 / 21)

    def a0(u):
        u = np.asarray(u, dtype=float)
        return np.where(np.any([np.abs(u - d) < 1e-12 for d in dips], axis=0), -0.5, 1.0)

    return TvArchModel(p=1, coeffs=(CoefficientFunction(a0), CoefficientFunction.constant(0.5)))


def _failure(model, seed):
    """The error message simulate_path gives for this seed alone, or None."""
    try:
        simulate_path(model, SimulationConfig(T=21, seed=seed))
    except NonPositiveVolatilityError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("lane", [0, _LANES - 1])
def test_lowest_failing_seed_raises_its_own_error(lane):
    # The seed at `lane` fails only at t = 15, the next seed already at t = 5;
    # the error is still the first one's, also when the next seed sits in the
    # following block of lanes.
    model = _dipping_model()
    found = {}
    for k in range(200):
        seed = derive_seed(3, k)
        msg = _failure(model, seed)
        key = None if msg is None else msg.rpartition("t=")[2]
        found.setdefault(key, (seed, msg))
        if len(found) == 3:
            break
    ok, late, early = found[None][0], found["15"], found["5"]
    seeds = [ok] * lane + [late[0], early[0], ok]
    with pytest.raises(NonPositiveVolatilityError) as info:
        simulate_paths(model, 21, seeds)
    assert str(info.value) == late[1]
    # Alone, the early seed names its own step.
    with pytest.raises(NonPositiveVolatilityError, match="t=5$"):
        simulate_paths(model, 21, [ok, early[0]])
    assert [s.values.tolist() for s in simulate_paths(model, 21, [ok])] == [
        simulate_path(model, SimulationConfig(T=21, seed=ok)).values.tolist()
    ]


def test_one_burn_in_warning_and_one_validation_per_call(monkeypatch):
    model = TvArchModel(p=1, coeffs=(CoefficientFunction.constant(1.0), CoefficientFunction.constant(0.95)))
    shapes = []
    evaluate = TvArchModel.coefficient_values

    def counted(self, u):
        shapes.append(np.shape(u))
        return evaluate(self, u)

    monkeypatch.setattr(TvArchModel, "coefficient_values", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        paths = simulate_paths(model, 50, range(_LANES + 3), burn_in=10)
    assert len(paths) == _LANES + 3
    assert [w.category for w in caught] == [UserWarning]
    assert shapes == [(1024,), (50,)]


def test_no_seeds_give_no_paths():
    model = TvArchModel(p=1, coeffs=(CoefficientFunction.constant(1.0), CoefficientFunction.constant(0.5)))
    assert simulate_paths(model, 10, []) == []
