import numpy as np
import pytest

from tvarch import (
    CoefficientFunction,
    CoefficientPartition,
    NoiseSpec,
    ReturnSeries,
    TvArchModel,
    validate_model,
)
from tvarch.errors import ContractionError, InputError, ModelValidationError, NonPositiveInterceptError
from tvarch.model import canonical_matrix, regressor_matrices

import reference


def test_regressors_intercept_varying():
    x = np.arange(1.0, 9.0)
    part = CoefficientPartition(p=2, varying=(0,), constant=(1, 2))
    M, N = regressor_matrices(ReturnSeries(x), part)
    r = 5 - 3  # t = 5; rows start at t = p+1
    np.testing.assert_allclose(M[r], [1.0])
    np.testing.assert_allclose(N[r], [x[3] ** 2, x[2] ** 2])


def test_regressors_full_varying():
    x = np.arange(1.0, 7.0)
    part = CoefficientPartition(p=1, varying=(0, 1), constant=())
    M, N = regressor_matrices(ReturnSeries(x), part)
    np.testing.assert_allclose(M[3 - 2], [1.0, x[1] ** 2])
    assert N.shape == (5, 0)


def test_regressors_permutation_reconstruction():
    rng = np.random.default_rng(3)
    x = rng.normal(size=25)
    part = CoefficientPartition(p=2, varying=(0, 2), constant=(1,))
    M, N = regressor_matrices(ReturnSeries(x), part)
    x2 = x**2
    assert M.shape == (23, 2) and N.shape == (23, 1)
    for r, t in enumerate(range(3, 26)):
        rebuilt = {0: M[r, 0], 2: M[r, 1], 1: N[r, 0]}
        np.testing.assert_allclose(
            [rebuilt[0], rebuilt[1], rebuilt[2]], [1.0, x2[t - 2], x2[t - 3]]
        )


def test_regressors_bulk_matches_single():
    rng = np.random.default_rng(4)
    x = rng.normal(size=30)
    part = CoefficientPartition(p=3, varying=(0, 2), constant=(1, 3))
    M, N = regressor_matrices(ReturnSeries(x), part)
    M_ref, N_ref = reference.blocks(x, part.varying, part.constant, 3)
    np.testing.assert_allclose(M, M_ref)
    np.testing.assert_allclose(N, N_ref)


def test_regressors_index_errors():
    # Rows cover exactly t = p+1..T; a series shorter than p+2 is rejected.
    part = CoefficientPartition(p=2, varying=(0,), constant=(1, 2))
    M, N = regressor_matrices(ReturnSeries(np.ones(10)), part)
    assert M.shape == (8, 1) and N.shape == (8, 2)
    with pytest.raises(InputError):
        regressor_matrices(ReturnSeries(np.ones(2)), part)


def test_canonical_matrix():
    x = np.arange(1.0, 8.0)
    X = canonical_matrix(ReturnSeries(x), 2)
    np.testing.assert_allclose(X[0], [1.0, x[1] ** 2, x[0] ** 2])
    assert X.shape == (5, 3)


def test_partition_validation():
    with pytest.raises(InputError):
        CoefficientPartition(p=2, varying=(0, 1), constant=(1, 2))  # overlap
    with pytest.raises(InputError):
        CoefficientPartition(p=2, varying=(0,), constant=(1,))  # missing 2
    with pytest.raises(InputError):
        CoefficientPartition(p=1, varying=(), constant=(0, 1))  # empty varying block
    with pytest.raises(InputError, match="lag order p must be >= 0"):
        CoefficientPartition.semiparametric(-1)
    part = CoefficientPartition(p=2, varying=(2, 0), constant=(1,))
    assert part.varying == (0, 2) and part.m == 2 and part.n == 1


def test_partition_constructors():
    sp = CoefficientPartition.semiparametric(3)
    assert sp.varying == (0,) and sp.constant == (1, 2, 3)
    fv = CoefficientPartition.fully_varying(2)
    assert fv.n == 0 and fv.m == 3


def test_validate_model_ok():
    m = TvArchModel(
        p=1, coeffs=(CoefficientFunction.constant(1.0), CoefficientFunction.constant(0.5))
    )
    # The contraction constant: the largest lag sum on the grid, 0 without lags.
    assert validate_model(m) == 0.5
    assert validate_model(TvArchModel(p=0, coeffs=(CoefficientFunction.constant(1.0),))) == 0.0


def test_validate_model_contraction():
    m = TvArchModel(
        p=2,
        coeffs=(
            CoefficientFunction.constant(1.0),
            CoefficientFunction.constant(0.6),
            CoefficientFunction.constant(0.5),
        ),
    )
    with pytest.raises(ContractionError) as err:
        validate_model(m)
    assert err.value.total == pytest.approx(1.1)


def test_validate_model_benchmark_setup():
    m = TvArchModel(
        p=2,
        coeffs=(
            CoefficientFunction.sine(2.0, 1.0),
            CoefficientFunction.constant(0.3),
            CoefficientFunction.constant(0.2),
        ),
    )
    validate_model(m)


def test_validate_model_nonpositive_intercept():
    m = TvArchModel(p=0, coeffs=(CoefficientFunction.sine(0.5, 1.0),))
    with pytest.raises(NonPositiveInterceptError):
        validate_model(m)


def test_validate_model_negative_lag():
    m = TvArchModel(
        p=1, coeffs=(CoefficientFunction.constant(1.0), CoefficientFunction.sine(0.1, 0.5))
    )
    with pytest.raises(ModelValidationError):
        validate_model(m)


def test_noise_spec():
    NoiseSpec.gaussian()
    NoiseSpec.student_t(9)
    with pytest.raises(InputError):
        NoiseSpec.student_t(4)
    with pytest.raises(InputError):
        NoiseSpec(law="student_t", df=None)
    assert NoiseSpec.from_config({"law": "t", "df": 5}).df == 5
    assert NoiseSpec.from_config("gaussian").law == "gaussian"


def test_coefficient_functions():
    c = CoefficientFunction.constant(0.3)
    assert c(0.5) == 0.3
    np.testing.assert_allclose(c(np.linspace(0, 1, 5)), 0.3)
    s = CoefficientFunction.sine(2.0, 1.0)
    assert s(0.25) == pytest.approx(3.0)
    pw = CoefficientFunction.piecewise_linear([(0, 1.0), (0.5, 2.0), (1, 1.0)])
    assert pw(0.25) == pytest.approx(1.5)
    with pytest.raises(InputError):
        CoefficientFunction.piecewise_linear([(0.2, 1.0), (1, 1.0)])


def test_coefficient_from_config():
    c = CoefficientFunction.from_config({"kind": "cosine", "offset": 0.5, "amplitude": 0.25})
    assert c(0.0) == pytest.approx(0.75)
    with pytest.raises(InputError):
        CoefficientFunction.from_config({"kind": "wavelet"})


def test_model_from_config():
    cfg = {
        "coeffs": [
            {"kind": "sine", "offset": 2.0, "amplitude": 1.0},
            {"kind": "constant", "value": 0.3},
        ],
        "noise": {"law": "student_t", "df": 9},
    }
    m = TvArchModel.from_config(cfg)
    assert m.p == 1 and m.noise.df == 9
    validate_model(m)


def test_return_series_validation():
    with pytest.raises(InputError):
        ReturnSeries(np.array([1.0, np.nan]))
    with pytest.raises(InputError):
        ReturnSeries(np.array([]))
    with pytest.raises(InputError):
        ReturnSeries(np.ones((2, 2)))
    s = ReturnSeries(np.ones(5))
    with pytest.raises(InputError):
        s.require_length(4)
    s.require_length(3)
