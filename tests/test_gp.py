import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_solve

from hypbo import Dataset, KernelParams, SearchSpace, fit, matern52
from hypbo import gp
from hypbo.gp import GPModel, IllConditionedKernelError, _chol_with_jitter

SQRT5 = math.sqrt(5.0)


def ref_kernel_matrix(a, b, params):
    """Independent dense kernel: explicit double loop over the closed form."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            r = np.sqrt(np.sum(((a[i] - b[j]) / params.lengthscales) ** 2))
            out[i, j] = (
                params.signal_variance
                * (1.0 + SQRT5 * r + 5.0 * r**2 / 3.0)
                * np.exp(-SQRT5 * r)
            )
    return out


def ref_posterior(train_x, train_y, query, params):
    """Dense-solve posterior via np.linalg.solve (no Cholesky)."""
    K = ref_kernel_matrix(train_x, train_x, params)
    K += params.noise_variance * np.eye(K.shape[0])
    ks = ref_kernel_matrix(query, train_x, params)
    alpha = np.linalg.solve(K, train_y)
    mean = ks @ alpha
    var = params.signal_variance - np.einsum(
        "ij,ji->i", ks, np.linalg.solve(K, ks.T)
    )
    return mean, var


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(0.0, [1.0])
    with pytest.raises(ValueError):
        KernelParams(1.0, [1.0, -1.0])
    with pytest.raises(ValueError):
        KernelParams(1.0, [1.0], -1e-3)
    p = KernelParams.default(3, 1e-6)
    assert p.signal_variance == 1.0
    assert p.lengthscales.shape == (3,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["signal_variance", "lengthscales", "noise_variance"])
def test_kernel_params_reject_non_finite(field, bad):
    kw = {"signal_variance": 1.0, "lengthscales": [1.0, 1.0], "noise_variance": 1e-6}
    kw[field] = [1.0, bad] if field == "lengthscales" else bad
    with pytest.raises(ValueError, match="finite"):
        KernelParams(**kw)


def test_matern_at_zero_distance():
    p = KernelParams(2.3, [1.0, 1.0])
    assert matern52([0.5, 0.5], [0.5, 0.5], p) == pytest.approx(2.3, abs=0)


def test_matern_unit_distance_value():
    p = KernelParams(1.0, [1.0])
    want = (1.0 + SQRT5 + 5.0 / 3.0) * math.exp(-SQRT5)
    got = matern52([0.0], [1.0], p)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.52399, abs=1e-5)


def test_matern_long_distance_negligible():
    p = KernelParams(1.0, [1.0])
    assert matern52([0.0], [20.0], p) < 1e-6


def test_matern_symmetry_and_psd():
    p = KernelParams(1.7, [0.8, 1.3, 0.5])
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, size=(12, 3))
    K = ref_kernel_matrix(x, x, p)
    for i in range(12):
        for j in range(12):
            assert matern52(x[i], x[j], p) == pytest.approx(
                matern52(x[j], x[i], p), abs=0
            )
    assert np.min(np.linalg.eigvalsh(K)) >= -1e-8


def test_fit_single_point_interpolates():
    d = Dataset.from_arrays([[0.3]], [1.7])
    m = fit(d, init=KernelParams(1.0, [1.0], 0.0), optimize=False)
    mean, var = m.predict([0.3])
    assert abs(mean - 1.7) <= 1e-8
    assert abs(var) <= 1e-8


def test_fit_optimization_never_worse_than_init():
    rng = np.random.default_rng(0)
    x = np.linspace(0.0, math.pi, 5)[:, None]
    d = Dataset.from_arrays(x, np.sin(x.ravel()))
    init = KernelParams(1.0, [1.0], 1e-6)
    base = fit(d, init=init, optimize=False)
    tuned = fit(d, init=init, optimize=True, budget=5, rng=rng)
    assert tuned.log_marginal_likelihood() >= base.log_marginal_likelihood()


def test_fixed_params_match_dense_solve():
    d = Dataset.from_arrays([[0.0], [1.0], [2.0]], [1.0, 0.0, 1.0])
    p = KernelParams(1.0, [1.0], 0.1)
    m = fit(d, init=p, optimize=False)
    mean, var = m.predict([0.5])
    rm, rv = ref_posterior(d.x, d.y, [[0.5]], p)
    assert abs(mean - rm[0]) <= 1e-8
    assert abs(var - rv[0]) <= 1e-8


def test_predict_batch_matches_dense_solve_2d():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 1.0, size=(4, 2))
    y = rng.normal(size=4)
    d = Dataset.from_arrays(x, y)
    p = KernelParams(1.4, [0.7, 1.2], 0.05)
    m = fit(d, init=p, optimize=False)
    q = rng.uniform(0.0, 1.0, size=(10, 2))
    mean, var = m.predict(q)
    rm, rv = ref_posterior(x, y, q, p)
    np.testing.assert_allclose(mean, rm, atol=1e-8)
    np.testing.assert_allclose(var, rv, atol=1e-8)


def test_predict_far_from_data_reverts_to_prior():
    p = KernelParams(2.0, [1.0], 1e-6)
    d = Dataset.from_arrays([[0.0]], [5.0])
    m = fit(d, init=p, optimize=False)
    mean, var = m.predict([40.0])
    assert abs(mean) < 1e-4 * p.signal_variance
    assert var == pytest.approx(p.signal_variance, rel=1e-8)


def test_prior_model_predictions():
    p = KernelParams(3.0, [1.0, 1.0])
    m = GPModel.prior(p)
    mean, var = m.predict([0.2, 0.8])
    assert mean == 0.0
    assert var == 3.0


def test_normalization_uses_space():
    # identical geometry expressed in raw vs normalized coordinates
    sp = SearchSpace([0.0], [10.0])
    d = Dataset.from_arrays([[0.0], [10.0]], [1.0, -1.0])
    p = KernelParams(1.0, [1.0], 1e-6)
    m_raw = fit(Dataset.from_arrays([[0.0], [1.0]], [1.0, -1.0]), init=p, optimize=False)
    m_norm = fit(d, init=p, space=sp, optimize=False)
    assert m_norm.predict([5.0])[0] == pytest.approx(m_raw.predict([0.5])[0], abs=1e-12)


def test_lml_single_zero_observation():
    # y = 0, k(x,x) + noise = 1  =>  LML = -log(2 pi)/2
    d = Dataset.from_arrays([[0.0]], [0.0])
    m = fit(d, init=KernelParams(0.5, [1.0], 0.5), optimize=False)
    assert m.log_marginal_likelihood() == pytest.approx(
        -0.5 * math.log(2.0 * math.pi), abs=1e-12
    )
    assert m.log_marginal_likelihood() == pytest.approx(-0.91894, abs=1e-5)


def test_lml_zero_targets_drop_data_term():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(4, 2))
    d = Dataset.from_arrays(x, np.zeros(4))
    p = KernelParams(1.2, [0.9, 0.6], 0.3)
    with pytest.warns(RuntimeWarning):
        m = fit(d, init=p, optimize=False)
    K = ref_kernel_matrix(x, x, p) + 0.3 * np.eye(4)
    sign, logdet = np.linalg.slogdet(K)
    want = -0.5 * logdet - 0.5 * 4 * math.log(2.0 * math.pi)
    assert m.log_marginal_likelihood() == pytest.approx(want, abs=1e-10)


def test_lml_matches_determinant_route():
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, size=(3, 1))
    y = rng.normal(size=3)
    d = Dataset.from_arrays(x, y)
    p = KernelParams(0.8, [0.6], 0.2)
    m = fit(d, init=p, optimize=False)
    K = ref_kernel_matrix(x, x, p) + 0.2 * np.eye(3)
    _, logdet = np.linalg.slogdet(K)
    want = (
        -0.5 * float(y @ np.linalg.solve(K, y))
        - 0.5 * logdet
        - 1.5 * math.log(2.0 * math.pi)
    )
    assert m.log_marginal_likelihood() == pytest.approx(want, abs=1e-10)


def test_raw_variance_never_far_below_zero():
    # near-duplicate points provoke cancellation; raw values may dip a hair
    x = np.array([[0.0], [1e-9], [0.5], [0.5 + 1e-9], [1.0]])
    d = Dataset.from_arrays(x, [0.0, 0.0, 1.0, 1.0, 0.0])
    m = fit(d, init=KernelParams(1.0, [1.0], 0.0), optimize=False)
    _, var = m.predict(x, min_variance=None)
    assert np.min(var) >= -1e-8
    _, clamped = m.predict(x)
    assert np.min(clamped) >= 0.0


def test_jitter_escalation_on_duplicates():
    d = Dataset.from_arrays([[0.5], [0.5]], [1.0, 1.0])
    with pytest.warns(RuntimeWarning):
        m = fit(d, init=KernelParams(1.0, [1.0], 0.0), optimize=False)
    assert m.jitter > 0.0
    mean, _ = m.predict([0.5])
    assert mean == pytest.approx(1.0, abs=1e-3)


def test_chol_jitter_gives_up():
    K = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite beyond max jitter
    with pytest.raises(IllConditionedKernelError):
        _chol_with_jitter(K)


def test_constant_targets_warn():
    d = Dataset.from_arrays([[0.0], [1.0]], [2.0, 2.0])
    with pytest.warns(RuntimeWarning, match="identical"):
        fit(d, init=KernelParams(1.0, [1.0], 1e-6), optimize=False)


def test_fit_rejects_bad_data():
    with pytest.raises(ValueError):
        fit(Dataset())
    d = Dataset.from_arrays([[0.0], [1.0]], [0.0, 1.0])
    with pytest.raises(ValueError):
        fit(d, init=KernelParams(1.0, [1.0, 1.0]))  # dim mismatch
    with pytest.raises(ValueError):
        fit(d, optimize=True, budget=0)


def test_fit_deterministic_given_seed():
    rng_x = np.random.default_rng(7)
    x = rng_x.uniform(-1, 1, size=(6, 2))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2
    d = Dataset.from_arrays(x, y)
    a = fit(d, optimize=True, budget=4, rng=np.random.default_rng(5))
    b = fit(d, optimize=True, budget=4, rng=np.random.default_rng(5))
    assert a.params.signal_variance == b.params.signal_variance
    np.testing.assert_array_equal(a.params.lengthscales, b.params.lengthscales)


def test_short_init_recovers_via_reference_start():
    """A per-step init on sparse data must not strand the fit on the
    nugget plateau: the data-scaled default start rescues it."""
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, size=(40, 2))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1]
    d = Dataset.from_arrays(x, y)
    short = KernelParams(np.var(y), np.full(2, 1e-3), 1e-4)
    tuned = fit(d, init=short, optimize=True, budget=2,
                rng=np.random.default_rng(0), optimize_noise=True)
    stuck = fit(d, init=short, optimize=False)
    assert tuned.log_marginal_likelihood() > stuck.log_marginal_likelihood() + 10.0
    # and the tuned model actually interpolates rather than predicting noise
    q = rng.uniform(0.0, 1.0, size=(50, 2))
    resid = tuned.predict(q)[0] - (np.sin(3.0 * q[:, 0]) + q[:, 1])
    assert float(np.sqrt(np.mean(resid**2))) < 0.1


# -- the likelihood fast path against the dense route -----------------


def dense_neg_lml(xn, y, theta, base_noise, optimize_noise):
    """Negative LML the dense way: squared differences of all n*n pairs,
    one matmul, the full kernel matrix, scipy's cholesky and cho_solve.
    Returns the value and the jitter the factorization needed (None when
    it gave up)."""
    n, d = xn.shape
    vals = np.exp(np.clip(theta, math.log(gp.PARAM_LO), math.log(gp.PARAM_HI)))
    ls = vals[1 : 1 + d]
    noise = vals[-1] if optimize_noise else base_noise
    diff = xn[:, None, :] - xn[None, :, :]
    r2 = (diff * diff) @ (1.0 / ls**2)
    a5 = SQRT5 * np.sqrt(np.maximum(r2, 0.0))
    K = vals[0] * (1.0 + a5 + a5 * a5 / 3.0) * np.exp(-a5)
    K[np.diag_indices_from(K)] += noise
    try:
        L, jitter = _chol_with_jitter(K)
    except IllConditionedKernelError:
        return math.inf, None
    alpha = cho_solve((L, True), y, check_finite=False)
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    return -lml, jitter


@pytest.mark.parametrize("d", range(1, 11))
def test_tril_sq_dists_bit_identical_to_dense_product(d):
    # an ulp off here seldom shows in the likelihood's value but can still
    # steer a Nelder-Mead search elsewhere, so check this stage on its own,
    # for every n: which rows go astray depends on n mod 8 and on d
    rng = np.random.default_rng(d)
    for n in range(1, 81):
        xn = rng.uniform(size=(n, d))
        diff = xn[:, None, :] - xn[None, :, :]
        for ls in (rng.uniform(0.05, 5.0, size=d), np.full(d, rng.uniform(0.05, 5.0))):
            w = 1.0 / ls**2
            want = ((diff * diff) @ w)[np.tril_indices(n)]
            got = gp._tril_sq_dists(xn)(w, np.empty(want.size))
            assert got.tobytes() == want.tobytes(), (n, d)


@settings(max_examples=60, deadline=None, database=None)
@given(
    n=st.integers(1, 80),
    d=st.integers(1, 10),
    optimize_noise=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_likelihood_is_bit_identical_to_dense(n, d, optimize_noise, seed):
    rng = np.random.default_rng(seed)
    xn = rng.uniform(size=(n, d))
    y = rng.normal(size=n) * rng.uniform(0.1, 10.0)
    n_par = 1 + d + int(optimize_noise)
    fast = gp._neg_lml(xn, y, 1e-6, optimize_noise)
    # draws reach past the parameter box on both sides, so clipping,
    # near-singular kernels and the jitter path all come up
    for theta in rng.uniform(math.log(1e-5), math.log(1e5), size=(4, n_par)):
        want, _ = dense_neg_lml(xn, y, theta, 1e-6, optimize_noise)
        assert fast(theta).hex() == want.hex()


@pytest.mark.parametrize("n", [2, 3, 12, 40])
def test_fast_likelihood_duplicate_rows_take_the_jitter_path(n):
    rng = np.random.default_rng(n)
    xn = rng.uniform(size=(n, 3))
    xn[1] = xn[0]
    y = rng.normal(size=n)
    theta = np.zeros(4)  # unit signal variance: row 1 leaves a zero pivot
    want, jitter = dense_neg_lml(xn, y, theta, 0.0, False)
    assert jitter > 0.0
    assert gp._neg_lml(xn, y, 0.0, False)(theta).hex() == want.hex()


def test_fast_likelihood_is_inf_when_jitter_cannot_rescue(monkeypatch):
    monkeypatch.setattr(gp, "JITTER_MAX", 0.0)  # no escalation step left
    rng = np.random.default_rng(1)
    xn = rng.uniform(size=(10, 3))
    xn[1] = xn[0]
    y = rng.normal(size=10)
    theta = np.zeros(4)
    assert dense_neg_lml(xn, y, theta, 0.0, False)[0] == math.inf
    assert gp._neg_lml(xn, y, 0.0, False)(theta) == math.inf


@pytest.mark.parametrize("optimize_noise", [False, True])
def test_fit_params_unchanged_by_fast_likelihood(monkeypatch, optimize_noise):
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 1.0, size=(30, 4))
    d = Dataset.from_arrays(x, np.sin(4.0 * x[:, 0]) + x[:, 1] * x[:, 2])

    def tuned():
        return fit(d, init=KernelParams(0.5, np.full(4, 0.3), 1e-3), budget=3,
                   rng=np.random.default_rng(3), optimize_noise=optimize_noise,
                   max_evals=60).params

    fast = tuned()
    monkeypatch.setattr(
        gp, "_neg_lml",
        lambda xn, y, base, on: (lambda theta: dense_neg_lml(xn, y, theta, base, on)[0]),
    )
    dense = tuned()
    assert fast.signal_variance.hex() == dense.signal_variance.hex()
    assert [v.hex() for v in fast.lengthscales] == [v.hex() for v in dense.lengthscales]
    assert fast.noise_variance.hex() == dense.noise_variance.hex()
