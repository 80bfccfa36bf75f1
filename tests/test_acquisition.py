import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from hypbo import (
    AcquisitionSpec,
    Dataset,
    KernelParams,
    SearchSpace,
    box_hypothesis,
    expected_improvement,
    fit,
    maximize,
)
from hypbo.gp import GPModel


def test_spec_validation():
    with pytest.raises(ValueError):
        AcquisitionSpec(jitter=-0.1)
    with pytest.raises(ValueError):
        AcquisitionSpec(multistarts=0)


def test_ei_zero_std_at_incumbent():
    assert expected_improvement(1.0, 0.0, 1.0) == 0.0


def test_ei_zero_std_positive_gap():
    assert expected_improvement(2.0, 0.0, 0.5) == pytest.approx(1.5, abs=0)
    assert expected_improvement(0.0, 0.0, 0.5) == 0.0


def test_ei_at_incumbent_unit_std():
    # delta = 0: EI = std * pdf(0) = 1/sqrt(2 pi)
    assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=1e-12
    )
    assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(0.39894, abs=1e-5)


def test_ei_large_gap_approaches_delta():
    assert expected_improvement(100.0, 1.0, 0.0) == pytest.approx(100.0, abs=1e-6)


def test_ei_closed_form_value():
    mean, std, inc = 0.3, 0.7, 0.1
    delta = mean - inc
    z = delta / std
    want = delta * norm.cdf(z) + std * norm.pdf(z)
    assert expected_improvement(mean, std, inc) == pytest.approx(want, abs=1e-12)


def test_ei_jitter_shifts_incumbent():
    a = expected_improvement(1.0, 0.5, 0.0, jitter=0.25)
    b = expected_improvement(0.75, 0.5, 0.0)
    assert a == pytest.approx(b, abs=1e-12)


def test_ei_vectorized_and_nonnegative():
    mean = np.linspace(-3, 3, 31)
    ei = expected_improvement(mean, np.full_like(mean, 0.4), 0.0)
    assert ei.shape == mean.shape
    assert np.all(ei >= 0.0)
    assert np.all(np.diff(ei) >= 0.0)  # monotone in the predictive mean


def test_ei_monte_carlo_cross_check():
    rng = np.random.default_rng(8)
    for mean, std, inc in [(0.0, 1.0, 0.5), (-1.0, 0.3, -0.8), (2.0, 2.0, -1.0)]:
        z = rng.normal(mean, std, size=200_000)
        mc = float(np.mean(np.maximum(z - inc, 0.0)))
        assert expected_improvement(mean, std, inc) == pytest.approx(mc, abs=5e-3)


def test_ei_bit_identical_to_scipy_norm():
    # z = 0 (both signs), the tails past |z| = 8, and everything between
    z = np.concatenate([np.linspace(-40.0, 40.0, 8001), [0.0, -0.0, 8.5, -8.5, 1e-300]])
    assert np.array_equal(ndtr(z), norm.cdf(z))
    assert np.array_equal(np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi), norm.pdf(z))
    # through expected_improvement, std == 0 branch included
    for std in (0.0, 1e-3, 1.0, 7.5):
        for inc, jit in ((0.0, 0.0), (-1.3, 0.01)):
            mean = inc + z * max(std, 1.0)
            s = np.full_like(z, std)
            delta = mean - inc - jit
            zz = delta / std if std > 0 else np.zeros_like(z)
            want = (
                delta * norm.cdf(zz) + std * norm.pdf(zz)
                if std > 0
                else np.maximum(delta, 0.0)
            )
            got = expected_improvement(mean, s, inc, jit)
            assert np.array_equal(got, np.maximum(want, 0.0))


def test_ei_rejects_negative_std():
    with pytest.raises(ValueError):
        expected_improvement(0.0, -1.0, 0.0)


def test_maximize_on_prior_returns_flat_ei():
    sp = SearchSpace([0.0, 0.0], [1.0, 1.0])
    m = GPModel.prior(KernelParams(4.0, [1.0, 1.0]), sp)
    x, v = maximize(m, sp, 0.0, AcquisitionSpec(), np.random.default_rng(0))
    assert sp.contains(x)
    # EI is constant on a data-free model: std = sqrt(sv) everywhere
    assert v == pytest.approx(expected_improvement(0.0, 2.0, 0.0), abs=1e-12)


def test_maximize_two_zeros_peak_at_midpoint():
    """EI for a symmetric two-point model peaks halfway between the points."""
    box = SearchSpace([0.0], [2.0])
    d = Dataset.from_arrays([[0.0], [2.0]], [0.0, 0.0])
    with pytest.warns(RuntimeWarning):
        m = fit(d, init=KernelParams(1.0, [1.0], 1e-6), space=box, optimize=False)
    grid = np.linspace(0.0, 2.0, 1001)[:, None]
    gm, gv = m.predict(grid)
    grid_best = grid[int(np.argmax(expected_improvement(gm, np.sqrt(gv), 0.0))), 0]
    for seed in range(5):
        x, v = maximize(m, box, 0.0, AcquisitionSpec(), np.random.default_rng(seed))
        assert abs(float(x[0]) - 1.0) <= 0.15
        assert abs(float(x[0]) - grid_best) <= 0.15


def test_maximize_dominates_grid():
    rng = np.random.default_rng(3)
    sp = SearchSpace([-2.0, -2.0], [2.0, 2.0])
    x = rng.uniform(-2, 2, size=(12, 2))
    y = -np.sum(x * x, axis=1)
    m = fit(
        Dataset.from_arrays(x, y),
        init=KernelParams(1.0, [1.0, 1.0], 1e-6),
        space=sp,
        optimize=True,
        budget=2,
        rng=rng,
    )
    gx = np.linspace(-2, 2, 41)
    grid = np.array([[a, b] for a in gx for b in gx])
    gm, gv = m.predict(grid)
    grid_best = float(np.max(expected_improvement(gm, np.sqrt(gv), float(np.max(y)))))
    _, v = maximize(m, sp, float(np.max(y)), AcquisitionSpec(), np.random.default_rng(1))
    assert v >= 0.99 * grid_best


def test_maximize_respects_hypothesis_region():
    sp = SearchSpace([-5.0, -5.0], [5.0, 5.0])
    h = box_hypothesis("corner", sp, [1.0, 1.0], [2.0, 2.0])
    m = GPModel.prior(KernelParams(1.0, [1.0, 1.0]), sp)
    for seed in range(20):
        x, _ = maximize(m, h, 0.0, AcquisitionSpec(), np.random.default_rng(seed))
        assert h.contains(x)


def test_maximize_respects_halfspace_region():
    sp = SearchSpace([0.0, 0.0], [5.0, 5.0])
    from hypbo import Hypothesis

    h = Hypothesis("sum", sp, ineq_lhs=[[-1.0, -1.0]], ineq_rhs=[-6.0])  # x0+x1 >= 6
    rng = np.random.default_rng(0)
    x_tr = np.array([h.sample_uniform(rng) for _ in range(6)])
    y_tr = -np.sum((x_tr - 4.0) ** 2, axis=1)
    m = fit(
        Dataset.from_arrays(x_tr, y_tr),
        init=KernelParams(1.0, [1.0, 1.0], 1e-6),
        space=sp,
        optimize=False,
    )
    for seed in range(10):
        x, _ = maximize(m, h, float(np.max(y_tr)), AcquisitionSpec(), np.random.default_rng(seed))
        assert h.contains(x)


def test_maximize_never_below_best_start():
    """Refinement must not lose to the raw multistart winner."""
    sp = SearchSpace([-1.0], [1.0])
    d = Dataset.from_arrays([[-0.5], [0.5]], [0.0, 0.3])
    m = fit(d, init=KernelParams(1.0, [0.3], 1e-6), space=sp, optimize=False)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        spec = AcquisitionSpec()
        starts = sp.sample(np.random.default_rng(seed), spec.multistarts)
        sm, sv = m.predict(starts)
        best_start = float(np.max(expected_improvement(sm, np.sqrt(sv), 0.3)))
        _, v = maximize(m, sp, 0.3, spec, rng)
        assert v >= best_start - 1e-12


def test_maximize_deterministic():
    sp = SearchSpace([0.0, 0.0], [1.0, 1.0])
    m = GPModel.prior(KernelParams(1.0, [1.0, 1.0]), sp)
    a, _ = maximize(m, sp, 0.0, AcquisitionSpec(), np.random.default_rng(42))
    b, _ = maximize(m, sp, 0.0, AcquisitionSpec(), np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_maximize_rejects_unknown_region():
    m = GPModel.prior(KernelParams(1.0, [1.0]))
    with pytest.raises(TypeError):
        maximize(m, object(), 0.0, AcquisitionSpec(), np.random.default_rng(0))
