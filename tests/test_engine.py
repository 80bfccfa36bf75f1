import numpy as np
import pytest

from hypbo import (
    AcquisitionSpec,
    Dataset,
    EngineConfig,
    GPConfig,
    ObjectiveError,
    box_hypothesis,
    get_objective,
    improved,
    initial_design,
    lower_step,
    make_quality_hypothesis,
    run,
    upper_step,
)
from hypbo.engine import GPCache
from hypbo.gp import KernelParams
from hypbo.trace import (
    SOURCE_INIT_GLOBAL,
    SOURCE_INIT_HYP,
    SOURCE_LOWER,
    SOURCE_UPPER,
)


@pytest.fixture(scope="module")
def sphere1():
    return get_objective("sphere:1")


@pytest.fixture(scope="module")
def sphere2():
    return get_objective("sphere:2")


# -- improvement test ------------------------------------------------

IMPROVED_CASES = [
    # (y_max, y_new, gamma, expect)
    (5.0, 6.0, 0.0, True),
    (5.0, 5.0, 0.0, False),        # tie is not improvement
    (5.0, 4.0, 0.0, False),
    (10.0, 10.5, 0.1, False),      # below the (1+gamma) bar
    (10.0, 11.5, 0.1, True),
    (-4.0, -3.0, 0.1, True),       # clears the (1-gamma) bar toward zero
    (-4.0, -3.5, 0.1, True),
    (-4.0, -3.9, 0.1, False),
    (-4.0, -4.0, 0.0, False),
    (-4.0, -3.999, 0.0, True),
    (0.0, 0.1, 0.1, True),         # zero incumbent: any positive value clears
    (0.0, 0.0, 0.0, False),
]


@pytest.mark.parametrize("y_max,y_new,gamma,expect", IMPROVED_CASES)
def test_improved_truth_table(y_max, y_new, gamma, expect):
    assert improved(y_max, y_new, gamma) is expect


def test_improved_rejects_negative_gamma():
    with pytest.raises(ValueError):
        improved(1.0, 2.0, -0.1)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_gamma_rejects_non_finite(gamma):
    with pytest.raises(ValueError, match="finite"):
        improved(1.0, 2.0, gamma)
    with pytest.raises(ValueError, match="finite"):
        EngineConfig(gamma=gamma)


# -- initial design --------------------------------------------------

def design_counts(n, hyps, space):
    rows = initial_design(space, hyps, n, np.random.default_rng(0))
    h = sum(1 for s, _, _ in rows if s == SOURCE_INIT_HYP)
    g = sum(1 for s, _, _ in rows if s == SOURCE_INIT_GLOBAL)
    return h, g, rows


@pytest.mark.parametrize("n,J", [(5, 0), (5, 3), (5, 5), (5, 7), (10, 9)])
def test_initial_design_counts(sphere2, n, J):
    hyps = [
        box_hypothesis(f"h{k}", sphere2.space, [-4.0 + 0.5 * k, -4.0], [0.5 * k, 0.0])
        for k in range(J)
    ]
    h, g, rows = design_counts(n, hyps, sphere2.space)
    assert h == J
    assert g == max(1, n - J)
    assert len(rows) == J + max(1, n - J)
    # exactly one point per hypothesis, in order, and feasible for it
    hyp_rows = [(j, x) for s, j, x in rows if s == SOURCE_INIT_HYP]
    assert [j for j, _ in hyp_rows] == list(range(J))
    for j, x in hyp_rows:
        assert hyps[j].contains(x)


def test_initial_design_requires_positive_n(sphere2):
    with pytest.raises(ValueError):
        initial_design(sphere2.space, [], 0, np.random.default_rng(0))


# -- lower level -----------------------------------------------------

def test_lower_step_returns_feasible_seed(sphere1):
    good = make_quality_hypothesis(sphere1, "good")
    rng = np.random.default_rng(0)
    x = sphere1.space.sample(rng, 6)
    d = Dataset.from_arrays(x, [sphere1(v) for v in x])
    seeds = lower_step(d, [good], sphere1.space, AcquisitionSpec(), rng)
    assert len(seeds) == 1
    assert seeds[0].hypothesis == 0
    assert good.contains(seeds[0].x)
    assert seeds[0].acq_value >= 0.0


def test_lower_step_prefers_good_region(sphere1):
    """With observations in both regions, the good-box seed should win
    the EI ranking in at least 90 of 100 seeded repetitions."""
    good = make_quality_hypothesis(sphere1, "good")
    poor = make_quality_hypothesis(sphere1, "poor")
    hits = 0
    for rep in range(100):
        rng = np.random.default_rng(1000 + rep)
        pts, ys = [], []
        for h in (good, poor):
            for _ in range(3):
                x = h.sample_uniform(rng)
                pts.append(x)
                ys.append(sphere1(x))
        for _ in range(2):
            x = sphere1.space.sample(rng)
            pts.append(x)
            ys.append(sphere1(x))
        d = Dataset.from_arrays(np.array(pts), ys)
        seeds = lower_step(d, [good, poor], sphere1.space, AcquisitionSpec(), rng)
        hits += seeds[0].hypothesis == 0
    assert hits >= 90


def test_lower_step_empty_region_uses_prior(sphere1):
    good = make_quality_hypothesis(sphere1, "good")
    # all observations outside the box -> local model falls back to the prior
    d = Dataset.from_arrays([[-4.0], [4.0]], [sphere1([-4.0]), sphere1([4.0])])
    seeds = lower_step(d, [good], sphere1.space, AcquisitionSpec(), np.random.default_rng(1))
    assert good.contains(seeds[0].x)


def test_lower_step_top_seeds_ranking(sphere1):
    good = make_quality_hypothesis(sphere1, "good")
    poor = make_quality_hypothesis(sphere1, "poor")
    rng = np.random.default_rng(5)
    x = sphere1.space.sample(rng, 8)
    d = Dataset.from_arrays(x, [sphere1(v) for v in x])
    seeds = lower_step(
        d, [good, poor], sphere1.space, AcquisitionSpec(), rng, top_seeds=2
    )
    assert len(seeds) == 2
    assert {s.hypothesis for s in seeds} == {0, 1}
    assert seeds[0].acq_value >= seeds[1].acq_value


def test_lower_step_needs_hypotheses(sphere1):
    with pytest.raises(ValueError):
        lower_step(Dataset(), [], sphere1.space, AcquisitionSpec(), np.random.default_rng(0))


# -- upper level -----------------------------------------------------

def test_upper_step_stays_in_box(sphere2):
    rng = np.random.default_rng(0)
    x = sphere2.space.sample(rng, 6)
    d = Dataset.from_arrays(x, [sphere2(v) for v in x])
    prop, acq = upper_step(d, sphere2.space, AcquisitionSpec(), rng, gp=GPConfig())
    assert sphere2.space.contains(prop)
    assert acq >= 0.0


def test_upper_step_matches_grid_argmax(sphere1):
    """With fixed hyperparameters the proposal lands near the dense-grid
    EI argmax of the same model."""
    from hypbo import expected_improvement, fit

    xs = np.array([[-4.0], [-2.0], [0.5], [2.5], [4.5]])
    d = Dataset.from_arrays(xs, [sphere1(v) for v in xs])
    model = fit(d, init=KernelParams.default(1, 1e-6), space=sphere1.space, optimize=False)
    grid = np.linspace(-5.12, 5.12, 1001)[:, None]
    gm, gv = model.predict(grid)
    x_grid = grid[int(np.argmax(expected_improvement(gm, np.sqrt(gv), d.y_max))), 0]
    for seed in range(5):
        prop, _ = upper_step(
            d, sphere1.space, AcquisitionSpec(), np.random.default_rng(seed),
            gp=GPConfig(optimize=False),
        )
        assert abs(float(prop[0]) - x_grid) <= 0.3


def test_upper_step_deterministic(sphere2):
    x = np.array([[1.0, 1.0], [-2.0, 0.5], [3.0, -3.0], [0.1, 0.2], [-4.0, 4.0]])
    d = Dataset.from_arrays(x, [sphere2(v) for v in x])
    a, _ = upper_step(d, sphere2.space, AcquisitionSpec(), np.random.default_rng(9), gp=GPConfig())
    b, _ = upper_step(d, sphere2.space, AcquisitionSpec(), np.random.default_rng(9), gp=GPConfig())
    np.testing.assert_array_equal(a, b)


# -- GP cache --------------------------------------------------------

def test_gp_cache_reoptimizes_on_schedule(sphere1):
    rng = np.random.default_rng(0)
    x = sphere1.space.sample(rng, 6)
    d = Dataset.from_arrays(x, [sphere1(v) for v in x])
    cache = GPCache(every=3)
    cfg = GPConfig()
    m0 = cache.fit("k", d, sphere1.space, cfg, np.random.default_rng(1))
    assert "k" in cache.params  # call 0 optimized and stored
    stored = cache.params["k"].copy()
    m1 = cache.fit("k", d, sphere1.space, cfg, np.random.default_rng(2))
    # call 1 reuses the stored parameters verbatim
    assert m1.params.signal_variance == stored.signal_variance
    np.testing.assert_array_equal(m1.params.lengthscales, stored.lengthscales)
    assert cache.calls["k"] == 2


def test_gp_cache_empty_data_gives_prior_without_counting(sphere2):
    cache = GPCache(every=2)
    cfg = GPConfig(noise_variance=1e-4)
    model = cache.fit("k", Dataset(), sphere2.space, cfg, np.random.default_rng(0))
    assert model.n == 0
    assert model.params.signal_variance == 1.0
    np.testing.assert_array_equal(model.params.lengthscales, np.ones(2))
    assert model.params.noise_variance == 1e-4
    assert model.space is sphere2.space
    assert cache.calls == {} and cache.params == {}


def _proposal_bits(seeds):
    return [(s.hypothesis, s.x.tobytes(), s.acq_value) for s in seeds]


@pytest.mark.parametrize("n", [0, 7])
def test_steps_without_cache_equal_fresh_cache(sphere2, n):
    x = sphere2.space.sample(np.random.default_rng(3), n)
    d = Dataset.from_arrays(x, [sphere2(v) for v in x]) if n else Dataset()
    hyps = [
        make_quality_hypothesis(sphere2, "good"),
        make_quality_hypothesis(sphere2, "poor"),
    ]
    spec = AcquisitionSpec(multistarts=8, refine_steps=16)
    low = [
        lower_step(d, hyps, sphere2.space, spec, np.random.default_rng(4), top_seeds=2, **kw)
        for kw in ({}, {"cache": GPCache()})
    ]
    assert _proposal_bits(low[0]) == _proposal_bits(low[1])
    up = [
        upper_step(d, sphere2.space, spec, np.random.default_rng(5), **kw)
        for kw in ({}, {"cache": GPCache()})
    ]
    assert up[0][0].tobytes() == up[1][0].tobytes() and up[0][1] == up[1][1]


# -- engine config ---------------------------------------------------

def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(n_init=0)
    with pytest.raises(ValueError):
        EngineConfig(i_max=0)
    with pytest.raises(ValueError):
        EngineConfig(gamma=-0.5)
    with pytest.raises(ValueError):
        EngineConfig(l_max=0)
    with pytest.raises(ValueError):
        EngineConfig(lower_incumbent="other")
    with pytest.raises(ValueError):
        GPConfig(restarts=0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            GPConfig(noise_variance=bad)


# -- full runs -------------------------------------------------------

def test_run_no_hypotheses_is_all_upper(sphere1):
    cfg = EngineConfig(n_init=5, i_max=10, seed=0)
    trace = run(sphere1, sphere1.space, [], cfg)
    sources = [r.source for r in trace]
    assert sources[:5] == [SOURCE_INIT_GLOBAL] * 5
    assert sources[5:] == [SOURCE_UPPER] * 10
    assert len(trace) == 15
    assert trace.n_init == 5


def test_run_record_counts_and_monotone_incumbent(sphere2):
    good = make_quality_hypothesis(sphere2, "good")
    cfg = EngineConfig(n_init=5, i_max=30, seed=3)
    trace = run(sphere2, sphere2.space, [good], cfg)
    assert len(trace.post_init()) == cfg.i_max
    inc = trace.incumbents(include_init=True)
    assert np.all(np.diff(inc) >= 0.0)
    vals = trace.values(include_init=True)
    np.testing.assert_allclose(inc, np.maximum.accumulate(vals))


def test_run_lower_rows_feasible(sphere2):
    good = make_quality_hypothesis(sphere2, "good")
    poor = make_quality_hypothesis(sphere2, "poor")
    hyps = [good, poor]
    trace = run(sphere2, sphere2.space, hyps, EngineConfig(n_init=5, i_max=25, seed=7))
    lower_rows = [r for r in trace if r.source == SOURCE_LOWER]
    assert lower_rows, "expected at least one lower-level evaluation"
    for r in lower_rows:
        assert hyps[r.hypothesis].contains(r.x)
        assert r.acq_value is not None
    for r in trace:
        if r.source == SOURCE_INIT_HYP:
            assert hyps[r.hypothesis].contains(r.x)


def test_run_deterministic_rerun(sphere2):
    good = make_quality_hypothesis(sphere2, "good")
    cfg = EngineConfig(n_init=5, i_max=15, seed=11)
    a = run(sphere2, sphere2.space, [good], cfg)
    b = run(sphere2, sphere2.space, [good], cfg)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.source == rb.source
        assert ra.hypothesis == rb.hypothesis
        np.testing.assert_array_equal(ra.x, rb.x)
        assert ra.y == rb.y
        assert ra.level_counters == rb.level_counters


def test_run_level_alternation_structure(sphere2):
    """Lower phases end only by hitting l_max (or the budget); upper
    phases end only by hitting u_max (or the budget)."""
    good = make_quality_hypothesis(sphere2, "good")
    cfg = EngineConfig(n_init=5, i_max=40, seed=2)
    trace = run(sphere2, sphere2.space, [good], cfg)
    post = trace.post_init()
    # split into maximal same-source phases
    phases = []
    for r in post:
        if phases and phases[-1][0] == r.source:
            phases[-1][1].append(r)
        else:
            phases.append((r.source, [r]))
    assert phases[0][0] == SOURCE_LOWER  # hypotheses present: lower level first
    for k, (src, rows) in enumerate(phases):
        last = rows[-1]
        is_final_phase = k == len(phases) - 1
        if src == SOURCE_LOWER:
            if not is_final_phase:
                assert last.level_counters[0] == cfg.l_max
        else:
            if not is_final_phase:
                assert last.level_counters[1] == cfg.u_max


def test_run_gamma_zero_reset_semantics(sphere2):
    good = make_quality_hypothesis(sphere2, "good")
    trace = run(sphere2, sphere2.space, [good], EngineConfig(n_init=5, i_max=30, seed=0))
    prev_inc = None
    for r in trace:
        if r.source == SOURCE_LOWER and prev_inc is not None:
            if r.y > prev_inc:  # the batch improved: counter must reset
                assert r.level_counters[0] == 0
        prev_inc = r.incumbent


def test_run_budget_exact_with_large_batches(sphere2):
    """top_seeds > 1: batches are truncated so post-init records == i_max."""
    good = make_quality_hypothesis(sphere2, "good")
    poor = make_quality_hypothesis(sphere2, "poor")
    cfg = EngineConfig(n_init=5, i_max=7, top_seeds=2, seed=1)
    trace = run(sphere2, sphere2.space, [good, poor], cfg)
    assert len(trace.post_init()) == 7


def test_run_wraps_objective_failures(sphere1):
    def exploding(x):
        raise RuntimeError("boom")

    with pytest.raises(ObjectiveError):
        run(exploding, sphere1.space, [], EngineConfig(n_init=2, i_max=2, seed=0))

    def non_finite(x):
        return float("nan")

    with pytest.raises(ObjectiveError):
        run(non_finite, sphere1.space, [], EngineConfig(n_init=2, i_max=2, seed=0))


def test_run_rejects_dimension_mismatch(sphere2):
    h1 = box_hypothesis("wrong", get_objective("sphere:1").space, [-1.0], [1.0])
    with pytest.raises(ValueError):
        run(sphere2, sphere2.space, [h1], EngineConfig())


def test_run_good_hypothesis_helps_when_search_is_hard():
    """Short-budget paired runs on a multimodal target: guidance toward
    the optimum should win most seeds and land close in all of them."""
    levy = get_objective("levy:2")
    good = make_quality_hypothesis(levy, "good")
    wins = 0
    regrets = []
    for t in range(10):
        cfg = EngineConfig(n_init=5, i_max=20, seed=t)
        with_h = run(levy, levy.space, [good], cfg)
        without = run(levy, levy.space, [], cfg)
        wins += with_h.best_y >= without.best_y
        regrets.append(levy.optimum_value - with_h.best_y)
    assert wins >= 7
    assert max(regrets) < 1.5
