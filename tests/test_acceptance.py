"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v``; verdict lines bypass
capture so they always reach the terminal. Each line carries the measured
numbers next to the thresholds they are held against. Expected values
come from independent reference computations inside this file (dense
linear algebra, quasi-Monte Carlo, hand arithmetic), never from the
implementation under test.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm, qmc

from hypbo import (
    Dataset,
    EngineConfig,
    ExperimentConfig,
    KernelParams,
    box_hypothesis,
    expected_improvement,
    fit,
    get_objective,
    improved,
    initial_design,
    make_quality_hypothesis,
    run,
    run_experiment,
    wilcoxon_signed_rank,
    write_traces_csv,
)
from hypbo.chemistry import (
    chemistry_hypotheses,
    component_space,
    fit_oracle,
    generate_standin_dataset,
)
from hypbo.harness import random_search_trace, trace_filename
from hypbo.space import SearchSpace
from hypbo.trace import (
    SOURCE_INIT_GLOBAL,
    SOURCE_INIT_HYP,
    SOURCE_LOWER,
    SOURCE_UPPER,
)

pytestmark = pytest.mark.acceptance


def _verdict(capsys, num, ok, detail, elapsed):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail} ({elapsed:.1f}s)"
    with capsys.disabled():
        print(line)
    assert ok, line


def _final_regret(trace, optimum):
    return optimum - trace.records[-1].incumbent


# -- 1: posterior algebra vs dense reference solve --------------------

def _reference_posterior(train_x, train_y, params, query):
    """Dense textbook solve: explicit kernel matrix, explicit inverse."""
    s2 = params.signal_variance
    ls = params.lengthscales

    def k(a, b):
        r = np.sqrt(np.sum(((a - b) / ls) ** 2))
        t = np.sqrt(5.0) * r
        return s2 * (1.0 + t + t * t / 3.0) * np.exp(-t)

    n = train_x.shape[0]
    K = np.array([[k(train_x[i], train_x[j]) for j in range(n)] for i in range(n)])
    A = np.linalg.inv(K + params.noise_variance * np.eye(n))
    ks = np.array([k(query, train_x[i]) for i in range(n)])
    mean = ks @ A @ train_y
    var = s2 - ks @ A @ ks
    return mean, var


def test_c01_gp_posterior_matches_dense_solve(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(25):
        d = 1 + i % 3
        n = int(rng.integers(2, 11))
        x = rng.uniform(-1.5, 1.5, size=(n, d))
        y = rng.normal(0.0, 1.0, size=n)
        params = KernelParams(
            signal_variance=10 ** rng.uniform(-0.5, 0.5),
            lengthscales=10 ** rng.uniform(-0.5, 0.3, size=d),
            noise_variance=10 ** rng.uniform(-4.0, -2.0),
        )
        model = fit(Dataset.from_arrays(x, y), init=params, optimize=False)
        assert model.jitter == 0.0  # reference solve assumes the plain kernel
        for q in rng.uniform(-1.5, 1.5, size=(5, d)):
            m, v = model.predict(q, min_variance=None)
            rm, rv = _reference_posterior(x, y, params, q)
            worst = max(worst, abs(m - rm), abs(v - rv))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    _verdict(capsys, 1, ok, f"25 datasets, worst |Δ| {worst:.2e} vs 1e-08 bound", elapsed)


# -- 2: closed-form EI vs quasi-Monte Carlo ---------------------------

def test_c02_ei_matches_monte_carlo(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(20):
        mean = float(rng.uniform(-2, 2))
        std = float(rng.uniform(0.05, 2))
        inc = float(rng.uniform(-2, 2))
        # scrambled Sobol + inverse CDF: ~1.05M Gaussian samples per triple
        eng = qmc.Sobol(d=1, scramble=True, seed=1000 + k)
        z = mean + std * norm.ppf(eng.random(2**20).ravel())
        mc = float(np.mean(np.maximum(z - inc, 0.0)))
        worst = max(worst, abs(expected_improvement(mean, std, inc) - mc))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 30.0
    _verdict(capsys, 2, ok, f"20 triples, worst |Δ| {worst:.2e} vs 1e-03 bound", elapsed)


# -- 3: plateau predicate hand table ----------------------------------

# (y_max, y_new, gamma, expected): every sign of y_max meets every gamma,
# with improving, tying, and worsening proposals.  The relative margin
# scales toward zero for negative incumbents, so e.g. -3 clears the bar
# (1 - 0.1) * -4 = -3.6 while 10.5 falls short of (1 + 0.1) * 10 = 11.
_IMPROVED_TABLE = [
    (5.0, 6.0, 0.0, True),
    (5.0, 5.0, 0.0, False),
    (5.0, 4.0, 0.0, False),
    (10.0, 12.0, 0.1, True),
    (10.0, 10.5, 0.1, False),
    (10.0, 9.0, 0.1, False),
    (-4.0, -3.0, 0.0, True),
    (-4.0, -4.0, 0.0, False),
    (-4.0, -3.0, 0.1, True),
    (-4.0, -4.5, 0.1, False),
    (0.0, 1.0, 0.0, True),
    (0.0, 0.0, 0.1, False),
]


def test_c03_plateau_truth_table(capsys):
    t0 = time.perf_counter()
    bad = [row for row in _IMPROVED_TABLE if improved(*row[:3]) is not row[3]]
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 3, not bad, f"12-case hand table, {len(bad)} mismatches", elapsed)


# -- 4: initial-design counting ---------------------------------------

def test_c04_initial_design_counts(capsys):
    t0 = time.perf_counter()
    space = SearchSpace(np.full(3, -1.0), np.full(3, 1.0))
    failures = []
    for n, J in [(5, 0), (5, 3), (5, 5), (5, 7), (10, 9)]:
        hyps = [
            box_hypothesis(f"h{j}", space, np.full(3, -1.0 + 0.2 * j),
                           np.full(3, -0.8 + 0.2 * j))
            for j in range(J)
        ]
        design = initial_design(space, hyps, n, np.random.default_rng(n * 100 + J))
        per_hyp = [j for src, j, _ in design if src == SOURCE_INIT_HYP]
        n_global = sum(1 for src, _, _ in design if src == SOURCE_INIT_GLOBAL)
        ok = (
            len(design) == J + max(1, n - J)
            and sorted(per_hyp) == list(range(J))
            and n_global == max(1, n - J)
            and all(hyps[j].contains(x) for src, j, x in design
                    if src == SOURCE_INIT_HYP)
        )
        if not ok:
            failures.append((n, J, len(design)))
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 4, not failures, f"5 (n, J) pairs, failures: {failures}", elapsed)


# -- 5/6/7: scaled benchmark orderings --------------------------------

def _paired_runs(key, quality_keys, i_max, trials, with_random=False):
    """Per-trial traces for hypbo(qualities) / vanilla [/ random search]."""
    spec = get_objective(key)
    hyps = [make_quality_hypothesis(spec, q) for q in quality_keys]
    base = EngineConfig(n_init=5, i_max=i_max)
    out = {"hypbo": [], "vanilla": [], "random": []}
    for t in range(trials):
        cfg = replace(base, seed=t)
        out["hypbo"].append(run(spec, spec.space, hyps, cfg))
        out["vanilla"].append(run(spec, spec.space, [], cfg))
        if with_random:
            out["random"].append(
                random_search_trace(spec, spec.space, base.n_init, i_max, t)
            )
    return spec, out


def test_c05_good_hypothesis_accelerates(capsys):
    t0 = time.perf_counter()
    parts = []
    ok = True
    for key in ("sphere:2", "levy:5"):
        spec, traces = _paired_runs(key, ["good"], 50, 20, with_random=True)
        rh = np.array([_final_regret(t, spec.optimum_value) for t in traces["hypbo"]])
        rv = np.array([_final_regret(t, spec.optimum_value) for t in traces["vanilla"]])
        rr = np.array([_final_regret(t, spec.optimum_value) for t in traces["random"]])
        _, pv = wilcoxon_signed_rank(rh, rv)
        _, pr = wilcoxon_signed_rank(rh, rr)
        ok &= (
            rh.mean() < rv.mean() and pv < 0.05
            and rh.mean() < rr.mean() and pr < 0.05
        )
        parts.append(
            f"{key} regret {rh.mean():.3g} vs bo {rv.mean():.3g} (p {pv:.3g})"
            f" vs rs {rr.mean():.3g} (p {pr:.3g})"
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    _verdict(capsys, 5, ok, "; ".join(parts), elapsed)


def test_c06_poor_hypothesis_recovers(capsys):
    t0 = time.perf_counter()
    spec, traces = _paired_runs("sphere:2", ["poor"], 100, 20)
    rp = np.array([_final_regret(t, spec.optimum_value) for t in traces["hypbo"]])
    rv = np.array([_final_regret(t, spec.optimum_value) for t in traces["vanilla"]])
    ratio = rp.mean() / rv.mean()
    elapsed = time.perf_counter() - t0
    ok = ratio <= 1.5 and elapsed < 600.0
    _verdict(
        capsys, 6,
        ok,
        f"poor {rp.mean():.3g} vs vanilla {rv.mean():.3g}, ratio {ratio:.2f} vs 1.5 cap",
        elapsed,
    )


def test_c07_mixed_hypotheses_prefer_good(capsys):
    t0 = time.perf_counter()
    spec = get_objective("sphere:2")
    hyps = [make_quality_hypothesis(spec, "good"), make_quality_hypothesis(spec, "poor")]
    base = EngineConfig(n_init=5, i_max=60)
    wins = 0
    trials = 20
    for t in range(trials):
        trace = run(spec, spec.space, hyps, replace(base, seed=t))
        window = trace.post_init()[29:60]  # iterations 30 through 60
        good = sum(1 for r in window if r.source == SOURCE_LOWER and r.hypothesis == 0)
        poor = sum(1 for r in window if r.source == SOURCE_LOWER and r.hypothesis == 1)
        wins += good > poor
    elapsed = time.perf_counter() - t0
    ok = wins >= int(np.ceil(0.8 * trials)) and elapsed < 600.0
    _verdict(capsys, 7, ok, f"good-region cheaper in {wins}/{trials} trials vs 16 needed", elapsed)


# -- 8: no hypotheses degenerates to plain BO -------------------------

def test_c08_degenerates_to_vanilla(capsys, tmp_path):
    t0 = time.perf_counter()
    spec = get_objective("sphere:2")
    cfg = EngineConfig(n_init=5, i_max=15, seed=3)
    hypbo_trace = run(spec, spec.space, [], cfg)  # J = 0
    vanilla_trace = run(spec, spec.space, [], cfg)
    structure_ok = (
        len(hypbo_trace) == 20
        and all(r.source == SOURCE_INIT_GLOBAL for r in hypbo_trace.records[:5])
        and all(
            r.source == SOURCE_UPPER and r.hypothesis is None
            and r.level_counters[0] == 0
            for r in hypbo_trace.post_init()
        )
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_traces_csv(a, {0: hypbo_trace})
    write_traces_csv(b, {0: vanilla_trace})
    identical = a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, 8,
        structure_ok and identical,
        f"all-upper structure {structure_ok}, traces byte-identical {identical}",
        elapsed,
    )


# -- 9: chemistry pipeline end-to-end ---------------------------------

def test_c09_chemistry_pipeline(capsys):
    t0 = time.perf_counter()
    data = generate_standin_dataset(200, np.random.default_rng(9))
    oracle = fit_oracle(data, np.random.default_rng(9))
    hyps = chemistry_hypotheses("virtual_chemists")
    space = component_space()
    base = EngineConfig(n_init=5, i_max=60)
    violations = 0
    for t in range(5):
        trace = run(oracle, space, hyps, replace(base, seed=t))
        assert len(trace) == trace.n_init + 60
        for r in trace:
            if r.source in (SOURCE_LOWER, SOURCE_INIT_HYP):
                violations += not hyps[r.hypothesis].contains(r.x)
    # the two retrospective constraint sets: both satisfiable, never both
    (ph,) = chemistry_hypotheses("perfect_hindsight")  # certified at build
    (bw,) = chemistry_hypotheses("bizarro_world")
    rng = np.random.default_rng(0)
    cross = sum(bw.contains(ph.sample_uniform(rng)) for _ in range(50))
    cross += sum(ph.contains(bw.sample_uniform(rng)) for _ in range(50))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and cross == 0 and elapsed < 900.0
    _verdict(
        capsys, 9,
        ok,
        f"5 trials, {violations} constraint violations, {cross} overlap hits",
        elapsed,
    )


# -- 10: byte-identical reruns ----------------------------------------

def test_c10_reruns_are_byte_identical(capsys, tmp_path):
    t0 = time.perf_counter()
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = ExperimentConfig(
            objective="sphere:2",
            hypotheses=["good"],
            trials=2,
            engine=EngineConfig(n_init=3, i_max=4, seed=0),
            output_dir=str(out),
        )
        run_experiment(cfg)
        outs.append(out)
    differing = [
        trace_filename(m, t)
        for m in ("hypbo", "vanilla_bo", "random_search")
        for t in range(2)
        if (outs[0] / trace_filename(m, t)).read_bytes()
        != (outs[1] / trace_filename(m, t)).read_bytes()
    ]
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 10, not differing, f"6 trace files, differing: {differing}", elapsed)
