import json
import os

import numpy as np
import pytest

from hypbo import EngineConfig, ObjectiveError, get_objective, read_traces_csv
from hypbo.harness import (
    ConfigError,
    ExperimentConfig,
    METHODS,
    _resolve_hypotheses,
    _resolve_objective,
    _worker_count,
    cumulative_regret,
    load_experiment_config,
    random_search_trace,
    report,
    run_experiment,
    simple_regret,
    summarize,
    trace_filename,
)
from hypbo.trace import SOURCE_INIT_GLOBAL, SOURCE_UPPER, Trace, TraceRecord


def toy_trace():
    t = Trace(1)
    rows = [
        (SOURCE_INIT_GLOBAL, 0.2, 0.2),
        (SOURCE_UPPER, 0.5, 0.5),
        (SOURCE_UPPER, 0.8, 0.8),
        (SOURCE_UPPER, 0.7, 0.8),
    ]
    for i, (src, y, inc) in enumerate(rows):
        t.append(TraceRecord(i, src, None, np.array([0.0]), y, inc, None, (0, 0)))
    return t


def test_simple_regret_values():
    np.testing.assert_allclose(simple_regret(toy_trace(), 1.0), [0.5, 0.2, 0.2])
    np.testing.assert_allclose(
        simple_regret(toy_trace(), 1.0, include_init=True), [0.8, 0.5, 0.2, 0.2]
    )


def test_cumulative_regret_values():
    np.testing.assert_allclose(cumulative_regret(toy_trace(), 1.0), [0.5, 0.7, 1.0])
    np.testing.assert_allclose(
        cumulative_regret(toy_trace(), 1.0, include_init=True), [0.8, 1.3, 1.5, 1.8]
    )


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_random_search_rejects_non_finite_objective(bad):
    spec = get_objective("sphere:2")
    calls = []

    def objective(x):
        calls.append(x)
        return bad if len(calls) == 3 else spec(x)

    with pytest.raises(ObjectiveError, match="non-finite") as info:
        random_search_trace(objective, spec.space, 2, 4, seed=1)
    np.testing.assert_array_equal(info.value.x, calls[-1])


def test_random_search_surfaces_objective_exception():
    def objective(x):
        raise ZeroDivisionError("boom")

    spec = get_objective("sphere:2")
    with pytest.raises(ObjectiveError, match="boom"):
        random_search_trace(objective, spec.space, 2, 4, seed=1)


def test_random_search_trace_shape_and_reconstruction():
    spec = get_objective("sphere:2")
    tr = random_search_trace(spec, spec.space, 4, 6, seed=5)
    assert len(tr) == 10
    assert tr.n_init == 4
    assert all(r.source == SOURCE_UPPER for r in tr.post_init())
    assert all(r.acq_value is None for r in tr)
    inc = tr.incumbents(include_init=True)
    np.testing.assert_allclose(inc, np.maximum.accumulate(tr.values(include_init=True)))
    # bit-exact replay of the draw stream
    rng = np.random.default_rng(5)
    for r in tr:
        np.testing.assert_array_equal(r.x, spec.space.sample(rng))


def test_summarize_comparison_error_on_few_trials():
    spec = get_objective("sphere:1")
    traces = {
        "hypbo": {t: random_search_trace(spec, spec.space, 2, 3, t) for t in range(3)},
        "vanilla_bo": {t: random_search_trace(spec, spec.space, 2, 3, 50 + t) for t in range(3)},
    }
    s = summarize(traces, spec.optimum_value)
    cmp = s.comparisons["hypbo_vs_vanilla_bo"]
    assert "error" in cmp and "p_value" not in cmp
    assert s.methods["hypbo"].mean_simple_regret.shape == (3,)
    assert s.methods["hypbo"].final_regrets.shape == (3,)


def test_summarize_detects_separated_methods():
    spec = get_objective("sphere:1")
    good = {t: random_search_trace(spec, spec.space, 2, 10, t) for t in range(8)}
    bad = {}
    for t in range(8):
        tr = Trace(1)
        for i in range(12):
            tr.append(TraceRecord(i, SOURCE_UPPER if i >= 2 else SOURCE_INIT_GLOBAL,
                                  None, np.array([3.0]), -9.0, -9.0, None, (0, 0)))
        bad[t] = tr
    s = summarize({"hypbo": good, "vanilla_bo": bad}, spec.optimum_value)
    cmp = s.comparisons["hypbo_vs_vanilla_bo"]
    assert cmp["significant"] is True
    assert cmp["p_value"] < 0.05
    assert cmp["alpha_bonferroni"] == pytest.approx(0.05)  # single baseline


# -- experiment driver ------------------------------------------------

BASE = dict(
    objective="sphere:2",
    hypotheses=["good"],
    trials=3,
    engine=EngineConfig(n_init=3, i_max=6, seed=0),
)


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = ExperimentConfig(output_dir=str(out), **BASE)
    summary = run_experiment(cfg)
    return out, summary


def test_experiment_writes_artifacts(experiment_dir):
    out, summary = experiment_dir
    for m in METHODS:
        for t in range(3):
            assert (out / trace_filename(m, t)).exists()
    assert (out / "summary.json").exists()
    assert (out / "regret.svg").exists()
    meta = json.loads((out / "summary.json").read_text())
    assert meta["config"]["objective"] == "sphere:2"
    assert meta["config"]["trials"] == 3
    assert set(meta["config"]["methods"]) == set(METHODS)
    # result block keeps its own per-method curves without clobbering the echo
    assert set(meta["methods"]) == set(METHODS)
    assert "hypbo_vs_random_search" in meta["comparisons"]
    svg = (out / "regret.svg").read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_experiment_trace_files_roundtrip(experiment_dir):
    out, _ = experiment_dir
    for m in METHODS:
        for t in range(3):
            back = read_traces_csv(out / trace_filename(m, t))
            assert list(back) == [t]
            assert len(back[t]) == 3 + 6
            assert back[t].n_init == 3


def test_experiment_summary_matches_recomputation(experiment_dir):
    out, summary = experiment_dir
    opt = get_objective("sphere:2").optimum_value
    for m in METHODS:
        stack = []
        for t in range(3):
            tr = read_traces_csv(out / trace_filename(m, t))[t]
            stack.append(simple_regret(tr, opt))
        np.testing.assert_allclose(
            summary.methods[m].mean_simple_regret,
            np.mean(stack, axis=0),
            rtol=0, atol=1e-12,
        )


def test_experiment_rerun_is_byte_identical(experiment_dir, tmp_path):
    out, _ = experiment_dir
    rerun = tmp_path / "rerun"
    run_experiment(ExperimentConfig(output_dir=str(rerun), **BASE))
    for m in METHODS:
        for t in range(3):
            a = (out / trace_filename(m, t)).read_bytes()
            b = (rerun / trace_filename(m, t)).read_bytes()
            assert a == b, f"{m} trial {t} diverged between reruns"


def test_trial_seeds_do_not_depend_on_method_set(experiment_dir, tmp_path):
    out, _ = experiment_dir
    solo = tmp_path / "solo"
    cfg = dict(BASE)
    cfg["hypotheses"] = []
    run_experiment(
        ExperimentConfig(output_dir=str(solo), methods=("vanilla_bo",), **cfg)
    )
    for t in range(3):
        a = (out / trace_filename("vanilla_bo", t)).read_bytes()
        b = (solo / trace_filename("vanilla_bo", t)).read_bytes()
        assert a == b


def test_report_recomputes_same_summary(experiment_dir):
    out, _ = experiment_dir
    before = json.loads((out / "summary.json").read_text())
    report(str(out))
    after = json.loads((out / "summary.json").read_text())
    assert before == after


def test_report_requires_summary(tmp_path):
    with pytest.raises(ConfigError, match="summary.json"):
        report(str(tmp_path))


def test_report_missing_trace_file(experiment_dir, tmp_path):
    out, _ = experiment_dir
    clone = tmp_path / "clone"
    clone.mkdir()
    (clone / "summary.json").write_text((out / "summary.json").read_text())
    with pytest.raises(ConfigError, match="missing trace"):
        report(str(clone))


def test_hypbo_requires_hypotheses(tmp_path):
    cfg = ExperimentConfig(
        objective="sphere:2", hypotheses=[], trials=1, output_dir=str(tmp_path)
    )
    with pytest.raises(ConfigError, match="hypothesis"):
        run_experiment(cfg)


def test_oracle_objective_path(tmp_path):
    cfg = ExperimentConfig(
        objective="standin",
        methods=("random_search",),
        trials=1,
        engine=EngineConfig(n_init=2, i_max=3, seed=1),
        output_dir=str(tmp_path / "her"),
        standin_rows=30,
    )
    run_experiment(cfg)
    resolved = _resolve_objective(cfg)
    assert resolved.name == "standin"
    assert resolved.payload[0] == "oracle"
    assert resolved.space.dim == 10
    tr = read_traces_csv(tmp_path / "her" / trace_filename("random_search", 0))[0]
    # estimated optimum should dominate anything a short run saw
    assert resolved.optimum_value >= tr.best_y


# -- config resolution ------------------------------------------------

def test_resolve_objective_errors():
    with pytest.raises(ConfigError):
        _resolve_objective(ExperimentConfig(objective="nope:3"))
    with pytest.raises(ConfigError, match="not found"):
        _resolve_objective(ExperimentConfig(objective="missing_file.csv"))


def test_resolve_hypotheses_quality_and_chemistry():
    cfg = ExperimentConfig(objective="sphere:2", hypotheses=["good + poor"])
    resolved = _resolve_objective(cfg)
    hyps = _resolve_hypotheses(cfg, resolved)
    assert [h.label for h in hyps] == ["sphere_good", "sphere_poor"]

    cfg2 = ExperimentConfig(objective="standin", hypotheses=["virtual_chemists"],
                            standin_rows=30)
    hyps2 = _resolve_hypotheses(cfg2, _resolve_objective(cfg2))
    assert len(hyps2) == 9
    assert hyps2[0].label == "Dye Sceptic"


def test_resolve_hypotheses_unknown_key():
    cfg = ExperimentConfig(objective="sphere:2", hypotheses=["excellent"])
    with pytest.raises(ConfigError, match="unknown hypothesis"):
        _resolve_hypotheses(cfg, _resolve_objective(cfg))


def test_resolve_quality_needs_synthetic(tmp_path):
    cfg = ExperimentConfig(objective="standin", hypotheses=["good"], standin_rows=30)
    with pytest.raises(ConfigError, match="synthetic"):
        _resolve_hypotheses(cfg, _resolve_objective(cfg))


def test_resolve_hypotheses_file(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({
        "label": "left half",
        "constraints": [{"terms": {"0": 1.0}, "op": "<=", "rhs": 0.0}],
    }))
    cfg = ExperimentConfig(objective="sphere:2", hypotheses=[str(path)])
    hyps = _resolve_hypotheses(cfg, _resolve_objective(cfg))
    assert len(hyps) == 1 and hyps[0].label == "left half"
    cfg_bad = ExperimentConfig(objective="sphere:2", hypotheses=["nope.json"])
    with pytest.raises(ConfigError, match="not found"):
        _resolve_hypotheses(cfg_bad, _resolve_objective(cfg_bad))


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(objective="sphere:2", trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(objective="sphere:2", methods=("simulated_annealing",))
    with pytest.raises(ConfigError):
        ExperimentConfig(objective="sphere:2", methods=())
    with pytest.raises(ConfigError):
        ExperimentConfig(objective="sphere:2", band="iqr")


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("HYPBO_THREADS", "2")
    assert _worker_count(8) == 2
    assert _worker_count(1) == 1
    monkeypatch.setenv("HYPBO_THREADS", "zero")
    with pytest.raises(ConfigError, match="HYPBO_THREADS"):
        _worker_count(4)
    monkeypatch.delenv("HYPBO_THREADS")
    assert _worker_count(3) >= 1


# -- INI parsing ------------------------------------------------------

INI = """\
[objective]
key = levy:3

[hypotheses]
keys = good, poor

[engine]
n_init = 7
i_max = 40
seed = 9
gamma = 0.05
top_seeds = 2
l_max = 3
u_max = 4
gp_optimize_every = 2
lower_incumbent = local

[methods]
use = hypbo, vanilla_bo
trials = 6

[output]
dir = out_here
band = std
"""


def test_load_experiment_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(INI)
    cfg = load_experiment_config(path)
    assert cfg.objective == "levy:3"
    assert cfg.hypotheses == ["good", "poor"]
    assert cfg.methods == ("hypbo", "vanilla_bo")
    assert cfg.trials == 6
    assert cfg.output_dir == "out_here"
    assert cfg.band == "std"
    e = cfg.engine
    assert (e.n_init, e.i_max, e.seed) == (7, 40, 9)
    assert e.gamma == 0.05
    assert (e.top_seeds, e.l_max, e.u_max) == (2, 3, 4)
    assert e.gp_optimize_every == 2
    assert e.lower_incumbent == "local"


def test_load_experiment_config_defaults(tmp_path):
    path = tmp_path / "min.ini"
    path.write_text("[objective]\nkey = sphere:2\n")
    cfg = load_experiment_config(path)
    assert cfg.methods == tuple(METHODS)
    assert cfg.trials == 20
    assert cfg.output_dir == "results"
    assert cfg.engine.n_init == 5 and cfg.engine.i_max == 100


def test_load_experiment_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_experiment_config(tmp_path / "absent.ini")
    p = tmp_path / "noobj.ini"
    p.write_text("[engine]\nn_init = 3\n")
    with pytest.raises(ConfigError, match="objective"):
        load_experiment_config(p)
    p2 = tmp_path / "badint.ini"
    p2.write_text("[objective]\nkey = sphere:2\n\n[engine]\ni_max = soon\n")
    with pytest.raises(ConfigError):
        load_experiment_config(p2)
    p3 = tmp_path / "badmode.ini"
    p3.write_text("[objective]\nkey = sphere:2\n\n[engine]\nlower_incumbent = middle\n")
    with pytest.raises(ConfigError):
        load_experiment_config(p3)
    p4 = tmp_path / "badmethod.ini"
    p4.write_text("[objective]\nkey = sphere:2\n\n[methods]\nuse = annealing\n")
    with pytest.raises(ConfigError):
        load_experiment_config(p4)
