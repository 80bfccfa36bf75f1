"""Which hypbo functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

The span name's first component is the layer: ``gp``, ``acquisition``,
``space``, ``engine``, ``objective`` (calls of the objective under
optimization), ``objectives``, ``chemistry``, ``harness``, ``trace``,
``plotting``, ``stats``, and ``bench`` (the benchmark's own root spans).
"""

from __future__ import annotations

import statistics
import sys

import numpy as np

from tracing import Tracer, has_ancestor, self_times

LAYERS = (
    "bench", "engine", "gp", "acquisition", "space", "objective", "objectives",
    "chemistry", "harness", "trace", "plotting", "stats",
)

# A span with one of these names starts a new run id: one optimization run.
RUN_SPANS = ("engine.run", "harness.random_search")


def _rows(i):
    """Count the rows of positional argument ``i`` (a point or a batch)."""
    return lambda args, out: np.atleast_2d(args[i]).shape[0]


def install(tracer: Tracer) -> None:
    """Wrap the public (and a few internal) functions of every layer."""
    from scipy import optimize

    from hypbo import (
        acquisition, chemistry, engine, gp, harness, objectives, plotting,
        space, stats, trace,
    )

    aliases = [m for k, m in sys.modules.items() if k == "hypbo" or k.startswith("hypbo.")]
    targets = [
        (gp, "fit", "gp.fit", lambda a, m: m.jitter > 0),
        (gp.GPModel, "predict", "gp.predict", _rows(1)),
        # gp.fit's likelihood searches; nfev counts likelihood evaluations
        (optimize, "minimize", "gp.lml_search", lambda a, r: r.nfev),
        (acquisition, "maximize", "acquisition.maximize", None),
        (acquisition, "_ei_batch", "acquisition.ei_batch", _rows(1)),
        (space.Hypothesis, "__init__", "space.certify", None),
        (space.Hypothesis, "sample_uniform", "space.sample_uniform", None),
        (space.Hypothesis, "contains_many", "space.contains_many", _rows(1)),
        (space.Hypothesis, "filter_dataset", "space.filter_dataset", None),
        (engine, "run", "engine.run", None),
        (engine, "initial_design", "engine.initial_design", None),
        (engine, "lower_step", "engine.lower_step", None),
        (engine, "upper_step", "engine.upper_step", None),
        (objectives, "get_objective", "objectives.get_objective", None),
        (objectives, "make_quality_hypothesis", "objectives.make_quality_hypothesis", None),
        (chemistry, "generate_standin_dataset", "chemistry.generate_standin_dataset", None),
        (chemistry, "fit_oracle", "chemistry.fit_oracle", None),
        (chemistry, "chemistry_hypotheses", "chemistry.chemistry_hypotheses", None),
        (harness, "_resolve_objective", "harness.resolve_objective", None),
        (harness, "_resolve_hypotheses", "harness.resolve_hypotheses", None),
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "_run_one", "harness.run_one", None),
        (harness, "random_search_trace", "harness.random_search", None),
        (harness, "summarize", "harness.summarize", None),
        (harness, "_write_summary", "harness.write_summary", None),
        (harness, "_write_plot", "harness.write_plot", None),
        (harness, "report", "harness.report", None),
        (trace, "write_traces_csv", "trace.write_traces_csv", None),
        (trace, "read_traces_csv", "trace.read_traces_csv", None),
        (plotting, "curve_plot_svg", "plotting.curve_plot_svg", None),
        (stats, "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank", None),
    ]
    for owner, attr, name, count in targets:
        tracer.patch(owner, attr, name, count, aliases)


def _where(spans, name, inside=None, outside=None):
    out = []
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        if inside is not None and not has_ancestor(spans, i, inside):
            continue
        if outside is not None and has_ancestor(spans, i, outside):
            continue
        out.append(i)
    return out


def _total(spans, idx) -> float:
    return float(sum(spans[i].duration for i in idx))


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def span_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced setup and unit.

    ``gp.fit.*`` covers the surrogate fits of the optimization loop; the
    oracle fit of the chemistry workload is reported on its own.
    """
    m: dict[str, float] = {}
    fits = _where(spans, "gp.fit", outside="chemistry.fit_oracle")
    searches = _where(spans, "gp.lml_search", inside="gp.fit", outside="chemistry.fit_oracle")
    m["gp.fit.calls"] = len(fits)
    m["gp.fit.s"] = _total(spans, fits)
    m["gp.fit.ms_p50"] = (
        1e3 * statistics.median(spans[i].duration for i in fits) if fits else 0.0
    )
    m["gp.lml_evals_per_fit"] = _ratio(sum(spans[i].count for i in searches), len(fits))
    m["gp.jitter_fits"] = sum(spans[i].count for i in fits)
    m["gp.predict.points"] = sum(s.count for s in spans if s.name == "gp.predict")

    oracle = _where(spans, "chemistry.fit_oracle")
    m["chemistry.fit_oracle.s"] = _total(spans, oracle)
    m["chemistry.fit_oracle.lml_evals"] = sum(
        spans[i].count for i in _where(spans, "gp.lml_search", inside="chemistry.fit_oracle")
    )
    m["harness.optimum_probe.s"] = float(sum(
        s.duration for s in spans
        if s.name == "gp.predict" and s.parent is not None
        and spans[s.parent].name == "harness.resolve_objective"
    ))

    maxi = _where(spans, "acquisition.maximize")
    batches = _where(spans, "acquisition.ei_batch")
    m["acquisition.maximize.calls"] = len(maxi)
    m["acquisition.maximize.s"] = _total(spans, maxi)
    m["acquisition.ei_batches_per_maximize"] = _ratio(len(batches), len(maxi))
    m["acquisition.ei_points_per_maximize"] = _ratio(
        sum(spans[i].count for i in batches), len(maxi)
    )

    samples = _where(spans, "space.sample_uniform")
    tested = sum(
        s.count for s in spans
        if s.name == "space.contains_many" and s.parent is not None
        and spans[s.parent].name == "space.sample_uniform"
    )
    m["space.sample_uniform.calls"] = len(samples)
    m["space.sample_uniform.s"] = _total(spans, samples)
    m["space.accept_ratio"] = _ratio(len(samples), tested)
    m["space.filter_dataset.s"] = _total(spans, _where(spans, "space.filter_dataset"))
    m["space.certify.s"] = _total(spans, _where(spans, "space.certify"))

    m["engine.lower_step.s"] = _total(spans, _where(spans, "engine.lower_step"))
    m["engine.upper_step.s"] = _total(spans, _where(spans, "engine.upper_step"))
    runs = _where(spans, "engine.run")
    run_set = set(runs)
    direct = sum(
        s.duration for s in spans
        if s.parent in run_set
        and s.name in ("engine.lower_step", "engine.upper_step", "objective.call")
    )
    m["engine.self.s"] = _total(spans, runs) - direct

    calls = _where(spans, "objective.call")
    m["objective.calls"] = len(calls)
    m["objective.s"] = _total(spans, calls)

    artifacts = [
        i for i, s in enumerate(spans)
        if s.name in ("trace.write_traces_csv", "harness.write_summary", "harness.write_plot")
        and has_ancestor(spans, i, "harness.run_experiment")
    ]
    m["harness.artifacts.s"] = _total(spans, artifacts)

    own = self_times(spans)
    for layer in LAYERS:
        m[f"self.{layer}.s"] = float(sum(t for s, t in zip(spans, own) if s.layer == layer))
    m["tracing.spans"] = len(spans)
    return m


def level_metrics(traces) -> dict[str, float]:
    """Share of post-init rows proposed by the lower level, and level
    switches per run, over the hypothesis-guided runs."""
    shares, switches = [], []
    for trace in traces:
        post = [r.source for r in trace.post_init()]
        if not post or not any(r.hypothesis is not None for r in trace.records):
            continue
        shares.append(post.count("lower") / len(post))
        switches.append(sum(a != b for a, b in zip(post, post[1:])))
    return {
        "engine.lower_share": float(np.mean(shares)) if shares else 0.0,
        "engine.level_switches": float(np.mean(switches)) if switches else 0.0,
    }
