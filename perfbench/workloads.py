"""The benchmark's workloads: set-up, one timed unit of work, and the
correctness gate on what the unit produced.

Set-up goes through the harness's own objective and hypothesis
resolution, so a chemistry workload pays for the oracle fit and the
optimum probe there, as ``hypbo her`` does.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from hypbo import cli, engine, harness, trace as trace_io
from hypbo.engine import EngineConfig
from hypbo.harness import ExperimentConfig
from hypbo.trace import SOURCE_INIT_HYP, SOURCE_LOWER


@dataclass(frozen=True)
class Workload:
    name: str
    objective: str
    hypotheses: tuple[str, ...]
    n_init: int
    i_max: int
    trials: int  # 0: one in-process engine.run; else a harness experiment
    setup_repeats: int  # set-ups per benchmark run; the median is reported
    min_units: int  # units per benchmark run, however short --seconds is
    unit_seeds: int  # engine seeds the units of a run cycle through


WORKLOADS = {
    w.name: w
    for w in (
        # GP fitting and EI maximization do nearly all the work; the
        # region is a box, so hypothesis sampling is trivial.
        Workload("levy5-good", "levy:5", ("good",), n_init=5, i_max=100, trials=0,
                 setup_repeats=5, min_units=4, unit_seeds=1),
        # Nine linear-constraint hypotheses in 10-d: the space layer and
        # lower_step dominate, and set-up fits the chemistry oracle.
        # One set-up per run: it takes about 20 s. How often the lower
        # level runs depends on the trajectory, so a run covers three
        # engine seeds.
        Workload("her-chemists", "standin", ("virtual_chemists",), n_init=5, i_max=60,
                 trials=0, setup_repeats=1, min_units=3, unit_seeds=3),
        # The `hypbo bench` path: three methods on six paired trials, so
        # the Wilcoxon comparison runs, plus CSV, JSON and SVG output.
        Workload("bench-serial", "branin", ("good",), n_init=5, i_max=50, trials=6,
                 setup_repeats=5, min_units=1, unit_seeds=1),
    )
}

MODEL_METHODS = ("hypbo", "vanilla_bo")  # methods whose proposals need a model


@dataclass
class Prepared:
    workload: Workload
    cfg: ExperimentConfig
    resolved: harness.ResolvedObjective
    hyps: list


def setup(wl: Workload, seed: int, out_dir: str) -> Prepared:
    cfg = ExperimentConfig(
        objective=wl.objective,
        hypotheses=list(wl.hypotheses),
        trials=max(wl.trials, 1),
        engine=EngineConfig(n_init=wl.n_init, i_max=wl.i_max, seed=seed),
        output_dir=out_dir,
    )
    resolved = harness._resolve_objective(cfg)
    hyps = harness._resolve_hypotheses(cfg, resolved)
    return Prepared(wl, cfg, resolved, hyps)


class TimedObjective:
    """Objective wrapper that stamps the start and end of every call, and
    records an ``objective.call`` span when a tracer is given."""

    def __init__(self, fn, tracer=None):
        self.fn = fn
        self.tracer = tracer
        self.starts: list[float] = []
        self.ends: list[float] = []

    def __call__(self, x):
        self.starts.append(time.perf_counter())
        if self.tracer is None:
            y = self.fn(x)
        else:
            with self.tracer.span("objective.call"):
                y = self.fn(x)
        self.ends.append(time.perf_counter())
        return y

    def gaps_ms(self, n_design: int) -> list[float]:
        """Time from the end of one call to the start of the next, for
        every call after the initial design."""
        return [
            1e3 * (s - e)
            for s, e in zip(self.starts[n_design:], self.ends[n_design - 1 :])
        ]


class _Built:
    """Stands in for the harness's resolved objective inside one task, so
    the task evaluates a timed objective."""

    def __init__(self, resolved, objective):
        self.space = resolved.space
        self._objective = objective

    def build(self):
        return self._objective


@dataclass
class Unit:
    wall_s: float
    runs: list  # (method, trial, Trace)
    gaps_ms: list[float] = field(default_factory=list)


def unit_seed(seed: int, k: int) -> int:
    """Engine seed of the ``k``-th seed a run cycles through; 0 keeps the
    run's own seed."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def run_unit(prep: Prepared, k: int = 0, tracer=None, pooled: bool = False) -> Unit:
    """One timed unit: an engine run with the ``k``-th unit seed, or a
    whole harness experiment (run serially in-process unless ``pooled``)."""
    if prep.workload.trials == 0:
        return _run_engine(prep, k, tracer)
    return _run_experiment(prep, tracer, pooled)


def _run_engine(prep: Prepared, k: int, tracer) -> Unit:
    objective = TimedObjective(prep.resolved.build(), tracer)
    cfg = replace(prep.cfg.engine, seed=unit_seed(prep.cfg.engine.seed, k))
    t0 = time.perf_counter()
    trace = engine.run(objective, prep.resolved.space, prep.hyps, cfg)
    wall = time.perf_counter() - t0
    return Unit(wall, [("hypbo", 0, trace)], objective.gaps_ms(trace.n_init))


def _run_experiment(prep: Prepared, tracer, pooled: bool) -> Unit:
    out = prep.cfg.output_dir
    shutil.rmtree(out, ignore_errors=True)
    recorders: dict[tuple[str, int], TimedObjective] = {}
    original = harness._run_one

    def timed_run_one(task):
        method, trial, seed, resolved, hyps, cfg = task
        rec = TimedObjective(resolved.build(), tracer)
        recorders[(method, trial)] = rec
        return original((method, trial, seed, _Built(resolved, rec), hyps, cfg))

    saved = os.environ.get("HYPBO_THREADS")
    os.environ["HYPBO_THREADS"] = str(len(os.sched_getaffinity(0)) if pooled else 1)
    if not pooled:  # pool workers would not see the wrapper
        harness._run_one = timed_run_one
    try:
        t0 = time.perf_counter()
        harness.run_experiment(prep.cfg)
        wall = time.perf_counter() - t0
    finally:
        harness._run_one = original
        if saved is None:
            del os.environ["HYPBO_THREADS"]
        else:
            os.environ["HYPBO_THREADS"] = saved
    runs, gaps = [], []
    for method in prep.cfg.methods:
        for t in range(prep.cfg.trials):
            path = os.path.join(out, harness.trace_filename(method, t))
            tr = trace_io.read_traces_csv(path)[t]
            runs.append((method, t, tr))
            if method in MODEL_METHODS and (method, t) in recorders:
                gaps.extend(recorders[(method, t)].gaps_ms(tr.n_init))
    return Unit(wall, runs, gaps)


# -- correctness gate ------------------------------------------------


def design_size(method: str, n_hyps: int, n_init: int) -> int:
    """Rows of the initial design, per ``engine.initial_design``: one draw
    per hypothesis, then ``max(1, n_init - J)`` global draws."""
    if method == "random_search":
        return n_init
    j = n_hyps if method == "hypbo" else 0
    return j + max(1, n_init - j)


def check_run(prep: Prepared, method: str, tr) -> list[str]:
    """Problems found in one run's trace; empty when it is correct."""
    space = prep.resolved.space
    hyps = prep.hyps if method == "hypbo" else []
    n_init, i_max = prep.cfg.engine.n_init, prep.cfg.engine.i_max
    design = design_size(method, len(prep.hyps), n_init)
    problems = []
    if tr.n_init != design or len(tr) != design + i_max:
        problems.append(
            f"{method}: {len(tr)} rows ({tr.n_init} initial), "
            f"expected {design} + {i_max}"
        )
    for r in tr.records:
        if not space.contains(r.x):
            problems.append(f"{method}: row {r.iteration} outside the space")
        if r.source in (SOURCE_INIT_HYP, SOURCE_LOWER):
            j = r.hypothesis
            if j is None or not 0 <= j < len(hyps) or not hyps[j].contains(r.x):
                problems.append(
                    f"{method}: row {r.iteration} ({r.source}) outside hypothesis {j}"
                )
    y = np.array([r.y for r in tr.records])
    inc = np.array([r.incumbent for r in tr.records])
    if not np.array_equal(np.maximum.accumulate(y), inc):
        problems.append(f"{method}: incumbent is not the running max of y")
    return problems


def write_traces(prep: Prepared, unit: Unit, out_dir: str) -> list[str]:
    """Trace CSV paths of the unit, writing them first for an engine run
    (an experiment has already written its own)."""
    if prep.workload.trials:
        return [
            os.path.join(out_dir, harness.trace_filename(m, t)) for m, t, _ in unit.runs
        ]
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for m, t, tr in unit.runs:
        path = os.path.join(out_dir, harness.trace_filename(m, t))
        trace_io.write_traces_csv(path, {t: tr})
        paths.append(path)
    return paths


def digest(paths: list[str]) -> str:
    """SHA-256 over the trace CSV files, by name then bytes."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def output_bytes(out_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
    )


def report_rebuilds_summary(out_dir: str) -> bool:
    """``hypbo report`` rebuilds summary.json byte for byte."""
    path = os.path.join(out_dir, "summary.json")
    with open(path, "rb") as fh:
        before = fh.read()
    code = cli.main(["report", out_dir])
    with open(path, "rb") as fh:
        return code == cli.EXIT_OK and fh.read() == before
