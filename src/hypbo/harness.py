"""Experiment runner: multi-trial method comparisons with paired seeds,
regret aggregation, significance tests, and CSV/JSON/SVG artifacts."""

from __future__ import annotations

import configparser
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import chemistry, objectives, stats
from .engine import EngineConfig, _evaluate, run as engine_run
from .space import Hypothesis, SearchSpace, load_hypotheses_file
from .trace import (
    SOURCE_INIT_GLOBAL,
    SOURCE_UPPER,
    Trace,
    TraceRecord,
    read_traces_csv,
    write_traces_csv,
)

METHODS = ("hypbo", "vanilla_bo", "random_search")
BANDS = ("stderr", "std")  # plot band around the mean regret curve
OPTIMUM_SAMPLE = 100_000  # draws used to estimate an oracle's best value
OPTIMUM_CHUNK_BYTES = 2**21  # size of one probe chunk's (rows, n, d) temporaries


class ConfigError(ValueError):
    """Experiment configuration is malformed."""


@dataclass
class ExperimentConfig:
    objective: str  # registry key, oracle CSV path, or "standin"
    hypotheses: list[str] = field(default_factory=list)
    methods: tuple[str, ...] = METHODS
    trials: int = 20
    engine: EngineConfig = field(default_factory=EngineConfig)
    output_dir: str = "results"
    band: str = "stderr"  # plot band: stderr or std
    standin_rows: int = 200
    standin_noise_sd: float = 0.1

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not self.methods:
            raise ConfigError("at least one method required")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
        if self.band not in BANDS:
            raise ConfigError(f"band must be one of {BANDS}")
        if self.standin_rows < 10:
            raise ConfigError("standin_rows must be at least 10")
        if not 0 <= self.standin_noise_sd < math.inf:
            raise ConfigError("standin_noise_sd must be finite and nonnegative")


@dataclass
class ResolvedObjective:
    """Everything a worker needs to evaluate the target function."""

    name: str
    space: SearchSpace
    payload: tuple  # ("synthetic", key) or ("oracle", OracleModel)
    optimum_value: float

    def build(self):
        kind, obj = self.payload
        if kind == "synthetic":
            return objectives.get_objective(obj)
        return obj  # OracleModel, already callable


def _resolve_objective(cfg: ExperimentConfig) -> ResolvedObjective:
    key = cfg.objective.strip()
    is_standin = key.lower().startswith("standin")
    if key.lower().endswith(".csv") or is_standin:
        if is_standin:
            rng = np.random.default_rng(cfg.engine.seed)
            data = chemistry.generate_standin_dataset(
                cfg.standin_rows, rng, cfg.standin_noise_sd
            )
        else:
            if not os.path.exists(key):
                raise ConfigError(f"oracle data file not found: {key}")
            data = chemistry.load_csv(key)
        oracle = chemistry.fit_oracle(data, np.random.default_rng(cfg.engine.seed))
        probe = oracle.space.sample(
            np.random.default_rng(cfg.engine.seed), OPTIMUM_SAMPLE
        )
        # chunked: one dense cross-kernel over 100k rows would not fit in
        # RAM, and chunks whose temporaries stay cache-sized run fastest
        # (2 vCPU, n=200, d=10: 128 rows 1.0 s, 224 to 1024 rows 1.3 to
        # 2.0 s, 4096 rows 2.9 s). A multiple of 4 rows gives every mean
        # the bits of an unchunked predict (whole groups of BLAS gemv rows).
        rows = OPTIMUM_CHUNK_BYTES // (8 * oracle.gp.n * oracle.gp.dim) // 4 * 4
        rows = max(rows, 4)
        best = -np.inf
        for k in range(0, probe.shape[0], rows):
            mean, _ = oracle.gp.predict(probe[k : k + rows])
            best = max(best, float(np.max(mean)))
        name = "standin" if is_standin else os.path.basename(key)
        return ResolvedObjective(name, oracle.space, ("oracle", oracle), best)
    try:
        spec = objectives.get_objective(key)
    except KeyError as exc:
        raise ConfigError(str(exc)) from None
    return ResolvedObjective(
        spec.key, spec.space, ("synthetic", spec.key), spec.optimum_value
    )


def _resolve_hypotheses(
    cfg: ExperimentConfig, obj: ResolvedObjective
) -> list[Hypothesis]:
    out: list[Hypothesis] = []
    for entry in cfg.hypotheses:
        entry = entry.strip()
        if not entry:
            continue
        if entry.lower().endswith(".json"):
            if not os.path.exists(entry):
                raise ConfigError(f"hypothesis file not found: {entry}")
            try:
                out.extend(load_hypotheses_file(entry, obj.space))
            except ValueError as exc:
                raise ConfigError(f"hypothesis file {entry}: {exc}") from None
            continue
        for part in entry.split("+"):
            part = part.strip()
            if part in chemistry.HYPOTHESIS_KINDS:
                out.extend(chemistry.chemistry_hypotheses(part))
            elif part in objectives.QUALITIES:
                kind, key = obj.payload
                if kind != "synthetic":
                    raise ConfigError(
                        f"quality key {part!r} needs a synthetic objective"
                    )
                out.append(
                    objectives.make_quality_hypothesis(
                        objectives.get_objective(key), part
                    )
                )
            else:
                raise ConfigError(f"unknown hypothesis key {part!r}")
    return out


def random_search_trace(
    objective, space: SearchSpace, n_init: int, i_max: int, seed: int
) -> Trace:
    """Uniform baseline emitting the same trace shape as the engine; a
    failing or non-finite objective raises ``ObjectiveError`` as there."""
    rng = np.random.default_rng(seed)
    trace = Trace(space.dim)
    best = -np.inf
    for it in range(n_init + i_max):
        x = space.sample(rng)
        y = _evaluate(objective, x)
        best = max(best, y)
        source = SOURCE_INIT_GLOBAL if it < n_init else SOURCE_UPPER
        trace.append(TraceRecord(it, source, None, x, y, best, None, (0, 0)))
    return trace


def _run_one(args) -> tuple[str, int, Trace]:
    method, trial, seed, resolved, hyps, engine_cfg = args
    objective = resolved.build()
    cfg = replace(engine_cfg, seed=seed)
    if method == "hypbo":
        trace = engine_run(objective, resolved.space, hyps, cfg)
    elif method == "vanilla_bo":
        trace = engine_run(objective, resolved.space, [], cfg)
    elif method == "random_search":
        trace = random_search_trace(
            objective, resolved.space, cfg.n_init, cfg.i_max, seed
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    return method, trial, trace


def _worker_count(n_tasks: int) -> int:
    cap = os.environ.get("HYPBO_THREADS")
    if cap is not None:
        try:
            limit = max(1, int(cap))
        except ValueError:
            raise ConfigError(f"HYPBO_THREADS must be an integer, got {cap!r}")
    else:
        limit = os.cpu_count() or 1
    return max(1, min(limit, n_tasks))


# -- regret metrics --------------------------------------------------


def simple_regret(trace: Trace, optimum_value: float, include_init: bool = False):
    """Optimum minus the running incumbent, one entry per evaluation
    (initial design excluded by default)."""
    return optimum_value - trace.incumbents(include_init)


def cumulative_regret(trace: Trace, optimum_value: float, include_init: bool = False):
    return np.cumsum(optimum_value - trace.values(include_init))


@dataclass
class MethodSummary:
    mean_simple_regret: np.ndarray
    stderr_simple_regret: np.ndarray
    std_simple_regret: np.ndarray
    mean_cumulative_regret: np.ndarray
    mean_best_value: np.ndarray
    final_regrets: np.ndarray  # one per trial


@dataclass
class RegretSummary:
    optimum_value: float
    methods: dict[str, MethodSummary]
    comparisons: dict[str, dict]

    def to_json_dict(self) -> dict:
        out = {
            "optimum_value": self.optimum_value,
            "methods": {},
            "comparisons": self.comparisons,
        }
        for name, m in self.methods.items():
            out["methods"][name] = {
                "mean_simple_regret": list(map(float, m.mean_simple_regret)),
                "stderr_simple_regret": list(map(float, m.stderr_simple_regret)),
                "std_simple_regret": list(map(float, m.std_simple_regret)),
                "mean_cumulative_regret": list(map(float, m.mean_cumulative_regret)),
                "mean_best_value": list(map(float, m.mean_best_value)),
                "final_regrets": list(map(float, m.final_regrets)),
            }
        return out


def summarize(
    traces: dict[str, dict[int, Trace]], optimum_value: float, alpha: float = 0.05
) -> RegretSummary:
    """Aggregate per-method curves and test hypbo against each baseline
    on paired final simple regrets."""
    methods: dict[str, MethodSummary] = {}
    for name in traces:
        trials = sorted(traces[name])
        sr = np.vstack(
            [simple_regret(traces[name][t], optimum_value) for t in trials]
        )
        cr = np.vstack(
            [cumulative_regret(traces[name][t], optimum_value) for t in trials]
        )
        best = np.vstack([traces[name][t].incumbents() for t in trials])
        n = sr.shape[0]
        std = sr.std(axis=0, ddof=1) if n > 1 else np.zeros(sr.shape[1])
        methods[name] = MethodSummary(
            mean_simple_regret=sr.mean(axis=0),
            stderr_simple_regret=std / np.sqrt(n),
            std_simple_regret=std,
            mean_cumulative_regret=cr.mean(axis=0),
            mean_best_value=best.mean(axis=0),
            final_regrets=sr[:, -1].copy(),
        )
    comparisons: dict[str, dict] = {}
    if "hypbo" in methods:
        baselines = [m for m in methods if m != "hypbo"]
        k = len(baselines)
        for base in baselines:
            entry: dict = {"baseline": base, "alpha": alpha}
            try:
                w, p = stats.wilcoxon_signed_rank(
                    methods["hypbo"].final_regrets, methods[base].final_regrets
                )
                entry.update(
                    statistic=w,
                    p_value=p,
                    significant=bool(p < alpha),
                    alpha_bonferroni=stats.bonferroni(alpha, k),
                    significant_bonferroni=bool(p < stats.bonferroni(alpha, k)),
                )
            except (ValueError, stats.DegenerateSampleError) as exc:
                entry["error"] = str(exc)
            comparisons[f"hypbo_vs_{base}"] = entry
    return RegretSummary(optimum_value, methods, comparisons)


# -- experiment driver -----------------------------------------------


def trace_filename(method: str, trial: int) -> str:
    return f"trace_{method}_{trial}.csv"


def run_experiment(cfg: ExperimentConfig) -> RegretSummary:
    """Run every (method, trial) pair, write artifacts, return summary.

    Trial ``t`` always uses seed ``engine.seed + t`` regardless of which
    other methods run, so per-trial results pair across methods. Trials
    run in a process pool when more than one worker is available
    (``HYPBO_THREADS`` caps it); results merge deterministically.
    """
    resolved = _resolve_objective(cfg)
    hyps = _resolve_hypotheses(cfg, resolved)
    if "hypbo" in cfg.methods and not hyps:
        raise ConfigError("hypbo requires at least one hypothesis")
    tasks = [
        (method, t, cfg.engine.seed + t, resolved, hyps, cfg.engine)
        for method in cfg.methods
        for t in range(cfg.trials)
    ]
    workers = _worker_count(len(tasks))
    results: dict[tuple[str, int], Trace] = {}
    if workers == 1:
        for task in tasks:
            m, t, trace = _run_task_checked(task)
            results[(m, t)] = trace
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for (m, t, trace) in pool.map(_run_task_checked, tasks, chunksize=1):
                results[(m, t)] = trace
    traces: dict[str, dict[int, Trace]] = {m: {} for m in cfg.methods}
    for (m, t), trace in sorted(results.items()):
        traces[m][t] = trace

    os.makedirs(cfg.output_dir, exist_ok=True)
    for m in cfg.methods:
        for t, trace in traces[m].items():
            write_traces_csv(
                os.path.join(cfg.output_dir, trace_filename(m, t)), {t: trace}
            )
    summary = summarize(traces, resolved.optimum_value)
    _write_summary(cfg, resolved, summary)
    _write_plot(cfg.output_dir, cfg.band, summary)
    return summary


def _run_task_checked(task):
    method, trial, seed = task[0], task[1], task[2]
    try:
        return _run_one(task)
    except Exception as exc:
        raise RuntimeError(
            f"trial {trial} of {method} (seed {seed}) failed: {exc}"
        ) from exc


def _write_summary(cfg, resolved, summary: RegretSummary) -> None:
    # Config echo lives under its own key so the result block (which also
    # has a "methods" entry) cannot collide with it.
    payload = {
        "config": {
            "objective": resolved.name,
            "objective_kind": resolved.payload[0],
            "methods": list(cfg.methods),
            "trials": cfg.trials,
            "n_init": cfg.engine.n_init,
            "i_max": cfg.engine.i_max,
            "seed": cfg.engine.seed,
            "band": cfg.band,
            "hypotheses": list(cfg.hypotheses),
        }
    }
    payload.update(summary.to_json_dict())
    with open(os.path.join(cfg.output_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_plot(output_dir: str, band: str, summary: RegretSummary) -> None:
    from .plotting import curve_plot_svg

    curves = {}
    for name, m in summary.methods.items():
        width = m.stderr_simple_regret if band == "stderr" else m.std_simple_regret
        curves[name] = (
            m.mean_simple_regret,
            m.mean_simple_regret - width,
            m.mean_simple_regret + width,
        )
    curve_plot_svg(
        os.path.join(output_dir, "regret.svg"),
        curves,
        xlabel="iteration",
        ylabel="simple regret",
        title="mean simple regret",
    )


def report(output_dir: str) -> RegretSummary:
    """Rebuild summary.json and regret.svg from the trace CSVs on disk."""
    summary_path = os.path.join(output_dir, "summary.json")
    if not os.path.exists(summary_path):
        raise ConfigError(f"no summary.json in {output_dir}")
    with open(summary_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    try:
        echo = meta["config"]
        run_methods = list(echo["methods"])
        trials = int(echo["trials"])
        band = echo.get("band", "stderr")
        optimum_value = float(meta["optimum_value"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError(
            f"{summary_path}: missing or malformed config block or optimum_value"
        ) from None
    if not run_methods or trials < 1 or band not in BANDS:
        raise ConfigError(f"{summary_path}: malformed config block")
    traces: dict[str, dict[int, Trace]] = {}
    for m in run_methods:
        traces[m] = {}
        for t in range(trials):
            path = os.path.join(output_dir, trace_filename(m, t))
            if not os.path.exists(path):
                raise ConfigError(f"missing trace file {path}")
            traces[m].update(read_traces_csv(path))
    summary = summarize(traces, optimum_value)
    payload = dict(meta)
    payload.update(summary.to_json_dict())
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    _write_plot(output_dir, band, summary)
    return summary


# -- config file -----------------------------------------------------


def load_experiment_config(path) -> ExperimentConfig:
    """Parse an INI experiment description.

    Sections: ``[objective]`` (key=...), ``[hypotheses]`` (keys=a, b and/or
    files=x.json), ``[engine]`` (n_init, i_max, seed, gamma, top_seeds,
    l_max, u_max, gp_optimize_every, lower_incumbent), ``[methods]``
    (use=..., trials=N), ``[output]`` (dir=..., band=stderr|std).
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if "objective" not in parser or "key" not in parser["objective"]:
        raise ConfigError(f"{path}: [objective] section with 'key' required")

    def _list(section, option):
        if section in parser and option in parser[section]:
            return [s.strip() for s in parser[section][option].split(",") if s.strip()]
        return []

    hyp = _list("hypotheses", "keys") + _list("hypotheses", "files")
    engine_kwargs = {}
    eng = parser["engine"] if "engine" in parser else {}
    try:
        for name, cast in (
            ("n_init", int),
            ("i_max", int),
            ("seed", int),
            ("top_seeds", int),
            ("l_max", int),
            ("u_max", int),
            ("gp_optimize_every", int),
            ("gamma", float),
        ):
            if name in eng:
                engine_kwargs[name] = cast(eng[name])
        if "lower_incumbent" in eng:
            engine_kwargs["lower_incumbent"] = eng["lower_incumbent"].strip()
        engine = EngineConfig(**engine_kwargs)
        methods = _list("methods", "use") or list(METHODS)
        trials = int(parser["methods"].get("trials", "20")) if "methods" in parser else 20
        out = parser["output"] if "output" in parser else {}
        cfg = ExperimentConfig(
            objective=parser["objective"]["key"].strip(),
            hypotheses=hyp,
            methods=tuple(methods),
            trials=trials,
            engine=engine,
            output_dir=out.get("dir", "results") if out else "results",
            band=out.get("band", "stderr") if out else "stderr",
            standin_rows=int(parser["objective"].get("standin_rows", "200")),
            standin_noise_sd=float(parser["objective"].get("standin_noise_sd", "0.1")),
        )
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from None
    return cfg
