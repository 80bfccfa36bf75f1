"""Benchmark entry point.

    python3 perfbench/run.py --workload levy5-good --seed 0 --seconds 10 --trace 0

Run from the root of a checkout: the benchmark imports hypbo from
``src/`` there. With ``--trace 0`` it times set-up and repeated units of
the workload for ``--seconds`` seconds and reports the end-to-end metrics
named in ``BENCHMARK.json``; with ``--trace 1`` it runs one untraced and
one traced set-up and unit and reports the per-layer metrics. The last
line of standard output is one JSON object; details, the environment and
the spans go under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# NumPy, SciPy and hypbo are imported only inside functions: `setup_s`
# counts the time `import hypbo` takes, dependencies included.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
IMPORT_PROBES = 2  # fresh interpreters timing `import hypbo`, besides this one
THREAD_VARS = (
    "HYPBO_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import hypbo; print(time.perf_counter() - t)"
)


def _tree_sha256(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(top)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(thread_env: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: blas.get(k) for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # older NumPy prints instead
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            numpy.show_config()
        blas = buf.getvalue()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": thread_env,
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(SRC),
        "machine": platform.machine(),
    }


def _import_probe() -> float:
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _percentile(values, q) -> float:
    import numpy

    return float(numpy.percentile(values, q))


class Gate:
    """Counts correctness checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)

    @property
    def failed(self) -> int:
        return len(self.problems)


def _verify(w, prep, unit, out_dir, gate: Gate) -> tuple[str, int]:
    """Check every run of a unit; return the trace digest and output size."""
    for method, trial, tr in unit.runs:
        problems = w.check_run(prep, method, tr)
        gate.check(not problems, f"{method} trial {trial}: " + "; ".join(problems))
    paths = w.write_traces(prep, unit, out_dir)
    size = w.output_bytes(out_dir)
    if prep.workload.trials:
        with contextlib.redirect_stdout(io.StringIO()):
            ok = w.report_rebuilds_summary(out_dir)
        gate.check(ok, "hypbo report did not rebuild summary.json byte for byte")
    return w.digest(paths), size


def _check_digests(digests: dict[int, list[str]], key: str, gate: Gate) -> None:
    """All digests of one unit seed agree, within this run and with
    earlier runs of the same sources."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    for k, found in sorted(digests.items()):
        gate.check(len(set(found)) == 1, f"unit seed {k}: trace digests differ: {found}")
        earlier = known.setdefault(f"{key} unit={k}", found[0])
        gate.check(earlier == found[0], f"unit seed {k}: digest {found[0]} != earlier {earlier}")
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def _outcome(prep, runs) -> dict:
    """Mean final incumbent over the runs, and its regret, unclipped."""
    best = statistics.fmean(tr.best_y for _, _, tr in runs)
    optimum = prep.resolved.optimum_value
    return {"best_y": best, "optimum_value": optimum, "regret": optimum - best}


def measure(w, wl, seed, seconds, out_dir, gate, import_samples) -> tuple[dict, dict]:
    setup_samples = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        prep = w.setup(wl, seed, out_dir)
        setup_samples.append(time.perf_counter() - t0)
    walls, gaps, runs, digests = [], [], [], {}
    t_start = time.perf_counter()
    while len(walls) < wl.min_units or time.perf_counter() - t_start < seconds:
        k = len(walls) % wl.unit_seeds
        try:
            unit = w.run_unit(prep, k)
        except Exception:  # a run that raises is a failed run, not a crash
            if not walls:
                raise
            gate.check(False, traceback.format_exc())
            break
        walls.append(unit.wall_s)
        gaps.extend(unit.gaps_ms)
        runs.extend(unit.runs)
        digests.setdefault(k, []).append(_verify(w, prep, unit, out_dir, gate)[0])
    metrics = {
        "setup_s": statistics.median(import_samples) + statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "proposal_ms_p50": _percentile(gaps, 50),
        "proposal_ms_p90": _percentile(gaps, 90),
        "peak_rss_mb": _peak_rss_mb(),
    }
    extra = _outcome(prep, runs)
    extra.update({
        "units": len(walls),
        "unit_walls_s": walls,
        "setup_samples_s": setup_samples,
        "import_samples_s": import_samples,
        "proposals": len(gaps),
        "lower_rows": sum(r.source == "lower" for _, _, tr in runs for r in tr.records),
        "digests": digests,
    })
    return metrics, extra


def measure_traced(w, wl, seed, out_dir, gate) -> tuple[dict, dict, list]:
    import layers
    from tracing import Tracer, span_cost

    t0 = time.perf_counter()
    prep = w.setup(wl, seed, out_dir)
    plain_setup = time.perf_counter() - t0
    plain = w.run_unit(prep)
    d_plain, _ = _verify(w, prep, plain, out_dir, gate)

    tracer = Tracer(layers.RUN_SPANS)
    layers.install(tracer)
    try:
        with tracer.span("bench.setup") as s_setup:
            prep = w.setup(wl, seed, out_dir)
        with tracer.span("bench.unit") as s_unit:
            traced = w.run_unit(prep, tracer=tracer)
    finally:
        tracer.restore()
    d_traced, size = _verify(w, prep, traced, out_dir, gate)
    digests = {0: [d_plain, d_traced]}

    metrics = layers.span_metrics(tracer.spans)
    metrics.update(layers.level_metrics(tr for _, _, tr in traced.runs))
    traced_wall = s_setup.duration + s_unit.duration
    metrics["tracing.wall_s"] = traced_wall
    # The unit, not the set-up: the first set-up in a process runs slower.
    metrics["tracing.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["tracing.overhead_frac"] = (traced.wall_s - plain.wall_s) / plain.wall_s
    metrics["tracing.overhead_est_s"] = len(tracer.spans) * span_cost()
    metrics["trace.bytes"] = size
    metrics["harness.parallel_speedup"] = 0.0
    extra = _outcome(prep, traced.runs)
    extra.update(untraced_setup_s=plain_setup, untraced_unit_s=plain.wall_s,
                 traced_unit_s=traced.wall_s)
    if wl.trials:
        pooled = w.run_unit(prep, pooled=True)
        digests[0].append(_verify(w, prep, pooled, out_dir, gate)[0])
        metrics["harness.parallel_speedup"] = traced.wall_s / pooled.wall_s
        extra["pooled_unit_s"] = pooled.wall_s
    extra["digests"] = digests
    self_sum = sum(v for k, v in metrics.items() if k.startswith("self."))
    extra["self_time_sum_s"] = self_sum
    gate.check(
        abs(self_sum - traced_wall) <= 1e-6 * max(1.0, traced_wall),
        f"layer self times sum to {self_sum}, traced wall is {traced_wall}",
    )
    return metrics, extra, tracer.spans


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a nonnegative integer")
    return value


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hypbo" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no hypbo sources under {SRC} or no {spec_path.name}; "
              "run from the root of a hypbo checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=_nonnegative, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    thread_env = {k: os.environ.get(k) for k in THREAD_VARS}
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hypbo
    import_own = time.perf_counter() - t0
    if Path(hypbo.__file__).resolve().parent != SRC / "hypbo":
        print(f"perfbench: imported hypbo from {hypbo.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads as w

    wl = w.WORKLOADS[args.workload]
    out_dir = str(OUT / wl.name / "output")  # the unit's trace CSVs and artifacts
    os.makedirs(out_dir, exist_ok=True)
    env = environment(thread_env)
    gate = Gate()
    if args.trace:
        metrics, extra, spans = measure_traced(w, wl, args.seed, out_dir, gate)
        wanted = spec["per_layer"]
    else:
        imports = [import_own] + [_import_probe() for _ in range(IMPORT_PROBES)]
        metrics, extra = measure(w, wl, args.seed, args.seconds, out_dir, gate, imports)
        wanted = spec["end_to_end"]
        spans = None
    key = f"{wl.name} seed={args.seed} src={env['src_sha256']}"
    _check_digests(extra["digests"], key, gate)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"benchmark does not compute metrics {missing}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    extra["failed_frac"] = gate.failed / gate.attempted
    extra["problems"] = gate.problems[:50]
    stem = f"seed{args.seed}-trace{args.trace}"
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "env": env, "result": result, "all_metrics": metrics, "extra": extra}
    (OUT / wl.name / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(OUT / wl.name / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write('["name", "start", "end", "parent", "run", "count"]\n')
            for s in spans:
                fh.write(json.dumps(s.as_row()) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"nproc {env['nproc']}  threads {thread_env}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'best_y':40s} {extra['best_y']:14.6g} objective units")
    print(f"  {'regret (optimum - best_y)':40s} {extra['regret']:14.6g} objective units")
    print(f"  {'failed_frac':40s} {extra['failed_frac']:14.6g} ({gate.failed}/{gate.attempted})")
    for problem in gate.problems[:10]:
        print(f"  FAILED: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
