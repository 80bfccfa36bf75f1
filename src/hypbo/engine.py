"""Bilevel optimization loop mixing hypothesis-guided and global proposals.

The lower level fits one local surrogate per hypothesis on the data that
falls inside it, maximizes expected improvement within each region, and
evaluates the top-ranked seeds. The upper level is plain GP optimization
over the whole box. Plateau counters trigger the switches: ``l_max``
non-improving lower batches hand control to the upper level, ``u_max``
non-improving upper iterations hand it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import acquisition as acq
from .dataset import Dataset
from .gp import GPModel, KernelParams, fit as gp_fit
from .space import Hypothesis, SearchSpace
from .trace import (
    SOURCE_INIT_GLOBAL,
    SOURCE_INIT_HYP,
    SOURCE_LOWER,
    SOURCE_UPPER,
    Trace,
    TraceRecord,
)


class ObjectiveError(RuntimeError):
    """Objective raised or returned a non-finite value."""

    def __init__(self, message: str, x: np.ndarray):
        super().__init__(message)
        self.x = np.asarray(x, dtype=float)


@dataclass
class EngineConfig:
    n_init: int = 5
    i_max: int = 100
    gamma: float = 0.0  # relative improvement threshold for plateaus
    top_seeds: int = 1  # lower-level proposals evaluated per batch
    l_max: int = 2  # non-improving lower batches before switching up
    u_max: int = 5  # non-improving upper iterations before switching down
    seed: int = 0
    gp_optimize_every: int = 1  # refit cadence; reuse hyperparameters between
    lower_incumbent: str = "global"  # or "local": per-region reference for EI

    def __post_init__(self):
        if self.n_init < 1:
            raise ValueError("n_init must be at least 1")
        if self.i_max < 1:
            raise ValueError("i_max must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be nonnegative and finite")
        if min(self.top_seeds, self.l_max, self.u_max) < 1:
            raise ValueError("top_seeds, l_max and u_max must be at least 1")
        if self.gp_optimize_every < 1:
            raise ValueError("gp_optimize_every must be at least 1")
        if self.lower_incumbent not in ("global", "local"):
            raise ValueError("lower_incumbent must be 'global' or 'local'")


def improved(y_max: float, y_new: float, gamma: float) -> bool:
    """Multiplicative improvement test, sign-aware.

    For a nonnegative incumbent the bar is ``(1 + gamma) * y_max``; for a
    negative one it is ``(1 - gamma) * y_max`` (closer to zero). With
    ``gamma == 0`` both reduce to strict improvement.
    """
    if not 0 <= gamma < math.inf:
        raise ValueError("gamma must be nonnegative and finite")
    if y_max >= 0:
        return y_new > (1.0 + gamma) * y_max
    return y_new > (1.0 - gamma) * y_max


def initial_design(
    space: SearchSpace,
    hypotheses: list[Hypothesis],
    n: int,
    rng: np.random.Generator,
) -> list[tuple[str, int | None, np.ndarray]]:
    """One uniform draw inside each hypothesis, then ``max(1, n - J)``
    global draws. Returns (source, hypothesis-index, point) triples."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out: list[tuple[str, int | None, np.ndarray]] = []
    for j, h in enumerate(hypotheses):
        out.append((SOURCE_INIT_HYP, j, h.sample_uniform(rng)))
    for _ in range(max(1, n - len(hypotheses))):
        out.append((SOURCE_INIT_GLOBAL, None, space.sample(rng)))
    return out


class Seed(NamedTuple):
    hypothesis: int
    x: np.ndarray
    acq_value: float


# Surrogate settings of the loop's fits (the standalone ``gp.fit`` has its own).
GP_RESTARTS = 2  # hyperparameter searches per (re)fit
GP_MAX_EVALS = 80  # likelihood-evaluation cap per search
GP_NOISE_VARIANCE = 1e-6


class GPCache:
    """Remembers tuned hyperparameters per surrogate and decides when to
    re-optimize them (every ``every``-th fit of that surrogate)."""

    def __init__(self, every: int = 1):
        self.every = int(every)
        self.params: dict[str, KernelParams] = {}
        self.calls: dict[str, int] = {}

    def fit(
        self,
        key: str,
        data: Dataset,
        space: SearchSpace,
        rng: np.random.Generator,
    ) -> GPModel:
        """Surrogate for ``data``; with no data, the unit-hyperparameter
        prior, which does not count as a fit of ``key``."""
        if len(data) == 0:
            return GPModel.prior(KernelParams.default(space.dim, GP_NOISE_VARIANCE), space)
        count = self.calls.get(key, 0)
        self.calls[key] = count + 1
        init = self.params.get(key)
        if init is None:
            init = KernelParams.default(space.dim, GP_NOISE_VARIANCE)
        do_opt = count % self.every == 0
        model = gp_fit(
            data,
            init=init,
            space=space,
            optimize=do_opt,
            budget=GP_RESTARTS,
            rng=rng,
            optimize_noise=False,
            max_evals=GP_MAX_EVALS,
        )
        if do_opt:
            self.params[key] = model.params.copy()
        return model


def lower_step(
    data: Dataset,
    hypotheses: list[Hypothesis],
    space: SearchSpace,
    spec: acq.AcquisitionSpec,
    rng: np.random.Generator,
    *,
    top_seeds: int = 1,
    cache: GPCache | None = None,
    incumbent: str = "global",
) -> list[Seed]:
    """Propose the best-ranked hypothesis seeds.

    Each hypothesis gets a surrogate fitted to the observations inside
    it (a data-free prior when none are) and contributes its in-region
    EI maximizer; proposals are ranked by acquisition value and the top
    ``top_seeds`` survive. Ties keep the lower hypothesis index.
    """
    if not hypotheses:
        raise ValueError("lower_step needs at least one hypothesis")
    cache = cache or GPCache()
    proposals: list[Seed] = []
    for j, h in enumerate(hypotheses):
        local = h.filter_dataset(data)
        model = cache.fit(f"local_{j}", local, space, rng)
        if incumbent == "local" and len(local):
            ref = local.y_max
        elif len(data):
            ref = data.y_max
        else:
            ref = 0.0
        x, a = acq.maximize(model, h, ref, spec, rng)
        proposals.append(Seed(j, x, float(a)))
    order = sorted(range(len(proposals)), key=lambda k: (-proposals[k].acq_value, k))
    return [proposals[k] for k in order[: max(1, int(top_seeds))]]


def upper_step(
    data: Dataset,
    space: SearchSpace,
    spec: acq.AcquisitionSpec,
    rng: np.random.Generator,
    *,
    cache: GPCache | None = None,
) -> tuple[np.ndarray, float]:
    """Global surrogate fit plus one EI maximization over the whole box."""
    model = (cache or GPCache()).fit("global", data, space, rng)
    ref = data.y_max if len(data) else 0.0
    return acq.maximize(model, space, ref, spec, rng)


def _evaluate(objective: Callable, x: np.ndarray) -> float:
    try:
        y = float(objective(x))
    except Exception as exc:  # surface the failing input
        raise ObjectiveError(f"objective raised at {x!r}: {exc}", x) from exc
    if not math.isfinite(y):
        raise ObjectiveError(f"objective returned non-finite value {y!r}", x)
    return y


def run(
    objective: Callable[[np.ndarray], float],
    space: SearchSpace,
    hypotheses: list[Hypothesis],
    config: EngineConfig | None = None,
) -> Trace:
    """Full optimization run; returns one trace row per evaluation.

    The trace holds ``J + max(1, n_init - J) + i_max`` rows for ``J``
    hypotheses: the initial design (one draw per hypothesis plus the
    global draws, see ``initial_design``) followed by exactly ``i_max``
    optimization evaluations (a lower batch is truncated if the budget
    runs out mid-batch). With no hypotheses the loop degenerates to plain
    GP optimization over the box.
    """
    config = config or EngineConfig()
    for h in hypotheses:
        if h.space.dim != space.dim:
            raise ValueError(f"hypothesis {h.label!r} dimension mismatch")
    rng = np.random.default_rng(config.seed)
    spec = acq.AcquisitionSpec()
    cache = GPCache(config.gp_optimize_every)
    data = Dataset()
    trace = Trace(space.dim)
    J = len(hypotheses)
    it = 0
    l = u = 0

    for source, j, x in initial_design(space, hypotheses, config.n_init, rng):
        y = _evaluate(objective, x)
        data.append(x, y)
        trace.append(TraceRecord(it, source, j, x, y, data.y_max, None, (l, u)))
        it += 1

    i = 0
    while i < config.i_max:
        if J > 0:
            l = 0
            while l < config.l_max and i < config.i_max:
                y_before = data.y_max
                seeds = lower_step(
                    data,
                    hypotheses,
                    space,
                    spec,
                    rng,
                    top_seeds=config.top_seeds,
                    cache=cache,
                    incumbent=config.lower_incumbent,
                )
                batch: list[tuple[Seed, float, float]] = []
                for s in seeds:
                    if i >= config.i_max:
                        break
                    y = _evaluate(objective, s.x)
                    data.append(s.x, y)
                    i += 1
                    batch.append((s, y, data.y_max))
                if not batch:
                    break
                batch_best = max(y for _, y, _ in batch)
                l_before = l
                l = 0 if improved(y_before, batch_best, config.gamma) else l + 1
                for k, (s, y, inc) in enumerate(batch):
                    counters = (l, u) if k == len(batch) - 1 else (l_before, u)
                    trace.append(
                        TraceRecord(
                            it, SOURCE_LOWER, s.hypothesis, s.x, y, inc,
                            s.acq_value, counters,
                        )
                    )
                    it += 1
        u = 0
        while (u < config.u_max or J == 0) and i < config.i_max:
            y_before = data.y_max
            x, a = upper_step(data, space, spec, rng, cache=cache)
            y = _evaluate(objective, x)
            data.append(x, y)
            i += 1
            u = 0 if improved(y_before, y, config.gamma) else u + 1
            trace.append(
                TraceRecord(it, SOURCE_UPPER, None, x, y, data.y_max, float(a), (l, u))
            )
            it += 1
    return trace
