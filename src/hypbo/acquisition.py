"""Expected improvement and its maximization over constrained regions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .gp import GPModel
from .space import Hypothesis, SearchSpace

# Shrink factor for the coordinate refinement; 1/golden-ratio.
_SHRINK = 0.6180339887498949
_PROBE = 1.0 - _SHRINK  # probe offset as a fraction of the current width


@dataclass
class AcquisitionSpec:
    """Expected-improvement jitter plus maximizer budget.

    ``multistarts`` feasible uniform draws seed the search; the top three
    are polished by ``refine_steps`` rounds of coordinate-wise probing
    with geometrically shrinking step sizes.
    """

    jitter: float = 0.0
    multistarts: int = 32
    refine_steps: int = 64

    def __post_init__(self):
        if self.jitter < 0:
            raise ValueError("jitter must be nonnegative")
        if self.multistarts < 1 or self.refine_steps < 0:
            raise ValueError("multistarts >= 1 and refine_steps >= 0 required")


def expected_improvement(mean, std, incumbent: float, jitter: float = 0.0):
    """Closed-form EI for a Gaussian posterior against ``incumbent``.

    Accepts scalars or arrays. A zero predictive deviation degenerates to
    ``max(mean - incumbent - jitter, 0)``.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if np.any(std < 0):
        raise ValueError("std must be nonnegative")
    delta = mean - incumbent - jitter
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, delta / np.where(std > 0, std, 1.0), 0.0)
        # norm.cdf and norm.pdf as scipy.stats computes them, minus its
        # per-call dispatch
        pdf = np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)
        ei = np.where(std > 0, delta * ndtr(z) + std * pdf, np.maximum(delta, 0.0))
    ei = np.maximum(ei, 0.0)  # cancellation can leave a tiny negative
    if ei.ndim == 0:
        return float(ei)
    return ei


def _ei_batch(model: GPModel, x: np.ndarray, incumbent: float, jitter: float):
    mean, var = model.predict(x)
    mean = np.atleast_1d(mean)
    var = np.atleast_1d(var)
    return expected_improvement(mean, np.sqrt(var), incumbent, jitter)


def maximize(
    model: GPModel,
    region: Hypothesis | SearchSpace,
    incumbent: float,
    spec: AcquisitionSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Best-effort EI maximizer restricted to ``region``.

    Seeds with feasible uniform draws, refines the best three by
    coordinate probing inside the region's bounding box, and rejects any
    probe that leaves the feasible set. The running best never regresses
    below the best seed, and exact ties keep the first point found.
    """
    if isinstance(region, Hypothesis):
        box = region.bounding_box()
        draw = lambda: np.array(
            [region.sample_uniform(rng) for _ in range(spec.multistarts)]
        )
        feasible = region.contains_many
    elif isinstance(region, SearchSpace):
        box = region
        draw = lambda: region.sample(rng, spec.multistarts)
        feasible = region.contains_many
    else:
        raise TypeError(f"unsupported region type {type(region).__name__}")

    starts = draw()
    vals = _ei_batch(model, starts, incumbent, spec.jitter)
    order = np.argsort(-vals, kind="stable")
    best_x = starts[order[0]].copy()
    best_v = float(vals[order[0]])

    k_top = min(3, starts.shape[0])
    cand = starts[order[:k_top]].copy()
    cand_v = vals[order[:k_top]].copy()
    d = box.dim
    width = np.tile((box.upper - box.lower) / 2.0, (k_top, 1))

    for step in range(spec.refine_steps):
        axis = step % d
        w = width[:, axis]
        if np.all(w <= 0):
            width[:, axis] = w * _SHRINK
            continue
        probes = np.repeat(cand, 2, axis=0)
        probes[0::2, axis] = cand[:, axis] - _PROBE * w
        probes[1::2, axis] = cand[:, axis] + _PROBE * w
        np.clip(probes[:, axis], box.lower[axis], box.upper[axis], out=probes[:, axis])
        ok = feasible(probes)
        pv = np.full(probes.shape[0], -np.inf)
        if np.any(ok):
            pv[ok] = _ei_batch(model, probes[ok], incumbent, spec.jitter)
        for c in range(k_top):
            lo_i, hi_i = 2 * c, 2 * c + 1
            j = lo_i if pv[lo_i] >= pv[hi_i] else hi_i
            if pv[j] > cand_v[c]:
                cand_v[c] = pv[j]
                cand[c] = probes[j]
                if pv[j] > best_v:
                    best_v = float(pv[j])
                    best_x = probes[j].copy()
        width[:, axis] = w * _SHRINK

    return best_x, best_v
