"""Hydrogen-evolution oracle: CSV ingestion, GP emulator, expert
hypothesis libraries, and a synthetic stand-in dataset generator.

The search mixes ten components: the P10 photocatalyst (1-5 mg) and nine
liquid additions (0-5 mL each). Measured hydrogen evolution rates are in
umol/h. A GP fitted on such measurements serves as the deterministic
objective: its posterior mean interpolates the bench data.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .gp import GPModel, KernelParams, fit as gp_fit
from .space import (
    FeasibilityBudgetError,
    Hypothesis,
    SearchSpace,
    hypothesis_from_dict,
)

COMPONENTS = ("P10", "Cys", "MB", "RB", "AR87", "NaOH", "NaCl", "SDS", "PVP", "NaDS")
HER_COLUMN = "HER"

_LOWER = np.array([1.0] + [0.0] * 9)
_UPPER = np.array([5.0] * 10)
# Dispensing granularity: 0.5 mg for the solid, 0.25 mL for liquids.
# Plausible robot-dispensing steps, not measured ones; override per
# column via the CSV sidecar or the ``steps`` argument when known.
DEFAULT_STEPS = np.array([0.5] + [0.25] * 9)


class SchemaError(ValueError):
    """CSV header does not match the expected component columns."""


class RangeError(ValueError):
    """A value falls outside its component's allowed range."""

    def __init__(self, row: int, column: str, value: float, message: str):
        super().__init__(f"row {row}, column {column}: {message} (got {value!r})")
        self.row = row
        self.column = column
        self.value = value


class ParseError(ValueError):
    """A CSV cell could not be read as a number."""


def component_space() -> SearchSpace:
    return SearchSpace(_LOWER, _UPPER, names=COMPONENTS)


@dataclass
class HERDataset:
    compositions: np.ndarray  # (n, 10), raw units
    her: np.ndarray  # (n,), umol/h
    steps: np.ndarray  # (10,) discretization per component

    def __post_init__(self):
        self.compositions = np.atleast_2d(np.asarray(self.compositions, dtype=float))
        self.her = np.asarray(self.her, dtype=float).ravel()
        self.steps = np.asarray(self.steps, dtype=float).ravel()
        if self.compositions.shape[1] != 10 or self.steps.shape != (10,):
            raise SchemaError("compositions must have 10 columns")
        if self.compositions.shape[0] != self.her.shape[0]:
            raise ValueError("composition and HER row counts differ")
        _validate_ranges(self.compositions, self.her)

    def __len__(self) -> int:
        return self.compositions.shape[0]


def _validate_ranges(comp: np.ndarray, her: np.ndarray) -> None:
    for i in range(comp.shape[0]):
        for k, name in enumerate(COMPONENTS):
            v = comp[i, k]
            if not np.isfinite(v):
                raise RangeError(i, name, v, "non-finite value")
            if v < _LOWER[k] or v > _UPPER[k]:
                raise RangeError(
                    i, name, v, f"outside [{_LOWER[k]:g}, {_UPPER[k]:g}]"
                )
        if not np.isfinite(her[i]) or her[i] < 0:
            raise RangeError(i, HER_COLUMN, her[i], "must be a nonnegative real")


def _steps_from_sidecar(path) -> np.ndarray | None:
    sidecar = str(path) + ".steps.json"
    if not os.path.exists(sidecar):
        return None
    with open(sidecar, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    steps = DEFAULT_STEPS.copy()
    for name, val in raw.items():
        if name not in COMPONENTS:
            raise SchemaError(f"{sidecar}: unknown component {name!r}")
        steps[COMPONENTS.index(name)] = float(val)
    if np.any(steps <= 0):
        raise ValueError(f"{sidecar}: steps must be positive")
    return steps


def load_csv(path, steps=None) -> HERDataset:
    """Read compositions + HER measurements.

    Header must be exactly the ten component names plus ``HER`` (any
    column order). Discretization steps come from, in priority order:
    the ``steps`` argument, a ``<path>.steps.json`` sidecar mapping
    component names to step sizes, or the defaults.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        header = [h.strip() for h in header]
        expected = set(COMPONENTS) | {HER_COLUMN}
        if set(header) != expected or len(header) != len(expected):
            missing = sorted(expected - set(header))
            extra = sorted(set(header) - expected)
            raise SchemaError(
                f"{path}: bad header (missing {missing}, unexpected {extra})"
            )
        col = {name: header.index(name) for name in header}
        comp_rows = []
        her_rows = []
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {i} has {len(row)} cells")
            try:
                comp_rows.append(
                    [float(row[col[name]]) for name in COMPONENTS]
                )
                her_rows.append(float(row[col[HER_COLUMN]]))
            except ValueError as exc:
                raise ParseError(f"{path}: row {i}: {exc}") from None
    if steps is None:
        steps = _steps_from_sidecar(path)
    if steps is None:
        steps = DEFAULT_STEPS
    return HERDataset(np.asarray(comp_rows), np.asarray(her_rows), steps)


def write_csv(d: HERDataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list(COMPONENTS) + [HER_COLUMN])
        for comp, her in zip(d.compositions, d.her):
            w.writerow([format(v, ".17g") for v in comp] + [format(her, ".17g")])


@dataclass
class OracleModel:
    """Deterministic emulator: the posterior mean of a GP fitted on
    measured rates. Immutable after fitting."""

    gp: GPModel
    space: SearchSpace
    init_lengthscales: np.ndarray  # normalized init, = steps / span

    def evaluate(self, composition) -> float:
        x = np.asarray(composition, dtype=float).ravel()
        if x.shape != (10,):
            raise ValueError("composition must have 10 entries")
        if not self.space.contains(x):
            raise ValueError(f"composition outside component ranges: {x!r}")
        mean, _ = self.gp.predict(x)
        return float(mean)

    __call__ = evaluate


def fit_oracle(
    d: HERDataset,
    rng: np.random.Generator | None = None,
    budget: int = 5,
    max_evals: int | None = None,
) -> OracleModel:
    """Fit the emulator with tuned hyperparameters.

    Each lengthscale starts at its component's discretization step
    (normalized by the component span); signal variance starts at the
    sample variance of the rates; homoscedastic noise is optimized.
    """
    if len(d) < 2:
        raise ValueError("oracle fitting needs at least 2 rows")
    space = component_space()
    init_ls = d.steps / space.span
    sv0 = float(np.var(d.her))
    init = KernelParams(
        signal_variance=max(sv0, 1e-3),
        lengthscales=init_ls,
        noise_variance=max(1e-2 * max(sv0, 1e-3), 1e-4),
    )
    data = Dataset.from_arrays(d.compositions, d.her)
    model = gp_fit(
        data,
        init=init,
        space=space,
        optimize=True,
        budget=budget,
        rng=rng if rng is not None else np.random.default_rng(0),
        optimize_noise=True,
        max_evals=max_evals,
    )
    return OracleModel(model, space, init_ls)


# -- expert hypothesis libraries ------------------------------------


def _c(terms: dict[str, float], op: str, rhs: float) -> dict:
    return {"terms": terms, "op": op, "rhs": rhs}


def _build(label: str, constraints: list[dict]) -> Hypothesis:
    return hypothesis_from_dict(
        {"label": label, "constraints": constraints}, component_space()
    )


def _what_they_knew() -> Hypothesis:
    return _build(
        "What They Knew",
        [
            _c({"P10": 1}, "=", 5),
            _c({"Cys": 1}, ">=", 1),
            _c({"Cys": 1}, "<=", 4),
            _c({"MB": 1}, "<", 0.5),
            _c({"RB": 1}, "<", 0.5),
            _c({"AR87": 1}, "<", 1),
            _c({"NaOH": 1}, "<", 3),
            _c({"NaCl": 1}, "<", 3),
            _c({"SDS": 1}, "<", 1),
            _c({"PVP": 1}, "<", 2),
            _c({"NaDS": 1}, "<", 4),
        ],
    )


def _perfect_hindsight() -> Hypothesis:
    return _build(
        "Perfect Hindsight",
        [
            _c({"P10": 1}, ">=", 3.5),
            _c({"Cys": 1}, ">=", 1),
            _c({"Cys": 1}, "<=", 3.5),
            _c({"NaOH": 1}, ">=", 0.5),
            _c({"NaOH": 1}, "<=", 2),
            _c({"NaDS": 1}, ">=", 0),
            _c({"NaDS": 1}, "<=", 1.5),
            _c({"Cys": 1, "NaOH": 1, "NaDS": 1}, ">=", 2),
            _c({"Cys": 1, "NaOH": 1, "NaDS": 1}, "<=", 4.5),
            _c({"NaCl": 1, "NaDS": 1, "NaOH": 1}, ">=", 1),
            _c({"NaCl": 1, "NaDS": 1, "NaOH": 1}, "<=", 2.75),
            _c({"MB": 1}, "=", 0),
            _c({"AR87": 1}, "=", 0),
            _c({"RB": 1}, "=", 0),
            _c({"NaCl": 1}, "<", 2.5),
            _c({"SDS": 1}, "=", 0),
            _c({"PVP": 1}, "=", 0),
        ],
    )


def _bizarro_world() -> Hypothesis:
    return _build(
        "Bizarro World",
        [
            _c({"P10": 1}, "=", 1),
            _c({"Cys": 1}, "=", 0),
            _c({"MB": 1}, ">", 0.5),
            _c({"AR87": 1}, ">", 0.5),
            _c({"RB": 1}, ">", 0.5),
            _c({"NaOH": 1}, "=", 0),
            _c({"NaCl": 1}, ">", 0.5),
            _c({"SDS": 1}, ">", 0.5),
            _c({"PVP": 1}, ">", 0.5),
            _c({"NaDS": 1}, "=", 0),
        ],
    )


def _virtual_chemists() -> list[Hypothesis]:
    return [
        _build(
            "Dye Sceptic",
            [_c({"MB": 1}, "=", 0), _c({"AR87": 1}, "=", 0), _c({"RB": 1}, "=", 0)],
        ),
        _build("Dye Fanatic", [_c({"MB": 1, "AR87": 1, "RB": 1}, ">", 3)]),
        _build(
            "AR87 Obsessed",
            [
                _c({"AR87": 1}, ">", 3),
                _c({"MB": 1}, "<", 0.5),
                _c({"RB": 1}, "<", 0.5),
            ],
        ),
        _build(
            "Surfactant Sceptic",
            [_c({"SDS": 1}, "=", 0), _c({"PVP": 1}, "=", 0)],
        ),
        _build("Scavenger Obsessive", [_c({"Cys": 1}, ">", 4)]),
        _build("pH Fanatic", [_c({"NaOH": 1, "NaDS": 1}, ">", 3.5)]),
        _build("H-bond Lover", [_c({"NaDS": 1}, ">", 3.5)]),
        _build("Halophile", [_c({"NaOH": 1, "NaDS": 1, "NaCl": 1}, ">", 3.5)]),
        _build("Halophobe", [_c({"NaCl": 1}, "=", 0)]),
    ]


HYPOTHESIS_KINDS = (
    "what_they_knew",
    "perfect_hindsight",
    "bizarro_world",
    "virtual_chemists",
    "total_volume",
)


def chemistry_hypotheses(kind: str) -> list[Hypothesis]:
    """Expert constraint sets over the 10-component space.

    ``what_they_knew``: the knowledge available before the original
    robot campaign, merged into one hypothesis. ``perfect_hindsight`` /
    ``bizarro_world``: the best and worst subspaces identified from the
    full campaign's outcomes. ``virtual_chemists``: nine individually
    labeled, partly contradictory opinions. ``total_volume``: the
    optional liquid-budget cap (see :func:`total_volume_hypothesis`).
    """
    if kind == "what_they_knew":
        return [_what_they_knew()]
    if kind == "perfect_hindsight":
        return [_perfect_hindsight()]
    if kind == "bizarro_world":
        return [_bizarro_world()]
    if kind == "virtual_chemists":
        return _virtual_chemists()
    if kind == "total_volume":
        return [total_volume_hypothesis()]
    raise KeyError(f"unknown hypothesis kind {kind!r}; choose from {HYPOTHESIS_KINDS}")


class _LiquidBudgetHypothesis(Hypothesis):
    """Liquid-budget cap with a direct sampler.

    With nine liquids on [0, 5] and a 5 mL budget the feasible region is
    1/9! of the bounding box, so generic rejection sampling essentially
    never hits it (and would flunk construction-time certification).
    Instead: exponential spacings give exact uniform draws from the
    corner simplex {liquids >= 0, sum <= limit}; a thinning step handles
    budgets wide enough for the per-component 5 mL ceilings to bind.
    Construction-time certification runs this sampler too.
    """

    def __init__(self, limit: float):
        limit = float(limit)
        if not np.isfinite(limit) or limit <= 0:
            raise ValueError("volume limit must be positive")
        self._limit = limit
        row = np.r_[0.0, np.ones(9)]  # every liquid, not the solid
        super().__init__(
            f"Total volume <= {limit:g} mL",
            component_space(),
            ineq_lhs=[row],
            ineq_rhs=[limit],
        )

    def sample_uniform(
        self, rng: np.random.Generator, max_attempts: int = 10_000
    ) -> np.ndarray:
        if int(max_attempts) <= 0:
            raise ValueError("max_attempts must be positive")
        box = self.bounding_box()
        if self._limit >= float(np.sum(box.upper[1:])):
            return rng.uniform(box.lower, box.upper, size=box.dim)
        for _ in range(int(max_attempts)):
            x = rng.uniform(box.lower, box.upper, size=box.dim)
            e = rng.exponential(1.0, size=10)
            x[1:] = self._limit * e[:9] / e.sum()
            if np.all(x[1:] <= box.upper[1:]):
                return x
        raise FeasibilityBudgetError(
            f"hypothesis {self.label!r}: {max_attempts} simplex draws, no hit"
        )


def total_volume_hypothesis(limit: float = 5.0) -> Hypothesis:
    """Optional cap on the combined liquid volume (the bench always
    topped mixtures up to 5 mL). Not applied by default; list the
    ``total_volume`` hypothesis kind to opt in."""
    return _LiquidBudgetHypothesis(limit)


# -- synthetic stand-in ---------------------------------------------

# Ground-truth surface for the stand-in generator (raw units):
#
#   f(x) = 0.6 + 0.9 * (P10 - 1) / 4
#        + B(Cys, NaOH, NaCl, NaDS) * exp(-0.5 * dyes) * exp(-0.1 * surf)
#
#   B = 1.5 * bump(Cys; 2.5, 2.5) + 1.2 * bump(NaOH; 1.25, 2.5)
#     + 0.4 * bump(NaCl; 0.75, 3) + 0.4 * bump(NaDS; 0.75, 3) + 0.2
#   bump(v; c, w) = exp(-((v - c) / w)^2)
#   dyes = MB + RB + AR87, surf = SDS + PVP
#
# Peaked in P10/Cys/NaOH, strongly attenuated by dyes, mildly by
# surfactants; always positive, so additive noise almost never clips.


def standin_response(compositions) -> np.ndarray:
    """Noise-free stand-in surface, vectorized over rows."""
    x = np.atleast_2d(np.asarray(compositions, dtype=float))
    p10, cys, mb, rb, ar87, naoh, nacl, sds, pvp, nads = x.T
    bump = lambda v, c, w: np.exp(-(((v - c) / w) ** 2))
    b = (
        1.5 * bump(cys, 2.5, 2.5)
        + 1.2 * bump(naoh, 1.25, 2.5)
        + 0.4 * bump(nacl, 0.75, 3.0)
        + 0.4 * bump(nads, 0.75, 3.0)
        + 0.2
    )
    dyes = mb + rb + ar87
    surf = sds + pvp
    return 0.6 + 0.9 * (p10 - 1.0) / 4.0 + b * np.exp(-0.5 * dyes) * np.exp(-0.1 * surf)


def generate_standin_dataset(
    rows: int, rng: np.random.Generator, noise_sd: float = 0.1
) -> HERDataset:
    """Synthesize grid-snapped compositions with noisy responses.

    Dye draws are zero with probability 0.6 (surfactants 0.4) so the
    productive dye-free region is well represented; remaining values are
    uniform on each component's discretization grid. Noise is Gaussian
    with ``noise_sd``; rates are floored at zero.
    """
    rows = int(rows)
    if rows < 10:
        raise ValueError("need at least 10 rows")
    steps = DEFAULT_STEPS
    comp = np.empty((rows, 10))
    for k in range(10):
        n_levels = int(round((_UPPER[k] - _LOWER[k]) / steps[k])) + 1
        comp[:, k] = _LOWER[k] + steps[k] * rng.integers(0, n_levels, size=rows)
    zero_dye = rng.random((rows, 3)) < 0.6
    for i, k in enumerate((2, 3, 4)):  # MB, RB, AR87
        comp[zero_dye[:, i], k] = 0.0
    zero_surf = rng.random((rows, 2)) < 0.4
    for i, k in enumerate((7, 8)):  # SDS, PVP
        comp[zero_surf[:, i], k] = 0.0
    her = standin_response(comp) + rng.normal(0.0, noise_sd, size=rows)
    her = np.maximum(her, 0.0)
    return HERDataset(comp, her, steps)
