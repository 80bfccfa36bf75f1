"""Box search spaces and linear-constraint hypothesis regions.

A hypothesis names a subregion of the search box believed to contain good
inputs. It is stored as a linear system: equality rows ``A x = b`` and
inequality rows ``B x <= c``. Membership, uniform sampling and dataset
filtering all operate on that system directly, so arbitrary half-space
combinations work, not just sub-boxes.
"""

from __future__ import annotations

import json

import numpy as np

from .dataset import Dataset

# Relative slab half-width used for equality rows that involve more than
# one coordinate (those cannot be pinned exactly during sampling).
DEFAULT_EQ_TOL_SCALE = 1e-9

# Draws attempted when certifying that a new hypothesis is satisfiable.
CERTIFY_ATTEMPTS = 10_000
_CERTIFY_SEED = 0x5EED


class InfeasibleHypothesisError(ValueError):
    """The constraint system leaves no room inside the search box."""


class FeasibilityBudgetError(RuntimeError):
    """Rejection sampling exhausted its attempt budget without a hit."""


class SearchSpace:
    """Axis-aligned box ``[lower_i, upper_i]`` for each coordinate.

    Parameters
    ----------
    lower, upper : array_like, shape (d,)
        Box bounds. Strictly increasing per axis unless ``allow_degenerate``
        is set, in which case ``lower_i == upper_i`` marks a pinned axis
        (used by hypothesis bounding boxes).
    names : sequence of str, optional
        Coordinate labels, used by named-constraint builders and CSV IO.
    """

    def __init__(self, lower, upper, names=None, allow_degenerate=False):
        self.lower = np.array(lower, dtype=float)
        self.upper = np.array(upper, dtype=float)
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError("bounds must be 1-d arrays of equal length")
        if self.lower.size == 0:
            raise ValueError("search space needs at least one dimension")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("bounds must be finite")
        if allow_degenerate:
            bad = self.lower > self.upper
        else:
            bad = self.lower >= self.upper
        if np.any(bad):
            raise ValueError(
                f"invalid bounds on axes {np.flatnonzero(bad).tolist()}: "
                "lower must be below upper"
            )
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)
        if names is not None:
            names = tuple(str(n) for n in names)
            if len(names) != self.lower.size:
                raise ValueError("one name per axis required")
        self.names = names

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def index_of(self, name: str) -> int:
        if self.names is None:
            raise KeyError("space has no axis names")
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown axis {name!r}") from None

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def contains_many(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all((x >= self.lower) & (x <= self.upper), axis=1)

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Uniform draw(s); shape (d,) when ``n`` is None, else (n, d)."""
        if n is None:
            return rng.uniform(self.lower, self.upper)
        return rng.uniform(self.lower, self.upper, size=(int(n), self.dim))

    def normalize(self, x) -> np.ndarray:
        """Map into the unit cube; degenerate axes map to 0."""
        span = np.where(self.span > 0, self.span, 1.0)
        return (np.asarray(x, dtype=float) - self.lower) / span

    def __repr__(self) -> str:
        return f"SearchSpace(dim={self.dim})"


class Hypothesis:
    """A claim that good inputs satisfy ``A x = b`` and ``B x <= c``.

    Equality rows touching a single coordinate pin that coordinate exactly;
    sampling then never has to hit a measure-zero slice by luck. Remaining
    equality rows are enforced as thin slabs of half-width
    ``eq_tol * ||row||``. Strict inequalities from the literature are stored
    non-strict; the boundary has measure zero so optimization behaviour is
    unchanged.

    Satisfiability inside the box is certified at construction by rejection
    sampling from the bounding box; an empty region raises
    :class:`InfeasibleHypothesisError`.
    """

    def __init__(
        self,
        label: str,
        space: SearchSpace,
        eq_lhs=None,
        eq_rhs=None,
        ineq_lhs=None,
        ineq_rhs=None,
        eq_tol: float = DEFAULT_EQ_TOL_SCALE,
        certify: bool = True,
    ):
        self.label = str(label)
        self.space = space
        d = space.dim
        self.eq_lhs = _as_rows(eq_lhs, d)
        self.eq_rhs = _as_rhs(eq_rhs, self.eq_lhs.shape[0])
        self.ineq_lhs = _as_rows(ineq_lhs, d)
        self.ineq_rhs = _as_rhs(ineq_rhs, self.ineq_lhs.shape[0])
        if self.eq_lhs.shape[0] + self.ineq_lhs.shape[0] == 0:
            raise ValueError("hypothesis needs at least one constraint row")
        if eq_tol < 0:
            raise ValueError("eq_tol must be nonnegative")
        self.eq_tol = float(eq_tol)
        # Absolute slab half-width per equality row.
        norms = np.linalg.norm(self.eq_lhs, axis=1) if self.eq_lhs.size else np.zeros(0)
        self._eq_slab = self.eq_tol * np.maximum(norms, 1.0)
        self._box: SearchSpace | None = None
        self._box = self.bounding_box()
        if certify:
            probe = np.random.default_rng(_CERTIFY_SEED)
            try:
                self.sample_uniform(probe, max_attempts=CERTIFY_ATTEMPTS)
            except FeasibilityBudgetError:
                raise InfeasibleHypothesisError(
                    f"hypothesis {self.label!r}: no feasible point found in "
                    f"{CERTIFY_ATTEMPTS} draws from its bounding box"
                ) from None

    # -- membership ----------------------------------------------------

    def contains(self, x) -> bool:
        return bool(self.contains_many(np.asarray(x, dtype=float)[None, :])[0])

    def contains_many(self, x) -> np.ndarray:
        """Vectorized membership test; x has shape (m, d)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ok = self.space.contains_many(x)
        if self.ineq_lhs.shape[0]:
            # tiny slack absorbs roundoff from clipping/projection
            resid = x @ self.ineq_lhs.T - self.ineq_rhs
            ok &= np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(self.ineq_rhs)), axis=1)
        if self.eq_lhs.shape[0]:
            resid = np.abs(x @ self.eq_lhs.T - self.eq_rhs)
            ok &= np.all(resid <= self._eq_slab, axis=1)
        return ok

    # -- geometry ------------------------------------------------------

    def bounding_box(self) -> SearchSpace:
        """Tightest box implied by single-coordinate rows.

        Only rows with exactly one nonzero coefficient tighten an axis; a
        single-coordinate equality collapses its axis to a point. Raises
        :class:`InfeasibleHypothesisError` when the box empties out.
        """
        if self._box is not None:
            return self._box
        lo = self.space.lower.copy()
        hi = self.space.upper.copy()
        for row, rhs in zip(self.ineq_lhs, self.ineq_rhs):
            nz = np.flatnonzero(row)
            if nz.size != 1:
                continue
            k = nz[0]
            bound = rhs / row[k]
            if row[k] > 0:
                hi[k] = min(hi[k], bound)
            else:
                lo[k] = max(lo[k], bound)
        for row, rhs in zip(self.eq_lhs, self.eq_rhs):
            nz = np.flatnonzero(row)
            if nz.size != 1:
                continue
            k = nz[0]
            v = rhs / row[k]
            lo[k] = max(lo[k], v)
            hi[k] = min(hi[k], v)
        if np.any(lo > hi):
            bad = np.flatnonzero(lo > hi).tolist()
            raise InfeasibleHypothesisError(
                f"hypothesis {self.label!r}: contradictory bounds on axes {bad}"
            )
        return SearchSpace(lo, hi, names=self.space.names, allow_degenerate=True)

    @property
    def pinned_axes(self) -> np.ndarray:
        box = self.bounding_box()
        return np.flatnonzero(box.lower == box.upper)

    # -- sampling ------------------------------------------------------

    def sample_uniform(
        self, rng: np.random.Generator, max_attempts: int = 10_000
    ) -> np.ndarray:
        """One uniform draw from the feasible region.

        Rejection sampling from the bounding box: pinned axes are exact by
        construction, every other constraint is checked on each draw.
        """
        box = self.bounding_box()
        remaining = int(max_attempts)
        if remaining <= 0:
            raise ValueError("max_attempts must be positive")
        while remaining > 0:
            m = min(remaining, 256)
            cand = rng.uniform(box.lower, box.upper, size=(m, box.dim))
            ok = self.contains_many(cand)
            hits = np.flatnonzero(ok)
            if hits.size:
                return cand[hits[0]]
            remaining -= m
        raise FeasibilityBudgetError(
            f"hypothesis {self.label!r}: {max_attempts} rejection draws, no hit"
        )

    # -- data ----------------------------------------------------------

    def filter_dataset(self, data: Dataset) -> Dataset:
        """Rows of ``data`` inside the region, original order kept."""
        if len(data) == 0:
            return Dataset()
        keep = np.flatnonzero(self.contains_many(data.x))
        return data.subset(keep)

    def __repr__(self) -> str:
        return (
            f"Hypothesis({self.label!r}, eq={self.eq_lhs.shape[0]}, "
            f"ineq={self.ineq_lhs.shape[0]})"
        )


def _as_rows(rows, d: int) -> np.ndarray:
    if rows is None:
        return np.zeros((0, d))
    out = np.atleast_2d(np.asarray(rows, dtype=float))
    if out.size == 0:
        return np.zeros((0, d))
    if out.shape[1] != d:
        raise ValueError(f"constraint rows must have width {d}, got {out.shape[1]}")
    if not np.all(np.isfinite(out)):
        raise ValueError("constraint coefficients must be finite")
    return out

def _as_rhs(rhs, rows: int) -> np.ndarray:
    if rhs is None:
        out = np.zeros(0)
    else:
        out = np.asarray(rhs, dtype=float).ravel()
    if out.shape[0] != rows:
        raise ValueError("one right-hand side per constraint row required")
    if not np.all(np.isfinite(out)):
        raise ValueError("right-hand sides must be finite")
    return out


def box_hypothesis(label: str, space: SearchSpace, lower, upper, **kw) -> Hypothesis:
    """Sub-box hypothesis expressed as 2d single-coordinate inequality rows."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = space.dim
    if lower.shape != (d,) or upper.shape != (d,):
        raise ValueError("sub-box bounds must match the space dimension")
    rows = []
    rhs = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        rows.append(e)
        rhs.append(upper[k])
        rows.append(-e)
        rhs.append(-lower[k])
    return Hypothesis(label, space, ineq_lhs=rows, ineq_rhs=rhs, **kw)


class ConstraintSyntaxError(ValueError):
    """A textual constraint row could not be parsed."""


def _resolve_terms(terms: dict, space: SearchSpace) -> np.ndarray:
    row = np.zeros(space.dim)
    for key, coeff in terms.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            k = space.index_of(str(key))
        if not 0 <= k < space.dim:
            raise ConstraintSyntaxError(f"axis {key!r} out of range")
        row[k] += float(coeff)
    return row


def hypothesis_from_dict(spec: dict, space: SearchSpace) -> Hypothesis:
    """Build a hypothesis from a plain-dict description.

    Expected shape::

        {"label": "...",
         "constraints": [
             {"terms": {"x_0": 1.0, "x_1": -2.0}, "op": "<=", "rhs": 3.0},
             {"terms": {"NaCl": 1.0}, "op": "=", "rhs": 0.0},
             ...
         ]}

    ``op`` is one of ``=``, ``==``, ``<=``, ``<``, ``>=``, ``>``. Strict
    operators are stored non-strict.
    """
    if not isinstance(spec, dict):
        raise ConstraintSyntaxError("hypothesis description must be an object")
    label = spec.get("label")
    if not label:
        raise ConstraintSyntaxError("hypothesis description needs a label")
    constraints = spec.get("constraints")
    if not isinstance(constraints, list) or not constraints:
        raise ConstraintSyntaxError(f"{label}: needs a nonempty constraint list")
    eq_lhs, eq_rhs, ineq_lhs, ineq_rhs = [], [], [], []
    for i, c in enumerate(constraints):
        try:
            terms = c["terms"]
            op = c["op"]
            rhs = float(c["rhs"])
        except (TypeError, KeyError, ValueError) as exc:
            raise ConstraintSyntaxError(f"{label}: bad constraint #{i}: {exc}") from None
        row = _resolve_terms(terms, space)
        if op in ("=", "=="):
            eq_lhs.append(row)
            eq_rhs.append(rhs)
        elif op in ("<=", "<"):
            ineq_lhs.append(row)
            ineq_rhs.append(rhs)
        elif op in (">=", ">"):
            ineq_lhs.append(-row)
            ineq_rhs.append(-rhs)
        else:
            raise ConstraintSyntaxError(f"{label}: unknown operator {op!r}")
    return Hypothesis(
        label,
        space,
        eq_lhs=eq_lhs or None,
        eq_rhs=eq_rhs or None,
        ineq_lhs=ineq_lhs or None,
        ineq_rhs=ineq_rhs or None,
    )


def load_hypotheses_file(path, space: SearchSpace) -> list[Hypothesis]:
    """Read hypothesis descriptions from a JSON file.

    The file holds either a single description object or a list of them
    (see :func:`hypothesis_from_dict`).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConstraintSyntaxError(f"{path}: not valid JSON: {exc}") from None
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list) or not payload:
        raise ConstraintSyntaxError(f"{path}: expected one or more hypothesis objects")
    return [hypothesis_from_dict(item, space) for item in payload]
