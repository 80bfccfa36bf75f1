"""Ordered observation records with running-incumbent tracking."""

from __future__ import annotations

import math

import numpy as np


class Dataset:
    """Append-only (n, d) inputs ``x`` and (n,) values ``y`` with the best
    value seen so far.

    ``y_max`` and ``argmax_index`` always refer to the first maximizing
    entry. Rows are stored in insertion order; an empty dataset has ``x``
    of shape (0, 0).
    """

    def __init__(self):
        self.x = np.empty((0, 0))
        self.y = np.empty(0)
        self.y_max: float = -math.inf
        self.argmax_index: int = -1

    @classmethod
    def from_arrays(cls, x, y) -> "Dataset":
        x = np.array(x, dtype=float, ndmin=2, order="C")
        y = np.array(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y row counts differ")
        bad = y[~np.isfinite(y)]
        if bad.size:
            raise ValueError(f"non-finite observation value {float(bad[0])!r}")
        d = cls()
        if y.size:
            d.x, d.y = x, y
            d.argmax_index = int(np.argmax(y))
            d.y_max = float(y[d.argmax_index])
        return d

    def append(self, x, y: float) -> None:
        x = np.asarray(x, dtype=float).ravel()
        y = float(y)
        if not math.isfinite(y):
            raise ValueError(f"non-finite observation value {y!r}")
        self.x = np.vstack([self.x, x]) if len(self) else x[None, :].copy()
        self.y = np.append(self.y, y)
        if y > self.y_max:
            self.y_max = y
            self.argmax_index = len(self) - 1

    def __len__(self) -> int:
        return self.y.size

    @property
    def best_x(self) -> np.ndarray:
        if self.argmax_index < 0:
            raise ValueError("dataset is empty")
        return self.x[self.argmax_index]

    def subset(self, indices) -> "Dataset":
        """New dataset with the selected rows, original order preserved."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset.from_arrays(self.x[idx], self.y[idx])
