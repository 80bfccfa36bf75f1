"""Zero-mean Gaussian process regression with a Matern-5/2 kernel.

Inputs are normalized to the unit cube by the owning search space before
any kernel arithmetic, so lengthscales are dimensionless and a unit init
is sensible regardless of the raw coordinate ranges. Targets are used
as-is (no centering): the prior mean is exactly zero.

Hyperparameters are tuned by multistart Nelder-Mead on the log marginal
likelihood in log-parameter space, clipped to ``[1e-4, 1e4]``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as _opt
from scipy.linalg import cho_solve, cholesky, get_lapack_funcs, solve_triangular

from .dataset import Dataset
from .space import SearchSpace

_SQRT5 = math.sqrt(5.0)
_LOG2PI = math.log(2.0 * math.pi)

# Jitter escalation schedule for a failing Cholesky factorization.
JITTER_START = 1e-10
JITTER_MAX = 1e-4
JITTER_GROWTH = 10.0

# Hyperparameter box, applied to raw (not log) values.
PARAM_LO = 1e-4
PARAM_HI = 1e4


class IllConditionedKernelError(RuntimeError):
    """Cholesky kept failing even at the maximum jitter."""


@dataclass
class KernelParams:
    """Matern-5/2 hyperparameters: signal variance, per-axis lengthscales,
    observation noise variance. Smoothness is fixed at 5/2."""

    signal_variance: float
    lengthscales: np.ndarray
    noise_variance: float = 0.0

    def __post_init__(self):
        self.lengthscales = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if not 0 < self.signal_variance < math.inf:
            raise ValueError("signal variance must be positive and finite")
        if not np.all((self.lengthscales > 0) & (self.lengthscales < math.inf)):
            raise ValueError("lengthscales must be positive and finite")
        if not 0 <= self.noise_variance < math.inf:
            raise ValueError("noise variance must be nonnegative and finite")

    @classmethod
    def default(cls, dim: int, noise_variance: float = 0.0) -> "KernelParams":
        return cls(1.0, np.ones(dim), noise_variance)

    def copy(self) -> "KernelParams":
        return KernelParams(
            self.signal_variance, self.lengthscales.copy(), self.noise_variance
        )


def _matern52_from_r2(r2: np.ndarray, signal_variance: float, work=None) -> np.ndarray:
    """Matern-5/2 values from squared scaled distances, computed in place.

    ``r2`` is overwritten with the kernel values and returned. ``work`` is
    a pair of scratch arrays shaped like ``r2`` (allocated when omitted),
    so the likelihood can reuse its buffers. Every operation is the same
    IEEE operation, in the same order, as the textbook expression
    ``sv * (1 + a + a*a/3) * exp(-a)`` with ``a = sqrt(5 r2)``.
    """
    e, poly = work if work is not None else (np.empty_like(r2), np.empty_like(r2))
    a = np.sqrt(np.maximum(r2, 0.0, out=r2), out=r2)
    a *= _SQRT5
    np.exp(np.negative(a, out=e), out=e)
    np.multiply(a, a, out=poly)
    poly /= 3.0
    a += 1.0
    a += poly
    a *= signal_variance
    a *= e
    return a


def _cross_kernel(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """Dense kernel matrix between row sets ``a`` (n,d) and ``b`` (m,d)."""
    diff = a[:, None, :] - b[None, :, :]
    r2 = np.einsum("ijk,k->ij", diff * diff, 1.0 / params.lengthscales**2)
    return _matern52_from_r2(r2, params.signal_variance)


def matern52(x, z, params: KernelParams) -> float:
    """Kernel value for a single pair of (already normalized) points."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    return float(_cross_kernel(x, z, params)[0, 0])


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, escalating diagonal jitter on failure."""
    try:
        return cholesky(K, lower=True, check_finite=False), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_START
    eye = np.eye(K.shape[0])
    while jitter <= JITTER_MAX * (1 + 1e-12):
        try:
            return cholesky(K + jitter * eye, lower=True, check_finite=False), jitter
        except np.linalg.LinAlgError:
            jitter *= JITTER_GROWTH
    raise IllConditionedKernelError(
        f"kernel matrix not positive definite even with jitter {JITTER_MAX:g}"
    )


@dataclass
class GPModel:
    """Fitted posterior. ``train_x`` is stored raw; ``space`` owns the
    normalization applied before kernel evaluation."""

    params: KernelParams
    space: SearchSpace | None
    train_x: np.ndarray  # raw coordinates, (n, d)
    train_y: np.ndarray  # (n,)
    _xn: np.ndarray = field(repr=False, default=None)
    _chol: np.ndarray = field(repr=False, default=None)
    _alpha: np.ndarray = field(repr=False, default=None)
    jitter: float = 0.0

    @property
    def n(self) -> int:
        return self.train_x.shape[0]

    @property
    def dim(self) -> int:
        return self.params.lengthscales.size

    @classmethod
    def prior(cls, params: KernelParams, space: SearchSpace | None = None) -> "GPModel":
        """Data-free model: zero mean, signal-variance everywhere."""
        d = params.lengthscales.size
        return cls(params, space, np.empty((0, d)), np.empty(0))

    def _normalize(self, x: np.ndarray) -> np.ndarray:
        return self.space.normalize(x) if self.space is not None else x

    def predict(self, x, min_variance: float | None = 0.0):
        """Posterior mean and variance.

        Accepts one point (d,) or a batch (m, d); returns floats for a
        single point, arrays for a batch. ``min_variance=None`` skips the
        nonnegativity clamp (raw values can dip a hair below zero from
        roundoff).
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xq = self._normalize(np.atleast_2d(x))
        if self.n == 0:
            mean = np.zeros(xq.shape[0])
            var = np.full(xq.shape[0], self.params.signal_variance)
        else:
            ks = _cross_kernel(xq, self._xn, self.params)
            mean = ks @ self._alpha
            v = solve_triangular(self._chol, ks.T, lower=True, check_finite=False)
            var = self.params.signal_variance - np.einsum("ij,ij->j", v, v)
        if min_variance is not None:
            var = np.maximum(var, min_variance)
        if single:
            return float(mean[0]), float(var[0])
        return mean, var

    def log_marginal_likelihood(self) -> float:
        if self.n == 0:
            return 0.0
        fit_term = -0.5 * float(self.train_y @ self._alpha)
        logdet = float(np.sum(np.log(np.diag(self._chol))))
        return fit_term - logdet - 0.5 * self.n * _LOG2PI


def _finalize(params, space, x_raw, xn, y) -> GPModel:
    K = _cross_kernel(xn, xn, params)
    K[np.diag_indices_from(K)] += params.noise_variance
    L, jitter = _chol_with_jitter(K)
    alpha = cho_solve((L, True), y, check_finite=False)
    return GPModel(params, space, x_raw, y, _xn=xn, _chol=L, _alpha=alpha, jitter=jitter)


def _pack(params: KernelParams, optimize_noise: bool) -> np.ndarray:
    theta = [math.log(params.signal_variance)]
    theta.extend(np.log(params.lengthscales))
    if optimize_noise:
        theta.append(math.log(max(params.noise_variance, PARAM_LO)))
    return np.asarray(theta)


def _unpack(theta, dim, base: KernelParams, optimize_noise) -> KernelParams:
    vals = np.exp(np.clip(theta, math.log(PARAM_LO), math.log(PARAM_HI)))
    noise = float(vals[1 + dim]) if optimize_noise else base.noise_variance
    return KernelParams(float(vals[0]), vals[1 : 1 + dim].copy(), noise)


def _tril_sq_dists(xn: np.ndarray):
    """Squared scaled distances of the pairs ``np.tril_indices(n)``, as a
    function ``(w, out)`` of the inverse squared lengthscales ``w``.

    The bits equal those of the dense product ``diff**2 @ w`` over all
    n*n pairs, which makes one BLAS ``gemv`` call per row block ``i``.
    OpenBLAS's ``gemv`` works through the rows of a call in groups of
    four and gives a row in a whole group the same bits wherever it sits;
    only the last ``rows % 4`` rows come out differently (tests/test_gp.py
    checks the result for every n up to 80). Blocks ``i < b0`` hold only
    rows ``j <= i < b0 <= n - n % 4``, all in whole groups, and their
    ``b0 (b0 + 1) / 2`` pairs fill whole groups, so one product over those
    pairs gets their bits. The (at most seven) blocks from ``b0`` on are
    computed whole, as the dense product computes them.
    """
    n = xn.shape[0]
    b0 = 8 * (n // 8)
    m0 = b0 * (b0 + 1) // 2
    rows, cols = np.tril_indices(b0)
    head = xn[rows] - xn[cols]
    head *= head
    tail = xn[b0:, None, :] - xn[None, :, :]
    tail *= tail
    in_tail = np.arange(n) <= np.arange(b0, n)[:, None]

    def sq_dists(w: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.matmul(head, w, out=out[:m0])
        out[m0:] = np.matmul(tail, w)[in_tail]
        return out

    return sq_dists


def _neg_lml(xn: np.ndarray, y: np.ndarray, base_noise: float, optimize_noise: bool):
    """Negative log marginal likelihood (GPML Alg. 2.1) as a function of
    the packed log-parameters, for fixed normalized inputs and targets.

    Only the lower triangle of the kernel matrix is built, into a reused
    column-major buffer, and factored with LAPACK ``potrf``/``potrs``,
    which with ``lower=1`` never read the upper triangle. The value is bit
    for bit the one of the dense route (full kernel matrix, ``cholesky``,
    ``cho_solve``), so hyperparameter searches take the same path.
    """
    n, dim = xn.shape
    sq_dists = _tril_sq_dists(xn)
    rows, cols = np.tril_indices(n)
    lower = cols * n + rows  # column-major offsets of the pairs
    diag = np.arange(n) * (n + 1)
    r2 = np.empty(rows.size)
    work = (np.empty(rows.size), np.empty(rows.size))
    flat = np.zeros(n * n)
    K = flat.reshape((n, n), order="F")
    potrf, potrs = get_lapack_funcs(("potrf", "potrs"), (K,))
    vals = np.empty(1 + dim + int(optimize_noise))
    lo, hi = math.log(PARAM_LO), math.log(PARAM_HI)
    log_norm = 0.5 * n * _LOG2PI

    def neg_lml(theta: np.ndarray) -> float:
        np.exp(np.clip(theta, lo, hi, out=vals), out=vals)
        ls = vals[1 : 1 + dim]
        _matern52_from_r2(sq_dists(1.0 / ls**2, r2), float(vals[0]), work)
        noise = float(vals[-1]) if optimize_noise else base_noise
        flat[lower] = r2
        flat[diag] += noise
        L, info = potrf(K, lower=1, overwrite_a=1, clean=0)
        if info > 0:  # rebuild the overwritten matrix and escalate jitter
            flat[lower] = r2
            flat[diag] += noise
            try:
                L, _ = _chol_with_jitter(K)
            except IllConditionedKernelError:
                return np.inf
        alpha, _ = potrs(L, y, lower=1)
        lml = -0.5 * float(y @ alpha) - float(np.sum(np.log(np.diag(L)))) - log_norm
        return -lml

    return neg_lml


def fit(
    data: Dataset,
    init: KernelParams | None = None,
    space: SearchSpace | None = None,
    optimize: bool = True,
    budget: int = 5,
    rng: np.random.Generator | None = None,
    optimize_noise: bool = False,
    max_evals: int | None = None,
) -> GPModel:
    """Fit the GP, optionally tuning hyperparameters.

    Parameters
    ----------
    data : Dataset
        At least one observation; targets must be finite.
    init : KernelParams, optional
        Starting hyperparameters (default: unit everything, zero noise).
    space : SearchSpace, optional
        Normalizes inputs to the unit cube before kernel evaluation.
    optimize : bool
        When False the init parameters are used as-is.
    budget : int
        Number of Nelder-Mead local searches; the first starts from
        ``init``, the second from a data-scaled default (unit
        lengthscales, sample-variance signal), the rest from random
        log-uniform draws. The selected optimum never scores below the
        init parameters.
    optimize_noise : bool
        Tune a homoscedastic noise variance alongside the rest.
    max_evals : int, optional
        Cap on likelihood evaluations per local search.
    """
    n = len(data)
    if n < 1:
        raise ValueError("cannot fit a GP to an empty dataset")
    x_raw = np.array(data.x, dtype=float)
    y = np.array(data.y, dtype=float)
    if not np.all(np.isfinite(x_raw)):
        raise ValueError("non-finite inputs in training data")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite targets in training data")
    dim = x_raw.shape[1]
    if init is None:
        init = KernelParams.default(dim)
    if init.lengthscales.size != dim:
        raise ValueError("init lengthscale count does not match data dimension")
    xn = space.normalize(x_raw) if space is not None else x_raw

    if np.ptp(y) == 0.0 and n > 1:
        warnings.warn(
            "all targets identical; signal variance will collapse toward its "
            "lower bound",
            RuntimeWarning,
            stacklevel=2,
        )

    if not optimize:
        return _finalize(init, space, x_raw, xn, y)

    if budget < 1:
        raise ValueError("budget must be at least 1")
    rng = rng if rng is not None else np.random.default_rng(0)

    neg_lml = _neg_lml(xn, y, init.noise_variance, optimize_noise)
    theta0 = _pack(init, optimize_noise)
    n_par = theta0.size
    lo, hi = math.log(PARAM_LO), math.log(PARAM_HI)
    bounds = _opt.Bounds(np.full(n_par, lo), np.full(n_par, hi))
    options = {"xatol": 1e-3, "fatol": 1e-4}
    if max_evals is not None:
        options["maxfev"] = int(max_evals)

    starts = [theta0]
    if budget >= 2:
        # data-scaled default: unit lengthscales are the right order once
        # inputs live in the unit cube, and var(y) is the obvious signal
        # scale; a short init (like per-step lengthscales on sparse data)
        # can otherwise strand every search on the nugget plateau
        sv_ref = min(max(float(np.var(y)), PARAM_LO), PARAM_HI)
        ref = KernelParams(
            sv_ref,
            np.ones(dim),
            max(init.noise_variance, PARAM_LO) if optimize_noise else init.noise_variance,
        )
        starts.append(_pack(ref, optimize_noise))
    while len(starts) < budget:
        starts.append(rng.uniform(math.log(1e-2), math.log(1e2), size=n_par))

    best_theta = theta0
    best_val = neg_lml(theta0)
    for s in starts:
        res = _opt.minimize(
            neg_lml, s, method="Nelder-Mead", bounds=bounds, options=options
        )
        if np.isfinite(res.fun) and res.fun < best_val:
            best_val = res.fun
            best_theta = res.x
    params = _unpack(best_theta, dim, init, optimize_noise)
    return _finalize(params, space, x_raw, xn, y)
