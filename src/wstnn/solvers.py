"""ADMM solvers for WSTNN-regularized completion and robust PCA.

Both solvers run one sweep core, ``_admm``. It keeps one penalty and
one buffer per mode pair; the buffer holds the pair's multiplier
between sweeps and its penalty-weighted estimate minus that multiplier
within a sweep, so no auxiliary variable outlives its pair's step. Each
sweep applies tensor singular value thresholding to every pair's
unfolding of the current iterate, hands the sum of the pair terms to
the solver's own ``combine`` step (completion re-imposes the observed
entries; robust PCA adds its l1 block), then updates the pair
multipliers and penalties. Penalties grow by the solver's constant
``gamma`` each sweep (1.1 for completion, 1.2 for robust PCA), capped at
``PENALTY_MAX``. Iteration stops when the relative change of
successive primary iterates drops below ``rel_tol`` (the report reads
``converged``) or after ``p_max`` sweeps.

User-facing tuning is via the per-pair threshold vector tau; the penalty
vector is derived as beta = alpha / tau, so the t-SVT threshold for each
pair starts at exactly tau. The default tau of 10 suits unit-scale data
such as :func:`wstnn.synth.gen_cp_tensor` draws; it must scale with the
data. Pairs with zero weight are skipped entirely.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .ntubal import pair_count, validate_weights
from .tensor_ops import frobenius_norm, mode_k1k2_fold, mode_k1k2_unfold, mode_pairs
from .tsvd import t_svt

__all__ = [
    "LrtcConfig",
    "TrpcaConfig",
    "SolveReport",
    "soft_threshold",
    "default_lambda",
    "lrtc_solve",
    "trpca_solve",
]

#: cap on every ADMM penalty (the per-pair betas and the robust-PCA rho)
PENALTY_MAX = 1e10


def _validated(cfg, ndim: int):
    """Copy of ``cfg`` with checked weights and one tau value per mode pair
    (a scalar tau is broadcast)."""
    alpha = validate_weights(cfg.alpha, ndim)
    n_pairs = pair_count(ndim)
    tau = np.asarray(cfg.tau, dtype=np.float64)
    if tau.ndim == 0:
        tau = np.full(n_pairs, float(tau))
    if tau.shape != (n_pairs,):
        raise ValueError(f"tau must be a scalar or length-{n_pairs} vector")
    if not ((tau > 0) & (tau < np.inf)).all():
        raise ValueError(f"tau must be positive and finite elementwise, got {tau.tolist()}")
    if not (isinstance(cfg.p_max, numbers.Integral) and cfg.p_max >= 1):
        raise ValueError(f"p_max must be an integer >= 1, got {cfg.p_max!r}")
    if not np.isfinite(cfg.rel_tol):
        raise ValueError(f"rel_tol must be finite, got {cfg.rel_tol!r}")
    return replace(cfg, alpha=alpha, tau=tau)


@dataclass
class LrtcConfig:
    """Parameters for :func:`lrtc_solve`."""

    alpha: np.ndarray
    tau: np.ndarray | float = 10.0
    gamma: ClassVar[float] = 1.1
    p_max: int = 500
    rel_tol: float = 1e-4

    def validated(self, ndim: int) -> "LrtcConfig":
        return _validated(self, ndim)


@dataclass
class TrpcaConfig:
    """Parameters for :func:`trpca_solve`.

    ``lam`` weights the l1 term (see :func:`default_lambda` for the
    recommended value). The l1 block's penalty starts at :attr:`rho`.
    """

    alpha: np.ndarray
    lam: float
    tau: np.ndarray | float = 10.0
    gamma: ClassVar[float] = 1.2
    p_max: int = 500
    rel_tol: float = 1e-4

    @property
    def rho(self) -> float:
        """Initial l1-block penalty, 1 / mean(tau)."""
        return 1.0 / float(np.mean(self.tau))

    def validated(self, ndim: int) -> "TrpcaConfig":
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam!r}")
        return _validated(self, ndim)


@dataclass
class SolveReport:
    rel_change_trace: list[float] = field(default_factory=list)
    wall_time: float = 0.0
    #: robust PCA's final ||x - low - sparse|| / ||x|| (0.0 at x = 0); None for completion
    constraint_residual: float | None = None
    #: True when the relative change fell below rel_tol, False when the
    #: solve ran out of p_max sweeps first
    converged: bool = False

    # the sweep count and the last change, read from the trace
    @property
    def iterations(self) -> int:
        return len(self.rel_change_trace)

    @property
    def final_rel_change(self) -> float:
        return self.rel_change_trace[-1]


def soft_threshold(x: np.ndarray, xi: float) -> np.ndarray:
    """Elementwise shrinkage sgn(x) * max(|x| - xi, 0)."""
    if not xi >= 0:
        raise ValueError("threshold xi must be nonnegative")
    return np.sign(x) * np.maximum(np.abs(x) - xi, 0.0)


def default_lambda(shape: tuple[int, ...], alpha: np.ndarray) -> float:
    """Recommended weight ``lam`` of :func:`trpca_solve`'s objective
    ``ntubal.wstnn(low, alpha) + lam * ||sparse||_1``: sum over mode pairs of
    alpha / sqrt(max(n_k1, n_k2) * d), d the product of remaining extents."""
    shape = tuple(shape)
    alpha = validate_weights(alpha, len(shape))
    total = float(np.prod(shape, dtype=np.float64))
    lam = 0.0
    for a, (k1, k2) in zip(alpha, mode_pairs(len(shape))):
        d = total / (shape[k1 - 1] * shape[k2 - 1])
        lam += a / np.sqrt(max(shape[k1 - 1], shape[k2 - 1]) * d)
    return lam


def _rel_change(new: np.ndarray, old: np.ndarray) -> float:
    """||new - old|| / ||old||; a move away from a zero iterate is an
    infinite relative change (an absolute norm would depend on the data
    scale and could stop a solve after its first sweep)."""
    denom = frobenius_norm(old)
    diff = frobenius_norm(new - old)
    if denom > 0:
        return diff / denom
    return float("inf") if diff > 0 else 0.0


def _admm(x0: np.ndarray, cfg, combine, start: float) -> tuple[np.ndarray, SolveReport]:
    """Run ADMM sweeps from the primary iterate ``x0`` under a validated
    config. ``combine(num, beta_sum)`` returns the next primary iterate
    from num = sum_i (beta_i y_i - mult_i) over the active pairs i and
    beta_sum = sum_i beta_i; ``start`` is the solve's start time. A
    ``LinAlgError`` from a pair's t-SVT is raised again as the same type,
    naming the sweep and the mode pair.

    Each active pair keeps one buffer w_i (the scaled-multiplier
    bookkeeping of Boyd et al. 2011, section 3.1.1). Between sweeps it
    holds mult_i. Once the sweep has the pair's estimate y_i, w_i becomes
    beta_i y_i - mult_i, the pair's term of num, and y_i is dropped.
    After ``combine``, w_i becomes the next multiplier
    mult_i + beta_i (x_new - y_i) = beta_i x_new - w_i, before beta_i
    grows."""
    pairs = mode_pairs(x0.ndim)
    active = [i for i, a in enumerate(cfg.alpha) if a > 0]
    beta = {i: cfg.alpha[i] / cfg.tau[i] for i in active}
    w = {i: np.zeros_like(x0) for i in active}
    # the dels free each array as soon as it is spent, so the first
    # iterate, a pair's unfolding and its t-SVT output never outlive
    # their step into the next pair's t-SVT
    x = x0
    del x0

    report = SolveReport()
    for sweep in range(1, cfg.p_max + 1):
        num = np.zeros_like(x)
        for i in active:
            z = mode_k1k2_unfold(x + w[i] / beta[i], pairs[i])
            try:
                shrunk = t_svt(z, cfg.alpha[i] / beta[i])
            except np.linalg.LinAlgError as exc:
                raise type(exc)(f"sweep {sweep}, mode pair {pairs[i]}: {exc}") from exc
            del z
            y = mode_k1k2_fold(shrunk, pairs[i], x.shape)
            y *= beta[i]
            np.subtract(y, w[i], out=w[i])
            num += w[i]
            del shrunk, y
        x_new = combine(num, sum(beta[i] for i in active))
        del num
        rel = _rel_change(x_new, x)
        for i in active:
            np.subtract(beta[i] * x_new, w[i], out=w[i])
            beta[i] = min(cfg.gamma * beta[i], PENALTY_MAX)
        x = x_new
        report.rel_change_trace.append(rel)
        if rel < cfg.rel_tol:
            report.converged = True
            break
    report.wall_time = time.perf_counter() - start
    return x, report


def lrtc_solve(
    f: np.ndarray, omega: np.ndarray, cfg: LrtcConfig
) -> tuple[np.ndarray, SolveReport]:
    """Complete a tensor from the entries marked True in ``omega``.

    The returned tensor matches ``f`` exactly on observed entries at every
    iterate; unobserved entries are filled by the penalty-weighted average
    of the per-pair thresholded estimates.
    """
    start = time.perf_counter()
    f = np.asarray(f, dtype=np.float64)
    omega = np.asarray(omega, dtype=bool)
    if omega.shape != f.shape:
        raise ValueError("mask shape does not match data shape")
    if not np.isfinite(f[omega]).all():
        raise ValueError("observed entries must be finite")
    cfg = cfg.validated(f.ndim)

    def combine(num, beta_sum):
        x = num / beta_sum
        x[omega] = f[omega]
        return x

    return _admm(np.where(omega, f, 0.0), cfg, combine, start)


def trpca_solve(
    x: np.ndarray, cfg: TrpcaConfig
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Split ``x`` into a low-WSTNN component and a sparse component.

    The split constraint x = low + sparse is enforced only in the limit; the
    report's ``constraint_residual`` is the final residual relative to ``x``.
    """
    start = time.perf_counter()
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("input tensor must be finite")
    cfg = cfg.validated(x.ndim)
    rho = cfg.rho
    sparse = np.zeros_like(x)
    mult = np.zeros_like(x)

    def combine(num, beta_sum):
        nonlocal rho, sparse, mult
        low = (rho * (x - sparse) + mult + num) / (rho + beta_sum)
        sparse = soft_threshold(x - low + mult / rho, cfg.lam / rho)
        mult = mult + rho * (x - low - sparse)
        rho = min(cfg.gamma * rho, PENALTY_MAX)
        return low

    low, report = _admm(np.zeros_like(x), cfg, combine, start)
    norm = frobenius_norm(x)
    report.constraint_residual = frobenius_norm(x - low - sparse) / norm if norm > 0 else 0.0
    return low, sparse, report
