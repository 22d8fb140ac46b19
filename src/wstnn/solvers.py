"""ADMM solvers for WSTNN-regularized completion and robust PCA.

Both solvers split the WSTNN term into one auxiliary variable per mode
pair, apply tensor singular value thresholding to each pair's unfolding,
and recombine with a closed-form quadratic update. Penalty parameters
grow geometrically each sweep, capped at a maximum; iteration stops when
the relative change of successive primary iterates drops below
``rel_tol`` or after ``p_max`` sweeps.

User-facing tuning is via the per-pair threshold vector tau; the penalty
vector is derived as beta = alpha / tau, so the t-SVT threshold for each
pair starts at exactly tau. Pairs with zero weight are skipped entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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


def _as_tau(tau, n_pairs: int) -> np.ndarray:
    tau = np.asarray(tau, dtype=np.float64)
    if tau.ndim == 0:
        tau = np.full(n_pairs, float(tau))
    if tau.shape != (n_pairs,):
        raise ValueError(f"tau must be a scalar or length-{n_pairs} vector")
    if (tau <= 0).any():
        raise ValueError("tau must be positive elementwise")
    return tau


@dataclass
class LrtcConfig:
    """Parameters for :func:`lrtc_solve`."""

    alpha: np.ndarray
    tau: np.ndarray | float
    gamma: float = 1.1
    beta_max: float = 1e10
    p_max: int = 500
    rel_tol: float = 1e-4

    def validated(self, ndim: int) -> "LrtcConfig":
        alpha = validate_weights(self.alpha, ndim)
        if not (alpha > 0).any():
            raise ValueError("at least one mode-pair weight must be positive")
        tau = _as_tau(self.tau, pair_count(ndim))
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if self.p_max < 1:
            raise ValueError("p_max must be at least 1")
        return LrtcConfig(alpha, tau, self.gamma, self.beta_max, self.p_max, self.rel_tol)


@dataclass
class TrpcaConfig:
    """Parameters for :func:`trpca_solve`.

    ``rho`` defaults to 1 / mean(tau) when left unset; ``lam`` weights the
    l1 term (see :func:`default_lambda` for the recommended value).
    """

    alpha: np.ndarray
    tau: np.ndarray | float
    lam: float
    rho: float | None = None
    gamma: float = 1.2
    beta_max: float = 1e10
    rho_max: float = 1e10
    p_max: int = 500
    rel_tol: float = 1e-4

    def validated(self, ndim: int) -> "TrpcaConfig":
        alpha = validate_weights(self.alpha, ndim)
        if not (alpha > 0).any():
            raise ValueError("at least one mode-pair weight must be positive")
        tau = _as_tau(self.tau, pair_count(ndim))
        rho = 1.0 / float(tau.mean()) if self.rho is None else float(self.rho)
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if rho <= 0:
            raise ValueError("rho must be positive")
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if self.p_max < 1:
            raise ValueError("p_max must be at least 1")
        return TrpcaConfig(
            alpha, tau, self.lam, rho, self.gamma,
            self.beta_max, self.rho_max, self.p_max, self.rel_tol,
        )


@dataclass
class SolveReport:
    iterations: int = 0
    final_rel_change: float = float("nan")
    rel_change_trace: list[float] = field(default_factory=list)
    wall_time: float = 0.0
    constraint_residual: float | None = None


def soft_threshold(x: np.ndarray, xi: float) -> np.ndarray:
    """Elementwise shrinkage sgn(x) * max(|x| - xi, 0)."""
    if xi < 0:
        raise ValueError("threshold xi must be nonnegative")
    return np.sign(x) * np.maximum(np.abs(x) - xi, 0.0)


def default_lambda(shape: tuple[int, ...], alpha: np.ndarray) -> float:
    """Recommended sparsity weight: sum over mode pairs of
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

    pairs = mode_pairs(f.ndim)
    active = [i for i, a in enumerate(cfg.alpha) if a > 0]
    beta = {i: cfg.alpha[i] / cfg.tau[i] for i in active}
    x = np.where(omega, f, 0.0)
    y = {i: np.zeros_like(x) for i in active}
    mult = {i: np.zeros_like(x) for i in active}

    report = SolveReport()
    for _ in range(cfg.p_max):
        for i in active:
            z = mode_k1k2_unfold(x + mult[i] / beta[i], pairs[i])
            y[i] = mode_k1k2_fold(
                t_svt(z, cfg.alpha[i] / beta[i]), pairs[i], f.shape
            )
        beta_sum = sum(beta[i] for i in active)
        x_new = sum(beta[i] * y[i] - mult[i] for i in active) / beta_sum
        x_new[omega] = f[omega]
        rel = _rel_change(x_new, x)
        for i in active:
            mult[i] = mult[i] + beta[i] * (x_new - y[i])
            beta[i] = min(cfg.gamma * beta[i], cfg.beta_max)
        x = x_new
        report.rel_change_trace.append(rel)
        if rel < cfg.rel_tol:
            break
    report.iterations = len(report.rel_change_trace)
    report.final_rel_change = report.rel_change_trace[-1]
    report.wall_time = time.perf_counter() - start
    return x, report


def trpca_solve(
    x: np.ndarray, cfg: TrpcaConfig
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Split ``x`` into a low-WSTNN component and a sparse component.

    The split constraint x = low + sparse is enforced only in the limit;
    the final relative residual is recorded in the report.
    """
    start = time.perf_counter()
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("input tensor must be finite")
    cfg = cfg.validated(x.ndim)

    pairs = mode_pairs(x.ndim)
    active = [i for i, a in enumerate(cfg.alpha) if a > 0]
    beta = {i: cfg.alpha[i] / cfg.tau[i] for i in active}
    rho = cfg.rho
    low = np.zeros_like(x)
    sparse = np.zeros_like(x)
    mult = np.zeros_like(x)
    z = {i: np.zeros_like(x) for i in active}
    p_mult = {i: np.zeros_like(x) for i in active}

    report = SolveReport()
    for _ in range(cfg.p_max):
        for i in active:
            w = mode_k1k2_unfold(low + p_mult[i] / beta[i], pairs[i])
            z[i] = mode_k1k2_fold(
                t_svt(w, cfg.alpha[i] / beta[i]), pairs[i], x.shape
            )
        beta_sum = sum(beta[i] for i in active)
        low_new = (
            rho * (x - sparse) + mult
            + sum(beta[i] * z[i] - p_mult[i] for i in active)
        ) / (rho + beta_sum)
        sparse = soft_threshold(x - low_new + mult / rho, cfg.lam / rho)
        rel = _rel_change(low_new, low)
        for i in active:
            p_mult[i] = p_mult[i] + beta[i] * (low_new - z[i])
            beta[i] = min(cfg.gamma * beta[i], cfg.beta_max)
        mult = mult + rho * (x - low_new - sparse)
        rho = min(cfg.gamma * rho, cfg.rho_max)
        low = low_new
        report.rel_change_trace.append(rel)
        if rel < cfg.rel_tol:
            break
    report.iterations = len(report.rel_change_trace)
    report.final_rel_change = report.rel_change_trace[-1]
    report.constraint_residual = frobenius_norm(x - low - sparse)
    report.wall_time = time.perf_counter() - start
    return low, sparse, report
