"""ADMM solvers for WSTNN-regularized completion and robust PCA.

Both solvers run one sweep core, ``_admm``, with one penalty rho. Pair
i's penalty is alpha_i * rho, so every pair's t-SVT threshold is the
same 1 / rho. Each sweep thresholds every pair's unfolding of the
current iterate, hands the sum of the pair terms to the solver's own
``combine`` step (completion re-imposes the observed entries; robust
PCA adds its l1 block, whose penalty is rho itself), then updates the
pair multipliers. rho grows by the solver's constant ``gamma`` each
sweep (1.1 for completion, 1.2 for robust PCA), capped at
``PENALTY_MAX``. Iteration stops when both the relative change of
successive primary iterates and the solver's constraint gap (robust
PCA's ||x - low - sparse|| / ||x||; 0 for completion, whose iterates
keep the observed entries exactly) drop below ``rel_tol`` (the report
reads ``converged``), or after ``p_max`` sweeps.

User-facing tuning is via tau. The configs resolve every default
(``validated(shape)``) and own the starting penalty ``rho`` = 1 / tau,
so every t-SVT threshold starts at tau. The default tau of 10 suits
unit-scale data such as :func:`wstnn.synth.gen_cp_tensor` draws; it
must scale with the data. Pairs with zero weight are skipped entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .ntubal import validate_weights, weights_uniform
from .tensor_ops import (_is_int, _is_real, _nway_shape, _real_tensor, frobenius_norm,
                         mode_k1k2_fold, mode_k1k2_unfold, mode_pairs)
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

#: cap on the ADMM penalty rho, so pair i's penalty stops at alpha_i * PENALTY_MAX
PENALTY_MAX = 1e10


@dataclass(kw_only=True)
class _SolverConfig:
    """The settings both solvers share; :meth:`validated` resolves them."""

    alpha: np.ndarray | None = None
    tau: float = 10.0
    p_max: int = 500
    rel_tol: float = 1e-4

    @property
    def rho(self) -> float:
        """Starting penalty, 1 / tau; pair i's is alpha_i * rho, so every
        t-SVT threshold starts at tau."""
        return 1.0 / self.tau

    def _resolve(self, shape) -> dict:
        return {}

    def validated(self, shape: tuple[int, ...]):
        """Copy resolved for data of this ``shape``: ``alpha=None`` is
        uniform weights. A ``shape`` off the N-way shape rule, a setting
        that is not a number (a ``bool`` or a string included) or is out of
        range (tau must be one positive, finite real number), or a starting
        penalty of an active pair or block that is not a positive normal
        float, is a ``ValueError``."""
        shape = _nway_shape(shape)
        ndim = len(shape)
        alpha = weights_uniform(ndim) if self.alpha is None else validate_weights(self.alpha, ndim)
        if not (_is_real(self.tau) and 0 < self.tau < np.inf):
            raise ValueError(f"tau must be one positive finite number, got {self.tau!r}")
        if not (_is_int(self.p_max) and self.p_max >= 1):
            raise ValueError(f"p_max must be an integer >= 1, got {self.p_max!r}")
        if not (_is_real(self.rel_tol) and np.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be one finite number, got {self.rel_tol!r}")
        cfg = replace(self, alpha=alpha, tau=float(self.tau))
        # _resolve fills the subclass's own None settings on the copy and
        # names its starting penalties besides rho and the pairs'
        with np.errstate(all="ignore"):
            penalties = {"rho = 1 / tau": cfg.rho,
                         "beta = alpha / tau": alpha[alpha > 0] * cfg.rho,
                         **cfg._resolve(shape)}
        for name, value in penalties.items():
            if not np.all((value >= np.finfo(np.float64).tiny) & (value < np.inf)):
                raise ValueError(f"{name} must be a positive normal float, got {value}")
        return cfg


@dataclass(kw_only=True)
class LrtcConfig(_SolverConfig):
    """Parameters for :func:`lrtc_solve`."""

    gamma: ClassVar[float] = 1.1


@dataclass(kw_only=True)
class TrpcaConfig(_SolverConfig):
    """Parameters for :func:`trpca_solve`; ``lam`` weights the l1 term, and
    ``None`` resolves to :func:`default_lambda`."""

    lam: float | None = None
    gamma: ClassVar[float] = 1.2

    def _resolve(self, shape) -> dict:
        if self.lam is None:
            self.lam = default_lambda(shape, self.alpha)
        if not _is_real(self.lam):
            raise ValueError(f"lam must be a number or None, got {self.lam!r}")
        return {"lam / rho": self.lam / self.rho}


@dataclass
class SolveReport:
    rel_change_trace: list[float] = field(default_factory=list)
    #: seconds the solve took; not compared, so equal solves give equal reports
    wall_time: float = field(default=0.0, compare=False)
    #: robust PCA's final ||x - low - sparse|| / ||x|| (0.0 at x = 0); None for completion
    constraint_residual: float | None = None
    #: True when the relative change and the constraint gap (robust PCA's
    #: constraint residual; 0 for completion) both fell below rel_tol,
    #: False when the solve ran out of p_max sweeps first
    converged: bool = False

    # the sweep count and the last change, read from the trace; a report
    # with no sweeps (a breakdown trial's) has no last change and reads NaN
    @property
    def iterations(self) -> int:
        return len(self.rel_change_trace)

    @property
    def final_rel_change(self) -> float:
        return self.rel_change_trace[-1] if self.rel_change_trace else float("nan")


def soft_threshold(x: np.ndarray, xi: float) -> np.ndarray:
    """Elementwise shrinkage sgn(x) * max(|x| - xi, 0)."""
    if not (_is_real(xi) and xi >= 0):
        raise ValueError("threshold xi must be nonnegative")
    return np.sign(x) * np.maximum(np.abs(x) - xi, 0.0)


def default_lambda(shape: tuple[int, ...], alpha: np.ndarray) -> float:
    """Recommended weight ``lam`` of :func:`trpca_solve`'s objective
    ``ntubal.wstnn(low, alpha) + lam * ||sparse||_1``: sum over mode pairs of
    alpha / sqrt(max(n_k1, n_k2) * d), d the product of remaining extents."""
    shape = _nway_shape(shape)
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
    config. ``combine(num, rho, beta_sum)`` returns the next primary
    iterate, from num = sum_i (beta_i y_i - mult_i) over the active pairs
    i, the sweep's penalty rho and beta_sum = sum_i beta_i, together with
    the solver's relative constraint gap at that iterate; the solve stops
    once the relative change and the gap are both below ``rel_tol``.
    ``start`` is the solve's start time. A ``LinAlgError`` from a pair's
    t-SVT is raised again as the same type, naming the sweep and the mode
    pair.

    Pair i's penalty is beta_i = alpha_i rho, so its t-SVT threshold
    alpha_i / beta_i is 1 / rho. Each active pair keeps one buffer w_i
    (the scaled-multiplier bookkeeping of Boyd et al. 2011, section
    3.1.1). Between sweeps it holds mult_i. Once the sweep has the pair's
    estimate y_i, w_i becomes beta_i y_i - mult_i, the pair's term of num,
    and y_i is dropped. After ``combine``, w_i becomes the next multiplier
    mult_i + beta_i (x_new - y_i) = beta_i x_new - w_i, before rho grows."""
    # (mode pair, weight, buffer) of every active pair
    pairs = [(pair, a, np.zeros_like(x0))
             for pair, a in zip(mode_pairs(x0.ndim), cfg.alpha) if a > 0]
    weight_sum = sum(a for _, a, _ in pairs)
    rho = cfg.rho
    # the dels free each array as soon as it is spent, so the first
    # iterate, a pair's unfolding and its t-SVT output never outlive
    # their step into the next pair's t-SVT
    x = x0
    del x0

    report = SolveReport()
    for sweep in range(1, cfg.p_max + 1):
        num = np.zeros_like(x)
        for pair, a, w in pairs:
            z = mode_k1k2_unfold(x + w / (a * rho), pair)
            try:
                shrunk = t_svt(z, 1 / rho)
            except np.linalg.LinAlgError as exc:
                raise type(exc)(f"sweep {sweep}, mode pair {pair}: {exc}") from exc
            del z
            y = mode_k1k2_fold(shrunk, pair, x.shape)
            y *= a * rho
            np.subtract(y, w, out=w)
            num += w
            del shrunk, y
        x_new, gap = combine(num, rho, rho * weight_sum)
        del num
        rel = _rel_change(x_new, x)
        for _, a, w in pairs:
            np.subtract(a * rho * x_new, w, out=w)
        rho = min(cfg.gamma * rho, PENALTY_MAX)
        x = x_new
        report.rel_change_trace.append(rel)
        if rel < cfg.rel_tol and gap < cfg.rel_tol:
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
    f = _real_tensor(f)
    omega = np.asarray(omega, dtype=bool)
    if omega.shape != f.shape:
        raise ValueError("mask shape does not match data shape")
    if not np.isfinite(f[omega]).all():
        raise ValueError("observed entries must be finite")
    cfg = cfg.validated(f.shape)

    def combine(num, rho, beta_sum):
        x = num / beta_sum
        x[omega] = f[omega]
        return x, 0.0

    return _admm(np.where(omega, f, 0.0), cfg, combine, start)


def trpca_solve(
    x: np.ndarray, cfg: TrpcaConfig
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Split ``x`` into a low-WSTNN component and a sparse component.

    The split constraint x = low + sparse is enforced only in the limit; the
    report's ``constraint_residual`` is the last sweep's residual relative to
    ``x``, and the solve reads ``converged`` only once it is below ``rel_tol``.
    """
    start = time.perf_counter()
    x = _real_tensor(x)
    if not np.isfinite(x).all():
        raise ValueError("input tensor must be finite")
    cfg = cfg.validated(x.shape)
    norm = frobenius_norm(x)
    sparse = np.zeros_like(x)
    mult = np.zeros_like(x)
    gap = 0.0

    def combine(num, rho, beta_sum):
        nonlocal sparse, mult, gap
        low = (rho * (x - sparse) + mult + num) / (rho + beta_sum)
        sparse = soft_threshold(x - low + mult / rho, cfg.lam / rho)
        resid = x - low - sparse
        gap = frobenius_norm(resid) / norm if norm > 0 else 0.0
        mult = mult + rho * resid
        return low, gap

    low, report = _admm(np.zeros_like(x), cfg, combine, start)
    report.constraint_residual = gap
    return low, sparse, report
