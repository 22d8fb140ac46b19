"""N-way layer: N-tubal rank estimation, WSTNN, and weight selection.

The N-tubal rank of an N-way tensor is the vector of tubal ranks of its
N(N-1)/2 mode-pair unfoldings; WSTNN is the matching weighted sum of
tensor nuclear norms. Weight vectors are always indexed by mode pair in
lexicographic order (1,2), (1,3), ..., (N-1,N).
"""

from __future__ import annotations

import logging

import numpy as np

from .tensor_ops import _is_real, _nway_shape, _real_tensor, mode_k1k2_unfold, mode_pairs
from .tsvd import tnn, tubal_rank

__all__ = [
    "validate_weights",
    "estimate_n_tubal_rank",
    "wstnn",
    "weights_uniform",
    "weights_rank_aware",
    "weights_spectral",
]

logger = logging.getLogger(__name__)

WEIGHT_SUM_TOL = 1e-12


def validate_weights(alpha: np.ndarray, ndim: int) -> np.ndarray:
    """``alpha`` as float64, or a ValueError unless it holds one finite,
    nonnegative weight per mode pair of an order-``ndim`` tensor (its
    length is ``ndim (ndim - 1) / 2``) and the weights sum to 1."""
    alpha = np.asarray(alpha, dtype=np.float64)
    n_pairs = len(mode_pairs(ndim))
    if alpha.shape != (n_pairs,):
        raise ValueError(
            f"weight vector of length {alpha.size} does not match order {ndim} "
            f"(expected {n_pairs})"
        )
    if not (np.isfinite(alpha) & (alpha >= 0)).all():
        raise ValueError(f"weights must be finite and nonnegative, got {alpha.tolist()}")
    if abs(alpha.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1, got {alpha.sum()!r}")
    return alpha


def estimate_n_tubal_rank(x: np.ndarray, rel_threshold: float = 0.01) -> np.ndarray:
    """N-tubal rank: the :func:`~wstnn.tsvd.tubal_rank` of every mode-pair
    unfolding, at relative threshold ``rel_threshold``."""
    x = _real_tensor(x)
    _nway_shape(x.shape)
    return np.array(
        [tubal_rank(mode_k1k2_unfold(x, p), rel_threshold) for p in mode_pairs(x.ndim)],
        dtype=np.int64,
    )


def wstnn(x: np.ndarray, alpha: np.ndarray) -> float:
    """Weighted sum of the tnn of each mode-pair unfolding: the completion objective."""
    x = _real_tensor(x)
    alpha = validate_weights(alpha, len(_nway_shape(x.shape)))
    return float(
        sum(
            a * tnn(mode_k1k2_unfold(x, pair))
            for a, pair in zip(alpha, mode_pairs(x.ndim))
            if a > 0
        )
    )


def weights_uniform(ndim: int) -> np.ndarray:
    """Equal weight on every mode pair (for unknown rank structure)."""
    if ndim < 3:
        raise ValueError("weights require order >= 3")
    n_pairs = len(mode_pairs(ndim))
    return np.full(n_pairs, 1.0 / n_pairs)


def weights_rank_aware(
    shape: tuple[int, ...], rank: np.ndarray, eta: float = 1.0
) -> np.ndarray:
    """Softmax weights favouring pairs whose unfolding is relatively low rank.

    Uses the rank deficits r_hat = (min(n_k1, n_k2) - r) / min(n_k1, n_k2),
    normalized by their sum R, so a lower relative rank gets a larger
    weight. Deficits are floored at 0 for ranks exceeding the extent.
    """
    if not (_is_real(eta) and np.isfinite(eta)):
        raise ValueError(f"eta must be finite, got {eta!r}")
    shape = _nway_shape(shape)
    pairs = mode_pairs(len(shape))
    rank = np.asarray(rank, dtype=np.float64)
    if rank.shape != (len(pairs),):
        raise ValueError("rank vector length does not match tensor order")
    if not (np.isfinite(rank) & (rank >= 0)).all():
        raise ValueError(f"ranks must be finite and nonnegative, got {rank.tolist()}")
    mins = np.array([min(shape[k1 - 1], shape[k2 - 1]) for k1, k2 in pairs], float)
    deficits = np.maximum((mins - rank) / mins, 0.0)
    total = deficits.sum()
    if total == 0.0:
        logger.warning("all mode-pair ranks are full; falling back to uniform weights")
        return weights_uniform(len(shape))
    scores = np.exp(eta * deficits / total)
    return scores / scores.sum()


def weights_spectral(theta: float = 0.001) -> np.ndarray:
    """Three-way weights (theta, 1, 1)/(2 + theta) for data with one
    strongly correlated mode (e.g. a spectral axis)."""
    if not (_is_real(theta) and 0 <= theta < np.inf):
        raise ValueError(f"theta must be finite and nonnegative, got {theta!r}")
    return np.array([theta, 1.0, 1.0]) / (2.0 + theta)
