"""Dense N-way tensor layout primitives.

All tensors are float64 numpy arrays. The flat storage convention is
column-major (first index varies fastest), so ``vectorize`` is
``ravel(order="F")`` and the linear offset of element (i_1, ..., i_N)
(1-based) is j - 1 with

    j = i_1 + sum_{s>=2} (i_s - 1) * n_1 * ... * n_{s-1}.

Mode indices and mode pairs are 1-based throughout the public API.
Unfoldings are explicit permutation copies, never views.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

__all__ = [
    "vectorize",
    "mode_k_unfold",
    "mode_k_fold",
    "mode_pairs",
    "mode_k1k2_unfold",
    "mode_k1k2_fold",
    "frobenius_norm",
]


def _check_mode(k: int, ndim: int) -> None:
    if not 1 <= k <= ndim:
        raise ValueError(f"mode index {k} out of range for order-{ndim} tensor")


def _check_pair(pair: tuple[int, int], ndim: int) -> None:
    k1, k2 = pair
    if not (1 <= k1 < k2 <= ndim):
        raise ValueError(f"invalid mode pair {pair} for order-{ndim} tensor")


def vectorize(x: np.ndarray) -> np.ndarray:
    """Column-major flattening of an N-way tensor."""
    return np.asarray(x, dtype=np.float64).ravel(order="F")


def mode_k_unfold(x: np.ndarray, k: int) -> np.ndarray:
    """Mode-k matricization: n_k x prod_{s != k} n_s, remaining modes in
    ascending order, column-major."""
    x = np.asarray(x)
    _check_mode(k, x.ndim)
    return np.moveaxis(x, k - 1, 0).reshape(x.shape[k - 1], -1, order="F")


def mode_k_fold(m: np.ndarray, k: int, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`mode_k_unfold` for the given target shape."""
    shape = tuple(shape)
    _check_mode(k, len(shape))
    n_k = shape[k - 1]
    rest = tuple(n for i, n in enumerate(shape, start=1) if i != k)
    m = np.asarray(m)
    if m.shape != (n_k, int(np.prod(rest, dtype=np.int64))):
        raise ValueError(f"matrix shape {m.shape} inconsistent with shape {shape}, k={k}")
    return np.moveaxis(m.reshape((n_k,) + rest, order="F"), 0, k - 1)


def mode_pairs(ndim: int) -> list[tuple[int, int]]:
    """All mode pairs (k1, k2) with k1 < k2, in lexicographic order."""
    return list(combinations(range(1, ndim + 1), 2))


def mode_k1k2_unfold(x: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Three-way unfolding n_{k1} x n_{k2} x d, where d collects the
    remaining modes in ascending order, column-major. For N=3 this is a
    pure permutation of modes."""
    x = np.asarray(x)
    _check_pair(pair, x.ndim)
    k1, k2 = pair
    rest = [m for m in range(1, x.ndim + 1) if m not in (k1, k2)]
    perm = [k1 - 1, k2 - 1] + [m - 1 for m in rest]
    return np.transpose(x, perm).reshape(
        x.shape[k1 - 1], x.shape[k2 - 1], -1, order="F"
    )


def mode_k1k2_fold(
    y: np.ndarray, pair: tuple[int, int], shape: tuple[int, ...]
) -> np.ndarray:
    """Inverse of :func:`mode_k1k2_unfold` for the given target shape."""
    shape = tuple(shape)
    _check_pair(pair, len(shape))
    k1, k2 = pair
    rest = [m for m in range(1, len(shape) + 1) if m not in (k1, k2)]
    d = int(np.prod([shape[m - 1] for m in rest], dtype=np.int64))
    y = np.asarray(y)
    if y.shape != (shape[k1 - 1], shape[k2 - 1], d):
        raise ValueError(
            f"unfolding shape {y.shape} inconsistent with shape {shape}, pair {pair}"
        )
    permuted_shape = [shape[k1 - 1], shape[k2 - 1]] + [shape[m - 1] for m in rest]
    perm = [k1 - 1, k2 - 1] + [m - 1 for m in rest]
    inv = np.argsort(perm)
    return np.transpose(y.reshape(permuted_shape, order="F"), inv)


def frobenius_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x).ravel()))
