"""Dense N-way tensor layout primitives.

The flat storage convention is column-major (first index varies
fastest), so ``vectorize`` is ``ravel(order="F")`` and the linear offset
of element (i_1, ..., i_N) (1-based) is j - 1 with

    j = i_1 + sum_{s>=2} (i_s - 1) * n_1 * ... * n_{s-1}.

Mode indices and mode pairs are 1-based throughout the public API.
``_is_real`` and ``_is_int`` state the package's number rule: a setting
is a real number (an integer for a count, mode or extent), never a bool,
``_nway_shape`` the N-way shape rule: order >= 3, positive integer extents,
and ``_real_tensor`` the element rule: bool, integer or floating entries,
computed on in float64; a complex tensor is a ValueError. Every entry point
that takes a tensor applies it but ``tsvd.idft_tubes`` (a complex
spectrum) and the unfoldings, folds and ``frobenius_norm`` (dtype-keeping).

One layout rule gives every unfolding: the lead modes first, then the
remaining modes in ascending order, flattened column-major into one last
axis. ``vectorize`` has no lead mode, ``mode_k_unfold`` one and
``mode_k1k2_unfold`` two; each fold is its unfolding's inverse.
Unfoldings and folds are reshaped permutations, views of the input where
numpy can make one (every mode-pair unfolding and fold of a three-way
tensor is): callers must not write into one, but copy it first.
"""

from __future__ import annotations

import math
import numbers
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


def _is_real(value) -> bool:
    """A real number, not a ``bool`` (``numpy.bool_`` is no number at all)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """An integer, not a ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _nway_shape(shape) -> tuple[int, ...]:
    """``shape`` as ints; a ValueError unless order >= 3, extents positive integers."""
    shape = tuple(shape)
    if not all(map(_is_int, shape)):
        raise ValueError(f"extents must be integers, got {shape}")
    if len(shape) < 3:
        raise ValueError(f"an N-way tensor has order >= 3, got shape {shape}")
    if min(shape) < 1:
        raise ValueError(f"extents must be positive, got {shape}")
    return tuple(int(n) for n in shape)


def _real_tensor(x) -> np.ndarray:
    """``x`` as float64 under the element rule (a float64 array as is, no copy)."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"a tensor has bool, integer or floating entries, got dtype {x.dtype}")
    return x.astype(np.float64, copy=False)


def _axes(modes, ndim: int, lead: int) -> list[int]:
    """0-based axis order of an unfolding: the ``lead`` 1-based ``modes``,
    which must be integers increasing within 1..ndim, then the rest."""
    try:
        ks = [int(k) for k in modes if _is_int(k)]
        valid = (len(ks) == len(modes) == lead
                 and all(a < b for a, b in zip([0, *ks], [*ks, ndim + 1])))
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"invalid modes {modes!r} for an order-{ndim} tensor: "
                         f"expected {lead} of 1..{ndim} as increasing integers")
    return [k - 1 for k in ks] + [a for a in range(ndim) if a + 1 not in ks]


def _unfold(x: np.ndarray, modes, lead: int) -> np.ndarray:
    x = np.asarray(x)
    axes = _axes(modes, x.ndim, lead)
    extents = [x.shape[a] for a in axes]
    return np.transpose(x, axes).reshape(
        [*extents[:lead], math.prod(extents[lead:])], order="F"
    )


def _fold(y: np.ndarray, modes, lead: int, shape: tuple[int, ...]) -> np.ndarray:
    shape = tuple(shape)
    axes = _axes(modes, len(shape), lead)
    extents = [shape[a] for a in axes]
    y = np.asarray(y)
    if y.shape != (*extents[:lead], math.prod(extents[lead:])):
        raise ValueError(f"unfolding shape {y.shape} inconsistent with shape {shape}, "
                         f"modes {modes}")
    return np.transpose(y.reshape(extents, order="F"), np.argsort(axes))


def vectorize(x: np.ndarray) -> np.ndarray:
    """Column-major flattening of an N-way tensor, as float64; like
    ``ravel(order="F")``, a view only of a Fortran-contiguous input."""
    return _unfold(np.asfortranarray(_real_tensor(x)), (), 0)


def mode_k_unfold(x: np.ndarray, k: int) -> np.ndarray:
    """Mode-k matricization, n_k x prod_{s != k} n_s."""
    return _unfold(x, (k,), 1)


def mode_k_fold(m: np.ndarray, k: int, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`mode_k_unfold` for the given target shape."""
    return _fold(m, (k,), 1, shape)


def mode_pairs(ndim: int) -> list[tuple[int, int]]:
    """All mode pairs (k1, k2) with k1 < k2, in lexicographic order."""
    if not _is_int(ndim):
        raise ValueError(f"an order is an integer, got {ndim!r}")
    return list(combinations(range(1, ndim + 1), 2))


def mode_k1k2_unfold(x: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Three-way unfolding n_{k1} x n_{k2} x d. For N=3 this is a pure
    permutation of modes."""
    return _unfold(x, pair, 2)


def mode_k1k2_fold(
    y: np.ndarray, pair: tuple[int, int], shape: tuple[int, ...]
) -> np.ndarray:
    """Inverse of :func:`mode_k1k2_unfold` for the given target shape."""
    return _fold(y, pair, 2, shape)


def frobenius_norm(x: np.ndarray) -> float:
    """Frobenius norm. The plain sum of squares overflows once entries pass
    about 1e154; only then, for a finite input, is it recomputed as
    m * ||x / m|| with m = max |x|, so in-range results are unchanged."""
    v = np.asarray(x).ravel()
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
        if norm == np.inf and np.isfinite(v).all():
            m = np.abs(v).max()
            norm = float(m * np.linalg.norm(v / m))
    return norm
