"""Three-way t-SVD algebra.

The t-product multiplies tensors like matrices whose scalars are tubes
(mode-3 fibers), with scalar multiplication replaced by circular
convolution. The DFT along tubes block-diagonalizes it, so every
operation here reduces to independent matrix operations on the Fourier
frontal slices.

DFT convention: unnormalized forward transform, 1/n_3 on the inverse.

Shape rule: every function that takes a tensor requires order 3 and at
least one frontal slice (n3 >= 1), and raises one ``ValueError`` naming
the shape otherwise. A zero n1 or n2 is a valid, empty t-SVD. All but
:func:`idft_tubes` (a complex spectrum) apply the package's element rule.

Half spectrum: the tubes of a real tensor have conjugate-symmetric
spectra, so Fourier slice ``n3 - i`` is the complex conjugate of slice
``i``. :func:`t_product`, :func:`t_svd` and :func:`fourier_singular_values`
(hence :func:`tnn` and :func:`tubal_rank`) take an
``rfft`` along tubes and work on the first ``n3 // 2 + 1`` slices only.
``fourier_singular_values`` still returns all ``n3`` rows: row ``i`` is a
copy of row ``min(i, n3 - i)``, since conjugate slices share their
singular values. The products and factors go back through ``irfft``,
which implies the mirrored slices and returns real output.

Numeric breakdowns raise ``numpy.linalg.LinAlgError``: numpy's own when
an SVD of the Fourier slices fails, and its subclass :class:`NumericError`
from two checks. The first runs before every batched SVD or Gram
eigendecomposition: a non-finite Fourier slice (a NaN or infinite entry,
or a tube DFT that overflowed a finite input) raises, since LAPACK may
return garbage on it or never return at all. The second is the
imaginary-residue guard. ``irfft`` silently drops the imaginary part of
the self-conjugate slices, DC and (for even ``n3``) Nyquist. Those two
slices must be real for real output, so their imaginary part is the
residue a full inverse DFT would show. A residue above
``IMAG_TOL * (1 + ||x||_F)`` is treated as an implementation bug and
raises instead of being silently discarded. The same guard checks the
largest imaginary part of the full inverse DFT in :func:`t_svt`.

:func:`t_svt`, the solvers' hot kernel, shrinks each Fourier slice
through the eigendecomposition of its Gram matrix instead of an SVD (its
docstring states the accuracy this costs). It transforms the full
spectrum (:func:`dft_tubes` / :func:`idft_tubes`) and shrinks it in
place, ``SVT_BLOCK`` slices at a time, in one function, ``_gram_shrink``:
the shrink's temporaries, not the transforms, set its working set. The
half spectrum would halve its work, but waits for the benchmark to stop
counting the outputs of the extra passes a faster solve fits into its
fixed run as peak memory (ROADMAP item 1).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tensor_ops import _is_int, _is_real, _real_tensor, frobenius_norm

__all__ = [
    "NumericError",
    "TSvdFactors",
    "dft_tubes",
    "idft_tubes",
    "identity_tensor",
    "conj_transpose",
    "t_product",
    "t_svd",
    "fourier_singular_values",
    "tubal_rank",
    "tnn",
    "t_svt",
]

IMAG_TOL = 1e-9

#: Fourier slices per batched Gram shrink in :func:`t_svt`
SVT_BLOCK = 16


class NumericError(np.linalg.LinAlgError):
    """The Fourier slices held a non-finite value before an SVD or an
    eigendecomposition, or an inverse DFT left an imaginary residue above
    the tolerance."""


class TSvdFactors(NamedTuple):
    u: np.ndarray  # n1 x n1 x n3, orthogonal under the t-product
    s: np.ndarray  # n1 x n2 x n3, f-diagonal
    v: np.ndarray  # n2 x n2 x n3, orthogonal under the t-product


def _require_3way(x: np.ndarray, real: bool = True) -> np.ndarray:
    """``x`` under the module's shape rule (order 3, n3 >= 1), and under the
    element rule unless it is a spectrum (``real`` False)."""
    x = _real_tensor(x) if real else np.asarray(x)
    if x.ndim != 3 or x.shape[2] < 1:
        raise ValueError(f"expected a three-way tensor with n3 >= 1, got shape {x.shape}")
    return x


def dft_tubes(x: np.ndarray) -> np.ndarray:
    """Unnormalized DFT of every tube x(i, j, :)."""
    return np.fft.fft(_require_3way(x), axis=2)


def idft_tubes(y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dft_tubes` (includes the 1/n_3 scaling); complex."""
    return np.fft.ifft(_require_3way(y, real=False), axis=2)


def _check_residue(resid: float, ref_norm: float) -> None:
    if resid > IMAG_TOL * (1.0 + ref_norm):
        raise NumericError(
            f"imaginary residue {resid:.3e} exceeds tolerance after inverse DFT"
        )


def identity_tensor(n: int, n3: int) -> np.ndarray:
    """First frontal slice is I_n, all other slices zero."""
    if not (_is_int(n) and _is_int(n3)) or n < 1 or n3 < 1:
        raise ValueError(f"identity tensor extents must be positive integers, got {n!r}, {n3!r}")
    out = np.zeros((n, n, n3))
    out[:, :, 0] = np.eye(n)
    return out


def conj_transpose(x: np.ndarray) -> np.ndarray:
    """Transpose every frontal slice, then reverse slices 2..n_3."""
    x = _require_3way(x)
    out = np.empty((x.shape[1], x.shape[0], x.shape[2]), dtype=x.dtype)
    out[:, :, 0] = x[:, :, 0].T
    out[:, :, 1:] = np.transpose(x[:, :, :0:-1], (1, 0, 2))
    return out


def _svd(stack: np.ndarray, **kwargs):
    """Batched ``np.linalg.svd`` of a Fourier slice stack, which must be finite."""
    if not np.isfinite(stack).all():
        raise NumericError("non-finite value in the Fourier slices before the SVD")
    return np.linalg.svd(stack, **kwargs)


def _gram_shrink(stack: np.ndarray, tau: float) -> np.ndarray:
    """Every slice ``a`` of ``stack`` with its singular values shrunk by
    ``tau``, as ``a W`` with ``W = V diag(max(1 - tau / sigma, 0)) V^H``
    and ``a^H a = V diag(sigma^2) V^H`` from ``eigh``; a non-finite entry
    raises :class:`NumericError` before ``eigh`` runs.

    A wide slice is transposed first: the transpose has the same singular
    values and shrinks to the transpose of the shrunk slice. Each slice is
    scaled by the power of two that brings its largest real or imaginary
    part into [1, 2), an exact scaling after which its Gram matrix neither
    overflows nor underflows. At ``tau = 0`` every factor is 1; a
    ``sigma <= tau`` gets an exact 0, without a division. At most three
    block-sized temporaries are alive at once, as many as an SVD's two
    factors and their product."""
    if stack.shape[1] < stack.shape[2]:
        return _gram_shrink(stack.swapaxes(1, 2), tau).swapaxes(1, 2)
    # ldexp scales the real and imaginary parts of a C-ordered copy (a
    # complex division by a subnormal scale would overflow in its
    # reciprocal, and the slices of a spectrum view are not BLAS-strided)
    a = np.array(stack, order="C")
    parts = a.view(np.float64)
    # max propagates a NaN and keeps an inf, so this is the finite check
    peak = np.abs(parts).max(axis=(1, 2))
    if not np.isfinite(peak).all():
        raise NumericError(
            "non-finite value in the Fourier slices before the eigendecomposition"
        )
    exp = np.frexp(peak)[1] - 1
    np.ldexp(parts, -exp[:, None, None], out=parts)
    lam, v = np.linalg.eigh(a.conj().swapaxes(1, 2) @ a)
    del a, parts
    factor = np.ones(lam.shape)
    if tau > 0:
        sig = np.sqrt(np.maximum(lam, 0.0))
        # t overflows only where tau dwarfs the slice, and inf zeroes it
        with np.errstate(over="ignore"):
            t = np.ldexp(tau, -exp)[:, None]
        keep = sig > t
        np.divide(t, sig, out=factor, where=keep)
        factor = np.where(keep, 1.0 - factor, 0.0)
    v_h = v.conj().swapaxes(1, 2)
    v *= factor[:, None, :]
    w = v @ v_h
    del v, v_h
    return stack @ w


def _rfft_slices(x: np.ndarray) -> np.ndarray:
    # (n1, n2, n3) real -> (n3 // 2 + 1, n1, n2) half-spectrum slice stack
    return np.moveaxis(np.fft.rfft(x, axis=2), 2, 0)


def _irfft_slices(stack: np.ndarray, n3: int, ref_norm: float) -> np.ndarray:
    """Inverse of :func:`_rfft_slices`: the real (n1, n2, n3) tensor whose
    half spectrum is ``stack``, after the residue guard on DC and Nyquist."""
    edge = np.abs(stack[0].imag)
    if n3 % 2 == 0:
        edge = edge + np.abs(stack[-1].imag)
    # what a full inverse DFT would leave in the imaginary part (1/n3 scaling)
    _check_residue(float(edge.max(initial=0.0)) / n3, ref_norm)
    return np.ascontiguousarray(np.fft.irfft(np.moveaxis(stack, 0, 2), n=n3, axis=2))


def t_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """t-product of x (n1 x n2 x n3) and y (n2 x n4 x n3)."""
    x, y = _require_3way(x), _require_3way(y)
    if x.shape[1] != y.shape[0] or x.shape[2] != y.shape[2]:
        raise ValueError(f"t-product dimension mismatch: {x.shape} * {y.shape}")
    prod = _rfft_slices(x) @ _rfft_slices(y)
    return _irfft_slices(prod, x.shape[2], frobenius_norm(x) * frobenius_norm(y))


def t_svd(x: np.ndarray) -> TSvdFactors:
    """Full t-SVD: x = u * s * conj_transpose(v).

    Computes a full SVD of the first ``n3 // 2 + 1`` Fourier frontal
    slices (the half spectrum of the real input) in one batch and
    transforms the stacked factors back with ``irfft``, which fills the
    remaining slices as conjugate mirrors. The DC and Nyquist factor
    slices pass the imaginary-residue guard of the module docstring.
    """
    x = _require_3way(x)
    n1, n2, n3 = x.shape
    u, sig, vh = _svd(_rfft_slices(x), full_matrices=True)
    k = sig.shape[1]
    sf = np.zeros((sig.shape[0], n1, n2))
    sf[:, range(k), range(k)] = sig
    ref = frobenius_norm(x)
    return TSvdFactors(
        u=_irfft_slices(u, n3, ref),
        s=_irfft_slices(sf, n3, ref),
        v=_irfft_slices(vh.conj().swapaxes(1, 2), n3, ref),
    )


def fourier_singular_values(x: np.ndarray) -> np.ndarray:
    """Singular values of every Fourier frontal slice, shape (n3, min(n1, n2)).

    Only the half spectrum is decomposed; row ``i`` is mirrored from row
    ``min(i, n3 - i)``.
    """
    x = _require_3way(x)
    half = _svd(_rfft_slices(x), compute_uv=False)
    i = np.arange(x.shape[2])
    return half[np.minimum(i, x.shape[2] - i)]


def tubal_rank(x: np.ndarray, rel_threshold: float | None = None) -> int:
    """Largest number of Fourier singular values of one frontal slice that
    exceed ``rel_threshold`` (in (0, 1)) times the largest singular value
    across all slices.

    The default, ``max(shape) * eps``, is float64's rounding, whatever type
    the data arrived in, so the rounding of float32 or uint8 data counts as
    rank: a float32 cast of ``gen_cp_tensor(CpSpec((20,) * 3, 2, 0))`` reads
    20, not 2. For such data pass a ``rel_threshold`` above its rounding,
    or use :func:`~wstnn.ntubal.estimate_n_tubal_rank` (default 0.01)."""
    x = _require_3way(x)
    if rel_threshold is None:
        rel_threshold = max(x.shape) * np.finfo(np.float64).eps
    if not (_is_real(rel_threshold) and 0.0 < rel_threshold < 1.0):
        raise ValueError("rel_threshold must lie in (0, 1)")
    sv = fourier_singular_values(x)
    cutoff = rel_threshold * float(sv.max(initial=0.0))
    return int((sv > cutoff).sum(axis=1).max(initial=0))


def tnn(x: np.ndarray) -> float:
    """Lu et al.'s tensor nuclear norm: the mean nuclear norm of the Fourier slices."""
    return float(fourier_singular_values(x).sum(axis=1).mean())


def t_svt(z: np.ndarray, tau: float) -> np.ndarray:
    """Tensor singular value thresholding, the prox of ``tau * tnn``.

    Shrinks the singular values of every Fourier slice by ``tau`` and
    transforms back. The shrink goes through the eigendecomposition of each
    slice's smaller Gram matrix, which is cheaper than an SVD. Squaring a
    slice costs accuracy where a kept singular value lies far below the
    largest: against the SVD, the result's error relative to its norm is at
    most ``min(eps * sigma_max / tau, sqrt(eps))`` (``eps`` the float64
    machine epsilon, ``sigma_max`` the largest Fourier singular value), so
    1e-12 or better for ``tau >= 1e-3 * sigma_max``. At ``tau = 0`` the
    result is ``z`` to rounding. An empty ``z`` (n1 or n2 zero) gives zeros.

    One function, ``_gram_shrink``, shrinks ``SVT_BLOCK`` slices at a time,
    and each shrunk block is written back into the one spectrum buffer.
    Each slice goes through the same eigendecomposition and products as in
    one whole-spectrum batch, so the blocks bound the working set to the
    spectrum and one block's temporaries without changing a bit of the
    result. The inverse DFT runs in one call and needs no blocks: the
    spectrum and its inverse hold no more than the forward ``fft``, which
    converts the real input to a complex copy beside the spectrum, and the
    spectrum is dropped before the real part is copied out."""
    if not (_is_real(tau) and tau >= 0):
        raise ValueError("threshold tau must be nonnegative")
    z = _require_3way(z)
    if z.size == 0:
        return np.zeros(z.shape)
    ref_norm = frobenius_norm(z)
    spectrum = dft_tubes(z)
    stack = np.moveaxis(spectrum, 2, 0)
    for b in range(0, z.shape[2], SVT_BLOCK):
        stack[b : b + SVT_BLOCK] = _gram_shrink(stack[b : b + SVT_BLOCK], tau)
    y = idft_tubes(spectrum)
    del spectrum, stack
    _check_residue(float(np.abs(y.imag).max(initial=0.0)), ref_norm)
    return np.ascontiguousarray(y.real)
