"""Reference implementations the tests compare against.

The block-circulant oracle computes the t-product without any FFT. The
full-FFT references transform every tube with ``np.fft.fft`` and work on
all n3 Fourier slices, the textbook form of the half-spectrum code in
``wstnn.tsvd``. The serial phase sweep runs every trial in turn in the
calling process, the reference for the worker pool of
``wstnn.synth.phase_trials``.
"""

import numpy as np

from wstnn import synth


def bcirc(x: np.ndarray) -> np.ndarray:
    """Literal block-circulant matrix (n1*n3) x (n2*n3) of a three-way tensor."""
    n1, n2, n3 = x.shape
    out = np.empty((n1 * n3, n2 * n3))
    for i in range(n3):
        for j in range(n3):
            out[i * n1 : (i + 1) * n1, j * n2 : (j + 1) * n2] = x[:, :, (i - j) % n3]
    return out


def bcirc_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference t-product via explicit block-circulant multiplication.

    O(n3^2) storage, independent of the FFT path.
    """
    n1, _, n3 = x.shape
    n4 = y.shape[1]
    bvec = np.concatenate([y[:, :, i] for i in range(n3)], axis=0)
    flat = bcirc(x) @ bvec
    out = np.empty((n1, n4, n3))
    for i in range(n3):
        out[:, :, i] = flat[i * n1 : (i + 1) * n1, :]
    return out


def _full_spectrum(x: np.ndarray) -> np.ndarray:
    # (n1, n2, n3) -> (n3, n1, n2) stack of all Fourier slices
    return np.moveaxis(np.fft.fft(x, axis=2), 2, 0)


def _real_inverse(stack: np.ndarray) -> np.ndarray:
    return np.fft.ifft(np.moveaxis(stack, 0, 2), axis=2).real


def full_fourier_singular_values(x: np.ndarray) -> np.ndarray:
    """Singular values of each of the n3 Fourier slices, one SVD per slice."""
    return np.array([np.linalg.svd(s, compute_uv=False) for s in _full_spectrum(x)])


def full_t_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """t-product by slice-wise products of the full spectra."""
    return _real_inverse(_full_spectrum(x) @ _full_spectrum(y))


def full_t_svd_s(x: np.ndarray) -> np.ndarray:
    """The f-diagonal factor s of the t-SVD, from the singular values of
    all n3 slices (the factors u and v are not unique, s is)."""
    n1, n2, n3 = x.shape
    sv = full_fourier_singular_values(x)
    k = sv.shape[1]
    sf = np.zeros((n3, n1, n2))
    sf[:, range(k), range(k)] = sv
    return _real_inverse(sf)


def full_t_svt(z: np.ndarray, tau: float) -> np.ndarray:
    """t-SVT by one thin SVD per slice of the full spectrum, each slice's
    singular values shrunk by ``tau``."""
    slices = []
    for s in _full_spectrum(z):
        u, sig, vh = np.linalg.svd(s, full_matrices=False)
        slices.append((u * np.maximum(sig - tau, 0.0)) @ vh)
    return _real_inverse(np.array(slices))


def phase_trials_serial(grid, task, shape, base_seed=0, cfg=None):
    """``synth.phase_trials`` as one loop over cells and trials, with the
    same trial functions and per-trial seeds."""
    records = []
    cells = [(rank, level) for rank in grid.ranks for level in grid.levels]
    for cell, (rank, level) in enumerate(cells):
        for trial in range(grid.trials):
            seed = synth._trial_seed(base_seed, cell, trial)
            try:
                records.append(synth._run_trial(task, shape, rank, level, trial, seed, cfg))
            except np.linalg.LinAlgError:
                records.append(synth.TrialRecord(rank, level, trial, np.nan, 0, False, True))
    return records


def phase_sweep_serial(grid, task, shape, base_seed=0, cfg=None):
    """``synth.phase_sweep`` rows, counted from :func:`phase_trials_serial`."""
    return synth._rows(grid, phase_trials_serial(grid, task, shape, base_seed, cfg))
