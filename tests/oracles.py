"""Reference implementations the tests compare against.

The block-circulant oracle computes the t-product without any FFT. The
full-FFT references transform every tube with ``np.fft.fft`` and work on
all n3 Fourier slices, the textbook form of the half-spectrum code in
``wstnn.tsvd``. ``batched_t_svt`` is ``wstnn.tsvd.t_svt`` with one batched
SVD of the whole spectrum in place of its blockwise Gram shrink, and
``two_buffer_admm`` the ADMM loop that keeps every pair's auxiliary
variable and multiplier apart, the reference for the one-buffer
``wstnn.solvers._admm``. The serial phase sweep runs every
trial in turn in the calling process, the reference for the worker pool
of ``wstnn.synth.phase_trials``, and ``factors_admissible_loop`` checks a
draw one rank-one term at a time, the reference for the one DFT per mode
pair of ``wstnn.synth._factors_admissible``.

The shared test helpers live here too: ``random_tensor`` draws a
standard normal tensor, ``brute_force_j`` is the per-index loop oracle of
the column-major flat index, ``traced_peak`` measures the peak bytes a
call allocates, and ``small_shapes`` draws small three-way shapes.
"""

import time
import tracemalloc
from functools import reduce

import numpy as np
from hypothesis import strategies as st

from wstnn import synth
from wstnn.solvers import PENALTY_MAX, LrtcConfig, SolveReport, TrpcaConfig, _rel_change
from wstnn.tensor_ops import (
    mode_k1k2_fold,
    mode_k1k2_unfold,
    mode_pairs,
    vectorize,
)
from wstnn.tsvd import t_svt


def random_tensor(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def brute_force_j(indices, shape, skip):
    """0-based flat index over the modes not in ``skip`` (1-based mode ids),
    first surviving mode fastest."""
    j = 0
    stride = 1
    for mode, (i, n) in enumerate(zip(indices, shape), start=1):
        if mode in skip:
            continue
        j += i * stride
        stride *= n
    return j


def traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


small_shapes = st.tuples(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)
)


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


def batched_t_svt(z: np.ndarray, tau: float) -> np.ndarray:
    """t-SVT with every Fourier slice in one batched SVD and one complex
    inverse DFT of the whole spectrum."""
    u, sig, vh = np.linalg.svd(_full_spectrum(z), full_matrices=False)
    return _real_inverse((u * np.maximum(sig - tau, 0.0)[:, None, :]) @ vh)


def two_buffer_admm(x0, cfg, combine, start):
    """``wstnn.solvers._admm`` with an auxiliary variable y_i and a
    multiplier mult_i kept apart for every active pair."""
    pairs = mode_pairs(x0.ndim)
    active = [i for i, a in enumerate(cfg.alpha) if a > 0]
    rho = cfg.rho
    x = x0
    y = {}
    mult = {i: np.zeros_like(x) for i in active}

    report = SolveReport()
    for sweep in range(1, cfg.p_max + 1):
        beta = {i: cfg.alpha[i] * rho for i in active}
        for i in active:
            z = mode_k1k2_unfold(x + mult[i] / beta[i], pairs[i])
            try:
                shrunk = t_svt(z, 1 / rho)
            except np.linalg.LinAlgError as exc:
                raise type(exc)(f"sweep {sweep}, mode pair {pairs[i]}: {exc}") from exc
            y[i] = mode_k1k2_fold(shrunk, pairs[i], x.shape)
        num = sum(beta[i] * y[i] - mult[i] for i in active)
        x_new, gap = combine(num, rho, rho * sum(cfg.alpha[i] for i in active))
        rel = _rel_change(x_new, x)
        for i in active:
            mult[i] = mult[i] + beta[i] * (x_new - y[i])
        rho = min(cfg.gamma * rho, PENALTY_MAX)
        x = x_new
        report.rel_change_trace.append(rel)
        if rel < cfg.rel_tol and gap < cfg.rel_tol:
            report.converged = True
            break
    report.wall_time = time.perf_counter() - start
    return x, report


def phase_trials_serial(grid, task, shape, base_seed=0, cfg=None):
    """``synth.phase_trials`` as one loop over cells and trials, with the
    same trial function, per-trial seeds and default config."""
    if cfg is None:
        cfg = LrtcConfig() if task == "complete" else TrpcaConfig()
    records = []
    cells = [(rank, level) for rank in grid.ranks for level in grid.levels]
    for cell, (rank, level) in enumerate(cells):
        for trial in range(grid.trials):
            seed = synth._trial_seed(base_seed, cell, trial)
            try:
                records.append(synth._run_trial(task, shape, rank, level, trial, seed, cfg))
            except np.linalg.LinAlgError:
                records.append(synth.TrialRecord(rank, level, trial, np.nan, SolveReport(), True))
    return records


def phase_sweep_serial(grid, task, shape, base_seed=0, cfg=None):
    """``synth.phase_sweep`` rows, counted from :func:`phase_trials_serial`."""
    return synth._rows(grid, phase_trials_serial(grid, task, shape, base_seed, cfg))


def factors_admissible_loop(factors, shape, r):
    """``synth._factors_admissible`` with one outer product, one
    vectorization and one DFT per rank-one term and mode pair."""
    if any(np.linalg.matrix_rank(a) < r for a in factors):
        return False
    ndim = len(shape)
    for k1, k2 in mode_pairs(ndim):
        rest = [m for m in range(1, ndim + 1) if m not in (k1, k2)]
        for i in range(r):
            outer = reduce(np.multiply.outer, (factors[m - 1][:, i] for m in rest))
            spectrum = np.fft.fft(vectorize(np.atleast_1d(outer)))
            if np.abs(spectrum).min() <= synth.DFT_NONZERO_TOL:
                return False
    return True
