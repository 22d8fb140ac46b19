"""Synthetic low-rank tensors, corruption operators, and the phase sweep.

Test tensors are sums of r rank-one outer products of random factor
vectors, drawn uniformly on [-1, 1]. Zero-mean factors keep the Fourier
spectra of the unfoldings balanced (no dominant DC slice, so relative
singular-value thresholds estimate the rank reliably), and the resulting
data scale matches the reported per-pair thresholds for the synthetic
experiments. A draw is accepted only if each factor set is linearly
independent and, for every mode pair, the DFT of every collapsed
remaining-factor vector is nonzero everywhere; under these conditions
the N-tubal rank of the draw is exactly r on every pair. Violating draws
are regenerated with a fresh substream.

Every randomized operation takes an explicit seed; per-trial seeds in
the sweep are derived from (base seed, cell index, trial index), so the
sweep output is deterministic regardless of execution order.
"""

from __future__ import annotations

import ctypes
import logging
import os
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

from .ntubal import weights_uniform
from .solvers import (
    LrtcConfig,
    TrpcaConfig,
    default_lambda,
    lrtc_solve,
    trpca_solve,
)
from .tensor_ops import frobenius_norm, mode_pairs, vectorize
from .tsvd import NumericError

__all__ = [
    "CpSpec",
    "PhaseGrid",
    "gen_cp_tensor",
    "sample_mask",
    "add_salt_pepper",
    "rse",
    "phase_sweep",
    "default_completion_config",
    "default_rpca_config",
]

logger = logging.getLogger(__name__)

MAX_REGENERATIONS = 100
DFT_NONZERO_TOL = 1e-10


@dataclass
class CpSpec:
    shape: tuple[int, ...]
    cp_rank: int
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        self.shape = tuple(int(n) for n in self.shape)
        if len(self.shape) < 3:
            raise ValueError("synthetic tensors must have order >= 3")
        if not 1 <= self.cp_rank <= min(self.shape):
            raise ValueError(f"cp_rank {self.cp_rank} must lie in [1, min extent] "
                             f"for shape {self.shape}")


def _factors_admissible(factors: list[np.ndarray], shape: tuple[int, ...], r: int) -> bool:
    # condition 1: each stacked factor set has full column rank r
    if any(np.linalg.matrix_rank(a) < r for a in factors):
        return False
    # condition 2: for every mode pair, the DFT of each collapsed
    # remaining-factor vector has no (near-)zero coefficient
    ndim = len(shape)
    for k1, k2 in mode_pairs(ndim):
        rest = [m for m in range(1, ndim + 1) if m not in (k1, k2)]
        for i in range(r):
            outer = reduce(np.multiply.outer, (factors[m - 1][:, i] for m in rest))
            spectrum = np.fft.fft(vectorize(np.atleast_1d(outer)))
            if np.abs(spectrum).min() <= DFT_NONZERO_TOL:
                return False
    return True


def gen_cp_tensor(spec: CpSpec) -> np.ndarray:
    """Sum of ``cp_rank`` random rank-one terms with N-tubal rank exactly
    cp_rank on every mode pair (verified at construction, resampled on
    violation)."""
    rng = np.random.default_rng(spec.seed)
    for _ in range(MAX_REGENERATIONS):
        factors = [rng.uniform(-1.0, 1.0, (n, spec.cp_rank)) for n in spec.shape]
        if not _factors_admissible(factors, spec.shape, spec.cp_rank):
            continue
        x = np.zeros(spec.shape)
        for i in range(spec.cp_rank):
            x += reduce(np.multiply.outer, (a[:, i] for a in factors))
        return x
    raise RuntimeError(
        f"failed to draw an admissible rank-{spec.cp_rank} tensor "
        f"after {MAX_REGENERATIONS} attempts"
    )


def sample_mask(
    shape: tuple[int, ...], sr: float, seed: int | np.random.SeedSequence = 0
) -> np.ndarray:
    """Boolean mask with exactly round(sr * numel) True entries, drawn
    uniformly without replacement."""
    if not 0.0 < sr <= 1.0:
        raise ValueError("sampling rate must lie in (0, 1]")
    numel = int(np.prod(shape, dtype=np.int64))
    n_obs = int(round(sr * numel))
    rng = np.random.default_rng(seed)
    flat = np.zeros(numel, dtype=bool)
    flat[rng.choice(numel, size=n_obs, replace=False)] = True
    return flat.reshape(shape, order="F")


def add_salt_pepper(
    x: np.ndarray, nl: float, seed: int | np.random.SeedSequence = 0
) -> np.ndarray:
    """Replace a fraction ``nl`` of entries with the min or max value of
    ``x`` (equal probability each)."""
    if not 0.0 <= nl < 1.0:
        raise ValueError("noise level must lie in [0, 1)")
    x = np.asarray(x, dtype=np.float64)
    out = x.copy()
    if nl == 0.0:
        return out
    numel = x.size
    n_bad = int(round(nl * numel))
    rng = np.random.default_rng(seed)
    idx = rng.choice(numel, size=n_bad, replace=False)
    values = np.where(rng.random(n_bad) < 0.5, x.min(), x.max())
    flat = out.ravel(order="F")
    flat[idx] = values
    return flat.reshape(x.shape, order="F")


def rse(xhat: np.ndarray, x: np.ndarray) -> float:
    """Relative square error ||xhat - x||_F^2 / ||x||_F^2."""
    xhat, x = np.asarray(xhat), np.asarray(x)
    if xhat.shape != x.shape:
        raise ValueError("shape mismatch")
    denom = frobenius_norm(x)
    if denom == 0:
        raise ValueError("ground truth tensor is zero")
    return (frobenius_norm(xhat - x) / denom) ** 2


@dataclass
class PhaseGrid:
    """Sweep layout: ranks x corruption levels (SR for completion, NL for
    robust PCA), a number of independent trials per cell, and the RSE
    threshold defining success."""

    ranks: list[int] = field(default_factory=lambda: [1, 2, 5, 10, 20])
    levels: list[float] = field(default_factory=lambda: [0.05, 0.2, 0.5, 0.8])
    trials: int = 10
    success_threshold: float = 1e-3

    def __post_init__(self):
        if not self.ranks or not self.levels:
            raise ValueError("ranks and levels must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def default_completion_config(ndim: int) -> LrtcConfig:
    """Reported synthetic-experiment settings: uniform weights; tau = 10
    per pair for three-way data, 50 for higher orders."""
    return LrtcConfig(alpha=weights_uniform(ndim), tau=10.0 if ndim == 3 else 50.0)


def default_rpca_config(shape: tuple[int, ...]) -> TrpcaConfig:
    """The completion settings for ``len(shape)`` plus the size-based
    :func:`default_lambda`."""
    base = default_completion_config(len(shape))
    return TrpcaConfig(alpha=base.alpha, tau=base.tau, lam=default_lambda(shape, base.alpha))


def _trial_seed(base_seed: int, cell: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(cell, trial))


def _run_completion_trial(shape, rank, sr, seed, cfg_template, threshold) -> bool:
    gen_seed, mask_seed = seed.spawn(2)
    truth = gen_cp_tensor(CpSpec(shape, rank, gen_seed))
    mask = sample_mask(shape, sr, mask_seed)
    cfg = cfg_template or default_completion_config(len(shape))
    xhat, _ = lrtc_solve(np.where(mask, truth, 0.0), mask, cfg)
    return rse(xhat, truth) < threshold


def _run_rpca_trial(shape, rank, nl, seed, cfg_template, threshold) -> bool:
    gen_seed, noise_seed = seed.spawn(2)
    truth = gen_cp_tensor(CpSpec(shape, rank, gen_seed))
    noisy = add_salt_pepper(truth, nl, noise_seed)
    cfg = cfg_template or default_rpca_config(shape)
    low, _, _ = trpca_solve(noisy, cfg)
    return rse(low, truth) < threshold


def _run_trial(task, shape, rank, level, seed, cfg_template, threshold) -> bool:
    # looks the trial function up when it runs, in the worker, so a
    # replacement installed before the pool forked is the one called
    run = _run_completion_trial if task == "complete" else _run_rpca_trial
    return run(shape, rank, level, seed, cfg_template, threshold)


def _openblas_function(name: str):
    """``name`` (e.g. "set_num_threads") from the OpenBLAS bundled with
    numpy, under the first of its known export names, or None."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return fn
    return None


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def phase_sweep(
    grid: PhaseGrid,
    task: str,
    shape: tuple[int, ...],
    base_seed: int = 0,
    config_template: LrtcConfig | TrpcaConfig | None = None,
) -> list[dict]:
    """Success rate per (rank, level) cell over independent trials.

    ``task`` is "complete" (level = sampling rate) or "rpca" (level =
    salt-pepper noise level). Returns a list of row dicts with keys rank,
    level, trials, successes, errors, rate, one per cell in grid order
    (ranks outer, levels inner).

    Every (cell, trial) runs in a ``concurrent.futures.ProcessPoolExecutor``
    whose workers are forked from the calling process (the ``fork`` start
    method, so POSIX only), so they see the module state of the moment the
    sweep starts. Forking copies only the calling thread, so no other
    thread of the caller should hold a lock the trials need at that moment.
    The pool has one worker per CPU in the process's affinity mask, at most
    one per trial. Each worker pins the BLAS bundled with numpy to one
    thread, through the ``set_num_threads`` export of its OpenBLAS: two
    workers with a multi-threaded BLAS each oversubscribe the cores and run
    slower than one serial loop. Without such an export the pool has one
    worker.

    The rows do not depend on the worker count or on the order in which
    trials finish: each trial draws from its own seed, derived from
    (base seed, cell index, trial index), and the results are collected
    in submission order. A numeric breakdown in a trial
    (:class:`NumericError` or ``numpy.linalg.LinAlgError``) is logged on
    this module's logger, in the calling process and in trial order, and
    counts as an unsuccessful trial and in the cell's ``errors``. Any other
    exception is a programming error: the pending trials are cancelled and
    the exception propagates. A grid rank that :class:`CpSpec` rejects for
    ``shape`` raises ``ValueError`` before any trial runs.
    """
    if task not in ("complete", "rpca"):
        raise ValueError(f"unknown task {task!r}")
    for rank in grid.ranks:
        CpSpec(shape, rank)
    # imported here: every process that imports wstnn would pay their memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cells = [(rank, level) for rank in grid.ranks for level in grid.levels]
    set_threads = _openblas_function("set_num_threads")
    workers = 1
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        workers = min(_cpu_count(), len(cells) * grid.trials)
    successes = [0] * len(cells)
    errors = [0] * len(cells)
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=set_threads,
        initargs=(1,),
    ) as pool:
        try:
            futures = [
                (cell, trial, pool.submit(
                    _run_trial, task, shape, rank, level,
                    _trial_seed(base_seed, cell, trial), config_template,
                    grid.success_threshold,
                ))
                for cell, (rank, level) in enumerate(cells)
                for trial in range(grid.trials)
            ]
            for cell, trial, future in futures:
                try:
                    successes[cell] += bool(future.result())
                except (NumericError, np.linalg.LinAlgError):
                    rank, level = cells[cell]
                    logger.exception(
                        "trial failed (rank=%s, level=%s, trial=%s)", rank, level, trial
                    )
                    errors[cell] += 1
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [
        {
            "rank": rank,
            "level": level,
            "trials": grid.trials,
            "successes": successes[cell],
            "errors": errors[cell],
            "rate": successes[cell] / grid.trials,
        }
        for cell, (rank, level) in enumerate(cells)
    ]
