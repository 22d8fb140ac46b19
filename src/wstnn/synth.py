"""Synthetic low-rank tensors, corruption operators, and the phase sweep.

Test tensors are sums of r rank-one outer products of random factor
vectors, drawn uniformly on [-1, 1]. Zero-mean factors keep the Fourier
spectra of the unfoldings balanced (no dominant DC slice, so relative
singular-value thresholds estimate the rank reliably), and the entries
are of order one, the scale that the solver configs' default tau fits.
A draw is accepted only if each factor set is linearly
independent and, for every mode pair, the DFT of every collapsed
remaining-factor vector is nonzero everywhere; under these conditions
the N-tubal rank of the draw is exactly r on every pair. Violating draws
are regenerated with a fresh substream.

Every randomized operation takes an explicit seed; per-trial seeds in
the sweep are derived from (base seed, cell index, trial index), so the
sweep output is deterministic regardless of execution order. Each trial
gives one record (:func:`phase_trials`), and :func:`phase_sweep` counts
successes per cell from the records. A bad sweep setting is a
``ValueError`` before any trial runs, never a failed trial.
"""

from __future__ import annotations

import ctypes
import logging
import os
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

from .solvers import LrtcConfig, SolveReport, TrpcaConfig, lrtc_solve, trpca_solve
from .tensor_ops import _is_int, _is_real, _nway_shape, _real_tensor, frobenius_norm, mode_pairs

__all__ = [
    "CpSpec",
    "PhaseGrid",
    "TrialRecord",
    "gen_cp_tensor",
    "sample_mask",
    "add_salt_pepper",
    "rse",
    "phase_trials",
    "phase_sweep",
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
        self.shape = _nway_shape(self.shape)
        if not _is_int(self.cp_rank):
            raise ValueError(f"cp_rank must be an integer, got {self.cp_rank!r}")
        if not 1 <= self.cp_rank <= min(self.shape):
            raise ValueError(f"cp_rank {self.cp_rank} must lie in [1, min extent] "
                             f"for shape {self.shape}")


def _factors_admissible(factors: list[np.ndarray], shape: tuple[int, ...], r: int) -> bool:
    # condition 1: each stacked factor set has full column rank r
    if any(np.linalg.matrix_rank(a) < r for a in factors):
        return False
    # condition 2: for every mode pair, the DFT of each collapsed
    # remaining-factor vector has no (near-)zero coefficient. Row i of the
    # (transposed) Khatri-Rao product of the remaining factors is term i's
    # vector: the column-major vectorized outer product of its factors
    ndim = len(shape)
    for k1, k2 in mode_pairs(ndim):
        rest = [factors[m - 1].T for m in range(1, ndim + 1) if m not in (k1, k2)]
        rows = rest[0]
        for a in rest[1:]:
            rows = (a[:, :, None] * rows[:, None, :]).reshape(r, -1)
        if np.abs(np.fft.fft(rows, axis=1)).min() <= DFT_NONZERO_TOL:
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


def _check_sampling_rate(sr: float) -> None:
    if not (_is_real(sr) and 0.0 < sr <= 1.0):
        raise ValueError(f"sampling rate must lie in (0, 1], got {sr!r}")


def _check_noise_level(nl: float) -> None:
    if not (_is_real(nl) and 0.0 <= nl < 1.0):
        raise ValueError(f"noise level must lie in [0, 1), got {nl!r}")


def sample_mask(
    shape: tuple[int, ...], sr: float, seed: int | np.random.SeedSequence = 0
) -> np.ndarray:
    """Boolean mask with exactly round(sr * numel) True entries, drawn
    uniformly without replacement."""
    _check_sampling_rate(sr)
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
    _check_noise_level(nl)
    x = _real_tensor(x)
    numel = x.size
    n_bad = int(round(nl * numel))
    if n_bad == 0:
        return x.copy()
    rng = np.random.default_rng(seed)
    idx = rng.choice(numel, size=n_bad, replace=False)
    values = np.where(rng.random(n_bad) < 0.5, x.min(), x.max())
    flat = x.flatten(order="F")
    flat[idx] = values
    return flat.reshape(x.shape, order="F")


def rse(xhat: np.ndarray, x: np.ndarray) -> float:
    """Relative square error ||xhat - x||_F^2 / ||x||_F^2."""
    xhat, x = _real_tensor(xhat), _real_tensor(x)
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
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (_is_real(self.success_threshold) and 0.0 < self.success_threshold < np.inf):
            raise ValueError("success_threshold must be positive and finite")


def _trial_seed(base_seed: int, cell: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(cell, trial))


@dataclass(frozen=True)
class TrialRecord:
    """One sweep trial and its solve's own :class:`~wstnn.solvers.SolveReport`.
    A numeric breakdown reads ``error``, RSE NaN and an empty report."""

    rank: int
    level: float
    trial: int
    rse: float
    report: SolveReport
    error: bool = False


def _run_trial(task, shape, rank, level, trial, seed, cfg) -> TrialRecord:
    # every call goes through this module's globals, looked up when the
    # trial runs in the worker, so a replacement installed before the pool
    # forked (a test's fake, the benchmark's tracer) is the one called
    gen_seed, corrupt_seed = seed.spawn(2)
    truth = gen_cp_tensor(CpSpec(shape, rank, gen_seed))
    if task == "complete":
        mask = sample_mask(shape, level, corrupt_seed)
        estimate, report = lrtc_solve(truth, mask, cfg)
    else:
        estimate, _, report = trpca_solve(add_salt_pepper(truth, level, corrupt_seed), cfg)
    return TrialRecord(rank, level, trial, rse(estimate, truth), report)


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


def phase_trials(grid: PhaseGrid, task: str, shape: tuple[int, ...], base_seed: int = 0,
                 config_template: LrtcConfig | TrpcaConfig | None = None) -> list[TrialRecord]:
    """One :class:`TrialRecord` per (cell, trial) of the grid, in grid order
    (ranks outer, levels inner, trials innermost). ``task`` is "complete"
    (level = sampling rate) or "rpca" (level = salt-pepper noise level).

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

    The records do not depend on the worker count or on the order in which
    trials finish: each trial draws from its own seed, derived from
    (base seed, cell index, trial index), and the results are collected
    in submission order. A numeric breakdown in a trial (a
    ``numpy.linalg.LinAlgError``; :class:`~wstnn.tsvd.NumericError` is one)
    is logged on this module's logger, in the calling process and in trial
    order, and gives an ``error`` record with an empty report. Any other
    exception is a programming error: the pending trials are cancelled and
    the exception propagates. A bad setting raises ``ValueError`` before any
    trial runs: a ``base_seed`` that is not a nonnegative integer, a shape,
    grid rank or level that the task's generator or corruption operator
    rejects, or a config template of the wrong class or that fails its
    ``validated(shape)``. With no template, trials run the config's defaults.
    Every trial runs the copy that ``validated(shape)`` resolved, so no
    trial resolves a default of its own.
    """
    if task not in ("complete", "rpca"):
        raise ValueError(f"unknown task {task!r}")
    if not (_is_int(base_seed) and base_seed >= 0):
        raise ValueError(f"base_seed must be a nonnegative integer, got {base_seed!r}")
    for rank in grid.ranks:
        CpSpec(shape, rank)
    check_level, config_cls = ((_check_sampling_rate, LrtcConfig) if task == "complete"
                               else (_check_noise_level, TrpcaConfig))
    for level in grid.levels:
        check_level(level)
    cfg = config_cls() if config_template is None else config_template
    if not isinstance(cfg, config_cls):
        raise ValueError(f"task {task!r} takes a {config_cls.__name__} template")
    cfg = cfg.validated(shape)
    # imported here: every process that imports wstnn would pay their memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cells = [(rank, level) for rank in grid.ranks for level in grid.levels]
    set_threads = _openblas_function("set_num_threads")
    workers = 1
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        workers = min(_cpu_count(), len(cells) * grid.trials)
    records = []
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=set_threads,
        initargs=(1,),
    ) as pool:
        try:
            futures = [
                (rank, level, trial, pool.submit(
                    _run_trial, task, shape, rank, level, trial,
                    _trial_seed(base_seed, cell, trial), cfg,
                ))
                for cell, (rank, level) in enumerate(cells)
                for trial in range(grid.trials)
            ]
            for rank, level, trial, future in futures:
                try:
                    records.append(future.result())
                except np.linalg.LinAlgError:
                    logger.exception("trial failed (rank=%s, level=%s, trial=%s)",
                                     rank, level, trial)
                    records.append(TrialRecord(rank, level, trial, np.nan, SolveReport(),
                                               error=True))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return records


def phase_sweep(grid: PhaseGrid, task: str, shape: tuple[int, ...], base_seed: int = 0,
                config_template: LrtcConfig | TrpcaConfig | None = None) -> list[dict]:
    """Success rate per (rank, level) cell, counted from the records of
    :func:`phase_trials` with the same arguments: one row dict with keys
    rank, level, trials, successes, errors, rate per cell, in grid order.
    A trial succeeds when its RSE is below ``grid.success_threshold``."""
    return _rows(grid, phase_trials(grid, task, shape, base_seed, config_template))


def _rows(grid: PhaseGrid, records: list[TrialRecord]) -> list[dict]:
    rows = []
    for rank in grid.ranks:
        for level in grid.levels:
            cell, records = records[:grid.trials], records[grid.trials:]
            successes = sum(r.rse < grid.success_threshold for r in cell)
            rows.append({"rank": rank, "level": level, "trials": grid.trials,
                         "successes": successes, "errors": sum(r.error for r in cell),
                         "rate": successes / grid.trials})
    return rows
