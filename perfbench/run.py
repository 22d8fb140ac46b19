"""Seeded benchmark of the wstnn solvers, end to end and per module.

    python3 perfbench/run.py [--seed N] [--seconds S]
    python3 perfbench/run.py --workload NAME --trace 0|1 [--seed N] [--seconds S]

With ``--workload`` and ``--trace`` given, the run measures that one
workload in that one mode: it builds its inputs from ``--seed``, runs
passes until ``--seconds`` have elapsed (at least one), checks every
output and prints each metric by name with its unit. ``--trace 0``
reports the end-to-end metrics with nothing patched; ``--trace 1``
alternates plain and traced passes on the same inputs and reports the
per-layer split (see tracer.py). Without them, every workload is run in
both modes, each in a process of its own, so that the peak resident set
of each belongs to it alone. ``--seconds`` defaults to ``run_seconds`` of
BENCHMARK.json and applies to each (workload, mode) run. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. See README.md for what each workload and metric is
for.

The package is imported from ``src/`` next to this directory; the run
fails without printing a result if that source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODES = ("0", "1")
SRC = ROOT / "src"

if not (SRC / "wstnn" / "__init__.py").is_file():
    sys.exit(f"perfbench: no wstnn sources at {SRC / 'wstnn'}")
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)  # never more BLAS threads than cores
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import wstnn  # noqa: E402
from wstnn import ntubal, solvers, synth, tensor_io, tsvd  # noqa: E402

if Path(wstnn.__file__).resolve().parent != (SRC / "wstnn").resolve():
    sys.exit(f"perfbench: imported wstnn from {wstnn.__file__}, not from {SRC}")

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402

SUCCESS_RSE = 1e-3  # the paper's recovery rule, also used by phase_sweep
END_TO_END = {
    "setup_s": "s", "solve_s": "s", "iter_ms": "ms", "iterations": "count",
    "recovered": "share", "trials_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "tsvd.t_svt_s": "s", "tsvd.t_svt_self_s": "s", "tsvd.dft_s": "s",
    "tsvd.idft_s": "s", "tsvd.t_svt_calls": "count", "tsvd.slices": "count",
    "tsvd.spectrum_bytes": "bytes", "tsvd.us_per_slice": "us",
    "tensor_ops.unfold_s": "s", "tensor_ops.fold_s": "s",
    "tensor_ops.calls": "count", "tensor_ops.bytes": "bytes",
    "solvers.solve_s": "s", "solvers.self_s": "s", "solvers.soft_threshold_s": "s",
    "solvers.sweeps": "count", "solvers.stalled": "count",
    "synth.gen_s": "s", "synth.corrupt_s": "s", "synth.rse_s": "s",
    "ntubal.estimate_s": "s", "tensor_io.read_s": "s", "tensor_io.write_s": "s",
    "tensor_io.bytes": "bytes", "trace_overhead": "s",
}
COMPUTED = ("tsvd.slices", "tsvd.spectrum_bytes", "tensor_ops.bytes")


class BenchError(Exception):
    """An output check failed."""


def instance_seed(seed: int, k: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, k])


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def require(ok: bool, what: str) -> None:
    if not ok:
        raise BenchError(what)


class Pass:
    """What one pass measured: one record per solve plus the trial tally."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.solve_s: list[float] = []
        self.iterations: list[int] = []
        self.trials = 0
        self.successes = 0
        self.failed = 0
        self.wall = 0.0
        self.outputs = None


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class Lrtc4Way:
    """One 15^4 rank-2 completion at SR 0.4 and tau 10, with rank-aware
    weights estimated from the observed tensor, inputs and output on NTUB1
    files (the path of ``wstnn complete --weights rank-aware``)."""

    name = "lrtc-4way"
    trials_per_pass = 1
    shape, rank, sr, tau = (15, 15, 15, 15), 2, 0.4, 10.0

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir

    def _build(self, k: int):
        gen_seed, mask_seed = instance_seed(self.seed, k).spawn(2)
        truth = synth.gen_cp_tensor(synth.CpSpec(self.shape, self.rank, gen_seed))
        mask = synth.sample_mask(self.shape, self.sr, mask_seed)
        observed = np.where(mask, truth, 0.0)
        f_path, m_path = self.workdir / "f.ntb", self.workdir / "mask.ntb"
        tensor_io.write_tensor(f_path, observed)
        tensor_io.write_tensor(m_path, mask.astype(np.float64))
        f = tensor_io.read_tensor(f_path)
        omega = tensor_io.read_tensor(m_path) != 0.0
        alpha = ntubal.weights_rank_aware(f.shape, ntubal.estimate_n_tubal_rank(f))
        cfg = solvers.LrtcConfig(alpha=alpha, tau=self.tau)
        return truth, mask, observed, f, omega, cfg

    def run_pass(self, k: int) -> Pass:
        p = Pass()
        (truth, mask, observed, f, omega, cfg), setup = timed(self._build, k)
        (x, rep), solve = timed(solvers.lrtc_solve, f, omega, cfg)
        out_path = self.workdir / "xhat.ntb"
        tensor_io.write_tensor(out_path, x)
        err = synth.rse(x, truth)
        p.setup_s.append(setup)
        p.solve_s.append(solve)
        p.iterations.append(rep.iterations)
        p.trials, p.successes = 1, int(err < SUCCESS_RSE)
        p.outputs = (mask, observed, f, omega, x, err, out_path)
        return p

    def check(self, p: Pass) -> None:
        mask, observed, f, omega, x, err, out_path = p.outputs
        require(bit_equal(f, observed) and bool((omega == mask).all()),
                "NTUB1 round trip of the inputs is not bit-exact")
        require(err < SUCCESS_RSE, f"RSE {err:.3e} is not below {SUCCESS_RSE}")
        require(bit_equal(x[omega], f[omega]), "observed entries changed")
        ranks = ntubal.estimate_n_tubal_rank(x)
        require(bool((ranks == self.rank).all()),
                f"N-tubal rank of the result is {ranks.tolist()}, not {self.rank}")
        require(bit_equal(tensor_io.read_tensor(out_path), x),
                "NTUB1 round trip of the result is not bit-exact")

    def samples(self, p: Pass) -> Pass:
        return p


class RpcaCube3:
    """30^3 rank-2 robust PCA with 10% salt-and-pepper noise, tau 20 and
    rel_tol 1e-6; a fresh seeded instance every pass."""

    name = "rpca-cube3"
    trials_per_pass = 1
    shape, rank, nl, tau, rel_tol = (30, 30, 30), 2, 0.1, 20.0, 1e-6
    max_residual = 1e-6

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def _build(self, k: int):
        gen_seed, noise_seed = instance_seed(self.seed, k).spawn(2)
        truth = synth.gen_cp_tensor(synth.CpSpec(self.shape, self.rank, gen_seed))
        noisy = synth.add_salt_pepper(truth, self.nl, noise_seed)
        alpha = ntubal.weights_uniform(len(self.shape))
        cfg = solvers.TrpcaConfig(alpha=alpha, tau=self.tau, rel_tol=self.rel_tol,
                                  lam=solvers.default_lambda(self.shape, alpha))
        return truth, noisy, cfg

    def run_pass(self, k: int) -> Pass:
        p = Pass()
        (truth, noisy, cfg), setup = timed(self._build, k)
        (low, sparse, rep), solve = timed(solvers.trpca_solve, noisy, cfg)
        err = synth.rse(low, truth)
        p.setup_s.append(setup)
        p.solve_s.append(solve)
        p.iterations.append(rep.iterations)
        p.trials, p.successes = 1, int(err < SUCCESS_RSE)
        p.outputs = (noisy, low, sparse, err)
        return p

    def check(self, p: Pass) -> None:
        noisy, low, sparse, err = p.outputs
        require(err < SUCCESS_RSE, f"RSE {err:.3e} is not below {SUCCESS_RSE}")
        resid = float(np.linalg.norm(noisy - low - sparse) / np.linalg.norm(noisy))
        require(resid < self.max_residual, f"constraint residual {resid:.3e}")

    def samples(self, p: Pass) -> Pass:
        return p


class _ErrorCounter(logging.StreamHandler):
    """Counts (and still prints) the exceptions phase_sweep logs and swallows."""

    def __init__(self):
        super().__init__(sys.stderr)
        self.setLevel(logging.ERROR)
        self.count = 0

    def emit(self, record):
        self.count += 1
        super().emit(record)


class SweepCube3:
    """phase_sweep on 20^3 completion, ranks {1,2,5} x SR {0.2,0.5,0.8},
    two trials per cell, uniform weights and tau 10; a fresh base seed
    every pass. phase_sweep returns only success counts, so the per-solve
    samples come from as many direct solves on the same grid, with seeds
    of the benchmark's own."""

    name = "sweep-cube3"
    shape, ranks, levels, trials, tau = (20, 20, 20), [1, 2, 5], [0.2, 0.5, 0.8], 2, 10.0
    trials_per_pass = len(ranks) * len(levels) * trials

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.grid = synth.PhaseGrid(ranks=self.ranks, levels=self.levels,
                                    trials=self.trials, success_threshold=SUCCESS_RSE)
        self.cfg = solvers.LrtcConfig(alpha=ntubal.weights_uniform(3), tau=self.tau)

    def base_seed(self, k: int) -> int:
        return int(instance_seed(self.seed, k).generate_state(1)[0])

    def run_pass(self, k: int) -> Pass:
        p = Pass()
        errors = _ErrorCounter()
        logger = logging.getLogger("wstnn.synth")
        logger.addHandler(errors)
        try:
            rows = synth.phase_sweep(self.grid, "complete", self.shape, self.base_seed(k), self.cfg)
        finally:
            logger.removeHandler(errors)
        p.trials = self.trials_per_pass
        p.successes = sum(row["successes"] for row in rows)
        # a swallowed exception is an error, not an unsuccessful trial
        p.failed = errors.count
        p.outputs = (k, rows)
        return p

    def check(self, p: Pass) -> None:
        _, rows = p.outputs
        cells = [(r, lv) for r in self.ranks for lv in self.levels]
        require([(row["rank"], row["level"]) for row in rows] == cells, "rows out of grid order")
        for row in rows:
            require(row["trials"] == self.trials and 0 <= row["successes"] <= self.trials
                    and row["rate"] == row["successes"] / self.trials, f"malformed row {row}")

    def samples(self, p: Pass) -> Pass:
        """One direct solve per trial of the grid, timed apart from its
        generation and checked to keep the observed entries."""
        k, _ = p.outputs
        r = Pass()
        seeds = iter(instance_seed(self.seed, k).spawn(self.trials_per_pass))
        for rank in self.ranks:
            for level in self.levels:
                for _ in range(self.trials):
                    gen_seed, mask_seed = next(seeds).spawn(2)
                    t0 = time.perf_counter()
                    truth = synth.gen_cp_tensor(synth.CpSpec(self.shape, rank, gen_seed))
                    mask = synth.sample_mask(self.shape, level, mask_seed)
                    observed = np.where(mask, truth, 0.0)
                    setup = time.perf_counter() - t0
                    (x, rep), solve = timed(solvers.lrtc_solve, observed, mask, self.cfg)
                    require(bit_equal(x[mask], observed[mask]), "observed entries changed")
                    r.setup_s.append(setup)
                    r.solve_s.append(solve)
                    r.iterations.append(rep.iterations)
        return r


WORKLOADS = {w.name: w for w in (Lrtc4Way, RpcaCube3, SweepCube3)}


def _count_solve(counts, args, result):
    rep = result[-1]
    counts["solvers.sweeps"] += rep.iterations
    # known stop-rule defect: "no change" after the first sweep reads as converged
    counts["solvers.stalled"] += rep.iterations == 1 and rep.final_rel_change == 0.0


def _count_t_svt(counts, args, result):
    n1, n2, n3 = np.shape(args[0])
    counts["tsvd.t_svt_calls"] += 1
    counts["tsvd.slices"] += n3
    counts["tsvd.spectrum_bytes"] += 16 * n1 * n2 * n3  # complex128 spectrum


def _count_layout(counts, args, result):
    # a view moves nothing; a permutation copy reads and writes every element
    counts["tensor_ops.calls"] += 1
    if not np.may_share_memory(result, args[0]):
        counts["tensor_ops.bytes"] += 2 * result.nbytes


def _count_file(counts, args, result):
    counts["tensor_io.bytes"] += os.path.getsize(args[0])


def bindings():
    """Each traced function, wrapped at the name its caller looks it up by."""
    return [
        (solvers, "lrtc_solve", "solvers.solve", _count_solve),
        (solvers, "trpca_solve", "solvers.solve", _count_solve),
        (synth, "lrtc_solve", "solvers.solve", _count_solve),
        (synth, "trpca_solve", "solvers.solve", _count_solve),
        (solvers, "t_svt", "tsvd.t_svt", _count_t_svt),
        (tsvd, "dft_tubes", "tsvd.dft", None),
        (tsvd, "idft_tubes", "tsvd.idft", None),
        (solvers, "mode_k1k2_unfold", "tensor_ops.unfold", _count_layout),
        (solvers, "mode_k1k2_fold", "tensor_ops.fold", _count_layout),
        (solvers, "soft_threshold", "solvers.soft_threshold", None),
        (synth, "gen_cp_tensor", "synth.gen", None),
        (synth, "sample_mask", "synth.corrupt", None),
        (synth, "add_salt_pepper", "synth.corrupt", None),
        (synth, "rse", "synth.rse", None),
        (ntubal, "estimate_n_tubal_rank", "ntubal.estimate", None),
        (tensor_io, "read_tensor", "tensor_io.read", _count_file),
        (tensor_io, "write_tensor", "tensor_io.write", _count_file),
    ]


def layer_metrics(total: dict, self_time: dict, c) -> dict:
    t_svt = total.get("tsvd.t_svt", 0.0)
    return {
        "tsvd.t_svt_s": t_svt,
        "tsvd.t_svt_self_s": self_time.get("tsvd.t_svt", 0.0),
        "tsvd.dft_s": total.get("tsvd.dft", 0.0),
        "tsvd.idft_s": total.get("tsvd.idft", 0.0),
        "tsvd.t_svt_calls": c["tsvd.t_svt_calls"],
        "tsvd.slices": c["tsvd.slices"],
        "tsvd.spectrum_bytes": c["tsvd.spectrum_bytes"],
        "tsvd.us_per_slice": 1e6 * t_svt / c["tsvd.slices"] if c["tsvd.slices"] else 0.0,
        "tensor_ops.unfold_s": total.get("tensor_ops.unfold", 0.0),
        "tensor_ops.fold_s": total.get("tensor_ops.fold", 0.0),
        "tensor_ops.calls": c["tensor_ops.calls"],
        "tensor_ops.bytes": c["tensor_ops.bytes"],
        "solvers.solve_s": total.get("solvers.solve", 0.0),
        "solvers.self_s": self_time.get("solvers.solve", 0.0),
        "solvers.soft_threshold_s": total.get("solvers.soft_threshold", 0.0),
        "solvers.sweeps": c["solvers.sweeps"],
        "solvers.stalled": c["solvers.stalled"],
        "synth.gen_s": total.get("synth.gen", 0.0),
        "synth.corrupt_s": total.get("synth.corrupt", 0.0),
        "synth.rse_s": total.get("synth.rse", 0.0),
        "ntubal.estimate_s": total.get("ntubal.estimate", 0.0),
        "tensor_io.read_s": total.get("tensor_io.read", 0.0),
        "tensor_io.write_s": total.get("tensor_io.write", 0.0),
        "tensor_io.bytes": c["tensor_io.bytes"],
    }


def rounds(seconds: float):
    """Yield 0, 1, 2, ... and stop once another round, at the median round
    length so far, would overshoot ``seconds`` by more than half a round."""
    start, lengths, k = time.perf_counter(), [], 0
    while True:
        t0 = time.perf_counter()
        yield k
        lengths.append(time.perf_counter() - t0)
        k += 1
        if time.perf_counter() - start + statistics.median(lengths) / 2 >= seconds:
            return


def attempt(workload, k: int) -> Pass:
    """One timed pass; an exception fails every trial of the pass."""
    t0 = time.perf_counter()
    try:
        p = workload.run_pass(k)
    except Exception:
        traceback.print_exc()
        p = Pass()
        p.trials = p.failed = workload.trials_per_pass
        return p
    p.wall = time.perf_counter() - t0
    return p


def check(workload, p: Pass) -> None:
    if p.outputs is None:
        return
    try:
        workload.check(p)
    except BenchError as exc:
        print(f"perfbench: {workload.name}: check failed: {exc}", file=sys.stderr)
        p.failed = p.trials


def measure_end_to_end(workload, seconds: float) -> tuple[dict, int, int]:
    passes, samples = [], []
    for k in rounds(seconds):
        p = attempt(workload, k)
        check(workload, p)
        passes.append(p)
        if p.outputs is None:
            continue
        try:
            samples.append(workload.samples(p))
        except Exception:
            traceback.print_exc()
            p.failed = p.trials
    trials = sum(p.trials for p in passes)
    failed = sum(p.failed for p in passes)
    setup = [t for s in samples for t in s.setup_s]
    solve = [t for s in samples for t in s.solve_s]
    iters = [n for s in samples for n in s.iterations]
    if not solve:
        return {}, trials, max(failed, 1)
    return {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(solve),
        "iter_ms": 1e3 * sum(solve) / sum(iters),
        "iterations": statistics.median_low(iters),
        "recovered": sum(p.successes for p in passes) / trials,
        "trials_per_s": trials / sum(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, trials, failed


def layers_add_up(m: dict) -> bool:
    """Whether the reported per-layer times add up as README.md states:
    the solve from its own self time and its child layers, t_svt from its
    own self time and the DFTs."""
    parts = {
        "solvers.solve_s": ("solvers.self_s", "solvers.soft_threshold_s", "tsvd.t_svt_s",
                            "tensor_ops.unfold_s", "tensor_ops.fold_s"),
        "tsvd.t_svt_s": ("tsvd.t_svt_self_s", "tsvd.dft_s", "tsvd.idft_s"),
    }
    return all(abs(m[whole] - sum(m[part] for part in ps)) <= 1e-9 * m[whole]
               for whole, ps in parts.items())


def measure_per_layer(workload, seconds: float) -> tuple[dict, int, int]:
    """Plain and traced passes on the same inputs, alternating which goes
    first. The per-layer figures are all taken from one traced pass, the
    median by traced solve time, so that they add up."""
    per_pass, overhead, trials, failed = [], [], 0, 0
    for k in rounds(seconds):
        tracer = Tracer(bindings())
        wall = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            with tracer.installed() if traced else contextlib.nullcontext():
                p = attempt(workload, k)
            check(workload, p)
            wall[traced] = p.wall
            trials += p.trials
            failed += p.failed
        metrics = layer_metrics(*tracer.summary(), tracer.counts)
        if not layers_add_up(metrics):
            print("perfbench: the per-layer times do not add up to the solve time",
                  file=sys.stderr)
            failed += 1
        per_pass.append(metrics)
        overhead.append(wall[True] - wall[False])
    median_pass = sorted(per_pass, key=lambda m: m["solvers.solve_s"])[(len(per_pass) - 1) // 2]
    return dict(median_pass, trace_overhead=statistics.median(overhead)), trials, failed


def blas_info() -> dict:
    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment(seed: int) -> dict:
    return {"nproc": NPROC, **blas_info(), "numpy": np.__version__,
            "python": platform.python_version(), "seed": seed}


def report(name: str, mode: str, metrics: dict, n: int, bad: int) -> None:
    print(f"{name} trace={mode}: {n} operations, error_rate {bad / n!r}")
    for metric, unit in (PER_LAYER if mode == "1" else END_TO_END).items():
        note = "  (computed from array shapes)" if metric in COMPUTED else ""
        print(f"  {metric:<26} {metrics[metric]['value']!r} {unit}{note}")


def run_one(name: str, mode: str, seed: int, seconds: float) -> dict:
    """Measure one workload in one mode in this process."""
    print("env " + json.dumps(environment(seed)))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        measure = measure_per_layer if mode == "1" else measure_end_to_end
        values, n, bad = measure(WORKLOADS[name](seed, workdir), seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if mode == "1" else END_TO_END
    metrics = {m: {"value": values.get(m, float("nan")), "unit": u} for m, u in units.items()}
    report(name, mode, metrics, n, bad)
    return {"correct": bad == 0, "attempted": n, "failed": bad, "metrics": metrics}


def run_children(names, modes, seed: int, seconds: float) -> dict:
    """Run every (workload, mode) in a child process of its own and merge
    the results, prefixing each metric with its workload when there are
    several."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for mode in modes:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--trace", mode,
                 "--seed", str(seed), "--seconds", repr(seconds)],
                stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"perfbench: {name} trace={mode} exited {child.returncode} without a result",
                      file=sys.stderr)
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
                lines.append("")
            print("\n".join(lines[:-1]))
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][metric if len(names) == 1 else f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="the one workload to measure (default: each in turn)")
    parser.add_argument("--trace", choices=MODES,
                        help="0: end-to-end, 1: per-layer (default: both in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per (workload, mode) run "
                             "(default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if args.workload and args.trace:
        result = run_one(args.workload, args.trace, args.seed, args.seconds)
    else:
        names = [args.workload] if args.workload else list(WORKLOADS)
        modes = [args.trace] if args.trace else list(MODES)
        result = run_children(names, modes, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
