"""Command-line driver.

Subcommands:

  complete  low-rank completion of a partially observed tensor
  rpca      split a tensor into low-rank and sparse parts
  rank      print the N-tubal rank and mode-k matrix ranks of a tensor
  sweep     synthetic phase-transition sweep, success rates to CSV
  tsvd      write the t-SVD factors of a three-way tensor to files

Every run prints its fully resolved configuration for reproducibility.
Exit code is 0 on success and 1 with a diagnostic on any error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import sys

import numpy as np

from . import ntubal, synth, tensor_io
from .solvers import LrtcConfig, SolveReport, TrpcaConfig, default_lambda, lrtc_solve, trpca_solve
from .tensor_ops import mode_k_unfold, mode_pairs
from .tsvd import t_svd


class CliError(Exception):
    pass


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"invalid shape {text!r}; expected e.g. 30,30,30")
    if len(shape) < 3 or any(n < 1 for n in shape):
        raise CliError(f"shape must have >= 3 positive extents, got {text!r}")
    return shape


def _parse_tau(text: str) -> float | np.ndarray:
    """A scalar or a comma-separated vector; the solver config checks
    that a vector has one value per mode pair."""
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise CliError(f"invalid tau {text!r}")
    return values[0] if len(values) == 1 else np.asarray(values)


def _resolve_weights(args, x: np.ndarray) -> np.ndarray:
    ndim = x.ndim
    if args.weights == "uniform":
        return ntubal.weights_uniform(ndim)
    if args.weights == "rank-aware":
        rank = ntubal.estimate_n_tubal_rank(x, args.threshold)
        return ntubal.weights_rank_aware(x.shape, rank, args.eta)
    if args.weights == "spectral":
        if ndim != 3:
            raise CliError("spectral weights are defined for three-way tensors only")
        return ntubal.weights_spectral(args.theta)
    raise CliError(f"unknown weight strategy {args.weights!r}")


def _finish_solve(args, report: SolveReport, verb: str, residual: str = "") -> int:
    """Write the --report CSV, if asked for, and print the solve summary."""
    if args.report:
        with open(args.report, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "rel_change"])
            for i, rel in enumerate(report.rel_change_trace, start=1):
                writer.writerow([i, repr(rel)])
    note = "" if report.converged else (
        "; stopped at --max-iter before the relative change reached --rel-tol")
    print(f"{verb} in {report.iterations} iterations "
          f"(final rel change {report.final_rel_change:.3e}, {residual}"
          f"{report.wall_time:.2f} s){note}")
    return 0


def _print_config(name: str, items: dict) -> None:
    print(f"[{name}] resolved configuration:")
    for key, value in items.items():
        if isinstance(value, np.ndarray):
            value = value.tolist()
        print(f"  {key} = {value}")


def _cmd_complete(args) -> int:
    f = tensor_io.read_tensor(args.input)
    if (args.mask is None) == (args.sr is None):
        raise CliError("exactly one of --mask and --sr is required")
    if args.mask is not None:
        omega = tensor_io.read_tensor(args.mask) != 0.0
        if omega.shape != f.shape:
            raise CliError("mask shape does not match input shape")
    else:
        omega = synth.sample_mask(f.shape, args.sr, args.seed)
        f = np.where(omega, f, 0.0)
    alpha = _resolve_weights(args, f)
    cfg = LrtcConfig(alpha=alpha, tau=_parse_tau(args.tau), gamma=args.gamma,
                     p_max=args.max_iter, rel_tol=args.rel_tol).validated(f.ndim)
    _print_config("complete", {
        "input": args.input, "shape": f.shape, "weights": args.weights,
        "alpha": cfg.alpha, "tau": cfg.tau, "gamma": cfg.gamma,
        "p_max": cfg.p_max, "rel_tol": cfg.rel_tol,
        "sr": args.sr, "mask": args.mask, "seed": args.seed,
    })
    x, report = lrtc_solve(f, omega, cfg)
    tensor_io.write_tensor(args.out, x)
    return _finish_solve(args, report, "completed")


def _cmd_rpca(args) -> int:
    x = tensor_io.read_tensor(args.input)
    alpha = _resolve_weights(args, x)
    if args.lam == "auto":
        lam = default_lambda(x.shape, alpha)
    else:
        try:
            lam = float(args.lam)
        except ValueError:
            raise CliError(f"--lambda must be 'auto' or a number, got {args.lam!r}")
    cfg = TrpcaConfig(alpha=alpha, tau=_parse_tau(args.tau), lam=lam, gamma=args.gamma,
                      p_max=args.max_iter, rel_tol=args.rel_tol).validated(x.ndim)
    _print_config("rpca", {
        "input": args.input, "shape": x.shape, "weights": args.weights,
        "alpha": cfg.alpha, "tau": cfg.tau, "lambda": cfg.lam, "rho": cfg.rho,
        "gamma": cfg.gamma, "p_max": cfg.p_max, "rel_tol": cfg.rel_tol,
    })
    low, sparse, report = trpca_solve(x, cfg)
    tensor_io.write_tensor(args.out_low, low)
    tensor_io.write_tensor(args.out_sparse, sparse)
    return _finish_solve(args, report, "split",
                         f"constraint residual {report.constraint_residual:.3e}, ")


def _cmd_rank(args) -> int:
    x = tensor_io.read_tensor(args.input)
    _print_config("rank", {
        "input": args.input, "shape": x.shape, "threshold": args.threshold,
    })
    n_tubal = ntubal.estimate_n_tubal_rank(x, args.threshold)
    tucker = []
    for k in range(1, x.ndim + 1):
        sv = np.linalg.svd(mode_k_unfold(x, k), compute_uv=False)
        tucker.append(int((sv > args.threshold * sv.max()).sum()))
    pairs = " ".join(f"({k1},{k2})" for k1, k2 in mode_pairs(x.ndim))
    print(f"mode pairs:   {pairs}")
    print("N-tubal rank: " + " ".join(str(r) for r in n_tubal))
    print("Tucker rank:  " + " ".join(str(r) for r in tucker))
    return 0


def _cmd_sweep(args) -> int:
    shape = _parse_shape(args.shape)
    grid = synth.PhaseGrid(
        ranks=[int(r) for r in args.ranks.split(",")],
        levels=[float(v) for v in args.levels.split(",")],
        trials=args.trials,
        success_threshold=args.success_threshold,
    )
    _print_config("sweep", {
        "task": args.task, "shape": shape, "ranks": grid.ranks,
        "levels": grid.levels, "trials": grid.trials,
        "success_threshold": grid.success_threshold, "seed": args.seed,
        "out": args.out,
    })
    rows = synth.phase_sweep(grid, args.task, shape, base_seed=args.seed)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} cells to {args.out}")
    # rows come in grid order: ranks outer, levels inner
    n = len(grid.levels)
    print("\nrank \\ level " + "".join(f"{v:>7}" for v in grid.levels))
    for i, rank in enumerate(grid.ranks):
        rates = [row["rate"] for row in rows[i * n:(i + 1) * n]]
        print(f"{rank:>12} " + "".join(f"{v:>7.2f}" for v in rates))
    return 0


def _cmd_tsvd(args) -> int:
    x = tensor_io.read_tensor(args.input)
    if x.ndim != 3:
        raise CliError("tsvd requires a three-way tensor")
    _print_config("tsvd", {"input": args.input, "shape": x.shape})
    factors = t_svd(x)
    tensor_io.write_tensor(args.out_u, factors.u)
    tensor_io.write_tensor(args.out_s, factors.s)
    tensor_io.write_tensor(args.out_v, factors.v)
    print(f"wrote factors to {args.out_u}, {args.out_s}, {args.out_v}")
    return 0


def _default(fn, param: str):
    return inspect.signature(fn).parameters[param].default


def _add_threshold_arg(parser) -> None:
    parser.add_argument("--threshold", type=float,
                        default=_default(ntubal.estimate_n_tubal_rank, "rel_threshold"),
                        help="relative singular-value threshold for rank estimation")


def _add_solver_args(parser, config: type[LrtcConfig] | type[TrpcaConfig]) -> None:
    """Weight, threshold and stopping options; the solver defaults are
    those of ``config``, the rank-aware ones those of :mod:`wstnn.ntubal`."""
    parser.add_argument("--weights", default="uniform",
                        choices=["uniform", "rank-aware", "spectral"],
                        help="weight strategy over mode pairs")
    parser.add_argument("--eta", type=float,
                        default=_default(ntubal.weights_rank_aware, "eta"),
                        help="balance parameter for rank-aware weights")
    parser.add_argument("--theta", type=float, default=0.001,
                        help="first-pair weight parameter for spectral weights")
    _add_threshold_arg(parser)
    parser.add_argument("--tau", default="100",
                        help="per-pair threshold: a scalar broadcast to all pairs "
                             "or a comma-separated vector")
    parser.add_argument("--gamma", type=float, default=config.gamma)
    parser.add_argument("--max-iter", type=int, default=config.p_max)
    parser.add_argument("--rel-tol", type=float, default=config.rel_tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wstnn",
        description="Low-rank tensor recovery via weighted sums of tensor "
                    "nuclear norms over mode-pair unfoldings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="low-rank tensor completion")
    p.add_argument("--input", required=True, help="observed tensor file")
    p.add_argument("--mask", help="mask tensor file (nonzero = observed)")
    p.add_argument("--sr", type=float, help="sample a random mask at this rate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output tensor file")
    p.add_argument("--report", help="per-iteration relative-change CSV")
    _add_solver_args(p, LrtcConfig)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("rpca", help="robust tensor PCA (low rank + sparse)")
    p.add_argument("--input", required=True)
    p.add_argument("--lambda", dest="lam", default="auto",
                   help="sparsity weight; 'auto' uses the size-based default")
    p.add_argument("--out-low", required=True)
    p.add_argument("--out-sparse", required=True)
    p.add_argument("--report", help="per-iteration relative-change CSV")
    _add_solver_args(p, TrpcaConfig)
    p.set_defaults(func=_cmd_rpca)

    p = sub.add_parser("rank", help="print N-tubal and Tucker-style ranks")
    p.add_argument("--input", required=True)
    _add_threshold_arg(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("sweep", help="synthetic phase-transition sweep")
    p.add_argument("--task", required=True, choices=["complete", "rpca"])
    p.add_argument("--shape", default="30,30,30")
    grid = synth.PhaseGrid()
    p.add_argument("--ranks", default=",".join(map(str, grid.ranks)))
    p.add_argument("--levels", default=",".join(map(str, grid.levels)))
    p.add_argument("--trials", type=int, default=grid.trials)
    p.add_argument("--success-threshold", type=float, default=grid.success_threshold)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="success-rate CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("tsvd", help="write t-SVD factors of a three-way tensor")
    p.add_argument("--input", required=True)
    p.add_argument("--out-u", required=True)
    p.add_argument("--out-s", required=True)
    p.add_argument("--out-v", required=True)
    p.set_defaults(func=_cmd_tsvd)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, tensor_io.TensorFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
