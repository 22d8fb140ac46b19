"""Command-line driver.

Subcommands:

  complete  low-rank completion of a partially observed tensor
  rpca      split a tensor into low-rank and sparse parts
  rank      print the N-tubal rank and mode-k matrix ranks of a tensor
  sweep     synthetic phase-transition sweep, success rates to CSV
  tsvd      write the t-SVD factors of a three-way tensor to files

Every run prints its own settings, then every field of the resolved
config objects that run it, for reproducibility.
The exit code is 0 on success, 1 with one ``error:`` line when the library
or a file operation rejects the run, and 2 with argparse's usage message
when the command line is malformed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import sys

import numpy as np

from . import ntubal, synth, tensor_io
from .solvers import LrtcConfig, SolveReport, TrpcaConfig, lrtc_solve, trpca_solve
from .tensor_ops import mode_k_unfold, mode_pairs
from .tsvd import t_svd, tubal_rank

#: each task's solver config, named here only
_CONFIGS = {"complete": LrtcConfig, "rpca": TrpcaConfig}


def _comma_list(convert):
    """argparse type for a comma-separated list, e.g. 30,30,30."""
    def parse(text: str) -> list:
        return [convert(tok) for tok in text.split(",")]
    parse.__name__ = f"{convert.__name__}-list"  # argparse's "invalid int-list value"
    return parse


def _auto_or_float(text: str) -> float | None:
    return None if text == "auto" else float(text)


_auto_or_float.__name__ = "auto-or-float"


def _solver_config(args, x: np.ndarray, **settings):
    """The resolved config of this ``complete`` or ``rpca`` run on ``x``;
    --weights uniform leaves ``alpha=None`` to the config."""
    alpha = None
    if args.weights == "rank-aware":
        rank = ntubal.estimate_n_tubal_rank(x, args.threshold)
        alpha = ntubal.weights_rank_aware(x.shape, rank, args.eta)
    elif args.weights == "spectral":
        alpha = ntubal.weights_spectral(args.theta)
    return _CONFIGS[args.command](alpha=alpha, tau=args.tau, p_max=args.max_iter,
                                  rel_tol=args.rel_tol, **settings).validated(x.shape)


def _finish_solve(args, report: SolveReport, verb: str, residual: str = "") -> int:
    """Write the --report CSV, if asked for, and print the solve summary."""
    if args.report:
        with open(args.report, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "rel_change"])
            for i, rel in enumerate(report.rel_change_trace, start=1):
                writer.writerow([i, repr(rel)])
    note = "" if report.converged else (
        "; stopped at --max-iter before converging to --rel-tol")
    print(f"{verb} in {report.iterations} iterations "
          f"(final rel change {report.final_rel_change:.3e}, {residual}"
          f"{report.wall_time:.2f} s){note}")
    return 0


def _print_config(name: str, items: dict, *objects) -> None:
    """Print a run's own settings, then every field of each dataclass that
    runs it; a solver config adds its ``gamma`` and ``rho``."""
    for obj in objects:
        items = items | {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        if isinstance(obj, tuple(_CONFIGS.values())):
            items |= {"gamma": obj.gamma, "rho": obj.rho}
    print(f"[{name}] resolved configuration:")
    for key, value in items.items():
        print(f"  {key} = {value.tolist() if isinstance(value, np.ndarray) else value}")


def _cmd_complete(args) -> int:
    f = tensor_io.read_tensor(args.input)
    if args.mask is not None:
        omega = tensor_io.read_tensor(args.mask) != 0.0
        # checked before the zero fill, which would broadcast the two shapes
        if omega.shape != f.shape:
            raise ValueError("mask shape does not match input shape")
    else:
        omega = synth.sample_mask(f.shape, args.sr, args.seed)
    # entries off the mask are unobserved, to the rank estimate as well
    f = np.where(omega, f, 0.0)
    cfg = _solver_config(args, f)
    _print_config("complete", {"input": args.input, "shape": f.shape, "weights": args.weights,
                               "sr": args.sr, "mask": args.mask, "seed": args.seed}, cfg)
    x, report = lrtc_solve(f, omega, cfg)
    tensor_io.write_tensor(args.out, x)
    return _finish_solve(args, report, "completed")


def _cmd_rpca(args) -> int:
    x = tensor_io.read_tensor(args.input)
    cfg = _solver_config(args, x, lam=args.lam)
    _print_config("rpca", {"input": args.input, "shape": x.shape, "weights": args.weights}, cfg)
    low, sparse, report = trpca_solve(x, cfg)
    tensor_io.write_tensor(args.out_low, low)
    tensor_io.write_tensor(args.out_sparse, sparse)
    return _finish_solve(args, report, "split",
                         f"relative constraint residual {report.constraint_residual:.3e}, ")


def _cmd_rank(args) -> int:
    x = tensor_io.read_tensor(args.input)
    _print_config("rank", {"input": args.input, "shape": x.shape, "threshold": args.threshold})
    n_tubal = ntubal.estimate_n_tubal_rank(x, args.threshold)
    tucker = [tubal_rank(mode_k_unfold(x, k)[:, :, None], args.threshold)
              for k in range(1, x.ndim + 1)]
    pairs = " ".join(f"({k1},{k2})" for k1, k2 in mode_pairs(x.ndim))
    print(f"mode pairs:   {pairs}")
    print("N-tubal rank: " + " ".join(str(r) for r in n_tubal))
    print("Tucker rank:  " + " ".join(str(r) for r in tucker))
    return 0


def _cmd_sweep(args) -> int:
    shape = tuple(args.shape)
    grid = synth.PhaseGrid(ranks=args.ranks, levels=args.levels, trials=args.trials,
                           success_threshold=args.success_threshold)
    cfg = _CONFIGS[args.task]().validated(shape)
    _print_config("sweep", {"task": args.task, "shape": shape, "seed": args.seed,
                            "out": args.out}, grid, cfg)
    rows = synth.phase_sweep(grid, args.task, shape, args.seed, cfg)
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


def _add_solver_args(parser, command: str) -> None:
    """Weight, threshold, stopping and --report options; the solver defaults
    are those of the command's config, the rank-aware ones :mod:`wstnn.ntubal`'s."""
    config = _CONFIGS[command]
    parser.add_argument("--weights", default="uniform",
                        choices=["uniform", "rank-aware", "spectral"],
                        help="weight strategy over mode pairs")
    parser.add_argument("--eta", type=float,
                        default=_default(ntubal.weights_rank_aware, "eta"),
                        help="balance parameter for rank-aware weights")
    parser.add_argument("--theta", type=float,
                        default=_default(ntubal.weights_spectral, "theta"),
                        help="first-pair weight parameter for spectral weights")
    _add_threshold_arg(parser)
    parser.add_argument("--tau", type=float, default=config.tau,
                        help="starting t-SVT threshold of every mode pair; "
                             "scale it with the data")
    parser.add_argument("--max-iter", type=int, default=config.p_max)
    parser.add_argument("--rel-tol", type=float, default=config.rel_tol)
    parser.add_argument("--report", help="per-iteration relative-change CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wstnn",
        description="Low-rank tensor recovery via weighted sums of tensor "
                    "nuclear norms over mode-pair unfoldings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="low-rank tensor completion")
    p.add_argument("--input", required=True, help="observed tensor file")
    observed = p.add_mutually_exclusive_group(required=True)
    observed.add_argument("--mask", help="mask tensor file (nonzero = observed)")
    observed.add_argument("--sr", type=float, help="sample a random mask at this rate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output tensor file")
    _add_solver_args(p, "complete")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("rpca", help="robust tensor PCA (low rank + sparse)")
    p.add_argument("--input", required=True)
    p.add_argument("--lambda", dest="lam", type=_auto_or_float, default="auto",
                   help="sparsity weight; 'auto' is wstnn.default_lambda "
                        "of the input's shape and weights")
    p.add_argument("--out-low", required=True)
    p.add_argument("--out-sparse", required=True)
    _add_solver_args(p, "rpca")
    p.set_defaults(func=_cmd_rpca)

    p = sub.add_parser("rank", help="print N-tubal and Tucker-style ranks")
    p.add_argument("--input", required=True)
    _add_threshold_arg(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("sweep", help="synthetic phase-transition sweep")
    p.add_argument("--task", required=True, choices=list(_CONFIGS))
    p.add_argument("--shape", type=_comma_list(int), default="30,30,30")
    grid = synth.PhaseGrid()
    p.add_argument("--ranks", type=_comma_list(int), default=",".join(map(str, grid.ranks)))
    p.add_argument("--levels", type=_comma_list(float),
                   default=",".join(map(str, grid.levels)))
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
