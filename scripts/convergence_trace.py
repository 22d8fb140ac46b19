#!/usr/bin/env python3
"""Print the per-iteration relative change of one completion run.

Generates a synthetic instance, solves it, and prints the stopping
statistic against the iteration count (a text rendering of the usual
convergence plot), plus the final RSE.
"""

import argparse
import sys

from wstnn.solvers import LrtcConfig, lrtc_solve
from wstnn.synth import CpSpec, gen_cp_tensor, rse, sample_mask
from wstnn.ntubal import weights_uniform

import numpy as np


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", default="30,30,30")
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--sr", type=float, default=0.5)
    parser.add_argument("--tau", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    shape = tuple(int(n) for n in args.shape.split(","))
    seed = np.random.SeedSequence(entropy=args.seed, spawn_key=(0, 0))
    gen_seed, mask_seed = seed.spawn(2)
    truth = gen_cp_tensor(CpSpec(shape, args.rank, gen_seed))
    mask = sample_mask(shape, args.sr, mask_seed)
    cfg = LrtcConfig(alpha=weights_uniform(len(shape)), tau=args.tau)
    xhat, report = lrtc_solve(np.where(mask, truth, 0.0), mask, cfg)

    trace = report.rel_change_trace
    lo, first = min(trace), trace[0]
    for i, rel in enumerate(trace, start=1):
        # log scale from the smallest change (one mark) to the first (50
        # marks); a trace with no such span (one sweep, a zero or an
        # infinite change) gets one mark per line
        width = 1
        if 0 < lo < first < np.inf:
            width = max(1, int(50 * np.log(rel / lo) / np.log(first / lo)))
        print(f"{i:>4} {rel:.3e} {'#' * width}")
    print(f"\nstopped after {report.iterations} iterations "
          f"({report.wall_time:.2f} s), RSE = {rse(xhat, truth):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
