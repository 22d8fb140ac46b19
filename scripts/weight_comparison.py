#!/usr/bin/env python3
"""Compare weight strategies for N-way completion (four-way by default).

Runs the same partially observed instances through three weight choices
over the mode pairs: uniform, rank-aware, and a one-pair baseline (all
mass on pair (1,2), i.e. a plain three-way TNN model on the reshaped
tensor). Reports per-trial RSE and success counts.
"""

import argparse
import sys

import numpy as np

from wstnn.ntubal import estimate_n_tubal_rank, pair_count, weights_rank_aware, weights_uniform
from wstnn.solvers import LrtcConfig, lrtc_solve
from wstnn.synth import CpSpec, gen_cp_tensor, rse, sample_mask


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", default="15,15,15,15")
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--sr", type=float, default=0.4)
    parser.add_argument("--tau", type=float, default=10.0)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    shape = tuple(int(n) for n in args.shape.split(","))
    one_hot = np.zeros(pair_count(len(shape)))
    one_hot[0] = 1.0

    successes = {"uniform": 0, "rank-aware": 0, "one-pair": 0}
    print(f"{'trial':>5} {'uniform':>12} {'rank-aware':>12} {'one-pair':>12}")
    for trial in range(args.trials):
        seed = np.random.SeedSequence(entropy=args.seed, spawn_key=(0, trial))
        gen_seed, mask_seed = seed.spawn(2)
        truth = gen_cp_tensor(CpSpec(shape, args.rank, gen_seed))
        mask = sample_mask(shape, args.sr, mask_seed)
        f = np.where(mask, truth, 0.0)
        observed_rank = estimate_n_tubal_rank(f)
        strategies = {
            "uniform": weights_uniform(len(shape)),
            "rank-aware": weights_rank_aware(shape, observed_rank),
            "one-pair": one_hot,
        }
        errors = {}
        for name, alpha in strategies.items():
            cfg = LrtcConfig(alpha=alpha, tau=args.tau)
            xhat, _ = lrtc_solve(f, mask, cfg)
            errors[name] = rse(xhat, truth)
            successes[name] += errors[name] < 1e-3
        print(f"{trial:>5} " + " ".join(f"{errors[n]:>12.3e}" for n in strategies))

    print("\nsuccesses (RSE < 1e-3) out of", args.trials)
    for name, count in successes.items():
        print(f"  {name:<11} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
