#!/usr/bin/env python3
"""Desk-scale robust-PCA phase diagram.

Sweeps N-tubal rank against salt-pepper noise level on a synthetic cube
and writes per-cell success rates (RSE of the recovered low-rank part
below the threshold) to CSV.
"""

import argparse
import csv
import sys

from wstnn.synth import PhaseGrid, phase_sweep


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", default="30,30,30")
    parser.add_argument("--ranks", default="1,2,5,10")
    parser.add_argument("--nls", default="0.05,0.1,0.2,0.3")
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="phase_rpca.csv")
    args = parser.parse_args(argv)

    shape = tuple(int(n) for n in args.shape.split(","))
    grid = PhaseGrid(
        ranks=[int(r) for r in args.ranks.split(",")],
        levels=[float(v) for v in args.nls.split(",")],
        trials=args.trials,
    )
    rows = phase_sweep(grid, "rpca", shape, base_seed=args.seed)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "nl", "trials", "successes", "errors", "rate"])
        for row in rows:
            writer.writerow([row["rank"], row["level"], row["trials"],
                             row["successes"], row["errors"], row["rate"]])

    print(f"wrote {len(rows)} cells to {args.out}")
    print("\nrank \\ nl " + "".join(f"{v:>7}" for v in grid.levels))
    for r in grid.ranks:
        rates = [row["rate"] for row in rows if row["rank"] == r]
        print(f"{r:>9} " + "".join(f"{v:>7.2f}" for v in rates))
    return 0


if __name__ == "__main__":
    sys.exit(main())
