#!/usr/bin/env python3
"""Efficiency study: all estimators on correctly specified nuisance models.

Runs every (beta, gamma1, gamma2) combination of the study grid over a ladder
of sample sizes and writes the tidy summary CSV (one row per size x estimator,
columns bias / SE / scaled variance / MSE with their Monte Carlo SEs).

Desk scale by default; --paper-scale switches to n up to 50000 with 1000
replicates per size.  On a 2-core x86 box (numpy 2.4, Python 3.11), 100
replicates of one combination over the whole paper-scale size ladder take
14 s with --threads 1 and 6-7 s with --threads 2; scaling by 10 (1000
replicates) and by 8 (combinations) puts the paper-scale run at about 18
minutes on one thread and 8-9 minutes on two.
"""

import argparse
import itertools
import sys
from dataclasses import astuple

from acebounds.bounds import SimDgpParams
from acebounds.dist import csv_text, report_cell, write_text
from acebounds.simlab import McConfig, McSummary, run_mc

DESK_SIZES = (50, 100, 500, 1000, 5000, 20000)
FULL_SCALE_SIZES = (50, 100, 500, 1000, 5000, 10000, 20000, 30000, 40000, 50000)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--levels", default="0.5,1.5")
    parser.add_argument("--replicates", type=int, default=200)
    parser.add_argument("--sizes", default=None, help="comma list overriding the size ladder")
    parser.add_argument("--paper-scale", action="store_true")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="CSV path; default stdout")
    args = parser.parse_args()

    sizes = FULL_SCALE_SIZES if args.paper_scale else DESK_SIZES
    if args.sizes:
        sizes = tuple(int(v) for v in args.sizes.split(","))
    replicates = 1000 if args.paper_scale else args.replicates
    levels = [float(v) for v in args.levels.split(",")]

    rows = []
    for beta, g1, g2 in itertools.product(levels, repeat=3):
        params = SimDgpParams(alpha=args.alpha, beta=beta, gamma1=g1, gamma2=g2)
        config = McConfig(
            params=params,
            sizes=sizes,
            replicates=replicates,
            setting=0,
            seed=args.seed,
            threads=args.threads,
        )
        rows.extend((beta, g1, g2) + astuple(r) for r in run_mc(config).rows)
        print(f"done beta={beta:g} gamma1={g1:g} gamma2={g2:g}", file=sys.stderr)
    write_text(csv_text(("beta", "gamma1", "gamma2") + McSummary.CSV_HEADER, rows, report_cell), args.out or sys.stdout)


if __name__ == "__main__":
    main()
