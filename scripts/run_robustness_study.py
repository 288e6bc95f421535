#!/usr/bin/env python3
"""Robustness study: estimator bias under the four misspecification settings.

The data generating mechanism uses beta = gamma1 = gamma2 = 1.5 so the
back-door estimator's variance is comparable to the others.  Desk scale by
default (n=20000, 200 replicates); --paper-scale switches to n=50000 with
1000 replicates.
"""

import argparse
import sys
from dataclasses import astuple

from acebounds.bounds import SimDgpParams
from acebounds.dist import csv_text, report_cell, write_text
from acebounds.simlab import McConfig, McSummary, run_mc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20000)
    parser.add_argument("--replicates", type=int, default=200)
    parser.add_argument("--paper-scale", action="store_true")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--settings", default="1,2,3,4")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    n = 50000 if args.paper_scale else args.n
    replicates = 1000 if args.paper_scale else args.replicates
    params = SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=1.5)

    rows = []
    for setting in (int(s) for s in args.settings.split(",")):
        config = McConfig(
            params=params,
            sizes=(n,),
            replicates=replicates,
            setting=setting,
            seed=args.seed,
            threads=args.threads,
        )
        rows.extend(astuple(r) for r in run_mc(config).rows)
        print(f"done setting {setting}", file=sys.stderr)
    write_text(csv_text(McSummary.CSV_HEADER, rows, report_cell), args.out or sys.stdout)


if __name__ == "__main__":
    main()
