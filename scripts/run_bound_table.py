#!/usr/bin/env python3
"""Efficiency bounds for the Gaussian-mediator family over the study grid.

Prints one row per (beta, gamma1, gamma2) combination with all six bounds,
closed forms for BD / FD / TD / FD_TD and Gauss-Hermite quadrature for the rest.
"""

import argparse
import itertools

from acebounds.bounds import SimDgpParams, simdgp_bound
from acebounds.dist import TreatmentPair, csv_text
from acebounds.influence import MODEL_TAGS


def bound_cell(value) -> str:
    """Bounds to 4 decimals; the grid coordinates arrive formatted."""
    return value if isinstance(value, str) else f"{value:.4f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--levels", default="0.5,1.5", help="comma list for beta/gamma1/gamma2")
    parser.add_argument("--nodes", type=int, default=64)
    args = parser.parse_args()

    levels = [float(v) for v in args.levels.split(",")]
    pair = TreatmentPair(1.0, 0.0)
    rows = []
    for beta, g1, g2 in itertools.product(levels, repeat=3):
        params = SimDgpParams(alpha=args.alpha, beta=beta, gamma1=g1, gamma2=g2)
        values = [simdgp_bound(params, pair, m, n_nodes=args.nodes).value for m in MODEL_TAGS]
        rows.append([f"{beta:g}", f"{g1:g}", f"{g2:g}"] + values)
    print(csv_text(("beta", "gamma1", "gamma2") + MODEL_TAGS, rows, bound_cell), end="")


if __name__ == "__main__":
    main()
