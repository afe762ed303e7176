"""Cross-check the boundary-case optimizer against the grid oracle.

Part one scans the default family (c1 varies, everything else fixed) and
prints the case-analysis optimum next to the exhaustive (alpha, beta,
gamma1) grid argmax. Part two pins the base price at each value of a grid
and re-runs the oracle, printing the re-optimized utility curve; on the
default environment this curve peaks at an interior gamma0, not at zero.
"""

import argparse
import sys

import numpy as np

from contest_rating import (
    DesignerConfig,
    Infeasible,
    brute_force_oracle,
    default_params,
    optimize,
    with_params,
    zero_base_price_check,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid-m", type=int, default=100)
    parser.add_argument("--oracle-r", type=int, default=100)
    parser.add_argument("--base-price-r", type=int, default=40,
                        help="oracle resolution for the pinned-gamma0 curve")
    args = parser.parse_args(argv)
    config = DesignerConfig(gamma_grid_m=args.grid_m, oracle_grid_r=args.oracle_r)

    print("== case analysis vs grid oracle, default family ==")
    print("c1    optimizer (a, b, g1, U)              oracle (a, b, g1, U)                gap")
    for c1 in np.arange(0.05, 0.451, 0.05):
        point = with_params(default_params(), c1=float(c1))
        oracle = brute_force_oracle(point, config)
        try:
            out = optimize(point, config)
            left = f"({out.alpha:.2f}, {out.beta:.4f}, {out.gamma1:.2f}, {out.utility:+.6f})"
            gap = abs(out.utility - oracle.utility) if oracle.feasible else float("nan")
        except Infeasible:
            left = "infeasible"
            gap = float("nan")
        right = (
            f"({oracle.alpha:.2f}, {oracle.beta:.2f}, {oracle.gamma1:.2f}, {oracle.utility:+.6f})"
            if oracle.feasible
            else "infeasible"
        )
        print(f"{c1:.2f}  {left:38s}{right:36s}{gap:.4f}")

    print()
    print("== re-optimized utility with the base price pinned ==")
    report = zero_base_price_check(
        default_params(), config=DesignerConfig(oracle_grid_r=args.base_price_r)
    )
    for gamma0, utility in zip(report.gamma0_values, report.utilities):
        marker = "  <- best" if abs(gamma0 - report.best_gamma0) < 1e-12 else ""
        print(f"  gamma0={gamma0:.2f}  U={utility:+.6f}{marker}")
    print(f"  zero base price optimal: {report.zero_is_optimal}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
