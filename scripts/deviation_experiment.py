"""Simulate one-shot attack deviations against the designed protocol.

Optimizes the protocol for the default environment, then Monte-Carlos the
lifetime value of complying versus attacking once (at each starting rating,
for each worker) under the same seeds. A sustainable design should leave
every attack at or below the compliant value, inside simulation noise.
"""

import argparse
import math
import sys

from contest_rating import SimConfig, default_params, optimize, run_utility, utility_horizon


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--replicates", type=int, default=16)
    parser.add_argument("--population", type=int, default=300, help="matched pairs per replicate")
    args = parser.parse_args(argv)

    params = default_params()
    outcome = optimize(params)
    design = outcome.design()
    print(
        f"designed protocol: alpha={design.alpha:g} beta={design.beta:.6f} "
        f"gamma1={design.gamma1:g} gamma0={design.gamma0:g} (case {outcome.case_id})"
    )

    periods = utility_horizon(params.delta)
    base = dict(
        periods=periods,
        replicates=args.replicates,
        population=args.population,
        seed=args.seed,
    )
    compliant = run_utility(design, params, SimConfig(**base))
    print(f"horizon {periods} periods, {args.replicates} replicates x {args.population} pairs")
    print("worker  rating  compliant   attack-once   difference   verdict")
    for worker in (1, 2):
        for rating in (0, 1):
            run = run_utility(design, params, SimConfig(**base), deviation=(worker, rating))
            dev = run[f"vinf_w{worker}_r{rating}_dev"]
            comp = compliant[f"vinf_w{worker}_r{rating}"]
            diff = dev.empirical - comp.empirical
            noise = math.hypot(dev.stderr, comp.stderr)
            verdict = "deterred" if diff <= 3.0 * noise else "PROFITABLE"
            print(
                f"  {worker}      {rating}     {comp.empirical:+.4f}     {dev.empirical:+.4f}"
                f"      {diff:+.4f}     {verdict}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
