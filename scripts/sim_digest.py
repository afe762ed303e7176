"""Print one sha256 over the simulator's output, to show that a change keeps its bits.

    python3 scripts/sim_digest.py [--seeds 0 1 2]

The digest covers, in order:
- the exit code and stdout of every sim_long and sim_wide op of
  benchmark/workloads.py for each seed (the op lists come from its
  build_ops, imported read-only, and run through contest_rating.cli.main);
- the repr of run_chain, and of run_utility compliant and with each of the
  four deviations, on DESIGNS at each of SHAPES.

Equal digests on two commits mean that they simulate the same bits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import workloads  # noqa: E402  (benchmark/workloads.py, imported read-only)
from contest_rating import DesignParams, SimConfig, default_params, run_chain, run_utility  # noqa: E402
from contest_rating.cli import main as cli_main  # noqa: E402

# Both rates below 1 with a base price, each rate at 1, and the designed
# protocol of the default environment.
DESIGNS = (
    DesignParams(0.6, 0.8, 0.7, 0.2),
    DesignParams(0.35, 0.9, 0.55, 0.1),
    DesignParams(1.0, 0.947368421053, 0.52, 0.0),
    DesignParams(0.990106846063, 1.0, 0.75, 0.0),
)
SHAPES = ((2000, 50, 16), (600, 300, 16))  # (periods, pairs, replicates)
DEVIATIONS = (None, (1, 0), (1, 1), (2, 0), (2, 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in ("sim_long", "sim_wide"):
                workdir = Path(tmp) / f"{workload}-{seed}"
                workdir.mkdir()
                for op in workloads.build_ops(workload, seed, workdir):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = cli_main(list(op.argv))
                    digest.update(f"{code}\n{out.getvalue()}".encode())
    params = default_params()
    for periods, pairs, replicates in SHAPES:
        for design in DESIGNS:
            base = dict(periods=periods, population=pairs, replicates=replicates, seed=7)
            config = SimConfig(**base)
            digest.update(repr(run_chain(design, params, config)).encode())
            for deviation in DEVIATIONS:
                digest.update(repr(run_utility(design, params, config, deviation)).encode())
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
