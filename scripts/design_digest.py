"""Print one sha256 over the designer's output, to show that a change keeps its bytes.

    python3 scripts/design_digest.py [--seeds 0 1 2]

The digest covers, in order:
- the exit code and stdout of every design_sweep and oracle_check op of
  benchmark/workloads.py for each seed (the op lists come from its
  build_ops, imported read-only, and run through contest_rating.cli.main);
- one `contest-rating sweep` along each SWEEPS axis of the workloads;
- one `contest-rating check` at each feasible design the ops and the sweeps
  printed, with alpha, beta and gamma1 as printed.

Equal digests on two commits mean that they design the same bytes.
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
from contest_rating import default_params  # noqa: E402
from contest_rating.cli import main as cli_main  # noqa: E402


def run(digest, argv: list[str]) -> str:
    """Run one CLI command, fold its exit code and stdout into the digest, return stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    digest.update(f"{code}\n{out.getvalue()}".encode())
    return out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    designs = []  # (config path, alpha, beta, gamma1) of every feasible design printed
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in ("design_sweep", "oracle_check"):
                workdir = Path(tmp) / f"{workload}-{seed}"
                workdir.mkdir()
                for op in workloads.build_ops(workload, seed, workdir):
                    kv = dict(line.split("=", 1) for line in run(digest, list(op.argv)).splitlines())
                    if kv["feasible"] == "true":
                        designs.append((op.argv[1], kv["alpha"], kv["beta"], kv["gamma1"]))
        for index, (key, base, start, stop, step) in enumerate(workloads.SWEEPS):
            cfg = Path(tmp) / f"sweep{index}.cfg"
            cfg.write_text(workloads.config_text(default_params(**base)), encoding="utf-8")
            csv = run(digest, ["sweep", str(cfg), "--vary", key, "--from", str(start),
                               "--to", str(stop), "--step", str(step)])
            header, *rows = csv.splitlines()
            columns = header.split(",")
            for row in rows:
                fields = dict(zip(columns, row.split(",")))
                if fields["feasible"] != "true":
                    continue
                point = Path(tmp) / f"sweep{index}-{len(designs)}.cfg"
                point.write_text("".join(f"{k}={fields[k]}\n" for k in columns[:8]), encoding="utf-8")
                designs.append((str(point), fields["alpha"], fields["beta"], fields["gamma1"]))
        for cfg, alpha, beta, gamma1 in designs:
            run(digest, ["check", cfg, "--alpha", alpha, "--beta", beta, "--gamma1", gamma1])
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
