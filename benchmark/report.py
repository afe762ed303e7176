"""Run every workload and print each metric by name and unit, with the check results.

    python3 benchmark/report.py                       # default seed, end-to-end metrics
    python3 benchmark/report.py --seeds 0 1 2 --trace # medians, quartile spreads, layers
    python3 benchmark/report.py --seeds 0 ... 9 --trace --record benchmark/baseline.json

Each run is a fresh `benchmark/run.py` process of BENCHMARK.json's
run_seconds, and every workload of BENCHMARK.json runs. With several seeds
a metric is shown as its median, its quartiles and its spread, the quartile
distance as a share of the median, next to the bound BENCHMARK.json fixes
for it. --record appends the set of runs (its machine, seeds, figures, check
results, each run's values and its start within the set) to the file, keeps the map of which end-to-end metric each
layer metric should move on which workload, and compares the sets: an
end-to-end metric of a workload is unresolved when its spread in a set, or
the move of its median from the first set's, exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end metric each per-layer metric should move, on which
# workload; on every workload not named the prediction is no change.
METRIC_MAP = [
    {"layer_metrics": ["payoffs.calls", "payoffs.payoff_line_calls", "payoffs.self_ms"],
     "moves": ["ops_per_s", "op_p50_ms"], "on": ["design_sweep"],
     "note": "under 1% of an oracle_check op"},
    {"layer_metrics": ["incentives.calls", "incentives.constraint_coefficients_calls",
                       "incentives.self_ms", "incentives.raised"],
     "moves": ["ops_per_s", "op_p50_ms"], "on": ["design_sweep"],
     "note": "raised counts exceptions escaping, e.g. DegenerateDenominator"},
    {"layer_metrics": ["incentives.compliance_margins_ms"],
     "moves": ["ops_per_s", "peak_rss_mb"], "on": ["oracle_check"]},
    {"layer_metrics": ["requester.calls", "requester.self_ms"],
     "moves": ["ops_per_s", "op_p50_ms"], "on": ["oracle_check"],
     "note": "through social_utility_closed inside the oracle"},
    {"layer_metrics": ["ratings.calls", "ratings.self_ms"],
     "moves": ["op_p50_ms"], "on": ["design_sweep"], "note": "the certificate part, small"},
    {"layer_metrics": ["designer.self_ms"],
     "moves": ["ops_per_s", "op_p50_ms"], "on": ["design_sweep", "oracle_check"],
     "note": "the scan loop; the oracle's mask and argmax"},
    {"layer_metrics": ["designer.gamma1_points", "designer.feasible_gamma1_share",
                       "designer.infeasible_share"],
     "moves": ["ops_per_s", "op_p50_ms"], "on": ["design_sweep"],
     "note": "feasible_gamma1_share is useful grid points over scanned ones"},
    {"layer_metrics": ["designer.oracle_cells", "designer.oracle_cells_per_s"],
     "moves": ["ops_per_s", "op_p50_ms"], "on": ["oracle_check"]},
    {"layer_metrics": ["simulate.self_ms", "simulate.agent_periods", "simulate.agent_periods_per_s"],
     "moves": ["ops_per_s", "op_p50_ms"], "on": ["sim_long", "sim_wide"],
     "note": "the rating loop on sim_long; draws and aggregation on sim_wide"},
    {"layer_metrics": ["simulate.rng_mb"], "moves": ["peak_rss_mb"], "on": ["sim_wide"],
     "note": "computed from the shapes (one replicate's draws), not measured"},
    {"layer_metrics": ["simulate.promotions", "simulate.demotions"], "moves": [], "on": [],
     "note": "read from the returned SimResult; seeded, so they repeat exactly"},
    {"layer_metrics": ["cli.self_ms", "cli.output_bytes"],
     "moves": ["op_p50_ms"], "on": ["design_sweep", "oracle_check", "sim_long", "sim_wide"],
     "note": "by a small amount"},
    {"layer_metrics": ["src.lines"], "moves": [], "on": [],
     "note": "line count of src/contest_rating, tracked next to the timings"},
    {"layer_metrics": ["trace.spans", "trace.overhead_ms"], "moves": [], "on": [],
     "note": "cost of tracing; end-to-end metrics are measured untraced"},
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    *_, detail_line, result_line = proc.stdout.splitlines()
    return json.loads(result_line), json.loads(detail_line.removeprefix("detail "))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def compare(sets: list[dict], spec: dict) -> dict:
    """Per workload and end-to-end metric: each set's median and spread, and
    the move of each later median from the first set's, as a share of it."""
    comparison: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            figures = [s["results"][workload]["end_to_end"][metric["name"]] for s in sets]
            medians = [f["median"] for f in figures]
            spreads = [f.get("spread") for f in figures]
            moves = [(m - medians[0]) / medians[0] for m in medians[1:]]
            unresolved = any(abs(m) > metric["bound"] for m in moves) or any(
                sp is not None and sp > metric["bound"] for sp in spreads
            )
            comparison.setdefault(workload, {})[metric["name"]] = {
                "bound": metric["bound"], "medians": medians, "spreads": spreads,
                "moves_from_first": moves, "unresolved": unresolved,
            }
    return comparison


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--trace", action="store_true", help="also make one traced run per seed")
    parser.add_argument("--record", help="append the set of runs to this JSON file")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    modes = [("end_to_end", 0)] + ([("per_layer", 1)] if args.trace else [])
    record: dict = {}
    started = time.monotonic()
    for workload in (w["name"] for w in spec["workloads"]):
        for kind, trace in modes:
            results = []
            for seed in args.seeds:
                at_s = time.monotonic() - started
                result, detail = run_once(workload, seed, seconds, trace)
                results.append((seed, result, dict(detail, at_s=at_s)))
                failures = "; ".join(f"{n} x {cause}" for cause, n in detail["failures"].items())
                print(
                    f"{workload} seed {seed} trace {trace}: attempted {result['attempted']}, "
                    f"failed {result['failed']}, correct {str(result['correct']).lower()}, "
                    f"reference checked {str(detail['reference_checked']).lower()}"
                    + (f"; failures: {failures}" if failures else ""),
                    flush=True,
                )
            entry = record.setdefault(workload, {}).setdefault(kind, {})
            for metric in spec[kind]:
                name = metric["name"]
                figures = summarize([r["metrics"][name]["value"] for _, r, _ in results])
                figures["unit"] = metric["unit"]
                if "bound" in metric:
                    figures["bound"] = metric["bound"]
                entry[name] = figures
                shown = f"{figures['median']:.6g}"
                if "spread" in figures:
                    shown += (
                        f"  [{figures['q1']:.6g} .. {figures['q3']:.6g}]"
                        f"  spread {figures['spread']:.3f}"
                    )
                if "bound" in figures:
                    shown += f"  bound {figures['bound']}"
                print(f"  {workload:<13} {name:<41} {shown}  {metric['unit']}")
            checks = record[workload].setdefault("checks", {})
            checks[kind] = [
                {"seed": seed, "attempted": r["attempted"], "failed": r["failed"],
                 "correct": r["correct"], "failures": d["failures"],
                 **{k: d[k] for k in ("at_s", "op_p90_ops_beyond", "overhead_share") if k in d}}
                for seed, r, d in results
            ]

    if args.record:
        import numpy

        path = Path(args.record)
        out = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"sets": []}
        out["sets"].append({
            "machine": {
                "cores": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "platform": platform.platform(),
            },
            "seeds": args.seeds,
            "results": record,
        })
        out.update(
            seconds=seconds,
            workloads={w["name"]: w["why"] for w in spec["workloads"]},
            metric_map=METRIC_MAP,
            comparison=compare(out["sets"], spec),
        )
        path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        for workload, metrics in out["comparison"].items():
            for name, c in metrics.items():
                if c["unresolved"]:
                    print(f"unresolved: {workload} {name}: medians {c['medians']}, spreads {c['spreads']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
