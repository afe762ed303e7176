"""Time each row of the ROADMAP Baseline table and write BENCH_<n>.json.

    python3 scripts/bench.py [--out PATH]

Without --out the report goes to the first BENCH_<n>.json, n = 1, 2, ...,
that does not exist yet at the root of the repository, so no earlier
report is overwritten.

Every function row runs in PROCESSES fresh interpreters: numpy's
temporaries move glibc's mmap and trim thresholds, so a row timed after
another one can read faster or slower than it would alone, and one process
alone can read 10-30% off the next. The processes run in rounds over all
rows, as do the CLI rows' subprocesses, so a drift of the host spreads over
every row instead of landing on one. Each timed call (and each CLI
subprocess) is followed by the fixed kernel of benchmark/hostspeed.py, and
the times are also reported scaled to the kernel's reference speed, as
benchmark/run.py does: seconds x REFERENCE_S / median kernel seconds. A
function row records the median and quartiles over its processes of each
process's median; a CLI row those of its calls. A function row also records
its minor page faults per call (the ru_minflt delta of getrusage around the
timed calls, kernel runs excluded), the median over its processes: a call
whose temporaries glibc hands back to the kernel faults them in again. A
subprocess call is mostly interpreter start and import, so each CLI row
also times cli.main in this process, once per round right after the
subprocess (after one untimed warm-up call), and records the same summary
under "in_process". The brute_force_oracle rows also record
tracemalloc_peak_mb: the tracemalloc peak of one more untimed call, the
median over the processes. The optimize row records
coefficient_grid_calls_per_call: the incentives._coefficient_grid calls
that one untimed call makes, counted by wrapping that function from this
script. The file also records the Tier-1 wall time and the line count of
src/contest_rating.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "benchmark")]

import hostspeed  # noqa: E402  (benchmark/hostspeed.py, imported read-only)
import numpy  # noqa: E402
from contest_rating import (  # noqa: E402
    DesignerConfig,
    SimConfig,
    brute_force_oracle,
    default_params,
    is_sustainable,
    optimize,
    run_chain,
    run_utility,
    zero_base_price_check,
)
from contest_rating import incentives  # noqa: E402
from contest_rating.cli import main as cli_main  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
DESIGNED = ("1.0", "0.947368421053", "0.52")  # optimize(default_params()) at m = 100
SIM_LONG = SimConfig(periods=2000, replicates=4, population=2)  # the sim_long workload's shape


def chain_and_utility(design, params, config):
    """What one simulate op runs when its periods reach the utility horizon."""
    return run_chain(design, params, config), run_utility(design, params, config)


# (row, calls, factory): factory(params) does the set-up and returns the
# call to time; each of a row's processes runs it `calls` times.
FUNCTION_ROWS = [
    ("optimize, default environment, m=100", 15, lambda p: partial(optimize, p)),
    ("is_sustainable", 15, lambda p: partial(is_sustainable, optimize(p).design(), p)),
    ("brute_force_oracle, r=100", 15, lambda p: partial(brute_force_oracle, p, DesignerConfig(oracle_grid_r=100))),
    ("brute_force_oracle, r=40", 15, lambda p: partial(brute_force_oracle, p, DesignerConfig(oracle_grid_r=40))),
    ("brute_force_oracle, r=200", 7, lambda p: partial(brute_force_oracle, p, DesignerConfig(oracle_grid_r=200))),
    ("zero_base_price_check, r=40", 7,
     lambda p: partial(zero_base_price_check, p, config=DesignerConfig(oracle_grid_r=40))),
    ("run_chain, defaults (2000 periods x 16 x 50)", 9,
     lambda p: partial(run_chain, optimize(p).design(), p, SimConfig())),
    ("run_utility, horizon 270", 15,
     lambda p: partial(run_utility, optimize(p).design(), p, SimConfig(periods=270))),
    ("run_chain + run_utility, sim_long shape (2000 x 2 x 4)", 15,
     lambda p: partial(chain_and_utility, optimize(p).design(), p, SIM_LONG)),
    # so few rating events that some pair has none for 1024 periods: the rating
    # scan's exit check fails before each of its 11 passes, its worst case
    ("run_chain + run_utility, sim_long shape, sparse events (alpha = beta = 0.001)", 15,
     lambda p: partial(chain_and_utility, replace(optimize(p).design(), alpha=0.001, beta=0.001), p, SIM_LONG)),
]
# row name prefix -> (field, module, functions): the calls of those functions one call of the row makes
COUNTED = {
    "optimize": ("coefficient_grid_calls_per_call", incentives, ("_coefficient_grid",)),
}
CLI_ROWS = [
    ("CLI design", ["design", "{cfg}"]),
    ("CLI design --oracle", ["design", "{cfg}", "--oracle"]),
    ("CLI sweep, 9 points", ["sweep", "{cfg}", "--vary", "c1", "--from", "0.05", "--to", "0.45", "--step", "0.05"]),
    ("CLI check", ["check", "{cfg}", "--alpha", DESIGNED[0], "--beta", DESIGNED[1], "--gamma1", DESIGNED[2]]),
    ("CLI simulate", ["simulate", "{cfg}", "--alpha", DESIGNED[0], "--beta", DESIGNED[1], "--gamma1", DESIGNED[2]]),
]
CLI_CALLS = 7
PROCESSES = 5  # fresh processes per function row
DEFAULT_CONFIG = "c1 = 0.1\nc2 = 0.2\ns1 = 0.2\ns2 = 0.1\nd = 0.5\ndelta = 0.95\neps1 = 0.2\neps2 = 0.05\n"


def summary(seconds: list[float], kernels: list[float]) -> dict:
    """Median and quartiles in ms, as measured and scaled to the reference speed."""
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    scale = hostspeed.REFERENCE_S / statistics.median(kernels)
    return {
        "calls": len(seconds),
        "median_ms": median * 1e3,
        "q1_ms": q1 * 1e3,
        "q3_ms": q3 * 1e3,
        "iqr_ms": (q3 - q1) * 1e3,
        "scaled_median_ms": median * scale * 1e3,
        "scaled_iqr_ms": (q3 - q1) * scale * 1e3,
        "kernel_median_ms": statistics.median(kernels) * 1e3,
    }


def across_processes(children: list[dict]) -> dict:
    """Median and quartiles over processes of each process's median (raw and scaled)."""
    q1, median, q3 = statistics.quantiles([c["median_ms"] for c in children], n=4, method="inclusive")
    sq1, scaled, sq3 = statistics.quantiles(
        [c["scaled_median_ms"] for c in children], n=4, method="inclusive"
    )
    row = {
        "processes": len(children),
        "calls": children[0]["calls"],
        "median_ms": median,
        "q1_ms": q1,
        "q3_ms": q3,
        "iqr_ms": q3 - q1,
        "scaled_median_ms": scaled,
        "scaled_iqr_ms": sq3 - sq1,
        "kernel_median_ms": statistics.median(c["kernel_median_ms"] for c in children),
        "process_medians_ms": [c["median_ms"] for c in children],
        "minflt_per_call": statistics.median(c["minflt_per_call"] for c in children),
    }
    if "tracemalloc_peak_mb" in children[0]:
        row["tracemalloc_peak_mb"] = statistics.median(c["tracemalloc_peak_mb"] for c in children)
    for field in {field for field, *_ in COUNTED.values()} & children[0].keys():
        row[field] = children[0][field]  # a count, the same in every process
    return row


def counted_calls(module, names: tuple[str, ...], call) -> int:
    """Calls of the functions module.<name>, for each of `names`, made by one call of `call`."""
    functions, calls = {name: getattr(module, name) for name in names}, [0]

    def counting(function):
        def counted(*args, **kwargs):
            calls[0] += 1
            return function(*args, **kwargs)

        return counted

    for name, function in functions.items():
        setattr(module, name, counting(function))
    try:
        call()
    finally:
        for name, function in functions.items():
            setattr(module, name, function)
    return calls[0]


def traced_peak_mb(call) -> float:
    """The tracemalloc peak, in MB, of one call of `call`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def time_function_row(index: int) -> dict:
    """Run in a fresh process: time one function row after one untimed warm-up call."""
    name, calls, factory = FUNCTION_ROWS[index]
    call = factory(default_params())
    call()
    hostspeed.kernel()
    seconds, kernels, faults = [], [], 0
    for _ in range(calls):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        kernels.append(hostspeed.kernel())
    row = {**summary(seconds, kernels), "minflt_per_call": faults / calls}
    for prefix, (field, module, functions) in COUNTED.items():
        if name.startswith(prefix):
            row[field] = counted_calls(module, functions, call)
    if name.startswith("brute_force_oracle"):
        row["tracemalloc_peak_mb"] = traced_peak_mb(call)
    return row


def time_cli_call(argv: list[str]) -> tuple[float, float]:
    """(seconds of one CLI subprocess, seconds of the kernel right after it)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "contest_rating.cli", *argv], env=ENV, check=False,
                   capture_output=True)
    return time.perf_counter() - start, hostspeed.kernel()


def time_cli_main(argv: list[str]) -> tuple[float, float]:
    """(seconds of one in-process cli.main call, seconds of the kernel right after it)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        cli_main(argv)
        seconds = time.perf_counter() - start
    return seconds, hostspeed.kernel()


def tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=ENV, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"seconds": time.perf_counter() - start, "result": lines[-1] if lines else proc.stderr[-200:]}


def next_report_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="default: the next unused BENCH_<n>.json")
    parser.add_argument("--row", type=int, help=argparse.SUPPRESS)  # child mode: one function row
    args = parser.parse_args(argv)
    if args.row is not None:
        print(json.dumps(time_function_row(args.row)))
        return 0

    children = {name: [] for name, *_ in FUNCTION_ROWS}
    for _ in range(PROCESSES):
        for index, (name, *_) in enumerate(FUNCTION_ROWS):
            child = subprocess.run([sys.executable, __file__, "--row", str(index)], env=ENV,
                                   check=True, capture_output=True, text=True)
            children[name].append(json.loads(child.stdout))
    rows = {name: across_processes(runs) for name, runs in children.items()}
    for name, row in rows.items():
        print(f"{name}: {row['median_ms']:.2f} ms, {row['minflt_per_call']:.0f} minor faults per call",
              file=sys.stderr)
    hostspeed.kernel()
    timed = {name: {time_cli_call: ([], []), time_cli_main: ([], [])} for name, _ in CLI_ROWS}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "env.cfg"
        cfg.write_text(DEFAULT_CONFIG)
        argvs = {name: [str(cfg) if a == "{cfg}" else a for a in template] for name, template in CLI_ROWS}
        for argv in argvs.values():
            time_cli_main(argv)  # warm-up
        for _ in range(CLI_CALLS):
            for name, argv in argvs.items():
                for timer, (seconds, kernels) in timed[name].items():
                    measured, kernel = timer(argv)
                    seconds.append(measured)
                    kernels.append(kernel)
    for name, by_timer in timed.items():
        rows[name] = summary(*by_timer[time_cli_call])
        rows[name]["in_process"] = summary(*by_timer[time_cli_main])
        print(f"{name}: {rows[name]['median_ms']:.0f} ms,"
              f" in-process {rows[name]['in_process']['median_ms']:.1f} ms", file=sys.stderr)
    report = {
        "host": {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "reference_s": hostspeed.REFERENCE_S,
        "rows": rows,
        "tier1": tier1(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in (SRC / "contest_rating").rglob("*.py")),
    }
    out = args.out or next_report_path()
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
