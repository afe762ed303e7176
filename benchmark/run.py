"""Closed-loop benchmark of the contest-rating CLI, one workload per run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one caller, no threads: the ops of the workload (see
workloads.py) go back to back through contest_rating.cli.main(argv), in
whole passes over the seeded op list, for S seconds and at least
MIN_PASSES passes. Every op's output is checked.

The host's speed comes and goes, in bursts within a run and in drifts
across runs, so each timing is a median and is put at one reference speed:
every op is followed by the fixed kernel of hostspeed.py, and the op's
seconds are scaled by REFERENCE_S over the median time of the KERNEL_WINDOW
kernel runs nearest to it.
ops_per_s is the op list's length over the median scaled pass time (the
ops' own time, without the kernel's), op_p50_ms the median of all scaled
op latencies, and op_p90_ms the 90th percentile, over the ops of the list,
of each op's median scaled latency (a tail over inputs, not over the host's
bursts). setup_s is scaled the same way in each fresh set-up process. The
wall-clock figures are in the detail line; the per-layer timings of the
traced run are wall-clock. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, from passes over the op list that run each op once
untraced and once traced (tracing.py); the spans of the first pass are
written to .bench_out/. The line before the result starts with "detail " and holds
the failure causes and run facts as JSON.

`correct` is false when an op fails for any reason other than the one
recorded defect (workloads.KNOWN_DEFECT); ops failing for that reason
still count as failed.

The program is imported from src/ next to this directory; without it the
run exits with a nonzero code and prints no result.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5
PROBE_KERNELS = 15  # kernel runs after set-up in each probe; their median scales it
KERNEL_WINDOW = 5  # kernel runs whose median scales an op: its own and two on each side
MIN_PASSES = 3  # so that ops_per_s and each op's latency are medians of 3 or more
# The set-up probes import numpy with one BLAS thread: starting OpenBLAS's
# second thread took from ~0 to ~80 ms of an import on a 2-vCPU VM, which
# swamped setup_s. The measured ops run with the default threading.
PROBE_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def load_program():
    """Import contest_rating from this checkout's src/, then the workload module."""
    if not (SRC / "contest_rating" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {SRC / 'contest_rating'} is missing")
    sys.path.insert(0, str(SRC))
    import contest_rating.cli
    import workloads

    if Path(contest_rating.__file__).resolve().parent != SRC / "contest_rating":
        raise SystemExit(f"error: imported contest_rating from {contest_rating.__file__}")
    return contest_rating.cli, workloads


def set_up(workload: str, seed: int):
    """Import the program and write the workload's inputs; the work setup_s times."""
    cli, workloads = load_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    return cli, workloads, workdir, workloads.build_ops(workload, seed, workdir)


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set up, timed from the process's first line; then time the kernel.

    Returns (set-up seconds, median kernel seconds after it).
    """
    *_, workdir, _ = set_up(workload, seed)
    seconds = time.perf_counter() - T0
    import hostspeed

    hostspeed.kernel()  # warm-up: numpy's first calls
    kernel_s = statistics.median(hostspeed.kernel() for _ in range(PROBE_KERNELS))
    shutil.rmtree(workdir)
    return seconds, kernel_s


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, kernel seconds) of fresh processes."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
    return [
        tuple(json.loads(subprocess.run(
            argv, check=True, capture_output=True, text=True, timeout=120, env=PROBE_ENV
        ).stdout))
        for _ in range(SETUP_PROBES)
    ]


def execute(cli, op):
    """Run one op; returns (exit code or exception text, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(op.argv))
    except Exception as exc:  # an untyped exception is a failed op, not a crash
        code = f"untyped exception {type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


def judge(workloads, ops, runs, reference):
    """Check every run (index, code, output); returns (failed, unexplained, causes)."""
    first: dict[int, tuple] = {}
    for index, code, output in runs:
        first.setdefault(index, (code, output))
    pooled = workloads.check_pools(ops, {
        index: output for index, (code, output) in first.items()
        if workloads.check(ops[index], code, output) is None
    })
    causes: Counter = Counter()
    failed = unexplained = 0
    for index, code, output in runs:
        op = ops[index]
        digest = workloads.digest(code, output)
        reason = workloads.check(op, code, output) or pooled.get(index)
        if reason is None and reference is not None and digest != reference[index]:
            reason = "output differs from the recorded reference"
        if reason is None and digest != workloads.digest(*first[index]):
            reason = "output changed between repeats of the op"
        if reason is not None:
            known = workloads.known_cause(op, reason)
            failed += 1
            unexplained += known is None
            causes[known or reason] += 1
    return failed, unexplained, causes


def percentile(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(cli, ops, seconds: float):
    """Closed loop of whole passes over the op list, each op followed by the kernel.

    Returns (runs, op latencies, kernel seconds after each op), in op-list
    order, pass after pass.
    """
    import hostspeed

    runs, latencies, kernels = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(runs) < MIN_PASSES * len(ops):
        for index, op in enumerate(ops):
            code, output, elapsed = execute(cli, op)
            runs.append((index, code, output))
            latencies.append(elapsed)
            kernels.append(hostspeed.kernel())
    return runs, latencies, kernels


def local_medians(values: list[float], window: int) -> list[float]:
    """Median of the `window` values centred on each value, shifted inwards at the ends."""
    window = min(window, len(values))
    starts = (min(max(0, i - window // 2), len(values) - window) for i in range(len(values)))
    return [statistics.median(values[s:s + window]) for s in starts]


def end_to_end(workload, seed, seconds, cli, workloads, ops, reference):
    from hostspeed import REFERENCE_S

    setup = setup_seconds(workload, seed)
    runs, latencies, kernels = measure(cli, ops, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, unexplained, causes = judge(workloads, ops, runs, reference)
    n = len(runs)

    def timings(scales):
        """Latency figures with each op's latency times its scale."""
        scaled = [t * scale for t, scale in zip(latencies, scales)]
        passes = [sum(scaled[i:i + len(ops)]) for i in range(0, n, len(ops))]
        per_op = sorted(statistics.median(scaled[i::len(ops)]) for i in range(len(ops)))
        return {
            "ops_per_s": len(ops) / statistics.median(passes),
            "op_p50_ms": statistics.median(scaled) * 1e3,
            "op_p90_ms": percentile(per_op, 0.9) * 1e3,
        }

    metrics = {
        "setup_s": statistics.median(s * REFERENCE_S / k for s, k in setup),
        **timings([REFERENCE_S / k for k in local_medians(kernels, KERNEL_WINDOW)]),
        "ok_op_share": (n - failed) / n,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "wall_clock": {"setup_s": statistics.median(s for s, _ in setup), **timings([1.0] * n)},
        "setup_samples_s": setup,
        "kernel_s": {"median": statistics.median(kernels), "min": min(kernels), "max": max(kernels)},
        "op_p90_ops_beyond": len(ops) - math.ceil(0.9 * len(ops)),
    }
    return runs, failed, unexplained, causes, metrics, detail


def traced(workload, seed, seconds, cli, workloads, ops, reference):
    import tracing

    tracer = tracing.Tracer()
    runs = []
    seconds_by_mode = [0.0, 0.0]  # untraced, traced
    output_bytes = passes = 0
    start = time.perf_counter()
    while True:
        tracer.recording = passes == 0
        for index, op in enumerate(ops):
            # Each op runs untraced and traced, in alternating order, so
            # drift of the host cancels out of the overhead.
            for mode in (0, 1) if index % 2 else (1, 0):
                if mode:
                    tracer.op = index
                    tracer.install()
                try:
                    code, output, elapsed = execute(cli, op)
                finally:
                    tracer.uninstall()
                runs.append((index, code, output))
                seconds_by_mode[mode] += elapsed
                output_bytes += len(output.encode()) if mode else 0
        passes += 1
        spent = time.perf_counter() - start
        if spent + spent / passes > seconds:
            break
    untraced_s, traced_s = seconds_by_mode
    failed, unexplained, causes = judge(workloads, ops, runs, reference)
    n = passes * len(ops)  # traced ops
    metrics = tracer.metrics(n)
    metrics.update({
        "cli.output_bytes": output_bytes / n,
        "src.lines": sum(len(p.read_bytes().splitlines()) for p in (SRC / "contest_rating").rglob("*.py")),
        "trace.overhead_ms": (traced_s - untraced_s) * 1e3 / n,
    })
    spans_path = OUT / f"spans-{workload}-seed{seed}.npz"
    detail = {
        "passes": passes,
        "traced_ops": n,
        "overhead_share": traced_s / untraced_s - 1.0,
        "raised": dict(tracer.raised),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_written": tracer.write_spans(spans_path),
    }
    return runs, failed, unexplained, causes, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="run one pass at the default seed and record its output digests",
    )
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli, workloads, workdir, ops = set_up(args.workload, args.seed)
    try:
        references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        if args.record_reference:
            if args.seed != workloads.DEFAULT_SEED:
                raise SystemExit(f"error: references are recorded at seed {workloads.DEFAULT_SEED}")
            references[args.workload] = [workloads.digest(*execute(cli, op)[:2]) for op in ops]
            REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            return 0
        reference = references.get(args.workload) if args.seed == workloads.DEFAULT_SEED else None
        execute(cli, ops[0])  # warm-up: first-call costs are not an op's latency
        run = traced if args.trace else end_to_end
        runs, failed, unexplained, causes, values, detail = run(
            args.workload, args.seed, args.seconds, cli, workloads, ops, reference
        )
    finally:
        shutil.rmtree(workdir)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    detail.update(
        workload=args.workload, seed=args.seed, ops_in_list=len(ops),
        reference_checked=reference is not None, failures=dict(causes),
    )
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": unexplained == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
