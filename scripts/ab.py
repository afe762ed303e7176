"""Paired in-process A/B timing of two source trees of contest_rating.

    python3 scripts/ab.py TREE_A TREE_B ROW [--pairs N] [--seed S]

TREE_A and TREE_B are checkouts that each hold src/contest_rating (say,
a parent commit and a change). Both packages are imported into this one
process, under the package names contest_rating_a and contest_rating_b,
so the host's drift lands on both sides alike.

ROW is a function row of scripts/bench.py (its name, or a prefix that
picks one row) or a benchmark workload (design_sweep, oracle_check,
sim_long, sim_wide):
- A function row is set up once per side by this script's bench.py,
  loaded once per side with that side's package as contest_rating, so its
  inputs are built from that side's params class (the caches key on it).
  A block is the row's number of calls.
- A workload's ops come from benchmark/workloads.py, imported read-only,
  for seed S, with their config files in a temporary directory. A block
  is one pass over the op list, each op through the side's cli.main; its
  time is the sum of the ops' times.

After one untimed block per side, each pair times one block per side,
side A first in even pairs and side B first in odd ones. The report (JSON
on stdout) gives each side's median seconds per call or op, the median of
the pairs' ratios B / A with a percentile bootstrap 95% interval of that
median, and the number of pairs in which B was faster. It also gives each
side's minor page faults per call or op (the getrusage ru_minflt delta
around one block): after the pairs, one block per side runs behind each
of the PADS bytearray heap pads, and the median over the pads is
reported, so no one heap layout decides the count. Every call's result
(by repr) and every op's exit code and output are compared between the
sides; the script exits with 1 if any differ, and with 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "contest_rating"
WORKLOADS = ("design_sweep", "oracle_check", "sim_long", "sim_wide")
BOOTSTRAP = 2000  # resamples of the pairs' ratios
# bytearray sizes below glibc's 128 KiB mmap threshold, so each pad moves the heap
# top that a block's temporaries are carved from
PADS = tuple(8192 + 16384 * i for i in range(8))


def import_tree(tree: Path, name: str):
    """Import tree/src/contest_rating and all its modules as the package `name`."""
    package_dir = tree / "src" / PACKAGE
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(package_dir.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    return package


@contextlib.contextmanager
def as_contest_rating(name: str):
    """Within the block, `import contest_rating[.module]` gives the package imported as `name`."""
    def ours(key, prefix):
        return key == prefix or key.startswith(prefix + ".")

    saved = {key: sys.modules.pop(key) for key in [k for k in sys.modules if ours(k, PACKAGE)]}
    aliases = [PACKAGE + key[len(name):] for key in sys.modules if ours(key, name)]
    for alias in aliases:
        sys.modules[alias] = sys.modules[name + alias[len(PACKAGE):]]
    path = list(sys.path)
    try:
        yield
    finally:
        sys.path[:] = path
        for alias in aliases:
            sys.modules.pop(alias, None)
        sys.modules.update(saved)


def load_file(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def function_row(row: str, packages: dict):
    """(row name, block size, {side: call}) of the one scripts/bench.py row that `row` names."""
    calls = {}
    for side, name in packages.items():
        with as_contest_rating(name):
            bench = load_file(ROOT / "scripts" / "bench.py", f"bench_{side}")
        matches = [entry for entry in bench.FUNCTION_ROWS if entry[0] == row]
        matches = matches or [entry for entry in bench.FUNCTION_ROWS if entry[0].startswith(row)]
        if len(matches) != 1:
            names = [entry[0] for entry in bench.FUNCTION_ROWS]
            raise SystemExit(f"error: {row!r} names {len(matches)} of the bench rows {names}")
        (full_name, block, factory), = matches
        calls[side] = factory(bench.default_params())
    return full_name, block, calls


def time_calls(call, block: int):
    """(seconds, results) of `block` calls."""
    results = []
    start = time.perf_counter()
    for _ in range(block):
        results.append(call())
    return time.perf_counter() - start, [repr(r) for r in results]


def run_ops(cli, ops):
    """(seconds of the ops alone, [(exit code or exception text, stdout)]) of one pass."""
    seconds, outputs = 0.0, []
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            except Exception as exc:  # an untyped exception is an output like any other
                code = f"untyped exception {type(exc).__name__}: {exc}"
            seconds += time.perf_counter() - start
        outputs.append((code, out.getvalue()))
    return seconds, outputs


def minor_faults(block) -> int:
    """Minor page faults of one run of `block`."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    block()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def bootstrap_interval(ratios: list[float], seed: int) -> tuple[float, float]:
    """Percentile bootstrap 95% interval of the median of `ratios`."""
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP))
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("row", help="a scripts/bench.py function row (or a prefix of one) or a workload")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0, help="the workload's seed and the bootstrap's")
    args = parser.parse_args(argv)
    packages = {side: f"{PACKAGE}_{side}" for side in ("a", "b")}
    for (side, name), tree in zip(packages.items(), (args.tree_a, args.tree_b)):
        import_tree(tree.resolve(), name)

    with contextlib.ExitStack() as stack:
        if args.row in WORKLOADS:
            with as_contest_rating(packages["a"]):
                sys.path.insert(0, str(ROOT / "benchmark"))
                workloads = load_file(ROOT / "benchmark" / "workloads.py", "ab_workloads")
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            ops = workloads.build_ops(args.row, args.seed, workdir)
            clis = {side: sys.modules[f"{name}.cli"] for side, name in packages.items()}
            name, per_block = args.row, len(ops)
            blocks = {side: (lambda cli=cli: run_ops(cli, ops)) for side, cli in clis.items()}
        else:
            name, per_block, calls = function_row(args.row, packages)
            blocks = {side: (lambda call=call: time_calls(call, per_block)) for side, call in calls.items()}

        seconds = {side: [] for side in blocks}
        differ = 0
        for pair in range(-1, args.pairs):  # pair -1 is the untimed warm-up
            order = ("a", "b") if pair % 2 == 0 else ("b", "a")
            results = {}
            for side in order:
                gc.collect()
                elapsed, results[side] = blocks[side]()
                if pair >= 0:
                    seconds[side].append(elapsed)
            differ += sum(x != y for x, y in zip(results["a"], results["b"]))

        faults = {side: [] for side in blocks}
        for index, size in enumerate(PADS):
            pad = bytearray(size)  # held while both sides run
            for side in ("a", "b") if index % 2 == 0 else ("b", "a"):
                gc.collect()
                faults[side].append(minor_faults(blocks[side]) / per_block)
            del pad

    ratios = [b / a for a, b in zip(seconds["a"], seconds["b"])]
    low, high = bootstrap_interval(ratios, args.seed)
    report = {
        "row": name,
        "pairs": args.pairs,
        "per_block": per_block,
        "a_ms": statistics.median(seconds["a"]) * 1e3 / per_block,
        "b_ms": statistics.median(seconds["b"]) * 1e3 / per_block,
        "ratio_median": statistics.median(ratios),
        "ratio_interval": [low, high],
        "b_faster_pairs": sum(r < 1.0 for r in ratios),
        "differing_results": differ,
        "a_minflt_per_call": statistics.median(faults["a"]),
        "b_minflt_per_call": statistics.median(faults["b"]),
        "minflt_pads": len(PADS),
    }
    print(json.dumps(report))
    if differ:
        print(f"error: {differ} results differ between {args.tree_a} and {args.tree_b}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
