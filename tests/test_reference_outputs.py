"""The CLI output at the benchmark's default seed is pinned.

Rebuilds the seed-0 op list of every workload with
`benchmark/workloads.py`, runs every op through `cli.main`, and compares
each output digest with `benchmark/reference.json`. Both files are only
read. A change in what `design`, `design --oracle` or `simulate` prints
fails here, not only in the benchmark.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from contest_rating.cli import main

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARK))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCHMARK))
    return workloads


@pytest.mark.parametrize("workload", ["design_sweep", "oracle_check", "sim_long", "sim_wide"])
def test_default_seed_outputs_match_reference(workloads, workload, tmp_path):
    reference = json.loads((BENCHMARK / "reference.json").read_text(encoding="utf-8"))[workload]
    ops = workloads.build_ops(workload, workloads.DEFAULT_SEED, tmp_path)
    assert len(ops) == len(reference)
    mismatched = []
    for index, op in enumerate(ops):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(op.argv))
        if workloads.digest(code, out.getvalue()) != reference[index]:
            mismatched.append(" ".join(op.argv[:1] + op.argv[2:]) + f" on {op.params}")
    assert mismatched == []
