"""The committed scripts: the bench report's file name, the digests' coverage and the paper scripts' runs."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from contest_rating import designer
from contest_rating.cli import _simulate_lines

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ and benchmark/
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_writes_the_next_unused_report(monkeypatch, tmp_path):
    bench = _load("bench", monkeypatch)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    assert bench.next_report_path() == tmp_path / "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}\n")
    (tmp_path / "BENCH_2.json").write_text("{}\n")
    assert bench.next_report_path() == tmp_path / "BENCH_3.json"


def test_bench_counts_the_oracle_margin_calls(monkeypatch):
    # the oracle reads each row's first feasible prize in closed form and
    # calls no margin function, so there is nothing to count: the designer
    # keeps none of the margin functions, and no oracle row records a count
    bench = _load("bench", monkeypatch)
    names = [name for name, *_ in bench.FUNCTION_ROWS]
    assert not any(hasattr(designer, name) for name in ("compliance_margins", "rating0_margins", "rating1_margin"))
    rows = [bench.time_function_row(i) for i, name in enumerate(names) if "oracle" in name or "base_price" in name]
    assert len(rows) == 4
    assert all("margin_calls_per_call" not in row for row in rows)


def test_bench_records_the_oracle_tracemalloc_peak(monkeypatch):
    # each brute_force_oracle row records the tracemalloc peak of one
    # untimed call, in MB; a row of another function records none
    bench = _load("bench", monkeypatch)
    names = [name for name, *_ in bench.FUNCTION_ROWS]
    rows = {name: bench.time_function_row(i) for i, name in enumerate(names) if name.startswith("brute_force_oracle")}
    assert len(rows) == 3
    for name, row in rows.items():
        assert 0.0 < row["tracemalloc_peak_mb"] < 2.0, name
    assert "tracemalloc_peak_mb" not in bench.time_function_row(names.index("is_sustainable"))
    row = rows["brute_force_oracle, r=40"]
    summary = bench.across_processes([row, {**row, "tracemalloc_peak_mb": 1.0}, row])
    assert summary["tracemalloc_peak_mb"] == row["tracemalloc_peak_mb"]


def test_bench_counts_the_coefficient_grid_calls_of_optimize(monkeypatch):
    # the optimize row records the _coefficient_grid calls of one call: one
    # grid for both boundary cases; the count's wrapper is gone afterwards
    bench = _load("bench", monkeypatch)
    names, grid = [name for name, *_ in bench.FUNCTION_ROWS], bench.incentives._coefficient_grid
    row = bench.time_function_row(names.index("optimize, default environment, m=100"))
    assert bench.incentives._coefficient_grid is grid
    assert row["coefficient_grid_calls_per_call"] == 1
    assert "margin_calls_per_call" not in row
    assert "coefficient_grid_calls_per_call" not in bench.time_function_row(names.index("is_sustainable"))


def test_bench_sim_long_row_runs_what_a_simulate_op_runs(monkeypatch, tmp_path, capsys):
    # the row's call gives the rows that simulate prints for the same
    # protocol and shape, whose periods already reach the utility horizon
    bench = _load("bench", monkeypatch)
    rows = {name: factory for name, _, factory in bench.FUNCTION_ROWS}
    call = rows["run_chain + run_utility, sim_long shape (2000 x 2 x 4)"](bench.default_params())
    design, _, config = call.args
    chain, utility = call()
    cfg = tmp_path / "env.cfg"
    cfg.write_text(bench.DEFAULT_CONFIG)
    argv = ["simulate", str(cfg), "--alpha", repr(design.alpha), "--beta", repr(design.beta),
            "--gamma1", repr(design.gamma1), "--periods", str(config.periods),
            "--replicates", str(config.replicates), "--population", str(config.population)]
    capsys.readouterr()
    assert bench.cli_main(argv) == 0
    assert capsys.readouterr().out.splitlines() == _simulate_lines(chain, utility)


def test_design_digest_runs_every_design_command(monkeypatch, capsys):
    digest = _load("design_digest", monkeypatch)
    run, outputs = digest.run, {"design": [], "sweep": [], "check": []}

    def recording(sha, argv):
        out = run(sha, argv)
        outputs[argv[0]].append(out)
        return out

    monkeypatch.setattr(digest, "run", recording)
    assert digest.main(["--seeds", "0"]) == 0
    out = capsys.readouterr().out
    assert len(out) == 65 and int(out, 16) >= 0  # one sha256 hex line
    workloads = digest.workloads
    sweeps, joint, jitter = workloads.design_environments(0)
    assert len(outputs["design"]) == len(sweeps + joint + jitter) + workloads.ORACLE_OPS
    assert len(outputs["sweep"]) == len(workloads.SWEEPS)
    # one check per feasible design printed, and each one is sustainable
    feasible = sum(o.startswith("feasible=true\n") for o in outputs["design"])
    feasible += sum(o.count(",true\n") for o in outputs["sweep"])
    assert feasible > len(workloads.SWEEPS)
    assert len(outputs["check"]) == feasible
    assert all(o.endswith("sustainable=true\n") for o in outputs["check"])


def test_design_digest_keeps_the_seed_0_bytes(monkeypatch, capsys):
    # the design, sweep and check bytes of seed 0, pinned: the check rows
    # print the certificate, which no benchmark reference covers
    digest = _load("design_digest", monkeypatch)
    assert digest.main(["--seeds", "0"]) == 0
    assert capsys.readouterr().out == "0e5027fd46196df3b099ab0b8971e616084fdfa4738b6cecadbd13790db64493\n"


def test_sim_digest_runs_every_simulate_op(monkeypatch, capsys):
    digest = _load("sim_digest", monkeypatch)
    monkeypatch.setattr(digest, "SHAPES", ((270, 2, 2),))  # the least horizon at delta = 0.95
    monkeypatch.setattr(digest, "DESIGNS", digest.DESIGNS[2:3])
    main, codes = digest.cli_main, []

    def recording(argv):
        codes.append(main(argv))
        return codes[-1]

    monkeypatch.setattr(digest, "cli_main", recording)
    assert digest.main(["--seeds", "0"]) == 0
    out = capsys.readouterr().out
    assert len(out) == 65 and int(out, 16) >= 0  # one sha256 hex line
    with tempfile.TemporaryDirectory() as tmp:
        ops = [digest.workloads.build_ops(w, 0, Path(tmp)) for w in ("sim_long", "sim_wide")]
    assert len(codes) == sum(map(len, ops)) and set(codes) == {0}


def test_ab_pairs_two_copies_of_one_tree_and_fails_when_they_differ(tmp_path):
    # two copies of src/ time alike and give the same results; a copy whose
    # default environment and case name differ fails a function row and a
    # workload alike
    for side in ("a", "b"):
        shutil.copytree(SCRIPTS.parent / "src" / "contest_rating", tmp_path / side / "src" / "contest_rating",
                        ignore=shutil.ignore_patterns("__pycache__"))

    def ab(row, pairs):
        proc = subprocess.run([sys.executable, str(SCRIPTS / "ab.py"), str(tmp_path / "a"), str(tmp_path / "b"),
                               row, "--pairs", str(pairs)], capture_output=True, text=True, timeout=300)
        return proc.returncode, json.loads(proc.stdout)

    code, report = ab("is_sustainable", 4)
    assert code == 0 and report["row"] == "is_sustainable" and report["pairs"] == 4
    low, high = report["ratio_interval"]
    assert low <= report["ratio_median"] <= high and report["differing_results"] == 0
    assert report["minflt_pads"] >= 8 and min(report["a_minflt_per_call"], report["b_minflt_per_call"]) >= 0
    code, report = ab("design_sweep", 1)
    assert code == 0 and report["per_block"] == 96 and report["differing_results"] == 0

    package = tmp_path / "b" / "src" / "contest_rating"
    for name, old, new in (("params.py", "c1=0.1,", "c1=0.11,"), ("designer.py", '"alpha=1"', '"alpha=one"')):
        text = (package / name).read_text()
        assert old in text
        (package / name).write_text(text.replace(old, new))
    for row in ("optimize", "design_sweep"):  # every design output names both cases
        code, report = ab(row, 1)
        assert code == 1 and report["differing_results"] == 2 * report["per_block"]  # the warm-up's and the pair's


@pytest.mark.parametrize(
    "script, argv, header",
    [
        ("reproduce_trends", ["--grid-m", "10"], "== sweep c1 (c2=0.05) =="),
        ("oracle_check", ["--grid-m", "10", "--oracle-r", "10", "--base-price-r", "10"],
         "c1    optimizer (a, b, g1, U)              oracle (a, b, g1, U)                gap"),
        ("deviation_experiment", ["--replicates", "2", "--population", "3"],
         "worker  rating  compliant   attack-once   difference   verdict"),
    ],
)
def test_paper_scripts_run_on_small_inputs(script, argv, header):
    # each paper script runs end to end through the package's public API and prints its table header
    paths = [str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{script}.py"), *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines(), proc.stdout[:300]
