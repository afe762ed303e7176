"""The committed scripts: the bench report's file name."""

import importlib.util
import sys
from pathlib import Path

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
