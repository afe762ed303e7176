"""The package holds what its commands run; the test-only oracles live in tests/."""

import ast
import importlib.util
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import contest_rating
from contest_rating import designer, incentives, params, payoffs, ratings, requester, simulate

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(contest_rating.__file__).resolve().parent

# modules that left the package for tests/, with every name they held there
GONE_MODULES = {
    "stage_game": ("CASES", "even_match_payoff", "solo_effort_payoff", "first_stage_payoffs", "first_stage_matrix",
                   "productivity_mc", "McStagePayoffs", "_event_payoffs"),
    "tableio": ("fmt", "csv_line", "write_lines"),  # folded into cli, the one module that prints
}

# names that left the package: moved to tests/oracles.py or tests/scalar_reference.py, deleted
# because only tests read them, or folded into the one function that computes the same quantity
GONE = {
    requester: ("social_utility", "SocialUtility", "pair_utility", "per_winner_utility"),
    ratings: ("evolve", "rating_update_rule"),
    designer: ("boundary_case_optimum", "_guess", "_count_leading", "_rating1_at_low", "_SEARCH_CELLS"),
    params: ("Rating", "ValidationReport"),
    payoffs: ("expected_payoff",),
    incentives: ("feasibility_band", "FeasibilityBand", "_linear_interval", "_rating_gap", "one_period_values",
                 "rating_gap", "compliance_margins", "rating0_margins", "rating1_margin", "deviation_floor",
                 "_participation", "_deviation_floor", "_margin"),
}


def test_test_only_names_are_not_in_the_package():
    for module, names in GONE.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in contest_rating.__all__, name
    assert not hasattr(ratings.StationaryDistribution, "as_array")
    assert not hasattr(ratings.StationaryDistribution, "__getitem__")


def test_test_only_modules_are_not_in_the_package():
    for module, names in GONE_MODULES.items():
        assert not (PACKAGE / f"{module}.py").exists(), module
        assert importlib.util.find_spec(f"contest_rating.{module}") is None, module
        for name in names:
            assert not hasattr(contest_rating, name), name
            assert name not in contest_rating.__all__, name


def test_record_fields_that_no_command_reads_are_gone():
    gone = {
        payoffs.PayoffTable: ("detection_drop", "drop_ratio"),
        incentives.SustainabilityReport: ("design",),
        designer.OracleResult: ("gamma0",),
        incentives.WorkerIncentives: ("threshold0", "gap", "gain0", "gain1", "threshold1", "lifetime"),
    }
    for record, names in gone.items():
        kept = {f.name for f in fields(record)}
        for name in names:
            assert name not in kept, f"{record.__name__}.{name}"
    kept = [f.name for f in fields(incentives.WorkerIncentives)]
    assert kept == ["worker", "margin0", "margin1", "margin_combined", "participation", "sustainable"]


def test_only_the_cli_formats_output():
    # the model modules return records; cli alone turns them into lines
    printing = {
        designer: ("OUTCOME_CSV_HEADER", "outcome_csv_row"),
        designer.DesignOutcome: ("key_value_lines",),
        incentives.SustainabilityReport: ("rows",),
        simulate.SimResult: ("rows", "CSV_HEADER"),
    }
    for owner, names in printing.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
            assert name not in contest_rating.__all__, name
    for module in ("designer", "incentives", "simulate"):
        assert not _relative_imports(module) & {"cli", "tableio"}, module


def _relative_imports(module: str) -> set[str]:
    # the sibling modules that one module of the package imports with `from .x import ...`
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_the_cli_reaches_every_module_of_the_package():
    # a module that no command imports, directly or through another module, does not belong in src/
    reached, todo = set(), ["cli"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(_relative_imports(module))
    modules = {f.stem for f in PACKAGE.glob("*.py")} - {"__init__"}
    assert reached == modules, sorted(modules ^ reached)


def test_importing_the_package_loads_no_module_from_tests():
    # tests/ is on the child's path too, so an import of a test module from
    # the package would succeed there and show up in sys.modules
    paths = [str(Path(contest_rating.__file__).resolve().parents[1]), str(TESTS), os.environ.get("PYTHONPATH")]
    probe = "import sys, contest_rating; print('\\n'.join(str(getattr(m, '__file__', '')) for m in list(sys.modules.values())))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    loaded = [Path(f).resolve() for f in proc.stdout.splitlines() if f not in ("", "None")]
    assert any(f.parent.name == "contest_rating" for f in loaded)
    assert not [f for f in loaded if TESTS in f.parents]
