"""The package holds what its commands run; the test-only oracles live in tests/."""

import os
import subprocess
import sys
from pathlib import Path

import contest_rating
from contest_rating import designer, incentives, params, payoffs, ratings, requester, stage_game

TESTS = Path(__file__).resolve().parent

# names that left the package: moved to tests/oracles.py, deleted because only tests read them,
# or folded into the one function that computes the same quantity
GONE = {
    stage_game: ("productivity_mc", "McStagePayoffs", "_event_payoffs"),
    requester: ("social_utility", "SocialUtility", "pair_utility", "per_winner_utility"),
    ratings: ("evolve", "rating_update_rule"),
    designer: ("boundary_case_optimum",),
    params: ("Rating", "ValidationReport"),
    payoffs: ("expected_payoff",),
    incentives: ("feasibility_band", "FeasibilityBand", "_linear_interval", "_rating_gap", "one_period_values",
                 "rating_gap"),
}


def test_test_only_names_are_not_in_the_package():
    for module, names in GONE.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in contest_rating.__all__, name
    assert not hasattr(ratings.StationaryDistribution, "as_array")
    assert not hasattr(ratings.StationaryDistribution, "__getitem__")


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
