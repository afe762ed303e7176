"""CLI surface: exit codes, key=value output, CSV determinism.

`test_sweep_holds_utility_flat_in_damage` sweeps the damage d: the
optimized utility is flat in d without attack noise (eps2 = 0) and falls
with d at the default eps2 = 0.05, where a compliant opponent's intent
lands as an attack with probability eps2.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import contest_rating
from contest_rating import OUTCOME_CSV_HEADER
from contest_rating.cli import main

# child interpreters import the package this process imported, also where
# only pytest's own pythonpath setting put it on sys.path
_PATHS = [str(Path(contest_rating.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, _PATHS))}

DEFAULT_CONFIG = """\
# baseline environment
c1 = 0.1
c2 = 0.2
s1 = 0.2
s2 = 0.1
d = 0.5
delta = 0.95
eps1 = 0.2
eps2 = 0.05
"""


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "defaults.cfg"
    path.write_text(DEFAULT_CONFIG)
    return str(path)


@pytest.fixture(scope="module")
def cheap_c2_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cheap_c2.cfg"
    path.write_text(DEFAULT_CONFIG.replace("c2 = 0.2", "c2 = 0.05"))
    return str(path)


@pytest.fixture(scope="module")
def quiet_attack_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "eps2_zero.cfg"
    path.write_text(DEFAULT_CONFIG.replace("eps2 = 0.05", "eps2 = 0.0"))
    return str(path)


def _kv(out: str) -> dict:
    pairs = [line.split("=", 1) for line in out.strip().splitlines() if "=" in line]
    return {k: v for k, v in pairs}


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()]


def test_design_defaults(config_path, capsys):
    assert main(["design", config_path]) == 0
    kv = _kv(capsys.readouterr().out)
    assert kv["feasible"] == "true"
    assert kv["case"] == "alpha=1"
    assert kv["alpha"] == "1"
    assert kv["gamma1"] == "0.52"
    assert kv["gamma0"] == "0"
    assert kv["sustainable"] == "true"


def test_design_csv_out(config_path, capsys, tmp_path):
    out = tmp_path / "design.csv"
    assert main(["design", config_path, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = _csv_rows(out.read_text())
    assert rows[0] == OUTCOME_CSV_HEADER.split(",")
    assert len(rows) == 2 and len(rows[1]) == 15
    assert rows[1][10] == "0.52"
    assert rows[1][-1] == "true"


def test_design_oracle_crosscheck(config_path, capsys):
    assert main(["design", config_path, "--oracle", "--oracle-r", "40", "--grid-m", "50"]) == 0
    kv = _kv(capsys.readouterr().out)
    assert kv["oracle_feasible"] == "true"
    assert kv["oracle_gamma1"] == "0.525"
    assert float(kv["oracle_gap"]) < 0.02


def test_design_infeasible_exits_2(tmp_path, capsys):
    path = tmp_path / "myopic.cfg"
    path.write_text(DEFAULT_CONFIG.replace("delta = 0.95", "delta = 0.0"))
    assert main(["design", str(path)]) == 2
    kv = _kv(capsys.readouterr().out)
    assert kv["feasible"] == "false"


def test_missing_key_exits_1(tmp_path, capsys):
    path = tmp_path / "partial.cfg"
    path.write_text(DEFAULT_CONFIG.replace("c2 = 0.2\n", ""))
    assert main(["design", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error: missing key: 'c2'" in err


def test_unreadable_config_exits_1(tmp_path, capsys):
    assert main(["design", str(tmp_path / "nope.cfg")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_flag_exits_1(config_path, capsys):
    assert main(["design", config_path, "--frobnicate"]) == 1
    capsys.readouterr()


def test_no_command_exits_1(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_sweep_prize_grows_with_own_cost(cheap_c2_config, capsys):
    argv = [
        "sweep", cheap_c2_config, "--vary", "c1",
        "--from", "0.05", "--to", "0.45", "--step", "0.05", "--grid-m", "50",
    ]
    assert main(argv) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert rows[0] == OUTCOME_CSV_HEADER.split(",")
    assert len(rows) == 10
    assert all(row[-1] == "true" for row in rows[1:])
    c1s = [float(row[0]) for row in rows[1:]]
    assert c1s == pytest.approx([0.05 + 0.05 * k for k in range(9)])
    prizes = [float(row[10]) for row in rows[1:]]
    assert all(b >= a - 1e-9 for a, b in zip(prizes, prizes[1:]))


def test_sweep_flags_out_of_range_points(config_path, capsys):
    argv = [
        "sweep", config_path, "--vary", "c1",
        "--from", "0.9", "--to", "1.0", "--step", "0.05", "--grid-m", "50",
    ]
    assert main(argv) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 4
    assert rows[-1][-1] == "invalid"  # c1 = 1.0 is out of the open unit interval
    assert all(row[-1] in ("true", "false", "invalid") for row in rows[1:])


def test_sweep_argument_errors(config_path, capsys):
    bad_step = [
        "sweep", config_path, "--vary", "d",
        "--from", "0.3", "--to", "0.5", "--step", "0",
    ]
    assert main(bad_step) == 1
    assert "error:" in capsys.readouterr().err
    reversed_range = [
        "sweep", config_path, "--vary", "d",
        "--from", "0.5", "--to", "0.3", "--step", "0.1",
    ]
    assert main(reversed_range) == 1
    assert "empty sweep" in capsys.readouterr().err
    unknown_key = [
        "sweep", config_path, "--vary", "zeta",
        "--from", "0.1", "--to", "0.2", "--step", "0.1",
    ]
    assert main(unknown_key) == 1
    capsys.readouterr()


def test_sweep_utility_falls_with_attack_noise(config_path, capsys):
    argv = [
        "sweep", config_path, "--vary", "eps2",
        "--from", "0.01", "--to", "0.16", "--step", "0.05", "--grid-m", "50",
    ]
    assert main(argv) == 0
    rows = _csv_rows(capsys.readouterr().out)
    utilities = [float(row[12]) for row in rows[1:]]
    assert len(utilities) == 4
    assert all(b <= a + 1e-9 for a, b in zip(utilities, utilities[1:]))


def test_sweep_holds_utility_flat_in_damage(config_path, quiet_attack_config, capsys):
    # d enters the payoff lines only as -eps2*d in the intercepts, so no
    # deviation gain depends on d; only participation tightens as d grows
    def utilities(config):
        argv = [
            "sweep", config, "--vary", "d",
            "--from", "0.3", "--to", "0.7", "--step", "0.05", "--grid-m", "50",
        ]
        assert main(argv) == 0
        rows = _csv_rows(capsys.readouterr().out)
        return [float(row[12]) for row in rows[1:]]

    noisy = utilities(config_path)
    assert len(noisy) == 9
    assert all(b <= a + 1e-9 for a, b in zip(noisy, noisy[1:])), f"utility over d: {noisy}"
    clean = utilities(quiet_attack_config)
    assert len(clean) == 9
    assert max(clean) - min(clean) <= 1e-6, f"utility over d at eps2 = 0: {clean}"


def test_check_designed_protocol(config_path, capsys):
    argv = [
        "check", config_path,
        "--alpha", "1.0", "--beta", "0.9473684210526314", "--gamma1", "0.52",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "worker,constraint,margin"
    body = [line.split(",") for line in lines[1:-1]]
    assert len(body) == 8
    assert {row[1] for row in body} == {
        "deviation-rating0", "deviation-rating1", "combined-gap-units", "participation",
    }
    assert all(float(row[2]) >= -1e-9 for row in body)
    assert lines[-1] == "sustainable=true"


def test_check_unsustainable_exits_2(config_path, capsys):
    argv = ["check", config_path, "--alpha", "1.0", "--beta", "0.0", "--gamma1", "0.52"]
    assert main(argv) == 2
    assert "sustainable=false" in capsys.readouterr().out


def test_check_counts_in_house_deviation(tmp_path, capsys):
    # every CA row clears, but worker 1 gains about 0.0072 by intending SN
    # at rating 0, so the protocol is not sustainable
    path = tmp_path / "c1_030.cfg"
    path.write_text(DEFAULT_CONFIG.replace("c1 = 0.1", "c1 = 0.3"))
    argv = [
        "check", str(path),
        "--alpha", "0.375", "--beta", "0.95", "--gamma1", "0.65", "--gamma0", "0.45",
    ]
    assert main(argv) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    body = [line.split(",") for line in lines[1:-1]]
    assert len(body) == 8
    assert all(float(row[2]) >= -1e-9 for row in body)
    assert lines[-1] == "sustainable=false"


def test_check_rejects_bad_design(config_path, capsys):
    argv = ["check", config_path, "--alpha", "1.5", "--beta", "0.5", "--gamma1", "0.52"]
    assert main(argv) == 1
    assert "alpha out of range" in capsys.readouterr().err


def test_simulate_deterministic_csv(config_path, capsys, tmp_path):
    base = [
        "simulate", config_path,
        "--alpha", "0.5", "--beta", "0.5", "--gamma1", "0.5",
        "--periods", "60", "--replicates", "2", "--population", "6", "--seed", "9",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(base + ["--out", str(first)]) == 0
    assert main(base + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    rows = _csv_rows(first.read_text())
    assert rows[0] == ["metric", "analytic", "empirical", "stderr", "z"]
    assert [row[0] for row in rows[1:]] == [
        "eta0", "eta1", "social", "vinf_w1_r0", "vinf_w2_r0", "vinf_w1_r1", "vinf_w2_r1",
    ]
    reseeded = tmp_path / "c.csv"
    assert main(base[:-2] + ["--seed", "10", "--out", str(reseeded)]) == 0
    capsys.readouterr()
    assert reseeded.read_bytes() != first.read_bytes()


@pytest.mark.parametrize("delta", ["0.1", "0.01", "0.001"])
def test_simulate_where_the_log_horizon_lands_on_the_bound(tmp_path, capsys, delta):
    # ceil(log(1e-6) / log(delta)) gives n with delta**n == 1e-6 after rounding
    path = tmp_path / "short.cfg"
    path.write_text(DEFAULT_CONFIG.replace("delta = 0.95", f"delta = {delta}"))
    argv = [
        "simulate", str(path), "--alpha", "0.5", "--beta", "0.5", "--gamma1", "0.5",
        "--periods", "1", "--replicates", "2", "--population", "2",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_simulate_refuses_an_oversized_horizon(tmp_path, capsys, monkeypatch):
    # at delta = 0.999999 the utility horizon is 13,815,504 periods; the
    # simulator is replaced so that nothing is drawn should the check fail
    def no_run(*args):
        raise AssertionError("simulated past the draw-block limit")

    monkeypatch.setattr("contest_rating.cli.run_chain", no_run)
    monkeypatch.setattr("contest_rating.cli.run_utility", no_run)
    path = tmp_path / "patient.cfg"
    path.write_text(DEFAULT_CONFIG.replace("delta = 0.95", "delta = 0.999999"))
    argv = ["simulate", str(path), "--alpha", "0.5", "--beta", "0.5", "--gamma1", "0.5"]
    assert main(argv) == 1
    assert "draw block too large" in capsys.readouterr().err


def test_simulate_rejects_single_replicate(config_path, capsys):
    argv = [
        "simulate", config_path,
        "--alpha", "0.5", "--beta", "0.5", "--gamma1", "0.5", "--replicates", "1",
    ]
    assert main(argv) == 1
    assert "replicates" in capsys.readouterr().err


def test_module_entry_point(config_path):
    proc = subprocess.run(
        [sys.executable, "-m", "contest_rating.cli", "design", config_path],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "feasible=true" in proc.stdout


def test_parser_is_built_once(config_path, capsys):
    import contest_rating.cli as cli

    probe = "import contest_rating.cli as c; print(c._build_parser.cache_info().currsize)"
    fresh = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=CHILD_ENV
    )
    assert fresh.stdout.strip() == "0"  # importing the CLI builds no parser
    assert main(["design", config_path, "--grid-m", "20"]) == 0
    parser = cli._build_parser()
    assert main(["design", config_path, "--grid-m", "5x"]) == 1  # bad input on the reused parser
    assert main(["design", config_path, "--grid-m", "20"]) == 0
    assert cli._build_parser() is parser
    out = capsys.readouterr().out.split("feasible=")
    assert out[1] == out[2]
