"""CLI surface: exit codes, key=value output, CSV determinism.

`test_sweep_holds_utility_flat_in_damage` sweeps the damage d: the
optimized utility is flat in d without attack noise (eps2 = 0) and falls
with d at the default eps2 = 0.05, where a compliant opponent's intent
lands as an attack with probability eps2.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from four_intent import deviation_gain, violations

import contest_rating
from contest_rating import (
    DesignParams,
    SimConfig,
    Strategy,
    load_config,
    run_chain,
    run_utility,
    utility_horizon,
    validate,
)
from contest_rating.cli import _OUTCOME_CSV_HEADER, main

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
    assert rows[0] == _OUTCOME_CSV_HEADER.split(",")
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
    assert rows[0] == _OUTCOME_CSV_HEADER.split(",")
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


def test_check_prices_in_house_deviations_where_the_detection_drop_is_tiny(tmp_path, capsys):
    # validate() accepts eps2 a hair below 1/2. There CA's drop in the chance
    # of being read as CN is about 1.2e-14, but SN's and SA's about 0.23, and
    # worker 2 gains about 1.1e-4 by either at rating 0. Folding those
    # margins into CA's scaled them by 5.2e-14 and certified the protocol.
    env = {"c1": 0.0754911819328727, "c2": 0.07802980849004575, "s1": 0.0538390174411238,
           "s2": 0.22551604416499396, "d": 0.16367611117546726, "delta": 0.5465453300484671,
           "eps1": 0.2699886721139114, "eps2": 0.49999999999999173}
    path = tmp_path / "tiny_drop.cfg"
    path.write_text("".join(f"{key} = {value!r}\n" for key, value in env.items()))
    params = load_config(path)
    assert not validate(params)
    protocol = {"alpha": 0.4794757037841635, "beta": 0.6138127670684463, "gamma1": 0.9049342635950107}
    argv = ["check", str(path)] + [arg for key, value in protocol.items() for arg in (f"--{key}", repr(value))]
    assert main(argv) == 2
    assert capsys.readouterr().out.splitlines() == [
        "worker,constraint,margin",
        "1,deviation-rating0,2.74314559312e-15",
        "1,deviation-rating1,-1.25041757415e-15",
        "1,combined-gap-units,-0.308003914414",
        "1,participation,-0.236142546334",
        "2,deviation-rating0,5.60196988153e-15",
        "2,deviation-rating1,1.5581727715e-15",
        "2,combined-gap-units,0.383810434913",
        "2,participation,-0.429528446441",
        "sustainable=false",
    ]
    design = DesignParams(**protocol)
    gains = [line for line in violations(design, params) if " gains " in line]
    assert gains == [f"worker 2 gains {deviation_gain(2, 0, s, design, params):.6g} by {s.value} at rating 0"
                     for s in (Strategy.SN, Strategy.SA)]


def test_negative_zero_error_rates_print_what_zero_prints(tmp_path, capsys):
    # eps1 = eps2 = -0.0 compares equal to 0.0, so the two environments share
    # the per-environment caches; both print the same bytes, whichever runs first
    from contest_rating.payoffs import payoff_table, realized_mix

    paths = {}
    for zero in ("0.0", "-0.0"):
        text = DEFAULT_CONFIG.replace("eps1 = 0.2", f"eps1 = {zero}").replace("eps2 = 0.05", f"eps2 = {zero}")
        paths[zero] = tmp_path / f"eps{zero}.cfg"
        paths[zero].write_text(text)
    commands = (
        ["design", "{cfg}", "--oracle", "--oracle-r", "20", "--grid-m", "20"],
        ["check", "{cfg}", "--alpha", "1", "--beta", "0.9", "--gamma1", "0.5"],
        ["simulate", "{cfg}", "--alpha", "1", "--beta", "0.9", "--gamma1", "0.5",
         "--periods", "50", "--replicates", "2", "--population", "5"],
    )
    outputs = []
    for order in (("0.0", "-0.0"), ("-0.0", "0.0")):
        payoff_table.cache_clear()
        realized_mix.cache_clear()
        for zero in order:
            for argv in commands:
                code = main([str(paths[zero]) if a == "{cfg}" else a for a in argv])
                outputs.append((argv[0], code, capsys.readouterr().out))
    assert [code for _, code, _ in outputs[:3]] == [2, 0, 0]  # perfect monitoring: design infeasible
    assert "eta0,0," in outputs[2][2]
    for i in range(3, len(outputs)):
        assert outputs[i] == outputs[i % 3]


def test_check_rejects_bad_design(config_path, capsys):
    argv = ["check", config_path, "--alpha", "1.5", "--beta", "0.5", "--gamma1", "0.52"]
    assert main(argv) == 1
    assert "alpha out of range" in capsys.readouterr().err


def test_check_and_simulate_share_one_set_of_protocol_options():
    # one option per DesignParams field, from one parser: the prizes and rates
    # without a default are required, and gamma0 defaults to the dataclass's
    import contest_rating.cli as cli

    commands = cli._build_parser()._subparsers._group_actions[0].choices
    options = {name: {a.dest: a for a in commands[name]._actions if a.type is float} for name in ("check", "simulate")}
    assert list(options["check"]) == [f.name for f in dataclasses.fields(DesignParams)]
    assert all(a is options["simulate"][name] for name, a in options["check"].items())
    assert [a.required for a in options["check"].values()] == [True, True, True, False]
    assert options["check"]["gamma0"].default == DesignParams.gamma0


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


def test_simulate_counters_go_to_stderr(config_path, capsys):
    argv = [
        "simulate", config_path, "--alpha", "0.5", "--beta", "0.5", "--gamma1", "0.5",
        "--periods", "50", "--replicates", "2", "--population", "5", "--seed", "3",
    ]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--counters"]) == 0
    counted = capsys.readouterr()
    assert plain.err == ""
    assert counted.out == plain.out  # stdout is the same bytes with or without the flag
    assert counted.err.count("\n") == 1  # one JSON line
    params = load_config(config_path)
    design = DesignParams(0.5, 0.5, 0.5)
    chain = run_chain(design, params, SimConfig(periods=50, replicates=2, population=5, seed=3))
    horizon = max(50, utility_horizon(params.delta))
    util = run_utility(design, params, SimConfig(periods=horizon, replicates=2, population=5, seed=3))
    assert json.loads(counted.err) == {
        name: {"horizon": r.horizon, "promotions": r.promotions, "demotions": r.demotions}
        for name, r in (("chain", chain), ("utility", util))
    }
    assert chain.promotions > 0 and util.demotions > 0


def test_simulate_refuses_a_negative_seed(config_path, capsys):
    argv = ["simulate", config_path, "--alpha", "0.5", "--beta", "0.5", "--gamma1", "0.5"]
    assert main(argv + ["--seed", "-1"]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err


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


def test_simulate_names_the_utility_horizon_that_overruns_the_draw_block(tmp_path, capsys):
    # the user's 20 periods fit; the utility horizon that delta = 0.999999
    # needs does not, so the message names that horizon and delta
    path = tmp_path / "patient.cfg"
    path.write_text(DEFAULT_CONFIG.replace("delta = 0.95", "delta = 0.999999"))
    argv = ["simulate", str(path), "--alpha", "0.5", "--beta", "0.5", "--gamma1", "0.5", "--periods", "20",
            "--population", "2"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: delta = 0.999999 needs a utility horizon of 13815504 periods"), err
    assert "draw block too large: 13815504 periods x 2 pairs" in err


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


# The exact --help text at 80 columns, of the program and of each command. The
# program's description is cli's module docstring, so an edit there shows here.
HELP = {
    "": """\
usage: contest-rating [-h] {design,sweep,check,simulate} ...

Command-line interface: design, sweep, check, simulate. All subcommands read
the eight environment parameters from a key=value config file (plain decimals,
'#' comments). Exit codes: 0 on success (for design/check: the protocol is
feasible/sustainable), 2 when the analysis finishes but the answer is negative
(infeasible design, unsustainable protocol), 1 for input errors. CSV output is
deterministic byte for byte at fixed inputs.

positional arguments:
  {design,sweep,check,simulate}
    design              optimize the protocol for a config
    sweep               re-optimize along one parameter axis
    check               sustainability report for a given protocol
    simulate            Monte-Carlo the protocol against the closed forms

options:
  -h, --help            show this help message and exit
""",
    "design": """\
usage: contest-rating design [-h] [--grid-m GRID_M] [--oracle]
                             [--oracle-r ORACLE_R] [--out OUT]
                             config

positional arguments:
  config               key=value environment file

options:
  -h, --help           show this help message and exit
  --grid-m GRID_M      gamma1 grid resolution
  --oracle             cross-check with the grid oracle
  --oracle-r ORACLE_R  oracle grid resolution
  --out OUT            also write the outcome as a one-row CSV
""",
    "sweep": """\
usage: contest-rating sweep [-h] --vary {c1,c2,s1,s2,d,delta,eps1,eps2} --from
                            START --to STOP --step STEP [--grid-m GRID_M]
                            [--out OUT]
                            config

positional arguments:
  config

options:
  -h, --help            show this help message and exit
  --vary {c1,c2,s1,s2,d,delta,eps1,eps2}
  --from START
  --to STOP
  --step STEP
  --grid-m GRID_M
  --out OUT             CSV destination (default stdout)
""",
    "check": """\
usage: contest-rating check [-h] --alpha ALPHA --beta BETA --gamma1 GAMMA1
                            [--gamma0 GAMMA0]
                            config

positional arguments:
  config

options:
  -h, --help       show this help message and exit
  --alpha ALPHA
  --beta BETA
  --gamma1 GAMMA1
  --gamma0 GAMMA0
""",
    "simulate": """\
usage: contest-rating simulate [-h] --alpha ALPHA --beta BETA --gamma1 GAMMA1
                               [--gamma0 GAMMA0] [--seed SEED]
                               [--periods PERIODS] [--replicates REPLICATES]
                               [--population POPULATION] [--out OUT]
                               [--counters]
                               config

positional arguments:
  config

options:
  -h, --help            show this help message and exit
  --alpha ALPHA
  --beta BETA
  --gamma1 GAMMA1
  --gamma0 GAMMA0
  --seed SEED
  --periods PERIODS
  --replicates REPLICATES
  --population POPULATION
                        matched pairs per replicate
  --out OUT             CSV destination (default stdout)
  --counters            also write event counts to stderr as JSON
""",
}


@pytest.mark.parametrize("command", list(HELP))
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    assert main([command, "--help"] if command else ["--help"]) == 0
    assert capsys.readouterr().out == HELP[command]
