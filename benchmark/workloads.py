"""Benchmark inputs and output checks.

A workload is a list of ops; an op is one `contest-rating` command line
plus the environment it reads. The list is a pure function of the
workload name and the seed, so the same seed gives the same inputs. Each
op's output is checked on its own; a check returns the reason an op
failed, or None.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from contest_rating.params import IntrinsicParams, default_params
from contest_rating.requester import social_utility_closed

WORKLOADS = ("design_sweep", "oracle_check", "sim_long", "sim_wide")
DEFAULT_SEED = 0

GRID_M = 100  # gamma1 grid of the optimizer and of the oracle in oracle_check ops
ORACLE_R = 100

# The eight one-axis sweeps around default_params(): the axes, ranges and
# steps of acceptance criterion 09 and scripts/reproduce_trends.py, plus c2
# (the keys `contest-rating sweep --vary` accepts).
SWEEPS = (
    ("c1", {"c2": 0.05}, 0.05, 0.45, 0.05),
    ("c2", {}, 0.05, 0.45, 0.05),
    ("s1", {}, 0.05, 0.45, 0.05),
    ("s2", {}, 0.05, 0.45, 0.05),
    ("d", {}, 0.30, 0.70, 0.05),
    ("delta", {}, 0.56, 0.98, 0.06),
    ("eps1", {}, 0.02, 0.34, 0.04),
    ("eps2", {}, 0.01, 0.17, 0.02),
)
# eps1 = eps2 from 0: the first point is perfect monitoring.
JOINT_EPS = tuple(round(0.02 * k, 4) for k in range(9))
JITTER_POINTS = 16
ORACLE_OPS = 24  # the joint axis plus a seeded sample of the other environments
# Jitter points are drawn uniformly from the hull of the sweep ranges, which
# lies inside the validated domain.
JITTER_RANGES = {
    "c1": (0.05, 0.45), "c2": (0.05, 0.45), "s1": (0.05, 0.45), "s2": (0.05, 0.45),
    "d": (0.30, 0.70), "delta": (0.56, 0.98), "eps1": (0.02, 0.34), "eps2": (0.01, 0.17),
}

# Protocols the optimizer designs at m = 100 for environments at delta = 0.95
# (default_params() with one field changed), so the utility horizon is 270
# periods throughout. Fixed here so simulate inputs do not depend on the designer.
SIM_PROTOCOLS = (
    ({}, "1", "0.947368421053", "0.52"),
    ({"c2": 0.15}, "1", "0.941812865497", "0.41"),
    ({"c2": 0.3}, "0.990106846063", "1", "0.75"),
    ({"s2": 0.2}, "1", "0.998650472335", "0.54"),
    ({"d": 0.4}, "1", "0.978899952584", "0.51"),
    ({"eps1": 0.1}, "1", "0.900570391496", "0.51"),
    ({"eps1": 0.26}, "1", "0.979695436526", "0.53"),
    ({"eps2": 0.09}, "0.994035569693", "1", "0.62"),
)
SIM_SEEDS_PER_PROTOCOL = 4  # ops per protocol, differing only in --seed
SIM_REPLICATES = 4
SIM_SHAPES = {"sim_long": (2000, 2), "sim_wide": (270, 300)}  # (periods, matched pairs)
# The ops of one protocol differ only in --seed, so their replicate means pool
# into one sample of 16 (the simulator's default replicate count), and the
# pooled z is Student's t with 15 degrees of freedom. Z_BOUND is its
# two-sided 1e-7 quantile.
POOLED_REPLICATES = SIM_SEEDS_PER_PROTOCOL * SIM_REPLICATES
Z_BOUND = 9.48

KNOWN_DEFECT = (
    "perfect monitoring (eps1 = eps2 = 0) is designed infeasible although the "
    "oracle finds a protocol (ROADMAP open item 3)"
)
ORACLE_MISSED = "feasible=false while oracle_feasible=true"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]  # argv[0] is the command: "design" or "simulate"
    params: IntrinsicParams

    @property
    def perfect_monitoring(self) -> bool:
        return self.params.eps1 == 0.0 and self.params.eps2 == 0.0


def _env(base: dict | None = None, **fields) -> IntrinsicParams:
    values = dict(vars(default_params()))
    values.update(base or {})
    values.update(fields)
    return IntrinsicParams(**{k: round(v, 4) for k, v in values.items()})


def design_environments(seed: int):
    """(one-axis sweeps, the joint-monitoring axis, seeded jitter points)."""
    sweeps = []
    for key, base, start, stop, step in SWEEPS:
        count = int(round((stop - start) / step)) + 1
        sweeps.extend(_env(base, **{key: start + k * step}) for k in range(count))
    joint = [_env(eps1=e, eps2=e) for e in JOINT_EPS]
    rng = random.Random(f"jitter-{seed}")
    jitter = [
        _env(**{k: rng.uniform(lo, hi) for k, (lo, hi) in JITTER_RANGES.items()})
        for _ in range(JITTER_POINTS)
    ]
    return sweeps, joint, jitter


def config_text(params: IntrinsicParams) -> str:
    return "".join(f"{key}={value:.4f}\n" for key, value in vars(params).items())


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the config files for `workload` into workdir and return its op list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload: {workload!r}")
    rng = random.Random(f"{workload}-{seed}")
    configs: dict[IntrinsicParams, str] = {}

    def config(params: IntrinsicParams) -> str:
        if params not in configs:
            path = workdir / f"env{len(configs):03d}.cfg"
            path.write_text(config_text(params), encoding="utf-8")
            configs[params] = str(path)
        return configs[params]

    if workload in ("design_sweep", "oracle_check"):
        sweeps, joint, jitter = design_environments(seed)
        if workload == "design_sweep":
            envs = sweeps + joint + jitter
        else:
            envs = joint + rng.sample(sweeps + jitter, ORACLE_OPS - len(joint))
        extra = ("--oracle", "--grid-m", str(GRID_M), "--oracle-r", str(ORACLE_R))
        ops = [
            Op(("design", config(p)) + (extra if workload == "oracle_check" else ()), p)
            for p in envs
        ]
    else:
        periods, pairs = SIM_SHAPES[workload]
        ops = []
        for fields, alpha, beta, gamma1 in SIM_PROTOCOLS:
            p = _env(**fields)
            for _ in range(SIM_SEEDS_PER_PROTOCOL):
                argv = (
                    "simulate", config(p), "--alpha", alpha, "--beta", beta, "--gamma1", gamma1,
                    "--seed", str(rng.randrange(2**31)), "--periods", str(periods),
                    "--replicates", str(SIM_REPLICATES), "--population", str(pairs),
                )
                ops.append(Op(argv, p))
    rng.shuffle(ops)
    return ops


def digest(code, output: str) -> str:
    return hashlib.sha256(f"{code}\n{output}".encode()).hexdigest()


def _key_values(output: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in output.splitlines() if "=" in line)


def check_design(op: Op, code, output: str) -> str | None:
    kv = _key_values(output)
    feasible = kv.get("feasible")
    if feasible not in ("true", "false"):
        return "no feasible= line"
    if code != (0 if feasible == "true" else 2):
        return f"exit code {code} with feasible={feasible}"
    if feasible == "true":
        if kv.get("sustainable") != "true":
            return "feasible design printed without sustainable=true"
        alpha, beta, gamma1, gamma0, utility = (
            float(kv[k]) for k in ("alpha", "beta", "gamma1", "gamma0", "utility")
        )
        closed = float(social_utility_closed(alpha, beta, gamma1, gamma0, op.params))
        if not abs(utility - closed) <= 1e-9:
            return f"utility {utility!r} != social_utility_closed {closed!r}"
    if "oracle_feasible" in kv:
        if feasible == "false" and kv["oracle_feasible"] == "true":
            return ORACLE_MISSED
        if feasible == "true" and kv["oracle_feasible"] == "true":
            # Utility pays E[prize] <= gamma1, so moving gamma1 by one grid
            # step moves utility by at most that step.
            step = 1.0 / min(GRID_M, ORACLE_R)
            gap = float(kv["oracle_utility"]) - float(kv["utility"])
            if gap > step:
                return f"oracle utility beats the optimizer by {gap!r} > one grid step"
    return None


def check_simulate(op: Op, code, output: str) -> str | None:
    """Exit code and CSV shape; the z values are checked per pool (check_pools)."""
    if code != 0:
        return f"exit code {code}"
    lines = output.splitlines()
    if not lines or lines[0] != "metric,analytic,empirical,stderr,z" or len(lines) != 8:
        return "simulate CSV malformed"
    for line in lines[1:]:
        metric, *numbers = line.split(",")
        if len(numbers) != 4:
            return "simulate CSV malformed"
        [float(value) for value in numbers]  # raises ValueError on a garbled number
    return None


def _argv_value(op: Op, flag: str) -> str:
    return op.argv[op.argv.index(flag) + 1]


def _pooled_z(rows: list[list[str]], replicates: int) -> float:
    """z of the pooled mean, rebuilt from each op's (mean, stderr) of `replicates` replicates."""
    n = len(rows) * replicates
    analytic = float(rows[0][1])
    means = [float(row[2]) for row in rows]
    grand = sum(means) / len(means)
    squares = sum(
        (replicates - 1) * replicates * float(row[3]) ** 2 + replicates * (mean - grand) ** 2
        for row, mean in zip(rows, means)
    )
    stderr = math.sqrt(squares / (n - 1) / n)
    if stderr > 0.0:
        return (grand - analytic) / stderr
    return 0.0 if grand == analytic else math.inf


def check_pools(ops: list[Op], outputs: dict[int, str]) -> dict[int, str]:
    """Pool the simulate ops that differ only in --seed and check each pooled |z|.

    outputs maps op index to the output of a run whose own check passed.
    Returns the failure reason of every op in a failing pool.
    """
    pools: dict[tuple, list[int]] = defaultdict(list)
    for index in outputs:
        op = ops[index]
        if op.argv[0] == "simulate":
            seed_at = op.argv.index("--seed")
            pools[op.argv[:seed_at] + op.argv[seed_at + 2:]].append(index)
    failures: dict[int, str] = {}
    for members in pools.values():
        replicates = int(_argv_value(ops[members[0]], "--replicates"))
        reason = None
        if len(members) * replicates != POOLED_REPLICATES:
            reason = f"pool of {len(members)} x {replicates} replicates, Z_BOUND is for {POOLED_REPLICATES}"
        else:
            tables = [[line.split(",") for line in outputs[i].splitlines()[1:]] for i in members]
            for rows in zip(*tables):
                z = _pooled_z(list(rows), replicates)
                if not abs(z) <= Z_BOUND:
                    reason = f"pooled |z| of {rows[0][0]} is {abs(z):.4g}, above {Z_BOUND}"
                    break
        if reason is not None:
            failures.update(dict.fromkeys(members, reason))
    return failures


def check(op: Op, code, output: str) -> str | None:
    if not isinstance(code, int):
        return str(code)  # an untyped exception escaped cli.main
    try:
        return (check_design if op.argv[0] == "design" else check_simulate)(op, code, output)
    except (KeyError, ValueError) as exc:
        return f"malformed output: {exc!r}"


def known_cause(op: Op, reason: str) -> str | None:
    """Name the recorded defect behind a failure, if it is the known one."""
    if reason == ORACLE_MISSED and op.perfect_monitoring:
        return KNOWN_DEFECT
    return None
