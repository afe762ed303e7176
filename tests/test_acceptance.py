"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Each test prints exactly one line `criterion N: PASS/FAIL — detail` (run
pytest with -s to see the PASS lines; FAIL lines surface in the captured
output of the failing test). Criterion 6 certifies the grid oracle's
base-price answers with the independent four-intent check and reports where
a positive base price beats zero; criterion 9 checks that the requester
utility is flat in the damage d without attack noise (eps2 = 0) and
non-increasing in d with it.
"""

import time

import numpy as np
from conftest import in_band, rating_gap
from four_intent import violations
from oracles import evolve, productivity_mc, social_utility
from scalar_reference import compliance_margins, lifetime_values_iterative
from stage_game import first_stage_payoffs

from contest_rating import (
    DesignParams,
    DesignerConfig,
    Infeasible,
    SimConfig,
    brute_force_oracle,
    default_params,
    is_sustainable,
    lifetime_values,
    optimize,
    run_chain,
    run_utility,
    stationary_distribution,
    with_params,
)
from contest_rating.cli import main as cli_main

HALF = DesignParams(0.5, 0.5, 0.5, 0.0)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def _random_environment(rng, delta_max=0.98):
    return default_params(
        c1=rng.uniform(0.01, 0.45),
        c2=rng.uniform(0.01, 0.45),
        s1=rng.uniform(0.01, 0.45),
        s2=rng.uniform(0.01, 0.45),
        d=rng.uniform(0.05, 0.55),
        delta=rng.uniform(0.0, delta_max),
        eps1=rng.uniform(0.0, 0.45),
        eps2=rng.uniform(0.0, 0.45),
    )


def test_criterion_01_utility_enumeration_matches_closed_form():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        params = _random_environment(rng)
        gamma0 = rng.uniform(0.0, 0.5)
        design = DesignParams(
            alpha=rng.uniform(0.01, 1.0),
            beta=rng.uniform(0.0, 1.0),
            gamma1=rng.uniform(gamma0 + 0.01, 1.0),
            gamma0=gamma0,
        )
        worst = max(worst, abs(social_utility(design, params).residual))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, ok, f"max |enumerated - closed| = {worst:.3e} over 1000 draws in {elapsed:.2f}s")
    assert ok


def test_criterion_02_stationary_law_power_iteration_and_chain(defaults):
    started = time.perf_counter()
    worst = 0.0
    for alpha, beta in ((0.5, 0.5), (1.0, 1.0), (0.3, 0.9), (0.9, 0.3)):
        design = DesignParams(alpha, beta, 0.5, 0.0)
        eta = stationary_distribution(design, defaults)
        dist = np.array([0.5, 0.5])
        for _ in range(10_000):
            dist = evolve(dist, design, defaults)
        worst = max(worst, abs(dist[0] - eta.eta0), abs(dist[1] - eta.eta1))
    chain = run_chain(HALF, defaults, SimConfig(periods=100_000, replicates=6, population=4, seed=2))
    z0 = abs(chain["eta0"].z)
    z1 = abs(chain["eta1"].z)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and z0 <= 3.0 and z1 <= 3.0 and elapsed < 30.0
    _report(
        2,
        ok,
        f"power-iteration residual {worst:.2e}; chain z(eta0) = {z0:.2f}, "
        f"z(eta1) = {z1:.2f} at 1e5 periods in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_03_lifetime_values_bellman_gap_and_simulation(defaults, optimum):
    design = optimum.design()
    rng = np.random.default_rng(303)
    worst_solve = 0.0
    worst_gap = 0.0
    for _ in range(200):
        # delta capped where 1000 Bellman steps themselves converge past
        # the 1e-10 tolerance (0.97^1000 ~ 6e-14), so the comparison tests
        # the solver and not the iteration's truncation tail
        params = _random_environment(rng, delta_max=0.97)
        gamma0 = rng.uniform(0.0, 0.4)
        d = DesignParams(
            rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0),
            rng.uniform(gamma0 + 0.01, 1.0), gamma0,
        )
        for worker in (1, 2):
            solved = lifetime_values(d, params, worker)
            iterated = lifetime_values_iterative(d, params, worker, steps=1000)
            worst_solve = max(worst_solve, abs(solved.v0 - iterated.v0), abs(solved.v1 - iterated.v1))
            gap = rating_gap(d, params, worker)
            worst_gap = max(worst_gap, abs((solved.v1 - solved.v0) - gap))
    sim = run_utility(design, defaults, SimConfig(periods=270, replicates=30, population=250, seed=7))
    worst_rel = 0.0
    for e in sim.estimates:
        worst_rel = max(worst_rel, abs(e.empirical - e.analytic) / max(1.0, abs(e.analytic)))
    ok = worst_solve <= 1e-10 and worst_gap <= 1e-12 and worst_rel <= 0.02
    _report(
        3,
        ok,
        f"solve-vs-Bellman {worst_solve:.2e}; gap identity {worst_gap:.2e}; "
        f"simulated lifetime values within {100 * worst_rel:.2f}% of the solver",
    )
    assert ok


def test_criterion_04_stage_game_monte_carlo(defaults):
    checks = []
    for case in (("C", "C"), ("S", "S")):
        closed = first_stage_payoffs(*case, defaults)
        mc = productivity_mc(*case, defaults, samples=1_000_000, seed=40)
        for closed_v, mc_v, se in ((closed[0], mc.v1, mc.stderr1), (closed[1], mc.v2, mc.stderr2)):
            checks.append(abs(mc_v - closed_v) <= 3.0 * se)
    # diagnostic: the lone-crowdsourcing closed form drops a quadratic cost
    # term; the sampler sees the full event space, so it sits above the
    # closed form by c^2/2 * (1 - c - s) rather than matching it
    closed_cs = first_stage_payoffs("C", "S", defaults)[0]
    mc_cs = productivity_mc("C", "S", defaults, samples=1_000_000, seed=41)
    offset = defaults.c1 ** 2 / 2.0 * (1.0 - defaults.c1 - defaults.s1)
    residual = mc_cs.v1 - closed_cs
    print(
        f"lone-crowdsourcing diagnostic: sampled {mc_cs.v1:.6f} vs closed {closed_cs:.6f}; "
        f"difference {residual:.6f} vs predicted offset {offset:.6f} "
        f"({abs(residual - offset) / mc_cs.stderr1:.1f} MC standard errors apart)"
    )
    ok = all(checks)
    _report(4, ok, f"symmetric-profile sampler within 3 SE of closed forms "
                   f"({sum(checks)}/{len(checks)} checks); lone-crowdsourcing report above")
    assert ok


def test_criterion_05_feasibility_band_equals_primal_margins(defaults):
    grid = np.arange(1, 51) / 50.0
    mismatches = 0
    total = 0
    for gamma1 in (0.2, 0.45, 0.55, 0.7, 0.9):
        primal_ok = np.ones((50, 50), dtype=bool)
        for worker in (1, 2):
            m0, m1, v0 = compliance_margins(
                grid[:, None], grid[None, :], gamma1, 0.0, defaults, worker
            )
            primal_ok &= (m0 >= -1e-9) & (m1 >= -1e-9) & (v0 >= -1e-9)
        for i, alpha in enumerate(grid):
            for j, beta in enumerate(grid):
                total += 1
                if in_band(gamma1, float(alpha), float(beta), defaults) != bool(primal_ok[i, j]):
                    mismatches += 1
    ok = mismatches == 0
    _report(5, ok, f"{mismatches} misclassifications over {total} (alpha, beta, gamma1) points")
    assert ok


def test_criterion_06_zero_base_price_reoptimization(defaults):
    from contest_rating import zero_base_price_check

    config = DesignerConfig(oracle_grid_r=40)
    answers = []
    problems = []
    for c1 in np.arange(0.05, 0.451, 0.05):
        point = with_params(defaults, c1=float(c1))
        report = zero_base_price_check(point, config=config)
        answers.append((round(float(c1), 2), report.zero_is_optimal, round(report.best_gamma0, 2)))
        for gamma0 in report.gamma0_values:
            res = brute_force_oracle(point, config, gamma0=gamma0)
            if not res.feasible:
                problems.append(f"c1={c1:.2f} gamma0={gamma0:.2f}: oracle infeasible")
                continue
            design = DesignParams(res.alpha, res.beta, res.gamma1, gamma0)
            problems.extend(
                f"c1={c1:.2f} gamma0={gamma0:.2f}: {v}" for v in violations(design, point)
            )
    ok = not problems
    _report(
        6,
        ok,
        ("oracle winners certified at every (c1, gamma0)" if ok else f"problems: {problems}")
        + f"; (c1, zero optimal, best gamma0): {answers}",
    )
    assert ok, problems


def test_criterion_07_optimizer_matches_brute_force(defaults):
    started = time.perf_counter()
    config = DesignerConfig()  # m = 100, r = 100
    worst = 0.0
    problems = []
    for c1 in np.arange(0.05, 0.451, 0.05):
        point = with_params(defaults, c1=float(c1))
        oracle = brute_force_oracle(point, config)
        try:
            outcome = optimize(point, config)
        except Infeasible:
            if oracle.feasible:
                problems.append(f"c1={c1:.2f}: optimizer infeasible, oracle found a point")
            continue
        if not oracle.feasible:
            problems.append(f"c1={c1:.2f}: oracle infeasible, optimizer found a point")
            continue
        worst = max(worst, abs(outcome.utility - oracle.utility))
        if not in_band(outcome.gamma1, outcome.alpha, outcome.beta, point):
            problems.append(f"c1={c1:.2f}: returned design outside its band")
        for worker in (1, 2):
            m0, m1, v0 = compliance_margins(
                outcome.alpha, outcome.beta, outcome.gamma1, 0.0, point, worker
            )
            if min(m0, m1, v0) < -1e-9:
                problems.append(f"c1={c1:.2f}: worker {worker} margin negative")
    elapsed = time.perf_counter() - started
    ok = not problems and worst <= 0.02 and elapsed < 120.0
    _report(
        7,
        ok,
        f"max |optimizer - oracle| = {worst:.4f} over the c1 family in {elapsed:.1f}s"
        + ("" if not problems else f"; problems: {problems}"),
    )
    assert ok


def test_criterion_08_designed_protocol_deters_attack(defaults, optimum):
    design = optimum.design()
    base = dict(periods=270, replicates=16, population=300, seed=13)
    compliant = run_utility(design, defaults, SimConfig(**base))
    violations = []
    for worker in (1, 2):
        for rating in (0, 1):
            run = run_utility(design, defaults, SimConfig(**base), deviation=(worker, rating))
            dev = run[f"vinf_w{worker}_r{rating}_dev"].empirical
            comp = compliant[f"vinf_w{worker}_r{rating}"].empirical
            band = 0.02 * max(1.0, abs(comp))
            if dev > comp + band:
                violations.append(f"w{worker} r{rating}: {dev:.4f} > {comp:.4f} + {band:.4f}")
    ok = not violations
    _report(
        8,
        ok,
        "one-shot attack weakly dominated in simulation for both workers and ratings"
        if ok else "; ".join(violations),
    )
    assert ok


def test_criterion_09_comparative_statics(defaults):
    config = DesignerConfig()

    def curve(base, key, values):
        prizes, utilities = [], []
        for v in values:
            outcome = optimize(with_params(base, **{key: float(v)}), config)
            prizes.append(outcome.gamma1)
            utilities.append(outcome.utility)
        return np.array(prizes), np.array(utilities)

    nine = np.arange(0.05, 0.451, 0.05)
    slack = 1e-6
    g_c1, _ = curve(with_params(defaults, c2=0.05), "c1", nine)
    g_s1, _ = curve(defaults, "s1", nine)  # c1 < c2 here
    g_s2, _ = curve(defaults, "s2", nine)
    g_delta, u_delta = curve(defaults, "delta", np.arange(0.56, 0.981, 0.06))
    g_e1, u_e1 = curve(defaults, "eps1", np.arange(0.02, 0.341, 0.04))
    g_e2, u_e2 = curve(defaults, "eps2", np.arange(0.01, 0.171, 0.02))
    damages = np.arange(0.30, 0.701, 0.05)
    _, u_d = curve(defaults, "d", damages)
    # d enters every payoff line only through -eps2*d (a compliant intent
    # lands as an attack with probability eps2), so at eps2 = 0 the
    # utility is flat in d; with eps2 > 0 only participation tightens
    _, u_d_clean = curve(with_params(defaults, eps2=0.0), "d", damages)

    clauses = {
        "prize-nondecreasing-in-c1": np.all(np.diff(g_c1) >= -slack),
        "prize-constant-in-s1": np.ptp(g_s1) <= slack,
        "prize-nondecreasing-in-s2": np.all(np.diff(g_s2) >= -slack),
        "prize-nonincreasing-in-delta": np.all(np.diff(g_delta) <= slack),
        "prize-nondecreasing-in-eps1": np.all(np.diff(g_e1) >= -slack),
        "prize-nondecreasing-in-eps2": np.all(np.diff(g_e2) >= -slack),
        "utility-constant-in-d": np.ptp(u_d_clean) <= slack,
        "utility-nonincreasing-in-d": np.all(np.diff(u_d) <= slack),
        "utility-nondecreasing-in-delta": np.all(np.diff(u_delta) >= -slack),
        "utility-nonincreasing-in-eps1": np.all(np.diff(u_e1) <= slack),
        "utility-nonincreasing-in-eps2": np.all(np.diff(u_e2) <= slack),
    }
    failing = [name for name, holds in clauses.items() if not holds]
    ok = not failing
    _report(
        9,
        ok,
        f"all {len(clauses)} trend clauses hold" if ok else
        f"{len(clauses) - len(failing)}/{len(clauses)} clauses hold; failing: {failing}"
        + (f" (utility range over d at eps2 = 0: {np.ptp(u_d_clean):.4f})"
           if "utility-constant-in-d" in failing else ""),
    )
    assert ok, f"failing trend clauses: {failing}"


def test_criterion_10_deterministic_cli_output(tmp_path, capsys):
    config = tmp_path / "env.cfg"
    config.write_text(
        "c1=0.1\nc2=0.2\ns1=0.2\ns2=0.1\nd=0.5\ndelta=0.95\neps1=0.2\neps2=0.05\n"
    )
    pairs = {}
    for label, argv in {
        "design": ["design", str(config)],
        "sweep": ["sweep", str(config), "--vary", "eps2",
                  "--from", "0.01", "--to", "0.11", "--step", "0.05", "--grid-m", "50"],
        "simulate": ["simulate", str(config), "--alpha", "0.5", "--beta", "0.5",
                     "--gamma1", "0.5", "--periods", "80", "--replicates", "3",
                     "--population", "8", "--seed", "21"],
    }.items():
        first = tmp_path / f"{label}_a.csv"
        second = tmp_path / f"{label}_b.csv"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main(argv + ["--out", str(second)]) == 0
        pairs[label] = first.read_bytes() == second.read_bytes()
    capsys.readouterr()
    ok = all(pairs.values())
    _report(10, ok, f"byte-identical reruns: {pairs}")
    assert ok
