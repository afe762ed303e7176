"""Monte-Carlo simulator: reproducibility, degenerate corners, analytic agreement."""

import numpy as np
import pytest

from contest_rating import (
    DesignParams,
    SimConfig,
    SimResult,
    default_params,
    deviation_value,
    lifetime_values,
    run_chain,
    run_utility,
    utility_horizon,
    with_params,
)
from contest_rating.simulate import MAX_BLOCK_DRAWS, _draw_block, _rating_paths
from scalar_reference import rating_paths_loop

HALF = DesignParams(0.5, 0.5, 0.5, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(periods=0)
    with pytest.raises(ValueError):
        SimConfig(replicates=1)
    with pytest.raises(ValueError):
        SimConfig(population=0)
    with pytest.raises(ValueError):
        SimConfig(deviate_worker=1)  # rating missing
    with pytest.raises(ValueError):
        SimConfig(deviate_worker=3, deviate_rating=1)
    with pytest.raises(ValueError):
        SimConfig(deviate_worker=1, deviate_rating=2)


def test_config_refuses_oversized_draw_blocks():
    # the block is periods x population x 8 draws; the config holds no
    # array, so neither side of the limit allocates anything here
    assert MAX_BLOCK_DRAWS * 8 == 2**30  # bytes of float64: 1 GiB
    SimConfig(periods=MAX_BLOCK_DRAWS // (8 * 64), population=64)
    with pytest.raises(ValueError, match="draw block too large"):
        SimConfig(periods=MAX_BLOCK_DRAWS // (8 * 64) + 1, population=64)
    horizon = utility_horizon(0.999999)
    assert horizon == 13_815_504  # about 44 GB of draws at 50 pairs
    with pytest.raises(ValueError, match="draw block too large"):
        SimConfig(periods=horizon, population=50)


def test_chain_is_reproducible(defaults):
    config = SimConfig(periods=120, replicates=4, population=12, seed=42)
    a = run_chain(HALF, defaults, config)
    b = run_chain(HALF, defaults, config)
    assert a == b
    assert a.rows() == b.rows()
    c = run_chain(HALF, defaults, SimConfig(periods=120, replicates=4, population=12, seed=43))
    assert c["eta0"].empirical != a["eta0"].empirical


def test_chain_tracks_stationary_law(defaults):
    config = SimConfig(periods=400, replicates=8, population=30, seed=11)
    result = run_chain(HALF, defaults, config)
    assert {e.metric for e in result.estimates} == {"eta0", "eta1", "social"}
    for e in result.estimates:
        assert abs(e.z) < 4.0, f"{e.metric}: z = {e.z}"
    assert result["eta0"].analytic == pytest.approx(0.24, abs=1e-12)
    assert result["social"].analytic == pytest.approx(0.38, abs=1e-12)
    # the two rating shares are one partition, so they sum to one exactly
    total = result["eta0"].empirical + result["eta1"].empirical
    assert total == pytest.approx(1.0, abs=1e-12)
    assert result.promotions > 0 and result.demotions > 0


def test_chain_without_flips_never_demotes(defaults):
    p = with_params(defaults, eps1=0.0, eps2=0.0)
    result = run_chain(HALF, p, SimConfig(periods=50, replicates=2, population=10, seed=0))
    assert result.demotions == 0
    assert result["eta0"].empirical == 0.0
    assert result["eta1"].empirical == 1.0


def test_chain_without_demotion_channel(defaults):
    design = DesignParams(0.5, 0.0, 0.5, 0.0)
    result = run_chain(design, defaults, SimConfig(periods=50, replicates=2, population=10, seed=0))
    assert result.demotions == 0
    assert result["eta0"].empirical == 0.0


def test_utility_requires_long_horizon(defaults):
    with pytest.raises(ValueError, match="horizon too short"):
        run_utility(HALF, defaults, SimConfig(periods=100, replicates=4, population=10))


def test_utility_one_period_when_myopic(defaults):
    # delta = 0 turns the discounted sum into the first period alone
    p = with_params(defaults, delta=0.0)
    config = SimConfig(periods=1, replicates=8, population=200, seed=3)
    result = run_utility(HALF, p, config)
    assert {e.metric for e in result.estimates} == {
        "vinf_w1_r0", "vinf_w2_r0", "vinf_w1_r1", "vinf_w2_r1",
    }
    assert result["vinf_w1_r0"].analytic == pytest.approx(-0.115, abs=1e-12)
    for e in result.estimates:
        assert abs(e.z) < 4.0, f"{e.metric}: z = {e.z}"


def test_utility_matches_solver_at_design(defaults, optimum):
    design = optimum.design()
    config = SimConfig(periods=270, replicates=12, population=200, seed=5)
    result = run_utility(design, defaults, config)
    for worker in (1, 2):
        values = lifetime_values(design, defaults, worker)
        for rating in (0, 1):
            e = result[f"vinf_w{worker}_r{rating}"]
            assert e.analytic == pytest.approx(values[rating], abs=1e-12)
            assert abs(e.z) < 4.0, f"{e.metric}: z = {e.z}"


def test_deviation_run_reports_only_the_deviator(defaults, optimum):
    design = optimum.design()
    base = dict(periods=270, replicates=12, population=200, seed=5)
    compliant = run_utility(design, defaults, SimConfig(**base))
    result = run_utility(
        design, defaults, SimConfig(**base, deviate_worker=1, deviate_rating=1)
    )
    assert {e.metric for e in result.estimates} == {
        "vinf_w1_r0", "vinf_w2_r0", "vinf_w1_r1_dev",
    }
    dev = result["vinf_w1_r1_dev"]
    assert dev.analytic == pytest.approx(deviation_value(1, design, defaults, 1), abs=1e-12)
    assert abs(dev.z) < 4.0
    # a sustainable design leaves the one-shot attack weakly unprofitable
    assert dev.analytic <= compliant["vinf_w1_r1"].analytic + 1e-12
    # the rating-0 block shares its seed stream with the compliant run
    assert result["vinf_w1_r0"] == compliant["vinf_w1_r0"]
    assert result["vinf_w2_r0"] == compliant["vinf_w2_r0"]


def test_result_lookup_and_rows(defaults):
    result = run_chain(HALF, defaults, SimConfig(periods=20, replicates=2, population=5, seed=1))
    with pytest.raises(KeyError):
        result["no_such_metric"]
    assert SimResult.CSV_HEADER == "metric,analytic,empirical,stderr,z"
    for row in result.rows():
        assert len(row.split(",")) == 5


def test_estimate_z_guard(defaults):
    # stderr 0 with exact agreement is a clean z of 0, not a 0/0
    p = with_params(defaults, eps1=0.0, eps2=0.0)
    result = run_chain(HALF, p, SimConfig(periods=30, replicates=2, population=6, seed=0))
    assert result["eta0"].stderr == 0.0
    assert result["eta0"].z == 0.0


# Each edge of the rating recurrence, as overrides of a 50-period, 7-pair
# block with random monitoring noise, random intents and random start ratings.
RECURRENCE_EDGES = {
    "random": {},
    "one_period": dict(periods=1),
    "one_pair": dict(pairs=1),
    "perfect_monitoring": dict(eps=(0.0, 0.0)),
    "start_all_bad": dict(start=0),
    "start_all_good": dict(start=1),
    "worker1_attacks_first": dict(attacker=1),
    "worker2_attacks_first": dict(attacker=2),
    "past_int16_keys": dict(periods=16_400, pairs=2),  # keys 2 * (t + 1) + 1 pass 32767
}


@pytest.mark.parametrize("edge", list(RECURRENCE_EDGES))
def test_rating_paths_equal_the_per_period_loop(defaults, edge):
    case = RECURRENCE_EDGES[edge]
    rng = np.random.default_rng(list(RECURRENCE_EDGES).index(edge))
    periods, pairs = case.get("periods", 50), case.get("pairs", 7)
    eps1, eps2 = case.get("eps", rng.uniform(0.0, 0.5, 2))
    params = with_params(defaults, eps1=eps1, eps2=eps2)
    if "attacker" in case:  # a deviation block: one attack intent, in period 0
        attacks = np.zeros((2, periods, 1), dtype=bool)
        attacks[case["attacker"] - 1, 0] = True
    else:
        attacks = rng.random((2, periods, 1)) < 0.2
    designs = [(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)] + [tuple(rng.random(2))]
    for alpha, beta in designs:
        ev = _draw_block(rng, periods, pairs, params, attacks[0], attacks[1])
        if "start" in case:
            ev["start1"], ev["start2"] = np.full((2, pairs), bool(case["start"]))
        else:
            ev["start1"], ev["start2"] = rng.random((2, pairs)) < 0.5
        design = DesignParams(alpha, beta, 0.5, 0.0)
        *paths, promotions, demotions = _rating_paths(ev, design)
        *expected, promotions_loop, demotions_loop = rating_paths_loop(ev, design)
        for theta, theta_loop in zip(paths, expected):
            assert theta.dtype == np.bool_
            assert np.array_equal(theta, theta_loop), f"alpha={alpha}, beta={beta}"
        assert type(promotions) is int and type(demotions) is int
        assert (promotions, demotions) == (promotions_loop, demotions_loop)


def test_utility_horizon_is_the_least_accepted(defaults):
    assert utility_horizon(0.95) == 270  # the formula's value where it already held
    assert utility_horizon(0.0) == 1
    for delta in (0.1, 0.01, 0.001, 0.5, 0.95, 0.999):
        n = utility_horizon(delta)
        assert delta**n < 1e-6
        assert n == 1 or delta ** (n - 1) >= 1e-6
        config = SimConfig(periods=n, replicates=2, population=1)
        run_utility(HALF, with_params(defaults, delta=delta), config)  # does not raise
