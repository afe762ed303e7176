"""Monte-Carlo simulator: reproducibility, degenerate corners, analytic agreement."""

import concurrent.futures
import dataclasses
import inspect
import itertools
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from contest_rating import (
    DesignParams,
    SimConfig,
    default_params,
    deviation_value,
    lifetime_values,
    run_chain,
    run_utility,
    utility_horizon,
    with_params,
)
from contest_rating import simulate
from contest_rating.cli import _simulate_lines
from contest_rating.errors import DegenerateChain
from contest_rating.simulate import (
    ATTACK1,
    ATTACK2,
    MAX_BLOCK_DRAWS,
    UPDATE1,
    UPDATE2,
    _draw_block,
    _payoff_tables,
    _rating_paths,
    _workers,
)
from scalar_reference import (
    draw_channels,
    rating_paths_loop,
    run_chain_channels,
    run_utility_channels,
    social_paid,
    winner,
    worker_pay,
)

HALF = DesignParams(0.5, 0.5, 0.5, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(periods=0)
    with pytest.raises(ValueError):
        SimConfig(replicates=1)
    with pytest.raises(ValueError):
        SimConfig(population=0)
    with pytest.raises(ValueError, match="seed"):
        SimConfig(seed=-1)  # numpy's SeedSequence would refuse it without naming the field
    SimConfig(seed=0)


def test_config_holds_the_run_shape_and_seed_alone():
    # a deviation is run_utility's argument, so no config can hand one to a chain run
    assert [f.name for f in dataclasses.fields(SimConfig)] == ["periods", "replicates", "population", "seed"]
    with pytest.raises(TypeError):
        SimConfig(deviate_worker=1, deviate_rating=0)
    assert "deviation" not in inspect.signature(run_chain).parameters


def test_utility_rejects_a_deviation_outside_the_pairs(defaults):
    # one attack by worker 1 or 2 at rating 0 or 1; the horizon is long enough, so only the pair is at fault
    p = with_params(defaults, delta=0.0)
    config = SimConfig(periods=1, replicates=2, population=2)
    for deviation in ((3, 0), (1, 2), (0, 1), (1, None), (None, 1)):
        with pytest.raises(ValueError, match="deviation"):
            run_utility(HALF, p, config, deviation)
    run_utility(HALF, p, config, (2, 1))  # does not raise


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
    assert _simulate_lines(a) == _simulate_lines(b)
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
    result = run_utility(design, defaults, SimConfig(**base), deviation=(1, 1))
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
    header, *rows = _simulate_lines(result)
    assert header == "metric,analytic,empirical,stderr,z"
    assert len(rows) == len(result.estimates)
    for row in rows:
        assert len(row.split(",")) == 5


def test_estimate_z_guard(defaults):
    # stderr 0 with exact agreement is a clean z of 0, not a 0/0
    p = with_params(defaults, eps1=0.0, eps2=0.0)
    result = run_chain(HALF, p, SimConfig(periods=30, replicates=2, population=6, seed=0))
    assert result["eta0"].stderr == 0.0
    assert result["eta0"].z == 0.0


# Each edge of the rating recurrence, as overrides of a 50-period, 7-pair
# block with random monitoring noise, random intents and random start ratings.
# Each protocol draws a batch of 1, 2 or 3 replicates, each with its own seed,
# intents and start ratings.
RECURRENCE_EDGES = {
    "random": {},
    "one_period": dict(periods=1),
    "one_pair": dict(pairs=1),
    "perfect_monitoring": dict(eps=(0.0, 0.0)),
    "start_all_bad": dict(start=0),
    "start_all_good": dict(start=1),
    "worker1_attacks_first": dict(attacker=1),
    "worker2_attacks_first": dict(attacker=2),
    # keys 2 * (t + 1) + 1 pass 32767, and a replicate's stream spans slabs
    "past_int16_keys": dict(periods=16_400, pairs=2),
    "wide": dict(pairs=40),  # 40 columns a replicate
    "wide_a_power_of_two": dict(periods=64, pairs=32),  # the rating after the last period needs the step-64 pass
    "wide_past_a_power_of_two": dict(periods=65, pairs=32),  # needs the step-64 pass
    "batch_of_12_pairs": dict(pairs=12),  # 24 columns a batch of 2, 36 of 3
    # without noise an event follows the intent: every replicate's workers
    # attack from period 8 on, so with alpha = 0 and beta = 1 the first
    # event falls in period 8, row 8 holds the start rating 2**3 rows back,
    # and the scan stops after 4 passes; with alpha = 1 and beta = 0 no
    # event falls after period 7, so it never stops early; with alpha =
    # beta = 1 every period holds an event and it stops before the first pass
    "sparse_events": dict(eps=(0.0, 0.0), start=1, attack_from=8),
}


@pytest.mark.parametrize("edge", list(RECURRENCE_EDGES))
def test_rating_paths_equal_the_per_period_loop(defaults, edge):
    # the same seeded draws, read as a batch of event codes and as channel
    # arrays one replicate at a time
    case = RECURRENCE_EDGES[edge]
    rng = np.random.default_rng(list(RECURRENCE_EDGES).index(edge))
    periods, pairs = case.get("periods", 50), case.get("pairs", 7)
    eps1, eps2 = case.get("eps", rng.uniform(0.0, 0.5, 2))
    params = with_params(defaults, eps1=eps1, eps2=eps2)
    designs = [(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)] + [tuple(rng.random(2))]
    for index, (alpha, beta) in enumerate(designs):
        batch = 1 + index % 3
        if "attacker" in case:  # a deviation block: the first replicate attacks in period 0
            attacks = np.zeros((batch, 2, periods, 1), dtype=bool)
            attacks[0, case["attacker"] - 1, 0] = True
        elif "attack_from" in case:
            attacks = np.zeros((batch, 2, periods, 1), dtype=bool)
            attacks[:, :, case["attack_from"] :] = True
        else:
            attacks = rng.random((batch, 2, periods, 1)) < 0.2
        intents = (attacks[:, 0] * ATTACK1 | attacks[:, 1] * ATTACK2).astype(np.uint8)
        design = DesignParams(alpha, beta, 0.5, 0.0)
        seeds = [int(s) for s in rng.integers(2**32, size=batch)]
        code, promote, demote = _draw_block(
            [np.random.default_rng(s) for s in seeds], periods, pairs, params, design, intents
        )
        if "start" in case:
            start = np.full((2, batch, pairs), bool(case["start"]))
        else:
            start = rng.random((2, batch, pairs)) < 0.5
        outcome, promotions, demotions = _rating_paths(code, promote, demote, start)
        assert outcome.dtype == np.uint8 and outcome.shape == (batch, periods, pairs)
        assert np.array_equal(outcome & ~np.uint8(UPDATE1 | UPDATE2), code & ~np.uint8(UPDATE1 | UPDATE2))
        assert type(promotions) is int and type(demotions) is int
        counts = np.zeros(2, dtype=int)
        for r, seed in enumerate(seeds):
            ev = draw_channels(np.random.default_rng(seed), periods, pairs, params, *attacks[r])
            ev["start1"], ev["start2"] = start[:, r]
            *expected, promotions_loop, demotions_loop = rating_paths_loop(ev, design)
            for bit, path_loop in zip((UPDATE1, UPDATE2), expected):
                assert np.array_equal(outcome[r] & bit != 0, path_loop), (alpha, beta, r)
            counts += promotions_loop, demotions_loop
        assert [promotions, demotions] == counts.tolist()


class _Fixed:
    """A stand-in generator that hands out the given draws, one slab after the next."""

    def __init__(self, draws):
        self.draws = draws.reshape(-1)
        self.used = 0

    def random(self, out):
        out[...] = self.draws[self.used : self.used + out.size]
        self.used += out.size


def test_codes_pack_the_channels_in_order(defaults, monkeypatch):
    # one cell per pattern of the eight channels: a draw of 0 falls below
    # every threshold and one of 0.999 below none, so bit k is channel k;
    # each replicate of a batch of 1-3 takes the 256 patterns in its own
    # order and has its own intent, and its 2048 draws are one slab, or
    # slabs of 24 that cut across the replicates' streams
    patterns = np.arange(256)[:, None] >> np.arange(8) & 1 == 1
    params = with_params(defaults, eps1=0.5, eps2=0.5)
    updates = UPDATE1 | UPDATE2
    for slab, batch, shift in itertools.product((simulate._SLAB_DRAWS, 24), (1, 2, 3), range(3)):
        monkeypatch.setattr(simulate, "_SLAB_DRAWS", slab)
        cells = [np.roll(np.arange(256), 85 * r) for r in range(batch)]
        draws = [_Fixed(np.where(patterns[c], 0.0, 0.999)) for c in cells]
        intent = [(0, ATTACK1, ATTACK2)[(shift + r) % 3] for r in range(batch)]
        intents = np.array(intent, dtype=np.uint8)[:, None, None]
        code, promote, demote = _draw_block(draws, 1, 256, params, HALF, intents)
        assert [d.used for d in draws] == [2048] * batch
        assert code.dtype == np.uint8 and code.shape == (batch, 1, 256)
        for r in range(batch):  # an intent turns the attack bit over
            assert np.array_equal(code[r, 0], cells[r] ^ intent[r])
            assert np.array_equal(demote[r, 0] & updates, cells[r] & updates)
        assert promote is code


def test_payoff_tables_equal_the_per_cell_formulas(defaults):
    # all 256 outcome codes, decoded bit by bit and fed to the channel
    # reference: with gamma0 > 0 every prize is nonzero, so a wrong winner
    # at any code changes that code's pay
    bits = [np.array([(code >> k) & 1 == 1 for code in range(256)]) for k in range(8)]
    ev = {
        "crowd1": ~bits[0], "attack1": bits[1], "crowd2": ~bits[2], "attack2": bits[3],
        "coin": bits[6], "fulfilled": bits[7],
    }
    theta1, theta2 = bits[4], bits[5]
    for design, params in (
        (DesignParams(0.6, 0.8, 0.7, 0.2), defaults),
        (DesignParams(1.0, 0.3, 0.41, 0.3), with_params(defaults, c1=0.33, s2=0.07, d=0.61)),
    ):
        social, pay1, pay2 = tables = _payoff_tables(design, params)
        # built once per protocol and environment, and shared read-only
        assert _payoff_tables(design, params) is tables
        assert not any(table.flags.writeable for table in tables)
        win1 = winner(ev)
        ref1, ref2 = worker_pay(ev, theta1, theta2, win1, design, params)
        assert social.tobytes() == social_paid(ev, theta1, theta2, win1, design).tobytes()
        assert pay1.tobytes() == ref1.tobytes()
        assert pay2.tobytes() == ref2.tobytes()


# Edges of the whole simulation, as overrides of a 30-period, 5-pair,
# 2-replicate run at delta = 0.5 with random noise and a random protocol.
SIM_EDGES = {
    "random": {},
    "perfect_monitoring": dict(eps=(0.0, 0.0)),
    "base_price": dict(gamma0=0.25),
    "one_period": dict(periods=1, delta=0.0),  # delta = 0: the first period alone
    "one_pair": dict(pairs=1),
    "wide": dict(pairs=40),
    "past_int16_keys": dict(periods=16_400, pairs=2),
    # threaded replicates: 1,200 draws in 2 slabs of 512 and one of 176, and
    # 320 draws a period in slabs of 104
    "several_slabs": dict(slab=512),
    "period_past_a_slab": dict(pairs=40, slab=104),
}


def _spy_on_pools(monkeypatch) -> list:
    """Record the max_workers of every ThreadPoolExecutor the simulator opens."""
    pools = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    return pools


@pytest.mark.parametrize("edge", list(SIM_EDGES))
def test_runs_equal_the_channel_reference(defaults, monkeypatch, edge):
    case = SIM_EDGES[edge]
    if "slab" in case:  # several workers even on a one-CPU host
        monkeypatch.setattr(simulate, "_SLAB_DRAWS", case["slab"])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    pools = _spy_on_pools(monkeypatch)
    rng = np.random.default_rng(100 + list(SIM_EDGES).index(edge))
    eps1, eps2 = case.get("eps", rng.uniform(0.0, 0.4, 2))
    params = with_params(defaults, eps1=eps1, eps2=eps2, delta=case.get("delta", 0.5))
    periods = max(case.get("periods", 30), utility_horizon(params.delta))
    base = dict(periods=periods, replicates=2, population=case.get("pairs", 5))
    gamma0 = case.get("gamma0", 0.0)
    rates = [(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)] + [tuple(rng.random(2))]
    deviations = [None] + [(w, r) for w in (1, 2) for r in (0, 1)]
    for alpha, beta in rates:
        design = DesignParams(alpha, beta, rng.uniform(gamma0 + 0.1, 1.0), gamma0)
        config = SimConfig(**base, seed=int(rng.integers(2**31)))
        try:
            expected = repr(run_chain_channels(design, params, config))
        except DegenerateChain:  # no flow between ratings: both sides refuse
            with pytest.raises(DegenerateChain):
                run_chain(design, params, config)
        else:
            assert repr(run_chain(design, params, config)) == expected, (alpha, beta)
        for deviation in deviations:
            config = SimConfig(**base, seed=int(rng.integers(2**31)))
            expected = repr(run_utility_channels(design, params, config, deviation))
            assert repr(run_utility(design, params, config, deviation)) == expected, (alpha, beta, deviation)
    if "slab" in case:  # capped by the replicates: 2 in a chain run, 2 per start in a utility run
        assert set(pools) == {2, 4}
    elif edge != "past_int16_keys":  # each replicate fits one slab: the calling thread
        assert pools == []


def test_batches_and_a_remainder_equal_the_channel_reference(defaults, monkeypatch):
    # 1,200 draws a replicate and slabs of 3,600: 7 chain replicates run in
    # batches of 3, 3 and 1, and the 14 utility replicates in batches of 3,
    # 3, 3, 3 and 2, two of them across both start ratings (and so across
    # the deviator's intents); slabs of 1,200 run every replicate alone
    pools = _spy_on_pools(monkeypatch)
    batches = []

    def recording(rngs, *args):
        batches.append(len(rngs))
        return draw_block(rngs, *args)

    draw_block = simulate._draw_block
    monkeypatch.setattr(simulate, "_draw_block", recording)
    rng = np.random.default_rng(31)
    params = with_params(defaults, eps1=0.15, eps2=0.3, delta=0.5)
    base = dict(periods=30, replicates=7, population=5)
    deviations = [None] + [(w, r) for w in (1, 2) for r in (0, 1)]
    for alpha, beta in ((0.6, 0.8), (1.0, 0.45), (0.7, 1.0), tuple(rng.random(2))):  # each rate at 1
        design = DesignParams(alpha, beta, rng.uniform(0.35, 1.0), 0.25)
        chain = SimConfig(**base, seed=int(rng.integers(2**31)))
        utility = [(SimConfig(**base, seed=int(rng.integers(2**31))), deviation) for deviation in deviations]
        runs = {}
        for slab in (3600, 1200):
            monkeypatch.setattr(simulate, "_SLAB_DRAWS", slab)
            batches.clear()
            runs[slab] = [repr(run_chain(design, params, chain))]
            runs[slab] += [repr(run_utility(design, params, *run)) for run in utility]
            split = [3, 3, 1] + [3, 3, 3, 3, 2] * 5 if slab == 3600 else [1] * (7 + 14 * 5)
            assert batches == split, slab
        expected = [repr(run_chain_channels(design, params, chain))]
        expected += [repr(run_utility_channels(design, params, *run)) for run in utility]
        assert runs[3600] == expected, (alpha, beta)
        assert runs[1200] == expected, (alpha, beta)
    assert pools == []  # each batch fits one slab: the calling thread


def test_utility_horizon_is_the_least_accepted(defaults):
    assert utility_horizon(0.95) == 270  # the formula's value where it already held
    assert utility_horizon(0.0) == 1
    for delta in (0.1, 0.01, 0.001, 0.5, 0.95, 0.999):
        n = utility_horizon(delta)
        assert delta**n < 1e-6
        assert n == 1 or delta ** (n - 1) >= 1e-6
        config = SimConfig(periods=n, replicates=2, population=1)
        run_utility(HALF, with_params(defaults, delta=delta), config)  # does not raise


def test_threads_give_the_bits_of_one_thread(defaults, monkeypatch):
    # 8 workers on fewer cores, switching threads every microsecond: any
    # state the replicates shared, or an order the results depended on,
    # would show in the reprs
    params = with_params(defaults, delta=0.5)
    config = SimConfig(periods=40, replicates=8, population=60, seed=9)  # 19,200 draws each
    monkeypatch.setattr(simulate, "_SLAB_DRAWS", 1024)
    pools = _spy_on_pools(monkeypatch)

    def runs():
        out = []
        for design in (DesignParams(0.6, 0.8, 0.7, 0.2), DesignParams(1.0, 0.9, 0.55, 0.0)):
            out.append(repr(run_chain(design, params, config)))
            for deviation in (None, (1, 0), (1, 1), (2, 0), (2, 1)):
                out.append(repr(run_utility(design, params, config, deviation)))
        return out

    monkeypatch.setattr(simulate, "_workers", lambda replicates, draws: 1)
    expected = runs()
    assert pools == []
    monkeypatch.setattr(simulate, "_workers", lambda replicates, draws: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert runs() == expected
    finally:
        sys.setswitchinterval(interval)
    assert pools == [8] * 12


def test_worker_count_rule(monkeypatch):
    # a pure function of the run's shape and the CPUs it may use
    threads = threading.active_count()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    slab = simulate._SLAB_DRAWS
    assert _workers(16, slab) == 1  # one slab: the calling thread
    assert _workers(16, slab + 8) == 16  # capped by the replicates
    assert _workers(100, slab + 8) == 64  # by the CPUs
    assert _workers(100, MAX_BLOCK_DRAWS // 5) == 5  # by the draws in flight
    assert _workers(100, MAX_BLOCK_DRAWS // 2) == 2
    assert _workers(100, MAX_BLOCK_DRAWS // 2 + 8) == 1  # at the limit, one replicate at a time
    assert _workers(100, MAX_BLOCK_DRAWS) == 1
    assert threading.active_count() == threads


def test_import_starts_no_thread():
    probe = (
        "import sys, threading, contest_rating\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    paths = [os.path.dirname(os.path.dirname(simulate.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == ["1", "False"]
