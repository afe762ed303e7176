"""Seeded Monte-Carlo of the rated platform, the package's empirical oracle.

Each period a worker-1 agent is matched with a worker-2 agent. Intents go
through the two flip channels, the realized pair decides the contest (a
crowdsourcing side beats an in-house side, an attacker beats an abstainer,
symmetric realizations flip a fair coin), the winner is paid the prize of
its rating, and ratings update from the realized strategies. One flip
outcome per worker per period drives both the payoff and the rating
update, and requester fulfillment is an independent draw.

Each cell (period, pair) is read once into a one-byte event code; with
the ratings in force folded in, it indexes exact per-run payoff tables.
The ratings in force are a running maximum over time, taken in doubling
passes that stop as soon as every period has reached its last rating
event, so the passes grow with the longest gap between events, not with
the horizon. A batch's means and a run's estimates are each one numpy
reduction over the stacked replicates.

Replicates get generators spawned from a single SeedSequence up front, so
a fixed SimConfig reproduces results bit for bit and no aggregation step
depends on replicate execution order. Replicates run in batches: as many
as fit one cache-sized slab of draws are stacked into one (replicates,
periods, pairs) block, each drawing its own stream into its own part of
the slab, and a replicate too large for one slab is a batch of one that
draws its stream slab by slab. Batches of one run at the same time on
threads, one per CPU, and _map_batches gathers every batch's samples and
event counts in replicate order.
The payoff tables are built once per protocol and environment.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .incentives import compliant_values, deviation_value
from .params import DesignParams, IntrinsicParams
from .ratings import stationary_distribution
from .requester import social_utility_closed


# Uniform draws of one replicate, and of the replicates in flight together
# (2**27 float64 would fill 1 GiB); a batch draws them _SLAB_DRAWS at a time.
MAX_BLOCK_DRAWS = 2**27
_SLAB_DRAWS = 1 << 17  # 1 MB of float64: a fill and its compares stay in cache


@dataclass(frozen=True)
class SimConfig:
    periods: int = 2000
    replicates: int = 16
    population: int = 50  # matched pairs per replicate
    seed: int = 0

    def __post_init__(self) -> None:
        if self.periods < 1:
            raise ValueError(f"periods must be >= 1, got {self.periods}")
        if self.replicates < 2:
            raise ValueError(f"replicates must be >= 2, got {self.replicates}")
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.periods * self.population * 8 > MAX_BLOCK_DRAWS:
            raise ValueError(
                f"draw block too large: {self.periods} periods x {self.population} pairs"
                f" x 8 channels exceeds {MAX_BLOCK_DRAWS} draws"
            )


@dataclass(frozen=True)
class Estimate:
    metric: str
    analytic: float
    empirical: float
    stderr: float

    @property
    def z(self) -> float:
        if self.stderr > 0.0:
            return (self.empirical - self.analytic) / self.stderr
        return 0.0 if self.empirical == self.analytic else math.inf


@dataclass(frozen=True)
class SimResult:
    estimates: tuple[Estimate, ...]
    horizon: int
    promotions: int
    demotions: int

    def __getitem__(self, metric: str) -> Estimate:
        for e in self.estimates:
            if e.metric == metric:
                return e
        raise KeyError(metric)


# Bit k of a cell's event code: its draw on channel k fell below the channel's
# threshold. Channels: worker-1 effort and attack flips, worker-2 effort and
# attack flips, two update draws, the tie coin, the fulfillment draw. In an
# outcome code the UPDATE bits hold instead the two ratings in force.
FLIP1, ATTACK1, FLIP2, ATTACK2, UPDATE1, UPDATE2, COIN, FULFILLED = (1 << k for k in range(8))
_CN = np.array([[[[FLIP1 | ATTACK1]]], [[[FLIP2 | ATTACK2]]]], dtype=np.uint8)
_UPDATE = np.array([[[[UPDATE1]]], [[[UPDATE2]]]], dtype=np.uint8)


def _draw_block(rngs, periods: int, pairs: int, params: IntrinsicParams, design: DesignParams, intents):
    """Draw a batch, (len(rngs), periods, pairs) cells; return (code, promote, demote).

    The cells of replicate r take 8 draws each from rngs[r].random. The
    replicates' streams lie one after another, filled _SLAB_DRAWS at a time
    and packed into uint8 codes slab by slab, so neither the slab size nor
    the batch changes a code. The UPDATE bits of promote and demote mark
    update draws below alpha and beta; a rate of 1 or more takes every draw,
    so all its UPDATE bits are set. intents: ATTACK bits of intended
    attacks, broadcast to (replicates, periods, pairs).

    The slab buffers are freed on return, before the batch's rating paths
    make their temporaries in the same memory: kept for the whole run, they
    would lift the heap's peak over glibc's trim threshold, and the heap
    would be trimmed and faulted in again on every run.
    """
    rates = [design.beta if design.alpha >= 1.0 else design.alpha]
    if design.alpha < 1.0 and design.beta < 1.0:
        rates.append(design.beta)
    each = periods * pairs * 8
    total = each * len(rngs)
    codes = [np.empty(total // 8, dtype=np.uint8) for _ in rates]
    size = min(total, _SLAB_DRAWS)
    row = min(size, 4096)  # draws per compare row: rows of 8 would make each compare about 1.7x slower
    eps = [params.eps1, params.eps2, params.eps1, params.eps2]
    thresholds = [np.tile(eps + [rate, rate, 0.5, params.error_free], row // 8) for rate in rates]
    draws = np.empty((-(-size // row), row))
    draws.reshape(-1)[size:] = 0.0  # the last row can run past the slab
    below = np.empty(draws.shape, dtype=bool)
    for first in range(0, total, size):
        n = min(size, total - first)
        for r in range(first // each, (first + n - 1) // each + 1):  # the streams this slab holds
            lo, hi = max(first, r * each), min(first + n, (r + 1) * each)
            rngs[r].random(out=draws.reshape(-1)[lo - first : hi - first])
        rows = -(-n // row)  # the part of a row past n compares stale draws or zeros, unread
        for threshold, code in zip(thresholds, codes):
            np.less(draws[:rows], threshold, out=below[:rows])
            code[first // 8 : (first + n) // 8] = np.packbits(below.reshape(-1)[:n], bitorder="little")
    shape = (len(rngs), periods, pairs)
    code = codes[0].reshape(shape)
    code ^= intents
    if len(codes) > 1:
        return code, code, codes[1].reshape(shape)
    # a rate of 1 or more needs no compare; an array, as a broadcast scalar would slow each mask op
    every = np.full(shape, UPDATE1 | UPDATE2, dtype=np.uint8)
    return (code, every, code) if design.alpha >= 1.0 else (code, code, every)


def _event_keys(code: np.ndarray, promote, demote, start):
    """Keys of both rating recurrences of a batch, (2, replicates, periods + 1, pairs).

    Row 0 holds the start rating and row t + 1 the key 2 * (t + 1) + verdict
    of an event in period t, or 0 without one. A promotion needs an observed
    CN and a demotion its absence, so no period has both.
    """
    is_cn = code & _CN == 0
    promoted = promote & _UPDATE != 0
    promoted &= is_cn
    event = demote & _UPDATE != 0
    event &= ~is_cn
    event |= promoted
    replicates, periods, pairs = code.shape
    dtype = np.int16 if 2 * periods + 1 <= np.iinfo(np.int16).max else np.int64
    keys = np.empty((2, replicates, periods + 1, pairs), dtype=dtype)
    keys[:, :, 0] = start
    # whole (period, pair) rows: broadcast over the pairs, each inner loop would be pairs long
    period_keys = np.arange(2, 2 * periods + 1, 2, dtype=dtype).repeat(pairs).reshape(periods, pairs)
    np.multiply(event, period_keys, out=keys[:, :, 1:])
    keys[:, :, 1:] += promoted
    return keys


def _rating_paths(code: np.ndarray, promote, demote, start):
    """Both rating paths of a batch as (outcome, promotions, demotions).

    code is (replicates, periods, pairs); start broadcasts to (2,
    replicates, pairs) bool. outcome is the code with each worker's rating
    in force (updates land next period) in its UPDATE bit. A period without
    an event keeps the rating, so the rating in force is the verdict of the
    last earlier event, or the start rating: a running maximum over the
    event keys finds that event. The maximum is taken in doubling steps,
    whole-array passes in place that double the rows each row spans. Event
    keys grow with the period and outrank the start rating, so once every
    row that does not span back to row 0 holds an event key, each holds its
    last event and the scan stops: about log2 of the longest gap between
    events passes, and at most log2(periods + 1). Each rise of the rating is
    a promotion and each fall a demotion. The keys' temporaries are freed
    before the scan, which keeps the batch's peak memory low.
    """
    keys = _event_keys(code, promote, demote, start)
    step = 1  # row t holds the largest key of rows t - step + 1 ... t
    while not keys[:, :, step:].all():  # empty once every row spans back to row 0
        np.maximum(keys[:, :, step:], keys[:, :, :-step], out=keys[:, :, step:])  # reads old values
        step *= 2
    rating = np.bitwise_and(keys, 1, out=keys)  # in force in each period, and after the last
    promotions = int(np.count_nonzero(rating[:, :, 1:] > rating[:, :, :-1]))
    demotions = int(np.count_nonzero(rating[:, :, 1:] < rating[:, :, :-1]))
    rated = rating[:, :, :-1].astype(np.uint8)
    outcome = code & (0xFF ^ UPDATE1 ^ UPDATE2)
    outcome |= rated[0] << 4
    outcome |= rated[1] << 5
    return outcome, promotions, demotions


@lru_cache(maxsize=128)
def _payoff_tables(design: DesignParams, params: IntrinsicParams):
    """(social, pay1, pay2) of all 256 outcome codes, each from the per-cell formula.

    Read-only arrays, built once per protocol and environment (the cache is
    bounded), so a chain run and a utility run of one protocol share them.
    """
    bits = np.arange(256) >> np.arange(8)[:, None] & 1 == 1  # row k: bit k of every code
    flip1, attack1, flip2, attack2, theta1, theta2, coin, fulfilled = bits
    crowd1, crowd2 = ~flip1, ~flip2  # realized C for a C intent
    win1 = np.where(crowd1 != crowd2, crowd1, np.where(attack1 != attack2, attack1, coin))
    prize1 = np.where(theta1, design.gamma1, design.gamma0)
    prize2 = np.where(theta2, design.gamma1, design.gamma0)
    social = fulfilled - np.where(win1, prize1, prize2)
    pay1 = prize1 * win1 - params.c1 * crowd1 - params.s1 * attack1 - params.d * attack2
    pay2 = prize2 * ~win1 - params.c2 * crowd2 - params.s2 * attack2 - params.d * attack1
    for table in (social, pay1, pay2):
        table.flags.writeable = False
    return social, pay1, pay2


def run_chain(design: DesignParams, params: IntrinsicParams, config: SimConfig) -> SimResult:
    """Long-run rating distribution and requester utility under compliance.

    All agents intend CN; initial ratings are drawn from the stationary
    law, so time averages are unbiased at any horizon. Estimates and
    standard errors come from the replicate means.
    """
    eta = stationary_distribution(design, params)
    analytic_social = social_utility_closed(
        design.alpha, design.beta, design.gamma1, design.gamma0, params
    )
    social, _, _ = _payoff_tables(design, params)
    pairs = config.population
    periods = config.periods

    def simulate_batch(children):
        rngs = [np.random.default_rng(child) for child in children]
        start = np.stack([rng.random((2, pairs)) < eta.eta1 for rng in rngs], axis=1)
        code, promote, demote = _draw_block(rngs, periods, pairs, params, design, 0)
        outcome, pro, dem = _rating_paths(code, promote, demote, start)
        cells = outcome.reshape(len(rngs), -1)  # one contiguous row per replicate
        good = [np.count_nonzero(cells & bit, axis=1) / cells.shape[1] for bit in (UPDATE1, UPDATE2)]
        good_share = (good[0] + good[1]) / 2.0  # the two workers' mean ratings
        return np.stack([1.0 - good_share, good_share, social.take(cells).mean(axis=1)]), pro, dem

    children = np.random.SeedSequence([config.seed, 0]).spawn(config.replicates)
    samples, promotions, demotions = _map_batches(simulate_batch, children, periods * pairs * 8)
    analytic = {"eta0": eta.eta0, "eta1": eta.eta1, "social": analytic_social}
    empirical, stderr = _mean_and_stderr(samples)
    estimates = tuple(Estimate(m, float(a), e, s) for (m, a), e, s in zip(analytic.items(), empirical, stderr))
    return SimResult(estimates, periods, promotions, demotions)


def utility_horizon(delta: float) -> int:
    """Least horizon that run_utility accepts: periods with delta**periods < 1e-6."""
    periods = math.ceil(math.log(1e-6) / math.log(delta)) if delta > 0.0 else 1
    while delta ** periods >= 1e-6:  # the rounded log can land on the bound
        periods += 1
    return periods


def run_utility(
    design: DesignParams, params: IntrinsicParams, config: SimConfig, deviation: tuple[int, int] | None = None
) -> SimResult:
    """Discounted lifetime values by starting rating, against the solver.

    Requires a horizon with delta^periods < 1e-6 so truncation error is
    below the Monte-Carlo noise. A deviation (worker, rating) has that
    worker intend CA in the first period of the runs that start at that
    rating, and only the deviator's estimate is reported from them (its
    opponent faces an off-path attack there, so the compliant analytic
    value is not its comparator).
    """
    deviator, deviated = deviation or (None, None)
    if deviation is not None and (deviator not in (1, 2) or deviated not in (0, 1)):
        raise ValueError(f"deviation must be a (worker 1 or 2, rating 0 or 1) pair, got {deviation!r}")
    if params.delta ** config.periods >= 1e-6:
        raise ValueError(
            f"horizon too short: delta^periods = {params.delta ** config.periods:g} >= 1e-6"
        )
    periods = config.periods
    pairs = config.population
    weights = params.delta ** np.arange(periods)
    _, pay1, pay2 = _payoff_tables(design, params)
    attack = ATTACK2 if deviator == 2 else ATTACK1

    def simulate_batch(tasks):
        rngs = [np.random.default_rng(child) for _, child in tasks]
        starts = np.array([start for start, _ in tasks], dtype=bool)
        intents = 0
        if deviation is not None:  # the deviator's intents, by replicate and period
            intents = np.zeros((len(tasks), periods, 1), dtype=np.uint8)
            intents[starts == deviated, 0] = attack
        code, promote, demote = _draw_block(rngs, periods, pairs, params, design, intents)
        outcome, pro, dem = _rating_paths(code, promote, demote, starts[:, None])
        # one dot per replicate: a batched product sums in another order
        dots = np.array([[np.dot(weights, x) for x in pay.take(outcome)] for pay in (pay1, pay2)])
        return dots.mean(axis=2), pro, dem  # (worker, replicate): the mean over the pairs

    tasks = [
        (start, child)
        for start in (0, 1)
        for child in np.random.SeedSequence([config.seed, 1, start]).spawn(config.replicates)
    ]
    means, promotions, demotions = _map_batches(simulate_batch, tasks, periods * pairs * 8)  # (worker, task)
    empirical, stderr = _mean_and_stderr(means.reshape(2, 2, config.replicates))  # (worker, start)
    values = compliant_values(design, params)  # by worker - 1
    estimates = []
    for start in (0, 1):
        for worker in (1, 2):
            if start != deviated:
                analytic, metric = values[worker - 1][start], f"vinf_w{worker}_r{start}"
            elif worker == deviator:
                analytic, metric = deviation_value(start, design, params, worker), f"vinf_w{worker}_r{start}_dev"
            else:
                continue
            estimates.append(
                Estimate(metric, float(analytic), empirical[worker - 1][start], stderr[worker - 1][start])
            )
    return SimResult(tuple(estimates), periods, promotions, demotions)


def _workers(batches: int, draws: int) -> int:
    """Threads for `batches` batches of `draws` uniforms each; 1 is the calling thread.

    A batch within one slab is cheaper than a thread hand-off. Above that,
    one thread per batch and CPU, and at most MAX_BLOCK_DRAWS draws in
    flight across them.
    """
    if draws <= _SLAB_DRAWS:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(batches, cpus, max(1, MAX_BLOCK_DRAWS // draws))


def _map_batches(simulate_batch, tasks: list, each: int) -> tuple[np.ndarray, int, int]:
    """(samples, promotions, demotions) of simulate_batch over the batches of tasks.

    simulate_batch maps a batch to its (metrics, replicates) samples and its
    promotion and demotion counts. The batches' samples are joined along the
    replicates in batch order, and their counts summed.

    A batch is as many consecutive tasks of `each` draws as fit one slab,
    and at least one. Batches run on a thread per worker that _workers
    allows. numpy's draws, compares and reductions release the GIL, so the
    batches overlap; each owns its generators and buffers, and the results
    come back in batch order, so every sum and mean is taken as on one
    thread.
    """
    size = max(1, _SLAB_DRAWS // each)
    batches = [tasks[i : i + size] for i in range(0, len(tasks), size)]
    workers = _workers(len(batches), len(batches[0]) * each)
    if workers == 1:
        results = [simulate_batch(batch) for batch in batches]
    else:
        from concurrent.futures import ThreadPoolExecutor  # here, so importing the package starts no pool

        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(simulate_batch, batches))
    samples, promotions, demotions = zip(*results)
    return np.concatenate(samples, axis=1), sum(promotions), sum(demotions)


def _mean_and_stderr(samples: np.ndarray) -> tuple[list, list]:
    """Each row's mean over its replicates (the last axis) and that mean's standard error, as floats."""
    replicates = samples.shape[-1]
    return samples.mean(axis=-1).tolist(), (samples.std(axis=-1, ddof=1) / math.sqrt(replicates)).tolist()
