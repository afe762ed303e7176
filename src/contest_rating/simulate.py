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

Replicates get generators spawned from a single SeedSequence up front, so
a fixed SimConfig reproduces results bit for bit and no aggregation step
depends on replicate execution order. Each replicate draws its stream in
cache-sized slabs, and replicates too large for one slab run at the same
time on threads, one per CPU, their results gathered in replicate order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .incentives import deviation_value, lifetime_values
from .params import DesignParams, IntrinsicParams
from .ratings import stationary_distribution
from .requester import social_utility_closed
from .tableio import csv_line


# Uniform draws of one replicate, and of the replicates in flight together
# (2**27 float64 would fill 1 GiB); each replicate draws them _SLAB_DRAWS at a time.
MAX_BLOCK_DRAWS = 2**27
_SLAB_DRAWS = 1 << 17  # 1 MB of float64: a fill and its compares stay in cache


@dataclass(frozen=True)
class SimConfig:
    periods: int = 2000
    replicates: int = 16
    population: int = 50  # matched pairs per replicate
    seed: int = 0
    deviate_worker: int | None = None
    deviate_rating: int | None = None

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
        if (self.deviate_worker is None) != (self.deviate_rating is None):
            raise ValueError("deviate_worker and deviate_rating go together")
        if self.deviate_worker is not None and self.deviate_worker not in (1, 2):
            raise ValueError(f"deviate_worker must be 1 or 2, got {self.deviate_worker}")
        if self.deviate_rating is not None and self.deviate_rating not in (0, 1):
            raise ValueError(f"deviate_rating must be 0 or 1, got {self.deviate_rating}")


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

    CSV_HEADER = "metric,analytic,empirical,stderr,z"

    def rows(self) -> list[str]:
        return [
            csv_line([e.metric, e.analytic, e.empirical, e.stderr, e.z])
            for e in self.estimates
        ]

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
_PACK = np.uint64(0x0102040810204080)  # moves bit 0 of byte k of a word to bit 56 + k
_CN = np.array([[[FLIP1 | ATTACK1]], [[FLIP2 | ATTACK2]]], dtype=np.uint8)
_UPDATE = np.array([[[UPDATE1]], [[UPDATE2]]], dtype=np.uint8)


def _draw_block(rng, periods: int, pairs: int, params: IntrinsicParams, design: DesignParams, intents):
    """Draw a replicate of (periods, pairs) cells; return (code, promote, demote).

    The cells take 8 draws each from one rng.random stream, filled
    _SLAB_DRAWS at a time and packed into (periods, pairs) uint8 codes slab
    by slab, so no slab size changes a code. The UPDATE bits of promote and
    demote mark update draws below alpha and beta; a rate of 1 or more takes
    every draw, and UPDATE1 | UPDATE2 stands in for its compare. intents:
    ATTACK bits of intended attacks, by period.
    """
    rates = [design.beta if design.alpha >= 1.0 else design.alpha]
    if design.alpha < 1.0 and design.beta < 1.0:
        rates.append(design.beta)
    total = periods * pairs * 8
    codes = [np.empty(total // 8, dtype=np.uint8) for _ in rates]
    size = min(total, _SLAB_DRAWS)
    row = min(size, 4096)  # draws per compare row: rows of 8 would make each compare about 1.7x slower
    eps = [params.eps1, params.eps2, params.eps1, params.eps2]
    thresholds = [np.tile(eps + [rate, rate, 0.5, params.error_free], row // 8) for rate in rates]
    draws = np.empty((-(-size // row), row))
    draws.reshape(-1)[size:] = 0.0  # the last row can run past the slab
    below = np.empty(draws.shape, dtype=bool)
    words = below.reshape(-1).view("<u8")  # little-endian words: byte k is channel k on any host
    for first in range(0, total, size):
        n = min(size, total - first)
        rng.random(out=draws.reshape(-1)[:n])
        rows = -(-n // row)  # the part of a row past n compares stale draws or zeros, unread
        for threshold, code in zip(thresholds, codes):
            np.less(draws[:rows], threshold, out=below[:rows])
            cells = words[: n // 8]
            cells *= _PACK
            cells >>= 56
            code[first // 8 : (first + n) // 8] = cells
    code = codes[0].reshape(periods, pairs)
    code ^= intents
    if design.alpha >= 1.0:
        return code, UPDATE1 | UPDATE2, code
    return code, code, codes[1].reshape(periods, pairs) if len(codes) > 1 else UPDATE1 | UPDATE2


def _rating_paths(code: np.ndarray, promote, demote, start: np.ndarray):
    """Both rating paths as (outcome, promotions, demotions); start is (2, pairs) bool.

    outcome is the code with each worker's rating in force (updates land next
    period) in its UPDATE bit. A promotion needs an observed CN and a demotion
    its absence, so no period has both and a period with neither keeps the
    rating: the rating in force is the verdict of the last earlier event, or
    the start rating. A running maximum over the keys 2 * (period + 1) + verdict
    finds that event.
    """
    is_cn = code & _CN == 0
    pr = is_cn & (promote & _UPDATE != 0)
    de = ~is_cn & (demote & _UPDATE != 0)
    periods, pairs = code.shape
    dtype = np.int16 if 2 * periods + 1 <= np.iinfo(np.int16).max else np.int64
    keys = np.empty((2, periods + 1, pairs), dtype=dtype)
    keys[:, 0] = start
    keys[:, 1:] = (pr | de) * np.arange(2, 2 * periods + 1, 2, dtype=dtype)[:, None] + pr
    if pairs < 32:  # accumulate is one scalar recurrence per column
        keys = np.maximum.accumulate(keys, axis=1)
    else:  # doubling steps: log2(periods) whole-array passes
        step = 1
        while step < periods:  # until each row theta reads spans back to row 0
            np.maximum(keys[:, step:], keys[:, :-step], out=keys[:, step:])  # reads old values
            step *= 2
    theta = (keys[:, :-1] & 1).astype(bool)
    promotions = int(np.count_nonzero(pr & ~theta))
    demotions = int(np.count_nonzero(de & theta))
    rated = theta.view(np.uint8)
    outcome = code & (0xFF ^ UPDATE1 ^ UPDATE2) | rated[0] << 4 | rated[1] << 5
    return outcome, promotions, demotions


def _payoff_tables(design: DesignParams, params: IntrinsicParams):
    """(social, pay1, pay2) of all 256 outcome codes, each from the per-cell formula."""
    bits = np.arange(256) >> np.arange(8)[:, None] & 1 == 1  # row k: bit k of every code
    flip1, attack1, flip2, attack2, theta1, theta2, coin, fulfilled = bits
    crowd1, crowd2 = ~flip1, ~flip2  # realized C for a C intent
    win1 = np.where(crowd1 != crowd2, crowd1, np.where(attack1 != attack2, attack1, coin))
    prize1 = np.where(theta1, design.gamma1, design.gamma0)
    prize2 = np.where(theta2, design.gamma1, design.gamma0)
    social = fulfilled - np.where(win1, prize1, prize2)
    pay1 = prize1 * win1 - params.c1 * crowd1 - params.s1 * attack1 - params.d * attack2
    pay2 = prize2 * ~win1 - params.c2 * crowd2 - params.s2 * attack2 - params.d * attack1
    return social, pay1, pay2


def run_chain(design: DesignParams, params: IntrinsicParams, config: SimConfig) -> SimResult:
    """Long-run rating distribution and requester utility under compliance.

    All agents intend CN; initial ratings are drawn from the stationary
    law, so time averages are unbiased at any horizon. Estimates and
    standard errors come from the replicate means.
    """
    if config.deviate_worker is not None:
        raise ValueError("run_chain simulates compliance: deviate_worker/_rating are for run_utility")
    eta = stationary_distribution(design, params)
    analytic_social = social_utility_closed(
        design.alpha, design.beta, design.gamma1, design.gamma0, params
    )
    social, _, _ = _payoff_tables(design, params)
    pairs = config.population
    periods = config.periods

    def replicate(child):
        rng = np.random.default_rng(child)
        start = rng.random((2, pairs)) < eta.eta1
        code, promote, demote = _draw_block(rng, periods, pairs, params, design, 0)
        outcome, pro, dem = _rating_paths(code, promote, demote, start)
        good = [np.count_nonzero(outcome & bit) / outcome.size for bit in (UPDATE1, UPDATE2)]
        good_share = (good[0] + good[1]) / 2.0  # the two workers' mean ratings
        return good_share, social.take(outcome).mean(), pro, dem

    children = np.random.SeedSequence([config.seed, 0]).spawn(config.replicates)
    results = _map_replicates(replicate, children, periods * pairs * 8)
    estimates = (
        _estimate("eta0", eta.eta0, [1.0 - r[0] for r in results]),
        _estimate("eta1", eta.eta1, [r[0] for r in results]),
        _estimate("social", analytic_social, [r[1] for r in results]),
    )
    return SimResult(estimates, periods, sum(r[2] for r in results), sum(r[3] for r in results))


def utility_horizon(delta: float) -> int:
    """Least horizon that run_utility accepts: periods with delta**periods < 1e-6."""
    periods = math.ceil(math.log(1e-6) / math.log(delta)) if delta > 0.0 else 1
    while delta ** periods >= 1e-6:  # the rounded log can land on the bound
        periods += 1
    return periods


def run_utility(design: DesignParams, params: IntrinsicParams, config: SimConfig) -> SimResult:
    """Discounted lifetime values by starting rating, against the solver.

    Requires a horizon with delta^periods < 1e-6 so truncation error is
    below the Monte-Carlo noise. In deviation mode the run whose starting
    rating matches deviate_rating has that worker intend CA in its first
    period, and only the deviator's estimate is reported from that run
    (its opponent faces an off-path attack there, so the compliant
    analytic value is not its comparator).
    """
    if params.delta ** config.periods >= 1e-6:
        raise ValueError(
            f"horizon too short: delta^periods = {params.delta ** config.periods:g} >= 1e-6"
        )
    periods = config.periods
    pairs = config.population
    weights = params.delta ** np.arange(periods)
    _, pay1, pay2 = _payoff_tables(design, params)
    attack = np.zeros((periods, 1), dtype=np.uint8)  # the deviator's intents, by period
    attack[0] = ATTACK2 if config.deviate_worker == 2 else ATTACK1

    def replicate(task):
        start, child = task
        rng = np.random.default_rng(child)
        intents = attack if start == config.deviate_rating else 0
        code, promote, demote = _draw_block(rng, periods, pairs, params, design, intents)
        outcome, pro, dem = _rating_paths(code, promote, demote, np.full((2, pairs), bool(start)))
        means = [np.tensordot(weights, pay.take(outcome), axes=(0, 0)).mean() for pay in (pay1, pay2)]
        return means, pro, dem

    tasks = [
        (start, child)
        for start in (0, 1)
        for child in np.random.SeedSequence([config.seed, 1, start]).spawn(config.replicates)
    ]
    results = _map_replicates(replicate, tasks, periods * pairs * 8)
    estimates = []
    for start in (0, 1):
        deviating = config.deviate_worker is not None and config.deviate_rating == start
        runs = results[start * config.replicates : (start + 1) * config.replicates]
        for worker in (1, 2):
            means = [r[0][worker - 1] for r in runs]
            if deviating:
                if worker != config.deviate_worker:
                    continue
                analytic = deviation_value(start, design, params, worker)
                metric = f"vinf_w{worker}_r{start}_dev"
            else:
                analytic = lifetime_values(design, params, worker)[start]
                metric = f"vinf_w{worker}_r{start}"
            estimates.append(_estimate(metric, analytic, means))
    return SimResult(tuple(estimates), periods, sum(r[1] for r in results), sum(r[2] for r in results))


def _workers(replicates: int, draws: int) -> int:
    """Threads for `replicates` replicates of `draws` uniforms each; 1 is the calling thread.

    A replicate within one slab is cheaper than a thread hand-off. Above
    that, one thread per replicate and CPU, and at most MAX_BLOCK_DRAWS
    draws in flight across them.
    """
    if draws <= _SLAB_DRAWS:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(replicates, cpus, max(1, MAX_BLOCK_DRAWS // draws))


def _map_replicates(replicate, tasks: list, draws: int) -> list:
    """[replicate(task) for task in tasks], on a thread per worker that _workers allows.

    numpy's draws, compares and reductions release the GIL, so the
    replicates overlap; each owns its generator and buffers, and the results
    come back in task order, so every sum and mean is taken as on one thread.
    """
    workers = _workers(len(tasks), draws)
    if workers == 1:
        return [replicate(task) for task in tasks]
    from concurrent.futures import ThreadPoolExecutor  # here, so importing the package starts no pool

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(replicate, tasks))


def _estimate(metric: str, analytic: float, means: list) -> Estimate:
    arr = np.asarray(means, dtype=float)
    return Estimate(
        metric=metric,
        analytic=float(analytic),
        empirical=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(len(arr))),
    )
