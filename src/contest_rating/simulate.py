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
depends on replicate execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .incentives import deviation_value, lifetime_values
from .params import DesignParams, IntrinsicParams
from .ratings import stationary_distribution
from .requester import social_utility
from .tableio import csv_line


MAX_BLOCK_DRAWS = 2**27  # uniform draws in one replicate's event block: 1 GiB of float64


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


def _draw_block(rng, block: np.ndarray, params: IntrinsicParams, design: DesignParams, intents):
    """Draw a replicate into block, (periods, pairs, 8); return (code, promote, demote).

    The UPDATE bits of promote and demote mark update draws below alpha and
    beta; a rate of 1 or more takes every draw, and UPDATE1 | UPDATE2 stands
    in for its compare. intents: ATTACK bits of intended attacks, by period.
    """
    periods, pairs, _ = block.shape
    rng.random(out=block)
    u = block.reshape(periods, 8 * pairs)  # so each compare is one contiguous pass
    eps = [params.eps1, params.eps2, params.eps1, params.eps2]

    def below(rate):  # as (periods, pairs) uint8 codes
        words = (u < np.tile(eps + [rate, rate, 0.5, params.error_free], pairs)).view("<u8")
        words *= _PACK  # little-endian words: byte k is channel k on any host
        words >>= 56
        return words.astype(np.uint8)

    code = below(design.beta if design.alpha >= 1.0 else design.alpha)
    code ^= intents
    if design.alpha >= 1.0:
        return code, UPDATE1 | UPDATE2, code
    return code, code, UPDATE1 | UPDATE2 if design.beta >= 1.0 else below(design.beta)


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
    analytic_social = social_utility(design, params).value
    social, _, _ = _payoff_tables(design, params)
    children = np.random.SeedSequence([config.seed, 0]).spawn(config.replicates)
    pairs = config.population
    periods = config.periods
    block = np.empty((periods, pairs, 8))  # each replicate's draws, in one buffer
    eta0_means = []
    eta1_means = []
    social_means = []
    promotions = demotions = 0
    for child in children:
        rng = np.random.default_rng(child)
        start = rng.random((2, pairs)) < eta.eta1
        code, promote, demote = _draw_block(rng, block, params, design, 0)
        outcome, pro, dem = _rating_paths(code, promote, demote, start)
        promotions += pro
        demotions += dem
        good = [np.count_nonzero(outcome & bit) / outcome.size for bit in (UPDATE1, UPDATE2)]
        good_share = (good[0] + good[1]) / 2.0  # the two workers' mean ratings
        eta0_means.append(1.0 - good_share)
        eta1_means.append(good_share)
        social_means.append(social.take(outcome).mean())
    estimates = (
        _estimate("eta0", eta.eta0, eta0_means),
        _estimate("eta1", eta.eta1, eta1_means),
        _estimate("social", analytic_social, social_means),
    )
    return SimResult(estimates, periods, promotions, demotions)


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
    estimates = []
    promotions = demotions = 0
    _, pay1, pay2 = _payoff_tables(design, params)
    block = np.empty((periods, pairs, 8))  # each replicate's draws, in one buffer
    for start in (0, 1):
        deviating = config.deviate_worker is not None and config.deviate_rating == start
        intents = np.zeros((periods, 1), dtype=np.uint8)
        if deviating:
            intents[0] = ATTACK1 if config.deviate_worker == 1 else ATTACK2
        starts = np.full((2, pairs), bool(start))
        children = np.random.SeedSequence([config.seed, 1, start]).spawn(config.replicates)
        means1 = []
        means2 = []
        for child in children:
            rng = np.random.default_rng(child)
            code, promote, demote = _draw_block(rng, block, params, design, intents)
            outcome, pro, dem = _rating_paths(code, promote, demote, starts)
            promotions += pro
            demotions += dem
            means1.append(np.tensordot(weights, pay1.take(outcome), axes=(0, 0)).mean())
            means2.append(np.tensordot(weights, pay2.take(outcome), axes=(0, 0)).mean())
        for worker, means in ((1, means1), (2, means2)):
            if deviating:
                if worker != config.deviate_worker:
                    continue
                analytic = deviation_value(start, design, params, worker)
                metric = f"vinf_w{worker}_r{start}_dev"
            else:
                analytic = lifetime_values(design, params, worker)[start]
                metric = f"vinf_w{worker}_r{start}"
            estimates.append(_estimate(metric, analytic, means))
    return SimResult(tuple(estimates), periods, promotions, demotions)


def _estimate(metric: str, analytic: float, means: list) -> Estimate:
    arr = np.asarray(means, dtype=float)
    return Estimate(
        metric=metric,
        analytic=float(analytic),
        empirical=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(len(arr))),
    )
