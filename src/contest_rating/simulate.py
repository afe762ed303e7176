"""Seeded Monte-Carlo of the rated platform, the package's empirical oracle.

Each period a worker-1 agent is matched with a worker-2 agent. Intents go
through the two flip channels, the realized pair decides the contest (a
crowdsourcing side beats an in-house side, an attacker beats an abstainer,
symmetric realizations flip a fair coin), the winner is paid the prize of
its rating, and ratings update from the realized strategies. One flip
outcome per worker per period drives both the payoff and the rating
update, and requester fulfillment is an independent draw.

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


def _draw_block(rng, periods: int, pairs: int, params: IntrinsicParams, attack1, attack2):
    """One replicate's realized events; attack_i is a (periods, 1) intent mask.

    Channel layout (fixed, so draws are reproducible): worker-1 effort and
    attack flips, worker-2 effort and attack flips, two update draws, the
    tie coin, and the fulfillment draw.
    """
    u = rng.random((periods, pairs, 8))
    eps1, eps2 = params.eps1, params.eps2  # the update channels' thresholds are unused
    below = u < np.array([eps1, eps2, eps1, eps2, 0.0, 0.0, 0.5, params.error_free])
    return {
        "crowd1": ~below[..., 0],  # realized C for a C intent
        "crowd2": ~below[..., 2],
        "attack1": below[..., 1] ^ attack1,  # an attack flip turns the intent over
        "attack2": below[..., 3] ^ attack2,
        "update1": u[..., 4],
        "update2": u[..., 5],
        "coin": below[..., 6],
        "fulfilled": below[..., 7],
    }


def _winner(ev) -> np.ndarray:
    """True where the worker-1 side takes the contest."""
    return np.where(
        ev["crowd1"] != ev["crowd2"],
        ev["crowd1"],
        np.where(ev["attack1"] != ev["attack2"], ev["attack1"], ev["coin"]),
    )


def _rating_paths(ev, design: DesignParams):
    """Simulate both rating paths from the realized strategies.

    Returns (theta1, theta2, promotions, demotions); theta arrays hold the
    rating in force during each period (updates land next period). A
    promotion needs an observed CN and a demotion its absence, so no period
    has both and a period with neither keeps the rating: the rating in force
    is the verdict of the last earlier event, or the start rating. A running
    maximum over the keys 2 * (period + 1) + verdict finds that event.
    """
    is_cn = np.stack([ev["crowd1"] & ~ev["attack1"], ev["crowd2"] & ~ev["attack2"]])
    update = np.stack([ev["update1"], ev["update2"]])
    pr = is_cn & (update < design.alpha)
    de = ~is_cn & (update < design.beta)
    periods = is_cn.shape[1]
    dtype = np.int16 if 2 * periods + 1 <= np.iinfo(np.int16).max else np.int64
    keys = np.empty((2, periods + 1, is_cn.shape[2]), dtype=dtype)
    keys[:, 0] = (ev["start1"], ev["start2"])
    keys[:, 1:] = (pr | de) * np.arange(2, 2 * periods + 1, 2, dtype=dtype)[:, None] + pr
    theta = (np.maximum.accumulate(keys, axis=1)[:, :-1] & 1).astype(bool)
    promotions = int(np.count_nonzero(pr & ~theta))
    demotions = int(np.count_nonzero(de & theta))
    return theta[0], theta[1], promotions, demotions


def run_chain(design: DesignParams, params: IntrinsicParams, config: SimConfig) -> SimResult:
    """Long-run rating distribution and requester utility under compliance.

    All agents intend CN; initial ratings are drawn from the stationary
    law, so time averages are unbiased at any horizon. Estimates and
    standard errors come from the replicate means.
    """
    eta = stationary_distribution(design, params)
    analytic_social = social_utility(design, params).value
    children = np.random.SeedSequence([config.seed, 0]).spawn(config.replicates)
    pairs = config.population
    periods = config.periods
    no_attack = np.zeros((periods, 1), dtype=bool)
    eta0_means = []
    eta1_means = []
    social_means = []
    promotions = demotions = 0
    for child in children:
        rng = np.random.default_rng(child)
        start = rng.random((2, pairs)) < eta.eta1
        ev = _draw_block(rng, periods, pairs, params, no_attack, no_attack)
        ev["start1"], ev["start2"] = start[0], start[1]
        theta1, theta2, pro, dem = _rating_paths(ev, design)
        promotions += pro
        demotions += dem
        good_share = (theta1.mean() + theta2.mean()) / 2.0
        eta0_means.append(1.0 - good_share)
        eta1_means.append(good_share)
        win1 = _winner(ev)
        prize_paid = np.where(
            win1,
            np.where(theta1, design.gamma1, design.gamma0),
            np.where(theta2, design.gamma1, design.gamma0),
        )
        social_means.append((ev["fulfilled"] - prize_paid).mean())
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
    for start in (0, 1):
        deviating = config.deviate_worker is not None and config.deviate_rating == start
        attack1 = np.zeros((periods, 1), dtype=bool)
        attack2 = np.zeros((periods, 1), dtype=bool)
        if deviating and config.deviate_worker == 1:
            attack1[0] = True
        if deviating and config.deviate_worker == 2:
            attack2[0] = True
        children = np.random.SeedSequence([config.seed, 1, start]).spawn(config.replicates)
        means1 = []
        means2 = []
        for child in children:
            rng = np.random.default_rng(child)
            ev = _draw_block(rng, periods, pairs, params, attack1, attack2)
            full = np.full((pairs,), bool(start))
            ev["start1"] = full.copy()
            ev["start2"] = full.copy()
            theta1, theta2, pro, dem = _rating_paths(ev, design)
            promotions += pro
            demotions += dem
            win1 = _winner(ev)
            prize1 = np.where(theta1, design.gamma1, design.gamma0)
            prize2 = np.where(theta2, design.gamma1, design.gamma0)
            pay1 = (
                prize1 * win1
                - params.c1 * ev["crowd1"]
                - params.s1 * ev["attack1"]
                - params.d * ev["attack2"]
            )
            pay2 = (
                prize2 * ~win1
                - params.c2 * ev["crowd2"]
                - params.s2 * ev["attack2"]
                - params.d * ev["attack1"]
            )
            means1.append(np.tensordot(weights, pay1, axes=(0, 0)).mean())
            means2.append(np.tensordot(weights, pay2, axes=(0, 0)).mean())
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
