"""One-period worker payoffs under the rating protocol with noisy monitoring.

The platform pays the contest winner the prize attached to its rating
(gamma0 or gamma1) instead of the unit prize. A worker's intent is pushed
through two independent flip channels before it lands: the first stage
(crowdsource/in-house) flips with probability eps1, the second (attack/not)
with probability eps2. The opponent is always compliant (intends CN), so
the one expected payoff, against_compliant, mixes a perfect-monitoring
payoff matrix over both workers' realized strategies for that opponent.

Every strategy's expected payoff is affine in the prize gamma.
payoff_table builds the eight (slope, intercept) pairs of an environment
once; payoff_line and the incentive and design layers read them from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import STRATEGIES, IntrinsicParams, Strategy, check_worker


def perfect_monitoring_matrix(worker: int, gamma: float, params: IntrinsicParams) -> np.ndarray:
    """4x4 realized-strategy payoff matrix for one worker, rows = own strategy.

    Row/column order is CN, CA, SN, SA. Ties (same realized pair) split the
    prize in expectation, a crowdsourcing side beats an in-house side, and
    between one attacker and one abstainer the attacker takes the contest.
    Cost accounting per cell: own c on crowdsourcing, own s on attacking,
    and the damage d whenever the opponent attacks.
    """
    c = params.cost(worker)
    s = params.attack_cost(worker)
    d = params.d
    g = gamma
    # fmt: off
    return np.array([
        # vs CN            vs CA                vs SN        vs SA
        [g / 2 - c,        -c - d,              g - c,       g - c - d],        # CN
        [g - c - s,        g / 2 - c - s - d,   g - c - s,   g - c - s - d],    # CA
        [0.0,              -d,                  g / 2,       -d],               # SN
        [-s,               -s - d,              g - s,       g / 2 - s - d],    # SA
    ])
    # fmt: on


@lru_cache(maxsize=512)
def realized_mix(intended: Strategy, params: IntrinsicParams) -> np.ndarray:
    """Distribution of the realized strategy given the intent, a read-only array.

    The two stages flip independently: eps1 swaps C/S, eps2 swaps N/A, so
    the mix is the outer product of the two stage channels, flattened in
    the CN, CA, SN, SA order; entries sum to one exactly. Built once per
    intent and environment (the cache is bounded: four intents for each of
    payoff_table's environments). An error rate of -0.0 is read as +0.0,
    so environments that compare equal share one mix bit for bit.
    """
    stage1 = [1.0 - params.eps1, params.eps1 + 0.0]  # realized C, S for an intended C
    stage2 = [1.0 - params.eps2, params.eps2 + 0.0]  # realized N, A for an intended N
    if not intended.crowdsources:
        stage1.reverse()
    if intended.attacks:
        stage2.reverse()
    mix = np.outer(stage1, stage2).ravel()
    mix.flags.writeable = False
    return mix


def against_compliant(worker: int, intended: Strategy, gamma: float, params: IntrinsicParams) -> float:
    """Expected one-period payoff of `worker` with prize gamma on its rating, opponent intending CN.

    Both intents are mixed through the flip channels; the prize depends only
    on this worker's own rating, so gamma enters as a scalar here.
    """
    own = realized_mix(intended, params)
    opp = realized_mix(Strategy.CN, params)
    return float(own @ perfect_monitoring_matrix(worker, gamma, params) @ opp)


@dataclass(frozen=True)
class PayoffTable:
    """The eight payoff lines of one environment, as read-only arrays and as floats.

    slope[w - 1, i] and intercept[w - 1, i] give worker w's line for the
    intent STRATEGIES[i]. For scalar callers, worker_lines[w - 1] holds
    worker w's (slopes, intercepts) as tuples of floats. drop[i] is how much
    less likely intent i is read as CN than CN itself (worker-independent;
    0 for CN, and negative for SN or SA where eps1 > 1/2 or eps1 + eps2 > 1).
    """

    slope: np.ndarray
    intercept: np.ndarray
    worker_lines: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    drop: tuple[float, ...]

    def lines(self, worker: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(slopes, intercepts) of one worker's four lines, in STRATEGIES order, as floats."""
        check_worker(worker)
        return self.worker_lines[worker - 1]


@lru_cache(maxsize=128)
def payoff_table(params: IntrinsicParams) -> PayoffTable:
    """Slopes and intercepts of gamma -> expected payoff against a compliant opponent.

    Affinity in gamma is exact (the matrix is affine in gamma cell by cell),
    so the evaluations at gamma = 0 and gamma = 1 pin each line. Built once
    per environment (the cache is bounded) and shared by every caller.
    Environments that differ only in the sign of a zero error rate compare
    equal, and their tables are the same bit for bit.
    """
    at0 = np.array([[against_compliant(w, s, 0.0, params) for s in STRATEGIES] for w in (1, 2)])
    at1 = np.array([[against_compliant(w, s, 1.0, params) for s in STRATEGIES] for w in (1, 2)])
    seen_cn = np.array([realized_mix(s, params)[Strategy.CN.index] for s in STRATEGIES])
    drop = seen_cn[Strategy.CN.index] - seen_cn
    slope, intercept = at1 - at0, at0
    slope.flags.writeable = intercept.flags.writeable = False
    worker_lines = tuple((tuple(s), tuple(i)) for s, i in zip(slope.tolist(), intercept.tolist()))
    return PayoffTable(slope, intercept, worker_lines, tuple(drop.tolist()))


def payoff_line(worker: int, intended: Strategy, params: IntrinsicParams) -> tuple[float, float]:
    """(slope, intercept) of gamma -> expected payoff against a compliant opponent."""
    slopes, intercepts = payoff_table(params).lines(worker)
    i = intended.index
    return slopes[i], intercepts[i]
