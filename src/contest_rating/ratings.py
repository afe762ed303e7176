"""Rating evolution: strategy-conditional kernels and the stationary law.

Ratings are binary. Each period the platform observes a worker's realized
strategy (post flip-noise) and applies a one-sided update: a worker seen
compliant (CN) is promoted from 0 with probability alpha and kept at 1;
a worker seen deviating is demoted from 1 with probability beta and kept
at 0. Conditioning on the *intended* strategy and integrating out the
flips gives a 2x2 Markov kernel per intent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChain, UnsupportedStrategy
from .params import DesignParams, IntrinsicParams, Strategy


def observed_compliant_prob(intended: Strategy, params: IntrinsicParams) -> float:
    """Probability the realized strategy reads as CN, for the two analyzed intents."""
    if intended is Strategy.CN:
        return params.error_free
    if intended is Strategy.CA:
        # the attack flips back to N with prob eps2, and the C stage must hold
        return params.eps2 - params.eps1 * params.eps2
    raise UnsupportedStrategy(
        f"rating kernel is defined for CN and CA intents only, got {intended}"
    )


def transition_kernel(intended: Strategy, design: DesignParams, params: IntrinsicParams) -> np.ndarray:
    """2x2 rating kernel, rows = current rating 0/1, columns = next rating."""
    seen_cn = observed_compliant_prob(intended, params)
    promote = design.alpha * seen_cn
    demote = design.beta * (1.0 - seen_cn)
    return np.array([[1.0 - promote, promote], [demote, 1.0 - demote]])


@dataclass(frozen=True)
class StationaryDistribution:
    eta0: float
    eta1: float


def stationary_distribution(design: DesignParams, params: IntrinsicParams) -> StationaryDistribution:
    """Unique stationary law of the compliant-play kernel.

    eta0 = beta*error_any / (beta*error_any + alpha*error_free). Demands
    some flow between the ratings; alpha = beta = 0 (or alpha*error_free =
    beta*error_any = 0) freezes every initial condition and raises.
    """
    up = design.alpha * params.error_free
    down = design.beta * params.error_any
    denom = up + down
    if denom <= 0.0:
        raise DegenerateChain(
            "no flow between ratings: alpha*error_free + beta*error_any = 0"
        )
    return StationaryDistribution(eta0=down / denom, eta1=up / denom)
