"""Requester-side (platform) utility of a compliant population.

Each period a transaction is fulfilled only when neither monitoring stage
misfires (probability error_free), and the winner is paid the prize of its
own rating. In the stationary rating distribution the requester's expected
per-period utility has a small closed form that the pairwise enumeration
must reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import DesignParams, IntrinsicParams
from .ratings import StationaryDistribution, stationary_distribution


def per_winner_utility(rating: int, design: DesignParams, params: IntrinsicParams) -> float:
    """Requester value of one transaction won at the given rating.

    Enumerates the two monitoring outcomes: a clean transaction delivers
    the unit value, a misread one delivers nothing, and the prize is paid
    either way. Reduces to error_free - gamma_rating.
    """
    prize = design.price(rating)
    return params.error_free * (1.0 - prize) + params.error_any * (0.0 - prize)


def pair_utility(
    rating_a: int,
    rating_b: int,
    design: DesignParams,
    eta: StationaryDistribution,
    params: IntrinsicParams,
) -> float:
    """Joint-probability share of one matched rating pair, winner a fair coin."""
    half = 0.5 * (
        per_winner_utility(rating_a, design, params)
        + per_winner_utility(rating_b, design, params)
    )
    return eta[rating_a] * eta[rating_b] * half


@dataclass(frozen=True)
class SocialUtility:
    enumerated: float
    closed_form: float
    eta: StationaryDistribution

    @property
    def residual(self) -> float:
        return self.enumerated - self.closed_form

    @property
    def value(self) -> float:
        return self.closed_form


def social_utility(design: DesignParams, params: IntrinsicParams) -> SocialUtility:
    """Stationary per-period requester utility, by enumeration and closed form."""
    eta = stationary_distribution(design, params)
    total = 0.0
    for rating_a in (0, 1):
        for rating_b in (0, 1):
            total += pair_utility(rating_a, rating_b, design, eta, params)
    closed = float(
        social_utility_closed(design.alpha, design.beta, design.gamma1, design.gamma0, params)
    )
    return SocialUtility(enumerated=total, closed_form=closed, eta=eta)


def social_utility_closed(alpha, beta, gamma1, gamma0, params: IntrinsicParams):
    """Closed form error_free - E_eta[gamma]; numpy-broadcasting over the arguments.

    Callers guarantee alpha*error_free + beta*error_any > 0 (the stationary
    law must exist); the vectorized design search satisfies it by
    construction.
    """
    up = alpha * params.error_free
    down = beta * params.error_any
    return params.error_free - (down * gamma0 + up * gamma1) / (down + up)

