"""Test oracles that re-derive the package's closed forms another way.

- `productivity_mc`: the stage game's ex-ante payoffs by seeded Monte
  Carlo over iid uniform productivity draws, with the same event
  accounting as the closed forms of `stage_game.py` beside it (criterion 04
  and `test_stage_game.py`).
- `social_utility`: the requester's stationary utility by enumerating the
  matched rating pairs and the two monitoring outcomes, next to
  `requester.social_utility_closed` (criterion 01).
- `evolve`: one power-iteration step of the compliant rating chain, whose
  fixed point must be `ratings.stationary_distribution` (criterion 02).
- `rating_update_rule`: the next-rating distribution given one observed
  strategy, which `ratings.transition_kernel` mixes over the observation
  noise (`four_intent.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from contest_rating.params import DesignParams, IntrinsicParams, Strategy
from contest_rating.ratings import StationaryDistribution, stationary_distribution, transition_kernel
from contest_rating.requester import social_utility_closed
from stage_game import CASES


@dataclass(frozen=True)
class McStagePayoffs:
    case: tuple[str, str]
    v1: float
    v2: float
    stderr1: float
    stderr2: float
    samples: int
    seed: int


def productivity_mc(
    action1: str,
    action2: str,
    params: IntrinsicParams,
    samples: int = 1_000_000,
    seed: int = 0,
) -> McStagePayoffs:
    """Monte-Carlo ex-ante payoffs under iid uniform productivity draws.

    Event accounting mirrors the closed forms case by case. In symmetric
    profiles the contest is even: a lead above d wins cleanly for 1 - cost,
    a lead in (0, d] wins by attacking for 1 - cost - s, losing pays 0 (the
    crowdsourcing fee is a prize share, so it is only paid on wins). In
    mixed profiles only the crowdsourcing side can win the prize, and it
    must clear the in-house benchmark by its own fee c before the same
    clean/attack split applies; the in-house side is paid 0 identically.
    """
    if samples < 10_000:
        raise ValueError(f"samples too small for a meaningful estimate: {samples}")
    if (action1, action2) not in CASES:
        raise ValueError(f"unknown first-stage profile: {(action1, action2)!r}")
    rng = np.random.default_rng(seed)
    p1 = rng.random(samples)
    p2 = rng.random(samples)
    d = params.d
    if action1 == action2:
        cost1 = params.c1 if action1 == "C" else 0.0
        cost2 = params.c2 if action2 == "C" else 0.0
        lead = p1 - p2
        pay1 = _event_payoffs(lead, d, cost1, params.s1)
        pay2 = _event_payoffs(-lead, d, cost2, params.s2)
    elif action1 == "C":
        pay1 = _event_payoffs(p1 - p2 - params.c1, d, params.c1, params.s1)
        pay2 = np.zeros_like(p2)
    else:
        pay2 = _event_payoffs(p2 - p1 - params.c2, d, params.c2, params.s2)
        pay1 = np.zeros_like(p1)
    v1, se1 = float(pay1.mean()), float(pay1.std(ddof=1) / np.sqrt(samples))
    v2, se2 = float(pay2.mean()), float(pay2.std(ddof=1) / np.sqrt(samples))
    return McStagePayoffs((action1, action2), v1, v2, se1, se2, samples, seed)


def _event_payoffs(lead: np.ndarray, d: float, cost: float, s: float) -> np.ndarray:
    # Losing events pay exactly zero, matching the closed-form accounting.
    win_clean = lead > d
    win_attack = (lead > 0.0) & ~win_clean
    out = np.zeros_like(lead)
    out[win_clean] = 1.0 - cost
    out[win_attack] = 1.0 - cost - s
    return out


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
    share = (eta.eta0, eta.eta1)
    return share[rating_a] * share[rating_b] * half


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


def evolve(dist, design: DesignParams, params: IntrinsicParams) -> np.ndarray:
    """One-period push-forward of a rating distribution under compliant play."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (2,) or abs(float(dist.sum()) - 1.0) > 1e-9 or (dist < 0).any():
        raise ValueError(f"not a rating distribution: {dist!r}")
    return dist @ transition_kernel(Strategy.CN, design, params)


def rating_update_rule(rating: int, observed: Strategy, design: DesignParams) -> np.ndarray:
    """Next-rating distribution [p(0), p(1)] given the observed strategy."""
    if observed is Strategy.CN:
        if rating == 1:
            return np.array([0.0, 1.0])
        return np.array([1.0 - design.alpha, design.alpha])
    if rating == 1:
        return np.array([design.beta, 1.0 - design.beta])
    return np.array([1.0, 0.0])
