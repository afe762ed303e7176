"""Ex-ante payoffs of the unregulated one-shot contest.

Both workers hold private productivity draws p_i ~ U[0, 1] (iid). Each
first chooses whether to crowdsource (C), which costs c_i and adds its
cost as a handicap relative to an in-house opponent, or stay in-house (S).
The stronger solution wins the unit prize; a worker leading by no more
than the attack damage d secures the win by attacking, at its own attack
cost s_i. Losing events pay zero. All expressions below are ex ante over
the productivity draws.

No command reads these closed forms; they live beside their Monte-Carlo
oracle, `oracles.productivity_mc` (criterion 04 and `test_stage_game.py`).
"""

from __future__ import annotations

from contest_rating.errors import DomainError
from contest_rating.params import IntrinsicParams

CASES = (("C", "C"), ("S", "S"), ("C", "S"), ("S", "C"))


def even_match_payoff(worker: int, params: IntrinsicParams) -> float:
    """Expected prize when both workers take the same first-stage action.

    1/2 - s_i*d + s_i*d^2/2: a fair contest, less the attack exposure of
    narrow leads. Effort costs are not included here.
    """
    s = params.attack_cost(worker)
    return 0.5 - s * params.d + s * params.d**2 / 2.0


def solo_effort_payoff(worker: int, params: IntrinsicParams) -> float:
    """Expected payoff of the lone crowdsourcing worker against an in-house opponent.

    Requires c_i + d <= 1, otherwise the derivation's case split is void.
    """
    c = params.cost(worker)
    s = params.attack_cost(worker)
    d = params.d
    if c + d > 1.0:
        raise DomainError(f"c{worker} + d = {c + d:g} exceeds 1; closed form not valid there")
    return (d - (c + d) ** 2 / 2.0) * (1.0 - c - s) + (1.0 - c - d) ** 2 * (1.0 - c) / 2.0


def first_stage_payoffs(
    action1: str, action2: str, params: IntrinsicParams
) -> tuple[float, float]:
    """Ex-ante payoff pair for one first-stage action profile.

    Crowdsourcing cost enters the symmetric profiles as the half it is paid
    in expectation (c_i/2 nets against the mirrored contest); the lone
    crowdsourcing worker's cost is already inside solo_effort_payoff.
    """
    case = (action1, action2)
    if case == ("C", "C"):
        return (
            even_match_payoff(1, params) - params.c1 / 2.0,
            even_match_payoff(2, params) - params.c2 / 2.0,
        )
    if case == ("S", "S"):
        return even_match_payoff(1, params), even_match_payoff(2, params)
    if case == ("C", "S"):
        return solo_effort_payoff(1, params), 0.0
    if case == ("S", "C"):
        return 0.0, solo_effort_payoff(2, params)
    raise ValueError(f"unknown first-stage profile: {case!r}")


def first_stage_matrix(params: IntrinsicParams) -> dict[tuple[str, str], tuple[float, float]]:
    """All four ex-ante payoff pairs keyed by (action1, action2)."""
    return {case: first_stage_payoffs(*case, params) for case in CASES}
