"""Incentive analysis of compliant play under the rating protocol.

A compliant worker intends CN at every rating. Its lifetime discounted
value solves a two-state fixed point in the own-rating chain; the protocol
is sustainable when no one-shot switch to CA, SN or SA is profitable at
either rating. Each deviation X is priced on its own margin,
delta * weight * drop_X * gap - gain_X: the continuation value it loses
against the one-period gain it wins (_deviations lists the drops). The CA
inequalities, rearranged at gamma0 = 0, become affine constraints on
(alpha, beta) whose intersection, read by binding_lines alone, is the
designer's feasible band. The rating-0 CA line has a negative slope and
intercept, so it never binds on the unit square and only its intercept
(shared with participation) is kept. Every check allows the one slack
TOLERANCE: a deviation may gain up to it, participation and the band's
lines may miss by up to it.

The margins are plain operators on one worker's payoff lines and an
already computed gap or gain: is_sustainable runs them on the payoff
table's floats (its one numpy call is one stacked lifetime solve for both
workers), the grid oracle runs each deviation's gain on prize arrays. The
rating gap has one formula, _compliant_gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator
from .params import STRATEGIES, DesignParams, IntrinsicParams, Strategy, check_worker
from .payoffs import against_compliant, payoff_table
from .ratings import observed_compliant_prob

TOLERANCE = 1e-9  # slack of every sustainability, participation and band check
_CN, _CA, _SN, _SA = (s.index for s in STRATEGIES)  # the intents' places in a worker's lines


@dataclass(frozen=True)
class LifetimeValues:
    """Discounted compliant values by starting rating."""

    v0: float
    v1: float

    def __getitem__(self, rating: int) -> float:
        return self.v1 if rating else self.v0


def compliant_values(design: DesignParams, params: IntrinsicParams) -> tuple[LifetimeValues, LifetimeValues]:
    """Both workers' compliant values, from one stacked solve of (I - delta*K) v = r.

    K is the CN rating kernel, the same for both workers; r holds a worker's
    payoffs [v_CN(gamma0), v_CN(gamma1)], and at gamma0 = 0 the first is the
    payoff table's CN intercept. The entries of I - delta*K are computed as
    np.eye(2) - delta * K computes them (0.0 - x keeps the sign of a zero),
    and the system is broadcast over the workers' (2, 1) right-hand sides,
    so each worker gets LAPACK's one-column solve, bit for bit its own
    solve; one (2, 2) right-hand side would round differently.
    """
    delta, seen_cn = params.delta, params.error_free
    promote, demote = design.alpha * seen_cn, design.beta * (1.0 - seen_cn)
    system = [[1.0 - delta * (1.0 - promote), 0.0 - delta * promote],
              [0.0 - delta * demote, 1.0 - delta * (1.0 - demote)]]
    gamma0, gamma1 = design.gamma0, design.gamma1
    rewards = [
        [[lines[1][_CN] if gamma0 == 0.0 else against_compliant(worker, Strategy.CN, gamma0, params)],
         [against_compliant(worker, Strategy.CN, gamma1, params)]]
        for worker, lines in enumerate(payoff_table(params).worker_lines, start=1)
    ]
    v10, v11, v20, v21 = np.linalg.solve(np.array(system), np.array(rewards)).ravel().tolist()
    return LifetimeValues(v0=v10, v1=v11), LifetimeValues(v0=v20, v1=v21)


def lifetime_values(design: DesignParams, params: IntrinsicParams, worker: int) -> LifetimeValues:
    """One worker's compliant two-state value function, from compliant_values."""
    check_worker(worker)
    return compliant_values(design, params)[worker - 1]


def _turnover(alpha, beta, params: IntrinsicParams):
    # 1 - delta + delta * (beta * error_any + alpha * error_free), as computed: the positive
    # denominator of the lifetime rating gap, the same for both workers
    return 1.0 - params.delta * (1.0 - (beta * params.error_any + alpha * params.error_free))


def deviation_value(
    rating: int, design: DesignParams, params: IntrinsicParams, worker: int
) -> float:
    """Value of intending CA once at `rating`, then complying forever.

    The continuation weighs the compliant values by the CA kernel's row at
    `rating`: [1 - promote, promote] at 0 and [demote, 1 - demote] at 1.
    """
    values = lifetime_values(design, params, worker)
    seen_cn = observed_compliant_prob(Strategy.CA, params)
    promote, demote = design.alpha * seen_cn, design.beta * (1.0 - seen_cn)
    to0, to1 = (demote, 1.0 - demote) if rating else (1.0 - promote, promote)
    stage = against_compliant(worker, Strategy.CA, design.price(rating), params)
    return stage + params.delta * (to0 * values.v0 + to1 * values.v1)


def _gain(lines, i: int, gamma):
    # one-period gain of intending STRATEGIES[i] instead of CN at prize gamma; lines is one
    # worker's (slopes, intercepts), from payoff_table(params).lines
    slopes, intercepts = lines
    return (slopes[i] - slopes[_CN]) * gamma + (intercepts[i] - intercepts[_CN])


def _compliant_gap(lines, gamma1, gamma0, turnover):
    # (v_cn0, gap): the rating-0 compliant payoff and the lifetime rating gap v1 - v0
    cn_slope, cn_icept = lines[0][_CN], lines[1][_CN]
    v_cn0 = cn_slope * gamma0 + cn_icept
    return v_cn0, (cn_slope * gamma1 + cn_icept - v_cn0) / turnover


def _deviations(table, params: IntrinsicParams):
    # (intent index, drop) for CA, SN and SA, where drop is how much less likely the intent is
    # read as CN than CN itself; CA's is the detection margin, the drop its printed margins use
    return (_CA, params.detection_margin), (_SN, table.drop[_SN]), (_SA, table.drop[_SA])


def _gap_threshold(gain: float, weight: float) -> float:
    # threshold form gain / weight, with the vacuous/impossible limits
    # pinned when the weight vanishes.
    if weight > 0.0:
        return gain / weight
    return math.inf if gain > 0.0 else -math.inf


@dataclass(frozen=True)
class WorkerIncentives:
    worker: int
    margin0: float
    margin1: float
    margin_combined: float
    participation: float
    sustainable: bool


@dataclass(frozen=True)
class SustainabilityReport:
    workers: tuple[WorkerIncentives, ...]
    sustainable: bool


def is_sustainable(design: DesignParams, params: IntrinsicParams) -> SustainabilityReport:
    """One-shot-deviation check of CA, SN and SA at both ratings, for both workers.

    The verdict holds when every deviation's own margin, delta * weight *
    drop * gap - gain, is at least -TOLERANCE at both ratings, so no
    deviation gains more than TOLERANCE; participation is reported but not
    part of it. The report's margins are CA's; it also carries the combined
    margin in gap units (-inf when the demotion channel is shut and
    attacking at rating 1 pays) and participation, each worker's lifetime
    compliant value v0.
    """
    table = payoff_table(params)
    alpha, beta, gamma1, gamma0 = design.alpha, design.beta, design.gamma1, design.gamma0
    turnover = _turnover(alpha, beta, params)
    delta, deviations = params.delta, _deviations(table, params)
    detect = delta * params.detection_margin
    workers, values, ratings = [], compliant_values(design, params), ((alpha, gamma0), (beta, gamma1))
    for worker, lines in enumerate(table.worker_lines, start=1):
        _, gap = _compliant_gap(lines, gamma1, gamma0, turnover)
        margins = [delta * drop * weight * gap - _gain(lines, i, gamma)  # CA's two first
                   for i, drop in deviations for weight, gamma in ratings]
        gain0, gain1 = float(_gain(lines, _CA, gamma0)), float(_gain(lines, _CA, gamma1))
        th0, th1 = _gap_threshold(gain0, detect * alpha), _gap_threshold(gain1, detect * beta)
        workers.append(WorkerIncentives(
            worker=worker, margin0=float(margins[0]), margin1=float(margins[1]), margin_combined=gap - max(th0, th1),
            participation=values[worker - 1].v0, sustainable=all(m >= -TOLERANCE for m in margins),
        ))
    return SustainabilityReport(workers=tuple(workers), sustainable=all(w.sustainable for w in workers))


@dataclass(frozen=True)
class ConstraintCoefficients:
    """Affine (alpha, beta) constraint coefficients at gamma0 = 0.

    beta >= k2*alpha + b2 is the rating-1 deviation constraint and
    beta <= k3*alpha + b3 is participation. b1 (= b3) is also the intercept
    of the rating-0 deviation line; that line's slope is negative too, so it
    sits below beta = 0 on the unit square, never binds and is not computed.
    """

    worker: int
    gamma1: float
    b1: float
    k2: float
    b2: float
    k3: float
    b3: float


_VANISHES = 1e-12  # a guarded denominator smaller than this in size is degenerate


def _coefficient_grid(gamma1, params: IntrinsicParams):
    """Both workers' constraint coefficients over a gamma1 array, shape (2, n).

    Returns (coefficients, denominators): b1, k2, b2, k3 and the
    denominators of the guarded ratios b1, k2, k3, in that order. Each
    entry is computed in the order of operations of the scalar
    rearrangement, so it is the scalar result bit for bit; entries whose
    denominator vanishes (below _VANISHES in size) carry no meaning. What
    does not vary along the grid is left unbroadcast: b1 and its
    denominator are scalars, k3's denominator is a (2, 1) column.
    """
    table = payoff_table(params)
    cn, ca = slice(_CN, _CN + 1), slice(_CA, _CA + 1)  # (2, 1) columns
    cn_slope, cn_icept = table.slope[:, cn], table.intercept[:, cn]
    ca_slope, ca_icept = table.slope[:, ca], table.intercept[:, ca]
    gamma1 = np.asarray(gamma1, dtype=float)
    v_cn0 = cn_icept
    v_cn1 = cn_slope * gamma1 + cn_icept
    gain1 = (ca_slope - cn_slope) * gamma1 + (ca_icept - cn_icept)
    edge = v_cn1 - v_cn0
    err_any, err_free = params.error_any, params.error_free
    detect, delta = params.detection_margin, params.delta
    ratios = {  # b1's numerator a numpy scalar, so that a zero denominator gives inf, not ZeroDivisionError
        "b1": (np.float64(1.0 - delta), delta * err_any),
        "k2": (err_free * gain1, detect * edge - err_any * gain1),
        "k3": (-err_free * v_cn1, err_any * v_cn0),
    }
    with np.errstate(all="ignore"):  # where a denominator vanishes the entry is dropped
        coefficients = {name: n / d for name, (n, d) in ratios.items()}
        coefficients["b1"] = -coefficients["b1"]
        coefficients["b2"] = coefficients["k2"] * (1.0 - delta) / (delta * err_free)
    return coefficients, {name: d for name, (_, d) in ratios.items()}


def constraint_coefficients(
    gamma1: float, params: IntrinsicParams, worker: int
) -> ConstraintCoefficients:
    """Rearranged sustainability and participation constraints at gamma0 = 0.

    The one-point view of the designer's grid scan (binding_lines); raises
    DegenerateDenominator where the scan drops the point.
    """
    check_worker(worker)
    coefficients, denominators = _coefficient_grid(np.array([gamma1]), params)

    def at(value):  # this worker's entry of a (2, 1)-broadcastable value
        return float(np.broadcast_to(value, (2, 1))[worker - 1, 0])

    for name, denom in denominators.items():
        if abs(at(denom)) < _VANISHES:
            raise DegenerateDenominator(f"{name} denominator vanished: {at(denom)!r}")
    c = {name: at(value) for name, value in coefficients.items()}
    return ConstraintCoefficients(worker=worker, gamma1=gamma1, b3=c["b1"], **c)


def binding_lines(gamma1, params: IntrinsicParams):
    """The band's binding lines at every point of a gamma1 array.

    Returns (k2, b2, k3, b3, upper, live): the lower line of the worker
    with the larger k2 and the upper line of the worker with the smaller k3
    (ties go to worker 1), upper, the number (1 or 2) of the worker whose
    participation line that is, and live, false where either worker's
    constraint_coefficients would raise DegenerateDenominator. b3 is one
    scalar for the whole grid. These workers bind on the whole square: b2
    is k2 times a common positive factor and b3 is worker-independent, so
    no two workers' lines cross inside it.
    """
    coefficients, denominators = _coefficient_grid(gamma1, params)
    # k2's denominators vary along the grid, (2, n); k3's are a (2, 1) column, b1's one scalar
    vanishes = (np.abs(denominators["k2"]) < _VANISHES) | (np.abs(denominators["k3"]) < _VANISHES)
    live = ~(vanishes.any(axis=0) | (abs(denominators["b1"]) < _VANISHES))  # (n,)
    k2, b2, k3 = coefficients["k2"], coefficients["b2"], coefficients["k3"]
    low, up = k2[1] > k2[0], k3[1] < k3[0]  # where worker 2 binds
    return (
        np.where(low, k2[1], k2[0]),
        np.where(low, b2[1], b2[0]),
        np.where(up, k3[1], k3[0]),
        coefficients["b1"],  # b3 = b1, the same for both workers and every gamma1
        np.where(up, 2, 1),
        live,
    )
