"""Incentive analysis of compliant play under the rating protocol.

A compliant worker intends CN at every rating. Its lifetime discounted
value solves a two-state fixed point in the own-rating chain; the protocol
is sustainable when no one-shot switch to CA, SN or SA is profitable at
either rating. The CA inequalities, rearranged at gamma0 = 0, become affine
constraints on (alpha, beta) whose intersection is the designer's feasible
band; SN and SA enter as floors on the CA margins (deviation_floor). The
rating-0 CA line has a negative slope and intercept, so it never binds on
the unit square and only its intercept (shared with participation) is kept.
Every check allows the one slack TOLERANCE: a deviation may gain up to it,
participation and the band's lines may miss by up to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator
from .params import DesignParams, IntrinsicParams, Strategy, check_worker
from .payoffs import against_compliant, payoff_line, payoff_table
from .ratings import transition_kernel

TOLERANCE = 1e-9  # slack of every sustainability, participation and band check


@dataclass(frozen=True)
class LifetimeValues:
    """Discounted compliant values by starting rating."""

    v0: float
    v1: float

    def __getitem__(self, rating: int) -> float:
        return self.v1 if rating else self.v0


def one_period_values(design: DesignParams, params: IntrinsicParams, worker: int) -> np.ndarray:
    """Per-rating compliant payoffs [v_CN(gamma0), v_CN(gamma1)]."""
    prizes = (design.gamma0, design.gamma1)
    return np.array([against_compliant(worker, Strategy.CN, g, params) for g in prizes])


def lifetime_values(design: DesignParams, params: IntrinsicParams, worker: int) -> LifetimeValues:
    """Solve (I - delta*K) v = r for the compliant two-state value function."""
    kernel = transition_kernel(Strategy.CN, design, params)
    reward = one_period_values(design, params, worker)
    v = np.linalg.solve(np.eye(2) - params.delta * kernel, reward)
    return LifetimeValues(v0=float(v[0]), v1=float(v[1]))


def rating_gap(design: DesignParams, params: IntrinsicParams, worker: int) -> float:
    """Closed form of v1 - v0 for the compliant worker.

    The two-state fixed point collapses: the gap is the per-period prize
    advantage divided by one minus the discounted probability of keeping
    the current rating differential.
    """
    slope, intercept = payoff_line(worker, Strategy.CN, params)
    prize_edge = slope * (design.gamma1 - design.gamma0)
    turnover = design.beta * params.error_any + design.alpha * params.error_free
    return prize_edge / (1.0 - params.delta * (1.0 - turnover))


def deviation_value(
    rating: int, design: DesignParams, params: IntrinsicParams, worker: int
) -> float:
    """Value of intending CA once at `rating`, then complying forever."""
    values = lifetime_values(design, params, worker)
    row = transition_kernel(Strategy.CA, design, params)[rating]
    stage = against_compliant(worker, Strategy.CA, design.price(rating), params)
    return stage + params.delta * (row[0] * values.v0 + row[1] * values.v1)


def _gain(lines: tuple[np.ndarray, np.ndarray], intended: Strategy, gamma):
    # one-period gain of intending `intended` instead of CN at prize gamma
    slopes, intercepts = lines
    i, cn = intended.index, Strategy.CN.index
    return (slopes[i] - slopes[cn]) * gamma + (intercepts[i] - intercepts[cn])


def _compliant_gap(alpha, beta, gamma1, gamma0, params: IntrinsicParams, worker: int):
    # (v_cn0, gap): the rating-0 compliant payoff and the lifetime rating gap v1 - v0
    cn_slope, cn_icept = payoff_line(worker, Strategy.CN, params)
    v_cn0 = cn_slope * gamma0 + cn_icept
    v_cn1 = cn_slope * gamma1 + cn_icept
    turnover = beta * params.error_any + alpha * params.error_free
    return v_cn0, (v_cn1 - v_cn0) / (1.0 - params.delta * (1.0 - turnover))


def rating0_margins(alpha, beta, gamma1, gamma0, params: IntrinsicParams, worker: int):
    """(m0, v0) of compliance_margins: the rating-0 margin and participation value."""
    v_cn0, gap = _compliant_gap(alpha, beta, gamma1, gamma0, params, worker)
    gain0 = _gain(payoff_table(params).lines(worker), Strategy.CA, gamma0)
    m0 = params.delta * params.detection_margin * alpha * gap - gain0
    v0 = (v_cn0 + params.delta * alpha * params.error_free * gap) / (1.0 - params.delta)
    return m0, v0


def rating1_margin(alpha, beta, gamma1, gamma0, params: IntrinsicParams, worker: int):
    """m1 of compliance_margins: the rating-1 margin."""
    _, gap = _compliant_gap(alpha, beta, gamma1, gamma0, params, worker)
    gain1 = _gain(payoff_table(params).lines(worker), Strategy.CA, gamma1)
    return params.delta * params.detection_margin * beta * gap - gain1


def compliance_margins(alpha, beta, gamma1, gamma0, params: IntrinsicParams, worker: int):
    """Deviation margins and participation value, numpy-broadcasting.

    Returns (m0, m1, v0): m_theta = delta * weight_theta * D * gap -
    deviation gain at theta, with weight 0 = alpha and weight 1 = beta, and
    v0 the lifetime compliant value at the low rating. The margins are the
    one-shot-deviation inequalities cleared of their (possibly vanishing)
    denominators, so they stay finite at delta = 0 or beta = 0 and share
    the sign of the textbook thresholds wherever those are defined. Each
    rating's part is its own function (rating0_margins, rating1_margin),
    so a caller that reads one rating computes only that one.
    """
    m0, v0 = rating0_margins(alpha, beta, gamma1, gamma0, params, worker)
    return m0, rating1_margin(alpha, beta, gamma1, gamma0, params, worker), v0


def deviation_floor(gamma, params: IntrinsicParams, worker: int):
    """Least CA margin at prize gamma under which no one-shot deviation pays.

    At one rating every deviation X loses delta * weight * gap * dq_X in
    continuation value and wins gain_X over CN in the period, where dq_X
    (the drop in the chance of being read as CN) is positive for CA, SN and
    SA on the validated domain. So m_X = (dq_X / dq_CA) * (m_CA + gain_CA) -
    gain_X, and m_X >= -TOLERANCE holds exactly when m_CA >= (dq_CA / dq_X)
    * (gain_X - TOLERANCE) - gain_CA. Returns the largest of the SN and SA
    bounds and -TOLERANCE (CA's own check), numpy-broadcasting over gamma:
    one value per prize, however many (alpha, beta) cells share it.
    """
    table = payoff_table(params)
    lines, drop = table.lines(worker), table.detection_drop
    gain_ca = _gain(lines, Strategy.CA, gamma)
    floor = -TOLERANCE
    for intended in (Strategy.SN, Strategy.SA):
        ratio = drop[Strategy.CA.index] / drop[intended.index]
        floor = np.maximum(floor, ratio * (_gain(lines, intended, gamma) - TOLERANCE) - gain_ca)
    return floor


def _gap_threshold(gain: float, weight: float) -> float:
    # threshold form gain / weight, with the vacuous/impossible limits
    # pinned when the weight vanishes.
    if weight > 0.0:
        return gain / weight
    return math.inf if gain > 0.0 else -math.inf


@dataclass(frozen=True)
class WorkerIncentives:
    worker: int
    gap: float
    gain0: float
    gain1: float
    threshold0: float
    threshold1: float
    margin_combined: float
    margin0: float
    margin1: float
    lifetime: LifetimeValues
    sustainable: bool


@dataclass(frozen=True)
class SustainabilityReport:
    design: DesignParams
    workers: tuple[WorkerIncentives, ...]
    sustainable: bool

    def rows(self) -> list[tuple]:
        """(worker, constraint id, margin) rows; gap-unit combined margin may be +-inf."""
        out = []
        for w in self.workers:
            out.append((w.worker, "deviation-rating0", w.margin0))
            out.append((w.worker, "deviation-rating1", w.margin1))
            out.append((w.worker, "combined-gap-units", w.margin_combined))
            out.append((w.worker, "participation", w.lifetime.v0))
        return out


def is_sustainable(design: DesignParams, params: IntrinsicParams) -> SustainabilityReport:
    """One-shot-deviation check of CA, SN and SA at both ratings, for both workers.

    The verdict holds when each worker's cleared-denominator CA margins
    clear their deviation_floor, so no CA, SN or SA deviation gains more
    than TOLERANCE; participation is reported but not part of it. The
    report's margins are CA's; it also carries the gap-unit thresholds
    (infinite when the corresponding correction channel is shut) and the
    lifetime compliant values.
    """
    workers = []
    for worker in (1, 2):
        m0, m1, _ = compliance_margins(
            design.alpha, design.beta, design.gamma1, design.gamma0, params, worker
        )
        gap = rating_gap(design, params, worker)
        lines = payoff_table(params).lines(worker)
        gain0, gain1 = (float(_gain(lines, Strategy.CA, g)) for g in (design.gamma0, design.gamma1))
        detect = params.delta * params.detection_margin
        th0 = _gap_threshold(gain0, detect * design.alpha)
        th1 = _gap_threshold(gain1, detect * design.beta)
        floor0, floor1 = deviation_floor(np.array([design.gamma0, design.gamma1]), params, worker)
        workers.append(
            WorkerIncentives(
                worker=worker,
                gap=gap,
                gain0=gain0,
                gain1=gain1,
                threshold0=th0,
                threshold1=th1,
                margin_combined=gap - max(th0, th1),
                margin0=float(m0),
                margin1=float(m1),
                lifetime=lifetime_values(design, params, worker),
                sustainable=bool(m0 >= floor0 and m1 >= floor1),
            )
        )
    return SustainabilityReport(
        design=design,
        workers=tuple(workers),
        sustainable=all(w.sustainable for w in workers),
    )


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
    cn, ca = (slice(s.index, s.index + 1) for s in (Strategy.CN, Strategy.CA))  # (2, 1) columns
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
    (ties go to worker 1, as in feasibility_band), upper, the number (1 or
    2) of the worker whose participation line that is, and live, false
    where either worker's constraint_coefficients would raise
    DegenerateDenominator. b3 is one scalar for the whole grid.
    """
    coefficients, denominators = _coefficient_grid(gamma1, params)
    vanishes = {name: np.abs(d) < _VANISHES for name, d in denominators.items()}
    live = ~np.any(vanishes["k2"] | vanishes["k3"] | vanishes["b1"], axis=0)  # (2, n) -> (n,)
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


def _linear_interval(a: float, b: float, lo: float, hi: float) -> tuple[float, float]:
    """Clip [lo, hi] to the solutions of a*x <= b; empty -> (inf, -inf)."""
    if a > 0.0:
        return lo, min(hi, b / a)
    if a < 0.0:
        return max(lo, b / a), hi
    return (lo, hi) if b >= 0.0 else (math.inf, -math.inf)


@dataclass(frozen=True)
class FeasibilityBand:
    """Affine feasible region in the (alpha, beta) unit square at gamma0 = 0.

    Membership: beta between the binding lower line (largest k2, the
    rating-1 deviation constraint) and the binding upper line (smallest
    k3, participation), inside (0, 1]^2. alpha_interval is the projection
    onto the alpha axis; the band is empty iff the interval is.
    """

    gamma1: float
    coefficients: tuple[ConstraintCoefficients, ConstraintCoefficients]
    lower_worker: int
    upper_worker: int
    alpha_interval: tuple[float, float] | None

    @property
    def lower(self) -> tuple[float, float]:
        c = self.coefficients[self.lower_worker - 1]
        return c.k2, c.b2

    @property
    def upper(self) -> tuple[float, float]:
        c = self.coefficients[self.upper_worker - 1]
        return c.k3, c.b3

    @property
    def empty(self) -> bool:
        return self.alpha_interval is None

    def contains(self, alpha: float, beta: float) -> bool:
        if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
            return False
        k2, b2 = self.lower
        k3, b3 = self.upper
        return not (beta < k2 * alpha + b2 - TOLERANCE or beta > k3 * alpha + b3 + TOLERANCE)


def feasibility_band(gamma1: float, params: IntrinsicParams) -> FeasibilityBand:
    """Combine both workers' constraints into one band at gamma0 = 0.

    b2 is proportional to k2 with a common positive factor and b3 is
    worker-independent, so the worker with the larger k2 owns the pointwise
    highest lower line and the worker with the smaller k3 the lowest upper
    line; no crossing inside the square can change the binding worker.
    """
    coeffs = tuple(constraint_coefficients(gamma1, params, w) for w in (1, 2))
    low = max(coeffs, key=lambda c: c.k2)
    up = min(coeffs, key=lambda c: c.k3)
    # lower line <= upper line, lower line <= 1, upper line > 0 (so that
    # some beta in (0, 1] fits); each is linear in alpha.
    limits = [(low.k2 - up.k3, up.b3 - low.b2), (low.k2, 1.0 - low.b2), (-up.k3, up.b3 - 1e-15)]
    intervals = [_linear_interval(a, b, 0.0, 1.0) for a, b in limits]
    lo = max(lo for lo, _ in intervals)
    hi = min(hi for _, hi in intervals)
    # alpha itself must be strictly positive; an interval pinched to {0} is empty
    interval = (lo, hi) if (lo <= hi and hi > 0.0) else None
    return FeasibilityBand(
        gamma1=gamma1,
        coefficients=coeffs,
        lower_worker=low.worker,
        upper_worker=up.worker,
        alpha_interval=interval,
    )
