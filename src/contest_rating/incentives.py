"""Incentive analysis of compliant play under the rating protocol.

A compliant worker intends CN at every rating. Its lifetime discounted
value solves a two-state fixed point in the own-rating chain; the protocol
is sustainable when no one-shot switch to CA, SN or SA is profitable at
either rating. The CA inequalities, rearranged at gamma0 = 0, become affine
constraints on (alpha, beta) whose intersection is the designer's feasible
band; SN and SA enter as floors on the CA margins (deviation_floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator
from .params import DesignParams, IntrinsicParams, Strategy, check_worker
from .payoffs import against_compliant, payoff_line, payoff_table
from .ratings import transition_kernel


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
    return _deviation_values(design, params, worker, values)[rating]


def _deviation_values(
    design: DesignParams, params: IntrinsicParams, worker: int, values: LifetimeValues
) -> tuple[float, float]:
    # deviation_value at ratings 0 and 1 from one solve of the lifetime values
    rows = transition_kernel(Strategy.CA, design, params)
    return tuple(
        against_compliant(worker, Strategy.CA, design.price(rating), params)
        + params.delta * (row[0] * values.v0 + row[1] * values.v1)
        for rating, row in enumerate(rows)
    )


def compliance_margins(alpha, beta, gamma1, gamma0, params: IntrinsicParams, worker: int):
    """Deviation margins and participation value, numpy-broadcasting.

    Returns (m0, m1, v0): m_theta = delta * weight_theta * D * gap -
    deviation gain at theta, with weight 0 = alpha and weight 1 = beta, and
    v0 the lifetime compliant value at the low rating. The margins are the
    one-shot-deviation inequalities cleared of their (possibly vanishing)
    denominators, so they stay finite at delta = 0 or beta = 0 and share
    the sign of the textbook thresholds wherever those are defined.
    """
    cn_slope, cn_icept = payoff_line(worker, Strategy.CN, params)
    ca_slope, ca_icept = payoff_line(worker, Strategy.CA, params)
    v_cn0 = cn_slope * gamma0 + cn_icept
    v_cn1 = cn_slope * gamma1 + cn_icept
    gain0 = (ca_slope - cn_slope) * gamma0 + (ca_icept - cn_icept)
    gain1 = (ca_slope - cn_slope) * gamma1 + (ca_icept - cn_icept)
    turnover = beta * params.error_any + alpha * params.error_free
    gap = (v_cn1 - v_cn0) / (1.0 - params.delta * (1.0 - turnover))
    detect = params.delta * params.detection_margin
    m0 = detect * alpha * gap - gain0
    m1 = detect * beta * gap - gain1
    v0 = (v_cn0 + params.delta * alpha * params.error_free * gap) / (1.0 - params.delta)
    return m0, m1, v0


def _gain(lines: tuple[np.ndarray, np.ndarray], intended: Strategy, gamma):
    # one-period gain of intending `intended` instead of CN at prize gamma
    slopes, intercepts = lines
    i, cn = intended.index, Strategy.CN.index
    return (slopes[i] - slopes[cn]) * gamma + (intercepts[i] - intercepts[cn])


def deviation_floor(gamma, params: IntrinsicParams, worker: int, tolerance: float = 1e-9):
    """Least CA margin at prize gamma under which no one-shot deviation pays.

    At one rating every deviation X loses delta * weight * gap * dq_X in
    continuation value and wins gain_X over CN in the period, where dq_X
    (the drop in the chance of being read as CN) is positive for CA, SN and
    SA on the validated domain. So m_X = (dq_X / dq_CA) * (m_CA + gain_CA) -
    gain_X, and m_X >= -tolerance holds exactly when m_CA >= (dq_CA / dq_X)
    * (gain_X - tolerance) - gain_CA. Returns the largest of the SN and SA
    bounds and -tolerance (CA's own check), numpy-broadcasting over gamma:
    one value per prize, however many (alpha, beta) cells share it.
    """
    table = payoff_table(params)
    lines, drop = table.lines(worker), table.detection_drop
    gain_ca = _gain(lines, Strategy.CA, gamma)
    floor = -tolerance
    for intended in (Strategy.SN, Strategy.SA):
        ratio = drop[Strategy.CA.index] / drop[intended.index]
        floor = np.maximum(floor, ratio * (_gain(lines, intended, gamma) - tolerance) - gain_ca)
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
    deviation0: float
    deviation1: float
    sustainable: bool


@dataclass(frozen=True)
class SustainabilityReport:
    design: DesignParams
    workers: tuple[WorkerIncentives, ...]
    sustainable: bool
    tolerance: float
    one_period_table: dict | None = None
    ca_dominant: dict | None = None

    def rows(self) -> list[tuple]:
        """(worker, constraint id, margin) rows; gap-unit combined margin may be +-inf."""
        out = []
        for w in self.workers:
            out.append((w.worker, "deviation-rating0", w.margin0))
            out.append((w.worker, "deviation-rating1", w.margin1))
            out.append((w.worker, "combined-gap-units", w.margin_combined))
            out.append((w.worker, "participation", w.lifetime.v0))
        return out


def is_sustainable(
    design: DesignParams,
    params: IntrinsicParams,
    tolerance: float = 1e-9,
    strict: bool = False,
) -> SustainabilityReport:
    """One-shot-deviation check of CA, SN and SA at both ratings, for both workers.

    The verdict holds when each worker's cleared-denominator CA margins
    clear their deviation_floor, so no CA, SN or SA deviation gains more
    than the tolerance; participation is reported but not part of it. The
    report's margins are CA's; it also carries the gap-unit thresholds
    (infinite when the corresponding correction channel is shut) and the
    raw lifetime and CA deviation values so callers can re-derive them.

    With strict=True the report includes each strategy's one-period payoff
    at both prizes and whether CA is the most profitable deviation there;
    this is a diagnostic, not part of the verdict.
    """
    workers = []
    for worker in (1, 2):
        m0, m1, v0 = compliance_margins(
            design.alpha, design.beta, design.gamma1, design.gamma0, params, worker
        )
        gap = rating_gap(design, params, worker)
        lines = payoff_table(params).lines(worker)
        gain0, gain1 = (float(_gain(lines, Strategy.CA, g)) for g in (design.gamma0, design.gamma1))
        detect = params.delta * params.detection_margin
        th0 = _gap_threshold(gain0, detect * design.alpha)
        th1 = _gap_threshold(gain1, detect * design.beta)
        values = lifetime_values(design, params, worker)
        deviation0, deviation1 = _deviation_values(design, params, worker, values)
        floor0, floor1 = deviation_floor(
            np.array([design.gamma0, design.gamma1]), params, worker, tolerance
        )
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
                lifetime=values,
                deviation0=deviation0,
                deviation1=deviation1,
                sustainable=bool(m0 >= floor0 and m1 >= floor1),
            )
        )
    table = dominant = None
    if strict:
        table = {
            (worker, rating): {
                strat.value: against_compliant(worker, strat, design.price(rating), params)
                for strat in Strategy
            }
            for worker in (1, 2)
            for rating in (0, 1)
        }
        dominant = {
            key: per["CA"] >= max(per["SN"], per["SA"]) - tolerance for key, per in table.items()
        }
    return SustainabilityReport(
        design=design,
        workers=tuple(workers),
        sustainable=all(w.sustainable for w in workers),
        tolerance=tolerance,
        one_period_table=table,
        ca_dominant=dominant,
    )


@dataclass(frozen=True)
class ConstraintCoefficients:
    """Affine (alpha, beta) constraint coefficients at gamma0 = 0.

    beta >= k1*alpha + b1 and beta >= k2*alpha + b2 are the rating-0 and
    rating-1 deviation constraints; beta <= k3*alpha + b3 is participation.
    b1 = b3 always; the k1 line sits below beta = 0 on the unit square, so
    it never binds there (kept for completeness).
    """

    worker: int
    gamma1: float
    k1: float
    b1: float
    k2: float
    b2: float
    k3: float
    b3: float


_VANISHES = 1e-12  # a guarded denominator smaller than this in size is degenerate


def _coefficient_grid(gamma1, params: IntrinsicParams):
    """Both workers' constraint coefficients over a gamma1 array, shape (2, n).

    Returns (coefficients, denominators): k1, b1, k2, b2, k3 and the
    denominators of the guarded ratios b1, k2, k3, in that order.
    Each entry is computed in the order of operations of the scalar
    rearrangement, so it is the scalar result bit for bit; entries whose
    denominator vanishes (below _VANISHES in size) carry no meaning.
    """
    table = payoff_table(params)
    cn, ca = [Strategy.CN.index], [Strategy.CA.index]  # each a (2, 1) column of the table
    cn_slope, cn_icept = table.slope[:, cn], table.intercept[:, cn]
    ca_slope, ca_icept = table.slope[:, ca], table.intercept[:, ca]
    gamma1 = np.asarray(gamma1, dtype=float)
    v_cn0 = cn_icept
    v_cn1 = cn_slope * gamma1 + cn_icept
    gain0 = ca_icept - cn_icept
    gain1 = (ca_slope - cn_slope) * gamma1 + (ca_icept - cn_icept)
    edge = v_cn1 - v_cn0
    err_any, err_free = params.error_any, params.error_free
    detect, delta = params.detection_margin, params.delta
    ratios = {
        "b1": (1.0 - delta, delta * err_any),
        "k1": (detect * edge - err_free * gain0, err_any * gain0),
        "k2": (err_free * gain1, detect * edge - err_any * gain1),
        "k3": (-err_free * v_cn1, err_any * v_cn0),
    }
    denominators = {name: np.broadcast_to(d, v_cn1.shape) for name, (_, d) in ratios.items()}
    with np.errstate(all="ignore"):  # where a denominator vanishes the entry is dropped
        coefficients = {name: n / denominators[name] for name, (n, _) in ratios.items()}
        coefficients["b1"] = -coefficients["b1"]
        coefficients["b2"] = coefficients["k2"] * (1.0 - delta) / (delta * err_free)
    # k1's denominator err_any * gain0 vanishes as an attack cost s_i -> 0,
    # where k1 -> -inf; its line never binds, so it guards nothing.
    del denominators["k1"]
    return coefficients, denominators


def constraint_coefficients(
    gamma1: float, params: IntrinsicParams, worker: int
) -> ConstraintCoefficients:
    """Rearranged sustainability and participation constraints at gamma0 = 0.

    The one-point view of the designer's grid scan (binding_lines); raises
    DegenerateDenominator where the scan drops the point.
    """
    check_worker(worker)
    coefficients, denominators = _coefficient_grid(np.array([gamma1]), params)
    for name, denoms in denominators.items():
        denom = float(denoms[worker - 1, 0])
        if abs(denom) < _VANISHES:
            raise DegenerateDenominator(f"{name} denominator vanished: {denom!r}")
    c = {name: float(value[worker - 1, 0]) for name, value in coefficients.items()}
    return ConstraintCoefficients(worker=worker, gamma1=gamma1, b3=c["b1"], **c)


def binding_lines(gamma1, params: IntrinsicParams):
    """The band's binding lines at every point of a gamma1 array.

    Returns (k2, b2, k3, b3, live): the lower line of the worker with the
    larger k2 and the upper line of the worker with the smaller k3 (ties go
    to worker 1, as in feasibility_band), and live, false where either
    worker's constraint_coefficients would raise DegenerateDenominator.
    """
    coefficients, denominators = _coefficient_grid(gamma1, params)
    live = ~np.any([np.abs(d) < _VANISHES for d in denominators.values()], axis=(0, 1))
    k2, b2, k3 = coefficients["k2"], coefficients["b2"], coefficients["k3"]
    low, up = k2[1] > k2[0], k3[1] < k3[0]  # where worker 2 binds
    return (
        np.where(low, k2[1], k2[0]),
        np.where(low, b2[1], b2[0]),
        np.where(up, k3[1], k3[0]),
        coefficients["b1"][0],  # b3 = b1, the same for both workers
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
    uses_k1: bool
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

    def contains(self, alpha: float, beta: float, tolerance: float = 1e-9) -> bool:
        if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
            return False
        k2, b2 = self.lower
        k3, b3 = self.upper
        if beta < k2 * alpha + b2 - tolerance or beta > k3 * alpha + b3 + tolerance:
            return False
        if self.uses_k1:
            k1, b1 = max(c.k1 for c in self.coefficients), self.coefficients[0].b1
            return not beta < k1 * alpha + b1 - tolerance  # b1 is worker-independent
        return True


def feasibility_band(
    gamma1: float, params: IntrinsicParams, uses_k1: bool = False
) -> FeasibilityBand:
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
    if uses_k1:
        k1, b1 = max(c.k1 for c in coeffs), coeffs[0].b1  # b1 is worker-independent
        limits += [(k1 - up.k3, up.b3 - b1), (k1, 1.0 - b1)]
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
        uses_k1=uses_k1,
        alpha_interval=interval,
    )
