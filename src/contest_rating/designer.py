"""Requester-optimal protocol search and its brute-force verification oracle.

Utility is monotone along the promotion/demotion axes, so the optimum sits
on the boundary of the (alpha, beta) unit square and the search reduces to
two one-dimensional boundary cases: pin beta = 1 and put alpha on the
participation boundary, or pin alpha = 1 and put beta there. Each case
scans a uniform gamma1 grid, keeps the feasibility-qualified points, and
takes its closed-form utility; the winner across cases is the design. A
dense grid scan over (alpha, beta, gamma1) re-derives everything from the
primal margins as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominator, Infeasible
from .incentives import (
    SustainabilityReport,
    binding_lines,
    compliance_margins,
    constraint_coefficients,
    deviation_floor,
    feasibility_band,
    is_sustainable,
)
from .params import DesignParams, IntrinsicParams, Strategy
from .payoffs import payoff_line
from .requester import social_utility_closed
from .tableio import csv_line

CASE_BETA_ONE = "beta=1"
CASE_ALPHA_ONE = "alpha=1"


@dataclass(frozen=True)
class DesignerConfig:
    gamma_grid_m: int = 100
    oracle_grid_r: int = 100
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.gamma_grid_m < 10:
            raise ValueError(f"gamma grid too coarse: m = {self.gamma_grid_m}")
        if self.oracle_grid_r < 10:
            raise ValueError(f"oracle grid too coarse: r = {self.oracle_grid_r}")
        if not 0.0 < self.tolerance <= 1e-6:
            raise ValueError(f"tolerance out of range: {self.tolerance!r}")


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    feasible: bool
    alpha: float = math.nan
    beta: float = math.nan
    gamma1: float = math.nan
    utility: float = math.nan
    feasible_gamma1: tuple[float, ...] = ()


@dataclass(frozen=True)
class DesignOutcome:
    params: IntrinsicParams
    feasible: bool
    case_id: str = ""
    alpha: float = math.nan
    beta: float = math.nan
    gamma1: float = math.nan
    gamma0: float = 0.0
    utility: float = math.nan
    cases: tuple[CaseResult, ...] = ()
    certificate: SustainabilityReport | None = None
    participation: dict = field(default_factory=dict)

    def design(self) -> DesignParams:
        if not self.feasible:
            raise Infeasible("no design attached to an infeasible outcome")
        return DesignParams(self.alpha, self.beta, self.gamma1, self.gamma0)

    def key_value_lines(self) -> list[str]:
        from .tableio import fmt

        lines = [
            f"feasible={fmt(self.feasible)}",
            f"case={self.case_id}",
            f"alpha={fmt(self.alpha)}",
            f"beta={fmt(self.beta)}",
            f"gamma1={fmt(self.gamma1)}",
            f"gamma0={fmt(self.gamma0)}",
            f"utility={fmt(self.utility)}",
        ]
        for case in self.cases:
            grid = case.feasible_gamma1
            span = f"{fmt(min(grid))}..{fmt(max(grid))}" if grid else "none"
            lines.append(f"feasible_gamma1[{case.case_id}]={span} ({len(grid)} grid points)")
        if self.certificate is not None:
            lines.append(f"sustainable={fmt(self.certificate.sustainable)}")
            for w in self.certificate.workers:
                lines.append(f"margin_rating0[worker{w.worker}]={fmt(w.margin0)}")
                lines.append(f"margin_rating1[worker{w.worker}]={fmt(w.margin1)}")
        for worker, value in sorted(self.participation.items()):
            lines.append(f"participation[worker{worker}]={fmt(value)}")
        return lines


OUTCOME_CSV_HEADER = "c1,c2,s1,s2,d,delta,eps1,eps2,alpha,beta,gamma1,gamma0,utility,case,feasible"


def outcome_csv_row(outcome: DesignOutcome, invalid: bool = False) -> str:
    p = outcome.params
    flag = "invalid" if invalid else outcome.feasible
    return csv_line(
        [
            p.c1, p.c2, p.s1, p.s2, p.d, p.delta, p.eps1, p.eps2,
            outcome.alpha, outcome.beta, outcome.gamma1, outcome.gamma0,
            outcome.utility, outcome.case_id, flag,
        ]
    )


def closed_form_case_utility(case_id: str, gamma1: float, params: IntrinsicParams) -> float:
    """Requester utility of a boundary case at its participation-binding corner.

    Substituting the binding worker's participation equality into the
    stationary utility eliminates the free knob; only that worker's
    compliant payoffs enter. The binding worker is the one with the
    smaller participation slope k3 (its boundary is hit first).
    """
    binding = min((constraint_coefficients(gamma1, params, w) for w in (1, 2)), key=lambda c: c.k3)
    cn_slope, cn_icept = payoff_line(binding.worker, Strategy.CN, params)
    v0 = cn_icept
    v1 = cn_slope * gamma1 + cn_icept
    z, delta = params.error_free, params.delta
    if case_id == CASE_BETA_ONE:
        denom = (1.0 - delta) * v0 + delta * params.error_any * (v0 - v1)
        numer = gamma1 * (1.0 - delta * z) * v0
    elif case_id == CASE_ALPHA_ONE:
        denom = (delta - 1.0) * v0 + delta * z * (v0 - v1)
        numer = delta * gamma1 * z * v0
    else:
        raise ValueError(f"unknown case id: {case_id!r}")
    if abs(denom) < 1e-12:
        raise DegenerateDenominator(f"case utility denominator vanished: {denom!r}")
    return z - numer / denom


def boundary_case_optimum(
    case_id: str, params: IntrinsicParams, config: DesignerConfig | None = None
) -> CaseResult:
    """Scan the gamma1 grid for one boundary case.

    A grid point is feasible when the pinned-knob corner exists inside the
    unit square and the rating-1 deviation line does not cut it off; both
    predicates come straight from the combined band coefficients (largest
    k2 lower line, smallest k3 upper line), evaluated over the whole grid
    as arrays. Points where a coefficient's denominator vanishes are
    dropped. Within the feasible set the case utility is monotone in
    gamma1, so beta=1 wants the smallest feasible prize and alpha=1 the
    largest.
    """
    if case_id not in (CASE_BETA_ONE, CASE_ALPHA_ONE):
        raise ValueError(f"unknown case id: {case_id!r}")
    m = (config or DesignerConfig()).gamma_grid_m
    gamma1 = np.arange(1, m + 1) / m
    k2, b2, k3, b3, live = binding_lines(gamma1, params)
    with np.errstate(divide="ignore", invalid="ignore"):  # entries the masks drop
        if case_id == CASE_BETA_ONE:
            alpha, beta = (1.0 - b3) / k3, np.ones(m)
            corner = (k3 > 0.0) & (0.0 < alpha) & (alpha < 1.0)
            cut = (k2 > 0.0) & ((1.0 - b2) / k2 <= alpha)
        else:
            alpha, beta = np.ones(m), k3 + b3
            corner = (0.0 < beta) & (beta <= 1.0)
            cut = (k2 > 0.0) & (k2 + b2 > beta)
    feasible = np.flatnonzero(live & corner & ~cut)
    if not feasible.size:
        return CaseResult(case_id=case_id, feasible=False)
    pick = feasible[0] if case_id == CASE_BETA_ONE else feasible[-1]
    return CaseResult(
        case_id=case_id,
        feasible=True,
        alpha=float(alpha[pick]),
        beta=float(beta[pick]),
        gamma1=float(gamma1[pick]),
        utility=closed_form_case_utility(case_id, float(gamma1[pick]), params),
        feasible_gamma1=tuple(gamma1[feasible].tolist()),
    )


def optimize(params: IntrinsicParams, config: DesignerConfig | None = None) -> DesignOutcome:
    """Best protocol across both boundary cases, with a sustainability certificate.

    Raises Infeasible (carrying both case results) when neither case admits
    a feasible gamma1. Ties between cases break toward the smaller gamma1,
    then toward the beta=1 case.
    """
    config = config or DesignerConfig()
    cases = tuple(
        boundary_case_optimum(case_id, params, config)
        for case_id in (CASE_BETA_ONE, CASE_ALPHA_ONE)
    )
    live = [c for c in cases if c.feasible]
    if not live:
        err = Infeasible(f"no feasible protocol on the gamma1 grid (m = {config.gamma_grid_m})")
        err.cases = cases
        err.params = params
        raise err
    live.sort(key=lambda c: (-c.utility, c.gamma1, c.case_id != CASE_BETA_ONE))
    best = live[0]
    if len(live) == 2 and abs(live[0].utility - live[1].utility) <= config.tolerance:
        best = min(live, key=lambda c: (c.gamma1, c.case_id != CASE_BETA_ONE))
    design = DesignParams(best.alpha, best.beta, best.gamma1, 0.0)
    certificate = is_sustainable(design, params, tolerance=config.tolerance)
    participation = {w.worker: w.lifetime.v0 for w in certificate.workers}
    band = feasibility_band(best.gamma1, params)
    if not band.contains(best.alpha, best.beta, tolerance=config.tolerance):
        raise ArithmeticError(
            "case optimum fell outside its own feasibility band; "
            f"{best} at gamma1={best.gamma1}"
        )
    return DesignOutcome(
        params=params,
        feasible=True,
        case_id=best.case_id,
        alpha=best.alpha,
        beta=best.beta,
        gamma1=best.gamma1,
        gamma0=0.0,
        utility=best.utility,
        cases=cases,
        certificate=certificate,
        participation=participation,
    )


_ORACLE_SLAB_CELLS = 50_000  # grid cells per oracle slab: 5 alpha rows at r = 100


@dataclass(frozen=True)
class OracleResult:
    feasible: bool
    alpha: float
    beta: float
    gamma1: float
    gamma0: float
    utility: float
    n_feasible: int
    grid_r: int


def brute_force_oracle(
    params: IntrinsicParams,
    config: DesignerConfig | None = None,
    gamma0: float = 0.0,
) -> OracleResult:
    """Exhaustive grid argmax over (alpha, beta, gamma1) in {1/r, ..., 1}^3.

    Feasibility is evaluated from the primal margins rather than the band
    algebra, so it shares no logic with the case analysis: for both
    workers, no one-shot deviation to CA, SN or SA pays at either rating
    (each CA margin clears its deviation_floor, one bound per prize) and
    participation holds at rating 0. gamma0 can be pinned to a positive
    value to probe the base price; gamma1 points at or below it are
    excluded.

    The grid is walked in slabs of whole alpha rows, so memory grows with
    one slab, not with r**3. A slab's maximum replaces the running one only
    when strictly larger: the first maximum in C order wins (smallest
    alpha, beta, gamma1), as over the whole grid at once.
    """
    config = config or DesignerConfig()
    r = config.oracle_grid_r
    grid = np.arange(1, r + 1) / r
    beta = grid[None, :, None]
    gamma1 = grid[None, None, :]
    tol = config.tolerance
    floors = [
        (w, deviation_floor(gamma0, params, w, tol), deviation_floor(gamma1, params, w, tol))
        for w in (1, 2)
    ]
    prize_ok = gamma1 > gamma0 + 1e-12
    rows = max(1, _ORACLE_SLAB_CELLS // (r * r))
    n_feasible, best_flat, best_utility = 0, -1, -math.inf
    for first in range(0, r, rows):
        alpha = grid[first : first + rows, None, None]
        ok = np.broadcast_to(prize_ok, (alpha.shape[0], r, r)).copy()
        for worker, floor0, floor1 in floors:
            m0, m1, v0 = compliance_margins(alpha, beta, gamma1, gamma0, params, worker)
            ok &= m0 >= floor0
            ok &= m1 >= floor1
            ok &= v0 >= -tol
        count = int(np.count_nonzero(ok))
        if not count:
            continue
        n_feasible += count
        utility = social_utility_closed(alpha, beta, gamma1, gamma0, params)
        utility[~ok] = -np.inf
        flat = int(np.argmax(utility))
        if utility.flat[flat] > best_utility:
            best_flat, best_utility = first * r * r + flat, float(utility.flat[flat])
    if n_feasible == 0:
        return OracleResult(False, math.nan, math.nan, math.nan, gamma0, math.nan, 0, r)
    ia, ib, ig = np.unravel_index(best_flat, (r, r, r))
    return OracleResult(
        feasible=True,
        alpha=float(grid[ia]),
        beta=float(grid[ib]),
        gamma1=float(grid[ig]),
        gamma0=gamma0,
        utility=best_utility,
        n_feasible=n_feasible,
        grid_r=r,
    )


@dataclass(frozen=True)
class BasePriceReport:
    gamma0_values: tuple[float, ...]
    utilities: tuple[float, ...]
    best_gamma0: float
    zero_is_optimal: bool


def zero_base_price_check(
    params: IntrinsicParams,
    gamma0_values: tuple[float, ...] = tuple(i * 0.05 for i in range(11)),
    config: DesignerConfig | None = None,
    tolerance: float = 1e-9,
) -> BasePriceReport:
    """Re-optimize with the base price pinned at each grid value.

    Reports the utility curve and whether gamma0 = 0 weakly dominates. Each
    point is a brute_force_oracle run, so every design on the curve deters
    one-shot CA, SN and SA deviations at both ratings and keeps both
    workers participating, independently of the case analysis.
    """
    config = config or DesignerConfig()
    utilities = []
    for g0 in gamma0_values:
        res = brute_force_oracle(params, config, gamma0=g0)
        utilities.append(res.utility if res.feasible else math.nan)
    finite = [(u, g) for u, g in zip(utilities, gamma0_values) if not math.isnan(u)]
    if not finite:
        return BasePriceReport(tuple(gamma0_values), tuple(utilities), math.nan, False)
    best_u, best_g = max(finite, key=lambda t: (t[0], -t[1]))
    at_zero = utilities[0] if abs(gamma0_values[0]) < 1e-15 else math.nan
    zero_ok = (not math.isnan(at_zero)) and at_zero >= best_u - tolerance
    return BasePriceReport(tuple(gamma0_values), tuple(utilities), best_g, zero_ok)
