"""Requester-optimal protocol search and its brute-force verification oracle.

Utility is monotone along the promotion/demotion axes, so the optimum sits
on the boundary of the (alpha, beta) unit square and the search reduces to
two one-dimensional boundary cases: pin beta = 1 and put alpha on the
participation boundary, or pin alpha = 1 and put beta there. optimize reads
the band's binding lines once over a uniform gamma1 grid, and each case
keeps its feasibility-qualified points from that one scan and takes the
closed-form utility of the chosen one; the winner across cases is the
design, certified by is_sustainable. A grid oracle over (alpha, beta,
gamma1) re-derives everything from the primal margins as an independent
check: at fixed (alpha, beta) rating 0 and participation hold from one
prize on and rating 1 on one run of prizes, so each row's first feasible
prize is read in closed form.
Every comparison that allows slack (tied case utilities, the certificate,
the oracle's margins, the base-price verdict) allows incentives.TOLERANCE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, DomainError, Infeasible
from .incentives import (
    _CA,
    _CN,
    TOLERANCE,
    _VANISHES,
    SustainabilityReport,
    _deviations,
    _gain,
    _turnover,
    binding_lines,
    is_sustainable,
)
from .params import DesignParams, IntrinsicParams, Strategy
from .payoffs import payoff_line, payoff_table
from .requester import social_utility_closed

CASE_BETA_ONE = "beta=1"
CASE_ALPHA_ONE = "alpha=1"


@dataclass(frozen=True)
class DesignerConfig:
    gamma_grid_m: int = 100
    oracle_grid_r: int = 100

    def __post_init__(self) -> None:
        if self.gamma_grid_m < 10:
            raise ValueError(f"gamma grid too coarse: m = {self.gamma_grid_m}")
        if self.oracle_grid_r < 10:
            raise ValueError(f"oracle grid too coarse: r = {self.oracle_grid_r}")


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

    def design(self) -> DesignParams:
        if not self.feasible:
            raise Infeasible("no design attached to an infeasible outcome")
        return DesignParams(self.alpha, self.beta, self.gamma1, self.gamma0)


def _corner_utility(case_id: str, gamma1: float, worker: int, params: IntrinsicParams) -> float:
    # Requester utility at the corner where `worker`'s participation binds:
    # substituting that equality into the stationary utility eliminates the
    # free knob, so only the worker's compliant payoffs enter.
    cn_slope, cn_icept = payoff_line(worker, Strategy.CN, params)
    v0 = cn_icept
    v1 = cn_slope * gamma1 + cn_icept
    z, delta = params.error_free, params.delta
    if case_id == CASE_BETA_ONE:
        denom = (1.0 - delta) * v0 + delta * params.error_any * (v0 - v1)
        numer = gamma1 * (1.0 - delta * z) * v0
    else:
        denom = (delta - 1.0) * v0 + delta * z * (v0 - v1)
        numer = delta * gamma1 * z * v0
    if abs(denom) < _VANISHES:
        raise DegenerateDenominator(f"case utility denominator vanished: {denom!r}")
    return z - numer / denom


def _case_optima(gamma1: np.ndarray, params: IntrinsicParams) -> tuple[CaseResult, ...]:
    """Both boundary cases, read off one binding_lines scan of the gamma1 grid.

    A grid point is feasible when the pinned-knob corner exists inside the
    unit square and the rating-1 deviation line does not cut it off; points
    where a coefficient's denominator vanishes are dropped. Within the
    feasible set the case utility is monotone in gamma1, so beta=1 takes the
    smallest feasible prize and alpha=1 the largest; the chosen point's
    utility comes from the worker that owns its participation line.
    """
    k2, b2, k3, b3, upper, live = binding_lines(gamma1, params)
    cases = []
    with np.errstate(all="ignore"):  # entries the masks drop
        rising = k2 > 0.0  # where the rating-1 deviation line can cut the corner off
        for case_id in (CASE_BETA_ONE, CASE_ALPHA_ONE):
            beta_one = case_id == CASE_BETA_ONE
            if beta_one:  # the free knob on the participation line: alpha at beta = 1
                free = (1.0 - b3) / k3
                corner = (k3 > 0.0) & (0.0 < free) & (free < 1.0)
                cut = (1.0 - b2) / k2 <= free
            else:  # beta at alpha = 1
                free = k3 + b3
                corner = (0.0 < free) & (free <= 1.0)
                cut = k2 + b2 > free
            feasible = np.flatnonzero(live & corner & ~(rising & cut))
            if not feasible.size:
                cases.append(CaseResult(case_id=case_id, feasible=False))
                continue
            pick = feasible[0] if beta_one else feasible[-1]
            knob, gamma = float(free[pick]), float(gamma1[pick])
            alpha, beta = (knob, 1.0) if beta_one else (1.0, knob)
            utility = _corner_utility(case_id, gamma, int(upper[pick]), params)
            cases.append(CaseResult(case_id, True, alpha, beta, gamma, utility, tuple(gamma1[feasible].tolist())))
    return tuple(cases)


def optimize(params: IntrinsicParams, config: DesignerConfig | None = None) -> DesignOutcome:
    """Best protocol across both boundary cases, with a sustainability certificate.

    Raises Infeasible (carrying both case results) when neither case admits
    a feasible gamma1. Ties between cases break toward the smaller gamma1,
    then toward the beta=1 case.
    """
    config = config or DesignerConfig()
    m = config.gamma_grid_m
    cases = _case_optima(np.arange(1, m + 1) / m, params)
    live = [c for c in cases if c.feasible]
    if not live:
        err = Infeasible(f"no feasible protocol on the gamma1 grid (m = {m})")
        err.cases = cases
        raise err
    top = max(c.utility for c in live)
    best = min((c for c in live if top - c.utility <= TOLERANCE), key=lambda c: (c.gamma1, c.case_id != CASE_BETA_ONE))
    design = DesignParams(best.alpha, best.beta, best.gamma1, 0.0)
    certificate = is_sustainable(design, params)
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
    )


@dataclass(frozen=True)
class OracleResult:
    feasible: bool
    alpha: float
    beta: float
    gamma1: float
    utility: float


_CHUNK_CELLS = 8000  # (alpha, beta) rows per chunk of whole alpha rows: each float temporary stays under 64 KiB


def _prize_bounds(params: IntrinsicParams, prizes: np.ndarray, gamma0: float):
    # (lead, reach): rating 0 and participation hold from gamma1 >= gamma0 + lead * turnover / alpha
    # on, rating 1 at prizes[k] where turnover / beta <= reach[k]. Each deviation's margin is
    # coef * weight * (gamma1 - gamma0) / turnover - (gain - TOLERANCE) with coef = delta * drop *
    # slope >= 0, and participation's is alike; where coef is 0 the sign of the rest decides on
    # every prize. A nan const or cost fails: searchsorted puts a nan threshold or running
    # maximum past every finite one.
    table, delta = payoff_table(params), params.delta
    at, coef, const, reach = np.concatenate(([gamma0], prizes)), [], [], np.inf
    with np.errstate(all="ignore"):
        for lines in table.worker_lines:
            slope, v_cn0 = lines[0][_CN], lines[0][_CN] * gamma0 + lines[1][_CN]
            for i, drop in _deviations(table, params):  # one pass each: a (3, n) stack of the gains ran slower
                k, cost = delta * drop * slope, _gain(lines, i, at) - TOLERANCE
                coef.append(k)
                const.append(cost[0])  # rating 0
                reach = np.minimum(reach, np.where(cost[1:] <= 0.0, np.inf, k * (prizes - gamma0) / cost[1:]))
            coef.append(delta * params.error_free * slope)  # participation
            const.append(-(v_cn0 + TOLERANCE * (1.0 - delta)))
        coef, const = np.array(coef), np.array(const)
        lead = np.where(coef > 0.0, const / coef, np.where(const <= 0.0, -np.inf, np.inf))
    return np.max(lead), reach


def _first_prizes(alphas, betas, prizes, gamma0: float, lead, reach, params: IntrinsicParams) -> np.ndarray:
    # Per (alpha, beta) row, the index of its first feasible prize, or -1. Each rating-1 margin is
    # affine in the prize, so rating 1 holds on one run of prizes: the row's first feasible
    # prize is the later of that run's start and rating 0's, where rating 1 must still hold.
    turnover = _turnover(alphas, betas, params)
    ask = turnover / betas
    start = np.searchsorted(prizes, gamma0 + lead * turnover / alphas)
    start = np.maximum(start, np.searchsorted(np.maximum.accumulate(reach), ask))
    cell = np.minimum(start, len(prizes) - 1)
    return np.where((start < len(prizes)) & (reach.take(cell) >= ask), cell, -1)


def brute_force_oracle(params: IntrinsicParams, config: DesignerConfig | None = None, gamma0: float = 0.0) -> OracleResult:
    """Exhaustive grid argmax over (alpha, beta, gamma1) in {1/r, ..., 1}^3.

    Feasibility comes from the primal margins, not the band algebra, so it
    shares no logic with the case analysis: for both workers no one-shot
    deviation to CA, SN or SA pays at either rating and participation holds
    at rating 0. gamma0 can be pinned above 0 to probe the base price; only
    prizes above it count. Each (alpha, beta) row reads its first feasible
    prize in closed form (_prize_bounds, _first_prizes), which needs the CN
    slopes, every deviation's drop (the detection margin for CA) and the
    error rates >= 0 and 0 <= delta < 1 (DomainError otherwise; an SN or SA
    drop is negative where eps1 > 1/2 or eps1 + eps2 > 1). Utility never
    rises along gamma1, so that prize holds the row's maximum; the first
    maximum in C order wins (smallest alpha, beta, gamma1).
    """
    cn_slopes = [payoff_line(w, Strategy.CN, params)[0] for w in (1, 2)]
    drops = tuple(drop for _, drop in _deviations(payoff_table(params), params))
    signs = (*cn_slopes, *drops, params.error_free, params.error_any, params.delta)
    if not (all(x >= 0.0 for x in signs) and params.delta < 1.0):
        raise DomainError(f"oracle premises need CN slopes, deviation drops, error rates, delta {signs} >= 0, delta < 1")
    r = (config or DesignerConfig()).oracle_grid_r
    grid = np.arange(1, r + 1) / r
    prizes = grid[int(np.searchsorted(grid, gamma0 + 1e-12, side="right")) :]  # the prizes above gamma0
    best = OracleResult(False, math.nan, math.nan, math.nan, math.nan)
    if not len(prizes):
        return best
    (lead, reach), rows = _prize_bounds(params, prizes, gamma0), max(1, _CHUNK_CELLS // r)
    for s in range(0, r, rows):
        alphas = grid[s : s + rows, None]
        cell = _first_prizes(alphas, grid, prizes, gamma0, lead, reach, params)
        utility = social_utility_closed(alphas, grid, prizes.take(cell), gamma0, params)
        utility[cell < 0] = -np.inf
        ia, ib = np.unravel_index(int(np.argmax(utility)), utility.shape)
        u = float(utility[ia, ib])
        if cell[ia, ib] >= 0 and (not best.feasible or u > best.utility):  # strictly: first maximum wins
            best = OracleResult(True, float(alphas[ia, 0]), float(grid[ib]), float(prizes[cell[ia, ib]]), u)
    return best


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
    at_zero = next((u for u, g in zip(utilities, gamma0_values) if abs(g) < 1e-15), math.nan)
    zero_ok = (not math.isnan(at_zero)) and at_zero >= best_u - TOLERANCE
    return BasePriceReport(tuple(gamma0_values), tuple(utilities), best_g, zero_ok)
