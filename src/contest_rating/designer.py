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
check. Along gamma1 the rating-0 and participation margins never fall, and
along alpha the rating-1 margin never rises, so each verdict holds on a
suffix of prizes or a prefix of alphas. The oracle guesses where each one
turns from the margins solved along that axis, confirms the guess with two
exact margin probes, and bisects only where the guess misses; a probe
computes only its own rating's margins. Each (alpha, beta) row's first
feasible prize is where rating 0 first clears if rating 1 holds there, and
is otherwise read off a mask of that one row.
Every comparison that allows slack (tied case utilities, the certificate,
the oracle's margins, the base-price verdict) allows incentives.TOLERANCE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, DomainError, Infeasible
from .incentives import (
    TOLERANCE,
    _VANISHES,
    SustainabilityReport,
    _turnover,
    binding_lines,
    compliance_margins,
    deviation_floor,
    is_sustainable,
    rating0_margins,
    rating1_margin,
)
from .params import DesignParams, IntrinsicParams, Strategy
from .payoffs import payoff_line
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


_SEARCH_CELLS = 8000  # cells per margin call (whole grid rows): each float temporary stays under 64 KiB


def _guess(values, thresholds, side: str) -> np.ndarray:
    # How many of the sorted `values` lie below each threshold (side "left") or at or below it
    # ("right"): where a search expects its verdict to turn. Only the probes' verdicts count.
    return np.searchsorted(values, thresholds, side=side)


def _count_leading(fails, size: int, count: np.ndarray, *axes) -> np.ndarray:
    # Per entry, the length of the prefix of range(size) on which fails(probe, *axes) holds,
    # given a guess `count` of it in [0, size]. The guess is right exactly where fails holds
    # just before it and not at it (a side outside range(size) holds by itself). Where it is
    # wrong, binary lifting over those entries alone finds the length: one probe per entry and
    # step, a probe past the end counting for nothing.
    if not size:
        return count
    right = ((count == 0) | fails(count - 1, *axes)) & ((count == size) | ~fails(count, *axes))
    # the indices np.nonzero gives, which is about 4x slower on a 2-D mask and 2x faster on a 1-D one
    at = np.unravel_index(np.flatnonzero(~right), right.shape) if right.ndim > 1 else np.nonzero(~right)
    if at[0].size:
        axes = [np.broadcast_to(x, count.shape)[at] for x in axes]
        found = np.zeros(at[0].size, dtype=np.intp)
        for step in (1 << e for e in reversed(range(size.bit_length()))):
            probe = found + (step - 1)
            np.add(found, step, out=found, where=(probe < size) & fails(probe, *axes))
        count[at] = found
    return count


def _rating1_at_low(top, lows, alphas) -> np.ndarray:
    # Per (alpha, beta) row of a chunk, whether it has a clearing prize low < n and rating 1
    # holds there (alpha < top at that prize), in one gather: there low is the row's first
    # feasible prize. Only where this fails is the row's own mask built.
    n = top.shape[1]
    return (lows < n) & (top.ravel().take(np.minimum(lows, n - 1) + np.arange(len(top)) * n) > alphas)


def brute_force_oracle(
    params: IntrinsicParams,
    config: DesignerConfig | None = None,
    gamma0: float = 0.0,
) -> OracleResult:
    """Exhaustive grid argmax over (alpha, beta, gamma1) in {1/r, ..., 1}^3.

    Feasibility comes from the primal margins, not the band algebra, so it
    shares no logic with the case analysis: for both workers no one-shot
    deviation to CA, SN or SA pays at either rating (each CA margin clears
    its deviation_floor) and participation holds at rating 0. gamma0 can be
    pinned above 0 to probe the base price; only prizes above it count.

    Each verdict is the one its rating's margins give at its cell
    (rating0_margins or rating1_margin, the halves of compliance_margins),
    found by a search on two premises. They hold step by step in IEEE
    arithmetic when the CN slopes, detection margin and error rates are
    >= 0 and 0 <= delta < 1 (DomainError otherwise). At fixed (alpha,
    beta), m0 and v0 never fall as gamma1 rises, so rating 0 and
    participation hold from a first prize on.
    At fixed (beta, gamma1), m1 never rises as alpha rises, so rating 1
    holds below a first failing alpha. Both margins are affine in the prize
    gap over the turnover, so each search starts at their solved crossing;
    a probe just before that guess and one at it settle the entry, and only
    entries whose guess misses are bisected. The guess picks which cells to
    probe and nothing else.

    A cell is feasible when gamma1 >= low (the first clearing prize of its
    row) and alpha < top (the first failing alpha of its column), so no
    alpha row from the largest top on holds one. Utility never rises along
    gamma1, so each (alpha, beta) row is read at its first feasible prize:
    its low itself where a gather of top shows rating 1 holding there, else
    the first cell of its row mask: prizes from low on where its beta's
    line of top exceeds alpha. The first maximum in C order wins (smallest
    alpha, beta, gamma1); the oracle is feasible when some row has a
    feasible prize.
    """
    cn_slopes = [payoff_line(w, Strategy.CN, params)[0] for w in (1, 2)]
    signs = (*cn_slopes, params.detection_margin, params.error_free, params.error_any, params.delta)
    if not (all(x >= 0.0 for x in signs) and params.delta < 1.0):
        raise DomainError(f"oracle premises need CN slopes, detection margin, error rates, delta {signs} >= 0, delta < 1")
    r = (config or DesignerConfig()).oracle_grid_r
    grid = np.arange(1, r + 1) / r
    prizes = grid[int(np.searchsorted(grid, gamma0 + 1e-12, side="right")) :]  # the prizes above gamma0
    n, index = len(prizes), np.min_scalar_type(r)  # one byte per grid index up to r = 255
    floors = [(w, deviation_floor(gamma0, params, w), deviation_floor(prizes, params, w)) for w in (1, 2)]

    def holds(rating, alpha, beta, k):  # rating 0 and participation (rating = 0), or rating 1, at prizes[k]
        gamma1, ok = prizes.take(k, mode="clip"), []
        for worker, floor0, floor1 in floors:
            if rating:
                ok.append(rating1_margin(alpha, beta, gamma1, gamma0, params, worker) >= floor1[k])
            else:
                m0, v0 = rating0_margins(alpha, beta, gamma1, gamma0, params, worker)
                ok.append((m0 >= floor0) & (v0 >= -TOLERANCE))
        return ok[0] & ok[1]

    # Each search starts at the margins' crossing, solved along its axis. At zero weights the
    # margins read m0 = -gain0, m1 = -gain1 and v0 = v_cn0 / (1 - delta) at every prize. So
    # rating 0 and participation clear from gamma1 = gamma0 + lead * turnover / alpha on, and
    # rating 1 holds while turnover <= beta * reach[k].
    delta, error_free = params.delta, params.error_free
    detect, lead, reach = delta * params.detection_margin, -np.inf, np.inf
    with np.errstate(all="ignore"):  # a guess may be inf or nan: the probes settle any guess
        for (worker, floor0, floor1), slope in zip(floors, cn_slopes):
            m0, m1, v0 = compliance_margins(0.0, 0.0, prizes, gamma0, params, worker)
            clear = np.maximum((floor0 - m0) / detect, (-TOLERANCE - v0) * (1.0 - delta) / (delta * error_free))
            lead = np.max(clear / slope, initial=lead)
            cost = floor1 - m1  # gain1 + floor1: rating 1 holds at every alpha where it is <= 0
            reach = np.minimum(reach, np.where(cost > 0.0, slope * (prizes - gamma0) * detect / cost, np.inf))

    low, top, rows = np.empty((r, r), dtype=index), np.zeros((r, n), dtype=index), max(1, _SEARCH_CELLS // r)
    for s in range(0, r, rows):  # first prize at which each (alpha, beta) row clears
        a = grid[s : s + rows, None]
        with np.errstate(all="ignore"):
            guess = _guess(prizes, gamma0 + lead * _turnover(a, grid, params) / a, "left")
        low[s : s + rows] = _count_leading(lambda k, alpha, beta: ~holds(0, alpha, beta, k), n, guess, a, grid)
    # first failing alpha per (beta, prize) column, searched where some row's low allows a feasible cell
    b, k = np.nonzero(np.arange(n) >= low.min(axis=0)[:, None])
    for e in (slice(s, s + rows * r) for s in range(0, len(b), rows * r)):
        beta, prize = grid[b[e]], k[e]
        with np.errstate(all="ignore"):
            guess = _guess(grid, (beta * reach[prize] - _turnover(0.0, beta, params)) / (delta * error_free), "right")
        top[b[e], prize] = _count_leading(
            lambda i, beta, prize: holds(1, grid.take(i, mode="clip"), beta, prize), r, guess, beta, prize
        )
    # A row holds a feasible prize only at an alpha below its beta column's largest top, so the
    # walk stops at top.max(). Each row's first feasible prize is its low where rating 1 holds
    # there; every other row that can hold one reads it off its mask, from its beta's line of top.
    ceiling = top.max(axis=1, initial=0)
    stop, best = int(ceiling.max(initial=0)), None
    for s in range(0, stop, rows):
        lows = low[s : min(s + rows, stop)]
        alphas = np.arange(s, s + len(lows), dtype=index)[:, None]
        cell, feasible = np.minimum(lows, n - 1), _rating1_at_low(top, lows, alphas)
        miss = np.flatnonzero(~feasible & (lows < n) & (alphas < ceiling))  # rows left to their masks
        if miss.size:
            a, b = np.divmod(miss, r)
            row = (top[b] > alphas[a]) & (np.arange(n) >= lows.ravel()[miss, None])
            first = row.argmax(axis=1)
            cell.flat[miss], feasible.flat[miss] = first, row[np.arange(len(miss)), first]
        utility = social_utility_closed(grid[s : s + len(lows), None], grid, prizes.take(cell), gamma0, params)
        utility[~feasible] = -np.inf
        ia, ib = np.unravel_index(int(np.argmax(utility)), utility.shape)
        if feasible[ia, ib] and (best is None or utility[ia, ib] > best[0]):  # strictly: first maximum wins
            best = (float(utility[ia, ib]), float(grid[s + ia]), float(grid[ib]), float(prizes[cell[ia, ib]]))
    if best is None:
        return OracleResult(False, math.nan, math.nan, math.nan, math.nan)
    utility, alpha, beta, gamma1 = best
    return OracleResult(True, alpha, beta, gamma1, utility)


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
