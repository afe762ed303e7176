"""Scalar reference implementations that the package's fast paths must match.

- `lifetime_values_iterative`: value iteration for the compliant two-state
  values, against which the linear solve is checked.
- `lifetime_values_solved` and `deviation_value_kernel`: one worker's
  compliant values as one solve of `np.eye(2) - delta * K` with the
  `transition_kernel` CN kernel and rewards from `against_compliant`, and
  the CA deviation value from the `transition_kernel` CA row.
  `incentives.compliant_values`, which solves both workers' systems in one
  stacked call on entries it builds as floats, must return equal values for
  both workers, and `deviation_value` an equal value, bit for bit.
- `closed_form_case_utility`: a boundary case's utility at one gamma1, with
  the binding worker found from both workers' `constraint_coefficients`.
- `scalar_case_optimum`: the per-point gamma1 scan of a boundary case, one
  grid point and one worker at a time, with the constraint coefficients
  rearranged from payoff lines that are built directly from
  `against_compliant` at gamma = 0 and gamma = 1, and the chosen point's
  utility from `closed_form_case_utility`. Each case that `optimize`
  reports, feasible or not, must be an equal `CaseResult`, float for float.
- `rating_paths_loop`: the simulator's rating recurrence stepped one period
  at a time. `simulate._rating_paths` must return equal rating paths and
  equal promotion and demotion counts.
- `draw_channels`, `winner`, `rating_paths`, `estimate`,
  `run_chain_channels` and `run_utility_channels`: the simulator as one
  bool or float array per draw channel, with the winner and every prize and
  pay computed per cell, one replicate at a time, and each metric's mean
  and standard error taken from its own list of replicate means.
  `simulate.run_chain` and `simulate.run_utility`, which read each cell as
  one packed event code, look payoffs up in per-code tables and reduce
  each run's metrics together, must return an equal `SimResult`, float for
  float.
- `is_sustainable_arrays`: the certificate computed with numpy scalars
  and arrays read from the payoff table's arrays, the SN and SA drops
  read from `realized_mix`, one gap for the margins
  and the combined margin, the CA gains computed once per margin and once
  more for the gap-unit thresholds, and each deviation's margins at both
  ratings from one prize array. `is_sustainable`, which reads each
  worker's lines once as floats, must return an equal report, field for
  field by `repr`.
- `compliance_margins`: one deviation's margins (CA's by default) and the
  participation value at any cells, numpy-broadcasting, from the
  certificate's private helpers.
- `deviation_floor`: the least CA margin under which no SN or SA
  deviation pays, the fold of those margins into CA's that the
  certificate once used; the oracle's premise test reads it.
- `whole_grid_feasible` and `whole_grid_oracle`: the grid oracle's
  verdicts over all r**3 cells at once, every deviation priced on its own
  margin per cell, and their argmax.
  `brute_force_oracle`, which reads each (alpha, beta) row's first
  feasible prize in closed form, must return an equal `OracleResult`, and
  `designer._first_prizes` the first feasible prize of every row.
"""

import math

import numpy as np

from contest_rating import (
    CASE_ALPHA_ONE,
    CASE_BETA_ONE,
    CaseResult,
    DegenerateDenominator,
    DesignerConfig,
    Estimate,
    LifetimeValues,
    OracleResult,
    SimResult,
    STRATEGIES,
    Strategy,
    SustainabilityReport,
    against_compliant,
    constraint_coefficients,
    deviation_value,
    lifetime_values,
    payoff_line,
    payoff_table,
    realized_mix,
    social_utility_closed,
    stationary_distribution,
    transition_kernel,
)
from contest_rating.incentives import (
    _CA,
    _SA,
    _SN,
    TOLERANCE,
    WorkerIncentives,
    _compliant_gap,
    _gain,
    _gap_threshold,
    _turnover,
)


def lifetime_values_iterative(design, params, worker, steps=1000):
    """Value iteration from zero; converges geometrically at rate delta."""
    kernel = transition_kernel(Strategy.CN, design, params)
    reward = np.array([against_compliant(worker, Strategy.CN, g, params) for g in (design.gamma0, design.gamma1)])
    v = np.zeros(2)
    for _ in range(steps):
        v = reward + params.delta * (kernel @ v)
    return LifetimeValues(v0=float(v[0]), v1=float(v[1]))


def lifetime_values_solved(design, params, worker):
    """One worker's compliant values from one solve on the transition_kernel CN kernel."""
    kernel = transition_kernel(Strategy.CN, design, params)
    reward = np.array([against_compliant(worker, Strategy.CN, g, params) for g in (design.gamma0, design.gamma1)])
    v = np.linalg.solve(np.eye(2) - params.delta * kernel, reward)
    return LifetimeValues(v0=float(v[0]), v1=float(v[1]))


def deviation_value_kernel(rating, design, params, worker):
    """Value of intending CA once at `rating`, weighted by the transition_kernel CA row."""
    values = lifetime_values_solved(design, params, worker)
    row = transition_kernel(Strategy.CA, design, params)[rating]
    stage = against_compliant(worker, Strategy.CA, design.price(rating), params)
    return float(stage + params.delta * (row[0] * values.v0 + row[1] * values.v1))


def closed_form_case_utility(case_id, gamma1, params):
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


def _line(worker, intended, params):
    at0 = against_compliant(worker, intended, 0.0, params)
    at1 = against_compliant(worker, intended, 1.0, params)
    return at1 - at0, at0


def _guarded(numer, denom, what):
    if abs(denom) < 1e-12:
        raise DegenerateDenominator(f"{what} denominator vanished: {denom!r}")
    return numer / denom


def scalar_coefficients(gamma1, params, worker, lines):
    """(worker, k2, b2, k3, b3) at one grid point; raises DegenerateDenominator."""
    cn_slope, cn_icept = lines[(worker, Strategy.CN)]
    ca_slope, ca_icept = lines[(worker, Strategy.CA)]
    v_cn0 = cn_icept
    v_cn1 = cn_slope * gamma1 + cn_icept
    gain0 = ca_icept - cn_icept
    gain1 = (ca_slope - cn_slope) * gamma1 + (ca_icept - cn_icept)
    edge = v_cn1 - v_cn0
    err_any = params.error_any
    err_free = params.error_free
    detect = params.detection_margin
    delta = params.delta
    b1 = -_guarded(1.0 - delta, delta * err_any, "b1")
    k2 = _guarded(err_free * gain1, detect * edge - err_any * gain1, "k2")
    b2 = k2 * (1.0 - delta) / (delta * err_free)
    k3 = _guarded(-err_free * v_cn1, err_any * v_cn0, "k3")
    return worker, k2, b2, k3, b1


def scalar_case_optimum(case_id, params, m):
    lines = {
        (w, s): _line(w, s, params) for w in (1, 2) for s in (Strategy.CN, Strategy.CA)
    }
    feasible = []  # (gamma1, alpha, beta)
    for k in range(1, m + 1):
        gamma1 = k / m
        try:
            coeffs = [scalar_coefficients(gamma1, params, w, lines) for w in (1, 2)]
        except DegenerateDenominator:
            continue
        _, low_k2, low_b2, _, _ = max(coeffs, key=lambda c: c[1])
        _, _, _, up_k3, up_b3 = min(coeffs, key=lambda c: c[3])
        if case_id == CASE_BETA_ONE:
            if up_k3 <= 0.0:
                continue
            alpha = (1.0 - up_b3) / up_k3
            if not 0.0 < alpha < 1.0:
                continue
            if low_k2 > 0.0 and (1.0 - low_b2) / low_k2 <= alpha:
                continue
            feasible.append((gamma1, alpha, 1.0))
        elif case_id == CASE_ALPHA_ONE:
            beta = up_k3 + up_b3
            if not 0.0 < beta <= 1.0:
                continue
            if low_k2 > 0.0 and low_k2 + low_b2 > beta:
                continue
            feasible.append((gamma1, 1.0, beta))
        else:
            raise ValueError(f"unknown case id: {case_id!r}")
    if not feasible:
        return CaseResult(case_id=case_id, feasible=False)
    gamma1, alpha, beta = feasible[0] if case_id == CASE_BETA_ONE else feasible[-1]
    return CaseResult(
        case_id=case_id,
        feasible=True,
        alpha=alpha,
        beta=beta,
        gamma1=gamma1,
        utility=closed_form_case_utility(case_id, gamma1, params),
        feasible_gamma1=tuple(g for g, _, _ in feasible),
    )


def rating_paths_loop(ev, design):
    """(theta1, theta2, promotions, demotions), one period at a time."""
    periods = ev["crowd1"].shape[0]
    is_cn1 = ev["crowd1"] & ~ev["attack1"]
    is_cn2 = ev["crowd2"] & ~ev["attack2"]
    pr1 = is_cn1 & (ev["update1"] < design.alpha)
    de1 = ~is_cn1 & (ev["update1"] < design.beta)
    pr2 = is_cn2 & (ev["update2"] < design.alpha)
    de2 = ~is_cn2 & (ev["update2"] < design.beta)
    theta1 = np.empty_like(is_cn1)
    theta2 = np.empty_like(is_cn2)
    cur1 = ev["start1"]
    cur2 = ev["start2"]
    for t in range(periods):
        theta1[t] = cur1
        theta2[t] = cur2
        cur1 = np.where(cur1, ~de1[t], pr1[t])
        cur2 = np.where(cur2, ~de2[t], pr2[t])
    promotions = int((pr1 & ~theta1).sum() + (pr2 & ~theta2).sum())
    demotions = int((de1 & theta1).sum() + (de2 & theta2).sum())
    return theta1, theta2, promotions, demotions


def draw_channels(rng, periods, pairs, params, attack1, attack2):
    """One replicate's realized events; attack_i is a (periods, 1) intent mask.

    Channel layout (fixed, so draws are reproducible): worker-1 effort and
    attack flips, worker-2 effort and attack flips, two update draws, the
    tie coin, and the fulfillment draw.
    """
    u = rng.random((periods, pairs, 8))
    eps1, eps2 = params.eps1, params.eps2  # the update channels' thresholds are unused
    below = u < np.array([eps1, eps2, eps1, eps2, 0.0, 0.0, 0.5, params.error_free])
    return {
        "crowd1": ~below[..., 0],  # realized C for a C intent
        "crowd2": ~below[..., 2],
        "attack1": below[..., 1] ^ attack1,  # an attack flip turns the intent over
        "attack2": below[..., 3] ^ attack2,
        "update1": u[..., 4],
        "update2": u[..., 5],
        "coin": below[..., 6],
        "fulfilled": below[..., 7],
    }


def winner(ev):
    """True where the worker-1 side takes the contest."""
    return np.where(
        ev["crowd1"] != ev["crowd2"],
        ev["crowd1"],
        np.where(ev["attack1"] != ev["attack2"], ev["attack1"], ev["coin"]),
    )


def rating_paths(ev, design):
    """(theta1, theta2, promotions, demotions) from one running maximum over time."""
    is_cn = np.stack([ev["crowd1"] & ~ev["attack1"], ev["crowd2"] & ~ev["attack2"]])
    update = np.stack([ev["update1"], ev["update2"]])
    pr = is_cn & (update < design.alpha)
    de = ~is_cn & (update < design.beta)
    periods = is_cn.shape[1]
    dtype = np.int16 if 2 * periods + 1 <= np.iinfo(np.int16).max else np.int64
    keys = np.empty((2, periods + 1, is_cn.shape[2]), dtype=dtype)
    keys[:, 0] = (ev["start1"], ev["start2"])
    keys[:, 1:] = (pr | de) * np.arange(2, 2 * periods + 1, 2, dtype=dtype)[:, None] + pr
    theta = (np.maximum.accumulate(keys, axis=1)[:, :-1] & 1).astype(bool)
    promotions = int(np.count_nonzero(pr & ~theta))
    demotions = int(np.count_nonzero(de & theta))
    return theta[0], theta[1], promotions, demotions


def social_paid(ev, theta1, theta2, win1, design):
    """Per-cell requester payoff: fulfillment minus the winner's prize."""
    prize_paid = np.where(
        win1,
        np.where(theta1, design.gamma1, design.gamma0),
        np.where(theta2, design.gamma1, design.gamma0),
    )
    return ev["fulfilled"] - prize_paid


def worker_pay(ev, theta1, theta2, win1, design, params):
    """Per-cell (pay1, pay2): prize if won, minus effort, attack and damage costs."""
    prize1 = np.where(theta1, design.gamma1, design.gamma0)
    prize2 = np.where(theta2, design.gamma1, design.gamma0)
    pay1 = (
        prize1 * win1
        - params.c1 * ev["crowd1"]
        - params.s1 * ev["attack1"]
        - params.d * ev["attack2"]
    )
    pay2 = (
        prize2 * ~win1
        - params.c2 * ev["crowd2"]
        - params.s2 * ev["attack2"]
        - params.d * ev["attack1"]
    )
    return pay1, pay2


def estimate(metric, analytic, means):
    """One metric's Estimate from its list of replicate means."""
    arr = np.array(means, dtype=float)
    return Estimate(metric, float(analytic), float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr))))


def run_chain_channels(design, params, config):
    """simulate.run_chain computed channel by channel."""
    eta = stationary_distribution(design, params)
    analytic_social = social_utility_closed(design.alpha, design.beta, design.gamma1, design.gamma0, params)
    children = np.random.SeedSequence([config.seed, 0]).spawn(config.replicates)
    pairs = config.population
    periods = config.periods
    no_attack = np.zeros((periods, 1), dtype=bool)
    eta0_means = []
    eta1_means = []
    social_means = []
    promotions = demotions = 0
    for child in children:
        rng = np.random.default_rng(child)
        start = rng.random((2, pairs)) < eta.eta1
        ev = draw_channels(rng, periods, pairs, params, no_attack, no_attack)
        ev["start1"], ev["start2"] = start[0], start[1]
        theta1, theta2, pro, dem = rating_paths(ev, design)
        promotions += pro
        demotions += dem
        good_share = (theta1.mean() + theta2.mean()) / 2.0
        eta0_means.append(1.0 - good_share)
        eta1_means.append(good_share)
        social_means.append(social_paid(ev, theta1, theta2, winner(ev), design).mean())
    estimates = (
        estimate("eta0", eta.eta0, eta0_means),
        estimate("eta1", eta.eta1, eta1_means),
        estimate("social", analytic_social, social_means),
    )
    return SimResult(estimates, periods, promotions, demotions)


def run_utility_channels(design, params, config, deviation=None):
    """simulate.run_utility computed channel by channel (its horizon and deviation checks aside)."""
    periods = config.periods
    pairs = config.population
    weights = params.delta ** np.arange(periods)
    estimates = []
    promotions = demotions = 0
    deviate_worker, deviate_rating = deviation or (None, None)
    for start in (0, 1):
        deviating = deviate_worker is not None and deviate_rating == start
        attack1 = np.zeros((periods, 1), dtype=bool)
        attack2 = np.zeros((periods, 1), dtype=bool)
        if deviating and deviate_worker == 1:
            attack1[0] = True
        if deviating and deviate_worker == 2:
            attack2[0] = True
        children = np.random.SeedSequence([config.seed, 1, start]).spawn(config.replicates)
        means1 = []
        means2 = []
        for child in children:
            rng = np.random.default_rng(child)
            ev = draw_channels(rng, periods, pairs, params, attack1, attack2)
            full = np.full((pairs,), bool(start))
            ev["start1"] = full.copy()
            ev["start2"] = full.copy()
            theta1, theta2, pro, dem = rating_paths(ev, design)
            promotions += pro
            demotions += dem
            pay1, pay2 = worker_pay(ev, theta1, theta2, winner(ev), design, params)
            means1.append(np.tensordot(weights, pay1, axes=(0, 0)).mean())
            means2.append(np.tensordot(weights, pay2, axes=(0, 0)).mean())
        for worker, means in ((1, means1), (2, means2)):
            if deviating:
                if worker != deviate_worker:
                    continue
                analytic = deviation_value(start, design, params, worker)
                metric = f"vinf_w{worker}_r{start}_dev"
            else:
                analytic = lifetime_values(design, params, worker)[start]
                metric = f"vinf_w{worker}_r{start}"
            estimates.append(estimate(metric, analytic, means))
    return SimResult(tuple(estimates), periods, promotions, demotions)


def compliance_margins(alpha, beta, gamma1, gamma0, params, worker, intended=Strategy.CA):
    """One deviation's margins and the participation value, numpy-broadcasting.

    Returns (m0, m1, v0): m_theta = delta * weight_theta * drop * gap -
    deviation gain at theta, with weight 0 = alpha and weight 1 = beta, drop
    the detection margin for CA and the payoff table's drop for SN and SA,
    and v0 the lifetime compliant value at the low rating. The margins are
    the one-shot-deviation inequalities cleared of their (possibly
    vanishing) denominators, so they stay finite at delta = 0 or beta = 0
    and share the sign of the textbook thresholds wherever those are
    defined.
    """
    table = payoff_table(params)
    lines = table.lines(worker)
    v_cn0, gap = _compliant_gap(lines, gamma1, gamma0, _turnover(alpha, beta, params))
    i, delta = intended.index, params.delta
    drop = params.detection_margin if intended is Strategy.CA else table.drop[i]
    m0 = delta * drop * alpha * gap - _gain(lines, i, gamma0)
    m1 = delta * drop * beta * gap - _gain(lines, i, gamma1)
    v0 = (v_cn0 + delta * alpha * params.error_free * gap) / (1.0 - delta)
    return m0, m1, v0


def deviation_floor(gamma, params, worker):
    """Least CA margin at prize gamma (a float or an array) under which no SN or SA deviation pays.

    With every drop positive, m_X = (drop_X / drop_CA) * (m_CA + gain_CA) -
    gain_X, so m_X >= -TOLERANCE holds exactly when m_CA >= (drop_CA /
    drop_X) * (gain_X - TOLERANCE) - gain_CA. Returns the largest of the SN
    and SA bounds and -TOLERANCE (CA's own check), from the payoff table's
    drops.
    """
    table = payoff_table(params)
    lines, drop = table.lines(worker), np.array(table.drop)
    gain_ca = _gain(lines, _CA, gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = drop[_CA] / drop
        sn, sa = (ratio[i] * (_gain(lines, i, gamma) - TOLERANCE) - gain_ca for i in (_SN, _SA))
    return np.maximum(np.maximum(-TOLERANCE, sn), sa)


def whole_grid_feasible(params, config=None, gamma0=0.0):
    """The oracle grid's (alpha, beta, gamma1) cells where every margin holds, shape (r, r, r)."""
    r = (config or DesignerConfig()).oracle_grid_r
    grid = np.arange(1, r + 1) / r
    alpha = grid[:, None, None]
    beta = grid[None, :, None]
    gamma1 = grid[None, None, :]
    ok = np.broadcast_to(gamma1 > gamma0 + 1e-12, (r, r, r)).copy()
    for worker in (1, 2):
        for intended in (Strategy.CA, Strategy.SN, Strategy.SA):
            m0, m1, v0 = compliance_margins(alpha, beta, gamma1, gamma0, params, worker, intended)
            ok &= (m0 >= -TOLERANCE) & (m1 >= -TOLERANCE)
        ok &= v0 >= -TOLERANCE
    return ok


def whole_grid_oracle(params, config=None, gamma0=0.0, utility_of=social_utility_closed):
    """brute_force_oracle with every (alpha, beta, gamma1) cell in one array."""
    ok = whole_grid_feasible(params, config, gamma0)
    if not ok.any():
        return OracleResult(False, math.nan, math.nan, math.nan, math.nan)
    r = ok.shape[0]
    grid = np.arange(1, r + 1) / r
    utility = utility_of(grid[:, None, None], grid[None, :, None], grid[None, None, :], gamma0, params)
    utility = np.where(ok, utility, -np.inf)
    flat = int(np.argmax(utility))  # first max in C order: smallest alpha, beta, gamma1
    ia, ib, ig = np.unravel_index(flat, (r, r, r))
    return OracleResult(
        feasible=True,
        alpha=float(grid[ia]),
        beta=float(grid[ib]),
        gamma1=float(grid[ig]),
        utility=float(utility[ia, ib, ig]),
    )


def is_sustainable_arrays(design, params):
    """incentives.is_sustainable with numpy scalars and a prize array for each deviation's margins."""
    table = payoff_table(params)
    cn, sn, sa = Strategy.CN.index, Strategy.SN.index, Strategy.SA.index
    alpha, beta, gamma1, gamma0 = design.alpha, design.beta, design.gamma1, design.gamma0
    turnover = beta * params.error_any + alpha * params.error_free
    detect = params.delta * params.detection_margin
    seen_cn = np.array([realized_mix(s, params)[cn] for s in STRATEGIES])
    drop = seen_cn[cn] - seen_cn  # how much less likely each intent is read as CN than CN itself
    workers = []
    for worker in (1, 2):
        slopes, intercepts = table.slope[worker - 1], table.intercept[worker - 1]

        def gain(intended, gamma):
            i = intended.index
            return (slopes[i] - slopes[cn]) * gamma + (intercepts[i] - intercepts[cn])

        cn_slope, cn_icept = payoff_line(worker, Strategy.CN, params)
        v_cn0 = cn_slope * gamma0 + cn_icept
        v_cn1 = cn_slope * gamma1 + cn_icept
        gap = (v_cn1 - v_cn0) / (1.0 - params.delta * (1.0 - turnover))
        m0 = params.delta * params.detection_margin * alpha * gap - gain(Strategy.CA, gamma0)
        m1 = params.delta * params.detection_margin * beta * gap - gain(Strategy.CA, gamma1)
        gain0, gain1 = (float(gain(Strategy.CA, g)) for g in (gamma0, gamma1))
        th0 = _gap_threshold(gain0, detect * alpha)
        th1 = _gap_threshold(gain1, detect * beta)
        prizes, weights = np.array([gamma0, gamma1]), np.array([alpha, beta])
        drops = ((Strategy.CA, params.detection_margin), (Strategy.SN, drop[sn]), (Strategy.SA, drop[sa]))
        margins = [params.delta * d * weights * gap - gain(intended, prizes) for intended, d in drops]
        workers.append(
            WorkerIncentives(
                worker=worker,
                margin0=float(m0),
                margin1=float(m1),
                margin_combined=gap - max(th0, th1),
                participation=lifetime_values(design, params, worker).v0,
                sustainable=bool((np.array(margins) >= -TOLERANCE).all()),
            )
        )
    return SustainabilityReport(tuple(workers), all(w.sustainable for w in workers))
