"""Scalar reference implementations that the package's fast paths must match.

- `lifetime_values_iterative`: value iteration for the compliant two-state
  values, against which the linear solve is checked.
- `scalar_case_optimum`: the per-point gamma1 scan of a boundary case, one
  grid point and one worker at a time, with the constraint coefficients
  rearranged from payoff lines that are built directly from
  `against_compliant` at gamma = 0 and gamma = 1. `boundary_case_optimum`
  must return an equal `CaseResult`, float for float.
- `rating_paths_loop`: the simulator's rating recurrence stepped one period
  at a time. `simulate._rating_paths` must return equal rating paths and
  equal promotion and demotion counts.
"""

import numpy as np

from contest_rating import (
    CASE_ALPHA_ONE,
    CASE_BETA_ONE,
    CaseResult,
    DegenerateDenominator,
    LifetimeValues,
    Strategy,
    against_compliant,
    closed_form_case_utility,
    one_period_values,
    transition_kernel,
)


def lifetime_values_iterative(design, params, worker, steps=1000):
    """Value iteration from zero; converges geometrically at rate delta."""
    kernel = transition_kernel(Strategy.CN, design, params)
    reward = one_period_values(design, params, worker)
    v = np.zeros(2)
    for _ in range(steps):
        v = reward + params.delta * (kernel @ v)
    return LifetimeValues(v0=float(v[0]), v1=float(v[1]))


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
    _guarded(detect * edge - err_free * gain0, err_any * gain0, "k1")
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
