"""Requester-side utilities: per-winner, pair enumeration, closed form, slopes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import design_params, intrinsic_params
from oracles import pair_utility, per_winner_utility, social_utility
from contest_rating import (
    DegenerateChain,
    DegenerateDenominator,
    DesignParams,
    default_params,
    social_utility_closed,
    stationary_distribution,
)


def iso_utility_slope(design, params, utility=None):
    """Slope kappa of the iso-utility rays beta = kappa * alpha at gamma0 = 0.

    With gamma0 = 0 the closed form depends on (alpha, beta) only through
    beta/alpha, so each utility level is a ray through the origin; solving
    for the ratio gives kappa = error_free*(gamma1 - error_free + U) /
    (error_any*(error_free - U)). Utility is strictly increasing in kappa
    (harsher demotion shrinks time on the expensive prize).
    """
    if design.gamma0 != 0.0:
        raise ValueError("iso-utility rays require gamma0 = 0")
    if utility is None:
        utility = social_utility(design, params).value
    err_free = params.error_free
    denom = params.error_any * (err_free - utility)
    if abs(denom) < 1e-12:
        raise DegenerateDenominator(f"iso-utility slope denominator vanished: {denom!r}")
    return err_free * (design.gamma1 - err_free + utility) / denom


def test_per_winner_examples(defaults):
    free = default_params(eps1=0.0, eps2=0.0)
    assert per_winner_utility(1, DesignParams(0.5, 0.5, 0.0, 0.0), free) == 1.0
    assert per_winner_utility(1, DesignParams(0.5, 0.5, 1.0, 0.0), free) == 0.0
    assert per_winner_utility(1, DesignParams(0.5, 0.5, 0.5, 0.0), defaults) == pytest.approx(
        0.26, abs=1e-15
    )


@given(intrinsic_params(), st.floats(0.0, 1.0), st.sampled_from([0, 1]))
def test_per_winner_is_fulfillment_minus_prize(p, gamma, theta):
    design = DesignParams(0.5, 0.5, gamma, gamma)
    assert per_winner_utility(theta, design, p) == pytest.approx(
        p.error_free - gamma, abs=1e-15
    )


def test_pair_utility_structure(defaults):
    design = DesignParams(0.6, 0.4, 0.7, 0.1)
    eta = stationary_distribution(design, defaults)
    top = pair_utility(1, 1, design, eta, defaults)
    assert top == pytest.approx(eta.eta1**2 * per_winner_utility(1, design, defaults), abs=1e-15)
    assert pair_utility(0, 1, design, eta, defaults) == pytest.approx(
        pair_utility(1, 0, design, eta, defaults), abs=1e-15
    )


def test_pair_utility_uniform_price_sums_to_per_winner(defaults):
    design = DesignParams(0.6, 0.4, 0.3, 0.3)
    eta = stationary_distribution(design, defaults)
    total = sum(
        pair_utility(a, b, design, eta, defaults) for a in (0, 1) for b in (0, 1)
    )
    assert total == pytest.approx(defaults.error_free - 0.3, abs=1e-15)


def test_social_utility_example(defaults):
    result = social_utility(DesignParams(0.5, 0.5, 0.5, 0.0), defaults)
    assert result.value == pytest.approx(0.38, abs=1e-14)
    assert result.enumerated == pytest.approx(result.closed_form, abs=1e-12)
    assert abs(result.residual) <= 1e-12


def test_social_utility_flat_prices(defaults):
    result = social_utility(DesignParams(0.7, 0.2, 0.4, 0.4), defaults)
    assert result.value == pytest.approx(defaults.error_free - 0.4, abs=1e-14)


def test_social_utility_no_errors():
    p = default_params(eps1=0.0, eps2=0.0)
    result = social_utility(DesignParams(0.5, 0.5, 0.3, 0.0), p)
    assert result.value == pytest.approx(1.0 - 0.3, abs=1e-14)


def test_social_utility_degenerate_chain(defaults):
    with pytest.raises(DegenerateChain):
        social_utility(DesignParams(0.0, 0.0, 0.5, 0.0), defaults)


@settings(max_examples=100, deadline=None)
@given(intrinsic_params(), design_params(gamma0_max=0.4))
def test_enumeration_equals_closed_form(p, design):
    result = social_utility(design, p)
    assert abs(result.residual) <= 1e-12


def test_closed_form_broadcasts(defaults):
    gamma1 = np.linspace(0.1, 1.0, 10)
    u = social_utility_closed(0.8, 0.5, gamma1, 0.0, defaults)
    assert u.shape == gamma1.shape
    for i, g in enumerate(gamma1):
        assert u[i] == social_utility_closed(0.8, 0.5, float(g), 0.0, defaults)


def test_social_utility_monotone_in_prizes(defaults):
    # paying more at either rating can only cost the requester
    base = social_utility_closed(0.7, 0.6, 0.5, 0.1, defaults)
    assert social_utility_closed(0.7, 0.6, 0.6, 0.1, defaults) < base
    assert social_utility_closed(0.7, 0.6, 0.5, 0.2, defaults) < base
    gamma1 = np.linspace(0.2, 1.0, 17)
    curve = social_utility_closed(0.7, 0.6, gamma1, 0.1, defaults)
    assert np.all(np.diff(curve) < 0.0)


def test_iso_slope_unit_at_balanced_point(defaults):
    design = DesignParams(0.5, 0.5, 0.5, 0.0)
    assert iso_utility_slope(design, defaults) == pytest.approx(1.0, abs=1e-12)


def test_iso_slope_requires_zero_base_price(defaults):
    with pytest.raises(ValueError):
        iso_utility_slope(DesignParams(0.5, 0.5, 0.5, 0.1), defaults)


def test_iso_slope_degenerate_at_full_utility(defaults):
    design = DesignParams(0.5, 0.5, 0.5, 0.0)
    with pytest.raises(DegenerateDenominator):
        iso_utility_slope(design, defaults, utility=defaults.error_free)


def test_iso_slope_round_trip(defaults):
    rng = np.random.default_rng(7)
    for _ in range(100):
        design = DesignParams(
            alpha=rng.uniform(0.05, 1.0),
            beta=rng.uniform(0.05, 1.0),
            gamma1=rng.uniform(0.1, 1.0),
            gamma0=0.0,
        )
        k4 = iso_utility_slope(design, defaults)
        assert k4 * design.alpha == pytest.approx(design.beta, abs=1e-9)


def test_iso_slope_level_set(defaults):
    design = DesignParams(0.4, 0.3, 0.6, 0.0)
    u = social_utility(design, defaults).value
    k4 = iso_utility_slope(design, defaults)
    for alpha in np.linspace(0.1, 1.0, 10):
        beta = k4 * alpha
        level = social_utility_closed(float(alpha), beta, 0.6, 0.0, defaults)
        assert level == pytest.approx(u, abs=1e-9)


def test_utility_increases_with_iso_slope(defaults):
    # steeper demotion-to-promotion ratio moves mass to the cheap rating
    rng = np.random.default_rng(99)
    for _ in range(100):
        alpha = rng.uniform(0.1, 1.0)
        beta = rng.uniform(0.1, 0.999)
        gamma1 = rng.uniform(0.1, 1.0)
        step = 1e-6
        lo = social_utility_closed(alpha, beta - step, gamma1, 0.0, defaults)
        hi = social_utility_closed(alpha, beta + step, gamma1, 0.0, defaults)
        assert hi > lo  # central difference in the slope direction
