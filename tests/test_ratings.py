"""Rating update law, strategy-conditional kernels, and the stationary law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import intrinsic_params
from oracles import evolve, rating_update_rule
from contest_rating import (
    DegenerateChain,
    DesignParams,
    Strategy,
    UnsupportedStrategy,
    default_params,
    observed_compliant_prob,
    stationary_distribution,
    transition_kernel,
)


def test_update_rule_cases():
    design = DesignParams(0.3, 0.4, 0.5, 0.0)
    assert rating_update_rule(1, Strategy.CN, design) == pytest.approx([0.0, 1.0], abs=0)
    assert rating_update_rule(0, Strategy.CN, design) == pytest.approx([0.7, 0.3], abs=0)
    assert rating_update_rule(1, Strategy.SA, design) == pytest.approx([0.4, 0.6], abs=0)
    assert rating_update_rule(0, Strategy.CA, design) == pytest.approx([1.0, 0.0], abs=0)


def test_observed_compliant_prob(defaults):
    assert observed_compliant_prob(Strategy.CN, defaults) == pytest.approx(0.76, abs=1e-15)
    assert observed_compliant_prob(Strategy.CA, defaults) == pytest.approx(0.04, abs=1e-15)
    for strat in (Strategy.SN, Strategy.SA):
        with pytest.raises(UnsupportedStrategy):
            observed_compliant_prob(strat, defaults)


def test_kernel_compliant_demotion_rate(defaults):
    design = DesignParams(0.5, 0.5, 0.5, 0.0)
    k = transition_kernel(Strategy.CN, design, defaults)
    assert k[1, 0] == pytest.approx(0.12, abs=1e-15)  # beta * error_any
    assert k[0, 1] == pytest.approx(0.5 * 0.76, abs=1e-15)


def test_kernel_no_error_rows():
    p = default_params(eps1=0.0, eps2=0.0)
    design = DesignParams(0.3, 0.4, 0.5, 0.0)
    cn = transition_kernel(Strategy.CN, design, p)
    assert cn[1, 1] == 1.0
    assert cn[0, 1] == pytest.approx(0.3, abs=0)
    ca = transition_kernel(Strategy.CA, design, p)
    assert ca[1, 0] == pytest.approx(0.4, abs=0)
    assert ca[0, 1] == 0.0


def test_kernel_deviant_rows_at_full_demotion(defaults):
    design = DesignParams(1.0, 1.0, 0.5, 0.0)
    ca = transition_kernel(Strategy.CA, design, defaults)
    assert np.allclose(ca, [[0.96, 0.04], [0.96, 0.04]], atol=1e-15)


def test_kernel_rejects_inhouse_intents(defaults):
    design = DesignParams(0.5, 0.5, 0.5, 0.0)
    for strat in (Strategy.SN, Strategy.SA):
        with pytest.raises(UnsupportedStrategy):
            transition_kernel(strat, design, defaults)


@given(
    intrinsic_params(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from([Strategy.CN, Strategy.CA]),
)
def test_kernel_rows_sum_to_one(p, alpha, beta, intended):
    k = transition_kernel(intended, DesignParams(alpha, beta, 0.5, 0.0), p)
    assert np.allclose(k.sum(axis=1), 1.0, atol=1e-15)
    assert np.all(k >= 0.0)


def test_kernel_is_update_rule_mixed_over_observations():
    # the kernel must equal the update law averaged over what the monitor
    # reports: observed-compliant with the intent's clean probability,
    # observed-deviant otherwise
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = default_params(
            eps1=rng.uniform(0.0, 0.45),
            eps2=rng.uniform(0.0, 0.45),
            delta=rng.uniform(0.0, 0.98),
        )
        design = DesignParams(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), 0.5, 0.0)
        for intended in (Strategy.CN, Strategy.CA):
            q = observed_compliant_prob(intended, p)
            expect = np.empty((2, 2))
            for theta in (0, 1):
                expect[theta] = q * rating_update_rule(theta, Strategy.CN, design) + (
                    1 - q
                ) * rating_update_rule(theta, Strategy.SA, design)
            got = transition_kernel(intended, design, p)
            assert np.allclose(got, expect, atol=1e-14)


def test_evolve_fixed_point(defaults):
    design = DesignParams(0.6, 0.3, 0.5, 0.0)
    eta = stationary_distribution(design, defaults)
    out = evolve([eta.eta0, eta.eta1], design, defaults)
    assert np.allclose(out, [eta.eta0, eta.eta1], atol=1e-14)


def test_evolve_single_step_from_all_bad(defaults):
    design = DesignParams(1.0, 0.5, 0.5, 0.0)
    out = evolve([1.0, 0.0], design, defaults)
    assert out[1] == pytest.approx(0.76, abs=1e-15)  # alpha * error_free


def test_evolve_single_step_no_errors():
    p = default_params(eps1=0.0, eps2=0.0)
    design = DesignParams(0.4, 0.8, 0.5, 0.0)
    out = evolve([0.5, 0.5], design, p)
    assert out[1] == pytest.approx(0.5 + 0.5 * 0.4, abs=1e-15)


def test_evolve_validates_distribution(defaults):
    design = DesignParams(0.5, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        evolve([0.7, 0.7], design, defaults)
    with pytest.raises(ValueError):
        evolve([-0.1, 1.1], design, defaults)


def test_stationary_equal_update_rates(defaults):
    eta = stationary_distribution(DesignParams(0.5, 0.5, 0.5, 0.0), defaults)
    assert eta.eta0 == pytest.approx(0.24, abs=1e-15)
    assert eta.eta1 == pytest.approx(0.76, abs=1e-15)
    assert eta.eta0 + eta.eta1 == pytest.approx(1.0, abs=1e-15)


def test_stationary_absorbing_cases(defaults):
    p = default_params(eps1=0.0, eps2=0.0)
    assert stationary_distribution(DesignParams(0.3, 0.9, 0.5, 0.0), p).eta1 == 1.0
    assert stationary_distribution(DesignParams(0.3, 0.0, 0.5, 0.0), defaults).eta0 == 0.0


def test_stationary_degenerate_chain(defaults):
    with pytest.raises(DegenerateChain):
        stationary_distribution(DesignParams(0.0, 0.0, 0.5, 0.0), defaults)


@settings(max_examples=10, deadline=None)
@given(intrinsic_params(), st.floats(0.02, 1.0), st.floats(0.02, 1.0))
def test_stationary_matches_power_iteration(p, alpha, beta):
    design = DesignParams(alpha, beta, 0.5, 0.0)
    eta = stationary_distribution(design, p)
    dist = np.array([0.5, 0.5])
    for _ in range(10_000):
        dist = evolve(dist, design, p)
    assert np.allclose(dist, [eta.eta0, eta.eta1], atol=1e-10)


def test_stationary_monotone_in_update_rates(defaults):
    # more demotion -> more low-rated mass; more promotion -> less
    grid = np.linspace(0.1, 1.0, 10)
    by_beta = [
        stationary_distribution(DesignParams(0.5, b, 0.5, 0.0), defaults).eta0 for b in grid
    ]
    assert np.all(np.diff(by_beta) > 0.0)
    by_alpha = [
        stationary_distribution(DesignParams(a, 0.5, 0.5, 0.0), defaults).eta0 for a in grid
    ]
    assert np.all(np.diff(by_alpha) < 0.0)
