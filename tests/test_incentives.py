"""Lifetime values, one-shot deviations, sustainability, and the design band."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import design_params, edge_designs, edge_environments, in_band, intrinsic_params, rating_gap
from four_intent import DEVIATIONS, deviation_gain
from scalar_reference import (
    compliance_margins,
    deviation_value_kernel,
    is_sustainable_arrays,
    lifetime_values_iterative,
    lifetime_values_solved,
)
from contest_rating import (
    DegenerateDenominator,
    DesignParams,
    Strategy,
    against_compliant,
    binding_lines,
    constraint_coefficients,
    default_params,
    deviation_value,
    is_sustainable,
    lifetime_values,
    payoff_line,
    payoff_table,
    transition_kernel,
    validate,
)
from contest_rating.cli import _check_lines
from contest_rating.incentives import _CA, _deviation_floor, _gain, _gap_threshold, compliant_values


def _ca_gain(params, worker, gamma):
    # the one-period CA gain over CN at prize gamma that the certificate's margins use
    return float(_gain(payoff_table(params).lines(worker), _CA, gamma))


def test_lifetime_solve_matches_iteration(defaults):
    design = DesignParams(0.5, 0.5, 0.5, 0.0)
    solved = lifetime_values(design, defaults, 1)
    stepped = lifetime_values_iterative(design, defaults, 1, steps=1000)
    assert solved.v0 == pytest.approx(stepped.v0, abs=1e-10)
    assert solved.v1 == pytest.approx(stepped.v1, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(intrinsic_params(delta_max=0.97), design_params(), st.sampled_from([1, 2]))
def test_lifetime_solve_matches_iteration_random(p, design, worker):
    solved = lifetime_values(design, p, worker)
    stepped = lifetime_values_iterative(design, p, worker, steps=1000)
    assert solved.v0 == pytest.approx(stepped.v0, abs=1e-10)
    assert solved.v1 == pytest.approx(stepped.v1, abs=1e-10)


def test_lifetime_no_future():
    p = default_params(delta=0.0)
    design = DesignParams(0.5, 0.5, 0.5, 0.1)
    values = lifetime_values(design, p, 1)
    assert values.v0 == pytest.approx(against_compliant(1, Strategy.CN, 0.1, p), abs=1e-15)
    assert values.v1 == pytest.approx(against_compliant(1, Strategy.CN, 0.5, p), abs=1e-15)


def test_lifetime_fixed_point_residual(defaults):
    # the solved pair satisfies its own one-step backup exactly
    design = DesignParams(0.8, 0.6, 0.7, 0.05)
    values = lifetime_values(design, defaults, 2)
    k = transition_kernel(Strategy.CN, design, defaults)
    for theta in (0, 1):
        reward = against_compliant(2, Strategy.CN, design.price(theta), defaults)
        backup = reward + defaults.delta * (k[theta, 0] * values.v0 + k[theta, 1] * values.v1)
        assert values[theta] == pytest.approx(backup, abs=1e-12)


def test_gap_flat_prices(defaults):
    design = DesignParams(0.5, 0.5, 0.5, 0.5)
    assert rating_gap(design, defaults, 1) == pytest.approx(0.0, abs=1e-15)


def test_gap_no_future():
    p = default_params(delta=0.0)
    design = DesignParams(0.5, 0.5, 0.5, 0.0)
    slope, icept = payoff_line(1, Strategy.CN, p)
    assert rating_gap(design, p, 1) == pytest.approx(slope * 0.5, abs=1e-15)
    del icept


@settings(max_examples=100, deadline=None)
@given(intrinsic_params(), design_params(gamma0_max=0.4), st.sampled_from([1, 2]))
def test_gap_identity_random(p, design, worker):
    values = lifetime_values(design, p, worker)
    gap = rating_gap(design, p, worker)
    assert gap == pytest.approx(values.v1 - values.v0, abs=1e-12)


def test_gap_identity_bulk(defaults):
    rng = np.random.default_rng(20260814)
    for _ in range(1000):
        design = DesignParams(
            alpha=rng.uniform(0.01, 1.0),
            beta=rng.uniform(0.01, 1.0),
            gamma1=rng.uniform(0.3, 1.0),
            gamma0=rng.uniform(0.0, 0.29),
        )
        values = lifetime_values(design, defaults, 1)
        gap = rating_gap(design, defaults, 1)
        assert abs(gap - (values.v1 - values.v0)) <= 1e-12


def test_deviation_value_no_future():
    p = default_params(delta=0.0)
    design = DesignParams(0.5, 0.5, 0.5, 0.0)
    assert deviation_value(1, design, p, 1) == pytest.approx(
        against_compliant(1, Strategy.CA, 0.5, p), abs=1e-15
    )
    assert deviation_value(0, design, p, 1) == pytest.approx(
        against_compliant(1, Strategy.CA, 0.0, p), abs=1e-15
    )


def test_deviation_value_error_free_weights():
    # with no monitoring errors a high-rated attacker is demoted with
    # probability exactly beta
    p = default_params(eps1=0.0, eps2=0.0)
    design = DesignParams(0.5, 0.4, 0.5, 0.0)
    values = lifetime_values(design, p, 1)
    expected = against_compliant(1, Strategy.CA, 0.5, p) + p.delta * (
        0.4 * values.v0 + 0.6 * values.v1
    )
    assert deviation_value(1, design, p, 1) == pytest.approx(expected, abs=1e-12)


# (environment overrides, design): the edges of the stacked lifetime solve
SOLVE_EDGES = {
    "no future": ({"delta": 0.0}, DesignParams(1.0, 0.95, 0.52, 0.0)),
    "frozen ratings": ({}, DesignParams(0.0, 0.0, 0.5, 0.0)),
    "perfect monitoring": ({"eps1": 0.0, "eps2": 0.0}, DesignParams(0.6, 0.4, 0.5, 0.0)),
    "base price from the payoffs": ({}, DesignParams(0.5, 0.5, 0.6, 0.3)),
    "negative zero base price": ({}, DesignParams(1.0, 0.9, 0.5, -0.0)),
    "one price": ({}, DesignParams(0.5, 0.5, 0.2, 0.2)),
    "pivot swap": ({"delta": 0.999}, DesignParams(0.01, 0.99, 0.5, 0.0)),
}


def _assert_solves_match(design, p):
    # both workers' values from the one stacked solve, and each worker's
    # value from deviating once at either rating, equal the per-worker
    # kernel formulas bit for bit
    both = compliant_values(design, p)
    for worker in (1, 2):
        expected = repr(lifetime_values_solved(design, p, worker))
        assert repr(both[worker - 1]) == repr(lifetime_values(design, p, worker)) == expected, worker
        for rating in (0, 1):
            got = deviation_value(rating, design, p, worker)
            assert repr(got) == repr(deviation_value_kernel(rating, design, p, worker)), (worker, rating)


@pytest.mark.parametrize("edge", SOLVE_EDGES)
def test_stacked_solve_matches_the_per_worker_solve_at_the_edges(edge):
    overrides, design = SOLVE_EDGES[edge]
    p = default_params(**overrides)
    assert not validate(p)
    _assert_solves_match(design, p)


def test_pivot_swap_edge_swaps_rows():
    # LU pivots on the larger entry of the first column: the edge exercises the row swap
    overrides, design = SOLVE_EDGES["pivot swap"]
    p = default_params(**overrides)
    a11 = 1.0 - p.delta * (1.0 - design.alpha * p.error_free)
    a21 = p.delta * design.beta * (1.0 - p.error_free)
    assert a21 > abs(a11)


@settings(max_examples=150, deadline=None)
@given(edge_environments(), st.one_of(design_params(gamma0_max=0.3), edge_designs()))
def test_stacked_solve_matches_the_per_worker_solve(p, design):
    _assert_solves_match(design, p)


@settings(max_examples=60, deadline=None)
@given(intrinsic_params(), design_params(gamma0_max=0.3), st.sampled_from([1, 2]))
def test_margins_are_one_shot_deviation_differences(p, design, worker):
    # the sustainability margins must equal (compliant value - one-shot
    # deviation value) at the matching rating, which is the deviation
    # principle stated directly
    m0, m1, v0 = compliance_margins(
        design.alpha, design.beta, design.gamma1, design.gamma0, p, worker
    )
    values = lifetime_values(design, p, worker)
    assert float(m0) == pytest.approx(values.v0 - deviation_value(0, design, p, worker), abs=1e-11)
    assert float(m1) == pytest.approx(values.v1 - deviation_value(1, design, p, worker), abs=1e-11)
    assert float(v0) == pytest.approx(values.v0, abs=1e-11)


def test_verdict_matches_four_intent_certificate():
    # the verdict counts SN and SA through deviation_floor; on random
    # designs it must agree with pricing every deviation directly, also
    # where CA alone is unprofitable but staying in-house pays
    rng = np.random.default_rng(7)
    compared = in_house_only = 0
    while compared < 300:
        p = default_params(
            c1=rng.uniform(0.01, 0.45), c2=rng.uniform(0.01, 0.45),
            s1=rng.uniform(0.01, 0.45), s2=rng.uniform(0.01, 0.45),
            d=rng.uniform(0.05, 0.55), delta=rng.uniform(0.0, 0.98),
            eps1=rng.uniform(0.0, 0.45), eps2=rng.uniform(0.0, 0.45),
        )
        gamma0 = rng.uniform(0.0, 0.5)
        design = DesignParams(
            rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0), rng.uniform(gamma0 + 0.01, 1.0), gamma0
        )
        if validate(p):
            continue
        gains = {
            (w, r, s): deviation_gain(w, r, s, design, p)
            for w in (1, 2) for r in (0, 1) for s in DEVIATIONS
        }
        worst = max(gains.values())
        if abs(worst - 1e-9) < 1e-7:
            continue  # too close to the tolerance to call
        compared += 1
        assert is_sustainable(design, p).sustainable == (worst <= 1e-9), gains
        ca_worst = max(g for (_, _, s), g in gains.items() if s is Strategy.CA)
        in_house_only += ca_worst <= 1e-9 < worst
    assert in_house_only >= 50


@settings(max_examples=400, deadline=None)
@given(edge_environments(), edge_designs())
def test_certificate_equals_the_array_reference(p, design):
    # the float certificate reads each worker's lines once and computes the
    # gap and both CA gains once; the numpy one computes the gains per
    # margin and the floors over one prize array. Both combine the gap that
    # the margins use. Field for field, the reports agree.
    assert repr(is_sustainable(design, p)) == repr(is_sustainable_arrays(design, p))


@pytest.mark.parametrize("eps1, eps2", [(0.5, 0.5), (1.0, 0.0), (0.25, 0.75), (0.2, 0.5)])
def test_certificate_equals_the_array_reference_where_a_detection_drop_vanishes(eps1, eps2):
    # outside the validated domain a drop ratio divides by zero: the floats
    # take numpy's inf or nan, and a nan SN or SA bound fails the verdict
    # as numpy's maximum does
    p = default_params(eps1=eps1, eps2=eps2)
    for design in (DesignParams(1.0, 1.0, 0.5), DesignParams(0.5, 0.2, 0.9, 0.3), DesignParams(0.0, 0.0, 0.0)):
        assert repr(is_sustainable(design, p)) == repr(is_sustainable_arrays(design, p))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=60, deadline=None)
@given(edge_environments(), edge_designs())
def test_margins_on_a_prize_array_equal_their_float_calls(p, design):
    # the CA gain and the deviation floor run on floats in the certificate
    # and on prize arrays in the grid oracle: on an array of prizes each
    # element has the bits of the call on that prize as a Python float
    prizes = np.append(np.linspace(0.0, 1.0, 11), [design.gamma0, design.gamma1])
    table = payoff_table(p)
    for worker in (1, 2):
        lines = table.lines(worker)
        each = [(_gain(lines, _CA, g), _deviation_floor(lines, table.drop_ratio, g, _gain(lines, _CA, g)))
                for g in prizes.tolist()]
        assert all(type(x) is float for row in each for x in row)
        gain = _gain(lines, _CA, prizes)
        whole = (gain, _deviation_floor(lines, table.drop_ratio, prizes, gain))
        for column, array in zip(zip(*each), whole):
            assert np.array_equal(_bits(column), _bits(array)), (p, design, worker)


def test_margins_broadcast(defaults):
    alpha = np.linspace(0.1, 1.0, 7)
    beta = 0.5
    m0, m1, v0 = compliance_margins(alpha, beta, 0.6, 0.0, defaults, 2)
    assert m0.shape == alpha.shape
    for i, a in enumerate(alpha):
        s0, s1, sv = compliance_margins(a, beta, 0.6, 0.0, defaults, 2)
        assert m0[i] == pytest.approx(float(s0), abs=0)
        assert m1[i] == pytest.approx(float(s1), abs=0)
        assert v0[i] == pytest.approx(float(sv), abs=0)


def test_sustainable_no_future_fails():
    # without a future the protocol has no lever: a deviation is profitable
    # exactly when its one-period gain is positive
    p = default_params(delta=0.0)
    report = is_sustainable(DesignParams(1.0, 1.0, 0.9, 0.0), p)
    assert not report.sustainable
    for w in report.workers:
        gain0, gain1 = (_ca_gain(p, w.worker, gamma) for gamma in (0.0, 0.9))
        assert w.margin0 == pytest.approx(-gain0, abs=1e-15)
        assert w.margin1 == pytest.approx(-gain1, abs=1e-15)
        assert (w.margin1 < 0.0) == (gain1 > 0.0)
        assert w.margin0 > 0.0  # attacking at a zero prize only burns cost
        assert w.margin1 < 0.0  # at a 0.9 prize it pays for both workers


def test_sustainable_designed_point(defaults, optimum):
    report = is_sustainable(optimum.design(), defaults)
    assert report.sustainable
    for w in report.workers:
        assert w.margin0 >= -1e-9
        assert w.margin1 >= -1e-9
        values = lifetime_values(optimum.design(), defaults, w.worker)
        assert rating_gap(optimum.design(), defaults, w.worker) == pytest.approx(values.v1 - values.v0, abs=1e-12)
        assert w.participation == values.v0


def test_equal_update_rates_collapse(defaults):
    # with alpha = beta the two gap-unit thresholds share one divisor, so
    # the combined margin in gap units rescales to the smaller per-rating
    # margin
    design = DesignParams(0.6, 0.6, 0.5, 0.0)
    report = is_sustainable(design, defaults)
    scale = defaults.delta * 0.6 * defaults.detection_margin
    for w in report.workers:
        assert w.margin_combined * scale == pytest.approx(min(w.margin0, w.margin1), abs=1e-12)


def test_report_rows_shape(defaults):
    # the rows that check prints from a report
    report = is_sustainable(DesignParams(0.5, 0.5, 0.5, 0.0), defaults)
    header, *lines, verdict = _check_lines(report)
    rows = [line.split(",") for line in lines]
    assert header == "worker,constraint,margin"
    assert len(rows) == 8
    assert {r[1] for r in rows} == {
        "deviation-rating0",
        "deviation-rating1",
        "combined-gap-units",
        "participation",
    }
    assert {r[0] for r in rows} == {"1", "2"}
    assert verdict == f"sustainable={str(report.sustainable).lower()}"


def test_one_period_ranking_at_the_optimum(defaults, optimum):
    # whether CA is the most profitable one-period deviation at each prize
    design = optimum.design()
    ca_dominant = {}
    for worker in (1, 2):
        for rating in (0, 1):
            prize = design.price(rating)
            per = {s.value: against_compliant(worker, s, prize, defaults) for s in Strategy}
            ca_dominant[worker, rating] = per["CA"] >= max(per["SN"], per["SA"]) - 1e-9
    # at the zero base prize, staying idle loses less than attacking, so
    # the one-shot attack is not the most profitable deviation there;
    # at the top prize it is, and the verdict covers every deviation anyway
    assert ca_dominant[1, 0] is False
    assert ca_dominant[1, 1] is True
    assert is_sustainable(design, defaults).sustainable


def test_zero_punishment_is_unsustainable(defaults):
    report = is_sustainable(DesignParams(1.0, 0.0, 0.52, 0.0), defaults)
    assert not report.sustainable
    # worker 2's attack gain is positive at this prize, so with no demotion
    # channel its gap-unit threshold is unreachable and its combined margin
    # -inf; the cleared-denominator margin stays finite and negative
    w2 = report.workers[1]
    gain1 = _ca_gain(defaults, 2, 0.52)
    assert gain1 > 0.0
    assert _gap_threshold(gain1, 0.0) == math.inf
    assert w2.margin_combined == -math.inf
    assert math.isfinite(w2.margin1)
    assert w2.margin1 < 0.0
    # worker 1 at 0.52 would not even profit one period from attacking, so
    # its rating-1 threshold is -inf and drops out of the combined margin
    w1 = report.workers[0]
    gain1 = _ca_gain(defaults, 1, 0.52)
    assert gain1 < 0.0
    assert _gap_threshold(gain1, 0.0) == -math.inf
    assert math.isfinite(w1.margin_combined)
    assert w1.margin1 > 0.0


def test_coefficients_defaults_intercepts(defaults):
    c = constraint_coefficients(0.52, defaults, 1)
    assert c.b1 == pytest.approx(-0.2193, abs=5e-5)  # -(1-delta)/(delta*errAny)
    assert c.b1 == pytest.approx(-(1 - 0.95) / (0.95 * 0.24), abs=1e-12)
    assert c.b3 == pytest.approx(c.b1, abs=1e-15)
    assert c.worker == 1
    assert c.gamma1 == 0.52


@settings(max_examples=80, deadline=None)
@given(
    intrinsic_params(delta_min=0.05, eps_min=0.01),
    st.floats(0.05, 1.0),
    st.sampled_from([1, 2]),
)
def test_coefficients_sign_structure(p, gamma1, worker):
    c = constraint_coefficients(gamma1, p, worker)
    # the low-prize deviation never pays one period (attack costs s and d
    # for sure, prize gain is impossible at gamma=0), so its constraint
    # line has negative intercept (and slope) and can never bind
    assert c.b1 < 0.0
    assert c.b3 < 0.0
    # the participation ceiling is a positive-slope line wherever the
    # compliant one-period payoff at the top prize is positive
    if against_compliant(worker, Strategy.CN, gamma1, p) > 1e-12:
        assert c.k3 > 0.0


def test_coefficients_finite_on_default_grid(defaults):
    for gamma1 in np.linspace(0.05, 1.0, 20):
        for worker in (1, 2):
            c = constraint_coefficients(float(gamma1), defaults, worker)
            for value in (c.b1, c.k2, c.b2, c.k3, c.b3):
                assert math.isfinite(value)


def test_coefficients_degenerate_denominator():
    p = default_params(eps1=0.0, eps2=0.0)
    with pytest.raises(DegenerateDenominator):
        constraint_coefficients(0.5, p, 1)


def test_band_symmetric_workers():
    # identical workers have identical constraint lines, and the band's
    # binding lines are those lines
    p = default_params(c1=0.15, c2=0.15, s1=0.12, s2=0.12)
    c1, c2 = (constraint_coefficients(0.6, p, w) for w in (1, 2))
    assert c1.k2 == pytest.approx(c2.k2, abs=1e-15)
    assert c1.k3 == pytest.approx(c2.k3, abs=1e-15)
    assert c1.b2 == pytest.approx(c2.b2, abs=1e-15)
    k2, b2, k3, b3, _, live = binding_lines(np.array([0.6]), p)
    assert live[0]
    assert (k2[0], b2[0], k3[0], b3) == pytest.approx((c1.k2, c1.b2, c1.k3, c1.b3), abs=1e-15)


def test_band_binding_workers_at_defaults(defaults):
    # the costlier worker needs the stronger demotion threat, so it owns
    # the lower boundary; it also has the tighter participation ceiling
    k2, b2, k3, b3, upper, live = binding_lines(np.array([0.52]), defaults)
    c1, c2 = (constraint_coefficients(0.52, defaults, w) for w in (1, 2))
    assert live[0] and upper[0] == 2
    assert c2.k2 > c1.k2
    assert (k2[0], b2[0], k3[0], b3) == (c2.k2, c2.b2, c2.k3, c2.b3)
    assert in_band(0.52, 1.0, k3[0] + b3, defaults)  # the band is not empty


def test_band_boundary_hits_designed_beta(defaults, optimum):
    # at alpha = 1 the binding participation line passes through the designed beta
    _, _, k3, b3, _, _ = binding_lines(np.array([optimum.gamma1]), defaults)
    assert optimum.alpha == 1.0
    assert k3[0] + b3 == optimum.beta
    assert in_band(optimum.gamma1, optimum.alpha, optimum.beta, defaults)


def test_band_low_prize_is_empty(defaults):
    # below the participation threshold of the costlier worker no protocol
    # can pay: the ceiling line is negative over the whole alpha range
    _, _, k3, b3, _, _ = binding_lines(np.array([0.2]), defaults)
    assert b3 < 0.0 and k3[0] + b3 < 0.0
    assert not in_band(0.2, 0.5, 0.5, defaults)


def test_band_membership_equals_direct_margins(defaults):
    # cross-module equivalence on a coarse grid; the acceptance suite
    # repeats this at 50x50 over five prize levels
    grid = np.arange(1, 21) / 20.0
    for gamma1 in (0.45, 0.6, 0.9):
        for alpha in grid:
            for beta in grid:
                ok = True
                for worker in (1, 2):
                    m0, m1, v0 = compliance_margins(alpha, beta, gamma1, 0.0, defaults, worker)
                    ok &= bool(m0 >= -1e-9 and m1 >= -1e-9 and v0 >= -1e-9)
                assert in_band(gamma1, alpha, beta, defaults) == ok, (gamma1, alpha, beta)
