"""Monitored one-period payoffs: the 4x4 matrix, flip mixing, and prices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import intrinsic_params
from contest_rating import (
    DesignParams,
    STRATEGIES,
    StationaryDistribution,
    Strategy,
    against_compliant,
    default_params,
    optimize,
    payoff_line,
    payoff_table,
    perfect_monitoring_matrix,
    realized_mix,
    with_params,
)


def rating_payoff(worker, intended, rating, design, eta, params):
    """One-period payoff at a given own rating, opponent rating drawn from eta.

    The opponent's rating only matters through matching weights; its
    compliant intent is what the payoff mixes over, so the result is the
    own-rating payoff averaged over the opponent-rating distribution.
    """
    total = 0.0
    for weight in (eta.eta0, eta.eta1):
        total += weight * against_compliant(worker, intended, design.price(rating), params)
    return total


def _matrix_by_hand(gamma, c, s, d):
    # independent transcription of the one-transaction payoff table
    return {
        ("CN", "CN"): gamma / 2 - c,
        ("CN", "CA"): -c - d,
        ("CN", "SN"): gamma - c,
        ("CN", "SA"): gamma - c - d,
        ("CA", "CN"): gamma - c - s,
        ("CA", "CA"): gamma / 2 - c - s - d,
        ("CA", "SN"): gamma - c - s,
        ("CA", "SA"): gamma - c - s - d,
        ("SN", "CN"): 0.0,
        ("SN", "CA"): -d,
        ("SN", "SN"): gamma / 2,
        ("SN", "SA"): -d,
        ("SA", "CN"): -s,
        ("SA", "CA"): -s - d,
        ("SA", "SN"): gamma - s,
        ("SA", "SA"): gamma / 2 - s - d,
    }


def test_matrix_signature_entries(defaults):
    m1 = perfect_monitoring_matrix(1, 1.0, defaults)
    assert m1[0, 2] == pytest.approx(0.9, abs=1e-15)  # crowdsources alone, wins
    m0 = perfect_monitoring_matrix(1, 0.0, defaults)
    assert m0[0, 0] == pytest.approx(-defaults.c1, abs=1e-15)
    mh = perfect_monitoring_matrix(1, 0.5, defaults)
    assert mh[1, 1] == pytest.approx(-0.55, abs=1e-15)


@pytest.mark.parametrize("worker", [1, 2])
@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_matrix_full_transcription(defaults, worker, gamma):
    table = _matrix_by_hand(
        gamma, defaults.cost(worker), defaults.attack_cost(worker), defaults.d
    )
    m = perfect_monitoring_matrix(worker, gamma, defaults)
    for i, own in enumerate(STRATEGIES):
        for j, opp in enumerate(STRATEGIES):
            assert m[i, j] == pytest.approx(table[(own.value, opp.value)], abs=1e-15)


def test_mix_defaults(defaults):
    mix = realized_mix(Strategy.CN, defaults)
    assert mix == pytest.approx([0.76, 0.04, 0.19, 0.01], abs=1e-15)


def test_mix_no_errors():
    p = default_params(eps1=0.0, eps2=0.0)
    assert realized_mix(Strategy.CN, p) == pytest.approx([1, 0, 0, 0], abs=0)
    assert realized_mix(Strategy.SA, p) == pytest.approx([0, 0, 0, 1], abs=0)


@given(intrinsic_params(), st.sampled_from(STRATEGIES))
def test_mix_is_a_distribution(p, intended):
    mix = realized_mix(intended, p)
    assert np.all(mix >= 0.0)
    assert abs(mix.sum() - 1.0) <= 1e-15


@given(intrinsic_params())
def test_mix_flip_structure(p):
    # flipping the intended stage-1 action swaps the (CN,CA) and (SN,SA)
    # probability pairs; flipping stage 2 swaps within the pairs
    cn = realized_mix(Strategy.CN, p)
    sn = realized_mix(Strategy.SN, p)
    assert sn == pytest.approx([cn[2], cn[3], cn[0], cn[1]], abs=0)
    ca = realized_mix(Strategy.CA, p)
    assert ca == pytest.approx([cn[1], cn[0], cn[3], cn[2]], abs=0)


def test_mix_is_read_only_and_shared_by_equal_environments(defaults):
    mix = realized_mix(Strategy.CN, defaults)
    assert realized_mix(Strategy.CN, with_params(defaults)) is mix
    with pytest.raises(ValueError):
        mix[0] = 1.0


def test_mix_reads_a_negative_zero_error_rate_as_zero():
    # equal environments share one cached mix, so it cannot carry the sign of a zero rate
    p = default_params(c1=0.0123, eps1=-0.0, eps2=-0.0)
    for intended in STRATEGIES:
        assert not np.signbit(realized_mix(intended, p)).any()


def test_second_optimize_builds_no_mix(defaults):
    # a fresh but equal environment finds every mix of the first call cached
    optimize(defaults)
    before = realized_mix.cache_info()
    optimize(with_params(defaults))
    after = realized_mix.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_mix_cache_is_bounded():
    maxsize = realized_mix.cache_info().maxsize
    assert maxsize is not None
    for k in range(maxsize // len(STRATEGIES) + 1):
        p = default_params(c1=0.05 + k * 1e-4)
        for intended in STRATEGIES:
            realized_mix(intended, p)
    assert realized_mix.cache_info().currsize == maxsize


def test_expected_payoff_no_error_picks_matrix_entry():
    p = default_params(eps1=0.0, eps2=0.0)
    assert against_compliant(1, Strategy.CN, 0.5, p) == pytest.approx(0.15, abs=1e-15)
    assert against_compliant(1, Strategy.CA, 0.5, p) == pytest.approx(0.2, abs=1e-15)
    assert against_compliant(1, Strategy.SN, 0.5, p) == pytest.approx(0.0, abs=1e-15)
    assert against_compliant(1, Strategy.SA, 0.5, p) == pytest.approx(-0.2, abs=1e-15)


@given(st.sampled_from(STRATEGIES), st.floats(0.0, 1.0))
def test_expected_payoff_no_error_equals_matrix(intended, gamma):
    # without errors the payoff against a compliant opponent is the matrix's CN column
    p = default_params(eps1=0.0, eps2=0.0)
    m = perfect_monitoring_matrix(1, gamma, p)
    got = against_compliant(1, intended, gamma, p)
    assert got == pytest.approx(m[intended.index, Strategy.CN.index], abs=1e-15)


def test_expected_payoff_sixteen_term_expansion(defaults):
    # independent summation oracle over all realized-pair combinations, opponent intending CN
    theirs = realized_mix(Strategy.CN, defaults)
    for intended, gamma in zip(STRATEGIES, (0.5, 0.3, 0.8, 0.1)):
        mine = realized_mix(intended, defaults)
        m = perfect_monitoring_matrix(1, gamma, defaults)
        total = 0.0
        for i in range(4):
            for j in range(4):
                total += mine[i] * theirs[j] * m[i, j]
        got = against_compliant(1, intended, gamma, defaults)
        assert got == pytest.approx(total, abs=1e-14)


@given(intrinsic_params(), st.sampled_from(STRATEGIES), st.floats(0.0, 1.0))
def test_expected_payoff_linear_in_gamma(p, intended, gamma):
    at0 = against_compliant(1, intended, 0.0, p)
    at1 = against_compliant(1, intended, 1.0, p)
    mid = against_compliant(1, intended, gamma, p)
    assert mid == pytest.approx(at0 + (at1 - at0) * gamma, abs=1e-12)


def test_payoff_line_reproduces_compliant_payoffs(defaults):
    for intended in STRATEGIES:
        slope, intercept = payoff_line(1, intended, defaults)
        for gamma in (0.0, 0.37, 1.0):
            direct = against_compliant(1, intended, gamma, defaults)
            assert slope * gamma + intercept == pytest.approx(direct, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(intrinsic_params())
def test_payoff_table_is_built_from_two_evaluations(p):
    table = payoff_table(p)
    assert payoff_table(p) is table
    for w in (1, 2):
        for i, intended in enumerate(STRATEGIES):
            at0 = against_compliant(w, intended, 0.0, p)
            at1 = against_compliant(w, intended, 1.0, p)
            assert table.intercept[w - 1, i] == at0
            assert table.slope[w - 1, i] == at1 - at0
            assert payoff_line(w, intended, p) == (at1 - at0, at0)
            assert type(payoff_line(w, intended, p)[0]) is float
    cn = Strategy.CN.index
    drop = [realized_mix(Strategy.CN, p)[cn] - realized_mix(intended, p)[cn] for intended in STRATEGIES]
    assert repr(table.drop) == repr(tuple(float(x) for x in drop))
    with pytest.raises(ValueError):
        table.slope[0, 0] = 1.0


def test_payoff_line_rejects_unknown_worker(defaults):
    for worker in (0, 3):
        with pytest.raises(ValueError, match="worker must be 1 or 2"):
            payoff_line(worker, Strategy.CN, defaults)


def test_payoff_line_compliant_slope_is_half(defaults):
    slope, intercept = payoff_line(1, Strategy.CN, defaults)
    assert slope == pytest.approx(0.5, abs=1e-15)
    assert intercept == pytest.approx(-0.115, abs=1e-15)
    slope2, intercept2 = payoff_line(2, Strategy.CN, defaults)
    assert slope2 == pytest.approx(0.5, abs=1e-15)
    assert intercept2 == pytest.approx(-0.19, abs=1e-15)


def test_deviation_orders_below_compliance_at_zero_prize(defaults):
    v_ca = against_compliant(1, Strategy.CA, 0.0, defaults)
    v_cn = against_compliant(1, Strategy.CN, 0.0, defaults)
    assert v_ca < v_cn < 0.0
    assert v_cn == pytest.approx(-0.115, abs=1e-15)
    assert v_ca == pytest.approx(-0.295, abs=1e-15)


def test_rating_payoff_examples():
    p = default_params(eps1=0.0, eps2=0.0)
    design = DesignParams(0.5, 0.5, 0.5, 0.0)
    eta = StationaryDistribution(0.3, 0.7)
    assert rating_payoff(1, Strategy.CN, 1, design, eta, p) == pytest.approx(0.15, abs=1e-15)
    assert rating_payoff(1, Strategy.CN, 0, design, eta, p) == pytest.approx(-0.1, abs=1e-15)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from(STRATEGIES))
def test_rating_payoff_ignores_opponent_rating_mix(eta1_a, eta1_b, intended):
    # the summand is opponent-rating independent, so any weighting that
    # sums to one gives the same answer
    p = default_params()
    design = DesignParams(0.7, 0.4, 0.8, 0.1)
    a = rating_payoff(1, intended, 1, design, StationaryDistribution(1 - eta1_a, eta1_a), p)
    b = rating_payoff(1, intended, 1, design, StationaryDistribution(1 - eta1_b, eta1_b), p)
    assert a == pytest.approx(b, abs=1e-15)
    direct = against_compliant(1, intended, design.gamma1, p)
    assert a == pytest.approx(direct, abs=1e-15)
