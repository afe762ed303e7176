"""Closed-form first-stage payoffs and the uniform-draw Monte-Carlo oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import productivity_mc
from stage_game import CASES, even_match_payoff, first_stage_matrix, first_stage_payoffs, solo_effort_payoff

from contest_rating import DomainError, default_params


def test_even_match_defaults(defaults):
    assert even_match_payoff(1, defaults) == pytest.approx(0.425, abs=1e-15)
    assert even_match_payoff(2, defaults) == pytest.approx(0.4625, abs=1e-15)


def test_even_match_costless_attack():
    # degenerate test-only input: validation rejects s=0 but the formula
    # still anchors the symmetric half-prize limit
    p = default_params(s1=1e-300)
    assert even_match_payoff(1, p) == pytest.approx(0.5, abs=1e-12)


@given(
    s_low=st.floats(0.01, 0.44),
    ds=st.floats(0.01, 0.5),
    d=st.floats(0.05, 0.95),
)
def test_even_match_decreasing_in_attack_cost(s_low, ds, d):
    lo = default_params(s1=s_low, d=d)
    hi = default_params(s1=min(s_low + ds, 0.999), d=d)
    assert even_match_payoff(1, hi) < even_match_payoff(1, lo)


def test_solo_effort_defaults(defaults):
    assert solo_effort_payoff(1, defaults) == pytest.approx(0.296, abs=1e-15)


def test_solo_effort_costless_limit():
    p = default_params(c1=1e-12, s1=1e-12, d=1e-9)
    assert solo_effort_payoff(1, p) == pytest.approx(0.5, abs=1e-8)


def test_solo_effort_support_violation():
    with pytest.raises(DomainError):
        solo_effort_payoff(1, default_params(c1=0.6))  # c1 + d > 1


def test_first_stage_cells(defaults):
    assert first_stage_payoffs("C", "C", defaults) == pytest.approx((0.375, 0.3625), abs=1e-15)
    assert first_stage_payoffs("S", "S", defaults) == pytest.approx((0.425, 0.4625), abs=1e-15)
    v1, v2 = first_stage_payoffs("C", "S", defaults)
    assert v1 == pytest.approx(0.296, abs=1e-15)
    assert v2 == 0.0
    v1, v2 = first_stage_payoffs("S", "C", defaults)
    assert v1 == 0.0


@given(
    c1=st.floats(0.01, 0.45),
    c2=st.floats(0.01, 0.45),
    s1=st.floats(0.01, 0.45),
    s2=st.floats(0.01, 0.45),
    d=st.floats(0.05, 0.55),
)
def test_matrix_cells_compose_from_closed_forms(c1, c2, s1, s2, d):
    p = default_params(c1=c1, c2=c2, s1=s1, s2=s2, d=d)
    cells = first_stage_matrix(p)
    assert set(cells) == set(CASES)
    assert cells[("C", "C")][0] == pytest.approx(even_match_payoff(1, p) - c1 / 2, abs=1e-15)
    assert cells[("C", "C")][1] == pytest.approx(even_match_payoff(2, p) - c2 / 2, abs=1e-15)
    assert cells[("S", "S")] == (even_match_payoff(1, p), even_match_payoff(2, p))
    assert cells[("C", "S")] == (solo_effort_payoff(1, p), 0.0)
    assert cells[("S", "C")] == (0.0, solo_effort_payoff(2, p))


def test_mc_requires_enough_samples(defaults):
    with pytest.raises(ValueError):
        productivity_mc("C", "C", defaults, samples=500)
    with pytest.raises(ValueError):
        productivity_mc("C", "X", defaults)


def test_mc_deterministic_per_seed(defaults):
    a = productivity_mc("C", "C", defaults, samples=20_000, seed=7)
    b = productivity_mc("C", "C", defaults, samples=20_000, seed=7)
    assert a == b
    c = productivity_mc("C", "C", defaults, samples=20_000, seed=8)
    assert c.v1 != a.v1


@pytest.mark.parametrize("case", [("C", "C"), ("S", "S")])
def test_mc_matches_symmetric_closed_forms(defaults, case):
    est = productivity_mc(*case, defaults, samples=1_000_000, seed=3)
    v1, v2 = first_stage_payoffs(*case, defaults)
    assert abs(est.v1 - v1) <= 3 * est.stderr1
    assert abs(est.v2 - v2) <= 3 * est.stderr2


def test_mc_no_attack_band_at_zero_damage():
    # degenerate test-only input d=0: no narrow-win band, pure coin flip
    p = default_params(d=1e-300)
    est = productivity_mc("C", "C", p, samples=400_000, seed=5)
    assert abs(est.v1 - (0.5 - p.c1 / 2)) <= 3 * est.stderr1


def test_mc_solo_case_keeps_idle_side_at_zero(defaults):
    est = productivity_mc("C", "S", defaults, samples=100_000, seed=1)
    assert est.v2 == 0.0
    assert est.stderr2 == 0.0


def test_mc_solo_case_known_offset():
    # Under the uniform-draw model the crowdsourcing side of a mixed
    # profile earns c^2/2 * (1 - c - s) more than the closed form; the
    # closed form stays normative, the offset is pinned so it cannot
    # drift silently. A larger c makes the offset unmistakable.
    p = default_params(c1=0.3, s1=0.2)
    est = productivity_mc("C", "S", p, samples=2_000_000, seed=11)
    offset = 0.3**2 / 2 * (1 - 0.3 - 0.2)
    closed = solo_effort_payoff(1, p)
    assert abs(est.v1 - (closed + offset)) <= 4 * est.stderr1
    assert est.v1 - closed > 10 * est.stderr1  # the offset is real signal


def test_mc_mirrored_solo_case(defaults):
    est = productivity_mc("S", "C", defaults, samples=1_000_000, seed=2)
    offset = defaults.c2**2 / 2 * (1 - defaults.c2 - defaults.s2)
    closed = solo_effort_payoff(2, defaults)
    assert est.v1 == 0.0
    assert abs(est.v2 - (closed + offset)) <= 4 * est.stderr2

