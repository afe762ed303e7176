"""Shared fixtures and hypothesis strategies for the test suite.

The random-parameter strategies stay inside the validated ranges (and a
little away from the boundaries so closed-form denominators keep healthy
magnitudes); tests that exercise degenerate edges construct those points
explicitly instead.
"""

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from contest_rating import DesignParams, IntrinsicParams, binding_lines, default_params, optimize, payoff_table, validate
from contest_rating.incentives import TOLERANCE, _compliant_gap, _turnover


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def intrinsic_params(draw, delta_min=0.0, delta_max=0.98, eps_min=0.0, eps_max=0.45):
    """A valid parameter set; costs bounded so c_i + d <= 1 holds too."""
    return IntrinsicParams(
        c1=draw(_floats(0.01, 0.45)),
        c2=draw(_floats(0.01, 0.45)),
        s1=draw(_floats(0.01, 0.45)),
        s2=draw(_floats(0.01, 0.45)),
        d=draw(_floats(0.05, 0.55)),
        delta=draw(_floats(delta_min, delta_max)),
        eps1=draw(_floats(eps_min, eps_max)),
        eps2=draw(_floats(eps_min, eps_max)),
    )


@st.composite
def edge_environments(draw):
    """A validated environment with its fields pushed to the domain's edges

    about half the time: eps1 = eps2 = 0 together, delta = 0 or near 1,
    c_i + d near 1, attack costs near 0. Draws that validate() rejects are
    discarded.
    """
    def field(lo, hi, *edges):
        return draw(st.one_of(_floats(lo, hi), st.sampled_from(edges)))

    perfect = draw(st.booleans())
    p = IntrinsicParams(
        c1=field(0.01, 0.95, 1e-9, 0.5),
        c2=field(0.01, 0.95, 1e-9, 0.5),
        s1=field(0.01, 0.95, 1e-13),
        s2=field(0.01, 0.95, 1e-13),
        d=field(0.01, 0.95, 0.4999999, 0.999),
        delta=field(0.0, 0.99, 0.0, 0.999999),
        eps1=0.0 if perfect else field(0.0, 0.49, 0.0, 0.4999),
        eps2=0.0 if perfect else field(0.0, 0.49, 0.0, 0.4999),
    )
    assume(not validate(p))
    return p


@st.composite
def edge_designs(draw):
    """A protocol with alpha, beta and both prizes in [0, 1], often at 0 or 1, gamma0 > 0 half the time."""
    def unit():
        return draw(st.one_of(_floats(0.0, 1.0), st.sampled_from((0.0, 1.0))))

    gamma0 = unit() if draw(st.booleans()) else 0.0
    return DesignParams(alpha=unit(), beta=unit(), gamma1=unit(), gamma0=gamma0)


@st.composite
def design_params(draw, gamma0_max=0.0):
    """A protocol with alpha, beta in (0, 1] and 0 <= gamma0 < gamma1 <= 1."""
    gamma0 = draw(_floats(0.0, gamma0_max)) if gamma0_max > 0.0 else 0.0
    gamma1 = draw(_floats(gamma0 + 0.01, 1.0))
    return DesignParams(
        alpha=draw(_floats(0.01, 1.0)),
        beta=draw(_floats(0.01, 1.0)),
        gamma1=gamma1,
        gamma0=gamma0,
    )


def in_band(gamma1, alpha, beta, params):
    """Whether (alpha, beta) lies in the band of binding_lines at one gamma1.

    Inside (0, 1]^2, beta may miss the binding lines, the rating-1
    deviation line below and the participation line above, by TOLERANCE.
    """
    k2, b2, k3, b3, _, live = binding_lines(np.array([gamma1]), params)
    assert live[0], f"a coefficient denominator vanishes at gamma1 = {gamma1!r}"
    if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
        return False
    return not (beta < k2[0] * alpha + b2[0] - TOLERANCE or beta > k3[0] * alpha + b3 + TOLERANCE)


def rating_gap(design, params, worker):
    """The lifetime rating gap v1 - v0 that is_sustainable's margins use, from its one formula."""
    lines = payoff_table(params).lines(worker)
    return _compliant_gap(lines, design.gamma1, design.gamma0, _turnover(design.alpha, design.beta, params))[1]


@pytest.fixture(scope="session")
def defaults():
    return default_params()


@pytest.fixture(scope="session")
def optimum(defaults):
    return optimize(defaults)
