"""Protocol optimization: boundary cases, grid oracle, and the base price.

The base-price tests check the model's answer rather than assume one: a
positive base price beats zero at the default environment (0.3742 at
gamma0 = 0.3 against 0.3586 at zero, grid r = 40). Participation is
imposed on the rating-0 lifetime value v0, which gamma0 raises every
period spent at rating 0, while the requester pays gamma0 only in the
stationary share eta0 of periods. Every winner is certified by the
independent four-intent check in `four_intent.py`.
"""

import functools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import in_band
from four_intent import violations
from scalar_reference import (
    closed_form_case_utility,
    compliance_margins,
    deviation_floor,
    scalar_case_optimum,
    whole_grid_feasible,
    whole_grid_oracle,
)

from contest_rating import designer, incentives, ratings
from contest_rating.cli import _OUTCOME_CSV_HEADER, _design_lines, _outcome_csv_row
from contest_rating import (
    CASE_ALPHA_ONE,
    CASE_BETA_ONE,
    DegenerateDenominator,
    DesignerConfig,
    DomainError,
    DesignParams,
    Infeasible,
    Strategy,
    binding_lines,
    brute_force_oracle,
    constraint_coefficients,
    default_params,
    is_sustainable,
    optimize,
    payoff_line,
    payoff_table,
    social_utility_closed,
    validate,
    with_params,
    zero_base_price_check,
)


def _cases(p, config=None):
    """Both boundary cases by id, as optimize reports them, feasible or not."""
    try:
        cases = optimize(p, config).cases
    except Infeasible as exc:
        cases = exc.cases
    return {case.case_id: case for case in cases}


def test_config_validation():
    with pytest.raises(ValueError):
        DesignerConfig(gamma_grid_m=5)
    with pytest.raises(ValueError):
        DesignerConfig(oracle_grid_r=3)


def test_defaults_optimum_frozen(defaults, optimum):
    assert optimum.feasible
    assert optimum.case_id == CASE_ALPHA_ONE
    assert optimum.alpha == 1.0
    assert optimum.beta == pytest.approx(0.9473684210526314, abs=1e-12)
    assert optimum.gamma1 == pytest.approx(0.52, abs=1e-12)
    assert optimum.gamma0 == 0.0
    assert optimum.utility == pytest.approx(0.35974413646055436, abs=1e-12)
    assert optimum.certificate is not None and optimum.certificate.sustainable
    # the costlier worker sits exactly on its participation boundary; the
    # cheaper one keeps strictly positive surplus
    assert optimum.certificate.workers[1].participation == pytest.approx(0.0, abs=1e-9)
    assert optimum.certificate.workers[0].participation > 1.0


def test_optimum_on_unit_square_boundary(optimum):
    assert optimum.alpha == 1.0 or optimum.beta == 1.0


def test_optimum_inside_band(defaults, optimum):
    assert in_band(optimum.gamma1, optimum.alpha, optimum.beta, defaults)


def test_case_grid_semantics(defaults, optimum):
    by_id = {c.case_id: c for c in optimum.cases}
    assert set(by_id) == {CASE_BETA_ONE, CASE_ALPHA_ONE}
    alpha_case = by_id[CASE_ALPHA_ONE]
    assert alpha_case.feasible
    # largest feasible prize for the alpha=1 case, smallest for beta=1
    assert alpha_case.gamma1 == max(alpha_case.feasible_gamma1)
    beta_case = by_id[CASE_BETA_ONE]
    if beta_case.feasible:
        assert beta_case.gamma1 == min(beta_case.feasible_gamma1)


def test_key_value_block(optimum):
    lines = _design_lines(optimum)
    assert "feasible=true" in lines
    assert "case=alpha=1" in lines
    assert "gamma1=0.52" in lines
    assert any(line.startswith("sustainable=") for line in lines)
    assert any(line.startswith("participation[worker2]=") for line in lines)


def test_outcome_csv_row(optimum):
    row = _outcome_csv_row(optimum)
    fields = row.split(",")
    assert len(fields) == len(_OUTCOME_CSV_HEADER.split(","))
    assert fields[-1] == "true"
    assert fields[-2] == CASE_ALPHA_ONE
    assert _outcome_csv_row(optimum, invalid=True).split(",")[-1] == "invalid"


def test_no_future_is_infeasible(defaults):
    p = with_params(defaults, delta=0.0)
    with pytest.raises(Infeasible) as exc:
        optimize(p)
    assert len(exc.value.cases) == 2
    assert not any(c.feasible for c in exc.value.cases)
    res = brute_force_oracle(p, DesignerConfig(oracle_grid_r=50))
    assert not res.feasible


def test_a_vanishing_future_overflows_nothing_on_stderr():
    # at delta = 1e-300 the rating-1 corner's free knob overflows to inf, which the masks drop; the
    # search must raise its typed verdict and no floating-point warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Infeasible):
            optimize(default_params(delta=1e-300, eps2=0.0))


def test_generous_symmetric_case_corner():
    p = default_params(c1=0.05, c2=0.05, s1=0.05, s2=0.05, delta=0.99)
    case = _cases(p)[CASE_ALPHA_ONE]
    assert case.feasible
    assert case.alpha == 1.0
    assert 0.0 < case.beta <= 1.0
    assert in_band(case.gamma1, case.alpha, case.beta, p)


def test_symmetric_workers_share_constraints():
    p = default_params(c1=0.15, c2=0.15, s1=0.15, s2=0.15)
    for gamma1 in (0.4, 0.6, 0.9):
        c1, c2 = (constraint_coefficients(gamma1, p, w) for w in (1, 2))
        assert c1.k2 == pytest.approx(c2.k2, abs=1e-15)
        assert c1.k3 == pytest.approx(c2.k3, abs=1e-15)
    outcome = optimize(p)
    margins = [(w.margin0, w.margin1) for w in outcome.certificate.workers]
    assert margins[0] == pytest.approx(margins[1], abs=1e-12)


def test_oracle_frozen_at_defaults(defaults, optimum):
    res = brute_force_oracle(defaults, DesignerConfig(oracle_grid_r=50))
    assert res.feasible
    assert (res.alpha, res.beta, res.gamma1) == (1.0, 0.94, 0.52)
    assert abs(res.utility - optimum.utility) <= 0.02
    # the oracle's winner re-validates through the primal margins
    for worker in (1, 2):
        m0, m1, v0 = compliance_margins(res.alpha, res.beta, res.gamma1, 0.0, defaults, worker)
        assert m0 >= -1e-9 and m1 >= -1e-9 and v0 >= -1e-9


def test_case_utility_equals_stationary_utility(defaults):
    # the closed-form corner utilities are just the stationary requester
    # utility after substituting the binding participation equality
    rng = np.random.default_rng(314)
    compared = 0
    attempts = 0
    while compared < 200 and attempts < 2000:
        attempts += 1
        p = default_params(
            c1=rng.uniform(0.02, 0.3),
            c2=rng.uniform(0.02, 0.3),
            s1=rng.uniform(0.02, 0.3),
            s2=rng.uniform(0.02, 0.3),
            d=rng.uniform(0.2, 0.6),
            delta=rng.uniform(0.9, 0.98),
            eps1=rng.uniform(0.05, 0.3),
            eps2=rng.uniform(0.01, 0.2),
        )
        try:
            cases = _cases(p, DesignerConfig(gamma_grid_m=40))
        except DegenerateDenominator:
            continue
        for case in cases.values():
            if not case.feasible:
                continue
            direct = social_utility_closed(case.alpha, case.beta, case.gamma1, 0.0, p)
            assert case.utility == pytest.approx(direct, abs=1e-9)
            compared += 1
    assert compared >= 200


def test_small_prize_payment_bound():
    # where a small top prize is feasible at all, the requester's payment
    # under either corner is bounded by that prize
    p = default_params(c1=0.02, c2=0.02, s1=0.02, s2=0.02, d=0.3, delta=0.99, eps1=0.05, eps2=0.02)
    z = p.error_free
    cases = _cases(p, DesignerConfig(gamma_grid_m=200))
    feasible_points = 0
    for k in range(1, 25):
        gamma1 = k / 200.0
        for case_id, case in cases.items():
            if not case.feasible or gamma1 not in case.feasible_gamma1:
                continue
            u = closed_form_case_utility(case_id, gamma1, p)
            assert abs(z - u) <= gamma1 + 1e-9
            feasible_points += 1
    assert feasible_points >= 1


def test_case_one_denominator_limit(defaults):
    # as discounting vanishes the beta=1 corner denominator is carried by
    # the monitoring-error term alone
    p = with_params(defaults, delta=0.9999)
    slope, icept = payoff_line(2, Strategy.CN, p)
    v0 = icept
    v1 = slope * 0.52 + icept
    denom = (1 - p.delta) * v0 + p.delta * p.error_any * (v0 - v1)
    limit = p.error_any * (v0 - v1)
    assert denom == pytest.approx(limit, rel=0.01)


def test_prize_trend_in_own_cost():
    # a costlier crowdsourcing fee needs a bigger prize to keep the worker
    # participating; checked where worker 1 is the costlier one
    base = default_params(c2=0.05, s2=0.2)
    config = DesignerConfig(gamma_grid_m=50)
    prizes = []
    for c1 in np.linspace(0.05, 0.45, 9):
        outcome = optimize(with_params(base, c1=float(c1)), config)
        prizes.append(outcome.gamma1)
    assert np.all(np.diff(prizes) >= -1e-9)


def _winner(res, gamma0):
    return DesignParams(res.alpha, res.beta, res.gamma1, gamma0)


def test_forced_base_price_never_helps(defaults):
    # The model's answer is that it does help: pinning gamma0 = 0.3 lets the
    # oracle lower gamma1 and alpha while worker 2 still participates, and
    # the requester pays gamma0 only in the eta0 share of periods.
    config = DesignerConfig(oracle_grid_r=40)
    at_zero = brute_force_oracle(defaults, config)
    raised = brute_force_oracle(defaults, config, gamma0=0.3)
    assert at_zero.feasible and raised.feasible
    for res, gamma0 in ((at_zero, 0.0), (raised, 0.3)):
        assert violations(_winner(res, gamma0), defaults) == []
    assert (raised.alpha, raised.beta, raised.gamma1) == (0.675, 0.975, 0.425)
    closed = social_utility_closed(raised.alpha, raised.beta, raised.gamma1, 0.3, defaults)
    assert raised.utility == pytest.approx(closed, abs=1e-12)
    assert at_zero.utility == pytest.approx(0.3586, abs=5e-5)
    assert raised.utility == pytest.approx(0.3742, abs=5e-5)
    assert raised.utility > at_zero.utility


def test_zero_base_price_check_defaults(defaults):
    # the report is the oracle's curve over the gamma0 grid; at the defaults
    # it peaks at gamma0 = 0.3, not at zero (see module docstring)
    config = DesignerConfig(oracle_grid_r=40)
    report = zero_base_price_check(defaults, config=config)
    runs = [brute_force_oracle(defaults, config, gamma0=g0) for g0 in report.gamma0_values]
    assert all(res.feasible for res in runs)
    utilities = [res.utility for res in runs]
    assert list(report.utilities) == utilities
    best = max(range(len(runs)), key=lambda i: (utilities[i], -report.gamma0_values[i]))
    assert report.best_gamma0 == report.gamma0_values[best]
    assert report.zero_is_optimal == (utilities[0] >= max(utilities) - 1e-9)
    assert report.best_gamma0 == pytest.approx(0.3, abs=1e-12)
    assert not report.zero_is_optimal
    assert violations(_winner(runs[best], report.gamma0_values[best]), defaults) == []


def test_zero_base_price_check_reads_zero_wherever_it_is():
    # the verdict reads the utility at gamma0 = 0 in whatever place the
    # values list it: each order of the same values gives the same report
    config, zero_wins = DesignerConfig(oracle_grid_r=20), 0
    for p in _edge_weighted_environments(70, seed=1618):
        first = zero_base_price_check(p, (0.0, 0.05), config)
        last = zero_base_price_check(p, (0.05, 0.0), config)
        assert repr(last.utilities) == repr(first.utilities[::-1]), p
        assert (last.best_gamma0, last.zero_is_optimal) == (first.best_gamma0, first.zero_is_optimal), p
        zero_wins += first.zero_is_optimal
    assert zero_wins >= 10


def test_flat_price_schedule_is_dominated(defaults):
    # forcing both prizes equal wastes the rating channel entirely
    for gamma in (0.3, 0.5, 0.7):
        flat = social_utility_closed(0.7, 0.6, gamma, gamma, defaults)
        split = social_utility_closed(0.7, 0.6, gamma, 0.0, defaults)
        assert flat < split


def test_infeasible_outcome_has_no_design(defaults):
    from contest_rating import DesignOutcome

    bare = DesignOutcome(params=defaults, feasible=False)
    with pytest.raises(Infeasible):
        bare.design()
    row = _outcome_csv_row(bare)
    assert row.split(",")[-1] == "false"


def _one_or_both(rng, prefix):
    return ((prefix + "1",), (prefix + "2",), (prefix + "1", prefix + "2"))[rng.integers(3)]


def _edge_weighted_environments(count, seed):
    """Validated environments, most of them on an edge of the domain.

    Edges, in turn: none; perfect monitoring (eps1 = eps2 = 0); no attack
    noise (eps2 = 0); no future (delta = 0); delta -> 0; c_i + d -> 1 and
    s_i -> 0 for one or both workers. Each edge is applied alternately to
    a draw from the whole validated domain and to a draw near the
    defaults, where most grids have feasible points.
    """
    rng = np.random.default_rng(seed)
    envs = []
    while len(envs) < count:
        edge, near_defaults = len(envs) % 7, len(envs) // 7 % 2
        if near_defaults:
            p = default_params(
                c1=rng.uniform(0.02, 0.3), c2=rng.uniform(0.02, 0.3),
                s1=rng.uniform(0.02, 0.3), s2=rng.uniform(0.02, 0.3),
                d=rng.uniform(0.2, 0.6), delta=rng.uniform(0.85, 0.99),
                eps1=rng.uniform(0.0, 0.3), eps2=rng.uniform(0.0, 0.2),
            )
        else:
            p = default_params(
                c1=rng.uniform(0.0, 1.0), c2=rng.uniform(0.0, 1.0),
                s1=rng.uniform(0.0, 1.0), s2=rng.uniform(0.0, 1.0),
                d=rng.uniform(0.0, 1.0), delta=rng.uniform(0.0, 1.0),
                eps1=rng.uniform(0.0, 0.5), eps2=rng.uniform(0.0, 0.5),
            )
        if edge == 1:
            p = with_params(p, eps1=0.0, eps2=0.0)
        elif edge == 2:
            p = with_params(p, eps2=0.0)
        elif edge == 3:
            p = with_params(p, delta=0.0)
        elif edge == 4:
            p = with_params(p, delta=float(10.0 ** rng.uniform(-15, -3)))
        elif edge == 5:
            slack = float(10.0 ** rng.uniform(-12, -3))
            p = with_params(p, **{key: 1.0 - p.d - slack for key in _one_or_both(rng, "c")})
        elif edge == 6:
            tiny = float(10.0 ** rng.uniform(-15, -9))
            p = with_params(p, **{key: tiny for key in _one_or_both(rng, "s")})
        if not validate(p):
            envs.append(p)
    return envs


def test_case_scan_equals_scalar_reference():
    # the array scan returns the per-point scan's CaseResult, float for
    # float, including the points it drops for a vanishing denominator
    feasible = {CASE_BETA_ONE: 0, CASE_ALPHA_ONE: 0}
    degenerate = 0  # environments whose whole grid is dropped (b1's delta * error_any)
    tiny_attack_cost = 0  # s_i -> 0, where the whole grid stays live
    envs = _edge_weighted_environments(400, seed=2718)
    for p in envs:
        if p.delta * p.error_any < 1e-12:
            degenerate += 1
        elif min(p.s1, p.s2) < 1e-9:
            tiny_attack_cost += 1
            assert binding_lines(np.arange(1, 101) / 100, p)[-1].all(), p
        for m in (10, 37, 100):
            cases = _cases(p, DesignerConfig(gamma_grid_m=m))
            for case_id in (CASE_BETA_ONE, CASE_ALPHA_ONE):
                fast = cases[case_id]
                assert fast == scalar_case_optimum(case_id, p, m), (case_id, m, p)
                assert all(type(x) is float for x in (fast.alpha, fast.beta, fast.gamma1))
                feasible[case_id] += fast.feasible
    # the edges and the interior both show up
    assert degenerate >= 100 and tiny_attack_cost >= 10
    assert min(feasible.values()) >= 50


def test_optimize_answers_lie_in_their_band():
    # every answer optimize gives lies, within TOLERANCE, in the band of
    # the binding_lines it read, and carries a sustainable certificate
    answers = 0
    for p in _edge_weighted_environments(400, seed=2718):
        for m in (10, 37, 100):
            config = DesignerConfig(gamma_grid_m=m)
            try:
                outcome = optimize(p, config)
            except Infeasible:
                continue
            assert in_band(outcome.gamma1, outcome.alpha, outcome.beta, p), (m, p)
            assert outcome.certificate.sustainable, (m, p)
            answers += 1
    assert answers >= 200


def test_optimize_evaluates_the_grid_once(defaults, monkeypatch):
    # one coefficient grid for both boundary cases: the chosen points'
    # utilities and the certificate read nothing more from it
    grid, calls = incentives._coefficient_grid, []

    def counted(*args):
        calls.append(args)
        return grid(*args)

    monkeypatch.setattr(incentives, "_coefficient_grid", counted)
    optimize(defaults)
    assert len(calls) == 1


def test_optimize_solves_no_deviation_values(defaults, monkeypatch):
    # the certificate reads margins and the compliant values; nothing
    # in it needs the value of a CA deviation, so no rating kernel is built
    # and its payoffs are CN payoffs alone
    kernel, payoff, built, paid = ratings.transition_kernel, incentives.against_compliant, [], []

    def counted_kernel(intended, *args):
        built.append(intended)
        return kernel(intended, *args)

    def counted_payoff(worker, intended, *args):
        paid.append(intended)
        return payoff(worker, intended, *args)

    monkeypatch.setattr(ratings, "transition_kernel", counted_kernel)
    monkeypatch.setattr(incentives, "against_compliant", counted_payoff)
    optimize(defaults)
    assert built == []
    assert paid and set(paid) == {Strategy.CN}  # the counter sees the rating-1 rewards


def test_near_zero_attack_cost_is_feasible():
    # an attack cost s1 -> 0 guards no coefficient, so the scan keeps its
    # points and certifies a design
    p = default_params(s1=1e-13)
    outcome = optimize(p)
    assert outcome.certificate.sustainable
    assert violations(outcome.design(), p) == []
    assert outcome.utility == pytest.approx(0.35974, abs=5e-6)
    oracle = brute_force_oracle(p)
    assert oracle.feasible and abs(oracle.utility - outcome.utility) < 1e-3


# (r, cells): cells sets _CHUNK_CELLS (cells per chunk of alpha rows, in
# whole grid rows). None keeps the defaults: at 37 one chunk; at 100 an
# 80-row chunk and a 20-row tail. 10 at 300: one 30-row chunk. 23 at 1: a
# row per chunk. 23 at 1955: one 85-row chunk, on the 17-point prize suffix
# above gamma0 = 0.3 and the 1-point suffix above 0.995 too.
_SLAB_CASES = [(37, None), (100, None), (10, 300), (23, 1), (23, 1955)]


def _whole_grid_cases(r):
    # the (environment, gamma0) pairs the slab and row tests check at grid r: 0.995 leaves a
    # one-point prize suffix (gamma1 = 1), 1.0 none; at eps1 = eps2 = 0.5 every drop is 0 and
    # every intent pays the same, so no deviation gains and participation decides
    envs = _edge_weighted_environments(14 if r == 100 else 70, seed=1618)
    cases = [(p, gamma0) for p in envs for gamma0 in (0.0, 0.3, 0.995, 1.0)]
    return cases + [(default_params(eps1=0.5, eps2=0.5), 0.3)]


@functools.cache
def _whole_grid_reprs(r):
    # repr(whole_grid_oracle) at grid r on each (environment, gamma0) the slab tests check
    config = DesignerConfig(oracle_grid_r=r)
    return {(p, gamma0): repr(whole_grid_oracle(p, config, gamma0=gamma0)) for p, gamma0 in _whole_grid_cases(r)}


def _oracle_equals_the_whole_grid(monkeypatch, r, cells):
    if cells is not None:
        monkeypatch.setattr(designer, "_CHUNK_CELLS", cells)
    config = DesignerConfig(oracle_grid_r=r)
    seen = Counter()  # (feasible, perfect monitoring)
    for (p, gamma0), expected in _whole_grid_reprs(r).items():
        res = brute_force_oracle(p, config, gamma0=gamma0)
        assert repr(res) == expected, (p, gamma0)
        seen[res.feasible, p.error_any == 0.0] += 1
    assert seen[True, False] and seen[False, False] and seen[True, True], seen
    p = default_params(eps1=0.5, eps2=0.5)  # no deviation gains, so participation decides
    uniform = brute_force_oracle(p, config, gamma0=0.3)
    assert uniform.feasible == (r > 10)  # at r = 10 the least beta, 0.1, demotes too often to participate
    if uniform.feasible:
        assert violations(DesignParams(uniform.alpha, uniform.beta, uniform.gamma1, 0.3), p) == []


@pytest.mark.parametrize("r, cells", _SLAB_CASES)
def test_oracle_slabs_equal_the_whole_grid(monkeypatch, r, cells):
    _oracle_equals_the_whole_grid(monkeypatch, r, cells)


@pytest.mark.parametrize("r", [37, 100])
def test_oracle_rows_read_the_first_prize_the_margins_clear(r):
    # each (alpha, beta) row's first feasible prize, read in closed form, is
    # the first prize at which every margin of the whole grid holds, and a
    # row the margins clear nowhere reads -1
    grid, rows = np.arange(1, r + 1) / r, Counter()
    for p, gamma0 in _whole_grid_cases(r):
        ok = whole_grid_feasible(p, DesignerConfig(oracle_grid_r=r), gamma0)
        prizes = grid[grid > gamma0 + 1e-12]
        expected = np.where(ok.any(axis=-1), ok.argmax(axis=-1) - (r - len(prizes)), -1)
        if not len(prizes):  # the oracle reads no row
            assert (expected == -1).all(), p
            continue
        lead, reach = designer._prize_bounds(p, prizes, gamma0)
        first = designer._first_prizes(grid[:, None], grid, prizes, gamma0, lead, reach, p)
        assert np.array_equal(first, expected), (p, gamma0)
        rows["feasible"] += int(np.count_nonzero(first >= 0))
        rows["none"] += int(np.count_nonzero(first < 0))
    assert min(rows.values()) > 0, rows


def test_utility_never_rises_along_gamma1_on_the_oracle_grid():
    # the premise of the oracle's row read: along every (alpha, beta) row the
    # computed utility is non-increasing in gamma1, exactly, so the row's
    # first feasible cell holds its maximum
    grid = np.arange(1, 101) / 100
    alpha, beta, gamma1 = grid[:, None, None], grid[None, :, None], grid[None, None, :]
    for p in _edge_weighted_environments(70, seed=1618):
        for gamma0 in (0.0, 0.3):
            utility = social_utility_closed(alpha, beta, gamma1, gamma0, p)
            assert (np.diff(utility, axis=-1) <= 0.0).all(), (p, gamma0)


def test_oracle_search_premises_hold_on_the_oracle_grid():
    # the premises of the oracle's row read, on each worker's verdicts and
    # on both workers' together, computed from the primal margins: at fixed
    # (alpha, beta) rating 0 and participation never go from holding to
    # failing as gamma1 rises, and rating 1 holds on one run of prizes
    grid = np.arange(1, 101) / 100
    for p in _edge_weighted_environments(70, seed=1618):
        for gamma0 in (0.0, 0.3):
            prizes = grid[grid > gamma0 + 1e-12]
            both = []
            for worker in (1, 2):
                m0, m1, v0 = compliance_margins(grid[:, None, None], grid[None, :, None], prizes, gamma0, p, worker)
                rating0 = (m0 >= deviation_floor(gamma0, p, worker)) & (v0 >= -incentives.TOLERANCE)
                both.append((rating0, m1 >= deviation_floor(prizes, p, worker)))
            both.append((both[0][0] & both[1][0], both[0][1] & both[1][1]))
            for rating0, rating1 in both:
                assert (rating0[:, :, :-1] <= rating0[:, :, 1:]).all(), (p, gamma0)
                runs = rating1[:, :, 0] + np.count_nonzero(~rating1[:, :, :-1] & rating1[:, :, 1:], axis=-1)
                assert (runs <= 1).all(), (p, gamma0)


def test_oracle_refuses_a_domain_outside_its_premises(defaults):
    # eps2 > 0.5 makes the detection margin negative, and eps1 > 0.5 SN's
    # drop with a positive detection margin: a deviation's margin could
    # then fall as gamma1 rises, and the row read could miss a feasible cell
    p = with_params(defaults, eps2=0.6)
    assert p.detection_margin < 0.0 and validate(p)
    with pytest.raises(DomainError, match="oracle premises"):
        brute_force_oracle(p, DesignerConfig(oracle_grid_r=10))
    p = with_params(defaults, eps1=0.8)
    assert p.detection_margin > 0.0 > payoff_table(p).drop[Strategy.SN.index] and validate(p)
    with pytest.raises(DomainError, match="oracle premises"):
        brute_force_oracle(p, DesignerConfig(oracle_grid_r=10))
    with pytest.raises(DomainError, match="oracle premises"):
        brute_force_oracle(with_params(defaults, delta=1.0), DesignerConfig(oracle_grid_r=10))


def test_oracle_tie_across_slabs_keeps_the_first_cell(defaults, monkeypatch):
    # a flat utility ties every feasible cell; with one alpha row per chunk
    # the feasible rows span several chunks, and the first in C order wins
    def flat(alpha, beta, gamma1, gamma0, params):
        return 0.0 * alpha + 0.0 * beta + 0.0 * gamma1

    first_prizes, chunks = designer._first_prizes, []

    def recording(*args):
        chunks.append(first_prizes(*args))
        return chunks[-1]

    monkeypatch.setattr(designer, "social_utility_closed", flat)
    monkeypatch.setattr(designer, "_first_prizes", recording)
    monkeypatch.setattr(designer, "_CHUNK_CELLS", 1)
    config = DesignerConfig(oracle_grid_r=10)
    res = brute_force_oracle(defaults, config)
    assert sum(bool((cells >= 0).any()) for cells in chunks) > 1  # feasible rows in several one-row chunks
    assert repr(res) == repr(whole_grid_oracle(defaults, config, utility_of=flat))


def test_oracle_memory_grows_with_one_slab(defaults):
    for r in (100, 200):
        config = DesignerConfig(oracle_grid_r=r)
        brute_force_oracle(defaults, config)  # the payoff table is built outside the trace
        tracemalloc.start()
        try:
            brute_force_oracle(defaults, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 0.39 MB and 0.47 MB measured: a chunk of alpha rows' first-prize
        # and utility temporaries (under 64 KB each); 57 MB and 456 MB for
        # whole_grid_oracle
        assert peak < 2e6, (r, peak)


def test_case_scan_drops_a_degenerate_point_alone():
    # Outside the validated domain (eps1 > 0.5) worker 1's k2 denominator
    # changes sign inside the grid; s1 is tuned so that it vanishes at
    # gamma1 = 0.5. Only that point is dropped, as constraint_coefficients
    # raises there and nowhere else.
    p = default_params(s1=0.13073854115844444, eps1=0.8277025938204418, eps2=0.4091991363691613)
    with pytest.raises(DegenerateDenominator, match="k2 denominator vanished"):
        constraint_coefficients(0.5, p, 1)
    for m in (10, 100):
        gamma1 = np.arange(1, m + 1) / m
        live = binding_lines(gamma1, p)[-1]
        assert list(gamma1[~live]) == [0.5]
        cases = _cases(p, DesignerConfig(gamma_grid_m=m))
        for case_id in (CASE_BETA_ONE, CASE_ALPHA_ONE):
            fast = cases[case_id]
            assert fast == scalar_case_optimum(case_id, p, m)
        assert fast.feasible
