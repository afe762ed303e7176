"""Parameter containers, validation, error aggregation, and config parsing."""

import dataclasses
import math

import pytest
from hypothesis import given

from conftest import intrinsic_params
from contest_rating import (
    ConfigError,
    DesignParams,
    IntrinsicParams,
    STRATEGIES,
    Strategy,
    default_params,
    design_violations,
    load_config,
    parse_config,
    validate,
    with_params,
)

CONFIG_TEXT = """\
# environment
c1=0.1
c2=0.2
s1=0.2
s2=0.1
d=0.5

delta=0.95
eps1=0.2
eps2=0.05
"""


def test_defaults_validate_clean(defaults):
    assert validate(defaults) == ()


def test_default_values(defaults):
    assert defaults.c1 == 0.1
    assert defaults.c2 == 0.2
    assert defaults.s1 == 0.2
    assert defaults.s2 == 0.1
    assert defaults.d == 0.5
    assert defaults.delta == 0.95
    assert defaults.eps1 == 0.2
    assert defaults.eps2 == 0.05


def test_error_aggregate_defaults(defaults):
    assert defaults.error_any == pytest.approx(0.24, abs=1e-15)
    assert defaults.error_free == pytest.approx(0.76, abs=1e-15)
    assert defaults.detection_margin == pytest.approx(0.72, abs=1e-15)


def test_error_aggregate_no_errors():
    p = default_params(eps1=0.0, eps2=0.0)
    assert (p.error_any, p.error_free) == (0.0, 1.0)


@given(intrinsic_params())
def test_error_split_sums_to_one_exactly(p):
    err_any, err_free = p.error_any, p.error_free
    assert 0.0 <= err_any < 1.0
    assert 0.0 < err_free <= 1.0
    assert err_any + err_free == 1.0


@given(intrinsic_params())
def test_validate_accepts_strategy_range(p):
    assert validate(p) == ()


def test_validate_is_idempotent(defaults):
    assert validate(defaults) == validate(defaults)


@pytest.mark.parametrize(
    "overrides",
    [
        {"eps1": 0.5},
        {"eps1": 1.0},
        {"eps2": 0.5},
        {"delta": 1.0},
        {"delta": -0.01},
        {"c1": 0.0},
        {"c1": 1.0},
        {"s2": 0.0},
        {"d": 0.0},
        {"d": 1.0},
    ],
)
def test_validate_rejects_boundaries(overrides):
    violations = validate(default_params(**overrides))
    assert type(violations) is tuple and len(violations) == 1


def test_validate_delta_message():
    assert any("delta" in v and "[0, 1)" in v for v in validate(default_params(delta=1.0)))


def test_params_are_frozen(defaults):
    with pytest.raises(dataclasses.FrozenInstanceError):
        defaults.c1 = 0.3


def test_with_params_override(defaults):
    p = with_params(defaults, c1=0.3)
    assert p.c1 == 0.3
    assert p.c2 == defaults.c2


def test_worker_accessors(defaults):
    assert defaults.cost(1) == defaults.c1
    assert defaults.cost(2) == defaults.c2
    assert defaults.attack_cost(1) == defaults.s1
    assert defaults.attack_cost(2) == defaults.s2
    with pytest.raises(ValueError):
        defaults.cost(3)


def test_strategy_order_and_flags():
    assert [s.value for s in STRATEGIES] == ["CN", "CA", "SN", "SA"]
    assert Strategy.CN.crowdsources and not Strategy.CN.attacks
    assert Strategy.CA.crowdsources and Strategy.CA.attacks
    assert not Strategy.SN.crowdsources and not Strategy.SN.attacks
    assert not Strategy.SA.crowdsources and Strategy.SA.attacks
    assert [s.index for s in STRATEGIES] == [0, 1, 2, 3]


def test_design_price():
    design = DesignParams(0.5, 0.5, 0.7, 0.1)
    assert design.price(1) == 0.7
    assert design.price(0) == 0.1


def test_design_violations_closed_square():
    # check/simulate accept the closed unit square, including beta=0 and
    # a flat price schedule
    assert design_violations(DesignParams(0.5, 0.0, 0.5, 0.5)) == ()
    assert design_violations(DesignParams(1.5, 0.5, 0.5, 0.0)) != ()
    # one message per field out of range, in the fields' order
    assert design_violations(DesignParams(1.5, -0.5, 2.0, -1.0)) == (
        "alpha out of range: 1.5 not in [0, 1]",
        "beta out of range: -0.5 not in [0, 1]",
        "gamma1 out of range: 2.0 not in [0, 1]",
        "gamma0 out of range: -1.0 not in [0, 1]",
    )


def test_parse_config_round_trip(defaults):
    assert parse_config(CONFIG_TEXT) == defaults


def test_parse_config_inline_comment_and_spaces():
    text = CONFIG_TEXT.replace("c1=0.1", "  c1 = 0.1  # crowdsourcing cost")
    assert parse_config(text).c1 == 0.1


def test_parse_config_reads_negative_zero_as_zero():
    text = CONFIG_TEXT.replace("eps1=0.2", "eps1=-0.0").replace("eps2=0.05", "eps2=-0")
    p = parse_config(text.replace("delta=0.95", "delta=-.0"))
    assert [math.copysign(1.0, x) for x in (p.eps1, p.eps2, p.delta)] == [1.0, 1.0, 1.0]
    assert p == default_params(eps1=0.0, eps2=0.0, delta=0.0)


def test_parse_config_missing_key():
    text = CONFIG_TEXT.replace("c2=0.2\n", "")
    with pytest.raises(ConfigError, match="missing key: 'c2'"):
        parse_config(text)


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match=r"unknown key: 'cc' \(line 2\)"):
        parse_config("c1=0.1\ncc=0.2\n" + CONFIG_TEXT)


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(CONFIG_TEXT + "c1=0.3\n")


def test_parse_config_shape_errors():
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_config(CONFIG_TEXT + "what is this\n")
    with pytest.raises(ConfigError, match="not a plain decimal"):
        parse_config(CONFIG_TEXT.replace("d=0.5", "d=5e-1"))


def test_parse_config_rejects_out_of_range():
    with pytest.raises(ConfigError):
        parse_config(CONFIG_TEXT.replace("delta=0.95", "delta=1.0"))


def test_load_config(tmp_path, defaults):
    path = tmp_path / "env.cfg"
    path.write_text(CONFIG_TEXT)
    assert load_config(str(path)) == defaults


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(str(tmp_path / "nope.cfg"))


def test_intrinsic_params_equality_and_hash(defaults):
    again = IntrinsicParams(0.1, 0.2, 0.2, 0.1, 0.5, 0.95, 0.2, 0.05)
    assert again == defaults
    assert hash(again) == hash(defaults)


def test_detection_margin_positive_on_valid_range():
    # the monitored-action informativeness margin is positive whenever
    # eps1 < 1 and eps2 < 1/2, i.e. on the whole validated range
    worst = default_params(eps1=0.449, eps2=0.449)
    assert worst.detection_margin > 0.0
    assert math.isclose(
        worst.detection_margin, (1 - 0.449) * (1 - 2 * 0.449), rel_tol=1e-12
    )
