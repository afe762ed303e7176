"""Parameter containers, validation, and config-file parsing.

Eight exogenous quantities describe the environment: per-worker
crowdsourcing costs c1, c2, attack costs s1, s2, the attack damage d, a
common discount factor delta, and two monitoring error rates eps1 (first
stage, crowdsource-vs-inhouse) and eps2 (second stage, attack-vs-not).
The platform's protocol adds four design knobs: promotion strength alpha,
demotion strength beta, and winner prizes gamma0 (low rating) and gamma1
(high rating).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from enum import Enum

from .errors import ConfigError


class Strategy(Enum):
    """Two-stage intent: crowdsource (C) or stay in-house (S), then attack (A) or not (N)."""

    CN = "CN"
    CA = "CA"
    SN = "SN"
    SA = "SA"

    @property
    def crowdsources(self) -> bool:
        return self.value[0] == "C"

    @property
    def attacks(self) -> bool:
        return self.value[1] == "A"

    index: int  # position in the fixed CN, CA, SN, SA matrix order (set below)


STRATEGIES: tuple[Strategy, ...] = tuple(Strategy)
for _position, _strategy in enumerate(STRATEGIES):
    _strategy.index = _position  # a plain attribute, read on every payoff and margin call


@dataclass(frozen=True)
class IntrinsicParams:
    """Environment parameters, all prizes normalized to the unit contest value."""

    c1: float
    c2: float
    s1: float
    s2: float
    d: float
    delta: float
    eps1: float
    eps2: float

    def cost(self, worker: int) -> float:
        check_worker(worker)
        return self.c1 if worker == 1 else self.c2

    def attack_cost(self, worker: int) -> float:
        check_worker(worker)
        return self.s1 if worker == 1 else self.s2

    @property
    def error_any(self) -> float:
        """Probability at least one stage of a worker's action is misread."""
        return self.eps1 + self.eps2 - self.eps1 * self.eps2

    @property
    def error_free(self) -> float:
        """Probability both stages are read as intended (1 - error_any)."""
        return 1.0 - self.error_any

    @property
    def detection_margin(self) -> float:
        # (1-eps1)(1-2*eps2): net drop in the observed-compliant probability
        # when a worker swaps CN for CA; must stay positive for deterrence.
        return 1.0 - self.eps1 - 2.0 * self.eps2 + 2.0 * self.eps1 * self.eps2


# The eight environment keys in field order: config files, sweep axes and CSV columns.
ENV_KEYS: tuple[str, ...] = tuple(f.name for f in fields(IntrinsicParams))


@dataclass(frozen=True)
class DesignParams:
    """Protocol knobs. Deliberately unvalidated at construction: diagnostic

    paths evaluate boundary settings (beta = 0, gamma0 = gamma1) that the
    optimizer itself would reject. design_violations() checks only that the
    knobs lie in the closed unit square.
    """

    alpha: float
    beta: float
    gamma1: float
    gamma0: float = 0.0

    def price(self, rating: int) -> float:
        return self.gamma1 if rating else self.gamma0


def default_params(**overrides) -> IntrinsicParams:
    """Baseline environment used throughout the experiments."""
    base = dict(c1=0.1, c2=0.2, s1=0.2, s2=0.1, d=0.5, delta=0.95, eps1=0.2, eps2=0.05)
    base.update(overrides)
    return IntrinsicParams(**base)


def with_params(params: IntrinsicParams, **overrides) -> IntrinsicParams:
    """Copy of params with some fields replaced."""
    return replace(params, **overrides)


def validate(params: IntrinsicParams) -> tuple[str, ...]:
    """Range-check every field and the derived detection margin.

    Returns the violations, empty when the environment is valid, rather
    than raising, so callers can surface all problems at once.
    """
    bad: list[str] = []
    for name in ("c1", "c2", "s1", "s2", "d"):
        x = getattr(params, name)
        if not 0.0 < x < 1.0:
            bad.append(f"{name} out of range: {x!r} not in (0, 1)")
    if not 0.0 <= params.delta < 1.0:
        bad.append(f"delta out of range: {params.delta!r} not in [0, 1)")
    for name in ("eps1", "eps2"):
        x = getattr(params, name)
        if not 0.0 <= x < 0.5:
            bad.append(f"{name} out of range: {x!r} not in [0, 0.5)")
    if not bad and params.detection_margin <= 0.0:
        bad.append(
            "detection margin nonpositive: "
            f"(1-eps1)*(1-2*eps2) = {params.detection_margin!r} must be > 0"
        )
    return tuple(bad)


def design_violations(design: DesignParams) -> tuple[str, ...]:
    """Closed unit square check for a protocol design, as the diagnostic CLI paths accept it."""
    bad: list[str] = []
    for name in (f.name for f in fields(DesignParams)):
        x = getattr(design, name)
        if not 0.0 <= x <= 1.0:
            bad.append(f"{name} out of range: {x!r} not in [0, 1]")
    return tuple(bad)


# Config files are key=value lines, '#' comments, blank lines ignored.
# Values must be plain decimals (no exponents) so files round-trip exactly.
_DECIMAL = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")


def parse_config(text: str) -> IntrinsicParams:
    """Parse a key=value block into IntrinsicParams.

    Raises ConfigError naming the offending key or line for unknown keys,
    duplicates, malformed values, or missing keys. The parsed params are
    range-checked; violations also raise ConfigError.
    """
    seen: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in ENV_KEYS:
            raise ConfigError(f"unknown key: {key!r} (line {lineno})")
        if key in seen:
            raise ConfigError(f"duplicate key: {key!r} (line {lineno})")
        if not _DECIMAL.match(value):
            raise ConfigError(f"value for {key} is not a plain decimal: {value!r} (line {lineno})")
        seen[key] = float(value) + 0.0  # -0.0 -> +0.0; every other float keeps its bits
    missing = [k for k in ENV_KEYS if k not in seen]
    if missing:
        raise ConfigError(f"missing key: {missing[0]!r}" + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else ""))
    params = IntrinsicParams(**seen)
    violations = validate(params)
    if violations:
        raise ConfigError("; ".join(violations))
    return params


def load_config(path: str) -> IntrinsicParams:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def check_worker(worker: int) -> None:
    if worker not in (1, 2):
        raise ValueError(f"worker must be 1 or 2, got {worker!r}")
