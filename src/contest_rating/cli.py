"""Command-line interface: design, sweep, check, simulate.

All subcommands read the eight environment parameters from a key=value
config file (plain decimals, '#' comments). Exit codes: 0 on success (for
design/check: the protocol is feasible/sustainable), 2 when the analysis
finishes but the answer is negative (infeasible design, unsustainable
protocol), 1 for input errors. CSV output is deterministic byte for byte
at fixed inputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields, replace
from functools import cache

from .designer import DesignerConfig, DesignOutcome, OracleResult, brute_force_oracle, optimize
from .errors import ConfigError, DegenerateChain, Infeasible
from .incentives import SustainabilityReport, is_sustainable
from .params import ENV_KEYS, DesignParams, IntrinsicParams, design_violations, load_config, validate, with_params
from .simulate import SimConfig, SimResult, run_chain, run_utility, utility_horizon

# This module alone turns records into bytes. Every number it prints goes through _fmt, so output
# is deterministic byte for byte: 12 significant digits, no exponent surprises from locale,
# booleans as lowercase words. The helpers are private: a tracer of public functions skips them.


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return "%.12g" % value  # also "nan", "inf", "-inf", and the worker numbers as "1" and "2"


def _csv_line(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _write_lines(path: str | None, lines: list[str]) -> None:
    """Write lines to a file with trailing newline, or to stdout when path is None."""
    text = "\n".join(lines) + "\n"
    if path is None:
        print(text, end="")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _design_lines(outcome: DesignOutcome, oracle: OracleResult | None = None) -> list[str]:
    """The key=value block that design prints, with the oracle's lines when it ran."""
    lines = [
        f"feasible={_fmt(outcome.feasible)}",
        f"case={outcome.case_id}",
        f"alpha={_fmt(outcome.alpha)}",
        f"beta={_fmt(outcome.beta)}",
        f"gamma1={_fmt(outcome.gamma1)}",
        f"gamma0={_fmt(outcome.gamma0)}",
        f"utility={_fmt(outcome.utility)}",
    ]
    for case in outcome.cases:
        grid = case.feasible_gamma1
        span = f"{_fmt(grid[0])}..{_fmt(grid[-1])}" if grid else "none"  # an ascending grid
        lines.append(f"feasible_gamma1[{case.case_id}]={span} ({len(grid)} grid points)")
    if outcome.certificate is not None:
        lines.append(f"sustainable={_fmt(outcome.certificate.sustainable)}")
        for w in outcome.certificate.workers:
            lines.append(f"margin_rating0[worker{w.worker}]={_fmt(w.margin0)}")
            lines.append(f"margin_rating1[worker{w.worker}]={_fmt(w.margin1)}")
        for w in outcome.certificate.workers:
            lines.append(f"participation[worker{w.worker}]={_fmt(w.participation)}")
    if oracle is not None:
        lines += [f"oracle_{f.name}={_fmt(getattr(oracle, f.name))}" for f in fields(oracle)]
        if outcome.feasible and oracle.feasible:
            lines.append(f"oracle_gap={_fmt(abs(oracle.utility - outcome.utility))}")
    return lines


_OUTCOME_CSV_HEADER = ",".join(ENV_KEYS + ("alpha", "beta", "gamma1", "gamma0", "utility", "case", "feasible"))


def _outcome_csv_row(outcome: DesignOutcome, invalid: bool = False) -> str:
    """One row of the sweep CSV and of design --out; invalid marks a point outside the domain."""
    p = outcome.params
    flag = "invalid" if invalid else outcome.feasible
    return _csv_line(
        [getattr(p, key) for key in ENV_KEYS]
        + [outcome.alpha, outcome.beta, outcome.gamma1, outcome.gamma0, outcome.utility, outcome.case_id, flag]
    )


def _check_lines(report: SustainabilityReport) -> list[str]:
    """What check prints: each worker's margins (combined-gap-units may be +-inf), then the verdict."""
    lines = ["worker,constraint,margin"]
    for w in report.workers:
        lines.append(_csv_line([w.worker, "deviation-rating0", w.margin0]))
        lines.append(_csv_line([w.worker, "deviation-rating1", w.margin1]))
        lines.append(_csv_line([w.worker, "combined-gap-units", w.margin_combined]))
        lines.append(_csv_line([w.worker, "participation", w.participation]))
    lines.append(f"sustainable={_fmt(report.sustainable)}")
    return lines


def _simulate_lines(*results: SimResult) -> list[str]:
    """What simulate prints: one CSV row per estimate of each result, in order."""
    lines = ["metric,analytic,empirical,stderr,z"]
    for result in results:
        lines += [_csv_line([e.metric, e.analytic, e.empirical, e.stderr, e.z]) for e in result.estimates]
    return lines


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; here 2 means "infeasible",
    # so input problems of any kind are remapped to 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache  # built on the first main() call, not at import, then reused
def _build_parser() -> _Parser:
    parser = _Parser(prog="contest-rating", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("design", help="optimize the protocol for a config")
    p.add_argument("config", help="key=value environment file")
    p.add_argument("--grid-m", type=int, default=DesignerConfig.gamma_grid_m, help="gamma1 grid resolution")
    p.add_argument("--oracle", action="store_true", help="cross-check with the grid oracle")
    p.add_argument("--oracle-r", type=int, default=DesignerConfig.oracle_grid_r, help="oracle grid resolution")
    p.add_argument("--out", help="also write the outcome as a one-row CSV")

    p = sub.add_parser("sweep", help="re-optimize along one parameter axis")
    p.add_argument("config")
    p.add_argument("--vary", required=True, choices=ENV_KEYS)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--grid-m", type=int, default=DesignerConfig.gamma_grid_m)
    p.add_argument("--out", help="CSV destination (default stdout)")

    protocol = argparse.ArgumentParser(add_help=False)  # the config and protocol of check and simulate
    protocol.add_argument("config")
    for f in fields(DesignParams):
        required = f.default is MISSING
        protocol.add_argument(f"--{f.name}", type=float, required=required, default=None if required else f.default)
    sub.add_parser("check", parents=[protocol], help="sustainability report for a given protocol")

    p = sub.add_parser("simulate", parents=[protocol], help="Monte-Carlo the protocol against the closed forms")
    p.add_argument("--seed", type=int, default=SimConfig.seed)
    p.add_argument("--periods", type=int, default=SimConfig.periods)
    p.add_argument("--replicates", type=int, default=SimConfig.replicates)
    p.add_argument("--population", type=int, default=SimConfig.population, help="matched pairs per replicate")
    p.add_argument("--out", help="CSV destination (default stdout)")
    p.add_argument("--counters", action="store_true", help="also write event counts to stderr as JSON")
    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _cmd_design(args) -> int:
    params = load_config(args.config)
    config = DesignerConfig(gamma_grid_m=args.grid_m, oracle_grid_r=args.oracle_r)
    try:
        outcome = optimize(params, config)
        code = 0
    except Infeasible as exc:
        outcome = DesignOutcome(params=params, feasible=False, cases=exc.cases)
        code = 2
    oracle = brute_force_oracle(params, config) if args.oracle else None
    _write_lines(None, _design_lines(outcome, oracle))
    if args.out:
        _write_lines(args.out, [_OUTCOME_CSV_HEADER, _outcome_csv_row(outcome)])
    return code


def _cmd_sweep(args) -> int:
    params = load_config(args.config)
    if args.step <= 0.0:
        return _fail(f"--step must be positive, got {args.step!r}")
    if args.start > args.stop:
        return _fail(f"empty sweep: --from {args.start!r} exceeds --to {args.stop!r}")
    config = DesignerConfig(gamma_grid_m=args.grid_m)
    lines = [_OUTCOME_CSV_HEADER]
    k = 0
    while True:
        value = args.start + k * args.step
        if value > args.stop + 1e-12:
            break
        k += 1
        point = with_params(params, **{args.vary: value})
        if validate(point):
            lines.append(_outcome_csv_row(DesignOutcome(params=point, feasible=False), invalid=True))
            continue
        try:
            outcome = optimize(point, config)
        except Infeasible as exc:
            outcome = DesignOutcome(params=point, feasible=False, cases=exc.cases)
        lines.append(_outcome_csv_row(outcome))
    _write_lines(args.out, lines)
    return 0


def _protocol(args) -> tuple[IntrinsicParams, DesignParams]:
    """The environment and protocol that check and simulate read; ValueError names each knob out of range."""
    params = load_config(args.config)
    design = DesignParams(*(getattr(args, f.name) for f in fields(DesignParams)))
    problems = design_violations(design)
    if problems:
        raise ValueError("; ".join(problems))
    return params, design


def _cmd_check(args) -> int:
    params, design = _protocol(args)
    report = is_sustainable(design, params)
    _write_lines(None, _check_lines(report))
    return 0 if report.sustainable else 2


def _cmd_simulate(args) -> int:
    params, design = _protocol(args)
    chain_cfg = SimConfig(periods=args.periods, replicates=args.replicates,
                          population=args.population, seed=args.seed)
    horizon = utility_horizon(params.delta)
    try:
        util_cfg = replace(chain_cfg, periods=max(args.periods, horizon))
    except ValueError as exc:  # only the horizon, not the user's periods, can overrun the draw block here
        raise ValueError(f"delta = {params.delta!r} needs a utility horizon of {horizon} periods"
                         f" (delta**periods < 1e-6): {exc}") from exc
    try:
        chain = run_chain(design, params, chain_cfg)
        util = run_utility(design, params, util_cfg)
    except DegenerateChain as exc:
        return _fail(str(exc))
    _write_lines(args.out, _simulate_lines(chain, util))
    if args.counters:
        import json  # here, so that plain runs do not pay for its import

        counts = {k: {"horizon": r.horizon, "promotions": r.promotions, "demotions": r.demotions}
                  for k, r in (("chain", chain), ("utility", util))}
        print(json.dumps(counts, sort_keys=True), file=sys.stderr)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "design": _cmd_design,
        "sweep": _cmd_sweep,
        "check": _cmd_check,
        "simulate": _cmd_simulate,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
