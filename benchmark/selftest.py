"""Self-tests of the benchmark on tiny inputs: python3 benchmark/selftest.py"""

from __future__ import annotations

import tempfile
import unittest
from pathlib import Path

import run

cli, workloads = run.load_program()
run.OUT.mkdir(exist_ok=True)
import tracing  # noqa: E402  (needs the program on sys.path)

from contest_rating.params import default_params, with_params  # noqa: E402


def tiny_ops(workdir: Path) -> list:
    default = default_params()
    perfect = with_params(default, eps1=0.0, eps2=0.0)
    paths = {}
    for name, params in (("default", default), ("perfect", perfect)):
        paths[name] = workdir / f"{name}.cfg"
        paths[name].write_text(workloads.config_text(params), encoding="utf-8")
    design = ("--grid-m", "20")
    oracle = design + ("--oracle", "--oracle-r", "12")
    simulate = (
        "--alpha", "1", "--beta", "0.947368421053", "--gamma1", "0.52",
        "--periods", "300", "--population", "2", "--replicates", str(workloads.SIM_REPLICATES),
    )
    # one pool: the same simulate op at SIM_SEEDS_PER_PROTOCOL seeds
    return [
        workloads.Op(("design", str(paths["default"])) + design, default),
        workloads.Op(("design", str(paths["perfect"])) + oracle, perfect),
        workloads.Op(("design", str(paths["default"])) + oracle, default),
    ] + [
        workloads.Op(("simulate", str(paths["default"])) + simulate + ("--seed", str(seed)), default)
        for seed in range(7, 7 + workloads.SIM_SEEDS_PER_PROTOCOL)
    ]


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory(dir=run.OUT)
        self.ops = tiny_ops(Path(self._dir.name))

    def tearDown(self):
        self._dir.cleanup()

    def traced_counts(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for index, op in enumerate(self.ops):
                tracer.op = index
                run.execute(cli, op)
        finally:
            tracer.uninstall()
        return tracer

    def test_counts_repeat_exactly_across_traced_runs(self):
        first, second = self.traced_counts(), self.traced_counts()
        self.assertEqual(first.calls, second.calls)
        self.assertEqual(first.raised, second.raised)
        self.assertEqual(first.counts, second.counts)
        self.assertEqual(len(first.span_name), len(second.span_name))
        for key in (
            "designer.gamma1_points", "designer.oracle_cells", "simulate.agent_periods",
            "simulate.promotions", "simulate.demotions",
        ):
            self.assertGreater(first.counts[key], 0, key)
        self.assertEqual(first.counts["designer.gamma1_points"], 3 * 2 * 20)
        self.assertEqual(first.counts["designer.oracle_cells"], 2 * 12**3)
        self.assertEqual(
            first.counts["simulate.agent_periods"],
            workloads.SIM_SEEDS_PER_PROTOCOL * 3 * 2 * 300 * workloads.SIM_REPLICATES * 2,
        )
        self.assertGreater(first.calls["payoffs.payoff_line"], 0)
        self.assertEqual(first.calls["cli.main"], len(self.ops))
        # perfect monitoring: every grid point's coefficients raise
        self.assertEqual(first.raised["incentives.constraint_coefficients"], 2 * 20)

    def test_uninstall_restores_the_package(self):
        import contest_rating.designer as designer

        original = designer.payoff_line
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(designer.payoff_line, original)
        tracer.uninstall()
        self.assertIs(designer.payoff_line, original)

    def test_self_time_excludes_child_spans(self):
        tracer = self.traced_counts()
        for name, total in tracer.total_s.items():
            self.assertLessEqual(tracer.self_s[name], total + 1e-12, name)
        layers = sum(tracer.self_s.values())
        self.assertAlmostEqual(layers, tracer.total_s["cli.main"], delta=1e-9 * len(self.ops) + 1e-6)

    def runs(self):
        return [(i, *run.execute(cli, op)[:2]) for i, op in enumerate(self.ops)]

    def test_unchanged_outputs_pass_and_known_defect_is_named(self):
        runs = self.runs()
        reference = [workloads.digest(code, out) for _, code, out in runs]
        failed, unexplained, causes = run.judge(workloads, self.ops, runs, reference)
        self.assertEqual((failed, unexplained), (1, 0))
        self.assertEqual(dict(causes), {workloads.KNOWN_DEFECT: 1})

    def test_changed_output_is_a_failed_op(self):
        runs = self.runs()
        reference = [workloads.digest(code, out) for _, code, out in runs]
        index, code, out = runs[0]
        runs.append((index, code, out.replace("case=", "case= ")))
        failed, unexplained, causes = run.judge(workloads, self.ops, runs, reference)
        self.assertEqual((failed, unexplained), (2, 1))
        self.assertEqual(causes["output differs from the recorded reference"], 1)
        # without a reference, a repeat that differs from the first run fails
        failed, unexplained, causes = run.judge(workloads, self.ops, runs, None)
        self.assertEqual(causes["output changed between repeats of the op"], 1)

    def test_checks_catch_wrong_answers(self):
        (_, code, design_out), _, _, (_, sim_code, sim_out), *_ = self.runs()
        op, sim_op = self.ops[0], self.ops[3]
        self.assertIsNone(workloads.check(op, code, design_out))
        self.assertIsNone(workloads.check(sim_op, sim_code, sim_out))
        wrong_utility = design_out.replace("utility=0.", "utility=0.1", 1)
        self.assertIn("social_utility_closed", workloads.check(op, code, wrong_utility))
        self.assertIn("exit code", workloads.check(op, 1, design_out))
        self.assertIn("untyped", workloads.check(op, "untyped exception KeyError: 1", ""))
        self.assertIn("malformed", workloads.check(op, 0, "feasible=true\nsustainable=true\n"))
        garbled = [sim_out.splitlines()[0]] + ["eta0,x,1,1,1"] * 7
        self.assertIn("malformed", workloads.check(sim_op, 0, "\n".join(garbled) + "\n"))

    def test_pooled_z_catches_a_modest_bias(self):
        """eta1 + 0.05 in every op of a pool fails it, at the workloads' own shapes."""
        for name in ("sim_long", "sim_wide"):
            with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
                ops = workloads.build_ops(name, workloads.DEFAULT_SEED, Path(workdir))
                pool = [op for op in ops if op.argv[1:8] == ops[0].argv[1:8]]
                self.assertEqual(len(pool), workloads.SIM_SEEDS_PER_PROTOCOL)
                outputs = {i: run.execute(cli, op)[1] for i, op in enumerate(pool)}
            self.assertEqual(workloads.check_pools(pool, outputs), {}, name)
            biased = {}
            for i, output in outputs.items():
                lines = output.splitlines()
                row = lines[2].split(",")
                self.assertEqual(row[0], "eta1")
                row[2] = repr(float(row[2]) + 0.05)
                lines[2] = ",".join(row)
                biased[i] = "\n".join(lines) + "\n"
            failures = workloads.check_pools(pool, biased)
            self.assertEqual(sorted(failures), sorted(outputs), name)
            self.assertIn("pooled |z| of eta1", failures[0])
            # an incomplete pool is not checked against a bound fixed for 16 replicates
            self.assertIn("pool of 3", workloads.check_pools(pool, dict(list(outputs.items())[:3]))[0])

    def test_host_speed_kernel_never_calls_the_program(self):
        import hostspeed

        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertGreater(hostspeed.kernel(), 0.0)
        finally:
            tracer.uninstall()
        self.assertEqual(sum(tracer.calls.values()), 0)

    def test_inputs_repeat_for_a_seed(self):
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=run.OUT) as a, tempfile.TemporaryDirectory(dir=run.OUT) as b:
                first = workloads.build_ops(name, 5, Path(a))
                second = workloads.build_ops(name, 5, Path(b))
                self.assertEqual([op.params for op in first], [op.params for op in second])
                self.assertEqual(
                    [op.argv[2:] for op in first], [op.argv[2:] for op in second]
                )


if __name__ == "__main__":
    unittest.main()
