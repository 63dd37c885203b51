#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Covers the tail-percentile rule, self time on nested spans and the
tracer's install/restore, identical inputs for identical seeds, the output
check rejecting results perturbed by 1e-4 relative, the check of `peak not
bracketed` rows, the speed probe's scaling, the wall-clock limit turning a
hang into a failed op, the metric names against BENCHMARK.json, and the
refusal to report without the program's source.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.tail(values), (90, 90.0))
        value, percentile = run.tail(range(1, 26))
        self.assertEqual(value, 15)
        self.assertEqual(percentile, 60.0)
        self.assertEqual(sum(v > value for v in range(1, 26)), 10)

    def test_too_few_samples(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (1.0, 100.0 / 3))
        self.assertEqual(run.tail(range(1, 12)), (1, 100.0 / 11))


class SpanTest(unittest.TestCase):
    def test_self_time_nested(self):
        clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
        tracer = spans.Tracer(clock=lambda: next(clock))
        with tracer.span("root"):           # 0 .. 10
            with tracer.span("a"):          # 1 .. 4
                with tracer.span("leaf"):   # 2 .. 3
                    pass
            with tracer.span("a"):          # 5 .. 9
                pass
        totals = spans.layer_totals(tracer.spans)
        self.assertEqual(totals["root"], [1, 10.0, 3.0])
        self.assertEqual(totals["a"], [2, 7.0, 6.0])
        self.assertEqual(totals["leaf"], [1, 1.0, 1.0])
        self.assertEqual(sum(t[2] for t in totals.values()), 10.0)

    def test_install_wraps_every_binding_and_restores(self):
        pkg = types.ModuleType("fakepkg")
        low = types.ModuleType("fakepkg.low")
        high = types.ModuleType("fakepkg.high")

        def inner(x):
            return x + 1

        low.inner = inner
        high.inner = inner      # as after `from .low import inner`
        high.outer = lambda x: high.inner(x) * 2
        pkg.inner = inner       # a re-export
        saved = {k: sys.modules.get(k) for k in ("fakepkg", "fakepkg.low",
                                                 "fakepkg.high")}
        sys.modules.update({"fakepkg": pkg, "fakepkg.low": low,
                            "fakepkg.high": high})
        try:
            tracer = spans.Tracer(package="fakepkg")
            with tracer.installed(("low.inner", "high.outer")):
                self.assertEqual(high.outer(1), 4)
                self.assertEqual(pkg.inner(0), 1)
            self.assertIs(high.inner, inner)
            self.assertIs(pkg.inner, inner)
            names = [(s[0], s[3]) for s in tracer.spans]
            self.assertEqual(names, [("high.outer", -1), ("low.inner", 0),
                                     ("low.inner", -1)])
        finally:
            for key, module in saved.items():
                if module is None:
                    sys.modules.pop(key, None)
                else:
                    sys.modules[key] = module


class SeedTest(unittest.TestCase):
    @staticmethod
    def inputs(workload, seed, count=40):
        sequence = ops.generate(workload, seed)
        return [(op.kind, op.argv, op.point, op.extra, op.check_seed)
                for op, _ in zip(sequence, range(count))]

    def test_same_seed_same_inputs(self):
        for workload in ops.WORKLOADS:
            self.assertEqual(self.inputs(workload, 7), self.inputs(workload, 7))
            self.assertNotEqual(self.inputs(workload, 7),
                                self.inputs(workload, 8))

    def test_ranges(self):
        for op in ops.generate("spectrum", 3):
            if op.round_index == 5:
                break
            p = op.point
            self.assertTrue(ops.OMEGA_C[0] <= p["omega_c"] <= ops.OMEGA_C[1])
            self.assertTrue(0 < p["omega_p_in"] <= 0.3)
            self.assertTrue(ops.GAMMA0[0] <= p["gamma0"] <= ops.GAMMA0[1])
            self.assertTrue(max(abs(p["delta_p"]), abs(p["delta_c"])) <= 2)


def _rydeit():
    return run.import_rydeit()


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.rydeit = _rydeit()
        scratch = os.path.join(run.ROOT, ".perfbench")
        os.makedirs(scratch, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=scratch)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def first(self, workload, kind, command=None):
        for op in ops.trace_batch(workload, 11):
            if op.kind == kind and op.extra.get("command") == command:
                return op
        raise LookupError(kind)

    def perturb_csv(self, path, column, change):
        with open(path) as fh:
            lines = [line for line in fh if not line.startswith("#")]
        table = list(csv.reader(lines))
        j = table[0].index(column)
        for row in table[1:]:
            row[j] = repr(change(float(row[j])))
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)

    def cli_op(self, workload, command, column):
        op = self.first(workload, "cli", command)
        op.argv = ["--format=csv" if a.startswith("--format=") else a
                   for a in op.argv]
        op.output = op.output.rsplit(".", 1)[0] + ".csv"
        ops.execute(op, self.workdir, ops.RoundState(), self.rydeit)
        path = os.path.join(self.workdir, op.output)
        with open(path) as fh:
            original = fh.read()
        self.assertEqual(checks.check(op, None, self.workdir), op.rows)
        for col in column:
            for factor in (1 + 1e-4, 1 - 1e-4):
                self.perturb_csv(path, col, lambda v: v * factor)
                with self.assertRaises(checks.CheckFailed, msg=col):
                    checks.check(op, None, self.workdir)
                with open(path, "w") as fh:
                    fh.write(original)

    def test_spectrum_perturbed(self):
        self.cli_op("spectrum", "spectrum", ("transmission_ddi", "phase_ddi"))

    def test_ddi_table_perturbed(self):
        # only the attenuation excess: a phase excess can be far smaller than
        # the phase whose quadrature error sets its tolerance
        self.cli_op("crosscheck", "ddi", ("delta_beta_quad",))

    def test_peak_off_the_maximum(self):
        op = self.first("peak_scan", "cli", "peak-shift")
        ops.execute(op, self.workdir, ops.RoundState(), self.rydeit)
        checks.check(op, None, self.workdir)
        self.perturb_csv(os.path.join(self.workdir, op.output),
                         "shift_numerical", lambda v: v + 0.02)  # ~7 steps
        with self.assertRaises(checks.CheckFailed):
            checks.check(op, None, self.workdir)

    def test_unbracketed_rows_verified(self):
        # a probe-axis point where the far wing of the delta_c = -2 and -1.5
        # sweeps rises above the EIT peak inside the window
        point = dict(alpha=40.026434124246826, omega_c=0.8555516678262475,
                     omega_p_in=0.257198545306615, delta_p=0.0,
                     delta_c=0.029734422806018124,
                     gamma0=0.036346613582942396,
                     strength=0.33780573767644817, positive_c6=False,
                     axis="probe")
        op = ops.Op(kind="cli", point=point, rows=9, output="edge.csv",
                    extra={"command": "peak-shift"})
        op.argv = (["peak-shift"] + ops._common_argv(point)
                   + ["--axis=probe", f"--grid={ops.PEAK_GRID}"])
        status = ops.execute(op, self.workdir, ops.RoundState(), self.rydeit)
        self.assertEqual(status, ops.EXIT_FLAGGED)
        self.assertEqual(checks.check(op, status, self.workdir), 7)
        path = os.path.join(self.workdir, op.output)
        with open(path) as fh:
            lines = fh.read().splitlines()
        # flag the delta_c = 0 row, whose peak is inside the window
        row = next(i for i, line in enumerate(lines) if line.startswith("0,"))
        lines[row] = "0,0.0,nan," + ops.UNBRACKETED
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with self.assertRaises(checks.CheckFailed):
            checks.check(op, status, self.workdir)

    def test_on_resonance_perturbed(self):
        op = self.first("crosscheck", "on_resonance")
        db, dp = ops.execute(op, self.workdir, ops.RoundState(), self.rydeit)
        checks.check(op, (db, dp), self.workdir)
        for bad in ((db * (1 + 1e-4), dp), (db, dp * (1 - 1e-4))):
            with self.assertRaises(checks.CheckFailed):
                checks.check(op, bad, self.workdir)


class SpeedTest(unittest.TestCase):
    def meter(self, at, blocks):
        now, values = iter(at), iter(blocks)
        meter = speed.Speedometer(clock=lambda: next(now),
                                  measure=lambda: next(values))
        for _ in blocks:
            meter.tick(force=True)
        return meter

    def test_tick_skips_a_probe_too_soon(self):
        now, values = iter([1.0, 1.05, 2.0, 2.01]), iter([1e-3, 2e-3])
        meter = speed.Speedometer(clock=lambda: next(now),
                                  measure=lambda: next(values))
        meter.tick()
        meter.tick()        # 0.05 s after the last probe: skipped
        meter.tick()
        self.assertEqual(meter.at, [1.0, 2.01])
        self.assertEqual(meter.seconds, [1e-3, 2e-3])

    def test_factor_uses_the_probes_around_a_call(self):
        ref = speed.REFERENCE_S
        meter = self.meter([1.0, 1.5, 2.0, 5.0, 30.0],
                           [1e-3, 3e-3, 2e-3, 4e-3, 8e-3])
        # a short call sees the probes within WINDOW_S = 1 s
        self.assertAlmostEqual(meter.factor(1.6, 1.7), ref / 2e-3)
        self.assertAlmostEqual(meter.factor(5.5, 5.6), ref / 4e-3)
        # a 1-s call sees those within 5 s
        self.assertAlmostEqual(meter.factor(2.5, 3.5), ref / 2.5e-3)
        with self.assertRaises(ValueError):
            meter.factor(12.0, 13.0)

    def test_probe_is_timed(self):
        self.assertGreater(speed.probe(), 0.0)


class TimeLimitTest(unittest.TestCase):
    def test_hang_becomes_failed_op(self):
        calls = []

        def hanging(op, workdir, state, rydeit):
            calls.append(op)
            while len(calls) > 2:
                pass

        original = ops.execute
        ops.execute = hanging
        try:
            runner = run.Runner(rydeit=None, workdir=None)
            t0 = time.perf_counter()
            meter = speed.Speedometer(measure=lambda: speed.REFERENCE_S)
            run.timed_loop(runner, meter, "spectrum", 1, seconds=60.0,
                           deadline=time.perf_counter() + 0.3)
            self.assertLess(time.perf_counter() - t0, 5.0)
        finally:
            ops.execute = original
        errors = [error for *_, error in runner.done]
        self.assertEqual(errors, [None, "exceeded the run's time limit"])


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        layer = run.layer_metrics(spans.Tracer(), [1.0], [1.0])
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(layer))
        records = [dict(seconds=0.5, scaled_s=0.4, rows=3, error=None)]
        e2e, _ = run.end_to_end_metrics([0.2], records, 40.0)
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(e2e))
        for m in bench["end_to_end"] + bench["per_layer"]:
            value, unit = (layer.get(m["name"]) or e2e[m["name"]])
            self.assertEqual(unit, m["unit"], m["name"])

    def test_refuses_without_program(self):
        scratch = os.path.join(run.ROOT, ".perfbench")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "spectrum",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
