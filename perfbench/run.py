#!/usr/bin/env python3
"""rydeit benchmark: one workload, one process, closed loop, one client.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; rydeit is imported from ./src.
Workloads (see perfbench/README.md): spectrum, peak_scan, crosscheck.

--trace 0 measures the end-to-end metrics: set-up time (fresh interpreter
through `import rydeit.cli`, median of several launches), op time (median
and tail), delivered rows per second of op time, failed ops and peak
resident memory.  The process runs on one CPU, and its times are wall
times scaled to a reference machine speed by a probe run between ops
(speed.py); the unscaled ones are printed too.  --trace 1 repeats a fixed
batch of the workload's first ops (8 spectrum ops, 4 peak-shift ops, one
crosscheck round), alternating untraced and traced passes, and reports
per-layer calls, total and self time and counts per batch, plus the tracing
overhead.

Every op's output is checked after the timed region.  Human-readable lines
go to stdout; the last line is one JSON object {correct, attempted, failed,
metrics}.  The full record (environment, per-op times, spans) is written to
--out (default .perfbench/<workload>-s<seed>-t<trace>.json).
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import checks
import ops
import spans
import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_LAUNCHES = 15     # timed launches for setup_s, after one warm-up
LAUNCH_TIMEOUT_S = 30
PROCESS_BUDGET_S = 170  # everything, set-up and checks included


class TimeLimit(BaseException):
    """The run's wall-clock limit passed; raised inside whatever was running.

    A BaseException, so that the library's own handlers do not swallow it.
    """


def _alarm(signum, frame):
    raise TimeLimit()


def arm(deadline):
    """Raise TimeLimit in this process once perf_counter passes `deadline`."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.perf_counter(), 1e-3))


def disarm():
    signal.setitimer(signal.ITIMER_REAL, 0)


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the (n-10)-th smallest of n.  With ten or fewer
    samples no percentile qualifies and the smallest is returned."""
    ordered = sorted(values)
    k = max(len(ordered) - 10, 1)
    return ordered[k - 1], 100.0 * k / len(ordered)


def setup_times(speedometer, launches=SETUP_LAUNCHES):
    """(wall, scaled) seconds of fresh `import rydeit.cli` interpreters,
    after one untimed warm-up launch that fills the bytecode cache, with a
    speed probe before each launch and after the last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    code = "import rydeit.cli, sys; sys.stdout.write(rydeit.cli.__file__)"
    launched = []
    for i in range(launches + 1):
        speedometer.tick()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=LAUNCH_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.startswith(SRC):
            raise RuntimeError(f"import rydeit.cli failed: {proc.stderr[-500:]}")
        if i:
            launched.append((t0, dt))
    speedometer.tick(force=True)
    return ([dt for _, dt in launched],
            [dt * speedometer.factor(t0, t0 + dt) for t0, dt in launched])


def import_rydeit():
    """The rydeit package of this checkout, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "rydeit", "__init__.py")):
        sys.exit(f"perfbench: no rydeit source under {SRC}")
    sys.path.insert(0, SRC)
    import rydeit
    import rydeit.cli  # noqa: F401  (the CLI module the ops call)

    if not rydeit.__file__.startswith(SRC):
        sys.exit(f"perfbench: imported rydeit from {rydeit.__file__}")
    return rydeit


def environment(rydeit, args):
    """What a result must record to be compared with another."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "rydeit")
    for name in sorted(os.listdir(package)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        rev = proc.stdout.strip() or None

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": rev, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "active_backend": rydeit.active_backend(),
        "RYDEIT_BACKEND": os.environ.get("RYDEIT_BACKEND"),
    }


class Runner:
    """Executes ops, timing each, and checks them afterwards."""

    def __init__(self, rydeit, workdir):
        self.rydeit = rydeit
        self.workdir = workdir
        self.state = ops.RoundState()
        self.done = []      # (op, start, seconds, result, error)

    def run(self, op, keep=True):
        t0 = time.perf_counter()
        result = error = None
        try:
            result = ops.execute(op, self.workdir, self.state, self.rydeit)
        except TimeLimit:
            error = "exceeded the run's time limit"
            keep = True  # a hang shows as a failed op, warm-up or not
            raise
        except Exception:
            error = traceback.format_exc(limit=-3)
        finally:
            seconds = time.perf_counter() - t0
            if keep:
                self.done.append((op, t0, seconds, result, error))
        return seconds

    def check_all(self, deadline):
        """Per-op records with delivered rows; unchecked ops fail."""
        records = []
        arm(deadline)
        try:
            for op, start, seconds, result, error in self.done:
                rows = 0
                if error is None:
                    try:
                        rows = checks.check(op, result, self.workdir)
                    except (checks.CheckFailed, OSError, ValueError) as exc:
                        error = f"output check: {exc}"
                records.append(dict(kind=op.kind, command=op.extra.get("command"),
                                    start=start, seconds=seconds, rows=rows,
                                    flagged=op.rows - rows if error is None else 0,
                                    error=error))
        except TimeLimit:
            pass
        finally:
            disarm()
        for op, start, seconds, _, error in self.done[len(records):]:
            records.append(dict(kind=op.kind, command=op.extra.get("command"),
                                start=start, seconds=seconds, rows=0, flagged=0,
                                error=error or "output not checked in time"))
        return records


def timed_loop(runner, speedometer, workload, seed, seconds, deadline):
    """Ops in sequence until `seconds` have passed, after one warm-up op,
    with a speed probe before each op that starts PROBE_EVERY_S or more after
    the last probe, and one after the last op."""
    sequence = ops.generate(workload, seed)
    arm(deadline)
    try:
        runner.run(ops.trace_batch(workload, seed)[0], keep=False)
        runner.state = ops.RoundState()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            speedometer.tick()
            runner.run(next(sequence))
    except TimeLimit:
        pass
    finally:
        disarm()
    speedometer.tick(force=True)


def traced_loop(runner, tracer, workload, seed, seconds, deadline):
    """The trace batch untraced then traced, repeated while another pair
    fits in `seconds`.  Returns (untraced walls, traced walls) of the passes."""
    batch = ops.trace_batch(workload, seed)
    plain, traced = [], []
    arm(deadline)
    try:
        runner.run(batch[0], keep=False)  # warm-up
        start = time.perf_counter()
        while True:
            runner.state = ops.RoundState()
            plain.append(sum(runner.run(op, keep=False) for op in batch))
            runner.state = ops.RoundState()
            with tracer.installed():
                wall = 0.0
                for op in batch:
                    tracer.op_id = len(runner.done)
                    with tracer.span(spans.ROOT_SPAN):
                        wall += runner.run(op)
            traced.append(wall)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(traced) > seconds:
                break
    except TimeLimit:
        pass
    finally:
        disarm()
    return plain, traced


def layer_metrics(tracer, plain, traced):
    """Per-layer metrics per traced batch."""
    rounds = max(len(traced), 1)
    totals = spans.layer_totals(tracer.spans)
    metrics = {}
    for name in (spans.ROOT_SPAN,) + spans.TRACED:
        calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / rounds, "count")
        metrics[f"{name}.total_s"] = (total / rounds, "s")
        metrics[f"{name}.self_s"] = (self_s / rounds, "s")
    counts = tracer.counts
    kernel = "backend.avg_susceptibility"
    evaluated = counts[f"{kernel}.evals"] / 15
    metrics[f"{kernel}.panels"] = (counts[f"{kernel}.panels"] / rounds, "count")
    metrics[f"{kernel}.evals"] = (counts[f"{kernel}.evals"] / rounds, "count")
    metrics[f"{kernel}.panel_yield"] = (
        counts[f"{kernel}.panels"] / evaluated if evaluated else 0.0, "ratio")
    for name in (f"{kernel}.nonconverged", "nnd.expect.panels",
                 "analysis.sweep.points"):
        metrics[name] = (counts[name] / rounds, "count")
    metrics["cli.run.bytes_out"] = (counts["cli.run.bytes_out"] / rounds, "B")
    n = min(len(plain), len(traced))
    metrics["trace.overhead_frac"] = (
        sum(traced[:n]) / sum(plain[:n]) - 1.0 if n else 0.0, "ratio")
    return metrics


def end_to_end_metrics(setup, records, peak_rss_mb, key="scaled_s"):
    """End-to-end metrics from the op times under `key`, and the
    percentile op_tail_s stands for."""
    times = [r[key] for r in records]
    op_tail, percentile = tail(times)
    # failed ops deliver no rows; they count in `failed`, not here
    passed = [r for r in records if r["error"] is None] or [{"rows": 0, key: 1.0}]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (op_tail, "s"),
        "rows_per_s": (sum(r["rows"] for r in passed)
                       / sum(r[key] for r in passed), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, percentile


def main(argv=None):
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="record file")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    rydeit = import_rydeit()
    env = environment(rydeit, args)
    speedometer = speed.Speedometer()
    cpu = speed.pin_to_one_cpu()
    setup_wall, setup = ([], []) if args.trace else setup_times(speedometer)

    out = args.out or os.path.join(
        ROOT, ".perfbench", f"{args.workload}-s{args.seed}-t{args.trace}.json")
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir)
    # an op still running this long after the loop's end fails
    grace = max(30.0, args.seconds)
    try:
        runner = Runner(rydeit, workdir)
        tracer = spans.Tracer()
        loop_deadline = time.perf_counter() + args.seconds + grace
        if args.trace:
            plain, traced = traced_loop(runner, tracer, args.workload,
                                        args.seed, args.seconds, loop_deadline)
        else:
            timed_loop(runner, speedometer, args.workload, args.seed,
                       args.seconds, loop_deadline)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        records = runner.check_all(process_start + PROCESS_BUDGET_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(r["error"] is not None for r in records)
    if not args.trace:
        for r in records:
            r["scaled_s"] = r["seconds"] * speedometer.factor(
                r["start"], r["start"] + r["seconds"])
    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"backend {env['active_backend']}  ops {attempted}"]
    if args.trace:
        metrics = layer_metrics(tracer, plain, traced)
        lines.append(f"batches traced {len(traced)}  untraced batch wall "
                     f"{statistics.median(plain or [0.0]):.4f} s  traced "
                     f"batch wall {statistics.median(traced or [0.0]):.4f} s")
        root = metrics[f"{spans.ROOT_SPAN}.total_s"][0]
        self_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        lines.append(f"sum of self times / traced op wall = "
                     f"{self_sum / root if root else 0.0:.6f}")
    else:
        metrics, percentile = end_to_end_metrics(setup, records, peak_rss_mb)
        wall, _ = end_to_end_metrics(setup_wall, records, peak_rss_mb,
                                     key="seconds")
        lines.append(f"op_tail_s is p{percentile:.1f} of {attempted} ops")
        lines.append(f"fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
        flagged = sum(r["flagged"] for r in records)
        if flagged:
            lines.append(f"rows flagged {ops.UNBRACKETED!r} and confirmed "
                         f"by the reference: {flagged}")
        probes = speedometer.seconds
        lines.append(f"speed probe on cpu {cpu}: {len(probes)} probes, median "
                     f"block {statistics.median(probes):.6g} s, range "
                     f"{min(probes):.6g}-{max(probes):.6g} s, reference "
                     f"{speed.REFERENCE_S:.6g} s")
        lines.append("unscaled wall times: " + "  ".join(
            f"{name} {value:.6g}" for name, (value, unit) in wall.items()
            if unit in ("s", "1/s")))
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:48s} {value:.6g} {unit}")
    for r in records:
        if r["error"]:
            lines.append(f"FAILED {r['kind']} {r['command'] or ''}: "
                         f"{r['error'].strip().splitlines()[-1]}")

    record = {
        "env": env, "benchmark": _benchmark_json(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed,
        "setup_launches_s": setup_wall, "setup_launches_scaled_s": setup,
        "cpu": cpu, "probes": {"at": speedometer.at, "seconds": speedometer.seconds},
        "ops": records,
    }
    if args.trace:
        record["batch_wall_s"] = {"untraced": plain, "traced": traced}
    else:
        record["tail_percentile"] = percentile
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(out + ".spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"]}))
    return 0


def _benchmark_json():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except OSError:
        return None


if __name__ == "__main__":
    sys.exit(main())
