"""quatgrad benchmark: one workload per run, end-to-end or traced.

Run from the root of a checkout (quatgrad is imported from ./src):

    python3 benchmarks/run.py --workload grad_mix --seed 1 --seconds 30 --trace 0

Workloads: grad_mix, qlms_ident, cli_session, selfcheck (see
benchmarks/README.md).  Ops run from one closed-loop caller: the next op
starts only after the last one has finished, and at most one child
process runs at a time.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced windows, runs the per-layer probes, and
reports the per-layer metrics and the tracing overhead; its spans go to
.bench_out/trace-<workload>-<seed>.jsonl.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer
from workloads import (WORKLOADS, Failure, child_env, ref_step_ns, run_child,
                       setup)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_REPEATS = 3  # before and again after the timed ops
TRACED_OP_CAP = 8000

# A reference millisecond (ref_ms) is a measured millisecond scaled by
# the workload's reference: its nominal time over its time measured right
# before and after the same window (workloads.Workload.reference_ns).  The
# host's speed drifts by up to 2x over minutes and the reference drifts
# with it, so times in ref_ms keep still where wall-clock times do not.

END_TO_END = {
    "work_per_ref_s": "1/ref_s",
    "op_p50_ref_ms": "ref_ms",
    "op_tail_ref_ms": "ref_ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The wall-clock names each workload's metrics are also known by.
ALIASES = {
    "grad_mix": (("grad_per_s", "1/s", lambda v: v["work_per_s"]),
                 ("grad_p50_us", "us", lambda v: v["op_p50_ms"] * 1e3),
                 ("grad_tail_us", "us", lambda v: v["op_tail_ms"] * 1e3)),
    "qlms_ident": (("qlms_tap_iter_per_s", "1/s", lambda v: v["work_per_s"]),),
    "cli_session": (("cli_p50_ms", "ms", lambda v: v["op_p50_ms"]),
                    ("cli_tail_ms", "ms", lambda v: v["op_tail_ms"])),
    # a window is one pass, so this is the median pass time
    "selfcheck": (("validate_s", "s", lambda v: 1 / v["work_per_s"]),),
}

LAYERS = ("bench", "hr", "regular", "qlms", "validate", "cli")

PER_LAYER = {
    "wall.work_per_s": "1/s",
    "wall.op_p50_ms": "ms",
    "wall.op_tail_ms": "ms",
    "bench.ref_loop_ns": "ns",
    "bench.window_reference_ns": "ns",
    "bench.trace_overhead_pct": "%",
    **{f"self_us.{layer}": "us" for layer in LAYERS},
    "quaternion.new_ns": "ns",
    "quaternion.mul_ns": "ns",
    "quaternion.inverse_ns": "ns",
    **{f"regular.{fn}_us.{kind}": "us"
       for fn in ("real_gradient", "hr_derivative")
       for kind in ("exp", "ln", "tanh", "power")},
    "hr.left_from_real_us": "us",
    "hr.right_from_real_us": "us",
    "fd.hr_gradient_fd_us": "us",
    "fd.f_evals_per_grad": "count",
    "qlms.run_us_per_iter.m4": "us",
    "qlms.run_us_per_iter.m32": "us",
    "qlms.update_step_us.m4": "us",
    "qlms.update_step_us.m32": "us",
    "qlms.write_csv_ms": "ms",
    "qlms.read_csv_ms": "ms",
    "qlms.guard_fired_ratio": "ratio",
    "qlms.diverged_ratio": "ratio",
    **{f"cli.{name}_ms": "ms"
       for name in ("python_floor", "import_numpy", "import", "eval_grad",
                    "error_exit", "qlms_run", "validate")},
    **{f"validate.{suite}_s": "s"
       for suite in ("algebra", "rules", "series", "consistency", "fd")},
}


class Samples:
    """Op latencies in bounded memory: past CAP values, keep every other
    one and halve the sampling rate, so a faster program does not grow
    the benchmark's own footprint."""

    CAP = 1 << 16

    def __init__(self):
        self.values = array("d")
        self.stride = 1
        self.seen = 0

    def add(self, x):
        if self.seen % self.stride == 0:
            self.values.append(x)
            if len(self.values) == self.CAP:
                self.values = self.values[::2]
                self.stride *= 2
        self.seen += 1


def tail(values):
    """(value, percentile, samples): the highest percentile, up to p99, with
    at least 10 samples beyond it; the maximum when fewer than 21 samples
    would put that percentile at or below the median.  Past p99 the value
    is a handful of host stalls: p99.9 of 12,800 grad_mix ops varied by a
    quarter from run to run."""
    s = sorted(values)
    n = len(s)
    if n < 21:
        return s[-1], 100.0, n
    rank = min(n - 10, math.ceil(0.99 * n))
    return s[rank - 1], 100.0 * rank / n, n


class Result:
    """Op latencies and window rates, in wall-clock time and in reference
    time, plus the failure counts."""

    def __init__(self):
        self.latency = Samples()
        self.ref_latency = Samples()
        self.window_rates = []
        self.ref_window_rates = []
        self.ref_ns = []
        self.attempted = self.failed = self.known = self.unexpected = 0

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known
        self.unexpected += other.unexpected

    def record(self, failure):
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        if failure.known:
            self.known += 1
        else:
            if self.unexpected < 5:
                print(f"FAILED: {failure.reason}", file=sys.stderr)
            self.unexpected += 1


def measure(workload, tracer, seconds, result):
    """Run whole windows of ops for about `seconds` (at least one window):
    stop at the window boundary nearest to it.  Each op is timed alone;
    its output is checked after the clock stops, and an op that raises
    counts as failed without ending the run.  A window's rate is its
    completed work over its ops' time.  The workload's reference is timed
    before and after every window, outside the ops."""
    start = perf_counter()
    ref_before = workload.reference_ns()
    while True:
        window_start = perf_counter()
        work = busy = 0.0
        times = []
        for _ in range(workload.window):
            op = workload.next_op()
            tracer.start_op(result.attempted)
            t0 = perf_counter()
            try:
                with tracer.span("bench.op"):
                    out = workload.run(op, tracer)
                failure = None
            except Exception as exc:  # a failing op must not end the run
                failure = Failure(f"{type(exc).__name__}: {exc}")
            dt = perf_counter() - t0
            tracer.start_op(-1)
            if failure is None:
                try:
                    failure = workload.check(op, out)
                except Exception as exc:
                    failure = Failure(
                        f"check raised {type(exc).__name__}: {exc}")
            result.record(failure)
            times.append(dt)
            busy += dt
            if failure is None:
                work += workload.work(op)
        ref_after = workload.reference_ns()
        scale = workload.REF_NOMINAL_NS / ((ref_before + ref_after) / 2)
        result.ref_ns.append(ref_after)
        ref_before = ref_after
        for dt in times:
            result.latency.add(dt)
            result.ref_latency.add(dt * scale)
        result.window_rates.append(work / busy)
        result.ref_window_rates.append(work / (busy * scale))
        now = perf_counter()
        if now - start + (now - window_start) / 2 >= seconds:
            return


def setup_times(name, seed):
    """Seconds from spawning a fresh interpreter until the workload is set
    up, SETUP_REPEATS times.  perf_counter is CLOCK_MONOTONIC, shared by the
    parent and the child."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import workloads; workloads.setup(sys.argv[2], int(sys.argv[3]), "
            "sys.argv[4]); print(time.perf_counter())")
    env = child_env()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        code_, stdout, stderr = run_child(
            [sys.executable, "-c", code, BENCH_DIR, name, str(seed), OUT_DIR],
            env)
        if code_ != 0:
            raise RuntimeError(f"setup child failed:\n{stderr}")
        times.append(float(stdout.split()[-1]) - t0)
    return times


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    try:
        head = Path(".git/HEAD").read_text().strip()
        if head.startswith("ref: "):
            return Path(".git", head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def environment(args):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "git_commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def summary(result):
    """The wall-clock and reference-time figures of a measured result."""
    tail_ms, tail_pct, n = tail([x * 1e3 for x in result.latency.values])
    ref_tail_ms, _, _ = tail([x * 1e3 for x in result.ref_latency.values])
    return {
        "work_per_s": statistics.median(result.window_rates),
        "op_p50_ms": statistics.median(result.latency.values) * 1e3,
        "op_tail_ms": tail_ms,
        "work_per_ref_s": statistics.median(result.ref_window_rates),
        "op_p50_ref_ms": statistics.median(result.ref_latency.values) * 1e3,
        "op_tail_ref_ms": ref_tail_ms,
        "tail_note": f"p{tail_pct:.2f} of {n} sampled ops "
                     f"({result.latency.seen} run)",
    }


def end_to_end(name, seed, workload, seconds):
    # set-up samples on both sides of the timed ops see the same host drift
    setups = setup_times(name, seed)
    result = Result()
    measure(workload, NullTracer(), seconds, result)
    setups += setup_times(name, seed)
    for failure in workload.final_checks():
        result.record(failure)
    who = resource.RUSAGE_CHILDREN if name == "cli_session" \
        else resource.RUSAGE_SELF
    values = summary(result)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    notes = {"op_tail_ref_ms": values["tail_note"],
             "work_per_ref_s": f"median of {len(result.window_rates)} windows",
             "setup_s": f"median of {len(setups)} fresh interpreters"}
    for metric, unit in END_TO_END.items():
        print(f"{metric} {values[metric]:.6g} {unit}"
              + (f"  [{notes[metric]}]" if metric in notes else ""))
    print(f"wall clock: work_per_s {values['work_per_s']:.6g} 1/s, "
          f"op_p50_ms {values['op_p50_ms']:.6g} ms, "
          f"op_tail_ms {values['op_tail_ms']:.6g} ms; window reference "
          f"{statistics.median(result.ref_ns):.6g} ns (median of "
          f"{len(result.ref_ns)}, nominal {workload.REF_NOMINAL_NS:.6g})")
    for alias, unit, value in ALIASES[name]:
        print(f"{alias} {value(values):.6g} {unit}")
    return result, {k: {"value": values[k], "unit": unit}
                    for k, unit in END_TO_END.items()}


def traced(name, seed, workload, seconds):
    """Alternate untraced and traced windows, so that host drift falls on
    both alike, until `seconds` have passed or the traced ops reach
    TRACED_OP_CAP; then run the workload's probes."""
    result, traced_result = Result(), Result()
    tracer = Tracer()
    start = perf_counter()
    while perf_counter() - start < seconds and \
            traced_result.attempted < TRACED_OP_CAP:
        measure(workload, NullTracer(), 0.0, result)
        measure(workload, tracer, 0.0, traced_result)
    for failure in workload.final_checks():
        traced_result.record(failure)
    workload.probe(tracer)
    values = dict.fromkeys(PER_LAYER, 0.0)
    wall = summary(result)
    for key in ("work_per_s", "op_p50_ms", "op_tail_ms"):
        values[f"wall.{key}"] = wall[key]
    values["bench.window_reference_ns"] = statistics.median(
        result.ref_ns + traced_result.ref_ns)
    values["bench.trace_overhead_pct"] = 100 * (
        statistics.median(result.ref_window_rates)
        / statistics.median(traced_result.ref_window_rates) - 1)
    ops = traced_result.latency.seen
    for layer, ns in tracer.self_time_by_layer().items():
        if f"self_us.{layer}" in values:
            values[f"self_us.{layer}"] = ns / ops / 1e3
    covered = workload.layer_metrics(tracer)
    values.update(covered)
    path = Path(OUT_DIR, f"trace-{name}-{seed}.jsonl")
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path}")
    print(f"measured by {name} besides bench.* and self_us.*: "
          f"{', '.join(sorted(covered))}")
    result.merge(traced_result)
    return result, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "quatgrad", "__init__.py")):
        print("benchmark: src/quatgrad not found; run from the root of a "
              "quatgrad checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r} "
              f"(expected one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    env = environment(args)
    env["ref_loop_ns_before"] = ref_step_ns(20_000)
    workload = setup(args.workload, args.seed, OUT_DIR)
    if args.trace:
        result, values = traced(args.workload, args.seed, workload,
                                args.seconds)
    else:
        result, metrics = end_to_end(args.workload, args.seed, workload,
                                     args.seconds)
    env["ref_loop_ns_after"] = ref_step_ns(20_000)
    if args.trace:
        values["bench.ref_loop_ns"] = statistics.mean(
            (env["ref_loop_ns_before"], env["ref_loop_ns_after"]))
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in values.items()}
    share = result.failed / result.attempted
    print(f"fail_ratio {share:.6g} ({result.failed} of {result.attempted} ops;"
          f" {result.known} known defect, {result.unexpected} unexpected)")
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": result.unexpected == 0,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
