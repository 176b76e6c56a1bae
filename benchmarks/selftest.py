"""Self-test of the benchmark's own checking and failure accounting.

Run from the root of a checkout:

    python3 benchmarks/selftest.py

It feeds the real measurement loop ops whose outputs are deliberately
wrong and checks that each one counts as failed without ending the run:
a perturbed gradient, a wrong exit code and an op that raises.  It also
checks that the known cli defect is classified as known, that correct ops
pass, and that BENCHMARK.json lists exactly the metrics run.py reports.
Exit code 0 when every check holds, 1 otherwise.
"""

import json
import os
import sys

sys.path.insert(0, os.path.abspath("src"))

from run import END_TO_END, PER_LAYER, Result, measure  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import CliOp, setup  # noqa: E402

PROBLEMS = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        PROBLEMS.append(message)


class FixedOps:
    """Wraps a workload so that it replays a fixed list of ops as one
    window."""

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = list(ops)
        self.window = len(self.ops)

    def next_op(self):
        return self.ops.pop(0)

    def __getattr__(self, name):
        return getattr(self.workload, name)


class PerturbedFn:
    """An Elementary whose real gradient is off by 1e-6 in dA."""

    def __init__(self, fn, qg):
        self.fn, self.qg = fn, qg

    def real_gradient(self, q):
        g = self.fn.real_gradient(q)
        return self.qg.RealGradient(g.dA + 1e-6, g.dB, g.dC, g.dD)

    def hr_derivative(self, q):
        return self.fn.hr_derivative(q)


class RaisingFn:
    def real_gradient(self, q):
        raise ZeroDivisionError("deliberate")


def run_window(workload, ops):
    result = Result()
    measure(FixedOps(workload, ops), NullTracer(), 0.0, result)
    return result


def grad_checks():
    grad = setup("grad_mix", 7, ".bench_out")
    good = [grad.next_op() for _ in range(8)]
    result = run_window(grad, good)
    expect(result.attempted == 8 and result.failed == 0,
           "grad_mix: 8 generated ops pass their checks")

    kind, fn, q, side = good[0]
    bad = [(kind, PerturbedFn(fn, grad.qg), q, side),
           (kind, RaisingFn(), q, side), good[1]]
    result = run_window(grad, bad)
    expect(result.attempted == 3, "grad_mix: a raising op does not end the run")
    expect(result.failed == 2 and result.unexpected == 2,
           "grad_mix: perturbed gradient and raising op both count as failed")


def cli_checks():
    cli = setup("cli_session", 7, ".bench_out")
    ops = cli.rotation()
    result = run_window(cli, ops)
    expect(result.attempted == 13 and result.unexpected == 0,
           "cli_session: one rotation has no unexpected failure")
    expect(result.failed == result.known <= 1,
           "cli_session: only the overflow op may fail, as a known defect")

    wrong = [CliOp("eval_grad", ("eval-grad", "--side", "left", "exp", "--",
                                 "0.5+0.1i+0.2j"), 0),
             CliOp("error_exit", ("eval-grad", "ln", "--", "-1+0i+0j+0k"), 1,
                   known_defect=True)]
    result = run_window(cli, wrong)
    expect(result.failed == 2 and result.known == 0,
           "cli_session: wrong exit codes count as unexpected failures")


def benchmark_json_checks():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END,
           "BENCHMARK.json end_to_end names and units match run.py")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER,
           "BENCHMARK.json per_layer names and units match run.py")


def main():
    if not os.path.isfile(os.path.join("src", "quatgrad", "__init__.py")):
        print("selftest: run from the root of a quatgrad checkout",
              file=sys.stderr)
        return 2
    grad_checks()
    cli_checks()
    benchmark_json_checks()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
