"""The four benchmark workloads.

Each workload makes its inputs from a seeded `random.Random`, so the same
seed gives the same op sequence, and drives quatgrad only through its
public API or `python -m quatgrad`.  Ops come in fixed rotations (one of
each kind); a window is a whole number of rotations, so every window has
the same mix.  The benchmark's own inputs use the stdlib only: importing
numpy here would hide a lazy numpy import in quatgrad from `setup_s`.

Interface of a workload class:
  window        ops per window (whole rotations)
  next_op()     the next generated op
  run(op, tr)   the op's calls into quatgrad, with a span around each
  check(op, out)  None when the output is correct, else a Failure
  work(op)      units of work the op does (grads, tap-iterations, ...)
  warm_up()     one untimed op of each kind, on fixed inputs
  final_checks()  untimed end-of-run checks: a Failure or None for each
  probe(tr)     traced per-layer probes outside the ops
  layer_metrics(tr)  per-layer metrics this workload covers
  reference_ns(), REF_NOMINAL_NS  the reference that scales times to ref_ms
"""

import compileall
import math
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

from spans import NullTracer

# Known defect: `eval-grad exp 1000+0i+0j+0k` ends in a ValueError traceback
# with exit 1, where the README documents exit 2 for domain errors.  The op
# stays in the cli_session rotation (1 of 13 ops) and counts as failed.
KNOWN_DEFECT_STDERR = "non-finite quaternion component"


@dataclass(frozen=True)
class Failure:
    reason: str
    known: bool = False


def _direction(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            return [x / n for x in v]


def _shell_point(rng, lo, hi):
    """Components of a point with |q| uniform in [lo, hi)."""
    r = rng.uniform(lo, hi)
    return tuple(x * r for x in _direction(rng))


def _imag_norm(p):
    return math.sqrt(p[1] * p[1] + p[2] * p[2] + p[3] * p[3])


# The acceptance suite's safety predicates (criterion 05) on |q| in [0.3, 2).
SAFE = {
    "exp": lambda p: math.sqrt(sum(x * x for x in p)) < 2.0,
    "ln": lambda p: p[0] > 0.3 and _imag_norm(p) > 0.1,
    "tanh": lambda p: math.sinh(p[0]) ** 2 + math.cos(_imag_norm(p)) ** 2 > 0.1,
}
POWERS = (-4, -3, -2, -1) + tuple(range(2, 13))


def safe_point(rng, kind):
    while True:
        p = _shell_point(rng, 0.3, 2.0)
        if SAFE[kind](p):
            return p


def _fmt(p):
    """'a+bi+cj+dk' at full round-trip precision."""
    text = repr(p[0])
    for x, unit in zip(p[1:], "ijk"):
        text += ("-" if math.copysign(1.0, x) < 0 else "+") + repr(abs(x)) + unit
    return text


class _RefQuaternion:
    """The reference step's own quaternion: it allocates, reads slots and
    does float arithmetic like quatgrad's scalar code, but shares no code
    with quatgrad, so no change to the program can move it."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, o):
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return _RefQuaternion(a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                              a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                              a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                              a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


_REF_UNIT = _RefQuaternion(0.9, 0.3, 0.3, 0.1)  # |u| = 1: p stays bounded


def ref_step_ns(steps=2000):
    """ns per step of a fixed pure-Python Hamilton-product loop.  A slice
    takes a few ms; timed around every window it follows the host's speed:
    over 5 minutes its correlation with grad_mix window rates was -0.72,
    and scaling by it cut the spread of 30 s medians from 0.18 to 0.03."""
    u = _REF_UNIT
    p = _RefQuaternion(0.5, 0.1, -0.2, 0.3)
    t0 = perf_counter()
    for _ in range(steps):
        p = u * p
    return (perf_counter() - t0) / steps * 1e9


class Workload:
    """Defaults shared by the workloads; see the module docstring.

    An in-process workload's reference is the pure-Python reference step,
    nominally 1 us."""

    REF_NOMINAL_NS = 1000.0

    def reference_ns(self):
        return ref_step_ns()

    def work(self, op):
        return 1

    def final_checks(self):
        return []

    def probe(self, tr):
        pass


# ---------------------------------------------------------------------------
# grad_mix
# ---------------------------------------------------------------------------

class GradMix(Workload):
    """One op = one (function, point, side) triple computed the way
    `eval-grad` does it, plus the closed-form d1."""

    name = "grad_mix"
    window = 256
    KINDS = ("exp", "ln", "tanh", "power")

    def __init__(self, seed, out_dir):
        import quatgrad as qg
        self.qg = qg
        self.rng = random.Random(seed)
        self.count = 0
        self.fixed = {"exp": qg.Elementary.exp(), "ln": qg.Elementary.ln(),
                      "tanh": qg.Elementary.tanh()}
        self.convert = {"left": qg.left_from_real, "right": qg.right_from_real}
        self.recent = []

    def next_op(self):
        kind = self.KINDS[self.count % 4]
        self.count += 1
        side = self.rng.choice(("left", "right"))
        Q = self.qg.Quaternion
        if kind == "power":
            n = self.rng.choice(POWERS)
            center = Q(*(self.rng.gauss(0.0, 0.3) for _ in range(4)))
            fn = self.qg.Elementary.power(n, center)
            q = center + Q(*_shell_point(self.rng, 0.5, 2.0))
        else:
            fn = self.fixed[kind]
            q = Q(*safe_point(self.rng, kind))
        return kind, fn, q, side

    def run(self, op, tr):
        kind, fn, q, side = op
        with tr.span(f"regular.real_gradient.{kind}"):
            g = fn.real_gradient(q)
        with tr.span(f"hr.{side}_from_real"):
            h = self.convert[side](g)
        with tr.span(f"regular.hr_derivative.{kind}"):
            d1 = fn.hr_derivative(q)
        if tr.enabled and len(self.recent) < 256:
            self.recent.append(op)
        return h, d1

    def check(self, op, out):
        h, d1 = out
        if h.side.value != op[3]:
            return Failure(f"side {h.side.value}, expected {op[3]}")
        parts = [x for p in h.as_tuple() for x in (p.a, p.b, p.c, p.d)]
        if not all(math.isfinite(x) for x in parts):
            return Failure("non-finite partial")
        err = abs(h.d1 - d1) / max(1.0, abs(d1))
        if not err <= 1e-10:
            return Failure(f"jet d1 vs closed-form d1: relative {err:.3e}")
        return None

    def warm_up(self):
        q = self.qg.Quaternion(0.5, 0.2, -0.3, 0.4)
        for fn in (*self.fixed.values(), self.qg.Elementary.power(3)):
            self.run(("warm", fn, q, "left"), _NO_TRACE)

    def probe(self, tr):
        qg = self.qg
        points = [op[2] for op in self.recent]
        _quaternion_probe(tr, qg, points)
        evals = grads = 0
        for kind, fn, q, side in self.recent[:64]:
            calls = [0]

            def f(z, value=fn.value, calls=calls):
                calls[0] += 1
                return value(z)
            cfg = qg.FDConfig(qg.default_step(q), richardson=True)
            with tr.span("fd.hr_gradient_fd"):
                qg.hr_gradient_fd(f, q, cfg, qg.Side(side))
            evals += calls[0]
            grads += 1
        self.f_evals_per_grad = evals / grads if grads else 0.0

    def layer_metrics(self, tr):
        m = _quaternion_metrics(tr)
        for kind in self.KINDS:
            m[f"regular.real_gradient_us.{kind}"] = tr.median_per_call(
                f"regular.real_gradient.{kind}", 1e3)
            m[f"regular.hr_derivative_us.{kind}"] = tr.median_per_call(
                f"regular.hr_derivative.{kind}", 1e3)
        for side in ("left", "right"):
            m[f"hr.{side}_from_real_us"] = tr.median_per_call(
                f"hr.{side}_from_real", 1e3)
        m["fd.hr_gradient_fd_us"] = tr.median_per_call("fd.hr_gradient_fd", 1e3)
        m["fd.f_evals_per_grad"] = self.f_evals_per_grad
        return m


def _quaternion_probe(tr, qg, points, repeats=5):
    """Construct, multiply and invert the workload's own points, each as
    one span over the whole batch."""
    if len(points) < 2:
        return
    comps = [(q.a, q.b, q.c, q.d) for q in points]
    Q = qg.Quaternion
    pairs = list(zip(points, points[1:]))
    for _ in range(repeats):
        with tr.span("quaternion.new", calls=len(comps)):
            for c in comps:
                Q(*c)
        with tr.span("quaternion.mul", calls=len(pairs)):
            for p, q in pairs:
                p * q
        with tr.span("quaternion.inverse", calls=len(points)):
            for q in points:
                q.inverse()


def _quaternion_metrics(tr):
    return {f"quaternion.{op}_ns": tr.median_per_call(f"quaternion.{op}", 1.0)
            for op in ("new", "mul", "inverse")}


_NO_TRACE = NullTracer()


# ---------------------------------------------------------------------------
# qlms_ident
# ---------------------------------------------------------------------------

class QlmsIdent(Workload):
    """One op = one seeded system identification, then a CSV round trip.

    Ops alternate M=4 and M=32 at equal tap-iterations M*N: at M=4 the
    per-iteration overhead dominates, at M=32 the per-tap products do.
    mu is 0.8 of the nominal guard 1/(2 M E|x|^2) with E|x|^2 = 4.
    """

    name = "qlms_ident"
    window = 2
    SIZES = ((4, 3200), (32, 400))
    NOISE_POWER = 0.01
    UPDATE_PROBE_STEPS = 200

    def __init__(self, seed, out_dir):
        import quatgrad as qg
        self.qg = qg
        self.rng = random.Random(seed)
        self.count = 0
        self.csv = Path(out_dir) / f"qlms-{os.getpid()}.csv"
        self.first = self.first_record = None
        self.recent = {}
        self.guard_fired = self.diverged = self.runs = 0

    def config(self, m, n, rng):
        Q = self.qg.Quaternion
        weights = tuple(Q(*(rng.gauss(0.0, 1.0) for _ in range(4)))
                        for _ in range(m))
        return self.qg.ExperimentConfig(
            filter_length=m, true_weights=weights,
            noise_power=self.NOISE_POWER, step_size=0.8 / (8.0 * m),
            iterations=n, rng_seed=rng.getrandbits(32))

    def next_op(self):
        m, n = self.SIZES[self.count % 2]
        self.count += 1
        cfg = self.config(m, n, self.rng)
        if self.first is None:
            self.first = cfg
        return cfg

    def identify(self, cfg, tr):
        m = cfg.filter_length
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", self.qg.StabilityWarning)
            with tr.span(f"qlms.run_system_identification.m{m}",
                         calls=cfg.iterations):
                record = self.qg.run_system_identification(cfg)
        return record, bool(caught)

    def run(self, cfg, tr):
        record, guard_fired = self.identify(cfg, tr)
        if cfg is self.first:
            self.first_record = record
        with tr.span("qlms.write_record_csv"):
            self.qg.write_record_csv(record, self.csv)
        with tr.span("qlms.read_record_csv"):
            back = self.qg.read_record_csv(self.csv)
        if tr.enabled:
            self.recent[cfg.filter_length] = cfg
            self.runs += 1
            self.guard_fired += guard_fired
            self.diverged += record.diverged
        return record, back

    def check(self, cfg, out):
        record, back = out
        if record.diverged:
            return Failure("diverged")
        final = sum((w - wt).norm_sq()
                    for w, wt in zip(record.final_weights, cfg.true_weights))
        ratio = math.sqrt(final / record.weight_error_sq[0])
        if not ratio <= 0.1:
            return Failure(f"final/initial weight-error ratio {ratio:.3e}")
        if back != (record.squared_error, record.weight_error_sq):
            return Failure("CSV round trip is not bit-identical")
        return None

    def work(self, cfg):
        return cfg.filter_length * cfg.iterations

    def warm_up(self):
        rng = random.Random(0)
        for m, _ in self.SIZES:
            self.identify(self.config(m, 20, rng), _NO_TRACE)

    def final_checks(self):
        """Rerun the first op's config, untimed: the record must repeat."""
        a = self.first_record
        if a is None:  # the first op failed and is counted already
            return []
        b, _ = self.identify(self.first, _NO_TRACE)
        same = (a.squared_error, a.weight_error_sq, a.final_weights,
                a.diverged) == (b.squared_error, b.weight_error_sq,
                                b.final_weights, b.diverged)
        return [None if same else Failure("rerun does not reproduce the record")]

    def samples(self, cfg, steps):
        """The first `steps` samples of the run, made as
        run_system_identification makes them."""
        import numpy as np
        qg = self.qg
        rng = np.random.default_rng(cfg.rng_seed)
        xs = rng.standard_normal((cfg.iterations, cfg.filter_length, 4))
        noise = rng.standard_normal((cfg.iterations, 4)) \
            * np.sqrt(cfg.noise_power / 4.0)
        out = []
        for n in range(steps):
            x = tuple(qg.Quaternion(*(float(v) for v in xs[n, tap]))
                      for tap in range(cfg.filter_length))
            d = qg.ZERO
            for wt, xm in zip(cfg.true_weights, x):
                d = d + wt * xm
            out.append(qg.SamplePair(x, d + qg.Quaternion(
                *(float(v) for v in noise[n]))))
        return out

    def probe(self, tr):
        qg = self.qg
        points = []
        for m, cfg in sorted(self.recent.items()):
            samples = self.samples(cfg, self.UPDATE_PROBE_STEPS)
            points += [x for s in samples[:32] for x in s.input][:128]
            for _ in range(3):
                state = qg.FilterState((qg.ZERO,) * m, cfg.step_size)
                with tr.span(f"qlms.update_step.m{m}", calls=len(samples)):
                    for s in samples:
                        state = qg.update_step(state, s)
        _quaternion_probe(tr, qg, points)

    def layer_metrics(self, tr):
        m = _quaternion_metrics(tr)
        for size, _ in self.SIZES:
            m[f"qlms.run_us_per_iter.m{size}"] = tr.median_per_call(
                f"qlms.run_system_identification.m{size}", 1e3)
            m[f"qlms.update_step_us.m{size}"] = tr.median_per_call(
                f"qlms.update_step.m{size}", 1e3)
        m["qlms.write_csv_ms"] = tr.median_per_call("qlms.write_record_csv", 1e6)
        m["qlms.read_csv_ms"] = tr.median_per_call("qlms.read_record_csv", 1e6)
        m["qlms.guard_fired_ratio"] = self.guard_fired / max(1, self.runs)
        m["qlms.diverged_ratio"] = self.diverged / max(1, self.runs)
        return m


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliOp:
    kind: str            # span / metric group
    args: tuple
    expect: int          # the exit code the README documents
    known_defect: bool = False


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def run_child(argv, env, timeout=120):
    """Run one child process to completion and return (exit code, stdout,
    stderr).  Only one child runs at a time."""
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


_FLOAT = re.compile(
    r"[+-]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)")


class CliSession(Workload):
    """One op = one `python -m quatgrad` process, start to exit, in a fixed
    rotation of 13 commands."""

    name = "cli_session"
    window = 13
    QLMS_ITERATIONS = 200

    def __init__(self, seed, out_dir):
        self.rng = random.Random(seed)
        self.cfg = Path(out_dir) / f"cli-{os.getpid()}.cfg"
        self.csv = Path(out_dir) / f"cli-{os.getpid()}.csv"
        self.env = child_env()
        self.queue = []

    def rotation(self):
        rng = self.rng
        ops = []
        for fn in ("exp", "ln", "tanh", "power:3:1+0i+0j+0k"):
            for side in ("left", "right"):
                p = safe_point(rng, fn) if fn in SAFE \
                    else _shell_point(rng, 0.3, 2.0)
                ops.append(CliOp("eval_grad", ("eval-grad", "--side", side,
                                               fn, "--", _fmt(p)), 0))
        ops.append(CliOp("error_exit", ("eval-grad", "ln", "--",
                                        "-1+0i+0j+0k"), 2))
        malformed = _fmt(safe_point(rng, "exp")).split("j")[0] + "j"
        ops.append(CliOp("error_exit", ("eval-grad", "exp", "--", malformed), 1))
        ops.append(CliOp("error_exit", ("eval-grad", "exp", "1000+0i+0j+0k"),
                         2, known_defect=True))
        m = 4
        self.cfg.write_text(
            f"M={m}\nmu={0.8 / (8.0 * m)!r}\n"
            f"iterations={self.QLMS_ITERATIONS}\nnoise_power=0.01\n"
            f"seed={rng.getrandbits(32)}\n")
        ops.append(CliOp("qlms_run", ("qlms-run", str(self.cfg),
                                      str(self.csv)), 0))
        ops.append(CliOp("validate", ("validate", "consistency"), 0))
        return ops

    def next_op(self):
        if not self.queue:
            self.queue = self.rotation()
        return self.queue.pop(0)

    def run(self, op, tr):
        with tr.span(f"cli.{op.kind}"):
            return run_child([sys.executable, "-m", "quatgrad", *op.args],
                             self.env)

    def check(self, op, out):
        code, stdout, stderr = out
        if code != op.expect:
            reason = f"{' '.join(op.args)}: exit {code}, documented {op.expect}"
            known = op.known_defect and code == 1 \
                and KNOWN_DEFECT_STDERR in stderr
            return Failure(reason, known=known)
        if code != 0:
            return None
        if op.kind == "eval_grad":
            lines = stdout.splitlines()
            if lines[:1] != [f"side: {op.args[2]}"] or len(lines) != 5:
                return Failure(f"unexpected eval-grad output {stdout!r}")
            values = [float(x) for line in lines[1:]
                      for x in _FLOAT.findall(line.split(":", 1)[1])]
            if len(values) != 16 or not all(map(math.isfinite, values)):
                return Failure(f"non-finite or missing partials {stdout!r}")
        elif op.kind == "qlms_run":
            norm = stdout.rsplit(":", 1)[-1]
            if not math.isfinite(float(norm)):
                return Failure(f"non-finite weight error {stdout!r}")
            lines = self.csv.read_text().splitlines()
            if len(lines) != self.QLMS_ITERATIONS + 1:
                return Failure(f"CSV has {len(lines)} lines")
        elif "overall: PASS" not in stdout:
            return Failure("validate consistency did not pass")
        return None

    # A process's reference is a bare interpreter start: over 3 minutes its
    # correlation with the rotation rate was -0.78, where the pure-Python
    # step's was -0.28.
    REF_NOMINAL_NS = 50e6

    def reference_ns(self):
        t0 = perf_counter_ns()
        run_child([sys.executable, "-c", "pass"], self.env)
        return perf_counter_ns() - t0

    def warm_up(self):
        # fill quatgrad's bytecode cache, so that no timed process compiles
        compileall.compile_dir(os.path.join("src", "quatgrad"), quiet=1)

    def probe(self, tr, repeats=5):
        for _ in range(repeats):
            for name, code in (("python_floor", "pass"),
                               ("import_numpy", "import numpy"),
                               ("import", "import quatgrad")):
                with tr.span(f"cli.{name}"):
                    run_child([sys.executable, "-c", code], self.env)

    def layer_metrics(self, tr):
        return {f"cli.{name}_ms": tr.median_per_call(f"cli.{name}", 1e6)
                for name in ("python_floor", "import_numpy", "import",
                             "eval_grad", "error_exit", "qlms_run",
                             "validate")}


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

class Selfcheck(Workload):
    """One op = one validate suite; a rotation is one pass of every suite
    at a seed drawn from the workload seed, the same work as one
    run_suites(SUITE_NAMES, seed) call because run_suites seeds a fresh
    generator per suite.  Timing suites one by one gives a pass enough
    samples for a tail; work counts passes."""

    name = "selfcheck"

    def __init__(self, seed, out_dir):
        from quatgrad import validate
        self.validate = validate
        self.window = len(validate.SUITE_NAMES)
        self.rng = random.Random(seed)
        self.queue = []

    def next_op(self):
        if not self.queue:
            seed = self.rng.getrandbits(31)
            self.queue = [(suite, seed) for suite in self.validate.SUITE_NAMES]
        return self.queue.pop(0)

    def run(self, op, tr):
        suite, seed = op
        with tr.span(f"validate.{suite}"):
            return self.validate.run_suites((suite,), seed)

    def check(self, op, reports):
        if [r.suite for r in reports] != [op[0]]:
            return Failure(f"reports for {[r.suite for r in reports]}")
        return None if reports[0].ok else Failure(f"{op} failed")

    def work(self, op):
        return 1 / self.window

    def warm_up(self):
        self.validate.run_suites(("consistency",), 0)

    def layer_metrics(self, tr):
        return {f"validate.{suite}_s": tr.median_per_call(f"validate.{suite}",
                                                          1e9)
                for suite in self.validate.SUITE_NAMES}


WORKLOADS = {w.name: w for w in (GradMix, QlmsIdent, CliSession, Selfcheck)}


def setup(name, seed, out_dir):
    """Everything a run does before its first timed op: imports, input
    generation state, and a warm-up op of each kind."""
    Path(out_dir).mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, out_dir)
    workload.warm_up()
    return workload
