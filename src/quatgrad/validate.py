"""Self-check suites behind the `validate` CLI command.

Each suite re-runs the library's mathematical invariants on seeded random
data and reports pass/fail counts with the worst observed error.  The
suites mirror what the pytest suite asserts, packaged for scripted use.

Each suite is a generator that yields one CheckResult per check, in the
order its draws are made; `run_suites` is the one runner.  A new check is
one block ending in `yield _tally(...)` or `yield _verdicts(...)`.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import fd, hr, regular
from .quaternion import (ONE, QI, QJ, QK, ZERO, AxisUnit, IMAGINARY_AXES,
                         Quaternion, components_from_involutions, polar,
                         random_quaternion)
from .regular import cosh_abs_sq, exp_q, ln_q, tanh_q


@dataclass
class CheckResult:
    name: str
    passed: int
    failed: int
    worst_error: float
    lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def worst_error(self) -> float:
        return _worst(c.worst_error for c in self.checks)


def _accepted(rng: np.random.Generator, count: int, accept):
    """The first count random_quaternion draws that pass accept."""
    while count:
        q = random_quaternion(rng)
        if accept(q):
            count -= 1
            yield q


def random_pure_unit(rng: np.random.Generator) -> Quaternion:
    """The axis of the first random_quaternion draw with |I(q)| > 1e-3."""
    return polar(next(_accepted(rng, 1, lambda q: q.imag_norm() > 1e-3))).imag_axis


def random_quaternion_in_shell(rng: np.random.Generator, lo: float = 0.4,
                               hi: float = 2.0) -> Quaternion:
    """A random_quaternion draw, repeated until lo <= |q| <= hi."""
    return next(_accepted(rng, 1, lambda q: lo <= abs(q) <= hi))


def tanh_safe(q: Quaternion) -> bool:
    """True where |cosh q|^2 > 0.1, away from the poles of tanh."""
    return cosh_abs_sq(q) > 0.1


def _worst(errors) -> float:
    """The largest error, NaN if any is (max alone may drop a NaN)."""
    return max(errors, key=lambda e: (math.isnan(e), e), default=0.0)


def _tally(name: str, errors, tol: float) -> CheckResult:
    """Each error is one draw, passing when it is <= tol (NaN fails)."""
    errors = list(errors)
    failed = sum(1 for e in errors if not e <= tol)
    return CheckResult(name, len(errors) - failed, failed, _worst(errors))


def _verdicts(name: str, oks, worst: float = 0.0, lines=None) -> CheckResult:
    """Each ok is one pass/fail verdict of a check with no error to tally."""
    passed = sum(1 for ok in oks if ok)
    return CheckResult(name, passed, len(oks) - passed, worst, lines or [])


def _gap(x, y) -> float:
    """The largest part-wise distance of two gradients."""
    return max(abs(a - b) for a, b in zip(x.as_tuple(), y.as_tuple()))


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

_TABLE = {
    ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
    ("i", "1"): "i", ("i", "i"): "-1", ("i", "j"): "k", ("i", "k"): "-j",
    ("j", "1"): "j", ("j", "i"): "-k", ("j", "j"): "-1", ("j", "k"): "i",
    ("k", "1"): "k", ("k", "i"): "j", ("k", "j"): "-i", ("k", "k"): "-1",
}
_UNITS = {"1": ONE, "i": QI, "j": QJ, "k": QK,
          "-1": -ONE, "-i": -QI, "-j": -QJ, "-k": -QK}


def suite_algebra(rng: np.random.Generator) -> Iterator[CheckResult]:
    yield _tally("multiplication table (exact)",
                 (abs(_UNITS[x] * _UNITS[y] - _UNITS[want])
                  for (x, y), want in _TABLE.items()), 0.0)

    errors = []
    for _ in range(1000):
        q = random_quaternion(rng)
        n2 = q.norm_sq()
        errors.append(abs((q * q.conjugate()).a - n2) / max(1.0, n2))
        errors.append((q * q.conjugate()).imag_norm() / max(1.0, n2))
        if n2 > 1e-6:
            errors.append(abs(q * q.inverse() - ONE))
    yield _tally("q q* = |q|^2 and q q^-1 = 1", errors, 1e-13)

    errors = []
    for _ in range(1000):
        q = random_quaternion(rng)
        quad = tuple(map(q.involution, AxisUnit))
        rec = components_from_involutions(*quad)
        errors.append(max(abs(x - y) for x, y in
                          zip(rec, (q.a, q.b, q.c, q.d))))
        total = quad[0] + quad[1] + quad[2] + quad[3]
        errors.append(abs(total - Quaternion(4.0 * q.a)))
        errors.append(abs(quad[1] + quad[2] + quad[3] - q - q.conjugate() * 2.0))
    yield _tally("involution recovery and relations", errors, 1e-13)

    errors = []
    for _ in range(500):
        q = random_quaternion(rng)
        p = polar(q)
        if p.imag_axis is not None:
            errors.append(abs(p.imag_axis * p.imag_axis + ONE))
            errors.append(abs(Quaternion(p.real_part) + p.imag_axis * p.imag_norm - q))
        else:
            errors.append(abs(Quaternion(p.real_part) - q))
    yield _tally("polar reconstruction, vhat^2 = -1", errors, 1e-13)

    errors = []
    for q in _accepted(rng, 1000, lambda q: q.imag_norm() < math.pi - 0.1):
        back = ln_q(exp_q(q))
        errors.append(max(abs(x) for x in ((back.a - q.a), (back.b - q.b),
                                           (back.c - q.c), (back.d - q.d))))
    yield _tally("ln(exp(q)) = q for v < pi - 0.1", errors, 1e-10)

    errors = []
    for _ in range(200):
        q = random_quaternion(rng, 0.7)
        if not tanh_safe(q):
            continue
        e_pos, e_neg = exp_q(q), exp_q(-q)
        quotient = (e_pos - e_neg) * (e_pos + e_neg).inverse()
        errors.append(abs(quotient - tanh_q(q)))
    yield _tally("tanh quotient form vs closed form", errors, 1e-12)


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

def suite_rules(rng: np.random.Generator) -> Iterator[CheckResult]:
    jh = hr.qmat_conj_transpose(hr.JACOBIAN)
    yield _tally("J J^H = J^H J = I/4 (exact)",
                 (abs(product[i][j] - (Quaternion(0.25) if i == j else ZERO))
                  for product in (hr.qmat_mul(hr.JACOBIAN, jh),
                                  hr.qmat_mul(jh, hr.JACOBIAN))
                  for i in range(4) for j in range(4)), 0.0)

    errors = []
    for _ in range(1000):
        g = hr.RealGradient(*(random_quaternion(rng) for _ in range(4)))
        errors.append(_gap(g, hr.real_from_left(hr.left_from_real(g))))
    yield _tally("real_from_left . left_from_real = id", errors, 1e-13)

    q = random_quaternion(rng)
    h_id = hr.left_from_real(hr.jet_seed(q).grad)
    errors = [abs(a - b) for a, b in
              zip(h_id.as_tuple(), (ONE, ZERO, ZERO, ZERO))]
    h_conj = hr.left_from_real(hr.jet_seed(q).conjugate().grad)
    errors.append(abs(h_conj.d1 - Quaternion(-0.5)))
    for axis in IMAGINARY_AXES:
        u = axis.unit
        jet = (-u) * hr.jet_seed(q) * u
        errors.append(abs(hr.left_from_real(jet.grad).d1))
    c = random_quaternion(rng)
    jet_cq = c * hr.jet_seed(q)
    errors.append(abs(hr.left_from_real(jet_cq.grad).d1 - c))
    errors.append(abs(hr.right_from_real(jet_cq.grad).d1 - Quaternion(c.a)))
    yield _tally("basic derivatives (q, q*, q^nu, cq)", errors, 0.0)

    errors = []
    for _ in range(100):
        q = random_quaternion(rng)
        h2 = hr.left_from_real((hr.jet_seed(q) * hr.jet_seed(q)).grad)
        errors.extend(abs(a - b) for a, b in
                      zip(h2.as_tuple(), (q + q.a, QI * q.b, QJ * q.c, QK * q.d)))
    yield _tally("non-independence of q^2 (involution slots)", errors, 1e-12)

    errors = []
    for build in (lambda s: s * s, lambda s: s * s * s,
                  lambda s: s.conjugate() * s, hr.jet_exp):
        q = random_quaternion(rng)
        jet = build(hr.jet_seed(q))
        h = hr.left_from_real(jet.grad)
        delta = random_quaternion(rng, 1.0) * 0.02
        prev = None
        for _ in range(4):
            direct = build(hr.jet_seed(q + delta)).value - jet.value
            err = abs(direct - hr.differential(h, delta))
            if prev is not None:
                ratio = prev / err if err > 0 else 4.0
                errors.append(abs(ratio - 4.0))  # tolerance 0.5 on the ratio
            prev = err
            delta = delta * 0.5
    yield _tally("differential reconstruction is 2nd order", errors, 0.5)

    errors = []
    for _ in range(100):
        q, alpha, beta = (random_quaternion(rng) for _ in range(3))
        f_jet = hr.jet_seed(q) * hr.jet_seed(q)
        g_jet = hr.jet_seed(q).conjugate()
        lhs = hr.left_from_real((alpha * f_jet + beta * g_jet).grad)
        hf = hr.left_from_real(f_jet.grad)
        hg = hr.left_from_real(g_jet.grad)
        errors.extend(abs(x - (alpha * f + beta * g)) for x, f, g in
                      zip(lhs.as_tuple(), hf.as_tuple(), hg.as_tuple()))
    yield _tally("left-linearity", errors, 1e-12)
    d_right = hr.left_from_real(
        (hr.jet_seed(Quaternion(0.3, -0.7, 1.1, 0.4)) * QI).grad).d1
    yield _verdicts("right-multiplication linearity fails (witness)",
                    [abs(d_right - QI) > 0.5])

    # jets over {q, q*, q^2, cq}
    c = random_quaternion(rng)
    lib = (hr.jet_seed, lambda q: hr.jet_seed(q).conjugate(),
           lambda q: hr.jet_seed(q) * hr.jet_seed(q),
           lambda q, c=c: c * hr.jet_seed(q))
    errors = []
    for _ in range(200):
        q = random_quaternion(rng)
        bf, bg = (lib[rng.integers(len(lib))] for _ in range(2))
        f_jet, g_jet = bf(q), bg(q)
        direct = hr.left_from_real((f_jet * g_jet).grad)
        via = hr.product_rule_first(f_jet.value, f_jet.grad, g_jet.value,
                                    hr.left_from_real(g_jet.grad))
        errors.append(_gap(direct, via))
        direct_r = hr.right_from_real((f_jet * g_jet).grad)
        via_r = hr.product_rule_first_right(hr.right_from_real(f_jet.grad),
                                            g_jet.value, f_jet.value, g_jet.grad)
        errors.append(_gap(direct_r, via_r))
    yield _tally("first product rule (left and right) vs jets", errors, 1e-11)

    errors, matrix_errors = [], []
    for _ in range(50):
        q, a1, b1, c1 = (random_quaternion(rng) for _ in range(4))
        g_jet = a1 * hr.jet_seed(q) * b1 + c1 * hr.jet_seed(q) * hr.jet_seed(q)
        f_of = lambda jet: jet * jet
        direct = hr.left_from_real(f_of(g_jet).grad)
        outer_real = f_of(hr.jet_seed(g_jet.value)).grad
        m = hr.chain_matrix_involutions(g_jet.grad)
        via1 = hr.chain_rule_first(hr.left_from_real(outer_real), m)
        via2 = hr.chain_rule_second(outer_real,
                                    hr.chain_matrix_components(g_jet.grad))
        errors.extend(_gap(direct, via) for via in (via1, via2))
        m2 = hr.qmat_scale(hr.qmat_mul(hr.qmat_mul(
            hr.JACOBIAN, hr.qmat_from_real(hr.real_jacobian(g_jet.grad))), jh), 4.0)
        matrix_errors.append(max(abs(m[i][j] - m2[i][j])
                            for i in range(4) for j in range(4)))
    yield _tally("chain rules 1 and 2 vs jet composition", errors, 1e-11)
    yield _tally("4 J P J^H = M", matrix_errors, 1e-12)

    errors = []
    for _ in range(100):
        q, c, d = (random_quaternion(rng) for _ in range(3))
        s = hr.jet_seed(q)
        e_jet = d - c * s
        seeds = (s * s.conjugate(),                    # |q|^2
                 (c * s + (c * s).conjugate()) * 0.5,  # R(cq)
                 e_jet * e_jet.conjugate())            # e e*
        for jet in seeds:
            hl = hr.left_from_real(jet.grad)
            errors.append(_gap(hl, hr.right_from_real(jet.grad)))
            for axis, part in zip(IMAGINARY_AXES, (hl.dI, hl.dJ, hl.dK)):
                errors.append(abs(part - hl.d1.involution(axis)))
        errors.append(abs(hr.real_valued_reduce(
            hr.left_from_real(seeds[0].grad)) - q.conjugate() * 0.5))
    yield _tally("real-valued gradient identities", errors, 1e-12)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def suite_series(rng: np.random.Generator) -> Iterator[CheckResult]:
    errors, lr = [], []
    for n in range(-8, 9):
        power = regular.Elementary.power(n)
        for _ in range(100):
            q = random_quaternion_in_shell(rng)
            closed = regular.power_derivative(q, ZERO, n)
            oracle = regular.power_derivative_oracle(q, ZERO, n)
            errors.append(fd.rel_error(closed, oracle))
            right = hr.hr_from_real(power.real_gradient(q), hr.Side.RIGHT)
            lr.append(fd.rel_error(right.d1, closed))
    yield _tally("power derivative vs induction/recurrence oracle, n in [-8,8]",
                 errors, 1e-11)
    yield _tally("left power derivative == right", lr, 1e-13)

    errors = []
    for n in (*range(-8, 0), *range(1, 9)):
        for _ in range(20):
            q = random_quaternion_in_shell(rng)
            closed = regular.power_derivative(q, ZERO, n)
            jet = hr.jet_pow(hr.jet_seed(q), n)
            errors.append(fd.rel_error(hr.left_from_real(jet.grad).d1, closed))
    yield _tally("power derivative vs jet pipeline", errors, 1e-10)

    errors = []
    for _ in range(200):
        q = random_quaternion_in_shell(rng)
        n = int(rng.integers(-6, 7))
        if n == 0 or q.imag_norm() <= 0.05:
            continue
        literal = (q ** n - q.conjugate() ** n) * (q - q.conjugate()).inverse()
        s = regular.symmetric_ratio(q, n)
        errors.append(literal.imag_norm() / max(1.0, abs(literal)))
        errors.append(abs(literal - Quaternion(s)) / max(1.0, abs(s)))
    yield _tally("symmetric ratio is real = literal quotient", errors, 1e-13)

    errors = []
    exp_fn = regular.exp_series(40)
    tanh_fn = regular.tanh_series(61)
    for _ in range(100):
        q = random_quaternion(rng, 0.5)
        if abs(q) > 1.0:
            continue
        errors.append(abs(exp_fn.derivative(q) - regular.exp_derivative(q)))
        errors.append(abs(tanh_fn.derivative(q) - regular.tanh_derivative(q)))
    yield _tally("series derivatives vs closed forms (|q| <= 1)", errors, 1e-8)

    errors = []
    for _ in range(100):
        q = random_quaternion_in_shell(rng, 0.4, 1.5)
        coeffs = {n: Quaternion(float(rng.standard_normal()))
                  for n in range(-3, 6)}
        left = regular.PowerSeriesFn(ZERO, coeffs, hr.Side.LEFT, (0.1, 2.0))
        right = regular.PowerSeriesFn(ZERO, coeffs, hr.Side.RIGHT, (0.1, 2.0))
        errors.append(abs(left.derivative(q) - right.derivative(q)))
    yield _tally("real coefficients: left series == right", errors, 1e-12)


# ---------------------------------------------------------------------------
# consistency (real-axis limits)
# ---------------------------------------------------------------------------

def suite_consistency(rng: np.random.Generator) -> Iterator[CheckResult]:
    v_sequence = [10.0 ** (-p) for p in range(1, 7)]
    cases = [
        ("exp", regular.Elementary.exp(), (0.5, 1.5)),
        ("ln", regular.Elementary.ln(), (0.5, 2.5)),
        ("tanh", regular.Elementary.tanh(), (0.3, 1.2)),
        ("power(-2)", regular.Elementary.power(-2), (0.8, 2.0)),
        ("power(-1)", regular.Elementary.power(-1), (0.8, 2.0)),
        ("power(1)", regular.Elementary.power(1), (0.5, 2.0)),
        ("power(2)", regular.Elementary.power(2), (0.5, 2.0)),
        ("power(3)", regular.Elementary.power(3), (0.5, 2.0)),
    ]
    # pairs already at the rounding floor cannot keep decreasing
    floor = 1e-13
    for label, fn, (lo, hi) in cases:
        oks, finals, lines = [], [], []
        for _ in range(10):
            q_a = float(rng.uniform(lo, hi))
            axis = random_pure_unit(rng)
            errs = regular.real_axis_limit_check(fn, q_a, v_sequence, axis)
            oks.append(not any(b >= a and not (a <= floor and b <= floor)
                               for a, b in zip(errs, errs[1:])))
            finals.append(errs[-1])
            lines.append(f"    {label} at q_a={q_a:.3f}: " +
                         " > ".join(f"{e:.2e}" for e in errs))
        yield _verdicts(f"real-axis limit monotone: {label}", oks,
                        _worst(finals), lines)


# ---------------------------------------------------------------------------
# fd
# ---------------------------------------------------------------------------

def suite_fd(rng: np.random.Generator) -> Iterator[CheckResult]:
    cases = [
        (lambda q: q * q, lambda s: s * s, None),
        (lambda q: q ** 3, lambda s: s * s * s, None),
        (lambda q: q.inverse(), lambda s: s.inverse(), lambda q: abs(q) > 0.4),
        (lambda q: q.conjugate() * q, lambda s: s.conjugate() * s, None),
        (exp_q, hr.jet_exp, lambda q: abs(q) < 2.5),
        (tanh_q, hr.jet_tanh, tanh_safe),
    ]
    errors = []
    for f, jet_of, safe in cases:
        for q in _accepted(rng, 100, safe or (lambda q: True)):
            cfg = fd.FDConfig(fd.default_step(q))
            est = fd.real_partials_fd(f, q, cfg)
            errors.append(fd.gradient_error(est, jet_of(hr.jet_seed(q)).grad))
    yield _tally("central fd vs jet gradient (6 functions)", errors, 1e-6)

    improvements = []
    for _ in range(100):
        q = random_quaternion(rng)
        ref = hr.jet_pow(hr.jet_seed(q), 3).grad
        plain, rich = (fd.gradient_error(fd.real_partials_fd(
            lambda z: z ** 3, q, fd.FDConfig(1e-3, richardson=r)), ref)
            for r in (False, True))
        improvements.append(rich < plain)
    yield _verdicts("Richardson beats plain central on q^3 (median)",
                    [sorted(improvements)[len(improvements) // 2]])

    oks, lines = [], []
    steps = [1e-2 / 2 ** i for i in range(5)]
    exp_point = Quaternion(0.2, 0.5, -0.3, 0.1)
    for label, f, jet_of, point, kind, (lo, hi) in (
            ("q^3 central", lambda q: q ** 3, lambda s: hr.jet_pow(s, 3),
             Quaternion(0.4, 0.3, -0.2, 0.6), "central", (1.8, 2.2)),
            ("exp central", exp_q, hr.jet_exp, exp_point, "central", (1.8, 2.2)),
            ("exp forward", exp_q, hr.jet_exp, exp_point, "forward", (0.8, 1.2))):
        ref = jet_of(hr.jet_seed(point)).grad
        slope = fd.convergence_order(f, point, steps, ref, kind)
        lines.append(f"    {label}: slope {slope:.3f}")
        oks.append(lo <= slope <= hi)
    yield _verdicts("convergence orders (central ~2, forward ~1)", oks,
                    lines=lines)

    errors = []
    for fn, safe in ((regular.Elementary.exp(), lambda q: abs(q) < 2.0),
                     (regular.Elementary.ln(),
                      lambda q: q.a > 0.3 and q.imag_norm() > 0.1),
                     (regular.Elementary.tanh(), tanh_safe)):
        for q in _accepted(rng, 200, safe):
            cfg = fd.FDConfig(fd.default_step(q), richardson=True)
            est = fd.hr_gradient_fd(fn.value, q, cfg)
            errors.append(fd.rel_error(est.d1, fn.hr_derivative(q)))
    yield _tally("closed-form derivatives vs Richardson fd", errors, 1e-6)


_SUITES = {
    "algebra": suite_algebra,
    "rules": suite_rules,
    "series": suite_series,
    "consistency": suite_consistency,
    "fd": suite_fd,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(names, seed: int = 20_240_601) -> list[SuiteReport]:
    """Run the named suites in order, each on a fresh default_rng(seed).

    Every name is checked before any suite runs.  A suite's report lists
    the CheckResults its generator yields, one per check in draw order.
    """
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
    return [SuiteReport(name, list(_SUITES[name](np.random.default_rng(seed))))
            for name in names]
