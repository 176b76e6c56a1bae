"""Relative accuracy of Elementary against an mpmath oracle.

The reference is the intrinsic lift f(q) = Re F(z) + vhat Im F(z), z =
qt_a + i v, qt = q - center, evaluated by mpmath at 400 bits on the exact
binary input.  Its real gradient is the central difference at h = 1e-40:
the truncation error is about h^2 = 1e-80, and the 40 digits the
difference cancels leave about 80 of the 120 (at 200 bits the reference
itself is off by about 1e-3 on the components near 1).  The left HR
derivative is (dA - dB i - dC j - dD k)/4 of that gradient.

An error is normwise relative: the largest component error over the
largest reference component, in units of EPS = 2^-53.  exp and tanh are
periodic in v, so the rounding of v = |I(qt)| itself, about v EPS, moves
their argument: their budgets scale with max(1, v), the allowance for the
argument reduction.  The budgets below are the measured worst cases over
the seeded points, rounded up by about a factor of two.
"""

import math
import random

import pytest

from quatgrad import Elementary, Quaternion
from quatgrad.regular import cosh_abs_sq

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

EPS = 2.0 ** -53
PREC = 400
H = mpmath.mpf("1e-40")

#: budget[kind] = (value, hr_derivative, real_gradient) in units of EPS
#: (times max(1, v) for exp and tanh)
BUDGETS = {
    "exp": (4, 6, 6),
    "ln": (3, 5, 6),
    "tanh": (8, 14, 8),
    "power": (10, 11, 12),
}
PERIODIC = ("exp", "tanh")

_MP_F = {"exp": mpmath.exp, "ln": mpmath.log, "tanh": mpmath.tanh}


def _mp_lift(fn, q):
    """f(q) in mpmath, q a 4-tuple of mpf."""
    qt = [x - mpmath.mpf(c) for x, c in
          zip(q, (fn.center.a, fn.center.b, fn.center.c, fn.center.d))]
    v = mpmath.sqrt(qt[1] ** 2 + qt[2] ** 2 + qt[3] ** 2)
    z = mpmath.mpc(qt[0], v)
    w = z ** fn.n if fn.kind == "power" else _MP_F[fn.kind](z)
    if v == 0:
        return (w.real, mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0))
    f = w.imag / v
    return (w.real, f * qt[1], f * qt[2], f * qt[3])


def _times_unit(p, u):
    """p times the unit i, j or k (u = 1, 2, 3) from the right."""
    a, b, c, d = p
    return ((-b, a, d, -c), (-c, -d, a, b), (-d, c, -b, a))[u - 1]


def reference(fn, q):
    """(value, left HR derivative, real gradient) of fn at q in mpmath."""
    with mp.workprec(PREC):
        x = [mpmath.mpf(c) for c in (q.a, q.b, q.c, q.d)]
        value = _mp_lift(fn, x)
        grad = []
        for beta in range(4):
            up, down = list(x), list(x)
            up[beta] += H
            down[beta] -= H
            grad.append(tuple((p - m) / (2 * H) for p, m in
                              zip(_mp_lift(fn, up), _mp_lift(fn, down))))
        terms = [grad[0]] + [_times_unit(grad[u], u) for u in (1, 2, 3)]
        d1 = tuple((t0 - t1 - t2 - t3) / 4 for t0, t1, t2, t3 in zip(*terms))
        return value, d1, tuple(c for p in grad for c in p)


def rel_error(computed, ref) -> float:
    """Largest component error over the largest reference component."""
    with mp.workprec(PREC):
        scale = max(abs(r) for r in ref)
        if scale == 0:
            return 0.0 if all(c == 0.0 for c in computed) else math.inf
        return float(max(abs(mpmath.mpf(c) - r) for c, r in
                         zip(computed, ref)) / scale)


def _floats(q):
    return (q.a, q.b, q.c, q.d)


def _points(rng, count, real_scale, safe):
    """count points at scales 1e-6 to 1e6; a third of them at v in
    {0, 1e-12, 1e-9} on a random axis.  real_scale caps the real part's
    scale; safe rejects points outside the function's domain."""
    points = []
    while len(points) < count:
        s = 10.0 ** rng.uniform(-6.0, 6.0)
        a = rng.gauss(0.0, 1.0) * min(s, real_scale)
        if len(points) % 3 == 0:
            v = rng.choice([0.0, 1e-12, 1e-9])
            u = [rng.gauss(0.0, 1.0) for _ in range(3)]
            n = math.hypot(*u)
            q = Quaternion(a, *(v * x / n for x in u))
        else:
            q = Quaternion(a, *(rng.gauss(0.0, 1.0) * s for _ in range(3)))
        if safe(q):
            points.append(q)
    return points


def _power_cases(rng):
    for n in (-3, -2, -1, 2, 3, 5):
        s = 10.0 ** rng.uniform(-3.0, 3.0)
        center = Quaternion(*(rng.gauss(0.0, 1.0) * s for _ in range(4)))
        fn = Elementary.power(n, center)
        yield from ((fn, q) for q in _points(
            rng, 16, 1e6, lambda q, c=center: (q - c).norm() > 0.0))


def _cases():
    rng = random.Random(20_240_601)
    for q in _points(rng, 100, 300.0, lambda q: True):
        yield Elementary.exp(), q
    for q in _points(rng, 100, 1e6,
                     lambda q: q.a > 0.0 or q.imag_norm() > 0.0):
        yield Elementary.ln(), q
    # tanh away from its poles, and out to |q_a| = 30, where sech^2 is
    # about 4e-26 and 1 - tanh^2 would have cancelled to 0
    tanh_points = _points(rng, 80, 3.0, lambda q: cosh_abs_sq(q) > 0.1)
    tanh_points += [Quaternion(sign * a, *(rng.gauss(0.0, 1.0) * s
                                          for _ in range(3)))
                    for a in (5.0, 10.0, 18.0, 25.0, 30.0)
                    for sign in (1.0, -1.0) for s in (1e-9, 1.0)]
    for q in tanh_points:
        yield Elementary.tanh(), q
    yield from _power_cases(rng)


CASES = list(_cases())


def errors(fn, q):
    """(value, hr_derivative, real_gradient) errors in units of EPS, over
    the allowance max(1, v) for exp and tanh."""
    ref_value, ref_d1, ref_grad = reference(fn, q)
    g = fn.real_gradient(q)
    computed = (_floats(fn.value(q)), _floats(fn.hr_derivative(q)),
                tuple(c for p in g.as_tuple() for c in _floats(p)))
    allowance = max(1.0, (q - fn.center).imag_norm()) \
        if fn.kind in PERIODIC else 1.0
    return tuple(rel_error(c, r) / EPS / allowance for c, r in
                 zip(computed, (ref_value, ref_d1, ref_grad)))


@pytest.mark.parametrize("kind", list(BUDGETS))
def test_elementary_within_budget_of_mpmath(kind):
    over = []
    for fn, q in CASES:
        if fn.kind != kind:
            continue
        for name, err, budget in zip(("value", "hr_derivative",
                                      "real_gradient"),
                                     errors(fn, q), BUDGETS[kind]):
            if not err <= budget:
                over.append(f"{fn!r} at {q}: {name} {err:.1f} EPS "
                            f"(budget {budget})")
    assert not over, "\n".join(over)


#: exp where its value is subnormal, q_a in [-745, -709]: errors are
#: absolute, in steps of the smallest subnormal.  The measured worst over
#: the seeded points below is 1.64 steps for the value and 12.3 for d1
#: (at v = 0.31, where regular._ratio takes Re F'(z) for Im F(z)/v); the
#: budgets are about twice that.
SUBNORMAL_STEP = 5e-324
SUBNORMAL_BUDGETS = (4, 24)


def _subnormal_exp_points(rng, count):
    """-740 + 2i first, then q_a in [-745, -709], v in [0.3, 3], on a
    random axis."""
    points = [Quaternion(-740.0, 2.0)]
    while len(points) < count:
        a = rng.uniform(-745.0, -709.0)
        v = rng.uniform(0.3, 3.0)
        u = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.hypot(*u)
        points.append(Quaternion(a, *(v * x / n for x in u)))
    return points


def test_exp_subnormal_within_absolute_budget_of_mpmath():
    fn = Elementary.exp()
    over = []
    for q in _subnormal_exp_points(random.Random(20_240_601), 300):
        ref_value, ref_d1, _ = reference(fn, q)
        for name, computed, ref, budget in zip(
                ("value", "hr_derivative"),
                (_floats(fn.value(q)), _floats(fn.hr_derivative(q))),
                (ref_value, ref_d1), SUBNORMAL_BUDGETS):
            with mp.workprec(PREC):
                err = float(max(abs(mpmath.mpf(c) - r) for c, r in
                                zip(computed, ref)) / SUBNORMAL_STEP)
            if not err <= budget:
                over.append(f"exp at {q}: {name} {err:.2f} steps "
                            f"(budget {budget})")
    assert not over, "\n".join(over)
