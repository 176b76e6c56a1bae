import builtins
import math

import numpy as np
import pytest

from conftest import qdist, rand_quat, tanh_safe
from quatgrad import (AxisUnit, FDConfig, ONE, QI, QJ, QK, Quaternion,
                      RealGradient, Side, ZERO, convergence_order,
                      default_step, exp_q, gradient_error, hr_gradient_fd,
                      jet_exp, jet_pow, jet_seed, jet_tanh, real_partials_fd,
                      tanh_q)
from quatgrad.fd import least_squares_slope
from quatgrad.quaternion import left_sum


def test_config_validation():
    with pytest.raises(ValueError):
        FDConfig(0.0)
    with pytest.raises(ValueError):
        FDConfig(0.5)
    with pytest.raises(ValueError):
        FDConfig(1e-5, scheme="spectral")


def test_identity_function(rng):
    q = rand_quat(rng)
    g = real_partials_fd(lambda z: z, q, FDConfig(default_step(q)))
    for got, want in zip(g.as_tuple(), (ONE, QI, QJ, QK)):
        assert qdist(got, want) <= 1e-10


def test_constant_function(rng):
    q, c = rand_quat(rng), rand_quat(rng)
    g = real_partials_fd(lambda z: c, q, FDConfig(1e-5))
    assert all(p == ZERO for p in g.as_tuple())


def test_square_function_partials(rng):
    # d(q^2)/dq_a = 2q, d/dq_b = i q + q i, ...
    q = rand_quat(rng)
    g = real_partials_fd(lambda z: z * z, q, FDConfig(default_step(q)))
    assert qdist(g.dA, q * 2.0) <= 1e-9 * max(1.0, abs(q))
    for u, got in zip((QI, QJ, QK), g.as_tuple()[1:]):
        assert qdist(got, u * q + q * u) <= 1e-9 * max(1.0, abs(q))


def test_hr_gradient_fd_conjugate(rng):
    q = rand_quat(rng)
    h = hr_gradient_fd(lambda z: z.conjugate(), q, FDConfig(default_step(q)))
    assert qdist(h.d1, Quaternion(-0.5)) <= 1e-10
    assert h.side is Side.LEFT


def test_hr_gradient_fd_linear(rng):
    q, c = rand_quat(rng), rand_quat(rng)
    cfg = FDConfig(default_step(q))
    left = hr_gradient_fd(lambda z: c * z, q, cfg)
    right = hr_gradient_fd(lambda z: c * z, q, cfg, Side.RIGHT)
    assert qdist(left.d1, c) <= 1e-9
    assert qdist(right.d1, Quaternion(c.a)) <= 1e-9


FD_CASES = [
    ("q^2", lambda q: q * q, lambda s: s * s, None),
    ("q^3", lambda q: q ** 3, lambda s: jet_pow(s, 3), None),
    ("q^-1", lambda q: q.inverse(), lambda s: s.inverse(),
     lambda q: abs(q) > 0.4),
    ("q*q", lambda q: q.conjugate() * q, lambda s: s.conjugate() * s, None),
    ("exp", exp_q, jet_exp, lambda q: abs(q) < 2.5),
    ("tanh", tanh_q, jet_tanh, lambda q: tanh_safe(q)),
]


@pytest.mark.parametrize("label,f,jet_of,safe", FD_CASES,
                         ids=[c[0] for c in FD_CASES])
def test_central_fd_matches_jets(label, f, jet_of, safe, rng):
    done = 0
    while done < 100:
        q = rand_quat(rng)
        if safe is not None and not safe(q):
            continue
        done += 1
        est = real_partials_fd(f, q, FDConfig(default_step(q)))
        ref = jet_of(jet_seed(q)).grad
        assert gradient_error(est, ref) <= 1e-6


def test_richardson_reduces_error_on_cube(rng):
    improvements = []
    for _ in range(100):
        q = rand_quat(rng)
        ref = jet_pow(jet_seed(q), 3).grad
        plain = gradient_error(
            real_partials_fd(lambda z: z ** 3, q, FDConfig(1e-3)), ref)
        rich = gradient_error(
            real_partials_fd(lambda z: z ** 3, q,
                             FDConfig(1e-3, richardson=True)), ref)
        improvements.append(rich < plain)
    assert sorted(improvements)[len(improvements) // 2]  # median improves


def test_central_richardson_is_exact_on_cube(rng):
    # (4 E_{h/2} - E_h)/3 cancels the h^2 term of central differences, the
    # only one a cubic has, so at h = 0.01 what is left is rounding: at most
    # 5.5e-14 over 800 draws of four seeds; a weight of 3 leaves up to
    # 2.5e-5 of the h^2 term
    for _ in range(100):
        q = rand_quat(rng)
        ref = jet_pow(jet_seed(q), 3).grad
        est = real_partials_fd(lambda z: z ** 3, q,
                               FDConfig(1e-2, richardson=True))
        assert gradient_error(est, ref) <= 1e-13


def test_forward_richardson_is_second_order_on_cube():
    # 2 E_{h/2} - E_h cancels the forward scheme's O(h) term
    q = Quaternion(0.4, 0.3, -0.2, 0.6)
    ref = jet_pow(jet_seed(q), 3).grad
    steps = [1e-2 / 2 ** i for i in range(5)]
    logs = []
    for h in steps:
        rich = gradient_error(real_partials_fd(
            lambda z: z ** 3, q, FDConfig(h, "forward", richardson=True)), ref)
        plain = gradient_error(real_partials_fd(
            lambda z: z ** 3, q, FDConfig(h, "forward")), ref)
        assert rich <= 0.01 * plain
        logs.append((math.log(h), math.log(rich)))
    assert 1.8 <= least_squares_slope(*zip(*logs)) <= 2.2


def test_convergence_order_central_cube():
    q = Quaternion(0.4, 0.3, -0.2, 0.6)
    ref = jet_pow(jet_seed(q), 3).grad
    steps = [1e-2 / 2 ** i for i in range(5)]
    slope = convergence_order(lambda z: z ** 3, q, steps, ref)
    assert 1.8 <= slope <= 2.2


def test_convergence_order_forward_exp():
    q = Quaternion(0.2, 0.5, -0.3, 0.1)
    ref = jet_exp(jet_seed(q)).grad
    steps = [1e-2 / 2 ** i for i in range(5)]
    slope = convergence_order(exp_q, q, steps, ref, scheme="forward")
    assert 0.8 <= slope <= 1.2


def test_convergence_order_linear_is_at_floor():
    # linear functions are exact: errors sit at the rounding floor,
    # the slope cannot be estimated
    q = Quaternion(0.4, 0.3, -0.2, 0.6)
    steps = [1e-2 / 2 ** i for i in range(5)]
    slope = convergence_order(lambda z: z, q, steps, jet_seed(q).grad)
    assert math.isnan(slope)


def test_least_squares_slope_matches_polyfit():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(2, 13))
        xs = rng.uniform(-25.0, -1.0, n)
        ys = rng.uniform(-1.0, 1.0) * xs + rng.normal(0.0, 3.0, n) \
            + rng.uniform(-40.0, 0.0)
        slope = least_squares_slope(xs.tolist(), ys.tolist())
        expected = np.polyfit(xs, ys, 1)[0]
        assert abs(slope - expected) <= 1e-12 * max(1.0, abs(expected))


def test_left_sum_is_a_left_fold_where_fsum_differs():
    xs = [1e16, 1.0, -1e16]
    total = 0.0
    for x in xs:
        total += x
    assert math.fsum(xs) == 1.0  # and sum() on Python 3.12 and later
    assert left_sum(xs) == left_sum(iter(xs)) == total == 0.0
    assert repr(left_sum([-0.0])) == repr(0 + -0.0) == "0.0"
    assert repr(left_sum([])) == "0.0"


def test_fd_sums_floats_without_builtin_sum(monkeypatch):
    # sum() compensates since Python 3.12; fd's results are a left fold on
    # every Python
    g = RealGradient(Quaternion(1e8), QI, QJ, Quaternion(1e-8))
    xs, ys = [-1.0, -2.0, -3.5], [0.5, 1e16, -1e16]
    native = gradient_error(g, g.involution(AxisUnit.I)), \
        least_squares_slope(xs, ys)

    def no_sum(*args):
        raise AssertionError("fd called sum()")
    monkeypatch.setattr(builtins, "sum", no_sum)
    assert (gradient_error(g, g.involution(AxisUnit.I)),
            least_squares_slope(xs, ys)) == native


def test_convergence_order_matches_polyfit():
    rng = np.random.default_rng(12)
    for scheme in ("central", "forward"):
        for _ in range(20):
            q = rand_quat(rng)
            ref = jet_exp(jet_seed(q)).grad
            steps = [10.0 ** rng.uniform(-4.0, -1.5) / 2 ** i
                     for i in range(int(rng.integers(3, 7)))]
            points = []
            for h in steps:
                err = gradient_error(
                    real_partials_fd(exp_q, q, FDConfig(h, scheme)), ref)
                if err >= 1e-12:
                    points.append((math.log(h), math.log(err)))
            slope = convergence_order(exp_q, q, steps, ref, scheme)
            expected = np.polyfit(*zip(*points), 1)[0]
            assert abs(slope - expected) <= 1e-12 * max(1.0, abs(expected))


def test_convergence_order_needs_three_steps():
    q = Quaternion(0.4)
    with pytest.raises(ValueError):
        convergence_order(lambda z: z * z, q, [1e-2, 1e-3],
                          (jet_seed(q) * jet_seed(q)).grad)


def test_fd_propagates_function_errors():
    def bad(z):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        real_partials_fd(bad, ONE, FDConfig(1e-5))
