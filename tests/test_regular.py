import math

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import qdist, rand_pure_unit, rand_quat, rand_quat_in_shell, tanh_safe
from quatgrad import (DomainError, Elementary, FDConfig, ONE, OutsideAnnulus,
                      PoleError, PowerSeriesFn, QI, QJ, Quaternion, Side,
                      ZERO, default_step, exp_derivative, exp_series,
                      gradient_error, hr_gradient_fd, jet_exp, jet_pow,
                      jet_seed, jet_tanh, left_from_real, ln_derivative, ln_q,
                      ln_real_gradient, power_derivative,
                      power_derivative_oracle, real_axis_limit_check,
                      symmetric_ratio, tanh_derivative, tanh_q, tanh_series)
from quatgrad.regular import _tangent_numbers


# -- symmetric ratio -----------------------------------------------------------

def test_symmetric_ratio_low_orders(rng):
    for _ in range(50):
        qt = rand_quat(rng)
        if abs(qt) < 0.1:
            continue
        assert symmetric_ratio(qt, 1) == 1.0
        assert abs(symmetric_ratio(qt, 2) - 2.0 * qt.a) <= 1e-14 * max(1.0, abs(qt))


def test_symmetric_ratio_real_axis_limit():
    # v -> 0 with n = 3, qt_a = 2: limit n * qt_a^(n-1) = 12
    assert symmetric_ratio(Quaternion(2.0), 3) == pytest.approx(12.0, abs=1e-12)
    for v in (1e-2, 1e-4, 1e-6):
        got = symmetric_ratio(Quaternion(2.0, v), 3)
        assert abs(got - 12.0) <= 10.0 * v + 1e-10


def test_symmetric_ratio_negative_real_axis():
    # theta = pi: the Chebyshev recurrence covers cos(theta) = -1
    qt = Quaternion(-2.0)
    for n in (2, 3, 4, -1, -2):
        assert symmetric_ratio(qt, n) == pytest.approx(n * (-2.0) ** (n - 1),
                                                       rel=1e-13)


def test_symmetric_ratio_matches_literal_quotient(rng):
    for _ in range(300):
        qt = rand_quat_in_shell(rng, 0.4, 2.0)
        if qt.imag_norm() < 0.05:
            continue
        n = int(rng.integers(-6, 7))
        if n == 0:
            continue
        literal = (qt ** n - qt.conjugate() ** n) * (qt - qt.conjugate()).inverse()
        s = symmetric_ratio(qt, n)
        assert literal.imag_norm() <= 1e-13 * max(1.0, abs(literal))
        assert abs(literal.a - s) <= 1e-13 * max(1.0, abs(s))


def test_symmetric_ratio_zero_point():
    with pytest.raises(ZeroDivisionError):
        symmetric_ratio(ZERO, 0)
    with pytest.raises(ZeroDivisionError):
        symmetric_ratio(ZERO, -1)
    assert symmetric_ratio(ZERO, 1) == 1.0
    assert symmetric_ratio(ZERO, 2) == 0.0


def test_symmetric_ratio_order_zero_away_from_zero():
    assert symmetric_ratio(Quaternion(0.3, 0.4), 0) == 0.0


# -- power derivatives ---------------------------------------------------------

def test_power_derivative_small_n(rng):
    q = rand_quat(rng)
    assert power_derivative(q, ZERO, 0) == ZERO
    assert power_derivative(q, ZERO, 1) == ONE
    # n = -1 at q = i: -q^-1 R(q^-1) = 0
    assert qdist(power_derivative(QI, ZERO, -1), ZERO) <= 1e-15
    assert power_derivative(Quaternion(1, 2, 3, 4), ZERO, 2) == \
        Quaternion(2, 2, 3, 4)


def test_power_derivative_oracle_small_sums(rng):
    q = rand_quat(rng)
    qt = q
    assert qdist(power_derivative_oracle(q, ZERO, 2), qt + qt.a) <= 1e-14
    want3 = qt * qt + qt * qt.a + (qt * qt).a
    assert qdist(power_derivative_oracle(q, ZERO, 3), want3) <= 1e-13


def test_power_derivative_vs_oracle_sweep(rng):
    for n in range(-8, 9):
        for _ in range(100):
            center = rand_quat(rng, 0.3)
            q = center + rand_quat_in_shell(rng, 0.5, 2.0)
            closed = power_derivative(q, center, n)
            oracle = power_derivative_oracle(q, center, n)
            assert qdist(closed, oracle) <= 1e-11 * max(1.0, abs(oracle))


def test_power_derivative_left_equals_right(rng):
    for n in range(-8, 9):
        for _ in range(30):
            q = rand_quat_in_shell(rng, 0.5, 2.0)
            assert qdist(power_derivative(q, ZERO, n, Side.LEFT),
                         power_derivative(q, ZERO, n, Side.RIGHT)) <= 1e-13


def test_power_derivative_vs_jets(rng):
    for n in range(-8, 9):
        if n == 0:
            continue
        for _ in range(30):
            q = rand_quat_in_shell(rng, 0.5, 2.0)
            closed = power_derivative(q, ZERO, n)
            via_jet = left_from_real(jet_pow(jet_seed(q), n).grad).d1
            assert qdist(closed, via_jet) <= 1e-10 * max(1.0, abs(closed))


def test_power_derivative_negative_recurrence(rng):
    # Oracle recurrence route for n = -2 against the closed form
    q = rand_quat_in_shell(rng, 0.6, 1.8)
    qinv = q.inverse()
    d1 = -(qinv * qinv.a)
    d2 = qinv * (d1 - Quaternion((qinv * qinv).a))
    assert qdist(d2, power_derivative(q, ZERO, -2)) <= 1e-13


def test_power_derivative_zero_division():
    with pytest.raises(ZeroDivisionError):
        power_derivative(ONE, ONE, -1)


# -- power series --------------------------------------------------------------

def test_series_single_term_matches_power(rng):
    f = PowerSeriesFn(ZERO, {2: ONE})
    for _ in range(20):
        q = rand_quat(rng)
        assert qdist(f.derivative(q), power_derivative(q, ZERO, 2)) <= 1e-14


def test_series_termwise_equals_coefficient_weighted_powers(rng):
    coeffs = {n: rand_quat(rng) for n in (-2, -1, 0, 1, 3)}
    f = PowerSeriesFn(ZERO, coeffs, annulus=(0.2, 3.0))
    for _ in range(50):
        q = rand_quat_in_shell(rng, 0.4, 2.0)
        termwise = ZERO
        for n, a in coeffs.items():
            termwise = termwise + a * power_derivative(q, ZERO, n)
        assert qdist(f.derivative(q), termwise) <= 1e-12 * max(1.0, abs(termwise))


def test_truncated_exp_series_matches_closed_form():
    f = exp_series(30)
    q = Quaternion(0.3, 0.4)
    assert qdist(f.derivative(q), exp_derivative(q)) <= 1e-10
    assert qdist(f.evaluate(q), Quaternion(*(float(x) for x in (
        mpmath.cos(0.4), mpmath.sin(0.4), 0, 0))) * float(mpmath.e ** 0.3)) <= 1e-12


def test_real_coefficient_series_sides_agree(rng):
    for _ in range(100):
        coeffs = {n: Quaternion(float(rng.standard_normal()))
                  for n in range(-3, 7)}
        left = PowerSeriesFn(ZERO, coeffs, Side.LEFT, (0.1, 3.0))
        right = PowerSeriesFn(ZERO, coeffs, Side.RIGHT, (0.1, 3.0))
        q = rand_quat_in_shell(rng, 0.5, 2.0)
        assert qdist(left.derivative(q), right.derivative(q)) <= 1e-12


def test_quaternion_coefficients_sides_differ():
    coeffs = {2: QI}
    left = PowerSeriesFn(ZERO, coeffs, Side.LEFT)
    right = PowerSeriesFn(ZERO, coeffs, Side.RIGHT)
    q = Quaternion(0.5, 0.0, 1.2, 0.0)
    # i q^2 != q^2 i here, and the usual-derivative parts differ likewise
    assert qdist(left.evaluate(q), right.evaluate(q)) > 0.1
    assert qdist(left.derivative(q), right.derivative(q)) > 0.1


def test_usual_derivative_examples(rng):
    f = exp_series(35)
    q = rand_quat(rng, 0.5)
    from quatgrad import exp_q
    assert qdist(f.usual_derivative(q), exp_q(q)) <= 1e-12

    c = rand_quat(rng)
    lin_left = PowerSeriesFn(ZERO, {1: c}, Side.LEFT)
    lin_right = PowerSeriesFn(ZERO, {1: c}, Side.RIGHT)
    assert lin_left.usual_derivative(q) == c
    assert lin_right.usual_derivative(q) == c

    cubic = PowerSeriesFn(ZERO, {3: ONE})
    assert qdist(cubic.usual_derivative(QI), Quaternion(-3)) <= 1e-15


def test_annulus_enforcement():
    f = PowerSeriesFn(ZERO, {-1: ONE, 2: ONE}, annulus=(0.5, 2.0))
    with pytest.raises(OutsideAnnulus):
        f.derivative(Quaternion(0.1))
    with pytest.raises(OutsideAnnulus):
        f.evaluate(Quaternion(5.0))
    # nonnegative powers are valid at the center despite annulus[0] > 0
    g = PowerSeriesFn(ZERO, {0: ONE, 2: ONE}, annulus=(0.5, 2.0))
    assert g.evaluate(ZERO) == ONE


def test_power_series_rejects_empty_coefficients_and_bad_annulus():
    with pytest.raises(ValueError, match="at least one coefficient"):
        PowerSeriesFn(ZERO, {})
    for annulus in ((-0.1, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError, match="invalid annulus"):
            PowerSeriesFn(ZERO, {1: ONE}, annulus=annulus)


# -- elementary closed forms ---------------------------------------------------

@pytest.mark.parametrize("x", [0.3, -0.7, 5.0, -5.0, 10.0, 18.0, 25.0, -25.0,
                               300.0])
def test_tanh_real_derivative_is_sech_squared(x):
    # 1 - tanh(x)^2 would cancel: 4.3e-2 relative error at 18, all at 25
    with mpmath.workprec(200):
        want = mpmath.sech(x) ** 2
        assert abs(Elementary.tanh().real_derivative(x) - want) <= 1e-15 * want


def test_exp_derivative_values():
    assert exp_derivative(ZERO) == ONE
    assert qdist(exp_derivative(Quaternion(2)), Quaternion(math.exp(2))) <= 1e-12
    want = (QI + Quaternion(2 / math.pi)) * 0.5
    assert qdist(exp_derivative(QI * (math.pi / 2)), want) <= 1e-15


def test_ln_derivative_values():
    assert ln_derivative(ONE) == ONE
    want = (-QI + Quaternion(math.pi / 2)) * 0.5
    assert qdist(ln_derivative(QI), want) <= 1e-15
    assert qdist(ln_derivative(Quaternion(math.e)), Quaternion(1 / math.e)) <= 1e-15
    with pytest.raises(DomainError):
        ln_derivative(ZERO)
    with pytest.raises(DomainError):
        ln_derivative(Quaternion(-1.5))


def test_tanh_derivative_values():
    assert qdist(tanh_derivative(ZERO), ONE) <= 1e-15
    sech2 = 1.0 / math.cosh(0.5) ** 2
    assert qdist(tanh_derivative(Quaternion(0.5)), Quaternion(sech2)) <= 1e-14
    with pytest.raises(PoleError):
        tanh_derivative(QI * (math.pi / 2))


def test_tanh_derivative_far_from_origin_is_finite():
    for q in (Quaternion(700.0), Quaternion(-700.0, 0.3, 0.0, -0.2),
              Quaternion(1e300, 1.0)):
        d = tanh_derivative(q)
        assert all(math.isfinite(x) for x in (d.a, d.b, d.c, d.d))
    assert tanh_derivative(Quaternion(700.0)) == ZERO


def test_tanh_derivative_matches_series():
    f = tanh_series(61)
    q = Quaternion(0.3, 0.4)
    assert qdist(f.derivative(q), tanh_derivative(q)) <= 1e-8


def test_tanh_series_coefficients_vs_mpmath():
    # independent check of the tangent-number route
    f = tanh_series(21)
    taylor = mpmath.taylor(mpmath.tanh, 0, 21)
    for n, a in f.coeffs.items():
        assert a.a == pytest.approx(float(taylor[n]), rel=1e-13)
    assert set(f.coeffs) == {n for n in range(22) if n % 2 == 1}


def test_tangent_numbers_match_bernoulli():
    # T_m = 2^{2m} (2^{2m} - 1) |B_{2m}| / (2m); T_40 has 102 digits
    with mpmath.workdps(400):
        want = [int(mpmath.nint(4 ** m * (4 ** m - 1)
                                * abs(mpmath.bernoulli(2 * m)) / (2 * m)))
                for m in range(1, 41)]
    assert want[:4] == [1, 2, 16, 272]
    assert _tangent_numbers(40) == want


def test_elementary_derivatives_vs_finite_differences(rng):
    cases = (
        (Elementary.exp(), lambda q: abs(q) < 2.0),
        (Elementary.ln(), lambda q: q.a > 0.3 and q.imag_norm() > 0.1),
        (Elementary.tanh(), lambda q: tanh_safe(q)),
    )
    for fn, safe in cases:
        done = 0
        while done < 200:
            q = rand_quat(rng)
            if not safe(q):
                continue
            done += 1
            cfg = FDConfig(default_step(q), richardson=True)
            fd_d1 = hr_gradient_fd(fn.value, q, cfg).d1
            closed = fn.hr_derivative(q)
            assert qdist(fd_d1, closed) <= 1e-6 * max(1.0, abs(closed))


# -- full real gradient of ln --------------------------------------------------

def test_ln_real_gradient_reproduces_closed_derivative(rng):
    for _ in range(50):
        q = rand_quat(rng)
        if q.a < 0.2 or q.imag_norm() < 0.05 or q.imag_norm() > 2.5:
            continue
        d1 = left_from_real(ln_real_gradient(q)).d1
        assert qdist(d1, ln_derivative(q)) <= 1e-11 * max(1.0, abs(ln_derivative(q)))


def test_ln_real_gradient_inverts_exp_jet(rng):
    from quatgrad import jet_exp
    q = Quaternion(1.1, 0.4, -0.3, 0.2)
    g_ln = ln_real_gradient(q)
    g_exp = jet_exp(jet_seed(ln_q(q))).grad
    # chain: d exp(ln q)/dq_b should be the unit i, etc.
    for idx, unit in enumerate((ONE, QI, QJ, Quaternion(0, 0, 0, 1))):
        acc = ZERO
        ln_part = g_ln.as_tuple()[idx]
        for comp, exp_part in zip((ln_part.a, ln_part.b, ln_part.c, ln_part.d),
                                  g_exp.as_tuple()):
            acc = acc + exp_part * comp
        assert qdist(acc, unit) <= 1e-12


# -- full real gradient through the intrinsic lift ------------------------------

@pytest.mark.parametrize("v", [None, 0.0, 1e-300, 1e-12, 1e-8])
def test_elementary_real_gradient_matches_jets(rng, v):
    # v is None: random points and random quaternion centers.  Otherwise the
    # lift point sits at distance v from the real axis; the centers are then
    # real, because a quaternion center would round an imaginary part of
    # 1e-300 away.
    for _ in range(40):
        if v is None:
            offset = rand_quat(rng)
            center = rand_quat(rng, 0.3)
        else:
            a = float(rng.uniform(0.3, 1.5)) * (1 if rng.random() < 0.5 else -1)
            offset = Quaternion(a) + rand_pure_unit(rng) * v
            center = Quaternion(float(rng.standard_normal()) * 0.3)
        cases = [(Elementary.exp(), offset, jet_exp(jet_seed(offset)).grad)]
        if tanh_safe(offset):
            cases.append((Elementary.tanh(), offset,
                          jet_tanh(jet_seed(offset)).grad))
        if abs(offset) >= 0.3:
            q = center + offset
            cases.extend((Elementary.power(n, center), q,
                          jet_pow(jet_seed(q) - center, n).grad)
                         for n in range(-4, 13))
        for fn, q, oracle in cases:
            err = gradient_error(fn.real_gradient(q), oracle)
            assert err <= 1e-12, (fn, q, err)


@pytest.mark.parametrize("v", [None, 0.0, 1e-300, 1e-12, 1e-8])
def test_elementary_power_lift_matches_chebyshev_form(rng, v):
    # the lift of z^n against (q - c)^n and the paper's Chebyshev closed form
    for _ in range(20):
        if v is None:
            center = rand_quat(rng, 0.3)
            offset = rand_quat_in_shell(rng, 0.5, 2.0)
        else:
            center = Quaternion(float(rng.standard_normal()) * 0.3)
            a = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
            offset = Quaternion(a) + rand_pure_unit(rng) * v
        q = center + offset
        for n in range(-6, 13):
            fn = Elementary.power(n, center)
            value = (q - center) ** n
            assert qdist(fn.value(q), value) <= 1e-12 * max(1.0, abs(value))
            closed = power_derivative(q, center, n)
            assert (qdist(fn.hr_derivative(q), closed)
                    <= 1e-12 * max(1.0, abs(closed))), (n, q)


@pytest.mark.parametrize("n", [101, 200, 1000, -150])
@pytest.mark.parametrize("v", [1e-300, 1e-12])
def test_elementary_high_power_next_to_negative_axis(rng, n, v):
    # past |n| = 100 a polar z ** n has a phase error ~ n pi 2^-53 that
    # would swamp Im z^n ~ n qt_a^(n-1) v next to the negative real axis
    for _ in range(10):
        center = Quaternion(float(rng.standard_normal()) * 0.3)
        qt = Quaternion(-float(rng.uniform(0.9, 1.1))) + rand_pure_unit(rng) * v
        q = center + qt
        fn = Elementary.power(n, center)
        closed = power_derivative(q, center, n)
        tol = 1e-12 * max(1.0, abs(closed))
        assert qdist(fn.hr_derivative(q), closed) <= tol, (n, q)
        assert qdist(left_from_real(fn.real_gradient(q)).d1, closed) <= tol


def test_ratio_term_survives_underflow():
    # Im F(z) underflows at v = 1e-300; the ratio term is then F'(q_a)
    q = Quaternion(-700.0, 1e-300)
    expected = Quaternion(math.exp(-700.0))
    assert qdist(exp_derivative(q), expected) <= 1e-15 * abs(expected)
    d1 = left_from_real(Elementary.exp().real_gradient(q)).d1
    assert qdist(d1, expected) <= 1e-15 * abs(expected)
    q = Quaternion(0.0247, 1e-300)
    closed = power_derivative(q, ZERO, 12)
    assert (qdist(Elementary.power(12).hr_derivative(q), closed)
            <= 1e-15 * abs(closed))


# -- real-axis consistency -----------------------------------------------------

def test_real_axis_limit_monotone(rng):
    v_sequence = [10.0 ** (-p) for p in range(1, 7)]
    cases = (
        (Elementary.exp(), 1.0),
        (Elementary.ln(), 2.0),
        (Elementary.tanh(), 0.5),
        (Elementary.power(3), 1.3),
        (Elementary.power(-1), 1.5),
        (Elementary.power(-2), 1.5),
    )
    for fn, q_a in cases:
        axis = rand_pure_unit(rng)
        errors = real_axis_limit_check(fn, q_a, v_sequence, axis)
        assert all(b < a for a, b in zip(errors, errors[1:])), (fn, errors)


def test_real_axis_limit_power2_error_is_exactly_v(rng):
    # d(q^2)/dq = q + q_a, so the distance to 2 q_a is exactly v
    fn = Elementary.power(2)
    axis = rand_pure_unit(rng)
    errors = real_axis_limit_check(fn, 1.0, [0.1, 0.01, 1e-3], axis)
    for err, v in zip(errors, [0.1, 0.01, 1e-3]):
        assert err == pytest.approx(v, rel=1e-12)


def test_real_axis_limit_check_validates_axis():
    with pytest.raises(ValueError):
        real_axis_limit_check(Elementary.exp(), 1.0, [0.1], ONE)
    with pytest.raises(ValueError):
        real_axis_limit_check(Elementary.exp(), 1.0, [0.1], QI * 0.5)


@pytest.mark.parametrize("v", [0.0, -0.0, -1e-3])
def test_real_axis_limit_check_rejects_a_non_positive_v(v):
    with pytest.raises(ValueError, match="v sequence must be positive"):
        real_axis_limit_check(Elementary.exp(), 1.0, [0.1, v], QI)


def test_elementary_power_value_and_real_derivative():
    fn = Elementary.power(3, ONE)
    assert fn.value(Quaternion(2)) == ONE
    assert fn.real_derivative(2.0) == 3.0
    assert fn.hr_derivative(Quaternion(2)) == Quaternion(3.0)
    with pytest.raises(ZeroDivisionError):
        Elementary.power(-1).value(ZERO)


def test_real_derivative_needs_a_real_center():
    with pytest.raises(ValueError, match="real center"):
        Elementary.power(2, Quaternion(1.0, 0.5)).real_derivative(2.0)


def test_elementary_tanh_value_matches_quotient():
    fn = Elementary.tanh()
    q = Quaternion(0.2, 0.1, -0.3, 0.4)
    assert qdist(fn.value(q), tanh_q(q)) == 0.0


_POLE_CENTER = Quaternion(0.5, -1.0, 0.25, 2.0)


@pytest.mark.parametrize("fn, q, error", [
    (Elementary.ln(), ZERO, DomainError),
    (Elementary.ln(), -ONE, DomainError),
    (Elementary.tanh(), Quaternion.from_string("0+1.5707963267948966i+0j+0k"),
     PoleError),
    (Elementary.power(-2, _POLE_CENTER), _POLE_CENTER, ZeroDivisionError),
], ids=["ln-zero", "ln-negative-axis", "tanh-pole", "power-pole"])
def test_one_check_guards_every_route(fn, q, error):
    raised = []
    for route in (fn.value, fn.hr_derivative, fn.real_gradient):
        with pytest.raises(error) as info:
            route(q)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] == raised[2]


def test_elementary_values_are_built_once():
    assert Elementary.exp() is Elementary.exp()
    assert Elementary.ln() is Elementary.ln()
    assert Elementary.tanh() is Elementary.tanh()
    assert Elementary.power(3, ONE) == Elementary.power(3, ONE)
    assert hash(Elementary.power(3, ONE)) == hash(Elementary.power(3, ONE))
    assert Elementary.power(3) != Elementary.power(4)
    assert Elementary.exp() != Elementary.ln()
    assert repr(Elementary.power(-2, ONE)) == \
        f"Elementary(kind='power', n=-2, center={ONE!r})"


@pytest.mark.parametrize("q", [Quaternion(0.3, 0.4, -0.2, 0.1),
                               Quaternion(0.3)], ids=["v>0", "v=0"])
def test_each_route_evaluates_the_lift_once(q):
    # (F, F') calls per route on a directly built Elementary
    calls = {"F": 0, "dF": 0}

    def counted(name, g):
        def wrapped(z):
            calls[name] += 1
            return g(z)
        return wrapped

    center = Quaternion(-0.5, 0.1)
    fn = Elementary("power", counted("F", lambda z: z ** 3),
                    counted("dF", lambda z: 3 * z ** 2), lambda q: None, 3,
                    center)
    counts = {}
    for route in ("value", "hr_derivative", "real_gradient"):
        calls.update(F=0, dF=0)
        getattr(fn, route)(q + center)
        counts[route] = (calls["F"], calls["dF"])
    assert counts == {"value": (1, 0), "hr_derivative": (1, 1),
                      "real_gradient": (1, 1)}


# -- the zero center ----------------------------------------------------------

_SIGNED_TINY = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                                2.2250738585072014e-308])
_COMPONENTS = st.floats(min_value=-1e50, max_value=1e50) | _SIGNED_TINY
_POINTS = st.builds(Quaternion, _COMPONENTS, _COMPONENTS, _COMPONENTS,
                    _COMPONENTS)
_ROUTES = ("value", "hr_derivative", "real_gradient")


def _outcome(route, q, with_message=True):
    try:
        return repr(route(q))
    except (ArithmeticError, ValueError) as e:  # NonFiniteComponent included
        return (type(e), str(e)) if with_message else type(e)


@given(_POINTS, st.sampled_from([-3, -2, -1, 0, 1, 2, 3, 5]))
@example(Quaternion(-0.0, -0.0, -0.0, -0.0), 2)
@example(Quaternion(-0.0, -0.0, -0.0, -0.0), -1)
@example(Quaternion(1.0, -0.0, 0.5, -5e-324), 3)
@example(Quaternion(-5e-324, 5e-324, -0.0, 0.0), -2)
def test_zero_center_shortcut_is_bit_identical(q, n):
    # the ZERO center takes q as qt; any other center, a +0 one included,
    # subtracts it
    fast = Elementary.power(n)
    plus_zero = Quaternion(0.0)
    assert fast.center is ZERO and plus_zero is not ZERO
    slow = Elementary.power(n, plus_zero)
    for route in _ROUTES:
        assert _outcome(getattr(fast, route), q) == \
            _outcome(getattr(slow, route), q)
    # a -0.0 center (== ZERO) still subtracts: its routes are those of the
    # ZERO center at the explicit q - center, which has no -0.0 component
    # (errors by type: the pole's message names the center)
    minus_zero = Quaternion(-0.0, -0.0, -0.0, -0.0)
    assert minus_zero == ZERO
    shifted = Elementary.power(n, minus_zero)
    for route in _ROUTES:
        assert _outcome(getattr(shifted, route), q, False) == \
            _outcome(getattr(fast, route), q - minus_zero, False)


def test_minus_zero_center_differs_from_the_shortcut():
    # why the shortcut tests identity, not ==: q's -0.0 component keeps its
    # sign through qt = q and loses it through q - (-0.0)
    q = Quaternion(1.0, -0.0, 0.5, 0.0)
    assert repr(Elementary.power(3).value(q).b) == "-0.0"
    assert repr(Elementary.power(3, Quaternion(-0.0, -0.0, -0.0, -0.0))
                .value(q).b) == "0.0"
