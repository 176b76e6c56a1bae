import copy
import dataclasses
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import qdist, rand_quat, tanh_safe
from quatgrad import (AxisUnit, DomainError, InconsistentQuadruple,
                      NonFiniteComponent, ONE, PoleError, QI, QJ, QK, Quaternion, ZERO,
                      components_from_involutions, cosh_abs_sq, exp_q,
                      isclose, jet_pow, jet_seed, ln_q, polar,
                      power_derivative, power_derivative_oracle, tanh_q)
from quatgrad.quaternion import random_quaternion

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


# -- construction --------------------------------------------------------------

def test_numpy_components_become_python_floats():
    q = Quaternion(*np.ones(4))
    assert all(type(x) is float for x in (q.a, q.b, q.c, q.d))
    assert Quaternion.from_string(str(q)) == q
    big = Quaternion(*np.full(4, 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails here
        with pytest.raises(NonFiniteComponent):
            big * big


def test_copy_pickle_and_replace_round_trip():
    # Quaternion has no __init__: these rebuild through __new__
    q = Quaternion(1.5, -0.0, 2.0, -3.25)
    for copied in (copy.copy(q), copy.deepcopy(q),
                   pickle.loads(pickle.dumps(q)),
                   pickle.loads(pickle.dumps(q, protocol=0))):
        assert type(copied) is Quaternion and repr(copied) == repr(q)
    replaced = dataclasses.replace(q, c=np.float64(7.0))
    assert replaced == Quaternion(1.5, -0.0, 7.0, -3.25)
    assert type(replaced.c) is float
    with pytest.raises(NonFiniteComponent):
        dataclasses.replace(q, d=math.inf)


@pytest.mark.parametrize("scale", [1.0, 0.5, 0.02, 3, np.float64(0.7),
                                   np.float32(0.3)])
def test_random_quaternion_matches_the_array_form(scale):
    # the draws times float(scale) as Python floats, bit for bit the float64
    # array times scale that random_quaternion once built from
    new, old = (np.random.default_rng(20_261_019) for _ in range(2))
    for _ in range(3000):
        q = random_quaternion(new, scale)
        assert repr(q) == repr(Quaternion(*(old.standard_normal(4) * scale)))
        assert all(type(x) is float for x in (q.a, q.b, q.c, q.d))


@pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan,
                                   np.float64(np.inf), np.float32(np.nan)])
def test_random_quaternion_rejects_a_non_finite_scale(scale):
    with pytest.raises(NonFiniteComponent):
        random_quaternion(np.random.default_rng(5), scale)


# -- multiplication ----------------------------------------------------------

UNIT_TABLE = [
    (QI, QJ, QK), (QJ, QK, QI), (QK, QI, QJ),
    (QJ, QI, -QK), (QK, QJ, -QI), (QI, QK, -QJ),
    (QI, QI, -ONE), (QJ, QJ, -ONE), (QK, QK, -ONE),
]


@pytest.mark.parametrize("x,y,want", UNIT_TABLE)
def test_unit_multiplication_table_exact(x, y, want):
    assert x * y == want


def test_mul_examples():
    assert QI * QJ == QK
    assert (ONE + QI) * (ONE + QJ) == Quaternion(1, 1, 1, 1)
    q = Quaternion(1, 2, 3, 4)
    assert qdist(q * q.inverse(), ONE) < 1e-15
    assert qdist(q.inverse() * q, ONE) < 1e-15


def test_real_factors_commute(rng):
    q = rand_quat(rng)
    assert q * 3.5 == 3.5 * q == q * Quaternion(3.5) == Quaternion(3.5) * q


def test_anticommutation_of_distinct_pure_axes(rng):
    axes = (QI, QJ, QK)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            p = axes[i] * float(rng.uniform(0.1, 3.0))
            q = axes[j] * float(rng.uniform(0.1, 3.0))
            assert p * q == -(q * p)


@given(quats, quats)
def test_conjugate_reverses_products(p, q):
    assert qdist((p * q).conjugate(), q.conjugate() * p.conjugate()) \
        <= 1e-12 * max(1.0, abs(p) * abs(q))


@given(quats)
def test_norm_identity(q):
    n2 = q.norm_sq()
    assert abs((q * q.conjugate()).a - n2) <= 1e-13 * max(1.0, n2)
    assert abs((q.conjugate() * q).a - n2) <= 1e-13 * max(1.0, n2)
    assert (q * q.conjugate()).imag_norm() <= 1e-13 * max(1.0, n2)


def test_inverse_identity_random(rng):
    for _ in range(1000):
        q = rand_quat(rng)
        if abs(q) < 1e-3:
            continue
        assert qdist(q * q.inverse(), ONE) <= 1e-13
        assert qdist(q.inverse(), q.conjugate() / q.norm_sq()) <= 1e-13


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_constructor_rejects_non_finite():
    with pytest.raises(ValueError):
        Quaternion(math.nan)
    with pytest.raises(ValueError):
        Quaternion(0.0, math.inf)


def test_integer_powers(rng):
    q = rand_quat(rng)
    assert q ** 0 == ONE
    assert q ** 1 == q
    assert qdist(q ** 3, q * q * q) <= 1e-13 * abs(q) ** 3
    assert qdist(q ** -2, (q * q).inverse()) <= 1e-12


# -- involutions -------------------------------------------------------------

def test_involution_known_values():
    q = Quaternion(1, 2, 3, 4)
    assert q.involution(AxisUnit.I) == Quaternion(1, 2, -3, -4)
    assert q.involution(AxisUnit.J) == Quaternion(1, -2, 3, -4)
    assert q.involution(AxisUnit.K) == Quaternion(1, -2, -3, 4)
    assert q.involution(AxisUnit.ONE) == q


@given(quats)
def test_involution_is_sandwich(q):
    # q^nu = -nu q nu
    for axis in (AxisUnit.I, AxisUnit.J, AxisUnit.K):
        u = axis.unit
        assert qdist(q.involution(axis), -(u * q * u)) <= 1e-13 * max(1.0, abs(q))


@given(quats)
def test_involution_relations(q):
    total = q + q.involution(AxisUnit.I) + q.involution(AxisUnit.J) \
        + q.involution(AxisUnit.K)
    assert qdist(total, Quaternion(4.0 * q.a)) <= 1e-13 * max(1.0, abs(q))
    lhs = q.involution(AxisUnit.I) + q.involution(AxisUnit.J) \
        + q.involution(AxisUnit.K) - q
    assert qdist(lhs, q.conjugate() * 2.0) <= 1e-13 * max(1.0, abs(q))


def _quadruple(q):
    return tuple(q.involution(axis) for axis in
                 (AxisUnit.ONE, AxisUnit.I, AxisUnit.J, AxisUnit.K))


def test_components_from_involutions_examples():
    assert components_from_involutions(*_quadruple(Quaternion(1, 2, 3, 4))) \
        == (1.0, 2.0, 3.0, 4.0)
    assert components_from_involutions(*_quadruple(ZERO)) == (0.0, 0.0, 0.0, 0.0)
    assert components_from_involutions(*_quadruple(QI)) == (0.0, 1.0, 0.0, 0.0)


def test_components_from_involutions_roundtrip(rng):
    for _ in range(200):
        q = rand_quat(rng, 2.0)
        rec = components_from_involutions(*_quadruple(q))
        assert max(abs(x - y) for x, y in zip(rec, (q.a, q.b, q.c, q.d))) <= 1e-13


def test_components_from_involutions_rejects_malformed():
    q = Quaternion(1, 2, 3, 4)
    good = _quadruple(q)
    bad = (good[0], good[1] + Quaternion(0, 0.01, 0, 0), good[2], good[3])
    with pytest.raises(InconsistentQuadruple):
        components_from_involutions(*bad)


# -- polar form --------------------------------------------------------------

def test_polar_known_values():
    p = polar(QI)
    assert (p.real_part, p.imag_norm) == (0.0, 1.0)
    assert p.imag_axis == QI
    assert p.argument == pytest.approx(math.pi / 2)

    p = polar(Quaternion(-3))
    assert (p.real_part, p.imag_norm) == (-3.0, 0.0)
    assert p.imag_axis is None
    assert p.argument == pytest.approx(math.pi)

    p = polar(Quaternion(1, 1, 1, 1))
    assert p.real_part == 1.0
    assert p.imag_norm == pytest.approx(math.sqrt(3))
    assert qdist(p.imag_axis, Quaternion(0, 1, 1, 1) / math.sqrt(3)) < 1e-15
    assert p.argument == pytest.approx(math.atan(math.sqrt(3)))


def test_polar_reconstruction(rng):
    for _ in range(300):
        q = rand_quat(rng)
        p = polar(q)
        if p.imag_axis is None:
            assert q.imag_norm() == 0.0
            continue
        assert qdist(p.imag_axis * p.imag_axis, -ONE) <= 1e-13
        rebuilt = Quaternion(p.real_part) + p.imag_axis * p.imag_norm
        assert qdist(rebuilt, q) <= 1e-13 * max(1.0, abs(q))


# -- exp / ln / tanh ---------------------------------------------------------

def test_exp_basic_values():
    assert exp_q(ZERO) == ONE
    assert qdist(exp_q(QI * math.pi), -ONE) <= 1e-15
    assert qdist(exp_q(Quaternion(2)), Quaternion(math.exp(2))) == 0.0


def test_exp_ln_roundtrip_example():
    q = Quaternion(1, 2, 3, 4)
    assert qdist(exp_q(ln_q(q)), q) <= 1e-13 * abs(q)


def test_ln_exp_roundtrip_random(rng):
    count = 0
    while count < 1000:
        q = rand_quat(rng)
        if q.imag_norm() >= math.pi - 0.1:
            continue
        count += 1
        back = ln_q(exp_q(q))
        for got, want in zip((back.a, back.b, back.c, back.d),
                             (q.a, q.b, q.c, q.d)):
            assert abs(got - want) <= 1e-10


def test_ln_basic_values():
    assert ln_q(ONE) == ZERO
    assert qdist(ln_q(QI), QI * (math.pi / 2)) <= 1e-15
    # ln(2 e) with e = exp(1 + j)
    e = exp_q(ONE + QJ)
    assert qdist(ln_q(e * 2.0), Quaternion(math.log(2) + 1, 0, 1, 0)) <= 1e-14


def test_ln_branch_errors():
    with pytest.raises(DomainError):
        ln_q(ZERO)
    with pytest.raises(DomainError):
        ln_q(Quaternion(-2))


def test_tanh_values(rng):
    assert tanh_q(ZERO) == ZERO
    assert tanh_q(Quaternion(0.5)).a == pytest.approx(math.tanh(0.5), abs=1e-15)
    # quotient definition as the oracle
    for _ in range(100):
        q = rand_quat(rng, 0.7)
        if not tanh_safe(q):
            continue
        e_pos, e_neg = exp_q(q), exp_q(-q)
        quotient = (e_pos - e_neg) * (e_pos + e_neg).inverse()
        assert qdist(quotient, tanh_q(q)) <= 1e-12
    q = ONE + QI
    e_pos, e_neg = exp_q(q), exp_q(-q)
    assert qdist((e_pos - e_neg) * (e_pos + e_neg).inverse(), tanh_q(q)) <= 1e-14


def test_tanh_pole():
    with pytest.raises(PoleError):
        tanh_q(QI * (math.pi / 2))


def test_tanh_far_from_origin_is_exactly_one():
    # sinh^2 q_a is beyond the float range here; tanh saturates at +-1
    assert tanh_q(Quaternion(700.0)) == ONE
    assert tanh_q(Quaternion(-700.0)) == -ONE
    assert cosh_abs_sq(Quaternion(700.0)) == math.inf
    assert cosh_abs_sq(Quaternion(-1000.0, 0.5)) == math.inf
    assert cosh_abs_sq(QI * (math.pi / 2)) < 1e-30


# -- text form ----------------------------------------------------------------

def test_string_form_examples():
    assert str(Quaternion(1, -2, 0, 4)) == "1.0-2.0i+0.0j+4.0k"
    assert Quaternion.from_string("1-2i+0j+4k") == Quaternion(1, -2, 0, 4)
    assert Quaternion.from_string("-1.5e-3+2i-3.25j+0.5e2k") == \
        Quaternion(-0.0015, 2, -3.25, 50)


@given(quats)
def test_string_roundtrip(q):
    assert Quaternion.from_string(str(q)) == q


@pytest.mark.parametrize("bad", [
    "", "1", "1+2i", "1+2i+3j", "1+2i+3j+4", "i+j+k+1", "1+2x+3j+4k",
    "1 + 2i + 3j + 4k", "(1,2,3,4)", "1+2i+3j+4k+5", "nan+0i+0j+0k",
])
def test_parser_rejects(bad):
    with pytest.raises(ValueError):
        Quaternion.from_string(bad)


def test_isclose():
    q = Quaternion(1, 2, 3, 4)
    assert isclose(q, q + Quaternion(1e-14))
    assert not isclose(q, q + Quaternion(1e-3))


# -- arithmetic results (the trusted constructor) ---------------------------------

def _components(q):
    return (q.a, q.b, q.c, q.d)


def test_numpy_scalar_operand_gives_python_float_components():
    q, s = Quaternion(1.0, -2.0, 3.0, -4.0), np.float64(2.5)
    results = (q + s, s + q, q - s, s - q, q * s, s * q, q / s,
               q + q, q - q, q * q)
    for r in results:
        assert type(r) is Quaternion
        assert all(type(x) is float for x in _components(r))
    assert q * s == q * 2.5 and s - q == 2.5 - q


@pytest.mark.parametrize("compute", [
    lambda q: q + "x", lambda q: "x" * q, lambda q: [1] * q, lambda q: q / q,
    lambda q: q ** 0.5, lambda q: "x" - q,
], ids=['q + "x"', '"x" * q', "[1] * q", "q / q", "q ** 0.5", '"x" - q'])
def test_unsupported_operands_raise_type_error(compute):
    # each operator returns NotImplemented for them, __rmul__ (= __mul__) too
    with pytest.raises(TypeError):
        compute(Quaternion(1.0, -2.0, 3.0, -4.0))


def test_numpy_scalar_times_quaternion_is_a_quaternion():
    r = np.float64(2.5) * Quaternion(1.0, -2.0, 3.0, -4.0)
    assert type(r) is Quaternion
    assert all(type(x) is float for x in _components(r))
    assert r == Quaternion(2.5, -5.0, 7.5, -10.0)


@pytest.mark.parametrize("compute, first", [
    # b = -inf and c = inf: the message names b's
    (lambda: Quaternion(1e200) * Quaternion(0.0, -1e200, 1e200, 0.0), "-inf"),
    (lambda: Quaternion(0.0, 1e200, 0.0, 0.0) * Quaternion(0.0, 1e200), "-inf"),
    (lambda: Quaternion(1.0, 1e300, -1e300) * 1e10, "inf"),
    (lambda: 1e10 * Quaternion(1.0, -1e300, 1e300), "-inf"),
    (lambda: Quaternion(1.0, 0.0, -1e300, 1e300) / 1e-10, "-inf"),
    (lambda: Quaternion(1.0, 0.0, 1e300) * np.float64(1e10), "inf"),
    (lambda: Quaternion(1e308, 1e308) + Quaternion(1e308, -1e308), "inf"),
    (lambda: Quaternion(-1e308) - 1e308, "-inf"),
    # the inverse itself stays finite (|q^-1| = 1/|q| and |q|^2 > 0);
    # q^-2 is the inverse squared, which overflows
    (lambda: Quaternion(1e-155) ** -2, "inf"),
])
def test_overflowing_results_name_the_first_non_finite_component(compute,
                                                                 first):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails here
        with pytest.raises(NonFiniteComponent) as info:
            compute()
    assert str(info.value) == f"non-finite quaternion component: {first}"


def test_inverse_of_the_smallest_norms_is_finite():
    for q in (Quaternion(1e-160), Quaternion(3e-162, -0.0, 0.0, 1e-170)):
        inv = q.inverse()
        assert all(math.isfinite(x) for x in _components(inv))


def _exact_inverse(q):
    """q* / |q|^2 in exact rationals, each component rounded once."""
    parts = [Fraction(x) for x in _components(q)]
    n2 = sum(x * x for x in parts)
    return Quaternion(*(float(s * x / n2)
                        for s, x in zip((1, -1, -1, -1), parts)))


# |q|^2 overflows above |q| ~ 1.34e154 and is subnormal below ~1.5e-154;
# the inverse scales q by a power of two there
@pytest.mark.parametrize("x", [1e155, 1e-155, 1e200, 1e-200, 1e300, 1e-300,
                               1.7e308, -1.7e308])
def test_inverse_holds_across_the_float_range(x):
    for q in (Quaternion(x), Quaternion(x, x), Quaternion(x, -x, x, x),
              Quaternion(0.0, x * 1e-8, -x, 0.5 * x)):
        inv = q.inverse()
        assert qdist(q * inv, ONE) <= 1e-15
        assert qdist(inv, _exact_inverse(q)) <= 1e-15 * abs(inv)


@pytest.mark.parametrize("q", [
    Quaternion(1e155, 1e155),    # |q|^2 overflowed: the inverse was 0
    Quaternion(1e-160, 1e-160),  # subnormal |q|^2: 1.1e-5 relative error
    Quaternion(1e-200, 1e-200),  # |q|^2 underflowed: ZeroDivisionError
])
def test_inverse_where_the_squared_norm_leaves_the_normal_range(q):
    assert q.inverse() == _exact_inverse(q)


def test_inverse_in_the_normal_range_is_the_plain_formula(rng):
    # bit for bit q* / |q|^2 wherever |q|^2 is a normal float
    for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
        for _ in range(200):
            q = rand_quat(rng) * scale
            assert q.inverse() == q.conjugate() / q.norm_sq()


def test_inverse_raises_only_at_zero_and_on_overflow():
    for q in (ZERO, Quaternion(-0.0, 0.0, -0.0, 0.0)):
        with pytest.raises(ZeroDivisionError):
            q.inverse()
    # 1 / 5e-324 and 1 / 1e-310 are past the float range
    for q in (Quaternion(5e-324), Quaternion(0.0, 0.0, -1e-310)):
        with pytest.raises(NonFiniteComponent):
            q.inverse()
    assert abs(Quaternion(1e-308).inverse().a - 1e308) <= 1e-15 * 1e308


def test_inverse_routes_inherit_the_float_range():
    q = Quaternion(1e155, 1e155)
    inv = q.inverse()
    assert q ** -1 == inv
    assert jet_seed(q).inverse().value == inv
    assert jet_pow(jet_seed(q), -1).value == inv
    # d(q^-1)/dq = -q^-1 R(q^-1): the oracle and the closed form were both
    # zero in the i part while the inverse underflowed to 0
    want = -(inv * inv.a)
    assert power_derivative_oracle(q, ZERO, -1) == want
    assert power_derivative(q, ZERO, -1) == want
    assert want.b > 0.0


def test_signed_zeros_survive_conjugate_involution_and_negation():
    def signs(q):
        return tuple(math.copysign(1.0, x) for x in _components(q))

    for q in (Quaternion(-0.0, 0.0, -0.0, 0.0), Quaternion(0.0, -0.0, 0.0, -0.0)):
        sa, sb, sc, sd = signs(q)
        assert signs(q.conjugate()) == (sa, -sb, -sc, -sd)
        assert signs(-q) == (-sa, -sb, -sc, -sd)
        assert signs(q.involution(AxisUnit.I)) == (sa, sb, -sc, -sd)
        assert signs(q.involution(AxisUnit.J)) == (sa, -sb, sc, -sd)
        assert signs(q.involution(AxisUnit.K)) == (sa, -sb, -sc, sd)


def _outcome(compute):
    """repr of the result, or the type of the error it raised."""
    try:
        return repr(compute())
    except (NonFiniteComponent, OverflowError) as exc:
        return type(exc)


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([0.0, -0.0, 1e308, -1e308]),
                 st.integers(), st.booleans()),
       st.builds(Quaternion, *[st.floats(allow_nan=False,
                                         allow_infinity=False)] * 4))
@example(-0.0, Quaternion(-0.0, 0.0, -0.0, 0.0))
@example(0.0, Quaternion(0.0, -0.0, 0.0, -0.0))
@example(-1e308, Quaternion(1e308, 5e-324))
@example(10 ** 400, ONE)
def test_scalar_minus_quaternion_is_the_componentwise_difference(s, q):
    # s - q is -q + s; each component, its sign of zero and an overflow
    # are those of s - q_a, -q_b, -q_c, -q_d
    assert _outcome(lambda: s - q) == _outcome(
        lambda: Quaternion(float(s) - q.a, -q.b, -q.c, -q.d))
