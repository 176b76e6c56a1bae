"""The float kernels against their Quaternion-object specs.

hr_from_real, _real_from_hr, Elementary.real_gradient, hr_derivative and
value, the QJet operations, jet_pow, jet_exp, jet_tanh and Quaternion.__pow__
are code on floats.  The spec functions below are the same computations
written with Quaternion arithmetic, one object per intermediate.  Both
derivative routes (the closed-form lift and the jet/FD oracles) pass
through these kernels, so an exact match here (repr equality, which tells
-0.0 from 0.0) is what keeps the two routes independent of them.
"""

import math
import operator

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatgrad import (ONE, ZERO, Elementary, HRGradient, QI, QJ, QK, QJet,
                      Quaternion, RealGradient, Side, hr_from_real, jet_const,
                      jet_exp, jet_pow, jet_seed, jet_tanh)
from quatgrad.hr import _real_from_hr, _require_side, side_mul
from quatgrad.regular import _ratio


def spec_hr_from_real(g, side):
    dA, dB, dC, dD = g.as_tuple()
    bi, cj, dk = (side_mul(side, dB, QI), side_mul(side, dC, QJ),
                  side_mul(side, dD, QK))
    return HRGradient(
        (dA - bi - cj - dk) * 0.25,
        (dA - bi + cj + dk) * 0.25,
        (dA + bi - cj + dk) * 0.25,
        (dA + bi + cj - dk) * 0.25,
        side,
    )


def spec_real_from_hr(h, side):
    _require_side(h, side, f"real_from_{side.value}")
    d1, dI, dJ, dK = h.as_tuple()
    return RealGradient(
        d1 + dI + dJ + dK,
        side_mul(side, d1 + dI - dJ - dK, QI),
        side_mul(side, d1 - dI + dJ - dK, QJ),
        side_mul(side, d1 - dI - dJ + dK, QK),
    )


def spec_real_gradient(fn, q):
    qt, v, z = fn._at(q)
    w = fn.F(z)
    fn._on_axis(w, qt, v)  # raises if the value overflows
    df = fn.dF(z)
    if v == 0.0:
        d = df.real
        return RealGradient(Quaternion(d), QI * d, QJ * d, QK * d)
    a, b, c = df.real, df.imag / v, _ratio(w, df, v)
    vhat = Quaternion(0.0, qt.b / v, qt.c / v, qt.d / v)
    partials = [Quaternion(a, b * qt.b, b * qt.c, b * qt.d)]
    for x_u, e_u in ((qt.b, QI), (qt.c, QJ), (qt.d, QK)):
        partials.append(Quaternion(-b * x_u) + e_u * c
                        + vhat * ((a - c) * (x_u / v)))
    return RealGradient(*partials)


def spec_on_axis(w, qt, v):
    if v == 0.0:
        return Quaternion(w.real)
    f = w.imag / v
    return Quaternion(w.real, f * qt.b, f * qt.c, f * qt.d)


def spec_value(fn, q):
    qt, v, z = fn._at(q)
    return spec_on_axis(fn.F(z), qt, v)


def spec_hr_derivative(fn, q):
    qt, v, z = fn._at(q)
    w, df = fn.F(z), fn.dF(z)
    ratio = _ratio(w, df, v)
    return (spec_on_axis(df, qt, v) + Quaternion(ratio)) * 0.5


def outcome(f, *args):
    """repr of the result, or the type and message of what it raised."""
    try:
        return repr(f(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


magnitudes = st.floats(min_value=1e-5, max_value=1e5)
components = st.one_of(st.sampled_from([0.0, -0.0]), magnitudes,
                       magnitudes.map(lambda x: -x))
quats = st.builds(Quaternion, components, components, components, components)
gradients = st.builds(RealGradient, quats, quats, quats, quats)
sides = st.sampled_from(list(Side))

# points near and on the real axis: |I(q)| in {0, 1e-300, 1e-12} with the
# other imaginary components signed zeros
special_v = st.sampled_from([0.0, 1e-300, 1e-12])
signed_zero = st.sampled_from([0.0, -0.0])
axis_points = st.builds(
    lambda a, v, sign, z1, z2, slot: Quaternion(
        a, *[sign * v if i == slot else z for i, z in enumerate((z1, z1, z2))]),
    components, special_v, st.sampled_from([1.0, -1.0]), signed_zero,
    signed_zero, st.integers(0, 2))
points = st.one_of(quats, axis_points)
functions = st.one_of(
    st.sampled_from([Elementary.exp(), Elementary.ln(), Elementary.tanh()]),
    st.builds(Elementary.power, st.integers(-6, 8),
              st.one_of(st.just(Quaternion(0.0)), quats)))


@settings(max_examples=300, deadline=None)
@given(gradients, sides)
@example(RealGradient(Quaternion(-0.0, 0.0, -0.0, 0.0),
                      Quaternion(0.0, -0.0, 0.0, -0.0),
                      Quaternion(-0.0, -0.0, -0.0, -0.0),
                      Quaternion(0.0, 0.0, 0.0, 0.0)), Side.LEFT)
@example(RealGradient(Quaternion(-0.0, 0.0, -0.0, 0.0),
                      Quaternion(0.0, -0.0, 0.0, -0.0),
                      Quaternion(-0.0, -0.0, -0.0, -0.0),
                      Quaternion(0.0, 0.0, 0.0, 0.0)), Side.RIGHT)
def test_hr_from_real_matches_spec(g, side):
    assert outcome(hr_from_real, g, side) == outcome(spec_hr_from_real, g,
                                                     side)


@settings(max_examples=300, deadline=None)
@given(gradients, sides, sides)
def test_real_from_hr_matches_spec(g, side, tag):
    # any four quaternions as the HR parts, not only converted ones; a tag
    # of the other side must raise SideMismatch in both
    h = HRGradient(*g.as_tuple(), tag)
    assert outcome(_real_from_hr, h, side) == outcome(spec_real_from_hr, h,
                                                      side)


@settings(max_examples=500, deadline=None)
@given(functions, points)
@example(Elementary.exp(), Quaternion(-700.0, 1e-300, 0.0, -0.0))
@example(Elementary.ln(), Quaternion(-2.0, -0.0, 1e-300, 0.0))
@example(Elementary.tanh(), Quaternion(0.5, 0.0, -0.0, 1e-12))
@example(Elementary.power(3, Quaternion(0.0)), Quaternion(-0.0, -0.0, 0.0, -0.0))
@example(Elementary.power(-2, Quaternion(1.0)), Quaternion(1.0, 1e-12, -0.0, 0.0))
@example(Elementary.exp(), Quaternion(709.7, 1e-5, 0.0, 0.0))  # overflows
def test_real_gradient_matches_spec(fn, q):
    assert outcome(fn.real_gradient, q) == outcome(spec_real_gradient, fn, q)


@settings(max_examples=500, deadline=None)
@given(functions, points)
@example(Elementary.tanh(), Quaternion(-0.0, 0.0, -0.0, 0.0))  # v = 0
@example(Elementary.power(-3, Quaternion(1.0)), Quaternion(-2.0, -0.0, 0.0, -0.0))
@example(Elementary.exp(), Quaternion(-700.0, 1e-300, 0.0, -0.0))
@example(Elementary.ln(), Quaternion(-2.0, -0.0, -1e-300, 0.0))
@example(Elementary.exp(), Quaternion(709.7, 1e-5, 0.0, 0.0))  # overflows
def test_hr_derivative_matches_spec(fn, q):
    assert outcome(fn.hr_derivative, q) == outcome(spec_hr_derivative, fn, q)


@settings(max_examples=500, deadline=None)
@given(functions, points)
@example(Elementary.tanh(), Quaternion(-0.0, 0.0, -0.0, 0.0))  # v = 0
@example(Elementary.power(-3, Quaternion(1.0)), Quaternion(-2.0, -0.0, 0.0, -0.0))
@example(Elementary.exp(), Quaternion(-700.0, 1e-300, 0.0, -0.0))
@example(Elementary.ln(), Quaternion(-2.0, -0.0, -1e-300, 0.0))
@example(Elementary.exp(), Quaternion(709.7, 1e-5, 0.0, 0.0))
@example(Elementary.exp(), Quaternion(709.8, 1e-5, 0.0, 0.0))  # overflows
def test_value_matches_spec(fn, q):
    assert outcome(fn.value, q) == outcome(spec_value, fn, q)


# -- jets and integer powers -------------------------------------------------
#
# The Quaternion forms of the QJet operations, jet_pow, jet_exp, jet_tanh and
# Quaternion.__pow__: every intermediate is a Quaternion, checked finite.


def spec_as_jet(x):
    if isinstance(x, QJet):
        return x
    if isinstance(x, Quaternion):
        return jet_const(x)
    return jet_const(Quaternion(float(x)))


def spec_jet_add(x, y):
    x, y = spec_as_jet(x), spec_as_jet(y)
    return QJet(x.value + y.value,
                RealGradient(*(a + b for a, b in
                               zip(x.grad.as_tuple(), y.grad.as_tuple()))))


def spec_jet_neg(x):
    return QJet(-x.value, RealGradient(*(-p for p in x.grad.as_tuple())))


def spec_jet_sub(x, y):
    return spec_jet_add(x, spec_jet_neg(spec_as_jet(y)))


def spec_jet_mul(x, y):
    x, y = spec_as_jet(x), spec_as_jet(y)
    return QJet(x.value * y.value,
                RealGradient(*(df * y.value + x.value * dg for df, dg in
                               zip(x.grad.as_tuple(), y.grad.as_tuple()))))


def spec_jet_conjugate(x):
    return QJet(x.value.conjugate(),
                RealGradient(*(p.conjugate() for p in x.grad.as_tuple())))


def spec_jet_inverse(x):
    v = x.value.inverse()
    return QJet(v, RealGradient(*(-(v * (p * v)) for p in x.grad.as_tuple())))


def spec_jet_pow(x, n):
    if n < 0:
        return spec_jet_pow(spec_jet_inverse(x), -n)
    result = jet_const(ONE)
    for _ in range(n):
        result = spec_jet_mul(result, x)
    return result


def spec_jet_exp(x):
    halvings = 0
    scale = x.value.norm()
    while scale > 0.5:
        scale *= 0.5
        halvings += 1
    h = spec_jet_mul(x, 0.5 ** halvings)
    acc = jet_const(ONE)
    term = jet_const(ONE)
    for n in range(1, 201):
        term = spec_jet_mul(spec_jet_mul(term, h), 1.0 / n)
        acc = spec_jet_add(acc, term)
        if term.value.norm() <= 1e-16 * max(1.0, acc.value.norm()):
            break
    for _ in range(halvings):
        acc = spec_jet_mul(acc, acc)
    return acc


def spec_jet_tanh(x):
    e2 = spec_jet_exp(spec_jet_mul(x, 2.0))
    return spec_jet_mul(spec_jet_sub(e2, ONE),
                        spec_jet_inverse(spec_jet_add(e2, ONE)))


def spec_pow(q, n):
    if n < 0:
        return spec_pow(q.inverse(), -n)
    result, x = ONE, q
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def typed_outcome(f, *args):
    """outcome, with a NonFiniteComponent told by its type alone: the float
    kernels check only their results, so the component it names can differ
    from the one an intermediate of the spec names (nan for -inf)."""
    result = outcome(f, *args)
    if isinstance(result, tuple) and result[0] == "NonFiniteComponent":
        return result[0]
    return result


# components of every scale the kernels meet, with signed zeros, and
# 1e-300 (its square underflows, so an inverse takes the scaled path)
# and 1e300 (products overflow) now and then
extremes = st.sampled_from([1e-300, -1e-300, 1e300, -1e300])
jet_components = st.one_of(components, components, components, extremes)
jet_quats = st.builds(Quaternion, jet_components, jet_components,
                      jet_components, jet_components)
jet_values = st.one_of(jet_quats, axis_points)
jets = st.one_of(
    st.builds(QJet, jet_values, st.builds(RealGradient, jet_quats, jet_quats,
                                          jet_quats, jet_quats)),
    st.builds(jet_seed, jet_values),
    st.builds(jet_const, jet_values))
operands = st.one_of(jets, jet_values, components)
binary_ops = st.sampled_from([
    (operator.add, spec_jet_add),
    (lambda x, y: y + x, lambda x, y: spec_jet_add(y, x)),
    (operator.sub, spec_jet_sub),
    (lambda x, y: y - x, lambda x, y: spec_jet_sub(y, x)),
    (operator.mul, spec_jet_mul),
    (lambda x, y: y * x, lambda x, y: spec_jet_mul(y, x)),
])
unary_ops = st.sampled_from([
    (operator.neg, spec_jet_neg),
    (QJet.conjugate, spec_jet_conjugate),
    (QJet.inverse, spec_jet_inverse),
])

# moderate points for exp and tanh, where the series and the squarings
# stay finite: components up to 4 in size, signed zeros, the real axis
moderate = st.floats(min_value=1e-5, max_value=4.0)
moderate_components = st.one_of(st.sampled_from([0.0, -0.0]), moderate,
                                moderate.map(lambda x: -x))
moderate_quats = st.builds(Quaternion, moderate_components,
                           moderate_components, moderate_components,
                           moderate_components)
exp_jets = st.one_of(
    st.builds(jet_seed, st.one_of(moderate_quats, axis_points)),
    st.builds(QJet, moderate_quats, st.builds(
        RealGradient, moderate_quats, moderate_quats, moderate_quats,
        moderate_quats)),
    jets)

SIGNED_ZEROS = Quaternion(-0.0, 0.0, -0.0, 0.0)
ZERO_SIGNS_JET = QJet(Quaternion(-0.0, -0.0, 0.0, -0.0),
                      RealGradient(SIGNED_ZEROS, -SIGNED_ZEROS,
                                   Quaternion(-0.0, -0.0, -0.0, -0.0),
                                   Quaternion(-1.5, -0.0, 2.0, -0.0)))
# the poles of tanh, where e^{2q} + 1 is rounding-small
TANH_POLES = [Quaternion(0.0, math.pi / 2), Quaternion(-0.0, 0.0, -math.pi / 2),
              Quaternion(0.0, 0.0, -0.0, 3 * math.pi / 2)]


@settings(max_examples=400, deadline=None)
@given(binary_ops, jets, operands)
@example((operator.add, spec_jet_add), ZERO_SIGNS_JET, 0.0)
@example((operator.add, spec_jet_add), ZERO_SIGNS_JET, SIGNED_ZEROS)
@example((operator.sub, spec_jet_sub), ZERO_SIGNS_JET, -0.0)
@example((operator.mul, spec_jet_mul), ZERO_SIGNS_JET, 2.0)
@example((operator.mul, spec_jet_mul), ZERO_SIGNS_JET, Quaternion(-3.0))
@example((operator.mul, spec_jet_mul), ZERO_SIGNS_JET, ZERO_SIGNS_JET)
@example((lambda x, y: y * x, lambda x, y: spec_jet_mul(y, x)),
         jet_seed(Quaternion(1e300, 1.0)), Quaternion(1e10))  # overflows
def test_jet_binary_ops_match_spec(ops, x, y):
    op, spec = ops
    assert typed_outcome(op, x, y) == typed_outcome(spec, x, y)


@settings(max_examples=400, deadline=None)
@given(unary_ops, jets)
@example((QJet.inverse, spec_jet_inverse), jet_seed(ZERO))
@example((QJet.inverse, spec_jet_inverse), jet_seed(Quaternion(-0.0, 1e-300)))
@example((QJet.inverse, spec_jet_inverse), ZERO_SIGNS_JET)
@example((QJet.inverse, spec_jet_inverse),
         QJet(Quaternion(1e-5, -0.0), RealGradient(ONE, QI, QJ, QK * 1e300)))
@example((QJet.conjugate, spec_jet_conjugate), ZERO_SIGNS_JET)
@example((operator.neg, spec_jet_neg), ZERO_SIGNS_JET)
def test_jet_unary_ops_match_spec(ops, x):
    op, spec = ops
    assert typed_outcome(op, x) == typed_outcome(spec, x)


@settings(max_examples=300, deadline=None)
@given(jets, st.integers(-20, 40))
@example(ZERO_SIGNS_JET, 3)
@example(ZERO_SIGNS_JET, 0)
@example(jet_seed(ZERO), -2)  # ZeroDivisionError
@example(jet_seed(Quaternion(-0.0, 0.0, -0.0, 0.0)), 5)
@example(jet_seed(Quaternion(1e-5, 3.0, -2.0, 1e-300)), 40)  # overflows
def test_jet_pow_matches_spec(x, n):
    assert typed_outcome(jet_pow, x, n) == typed_outcome(spec_jet_pow, x, n)


@settings(max_examples=300, deadline=None)
@given(exp_jets)
@example(jet_seed(ZERO))
@example(jet_seed(SIGNED_ZEROS))
@example(ZERO_SIGNS_JET)
@example(jet_seed(Quaternion(0.3, 1e-300, -0.0, 0.0)))
@example(jet_seed(Quaternion(700.0, 0.1, 0.0, 0.0)))  # overflows
@example(jet_seed(Quaternion(-1e300, 0.0, 0.0, 0.0)))
def test_jet_exp_matches_spec(x):
    assert typed_outcome(jet_exp, x) == typed_outcome(spec_jet_exp, x)


@settings(max_examples=200, deadline=None)
@given(exp_jets)
@example(jet_seed(SIGNED_ZEROS))
@example(jet_seed(TANH_POLES[0]))
@example(jet_seed(TANH_POLES[1]))
@example(jet_seed(TANH_POLES[2]))
@example(QJet(TANH_POLES[0], RealGradient(ONE * 1e300, QI, QJ, QK)))
def test_jet_tanh_matches_spec(x):
    assert typed_outcome(jet_tanh, x) == typed_outcome(spec_jet_tanh, x)


@settings(max_examples=600, deadline=None)
@given(st.one_of(jet_values, moderate_quats), st.integers(-20, 40))
@example(Quaternion(1e-155), -2)  # the inverse is finite, its square not
@example(ZERO, -1)  # ZeroDivisionError
@example(SIGNED_ZEROS, 0)
@example(SIGNED_ZEROS, 7)
@example(Quaternion(-0.0, 1e-300, -0.0, 0.0), 2)
def test_quaternion_pow_matches_spec(q, n):
    assert typed_outcome(operator.pow, q, n) == typed_outcome(spec_pow, q, n)

