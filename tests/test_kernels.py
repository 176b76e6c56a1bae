"""The float kernels against their Quaternion-object specs.

hr_from_real, _real_from_hr and Elementary.real_gradient, hr_derivative and
value are straight-line code on floats.  The spec functions below are the
same computations written with Quaternion arithmetic, one object per
intermediate.  Both derivative routes (the closed-form lift and the jet/FD
oracles) pass through the conversion, so an exact match here (repr
equality, which tells -0.0 from 0.0) is what keeps the two routes
independent of the kernels.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatgrad import (Elementary, HRGradient, QI, QJ, QK, Quaternion,
                      RealGradient, Side, hr_from_real)
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
