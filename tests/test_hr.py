import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import qdist, rand_quat, run_child
import quatgrad
from quatgrad import (AxisUnit, HRGradient, IDENTITY_GRADIENT, JACOBIAN,
                      NotRealValued, ONE, QI, QJ, QK, QJet, Quaternion,
                      RealGradient, Side, SideMismatch, ZERO,
                      chain_matrix_components, chain_matrix_involutions,
                      chain_rule_first, chain_rule_second, chain_rule_third,
                      differential, exp_q, hr_from_real, jet_const, jet_exp,
                      jet_pow, jet_seed, left_from_real, product_rule_first,
                      product_rule_first_right, qmat_conj_transpose,
                      qmat_from_real, qmat_mul, qmat_scale, real_from_left,
                      real_from_right, real_jacobian, real_valued_reduce,
                      right_from_real)
from quatgrad.hr import side_dot

finite = st.floats(min_value=-5.0, max_value=5.0,
                   allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)
gradients = st.builds(RealGradient, quats, quats, quats, quats)


def grad_dist(x, y):
    return max(qdist(a, b) for a, b in zip(x.as_tuple(), y.as_tuple()))


# -- Jacobian identities ------------------------------------------------------

def test_jacobian_identities_exact_float():
    jh = qmat_conj_transpose(JACOBIAN)
    for product in (qmat_mul(JACOBIAN, jh), qmat_mul(jh, JACOBIAN)):
        for i in range(4):
            for j in range(4):
                want = Quaternion(0.25) if i == j else ZERO
                assert product[i][j] == want


# -- basic conversions --------------------------------------------------------

def test_left_from_real_identity_function():
    h = left_from_real(IDENTITY_GRADIENT)
    assert h.as_tuple() == (ONE, ZERO, ZERO, ZERO)
    assert h.side is Side.LEFT


def test_left_from_real_conjugate_function():
    g = RealGradient(ONE, -QI, -QJ, -QK)
    h = left_from_real(g)
    assert h.as_tuple() == (Quaternion(-0.5), Quaternion(0.5),
                            Quaternion(0.5), Quaternion(0.5))


def test_left_from_real_linear_function(rng):
    c = rand_quat(rng)
    g = RealGradient(c, c * QI, c * QJ, c * QK)  # f = c q
    assert qdist(left_from_real(g).d1, c) == 0.0


def test_right_from_real_linear_function(rng):
    c = rand_quat(rng)
    g = RealGradient(c, c * QI, c * QJ, c * QK)
    assert qdist(right_from_real(g).d1, Quaternion(c.a)) <= 1e-15
    # identity function: both sides agree
    assert right_from_real(IDENTITY_GRADIENT).as_tuple() == \
        left_from_real(IDENTITY_GRADIENT).as_tuple()


def test_left_equals_right_for_real_component_gradients(rng):
    g = RealGradient(*(Quaternion(float(rng.standard_normal()))
                       for _ in range(4)))
    assert grad_dist(left_from_real(g), right_from_real(g)) == 0.0


def test_real_from_left_frozen_examples():
    h = HRGradient(ONE, ZERO, ZERO, ZERO, Side.LEFT)
    assert real_from_left(h).as_tuple() == (ONE, QI, QJ, QK)
    h = HRGradient(Quaternion(-0.5), Quaternion(0.5), Quaternion(0.5),
                   Quaternion(0.5), Side.LEFT)
    assert real_from_left(h).as_tuple() == (ONE, -QI, -QJ, -QK)


def test_real_from_left_side_mismatch(rng):
    h = right_from_real(RealGradient(*(rand_quat(rng) for _ in range(4))))
    with pytest.raises(SideMismatch):
        real_from_left(h)


@pytest.mark.parametrize("side", list(Side))
def test_side_named_conversions_take_no_side_keyword(rng, side):
    # the side is the name's: no keyword switches left_from_real to a
    # right gradient, or lets real_from_left accept one
    g = RealGradient(*(rand_quat(rng) for _ in range(4)))
    h = HRGradient(*g.as_tuple(), side)
    for convert, arg in ((left_from_real, g), (right_from_real, g),
                         (real_from_left, h), (real_from_right, h)):
        with pytest.raises(TypeError):
            convert(arg, side=side)


@given(gradients)
def test_round_trip_left(g):
    assert grad_dist(real_from_left(left_from_real(g)), g) \
        <= 1e-13 * max(1.0, max(abs(p) for p in g.as_tuple()))


def test_round_trip_both_sides_random(rng):
    for _ in range(100):
        g = RealGradient(*(rand_quat(rng) for _ in range(4)))
        assert grad_dist(real_from_left(left_from_real(g)), g) <= 1e-13
        assert grad_dist(real_from_right(right_from_real(g)), g) <= 1e-13


# -- side_dot -----------------------------------------------------------------

@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_side_dot_is_the_left_to_right_loop(rng, side):
    # a zero factor gives signed-zero products, so comparing reprs also
    # checks that the sum starts at ZERO and adds in the loop's order
    zeros = Quaternion(-0.0, 0.0, -0.0, -0.0)
    for count in range(8):
        ps = [rand_quat(rng, 3.0 ** k) if k % 3 else zeros
              for k in range(count)]
        qs = [rand_quat(rng) for _ in range(count)]
        want = ZERO
        for p, q in zip(ps, qs):
            want = want + (p * q if side is Side.LEFT else q * p)
        assert repr(side_dot(side, ps, qs)) == repr(want)
    assert side_dot(side, [], []) is ZERO


# -- differential -------------------------------------------------------------

def test_differential_identity(rng):
    h = HRGradient(ONE, ZERO, ZERO, ZERO, Side.LEFT)
    dq = rand_quat(rng)
    assert differential(h, dq) == dq


def test_differential_of_square_matches_increment_form(rng):
    # d(q^2) = (q + q_a) dq + q_b i dq^i + q_c j dq^j + q_d k dq^k
    q = Quaternion(1, 2, 3, 4)
    h = left_from_real((jet_seed(q) * jet_seed(q)).grad)
    assert qdist(h.d1, q + q.a) == 0.0
    dq = rand_quat(rng)
    by_hand = (q + q.a) * dq \
        + (QI * q.b) * dq.involution(AxisUnit.I) \
        + (QJ * q.c) * dq.involution(AxisUnit.J) \
        + (QK * q.d) * dq.involution(AxisUnit.K)
    assert qdist(differential(h, dq), by_hand) <= 1e-13 * abs(by_hand)


def test_left_and_right_differentials_agree(rng):
    for build in (lambda s: s * s, lambda s: s.conjugate() * s, jet_exp):
        q = rand_quat(rng)
        jet = build(jet_seed(q))
        dq = rand_quat(rng)
        left = differential(left_from_real(jet.grad), dq)
        right = differential(right_from_real(jet.grad), dq)
        assert qdist(left, right) <= 1e-10 * max(1.0, abs(left))


def test_differential_is_first_order(rng):
    builders = (lambda s: s * s, lambda s: s * s * s,
                lambda s: s.conjugate() * s, jet_exp)
    for build in builders:
        q = rand_quat(rng)
        jet = build(jet_seed(q))
        h = left_from_real(jet.grad)
        delta = rand_quat(rng) * 0.02
        errors = []
        for _ in range(4):
            direct = build(jet_seed(q + delta)).value - jet.value
            errors.append(abs(direct - differential(h, delta)))
            delta = delta * 0.5
        for bigger, smaller in zip(errors, errors[1:]):
            assert 3.5 <= bigger / smaller <= 4.5


# -- jets ---------------------------------------------------------------------

def test_jet_seed_and_const(rng):
    q, c = rand_quat(rng), rand_quat(rng)
    assert jet_seed(q).value == q
    assert jet_seed(q).grad == IDENTITY_GRADIENT
    assert jet_const(c).value == c
    assert jet_const(c).grad.as_tuple() == (ZERO, ZERO, ZERO, ZERO)
    assert left_from_real(jet_seed(q).grad).as_tuple() == (ONE, ZERO, ZERO, ZERO)


def test_jet_square_gradient(rng):
    q = rand_quat(rng)
    h = left_from_real((jet_seed(q) * jet_seed(q)).grad)
    assert qdist(h.d1, q + q.a) <= 1e-14 * max(1.0, abs(q))
    assert qdist(h.dI, QI * q.b) <= 1e-14
    assert qdist(h.dJ, QJ * q.c) <= 1e-14
    assert qdist(h.dK, QK * q.d) <= 1e-14


def test_jet_const_times_seed(rng):
    c, q = rand_quat(rng), rand_quat(rng)
    jet = jet_const(c) * jet_seed(q)
    assert qdist(left_from_real(jet.grad).d1, c) == 0.0
    assert qdist(right_from_real(jet.grad).d1, Quaternion(c.a)) <= 1e-15


def test_jet_conjugate_grad(rng):
    q = rand_quat(rng)
    jet = (jet_seed(q) * jet_seed(q)).conjugate()
    direct = (jet_seed(q) * jet_seed(q)).grad
    for got, want in zip(jet.grad.as_tuple(), direct.as_tuple()):
        assert got == want.conjugate()


def test_jet_inverse(rng):
    q = rand_quat(rng)
    if abs(q) < 0.3:
        q = q + Quaternion(1.0)
    jet = jet_seed(q).inverse()
    assert qdist(jet.value, q.inverse()) <= 1e-15
    # d q^-1/d q_phi = -q^-1 u_phi q^-1
    for u, got in zip((ONE, QI, QJ, QK), jet.grad.as_tuple()):
        assert qdist(got, -(q.inverse() * u * q.inverse())) <= 1e-15


def test_jet_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        jet_seed(ZERO).inverse()


def test_jet_pow_matches_repeated_mul(rng):
    q = rand_quat(rng)
    s = jet_seed(q)
    assert grad_dist(jet_pow(s, 3).grad, (s * s * s).grad) <= 1e-13
    assert qdist(jet_pow(s, 0).value, ONE) == 0.0


def test_jet_exp_matches_closed_form_value(rng):
    for _ in range(50):
        q = rand_quat(rng)
        jet = jet_exp(jet_seed(q))
        assert qdist(jet.value, exp_q(q)) <= 1e-12 * max(1.0, abs(exp_q(q)))


@pytest.mark.parametrize("compute", [
    lambda j: j + None, lambda j: "x" - j, lambda j: j * [1],
    lambda j: [1] * j,
], ids=["jet + None", '"x" - jet', "jet * [1]", "[1] * jet"])
def test_jet_unsupported_operands_raise_type_error(compute):
    with pytest.raises(TypeError):
        compute(jet_seed(Quaternion(1.0, 2.0, 3.0, 4.0)))


# jet_exp halves the value's norm until it is below 1/2, which never ends
# for an inf norm, so it runs in a child process with a timeout
_OVERFLOWING_NORM = """
from quatgrad import NonFiniteComponent, Quaternion, jet_exp, jet_seed, jet_tanh
for f, x in ((jet_exp, 1e308), (jet_tanh, 8e307)):
    try:
        f(jet_seed(Quaternion(x, x, x, x)))
    except NonFiniteComponent:
        continue
    raise SystemExit(f"{f.__name__} returned")
"""


def test_jet_exp_of_an_overflowing_norm_raises():
    run = run_child("-c", _OVERFLOWING_NORM)
    assert run.returncode == 0, run.stderr


def test_jet_exp_stops_squaring_at_the_overflow(monkeypatch):
    # 1e300 halves about 1,000 times; squaring all the way back up made
    # 1,027 jet products, though the value is inf after about 30 of them
    calls = []
    mul = quatgrad.hr._jet_mul
    monkeypatch.setattr(quatgrad.hr, "_jet_mul",
                        lambda x, y: calls.append(1) or mul(x, y))
    with pytest.raises(quatgrad.NonFiniteComponent):
        jet_exp(jet_seed(Quaternion(1e300)))
    assert len(calls) <= 100


@pytest.mark.parametrize("q, dB", [
    (Quaternion(-1e300), ZERO),
    # the fixed point keeps a -0.0: a partial (-0.0, 0, 0, 0) under a zero
    # value squares to itself
    (Quaternion(-5e4, 1e-3), Quaternion(-0.0)),
])
def test_jet_exp_stops_squaring_at_the_underflow(monkeypatch, q, dB):
    # -1e300 halves about 1,000 times; the value is 0 after about a dozen
    # squarings, and squaring on to the end made 1,027 jet products
    calls = []
    mul = quatgrad.hr._jet_mul
    monkeypatch.setattr(quatgrad.hr, "_jet_mul",
                        lambda x, y: calls.append(1) or mul(x, y))
    got = jet_exp(jet_seed(q))
    assert len(calls) <= 60
    assert repr(got) == repr(QJet(ZERO, RealGradient(ZERO, dB, ZERO, ZERO)))


# -- product rules ------------------------------------------------------------

def _jet_builders(rng):
    c = rand_quat(rng)
    return (
        lambda q: jet_seed(q),
        lambda q: jet_seed(q).conjugate(),
        lambda q: jet_seed(q) * jet_seed(q),
        lambda q, c=c: c * jet_seed(q),
    )


def test_product_rule_identity_squared():
    q = Quaternion(1, 2, 3, 4)
    s = jet_seed(q)
    via = product_rule_first(s.value, s.grad, s.value, left_from_real(s.grad))
    assert via.d1 == Quaternion(2, 2, 3, 4)


def test_product_rule_real_valued_first_factor(rng):
    # f real-valued: fg = gf, so the usual rule applies in the arrangement
    # f grad(g) + g grad(f); the d1 slot also matches grad(f) g whenever
    # grad(f) commutes with g (here: grad(|q|^2) = q*/2 against powers of q)
    q = rand_quat(rng)
    f_jet = jet_seed(q) * jet_seed(q).conjugate()  # |q|^2, real
    for g_jet in (jet_seed(q) * jet_seed(q), jet_const(rand_quat(rng)) * jet_seed(q)):
        via = product_rule_first(f_jet.value, f_jet.grad, g_jet.value,
                                 left_from_real(g_jet.grad))
        hf, hg = left_from_real(f_jet.grad), left_from_real(g_jet.grad)
        two_term = tuple(f_jet.value * gn + g_jet.value * fn
                         for fn, gn in zip(hf.as_tuple(), hg.as_tuple()))
        assert max(qdist(a, b) for a, b in zip(via.as_tuple(), two_term)) <= 1e-12
    g_jet = jet_seed(q) * jet_seed(q)
    hf, hg = left_from_real(f_jet.grad), left_from_real(g_jet.grad)
    via = product_rule_first(f_jet.value, f_jet.grad, g_jet.value, hg)
    assert qdist(via.d1, f_jet.value * hg.d1 + hf.d1 * g_jet.value) <= 1e-12


def test_product_rule_real_valued_second_factor(rng):
    # g real-valued: the displayed order f grad(g) + grad(f) g is exact
    q, c = rand_quat(rng), rand_quat(rng)
    f_jet = jet_const(c) * jet_seed(q)
    g_jet = jet_seed(q) * jet_seed(q).conjugate()
    via = product_rule_first(f_jet.value, f_jet.grad, g_jet.value,
                             left_from_real(g_jet.grad))
    hf, hg = left_from_real(f_jet.grad), left_from_real(g_jet.grad)
    two_term = tuple(f_jet.value * gn + fn * g_jet.value
                     for fn, gn in zip(hf.as_tuple(), hg.as_tuple()))
    assert max(qdist(a, b) for a, b in zip(via.as_tuple(), two_term)) <= 1e-12


def test_product_rule_constant_left_factor(rng):
    # f = const: grad(c g) = c grad(g)
    q, c = rand_quat(rng), rand_quat(rng)
    g_jet = jet_seed(q) * jet_seed(q)
    via = product_rule_first(c, jet_const(c).grad, g_jet.value,
                             left_from_real(g_jet.grad))
    hg = left_from_real(g_jet.grad)
    assert max(qdist(a, c * b) for a, b in
               zip(via.as_tuple(), hg.as_tuple())) <= 1e-13


def test_product_rule_vs_jets_200_pairs(rng):
    builders = _jet_builders(rng)
    for _ in range(200):
        q = rand_quat(rng)
        f_jet = builders[rng.integers(len(builders))](q)
        g_jet = builders[rng.integers(len(builders))](q)
        direct = left_from_real((f_jet * g_jet).grad)
        via = product_rule_first(f_jet.value, f_jet.grad, g_jet.value,
                                 left_from_real(g_jet.grad))
        assert grad_dist(direct, via) <= 1e-11


def test_product_rule_right_vs_jets(rng):
    builders = _jet_builders(rng)
    for _ in range(200):
        q = rand_quat(rng)
        f_jet = builders[rng.integers(len(builders))](q)
        g_jet = builders[rng.integers(len(builders))](q)
        direct = right_from_real((f_jet * g_jet).grad)
        via = product_rule_first_right(right_from_real(f_jet.grad),
                                       g_jet.value, f_jet.value, g_jet.grad)
        assert grad_dist(direct, via) <= 1e-11


def test_product_rule_right_constant_left_factor_not_linear(rng):
    # right gradient of c*g is NOT c times the right gradient of g in general
    q = Quaternion(0.4, -0.8, 1.2, 0.3)
    c = QI
    g_jet = jet_seed(q)
    lhs = right_from_real((jet_const(c) * g_jet).grad).d1
    rhs = c * right_from_real(g_jet.grad).d1
    assert qdist(lhs, rhs) > 0.4


def test_product_rule_side_mismatch(rng):
    q = rand_quat(rng)
    s = jet_seed(q)
    with pytest.raises(SideMismatch):
        product_rule_first(s.value, s.grad, s.value, right_from_real(s.grad))
    with pytest.raises(SideMismatch):
        product_rule_first_right(left_from_real(s.grad), s.value, s.value, s.grad)


# -- linearity ----------------------------------------------------------------

def test_left_linearity(rng):
    for _ in range(100):
        q = rand_quat(rng)
        alpha, beta = rand_quat(rng), rand_quat(rng)
        f_jet = jet_seed(q) * jet_seed(q)
        g_jet = jet_seed(q).conjugate()
        combo = left_from_real((alpha * f_jet + beta * g_jet).grad)
        hf, hg = left_from_real(f_jet.grad), left_from_real(g_jet.grad)
        for n in range(4):
            want = alpha * hf.as_tuple()[n] + beta * hg.as_tuple()[n]
            assert qdist(combo.as_tuple()[n], want) <= 1e-12


def test_right_multiplication_linearity_fails_witness():
    # d(q alpha)/dq != (dq/dq) alpha for alpha = i: the left side is 0
    q = Quaternion(0.3, -0.7, 1.1, 0.4)
    jet = jet_seed(q) * QI
    d1 = left_from_real(jet.grad).d1
    assert d1 == ZERO
    assert qdist(d1, ONE * QI) == 1.0


# -- chain rules ---------------------------------------------------------------

def test_chain_rule_identity_inner(rng):
    outer = left_from_real(RealGradient(*(rand_quat(rng) for _ in range(4))))
    m = chain_matrix_involutions(IDENTITY_GRADIENT)
    assert grad_dist(chain_rule_first(outer, m), outer) <= 1e-15


def test_chain_matrix_from_real_jacobian(rng):
    jh = qmat_conj_transpose(JACOBIAN)
    for _ in range(50):
        q = rand_quat(rng)
        a, b, c = rand_quat(rng), rand_quat(rng), rand_quat(rng)
        g_jet = a * jet_seed(q) * b + c * jet_seed(q) * jet_seed(q)
        m = chain_matrix_involutions(g_jet.grad)
        p = qmat_from_real(real_jacobian(g_jet.grad))
        m_via_p = qmat_scale(qmat_mul(qmat_mul(JACOBIAN, p), jh), 4.0)
        worst = max(qdist(m[i][j], m_via_p[i][j])
                    for i in range(4) for j in range(4))
        assert worst <= 1e-13


def test_chain_rule_first_vs_jet_composition(rng):
    for _ in range(50):
        q = rand_quat(rng)
        g_jet = jet_seed(q).conjugate()          # g = q*
        f_of = lambda jet: jet * jet             # f(g) = g^2
        direct = left_from_real(f_of(g_jet).grad)
        outer = left_from_real(f_of(jet_seed(g_jet.value)).grad)
        via = chain_rule_first(outer, chain_matrix_involutions(g_jet.grad))
        assert grad_dist(direct, via) <= 1e-11


@pytest.mark.parametrize("side", list(Side))
def test_chain_rule_first_vs_jets_on_both_sides(rng, side):
    # chain_matrix_involutions builds rows of the outer gradient's side
    for _ in range(50):
        q = rand_quat(rng)
        a, b, c = rand_quat(rng), rand_quat(rng), rand_quat(rng)
        g_jet = a * jet_seed(q) * b + c * jet_seed(q) * jet_seed(q)
        f_of = lambda jet: jet * jet
        direct = hr_from_real(f_of(g_jet).grad, side)
        outer = hr_from_real(f_of(jet_seed(g_jet.value)).grad, side)
        via = chain_rule_first(outer,
                               chain_matrix_involutions(g_jet.grad, side))
        assert via.side is side
        scale = max(1.0, *(abs(p) for p in direct.as_tuple()))
        assert grad_dist(direct, via) <= 1e-11 * scale


def test_chain_rule_second_matches_first(rng):
    for _ in range(50):
        q = rand_quat(rng)
        a, b = rand_quat(rng), rand_quat(rng)
        g_jet = a * jet_seed(q) * b
        f_of = lambda jet: jet * jet.conjugate()
        direct = left_from_real(f_of(g_jet).grad)
        outer_jet = f_of(jet_seed(g_jet.value))
        via1 = chain_rule_first(left_from_real(outer_jet.grad),
                                chain_matrix_involutions(g_jet.grad))
        via2 = chain_rule_second(outer_jet.grad,
                                 chain_matrix_components(g_jet.grad))
        assert grad_dist(direct, via1) <= 1e-11
        assert grad_dist(direct, via2) <= 1e-11
        assert grad_dist(via1, via2) <= 1e-11


def test_chain_rule_second_on_the_right_vs_jets(rng):
    # the right side of chain_rule_second, against the jets of f(g) = g^2
    for _ in range(50):
        q = rand_quat(rng)
        a, b, c = rand_quat(rng), rand_quat(rng), rand_quat(rng)
        g_jet = a * jet_seed(q) * b + c * jet_seed(q) * jet_seed(q)
        f_of = lambda jet: jet * jet
        direct = right_from_real(f_of(g_jet).grad)
        outer = f_of(jet_seed(g_jet.value))
        via = chain_rule_second(outer.grad, chain_matrix_components(g_jet.grad),
                                Side.RIGHT)
        assert via.side is Side.RIGHT
        scale = max(1.0, *(abs(p) for p in direct.as_tuple()))
        assert grad_dist(direct, via) <= 1e-11 * scale


def test_chain_rule_third(rng):
    for _ in range(50):
        q = rand_quat(rng)
        g_jet = jet_seed(q) * jet_seed(q).conjugate()      # g = |q|^2, real
        f_jet = g_jet * g_jet                              # f = |q|^4
        direct = left_from_real(f_jet.grad)
        dfdg = Quaternion(2.0 * g_jet.value.a)             # d(g^2)/dg, g real
        via = chain_rule_third(dfdg, left_from_real(g_jet.grad))
        assert grad_dist(direct, via) <= 1e-11 * max(1.0, abs(direct.d1))


def test_chain_rule_third_unit_outer(rng):
    q = rand_quat(rng)
    g_hr = left_from_real((jet_seed(q) * jet_seed(q).conjugate()).grad)
    assert grad_dist(chain_rule_third(ONE, g_hr), g_hr) == 0.0


def test_chain_rule_third_left_right_agree_for_real_outer(rng):
    q = rand_quat(rng)
    g_jet = jet_seed(q) * jet_seed(q).conjugate()
    dfdg = Quaternion(3.7)
    left = chain_rule_third(dfdg, left_from_real(g_jet.grad))
    right = chain_rule_third(dfdg, right_from_real(g_jet.grad))
    assert grad_dist(left, right) <= 1e-13


def test_chain_rule_third_rejects_non_real_inner(rng):
    q = rand_quat(rng)
    with pytest.raises(NotRealValued):
        chain_rule_third(ONE, left_from_real(jet_seed(q).grad))


# -- real-valued reduction -----------------------------------------------------

def test_real_valued_reduce_norm_squared(rng):
    for _ in range(50):
        q = rand_quat(rng)
        jet = jet_seed(q) * jet_seed(q).conjugate()
        d1 = real_valued_reduce(left_from_real(jet.grad))
        assert qdist(d1, q.conjugate() * 0.5) <= 1e-13 * max(1.0, abs(q))


def test_real_valued_reduce_real_part_function(rng):
    q = rand_quat(rng)
    jet = (jet_seed(q) + jet_seed(q).conjugate()) * 0.5     # f = q_a
    assert real_valued_reduce(left_from_real(jet.grad)) == Quaternion(0.25)
    c = rand_quat(rng)
    cq = jet_const(c) * jet_seed(q)
    jet = (cq + cq.conjugate()) * 0.5                       # f = R(c q)
    assert qdist(real_valued_reduce(left_from_real(jet.grad)), c * 0.25) <= 1e-15


def test_real_valued_reduce_steepest_descent_contract(rng):
    # df = 4 R(d1 dq) for real-valued f
    q = rand_quat(rng)
    jet = jet_seed(q) * jet_seed(q).conjugate()
    d1 = real_valued_reduce(left_from_real(jet.grad))
    dq = rand_quat(rng) * 1e-4
    df_direct = ((q + dq) * (q + dq).conjugate()).a - jet.value.a
    assert abs(df_direct - 4.0 * (d1 * dq).a) <= 4.0 * abs(dq) ** 2


def test_real_valued_reduce_rejects(rng):
    q = rand_quat(rng)
    with pytest.raises(NotRealValued):
        real_valued_reduce(left_from_real((jet_seed(q) * jet_seed(q)).grad))
