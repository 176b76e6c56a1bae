"""The left and right restricted HR gradient operators.

A quaternion function f(q) has four quaternion-valued real partials
df/dq_a .. df/dq_d (the RealGradient).  The restricted HR gradient is the
quadruple of partials with respect to q and its involutions q^i, q^j, q^k,
obtained by combining the real partials with the imaginary units:

    left:   df/dq     = (df/dq_a - (df/dq_b) i - (df/dq_c) j - (df/dq_d) k) / 4
    right:  dR f/dq   = (df/dq_a - i (df/dq_b) - j (df/dq_c) - k (df/dq_d)) / 4

(and the analogous sign patterns for the q^i, q^j, q^k slots).  The two
versions differ because quaternion products do not commute; they coincide
for real-valued functions.  The same combination is the row-vector product
with the Hermitian transpose of the Jacobian matrix J, which satisfies
J J^H = J^H J = (1/4) Identity.

The QJet type is a forward-mode carrier (value, RealGradient) propagated
through arithmetic by the ordinary product rule, which remains valid for
differentiation with respect to the real components.  Jets are the
workhorse oracle: any composition of +, *, conjugation and inversion
yields exact real partials, converted to HR form at the end.  Jet +, -,
*, inverse, jet_pow and jet_exp run on float kernels over a jet's twenty
floats, bit-identical to the Quaternion form; only results are built as
Quaternions, checked finite, so an overflow inside jet_pow's or jet_exp's
loop raises NonFiniteComponent once, at the end.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from operator import attrgetter

from .errors import NonFiniteComponent, NotRealValued, SideMismatch
from .quaternion import (IMAGINARY_AXES, ONE, QI, QJ, QK, RESIDUE_TOL, ZERO,
                         AxisUnit, Quaternion, _UNITS4, _hamilton, _new, _raw,
                         _slot_setters)


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


_LEFT = Side.LEFT  # bound once: each Side.LEFT is a class attribute lookup


@dataclass(frozen=True, slots=True, init=False)
class RealGradient:
    """The four quaternion partials (df/dq_a, df/dq_b, df/dq_c, df/dq_d).

    Built like Quaternion: __new__ sets the slots, and copy, pickle and
    dataclasses.replace rebuild through it."""

    dA: Quaternion
    dB: Quaternion
    dC: Quaternion
    dD: Quaternion

    def __new__(cls, dA, dB, dC, dD):
        g = _new(cls)
        _set_dA(g, dA)
        _set_dB(g, dB)
        _set_dC(g, dC)
        _set_dD(g, dD)
        return g

    def as_tuple(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return (self.dA, self.dB, self.dC, self.dD)

    __getnewargs__ = as_tuple

    def involution(self, axis: AxisUnit) -> "RealGradient":
        """Apply the axis involution to every partial."""
        return RealGradient(*(p.involution(axis) for p in self.as_tuple()))


_set_dA, _set_dB, _set_dC, _set_dD = _slot_setters(RealGradient)


#: Real gradient of the identity function f(q) = q.
IDENTITY_GRADIENT = RealGradient(ONE, QI, QJ, QK)
#: Real gradient of any constant.
ZERO_GRADIENT = RealGradient(ZERO, ZERO, ZERO, ZERO)


@dataclass(frozen=True, slots=True, init=False)
class HRGradient:
    """Partials with respect to (q, q^i, q^j, q^k), tagged left or right.

    Mixing sides is a hard error everywhere in this module: left and right
    gradients differ already for linear functions.  Built like RealGradient.
    """

    d1: Quaternion
    dI: Quaternion
    dJ: Quaternion
    dK: Quaternion
    side: Side

    def __new__(cls, d1, dI, dJ, dK, side):
        h = _new(cls)
        _set_d1(h, d1)
        _set_dI(h, dI)
        _set_dJ(h, dJ)
        _set_dK(h, dK)
        _set_side(h, side)
        return h

    def __getnewargs__(self):
        return (self.d1, self.dI, self.dJ, self.dK, self.side)

    def as_tuple(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return (self.d1, self.dI, self.dJ, self.dK)


_set_d1, _set_dI, _set_dJ, _set_dK, _set_side = _slot_setters(HRGradient)


def _require_side(h: HRGradient, side: Side, what: str) -> None:
    if h.side is not side:
        raise SideMismatch(f"{what} requires a {side.value} gradient, "
                           f"got {h.side.value}")


# ---------------------------------------------------------------------------
# Conversions between real and HR gradients
# ---------------------------------------------------------------------------

def side_mul(side: Side, p: Quaternion, q: Quaternion) -> Quaternion:
    """p q for the left operator, q p for the right one."""
    return p * q if side is _LEFT else q * p


def side_dot(side: Side, ps, qs) -> Quaternion:
    """The sum of side_mul(side, p, q) over the pairs, added to ZERO left
    to right: the one body of every side-ordered sum of products."""
    return sum(map(partial(side_mul, side), ps, qs), ZERO)


def _side_mul4(side: Side, p, q) -> tuple[float, float, float, float]:
    """side_mul on float 4-tuples."""
    return _hamilton(p, q) if side is _LEFT else _hamilton(q, p)


#: A Quaternion's components as the float 4-tuple (a, b, c, d).
_floats = attrgetter("a", "b", "c", "d")


def hr_from_real(g: RealGradient, side: Side) -> HRGradient:
    """The restricted HR gradient of the given side from the real partials:
    the units multiply each partial from the right for the left operator,
    from the left for the right one.

    Straight-line code on floats: the three unit products come from
    _side_mul4, and each part is one _raw over the sums of the Quaternion
    form (dA - dB i - dC j - dD k)/4, ... in their order, zero terms
    included, so every bit and sign of zero is the same; only the four
    parts are built as Quaternions, checked finite."""
    i, j, k = _UNITS4
    a0, a1, a2, a3 = _floats(g.dA)
    b0, b1, b2, b3 = _side_mul4(side, _floats(g.dB), i)
    c0, c1, c2, c3 = _side_mul4(side, _floats(g.dC), j)
    d0, d1, d2, d3 = _side_mul4(side, _floats(g.dD), k)
    return HRGradient(
        _raw((a0 - b0 - c0 - d0) * 0.25, (a1 - b1 - c1 - d1) * 0.25,
             (a2 - b2 - c2 - d2) * 0.25, (a3 - b3 - c3 - d3) * 0.25),
        _raw((a0 - b0 + c0 + d0) * 0.25, (a1 - b1 + c1 + d1) * 0.25,
             (a2 - b2 + c2 + d2) * 0.25, (a3 - b3 + c3 + d3) * 0.25),
        _raw((a0 + b0 - c0 + d0) * 0.25, (a1 + b1 - c1 + d1) * 0.25,
             (a2 + b2 - c2 + d2) * 0.25, (a3 + b3 - c3 + d3) * 0.25),
        _raw((a0 + b0 + c0 - d0) * 0.25, (a1 + b1 + c1 - d1) * 0.25,
             (a2 + b2 + c2 - d2) * 0.25, (a3 + b3 + c3 - d3) * 0.25),
        side,
    )


def _real_from_hr(h: HRGradient, side: Side) -> RealGradient:
    """Invert hr_from_real via the identity (grad_q f) J = (1/4) grad_r f,
    written out like it on floats in the Quaternion form's order: four sums
    of the parts, three of them multiplied by their unit with _side_mul4."""
    _require_side(h, side, f"real_from_{side.value}")
    i, j, k = _UNITS4
    a0, a1, a2, a3 = _floats(h.d1)
    b0, b1, b2, b3 = _floats(h.dI)
    c0, c1, c2, c3 = _floats(h.dJ)
    d0, d1, d2, d3 = _floats(h.dK)
    return RealGradient(
        _raw(a0 + b0 + c0 + d0, a1 + b1 + c1 + d1,
             a2 + b2 + c2 + d2, a3 + b3 + c3 + d3),
        _raw(*_side_mul4(side, (a0 + b0 - c0 - d0, a1 + b1 - c1 - d1,
                                a2 + b2 - c2 - d2, a3 + b3 - c3 - d3), i)),
        _raw(*_side_mul4(side, (a0 - b0 + c0 - d0, a1 - b1 + c1 - d1,
                                a2 - b2 + c2 - d2, a3 - b3 + c3 - d3), j)),
        _raw(*_side_mul4(side, (a0 - b0 - c0 + d0, a1 - b1 - c1 + d1,
                                a2 - b2 - c2 + d2, a3 - b3 - c3 + d3), k)),
    )


#: Left restricted HR gradient: units multiply each partial from the right.
left_from_real = partial(hr_from_real, side=Side.LEFT)
#: Right restricted HR gradient: units multiply each partial from the left.
right_from_real = partial(hr_from_real, side=Side.RIGHT)
#: Inverse of left_from_real; rejects a right gradient.
real_from_left = partial(_real_from_hr, side=Side.LEFT)
#: Inverse of right_from_real; rejects a left gradient.
real_from_right = partial(_real_from_hr, side=Side.RIGHT)


def differential(h: HRGradient, dq: Quaternion) -> Quaternion:
    """First-order increment df for the step dq.

    Left side:  df = d1*dq + dI*dq^i + dJ*dq^j + dK*dq^k  (partials on the
    left); right side places the involved steps on the left instead.  Both
    sides of the same function produce the same increment.
    """
    return side_dot(h.side, h.as_tuple(), map(dq.involution, AxisUnit))


# ---------------------------------------------------------------------------
# The Jacobian matrix and small quaternion-matrix helpers
# ---------------------------------------------------------------------------

QMatrix = tuple[tuple[Quaternion, ...], ...]


def _qmat(rows) -> QMatrix:
    return tuple(tuple(row) for row in rows)


#: J = (1/4) [[1, i, j, k], [1, i, -j, -k], [1, -i, j, -k], [1, -i, -j, k]].
#: All entries are exact dyadic floats, so J J^H = J^H J = (1/4) Identity
#: holds exactly even in double arithmetic.
JACOBIAN = _qmat(
    (u * 0.25 for u in row)
    for row in (
        (ONE, QI, QJ, QK),
        (ONE, QI, -QJ, -QK),
        (ONE, -QI, QJ, -QK),
        (ONE, -QI, -QJ, QK),
    )
)


def qmat_conj_transpose(m: QMatrix) -> QMatrix:
    return _qmat((m[j][i].conjugate() for j in range(4)) for i in range(4))


def qmat_mul(x: QMatrix, y: QMatrix) -> QMatrix:
    cols = tuple(zip(*y))
    return _qmat((side_dot(Side.LEFT, row, col) for col in cols) for row in x)


def qmat_scale(m: QMatrix, s: float) -> QMatrix:
    return _qmat((e * s for e in row) for row in m)


def qmat_from_real(p) -> QMatrix:
    """Embed a 4x4 real matrix as a quaternion matrix."""
    return _qmat((Quaternion(float(e)) for e in row) for row in p)


# ---------------------------------------------------------------------------
# Forward-mode jets
# ---------------------------------------------------------------------------

# A jet's floats are (value, dA, dB, dC, dD), each a float 4-tuple.  The
# kernels below are the Quaternion forms of jet +, -, *, inverse, jet_pow
# and jet_exp written out on them: every product and sum of that form,
# zero terms included, in its order, so results are bit-identical to it,
# signed zeros included.  Only the caller's results are built, by _raw,
# which checks them finite.  Unary - and conjugate() have no kernel: they
# only flip signs, so they are the Quaternion operations on each part.

_Z4 = (0.0, 0.0, 0.0, 0.0)
_ONE_JET = ((1.0, 0.0, 0.0, 0.0), _Z4, _Z4, _Z4, _Z4)


def _add4(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 + a2, b1 + b2, c1 + c2, d1 + d2)


def _neg4(x):
    a, b, c, d = x
    return (-a, -b, -c, -d)


def _jet_add(x, y):
    return tuple(map(_add4, x, y))


def _jet_sub(x, y):  # x + (-y) is x - y bit for bit
    return _jet_add(x, tuple(map(_neg4, y)))


def _jet_mul(x, y):
    """The product rule: value sv ov, partial df ov + sv dg."""
    sv, f1, f2, f3, f4 = x
    ov, g1, g2, g3, g4 = y
    return (_hamilton(sv, ov),
            _add4(_hamilton(f1, ov), _hamilton(sv, g1)),
            _add4(_hamilton(f2, ov), _hamilton(sv, g2)),
            _add4(_hamilton(f3, ov), _hamilton(sv, g3)),
            _add4(_hamilton(f4, ov), _hamilton(sv, g4)))


def _jet_floats(j: "QJet"):
    g = j.grad
    return (_floats(j.value), _floats(g.dA), _floats(g.dB), _floats(g.dC),
            _floats(g.dD))


def _as_floats(x):
    """A jet operand's floats: a QJet, or a Quaternion or real constant."""
    if isinstance(x, QJet):
        return _jet_floats(x)
    if isinstance(x, (int, float)):
        x = Quaternion(float(x))
    elif not isinstance(x, Quaternion):
        return None
    return (_floats(x), _Z4, _Z4, _Z4, _Z4)


def _jet(x) -> "QJet":
    """The QJet of a jet's floats: five _raw values, checked finite."""
    value, dA, dB, dC, dD = x
    return QJet(_raw(*value),
                RealGradient(_raw(*dA), _raw(*dB), _raw(*dC), _raw(*dD)))


def _operator(kernel, reflected=False):
    """A QJet binary operator: kernel over both operands' floats, the other
    first if reflected; NotImplemented if it is no QJet, Quaternion or real."""
    def op(self, other):
        other = _as_floats(other)
        if other is None:
            return NotImplemented
        x = _jet_floats(self)
        return _jet(kernel(other, x) if reflected else kernel(x, other))
    return op


@dataclass(frozen=True, slots=True)
class QJet:
    """A function value together with its RealGradient at the base point.

    Arithmetic follows the ordinary order-preserving product rule on the
    real partials, so jets compose through any expression built from +, -,
    *, conjugate() and inverse().  Binary +, - and *, and inverse(), run a
    float kernel; unary - and conjugate() are the Quaternion's on each part.
    """

    value: Quaternion
    grad: RealGradient

    __add__ = _operator(_jet_add)
    __radd__ = _operator(_jet_add, reflected=True)
    __sub__ = _operator(_jet_sub)
    __rsub__ = _operator(_jet_sub, reflected=True)
    __mul__ = _operator(_jet_mul)
    __rmul__ = _operator(_jet_mul, reflected=True)

    def __neg__(self):
        return QJet(-self.value, RealGradient(*(-p for p in self.grad.as_tuple())))

    def conjugate(self) -> "QJet":
        """Conjugation commutes with the real partials."""
        return QJet(self.value.conjugate(),
                    RealGradient(*(p.conjugate() for p in self.grad.as_tuple())))

    def inverse(self) -> "QJet":
        """d(f^-1)/dq_phi = -f^-1 (df/dq_phi) f^-1; f^-1 is the value's
        Quaternion.inverse, which raises ZeroDivisionError at 0."""
        v = self.value.inverse()
        fv = _floats(v)
        return QJet(v, RealGradient(*(
            _raw(*_neg4(_hamilton(fv, _hamilton(_floats(p), fv))))
            for p in self.grad.as_tuple())))


def jet_seed(q: Quaternion) -> QJet:
    """The identity function at base point q: gradient (1, i, j, k)."""
    return QJet(q, IDENTITY_GRADIENT)


def jet_const(c: Quaternion) -> QJet:
    return QJet(c, ZERO_GRADIENT)


def jet_pow(x: QJet, n: int) -> QJet:
    """Integer power of a jet: n products on floats (the inverse first for
    n < 0), one QJet built at the end."""
    if n < 0:
        return jet_pow(x.inverse(), -n)
    x = _jet_floats(x)
    result = _ONE_JET
    for _ in range(n):
        result = _jet_mul(result, x)
    return _jet(result)


def _const(s: float):
    """The floats of the constant jet of the real s."""
    return ((s, 0.0, 0.0, 0.0), _Z4, _Z4, _Z4, _Z4)


def jet_exp(x: QJet) -> QJet:
    """exp of a jet by scaled power series plus repeated squaring.

    The argument is halved until its norm is below 1/2, the series is summed
    until terms fall below 1e-16 of the partial sum, and the result is
    squared back up.  Accuracy is machine-level for moderate arguments.
    The loops run on floats, the real factors as constant-jet products, and
    one QJet is built at the end: an overflow on the way shows there, and
    the squarings stop at the first non-finite value component or at the
    fixed point of a zero value, signs of zero included.  A value whose
    norm overflows raises NonFiniteComponent before the loops.
    """
    x = _jet_floats(x)
    halvings = 0
    scale = math.hypot(*x[0])
    if scale == math.inf:  # halving inf would never end
        raise NonFiniteComponent("jet_exp: the norm of the value overflows")
    while scale > 0.5:
        scale *= 0.5
        halvings += 1
    h = _jet_mul(x, _const(0.5 ** halvings))
    acc = term = _ONE_JET
    for n in range(1, 201):  # a cap: |h| <= 1/2 breaks out by n = 15
        term = _jet_mul(_jet_mul(term, h), _const(1.0 / n))
        acc = _jet_add(acc, term)
        if math.hypot(*term[0]) <= 1e-16 * max(1.0, math.hypot(*acc[0])):
            break
    for _ in range(halvings):
        square = _jet_mul(acc, acc)
        if not any(acc[0]) and repr(square) == repr(acc):
            break  # a fixed point: every later square is the same floats
        acc = square
        if not all(map(math.isfinite, acc[0])):
            break  # inf and nan stay non-finite, and _jet raises on them
    return _jet(acc)


def jet_tanh(x: QJet) -> QJet:
    """tanh of a jet via tanh q = (e^{2q} - 1)(e^{2q} + 1)^-1.

    Numerator and denominator commute (both are power series in q), so the
    quotient order is immaterial.  There is no pole check: at the floats
    nearest the poles e^{2q} + 1 is rounding-small, not 0, and the result
    is huge and finite (value -4503599627370495.0 at jet_seed(pi/2 i));
    callers avoid them with regular.cosh_abs_sq, as validate.tanh_safe does.
    """
    e2 = jet_exp(x * 2.0)
    return (e2 - ONE) * (e2 + ONE).inverse()


# ---------------------------------------------------------------------------
# Product rules
# ---------------------------------------------------------------------------

def _product_rule(side: Side, inner_val: Quaternion, inner_grad: RealGradient,
                  outer_val: Quaternion, outer_hr: HRGradient) -> HRGradient:
    """Part n = inner outer_hr[n] + corr[n], multiplied in side order, with
    corr the side's conversion of the partials (d inner) outer."""
    corr = hr_from_real(RealGradient(*(side_mul(side, p, outer_val)
                                       for p in inner_grad.as_tuple())), side)
    parts = tuple(side_mul(side, inner_val, on) + cn
                  for on, cn in zip(outer_hr.as_tuple(), corr.as_tuple()))
    return HRGradient(*parts, side)


def product_rule_first(f_val: Quaternion, f_grad: RealGradient,
                       g_val: Quaternion, g_left: HRGradient) -> HRGradient:
    """Left HR gradient of the product fg.

        grad_q(fg) = f grad_q g + [(grad_r f) g] J^H

    The correction row has components (df/dq_phi) g, combined exactly like
    left_from_real.  Matches the jet-propagated gradient of fg.
    """
    _require_side(g_left, Side.LEFT, "product_rule_first")
    return _product_rule(Side.LEFT, f_val, f_grad, g_val, g_left)


def product_rule_first_right(f_right: HRGradient, g_val: Quaternion,
                             f_val: Quaternion, g_grad: RealGradient) -> HRGradient:
    """Right HR gradient of the product fg (mirror of product_rule_first).

        [grad^R_q(fg)]^T = [(grad^R_q f) g]^T + J* [f (grad_r g)^T]
    """
    _require_side(f_right, Side.RIGHT, "product_rule_first_right")
    return _product_rule(Side.RIGHT, g_val, g_grad, f_val, f_right)


# ---------------------------------------------------------------------------
# Chain rules
# ---------------------------------------------------------------------------

def chain_matrix_involutions(g_grad: RealGradient,
                             side: Side = Side.LEFT) -> QMatrix:
    """M with M[mu][nu] = d(g^mu)/d(q^nu), assembled from involutions of
    the real partials of g (involution is R-linear, so the partials of
    g^mu are the mu-involutions of the partials of g).

    The rows are side HR gradients, and side must match the outer
    gradient's side in chain_rule_first: a left matrix under a right outer
    gradient composes to a wrong result.
    """
    return _qmat(hr_from_real(g_grad.involution(axis), side).as_tuple()
                 for axis in AxisUnit)


def real_jacobian(g_grad: RealGradient):
    """P with P[phi][beta] = d(g_phi)/d(q_beta) as a plain 4x4 float matrix.

    Satisfies 4 J P J^H = chain_matrix_involutions(g_grad).
    """
    return [list(row) for row in zip(*map(_floats, g_grad.as_tuple()))]


def chain_matrix_components(g_grad: RealGradient) -> QMatrix:
    """O with O[phi][nu] = d(g_phi)/d(q^nu): HR partials of the four real
    components of g, whose real partials are the rows of real_jacobian."""
    return _qmat(hr_from_real(RealGradient(*map(Quaternion, row)),
                              Side.LEFT).as_tuple()
                 for row in real_jacobian(g_grad))


def _compose(outer_parts, m: QMatrix, side: Side) -> HRGradient:
    """Part nu is sum_mu outer_parts[mu] m[mu][nu], multiplied in side order."""
    return HRGradient(*(side_dot(side, outer_parts, col) for col in zip(*m)),
                      side)


def chain_rule_first(outer: HRGradient, m: QMatrix) -> HRGradient:
    """Compose: df/dq^nu = sum_mu (df/dg^mu) (dg^mu/dq^nu).

    For a left outer gradient the matrix entries multiply from the right;
    for a right outer gradient from the left ((grad^R_q f)^T = M^T
    (grad^{gR}_q f)^T).
    """
    return _compose(outer.as_tuple(), m, outer.side)


def chain_rule_second(outer_real: RealGradient, o: QMatrix,
                      side: Side = Side.LEFT) -> HRGradient:
    """Compose through the real components of the intermediate function:
    df/dq^nu = sum_phi (df/dg_phi) (dg_phi/dq^nu)."""
    return _compose(outer_real.as_tuple(), o, side)


def _check_real_valued(h: HRGradient, what: str) -> None:
    tol = RESIDUE_TOL * max(1.0, abs(h.d1))
    for axis, partial in zip(IMAGINARY_AXES, (h.dI, h.dJ, h.dK)):
        residue = abs(partial - h.d1.involution(axis))
        if residue > tol:
            raise NotRealValued(
                f"{what}: gradient fails the real-valued symmetry test "
                f"(residue {residue:.3e} on the {axis.value} slot, "
                f"tolerance {tol:.3e})")


def chain_rule_third(dfdg: Quaternion, g_hr: HRGradient) -> HRGradient:
    """Chain rule for a real-valued intermediate function g.

    Left: df/dq^nu = (df/dg)(dg/dq^nu); right: factors in opposite order.
    Requires g's gradient to satisfy the real-valued symmetry
    d^nu = (d1)^nu.
    """
    _check_real_valued(g_hr, "chain_rule_third")
    parts = tuple(side_mul(g_hr.side, dfdg, p) for p in g_hr.as_tuple())
    return HRGradient(*parts, g_hr.side)


def real_valued_reduce(h: HRGradient) -> Quaternion:
    """Collapse the gradient of a real-valued function to its d1 slot.

    For real-valued f the four HR partials obey d^nu = (d1)^nu, so d1 is
    the only independent one; the increment is df = 4 R(d1 dq) and the
    steepest descent direction is -(d1)*.
    """
    _check_real_valued(h, "real_valued_reduce")
    return h.d1
