"""Closed-form restricted HR derivatives of regular (power-series) functions.

For f(q) = (q - q0)^n the left and right HR derivatives share one formula,

    df/dq = ( n qt^{n-1} + (qt^n - qt*^n)(qt - qt*)^{-1} ) / 2,   qt = q - q0,

and the singular-looking ratio is in fact the real scalar

    (qt^n - qt*^n)(qt - qt*)^{-1} = |qt|^{n-1} sin(n theta)/sin(theta)
                                  = |qt|^{n-1} U_{n-1}(cos theta),

with theta the argument of qt and U the Chebyshev polynomial of the second
kind.  Evaluating the Chebyshev recurrence instead of the literal division
makes the v -> 0 limit (value n * qt_a^{n-1}) automatic, including the
theta -> pi case on the negative real axis.

Summing over a power series Sum a_n qt^n gives

    df/dq = ( f'(q) + (g(qt) - g(qt*))(qt - qt*)^{-1} ) / 2

where f' is the termwise formal derivative.  Coefficients multiply the
powers from the left for the left operator and from the right for the
right operator; the ratio term is central and real, so with real
coefficients the two sides coincide.  As q approaches the real axis the
HR derivative tends to the ordinary real derivative.

exp, ln, tanh and (q - q0)^n are intrinsic: each lifts a complex F, real on
the real axis, to f(q) = Re F(z) + vhat Im F(z) with z = q_a + i v.  Elementary
takes their full real gradient from F(z) and F'(z) by Cauchy-Riemann
(intrinsic_gradient); the jets and finite differences are its oracle.
"""

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import DomainError, OutsideAnnulus
from .hr import QJet, RealGradient, Side
from .quaternion import ONE, QI, QJ, QK, ZERO, Quaternion, exp_q, ln_q, tanh_q


def symmetric_ratio(qt: Quaternion, n: int) -> float:
    """The real scalar (qt^n - qt*^n)(qt - qt*)^{-1}.

    Computed as |qt|^{n-1} U_{|n|-1}(cos theta) with a sign flip for
    negative n; continuous at v = 0 where it equals n * qt_a^{n-1}.
    """
    r = abs(qt)
    if r == 0.0:
        if n <= 0:
            raise ZeroDivisionError(
                f"symmetric ratio undefined at qt = 0 for n = {n}")
        return 1.0 if n == 1 else 0.0
    if n == 0:
        return 0.0
    x = qt.a / r
    # U_{m-1}(x) by the stable three-term recurrence
    m = abs(n)
    u_prev, u = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(m - 1):
        u_prev, u = u, 2.0 * x * u - u_prev
    value = r ** (n - 1) * u
    return value if n > 0 else -value


def power_derivative(q: Quaternion, center: Quaternion, n: int,
                     side: Side = Side.LEFT) -> Quaternion:
    """HR derivative of (q - center)^n.

    The left and right formulas are identical (the ratio term is central
    and real), so the side parameter only documents intent.
    """
    del side  # left == right for pure powers
    qt = q - center
    if n == 0:
        return ZERO
    return (qt ** (n - 1) * n + Quaternion(symmetric_ratio(qt, n))) * 0.5


def power_derivative_oracle(q: Quaternion, center: Quaternion, n: int) -> Quaternion:
    """Brute-force cross-check of power_derivative.

    n >= 1 uses the induction sum  Sum_{m=0}^{n-1} qt^m R(qt^{n-1-m});
    n < 0 uses the recurrence  d(qt^-m)/dq = qt^-1 [d(qt^-(m-1))/dq - R(qt^-m)]
    anchored at d(qt^-1)/dq = -qt^-1 R(qt^-1).
    """
    qt = q - center
    if n == 0:
        return ZERO
    if n >= 1:
        acc = ZERO
        power = Quaternion(1.0)  # qt^m
        # precompute real parts of qt^0 .. qt^{n-1}
        reals = []
        p = Quaternion(1.0)
        for _ in range(n):
            reals.append(p.a)
            p = p * qt
        for m in range(n):
            acc = acc + power * reals[n - 1 - m]
            power = power * qt
        return acc
    qinv = qt.inverse()
    d = -(qinv * qinv.a)
    for m in range(2, -n + 1):
        d = qinv * (d - Quaternion((qinv ** m).a))
    return d


@dataclass(frozen=True)
class PowerSeriesFn:
    """A one-sided power series Sum a_n (q - center)^n on an annulus.

    For side LEFT the coefficients multiply the powers from the left
    (a_n qt^n); for side RIGHT from the right (qt^n a_n).  When every a_n
    is real the side is irrelevant.  Evaluation and differentiation are
    accepted for annulus[0] <= |q - center| <= annulus[1]; a series with
    no negative powers is additionally valid at q = center.
    """

    center: Quaternion
    coeffs: dict[int, Quaternion]
    side: Side = Side.LEFT
    annulus: tuple[float, float] = (0.0, math.inf)
    _orders: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("power series needs at least one coefficient")
        lo, hi = self.annulus
        if not (0.0 <= lo <= hi):
            raise ValueError(f"invalid annulus {self.annulus}")
        object.__setattr__(self, "_orders", tuple(sorted(self.coeffs)))

    def _check_annulus(self, q: Quaternion) -> Quaternion:
        qt = q - self.center
        r = abs(qt)
        lo = 0.0 if self._orders[0] >= 0 else self.annulus[0]
        if not (lo <= r <= self.annulus[1]):
            raise OutsideAnnulus(
                f"|q - center| = {r:.6g} outside [{lo:.6g}, {self.annulus[1]:.6g}]")
        return qt

    def evaluate(self, q: Quaternion) -> Quaternion:
        qt = self._check_annulus(q)
        acc = ZERO
        for n in self._orders:
            term = qt ** n
            a = self.coeffs[n]
            acc = acc + (a * term if self.side is Side.LEFT else term * a)
        return acc

    def usual_derivative(self, q: Quaternion) -> Quaternion:
        """The termwise formal derivative Sum n a_n qt^{n-1} (or mirrored)."""
        qt = self._check_annulus(q)
        acc = ZERO
        for n in self._orders:
            if n == 0:
                continue
            term = qt ** (n - 1) * n
            a = self.coeffs[n]
            acc = acc + (a * term if self.side is Side.LEFT else term * a)
        return acc

    def derivative(self, q: Quaternion) -> Quaternion:
        """Restricted HR derivative: (usual derivative + ratio term) / 2.

        The ratio term is accumulated termwise through symmetric_ratio, so
        the real-axis limit needs no special casing.  Termwise it equals
        Sum a_n * power_derivative(..., n) restricted to this series.
        """
        qt = self._check_annulus(q)
        usual = ZERO
        ratio = ZERO
        for n in self._orders:
            if n == 0:
                continue
            a = self.coeffs[n]
            term = qt ** (n - 1) * n
            s = symmetric_ratio(qt, n)
            if self.side is Side.LEFT:
                usual = usual + a * term
                ratio = ratio + a * s
            else:
                usual = usual + term * a
                ratio = ratio + s * a
        return (usual + ratio) * 0.5


def exp_series(n_max: int = 30) -> PowerSeriesFn:
    """Truncated exponential series with real coefficients 1/n!."""
    coeffs = {n: Quaternion(1.0 / math.factorial(n)) for n in range(n_max + 1)}
    return PowerSeriesFn(ZERO, coeffs)


def _tangent_numbers(count: int) -> list[int]:
    """Tangent numbers T_1..T_count (1, 2, 16, 272, ...) via the
    Entringer/boustrophedon triangle; exact integers."""
    zigzag = [1]
    rows = [[1]]
    for i in range(1, 2 * count):
        prev = rows[-1]
        row = [0]
        for j in range(i):
            row.append(row[-1] + prev[i - 1 - j])
        rows.append(row)
        zigzag.append(row[-1])
    return [zigzag[2 * m - 1] for m in range(1, count + 1)]


def tanh_series(n_max: int = 61) -> PowerSeriesFn:
    """Truncated Maclaurin series of tanh: q - q^3/3 + 2q^5/15 - ...

    Coefficients are (-1)^{m-1} T_m / (2m-1)! with T_m the tangent
    numbers, computed exactly and rounded once.  Radius of convergence is
    pi/2, which bounds the annulus.
    """
    count = (n_max + 1) // 2
    tangents = _tangent_numbers(count)
    coeffs = {}
    for m, t in enumerate(tangents, start=1):
        value = Fraction((-1) ** (m - 1) * t, math.factorial(2 * m - 1))
        coeffs[2 * m - 1] = Quaternion(float(value))
    return PowerSeriesFn(ZERO, coeffs, annulus=(0.0, math.pi / 2))


# ---------------------------------------------------------------------------
# Elementary closed forms
# ---------------------------------------------------------------------------

def exp_derivative(q: Quaternion) -> Quaternion:
    """d(e^q)/dq = (e^q + e^{q_a} sin(v)/v) / 2, with sin(v)/v -> 1 at v=0."""
    v = q.imag_norm()
    sinc = math.sin(v) / v if v > 0.0 else 1.0
    return (exp_q(q) + Quaternion(math.exp(q.a) * sinc)) * 0.5


def ln_derivative(q: Quaternion) -> Quaternion:
    """d(ln q)/dq = (q^-1 + arccos(q_a/|q|)/v) / 2.

    On the positive real axis the second term tends to 1/q_a, giving the
    real value 1/q_a; the negative real axis is a branch point.
    """
    if abs(q) == 0.0:
        raise DomainError("ln derivative undefined at q = 0")
    v = q.imag_norm()
    if v == 0.0:
        if q.a < 0.0:
            raise DomainError("ln branch point: q is real with q_a <= 0")
        return Quaternion(1.0 / q.a)
    theta = math.atan2(v, q.a)
    return (q.inverse() + Quaternion(theta / v)) * 0.5


def tanh_derivative(q: Quaternion) -> Quaternion:
    """d(tanh q)/dq = (sech^2 q + sin(2v)/(v (cosh 2q_a + cos 2v))) / 2.

    sech^2 q = 1 - tanh^2 q, and the scalar term tends to
    2/(cosh 2q_a + 1) = sech^2(q_a) at v = 0.  tanh_q raises PoleError
    near the zeros of cosh q, so the pole set is that of tanh itself.
    """
    t = tanh_q(q)
    v = q.imag_norm()
    den2 = math.sinh(q.a) ** 2 + math.cos(v) ** 2  # |cosh q|^2
    # cosh(2 q_a) + cos(2 v) == 2 * den2
    ratio = (math.sin(2.0 * v) / v if v > 0.0 else 2.0) / (2.0 * den2)
    return (ONE - t * t + Quaternion(ratio)) * 0.5


def intrinsic_gradient(F: Callable[[complex], complex],
                       dF: Callable[[complex], complex],
                       q: Quaternion) -> RealGradient:
    """Real gradient of the lift f(q) = Re F(z) + vhat Im F(z), z = q_a + i v.

    With x = I(q), A = Re F'(z), B = Im F'(z)/v and C = Im F(z)/v,
    Cauchy-Riemann gives

        df/dq_a = A + x B
        df/dx_u = -B x_u + C e_u + (x/v) ((A - C) (x_u/v)),

    and at v = 0 the limits F'(q_a) and F'(q_a) e_u.  The grouping keeps
    every factor bounded as v -> 0, where (A - C)/v^2 would underflow.
    """
    v = q.imag_norm()
    if v == 0.0:
        d = dF(complex(q.a, 0.0)).real
        return RealGradient(Quaternion(d), QI * d, QJ * d, QK * d)
    z = complex(q.a, v)
    f, df = F(z), dF(z)
    a, b, c = df.real, df.imag / v, f.imag / v
    vhat = Quaternion(0.0, q.b / v, q.c / v, q.d / v)
    partials = [Quaternion(a, b * q.b, b * q.c, b * q.d)]
    for x_u, e_u in ((q.b, QI), (q.c, QJ), (q.d, QK)):
        partials.append(Quaternion(-b * x_u) + e_u * c
                        + vhat * ((a - c) * (x_u / v)))
    return RealGradient(*partials)


def ln_real_gradient(q: Quaternion) -> RealGradient:
    """Real gradient of the principal ln at q, through the intrinsic lift."""
    return Elementary.ln().real_gradient(q)


class _Row(NamedTuple):
    """Value, closed-form d1, and the F, F' lifted at q - center."""

    value: Callable[[Quaternion], Quaternion]
    d1: Callable[[Quaternion], Quaternion]
    F: Callable[[complex], complex]
    dF: Callable[[complex], complex]
    center: Quaternion = ZERO


def _zpow(z: complex, n: int) -> complex:
    """z^n, inverted first for n < 0: z ** n is nan once z^-n overflows."""
    return z ** n if n >= 0 else (1 / z) ** -n


_ROWS = {
    "exp": lambda n, c: _Row(exp_q, exp_derivative, cmath.exp, cmath.exp),
    "ln": lambda n, c: _Row(ln_q, ln_derivative, cmath.log, lambda z: 1 / z),
    "tanh": lambda n, c: _Row(tanh_q, tanh_derivative, cmath.tanh,
                              lambda z: 1 - cmath.tanh(z) ** 2),
    "power": lambda n, c: _Row(lambda q: (q - c) ** n,
                               lambda q: power_derivative(q, c, n),
                               lambda z: _zpow(z, n),
                               lambda z: n * _zpow(z, n - 1) if n else 0j, c),
}


@dataclass(frozen=True)
class Elementary:
    """One of the elementary functions exp, ln, tanh or (q - center)^n.

    Each kind is one table row: the function value, the closed-form HR
    derivative, and the complex function whose intrinsic lift gives the
    full real gradient, which is what the CLI and the consistency checks
    consume.  Every route starts from value(q), so all share its domain,
    branch and pole checks.
    """

    kind: str
    n: int = 0
    center: Quaternion = ZERO

    @classmethod
    def exp(cls) -> "Elementary":
        return cls("exp")

    @classmethod
    def ln(cls) -> "Elementary":
        return cls("ln")

    @classmethod
    def tanh(cls) -> "Elementary":
        return cls("tanh")

    @classmethod
    def power(cls, n: int, center: Quaternion = ZERO) -> "Elementary":
        return cls("power", n=n, center=center)

    def __post_init__(self):
        if self.kind not in _ROWS:
            raise ValueError(f"unknown elementary function {self.kind!r}")

    @property
    def _row(self) -> _Row:
        return _ROWS[self.kind](self.n, self.center)

    def value(self, q: Quaternion) -> Quaternion:
        return self._row.value(q)

    def hr_derivative(self, q: Quaternion) -> Quaternion:
        """Closed-form d1 slot (identical for the left and right operators)."""
        return self._row.d1(q)

    def real_derivative(self, x: float) -> float:
        """f'(x) in the ordinary real-calculus sense."""
        if self._row.center.imag_norm() != 0.0:
            raise ValueError("real-axis derivative needs a real center")
        return self.real_gradient(Quaternion(x)).dA.a

    def real_gradient(self, q: Quaternion) -> RealGradient:
        """Full real gradient through the intrinsic lift."""
        return self.jet(q).grad

    def jet(self, q: Quaternion) -> QJet:
        row = self._row
        return QJet(row.value(q),
                    intrinsic_gradient(row.F, row.dF, q - row.center))


def real_axis_limit_check(fn: Elementary, q_a: float, v_sequence,
                          axis: Quaternion) -> list[float]:
    """Distances |HR-derivative(q_a + v*axis) - f'(q_a)| for each v.

    As q approaches the real axis the HR derivative of a regular function
    with real center tends to the ordinary derivative, so the returned
    sequence decreases for decreasing v (callers assert monotonicity).
    The axis must be a pure unit quaternion.
    """
    if axis.a != 0.0 or abs(axis.imag_norm() - 1.0) > 1e-12:
        raise ValueError(f"axis must be a pure unit quaternion, got {axis}")
    reference = Quaternion(fn.real_derivative(q_a))
    errors = []
    for v in v_sequence:
        if v <= 0.0:
            raise ValueError("v sequence must be positive")
        point = Quaternion(q_a) + axis * v
        errors.append(abs(fn.hr_derivative(point) - reference))
    return errors
