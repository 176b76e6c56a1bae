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
the real axis, to f(q) = Re F(z) + vhat Im F(z) with z = qt_a + i v.  The
ratio term above is then Im F(z)/v, so Elementary computes the value, the
HR derivative and (by Cauchy-Riemann) the full real gradient from one
evaluation of cmath's F(z) and F'(z).  This module is their one home, and
Elementary is the only code that forms z and maps a complex result back
onto q's axis: each function is one Elementary value holding F, F' and
its domain check, and exp_q, ln_q, tanh_q and exp/ln/tanh_derivative are
bound to those values.  The jets, finite differences, PowerSeriesFn and the
Chebyshev form power_derivative are the oracles.
"""

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import DomainError, OutsideAnnulus, PoleError
from .hr import RealGradient, Side, side_dot
from .quaternion import (QI, QJ, QK, ZERO, Quaternion, _NORMAL_MIN, _raw,
                         power_by_squaring)


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
        powers = [Quaternion(1.0)]  # qt^0 .. qt^n
        for _ in range(n):
            powers.append(powers[-1] * qt)
        acc = ZERO
        for m in range(n):
            acc = acc + powers[m] * powers[n - 1 - m].a
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

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("power series needs at least one coefficient")
        lo, hi = self.annulus
        if not (0.0 <= lo <= hi):
            raise ValueError(f"invalid annulus {self.annulus}")

    def _check_annulus(self, q: Quaternion) -> Quaternion:
        qt = q - self.center
        r = abs(qt)
        lo = 0.0 if min(self.coeffs) >= 0 else self.annulus[0]
        if not (lo <= r <= self.annulus[1]):
            raise OutsideAnnulus(
                f"|q - center| = {r:.6g} outside [{lo:.6g}, {self.annulus[1]:.6g}]")
        return qt

    def evaluate(self, q: Quaternion) -> Quaternion:
        qt = self._check_annulus(q)
        orders = sorted(self.coeffs)
        return side_dot(self.side, [self.coeffs[n] for n in orders],
                        [qt ** n for n in orders])

    def usual_derivative(self, q: Quaternion) -> Quaternion:
        """The termwise formal derivative Sum n a_n qt^{n-1} (or mirrored)."""
        qt = self._check_annulus(q)
        orders = [n for n in sorted(self.coeffs) if n != 0]
        return side_dot(self.side, [self.coeffs[n] for n in orders],
                        [qt ** (n - 1) * n for n in orders])

    def derivative(self, q: Quaternion) -> Quaternion:
        """Restricted HR derivative: (usual derivative + ratio term) / 2.

        The ratio term is accumulated termwise through symmetric_ratio, so
        the real-axis limit needs no special casing.  Termwise it equals
        Sum a_n * power_derivative(..., n) restricted to this series.  The
        ratio is a real scalar, so a_n s = s a_n on either side.
        """
        qt = self._check_annulus(q)
        orders = [n for n in sorted(self.coeffs) if n != 0]
        ratio = side_dot(Side.LEFT, [self.coeffs[n] for n in orders],
                         [symmetric_ratio(qt, n) for n in orders])
        return (self.usual_derivative(q) + ratio) * 0.5


def exp_series(n_max: int = 30) -> PowerSeriesFn:
    """Truncated exponential series with real coefficients 1/n!."""
    coeffs = {n: Quaternion(1.0 / math.factorial(n)) for n in range(n_max + 1)}
    return PowerSeriesFn(ZERO, coeffs)


def _tangent_numbers(count: int) -> list[int]:
    """Tangent numbers T_1..T_count (1, 2, 16, 272, ...) by Knuth and
    Buckholtz's recurrence, in place over one list; exact integers."""
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:count + 1]  # count = 0 gives []


def tanh_series(n_max: int = 61) -> PowerSeriesFn:
    """Truncated Maclaurin series of tanh: q - q^3/3 + 2q^5/15 - ...

    Coefficients are (-1)^{m-1} T_m / (2m-1)! with T_m the tangent
    numbers, computed exactly and rounded once (int / int true division is
    correctly rounded).  Radius of convergence is pi/2, which bounds the
    annulus.
    """
    count = (n_max + 1) // 2
    tangents = _tangent_numbers(count)
    coeffs = {}
    for m, t in enumerate(tangents, start=1):
        value = (-1) ** (m - 1) * t / math.factorial(2 * m - 1)
        coeffs[2 * m - 1] = Quaternion(value)
    return PowerSeriesFn(ZERO, coeffs, annulus=(0.0, math.pi / 2))


# ---------------------------------------------------------------------------
# Elementary functions: lifts of complex functions
# ---------------------------------------------------------------------------

_TANH_POLE_TOL = 1e-12


def cosh_abs_sq(q: Quaternion) -> float:
    """|cosh q|^2 = sinh^2 q_a + cos^2 v, zero exactly at the poles of tanh.

    It exceeds 1 once |q_a| >= 1, and is inf past the float range (s * s
    overflows to inf; math.sinh raises beyond |q_a| ~ 710.47).
    """
    s = math.sinh(q.a) if abs(q.a) < 710.0 else math.inf
    return s * s + math.cos(q.imag_norm()) ** 2


def _check_ln(q: Quaternion) -> None:
    """Reject q = 0 and the negative real axis, where ln has no value."""
    if q.norm() == 0.0:
        raise DomainError("ln is undefined at q = 0")
    if q.imag_norm() == 0.0 and q.a < 0.0:
        raise DomainError("ln branch point: q is real with q_a <= 0")


def _check_tanh(q: Quaternion) -> None:
    """Reject the poles of tanh: the zeros of cosh q, q_a = 0, v = pi/2 + n pi."""
    den = cosh_abs_sq(q)
    if den < _TANH_POLE_TOL:
        raise PoleError(f"tanh pole: |cosh q|^2 = {den:.3e} at q = {q}")


def _zpow(z: complex, n: int) -> complex:
    """z^n by squaring: past |n| = 100 CPython's z ** n takes the polar form,
    whose phase error ~ n pi 2^-53 swamps Im z^n next to the negative real
    axis.  Inverted first for n < 0 (z ** n is nan once z^-n overflows)."""
    return power_by_squaring(1 / z if n < 0 else z, abs(n), 1 + 0j)


def _sech_sq(z: complex) -> complex:
    """tanh'(z) = sech^2 z.  1 - tanh(z)^2 cancels once |Re z| is a few
    units, and 4e/(1 + e)^2 with e = exp(-+2z), |e| <= 1, cancels in 1 + e
    next to the poles on Re z = 0; each is taken where the other cancels.
    e is squared from exp(-+z): 2 Im z could overflow."""
    if -0.5 < z.real < 0.5:
        return 1 - cmath.tanh(z) ** 2
    e = cmath.exp(-z if z.real > 0.0 else z)
    e = e * e
    s = 1 + e
    return 4 * e / (s * s)


_SUBNORMAL_SLACK = 8 * 5e-324  # eight steps of the smallest subnormal


def _ratio(f: complex, df: complex, v: float) -> float:
    """The ratio term Im F(z)/v, f = F(z) and df = F'(z); F'(q_a) at v = 0.

    A subnormal Im F(z) within a few steps of v Re F'(z) has lost its digits
    to underflow (exp at -700 + 1e-300 i); the limit Re F'(z) is taken
    there.  Next to ln's branch cut Im F(z) ~ pi keeps the quotient.
    """
    if v == 0.0 or (abs(f.imag) < _NORMAL_MIN
                    and abs(f.imag - v * df.real) <= _SUBNORMAL_SLACK):
        return df.real
    return f.imag / v


@dataclass(frozen=True)
class Elementary:
    """One of the elementary functions exp, ln, tanh or (q - center)^n.

    Each is the complex function F, its derivative F' and a domain check on
    q.  The value, the HR derivative and the full real gradient (which the
    CLI and the consistency checks consume) are all computed from the lift
    of F at q - center, after the check.  exp(), ln() and tanh() return one
    value each, built once; equality and repr see kind, n and center.
    """

    kind: str
    F: Callable[[complex], complex] = field(repr=False, compare=False)
    dF: Callable[[complex], complex] = field(repr=False, compare=False)
    check: Callable[[Quaternion], None] = field(repr=False, compare=False)
    n: int = 0
    center: Quaternion = ZERO

    @staticmethod
    def exp() -> "Elementary":
        return _EXP

    @staticmethod
    def ln() -> "Elementary":
        return _LN

    @staticmethod
    def tanh() -> "Elementary":
        return _TANH

    @classmethod
    def power(cls, n: int, center: Quaternion = ZERO) -> "Elementary":
        """(q - center)^n; for n < 0 its center is a pole."""
        def check(q: Quaternion) -> None:
            if n < 0 and q == center:
                raise ZeroDivisionError(f"pole of (q - c)^n, n = {n}, at its "
                                        f"center c = {center}")
        return cls("power", lambda z: _zpow(z, n),
                   lambda z: n * _zpow(z, n - 1) if n else 0j, check, n, center)

    def _at(self, q: Quaternion) -> tuple[Quaternion, float, complex]:
        """Check q, then qt = q - center, v = |I(qt)| and z = qt_a + i v.

        qt is q itself for the ZERO center (x - +0.0 is x bit for bit); the
        test is identity, since subtracting a -0.0 center turns -0.0
        components into +0.0."""
        self.check(q)
        qt = q if self.center is ZERO else q - self.center
        v = qt.imag_norm()
        return qt, v, complex(qt.a, v)

    @staticmethod
    def _on_axis(w: complex, qt: Quaternion, v: float) -> Quaternion:
        """Re w + vhat Im w on qt's axis; Re w alone at v = 0, where the
        domain checks leave Im F(qt_a) = 0.  Its inputs are Python floats,
        so _raw builds it, checked finite like public construction."""
        if v == 0.0:
            return _raw(w.real, 0.0, 0.0, 0.0)
        f = w.imag / v
        return _raw(w.real, f * qt.b, f * qt.c, f * qt.d)

    def value(self, q: Quaternion) -> Quaternion:
        qt, v, z = self._at(q)
        return self._on_axis(self.F(z), qt, v)

    def hr_derivative(self, q: Quaternion) -> Quaternion:
        """d1, identical for the left and right operators.

        With z = qt_a + i v, qt = q - center, this is the paper's
        (f'(q) + (g(qt) - g(qt*))(qt - qt*)^-1)/2, whose ratio term is
        Im F(z)/v:  (F'(z) on qt's axis + Im F(z)/v)/2, F'(qt_a) at v = 0.
        """
        qt, v, z = self._at(q)
        w, df = self.F(z), self.dF(z)
        ratio = _ratio(w, df, v)
        p = self._on_axis(df, qt, v)
        # (p + Quaternion(ratio)) * 0.5 on floats; + 0.0 fixes signs of zero
        return _raw((p.a + ratio) * 0.5, (p.b + 0.0) * 0.5,
                    (p.c + 0.0) * 0.5, (p.d + 0.0) * 0.5)

    def real_derivative(self, x: float) -> float:
        """f'(x) in the ordinary real-calculus sense."""
        if self.center.imag_norm() != 0.0:
            raise ValueError("real-axis derivative needs a real center")
        return self.real_gradient(Quaternion(x)).dA.a

    def real_gradient(self, q: Quaternion) -> RealGradient:
        """Real gradient of f(q) = Re F(z) + vhat Im F(z), z = qt_a + i v.

        With x = I(qt), A = Re F'(z), B = Im F'(z)/v and C = Im F(z)/v
        (_ratio), Cauchy-Riemann gives

            df/dq_a = A + x B
            df/dx_u = -B x_u + C e_u + (x/v) ((A - C) (x_u/v)),

        and at v = 0 the limits F'(qt_a) and F'(qt_a) e_u.  The grouping
        keeps every factor bounded as v -> 0, where (A - C)/v^2 would
        underflow.  The value is formed before F' is evaluated: it is an
        error here too when it overflows.  For v > 0 the partials are
        written out on floats with the Quaternion form's products and sums
        in its order, zero terms included, so every bit and sign of zero is
        the same.
        """
        qt, v, z = self._at(q)
        w = self.F(z)
        self._on_axis(w, qt, v)  # raises if the value overflows
        df = self.dF(z)
        if v == 0.0:
            d = df.real
            return RealGradient(Quaternion(d), QI * d, QJ * d, QK * d)
        a, b, c = df.real, df.imag / v, _ratio(w, df, v)
        xb, xc, xd = qt.b, qt.c, qt.d
        hb, hc, hd = xb / v, xc / v, xd / v  # vhat
        ac = a - c
        sb, sc, sd = ac * hb, ac * hc, ac * hd  # s_u = (A - C)(x_u/v)
        # (-b x_u) + e_u c + vhat s_u with every term of the Quaternion
        # form: 0.0 c, 0.0 + 0.0 c, 0.0 + c (e_u's zero and unit slots) and
        # vhat's 0.0 s_u fix the signs of zero components
        zc = 0.0 * c
        zzc, oc = 0.0 + zc, 0.0 + c
        return RealGradient(
            _raw(a, b * xb, b * xc, b * xd),
            _raw((-b * xb + zc) + 0.0 * sb, oc + hb * sb, zzc + hc * sb,
                 zzc + hd * sb),
            _raw((-b * xc + zc) + 0.0 * sc, zzc + hb * sc, oc + hc * sc,
                 zzc + hd * sc),
            _raw((-b * xd + zc) + 0.0 * sd, zzc + hb * sd, zzc + hc * sd,
                 oc + hd * sd),
        )


_EXP = Elementary("exp", cmath.exp, cmath.exp, lambda q: None)
_LN = Elementary("ln", cmath.log, lambda z: 1 / z, _check_ln)
_TANH = Elementary("tanh", cmath.tanh, _sech_sq, _check_tanh)

#: exp(q) = e^{q_a} (cos v + vhat sin v); reduces to the real exp at v=0.
exp_q = _EXP.value
#: Principal logarithm ln(q) = ln|q| + vhat * arccos(q_a/|q|); the branch
#: point (q real with q_a <= 0, no axis for the imaginary term) is rejected.
ln_q = _LN.value
#: tanh(q) = (e^q - e^-q)(e^q + e^-q)^-1, rejected near its poles.
tanh_q = _TANH.value
#: d(e^q)/dq = (e^q + e^{q_a} sin(v)/v) / 2, with sin(v)/v -> 1 at v=0.
exp_derivative = _EXP.hr_derivative
#: d(ln q)/dq = (q^-1 + arccos(q_a/|q|)/v) / 2, 1/q_a at v = 0.
ln_derivative = _LN.hr_derivative
#: d(tanh q)/dq = (sech^2 q + sin(2v)/(v (cosh 2q_a + cos 2v))) / 2.
tanh_derivative = _TANH.hr_derivative
#: Real gradient of the principal ln at q, through the intrinsic lift.
ln_real_gradient = _LN.real_gradient


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
