"""Scalar quaternion arithmetic.

A quaternion q = a + b i + c j + d k is stored as four doubles in the fixed
component order (a, b, c, d).  The imaginary units satisfy

    i^2 = j^2 = k^2 = -1,   ij = k,  jk = i,  ki = j,
    ij = -ji,  ki = -ik,  kj = -jk,

so multiplication is non-commutative, but real factors always commute.
Besides the Hamilton product the module provides the axis involutions
q^nu = -nu q nu, recovery of the real components from an involution
quadruple, the polar decomposition q = a + v*vhat, and a text form
"a+bi+cj+dk" used by the CLI and test fixtures.  It is only the number
type: exp, ln, tanh and (q - c)^n of a quaternion live in regular.

Every Quaternion is built by _raw, the one finiteness check (it raises
NonFiniteComponent).  Public construction, Quaternion(a, b, c, d), is
_raw over float() of each component; arithmetic results call _raw
directly, since their components are Python floats already.
random_quaternion is the one standard-normal sampler.
"""

import math
import operator
import re
import sys
from enum import Enum
from functools import reduce

from .errors import InconsistentQuadruple, NonFiniteComponent

#: A residue that is zero in exact arithmetic is rounding up to this much,
#: relative to max(1, |.|) of the value it is measured against.
RESIDUE_TOL = 1e-10

#: The normal float range, where |q|^2 needs no scaling before 1 / |q|^2.
_NORMAL_MIN, _NORMAL_MAX = sys.float_info.min, sys.float_info.max


class _FieldsOnFirstRead:
    """__dataclass_fields__, built on first read and cached on the class."""

    def __get__(self, obj, cls):
        from dataclasses import _FIELD, field
        cls.__dataclass_fields__ = fields = {name: field(
            repr=name in cls._compared, compare=name in cls._compared)
            for name in cls.__slots__}
        for name, f in fields.items():
            f.name, f._field_type = name, _FIELD
        return fields


class _Record:
    """A frozen @dataclass over __slots__, without importing dataclasses: repr,
    == and hash see the compared fields (every slot unless the class keyword
    names fewer); a __new__ sets the slots through cls._setters."""

    __slots__ = ()

    def __init_subclass__(cls, compared=None):
        cls._compared = compared or cls.__slots__
        cls._key = operator.attrgetter(*cls._compared)
        cls._setters = tuple(cls.__dict__[n].__set__ for n in cls.__slots__)
        cls.__dataclass_fields__ = _FieldsOnFirstRead()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._compared, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __new__
        return type(self), tuple(map(self.__getattribute__, self.__slots__))


_new = object.__new__


class Quaternion(_Record):
    """An immutable quaternion with components (a, b, c, d).

    All arithmetic returns new instances; values are safe to share across
    threads.  Every instance comes from _raw, which rejects NaN and
    infinity: Quaternion(a, b, c, d) passes it float() of each component (a
    numpy scalar becomes a Python float), while conjugate(), inverse(),
    involution() and + - * / pass their float results directly (a scalar
    operand is converted with float() first).
    """

    __slots__ = ("a", "b", "c", "d")

    def __new__(cls, a, b=0.0, c=0.0, d=0.0):
        return _raw(float(a), float(b), float(c), float(d))

    # -- basic structure ------------------------------------------------

    def conjugate(self) -> "Quaternion":
        return _raw(self.a, -self.b, -self.c, -self.d)

    def norm_sq(self) -> float:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def norm(self) -> float:
        return math.hypot(self.a, self.b, self.c, self.d)

    __abs__ = norm

    def imag_norm(self) -> float:
        """v = |I(q)|."""
        return math.hypot(self.b, self.c, self.d)

    def inverse(self) -> "Quaternion":
        """q^-1 = q* / |q|^2, across the float range.

        Where |q|^2 overflows or is subnormal, q is scaled by the power of
        two 2^-e of its largest component (exact), inverted, and the result
        scaled by 2^-e.  ZeroDivisionError only at q = 0; NonFiniteComponent
        where q^-1 itself overflows.
        """
        n2 = self.norm_sq()
        if _NORMAL_MIN <= n2 <= _NORMAL_MAX:
            return _raw(self.a / n2, -self.b / n2, -self.c / n2, -self.d / n2)
        largest = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if largest == 0.0:
            raise ZeroDivisionError("inverse of the zero quaternion")
        e = math.frexp(largest)[1]
        a, b, c, d = (math.ldexp(x, -e) for x in (self.a, self.b, self.c, self.d))
        n2 = a * a + b * b + c * c + d * d
        try:
            return _raw(*(math.ldexp(x / n2, -e) for x in (a, -b, -c, -d)))
        except OverflowError:
            raise NonFiniteComponent(f"inverse of {self} overflows") from None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return _raw(self.a + other.a, self.b + other.b,
                        self.c + other.c, self.d + other.d)
        if isinstance(other, (int, float)):
            other = float(other)
            return _raw(self.a + other, self.b, self.c, self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return _raw(self.a - other.a, self.b - other.b,
                        self.c - other.c, self.d - other.d)
        if isinstance(other, (int, float)):
            other = float(other)
            return _raw(self.a - other, self.b, self.c, self.d)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return -self + other  # x - y = x + (-y), bit for bit
        return NotImplemented

    def __neg__(self):
        return _raw(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        """Hamilton product; reals commute with everything."""
        if isinstance(other, Quaternion):
            return _raw(*_hamilton((self.a, self.b, self.c, self.d),
                                   (other.a, other.b, other.c, other.d)))
        if isinstance(other, (int, float)):
            other = float(other)
            return _raw(self.a * other, self.b * other,
                        self.c * other, self.d * other)
        return NotImplemented

    # only reached for real scalars, which commute
    __rmul__ = __mul__

    def __truediv__(self, other):
        # division by a quaternion is ambiguous (left vs right); use inverse()
        if isinstance(other, (int, float)):
            other = float(other)
            return _raw(self.a / other, self.b / other,
                        self.c / other, self.d / other)
        return NotImplemented

    def __pow__(self, n):
        """Integer power, negative exponents via the inverse: squaring on
        floats with _hamilton, the result built once (an overflow on the
        way shows there)."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return _raw(*power_by_squaring((self.a, self.b, self.c, self.d), n,
                                       (1.0, 0.0, 0.0, 0.0), _hamilton))

    # -- involutions -----------------------------------------------------

    def involution(self, axis: "AxisUnit") -> "Quaternion":
        """q^nu = -nu q nu: flips the two imaginary axes other than nu."""
        if axis is _AXIS_ONE:
            return self
        if axis is _AXIS_I:
            return _raw(self.a, self.b, -self.c, -self.d)
        if axis is _AXIS_J:
            return _raw(self.a, -self.b, self.c, -self.d)
        return _raw(self.a, -self.b, -self.c, self.d)

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        parts = [repr(self.a)]
        for value, suffix in ((self.b, "i"), (self.c, "j"), (self.d, "k")):
            sign = "-" if math.copysign(1.0, value) < 0 else "+"
            parts.append(f"{sign}{abs(value)!r}{suffix}")
        return "".join(parts)

    @classmethod
    def from_string(cls, text: str) -> "Quaternion":
        """Parse the 'a+bi+cj+dk' form; all four components are mandatory."""
        m = _QUATERNION_RE.match(text)
        if m is None:
            raise ValueError(f"not a quaternion string: {text!r} "
                             "(expected a+bi+cj+dk with all four components)")
        return cls(float(m.group(1)), float(m.group(2)),
                   float(m.group(3)), float(m.group(4)))


_set_a, _set_b, _set_c, _set_d = Quaternion._setters


def _raw(a: float, b: float, c: float, d: float) -> Quaternion:
    """A Quaternion from four Python floats, without the float() coercion.

    x * 0.0 is +-0.0 for finite x and nan for inf or nan, so the one sum
    below is nonzero exactly when a component is not finite; the error then
    names the first such component.
    """
    if a * 0.0 + b * 0.0 + c * 0.0 + d * 0.0 != 0.0:
        x = next(x for x in (a, b, c, d) if not math.isfinite(x))
        raise NonFiniteComponent(f"non-finite quaternion component: {x!r}")
    q = _new(Quaternion)
    _set_a(q, a)
    _set_b(q, b)
    _set_c(q, c)
    _set_d(q, d)
    return q


def _hamilton(x, y) -> tuple[float, float, float, float]:
    """The Hamilton product x y of two float 4-tuples (a, b, c, d); the one
    formula, which Quaternion.__mul__ applies to its components."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


#: The units i, j, k as float 4-tuples, for the kernels that work on those.
_UNITS4 = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))


_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_QUATERNION_RE = re.compile(
    rf"^\s*([+-]?{_FLOAT})([+-]{_FLOAT})i([+-]{_FLOAT})j([+-]{_FLOAT})k\s*$"
)

ZERO = Quaternion(0.0)
ONE = Quaternion(1.0)
QI = Quaternion(0.0, 1.0)
QJ = Quaternion(0.0, 0.0, 1.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)


class AxisUnit(Enum):
    """The involution index nu: 1 denotes the identity involution q^1 = q."""

    ONE = "1"
    I = "i"  # noqa: E741 - the mathematical name
    J = "j"
    K = "k"

    @property
    def unit(self) -> Quaternion:
        return _AXIS_UNITS[self]


_AXIS_UNITS = {AxisUnit.ONE: ONE, AxisUnit.I: QI, AxisUnit.J: QJ, AxisUnit.K: QK}

# the members bound once: each AxisUnit.X is a class attribute lookup
_AXIS_ONE, _AXIS_I, _AXIS_J = AxisUnit.ONE, AxisUnit.I, AxisUnit.J

IMAGINARY_AXES = (AxisUnit.I, AxisUnit.J, AxisUnit.K)


def isclose(p: Quaternion, q: Quaternion, *, rel_tol: float = 1e-12,
            abs_tol: float = 0.0) -> bool:
    """Componentwise-aggregate closeness: |p-q| against scaled tolerance."""
    return abs(p - q) <= max(abs_tol, rel_tol * max(abs(p), abs(q)))


def components_from_involutions(q: Quaternion, qi: Quaternion, qj: Quaternion,
                                qk: Quaternion) -> tuple[float, float, float, float]:
    """Recover (q_a, q_b, q_c, q_d) from the involution quadruple.

        q_a = (q + q^i + q^j + q^k)/4        q_b = (q + q^i - q^j - q^k)/(4i)
        q_c = (q - q^i + q^j - q^k)/(4j)     q_d = (q - q^i - q^j + q^k)/(4k)

    Each recovered value must be real up to rounding; a residue above
    1e-10 * max(1, |q|) signals a malformed quadruple and raises
    InconsistentQuadruple.
    """
    recovered = (
        (q + qi + qj + qk) * 0.25,
        (QI * (q + qi - qj - qk)) * -0.25,
        (QJ * (q - qi + qj - qk)) * -0.25,
        (QK * (q - qi - qj + qk)) * -0.25,
    )
    tol = RESIDUE_TOL * max(1.0, abs(q))
    for name, value in zip("abcd", recovered):
        if value.imag_norm() > tol:
            raise InconsistentQuadruple(
                f"recovered q_{name} has imaginary residue "
                f"{value.imag_norm():.3e} (tolerance {tol:.3e})")
    return tuple(value.a for value in recovered)


class PolarForm(_Record):
    """q = real_part + imag_norm * imag_axis, with argument in [0, pi].

    When the imaginary part vanishes there is no distinguished axis:
    imag_axis is None and the argument is 0 or pi by the sign of the real
    part.  Consumers must branch on imag_norm before touching imag_axis.
    """

    __slots__ = ("real_part", "imag_norm", "imag_axis", "argument")

    def __new__(cls, real_part, imag_norm, imag_axis, argument):
        p, (set_real, set_norm, set_axis, set_arg) = _new(cls), cls._setters
        set_real(p, real_part)
        set_norm(p, imag_norm)
        set_axis(p, imag_axis)
        set_arg(p, argument)
        return p


def polar(q: Quaternion) -> PolarForm:
    """Polar decomposition q = q_a + v*vhat with vhat^2 = -1 (when v > 0)."""
    v = q.imag_norm()
    theta = math.atan2(v, q.a)
    if v == 0.0:
        return PolarForm(q.a, 0.0, None, theta)
    axis = Quaternion(0.0, q.b / v, q.c / v, q.d / v)
    return PolarForm(q.a, v, axis, theta)


def random_quaternion(rng, scale: float = 1.0) -> Quaternion:
    """Four standard-normal components times scale, from a numpy Generator.

    The draws are multiplied as Python floats by float(scale): the products
    of the float64 array times scale, bit for bit, without the array."""
    a, b, c, d = rng.standard_normal(4).tolist()
    s = float(scale)
    return _raw(a * s, b * s, c * s, d * s)


def power_by_squaring(x, n: int, one, mul=operator.mul):
    """x^n for n >= 0 in O(log n) products mul(result, x) and mul(x, x),
    starting from one: a complex with the default mul, a quaternion's float
    4-tuple with mul=_hamilton."""
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if n:  # a square past the last bit could overflow needlessly
            x = mul(x, x)
    return result


def left_sum(xs) -> float:
    """The floats xs added left to right from 0.0, as sum() did before 3.12."""
    return reduce(operator.add, xs, 0.0)

