"""Exception types shared across the package."""


class QuatGradError(Exception):
    """Base class for all library-specific errors."""


class DomainError(QuatGradError, ValueError):
    """Input lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation too close to a pole of the function."""


class OutsideAnnulus(DomainError):
    """Point lies outside the annulus of a power-series representation."""


class NonFiniteComponent(QuatGradError, ValueError):
    """A quaternion component is nan or infinite, as after an overflow."""


class InconsistentQuadruple(QuatGradError, ValueError):
    """The four inputs are not the involution quadruple of one quaternion."""


class SideMismatch(QuatGradError, ValueError):
    """A left-sided gradient was required but a right-sided one was given,
    or vice versa."""


class NotRealValued(QuatGradError, ValueError):
    """Operation requires the gradient of a real-valued function, but the
    gradient fails the real-valued symmetry test."""


class LengthMismatch(QuatGradError, ValueError):
    """Filter weight vector and input vector have different lengths."""
