"""Finite-difference estimation of the four real partials.

This is the numerical ground truth against which every closed form and
rule in the package is checked, so it deliberately shares no code with the
jet machinery.
"""

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .hr import HRGradient, RealGradient, Side, hr_from_real
from .quaternion import ONE, QI, QJ, QK, Quaternion, left_sum

_AXES = (ONE, QI, QJ, QK)

QuatFn = Callable[[Quaternion], Quaternion]


@dataclass(frozen=True, slots=True)
class FDConfig:
    step: float
    scheme: str = "central"
    richardson: bool = False

    def __post_init__(self):
        if not 0.0 < self.step < 0.1:
            raise ValueError(f"step must lie in (0, 0.1), got {self.step}")
        if self.scheme not in ("central", "forward"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def default_step(q: Quaternion) -> float:
    """h = 1e-5 * max(1, |q|): the truncation/rounding balance for central
    differences."""
    return 1e-5 * max(1.0, abs(q))


def _estimate(f: QuatFn, q: Quaternion, h: float, scheme: str):
    if scheme == "central":
        return [(f(q + u * h) - f(q - u * h)) * (0.5 / h) for u in _AXES]
    f0 = f(q)
    return [(f(q + u * h) - f0) * (1.0 / h) for u in _AXES]


def real_partials_fd(f: QuatFn, q: Quaternion, cfg: FDConfig) -> RealGradient:
    """Estimate (df/dq_a, .., df/dq_d) by finite differences.

    Richardson extrapolation combines the h and h/2 estimates as
    (w E_{h/2} - E_h)/(w - 1) with w = 2^order: 4 for the second-order
    central scheme, 2 for the first-order forward scheme.  Errors raised
    by f propagate unchanged.
    """
    coarse = _estimate(f, q, cfg.step, cfg.scheme)
    if not cfg.richardson:
        return RealGradient(*coarse)
    fine = _estimate(f, q, cfg.step / 2.0, cfg.scheme)
    w = 4.0 if cfg.scheme == "central" else 2.0
    scale = 1.0 / (w - 1.0)  # forward: * 1.0, exact
    return RealGradient(*[(e2 * w - e1) * scale
                          for e1, e2 in zip(coarse, fine)])


def hr_gradient_fd(f: QuatFn, q: Quaternion, cfg: FDConfig,
                   side: Side = Side.LEFT) -> HRGradient:
    """Finite-difference HR gradient: real partials composed with the
    left/right conversion."""
    return hr_from_real(real_partials_fd(f, q, cfg), side)


def rel_error(x: Quaternion, y: Quaternion) -> float:
    """|x - y| / max(1, |y|): the error metric used throughout the checks."""
    return abs(x - y) / max(1.0, abs(y))


def gradient_error(g: RealGradient, reference: RealGradient) -> float:
    """Aggregate relative distance between two real gradients."""
    num = math.sqrt(left_sum((a - b).norm_sq() for a, b
                             in zip(g.as_tuple(), reference.as_tuple())))
    den = max(1.0, math.sqrt(left_sum(b.norm_sq()
                                      for b in reference.as_tuple())))
    return num / den


def convergence_order(f: QuatFn, q: Quaternion, steps: Sequence[float],
                      reference: RealGradient, scheme: str = "central") -> float:
    """Least-squares slope of log(error) against log(h).

    The reference gradient is the analytic (jet) truth.  Steps whose error
    sits at the rounding floor (< 1e-12) are excluded; if fewer than two
    remain the order cannot be estimated and NaN is returned.  Central
    differences yield a slope near 2 on smooth functions, forward
    differences near 1.
    """
    if len(steps) < 3:
        raise ValueError("need at least 3 steps in a geometric sequence")
    points = []
    for h in steps:
        err = gradient_error(real_partials_fd(f, q, FDConfig(h, scheme)),
                             reference)
        if err >= 1e-12:
            points.append((math.log(h), math.log(err)))
    if len(points) < 2:
        return math.nan
    return least_squares_slope(*zip(*points))


def least_squares_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Slope of the least-squares line through (xs, ys):
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2."""
    x_mean = left_sum(xs) / len(xs)
    y_mean = left_sum(ys) / len(ys)
    return (left_sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
            / left_sum((x - x_mean) ** 2 for x in xs))
