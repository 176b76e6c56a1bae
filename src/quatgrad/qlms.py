"""Quaternion LMS adaptive filter.

Prediction is y[n] = w^T[n] x[n] (plain transpose: quaternion products in
the order w*x), the error is e[n] = d[n] - y[n], and the real cost
J[n] = e e* has gradient -x e*/2 per tap.  Following the steepest descent
direction -(grad J)* with the 1/2 absorbed into the step size gives the
update

    w[n+1] = w[n] + mu * e[n] x*[n]      (per tap: w_m + mu * e * x_m*),

i.e. the exposed mu equals twice the step applied to the raw gradient.
The product order e * x* matters; x* * e is wrong for quaternions.

predict, error_signal, cost_gradient and update_step are the spec API.
The system-identification harness forms d + noise a block of samples at
a time in numpy and runs the weight-dependent steps per sample on float
4-tuples, each in the spec API's operation order; a test checks that its
records are bit-identical to a loop over the spec API.
"""

import math
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import LengthMismatch
from .hr import Side, side_dot
from .quaternion import Quaternion, _hamilton, left_sum, random_quaternion

#: Weight-vector norm beyond which a run is declared divergent.
DIVERGENCE_LIMIT = 1e12

#: Largest M * iterations: a run draws all its inputs up front, 1 GiB here.
MAX_TAP_ITERATIONS = 2 ** 25

_BLOCK_ROWS = 1024  # samples per numpy pass forming d + noise


class StabilityWarning(UserWarning):
    """Step size exceeds the heuristic stability guard 1/(2 M E|x|^2)."""


@dataclass(frozen=True, slots=True)
class FilterState:
    """Immutable snapshot of the adaptive filter: weights, step size,
    iteration counter."""

    weights: tuple[Quaternion, ...]
    step_size: float
    iteration: int = 0

    def __post_init__(self):
        if len(self.weights) < 1:
            raise ValueError("filter needs at least one tap")
        # mu = 0 is admitted so that "zero step leaves weights unchanged"
        # is expressible; negative, nan and infinite steps are rejected
        if not 0.0 <= self.step_size < math.inf:
            raise ValueError(f"step size must be nonnegative, got {self.step_size}")


@dataclass(frozen=True, slots=True)
class SamplePair:
    """One input vector x[n] and the desired output d[n]."""

    input: tuple[Quaternion, ...]
    desired: Quaternion


def predict(state: FilterState, x: Sequence[Quaternion]) -> Quaternion:
    """y = sum_m w_m x_m, products in the order w*x."""
    if len(x) != len(state.weights):
        raise LengthMismatch(
            f"input length {len(x)} != filter length {len(state.weights)}")
    return side_dot(Side.LEFT, state.weights, x)


def error_signal(state: FilterState, sample: SamplePair) -> Quaternion:
    """e = d - w^T x; its conjugate is e* = d* - x^H w*."""
    return sample.desired - predict(state, sample.input)


def cost_gradient(state: FilterState, sample: SamplePair) -> tuple[Quaternion, ...]:
    """Per-tap gradient of J = e e*: -x_m e* / 2.

    Matches the jet-propagated d1 gradient of the cost with respect to
    each tap.
    """
    e_conj = error_signal(state, sample).conjugate()
    return tuple((xm * e_conj) * -0.5 for xm in sample.input)


def update_step(state: FilterState, sample: SamplePair) -> FilterState:
    """One QLMS update: w_m <- w_m + mu * e * x_m* (and bump the counter)."""
    e = error_signal(state, sample)
    mu = state.step_size
    new_weights = tuple(w + (e * xm.conjugate()) * mu
                        for w, xm in zip(state.weights, sample.input))
    return FilterState(new_weights, mu, state.iteration + 1)


# ---------------------------------------------------------------------------
# Synthetic system-identification harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration for a noisy system-identification run, every setting
    checked before anything is drawn.

    Attributes:
        filter_length: number of taps M.
        true_weights: the target weights (length M, norm at most
            DIVERGENCE_LIMIT), or None to draw them standard-normal, seeded
            with (rng_seed, 1), once the other settings have passed.
        noise_power: total noise power, at most DIVERGENCE_LIMIT**2 so that
            e e* stays finite; each of the four axes gets noise_power/4.
        step_size: the QLMS mu.
        iterations: number of update steps N, M * N <= MAX_TAP_ITERATIONS.
        rng_seed: seed for the input/noise generator, an integer >= 0
            (numpy integers included, not a bool); runs are
            bit-reproducible per seed.
    """

    filter_length: int
    true_weights: tuple[Quaternion, ...] | None
    noise_power: float
    step_size: float
    iterations: int
    rng_seed: int

    def __post_init__(self):
        for name, lowest in (("filter_length", 1), ("iterations", 1),
                             ("rng_seed", 0)):
            value = getattr(self, name)
            # what operator.index takes (numpy integers too), but no bool
            if isinstance(value, bool) or not hasattr(value, "__index__") \
                    or value.__index__() < lowest:
                raise ValueError(
                    f"{name} must be an integer >= {lowest}, got {value!r}")
        if int(self.filter_length) * int(self.iterations) > MAX_TAP_ITERATIONS:
            raise ValueError(f"filter_length * iterations is past 2**25 = "
                             f"{MAX_TAP_ITERATIONS}, 1 GiB of inputs")
        # "not in range" rejects nan too: every comparison with nan is false
        if not 0.0 <= self.noise_power <= DIVERGENCE_LIMIT ** 2:
            raise ValueError(f"noise_power must be in [0, "
                             f"{DIVERGENCE_LIMIT ** 2:.0e}]")
        if not 0.0 <= self.step_size < math.inf:
            raise ValueError("step_size must be finite and nonnegative")
        if self.true_weights is None:
            import numpy as np
            rng = np.random.default_rng([self.rng_seed, 1])
            object.__setattr__(self, "true_weights", tuple(
                random_quaternion(rng) for _ in range(self.filter_length)))
        if len(self.true_weights) != self.filter_length:
            raise ValueError(
                f"true_weights has length {len(self.true_weights)}, "
                f"expected {self.filter_length}")
        # the run stops as divergent before the weights could get there
        norm_sq = left_sum(w.norm_sq() for w in self.true_weights)
        if not norm_sq <= DIVERGENCE_LIMIT ** 2:
            raise ValueError(f"true_weights norm must be at most "
                             f"{DIVERGENCE_LIMIT:.0e}, the divergence limit")


@dataclass
class ConvergenceRecord:
    """Per-iteration |e[n]|^2 and |w[n] - w_true|^2 plus the final weights.

    weight_error_sq[n] is taken before the n-th update, so entry 0 is the
    initial error; the post-run error comes from final_weights.  Lists are
    truncated at the point of divergence when the run is cut short, and
    final_weights are then the last finite weights.
    """

    squared_error: list[float] = field(default_factory=list)
    weight_error_sq: list[float] = field(default_factory=list)
    final_weights: tuple[Quaternion, ...] = ()
    diverged: bool = False


def _samples(xs, noise, true):
    """Yield each row of xs as lists and its d + noise as 4 floats: d =
    0 + sum wt x, one _hamilton on numpy arrays per tap column of a block,
    the noise added last: each element sees the spec API's float operations
    in their order.  Rows become lists one at a time, to hold few objects."""
    import numpy as np
    for start in range(0, len(xs), _BLOCK_ROWS):
        block = xs[start:start + _BLOCK_ROWS]
        da = db = dc = dd = 0.0
        for tap, t in enumerate(true):
            pa, pb, pc, pd = _hamilton(t, block[:, tap].T)
            da, db, dc, dd = da + pa, db + pb, dc + pc, dd + pd
        desired = np.stack((da, db, dc, dd), axis=1) \
            + noise[start:start + _BLOCK_ROWS]
        for x, s in zip(block, desired):
            yield x.tolist(), s.tolist()


def run_system_identification(cfg: ExperimentConfig) -> ConvergenceRecord:
    """Run the QLMS filter against a synthetic linear system.

    Inputs have independent standard-normal components on all four axes
    per tap; the desired signal is d[n] = w_true^T x[n] + noise with
    per-axis noise variance noise_power/4.  Weights start at zero.  A
    StabilityWarning is emitted when mu exceeds the heuristic guard
    1/(2 M E|x|^2), with E|x|^2 one dot product of the generated inputs
    over N M: no input-sized temporary.  Its last bits may differ from a
    per-tap mean's (1e-15 relative); only the warning reads it.  The
    run stops early (diverged=True) once the weight norm passes
    DIVERGENCE_LIMIT or is not finite; when the last update overflowed
    to inf or nan, final_weights holds the last finite weights.

    d + noise is formed per block of samples in numpy tap-column passes;
    the per-sample loop runs y = w^T x, e, the update and |w - w_true|^2 on
    float 4-tuples and adds up taps left to right in its own loops, never
    with sum(): the same operations per element, in the same order, so the
    record is bit-identical to a loop over the spec API (checked by test).
    """
    # numpy only here, where the signals are drawn: importing quatgrad
    # (and the eval-grad command) does not load it
    import numpy as np

    m = cfg.filter_length
    n_iter = cfg.iterations
    rng = np.random.default_rng(cfg.rng_seed)
    xs = rng.standard_normal((n_iter, m, 4))
    noise = rng.standard_normal((n_iter, 4)) * np.sqrt(cfg.noise_power / 4.0)

    mean_power = float(np.vdot(xs, xs)) / (n_iter * m)
    guard = 1.0 / (2.0 * m * mean_power)
    if cfg.step_size > guard:
        warnings.warn(
            f"step size {cfg.step_size:.4g} exceeds the stability guard "
            f"{guard:.4g} = 1/(2 M E|x|^2); the run may diverge",
            StabilityWarning, stacklevel=2)

    mu = cfg.step_size
    limit_sq = DIVERGENCE_LIMIT ** 2
    true = [(t.a, t.b, t.c, t.d) for t in cfg.true_weights]
    weights = [(0.0, 0.0, 0.0, 0.0)] * m
    # |w - wt|^2 before each update, summed tap by tap from 0.0; of the zero
    # weights, (0 - t)^2 is t * t exactly
    err_sq = 0.0
    for ta, tb, tc, td in true:
        err_sq = err_sq + (ta * ta + tb * tb + tc * tc + td * td)
    record = ConvergenceRecord()
    for x, (sa, sb, sc, sd) in _samples(xs, noise, true):
        # y = 0 + sum w x, products in the order w*x
        ya = yb = yc = yd = 0.0
        for (wa, wb, wc, wd), (xa, xb, xc, xd) in zip(weights, x):
            ya = ya + (wa * xa - wb * xb - wc * xc - wd * xd)
            yb = yb + (wa * xb + wb * xa + wc * xd - wd * xc)
            yc = yc + (wa * xc - wb * xd + wc * xa + wd * xb)
            yd = yd + (wa * xd + wb * xc - wc * xb + wd * xa)
        ea = sa - ya
        eb = sb - yb
        ec = sc - yc
        ed = sd - yd
        record.squared_error.append(ea * ea + eb * eb + ec * ec + ed * ed)
        record.weight_error_sq.append(err_sq)

        # w + (e x*) mu, the Hamilton product with x* = (xa, -xb, -xc, -xd)
        # written with its signs folded in (exact in IEEE arithmetic), and
        # |w|^2 and |w - wt|^2 (for the next sample) of the new weights
        new = []
        norm_sq = err_sq = 0.0
        for (wa, wb, wc, wd), (xa, xb, xc, xd), (ta, tb, tc, td) \
                in zip(weights, x, true):
            wa = wa + (ea * xa + eb * xb + ec * xc + ed * xd) * mu
            wb = wb + (eb * xa - ea * xb - ec * xd + ed * xc) * mu
            wc = wc + (eb * xd - ea * xc + ec * xa - ed * xb) * mu
            wd = wd + (-ea * xd - eb * xc + ec * xb + ed * xa) * mu
            new.append((wa, wb, wc, wd))
            norm_sq = norm_sq + (wa * wa + wb * wb + wc * wc + wd * wd)
            ga, gb, gc, gd = wa - ta, wb - tb, wc - tc, wd - td
            err_sq = err_sq + (ga * ga + gb * gb + gc * gc + gd * gd)
        # "not <=" counts nan and inf weights as diverged too
        if not norm_sq <= limit_sq:
            record.diverged = True
            if all(map(math.isfinite, (c for w in new for c in w))):
                weights = new
            break
        weights = new

    record.final_weights = tuple(Quaternion(*w) for w in weights)
    return record


def write_record_csv(record: ConvergenceRecord, path) -> None:
    """CSV columns: iteration, squared_error, weight_error_norm (the
    recorded squared norms), full round-trip precision.  Each row is one
    preformatted line, the bytes csv.writer gives: no float repr needs
    quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,squared_error,weight_error_norm\r\n")
        fh.writelines(f"{n},{se!r},{we!r}\r\n" for n, (se, we) in enumerate(
            zip(record.squared_error, record.weight_error_sq)))


def read_record_csv(path) -> tuple[list[float], list[float]]:
    """Parse a CSV written by write_record_csv back into the two series; a
    missing or foreign header, a row not of 3 fields, an iteration other
    than the row's number (0, 1, 2, ...) or a value that is not a number
    is a ValueError naming the file and line."""
    import csv
    name = os.path.basename(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["iteration", "squared_error", "weight_error_norm"]:
            raise ValueError(f"unexpected CSV header in {name}: {header}")
        squared_error, weight_error = [], []
        for n, row in enumerate(reader):
            if len(row) != 3 or row[0] != str(n):
                raise ValueError(f"{name} line {reader.line_num}: " + (
                    f"expected 3 fields, got {len(row)}: {row}"
                    if len(row) != 3 else
                    f"iteration {row[0]!r}, expected {n}"))
            try:
                squared_error.append(float(row[1]))
                weight_error.append(float(row[2]))
            except ValueError:
                raise ValueError(f"{name} line {reader.line_num}: not a "
                                 f"number in {row}") from None
    return squared_error, weight_error
