import builtins
import csv
import io
import math
import re
import warnings

import numpy as np
import pytest

from conftest import README_CONFIG, qdist, rand_quat, run_qlms
from quatgrad import (ConvergenceRecord, DIVERGENCE_LIMIT, ExperimentConfig,
                      FilterState,
                      LengthMismatch, ONE, QI, QJ, QK, Quaternion,
                      SamplePair, StabilityWarning, ZERO, cost_gradient,
                      error_signal, jet_const, jet_seed, left_from_real,
                      predict, read_record_csv, real_valued_reduce,
                      run_system_identification, update_step,
                      write_record_csv)
from quatgrad.qlms import _BLOCK_ROWS, MAX_TAP_ITERATIONS


def _state(weights, mu=0.1):
    return FilterState(tuple(weights), mu)


# -- prediction and error ------------------------------------------------------

def test_predict_examples():
    assert predict(_state([ONE]), (QI,)) == QI
    # order matters: w x, not x w
    assert predict(_state([QI]), (QJ,)) == QK
    assert predict(_state([ONE, QK]), (QJ, QJ)) == QJ - QI


def test_predict_length_mismatch():
    with pytest.raises(LengthMismatch):
        predict(_state([ONE, QI]), (ONE,))


def test_error_signal_basics(rng):
    x = tuple(rand_quat(rng) for _ in range(3))
    w = tuple(rand_quat(rng) for _ in range(3))
    state = _state(w)
    d = predict(state, x)
    assert qdist(error_signal(state, SamplePair(x, d)), ZERO) == 0.0
    zero_state = _state([ZERO, ZERO, ZERO])
    assert error_signal(zero_state, SamplePair(x, d)) == d


def test_error_conjugate_identity(rng):
    # e* = d* - x^H w* = d* - sum x_m* w_m*
    for _ in range(50):
        x = tuple(rand_quat(rng) for _ in range(4))
        w = tuple(rand_quat(rng) for _ in range(4))
        d = rand_quat(rng)
        e = error_signal(_state(w), SamplePair(x, d))
        rhs = d.conjugate()
        for xm, wm in zip(x, w):
            rhs = rhs - xm.conjugate() * wm.conjugate()
        assert qdist(e.conjugate(), rhs) <= 1e-13


# -- cost gradient -------------------------------------------------------------

def test_cost_gradient_at_optimum(rng):
    x = tuple(rand_quat(rng) for _ in range(3))
    w = tuple(rand_quat(rng) for _ in range(3))
    state = _state(w)
    d = predict(state, x)
    grad = cost_gradient(state, SamplePair(x, d))
    assert all(qdist(g, ZERO) <= 1e-13 for g in grad)


def test_cost_gradient_single_tap_value():
    # M=1, x=1, d=1, w=0: e=1, gradient -1/2
    state = _state([ZERO])
    grad = cost_gradient(state, SamplePair((ONE,), ONE))
    assert grad == (Quaternion(-0.5),)


def test_cost_gradient_matches_jet_oracle(rng):
    for _ in range(100):
        m = 3
        w = tuple(rand_quat(rng) for _ in range(m))
        x = tuple(rand_quat(rng) for _ in range(m))
        d = rand_quat(rng)
        state = _state(w)
        sample = SamplePair(x, d)
        grad = cost_gradient(state, sample)
        for tap in range(m):
            # J = e e* as a jet in tap w_tap alone
            e_jet = jet_const(d)
            for l in range(m):
                if l == tap:
                    e_jet = e_jet - jet_seed(w[l]) * jet_const(x[l])
                else:
                    e_jet = e_jet - jet_const(w[l] * x[l])
            cost_jet = e_jet * e_jet.conjugate()
            assert abs(cost_jet.value.imag_norm()) <= 1e-13
            d1 = real_valued_reduce(left_from_real(cost_jet.grad))
            assert qdist(grad[tap], d1) <= 1e-10


def test_cost_is_real(rng):
    for _ in range(200):
        w = tuple(rand_quat(rng) for _ in range(2))
        x = tuple(rand_quat(rng) for _ in range(2))
        d = rand_quat(rng)
        e = error_signal(_state(w), SamplePair(x, d))
        cost = e * e.conjugate()
        assert cost.imag_norm() <= 1e-13 * max(1.0, cost.a)


# -- update step ---------------------------------------------------------------

def test_update_no_error_keeps_weights(rng):
    x = tuple(rand_quat(rng) for _ in range(3))
    w = tuple(rand_quat(rng) for _ in range(3))
    state = _state(w)
    d = predict(state, x)
    new = update_step(state, SamplePair(x, d))
    assert all(qdist(a, b) == 0.0 for a, b in zip(new.weights, w))
    assert new.iteration == state.iteration + 1


def test_update_single_tap_value():
    state = _state([ZERO], mu=0.5)
    new = update_step(state, SamplePair((ONE,), ONE))
    assert new.weights == (Quaternion(0.5),)


def test_update_product_order():
    # e = i, x = j: the step is mu * i * (-j) = -mu k, not x* e = +mu k
    state = _state([ZERO], mu=0.25)
    new = update_step(state, SamplePair((QJ,), QI))
    assert new.weights == (QK * -0.25,)


def test_update_is_conjugate_gradient_step(rng):
    # w' - w == -(2 mu) * (cost gradient)*
    w = tuple(rand_quat(rng) for _ in range(3))
    x = tuple(rand_quat(rng) for _ in range(3))
    d = rand_quat(rng)
    mu = 0.07
    state = _state(w, mu=mu)
    sample = SamplePair(x, d)
    new = update_step(state, sample)
    grad = cost_gradient(state, sample)
    for wm, wm_new, gm in zip(w, new.weights, grad):
        assert qdist(wm_new - wm, gm.conjugate() * (-2.0 * mu)) <= 1e-13


def test_one_step_never_increases_weight_error(rng):
    # noiseless, mu below the stability threshold
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        w_true = tuple(rand_quat(rng) for _ in range(m))
        w = tuple(rand_quat(rng) for _ in range(m))
        x = tuple(rand_quat(rng) for _ in range(m))
        mu = 1.0 / (16.0 * m)
        state = _state(w, mu=mu)
        d = ZERO
        for wt, xm in zip(w_true, x):
            d = d + wt * xm
        new = update_step(state, SamplePair(x, d))
        before = sum((a - b).norm_sq() for a, b in zip(w, w_true))
        after = sum((a - b).norm_sq() for a, b in zip(new.weights, w_true))
        assert after <= before + 1e-12


def test_backtracking_descent(rng):
    # at least one of mu, mu/2, mu/4 decreases the instantaneous cost
    for _ in range(200):
        m = 3
        w = tuple(rand_quat(rng) for _ in range(m))
        x = tuple(rand_quat(rng) for _ in range(m))
        d = rand_quat(rng)
        sample = SamplePair(x, d)
        base_cost = error_signal(_state(w), sample).norm_sq()
        if base_cost < 1e-20:
            continue
        decreased = False
        for mu in (0.05, 0.025, 0.0125):
            new = update_step(_state(w, mu=mu), sample)
            if error_signal(new, sample).norm_sq() < base_cost:
                decreased = True
                break
        assert decreased


# -- harness -------------------------------------------------------------------

def _config(**kw):
    defaults = dict(
        filter_length=4,
        true_weights=(ONE, QI, QJ, QK),
        noise_power=0.0,
        step_size=0.05,
        iterations=2000,
        rng_seed=42,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_filter_state_rejects_no_taps_and_negative_step():
    with pytest.raises(ValueError, match="at least one tap"):
        FilterState((), 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        FilterState((ZERO,), -0.1)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_filter_state_rejects_nan_and_infinite_step(mu):
    # as ExperimentConfig does; accepted, such a step fails only later,
    # inside update_step
    with pytest.raises(ValueError, match="nonnegative"):
        FilterState((ZERO,), mu)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(filter_length=0)
    with pytest.raises(ValueError):
        _config(iterations=0)
    with pytest.raises(ValueError):
        _config(noise_power=-1.0)
    with pytest.raises(ValueError):
        _config(true_weights=(ONE,))


@pytest.mark.parametrize("field", ["noise_power", "step_size"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        _config(**{field: value})


@pytest.mark.parametrize("field", ["filter_length", "iterations"])
@pytest.mark.parametrize("value", [2.0, np.float64(2.0), True, "2"])
@pytest.mark.parametrize("weights", [(ONE, QI), None])
def test_config_rejects_non_integer_counts_before_any_draw(
        monkeypatch, field, value, weights):
    # 2.0 passed every check and failed in the run (or, without weights, in
    # the draw) with a TypeError
    def no_draw(*args, **kwargs):
        raise AssertionError("something was drawn")

    monkeypatch.setattr("numpy.random.default_rng", no_draw)
    kwargs = dict(filter_length=2, true_weights=weights, iterations=3)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        _config(**kwargs)


def test_config_accepts_numpy_integer_counts():
    cfg = _config(filter_length=np.int64(2), true_weights=None,
                  iterations=np.int32(3), step_size=0.01)
    assert len(cfg.true_weights) == 2
    assert len(run_system_identification(cfg).squared_error) == 3


@pytest.mark.parametrize("seed", [-1, -2 ** 70, 1.5, 2.0, "3", None])
def test_config_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="rng_seed"):
        _config(rng_seed=seed)


def test_config_accepts_huge_seed():
    record = run_system_identification(
        _config(rng_seed=2 ** 200, step_size=0.01, iterations=3))
    assert len(record.squared_error) == 3


@pytest.mark.parametrize("seed", [True, False, np.True_],
                         ids=["True", "False", "np.True_"])
def test_config_rejects_bool_seed_before_any_draw(monkeypatch, seed):
    # True passed and ran as seed 1, as filter_length=True never did
    def no_draw(*args, **kwargs):
        raise AssertionError("something was drawn")

    monkeypatch.setattr("numpy.random.default_rng", no_draw)
    with pytest.raises(ValueError, match="^rng_seed must be an integer >= 0"):
        _config(true_weights=None, rng_seed=seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.int32(7), np.uint64(7)])
def test_config_accepts_numpy_integer_seed(seed):
    # default_rng takes them, and so do filter_length and iterations
    def run(seed):
        cfg = _config(filter_length=3, true_weights=None, noise_power=0.01,
                      step_size=0.01, iterations=500, rng_seed=seed)
        return cfg.true_weights, run_system_identification(cfg)

    weights, record = run(seed)
    weights_7, record_7 = run(7)
    assert weights == weights_7
    assert record == record_7


def test_config_integer_settings_boundaries():
    lowest = dict(filter_length=1, true_weights=(ONE,), iterations=1,
                  rng_seed=0)
    assert len(run_system_identification(_config(**lowest)).squared_error) == 1
    for name, value, bound in (("filter_length", 0, 1), ("iterations", 0, 1),
                               ("rng_seed", -1, 0)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer "
                                             f">= {bound}, got {value}$"):
            _config(**{**lowest, name: value})


def test_config_bounds_noise_power_by_squared_divergence_limit():
    _config(noise_power=DIVERGENCE_LIMIT ** 2)
    for power in (2 * DIVERGENCE_LIMIT ** 2, 1e308):
        with pytest.raises(ValueError, match="noise_power"):
            _config(noise_power=power)


def test_config_bounds_tap_iterations():
    # construction only: nothing is drawn
    _config(filter_length=32, true_weights=(ONE,) * 32, iterations=400_000)
    _config(filter_length=1, true_weights=(ONE,),
            iterations=MAX_TAP_ITERATIONS)
    for m, n in ((32, 10_000_000), (1, MAX_TAP_ITERATIONS + 1)):
        with pytest.raises(ValueError, match="filter_length \\* iterations"):
            _config(filter_length=m, true_weights=(ONE,) * m, iterations=n)


def test_config_bounds_tap_iterations_of_numpy_counts():
    # two np.int32 counts multiplied in int32: 2**16 * 2**16 wrapped to 0
    # and passed the bound
    with pytest.raises(ValueError, match="filter_length \\* iterations"):
        _config(filter_length=np.int32(2 ** 16),
                true_weights=(ONE,) * 2 ** 16, iterations=np.int32(2 ** 16))


def test_drawn_weights_checked_before_the_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("something was drawn")

    monkeypatch.setattr("numpy.random.default_rng", no_draw)
    for bad in (dict(rng_seed=-1), dict(filter_length=10 ** 8),
                dict(noise_power=1e308), dict(step_size=math.nan)):
        with pytest.raises(ValueError):
            _config(true_weights=None, **bad)


def test_drawn_weights_are_seeded_standard_normal():
    cfg = _config(filter_length=3, true_weights=None, rng_seed=5)
    draws = np.random.default_rng([5, 1]).standard_normal((3, 4))
    assert cfg.true_weights == tuple(Quaternion(*row) for row in draws)


def test_config_rejects_true_weights_past_divergence_limit():
    # mu = 0 would run, printing an infinite final weight error; any
    # mu > 0 would stop as divergent before reaching the weights
    _config(filter_length=1, true_weights=(Quaternion(DIVERGENCE_LIMIT),))
    for w in (Quaternion(0, 0, 2 * DIVERGENCE_LIMIT), Quaternion(1e200, 1e200)):
        with pytest.raises(ValueError, match="true_weights"):
            _config(filter_length=1, true_weights=(w,))


def test_noiseless_identification_converges():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        record = run_system_identification(_config())
    assert not record.diverged
    assert len(record.squared_error) == 2000
    initial = record.weight_error_sq[0]
    final = sum((w - wt).norm_sq()
                for w, wt in zip(record.final_weights, (ONE, QI, QJ, QK)))
    assert (final / initial) ** 0.5 <= 1e-6


def test_zero_step_size_freezes_weights():
    with pytest.raises(ValueError):
        _config(step_size=-0.1)
    state = _state([QI, QJ], mu=0.0)
    sample = SamplePair((ONE, QK), Quaternion(2, 1, 0, -1))
    assert update_step(state, sample).weights == state.weights
    record = run_system_identification(_config(step_size=0.0, iterations=5))
    assert all(w == ZERO for w in record.final_weights)
    assert record.weight_error_sq[0] == record.weight_error_sq[-1]


def test_same_seed_bit_identical():
    cfg = _config(iterations=300, noise_power=0.3, step_size=0.01)
    r1 = run_system_identification(cfg)
    r2 = run_system_identification(cfg)
    assert r1.squared_error == r2.squared_error
    assert r1.weight_error_sq == r2.weight_error_sq
    assert r1.final_weights == r2.final_weights


def test_different_seed_differs():
    cfg1 = _config(iterations=50, step_size=0.01)
    cfg2 = _config(iterations=50, step_size=0.01, rng_seed=43)
    assert run_system_identification(cfg1).squared_error != \
        run_system_identification(cfg2).squared_error


def test_divergence_flag_and_truncation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        record = run_system_identification(_config(step_size=5.0, iterations=500))
    assert record.diverged
    assert len(record.squared_error) < 500
    assert len(record.squared_error) == len(record.weight_error_sq)


def _spec_run(cfg):
    """run_system_identification as a loop over the spec API: the same
    draws, then error_signal and update_step on FilterState each step."""
    m = cfg.filter_length
    rng = np.random.default_rng(cfg.rng_seed)
    xs = rng.standard_normal((cfg.iterations, m, 4))
    noise = rng.standard_normal((cfg.iterations, 4)) \
        * np.sqrt(cfg.noise_power / 4.0)
    state = FilterState((ZERO,) * m, cfg.step_size)
    record = ConvergenceRecord()
    for n in range(cfg.iterations):
        x = tuple(Quaternion(*(float(v) for v in xs[n, tap]))
                  for tap in range(m))
        d = ZERO
        for wt, xm in zip(cfg.true_weights, x):
            d = d + wt * xm
        sample = SamplePair(x, d + Quaternion(*(float(v) for v in noise[n])))
        record.squared_error.append(error_signal(state, sample).norm_sq())
        err_sq = 0.0
        for w, wt in zip(state.weights, cfg.true_weights):
            err_sq = err_sq + (w - wt).norm_sq()
        record.weight_error_sq.append(err_sq)
        state = update_step(state, sample)
        norm_sq = 0.0
        for w in state.weights:
            norm_sq = norm_sq + w.norm_sq()
        if norm_sq > DIVERGENCE_LIMIT ** 2:
            record.diverged = True
            break
    record.final_weights = state.weights
    return record


@pytest.mark.parametrize("m", [1, 4, 32])
@pytest.mark.parametrize("iterations, mu, diverges", [
    (1, 0.01, False),
    (100, 0.0, False),
    (300, "below guard", False),
    (300, 5.0, True),
    (20, 1e200, True),  # finite weights whose squared norm overflows
])
def test_harness_bit_identical_to_spec_api(m, iterations, mu, diverges):
    rng = np.random.default_rng([m, iterations])
    step = 0.5 / (8.0 * m) if mu == "below guard" else mu
    cfg = ExperimentConfig(
        filter_length=m,
        true_weights=tuple(Quaternion(*rng.standard_normal(4).tolist())
                           for _ in range(m)),
        noise_power=0.1, step_size=step, iterations=iterations,
        rng_seed=int(rng.integers(2 ** 32)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        fast, spec = run_system_identification(cfg), _spec_run(cfg)
    assert fast.diverged == spec.diverged == diverges
    assert fast.squared_error == spec.squared_error
    assert fast.weight_error_sq == spec.weight_error_sq
    assert fast.final_weights == spec.final_weights


def _block_pass_and_spec_run(cfg):
    """Both runs with every warning but StabilityWarning an error, so that
    a numpy RuntimeWarning from the d + noise column pass fails the test;
    the records must be equal."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", StabilityWarning)
        fast, spec = run_system_identification(cfg), _spec_run(cfg)
    assert fast.diverged == spec.diverged
    assert fast.squared_error == spec.squared_error
    assert fast.weight_error_sq == spec.weight_error_sq
    assert fast.final_weights == spec.final_weights
    return fast


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("iterations", [1023, 1024, 1025, 2049])
def test_block_pass_bit_identical_across_block_edges(m, iterations):
    # one sample short of, exactly at, and one past the block edges
    assert _BLOCK_ROWS == 1024
    record = _block_pass_and_spec_run(ExperimentConfig(
        filter_length=m, true_weights=None, noise_power=0.01,
        step_size=0.5 / (8.0 * m), iterations=iterations, rng_seed=m))
    assert not record.diverged
    assert len(record.squared_error) == iterations


@pytest.mark.parametrize("m, mu, seed", [(1, 0.62, 3), (3, 0.49 / 3, 5)])
def test_block_pass_divergence_inside_the_second_block(m, mu, seed):
    record = _block_pass_and_spec_run(ExperimentConfig(
        filter_length=m, true_weights=None, noise_power=0.01,
        step_size=mu, iterations=3000, rng_seed=seed))
    assert record.diverged
    assert _BLOCK_ROWS < len(record.squared_error) <= 2 * _BLOCK_ROWS


@pytest.mark.parametrize("scale", [1e-300, 1e11])
def test_block_pass_noiseless_at_extreme_weight_scales(scale):
    # signals near 1e-300, whose squares underflow to zero, and near 1e12
    rng = np.random.default_rng(17)
    weights = tuple(Quaternion(*(scale * rng.standard_normal(4)).tolist())
                    for _ in range(3))
    record = _block_pass_and_spec_run(ExperimentConfig(
        filter_length=3, true_weights=weights, noise_power=0.0,
        step_size=0.5 / 24.0, iterations=1100, rng_seed=4))
    assert not record.diverged
    assert len(record.squared_error) == 1100


_BUILTIN_SUM = sum


def _neumaier_sum(iterable, /, start=0):
    """sum() of exact floats as CPython 3.12's builtin_sum_impl adds them:
    0 + x1, then a Neumaier compensation c, added at the end when it is
    finite and nonzero.  Any other start or item goes to the real sum."""
    items = list(iterable)
    if not (type(start) is int and start == 0 and items
            and all(type(x) is float for x in items)):
        return _BUILTIN_SUM(items, start)
    total, c = 0 + items[0], 0.0
    for x in items[1:]:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.mark.parametrize("m, weights, noise_power, mu, iterations, seed", [
    (4, (ONE, QI, QJ, QK), 0.0, 0.05, 2000, 123),  # the README config
    (32, None, 0.01, 0.01 / 32, 400, 6),
    (4, None, 0.01, 5.0, 500, 3),                  # diverges
], ids=["readme", "m32", "diverges"])
def test_records_do_not_depend_on_how_sum_adds_floats(
        monkeypatch, m, weights, noise_power, mu, iterations, seed):
    # Python 3.12 and later sum floats with compensation; the harness sums
    # in its own loops, so its records are the same on every Python
    cfg = ExperimentConfig(filter_length=m, true_weights=weights,
                           noise_power=noise_power, step_size=mu,
                           iterations=iterations, rng_seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        native = run_system_identification(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", _neumaier_sum)
            assert sum([0.1] * 10) == 1.0  # a left fold: 0.9999999999999999
            emulated = run_system_identification(cfg)
    assert emulated.squared_error == native.squared_error
    assert emulated.weight_error_sq == native.weight_error_sq
    assert emulated.final_weights == native.final_weights
    assert emulated.diverged == native.diverged == (mu == 5.0)


def test_config_bound_does_not_depend_on_how_sum_adds_floats(monkeypatch):
    # 1e24 + 7330**2 rounds back to 1e24, twice, in a left fold; the
    # compensated sum of Python 3.12 and later added the two terms back
    # and rejected these weights
    weights = (Quaternion(DIVERGENCE_LIMIT), Quaternion(7330.0),
               Quaternion(7330.0))
    native = _config(filter_length=3, true_weights=weights)
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "sum", _neumaier_sum)
        assert sum([0.1] * 10) == 1.0  # a left fold: 0.9999999999999999
        emulated = _config(filter_length=3, true_weights=weights)
    assert emulated == native


def test_final_norm_line_does_not_depend_on_how_sum_adds_floats(
        tmp_path, monkeypatch):
    # qlms-run on the README config; sum() printed ...614e-16 under the
    # emulation
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        for emulate in (False, True):
            with monkeypatch.context() as patch:
                if emulate:
                    patch.setattr(builtins, "sum", _neumaier_sum)
                code, out, _, _ = run_qlms(tmp_path, README_CONFIG)
            assert code == 0
            lines.append(out.splitlines()[-1])
    assert lines == ["final weight error norm: 1.7519707852371616e-16"] * 2


def test_overflowing_update_is_divergence():
    # mu * e x* is inf in the first update; the spec API raises there
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        record = run_system_identification(
            _config(step_size=1e308, iterations=50, noise_power=0.01,
                    rng_seed=3))
    assert record.diverged
    assert len(record.squared_error) == len(record.weight_error_sq) == 1
    assert all(map(math.isfinite, record.squared_error))
    # the last finite weights: the initial ones
    assert record.final_weights == (ZERO,) * 4


def test_stability_warning_fires():
    with pytest.warns(StabilityWarning):
        run_system_identification(_config(iterations=20))


def test_no_warning_below_guard():
    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilityWarning)
        run_system_identification(_config(step_size=0.01, iterations=20))


def test_guard_within_1e_15_of_the_per_tap_mean():
    # the guard's E|x|^2 is one dot product; the mean of per-tap |x|^2 sums
    # in another order.  The warning fires just above the per-tap guard and
    # not just below it, so the two agree to 1e-15 relative.
    draws = np.random.default_rng(11)
    for _ in range(100):
        m, n = int(draws.integers(1, 17)), int(draws.integers(1, 201))
        seed = int(draws.integers(2 ** 32))
        xs = np.random.default_rng(seed).standard_normal((n, m, 4))
        per_tap = 1.0 / (2.0 * m * float(np.mean(np.sum(xs * xs, axis=2))))
        for mu, fires in ((per_tap * (1 + 1e-15), True),
                          (per_tap * (1 - 1e-15), False)):
            cfg = ExperimentConfig(filter_length=m, true_weights=None,
                                   noise_power=0.0, step_size=mu,
                                   iterations=n, rng_seed=seed)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_system_identification(cfg)
            assert any(w.category is StabilityWarning
                       for w in caught) == fires, (m, n, seed, mu)


def test_noise_floor_visible():
    noisy = run_system_identification(
        _config(step_size=0.01, noise_power=0.1, iterations=3000))
    tail = noisy.squared_error[-500:]
    # steady-state squared error hovers at the injected noise power
    assert 0.01 < float(np.median(tail)) < 1.0


# -- csv round trip ------------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    record = ConvergenceRecord(
        squared_error=[1.5, 0.25, 1e-300, 123.456789012345678],
        weight_error_sq=[2.0, 1.0, 0.5, 0.125],
        final_weights=(ONE,),
    )
    path = tmp_path / "record.csv"
    write_record_csv(record, path)
    text = path.read_text(encoding="utf-8").splitlines()
    assert text[0] == "iteration,squared_error,weight_error_norm"
    se, we = read_record_csv(path)
    assert se == record.squared_error
    assert we == record.weight_error_sq


@pytest.mark.parametrize("squared_error, weight_error_sq", [
    ([-0.0, 1e-310, 1e308, 5e-324, 0.1, 1.0, math.inf],
     [0.0, 2.2250738585072014e-308, 1.7976931348623157e308, 5e-324,
      123.456789012345678, 1e-5, math.nan]),
    ([], []),  # header only
])
def test_csv_bytes_match_csv_writer(tmp_path, squared_error,
                                    weight_error_sq):
    # write_record_csv formats each line itself; the bytes are the ones
    # csv.writer gives for the same rows
    record = ConvergenceRecord(squared_error=squared_error,
                               weight_error_sq=weight_error_sq)
    path = tmp_path / "record.csv"
    write_record_csv(record, path)
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(["iteration", "squared_error", "weight_error_norm"])
    for n, (se, we) in enumerate(zip(squared_error, weight_error_sq)):
        writer.writerow([n, repr(se), repr(we)])
    assert path.read_bytes() == reference.getvalue().encode()
    assert path.read_bytes().count(b"\r\n") == len(squared_error) + 1


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_record_csv(path)


_HEADER = "iteration,squared_error,weight_error_norm\r\n"


@pytest.mark.parametrize("text, message", [
    ("", "unexpected CSV header in bad.csv: None"),
    (_HEADER + "0,1.0,2.0\r\n\r\n1,1.0,2.0\r\n",
     "bad.csv line 3: expected 3 fields, got 0"),
    (_HEADER + "0,1.0\r\n", "bad.csv line 2: expected 3 fields, got 2"),
    (_HEADER + "0,1.0,2.0,3.0\r\n",
     "bad.csv line 2: expected 3 fields, got 4"),
], ids=["empty", "blank line", "two fields", "four fields"])
def test_csv_rejects_malformed_files(tmp_path, text, message):
    # a ValueError naming the file and line, not StopIteration or IndexError
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=f"^{message}"):
        read_record_csv(path)


@pytest.mark.parametrize("text, message", [
    (_HEADER + "foo,1.0,2.0\r\n7,3.0,4.0\r\n",
     "bad.csv line 2: iteration 'foo', expected 0"),
    (_HEADER + "0,1.0,2.0\r\n7,3.0,4.0\r\n",
     "bad.csv line 3: iteration '7', expected 1"),
    (_HEADER + "1,1.0,2.0\r\n", "bad.csv line 2: iteration '1', expected 0"),
    (_HEADER + "0,1.0,2.0\r\n1,abc,4.0\r\n",
     "bad.csv line 3: not a number in ['1', 'abc', '4.0']"),
    (_HEADER + "0,1.0,\r\n", "bad.csv line 2: not a number in ['0', '1.0', '']"),
], ids=["text iteration", "skips a number", "starts at 1", "bad value",
        "empty value"])
def test_csv_rejects_misnumbered_rows_and_bad_values(tmp_path, text,
                                                      message):
    # rows are numbered 0, 1, 2, ... and a bad value names the file and line
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_record_csv(path)
