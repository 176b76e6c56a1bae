"""The record contract of the seven eval-grad-path classes.

Quaternion, PolarForm, RealGradient, HRGradient, QJet, PowerSeriesFn and
Elementary are frozen records: repr, == and hash see a fixed tuple of
fields, assignment and deletion raise dataclasses.FrozenInstanceError,
no instance has a __dict__, copy, deepcopy and pickle at every protocol
(where no field holds a lambda) rebuild an equal value, each constructor takes its fields by position and by keyword, and
dataclasses.fields, replace and is_dataclass work on them.  These tests
pin each of those, with the exact repr text, however the classes are
written.  Each record check lives here, not in the module's own tests.
"""

import cmath
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from quatgrad import (ONE, QI, QJ, ZERO, Elementary, HRGradient,
                      NonFiniteComponent, PolarForm, PowerSeriesFn, QJet,
                      Quaternion, RealGradient, Side, jet_seed, polar, tanh_q)

_Q = Quaternion(1.5, -0.0, 2.0, -3.25)
_Q_REPR = "Quaternion(a=1.5, b=-0.0, c=2.0, d=-3.25)"
_ZERO_REPR = "Quaternion(a=0.0, b=0.0, c=0.0, d=0.0)"
_ONE_REPR = "Quaternion(a=1.0, b=0.0, c=0.0, d=0.0)"
_QI_REPR = "Quaternion(a=0.0, b=1.0, c=0.0, d=0.0)"
_QJ_REPR = "Quaternion(a=0.0, b=0.0, c=1.0, d=0.0)"
_QK_REPR = "Quaternion(a=0.0, b=0.0, c=0.0, d=1.0)"
_GRAD = RealGradient(_Q, QI, ZERO, Quaternion(-0.0, 5e-324, -1e308, 0.5))
_GRAD_REPR = (f"RealGradient(dA={_Q_REPR}, dB={_QI_REPR}, dC={_ZERO_REPR}, "
              "dD=Quaternion(a=-0.0, b=5e-324, c=-1e+308, d=0.5))")
_HR = HRGradient(Quaternion(1.5, -0.0), QJ, Quaternion(-0.0, -0.0, -0.0, -0.0),
                 ONE, Side.RIGHT)

# (value, its repr, the fields that repr, == and hash see, every field in
# order, whether it pickles: a record holding a lambda does not)
RECORDS = [
    (_Q, _Q_REPR, "a b c d", "a b c d", True),
    (polar(Quaternion(-0.0, 3.0, 0.0, 4.0)),
     "PolarForm(real_part=-0.0, imag_norm=5.0, "
     "imag_axis=Quaternion(a=0.0, b=0.6, c=0.0, d=0.8), "
     "argument=1.5707963267948966)",
     "real_part imag_norm imag_axis argument",
     "real_part imag_norm imag_axis argument", True),
    (polar(Quaternion(-2.0)),
     "PolarForm(real_part=-2.0, imag_norm=0.0, imag_axis=None, "
     "argument=3.141592653589793)",
     "real_part imag_norm imag_axis argument",
     "real_part imag_norm imag_axis argument", True),
    (_GRAD, _GRAD_REPR, "dA dB dC dD", "dA dB dC dD", True),
    (_HR,
     "HRGradient(d1=Quaternion(a=1.5, b=-0.0, c=0.0, d=0.0), "
     f"dI={_QJ_REPR}, dJ=Quaternion(a=-0.0, b=-0.0, c=-0.0, d=-0.0), "
     f"dK={_ONE_REPR}, side=<Side.RIGHT: 'right'>)",
     "d1 dI dJ dK side", "d1 dI dJ dK side", True),
    (jet_seed(_Q),
     f"QJet(value={_Q_REPR}, grad=RealGradient(dA={_ONE_REPR}, "
     f"dB={_QI_REPR}, dC={_QJ_REPR}, dD={_QK_REPR}))",
     "value grad", "value grad", True),
    (QJet(ONE, _GRAD), f"QJet(value={_ONE_REPR}, grad={_GRAD_REPR})",
     "value grad", "value grad", True),
    (PowerSeriesFn(ONE, {0: ONE, 2: QI}, Side.RIGHT, (0.0, 2.0)),
     f"PowerSeriesFn(center={_ONE_REPR}, coeffs={{0: {_ONE_REPR}, "
     f"2: {_QI_REPR}}}, side=<Side.RIGHT: 'right'>, annulus=(0.0, 2.0))",
     "center coeffs side annulus", "center coeffs side annulus", True),
    (PowerSeriesFn(ZERO, {1: ONE}),
     f"PowerSeriesFn(center={_ZERO_REPR}, coeffs={{1: {_ONE_REPR}}}, "
     "side=<Side.LEFT: 'left'>, annulus=(0.0, inf))",
     "center coeffs side annulus", "center coeffs side annulus", True),
    (Elementary.tanh(),
     f"Elementary(kind='tanh', n=0, center={_ZERO_REPR})",
     "kind n center", "kind F dF check n center", True),
    (Elementary.exp(), f"Elementary(kind='exp', n=0, center={_ZERO_REPR})",
     "kind n center", "kind F dF check n center", False),
    (Elementary.power(-3, _Q),
     f"Elementary(kind='power', n=-3, center={_Q_REPR})",
     "kind n center", "kind F dF check n center", False),
]
IDS = [f"{type(r[0]).__name__}-{i}" for i, r in enumerate(RECORDS)]
# how many leading fields a constructor needs where the rest have defaults;
# every other record needs all of its fields
_REQUIRED = {Quaternion: 1, PowerSeriesFn: 2, Elementary: 4}


def _key(value, shown):
    return tuple(getattr(value, name) for name in shown.split())


def _same_hash(x, y):
    """hash(x) == hash(y), or both raise the same TypeError (a dict field)."""
    try:
        hx = hash(x)
    except TypeError as exc:
        with pytest.raises(TypeError, match=str(exc)):
            hash(y)
        return
    assert hx == hash(y)


@pytest.mark.parametrize("value, text, shown, names, pickles", RECORDS,
                         ids=IDS)
def test_repr_eq_and_hash_see_the_compared_fields(value, text, shown, names,
                                                  pickles):
    assert repr(value) == text
    key = _key(value, shown)
    _same_hash(value, key)
    for other in RECORDS:
        other = other[0]
        same_type = type(other) is type(value)
        assert (value == other) == (same_type and key == _key(other, shown))
        assert (value != other) == (not value == other)
    assert value.__eq__(key) is NotImplemented
    assert value != key and value != 1.0 and value is not None


@pytest.mark.parametrize("value, text, shown, names, pickles", RECORDS,
                         ids=IDS)
def test_every_attribute_is_frozen(value, text, shown, names, pickles):
    assert not hasattr(value, "__dict__")  # its class declares __slots__
    for name in names.split():
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot assign to field '{name}'"):
            setattr(value, name, ONE)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("value, text, shown, names, pickles", RECORDS,
                         ids=IDS)
def test_copy_deepcopy_and_pickle_give_an_equal_record(value, text, shown,
                                                       names, pickles):
    copies = [copy.copy(value), copy.deepcopy(value)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        if pickles:
            copies.append(pickle.loads(pickle.dumps(value, protocol)))
        else:
            with pytest.raises((pickle.PicklingError, AttributeError)):
                pickle.dumps(value, protocol)
    for copied in copies:
        assert type(copied) is type(value) and repr(copied) == text
        assert copied == value
        _same_hash(copied, value)
        for name in names.split():
            a, b = getattr(copied, name), getattr(value, name)
            assert a == b and type(a) is type(b)


@pytest.mark.parametrize("value, text, shown, names, pickles", RECORDS,
                         ids=IDS)
def test_dataclasses_fields_replace_and_is_dataclass(value, text, shown,
                                                     names, pickles):
    cls = type(value)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(value)
    fields = dataclasses.fields(value)
    assert fields == dataclasses.fields(cls)
    assert [f.name for f in fields] == names.split()
    assert [f.name for f in fields if f.compare] == shown.split()
    assert [f.name for f in fields if f.repr] == shown.split()
    same = dataclasses.replace(value)
    assert type(same) is cls and repr(same) == text and same == value
    _same_hash(same, value)
    first = names.split()[0]
    changed = dataclasses.replace(value, **{first: getattr(same, first)})
    assert changed == value
    with pytest.raises(TypeError):
        dataclasses.replace(value, not_a_field=ONE)
    assert dataclasses.astuple(value) == dataclasses.astuple(same)


def test_quaternion_keeps_every_bit_of_its_four_floats():
    # the table's row pins the field order a, b, c, d and the frozen fields;
    # each way a record is rebuilt keeps every float's bits, the sign of
    # each zero included, at every pickle protocol; == and hash are those of
    # the tuple of the four floats, where -0.0 == 0.0
    negative_zero = Quaternion(-0.0, -0.0, -0.0, -0.0)
    for q in (_Q, negative_zero):
        floats = (q.a, q.b, q.c, q.d)
        assert dataclasses.astuple(q) == floats
        assert hash(q) == hash(floats)
        copies = [copy.copy(q), copy.deepcopy(q), dataclasses.replace(q),
                  *(pickle.loads(pickle.dumps(q, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]
        for copied in copies:
            assert [x.hex() for x in dataclasses.astuple(copied)] == \
                [x.hex() for x in floats]
    assert negative_zero == ZERO and hash(negative_zero) == hash(ZERO)


def test_replace_changes_one_field_and_keeps_the_rest():
    q = dataclasses.replace(_Q, b=2)
    assert repr(q) == "Quaternion(a=1.5, b=2.0, c=2.0, d=-3.25)"
    q = dataclasses.replace(_Q, c=np.float64(7.0))  # a numpy scalar: float()
    assert q == Quaternion(1.5, -0.0, 7.0, -3.25) and type(q.c) is float
    with pytest.raises(NonFiniteComponent):
        dataclasses.replace(_Q, d=math.inf)
    g = dataclasses.replace(_GRAD, dC=ONE)
    assert g.as_tuple() == (_GRAD.dA, _GRAD.dB, ONE, _GRAD.dD)
    h = dataclasses.replace(_HR, dJ=ONE)
    assert (*h.as_tuple(), h.side) == (_HR.d1, _HR.dI, ONE, _HR.dK, _HR.side)
    p = dataclasses.replace(polar(QI), imag_axis=QJ)
    assert p == PolarForm(0.0, 1.0, QJ, math.pi / 2)
    j = dataclasses.replace(jet_seed(_Q), value=ONE)
    assert j == QJet(ONE, jet_seed(ZERO).grad)
    s = dataclasses.replace(PowerSeriesFn(ZERO, {1: ONE}), side=Side.RIGHT)
    assert s.side is Side.RIGHT and s.coeffs == {1: ONE}
    e = dataclasses.replace(Elementary.power(2), center=ONE)
    assert e == Elementary.power(2, ONE)


def test_constructors_take_positional_and_keyword_fields():
    # every record rebuilds from its fields by position and by keyword; one
    # field too many, or one fewer than it needs, is a TypeError
    for value, text, shown, names, pickles in RECORDS:
        cls, args = type(value), _key(value, names)
        assert repr(cls(*args)) == text
        assert repr(cls(**dict(zip(names.split(), args)))) == text
        required = _REQUIRED.get(cls, len(args))
        cls(*args[:required])
        for bad in (args[:required - 1], args + (ONE,)):
            with pytest.raises(TypeError):
                cls(*bad)
    assert PolarForm(1.0, 0.0, None, 0.0) == PolarForm(
        real_part=1.0, imag_norm=0.0, imag_axis=None, argument=0.0)
    assert QJet(_Q, _GRAD) == QJet(grad=_GRAD, value=_Q)
    assert PowerSeriesFn(ZERO, {1: ONE}) == PowerSeriesFn(
        center=ZERO, coeffs={1: ONE}, side=Side.LEFT, annulus=(0.0, math.inf))


def test_elementary_ignores_f_df_and_check():
    like_exp = Elementary("exp", cmath.sin, cmath.cos, print)
    assert like_exp == Elementary.exp() and hash(like_exp) == hash(
        Elementary.exp())
    assert repr(like_exp) == repr(Elementary.exp())
    assert like_exp.F is cmath.sin and like_exp.dF is cmath.cos
    assert Elementary.power(2) == Elementary.power(2)
    assert Elementary.power(2) != Elementary.power(2, ONE)
    assert Elementary.power(2) != Elementary.power(3)
    assert Elementary.exp() != Elementary.ln()


def test_pickled_elementary_computes_the_same_values():
    q = Quaternion(0.3, 0.4, -0.2, 0.5)
    for protocol in (0, pickle.DEFAULT_PROTOCOL):
        tanh = pickle.loads(pickle.dumps(Elementary.tanh(), protocol))
        assert repr(tanh.value(q)) == repr(tanh_q(q))
        assert tanh.real_gradient(q) == Elementary.tanh().real_gradient(q)


@pytest.mark.parametrize("coeffs, annulus", [
    ({}, (0.0, math.inf)),
    ({1: ONE}, (2.0, 1.0)),
    ({1: ONE}, (-1.0, 1.0)),
    ({1: ONE}, (math.nan, 1.0)),
    ({1: ONE}, (-0.1, 1.0)),
])
def test_power_series_rejects_no_coefficients_and_a_bad_annulus(coeffs,
                                                                annulus):
    message = "invalid annulus" if coeffs else "at least one coefficient"
    with pytest.raises(ValueError, match=message):
        PowerSeriesFn(ZERO, coeffs, annulus=annulus)
    if coeffs:
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(PowerSeriesFn(ZERO, coeffs), annulus=annulus)
