import numpy as np
import pytest

from quatgrad import Quaternion
# the test modules import these from here; they are validate's own samplers
from quatgrad.validate import random_pure_unit as rand_pure_unit
from quatgrad.validate import random_quaternion as rand_quat
from quatgrad.validate import random_quaternion_in_shell as rand_quat_in_shell
from quatgrad.validate import tanh_safe


@pytest.fixture
def rng():
    return np.random.default_rng(987_654_321)


def qdist(p: Quaternion, q: Quaternion) -> float:
    return abs(p - q)
