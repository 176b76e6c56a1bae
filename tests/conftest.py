import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quatgrad
from quatgrad import Quaternion
from quatgrad.cli import main
# the test modules import these from here; they are validate's own samplers
from quatgrad.validate import random_pure_unit as rand_pure_unit
from quatgrad.validate import random_quaternion as rand_quat
from quatgrad.validate import random_quaternion_in_shell as rand_quat_in_shell
from quatgrad.validate import tanh_safe

# README's qlms-run config: mu = 0.05 is past the stability guard 0.03115,
# yet the run converges
README_CONFIG = ("M=4\nmu=0.05\niterations=2000\nnoise_power=0.0\nseed=123\n"
                 "true_weights=1+0i+0j+0k;0+1i+0j+0k;0+0i+1j+0k;0+0i+0j+1k\n")

# child processes import quatgrad from the same tree as this test session,
# ahead of any PYTHONPATH already set
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    str(Path(quatgrad.__file__).resolve().parents[1]),
    os.environ.get("PYTHONPATH"))))}
# seconds a child may run: the longest, `validate --seed 7`, takes under one
CHILD_TIMEOUT = 60


def run_child(*args, flags=(), **kwargs) -> subprocess.CompletedProcess:
    """`python <flags> <args>` on this tree, its stdout and stderr as text."""
    return subprocess.run([sys.executable, *flags, *args], capture_output=True,
                          text=True, env=CHILD_ENV, timeout=CHILD_TIMEOUT,
                          **kwargs)


def run_main(argv) -> tuple[int, str, str]:
    """cli.main(argv) in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def rng():
    return np.random.default_rng(987_654_321)


def qdist(p: Quaternion, q: Quaternion) -> float:
    return abs(p - q)
