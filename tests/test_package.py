import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import quatgrad


def test_all_exports_no_module():
    assert quatgrad.__all__
    modules = [name for name in quatgrad.__all__
               if isinstance(getattr(quatgrad, name), ModuleType)]
    assert modules == []


def test_all_names_are_unique_and_public():
    assert len(set(quatgrad.__all__)) == len(quatgrad.__all__)
    assert not any(name.startswith("_") for name in quatgrad.__all__)


def test_no_module_imports_typing_or_pathlib():
    # annotations come from collections.abc, paths go through os.path:
    # neither module is imported by a process that uses the package
    found = []
    for path in sorted(Path(quatgrad.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("typing", "pathlib")]
    assert found == []


# -- the public surface in a fresh process ------------------------------------
# fd and qlms are imported on first use, so these checks need a process in
# which nothing has touched them yet

# quatgrad.__all__ as it stood when every submodule was imported eagerly
_PUBLIC = """
DomainError InconsistentQuadruple LengthMismatch NonFiniteComponent
NotRealValued OutsideAnnulus PoleError QuatGradError SideMismatch
FDConfig convergence_order default_step gradient_error hr_gradient_fd
real_partials_fd rel_error
HRGradient IDENTITY_GRADIENT JACOBIAN QJet RealGradient Side
chain_matrix_components chain_matrix_involutions chain_rule_first
chain_rule_second chain_rule_third differential hr_from_real jet_const
jet_exp jet_pow jet_seed jet_tanh left_from_real product_rule_first
product_rule_first_right qmat_conj_transpose qmat_from_real qmat_mul
qmat_scale real_from_left real_from_right real_jacobian real_valued_reduce
right_from_real
ConvergenceRecord DIVERGENCE_LIMIT ExperimentConfig FilterState SamplePair
StabilityWarning cost_gradient error_signal predict read_record_csv
run_system_identification update_step write_record_csv
AxisUnit IMAGINARY_AXES ONE PolarForm QI QJ QK Quaternion ZERO
components_from_involutions isclose polar
Elementary PowerSeriesFn cosh_abs_sq exp_derivative exp_q exp_series
ln_derivative ln_q ln_real_gradient power_derivative
power_derivative_oracle real_axis_limit_check symmetric_ratio
tanh_derivative tanh_q tanh_series
""".split()

_SRC = str(Path(quatgrad.__file__).resolve().parents[1])
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}


def _fresh(code: str) -> str:
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_CHILD_ENV)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_public_names_are_the_87_and_each_resolves_once():
    out = _fresh(
        "import json, quatgrad\n"
        "values = [getattr(quatgrad, name) for name in quatgrad.__all__]\n"
        # a resolved name is bound in the module, not looked up again
        "print(json.dumps([quatgrad.__all__,\n"
        "                  [n for n in quatgrad.__all__ if n in vars(quatgrad)]]))\n")
    names, bound = json.loads(out)
    assert len(_PUBLIC) == len(set(_PUBLIC)) == 87
    assert sorted(names) == sorted(_PUBLIC)
    assert bound == names


def test_star_import_binds_every_public_name():
    out = _fresh(
        "import json\n"
        "namespace = {}\n"
        "exec('from quatgrad import *', namespace)\n"
        "import quatgrad\n"
        "print(json.dumps([n for n in quatgrad.__all__\n"
        "                  if namespace.get(n, namespace) is not getattr(quatgrad, n)]))\n")
    assert json.loads(out) == []


def test_fd_and_qlms_are_modules_right_after_import():
    out = _fresh(
        "import sys, types, quatgrad\n"
        "print(sorted({'quatgrad.fd', 'quatgrad.qlms'} & set(sys.modules)))\n"
        "print(quatgrad.fd is sys.modules['quatgrad.fd'],\n"
        "      quatgrad.qlms is sys.modules['quatgrad.qlms'],\n"
        "      isinstance(quatgrad.fd, types.ModuleType),\n"
        "      quatgrad.FDConfig is quatgrad.fd.FDConfig,\n"
        "      quatgrad.predict is quatgrad.qlms.predict)\n")
    assert out.splitlines() == ["[]", "True True True True True"]


def test_dir_lists_every_public_name_and_both_lazy_modules():
    out = _fresh(
        "import json, quatgrad\n"
        "missing = {*quatgrad.__all__, 'fd', 'qlms'} - set(dir(quatgrad))\n"
        "print(json.dumps(sorted(missing)))\n")
    assert json.loads(out) == []


def test_unknown_attribute_is_an_attribute_error():
    # not an ImportError from the hook, so hasattr stays False
    assert not hasattr(quatgrad, "fdx")
    with pytest.raises(AttributeError, match="no attribute 'fdx'"):
        getattr(quatgrad, "fdx")


def test_patched_write_record_csv_reaches_qlms_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M=2\nmu=0.01\niterations=5\nnoise_power=0\nseed=1\n")
    out = tmp_path / "out.csv"
    stdout = _fresh(
        "import quatgrad, quatgrad.cli\n"
        "paths = []\n"
        "quatgrad.qlms.write_record_csv = lambda record, path: paths.append(path)\n"
        f"code = quatgrad.cli.main(['qlms-run', {str(cfg)!r}, {str(out)!r}])\n"
        "print(code, paths)\n")
    assert stdout.splitlines()[-1] == f"0 [{str(out)!r}]"
    assert out.read_bytes() == b""  # created empty by the path check only
