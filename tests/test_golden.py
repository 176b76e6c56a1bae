"""Golden CLI outputs, compared byte for byte.

Each case is one `quatgrad` command line: the README `eval-grad`
examples and more, answered and rejected, the four `--help` texts, five
usage errors, `validate` at its default seed and at seed 7 (that one also
in a child process with warnings as errors) and the README `qlms-run`
(also with numpy's RuntimeWarnings as errors, and with EncodingWarnings on
and as errors).  Its golden file under
tests/golden/ holds the command, the exit code, stdout and stderr (and for
`qlms-run` the md5 of the CSV it writes);
tests/golden/regenerate.py rewrites them from the current code, for a
change that alters an output on purpose.  `validate <suite>` prints that
suite's block of the default-seed `validate` golden.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from conftest import run_child, run_main, write_config
from quatgrad.cli import EXIT_OK
from quatgrad.validate import SUITE_NAMES

GOLDEN = Path(__file__).parent / "golden"

# (file name, argv): every eval-grad line of README.md, a point after "--",
# three rejections (exit 2 twice, exit 1 once), points that start with "-."
# and "-0." with and without "--", two powers past the squares of the
# README examples (n = -3 with a center on the right side, n = 12), each
# --help, five usage errors (argparse's "invalid choice" texts are left
# out: their quoting differs between Python versions; a second "--" is
# quatgrad's own) and validate's every suite at two seeds
CASES = [
    ("eval_grad_power2", ["eval-grad", "power:2", "1+2i+3j+4k"]),
    ("eval_grad_exp_right", ["eval-grad", "exp", "0.3+0.4i+0j+0k",
                             "--side", "right"]),
    ("eval_grad_power3_center", ["eval-grad", "power:3:1+0i+0j+0k",
                                 "2+1i+0j+0k"]),
    ("eval_grad_exp_negative", ["eval-grad", "exp", "--", "-1+0i+0j+0k"]),
    ("eval_grad_exp_one", ["eval-grad", "exp", "1+0i+0j+0k"]),
    ("eval_grad_ln_branch_point", ["eval-grad", "ln", "--", "-1+0i+0j+0k"]),
    ("eval_grad_exp_overflow", ["eval-grad", "exp", "1000+0i+0j+0k"]),
    ("eval_grad_bad_power", ["eval-grad", "power:2.5", "1+0i+0j+0k"]),
    ("eval_grad_exp_minus_point_five", ["eval-grad", "exp", "-.5+0i+0j+0k"]),
    ("eval_grad_exp_minus_point_five_dashes", ["eval-grad", "exp", "--",
                                               "-.5+0i+0j+0k"]),
    ("eval_grad_exp_minus_zero_point_five", ["eval-grad", "exp",
                                             "-0.5+0i+0j+0k"]),
    ("eval_grad_exp_minus_zero_point_five_dashes", ["eval-grad", "exp", "--",
                                                    "-0.5+0i+0j+0k"]),
    ("eval_grad_power_minus3_center_right", [
        "eval-grad", "power:-3:0.5-0.25i+0j+0.5k", "--side", "right",
        "1+2i-1j+0.5k"]),
    ("eval_grad_power12", ["eval-grad", "power:12", "0.9+0.3i-0.2j+0.1k"]),
    ("help", ["--help"]),
    ("help_eval_grad", ["eval-grad", "--help"]),
    ("help_validate", ["validate", "--help"]),
    ("help_qlms_run", ["qlms-run", "--help"]),
    ("usage_validate_negative_seed", ["validate", "--seed", "-1"]),
    ("usage_validate_non_integer_seed", ["validate", "--seed", "abc"]),
    ("usage_eval_grad_missing_point", ["eval-grad", "exp"]),
    ("usage_eval_grad_extra_argument", ["eval-grad", "exp", "1+0i+0j+0k",
                                        "extra"]),
    ("usage_eval_grad_second_double_dash", ["eval-grad", "exp", "--", "--"]),
    ("validate", ["validate"]),
    ("validate_seed_7", ["validate", "--seed", "7"]),
]

# README's qlms-run, run in a child process from the directory that holds
# its config: the StabilityWarning line is then the one a shell shows
QLMS_RUN = ("qlms_run", ["qlms-run", "run.cfg", "out.csv"])


def render(argv) -> str:
    """The command, its exit code, stdout and stderr, as the golden holds
    them.  argparse wraps help to $COLUMNS, so the caller fixes it at 80."""
    code, out, err = run_main(argv)
    return (f"$ quatgrad {' '.join(argv)}\nexit {code}\n"
            f"-- stdout\n{out}-- stderr\n{err}")


def render_process(argv, directory, flags=()) -> str:
    """render() of `python <flags> -m quatgrad` in `directory`."""
    run = run_child("-m", "quatgrad", *argv, flags=flags, cwd=directory)
    return (f"$ quatgrad {' '.join(argv)}\nexit {run.returncode}\n"
            f"-- stdout\n{run.stdout}-- stderr\n{run.stderr}")


def render_child(argv, directory, flags=()) -> str:
    """render_process() with README's config as run.cfg, plus the md5 of the
    out.csv it writes."""
    write_config(directory)
    text = render_process(argv, directory, flags)
    md5 = hashlib.md5((Path(directory) / "out.csv").read_bytes()).hexdigest()
    return f"{text}-- md5 out.csv\n{md5}\n"


def expected(name: str) -> str:
    text = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    if sys.version_info < (3, 11):  # argparse's title before 3.11
        text = text.replace("\noptions:\n", "\noptional arguments:\n")
    return text


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_its_golden(name, argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert render(argv) == expected(name)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_validate_suite_prints_its_block_of_the_golden(suite):
    # each suite draws from a fresh default_rng(seed), so alone it prints
    # the lines it prints within `quatgrad validate`, up to its summary
    stdout = expected("validate").split("-- stdout\n")[1]
    start = stdout.index(f"[{suite}] ")
    end = stdout.index("\n", stdout.index(f"\n{suite}: ", start) + 1) + 1
    assert run_main(["validate", suite]) == \
        (EXIT_OK, stdout[start:end] + "overall: PASS\n", "")


def test_readme_qlms_run_matches_its_golden(tmp_path):
    name, argv = QLMS_RUN
    assert render_child(argv, tmp_path) == expected(name)


def test_readme_qlms_run_with_runtime_warnings_as_errors_matches_its_golden(
        tmp_path):
    # numpy raises no RuntimeWarning in the block pass or the loop, and the
    # StabilityWarning is a UserWarning: the same output and the same CSV
    name, argv = QLMS_RUN
    assert render_child(argv, tmp_path, ("-W", "error::RuntimeWarning")) == \
        expected(name)


def test_readme_qlms_run_with_encoding_warnings_as_errors_matches_its_golden(
        tmp_path):
    # every open() of the config and the CSV names its encoding: the same
    # output and the same CSV
    name, argv = QLMS_RUN
    flags = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    assert render_child(argv, tmp_path, flags) == expected(name)


def test_validate_with_warnings_as_errors_matches_its_golden(tmp_path):
    # `python -W error -m quatgrad validate --seed 7`: no warning is
    # raised, and stdout is the in-process golden's
    argv = ["validate", "--seed", "7"]
    assert render_process(argv, tmp_path, ("-W", "error")) == \
        expected("validate_seed_7")


def test_every_golden_file_has_a_case():
    names = {path.stem for path in GOLDEN.glob("*.txt")}
    assert names == {name for name, _ in CASES + [QLMS_RUN]}
    assert (GOLDEN / "regenerate.py").is_file()
