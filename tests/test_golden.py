"""Golden CLI outputs, compared byte for byte.

Each case is one `quatgrad` command line: the README and CI `eval-grad`
examples, answered and rejected, and the four `--help` texts.  Its golden
file under tests/golden/ holds the command, the exit code, stdout and
stderr; tests/golden/regenerate.py rewrites them from the current code, for
a change that alters an output on purpose.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from quatgrad.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (file name, argv): every eval-grad line of README.md and the CI workflow,
# three rejections (exit 2 twice, exit 1 once) and each --help
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
    ("help", ["--help"]),
    ("help_eval_grad", ["eval-grad", "--help"]),
    ("help_validate", ["validate", "--help"]),
    ("help_qlms_run", ["qlms-run", "--help"]),
]


def render(argv) -> str:
    """The command, its exit code, stdout and stderr, as the golden holds
    them.  argparse wraps help to $COLUMNS, so the caller fixes it at 80."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return (f"$ quatgrad {' '.join(argv)}\nexit {code}\n"
            f"-- stdout\n{out.getvalue()}-- stderr\n{err.getvalue()}")


def expected(name: str) -> str:
    text = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    if sys.version_info < (3, 11):  # argparse's title before 3.11
        text = text.replace("\noptions:\n", "\noptional arguments:\n")
    return text


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_its_golden(name, argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert render(argv) == expected(name)


def test_every_golden_file_has_a_case():
    names = {path.stem for path in GOLDEN.glob("*.txt")}
    assert names == {name for name, _ in CASES}
    assert (GOLDEN / "regenerate.py").is_file()
