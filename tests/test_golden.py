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

tests/golden/sweep.txt is the library's output sweep: the repr of every
result, or the error, of five methods of 35 elementary functions at 300
seeded points, summed up per group of rows (see sweep_lines).  A change
that claims bit-identical outputs leaves it unedited; one that changes
outputs on purpose regenerates it and names each group that moved.
"""

import hashlib
import math
import random
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from conftest import run_child, run_main, write_config
from quatgrad import Elementary, Quaternion, left_from_real, right_from_real
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


# the output sweep: special components, each of every point's four drawn
# from them or as a random sign times (1 + u) 2^e, with e in -9..8 (within
# [1e-3, 1e3]) or, for every second point, also in -1074..1023; stdlib
# random and ldexp, so the points depend on no numpy and no libm
SWEEP = "sweep"
SWEEP_SEED, SWEEP_POINTS = 2014, 300
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-160, 1.0, -1.0,
            709.7, 1e300, -1e300)
_SPECIAL_NORMAL = (0.0, -0.0, 1.0, -1.0)
_SWEEP_CENTER = Quaternion(0.5, -0.25, 0.0, 0.5)


def _sweep_component(rng, extreme: bool) -> float:
    r = rng.random()
    if r < 0.2:
        return rng.choice(_SPECIAL if extreme else _SPECIAL_NORMAL)
    sign = rng.choice((1.0, -1.0))
    e = rng.randint(-1074, 1023) if extreme and r < 0.6 else rng.randint(-9, 8)
    return sign * math.ldexp(1.0 + rng.random(), e)


def sweep_points() -> list:
    rng = random.Random(SWEEP_SEED)
    return [Quaternion(*(_sweep_component(rng, i % 2 == 1) for _ in range(4)))
            for i in range(SWEEP_POINTS)]


def _band(q: Quaternion) -> str:
    """normal: every component 0 or of magnitude within [1e-3, 1e3]."""
    return "normal" if all(x == 0.0 or 1e-3 <= abs(x) <= 1e3 for x in
                           (q.a, q.b, q.c, q.d)) else "extreme"


def sweep_functions():
    """(label, Elementary): exp, ln, tanh, (q - c)^n for n in -6..8 with the
    zero center and with an off-axis one, and n = +-101, past the exponents
    that _zpow hands to CPython's complex **."""
    yield "exp", Elementary.exp()
    yield "ln", Elementary.ln()
    yield "tanh", Elementary.tanh()
    for n in range(-6, 9):
        yield f"power:{n}", Elementary.power(n)
        yield f"power:{n}:c", Elementary.power(n, _SWEEP_CENTER)
    for n in (-101, 101):
        yield f"power:{n}", Elementary.power(n)


def _outcome(method, x):
    """(type name, row, result): the repr of method(x), or the error it
    raised as "TypeName: message" (result None)."""
    try:
        result = method(x)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, f"{type(exc).__name__}: {exc}", None
    return type(result).__name__, repr(result), result


def sweep_lines() -> list:
    """One line per function, method and band: the row count, the count of
    each outcome type and the md5 of the rows, one a line.  The two
    conversions take real_gradient's result, or repeat its error."""
    groups = defaultdict(list)
    points = [(q, _band(q)) for q in sweep_points()]
    for label, fn in sweep_functions():
        for q, band in points:
            groups[label, "value", band].append(_outcome(fn.value, q))
            groups[label, "hr_derivative", band].append(
                _outcome(fn.hr_derivative, q))
            grad = _outcome(fn.real_gradient, q)
            groups[label, "real_gradient", band].append(grad)
            for name, convert in (("left_from_real", left_from_real),
                                  ("right_from_real", right_from_real)):
                groups[label, name, band].append(
                    grad if grad[2] is None else _outcome(convert, grad[2]))
    lines = []
    for key, rows in groups.items():
        counts = Counter(kind for kind, _, _ in rows)
        md5 = hashlib.md5("\n".join(row for _, row, _ in rows).encode(
            "utf-8")).hexdigest()
        lines.append(" ".join((*key, f"rows={len(rows)}", *(
            f"{kind}={count}" for kind, count in sorted(counts.items())),
            f"md5={md5}")))
    return lines


def render_sweep() -> str:
    return "".join(f"{line}\n" for line in sweep_lines())


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


def test_library_outputs_match_the_sweep_golden():
    assert render_sweep() == expected(SWEEP)


def test_every_golden_file_has_a_case():
    names = {path.stem for path in GOLDEN.glob("*.txt")}
    assert names == {name for name, _ in CASES + [QLMS_RUN]} | {SWEEP}
    assert (GOLDEN / "regenerate.py").is_file()
