import dataclasses
import functools
import inspect
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (CHILD_ENV, CHILD_TIMEOUT, README_CONFIG, qdist,
                      run_child, run_main)
import quatgrad
from quatgrad import cli
from quatgrad import (Quaternion, StabilityWarning, ln_derivative,
                      read_record_csv, run_system_identification)
from quatgrad.cli import (EXIT_DIVERGED, EXIT_DOMAIN, EXIT_OK, EXIT_PARSE,
                          EXIT_VALIDATION, load_experiment_config)


_PARSER = cli._build_parser()


def parse_gradient_output(out: str):
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    return lines["side"], {k: Quaternion.from_string(lines[k])
                           for k in ("d1", "dI", "dJ", "dK")}


# -- eval-grad -----------------------------------------------------------------

def test_eval_grad_exp_at_zero():
    code, out, _ = run_main(["eval-grad", "exp", "0+0i+0j+0k"])
    assert code == EXIT_OK
    side, grads = parse_gradient_output(out)
    assert side == "left"
    assert qdist(grads["d1"], Quaternion(1)) <= 1e-12


def test_eval_grad_power():
    code, out, _ = run_main(["eval-grad", "power:2", "1+2i+3j+4k"])
    assert code == EXIT_OK
    _, grads = parse_gradient_output(out)
    assert grads["d1"] == Quaternion(2, 2, 3, 4)
    assert grads["dI"] == Quaternion(0, 2, 0, 0)


def test_eval_grad_power_with_center():
    code, out, _ = run_main(["eval-grad", "power:2:1+0i+0j+0k",
                             "2+2i+3j+4k"])
    assert code == EXIT_OK
    _, grads = parse_gradient_output(out)
    assert grads["d1"] == Quaternion(2, 2, 3, 4)


def test_eval_grad_right_side():
    code, out, _ = run_main(["eval-grad", "tanh", "0.3+0.4i+0j+0k",
                             "--side", "right"])
    assert code == EXIT_OK
    side, grads = parse_gradient_output(out)
    assert side == "right"
    from quatgrad import tanh_derivative
    assert qdist(grads["d1"], tanh_derivative(Quaternion(0.3, 0.4))) <= 1e-10


def test_eval_grad_domain_error():
    code, _, err = run_main(["eval-grad", "ln", "0+0i+0j+0k"])
    assert code == EXIT_DOMAIN
    assert "domain error" in err
    code, _, err = run_main(["eval-grad", "ln", "-1+0i+0j+0k"])
    assert code == EXIT_DOMAIN
    code, _, err = run_main(["eval-grad", "power:-1", "0+0i+0j+0k"])
    assert code == EXIT_DOMAIN
    for function, point in (("exp", "1000+0i+0j+0k"),
                            ("power:2000", "10+1i+0j+0k")):
        code, _, err = run_main(["eval-grad", function, point])
        assert code == EXIT_DOMAIN
        assert "domain error" in err


@pytest.mark.parametrize("function, point", [
    ("exp", "1000+0i+0j+0k"),           # cmath.exp raises OverflowError
    ("power:2000", "10+1i+0j+0k"),      # z^2000 is nan in complex arithmetic
    ("exp", "709.7+0.5i+0.5j+0.5k"),    # only left_from_real's sums overflow
    ("power:3:1+0i+0j+0k", "1e200+0i+0j+0k"),
])
def test_eval_grad_overflow_names_function_and_point(function, point):
    code, out, err = run_main(["eval-grad", function, point])
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == (f"domain error: {function} at q = "
                   f"{Quaternion.from_string(point)}: the result is beyond "
                   "the float range\n")


def test_eval_grad_tanh_pole_is_domain_error():
    code, out, err = run_main(["eval-grad", "tanh",
                               "0+1.5707963267948966i+0j+0k"])
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "pole" in err


@pytest.mark.parametrize("function, point", [
    ("power:-1", "0+0i+0j+0k"),
    ("power:-2:1+0i+0j+0k", "1+0i+0j+0k"),
    ("power:-1:1+2i+0j+0k", "1+2i+0j+0k"),
])
def test_eval_grad_power_pole_is_named(function, point):
    code, out, err = run_main(["eval-grad", function, point])
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "pole" in err
    assert "complex division" not in err


def test_eval_grad_ln_next_to_branch_cut():
    code, out, _ = run_main(["eval-grad", "ln", "--", "-1+1e-300i+0j+0k"])
    assert code == EXIT_OK
    _, grads = parse_gradient_output(out)
    parts = [x for g in grads.values() for x in (g.a, g.b, g.c, g.d)]
    assert len(parts) == 16 and all(map(math.isfinite, parts))
    closed = ln_derivative(Quaternion(-1.0, 1e-300))
    assert qdist(grads["d1"], closed) <= 1e-12 * abs(closed)


def test_eval_grad_tanh_far_from_origin():
    # |cosh q|^2 is beyond the float range; tanh is 1 and its gradient 0
    code, out, _ = run_main(["eval-grad", "tanh", "700+0i+0j+0k"])
    assert code == EXIT_OK
    _, grads = parse_gradient_output(out)
    parts = [x for g in grads.values() for x in (g.a, g.b, g.c, g.d)]
    assert len(parts) == 16 and all(map(math.isfinite, parts))


def test_eval_grad_huge_power_is_finite():
    # a loop over the exponent would take 1e9 steps here
    code, out, _ = run_main(["eval-grad", "power:1000000000",
                             "0.5+0.1i+0j+0k"])
    assert code == EXIT_OK
    _, grads = parse_gradient_output(out)
    assert all(math.isfinite(x) for g in grads.values()
               for x in (g.a, g.b, g.c, g.d))


@pytest.mark.parametrize("function, point", [
    ("power:-6", "1e300+0.5i-3j+2k"),  # complex z ** -6 is nan here
    ("power:2", "1e154+0i+0j+1e-8k"),  # q^2 is finite, q^4 is not
])
def test_eval_grad_large_points_are_finite(function, point):
    code, out, _ = run_main(["eval-grad", function, point])
    assert code == EXIT_OK
    _, grads = parse_gradient_output(out)
    assert all(math.isfinite(x) for g in grads.values()
               for x in (g.a, g.b, g.c, g.d))


_EXTREME = st.sampled_from([0.0, 1e-300, -1e-300, 1e-8, -1e-8, 0.5, -0.5,
                            math.pi / 2, -math.pi / 2, 700.0, -700.0,
                            1e300, -1e300])
_FUNCTIONS = st.sampled_from(["exp", "ln", "tanh"]) | st.builds(
    "power:{}".format, st.integers(-6, 12) | st.just(1_000_000_000))


@settings(max_examples=300, deadline=None)
@given(_FUNCTIONS, st.builds(Quaternion, _EXTREME, _EXTREME, _EXTREME,
                             _EXTREME))
def test_eval_grad_extreme_points_never_raise(function, point):
    code, out, err = run_main(["eval-grad", function, "--", str(point)])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN), err
    if code == EXIT_OK:
        _, grads = parse_gradient_output(out)
        assert all(math.isfinite(x) for g in grads.values()
                   for x in (g.a, g.b, g.c, g.d))


def test_eval_grad_parse_errors():
    assert run_main(["eval-grad", "exp", "garbage"])[0] == EXIT_PARSE
    assert run_main(["eval-grad", "sinh", "1+0i+0j+0k"])[0] == EXIT_PARSE
    assert run_main(["eval-grad", "power:x", "1+0i+0j+0k"])[0] == EXIT_PARSE
    assert run_main(["eval-grad", "exp", "1+2i+3j"])[0] == EXIT_PARSE
    for function in ("power", "power:", "power:2:1+0i+0j+0k:3", "power:2:zzz",
                     "exp:2", "Exp"):
        code, out, err = run_main(["eval-grad", function, "1+0i+0j+0k"])
        assert (code, out) == (EXIT_PARSE, "") and "parse error" in err


@pytest.mark.parametrize("function", ["sinh", "Exp", "exp:2"])
def test_eval_grad_unknown_function_line(function):
    assert run_main(["eval-grad", function, "1+0i+0j+0k"]) == (
        EXIT_PARSE, "", f"parse error: unknown elementary function "
        f"{function!r} (expected exp, ln, tanh, power)\n")


def test_eval_grad_non_integer_exponent_names_the_power_argument():
    assert run_main(["eval-grad", "power:2.5", "1+0i+0j+0k"]) == (
        EXIT_PARSE, "", "parse error: bad power argument 'power:2.5': the "
        "exponent '2.5' is not an integer\n")


# eval-grad's flag and its words, as cli gives them
_FLAG_WORDS = ["--side", *cli._SIDES]

# the words of plain eval-grad lines, and words that argparse reads in
# other ways: an abbreviation, an "=" form, help, flags, a bare "-"
_ARGV_TOKENS = st.sampled_from([
    "eval-grad", *_FLAG_WORDS, "--si", "--side=left", "up",
    "--", "-h", "exp", "ln", "power:3:1+0i+0j+0k", "1+0i+0j+0k",
    "-1+2i+0j+0k", "-.5+0i+0j+0k", "-x", "-", ""])


@st.composite
def _eval_grad_lines(draw):
    """eval-grad and two words, maybe a "--" before the second and a
    "--side" and a word anywhere: lines that are plain or nearly so."""
    words = draw(st.lists(_ARGV_TOKENS, min_size=2, max_size=2))
    if draw(st.booleans()):
        words.insert(1, "--")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(words)))
        words[at:at] = ["--side", draw(st.sampled_from(cli._SIDES)
                                       | _ARGV_TOKENS)]
    return ["eval-grad"] + words


@settings(max_examples=1000, deadline=None)
@given(_eval_grad_lines() | st.lists(_ARGV_TOKENS, max_size=7))
@example(["eval-grad", "--side", "right", "exp", "--", "-1+2i+0j+0k"])
@example(["eval-grad", "exp", "--", "--"])  # argparse: point == []
def test_plain_eval_grad_parses_as_argparse_does(argv):
    # where the plain parser answers, argparse (the reference, which parses
    # every other line) gives the same namespace
    plain = cli._plain_eval_grad(argv)
    if plain is not None:
        assert vars(plain) == vars(_PARSER.parse_args(argv)), argv


def test_plain_eval_grad_leaves_help_and_usage_errors_to_argparse():
    for argv in (["eval-grad", "--help"], ["eval-grad", "exp"],
                 ["eval-grad", "exp", "1+0i+0j+0k", "extra"],
                 ["eval-grad", "exp", "1+0i+0j+0k", "--side=right"],
                 ["eval-grad", "exp", "1+0i+0j+0k", "--si", "right"],
                 ["eval-grad", "exp", "-x"], ["validate"], []):
        assert cli._plain_eval_grad(argv) is None, argv


# -- every short command line -------------------------------------------------

def _outcome(argv):
    """run_main(argv); an exception that escapes main is the code, as its
    repr, with no output."""
    try:
        return run_main(argv)
    except Exception as exc:
        return repr(exc), "", ""


def _short_lines(command, vocabulary):
    """`command` followed by every sequence of 0 to 3 vocabulary words."""
    for n in range(4):
        for words in itertools.product(vocabulary, repeat=n):
            yield [command, *words]


def _usage_error(command):
    """argparse's usage of `command` or of quatgrad (which reports words
    left over), maybe wrapped, and the error line of the same parser."""
    return re.compile(rf"usage: (quatgrad(?: {command})?) [^\n]*\n"
                      rf"(?: +[^\n]*\n)*\1: error: [^\n]*\n")


# the functions, points (one beyond the float range), --side and its
# words and the words argparse reads in other ways
_EVAL_GRAD_WORDS = [
    "exp", "power:-1", "ln", "1+2i+3j+4k", "-1+0i+0j+0k", "-.5+0i+0j+0k",
    "1e400+0i+0j+0k", *_FLAG_WORDS, "--", "-", "", "-h", "--si"]


def test_every_short_eval_grad_line_ends_in_a_typed_outcome():
    # exhaustive up to 3 words (3,616 lines): a line is answered (the
    # gradient block or --help), or is one typed error on stderr, and where
    # the plain parser answers, argparse gives the same namespace
    gradient = re.compile(r"side: (?:%s)\n(?:d[1IJK]: \S+\n){4}"
                          % "|".join(cli._SIDES))
    usage_error = _usage_error("eval-grad")
    help_text = _outcome(["eval-grad", "--help"])[1]
    faults = []
    for argv in _short_lines("eval-grad", _EVAL_GRAD_WORDS):
        code, out, err = _outcome(argv)
        if code == EXIT_OK:
            typed = err == "" and (gradient.fullmatch(out) or out == help_text)
        else:
            typed = out == "" and (
                code == EXIT_PARSE and (usage_error.fullmatch(err) or
                                        re.fullmatch(r"parse error: .*\n", err))
                or code == EXIT_DOMAIN
                and re.fullmatch(r"domain error: .*\n", err))
        plain = cli._plain_eval_grad(argv)
        if not typed or plain is not None and (
                vars(plain) != vars(_PARSER.parse_args(argv))):
            faults.append((argv, code, out, err))
    assert faults == []


def test_every_short_validate_line_ends_in_a_typed_outcome():
    # argument handling only: run_suites is patched, no suite runs
    usage_error = _usage_error("validate")
    help_text = _outcome(["validate", "--help"])[1]
    faults = []
    with mock.patch("quatgrad.validate.run_suites", return_value=[]):
        for argv in _short_lines("validate", [
                "all", "algebra", "nonsense", "--seed", "7", "-1", "--se",
                "--", "-", "", "-h"]):
            code, out, err = _outcome(argv)
            if not (code == EXIT_OK and err == ""
                    and out in ("overall: PASS\n", help_text)
                    or code == EXIT_PARSE and out == ""
                    and usage_error.fullmatch(err)):
                faults.append((argv, code, out, err))
    assert faults == []


def test_every_short_qlms_run_line_ends_in_a_typed_outcome(tmp_path,
                                                           monkeypatch):
    # no config of these runs: it is missing, a directory, not UTF-8 or
    # malformed, so no experiment starts and no output file is made
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "bytes.cfg").write_bytes(b"\xff\xfeM=4\n")
    (tmp_path / "bad.cfg").write_text("M=4 mu=0.05\n")
    usage_error = _usage_error("qlms-run")
    help_text = _outcome(["qlms-run", "--help"])[1]
    faults = []
    for argv in _short_lines("qlms-run", [
            "missing.cfg", "dir", "bytes.cfg", "bad.cfg", "out.csv", "--",
            "-", "", "-h", "--x"]):
        code, out, err = _outcome(argv)
        if not (code == EXIT_OK and (out, err) == (help_text, "")
                or code == EXIT_PARSE and out == "" and (
                    usage_error.fullmatch(err)
                    or re.fullmatch(r"config error: .*\n", err))):
            faults.append((argv, code, out, err))
    assert faults == []
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "bad.cfg", "bytes.cfg", "dir"]


@pytest.mark.parametrize("argv", [
    ["eval-grad", "exp", "--", "--"], ["eval-grad", "--", "exp", "--"],
    ["eval-grad", "--", "exp", "--", "1+0i+0j+0k"],
    ["eval-grad", "exp", "1+0i+0j+0k", "--side=--"],
    ["validate", "algebra", "--seed=--"],
    ["qlms-run", "run.cfg", "--", "--"], ["qlms-run", "--", "run.cfg", "--"]])
def test_double_dash_as_a_word_is_a_usage_error(tmp_path, monkeypatch, argv):
    # a second "--", or "--" as an option's value, is the command's usage
    # error on every Python, whatever argparse makes of the words; no suite
    # runs, and qlms-run's config is good but the line neither runs nor
    # writes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(GOOD_CONFIG)
    with mock.patch("quatgrad.validate.run_suites", return_value=[]):
        code, out, err = _outcome(argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert _usage_error(argv[0]).fullmatch(err), err
    assert err.startswith(f"usage: quatgrad {argv[0]} ")
    assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]


def test_unknown_flag_is_parse_error():
    assert run_main(["eval-grad", "exp", "0+0i+0j+0k",
                     "--frobnicate"])[0] == EXIT_PARSE


def test_missing_subcommand_is_parse_error():
    assert run_main([])[0] == EXIT_PARSE


# -- validate ------------------------------------------------------------------

def test_validate_algebra_passes():
    code, out, _ = run_main(["validate", "algebra"])
    assert code == EXIT_OK
    assert "algebra: PASS" in out
    assert "overall: PASS" in out


def test_validate_consistency_prints_table():
    code, out, _ = run_main(["validate", "consistency"])
    assert code == EXIT_OK
    assert "real-axis limit monotone: exp" in out
    assert " > " in out  # the decreasing-error table rows


def test_validate_consistency_follows_seed():
    tables = [run_main(["validate", "consistency", "--seed", seed])
              for seed in ("1", "2")]
    assert all(code == EXIT_OK for code, _, _ in tables)
    assert tables[0][1] != tables[1][1]


def test_validate_rules_passes():
    code, out, _ = run_main(["validate", "rules"])
    assert code == EXIT_OK
    assert "rules: PASS" in out
    assert "overall: PASS" in out


def test_validate_fd_prints_slopes():
    code, out, _ = run_main(["validate", "fd"])
    assert code == EXIT_OK
    assert "slope" in out


def test_validate_without_suite_runs_every_suite_in_order():
    from quatgrad.validate import SUITE_NAMES
    code, out, _ = run_main(["validate"])
    assert code == EXIT_OK
    lines = out.splitlines()
    summaries = [line for line in lines
                 if re.fullmatch(r"\w+: (PASS|FAIL) \(worst error .*\)", line)]
    assert [line.split(":")[0] for line in summaries] == list(SUITE_NAMES)
    assert all(": PASS (" in line for line in summaries)
    assert lines[-1] == "overall: PASS"


def test_validate_rejects_unknown_suite():
    assert run_main(["validate", "nonsense"])[0] == EXIT_PARSE


def test_validate_failure_exits_3(monkeypatch):
    from quatgrad.validate import CheckResult, SuiteReport

    def fake_run_suites(names, seed):
        return [SuiteReport("algebra",
                            [CheckResult("forced failure", 0, 1, 42.0)])]

    monkeypatch.setattr("quatgrad.validate.run_suites", fake_run_suites)
    code, out, _ = run_main(["validate", "algebra"])
    assert code == EXIT_VALIDATION
    assert "overall: FAIL" in out


def test_cli_suite_names_match_validate():
    from quatgrad import cli, validate
    assert cli.SUITE_NAMES == validate.SUITE_NAMES


def test_cli_default_seed_matches_validate():
    # written twice: cli does not import validate, which loads numpy
    from quatgrad import validate
    default = inspect.signature(validate.run_suites).parameters["seed"]
    assert _PARSER.parse_args(["validate"]).seed == default.default


@pytest.mark.parametrize("seed", ["-1", "-20240601"])
def test_validate_rejects_bad_seed(seed):
    code, out, err = run_main(["validate", "algebra", "--seed", seed])
    assert (code, out) == (EXIT_PARSE, "")
    assert "--seed" in err


@settings(max_examples=200, deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70).map(str) | st.text(max_size=6))
def test_validate_seed_argument_never_raises(seed):
    # argument handling only: the suites themselves are not run
    try:
        valid = int(seed) >= 0
    except ValueError:
        valid = False
    with mock.patch("quatgrad.validate.run_suites", return_value=[]):
        code, _, err = run_main(["validate", "algebra", f"--seed={seed}"])
    assert code == (EXIT_OK if valid else EXIT_PARSE), err


# -- qlms-run ------------------------------------------------------------------

# README's config without its true weights, which the run then draws
GOOD_CONFIG = README_CONFIG[:README_CONFIG.index("true_weights=")]


def test_qlms_run_converges(tmp_path, recwarn):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(GOOD_CONFIG)
    out_path = tmp_path / "out.csv"
    code, out, _ = run_main(["qlms-run", str(cfg_path), str(out_path)])
    assert code == EXIT_OK
    assert "final weight error norm" in out
    final = float(out.split("final weight error norm:")[1])
    se, we = read_record_csv(out_path)
    assert len(se) == len(we) == 2000
    assert final <= 1e-6 * we[0] ** 0.5


def test_qlms_run_failed_write_is_output_error(tmp_path, recwarn, monkeypatch):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(GOOD_CONFIG.replace("iterations=2000", "iterations=5"))

    def full_disk(record, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(quatgrad.qlms, "write_record_csv", full_disk)
    code, out, err = run_main(["qlms-run", str(cfg_path),
                               str(tmp_path / "out.csv")])
    assert (code, out) == (EXIT_PARSE, "")
    assert err.splitlines()[-1] == \
        "output error: [Errno 28] No space left on device"
    assert "Traceback" not in err


def test_qlms_run_csv_matches_library_run(tmp_path, recwarn):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(GOOD_CONFIG.replace("iterations=2000", "iterations=50"))
    out_path = tmp_path / "out.csv"
    code, _, _ = run_main(["qlms-run", str(cfg_path), str(out_path)])
    assert code == EXIT_OK
    record = run_system_identification(load_experiment_config(cfg_path))
    se, we = read_record_csv(out_path)
    assert se == record.squared_error
    assert we == record.weight_error_sq


def test_qlms_run_prints_the_final_weight_error_norm(tmp_path, recwarn):
    # the README config: its final error norm is about 1.75e-16
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(README_CONFIG)
    code, out, _ = run_main(["qlms-run", str(cfg_path),
                             str(tmp_path / "out.csv")])
    assert code == EXIT_OK
    printed = float(out.split("final weight error norm:")[1])
    cfg = load_experiment_config(cfg_path)
    record = run_system_identification(cfg)
    exact = math.sqrt(math.fsum(
        x * x for w, wt in zip(record.final_weights, cfg.true_weights)
        for x in dataclasses.astuple(w - wt)))
    assert 0.0 < exact
    assert printed == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_qlms_run_explicit_weights(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "M=2\nmu=0.02\niterations=400\nnoise_power=0.0\nseed=7\n"
        "true_weights=1+0i+0j+0k;0+0i+1j+0k\n")
    cfg = load_experiment_config(cfg_path)
    assert cfg.true_weights == (Quaternion(1), Quaternion(0, 0, 1, 0))
    out_path = tmp_path / "out.csv"
    assert run_main(["qlms-run", str(cfg_path), str(out_path)])[0] == EXIT_OK


def test_qlms_run_divergence_exit(tmp_path, recwarn):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(GOOD_CONFIG.replace("mu=0.05", "mu=5.0"))
    out_path = tmp_path / "out.csv"
    code, _, err = run_main(["qlms-run", str(cfg_path), str(out_path)])
    assert code == EXIT_DIVERGED
    assert "diverged" in err
    assert out_path.exists()  # truncated record still written


def test_qlms_run_overflow_is_divergence(tmp_path, recwarn):
    # mu * e x* overflows to inf in the first update
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "M=4\nmu=1e308\niterations=50\nnoise_power=0.01\nseed=3\n")
    out_path = tmp_path / "out.csv"
    code, out, err = run_main(["qlms-run", str(cfg_path), str(out_path)])
    assert code == EXIT_DIVERGED
    assert err.startswith("diverged: ")
    assert out == f"wrote {out_path} (1 iterations)\n"
    se, we = read_record_csv(out_path)
    assert len(se) == len(we) == 1 and all(map(math.isfinite, se + we))


def test_qlms_run_missing_file(tmp_path):
    code, _, err = run_main(["qlms-run", str(tmp_path / "nope.cfg"),
                             str(tmp_path / "out.csv")])
    assert code == EXIT_PARSE
    assert "config error" in err


@pytest.mark.parametrize("bad", [
    "M=4\nmu=0.05\n",                                     # missing keys
    "M=4\nmu=0.05\niterations=10\nnoise_power=0\nseed=1\nwhat=3\n",
    "M=4\nmu=0.05\niterations=ten\nnoise_power=0\nseed=1\n",
    "M=4 mu=0.05\niterations=10\nnoise_power=0\nseed=1\n",
    "M=2\nmu=0.05\niterations=10\nnoise_power=0\nseed=1\n"
    "true_weights=1+0i+0j+0k\n",                          # wrong weight count
    "M=4\nmu=nan\niterations=10\nnoise_power=0\nseed=1\n",
    "M=4\nmu=0.05\niterations=10\nnoise_power=inf\nseed=1\n",
])
def test_qlms_run_bad_configs(tmp_path, bad):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(bad)
    code, _, _ = run_main(["qlms-run", str(cfg_path),
                           str(tmp_path / "out.csv")])
    assert code == EXIT_PARSE


def test_config_blank_lines_between_keys_are_skipped(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("M=4\n\nmu=0.05\n   \niterations=10\n"
                        "noise_power=0\n\nseed=1\n")
    cfg = load_experiment_config(cfg_path)
    assert (cfg.filter_length, cfg.step_size, cfg.iterations,
            cfg.noise_power, cfg.rng_seed) == (4, 0.05, 10, 0.0, 1)


@pytest.mark.parametrize("text, message", [
    ("M=4\n\nmu 0.05\niterations=10\nnoise_power=0\nseed=1\n",
     "config error: line 3: expected key=value, got 'mu 0.05'"),
    ("M=4\nmu=0.05\niterations=10\n\nM=8\nnoise_power=0\nseed=1\n",
     "config error: line 5: duplicate key 'M'"),
])
def test_qlms_run_config_line_errors(tmp_path, text, message):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    out_path = tmp_path / "out.csv"
    code, out, err = run_main(["qlms-run", str(cfg_path), str(out_path)])
    assert (code, out, err) == (EXIT_PARSE, "", message + "\n")
    assert not out_path.exists()


@pytest.mark.parametrize("text, message", [
    ("M=4\nmu=0.05\niterations=10\nnoise_power=0\n\nseed=1e3\n",
     "config error: line 6: seed: invalid literal for int() with base 10: "
     "'1e3'"),
    ("M=4\nmu=fast\niterations=10\nnoise_power=0\nseed=1\n",
     "config error: line 2: mu: could not convert string to float: 'fast'"),
    ("M=2\nmu=0.05\niterations=10\nnoise_power=0\nseed=1\n"
     "true_weights=1+0i+0j+0k;1+0i\n",
     "config error: line 6: true_weights: not a quaternion string: '1+0i' "
     "(expected a+bi+cj+dk with all four components)"),
], ids=["seed", "mu", "true_weights"])
def test_qlms_run_config_value_errors_name_key_and_line(tmp_path, text,
                                                        message):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    out_path = tmp_path / "out.csv"
    code, out, err = run_main(["qlms-run", str(cfg_path), str(out_path)])
    assert (code, out, err) == (EXIT_PARSE, "", message + "\n")
    assert not out_path.exists()


def test_qlms_run_negative_seed_with_weights(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("M=1\nmu=0.02\niterations=10\nnoise_power=0.0\n"
                        "seed=-1\ntrue_weights=1+0i+0j+0k\n")
    code, out, err = run_main(["qlms-run", str(cfg_path),
                               str(tmp_path / "out.csv")])
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("config error: ") and "seed" in err


def test_qlms_run_negative_seed_without_weights(tmp_path):
    # the same message as with weights: the seed is checked before the draw
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("M=1\nmu=0.02\niterations=10\nnoise_power=0.0\n"
                        "seed=-1\n")
    code, out, err = run_main(["qlms-run", str(cfg_path),
                               str(tmp_path / "out.csv")])
    assert (code, out) == (EXIT_PARSE, "")
    assert err == ("config error: rng_seed must be an integer >= 0, "
                   "got -1\n")


def test_qlms_run_noise_past_squared_divergence_limit(tmp_path):
    # noise_power = 1e308 ran with exit 0 and wrote inf into the CSV
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("M=1\nmu=0\niterations=50\nnoise_power=1e308\n"
                        "seed=1\n")
    code, out, err = run_main(["qlms-run", str(cfg_path),
                               str(tmp_path / "out.csv")])
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("config error: noise_power ")


_WEIGHTS_32 = ";".join(["1+0i+0j+0k"] * 32)


@pytest.mark.parametrize("config", [
    "M=32\nmu=0.01\niterations=10000000\nnoise_power=0\nseed=1\n",
    "M=32\nmu=0.01\niterations=10000000\nnoise_power=0\nseed=1\n"
    f"true_weights={_WEIGHTS_32}\n",
    "M=100000000\nmu=0.01\niterations=1\nnoise_power=0\nseed=1\n",
], ids=["M32-N1e7", "M32-N1e7-weights", "M1e8"])
def test_qlms_run_size_bound_fails_before_any_draw(tmp_path, monkeypatch,
                                                   config):
    # 10.24 GB of inputs, or 10^8 default weights: rejected before numpy
    # draws anything, so this test allocates nothing either way
    def no_draw(*args, **kwargs):
        raise AssertionError("something was drawn")

    monkeypatch.setattr("numpy.random.default_rng", no_draw)
    monkeypatch.setattr("quatgrad.qlms.run_system_identification", no_draw)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config)
    code, out, err = run_main(["qlms-run", str(cfg_path),
                               str(tmp_path / "out.csv")])
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("config error: filter_length * iterations is past ")


@pytest.mark.parametrize("output", ["missing/dir/out.csv", "."])
def test_qlms_run_unusable_output_fails_before_the_run(tmp_path, monkeypatch,
                                                       output):
    def no_run(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr("quatgrad.qlms.run_system_identification", no_run)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(GOOD_CONFIG)
    code, out, err = run_main(["qlms-run", str(cfg_path),
                               str(tmp_path / output)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("output error: ") and err.count("\n") == 1


_WEIGHT = st.builds(Quaternion, _EXTREME, _EXTREME, _EXTREME, _EXTREME).map(str)


@st.composite
def _qlms_configs(draw):
    """key=value text; M matches the weight count unless drawn bad."""
    weights = draw(st.none() | st.lists(_WEIGHT, min_size=1, max_size=3))
    m = len(weights) if weights else draw(st.integers(1, 3))
    bad = st.sampled_from
    values = {
        "M": draw(st.just(str(m)) | bad(["0", "-1", "two"])),
        "mu": draw(st.sampled_from(["0", "0.01", "0.05", "5.0", "1e308"])
                   | bad(["-0.1", "nan", "inf", "-inf"])),
        "iterations": draw(st.integers(1, 50).map(str)
                           | bad(["0", "-2", "2.5"])),
        "noise_power": draw(st.sampled_from(["0", "0.01", "1.0"])
                            | bad(["nan", "inf"])),
        "seed": draw(st.integers(-2 ** 70, 2 ** 70).map(str)
                     | bad(["-1", "1.5", "1e3", "0x10", ""])),
    }
    if weights is not None:
        values["true_weights"] = ";".join(weights)
    elif draw(st.booleans()):
        values["true_weights"] = draw(bad(["", ";", "1+0i+0j", "zzz",
                                           "1+0i+0j+0k;", "nan+0i+0j+0k"]))
    return "".join(f"{key}={value}\n" for key, value in values.items())


@settings(max_examples=200, deadline=None)
@given(_qlms_configs())
def test_qlms_run_configs_never_raise(text):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        cfg_path = Path(tmp) / "run.cfg"
        cfg_path.write_text(text)
        code, out, err = run_main(["qlms-run", str(cfg_path),
                                   str(Path(tmp) / "out.csv")])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DIVERGED), err
    if code == EXIT_OK:
        final = float(out.split("final weight error norm:")[1])
        assert math.isfinite(final)


_NOISE_POWER = st.sampled_from([0.0, 0.01, 1e12, 1e24, 1e300, 1e308]) \
    | st.floats(0.0, 1e308)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.sampled_from(["0", "0.01", "5.0", "1e308"]),
       st.integers(1, 50), _NOISE_POWER, st.integers(0, 2 ** 32),
       st.none() | st.lists(_WEIGHT, min_size=3, max_size=3))
@example(1, "0", 50, 1e308, 1, None)  # wrote inf into 4 squared_error rows
def test_qlms_run_exit_0_writes_only_finite_values(m, mu, iterations,
                                                   noise_power, seed,
                                                   weights):
    text = (f"M={m}\nmu={mu}\niterations={iterations}\n"
            f"noise_power={noise_power!r}\nseed={seed}\n")
    if weights is not None:
        text += f"true_weights={';'.join(weights[:m])}\n"
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        cfg_path = Path(tmp) / "run.cfg"
        cfg_path.write_text(text)
        out_path = Path(tmp) / "out.csv"
        code, _, err = run_main(["qlms-run", str(cfg_path), str(out_path)])
        if code == EXIT_OK:
            se, we = read_record_csv(out_path)
            assert len(se) == len(we) == iterations
            assert all(map(math.isfinite, se + we)), text
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DIVERGED), err


# -- real process end to end -----------------------------------------------------

def test_subprocess_eval_grad_exit_codes():
    ok = run_child("-m", "quatgrad", "eval-grad", "exp", "0+0i+0j+0k")
    assert ok.returncode == EXIT_OK
    assert "d1: " in ok.stdout
    bad_point = run_child("-m", "quatgrad", "eval-grad", "exp", "zzz")
    assert bad_point.returncode == EXIT_PARSE
    domain = run_child("-m", "quatgrad", "eval-grad", "ln", "0+0i+0j+0k")
    assert domain.returncode == EXIT_DOMAIN


# what `import quatgrad` and eval-grad, answered or rejected, never load, one
# group per reason; the test named after each group checks it
# the package imports fd and qlms (and qlms's csv) on first use, and eval-grad
# uses neither; only qlms-run reads a file
_FD_AND_QLMS = ("quatgrad.fd", "quatgrad.qlms", "csv")
# numpy is imported only by the code that draws random numbers
_NUMPY = ("numpy",)
# src/ imports neither; site's start-up may import both itself
_SITE = ("pathlib", "typing")
# the records on the eval-grad path are _Records, not @dataclasses:
# dataclasses (which imports inspect, ast, dis and tokenize) loads only when
# dataclasses.fields, replace or FrozenInstanceError are used
_DATACLASSES = ("dataclasses", "inspect")
# cli._plain_eval_grad parses eval-grad's lines: argparse, and the gettext and
# locale it imports, load for --help and usage errors only
_ARGPARSE = ("argparse", "gettext", "locale")
# tanh_series rounds int / int directly; fractions (with decimal and numbers)
# is not imported
_FRACTIONS = ("fractions", "decimal", "numbers")
_NEVER_LOADED = frozenset(_FD_AND_QLMS + _NUMPY + _SITE + _DATACLASSES
                          + _ARGPARSE + _FRACTIONS)


@functools.cache
def _import_run(flags):
    """One child per flag set runs every eval-grad line, then names what of
    _NEVER_LOADED quatgrad loaded (a module site loaded before it is exempt);
    after that, --help loads argparse, validate's usage error still loads no
    numpy, and dataclasses.fields still reads a Quaternion."""
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import quatgrad, quatgrad.cli\n"
        "main = quatgrad.cli.main\n"
        "main(['eval-grad', '--side', 'right', 'exp', '--', '-.5+1i+0j+0k'])\n"
        "main(['eval-grad', 'exp', '0.3+0.4i+0j+0k'])\n"
        "main(['eval-grad', 'power:3:1+0i+0j+0k', '2+1i+0j+0k'])\n"
        "main(['eval-grad', 'exp', '1+2i+3j'])\n"
        "main(['eval-grad', 'ln', '--', '-1+0i+0j+0k'])\n"
        f"never = {_NEVER_LOADED!r}\n"
        "exempt = sorted(never & before)\n"
        "loaded = sorted(never & set(sys.modules) - before)\n"
        "print(main(['eval-grad', '--help']))\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        "main(['validate', 'algebra', '--seed', '-1'])\n"
        "print('numpy' in sys.modules)\n"
        "import dataclasses\n"
        "print(dataclasses.fields(quatgrad.Quaternion(1.0))[0].name)\n"
        "print(' '.join(exempt))\n"
        "print(' '.join(loaded))\n")
    run = run_child("-c", child, flags=flags)
    assert run.returncode == 0, run.stderr
    *out, exempt, loaded = run.stdout.splitlines()
    return types.SimpleNamespace(out=out, err=run.stderr.splitlines(),
                                 exempt=set(exempt.split()),
                                 loaded=set(loaded.split()))


@pytest.mark.parametrize("flags", [(), ("-S",)])
def test_subprocess_eval_grad_loads_none_of_the_unneeded_modules(flags):
    run = _import_run(flags)
    assert run.loaded == set()
    if "-S" in flags:  # without site nothing is loaded before quatgrad
        assert run.exempt == set()
    # three answers of five lines each, the help text, then the checks
    assert run.out[0:15:5] == ["side: right", "side: left", "side: left"]
    assert run.out[15].startswith("usage: quatgrad eval-grad")
    assert run.out[-4:] == ["0", "['argparse', 'gettext', 'locale']", "False",
                            "a"]
    assert [line.split(":")[0] for line in run.err[:2]] == [
        "parse error", "domain error"]
    assert run.err[2].startswith("usage: quatgrad validate")


def test_subprocess_eval_grad_loads_no_numpy():
    run = _import_run(())
    assert not run.loaded & set(_NUMPY)
    assert run.out[-2] == "False"  # after validate's usage error too


@pytest.mark.parametrize("flags, unused", [
    ((), _FD_AND_QLMS + _NUMPY),
    # without site, whose start-up may import pathlib and typing itself
    (("-S",), _FD_AND_QLMS + _SITE),
])
def test_subprocess_eval_grad_loads_neither_fd_nor_qlms(flags, unused):
    run = _import_run(flags)
    assert not run.loaded & set(unused)
    assert run.err[1].startswith("domain error:")


@pytest.mark.parametrize("flags", [(), ("-S",)])
def test_subprocess_eval_grad_loads_neither_dataclasses_nor_inspect(flags):
    run = _import_run(flags)
    assert not run.loaded & set(_DATACLASSES)
    assert run.out[-1] == "a"


@pytest.mark.parametrize("flags", [(), ("-S",)])
def test_subprocess_eval_grad_loads_no_argparse(flags):
    run = _import_run(flags)
    assert not run.loaded & set(_ARGPARSE)
    assert run.out[-4:-2] == ["0", "['argparse', 'gettext', 'locale']"]


def test_subprocess_cli_import_loads_no_fractions():
    assert not _import_run(()).loaded & set(_FRACTIONS)


def test_subprocess_qlms_run_stability_warning_is_one_line(tmp_path):
    # the README config: mu = 0.05 is past the guard 0.03115, yet converges
    cfg = tmp_path / "run.cfg"
    cfg.write_text(README_CONFIG)
    out = tmp_path / "out.csv"
    run = run_child("-m", "quatgrad", "qlms-run", str(cfg), str(out))
    assert run.returncode == EXIT_OK, run.stderr
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("warning: step size")
    assert "cli.py" not in run.stderr
    assert run.stdout.startswith(f"wrote {out} (2000 iterations)\n")


def test_subprocess_qlms_run_warning_as_error_is_one_line(tmp_path):
    # -W error raises the StabilityWarning: a config error, not a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text(README_CONFIG)
    out = tmp_path / "out.csv"
    run = run_child("-m", "quatgrad", "qlms-run", str(cfg), str(out),
                    flags=("-W", "error"))
    assert run.returncode == EXIT_PARSE, run.stderr
    assert "Traceback" not in run.stderr
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("config error: step size 0.05 exceeds "
                                 "the stability guard")
    assert run.stdout == "" and out.read_text() == ""


def test_subprocess_qlms_run_warning_as_error_keeps_existing_output(tmp_path):
    # the output check before the run must not empty a CSV already there
    cfg = tmp_path / "run.cfg"
    cfg.write_text(README_CONFIG)
    out = tmp_path / "out.csv"
    argv = ["-m", "quatgrad", "qlms-run", str(cfg), str(out)]
    first = run_child(*argv)
    assert first.returncode == EXIT_OK, first.stderr
    before = out.read_bytes()
    assert len(before.splitlines()) == 2001
    run = run_child(*argv, flags=("-W", "error"))
    assert run.returncode == EXIT_PARSE, run.stderr
    assert run.stderr.startswith("config error: step size 0.05 exceeds ")
    assert out.read_bytes() == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_subprocess_qlms_run_into_a_full_device_is_output_error(tmp_path):
    # the path check opens /dev/full; the CSV's write fails with ENOSPC
    cfg = tmp_path / "run.cfg"
    cfg.write_text(README_CONFIG)
    run = run_child("-m", "quatgrad", "qlms-run", str(cfg), "/dev/full")
    assert (run.returncode, run.stdout) == (EXIT_PARSE, ""), run.stderr
    assert "Traceback" not in run.stderr
    warning, error = run.stderr.splitlines()
    assert warning.startswith("warning: step size")
    assert error.startswith("output error: [Errno 28] ")


def test_subprocess_validate_and_qlms(tmp_path):
    val = run_child("-m", "quatgrad", "validate", "series")
    assert val.returncode == EXIT_OK, val.stdout + val.stderr
    cfg = tmp_path / "c.cfg"
    cfg.write_text("M=3\nmu=0.02\niterations=100\nnoise_power=0.0\nseed=5\n")
    out = tmp_path / "o.csv"
    run = run_child("-m", "quatgrad", "qlms-run", str(cfg), str(out))
    assert run.returncode == EXIT_OK, run.stdout + run.stderr
    assert out.read_text().startswith("iteration,squared_error,weight_error_norm")


def _run_into_closed_pipe(argv, unbuffered):
    """`python -m quatgrad <argv>` whose stdout is a pipe with its reading end
    closed before the child starts; stderr is captured as text."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "quatgrad", *argv], stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT,
            env={**CHILD_ENV, "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [["eval-grad", "exp", "1+0i+0j+0k"],
                                  ["validate", "algebra"]])
def test_subprocess_closed_stdout_is_output_error(argv, unbuffered):
    # the first write (unbuffered) or the flush of the buffer fails
    run = _run_into_closed_pipe(argv, unbuffered)
    assert run.returncode == EXIT_PARSE
    assert run.stderr.startswith("output error: ")
    assert run.stderr.count("\n") == 1, run.stderr


def test_subprocess_without_stdout_is_no_traceback():
    # with fd 1 closed, sys.stdout is None and print writes nothing
    run = subprocess.run(
        [sys.executable, "-m", "quatgrad", "eval-grad", "exp", "1+0i+0j+0k"],
        preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True,
        env=CHILD_ENV, timeout=CHILD_TIMEOUT)
    assert (run.returncode, run.stderr) == (EXIT_OK, "")


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [["--help"], ["eval-grad", "--help"]])
def test_subprocess_help_into_closed_stdout_is_output_error(argv, unbuffered):
    # argparse's own write of the help text drops an OSError; unbuffered,
    # that write is the one that fails, and it must reach main all the same
    run = _run_into_closed_pipe(argv, unbuffered)
    assert run.returncode == EXIT_PARSE
    assert run.stderr.startswith("output error: "), run.stderr
    assert run.stderr.count("\n") == 1, run.stderr


def test_help_goes_to_stdout_and_usage_errors_to_stderr():
    code, out, err = run_main(["--help"])
    assert (code, err) == (EXIT_OK, "") and out.startswith("usage: quatgrad")
    code, out, err = run_main(["eval-grad"])
    assert (code, out) == (EXIT_PARSE, "") and "usage: quatgrad" in err
