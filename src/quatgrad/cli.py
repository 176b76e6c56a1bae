"""Command-line front end.

Exit codes: 0 success, 1 parse error (arguments, quaternion strings,
config files, unusable output path, output that cannot be written, a closed
stdout included), 2 domain error (including results beyond the float
range), 3 validation-suite failure, 4 divergent QLMS run.
"""

import os
import re
import sys
import warnings
from types import SimpleNamespace

from .errors import NonFiniteComponent
from .hr import Side, hr_from_real
from .quaternion import Quaternion, left_sum
from .regular import Elementary

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_VALIDATION = 3
EXIT_DIVERGED = 4

# validate.SUITE_NAMES, pinned equal by a test: validate imports numpy, so
# it is imported only when the validate command runs
SUITE_NAMES = ("algebra", "rules", "series", "consistency", "fd")

# eval-grad's functions, each an Elementary; power is power:<n>[:<center>]
_FUNCTIONS = ("exp", "ln", "tanh", "power")

# a token that starts with "-" is a negative number, not a flag, where this
# matches it ("-1+0i+0j+0k", "-.5+0i+0j+0k"); the eval-grad parsers share it
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")

# eval-grad's --side words, the default first: both parsers read them
_SIDES = tuple(side.value for side in Side)


def _plain_eval_grad(argv):
    """The namespace argparse gives a plain eval-grad line, or None.

    Plain is `eval-grad`, then the function and the point, with at most one
    `--side` and one of _SIDES outside `--` and at most one `--`, right
    before the point.  Outside `--`, a token that starts with "-" must be a
    negative number.  Any other line (help, an abbreviated or `=` flag, a
    missing or extra argument) goes to argparse, which also prints the usage
    errors; an eval-grad process that is answered here never loads argparse.
    """
    if not argv or argv[0] != "eval-grad" or argv.count("--") > 1:
        return None
    args, point = list(argv[1:]), []
    if "--" in args:
        at = args.index("--")
        args, point = args[:at], args[at + 1:]
        if len(point) != 1:
            return None
    side = _SIDES[0]
    if "--side" in args:
        at = args.index("--side")
        side = args[at + 1] if at + 1 < len(args) else None
        if side not in _SIDES:
            return None
        del args[at:at + 2]
    if any(arg.startswith("-") and not _NEGATIVE_NUMBER.match(arg)
           for arg in args) or len(args + point) != 2:
        return None
    function, point = args + point
    return SimpleNamespace(command="eval-grad", function=function,
                           point=point, side=side)


def _seed(text: str) -> int:
    """An int >= 0, the seeds numpy's generators accept."""
    try:
        seed = int(text)
    except ValueError:  # argparse would name this function in its message
        seed = -1
    if seed < 0:
        from argparse import ArgumentTypeError  # argparse is calling this
        raise ArgumentTypeError(
            f"seed must be an integer >= 0, got {text!r}")
    return seed


def _build_parser():
    """The argparse parser of every command: it prints --help and the usage
    errors, and parses the lines _plain_eval_grad leaves to it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            # argparse drops an OSError of the write; main reports one on
            # stdout (--help into a closed pipe, unbuffered)
            if message and file is not None and file is sys.stdout:
                file.write(message)
            else:
                super()._print_message(message, file)

        def parse_known_args(self, args=None, namespace=None):
            # "--" after the first, or as an option's value, is a usage
            # error, not a word (3.12, 3.13) or [] (3.10, 3.11); help first
            parsed, extras = super().parse_known_args(args, namespace)
            if [] in vars(parsed).values() or (args or []).count("--") > 1:
                self.error("'--' may be given only once, and not as a value")
            return parsed, extras

    parser = _Parser(
        prog="quatgrad",
        description="Quaternion HR-gradient calculator and QLMS runner.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_eval = sub.add_parser(
        "eval-grad", help="evaluate the HR gradient of a named function")
    p_eval.add_argument("function",
                        help=" | ".join(_FUNCTIONS) + ":<n>[:<center>]")
    p_eval.add_argument("point", help="quaternion a+bi+cj+dk")
    p_eval.add_argument("--side", choices=_SIDES, default=_SIDES[0])
    # let points with a negative real part ("-1+0i+0j+0k") parse as
    # positionals instead of being mistaken for option flags
    p_eval._negative_number_matcher = _NEGATIVE_NUMBER

    p_val = sub.add_parser("validate", help="run the self-check suites")
    p_val.add_argument("suite", nargs="?", default="all",
                       choices=("all",) + SUITE_NAMES)
    p_val.add_argument("--seed", type=_seed, default=20_240_601)

    p_run = sub.add_parser("qlms-run",
                           help="run a QLMS system-identification experiment")
    p_run.add_argument("config", help="key=value config file")
    p_run.add_argument("output", help="CSV output path")
    return parser


def _parse_function(text: str) -> Elementary:
    """exp | ln | tanh | power:<n>[:<center>]; other names are rejected."""
    kind, _, rest = text.partition(":")
    if kind != "power":
        if text not in _FUNCTIONS:
            raise ValueError(f"unknown elementary function {text!r} "
                             f"(expected {', '.join(_FUNCTIONS)})")
        return getattr(Elementary, text)()
    fields = rest.split(":")
    if not fields[0] or len(fields) > 2:
        raise ValueError(f"bad power argument {text!r}, "
                         "expected power:<n>[:<center>]")
    try:
        n = int(fields[0])
    except ValueError:
        raise ValueError(f"bad power argument {text!r}: the exponent "
                         f"{fields[0]!r} is not an integer") from None
    center = Quaternion.from_string(fields[1]) if len(fields) == 2 \
        else Quaternion(0.0)
    return Elementary.power(n, center)


def _cmd_eval_grad(args) -> int:
    try:
        fn = _parse_function(args.function)
        point = Quaternion.from_string(args.point)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        grad = fn.real_gradient(point)
        h = hr_from_real(grad, Side(args.side))
    except (OverflowError, NonFiniteComponent):
        print(f"domain error: {args.function} at q = {point}: the result is "
              "beyond the float range", file=sys.stderr)
        return EXIT_DOMAIN
    except (ArithmeticError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"side: {h.side.value}")
    for label, value in zip(("d1", "dI", "dJ", "dK"), h.as_tuple()):
        print(f"{label}: {value}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    from . import validate
    names = validate.SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = validate.run_suites(names, seed=args.seed)
    all_ok = True
    for report in reports:
        for check in report.checks:
            status = "pass" if check.ok else "FAIL"
            print(f"[{report.suite}] {check.name}: {status} "
                  f"({check.passed} passed, {check.failed} failed, "
                  f"worst error {check.worst_error:.2e})")
            for line in check.lines:
                print(line)
        print(f"{report.suite}: {'PASS' if report.ok else 'FAIL'} "
              f"(worst error {report.worst_error:.2e})")
        all_ok = all_ok and report.ok
    print(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_VALIDATION


_CONFIG_KEYS = ("M", "mu", "iterations", "noise_power", "seed", "true_weights")


def load_experiment_config(path):
    """Parse a key=value config file into an ExperimentConfig.

    Required keys: M, mu, iterations, noise_power, seed.  Optional:
    true_weights as semicolon-separated quaternion strings; when omitted,
    ExperimentConfig draws them (seeded with (seed, 1)) after its checks.
    """
    from .qlms import ExperimentConfig
    # open(), not pathlib, which eval-grad would load
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    values: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = lineno, value.strip()
    missing = [k for k in _CONFIG_KEYS[:-1] if k not in values]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")

    def parse(key, kind):
        """kind(value of key); its ValueError names the key and line."""
        lineno, text = values[key]
        try:
            return kind(text)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None

    weights = None
    if "true_weights" in values:
        weights = parse("true_weights", lambda text: tuple(
            map(Quaternion.from_string, text.split(";"))))
    return ExperimentConfig(
        filter_length=parse("M", int),
        true_weights=weights,
        noise_power=parse("noise_power", float),
        step_size=parse("mu", float),
        iterations=parse("iterations", int),
        rng_seed=parse("seed", int),
    )


def _cmd_qlms_run(args) -> int:
    from . import qlms
    try:
        cfg = load_experiment_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # fail on an unusable output path before the run, not after it; append
    # mode creates a new file empty and leaves an existing one as it was
    try:
        open(args.output, "a", encoding="utf-8").close()
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # a shown StabilityWarning is one "warning: <message>" line, not
    # Python's file:line format; filters and recorders still apply
    default_format = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        record = qlms.run_system_identification(cfg)
    except qlms.StabilityWarning as exc:  # raised under -W error
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        warnings.formatwarning = default_format
    qlms.write_record_csv(record, args.output)
    print(f"wrote {args.output} ({len(record.squared_error)} iterations)")
    if record.diverged:
        print(f"diverged: weight norm past {qlms.DIVERGENCE_LIMIT:.0e} or not "
              f"finite after {len(record.squared_error)} iterations",
              file=sys.stderr)
        return EXIT_DIVERGED
    final_err_sq = left_sum((w - wt).norm_sq() for w, wt
                            in zip(record.final_weights, cfg.true_weights))
    print(f"final weight error norm: {final_err_sq ** 0.5!r}")
    return EXIT_OK


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _plain_eval_grad(argv) or _build_parser().parse_args(argv)
            code = {"eval-grad": _cmd_eval_grad, "validate": _cmd_validate,
                    "qlms-run": _cmd_qlms_run}[args.command](args)
        except SystemExit as exc:  # argparse: --help 0, a usage error 2
            code = EXIT_PARSE if exc.code else EXIT_OK
        if sys.stdout is not None:  # None when fd 1 is closed: no output
            sys.stdout.flush()  # a closed pipe shows here, not at exit
    except OSError as exc:  # a closed stdout or a failed write
        if isinstance(exc, BrokenPipeError):
            # what is still buffered is flushed at exit, to nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
