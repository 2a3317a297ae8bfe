"""Random argv over every command: each run ends in a documented exit code.

`cli.run()` runs in process on argv drawn from each command's flags, a few
unknown ones and values both sensible and not.  Sizes are capped so a run
stays small: --n-max <= 60, --count <= 200, --n <= 40, --a <= 12.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from betawords import cli as cli_module

EXIT_CODES = {0, 1, 2, 3, 4}

JUNK = ["", "x", "-", "--", "1.5", "nan", "()", "-0", " 3 ", "-7", "--help=1",
        "--help=", "-x=1"]


def ints(low, high):
    return st.integers(low, high).map(str)


DIGITS = st.one_of(
    st.sampled_from(["3 (1)", "4 (2)", "3 1 (2)", "3 (2 1)", "2 1 (1)",
                     "3 (0)", "(2 1)", "3 (", "3 (3)", "0 (1)", "2 (1)"]),
    st.builds(lambda pre, per: " ".join(map(str, pre))
              + " (" + " ".join(map(str, per)) + ")",
              st.lists(st.integers(0, 4), max_size=2),
              st.lists(st.integers(0, 3), min_size=1, max_size=2)),
)
# (a, b) with a-1 >= b >= 1 about half the time, any pair otherwise
PAIRS = st.one_of(
    st.integers(2, 12).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(1, a - 1))),
    st.tuples(st.integers(-1, 12), st.integers(-1, 12)),
)
X_VALUES = st.one_of(
    st.sampled_from(["0", "1", "3", "7.25", "0.5", "1/3", "-1", "inf",
                     "1e3", "abc", "3/0"]),
    st.floats(0, 1000, allow_nan=False).map(repr),
)
VALUES = {
    "--a-max": ints(-1, 8),
    "--n-max": ints(-2, 60),
    "--n": ints(-3, 40),
    "--digits": DIGITS,
    "--length": ints(-2, 300),
    "--tower-depth": ints(-2, 40),
    "--branch-budget": ints(-2, 600),
    "--x": X_VALUES,
    "--digit-count": ints(-2, 40),
    "--precision": ints(-2, 80),
    "--count": ints(-2, 200),
    "--format": st.sampled_from(["text", "json", "csv"]),
}
COMMANDS = {
    "analyze": ["--a", "--b", "--n-max", "--format"],
    "verify": ["--a-max", "--n-max", "--digits", "--format"],
    "word": ["--a", "--b", "--digits", "--length", "--format"],
    "specials": ["--a", "--b", "--n", "--tower-depth", "--format"],
    "palindromes": ["--a", "--b", "--n", "--branch-budget", "--format"],
    "parry-check": ["--digits", "--format"],
    "beta-expand": ["--a", "--b", "--x", "--digit-count", "--format"],
    "beta-integers": ["--a", "--b", "--digits", "--count", "--precision",
                      "--format"],
}


@st.composite
def argvs(draw):
    """A command and most of its flags, each value junk one time in eight,
    sometimes with one stray token, which may be junk too."""
    command = draw(st.sampled_from([*COMMANDS, "bogus-command"]))
    a, b = draw(PAIRS)
    values = {**VALUES, "--a": st.just(str(a)), "--b": st.just(str(b))}
    argv = [command]
    for flag in COMMANDS.get(command, []):
        if draw(st.integers(0, 7)):
            junk = draw(st.integers(0, 7)) == 0
            argv += [flag, draw(st.sampled_from(JUNK) if junk else values[flag])]
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(st.sampled_from(["--help", "extra", "--a", "--bogus",
                                          *JUNK])))
    return argv


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "argv", ["betawords", *argv])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli_module.run()
                code = 0
            except SystemExit as stop:
                code = stop.code
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
# x = 3/0 reaches the expansion only with a valid point and counts, which
# the draw above rarely makes
@example(["beta-expand", "--a", "3", "--b", "1", "--x", "3/0"])
def test_random_argv_exits_with_a_documented_code(argv):
    code, err = run_cli(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


def test_fuzz_sees_a_traceback():
    # an exception the CLI does not map escapes run(), which the fuzz reports
    with pytest.raises(ZeroDivisionError), pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli_module, "FactorLanguage", lambda substitution: 1 / 0)
        run_cli(["analyze", "--a", "3", "--b", "1"])
