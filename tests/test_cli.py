import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from mpf_reference import beta_integers, beta_of_renyi, unity_defect
from mpmath import mpf, nstr
from test_beta_numeration import brute_force_integers
from test_cli_fuzz import COMMANDS

from betawords import QuadraticParams, RenyiExpansion
from betawords import beta_numeration
from betawords import cli as cli_module
from betawords import complexity as complexity_module
from betawords import palindromes as palindromes_module
from betawords.language import FactorLanguage
from betawords.substitution import Substitution

# the children import the package these tests import, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(cli_module.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def cli(*args, preexec_fn=None):
    return subprocess.run(
        [sys.executable, "-m", "betawords.cli", *args],
        capture_output=True, text=True, env=CHILD_ENV, preexec_fn=preexec_fn,
    )


def limit_address_space(megabytes=800):
    """In the child: at most 800 MB of address space, or `megabytes`, so that
    a command that builds a huge word fails at once instead of using up the
    host's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (megabytes * 2 ** 20,) * 2)


def assert_rows_agree(argv, megabytes):
    """`analyze` exits 0 under `megabytes` of address space, with a row for
    each n up to its --n-max (20 by default) and agree = yes on every one."""
    result = cli(*argv, preexec_fn=lambda: limit_address_space(megabytes))
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()
    n_max = int(argv[argv.index("--n-max") + 1]) if "--n-max" in argv else 20
    assert rows[0] == "n,C,deltaC,P,agree" and len(rows) == n_max + 1
    assert all(row.endswith(",yes") for row in rows[1:])


class TestAnalyze:
    def test_text_table(self):
        result = cli("analyze", "--a", "3", "--b", "1", "--n-max", "12")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "n,C,deltaC,P,agree"
        assert lines[1] == "1,2,1,2,yes"
        assert lines[2] == "2,3,2,1,yes"
        assert len(lines) == 13

    def test_json_payload(self):
        result = cli("analyze", "--a", "3", "--b", "1", "--n-max", "5",
                     "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["schema"] == 1
        assert payload["a"] == 3 and payload["b"] == 1
        assert not payload["sturmian"]
        assert [r["C"] for r in payload["rows"]] == [2, 3, 5, 6, 7]

    def test_sturmian_rows_agree(self):
        # the boundary b = a-1 is checked like any other point: C(n) = n+1,
        # and P(n) is 1 at even n and 2 at odd n
        for a in (2, 3, 6):
            result = cli("analyze", "--a", str(a), "--b", str(a - 1),
                         "--n-max", "30")
            assert result.returncode == 0, a
            assert result.stdout.splitlines() == ["n,C,deltaC,P,agree"] + [
                f"{n},{n + 1},1,{1 + n % 2},yes" for n in range(1, 31)], a

    def test_csv_format(self):
        result = cli("analyze", "--a", "4", "--b", "2", "--n-max", "4",
                     "--format", "csv")
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "n,C,deltaC,P,agree"

    def test_missing_b_is_usage_error(self):
        result = cli("analyze", "--a", "3")
        assert result.returncode == 2
        assert "usage error" in result.stderr

    def test_invalid_params_exit_2(self):
        result = cli("analyze", "--a", "3", "--b", "3")
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_deterministic_output(self):
        first = cli("analyze", "--a", "4", "--b", "1", "--n-max", "15",
                    "--format", "json")
        second = cli("analyze", "--a", "4", "--b", "1", "--n-max", "15",
                     "--format", "json")
        assert first.stdout == second.stdout

    def test_images_past_the_window_bound_are_never_built(self):
        # phi^2(0) of (9999, 1) has about 10^8 letters, past the window
        # bound, but its runs are cut to the copies that hold n-1 letters
        # more than one copy: the windows hold 170 K letters
        assert_rows_agree(["analyze", "--a", "9999", "--b", "1",
                           "--n-max", "10000"], 256)


class TestVerify:
    def test_small_grid_passes(self):
        result = cli("verify", "--a-max", "4", "--n-max", "40")
        assert result.returncode == 0
        assert "passed 3/3 parameter points" in result.stdout

    def test_json_grid(self):
        result = cli("verify", "--a-max", "3", "--n-max", "30",
                     "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["schema"] == 1
        assert payload["failed"] == 0
        point = payload["points"][0]
        assert point["a"] == 3 and point["b"] == 1
        assert all(point["checks"].values())

    def test_json_grid_at_n_960(self):
        result = cli("verify", "--a-max", "4", "--n-max", "960",
                     "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert (payload["n_max"], payload["passed"], payload["failed"]) == \
            (960, 3, 0)
        assert all(all(p["checks"].values()) for p in payload["points"])

    def test_digits_text_claims_nothing_past_its_window(self):
        # P(61) = P(63) = 3 for 3 (1), so the 60-letter window must say so
        result = cli("verify", "--digits", "3 (1)", "--n-max", "100")
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == \
            "longest palindrome up to length 60: 59"
        assert "beyond" not in result.stdout

    def test_digits_json_names_its_window(self):
        result = cli("verify", "--digits", "3 (1)", "--n-max", "100",
                     "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["window"] == 60
        assert len(payload["palindrome_counts"]) == 61

    def test_digits_at_the_largest_n_max_stay_in_the_window(self):
        # the images of 3 0 0 0 (0 1) grow slowly: its windows for n = 10^5 + 2
        # hold 29.4 million letters, past the window bound, so a window tied
        # to --n-max would exit 2 on valid digits
        result = cli("verify", "--digits", "3 0 0 0 (0 1)", "--n-max",
                     str(cli_module.MAX_TABLE_LENGTH), "--format", "json",
                     preexec_fn=limit_address_space)
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout)["window"] == 60

    def test_digits_probe(self):
        result = cli("verify", "--digits", "2 1 (1)", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["reversal_witness"] == "102"
        assert payload["closed_up_to"] == 2
        assert payload["last_palindrome_length"] == 6
        assert all(c == 0 for c in payload["palindrome_counts"][7:])


class TestWord:
    def test_prefix(self):
        result = cli("word", "--a", "3", "--b", "1", "--length", "14")
        assert result.returncode == 0
        assert result.stdout.strip() == "00010001000101"

    def test_digits_input(self):
        result = cli("word", "--digits", "2 1 (1)", "--length", "10",
                     "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert len(payload["word"]) == 10
        assert payload["word"].startswith("001")

    def test_both_inputs_rejected(self):
        result = cli("word", "--a", "3", "--b", "1", "--digits", "3 (1)")
        assert result.returncode == 2

    def test_long_images_build_no_image_past_the_prefix(self):
        # u starts with phi^3(0) = phi^2(0)^1000 phi^2(1), and |phi^2(0)| is
        # 1,001,002: the image phi^3(0), 10^9 letters, is never built
        result = cli("word", "--a", "1000", "--b", "1", "--length", "10000000",
                     preexec_fn=limit_address_space)
        assert (result.returncode, result.stderr) == (0, "")
        square = ("0" * 1000 + "1") * 1000 + "01"
        assert result.stdout == (square * 10)[: 10 ** 7] + "\n"


class TestSpecials:
    def test_text_output(self):
        result = cli("specials", "--a", "3", "--b", "1", "--n", "2",
                     "--tower-depth", "3")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "left special (2): 00 01"
        assert lines[1] == "U lengths: 2 11 41"
        assert lines[2] == "V lengths: 1 7 27"
        assert "V(2) = 0100010" in lines

    def test_tower_depth_zero_prints_no_tower_words(self):
        result = cli("specials", "--a", "3", "--b", "1", "--n", "2",
                     "--tower-depth", "0")
        assert result.returncode == 0
        assert result.stdout.splitlines()[1:] == ["U lengths: ", "V lengths: "]

    def test_json_words_capped_at_64(self):
        result = cli("specials", "--a", "3", "--b", "1", "--n", "1",
                     "--tower-depth", "6", "--format", "json")
        payload = json.loads(result.stdout)
        assert all(len(w) <= 64 for w in payload["u_words"])
        assert len(payload["u_lengths"]) == 6


# Runs a command and prints its exit code and peak RSS in KiB.  The command
# is spawned from this small process: a child's ru_maxrss starts at the peak
# of the process it was spawned from, so one spawned straight from the test
# runner would read the runner's peak.
PEAK_RSS_CHILD = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_specials_at_n_3000_stays_under_64_mb():
    result = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, sys.executable, "-m",
         "betawords.cli", "specials", "--a", "3", "--b", "1", "--n", "3000"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr
    code, peak_kib = map(int, result.stdout.split())
    assert code == 0
    assert peak_kib < 64 * 1024


def test_specials_length_past_its_bound_exits_2_before_any_factor(monkeypatch, capsys):
    def no_specials(*args):
        raise AssertionError("left_special_factors ran")

    monkeypatch.setattr(FactorLanguage, "left_special_factors", no_specials)
    code, out = _run_in_process(
        monkeypatch, capsys, "specials", "--a", "3", "--b", "1",
        "--n", str(cli_module.MAX_FACTOR_LENGTH + 1))
    assert (code, out.out) == (2, "")
    assert out.err == ("usage error: Invalid value for '--n': 100001 "
                       "is not in the range 0<=x<=100000.\n")


def test_palindromes_length_past_its_bound_exits_2_before_any_eertree(
        monkeypatch, capsys):
    def no_eertree(*args):
        raise AssertionError("eertree ran")

    monkeypatch.setattr(FactorLanguage, "_eertree", no_eertree)
    code, out = _run_in_process(
        monkeypatch, capsys, "palindromes", "--a", "3", "--b", "1",
        "--n", str(cli_module.MAX_FACTOR_LENGTH + 1))
    assert (code, out.out) == (2, "")
    assert out.err == ("usage error: Invalid value for '--n': 100001 "
                       "is not in the range 0<=x<=100000.\n")


class TestPalindromes:
    def test_length_three(self):
        result = cli("palindromes", "--a", "3", "--b", "1", "--n", "3",
                     "--format", "json")
        payload = json.loads(result.stdout)
        words = [r["word"] for r in payload["palindromes"]]
        assert words == ["000", "010", "101"]
        assert payload["branches"][0]["center"] == "0"
        assert payload["branches"][0]["verified"]

    def test_text_header(self):
        result = cli("palindromes", "--a", "3", "--b", "1", "--n", "4")
        assert result.stdout.splitlines()[0] == "P(4) = 0"

    def test_zero_budget_verifies_no_branch(self):
        result = cli("palindromes", "--a", "3", "--b", "1", "--n", "2",
                     "--branch-budget", "0", "--format", "json")
        assert result.returncode == 0
        assert [(s["verified"], s["materialized"])
                for s in json.loads(result.stdout)["branches"]] == [(False, 0)]

    def test_large_a_builds_no_whole_block(self):
        # the palindromes of length 2, read at n + 2 = 4, need blocks
        # phi^2(c), joined from phi(c); the branch words, up to the default
        # budget of 2000 letters, are found in a prefix of u, with no windows
        result = cli("palindromes", "--a", "500", "--b", "1", "--n", "2",
                     preexec_fn=limit_address_space)
        assert (result.returncode, result.stderr) == (0, "")

    # searched in the windows for their lengths, the branch words at (14, 1)
    # needed an image phi^(k-1)(0) past 10^8 letters; each is now found where
    # it occurs in one prefix of u
    @pytest.mark.parametrize("a", [14, 15])
    def test_largest_branch_budget(self, a):
        result = cli("palindromes", "--a", str(a), "--b", "1", "--n", "5",
                     "--branch-budget", "10000000", "--format", "json",
                     preexec_fn=limit_address_space)
        assert (result.returncode, result.stderr) == (0, "")
        branches = json.loads(result.stdout)["branches"]
        assert branches and all(s["verified"] for s in branches)


class TestParryCheck:
    def test_valid(self):
        result = cli("parry-check", "--digits", "3 (1)", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["valid"] and payload["violating_shift"] is None
        assert payload["minimal"]

    def test_invalid_exits_4(self):
        result = cli("parry-check", "--digits", "2 (2)")
        assert result.returncode == 4
        assert "invalid" in result.stdout

    def test_non_minimal_flagged(self):
        result = cli("parry-check", "--digits", "2 1 (1)", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["valid"] and not payload["minimal"]

    def test_garbage_digits_exit_2(self):
        result = cli("parry-check", "--digits", "banana")
        assert result.returncode == 2


class TestBetaExpand:
    def test_one(self):
        result = cli("beta-expand", "--a", "3", "--b", "1", "--x", "1",
                     "--digit-count", "4")
        assert result.returncode == 0
        assert result.stdout.strip() == "1.000"

    def test_three(self):
        result = cli("beta-expand", "--a", "3", "--b", "1", "--x", "3",
                     "--digit-count", "3", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["digits"][0] == 3
        assert payload["exponent"] == 0

    def test_negative_exit_2(self):
        result = cli("beta-expand", "--a", "3", "--b", "1", "--x", "-2")
        assert result.returncode == 2

    @pytest.mark.parametrize("x, code, out, err", [
        ("1e99999999", 2, "", "usage error: Invalid value for '--digit-count'"),
        ("1e-99999999", 0, "0.000000000000000\n", "")])
    def test_huge_decimal_exponent_answers_at_once(self, x, code, out, err):
        # the exponent alone decides: x is never built
        result = subprocess.run(
            [sys.executable, "-m", "betawords.cli", "beta-expand", "--a", "3",
             "--b", "1", "--x", x, "--digit-count", "16"],
            capture_output=True, text=True, env=CHILD_ENV, timeout=5)
        assert (result.returncode, result.stdout) == (code, out)
        assert result.stderr.startswith(err) and "Traceback" not in result.stderr


def test_digit_count_past_its_bound_exits_2_before_any_digit(monkeypatch, capsys):
    def no_digits(*args):
        raise AssertionError("beta_expand ran")

    monkeypatch.setattr(cli_module, "beta_expand", no_digits)
    code, out = _run_in_process(
        monkeypatch, capsys, "beta-expand", "--a", "3", "--b", "1", "--x", "3",
        "--digit-count", str(cli_module.MAX_DIGIT_COUNT + 1))
    assert (code, out.out) == (2, "")
    assert out.err == ("usage error: Invalid value for '--digit-count': 1000001 "
                       "is not in the range 1<=x<=1000000.\n")


def test_beta_expand_takes_no_precision(monkeypatch, capsys):
    # its digits are exact, so a precision has nothing to set
    code, out = _run_in_process(
        monkeypatch, capsys, "beta-expand", "--a", "3", "--b", "1", "--x",
        "7.25", "--precision", "5")
    assert (code, out.out) == (2, "")
    assert out.err == "usage error: No such option '--precision'.\n"


class TestBetaIntegers:
    def test_gap_letters(self):
        result = cli("beta-integers", "--a", "3", "--b", "1", "--count", "5",
                     "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["gap_letters"] == "0001"
        assert payload["values"][0] == "0.0"
        assert payload["values"][1] == "1.0"

    def test_text_output(self):
        result = cli("beta-integers", "--a", "3", "--b", "1", "--count", "3")
        assert result.returncode == 0
        assert result.stdout.splitlines()[1].startswith("gaps: ")

    def test_precision_defaults_to_the_most_digits_shown(self):
        result = cli("beta-integers", "--help")
        assert result.returncode == 0
        # the help wraps the bracket across two lines
        assert "[default: 12; x>=2]" in " ".join(result.stdout.split())


class TestTopLevel:
    def test_help(self):
        result = cli("--help")
        assert result.returncode == 0
        for name in ("analyze", "verify", "word", "specials", "palindromes",
                     "parry-check", "beta-expand", "beta-integers"):
            assert name in result.stdout

    def test_unknown_command(self):
        result = cli("frobnicate")
        assert result.returncode == 2


def _outcome(monkeypatch, capsys, *argv):
    """Exit code, stdout and stderr of `betawords ARGV` run in process."""
    monkeypatch.setattr(sys, "argv", ["betawords", *argv])
    try:
        cli_module.run()
        code = 0
    except SystemExit as stop:
        code = stop.code
    out = capsys.readouterr()
    return code, out.out, out.err


# the command line the CLI accepts: each of these is a usage error
@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["analyze", "--a"],
    ["analyze", "--a", "x", "--b", "1"],
    ["analyze", "--a", "3", "--b", "1", "extra"],
    ["analyze", "--a", "3", "--b", "1", "--bogus"],
    # options are never abbreviated
    ["analyze", "--a", "3", "--b", "1", "--n-m", "3"],
    # help is --help only
    ["analyze", "--a", "3", "--b", "1", "-h"],
    ["-h"],
    ["analyze", "--a", "3", "--b", "1", "--format", "xml"],
    # each size option has an upper bound
    ["analyze", "--a", "3", "--b", "1",
     "--n-max", str(cli_module.MAX_TABLE_LENGTH + 1)],
    ["verify", "--n-max", str(cli_module.MAX_TABLE_LENGTH + 1)],
    ["word", "--a", "3", "--b", "1",
     "--length", str(cli_module.MAX_WORD_LENGTH + 1)],
    ["palindromes", "--a", "3", "--b", "1", "--n", "2",
     "--branch-budget", str(cli_module.MAX_BRANCH_BUDGET + 1)],
    ["beta-integers", "--a", "3", "--b", "1",
     "--count", str(cli_module.MAX_BETA_INTEGER_COUNT + 1)],
], ids=lambda argv: " ".join(argv) or "no command")
def test_bad_command_line_is_a_usage_error(monkeypatch, capsys, argv):
    code, out, err = _outcome(monkeypatch, capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and "Traceback" not in err


# each input is read once, in its option: a value the option cannot read is
# a usage error there; a value it reads that the command cannot take exits 2
DOMAIN_ERRORS = [
    (["verify", "--a-max", str(cli_module.MAX_A + 1)],
     "usage error: Invalid value for '--a-max': 16 is not in the range "
     "3<=x<=15.\n"),
    (["word", "--digits", "x"],
     "usage error: Invalid value for '--digits': cannot parse Renyi digits: "
     "'x'\n"),
    (["parry-check", "--digits", "0 (1)"],
     "usage error: Invalid value for '--digits': t_1 = floor(beta) must be "
     ">= 1\n"),
    # csv is analyze's alone
    (["word", "--a", "3", "--b", "1", "--format", "csv"],
     "usage error: Invalid value for '--format': 'csv' is not one of 'text', "
     "'json'.\n"),
    (["--"], "usage error: Missing command.\n"),
    (["word", "--a", "3", "--b", "1", "--length", "-1"],
     "usage error: Invalid value for '--length': -1 is not in the range "
     "0<=x<=10000000.\n"),
    (["beta-integers", "--a", "3", "--b", "1", "--count", "1"],
     "usage error: Invalid value for '--count': 1 is not in the range "
     "2<=x<=1000000.\n"),
    (["beta-expand", "--a", "3", "--b", "1", "--x", "3", "--digit-count", "0"],
     "usage error: Invalid value for '--digit-count': 0 is not in the range "
     "1<=x<=1000000.\n"),
]


@pytest.mark.parametrize("argv, err", DOMAIN_ERRORS,
                         ids=[" ".join(argv) for argv, _ in DOMAIN_ERRORS])
def test_input_outside_its_domain_exits_2(monkeypatch, capsys, argv, err):
    assert _outcome(monkeypatch, capsys, *argv) == (2, "", err)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no limit on the digits of an int read from a str")
def test_digits_past_the_int_limit_are_a_usage_error(monkeypatch, capsys):
    # int's ValueError past its digit limit is the option's to report too
    digits = "1" * (sys.get_int_max_str_digits() + 1) + " (1)"
    code, out, err = _outcome(monkeypatch, capsys, "parry-check", "--digits",
                              digits)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: Invalid value for '--digits': "
                          "Exceeds the limit")


def test_option_value_forms(monkeypatch, capsys):
    spaced = _outcome(monkeypatch, capsys, "analyze", "--a", "4", "--b", "1",
                      "--n-max", "6")
    assert spaced[0] == 0 and spaced[1].startswith("n,C,deltaC,P,agree\n")
    assert _outcome(monkeypatch, capsys, "analyze", "--a=4", "--b=1",
                    "--n-max=6") == spaced
    # a repeated option's last value wins
    assert _outcome(monkeypatch, capsys, "analyze", "--a", "3", "--a", "4",
                    "--b", "1", "--n-max", "9", "--n-max", "6") == spaced


def test_ctrl_c_exits_2(monkeypatch, capsys):
    def interrupt(substitution):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "FactorLanguage", interrupt)
    assert _outcome(monkeypatch, capsys, "analyze", "--a", "3", "--b", "1") \
        == (2, "", "\n")


def test_help_lists_every_command_and_option(monkeypatch, capsys):
    code, out, err = _outcome(monkeypatch, capsys, "--help")
    assert (code, err) == (0, "")
    assert all(name in out for name in COMMANDS)
    for name, flags in COMMANDS.items():
        code, out, err = _outcome(monkeypatch, capsys, name, "--help")
        assert (code, err) == (0, ""), name
        listed = {line.split()[0] for line in out.splitlines()
                  if line.startswith("  --")}
        assert listed == {*flags, "--help"}, name


@pytest.mark.parametrize("argv", [
    ["specials", "--a", "3", "--b", "1", "--n", "-1"],
    ["specials", "--a", "3", "--b", "1", "--n", "2", "--tower-depth", "-1"],
    ["beta-expand", "--a", "3", "--b", "1", "--x", "abc"],
    ["beta-expand", "--a", "3", "--b", "1", "--x", "nan"],
    ["beta-expand", "--a", "3", "--b", "1", "--x", "inf"],
    ["beta-expand", "--a", "3", "--b", "1", "--x", "3/0"],
    ["analyze", "--a", "3", "--b", "1", "--n-max", "-5"],
    ["analyze", "--a", "3", "--b", "1", "--n-max", "0"],
    ["verify", "--a-max", "2"],
    # a digit above floor(beta) = 3 used to come out at precision 0; now
    # beta-expand takes no --precision
    ["beta-expand", "--a", "3", "--b", "1", "--x", "3", "--precision", "0"],
    ["beta-integers", "--a", "3", "--b", "1", "--precision", "1"],
    # 100 has k = 3, so three digits would drop the place values
    ["beta-expand", "--a", "3", "--b", "1", "--x", "100", "--digit-count", "3"],
    # lengths past Python's 4300-digit limit on int-to-str conversion
    ["specials", "--a", "3", "--b", "1", "--n", "1", "--tower-depth", "100000"],
    ["palindromes", "--a", "3", "--b", "1", "--n", "2", "--branch-budget", "-1"],
    ["palindromes", "--a", "5", "--b", "2", "--n", "2", "--branch-budget", "-7"],
    # purely periodic digits: sigma^p(t) = t, so they fail the Parry criterion
    ["beta-integers", "--digits", "(3 1)"],
    ["word", "--digits", "(2 1)"],
    # windows past MAX_WINDOW_LETTERS, refused from the cut sizes: a chain of
    # single-letter images grows slowly, so the 60-letter window of
    # `verify --digits` needs 6.4 billion letters here
    ["verify", "--digits", "2" + " 0" * 24 + " (1)"],
    # images of 10^10 letters, and of t with 4300 digits, are read as their
    # runs, but the bounds on what a command prints or reads still hold
    ["word", "--digits", "10000000000 (1)", "--length", "10000001"],
    ["verify", "--digits", "9" * 4300 + " 0" * 24 + " (1)"],
    ["analyze", "--a", "9" * 4300, "--b", "1", "--n-max", "100001"],
    # 75 and 537 million window letters for n = 60
    ["verify", "--digits", "3" + " 0" * 16 + " (0 1)"],
    ["verify", "--digits", "2" + " 0" * 20 + " (1 1)", "--format", "json"],
])
def test_outside_input_exits_2_without_traceback(argv):
    result = cli(*argv, preexec_fn=limit_address_space)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr


# the images fit under the window bound but the windows do not: 403 and 19
# million letters for n = 60, refused from the cut sizes before any block is
# joined
@pytest.mark.parametrize("argv", [
    ["verify", "--digits", "2" + " 0" * 20 + " (1)"],
    ["verify", "--digits", "3" + " 0" * 14 + " (0 1)", "--format", "json"],
])
def test_windows_past_the_bound_exit_2_in_little_memory(argv):
    result = cli(*argv, preexec_fn=lambda: limit_address_space(44))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "the windows are past the bound" in result.stderr


# once refused at the window bound: the windows copied phi^(k-1)(0) whole,
# 27 million letters at (3000, 1) for n = 3006 and at (300, 1) for
# n = 10^5 + 3.  Each run of phi(c) is now cut, at every level, to the
# copies that hold n-1 letters more than one copy, so the windows of a
# quadratic input hold at most 1.7 million letters
@pytest.mark.parametrize("argv, megabytes", [
    (["analyze", "--a", "3000", "--b", "1", "--n-max", "3005"], 44),
    (["analyze", "--a", "20000", "--b", "1", "--n-max", "30000"], 800),
    (["analyze", "--a", "300", "--b", "1", "--n-max", "100000"], 800),
    # phi(0) = 0^99999999 1 is held as its two runs, and never written out
    (["analyze", "--a", "99999999", "--b", "1"], 44),
])
def test_windows_of_large_a_answer_under_the_memory_limit(argv, megabytes):
    assert_rows_agree(argv, megabytes)


def cli_small(*args):
    """The command's result in a child with 44 MiB of address space."""
    return cli(*args, preexec_fn=lambda: limit_address_space(44))


# once refused at the bound of 10^8 letters on an image, which no image is
# built to any more: phi(0) = 0^t 1 is the runs 0^t and 1, so each command
# builds only the letters it prints or reads
@pytest.mark.parametrize("argv, out", [
    (["word", "--digits", "10000000000 (1)", "--length", "5"], "00000\n"),
    # t has 4300 digits, Python's limit on an int read from a str
    (["word", "--a", "9" * 4300, "--b", "1", "--length", "3"], "000\n"),
], ids=["t-of-11-digits", "t-of-4300-digits"])
def test_words_of_images_past_10_8_letters_answer_in_little_memory(argv, out):
    result = cli_small(*argv)
    assert (result.returncode, result.stdout, result.stderr) == (0, out, "")


def test_analyze_with_a_of_4300_digits_answers_in_little_memory():
    assert_rows_agree(["analyze", "--a", "9" * 4300, "--b", "1"], 44)


# each wrote phi(0) = 0^99999999 1 out whole, or the start word of a tower,
# 0^99999998 or 0^99999997, and ended in a MemoryError under 44 MiB.  Up to
# the lengths they read, each answers as a small-a twin does, or as the
# closed form says
@pytest.mark.parametrize("b, twin", [(1, (30, 1)), (99999997, (30, 28))])
def test_analyze_of_large_a_reads_as_its_small_twin(b, twin):
    result = cli_small("analyze", "--a", "99999999", "--b", str(b))
    assert result.returncode == 0, result.stderr
    assert result.stdout == cli("analyze", "--a", str(twin[0]),
                                "--b", str(twin[1]), "--n-max", "20").stdout


def test_palindromes_of_large_a_and_b_read_as_their_small_twin():
    # no branch word fits the default budget of 2000 letters, so the twin
    # of the same parities verifies none either, with a budget of 0
    result = cli_small("palindromes", "--a", "99999999", "--b", "99999997",
                       "--n", "2")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == cli("palindromes", "--a", "31", "--b", "29", "--n",
                                "2", "--branch-budget", "0").stdout
    assert result.stdout.startswith("P(2) = 1\n  00  center=e ext=0\n")


def test_specials_of_large_a_and_b_print_the_tower_lengths():
    a, b = 99999999, 99999997
    result = cli_small("specials", "--a", str(a), "--b", str(b), "--n", "5",
                       "--format", "json")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    # two 1s are at least b letters apart, so 0^5 is the one left special
    assert payload["left_special"] == ["00000"]
    assert payload["u_words"] == payload["v_words"] == []
    # |T(w)| = 2b + 1 + (a+1)|w|_0 + (b+1)|w|_1, where |T(w)|_1 = |w| + 1
    for key, first in (("u_lengths", a - 1), ("v_lengths", b)):
        lengths, ones = [first], 0
        while len(lengths) < 8:
            zeros = lengths[-1] - ones
            lengths.append(2 * b + 1 + (a + 1) * zeros + (b + 1) * ones)
            ones = zeros + ones + 1
        assert payload[key] == [str(n) for n in lengths], key


def test_beta_integers_of_large_t1_read_as_their_small_twin():
    # beta > 10^8, so the first ten beta-integers are 0 .. 9, as for 30 (1)
    result = cli_small("beta-integers", "--digits", "99999999 (1)", "--count", "10")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == ("0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0\n"
                             "gaps: 000000000\n")
    assert result.stdout == cli("beta-integers", "--digits", "30 (1)",
                                "--count", "10").stdout


def test_verify_digits_of_large_t1_read_as_their_small_twin():
    result = cli_small("verify", "--digits", "99999999 (1)", "--n-max", "60",
                       "--format", "json")
    assert result.returncode == 0, result.stderr
    twin = json.loads(cli("verify", "--digits", "100 (1)", "--n-max", "60",
                          "--format", "json").stdout)
    assert json.loads(result.stdout) == {**twin, "digits": "99999999 (1)"}


# a period of 1,000 ones, so 1,001 letters: the images the prefix is read
# from hold at most 10^7 letters in all, where each letter's image once
# grew to near 10^7 letters and the command ran out of memory
def test_word_of_a_large_alphabet_answers_under_the_memory_limit():
    digits = "2 (" + " ".join(["1"] * 1000) + ")"
    result = cli("word", "--digits", digits, "--length", "10000000",
                 preexec_fn=lambda: limit_address_space(400))
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert len(result.stdout) == 10 ** 7 + 1 and result.stdout.endswith("\n")


def test_word_of_large_t1_prints_its_first_run():
    result = cli_small("word", "--digits", "99999999 3 (1)", "--length", "20")
    assert (result.returncode, result.stdout, result.stderr) == (0, "0" * 20 + "\n", "")


# the left special factors of length n are C(n+1) - C(n) = Delta C(n+1) in
# number; (41, 1) at n = 10^5 took 925 MB when the windows copied
# phi^(k-1)(0) whole, and (3100, 1) at n = 3105 was refused
@pytest.mark.parametrize("a, n, megabytes", [(3100, 3105, 44), (41, 100000, 400)])
def test_large_a_specials_answer_under_the_memory_limit(a, n, megabytes):
    result = cli("specials", "--a", str(a), "--b", "1", "--n", str(n),
                 "--format", "json",
                 preexec_fn=lambda: limit_address_space(megabytes))
    assert result.returncode == 0, result.stderr
    params = QuadraticParams(a, 1)
    assert len(json.loads(result.stdout)["left_special"]) == \
        complexity_module.closed_form_delta_c(params, n + 1)[n]


def test_large_a_palindromes_answer_under_the_memory_limit():
    result = cli("palindromes", "--a", "5000", "--b", "1", "--n", "5002",
                 preexec_fn=limit_address_space)
    assert result.returncode == 0, result.stderr
    params = QuadraticParams(5000, 1)
    assert result.stdout.splitlines()[0] == \
        f"P(5002) = {palindromes_module.closed_form_p(params, 5002)[5002]}"


# mpmath is no runtime dependency: a fresh interpreter imports the package
# and runs every command without loading it, and every command still runs
# when the child is first made unable to import it
IMPORT_CHILD = """
import contextlib, io, json, sys
if sys.argv[1:] == ["blocked"]:
    sys.modules["mpmath"] = None
import betawords
from betawords import cli

def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(args)
    return out.getvalue()

def loaded():
    return sys.modules.get("mpmath") is not None

report = {"after_import": loaded()}
run("verify", "--a-max", "4", "--n-max", "10")
run("verify", "--digits", "3 (2 1)", "--n-max", "20")
run("analyze", "--a", "3", "--b", "1", "--n-max", "8")
run("word", "--a", "3", "--b", "1", "--length", "20")
run("specials", "--a", "3", "--b", "1", "--n", "2")
run("palindromes", "--a", "3", "--b", "1", "--n", "3")
run("parry-check", "--digits", "3 1 (2)")
report["after_combinatorial"] = loaded()
report["beta_integers"] = json.loads(run(
    "beta-integers", "--a", "3", "--b", "1", "--count", "5", "--format", "json"))
run("beta-integers", "--digits", "4 1 1 (2 1)", "--count", "3000")
report["after_beta_integers"] = loaded()
report["beta_expand"] = json.loads(run(
    "beta-expand", "--a", "3", "--b", "1", "--x", "3", "--digit-count", "3",
    "--format", "json"))
report["after_beta_expand"] = loaded()
print(json.dumps(report))
"""


@pytest.mark.parametrize("argv", [[], ["blocked"]], ids=["free", "blocked"])
def test_no_command_loads_mpmath(argv):
    result = subprocess.run([sys.executable, "-c", IMPORT_CHILD, *argv],
                            capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert not report["after_import"]
    assert not report["after_combinatorial"]
    assert not report["after_beta_integers"]
    assert not report["after_beta_expand"]
    assert (report["beta_expand"]["exponent"],
            report["beta_expand"]["digits"]) == (0, [3, 0, 0])
    # beta = 2 + sqrt(2) for d_beta(1) = 3 (1)
    assert report["beta_integers"]["values"] == [
        "0.0", "1.0", "2.0", "3.0", "3.41421356237"]
    assert report["beta_integers"]["gap_letters"] == "0001"


def test_importtime_lists_no_mpmath_row():
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import betawords.cli"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr
    names = [line.rsplit("|", 1)[-1].strip()
             for line in result.stderr.splitlines()
             if line.startswith("import time:")]
    assert "betawords.cli" in names
    assert not [name for name in names if name.split(".")[0] == "mpmath"]


def _run_in_process(monkeypatch, capsys, *argv):
    monkeypatch.setattr(sys, "argv", ["betawords", *argv])
    with pytest.raises(SystemExit) as stop:
        cli_module.run()
    return stop.value.code, capsys.readouterr()


def test_palindromes_builds_one_oracle(monkeypatch, capsys):
    built = []
    real = FactorLanguage.__init__

    def counted(self, substitution):
        built.append(substitution)
        real(self, substitution)

    monkeypatch.setattr(FactorLanguage, "__init__", counted)
    monkeypatch.setattr(sys, "argv", ["betawords", "palindromes", "--a", "3",
                                      "--b", "1", "--n", "4"])
    cli_module.run()
    assert "verified=True" in capsys.readouterr().out
    assert len(built) == 1


@pytest.mark.parametrize("subject", [["--a", "3", "--b", "1"],
                                     ["--digits", "4 1 1 (2 1)"]])
def test_beta_integers_builds_one_substitution(monkeypatch, capsys, subject):
    built = []
    real = Substitution.__init__

    def counted(self, runs):
        built.append(runs)
        real(self, runs)

    monkeypatch.setattr(Substitution, "__init__", counted)
    monkeypatch.setattr(sys, "argv", ["betawords", "beta-integers", *subject,
                                      "--count", "50"])
    cli_module.run()
    assert capsys.readouterr().out.startswith("0.0, 1.0, ")
    assert len(built) == 1


def test_verify_counts_palindromes_once_per_point(monkeypatch, capsys):
    built, calls = [], []

    def spy(name, real):
        def counted(self, n):
            calls.append((name, built.index(self), n))
            return real(self, n)
        return counted

    real_init = FactorLanguage.__init__

    def init(self, substitution):
        built.append(self)
        real_init(self, substitution)

    monkeypatch.setattr(FactorLanguage, "__init__", init)
    for name in ("_automaton", "_eertree"):
        monkeypatch.setattr(FactorLanguage, name,
                            spy(name, getattr(FactorLanguage, name)))
    monkeypatch.setattr(FactorLanguage, "palindrome_extensions",
                        lambda lang, n: pytest.fail("per-length palindromes"))
    # verify over three points, then analyze over one, which checks its
    # point as verify does, both at n_max = 20; then the digits probe, whose
    # P and reversal probe read the window of 60 letters alone
    for argv, points, lengths, last in (
            (["verify", "--a-max", "4", "--n-max", "20"], 3, (23, 22),
             "passed 3/3 parameter points"),
            (["analyze", "--a", "4", "--b", "1"], 1, (23, 22), "20,33,1,1,yes"),
            (["verify", "--digits", "3 3 (3 2)", "--n-max", "60"], 1, (60, 60),
             "longest palindrome up to length 60: 59")):
        built.clear()
        calls.clear()
        monkeypatch.setattr(sys, "argv", ["betawords", *argv])
        cli_module.run()
        assert capsys.readouterr().out.splitlines()[-1] == last
        # one language per point, and one automaton and one eertree over it
        # (3 for the verify grid, not the 9 perfbench's known failure
        # expects), C to n_max + 3 from the automaton for n_max + 3 and P to
        # n_max + 2 from the eertree for n_max + 2; no per-length factor set
        # is built
        assert len(built) == points
        assert sorted(calls) == [(name, i, n) for name, n
                                 in zip(("_automaton", "_eertree"), lengths)
                                 for i in range(points)]


def _corrupt(monkeypatch, name, column, index):
    """Make the closed-form table of cli.<name> one too high at a row."""
    real = getattr(cli_module, name)

    def corrupted(subject, n_max, mode):
        table = real(subject, n_max, mode)
        table.rows[index][column] += 1
        return table

    monkeypatch.setattr(cli_module, name, corrupted)


def test_verify_failure_names_first_disagreement(monkeypatch, capsys):
    _corrupt(monkeypatch, "palindromic_complexity", "P", 9)
    code, out = _run_in_process(monkeypatch, capsys, "verify", "--a-max", "3",
                                "--n-max", "20", "--format", "json")
    assert code == 1
    point = json.loads(out.out)["points"][0]
    assert point["checks"] == {"factor_complexity": True,
                               "palindromic_complexity": False,
                               "identities": True}
    assert point["error"]["context"] == {"table": "P", "n": 9, "oracle": 4,
                                         "closed_form": 5}
    assert "P(9)" in point["error"]["message"]
    assert json.loads(out.err)["failures"] == [point]


def test_analyze_failure_names_first_disagreement(monkeypatch, capsys):
    _corrupt(monkeypatch, "factor_complexity", "C", 6)
    _corrupt(monkeypatch, "palindromic_complexity", "P", 9)
    code, out = _run_in_process(monkeypatch, capsys, "analyze", "--a", "3",
                                "--b", "1", "--n-max", "12")
    assert code == 4
    assert out.out.splitlines()[7] == "7,9,1,3,NO"
    dump = json.loads(out.err)
    assert dump["context"] == {"table": "C", "n": 7, "oracle": 9,
                               "closed_form": 10}


# at (3, 1), C(9) = 12 and P(9) = 4
@pytest.mark.parametrize("reader, raise_one, table, check, values", [
    ("complexities", lambda c: c + 1, "C", "factor_complexity", (13, 12)),
    ("palindrome_counts", lambda p: p + 1, "P",
     "palindromic_complexity", (5, 4))], ids=["C", "P"])
def test_oracle_columns_stay_in_the_check(monkeypatch, capsys, reader,
                                          raise_one, table, check, values):
    real = getattr(FactorLanguage, reader)

    def raised(self, n_max):
        column = real(self, n_max)
        column[9] = raise_one(column[9])
        return column

    monkeypatch.setattr(FactorLanguage, reader, raised)
    code, out = _run_in_process(monkeypatch, capsys, "verify", "--a-max", "3",
                                "--n-max", "20", "--format", "json")
    assert code == 1
    assert json.loads(out.out)["points"][0]["checks"][check] is False
    code, out = _run_in_process(monkeypatch, capsys, "analyze", "--a", "3",
                                "--b", "1", "--n-max", "12")
    assert code == 4
    oracle, closed = values
    assert json.loads(out.err)["context"] == {"table": table, "n": 9,
                                             "oracle": oracle,
                                             "closed_form": closed}


def test_assigned_tower_marks_fail_on_the_boundary(monkeypatch, capsys):
    # on b = a-1, |V^(k)| = |U^(k)|: marks assigned in turn, not added,
    # leave -1 at each length where +1 and -1 should cancel
    def assigned(params, n_max):
        marks = [0] * (n_max + 1)
        for v_len, u_len in complexity_module.tower_intervals(params, n_max + 1):
            marks[v_len] = 1
            if u_len <= n_max:
                marks[u_len] = -1
        return marks

    monkeypatch.setattr(complexity_module, "_tower_marks", assigned)
    monkeypatch.setattr(palindromes_module, "_tower_marks", assigned)
    code, out = _run_in_process(monkeypatch, capsys, "analyze", "--a", "3",
                                "--b", "2")
    assert code == 4
    # Delta C(3) = 1 + the mark of |V^(1)| = |U^(1)| = 2 drops to 0
    assert json.loads(out.err)["context"] == {"table": "C", "n": 4,
                                             "oracle": 5, "closed_form": 4}
    assert out.out.splitlines()[3:5] == ["3,4,1,2,yes", "4,5,1,1,NO"]


# beta-integers prints exact values: the strings equal mpmath's nstr of
# Horner values at 64 digits of every admissible string, sorted, at the
# default precision (12 digits shown) and at --precision 5
EXACT_DIGITS = ["3 (1)", "4 (2)", "3 1 (2)", "3 (2 1)", "4 1 1 (2 1)"] + [
    f"{a} ({b})" for a in range(3, 7) for b in range(1, a - 1)
    if f"{a} ({b})" not in ("3 (1)", "4 (2)")]


def _beta_integer_payload(capsys, *argv):
    cli_module.main(["beta-integers", *argv, "--format", "json"])
    return json.loads(capsys.readouterr().out)


def _beta_integer_strings(capsys, *argv):
    return _beta_integer_payload(capsys, *argv)["values"]


@pytest.mark.parametrize("digits", EXACT_DIGITS)
def test_beta_integers_print_exact_values(capsys, digits):
    renyi = RenyiExpansion.parse(digits)
    beta = beta_of_renyi(renyi, 64)
    assert unity_defect(renyi, beta) < mpf("1e-60")
    max_length = math.ceil(math.log(3000, float(beta)))
    values, _ = brute_force_integers(renyi, beta, max_length)
    assert len(values) >= 3000
    count = ["--digits", digits, "--count", "3000"]
    payload = _beta_integer_payload(capsys, *count)
    assert payload["values"] == [nstr(v, 12) for v in values[:3000]]
    # the letters read off the fixed point equal the admissible strings' gaps
    assert payload["gap_letters"] == beta_integers(renyi, beta, 3000)[1]
    assert _beta_integer_strings(capsys, *count, "--precision", "5") == \
        [nstr(v, 5) for v in values[:3000]]


def test_equal_shown_values_exit_3(monkeypatch, capsys):
    code, out = _run_in_process(monkeypatch, capsys, "beta-integers", "--a",
                                "3", "--b", "1", "--count", "20",
                                "--precision", "2")
    assert code == 3
    assert out.err == ("precision error: 2 significant digits do not "
                       "separate consecutive beta-integers\n")


def test_equal_shown_values_name_the_digits_shown(monkeypatch, capsys):
    # at most 12 digits show, so past 12 the message names 12, and a higher
    # --precision would not separate the values either
    digits = "3 " + "0 " * 30 + "(1)"
    for precision in ("12", "64"):
        code, out = _run_in_process(monkeypatch, capsys, "beta-integers",
                                    "--digits", digits, "--count", "20",
                                    "--precision", precision)
        assert (code, out.out) == (3, "")
        assert out.err == ("precision error: 12 significant digits do not "
                           "separate consecutive beta-integers\n")


def test_undecided_rounding_retries_with_more_bits(monkeypatch, capsys):
    argv = ["--digits", "3 (2 1)", "--count", "3000"]
    exact = _beta_integer_strings(capsys, *argv)
    tried = []
    real = beta_numeration._beta_floor

    def recorded(relation, t1, bits):
        tried.append(bits)
        return real(relation, t1, bits)

    # no guard bits: the error bound is as large as the fixed-point unit
    monkeypatch.setattr(beta_numeration, "_GUARD_BITS", 0)
    monkeypatch.setattr(beta_numeration, "_beta_floor", recorded)
    assert _beta_integer_strings(capsys, *argv) == exact
    assert len(tried) >= 2
    assert tried == [tried[0] * 2 ** k for k in range(len(tried))]
