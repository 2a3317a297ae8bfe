"""Command-line front end, read in one pass over argv as click read it.

Exit codes: 0 success, 1 verification summary failure (verify), 2 usage,
3 precision, 4 verification failure / oracle disagreement.  Every command
is exact integer arithmetic: `beta-expand` works in Q(beta) and
`beta-integers` prints exact values of Z[beta], so none loads mpmath.
Usage errors and help read as they did when the CLI was built on click.
"""

import json
import os
import sys

from .beta_numeration import (
    QuadraticParams,
    RenyiExpansion,
    beta_expand,
    beta_integer_decimals,
    parry_check,
    renyi_of_quadratic,
)
from .complexity import Table, factor_complexity, uv_tower
from .errors import (
    DigitCountError,
    InvalidInputError,
    PrecisionError,
    UnsupportedVariantError,
    UsageError,
    VerificationError,
)
from .language import FactorLanguage
from .palindromes import (
    center_of,
    infinite_branches,
    palindromic_complexity,
    verify_identities,
)
from .substitution import (fixed_point_prefix, parry_substitution,
                           quadratic_substitution)

EXIT_PRECISION = 3
EXIT_VERIFICATION = 4
# 10^6 digits of a small x take 0.4 s and 100 MB; the time grows about as the
# square of k, the digits of x before the point: at (3, 1) with 10^5 digits,
# 2.4 s for x = 1e3000 (k = 5625) and 10 s for 1e5000 (k = 9375), 24 MB each
MAX_DIGIT_COUNT = 10 ** 6
# --n of specials and palindromes: at (a, b) = (3, 1) about 0.4-0.6 s and
# 56-80 MB, at (15, 1) 0.6-0.8 s and 72-105 MB, at (41, 1) 0.7-1.3 s and 118 MB
MAX_FACTOR_LENGTH = 10 ** 5
# --n-max of analyze and verify: analyze at (3, 1) about 1.6 s and 103 MB, at
# (15, 1) 1.8 s and 144 MB; verify on its default grid 11.0 s and 177 MB
MAX_TABLE_LENGTH = 10 ** 5
# --length of word: 0.1 s and 44-49 MB at (3, 1), (40, 39), on 3 (2 1) and on
# 2 (1 .. 1) with 200 ones; past level 1 the images held total at most --length
MAX_WORD_LENGTH = 10 ** 7
# --branch-budget of palindromes: the words are found in one prefix of u, 0.1 s
# and 28 MB at (6, 1), at most 0.2 s and 52 MB over a <= 15
MAX_BRANCH_BUDGET = 10 ** 7
# --count of beta-integers: 1.2-1.6 s on 3 (1), with 130 MB for text and
# 153 MB for JSON, since every value is held until all print
MAX_BETA_INTEGER_COUNT = 10 ** 6
# --a-max of verify: 91 grid points (16 gives 105); about 0.3 s and 16 MB at
# the default --n-max, 3.7 s and 24 MB at 4000, 2 min and 186 MB at 10^5
MAX_A = 15
# click's help width on a terminal of 80 columns or more, or on none
_HELP_WIDTH = 78
_HELP_ROW = ("--help", "Show this message and exit.")


class _Option:
    """`--flag VALUE`: an int (within [low, high] if either is given), one
    of `choices`, or what `kind` makes of the string, with its default and
    help."""

    def __init__(self, flag, default=None, kind=int, *, low=None, high=None,
                 choices=(), required=False, help="", dest=None):
        self.flag, self.default, self.kind = flag, default, kind
        self.low, self.high, self.choices = low, high, choices
        self.required, self.help = required, help
        self.dest = dest or flag[2:].replace("-", "_")
        # the range as click wrote it: x>=1, x<=10, 0<=x<=10, or "" for none
        self.range_text = ("" if low is None and high is None
                           else f"x<={high}" if low is None
                           else f"x>={low}" if high is None
                           else f"{low}<=x<={high}")

    def convert(self, raw):
        """The value of `raw`; ValueError in click's words if it has none."""
        if self.choices:
            if raw not in self.choices:
                raise ValueError(f"{raw!r} is not one of "
                                 f"{', '.join(map(repr, self.choices))}.")
            return raw
        if self.kind is not int:
            return self.kind(raw)
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{raw!r} is not a valid integer"
                             f"{' range' if self.range_text else ''}.") from None
        if (self.low is not None and value < self.low
                or self.high is not None and value > self.high):
            raise ValueError(f"{value} is not in the range {self.range_text}.")
        return value

    def help_row(self):
        """The option's two help columns, as click wrote them."""
        metavar = (f"[{'|'.join(self.choices)}]" if self.choices
                   else "TEXT" if self.kind is not int
                   else "INTEGER RANGE" if self.range_text else "INTEGER")
        extra = [f"default: {self.default}"] if self.default is not None else []
        extra += filter(None, [self.range_text, "required" * self.required])
        bracket = f"[{'; '.join(extra)}]" if extra else ""
        return f"{self.flag} {metavar}", "  ".join(filter(None, (self.help,
                                                                  bracket)))


class _Command:
    """A command's function (`callback`, looked up at each call, so that a
    wrapped one runs) and its options."""

    def __init__(self, callback, options):
        self.callback, self.options = callback, options

    def parse(self, args, usage):
        """The callback's keyword arguments from the command's argv, or
        None once --help has printed the help.  Errors come in click's
        order: one in reading the tokens, then help, then the options
        given, by first appearance, then those left out, then extra
        arguments."""
        options = {option.flag: option for option in self.options}
        given, asked, extra = _read(args, options)
        if asked:
            rows = [option.help_row() for option in self.options]
            _echo(_help(f"{usage} [OPTIONS]", self.callback.__doc__,
                        ("Options", [*rows, _HELP_ROW])))
            return None
        kwargs = {}
        left_out = [option for option in self.options if option.flag not in given]
        for option in [*map(options.get, given), *left_out]:
            raw = given.get(option.flag)
            if raw is None and option.required:
                raise UsageError(f"Missing option {option.flag!r}.")
            try:
                kwargs[option.dest] = (option.default if raw is None
                                       else option.convert(raw))
            except (ValueError, InvalidInputError) as exc:
                raise UsageError(_invalid(option.flag, exc)) from None
        if extra:
            raise UsageError(f"Got unexpected extra argument"
                             f"{'s' * (len(extra) > 1)} ({' '.join(extra)})")
        return kwargs


def _read(args, options, interspersed=True):
    """One pass over argv as click read it: the raw value of each flag in
    `options`, by first appearance, the last value kept; whether --help was
    given; and the other arguments.  `--` ends the options, and so does the
    first other argument unless `interspersed`."""
    given, asked, rest = {}, False, []
    tokens = iter(args)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if token == "--":
            rest += tokens  # every token left, which ends the loop
        elif token[:1] != "-" or token == "-":
            rest.append(token)
            if not interspersed:
                rest += tokens
        elif flag == "--help":
            if eq:
                raise UsageError("Option '--help' does not take a value.")
            asked = True
        elif flag not in options:
            raise UsageError(_no_such("option", token, [*options, "--help"]))
        else:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise UsageError(f"Option {flag!r} requires an argument.")
            given[flag] = value
    return given, asked, rest


def _invalid(flag, detail):
    return f"Invalid value for {flag!r}: {detail}"


def _no_such(kind, token, known):
    """click's words for an unknown option or command, with its guesses."""
    # loaded only on this error
    from difflib import get_close_matches
    if kind == "option":
        # a short option names its first letter; only long ones get guesses
        token, known = ((token.split("=", 1)[0], known) if token[:2] == "--"
                        else (token[:2], []))
    near = [repr(p) for p in sorted(get_close_matches(token, known))]
    guess = ("" if not near else f" Did you mean {near[0]}?" if len(near) == 1
             else f" (Did you mean one of: {', '.join(near)}?)")
    return f"No such {kind} {token!r}.{guess}"


def _help(usage, about, *sections):
    """Help laid out as click laid it out: the usage line, the description,
    then each (title, rows) section in two columns."""
    # loaded only for help
    import textwrap
    lines = [f"Usage: {usage}", "",
             textwrap.fill(about, _HELP_WIDTH, initial_indent="  ",
                           subsequent_indent="  ")]
    for title, rows in sections:
        lines += ["", f"{title}:"]
        # every term here is under click's cap of 30 columns
        first = max(len(term) for term, _ in rows) + 2
        lines += [textwrap.fill(text, _HELP_WIDTH, initial_indent=f"  {term:<{first}}",
                                subsequent_indent=" " * (first + 2))
                  if text else f"  {term}" for term, text in rows]
    return "\n".join(lines)


def _group_help(prog):
    """The group's help, each command's description cut at a word to fit
    its row, with "...", as click listed commands."""
    # loaded only for help
    import textwrap
    commands = main.commands
    limit = _HELP_WIDTH - 6 - max(map(len, commands))
    return _help(f"{prog} [OPTIONS] COMMAND [ARGS]...",
                 "Infinite words of beta-integers: complexity and palindromes.",
                 ("Options", [_HELP_ROW]),
                 ("Commands", [(name, textwrap.shorten(
                     commands[name].callback.__doc__, limit, placeholder="...",
                     break_on_hyphens=False)) for name in sorted(commands)]))


def main(argv=None):
    """Parse argv (sys.argv[1:] by default) and run the command it names.

    A bad command line raises UsageError; --help prints the help asked for
    and runs nothing.  `main.commands` maps each command name to its
    _Command.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    prog = os.path.basename(sys.argv[0])
    if not args:
        raise UsageError(_group_help(prog))
    _, asked, args = _read(args, {}, interspersed=False)
    if asked:
        _echo(_group_help(prog))
        return
    if not args:
        raise UsageError("Missing command.")
    name, *args = args
    command = main.commands.get(name)
    if command is None:
        raise UsageError(_no_such("command", name, main.commands))
    kwargs = command.parse(args, f"{prog} {name}")
    if kwargs is not None:
        command.callback(**kwargs)


main.commands = {}


def _command(*options, name=None):
    """Register the decorated function as command `name` (its own name by
    default) with these options."""
    def register(callback):
        main.commands[name or callback.__name__] = _Command(callback, options)
        return callback
    return register


_FORMAT = _Option("--format", "text", choices=("text", "json"), dest="fmt")
_DIGITS = _Option("--digits", kind=RenyiExpansion.parse)


def _params(a, b):
    if a is None or b is None:
        raise UsageError("both --a and --b are required")
    return QuadraticParams(a, b)


def _renyi(a, b, digits):
    """Resolve (a, b) or --digits into a Renyi expansion."""
    if digits is not None and (a is not None or b is not None):
        raise UsageError("give either --a/--b or --digits, not both")
    return renyi_of_quadratic(_params(a, b)) if digits is None else digits


def _echo(text, file=None):
    """Write text and a newline as one string, then flush, as click.echo did."""
    file = file or sys.stdout
    file.write(text + "\n")
    file.flush()


def _emit(fmt, payload, text_lines):
    """The payload as JSON, or else the text lines (analyze's csv is its
    text)."""
    if fmt == "json":
        _echo(json.dumps(payload, sort_keys=True))
    else:
        _echo("\n".join(text_lines))


@_command(_Option("--a"), _Option("--b"),
          _Option("--n-max", 20, low=1, high=MAX_TABLE_LENGTH),
          _Option("--format", "text", choices=("text", "json", "csv"),
                  dest="fmt"))
def analyze(a, b, n_max, fmt):
    """Combined C(n), Delta C(n), P(n) table with oracle/closed-form agreement."""
    params = _params(a, b)
    c, p, wrong, _, failure = _check_point(params, n_max)
    table = Table(("n", "C", "deltaC", "P", "agree"), [
        {"n": n, "C": c[n], "deltaC": c[n + 1] - c[n], "P": p[n],
         "agree": "NO" if n in wrong else "yes"}
        for n in range(1, n_max + 1)])
    payload = {**table.to_json(), "a": params.a, "b": params.b,
               "sturmian": params.is_sturmian}
    _emit(fmt, payload, table.to_csv().splitlines())
    if failure:
        raise failure


def _check_point(params, n_max):
    """One point's check, for analyze and verify: the oracle columns
    C(0..n_max+3), from the automaton for n_max+3, and P(0..n_max+2), from
    the eertree for n_max+2, of one FactorLanguage; the n up to n_max where
    they disagree with the closed forms, found in one scan; the checks by
    name; and the first failure, at the least such n (C before P) before a
    broken identity, or None."""
    lang = FactorLanguage(quadratic_substitution(params))
    c = lang.complexities(n_max + 3)
    p = lang.palindrome_counts(n_max + 2)
    closed_c = [1, *factor_complexity(params, n_max, "closed_form").column("C")]
    closed_p = palindromic_complexity(params, n_max, "closed_form").column("P")
    # (n, table, oracle value, closed-form value) where they differ, by n, C first
    found = sorted((n, table, oracle[n], want)
                   for table, oracle, closed in (("C", c, closed_c), ("P", p, closed_p))
                   for n, want in enumerate(closed) if oracle[n] != want)
    checks = {"factor_complexity": all(t != "C" for _, t, *_ in found),
              "palindromic_complexity": all(t != "P" for _, t, *_ in found),
              "identities": True}
    failure = None
    if found:
        n, table, got, want = found[0]
        failure = VerificationError(
            f"{table}({n}): oracle {got} != closed form {want}",
            context={"table": table, "n": n, "oracle": got, "closed_form": want})
    try:
        verify_identities(params, c, p)
    except VerificationError as exc:
        checks["identities"], failure = False, failure or exc
    return c, p, {n for n, *_ in found}, checks, failure


@_command(
    _Option("--a-max", 6, low=3, high=MAX_A),
    _Option("--n-max", 120, low=1, high=MAX_TABLE_LENGTH),
    _Option("--digits", kind=RenyiExpansion.parse,
            help='Renyi digits "t1 .. tm (tm+1 .. tm+p)" instead of a grid'),
    _FORMAT)
def verify(a_max, n_max, digits, fmt):
    """Run the invariant suite over the (a, b) grid, or probe one expansion."""
    if digits is not None:
        lang = FactorLanguage(parry_substitution(digits))
        # slow-growing digits at the largest --n-max pass the window bound
        window = min(n_max, 60)
        probe = lang.reversal_closure_probe(window)
        pal = lang.palindrome_counts(window)
        last_pal = max((n for n, c in enumerate(pal) if c > 0), default=0)
        payload = {
            "schema": 1, "digits": str(digits), "window": window,
            "reversal_witness": probe["witness"],
            "closed_up_to": probe["closed_up_to"],
            "last_palindrome_length": last_pal,
            "palindrome_counts": pal,
        }
        _emit(fmt, payload, [
            f"digits: {digits}",
            f"reversal witness: {probe['witness']!r} "
            f"(closed up to n={probe['closed_up_to']})",
            f"longest palindrome up to length {window}: {last_pal}",
        ])
        return
    points = [(a, b) for a in range(3, a_max + 1) for b in range(1, a - 1)]
    results = []
    for a, b in points:
        *_, checks, failure = _check_point(QuadraticParams(a, b), n_max)
        results.append({"a": a, "b": b, "checks": checks})
        if failure:
            results[-1]["error"] = {"message": str(failure),
                                    "context": failure.context}
    failures = [point for point in results if not all(point["checks"].values())]
    payload = {
        "schema": 1, "n_max": n_max,
        "points": results,
        "passed": len(results) - len(failures),
        "failed": len(failures),
    }
    lines = [
        f"({p['a']},{p['b']}): " + ", ".join(
            f"{name}={'ok' if ok else 'FAIL'}" for name, ok in p["checks"].items()
        )
        for p in results
    ]
    lines.append(f"passed {payload['passed']}/{len(results)} parameter points")
    _emit(fmt, payload, lines)
    if failures:
        _echo(json.dumps({"schema": 1, "failures": failures}, sort_keys=True),
              sys.stderr)
        sys.exit(1)


@_command(_Option("--a"), _Option("--b"), _DIGITS,
          _Option("--length", 100, low=0, high=MAX_WORD_LENGTH), _FORMAT)
def word(a, b, digits, length, fmt):
    """Prefix of the fixed point u_beta."""
    renyi = _renyi(a, b, digits)
    prefix = fixed_point_prefix(parry_substitution(renyi), length)
    payload = {"schema": 1, "digits": str(renyi), "length": length, "word": prefix}
    _emit(fmt, payload, [prefix])


@_command(_Option("--a"), _Option("--b"),
          _Option("--n", low=0, high=MAX_FACTOR_LENGTH, required=True),
          _Option("--tower-depth", 8, low=0), _FORMAT)
def specials(a, b, n, tower_depth, fmt):
    """Left special factors of length n, plus the U/V towers."""
    params = _params(a, b)
    lang = FactorLanguage(quadratic_substitution(params))
    left = sorted(lang.left_special_factors(n))
    payload = {"schema": 1, "a": params.a, "b": params.b, "n": n,
               "left_special": left}
    lines = [f"left special ({len(left)}): " + " ".join(left)]
    if not params.is_sturmian:
        # only the words of at most 64 letters print
        tower = uv_tower(params, tower_depth, materialize_cap=64)
        payload.update(tower.lengths_json())
        payload["u_words"], payload["v_words"] = tower.u_words, tower.v_words
        lines.append("U lengths: " + " ".join(payload["u_lengths"]))
        lines.append("V lengths: " + " ".join(payload["v_lengths"]))
        for i, w in enumerate(payload["u_words"], start=1):
            lines.append(f"U({i}) = {w}")
        for i, w in enumerate(payload["v_words"], start=1):
            lines.append(f"V({i}) = {w}")
    _emit(fmt, payload, lines)


@_command(_Option("--a"), _Option("--b"),
          _Option("--n", low=0, high=MAX_FACTOR_LENGTH, required=True),
          _Option("--branch-budget", 2000, low=0, high=MAX_BRANCH_BUDGET),
          _FORMAT)
def palindromes(a, b, n, branch_budget, fmt):
    """Palindromic factors of length n and the infinite branch structure."""
    params = _params(a, b)
    lang = FactorLanguage(quadratic_substitution(params))
    found = [{"word": w, "center": center_of(w), "extensions": sorted(ext)}
             for w, ext in sorted(lang.palindrome_extensions(n).items())]
    payload = {"schema": 1, "a": params.a, "b": params.b, "n": n,
               "palindromes": found}
    lines = [f"P({n}) = {len(found)}"] + [
        f"  {p['word']}  center={p['center']} ext={''.join(p['extensions']) or '-'}"
        for p in found]
    if not params.is_sturmian:
        branches = infinite_branches(params, branch_budget)
        payload["branches"] = [
            {"center": s.center, "generator": list(s.generator),
             "verified": s.verified,
             "materialized": len(s.central_factors)}
            for s in branches
        ]
        lines += [f"branch center={s.center} generator={s.generator} "
                  f"verified={s.verified}" for s in branches]
    _emit(fmt, payload, lines)


@_command(_Option("--digits", kind=RenyiExpansion.parse, required=True),
          _FORMAT, name="parry-check")
def parry_check_cmd(digits, fmt):
    """Parry admissibility of a candidate Renyi expansion."""
    ok, shift = parry_check(digits)
    payload = {"schema": 1, "digits": str(digits), "valid": ok,
               "violating_shift": shift, "minimal": digits.is_minimal}
    lines = ["valid" if ok else f"invalid (shift {shift} not strictly smaller)"]
    _emit(fmt, payload, lines)
    if not ok:
        sys.exit(EXIT_VERIFICATION)


@_command(
    _Option("--a"), _Option("--b"), _Option("--x", kind=str, required=True),
    _Option("--digit-count", 16, low=1, high=MAX_DIGIT_COUNT,
            help="Digits to print: at least k + 1, the digits of x before "
                 f"the point, and at most {MAX_DIGIT_COUNT}."),
    _FORMAT, name="beta-expand")
def beta_expand_cmd(a, b, x, digit_count, fmt):
    """Greedy beta-expansion digits of x, exact in Q(beta)."""
    params = _params(a, b)
    try:
        k, digit_seq = beta_expand(x, params, digit_count)
    except DigitCountError as exc:
        raise UsageError(_invalid("--digit-count", exc)) from None
    integer = "".join(map(str, digit_seq[: k + 1]))
    frac = "".join(map(str, digit_seq[k + 1 :]))
    rendered = integer + ("." + frac if frac else "")
    payload = {"schema": 1, "a": params.a, "b": params.b, "x": x,
               "exponent": k, "digits": list(digit_seq),
               "rendered": rendered}
    _emit(fmt, payload, [rendered])


@_command(_Option("--a"), _Option("--b"), _DIGITS,
          _Option("--count", 10, low=2, high=MAX_BETA_INTEGER_COUNT),
          _Option("--precision", 12, low=2,
                  help="Significant digits shown (at most 12)."),
          _FORMAT, name="beta-integers")
def beta_integers_cmd(a, b, digits, count, precision, fmt):
    """First beta-integers to min(--precision, 12) significant digits, and gaps."""
    renyi = _renyi(a, b, digits)
    shown, letters = beta_integer_decimals(renyi, min(precision, 12), count)
    payload = {"schema": 1, "digits": str(renyi), "count": count,
               "values": shown, "gap_letters": letters}
    lines = [", ".join(shown), f"gaps: {letters}"]
    _emit(fmt, payload, lines)


def run():
    try:
        main()
    except UsageError as exc:
        _echo(f"usage error: {exc}", sys.stderr)
        sys.exit(2)
    except KeyboardInterrupt:
        _echo("", sys.stderr)
        sys.exit(2)
    except PrecisionError as exc:
        _echo(f"precision error: {exc}", sys.stderr)
        sys.exit(EXIT_PRECISION)
    except VerificationError as exc:
        _echo(json.dumps({"schema": 1, "error": str(exc),
                          "context": exc.context}), sys.stderr)
        sys.exit(EXIT_VERIFICATION)
    except (InvalidInputError, UnsupportedVariantError) as exc:
        _echo(f"error: {exc}", sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    # the program name help shows, as click showed it for `python -m`
    sys.argv[0] = "python -m betawords.cli"
    run()
