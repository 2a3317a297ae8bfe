"""Command-line front end.

Exit codes: 0 success, 1 verification summary failure (verify), 2 usage,
3 precision, 4 verification failure / oracle disagreement.  Every command
is exact integer arithmetic: `beta-expand` works in Q(beta) and
`beta-integers` prints exact values of Z[beta], so none loads mpmath.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import count

import click

from .beta_numeration import (
    DEFAULT_PRECISION,
    QuadraticParams,
    RenyiExpansion,
    beta_expand,
    beta_integer_decimals,
    parry_check,
    renyi_of_quadratic,
)
from .complexity import Table, factor_complexity, tower_intervals, uv_tower
from .errors import (
    DigitCountError,
    InvalidInputError,
    PrecisionError,
    UnsupportedVariantError,
    VerificationError,
)
from .language import language_of
from .palindromes import (
    infinite_branches,
    palindromes_of_length,
    palindromic_complexity,
    reversal_closure_probe,
    verify_identities,
)
from .substitution import (
    fixed_point_prefix,
    parry_substitution,
    quadratic_substitution,
)

EXIT_PRECISION = 3
EXIT_VERIFICATION = 4
# 10^6 digits take about a second and 100 MB
MAX_DIGIT_COUNT = 10 ** 6
# --n of specials and palindromes: at (a, b) = (3, 1) about 0.7 s and 60-85 MB;
# the windows grow with a, to 2-3.5 s and 260-320 MB at (15, 1)
MAX_FACTOR_LENGTH = 10 ** 5

_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]),
    default="text", show_default=True,
)
_PRECISION = click.option(
    "--precision", type=click.IntRange(min=2),
    default=DEFAULT_PRECISION, show_default=True,
    help="Significant digits shown by beta-integers (at most 12); "
         "changes no digit of beta-expand, which is exact.",
)


def _params(a, b):
    if a is None or b is None:
        raise click.UsageError("both --a and --b are required")
    return QuadraticParams(a, b)


def _subject(a, b, digits):
    """Resolve (a, b) or --digits into (substitution, params-or-None, renyi)."""
    if digits is not None and (a is not None or b is not None):
        raise click.UsageError("give either --a/--b or --digits, not both")
    if digits is not None:
        renyi = RenyiExpansion.parse(digits)
        return parry_substitution(renyi), None, renyi
    params = _params(a, b)
    return quadratic_substitution(params), params, renyi_of_quadratic(params)


def _emit(fmt, payload, text_lines, csv_text=None):
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True))
    elif fmt == "csv":
        if csv_text is None:
            raise click.UsageError("csv output is not available for this command")
        click.echo(csv_text, nl=False)
    else:
        for line in text_lines:
            click.echo(line)


@click.group()
def main():
    """Infinite words of beta-integers: complexity and palindromes."""


@main.command()
@click.option("--a", type=int)
@click.option("--b", type=int)
@click.option("--n-max", type=click.IntRange(min=1), default=20, show_default=True)
@_FORMAT
def analyze(a, b, n_max, fmt):
    """Combined C(n), Delta C(n), P(n) table with oracle/closed-form agreement."""
    params = _params(a, b)
    lang = language_of(params)
    sturmian = params.is_sturmian
    oracle_c = factor_complexity(lang, n_max, "oracle")
    oracle_p = palindromic_complexity(lang, n_max, "oracle").column("P")[1:]
    table = Table(("n", "C", "deltaC", "P", "agree"), [
        {"n": r["n"], "C": r["C"], "deltaC": r["deltaC"], "P": p, "agree": ""}
        for r, p in zip(oracle_c.rows, oracle_p)])
    failure = None
    if not sturmian:
        closed_c = factor_complexity(params, n_max, "closed_form").column("C")
        closed_p = palindromic_complexity(params, n_max, "closed_form").column("P")[1:]
        for row, c, p in zip(table.rows, closed_c, closed_p):
            row["agree"] = "yes" if (row["C"], row["P"]) == (c, p) else "NO"
        failure = _disagreement(("C", 1, oracle_c.column("C"), closed_c),
                                ("P", 1, oracle_p, closed_p))
    payload = {**table.to_json(), "a": params.a, "b": params.b,
               "sturmian": sturmian}
    csv_text = table.to_csv()
    notice = ["# Sturmian boundary b = a-1: oracle-only table, C(n) = n+1"] \
        if sturmian else []
    _emit(fmt, payload, notice + csv_text.splitlines(), csv_text)
    if failure:
        raise failure


def _disagreement(*columns):
    """A VerificationError at the first n where a column (table, first n,
    oracle values, closed-form values) disagrees, C before P; else None."""
    found = [(n, table, got, want) for table, start, oracle, closed in columns
             for n, got, want in zip(count(start), oracle, closed) if got != want]
    if not found:
        return None
    n, table, got, want = min(found)
    return VerificationError(
        f"{table}({n}): oracle {got} != closed form {want}",
        context={"table": table, "n": n, "oracle": got, "closed_form": want})


@main.command()
@click.option("--a-max", type=click.IntRange(min=3), default=6, show_default=True)
@click.option("--n-max", type=click.IntRange(min=1), default=120, show_default=True)
@click.option("--digits", type=str, default=None,
              help='Renyi digits "t1 .. tm (tm+1 .. tm+p)" instead of a grid')
@_FORMAT
def verify(a_max, n_max, digits, fmt):
    """Run the invariant suite over the (a, b) grid, or probe one expansion."""
    if digits is not None:
        renyi = RenyiExpansion.parse(digits)
        lang = language_of(parry_substitution(renyi))
        window = min(n_max, 60)
        probe = reversal_closure_probe(lang, window)
        pal = palindromic_complexity(lang, window).column("P")
        last_pal = max((n for n, c in enumerate(pal) if c > 0), default=0)
        payload = {
            "schema": 1, "digits": str(renyi), "window": window,
            "reversal_witness": probe["witness"],
            "closed_up_to": probe["closed_up_to"],
            "last_palindrome_length": last_pal,
            "palindrome_counts": pal,
        }
        _emit(fmt, payload, [
            f"digits: {renyi}",
            f"reversal witness: {probe['witness']!r} "
            f"(closed up to n={probe['closed_up_to']})",
            f"longest palindrome up to length {window}: {last_pal}",
        ])
        return
    points = [(a, b) for a in range(3, a_max + 1) for b in range(1, a - 1)]
    if len(points) > 100:
        raise click.UsageError("grid guard: more than 100 parameter points")
    failures = []
    results = []
    for a, b in points:
        params = QuadraticParams(a, b)
        # oracle columns long enough for the identities; C(0) = 1, the empty word
        lang = language_of(params)
        c = [1, *factor_complexity(lang, n_max + 3).column("C")]
        p = palindromic_complexity(lang, n_max + 2).column("P")
        oc, op = c[1 : n_max + 1], p[: n_max + 1]
        cc = factor_complexity(params, n_max, "closed_form").column("C")
        cp = palindromic_complexity(params, n_max, "closed_form").column("P")
        point = {"a": a, "b": b, "checks": {"factor_complexity": oc == cc,
                                            "palindromic_complexity": op == cp}}
        failure = _disagreement(("C", 1, oc, cc), ("P", 0, op, cp))
        try:
            verify_identities(params, c, p)
            point["checks"]["identities"] = True
        except VerificationError as exc:
            point["checks"]["identities"] = False
            failure = failure or exc
        if failure:
            point["error"] = {"message": str(failure), "context": failure.context}
        if not all(point["checks"].values()):
            failures.append(point)
        results.append(point)
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
        click.echo(json.dumps({"schema": 1, "failures": failures}, sort_keys=True),
                   err=True)
        sys.exit(1)


@main.command()
@click.option("--a", type=int)
@click.option("--b", type=int)
@click.option("--digits", type=str, default=None)
@click.option("--length", type=int, default=100, show_default=True)
@_FORMAT
def word(a, b, digits, length, fmt):
    """Prefix of the fixed point u_beta."""
    sub, _, renyi = _subject(a, b, digits)
    prefix = fixed_point_prefix(sub, length)
    payload = {"schema": 1, "digits": str(renyi), "length": length, "word": prefix}
    _emit(fmt, payload, [prefix])


@main.command()
@click.option("--a", type=int)
@click.option("--b", type=int)
@click.option("--n", type=click.IntRange(min=0, max=MAX_FACTOR_LENGTH), required=True)
@click.option("--tower-depth", type=click.IntRange(min=0), default=8, show_default=True)
@_FORMAT
def specials(a, b, n, tower_depth, fmt):
    """Left special factors of length n, plus the U/V towers."""
    params = _params(a, b)
    left = sorted(language_of(params).left_special_factors(n))
    payload = {"schema": 1, "a": params.a, "b": params.b, "n": n,
               "left_special": left}
    lines = [f"left special ({len(left)}): " + " ".join(left)]
    if not params.is_sturmian:
        # |U^(k)| < (a+2)^k, so only a depth past that estimate needs the
        # exact check that its lengths fit Python's limit on decimal digits
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if digits and tower_depth * math.log10(params.a + 2) >= digits:
            bound = 10 ** digits
            if tower_depth > sum(u < bound for _, u in tower_intervals(params, bound)):
                raise click.BadParameter(
                    f"U/V lengths at this depth exceed {digits} decimal digits",
                    param_hint="'--tower-depth'")
        tower = uv_tower(params, tower_depth)
        payload.update(tower.lengths_json())
        payload["u_words"] = [w for w in tower.u_words if len(w) <= 64]
        payload["v_words"] = [w for w in tower.v_words if len(w) <= 64]
        lines.append("U lengths: " + " ".join(payload["u_lengths"]))
        lines.append("V lengths: " + " ".join(payload["v_lengths"]))
        for i, w in enumerate(payload["u_words"], start=1):
            lines.append(f"U({i}) = {w}")
        for i, w in enumerate(payload["v_words"], start=1):
            lines.append(f"V({i}) = {w}")
    _emit(fmt, payload, lines)


@main.command()
@click.option("--a", type=int)
@click.option("--b", type=int)
@click.option("--n", type=click.IntRange(min=0, max=MAX_FACTOR_LENGTH), required=True)
@click.option("--branch-budget", type=click.IntRange(min=0), default=2000, show_default=True)
@_FORMAT
def palindromes(a, b, n, branch_budget, fmt):
    """Palindromic factors of length n and the infinite branch structure."""
    params = _params(a, b)
    lang = language_of(params)
    records = sorted(palindromes_of_length(lang, n), key=lambda r: r.word)
    payload = {
        "schema": 1, "a": params.a, "b": params.b, "n": n,
        "palindromes": [
            {"word": r.word, "center": r.center,
             "extensions": sorted(r.extensions)}
            for r in records
        ],
    }
    lines = [f"P({n}) = {len(records)}"]
    lines += [f"  {r.word}  center={r.center} ext={''.join(sorted(r.extensions)) or '-'}"
              for r in records]
    if not params.is_sturmian:
        branches = infinite_branches(params, branch_budget, lang)
        payload["branches"] = [
            {"center": s.center, "generator": list(s.generator),
             "verified": s.verified,
             "materialized": len(s.central_factors)}
            for s in branches
        ]
        lines += [f"branch center={s.center} generator={s.generator} "
                  f"verified={s.verified}" for s in branches]
    _emit(fmt, payload, lines)


@main.command("parry-check")
@click.option("--digits", type=str, required=True)
@_FORMAT
def parry_check_cmd(digits, fmt):
    """Parry admissibility of a candidate Renyi expansion."""
    renyi = RenyiExpansion.parse(digits)
    ok, shift = parry_check(renyi)
    payload = {"schema": 1, "digits": str(renyi), "valid": ok,
               "violating_shift": shift, "minimal": renyi.is_minimal}
    lines = ["valid" if ok else f"invalid (shift {shift} not strictly smaller)"]
    _emit(fmt, payload, lines)
    if not ok:
        sys.exit(EXIT_VERIFICATION)


@main.command("beta-expand")
@click.option("--a", type=int)
@click.option("--b", type=int)
@click.option("--x", type=str, required=True)
@click.option("--digit-count", type=click.IntRange(max=MAX_DIGIT_COUNT),
              default=16, show_default=True,
              help="Digits to print: at least k + 1, the digits of x before "
                   f"the point, and at most {MAX_DIGIT_COUNT}.")
@_PRECISION
@_FORMAT
def beta_expand_cmd(a, b, x, digit_count, precision, fmt):
    """Greedy beta-expansion digits of x, exact in Q(beta)."""
    params = _params(a, b)
    try:
        k, digit_seq = beta_expand(x, params, digit_count)
    except DigitCountError as exc:
        raise click.BadParameter(str(exc), param_hint="'--digit-count'") from None
    rendered = _render_expansion(k, digit_seq)
    payload = {"schema": 1, "a": params.a, "b": params.b, "x": x,
               "exponent": k, "digits": list(digit_seq),
               "rendered": rendered}
    _emit(fmt, payload, [rendered])


def _render_expansion(k, digit_seq):
    integer = [str(d) for d in digit_seq[: k + 1]]
    frac = [str(d) for d in digit_seq[k + 1 :]]
    return "".join(integer) + ("." + "".join(frac) if frac else "")


@main.command("beta-integers")
@click.option("--a", type=int)
@click.option("--b", type=int)
@click.option("--digits", type=str, default=None)
@click.option("--count", type=int, default=10, show_default=True)
@_PRECISION
@_FORMAT
def beta_integers_cmd(a, b, digits, count, precision, fmt):
    """First beta-integers to min(--precision, 12) significant digits, and gaps."""
    sub, _, renyi = _subject(a, b, digits)
    try:
        shown, letters = beta_integer_decimals(renyi, min(precision, 12), count, sub)
    except PrecisionError:
        raise PrecisionError(
            f"precision {precision} does not separate consecutive "
            "beta-integers; increase --precision") from None
    payload = {"schema": 1, "digits": str(renyi), "count": count,
               "values": shown, "gap_letters": letters}
    lines = [", ".join(shown), f"gaps: {letters}"]
    _emit(fmt, payload, lines)


def run():
    try:
        main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(2)
    except click.exceptions.Abort:
        sys.exit(2)
    except PrecisionError as exc:
        click.echo(f"precision error: {exc}", err=True)
        sys.exit(EXIT_PRECISION)
    except VerificationError as exc:
        click.echo(json.dumps({"schema": 1, "error": str(exc),
                               "context": exc.context}), err=True)
        sys.exit(EXIT_VERIFICATION)
    except (InvalidInputError, UnsupportedVariantError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    run()
