"""Closed-form factor complexity of the binary fixed points; the oracle's
C(n), which `analyze` and `verify` compare with it, is `FactorLanguage`'s.

The closed form integrates the first difference, which equals 2 exactly on
the intervals (|V^(k)|, |U^(k)|] spanned by the towers of total bispecial
factors V^(k) and maximal left special factors U^(k), and 1 elsewhere.

The letter counts of both towers come from one recurrence, `_tower_counts`.
The towers read it directly.  Its marks, +1 at each |V^(k)| and -1 at
each |U^(k)| (`_tower_marks`), are Delta^2 C and P(n+2) - P(n): Delta C is
one running sum of them, P(n) in `palindromes` two, one per parity, and
the identity suite and the closed-form palindrome counts read them.  Every
tower word, here and in the palindromic branches, comes from one T-orbit
builder, `t_orbit`, which joins T^k(w) = P_k phi^k(w) S_k from phi^k(0),
phi^k(1) and the T-prefix and T-suffix P_k, S_k, and every per-length
table, here, in `palindromes` and in the CLI, is one `Table`.
"""

from __future__ import annotations

import sys
from itertools import accumulate, islice, takewhile

from .beta_numeration import QuadraticParams
from .errors import InvalidInputError, UnsupportedVariantError
from .substitution import _next_images, quadratic_substitution

DEFAULT_MATERIALIZE_CAP = 10 ** 6


def _t_counts(zeros: int, ones: int, params: QuadraticParams) -> tuple[int, int]:
    """Letter counts of T(w) from the counts of w (exact, any size)."""
    a, b = params.a, params.b
    return 2 * b + a * zeros + b * ones, 1 + zeros + ones


def _tower_counts(params: QuadraticParams):
    """Letter counts of (V^(k), U^(k)) for k = 1, 2, ..., without end.

    |U^(k)| > |V^(k)| for every k off the boundary b = a-1: U^(1) = 0^(a-1)
    outcounts V^(1) = 0^b letter by letter, and T keeps that order.
    """
    v, u = (params.b, 0), (params.a - 1, 0)
    while True:
        yield v, u
        v, u = _t_counts(*v, params), _t_counts(*u, params)


def t_orbit(word: str, params: QuadraticParams, cap: int):
    """w, T(w), T^2(w), ... while the words have at most `cap` letters.

    T^k(w) = P_k phi^k(w) S_k, where P_(k+1) = P_k phi^k(0^b 1) and
    S_(k+1) = phi^k(0^b) S_k, and phi^(k+1)(0), phi^(k+1)(1) come from
    phi^k(0), phi^k(1) by the one phi-step, `_next_images`.  So each image
    is joined from a few words (`_t_image`), with no pass over the previous
    one; w is yielded as given, as a join would copy it.  Letter counts are
    checked before a word is built, so no word over the cap is materialized.
    """
    counts = (word.count("0"), word.count("1"))
    if sum(counts) != len(word):
        raise InvalidInputError("word uses a letter outside the alphabet")
    runs = dict(zip("01", quadratic_substitution(params).runs))
    image, images, prefix, suffix = word, {"0": "0", "1": "1"}, "", ""
    while sum(counts) <= cap:
        yield image
        counts = _t_counts(*counts, params)
        if sum(counts) <= cap:
            zeros = images["0"] * params.b
            prefix, suffix = prefix + zeros + images["1"], zeros + suffix
            images = _next_images(runs, images)
            image = _t_image(word, images, prefix, suffix)


def _t_image(first: str, images: dict[str, str], prefix: str, suffix: str) -> str:
    """P_k phi^k(first) S_k, given the images phi^k(c), P_k and S_k."""
    return "".join([prefix, *map(images.get, first), suffix])


class UVTower:
    """Towers U^(n), V^(n) with exact lengths far past materialization.

    U^(1) = 0^(a-1), V^(1) = 0^b, and both towers grow by the map T.
    The words are those `t_orbit` yields within `materialize_cap` letters;
    lengths continue exactly as arbitrary-size integers via the letter-count
    recurrence of T, up to Python's limit on the decimal digits of an int
    written out, past which the depth is invalid input.
    """

    def __init__(self, params: QuadraticParams, depth: int,
                 materialize_cap: int = DEFAULT_MATERIALIZE_CAP):
        if params.is_sturmian:
            raise UnsupportedVariantError(
                "the U/V towers degenerate on the Sturmian boundary b = a-1"
            )
        if depth < 0:
            raise InvalidInputError("tower depth must be nonnegative")
        self.params = params
        self.v_counts, self.u_counts = [], []
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        bound = 10 ** digits if digits else float("inf")
        for k, (v, u) in enumerate(islice(_tower_counts(params), depth), 1):
            # |U^(k)| > |V^(k)|, so U^(k) is the first past the bound
            if sum(u) >= bound:
                raise InvalidInputError(
                    f"|U^({k})| has more than {digits} decimal digits")
            self.v_counts.append(v)
            self.u_counts.append(u)
        self.u_words, self.v_words = (
            list(islice(t_orbit("0" * n, params, materialize_cap), depth))
            if n <= materialize_cap else [] for n in (params.a - 1, params.b))

    def lengths_json(self) -> dict:
        """Lengths as decimal strings (they outgrow doubles quickly)."""
        return {"schema": 1, "a": self.params.a, "b": self.params.b,
                "u_lengths": [str(z + o) for z, o in self.u_counts],
                "v_lengths": [str(z + o) for z, o in self.v_counts]}


def uv_tower(params: QuadraticParams, depth: int,
             materialize_cap: int = DEFAULT_MATERIALIZE_CAP) -> UVTower:
    return UVTower(params=params, depth=depth, materialize_cap=materialize_cap)


def tower_intervals(params: QuadraticParams, n_max: int):
    """Pairs (|V^(k)|, |U^(k)|) for every k with |V^(k)| < n_max."""
    counts = takewhile(lambda vu: sum(vu[0]) < n_max, _tower_counts(params))
    return [(sum(v), sum(u)) for v, u in counts]


def _tower_marks(params: QuadraticParams, n_max: int) -> list[int]:
    """+1 at each |V^(k)| plus -1 at each |U^(k)|, for n = 0 .. n_max; on
    the boundary b = a-1, |V^(k)| = |U^(k)| and the two marks cancel."""
    marks = [0] * (n_max + 1)
    for v_len, u_len in tower_intervals(params, n_max + 1):
        marks[v_len] += 1
        if u_len <= n_max:
            marks[u_len] -= 1
    return marks


def closed_form_delta_c(params: QuadraticParams, n_max: int) -> list[int]:
    """Delta C(n) for n = 1 .. n_max: 2 on each (|V^(k)|, |U^(k)|], else 1.

    Delta C(0) = 1 and Delta^2 C(n) is the mark of n, so Delta C(n) is 1
    plus the marks of 0 .. n-1.
    """
    if n_max < 0:
        raise InvalidInputError("factor length must be nonnegative")
    return list(accumulate(_tower_marks(params, n_max - 1), initial=1))[1:]


class Table:
    """Per-length rows, written out as the columns `fields`."""

    def __init__(self, fields: tuple[str, ...], rows: list[dict]):
        self.fields, self.rows = fields, rows

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def to_csv(self) -> str:
        # the values are ints and short words: none needs quoting
        lines = [self.fields, *([row[f] for f in self.fields] for row in self.rows)]
        return "".join(",".join(map(str, line)) + "\n" for line in lines)

    def to_json(self) -> dict:
        return {"schema": 1, "rows": self.rows}


def factor_complexity(params: QuadraticParams, n_max: int, mode: str) -> Table:
    """C(n) for 1 <= n <= n_max by the closed form, as a Table of n, C,
    deltaC and source.

    The closed form integrates Delta C from C(1) = 2.  `mode` has one legal
    value, "closed_form", which the source column writes out.
    """
    if mode != "closed_form":
        raise ValueError(f"unknown mode {mode!r}")
    delta = closed_form_delta_c(params, n_max)
    counts = list(accumulate(delta, initial=2))
    return Table(("n", "C", "deltaC", "source"), [
        {"n": n, "C": counts[n - 1], "deltaC": delta[n - 1], "source": mode}
        for n in range(1, n_max + 1)])
