"""Factor complexity of the binary fixed points: brute force and closed form.

The closed form integrates the first difference, which equals 2 exactly on
the intervals (|V^(k)|, |U^(k)|] spanned by the towers of total bispecial
factors V^(k) and maximal left special factors U^(k), and 1 elsewhere.

The letter counts of both towers come from one recurrence, `_tower_counts`.
The towers read it directly; both closed forms, this one and P(n) in
`palindromes`, read it through `tower_intervals`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from itertools import accumulate, islice, takewhile

from .beta_numeration import QuadraticParams
from .errors import InvalidInputError, UnsupportedVariantError
from .language import FactorLanguage, language_of
from .substitution import Substitution, quadratic_substitution

DEFAULT_MATERIALIZE_CAP = 10 ** 6


def t_map(word: str, params: QuadraticParams) -> str:
    """The language-preserving map w -> 0^b 1 phi(w) 0^b."""
    phi = quadratic_substitution(params)
    zeros = "0" * params.b
    return zeros + "1" + phi.apply(word) + zeros


def _t_counts(zeros: int, ones: int, params: QuadraticParams) -> tuple[int, int]:
    """Letter counts of T(w) from the counts of w (exact, any size)."""
    a, b = params.a, params.b
    return 2 * b + a * zeros + b * ones, 1 + zeros + ones


def _tower_counts(params: QuadraticParams):
    """Letter counts of (V^(k), U^(k)) for k = 1, 2, ..., without end.

    |U^(k)| > |V^(k)| for every k: U^(1) = 0^(a-1) outcounts V^(1) = 0^b
    letter by letter, and T keeps that order.
    """
    v, u = (params.b, 0), (params.a - 1, 0)
    while True:
        yield v, u
        v, u = _t_counts(*v, params), _t_counts(*u, params)


def _tower_words(first: str, counts: list[tuple[int, int]], cap: int,
                 params: QuadraticParams) -> list[str]:
    """The first word, then its T-images while the counts keep them within cap."""
    words = [first] if counts else []
    for zeros, ones in counts[1:]:
        if zeros + ones > cap:
            break
        words.append(t_map(words[-1], params))
    return words


@dataclass
class UVTower:
    """Towers U^(n), V^(n) with exact lengths far past materialization.

    U^(1) = 0^(a-1), V^(1) = 0^b, and both towers grow by the map T.
    Words are materialized while their length stays below `materialize_cap`;
    lengths continue exactly as arbitrary-size integers via the letter-count
    recurrence of T.
    """

    params: QuadraticParams
    depth: int
    materialize_cap: int = DEFAULT_MATERIALIZE_CAP
    u_words: list[str] = field(default_factory=list)
    v_words: list[str] = field(default_factory=list)
    u_counts: list[tuple[int, int]] = field(default_factory=list)
    v_counts: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        params = self.params
        if params.is_sturmian:
            raise UnsupportedVariantError(
                "the U/V towers degenerate on the Sturmian boundary b = a-1"
            )
        if self.depth < 0:
            raise InvalidInputError("tower depth must be nonnegative")
        counts = list(islice(_tower_counts(params), self.depth))
        self.v_counts = [v for v, _ in counts]
        self.u_counts = [u for _, u in counts]
        cap = self.materialize_cap
        self.u_words = _tower_words("0" * (params.a - 1), self.u_counts, cap, params)
        self.v_words = _tower_words("0" * params.b, self.v_counts, cap, params)

    def u_length(self, n: int) -> int:
        """|U^(n)|, 1-based, exact."""
        z, o = self.u_counts[n - 1]
        return z + o

    def v_length(self, n: int) -> int:
        """|V^(n)|, 1-based, exact."""
        z, o = self.v_counts[n - 1]
        return z + o

    def u_word(self, n: int) -> str:
        return self.u_words[n - 1]

    def v_word(self, n: int) -> str:
        return self.v_words[n - 1]

    @property
    def materialized_depth(self) -> int:
        return min(len(self.u_words), len(self.v_words))

    def lengths_json(self) -> dict:
        """Lengths as decimal strings (they outgrow doubles quickly)."""
        return {
            "schema": 1,
            "a": self.params.a,
            "b": self.params.b,
            "u_lengths": [str(self.u_length(n)) for n in range(1, self.depth + 1)],
            "v_lengths": [str(self.v_length(n)) for n in range(1, self.depth + 1)],
        }


def uv_tower(params: QuadraticParams, depth: int,
             materialize_cap: int = DEFAULT_MATERIALIZE_CAP) -> UVTower:
    return UVTower(params=params, depth=depth, materialize_cap=materialize_cap)


def tower_intervals(params: QuadraticParams, n_max: int):
    """Pairs (|V^(k)|, |U^(k)|) for every k with |V^(k)| < n_max."""
    counts = takewhile(lambda vu: sum(vu[0]) < n_max, _tower_counts(params))
    return [(sum(v), sum(u)) for v, u in counts]


def closed_form_delta_c(params: QuadraticParams, n_max: int) -> list[int]:
    """Delta C(n) for n = 1 .. n_max: 2 on each (|V^(k)|, |U^(k)|], else 1."""
    if params.is_sturmian:
        raise UnsupportedVariantError("closed form applies only for a-1 > b")
    delta = [1] * (n_max + 1)
    for v_len, u_len in tower_intervals(params, n_max + 1):
        for n in range(v_len + 1, min(u_len, n_max) + 1):
            delta[n] = 2
    return delta[1:]


@dataclass
class Table:
    """Per-length rows of a complexity function, written out as `fields`."""

    rows: list[dict]
    fields = ()

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=self.fields)
        writer.writeheader()
        writer.writerows(self.rows)
        return out.getvalue()

    def to_json(self) -> dict:
        return {"schema": 1, "rows": self.rows}


class ComplexityTable(Table):
    """Per-length C(n) and Delta C(n) with the provenance of each value."""

    fields = ("n", "C", "deltaC", "source")

    def c_values(self) -> list[int]:
        return [row["C"] for row in self.rows]


def factor_complexity(
    subject: FactorLanguage | Substitution | QuadraticParams,
    n_max: int,
    mode: str = "oracle",
) -> ComplexityTable:
    """C(n) for 1 <= n <= n_max by brute force or by the closed form.

    The oracle reads a given FactorLanguage, or builds one for the subject.
    The closed form needs quadratic non-Sturmian parameters and integrates
    Delta C from C(1) = 2.
    """
    if mode == "oracle":
        lang = language_of(subject)
        counts = [lang.complexity(n) for n in range(1, n_max + 2)]
        delta = [after - before for before, after in zip(counts, counts[1:])]
    elif mode != "closed_form":
        raise ValueError(f"unknown mode {mode!r}")
    elif not isinstance(subject, QuadraticParams):
        raise UnsupportedVariantError(
            "closed-form complexity is defined only for quadratic parameters"
        )
    else:
        delta = closed_form_delta_c(subject, n_max)
        counts = list(accumulate(delta, initial=2))
    return ComplexityTable(rows=[
        {"n": n, "C": counts[n - 1], "deltaC": delta[n - 1], "source": mode}
        for n in range(1, n_max + 1)])
