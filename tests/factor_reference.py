"""Set-based factor readers, kept as a reference for tests.

These are the readers the package used before every per-length question
read the suffix automaton: the set of length-n factors as the length-n
substrings of the junction windows for n, C(n) as its size, the left
special factors from the set for n + 1, the reversal-closure probe that
checks each factor set against its reversals, and membership, a substring
search in the windows for the word's length.  No command calls them; tests
compare the automaton readers with them, and use the factor sets where they
need every factor of one length.  `factors` and `contains` read the windows
themselves, so the tests that compare them with prefix scans check the
window cover as well.  `palindrome_rows` is the eertree reader that sorted
every palindrome into maximal and two-extension classes, which no command
reads: the tests check the closed form's columns of those classes with it.
"""

from __future__ import annotations

from betawords.errors import InvalidInputError
from betawords.language import FactorLanguage


def factors(lang: FactorLanguage, n: int) -> frozenset[str]:
    """The complete set of length-n factors: the length-n substrings of
    the junction windows for n."""
    if n < 0:
        raise InvalidInputError("factor length must be nonnegative")
    return frozenset(piece[i : i + n] for piece in lang._windows(n)
                     for i in range(len(piece) - n + 1))


def contains(lang: FactorLanguage, word: str) -> bool:
    """Membership: a substring search in the junction windows for len(word)."""
    return any(word in piece for piece in lang._windows(len(word)))


def complexity(lang: FactorLanguage, n: int) -> int:
    """Oracle C(n): the number of distinct length-n factors."""
    return len(factors(lang, n))


def left_special_factors(lang: FactorLanguage, n: int) -> set[str]:
    """Factors of length n with at least two left extensions."""
    longer = factors(lang, n + 1)
    seen: dict[str, set[str]] = {}
    for f in longer:
        seen.setdefault(f[1:], set()).add(f[0])
    return {w for w, ext in seen.items() if len(ext) >= 2}


def is_left_special(lang: FactorLanguage, word: str) -> bool:
    return word in left_special_factors(lang, len(word))


def reversal_closure_probe(lang: FactorLanguage, n_max: int) -> dict:
    """Check reversal-invariance of the factor sets up to n_max.

    Returns {"closed_up_to": n, "witness": w or None}; the witness is a factor
    whose reversal is not a factor, at the first length where one exists.
    """
    for n in range(1, n_max + 1):
        found = factors(lang, n)
        for w in sorted(found):
            if w[::-1] not in found:
                return {"closed_up_to": n - 1, "witness": w}
    return {"closed_up_to": n_max, "witness": None}


def palindrome_rows(lang: FactorLanguage, n_max: int) -> list[tuple[int, int, int]]:
    """Oracle (P(n), maximal, two-extension) for 0 <= n <= n_max, from one
    eertree; a palindrome's extensions are the letters z of u with z w z
    a factor, and it is maximal with none, two-extension with two or
    more."""
    _, length, edges, _ = lang._eertree(n_max + 2)
    counts = [[0, 0, 0] for _ in range(n_max + 1)]
    for size, *targets in zip(length, *edges.values()):
        if 0 <= size <= n_max:
            # an edge of -1 is a letter that does not extend
            row, ext = counts[size], len(targets) - targets.count(-1)
            row[0] += 1
            row[1] += ext == 0
            row[2] += ext >= 2
    return [tuple(row) for row in counts]
