"""Factor enumeration for fixed points of substitutions.

The factor set of length n is read off a fixed-point prefix, starting at
64*n letters and doubling the prefix until the set no longer changes between
two consecutive doublings.  For the uniformly recurrent words handled here
this stabilizes immediately in practice; downstream agreement with the
closed-form complexity catches any shortfall.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .substitution import FixedPointStream, Substitution

MIN_PREFIX_FACTOR = 64
_PREFIX_FLOOR = 256
_MAX_PREFIX = 1 << 26


class FactorLanguage:
    """Cached view of the language of a substitution fixed point."""

    def __init__(self, substitution: Substitution):
        self.substitution = substitution
        self.stream = FixedPointStream(substitution)
        self._factor_cache: dict[int, frozenset[str]] = {}

    def factors(self, n: int) -> frozenset[str]:
        """The complete set of length-n factors."""
        if n < 0:
            raise InvalidInputError("factor length must be nonnegative")
        if n == 0:
            return frozenset({""})
        cached = self._factor_cache.get(n)
        if cached is not None:
            return cached
        length = max(MIN_PREFIX_FACTOR * n, _PREFIX_FLOOR)
        current = self._scan(n, length)
        while True:
            length *= 2
            grown = self._scan(n, length)
            if grown == current:
                break
            if length > _MAX_PREFIX:
                raise InvalidInputError(
                    f"factor set of length {n} did not stabilize below "
                    f"prefix length {_MAX_PREFIX}"
                )
            current = grown
        result = frozenset(current)
        self._factor_cache[n] = result
        return result

    def _scan(self, n: int, prefix_length: int) -> set[str]:
        prefix = self.stream.prefix(prefix_length)
        return {prefix[i : i + n] for i in range(len(prefix) - n + 1)}

    def __contains__(self, word: str) -> bool:
        return self.contains(word)

    def contains(self, word: str) -> bool:
        """Membership via substring search in a stabilized prefix."""
        if word == "":
            return True
        n = len(word)
        if n in self._factor_cache:
            return word in self._factor_cache[n]
        length = max(MIN_PREFIX_FACTOR * n, _PREFIX_FLOOR)
        if word in self.stream.prefix(length):
            return True
        # absent at the floor: double once to confirm
        return word in self.stream.prefix(2 * length)

    def complexity(self, n: int) -> int:
        """Oracle C(n): the number of distinct length-n factors."""
        return len(self.factors(n))

    def left_extensions(self, word: str) -> set[str]:
        n = len(word)
        return {f[0] for f in self.factors(n + 1) if f.endswith(word)}

    def left_special_factors(self, n: int) -> set[str]:
        """Factors of length n with at least two left extensions."""
        longer = self.factors(n + 1)
        seen: dict[str, set[str]] = {}
        for f in longer:
            seen.setdefault(f[1:], set()).add(f[0])
        return {w for w, ext in seen.items() if len(ext) >= 2}

    def is_left_special(self, word: str) -> bool:
        return len(self.left_extensions(word)) >= 2
