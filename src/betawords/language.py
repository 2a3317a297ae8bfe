"""Factor enumeration for fixed points of substitutions, exact by construction.

Let u = phi(u) be the fixed point and L2 its set of two-letter factors.  Once
every letter c of u has |phi^k(c)| >= n, each length-n factor of u lies
inside phi^k(xy) for some xy in L2 (Allouche & Shallit, *Automatic
Sequences*, ch. 7), and every factor of such a word is a factor of u.  So
the words phi^k(x) phi^k(y) hold exactly the factors of u up to length
min_c |phi^k(c)|, with no heuristic and no stabilization check.  One scan
gives every shorter factor set by truncation, since each occurrence in a
one-sided infinite word extends to the right.  A scan reads as far as the
words reach, up to twice the length asked for, so callers that ask for
lengths in increasing order cause O(log n) scans.
"""

from __future__ import annotations

from .beta_numeration import QuadraticParams
from .errors import InvalidInputError
from .substitution import Substitution, letter, quadratic_substitution

_SEPARATOR = " "  # between the words phi^k(x) phi^k(y); no letter of u


class FactorLanguage:
    """Cached view of the language of a substitution fixed point."""

    def __init__(self, substitution: Substitution):
        self.substitution = substitution
        self._phi = phi = {letter(j): image
                           for j, image in enumerate(substitution.images)}
        # seeded by phi(axiom), closed under xy -> the 2-factors of phi(xy)
        self.two_factors: set[str] = set()
        todo = [substitution.images[substitution.axiom]]
        while todo:
            word = todo.pop()
            new = {word[i : i + 2] for i in range(len(word) - 1)} - self.two_factors
            self.two_factors |= new
            todo += [phi[x] + phi[y] for x, y in new]
        # a letter still one letter long after |alphabet| steps cycles
        # through single letters and never grows
        lengths = dict.fromkeys("".join(self.two_factors), 1)
        for _ in range(substitution.alphabet_size):
            lengths = {c: sum(lengths[d] for d in phi[c]) for c in lengths}
        if 1 in lengths.values():
            raise InvalidInputError("a letter's image never grows")
        self._images = {c: c for c in lengths}  # phi^k(c), each letter of u
        self._text = ""  # the words phi^k(x) phi^k(y), xy in L2
        self._reach = 0  # the text holds every factor up to this length
        self._scanned = 0
        self._factor_cache: dict[int, frozenset[str]] = {0: frozenset({""})}

    def _grow(self, n: int) -> None:
        """Raise k until the text holds every factor of length n."""
        while self._reach < n:
            images = self._images = {
                c: "".join(self._images[d] for d in self._phi[c])
                for c in self._images}
            self._reach = min(map(len, images.values()))
            self._text = _SEPARATOR.join(images[xy[0]] + images[xy[1]]
                                         for xy in sorted(self.two_factors))

    def factors(self, n: int) -> frozenset[str]:
        """The complete set of length-n factors."""
        if n < 0:
            raise InvalidInputError("factor length must be nonnegative")
        if n > self._scanned:
            self._grow(n)
            self._scanned = min(self._reach, 2 * n)
            self._factor_cache[self._scanned] = frozenset(
                self._scan(self._scanned, len(self._text)))
        cached = self._factor_cache.get(n)
        if cached is None:
            longest = self._factor_cache[self._scanned]
            cached = self._factor_cache[n] = frozenset(f[:n] for f in longest)
        return cached

    def _scan(self, n: int, length: int) -> set[str]:
        """The length-n factors of u in the first `length` letters of the
        text, which must hold every factor of that length."""
        text = self._text
        windows = {text[i : i + n] for i in range(length - n + 1)}
        return {w for w in windows if _SEPARATOR not in w}

    def __contains__(self, word: str) -> bool:
        return self.contains(word)

    def contains(self, word: str) -> bool:
        """Membership via substring search in the words phi^k(x) phi^k(y)."""
        self._grow(len(word))
        return word in self._text

    def complexity(self, n: int) -> int:
        """Oracle C(n): the number of distinct length-n factors."""
        return len(self.factors(n))

    def left_special_factors(self, n: int) -> set[str]:
        """Factors of length n with at least two left extensions."""
        longer = self.factors(n + 1)
        seen: dict[str, set[str]] = {}
        for f in longer:
            seen.setdefault(f[1:], set()).add(f[0])
        return {w for w, ext in seen.items() if len(ext) >= 2}

    def is_left_special(self, word: str) -> bool:
        return word in self.left_special_factors(len(word))


def language_of(subject: FactorLanguage | Substitution | QuadraticParams
                ) -> FactorLanguage:
    """The oracle for a subject: a FactorLanguage as given, else a new one."""
    if isinstance(subject, FactorLanguage):
        return subject
    if isinstance(subject, QuadraticParams):
        subject = quadratic_substitution(subject)
    return FactorLanguage(subject)
