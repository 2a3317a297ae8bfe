"""Substitutions over integer alphabets and their fixed-point prefixes.

Words are plain Python strings: letter j is the character chr(48 + j), so a
binary word reads like "0001001".  That keeps factor enumeration at C speed
for the alphabet sizes that occur here.
"""

from __future__ import annotations

from .beta_numeration import (QuadraticParams, RenyiExpansion, _Frozen,
                              parry_check, renyi_of_quadratic)
from .errors import InvalidInputError, UnsupportedVariantError


# The most letters of one image phi^k(c) that the package builds, checked
# from letter counts before the image is joined: 10^8 letters take 100 MB
MAX_IMAGE_LETTERS = 10 ** 8


def _check_image_letters(letters: int) -> int:
    if letters > MAX_IMAGE_LETTERS:
        raise InvalidInputError(f"an image of {letters} letters is past the "
                                f"bound of {MAX_IMAGE_LETTERS} letters")
    return letters


def letter(index: int) -> str:
    return chr(ord("0") + index)


def letter_index(ch: str) -> int:
    return ord(ch) - ord("0")


class Substitution(_Frozen):
    """Letter-to-word morphism with a designated axiom letter.

    The axiom image must start with the axiom and be at least two letters
    long, so the fixed point lim phi^n(axiom) exists and is prefix-stable.
    """

    __slots__ = ("alphabet_size", "images", "axiom", "_table")

    def __init__(self, alphabet_size: int, images: tuple[str, ...],
                 axiom: int = 0):
        self._set(alphabet_size=alphabet_size, images=images, axiom=axiom)
        self.__post_init__()

    def __post_init__(self):
        if self.alphabet_size < 1 or len(self.images) != self.alphabet_size:
            raise InvalidInputError("need one image per letter")
        alphabet = {letter(j) for j in range(self.alphabet_size)}
        for img in self.images:
            if len(img) == 0:
                raise InvalidInputError("images must be non-empty")
            if not set(img) <= alphabet:
                raise InvalidInputError("image uses a letter outside the alphabet")
        ax = self.images[self.axiom]
        if len(ax) < 2 or letter_index(ax[0]) != self.axiom:
            raise InvalidInputError(
                "axiom image must start with the axiom and have length >= 2"
            )
        self._set(_table={ord(letter(j)): img
                          for j, img in enumerate(self.images)})

    def apply(self, word: str) -> str:
        """phi(word), images applied letterwise."""
        # translate passes unknown characters through, so count them first
        if sum(word.count(letter(j)) for j in range(self.alphabet_size)) != len(word):
            raise InvalidInputError("word uses a letter outside the alphabet")
        return word.translate(self._table)


def quadratic_substitution(params: QuadraticParams) -> Substitution:
    """phi(0) = 0^a 1, phi(1) = 0^b 1 over {0, 1} with axiom 0: the canonical
    substitution of a (b)."""
    return parry_substitution(renyi_of_quadratic(params))


def parry_substitution(renyi: RenyiExpansion) -> Substitution:
    """Canonical substitution of a non-simple Parry expansion.

    Over the alphabet {0, .., m+p-1}: letter j maps to 0^{t_{j+1}} (j+1) for
    j <= m+p-2, and the last letter maps to 0^{t_{m+p}} m, closing the cycle
    through the periodic part.
    """
    ok, shift = parry_check(renyi)
    if not ok:
        raise InvalidInputError(f"digits fail the Parry criterion at shift {shift}")
    if renyi.is_simple:
        raise UnsupportedVariantError(
            "simple Parry expansions have a different canonical substitution"
        )
    k = renyi.m + renyi.p
    # each image checked against the bound, then built in one allocation
    images = [letter(j if j < k else renyi.m).rjust(
        _check_image_letters(renyi.digit(j) + 1), "0") for j in range(1, k + 1)]
    return Substitution(alphabet_size=k, images=tuple(images), axiom=0)


class FixedPointStream:
    """Monotonically growing prefix buffer of the fixed point lim phi^n(axiom).

    Applying phi to a prefix of the fixed point yields a longer prefix, so the
    buffer is extended by repeated image application with truncation; no more
    than O(L + max image length) letters are ever materialized.
    """

    def __init__(self, substitution: Substitution):
        self.substitution = substitution
        self._buffer = letter(substitution.axiom)

    def prefix(self, length: int) -> str:
        if length < 0:
            raise InvalidInputError("length must be nonnegative")
        while len(self._buffer) < length:
            grown = self.substitution.apply(self._buffer)
            if len(grown) <= len(self._buffer):
                raise InvalidInputError("substitution does not grow from the axiom")
            self._buffer = grown[: max(length, len(self._buffer))]
        return self._buffer[:length]


def fixed_point_prefix(substitution: Substitution, length: int) -> str:
    """First `length` letters of the fixed point."""
    return FixedPointStream(substitution).prefix(length)

