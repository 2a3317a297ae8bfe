"""Substitutions over integer alphabets and their fixed-point prefixes.

Words are plain Python strings: letter j is the character chr(48 + j), so a
binary word reads like "0001001".  That keeps factor enumeration at C speed
for the alphabet sizes that occur here.
"""

from __future__ import annotations

import re
from itertools import chain, islice

from .beta_numeration import (QuadraticParams, RenyiExpansion, _Frozen,
                              parry_check, renyi_of_quadratic)
from .errors import InvalidInputError, UnsupportedVariantError


# The most letters of an image phi(c) of a Parry substitution, checked on
# the digits before it is built: 10^8 letters take 100 MB
MAX_IMAGE_LETTERS = 10 ** 8


def letter(index: int) -> str:
    return chr(ord("0") + index)


def letter_index(ch: str) -> int:
    return ord(ch) - ord("0")


class Substitution(_Frozen):
    """Letter-to-word morphism over the letters 0 .. len(images)-1, image j
    that of letter j.

    The image of 0, the axiom, must start with 0 and be at least two letters
    long, so the fixed point lim phi^n(0) exists and is prefix-stable.
    """

    __slots__ = ("images",)

    def __init__(self, images: tuple[str, ...]):
        self._set(images=images)
        if not images:
            raise InvalidInputError("need one image per letter")
        alphabet = re.compile(f"[0-{re.escape(letter(len(images) - 1))}]*")
        for img in images:
            if len(img) == 0:
                raise InvalidInputError("images must be non-empty")
            if not alphabet.fullmatch(img):
                raise InvalidInputError("image uses a letter outside the alphabet")
        if len(images[0]) < 2 or letter_index(images[0][0]) != 0:
            raise InvalidInputError(
                "axiom image must start with the axiom and have length >= 2"
            )


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
    # each image checked against the bound, then built in one allocation; the
    # message names no digit, which may pass Python's limit on int-to-str
    digits = renyi.digits(k)
    if max(digits) >= MAX_IMAGE_LETTERS:
        raise InvalidInputError(
            f"an image is past the bound of {MAX_IMAGE_LETTERS} letters")
    images = [letter(j if j < k else renyi.m).rjust(t + 1, "0")
              for j, t in enumerate(digits, start=1)]
    return Substitution(tuple(images))


def _next_sizes(phi: dict[str, str], sizes: dict[str, int]) -> dict[str, int]:
    """|phi^(k+1)(c)| = sum over d of |phi(c)|_d |phi^k(d)|: no image built."""
    return {c: sum(phi[c].count(d) * s for d, s in sizes.items()) for c in sizes}


def _next_images(phi: dict[str, str], images: dict[str, str]) -> dict[str, str]:
    """phi^(k+1)(c): phi(c) with each d replaced by phi^k(d), by str.translate."""
    return {c: phi[c].translate(str.maketrans(images)) for c in images}


def fixed_point_prefix(substitution: Substitution, length: int) -> str:
    """First `length` letters of the fixed point u = lim phi^k(0).

    u = phi^k(u) for every k, so u is the blocks phi^k(x), one per letter x
    of u in turn, and those letters are read off the blocks already written:
    they are ahead of the reading, since the first block, phi^k(0), has at
    least two letters.  k is the first level whose phi^k(0) holds the
    prefix, or else the last whose images all have at most `length` letters
    by `_next_sizes` (at least 1), so no image is built longer than the
    prefix and O(length) letters are built in all.
    """
    if length < 0:
        raise InvalidInputError("length must be nonnegative")
    phi = images = {letter(j): image for j, image in enumerate(substitution.images)}
    while len(images["0"]) < length and max(_next_sizes(
            phi, {c: len(image) for c, image in images.items()}).values()) <= length:
        images = _next_images(phi, images)
    blocks = [images["0"][:length]]
    # the letters of u after its first, whose block is the first
    size, letters = len(blocks[0]), islice(chain.from_iterable(blocks), 1, None)
    while size < length:
        blocks.append(images[next(letters)][: length - size])
        size += len(blocks[-1])
    return "".join(blocks)
