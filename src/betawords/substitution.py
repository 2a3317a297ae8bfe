"""Substitutions over integer alphabets and their fixed-point prefixes.

Words are plain Python strings: letter j is the character chr(48 + j), so a
binary word reads like "0001001".  That keeps factor enumeration at C speed
for the alphabet sizes that occur here.
"""

from itertools import chain, islice

from .beta_numeration import (QuadraticParams, RenyiExpansion, _Frozen,
                              parry_check, renyi_of_quadratic)
from .errors import InvalidInputError, UnsupportedVariantError


def letter(index: int) -> str:
    return chr(ord("0") + index)


class Substitution(_Frozen):
    """Letter-to-word morphism over the letters 0 .. len(runs)-1: runs[j] is
    the image of letter j as its maximal runs (d, t), letter d written t >= 1
    times, each run's letter other than the next run's.

    The image of 0, the axiom, must start with 0 and be at least two letters
    long, so the fixed point lim phi^n(0) exists and is prefix-stable.
    """

    __slots__ = ("runs",)

    def __init__(self, runs: tuple[tuple[tuple[str, int], ...], ...]):
        try:  # images given as any sequences of pairs (d, t), held as tuples
            runs = tuple(tuple((d, t) for d, t in image) for image in runs)
        except (TypeError, ValueError):
            raise InvalidInputError("images must be sequences of runs (d, t)") from None
        self._set(runs=runs)
        if not runs:
            raise InvalidInputError("need one image per letter")
        alphabet = {letter(j) for j in range(len(runs))}
        for image in runs:
            if len(image) == 0:
                raise InvalidInputError("images must be non-empty")
            for i, (d, t) in enumerate(image):
                if type(d) is not str or d not in alphabet:
                    raise InvalidInputError("image uses a letter outside the alphabet")
                if type(t) is not int or t < 1 or i and d == image[i - 1][0]:
                    raise InvalidInputError("an image's runs must be maximal, each "
                                            "of one letter written t >= 1 times")
        if runs[0][0][0] != "0" or sum(t for _, t in runs[0]) < 2:
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
    ends = [*map(letter, range(1, k)), letter(renyi.m)]
    return Substitution(tuple((("0", t), (c, 1)) if t else ((c, 1),)
                              for t, c in zip(renyi.digits(k), ends)))


def _next_images(runs: dict, images: dict[str, str]) -> dict[str, str]:
    """phi^(k+1)(c) from the images phi^k(d): each run d^t of phi(c) written
    as t copies of phi^k(d)."""
    return {c: "".join([images[d] * t for d, t in runs[c]]) for c in runs}


def fixed_point_prefix(substitution: Substitution, length: int) -> str:
    """First `length` letters of the fixed point u = lim phi^k(0).

    u = phi^k(u) for every k, so u is the blocks phi^k(x), one per letter x
    of u in turn, and those letters are read off the blocks already written:
    they are ahead of the reading, since the first block, phi^k(0), has at
    least two letters.  The one phi-step, `_next_images`, writes every level
    over one plan, each run d^t of phi(c) cut to min(t, length) copies: a
    cut image has at least `length` letters, the first `length` of phi^k(c),
    so it is only ever read as the last block, truncated.  k is the first
    level whose phi^k(0) holds the prefix, or else the last whose images
    together have at most `length` letters (at least 1).
    """
    if length < 0:
        raise InvalidInputError("length must be nonnegative")
    plan = {letter(j): [(d, min(t, length)) for d, t in image]
            for j, image in enumerate(substitution.runs)}
    images = _next_images(plan, {c: c for c in plan})
    while len(images["0"]) < length and sum(
            t * len(images[d]) for image in plan.values() for d, t in image) <= length:
        images = _next_images(plan, images)
    blocks = [images["0"][:length]]
    # the letters of u after its first, whose block is the first
    size, letters = len(blocks[0]), islice(chain.from_iterable(blocks), 1, None)
    while size < length:
        blocks.append(images[next(letters)][: length - size])
        size += len(blocks[-1])
    return "".join(blocks)
