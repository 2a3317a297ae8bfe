"""Floating-point beta arithmetic under mpmath, kept as a reference for tests.

These are the mpf views the package used before its beta arithmetic became
exact: beta at a working precision, the unity sum, the greedy expansion with
its floor guard, reconstruction, gap distances and Horner values of the
beta-integers.  No command calls them; tests compare the exact code against
them and use them where an input is irrational, such as x = beta + 1.

The beta-integers come from Parry's admissible digit strings, generated
level by level in (length, lexicographic) order (`_admissible_strings`,
`_levels`), and each gap is named by its exact coordinates in Z[beta].  The
package reads the same gaps off the fixed point of the canonical
substitution; this enumeration is the independent check on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from betawords.beta_numeration import (QuadraticParams, RenyiExpansion,
                                       _beta_floor, _parry_relation, parry_check)
from betawords.errors import InvalidInputError, PrecisionError, VerificationError
from betawords.substitution import letter

DEFAULT_PRECISION = 64


@dataclass(frozen=True)
class BetaValue:
    """Numeric beta at a given working precision."""

    value: mpf
    precision: int

    def __float__(self) -> float:
        return float(self.value)


def exact_beta(params: QuadraticParams) -> tuple[int, int, int, int]:
    """beta = (u + v*sqrt(D)) / w as the integer quadruple (u, v, D, w)."""
    a, b = params.a, params.b
    return (a + 1, 1, (a + 1) ** 2 - 4 * (a - b), 2)


def beta_of(params: QuadraticParams, precision: int = DEFAULT_PRECISION) -> BetaValue:
    """Larger root of x^2 - (a+1)x + (a-b)."""
    from mpmath import mpf, sqrt as mpsqrt, workdps
    u, v, d, w = exact_beta(params)
    with workdps(precision):
        value = (mpf(u) + v * mpsqrt(d)) / w
    return BetaValue(value=value, precision=precision)


def beta_of_renyi(renyi: RenyiExpansion, precision: int = DEFAULT_PRECISION) -> BetaValue:
    """Numeric beta solving sum t_i beta^(-i) = 1 for a valid expansion.

    For m = p = 1 and t_1 - 1 >= t_2 >= 1 the root comes from the quadratic
    formula of `beta_of`; otherwise floor(beta 2^K) from `_beta_floor`, with
    K past precision + 10 digits, is rounded once to `precision`.
    """
    from mpmath import mpf, workdps
    ok, shift = parry_check(renyi)
    if not ok:
        raise InvalidInputError(f"digits fail the Parry criterion at shift {shift}")
    if renyi.m == 1 and renyi.p == 1 and renyi.digit(1) - 1 >= renyi.digit(2) >= 1:
        return beta_of(QuadraticParams(renyi.digit(1), renyi.digit(2)), precision)
    bits = 4 * (precision + 10)
    scaled = _beta_floor(_parry_relation(renyi), renyi.digit(1), bits)
    with workdps(precision):
        value = mpf((scaled, -bits))
    return BetaValue(value=value, precision=precision)


def _shifted_tail_sum(renyi: RenyiExpansion, k: int, beta) -> mpf:
    """sum_{i>=1} t_{i+k} beta^(-i) in closed form."""
    from mpmath import mpf
    m, p = renyi.m, renyi.p
    inv = 1 / mpf(beta)
    total = mpf(0)
    # preperiod leftover: indices j = k+1 .. m
    power = inv
    for j in range(k + 1, m + 1):
        total += renyi.digit(j) * power
        power *= inv
    # aligned periodic tail starting at index j0
    j0 = max(k + 1, m + 1)
    offset = (j0 - m - 1) % p
    one_period = mpf(0)
    ppow = mpf(1)
    for l in range(p):
        one_period += renyi.period[(offset + l) % p] * ppow
        ppow *= inv
    e0 = j0 - k
    total += (inv ** e0) * one_period / (1 - inv ** p)
    return total


def unity_defect(renyi: RenyiExpansion, beta: BetaValue) -> mpf:
    """|1 - sum t_i beta^(-i)| at the beta value's working precision."""
    from mpmath import workdps
    with workdps(beta.precision):
        return abs(1 - _shifted_tail_sum(renyi, 0, beta.value))


def beta_expand(x, beta: BetaValue, digit_count: int) -> tuple[int, tuple[int, ...]]:
    """Greedy expansion of x >= 0: returns (k, digits) with digits x_k..x_{k-digit_count+1}.

    x = sum digits[i] * beta^(k-i) + remainder, each digit in {0..ceil(beta)-1}.
    Produced by iterating T_beta(y) = beta*y - floor(beta*y) on x / beta^(k+1).
    """
    from mpmath import mp, mpf, workdps
    if digit_count < 1:
        raise InvalidInputError("digit_count must be >= 1")
    with workdps(beta.precision):
        try:
            xv = mpf(x)
        except ValueError as exc:
            raise InvalidInputError(f"x is not a number: {x!r}") from exc
        if not mp.isfinite(xv):
            raise InvalidInputError(f"x must be finite, got {x!r}")
        if xv < 0:
            raise InvalidInputError("x must be nonnegative")
        if xv == 0:
            return 0, (0,) * digit_count
        bv = beta.value
        k = 0
        while bv ** (k + 1) <= xv:
            k += 1
        y = xv / bv ** (k + 1)
        # floor with a guard at half the working precision: beta-integers hit
        # exact integer iterates that rounding may land a hair below
        guard = mpf(10) ** (-beta.precision // 2)
        digits = []
        for _ in range(digit_count):
            y = bv * y
            d = int(mp.floor(y + guard))
            y = max(y - d, mpf(0))
            digits.append(d)
        return k, tuple(digits)


def beta_reconstruct(k: int, digits, beta: BetaValue) -> mpf:
    """sum digits[i] * beta^(k-i); inverse of beta_expand up to truncation."""
    from mpmath import mpf, workdps
    with workdps(beta.precision):
        total = mpf(0)
        for i, d in enumerate(digits):
            total += d * beta.value ** (k - i)
        return total


@dataclass(frozen=True)
class GapDistances:
    """Distances Delta_0 .. Delta_{m+p-1} between consecutive beta-integers."""

    values: tuple[mpf, ...]
    precision: int

    def __len__(self) -> int:
        return len(self.values)


def gap_distances(renyi: RenyiExpansion, beta: BetaValue) -> GapDistances:
    """Delta_k = sum_{i>=1} t_{i+k} beta^(-i) for k = 0 .. m+p-1."""
    from mpmath import mpf, workdps
    with workdps(beta.precision):
        values = [
            _shifted_tail_sum(renyi, k, beta.value) for k in range(renyi.m + renyi.p)
        ]
        # Delta_0 is 1 by the definition of the expansion of unity; the
        # computed sum only confirms beta and the digits are consistent
        if abs(values[0] - 1) > mpf(10) ** (-beta.precision // 2):
            raise PrecisionError(
                "digit sequence does not sum to unity at this beta/precision"
            )
        values[0] = mpf(1)
    return GapDistances(values=tuple(values), precision=beta.precision)


def _exact_gaps(renyi: RenyiExpansion) -> tuple[tuple[int, ...], dict]:
    """The Parry relation and the gap letters by exact coordinates.

    The relation is `_parry_relation`'s, on coordinates over 1, beta, ...,
    beta^(d-1), d = m + p.  The map sends the coordinates of each
    Delta_k = beta^k - t_1 beta^(k-1) - ... - t_k, k < d, to its name in
    `_gap_names`.  Past d the relation folds Delta_k onto Delta_(k-p), so
    these are all the gaps.
    """
    t, relation = renyi.digit, _parry_relation(renyi)
    names, delta = {}, (1,) + (0,) * (len(relation) - 1)
    for k, name in enumerate(_gap_names(renyi)):
        if k:
            delta = _times_beta(delta, relation)
            delta = (delta[0] - t(k), *delta[1:])
        names.setdefault(delta, name)
    return relation, names


def _gap_names(renyi: RenyiExpansion) -> list[str]:
    """The letter naming each Delta_k, k < m + p: that of the first Delta_j equal to it.

    For j, k >= 1, Delta_j = Delta_k iff sigma^j d_beta(1) = sigma^k d_beta(1),
    and Delta_0 = 1 is above the rest.  A non-minimal expansion repeats a
    Delta_k, and so a distance: in `4 1 1 (2 1)` letter 4 is named 2.
    """
    d, t = renyi.m + renyi.p, renyi.digit
    # a window of d digits past index k reaches p digits past the preperiod
    tails = [tuple(t(k + i) for i in range(1, d + 1)) for k in range(d)]
    return [letter(tails.index(tail, 1) if k else 0) for k, tail in enumerate(tails)]


def _times_beta(coords: tuple, relation: tuple) -> list[int]:
    """Coordinates of beta * x from those of x: a shift and one reduction."""
    top = coords[-1]
    return [top * r + c for r, c in zip(relation, (0, *coords))]


def _admissible_strings(renyi: RenyiExpansion, relation, level, limit: int):
    """The first `limit` admissible strings one digit longer than `level`.

    A string x_{k-1}..x_0 is admissible iff every suffix, read from its most
    significant digit and padded with zeros, is strictly below d_beta(1).  A
    string is carried as (coords, matched, parent, digit): its coordinates
    in Z[beta] (see `_exact_gaps`), the lengths j of its suffixes equal to
    t_1..t_j, so a digit above t_{j+1}, or above t_1, kills an extension
    (undecided suffixes end in zeros, below the tail of d_beta(1)), and the
    index in `level` of the string it extends by `digit`.  Extending a level
    in order, digits increasing, keeps (length, lexicographic) order.  The
    empty string, with no parent, extends by nonzero digits only.
    """
    t = renyi.digit
    t1 = t(1)
    lo = 1 if level[0][2] is None else 0
    children = []
    for parent, (coords, matched, *_) in enumerate(level):
        refs = [(j + 1, t(j + 1)) for j in matched]
        top = min([r for _, r in refs] + [t1])
        head, *tail = _times_beta(coords, relation)
        for c in range(lo, top + 1):
            nxt = [k for k, r in refs if r == c]
            if c == t1:
                nxt.append(1)
            children.append(((head + c, *tail), tuple(nxt), parent, c))
            if len(children) == limit:
                return children
    return children


def _levels(renyi: RenyiExpansion, count: int):
    """The first `count` beta-integers, level by level, in Parry order.

    By Parry's theorem numeric order on admissible strings is (length,
    lexicographic) order.  Each level comes with the letters of the gaps
    ending at its strings, each the first Delta_k it equals in Z[beta].
    """
    ok, shift = parry_check(renyi)
    if not ok:
        raise InvalidInputError(f"digits fail the Parry criterion at shift {shift}")
    if count < 2:
        raise InvalidInputError("count must be >= 2")
    if renyi.is_simple:
        raise InvalidInputError("simple (finite) expansions are not supported here")
    relation, names = _exact_gaps(renyi)
    last = (0,) * len(relation)
    level, made = [(last, (), None, 0)], 1
    while made < count:
        level = _admissible_strings(renyi, relation, level, count - made)
        letters = []
        for coords, *_ in level:
            gap = tuple(map(sub, coords, last))
            if gap not in names:
                raise VerificationError(f"gap {made - 1} is no Delta_k", {"gap": gap})
            letters.append(names[gap])
            last = coords
            made += 1
        yield level, letters


def beta_integers(renyi: RenyiExpansion, beta: BetaValue,
                  count: int) -> tuple[list[mpf], str]:
    """First `count` nonnegative beta-integers and their gap letter sequence.

    Each value is one Horner step at `beta` from the string it extends.
    """
    from mpmath import mpf, workdps
    if unity_defect(renyi, beta) > mpf(10) ** (-beta.precision // 2):
        raise InvalidInputError("beta is not the root of these digits")
    with workdps(beta.precision):
        values, letters, level_values = [mpf(0)], [], [mpf(0)]
        for level, gaps in _levels(renyi, count):
            level_values = [level_values[parent] * beta.value + digit
                            for _, _, parent, digit in level]
            values += level_values
            letters += gaps
    return values, "".join(letters)
