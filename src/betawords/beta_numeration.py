"""Arithmetic of Parry numbers: Renyi expansions, beta-expansions, beta-integers.

Floating computations run under mpmath at a caller-selected decimal precision
(default 64 digits), imported inside the functions that use it.  Beta-integers
come in Parry order with no sort, as integer coordinates in Z[beta] reduced by
the Parry relation, which classify their gaps exactly; `beta_integer_decimals`
prints them exactly from integers alone, so it never loads mpmath, and only
`beta_integers` evaluates them as mpf.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import mul, sub

from .errors import (InvalidInputError, InvalidParamsError, PrecisionError,
                     VerificationError)

DEFAULT_PRECISION = 64


# ---------------------------------------------------------------------------
# Renyi expansions of unity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RenyiExpansion:
    """Eventually periodic digit sequence t_1 t_2 ... t_m (t_{m+1} ... t_{m+p})^w.

    The period of length one equal to (0,) encodes a finite (simple-Parry)
    expansion; those are accepted read-only but rejected by the substitution
    constructors.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        pre = tuple(int(t) for t in self.preperiod)
        per = tuple(int(t) for t in self.period)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)
        if len(per) < 1:
            raise InvalidInputError("period must have length >= 1")
        if len(pre) + len(per) == 0:
            raise InvalidInputError("empty digit sequence")
        if any(t < 0 for t in pre + per):
            raise InvalidInputError("digits must be nonnegative integers")
        if self.digit(1) < 1:
            raise InvalidInputError("t_1 = floor(beta) must be >= 1")

    @property
    def m(self) -> int:
        return len(self.preperiod)

    @property
    def p(self) -> int:
        return len(self.period)

    @property
    def is_simple(self) -> bool:
        """Finite expansion: the periodic tail is identically zero."""
        return all(t == 0 for t in self.period)

    @property
    def is_minimal(self) -> bool:
        """True iff no shorter preperiod/period encodes the same sequence."""
        m, p = self.m, self.p
        # shorter period dividing p
        for q in range(1, p):
            if p % q == 0 and all(
                self.period[i] == self.period[i % q] for i in range(p)
            ):
                return False
        # preperiod digit absorbable into the period
        if m >= 1 and self.preperiod[-1] == self.period[-1]:
            return False
        return True

    def digit(self, j: int) -> int:
        """t_j with 1-based index, unfolding the period."""
        if j < 1:
            raise InvalidInputError("digit index is 1-based")
        if j <= self.m:
            return self.preperiod[j - 1]
        return self.period[(j - self.m - 1) % self.p]

    def digits(self, count: int) -> tuple[int, ...]:
        return tuple(self.digit(j) for j in range(1, count + 1))

    def __str__(self) -> str:
        pre = " ".join(str(t) for t in self.preperiod)
        per = " ".join(str(t) for t in self.period)
        return (pre + " " if pre else "") + "(" + per + ")"

    def to_json(self) -> dict:
        return {"preperiod": list(self.preperiod), "period": list(self.period)}

    @classmethod
    def from_json(cls, obj: dict) -> "RenyiExpansion":
        return cls(tuple(obj["preperiod"]), tuple(obj["period"]))

    @classmethod
    def parse(cls, text: str) -> "RenyiExpansion":
        """Parse the textual form "t1 t2 ... (tm+1 ... tm+p)"."""
        match = re.fullmatch(r"\s*([\d\s]*?)\s*\(\s*([\d\s]+?)\s*\)\s*", text)
        if not match:
            raise InvalidInputError(f"cannot parse Renyi digits: {text!r}")
        pre = tuple(int(t) for t in match.group(1).split())
        per = tuple(int(t) for t in match.group(2).split())
        return cls(pre, per)


def parry_check(renyi: RenyiExpansion) -> tuple[bool, int | None]:
    """Parry admissibility: every proper shift is strictly below the sequence.

    Returns (ok, first_violating_shift).  Shifts are 1-based: shift j compares
    t_j t_{j+1} ... against t_1 t_2 ....  Comparing over a window of one
    preperiod plus two periods decides the order for eventually periodic
    sequences (both tails are p-periodic past index m, so agreement over a
    full extra period propagates forever).
    """
    m, p = renyi.m, renyi.p
    window = m + 2 * p + 1
    ref = renyi.digits(window + m + p)
    for j in range(2, m + p + 2):
        shifted = tuple(renyi.digit(j + i) for i in range(window))
        if shifted >= ref[:window]:
            return False, j
    return True, None


# ---------------------------------------------------------------------------
# Quadratic parameters and beta values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticParams:
    """The pair (a, b) with d_beta(1) = a b^w and a-1 >= b >= 1."""

    a: int
    b: int

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise InvalidParamsError("a and b must be integers")
        if not (self.a - 1 >= self.b >= 1):
            raise InvalidParamsError(
                f"require a-1 >= b >= 1, got a={self.a}, b={self.b}"
            )

    @property
    def is_sturmian(self) -> bool:
        """Boundary case b = a-1: the fixed point is a Sturmian word."""
        return self.b == self.a - 1

    def exact_beta(self) -> tuple[int, int, int, int]:
        """beta = (u + v*sqrt(D)) / w as the integer quadruple (u, v, D, w)."""
        a, b = self.a, self.b
        return (a + 1, 1, (a + 1) ** 2 - 4 * (a - b), 2)


@dataclass(frozen=True)
class BetaValue:
    """Numeric beta at a given working precision."""

    value: mpf
    precision: int

    def __float__(self) -> float:
        return float(self.value)


def beta_of(params: QuadraticParams, precision: int = DEFAULT_PRECISION) -> BetaValue:
    """Larger root of x^2 - (a+1)x + (a-b)."""
    from mpmath import mpf, sqrt as mpsqrt, workdps
    u, v, d, w = params.exact_beta()
    with workdps(precision):
        value = (mpf(u) + v * mpsqrt(d)) / w
    return BetaValue(value=value, precision=precision)


def renyi_of_quadratic(params: QuadraticParams) -> RenyiExpansion:
    """d_beta(1) = a b^w."""
    return RenyiExpansion((params.a,), (params.b,))


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
    scaled = _beta_floor(_exact_gaps(renyi)[0], renyi.digit(1), bits)
    with workdps(precision):
        value = mpf((scaled, -bits))
    return BetaValue(value=value, precision=precision)


def _beta_floor(relation: tuple, t1: int, bits: int) -> int:
    """floor(beta 2^bits), beta the root in [t_1, t_1 + 1) of x^d - sum r_j x^j.

    For x > 1 that is x^d (1 - x^-p)(1 - sum t_i x^-i), of the sign of
    1 - sum t_i x^-i, increasing in x: bisect on it in integers.
    """
    lo, hi = t1 << bits, (t1 + 1) << bits
    while hi - lo > 1:
        mid, acc = (lo + hi) >> 1, 1
        for j in range(len(relation) - 1, -1, -1):
            acc = acc * mid - (relation[j] << bits * (len(relation) - j))
        lo, hi = (mid, hi) if acc < 0 else (lo, mid)
    return lo


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


# ---------------------------------------------------------------------------
# Beta-expansions
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Gap distances and beta-integers
# ---------------------------------------------------------------------------

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

    Elements of Z[beta] are carried as integer coordinates over 1, beta, ...,
    beta^(d-1), d = m + p, reduced by the relation of d_beta(1),
    beta^d = sum_(i<=d) t_i beta^(d-i) + beta^m - sum_(i<=m) t_i beta^(m-i),
    returned as its coefficients r_0 .. r_(d-1) of 1 .. beta^(d-1).  The map
    sends the coordinates of each Delta_k = beta^k - t_1 beta^(k-1) - ... - t_k,
    k < d, to the letter of the first Delta_j equal to it; for j, k >= 1,
    Delta_j = Delta_k iff sigma^j d_beta(1) = sigma^k d_beta(1).  Past d the
    relation folds Delta_k onto Delta_(k-p), so these are all the gaps.
    """
    m, d, t = renyi.m, renyi.m + renyi.p, renyi.digit
    relation = [t(d - j) for j in range(d)]
    relation[m] += 1
    for j in range(m):
        relation[j] -= t(m - j)
    # a window of d digits past index k reaches p digits past the preperiod
    tails = [tuple(t(k + i) for i in range(1, d + 1)) for k in range(d)]
    names, delta = {}, (1,) + (0,) * (d - 1)
    for k in range(d):
        if k:
            delta = _times_beta(delta, relation)
            delta = (delta[0] - t(k), *delta[1:])
        names.setdefault(delta, _letter(tails.index(tails[k], 1) if k else 0))
    return tuple(relation), names


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


_GUARD_BITS = 64  # bits of the fixed point past its error bound


def beta_integer_decimals(renyi: RenyiExpansion, digits: int,
                          count: int) -> tuple[list[str], str]:
    """First `count` beta-integers as exact decimals, and their gap letters.

    Each value reads as mpmath's nstr(value, digits) of the exact value:
    rounded half up to `digits` significant digits, fixed below 10^digits.
    Values are sums of Delta_k in units of 2^-K within a proven bound, and
    K doubles until the bound decides every rounding.  No tie can stall it:
    a rational element of Z[beta] is an integer, and as gaps are at most 1,
    two equal decimals, a PrecisionError, come before an integer tie.
    """
    letters = "".join(letter for _, gaps in _levels(renyi, count) for letter in gaps)
    relation, names = _exact_gaps(renyi)
    deltas, t1 = {letter: coords for coords, letter in names.items()}, renyi.digit(1)
    # |beta^j 2^K - B_j| <= (t_1 + 3)^j for the powers B_j summed below
    slack = count * max(sum(abs(c) * (t1 + 3) ** j for j, c in enumerate(coords))
                        for coords in deltas.values())
    bits, top = slack.bit_length() + _GUARD_BITS, 10 ** digits
    while True:
        scaled = _beta_floor(relation, t1, bits)
        powers = [1 << bits]
        for _ in relation[1:]:
            powers.append(powers[-1] * scaled >> bits)
        steps = {letter: sum(map(mul, coords, powers))
                 for letter, coords in deltas.items()}
        # v_1 = 1 exactly, so the loop sets the scale before it is read
        shown, value, exponent, ceiling = ["0.0"], 0, -1, 1 << bits
        for letter in letters:
            value += steps[letter]
            while value >= ceiling:
                exponent, ceiling = exponent + 1, ceiling * 10
                scale = 2 * 10 ** max(0, digits - 1 - exponent)
                unit = 10 ** max(0, exponent - digits + 1) << bits
            rounded = ((value - slack) * scale + unit) // (2 * unit)
            if rounded != ((value + slack) * scale + unit) // (2 * unit):
                break
            at = exponent + (rounded == top)
            text = str(rounded)[:digits]
            split = at + 1 if at < digits else 1
            text = f"{text[:split]}.{text[split:]}".rstrip("0")
            text += ("0" if text[-1] == "." else "") + (f"e+{at}" if at >= digits else "")
            if text == shown[-1]:
                raise PrecisionError(f"{digits} significant digits do not "
                                     "separate consecutive beta-integers")
            shown.append(text)
        else:
            return shown, letters
        bits *= 2


def _letter(index: int) -> str:
    return chr(ord("0") + index)
