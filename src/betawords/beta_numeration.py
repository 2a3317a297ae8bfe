"""Arithmetic of Parry numbers: Renyi expansions, beta-expansions, beta-integers.

All of it is exact, in integers.  Greedy beta-expansions of a quadratic beta
run in Q(beta) on integer coordinates over 1 and beta.  The gaps between
consecutive beta-integers spell u_beta, the fixed point of the canonical
substitution (Fabre 1995) of the minimal spelling of d_beta(1), where letter
k names the distance Delta_k, so `beta_integer_decimals` reads the gap
letters off that fixed point and prints the values, sums of the Delta_k,
exactly from fixed-point integers.  Each Delta_k comes from its recurrence
Delta_0 = 1, Delta_k = beta Delta_(k-1) - t_k, and beta is where that orbit
closes, Delta_(m+p) = Delta_m.
"""

import re
from math import isqrt

from .errors import (DigitCountError, InvalidInputError, InvalidParamsError,
                     PrecisionError)


class _Frozen:
    """Base of the package's immutable value types, in place of frozen
    dataclasses, which cost start-up: the `__slots__` are the fields, set
    once by the constructor with `_set`; ==, hash and repr read them, and
    assigning or deleting one raises."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self.__slots__))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Renyi expansions of unity
# ---------------------------------------------------------------------------

class RenyiExpansion(_Frozen):
    """Eventually periodic digit sequence t_1 t_2 ... t_m (t_{m+1} ... t_{m+p})^w.

    The period of length one equal to (0,) encodes a finite (simple-Parry)
    expansion; those are accepted read-only but rejected by the substitution
    constructors.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...]):
        pre = tuple(int(t) for t in preperiod)
        per = tuple(int(t) for t in period)
        self._set(preperiod=pre, period=per)
        if len(per) < 1:
            raise InvalidInputError("period must have length >= 1")
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
        return self.minimal() == self

    def minimal(self) -> "RenyiExpansion":
        """The same sequence with the shortest period, then the shortest
        preperiod: a period digit that ends the preperiod is absorbed by
        rotating the period."""
        p = self.p
        q = next(q for q in range(1, p + 1)
                 if p % q == 0 and self.period == self.period[:q] * (p // q))
        pre, per = self.preperiod, self.period[:q]
        while pre and pre[-1] == per[-1]:
            pre, per = pre[:-1], per[-1:] + per[:-1]
        return RenyiExpansion(pre, per)

    def digit(self, j: int) -> int:
        """t_j with 1-based index, unfolding the period."""
        if j < 1:
            raise InvalidInputError("digit index is 1-based")
        if j <= self.m:
            return self.preperiod[j - 1]
        return self.period[(j - self.m - 1) % self.p]

    def digits(self, count: int) -> tuple[int, ...]:
        """t_1 .. t_count: the preperiod, then enough periods, cut."""
        periods = max(0, -(-(count - self.m) // self.p))
        return (self.preperiod + self.period * periods)[:max(0, count)]

    def __str__(self) -> str:
        pre = " ".join(str(t) for t in self.preperiod)
        per = " ".join(str(t) for t in self.period)
        return (pre + " " if pre else "") + "(" + per + ")"

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
    unfolded = renyi.digits(m + p + window)
    for j in range(2, m + p + 2):
        if unfolded[j - 1:j - 1 + window] >= unfolded[:window]:
            return False, j
    return True, None


# ---------------------------------------------------------------------------
# Quadratic parameters and beta-expansions
# ---------------------------------------------------------------------------

class QuadraticParams(_Frozen):
    """The pair (a, b) with d_beta(1) = a b^w and a-1 >= b >= 1."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if not (isinstance(a, int) and isinstance(b, int)):
            raise InvalidParamsError("a and b must be integers")
        if not (a - 1 >= b >= 1):
            raise InvalidParamsError(f"require a-1 >= b >= 1, got a={a}, b={b}")
        self._set(a=a, b=b)

    @property
    def is_sturmian(self) -> bool:
        """Boundary case b = a-1: the fixed point is a Sturmian word."""
        return self.b == self.a - 1


def renyi_of_quadratic(params: QuadraticParams) -> RenyiExpansion:
    """d_beta(1) = a b^w."""
    return RenyiExpansion((params.a,), (params.b,))


def beta_expand(x, params: QuadraticParams,
                digit_count: int) -> tuple[int, tuple[int, ...]]:
    """Greedy expansion of x >= 0: returns (k, digits) with digits x_k..x_{k-digit_count+1}.

    x = sum digits[i] * beta^(k-i) + remainder, each digit in {0..a}, with
    k = max(0, floor(log_beta x)) and x anything `Fraction` parses.  The map
    T_beta(y) = beta*y - floor(beta*y) runs on y = x / beta^(k+1), exact as
    (c0 + c1 beta) / q in integers, reduced by beta^2 = (a+1) beta - (a-b).
    D = (a+1)^2 - 4(a-b) is never a square, so a floor is an integer root:
    floor((s + e sqrt(D)) / den) = (s + floor(e sqrt(D))) // den.  Raises
    DigitCountError when digit_count <= k.  x past beta^digit_count, or below
    beta^-digit_count (all zeros), is decided from its decimal exponent alone.
    """
    # imported here: fractions loads decimal, a start-up cost to every command
    from fractions import Fraction
    if digit_count < 1:
        raise InvalidInputError("digit_count must be >= 1")
    exp_form = isinstance(x, str) and re.fullmatch(
        r"(.*)e([-+]?\d+(?:_\d+)*)\s*", x, re.IGNORECASE | re.DOTALL)
    try:
        # x = mantissa * 10^exponent; "e0" keeps Fraction's grammar whole
        mantissa, exponent = ((Fraction(exp_form[1] + "e0"), int(exp_form[2]))
                              if exp_form else (Fraction(x), 0))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidInputError(f"x is not a number: {x!r}") from exc
    if mantissa < 0:
        raise InvalidInputError("x must be nonnegative")
    p, ab = params.a + 1, params.a - params.b
    disc = p * p - 4 * ab  # D: beta = (p + sqrt(D)) / 2
    # beta < a + 1, so log2 beta^digit_count < places; log2 x is within one
    # of size + exponent log2 10, and 3 < log2 10 < 4
    places = digit_count * p.bit_length()
    size = mantissa.numerator.bit_length() - mantissa.denominator.bit_length()
    if not mantissa or size + 1 + max(3 * exponent, 4 * exponent) <= -places:
        return 0, (0,) * digit_count
    if size - 1 + min(3 * exponent, 4 * exponent) >= places:
        raise DigitCountError(f"must be at least k + 1 > {digit_count}, "
                              "the digits of x before the point")
    x = mantissa * Fraction(10) ** exponent

    def floor(c0, c1, q):  # of (c0 + c1 beta) / q, q > 0
        root = isqrt(c1 * c1 * disc)
        return (2 * c0 + p * c1 + (root if c1 >= 0 else -root - 1)) // (2 * q)

    def times(u, v):
        top = u[1] * v[1]
        return u[0] * v[0] - ab * top, u[0] * v[1] + u[1] * v[0] + p * top

    def at_most_x(power):  # beta^j with j >= 1, irrational
        return floor(x.denominator * power[0] - x.numerator,
                     x.denominator * power[1], 1) < 0

    squares, k, power = [(0, 1)], 0, (1, 0)  # beta^(2^i), then beta^k
    while at_most_x(squares[-1]):
        squares.append(times(squares[-1], squares[-1]))
    for i in range(len(squares) - 2, -1, -1):
        if at_most_x(trial := times(power, squares[i])):
            k, power = k + (1 << i), trial
    if digit_count <= k:
        raise DigitCountError(f"must be at least k + 1 = {k + 1}, "
                              "the digits of x before the point")
    # 1 / beta^(k+1) is its conjugate, beta' = a + 1 - beta, over its norm
    u, v = times(power, (0, 1))
    c0, c1 = x.numerator * (u + p * v), -x.numerator * v
    q, digits = x.denominator * ab ** (k + 1), []
    # with fixed = floor(beta 2^bits), (c0 + c1 beta) 2^bits is within |c1| of
    # mid; the root is taken only when that range holds a multiple of unit
    bits = (abs(c0) + p * abs(c1)).bit_length() + 2
    fixed, unit = floor(0, 1 << bits, 1), q << bits
    for _ in range(digit_count):
        c0, c1 = -ab * c1, c0 + p * c1
        mid = (c0 << bits) + c1 * fixed
        d = (mid - abs(c1)) // unit
        if (mid + abs(c1)) // unit != d:
            d = floor(c0, c1, q)
        c0 -= d * q
        digits.append(d)
    return k, tuple(digits)


# ---------------------------------------------------------------------------
# Beta-integers
# ---------------------------------------------------------------------------

def _beta_floor(renyi: RenyiExpansion, bits: int) -> int:
    """floor(beta 2^bits), beta the x in [t_1, t_1 + 1) where the orbit
    Delta_0 = 1, Delta_k = x Delta_(k-1) - t_k closes: Delta_(m+p) = Delta_m.

    For x > 1, Delta_(m+p)(x) - Delta_m(x) is
    x^(m+p) (1 - x^-p)(1 - sum t_i x^-i), of the sign of 1 - sum t_i x^-i,
    increasing in x: bisect on it in integers, Delta_k(x) scaled by 2^(bits k).
    """
    m, p = renyi.m, renyi.p
    digits = renyi.digits(m + p)
    lo, hi = digits[0] << bits, (digits[0] + 1) << bits
    while hi - lo > 1:
        mid, orbit = (lo + hi) >> 1, [1]
        for k, t in enumerate(digits, 1):
            orbit.append(orbit[-1] * mid - (t << bits * k))
        lo, hi = (mid, hi) if orbit[-1] < orbit[m] << bits * p else (lo, mid)
    return lo


_GUARD_BITS = 64  # bits of the fixed point past its error bound


def beta_integer_decimals(renyi: RenyiExpansion, digits: int,
                          count: int) -> tuple[list[str], str]:
    """First `count` beta-integers as exact decimals, and their gap letters.

    The gaps between consecutive beta-integers spell the fixed point of the
    canonical substitution (Fabre 1995) of the minimal spelling of d_beta(1),
    `parry_substitution(renyi.minimal())`, which rejects digits that fail the
    Parry criterion and simple expansions.  In that spelling the distances
    Delta_k, k < m + p, of the recurrence Delta_0 = 1,
    Delta_k = beta Delta_(k-1) - t_k, are distinct, so letter k names Delta_k.

    Each value reads as mpmath's nstr(value, digits) of the exact value:
    rounded half up to `digits` significant digits, fixed below 10^digits.
    Values are sums of Delta_k in units of 2^-K within a proven bound, and
    K doubles until the bound decides every rounding.  No tie can stall it:
    a rational element of Z[beta] is an integer, and as gaps are at most 1,
    two equal decimals, a PrecisionError, come before an integer tie.
    """
    # imported here: substitution imports this module
    from .substitution import fixed_point_prefix, letter, parry_substitution
    renyi = renyi.minimal()
    substitution = parry_substitution(renyi)
    if count < 2:
        raise InvalidInputError("count must be >= 2")
    letters = fixed_point_prefix(substitution, count - 1)
    t = renyi.digits(renyi.m + renyi.p)
    # D_0 = 2^K and D_k = floor(D_(k-1) floor(beta 2^K) / 2^K) - t_k 2^K
    # stand for Delta_k 2^K.  With e_k = D_k - Delta_k 2^K, e_0 = 0 and
    # e_k = e_(k-1) (beta - f 2^-K) - Delta_(k-1) f - g, f and g in [0, 1)
    # the two floors; as 0 < Delta_(k-1) <= 1 and beta < t_1 + 1,
    # |e_k| < (t_1 + 1) |e_(k-1)| + 2, so |e_k| <= 2 sum_(i<k) (t_1 + 1)^i,
    # which is below (t_1 + 2)^k.  A value sums count - 1 of them, k < m + p.
    slack = count * (t[0] + 2) ** (len(t) - 1)
    bits, top = slack.bit_length() + _GUARD_BITS, 10 ** digits
    while True:
        scaled, deltas = _beta_floor(renyi, bits), [1 << bits]
        for digit in t[:-1]:
            deltas.append((deltas[-1] * scaled >> bits) - (digit << bits))
        steps = {letter(k): delta for k, delta in enumerate(deltas)}
        # v_1 = 1 exactly, so the loop sets the scale before it is read
        shown, value, exponent, ceiling = ["0.0"], 0, -1, 1 << bits
        for gap in letters:
            value += steps[gap]
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
