"""Palindromic structure of the binary fixed points.

Covers the centers of palindromes, infinite palindromic branches,
witnessed where they occur in the fixed point, and the closed-form
palindromic complexity; the oracle's P(n), the palindromic factors and
their extensions are read off its eertree (`language.FactorLanguage`).
The tower centers, the step d with V^(n) central in V^(n+d) and the branch
plan all follow from one lemma, `center_evolution`: the center of T(p)
from the center of p.  P(n+2) - P(n) is the tower mark of n in
`complexity` (`_tower_marks`), so the closed-form P(n) is two running sums
of the marks, one per parity; the paper's four parity cases are the tests'
reference (`tests/lemma_reference.py`).  The maximal and two-extension
columns and the identity suite read the same marks, the branches take
their words from `complexity.t_orbit`, and the P(n) rows are a `Table`.
"""

from itertools import accumulate

from .beta_numeration import QuadraticParams
from .complexity import Table, _tower_marks, t_orbit
from .errors import InvalidInputError, UnsupportedVariantError, VerificationError
from .substitution import fixed_point_prefix, quadratic_substitution

EPSILON = "e"  # center marker for even-length palindromes


# ---------------------------------------------------------------------------
# Basic palindrome operations
# ---------------------------------------------------------------------------

def is_palindrome(word: str) -> bool:
    return word == word[::-1]


def center_of(word: str) -> str:
    """Middle letter of an odd palindrome, EPSILON for even length."""
    if not is_palindrome(word):
        raise InvalidInputError(f"{word!r} is not a palindrome")
    if len(word) % 2 == 0:
        return EPSILON
    return word[len(word) // 2]


# ---------------------------------------------------------------------------
# Centers of the towers
# ---------------------------------------------------------------------------

def center_evolution(center: str, params: QuadraticParams) -> str:
    """Center of T(p) given the center of p."""
    if center == EPSILON:
        return "1"
    if center == "0":
        return "0" if params.a % 2 == 1 else EPSILON
    if center == "1":
        return "0" if params.b % 2 == 1 else EPSILON
    raise InvalidInputError(f"unknown center {center!r}")


def _v_centers(params: QuadraticParams) -> list[str]:
    """Centers of V^(1) = 0^b, V^(2), ... up to their first repeat: V^(n)
    has center cycle[(n - 1) % d] and is central in V^(n+d), d = len(cycle).
    """
    cycle = ["0" if params.b % 2 else EPSILON]  # the center of 0^b
    while (center := center_evolution(cycle[-1], params)) not in cycle:
        cycle.append(center)
    return cycle


def is_central_factor(inner: str, outer: str) -> bool:
    """inner sits at the exact center of outer (same-parity lengths)."""
    diff = len(outer) - len(inner)
    if diff < 0 or diff % 2 != 0:
        return False
    half = diff // 2
    return outer[half : half + len(inner)] == inner


# ---------------------------------------------------------------------------
# Infinite palindromic branches
# ---------------------------------------------------------------------------

class BranchSpec:
    """Budgeted surrogate for one infinite palindromic branch.

    `generator` names the tower whose bidirectional limit is the branch:
    ("V", c, o) for the subsequence V^(c*k+o), or ("W",) for the tower
    W^(1) = 0, W^(n) = T(W^(n-1)).
    """

    def __init__(self, center: str, generator: tuple,
                 central_factors: list[str] | None = None,
                 verified: bool = False):
        self.center, self.generator, self.verified = center, generator, verified
        self.central_factors = [] if central_factors is None else central_factors


def infinite_branches(params: QuadraticParams,
                      length_budget: int = 10 ** 4) -> list[BranchSpec]:
    """Branch specs for the applicable parity case, each word witnessed in u.

    Central factors are materialized while their length is within the
    budget, each tower once per call.  Each is checked to be a palindrome
    with the declared center, a central factor of its successor and a
    factor, where it occurs in u: u = phi(u), and both images start with 0^b
    and end with 0^b 1, so w at p >= 1 puts T(w) at |phi(u[:p])| - b - 1.
    A branch with no central factor within the budget is not verified.
    """
    if params.is_sturmian:
        raise UnsupportedVariantError("branch analysis requires a-1 > b")
    if length_budget < 0:
        raise InvalidInputError("length budget must be >= 0")
    towers = [list(t_orbit("0" * params.b, params, length_budget))
              if params.b <= length_budget else []]
    if params.a % 2 == 1 and params.b % 2 == 0:  # the W tower
        towers.append(list(t_orbit("0", params, length_budget)))
    # V^(1) = 0^b and W^(1) = 0 sit at 1, so the k-th word of either tower
    # sits at z + o, the letters of u before it: phi(u[:p]) less its 0^b 1
    places, z, o = [], 1, 0
    while len(places) < max(map(len, towers)):
        places.append(z + o)
        z, o = params.a * z + params.b * (o - 1), z + o - 1
    cycle = _v_centers(params)
    # V^(c*k+o) for k >= 1, c = len(cycle), is towers[0][c + o - 1 :: c]
    plan = [(center, ("V", len(cycle), i + 1 - len(cycle)),
             towers[0][i :: len(cycle)], places[i :: len(cycle)])
            for i, center in enumerate(cycle)]
    plan += [("0", ("W",), tower, places) for tower in towers[1:]]
    u = fixed_point_prefix(quadratic_substitution(params), max(
        (p + len(w) for tower in towers for w, p in zip(tower, places)), default=0))
    return [BranchSpec(center=center, generator=generator, central_factors=factors,
                       verified=bool(factors) and all(
                           is_palindrome(w) and center_of(w) == center
                           and u.startswith(w, p)
                           and (i == 0 or is_central_factor(factors[i - 1], w))
                           for i, (w, p) in enumerate(zip(factors, at))))
            for center, generator, factors, at in plan]


# ---------------------------------------------------------------------------
# Closed-form palindromic complexity
# ---------------------------------------------------------------------------

def closed_form_p(params: QuadraticParams, n_max: int) -> list[int]:
    """P(n) for 0 <= n <= n_max: P(n+2) = P(n) + mark(n), summed per parity
    from P(0) = 1 and P(1) = 2; mark(0) = 0 gives P(2) = 1 (00 is a factor,
    11 is not)."""
    if n_max < 0:
        raise InvalidInputError("factor length must be nonnegative")
    # each sum runs to n_max + 1, so that it fills its half of the slots
    marks = _tower_marks(params, n_max - 1)
    values = [0] * (n_max + 2)
    values[0::2] = accumulate(marks[0::2], initial=1)
    values[1::2] = accumulate(marks[1::2], initial=2)
    return values[:-1]


def palindromic_complexity(params: QuadraticParams, n_max: int,
                           mode: str) -> Table:
    """P(n) for 0 <= n <= n_max by the closed form, as a Table of n, P,
    maximal_count, two_ext_count and source.

    `mode` has one legal value, "closed_form", which the source column
    writes out.
    """
    if mode != "closed_form":
        raise ValueError(f"unknown mode {mode!r}")
    if n_max < 0:
        raise InvalidInputError("factor length must be nonnegative")
    # P(n+2) - P(n) is +1 at |V^(k)| (two extensions), -1 at |U^(k)| (maximal)
    p = closed_form_p(params, n_max + 2)
    return Table(("n", "P", "maximal_count", "two_ext_count", "source"), [
        {"n": n, "P": now, "maximal_count": 1 if later < now else 0,
         "two_ext_count": 1 if later > now else 0, "source": mode}
        for n, (now, later) in enumerate(zip(p, p[2:]))])


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

def verify_identities(params: QuadraticParams, c: list[int], p: list[int]) -> None:
    """Check the palindromic/factor-complexity identities on the columns
    c = [C(0) .. C(n_max+3)] and p = [P(0) .. P(n_max+2)], n_max >= 1.

    Verifies, for 1 <= n <= n_max:
      * P(n+1) + P(n) = Delta C(n) + 2
      * P(n+2) - P(n) = +1 at n = |V^(k)| plus -1 at n = |U^(k)|
      * Delta^2 C(n) = P(n+2) - P(n)
    Raises VerificationError with a context dump on the first violation.

    `closed_form_p` sums the same marks, so from n = 3 on the P-column check
    of `analyze` and `verify` and the second identity compare the same two
    sequences; both keep their names in the output.
    """
    n_max = len(p) - 3
    if len(c) != n_max + 4 or n_max < 1:
        raise InvalidInputError(
            "need C(0..n_max+3) and P(0..n_max+2) with n_max >= 1, "
            f"got {len(c)} and {len(p)} values")
    delta = [c[n + 1] - c[n] for n in range(0, n_max + 3)]
    marks = _tower_marks(params, n_max)

    def fail(name, n, expected, actual):
        raise VerificationError(
            f"{name} violated at n={n}: expected {expected}, got {actual}",
            context={
                "params": (params.a, params.b), "n": n, "identity": name,
                "expected": expected, "actual": actual,
                "C": c[: n_max + 3], "P": p[: n_max + 3],
            },
        )

    for n in range(1, n_max + 1):
        lhs = p[n + 1] + p[n]
        rhs = delta[n] + 2
        if lhs != rhs:
            fail("P(n+1)+P(n)=deltaC(n)+2", n, rhs, lhs)
        jump = p[n + 2] - p[n]
        if jump != marks[n]:
            fail("P(n+2)-P(n) tower rule", n, marks[n], jump)
        if delta[n + 1] - delta[n] != jump:
            fail("delta^2 C(n)=P(n+2)-P(n)", n, jump, delta[n + 1] - delta[n])
