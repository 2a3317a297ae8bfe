"""Infinite words coding beta-integers: factor and palindromic complexity."""

from .beta_numeration import (
    QuadraticParams,
    RenyiExpansion,
    beta_expand,
    beta_integer_decimals,
    parry_check,
    renyi_of_quadratic,
)
from .complexity import (
    Table,
    UVTower,
    closed_form_delta_c,
    factor_complexity,
    t_orbit,
    tower_intervals,
    uv_tower,
)
from .errors import (
    BetawordsError,
    DigitCountError,
    InvalidInputError,
    InvalidParamsError,
    PrecisionError,
    UnsupportedVariantError,
    UsageError,
    VerificationError,
)
from .language import FactorLanguage
from .palindromes import (
    EPSILON,
    BranchSpec,
    center_evolution,
    center_of,
    closed_form_p,
    infinite_branches,
    is_palindrome,
    palindromic_complexity,
    verify_identities,
)
from .substitution import (
    Substitution,
    fixed_point_prefix,
    parry_substitution,
    quadratic_substitution,
)

__version__ = "0.1.0"
