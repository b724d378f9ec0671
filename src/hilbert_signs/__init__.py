"""Sign statistics of Hecke eigenvalues reconstructed over real quadratic fields.

The package is organized bottom-up: exact quadratic-field arithmetic
(field_arith), twisted quadratic characters (characters), formal series
indexed by integral ideals (formal_series), the sign-extraction pipeline
(sign_pipeline), semicircle-law statistics (sato_tate), and data plumbing
for eigenvalue sources (curves, eigen_io, cli).
"""

from .characters import IdealCharacter
from .curves import CURVE_REGISTRY, CurveSpec, ap_oracle, get_curve, series_from_curve
from .eigen_io import (
    cached_curve_series,
    load_fixture,
    load_psi_table,
    serialize_series,
    series_from_obj,
)
from .errors import (
    BadReduction,
    CutoffMismatch,
    EmptySample,
    FieldMismatch,
    HasseBoundViolated,
    HilbertSignsError,
    MissingPrime,
    NotIntegral,
    NotNormalized,
    NotSquarefree,
    NotTotallyPositive,
    ParseError,
    UnsupportedField,
    ValidationError,
)
from .field_arith import (
    NARROW_CLASS_NUMBER_ONE,
    FieldElement,
    IdealFactorization,
    PrimeIdeal,
    QuadField,
    Splitting,
    SquarefreeDecomposition,
    as_element,
    element,
    factor_principal_ideal,
    kronecker_symbol,
    make_field,
    primes_upto,
    split_rational_prime,
    squarefree_decompose,
)
from .formal_series import (
    FormalSeries,
    c_series_from_lambda,
    character_moebius_series,
    character_zeta_series,
    extract_prime_relation,
    series_mul,
)
from .sato_tate import (
    KsReport,
    histogram_csv,
    histogram_rows,
    histogram_svg,
    ks_statistic,
    sample_semicircle,
    semicircle_cdf,
    semicircle_mass,
    semicircle_ppf,
    synth_eigen_series,
)
from .sign_pipeline import EigenvalueSeries, SignSurvey, SignTally

__version__ = "0.1.0"

__all__ = [
    "BadReduction",
    "CURVE_REGISTRY",
    "CurveSpec",
    "CutoffMismatch",
    "EigenvalueSeries",
    "EmptySample",
    "FieldElement",
    "FieldMismatch",
    "FormalSeries",
    "HasseBoundViolated",
    "HilbertSignsError",
    "IdealCharacter",
    "IdealFactorization",
    "KsReport",
    "MissingPrime",
    "NARROW_CLASS_NUMBER_ONE",
    "NotIntegral",
    "NotNormalized",
    "NotSquarefree",
    "NotTotallyPositive",
    "ParseError",
    "PrimeIdeal",
    "QuadField",
    "SignSurvey",
    "SignTally",
    "Splitting",
    "SquarefreeDecomposition",
    "UnsupportedField",
    "ValidationError",
    "ap_oracle",
    "as_element",
    "c_series_from_lambda",
    "cached_curve_series",
    "character_moebius_series",
    "character_zeta_series",
    "element",
    "extract_prime_relation",
    "factor_principal_ideal",
    "get_curve",
    "histogram_csv",
    "histogram_rows",
    "histogram_svg",
    "kronecker_symbol",
    "ks_statistic",
    "load_fixture",
    "load_psi_table",
    "make_field",
    "primes_upto",
    "sample_semicircle",
    "semicircle_cdf",
    "semicircle_mass",
    "semicircle_ppf",
    "serialize_series",
    "series_from_curve",
    "series_from_obj",
    "series_mul",
    "split_rational_prime",
    "squarefree_decompose",
    "synth_eigen_series",
]
