"""Exception types shared across the package."""


class HilbertSignsError(Exception):
    """Base class for every package-specific error."""


class NotSquarefree(HilbertSignsError):
    """Field discriminant parameter d has a repeated prime factor."""


class UnsupportedField(HilbertSignsError):
    """Requested d is outside the narrow-class-number-one allowlist."""


class NotIntegral(HilbertSignsError):
    """Element is not an algebraic integer of the field."""


class NotTotallyPositive(HilbertSignsError):
    """Element is not positive under every real embedding."""


class CutoffMismatch(HilbertSignsError):
    """Formal series with different norm cutoffs were combined."""


class FieldMismatch(HilbertSignsError):
    """Objects attached to different base fields were combined."""


class NotNormalized(HilbertSignsError):
    """Series has leading coefficient != 1, so prime extraction is invalid."""


class MissingPrime(HilbertSignsError):
    """Eigenvalue data lacks an entry at a prime the computation needs."""


class EmptySample(HilbertSignsError):
    """Statistic requested on an empty sample."""


class BadReduction(HilbertSignsError):
    """Curve point counts requested at a prime dividing the discriminant."""


class ParseError(HilbertSignsError):
    """Input document is structurally malformed."""


class ValidationError(HilbertSignsError):
    """Input document parsed but violates a semantic constraint."""


class HasseBoundViolated(ValidationError):
    """Coefficient magnitude exceeds the Hasse-type bound |c| <= 2/sqrt(N)."""
