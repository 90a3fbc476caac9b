"""Exception types shared across the package."""


class MfequilError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(MfequilError):
    """Array shapes are inconsistent with the declared market dimensions."""


class SingularSigma(MfequilError):
    """The volatility matrix has (numerically) deficient row rank."""


class NonpositiveGamma(MfequilError):
    """A risk-aversion coefficient is zero or negative."""


class RegressionRankDeficient(MfequilError):
    """The regression design is rank deficient beyond what ridge can absorb."""


class PicardDiverged(MfequilError):
    """The outer Picard iteration is growing instead of contracting."""


class WeightDegenerate(MfequilError):
    """Importance weights have collapsed onto too few paths."""


class InsufficientSpan(MfequilError):
    """Not enough population sizes (or decades) to fit a convergence rate."""


class IllConditionedQ(MfequilError):
    """A portfolio-replacement matrix exceeds the condition-number cap."""


class ConfigError(MfequilError):
    """A scenario configuration file or override is malformed."""
