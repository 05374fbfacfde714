"""Exception types raised by the simulator.

Every exception carries a short machine-readable ``code`` used by the CLI
for per-row status reporting and exit codes.
"""


class TricarlError(Exception):
    """Base class for all simulator errors."""

    code = "error"


class DegenerateSpectrum(TricarlError):
    """Two roots of the characteristic cubic are too close for the
    closed-form propagator (its partial-fraction denominators vanish)."""

    code = "degenerate_spectrum"


class NotStable(TricarlError):
    """A steady state was requested but at least one mode has
    non-negative gain."""

    code = "not_stable"


class ToleranceNotMet(TricarlError):
    """Adaptive quadrature exceeded its refinement cap before reaching
    the requested tolerance."""

    code = "tolerance_not_met"


class NegativeOccupation(TricarlError):
    """A covariance diagonal fell below the vacuum floor by more than the
    corruption threshold."""

    code = "negative_occupation"


class UndefinedCorrelation(TricarlError):
    """A normalized correlation was requested for a mode with (numerically)
    zero occupation."""

    code = "undefined_correlation"


class NotHermitian(TricarlError):
    """A matrix expected to be Hermitian was not, beyond tolerance."""

    code = "not_hermitian"


class NonFinite(TricarlError):
    """A covariance or a requested result overflowed to inf or NaN."""

    code = "non_finite"


class RegimeMismatch(TricarlError):
    """Asymptotic formulas were requested outside their regime of
    validity."""

    code = "regime_mismatch"


class InvalidSpec(TricarlError):
    """A sweep specification failed validation."""

    code = "invalid_spec"
