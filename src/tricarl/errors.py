"""Exception types raised by the simulator.

Every exception carries a short machine-readable ``code`` used by the CLI
for per-row status reporting and exit codes.  The array kernels return
their guards, ordered ``(code, mask)`` pairs of per-state masks; a state's
status is the code of the first one it fails, and the one-state functions
raise its exception class (``raise_failure``).
"""

import functools
import operator

import numpy as np


class TricarlError(Exception):
    """Base class for all simulator errors."""

    code = "error"


class NotStable(TricarlError):
    """A steady state was requested but at least one mode has
    non-negative gain."""

    code = "not_stable"


class NegativeOccupation(TricarlError):
    """A covariance diagonal fell below the vacuum floor by more than the
    corruption threshold."""

    code = "negative_occupation"


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


_BY_CODE = {cls.code: cls for cls in (TricarlError, *TricarlError.__subclasses__())}


def first_failure(*guards):
    """Status of each state under ordered ``(code, mask)`` guards: the code
    of the first guard whose mask is set, "ok" where none is.  The str "ok"
    when no state fails any guard, else an array of str."""
    codes, masks = zip(*guards)
    if not functools.reduce(operator.or_, masks).any():
        return "ok"
    return np.select(masks, codes, "ok")


def raise_failure(guards, what: str) -> None:
    """Raise the exception class of the first failing state's status."""
    status = first_failure(*guards)
    if not isinstance(status, str):
        code = next(code for code in status.ravel().tolist() if code != "ok")
        raise _BY_CODE[code](f"{what} failed the {code} guard")
