"""Exception types raised by the simulator.

Every exception carries a short machine-readable ``code`` used by the CLI
for per-row status reporting and exit codes.  The array kernels evaluate
their guards as per-state masks and report the code of the first one that
fails; the one-state functions raise the exception class of that code.
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


def raise_failure(status, what: str) -> None:
    """Raise the exception class of the first failed code in ``status``."""
    if isinstance(status, str) and status == "ok":
        return
    failed = [code for code in np.ravel(status).tolist() if code != "ok"]
    if failed:
        raise _BY_CODE[failed[0]](f"{what} failed the {failed[0]} guard")
