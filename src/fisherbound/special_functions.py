"""Scalar special functions shared by every bound evaluation.

Provides the principal Lambert W branch, the standard normal density and
upper tail, the two-sided Mills ratio bracket on that tail, and the
default Berry-Esseen constant.  The bounds form the Berry-Esseen term
C*rho/sigma^3 themselves, per coordinate.
"""

import math
from dataclasses import dataclass

__all__ = [
    "BERRY_ESSEEN_CONSTANT",
    "TailBoundPair",
    "gaussian_pdf",
    "gaussian_tail",
    "lambert_w0",
    "mills_bounds",
]

# Best published universal constant for the Berry-Esseen inequality.
# Every bound routine accepts an override; this is only the default.
BERRY_ESSEEN_CONSTANT = 0.4748

_BRANCH_POINT = -math.exp(-1.0)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class TailBoundPair:
    """Two-sided bracket on a Gaussian tail probability, 0 <= lower < upper."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower < self.upper):
            raise ValueError(
                f"invalid tail bracket: lower={self.lower!r}, upper={self.upper!r}"
            )


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function, w * exp(w) = x.

    Defined for x >= -1/e.  Uses the log(x) - log(log(x)) start for large
    arguments, a branch-point series near -1/e, and Halley iteration down
    to 1e-14 relative residual.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("lambert_w0 is undefined for NaN")
    if x < _BRANCH_POINT:
        raise ValueError(f"lambert_w0 requires x >= -1/e, got {x!r}")
    if x == _BRANCH_POINT:
        return -1.0
    if x == 0.0:
        return 0.0

    if x >= math.e:
        log_x = math.log(x)
        w = log_x - math.log(log_x)
    elif x < -0.25:
        # Series around the branch point in p = sqrt(2(e*x + 1)).
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    else:
        w = math.log1p(x)

    for _ in range(64):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-14 * (1.0 + abs(w)):
            break
    return w


def gaussian_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def gaussian_tail(x: float) -> float:
    """Upper tail 1 - Phi(x) of the standard normal distribution.

    Evaluated through the complementary error function, absolute error
    below 1e-15.  Underflows to 0.0 for x beyond roughly 38.
    """
    return 0.5 * math.erfc(x * _INV_SQRT_2)


def mills_bounds(x: float) -> TailBoundPair:
    """Mills ratio bracket x*phi(x)/(1+x^2) < 1 - Phi(x) < phi(x)/x for x > 0.

    Representable up to x ~ 38: beyond that the density underflows and
    the bracket collapses, which the TailBoundPair invariant rejects.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"mills_bounds requires x > 0, got {x!r}")
    density = gaussian_pdf(x)
    return TailBoundPair(lower=x * density / (1.0 + x * x), upper=density / x)

