"""Finite-sample upper and lower bounds on maximum-likelihood sample size.

Two evaluators, upper_bound and lower_bound, take the error norm as an
argument: "linf" for the per-coordinate criterion
Pr[max_a |theta_hat_a - theta_a| <= eps] >= 1 - delta and "l2" for the
Euclidean criterion (NORMS lists both).  The Euclidean upper bound is the
max-norm one at accuracy eps/sqrt(d), and the Euclidean lower bound is the
max-norm one of the one-parameter problem along the top eigenvector of
F^-1.  Each bound is a closed form in eps, delta, the parameter dimension
d, and model-dependent coefficients:

    mu_R, V_R  mean and variance of the per-outcome envelope r(x) that
               dominates 0.5 * ||third log-likelihood derivative||_op
               over the relevant parameter ball,
    V_H        E[Tr(B^2)] for the centred Hessian B(x) = l''(x) + F
               (from the score matrix for affine models, no K x d x d
               stack),
    rho        third absolute moment of the projected score,
    sigma      sqrt of the relevant inverse-Fisher scalar,
    C          Berry-Esseen constant (default 0.4748, always overridable).

estimate_coefficients returns one BoundCoefficients per point, for both
norms.  It reads the inverse-Fisher scalars from the FisherMatrix and every
outcome moment from one model.outcome_moments call, given the p of one
model.probs call: V_H, rho, and mu_R, V_R, the only norm-dependent values,
over each distinct ball of the two norms.

The Lambert W_0 function enters through the Gaussian-tail inversion.  The
small-eps limits are two Lambert-W forms in one inverse-Fisher scalar,
asymptotic_upper_linf and asymptotic_lower_linf; the Pauli-scheme
specialisations call them at the scheme's values.  Inapplicable regimes
(a singular Fisher matrix for the upper bounds, tau0 <= 0, non-finite
coefficients) produce a structured result with applicable=False, never a
silent clamp.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fisher import FisherMatrix, fim
from .pauli import validate_rates
from .special_functions import BERRY_ESSEEN_CONSTANT, lambert_w0

__all__ = [
    "NORMS",
    "BoundCoefficients",
    "BoundResult",
    "asymptotic_lower_linf",
    "asymptotic_upper_l2",
    "asymptotic_upper_linf",
    "entangled_pauli_l2_lower",
    "entangled_pauli_upper",
    "estimate_coefficients",
    "idealized_coefficients",
    "lower_bound",
    "separable_pauli_lower",
    "upper_bound",
]

NORMS = ("linf", "l2")  # the max-norm and the Euclidean criterion


@dataclass
class BoundCoefficients:
    """Model-dependent scalars feeding the two bound evaluators at one point.

    sigma_diag and rho_diag hold the per-coordinate values
    sqrt([F^-1]_aa) and E|e_a^T F^-1 score|^3; opnorm_inv = lambda_max(F^-1)
    and rho_top is the third moment projected on its eigenvector.  Only
    the envelope depends on the error norm: envelope maps each norm in
    NORMS to (mu_R, V_R) over that norm's parameter ball.  provenance
    records whether the Berry-Esseen constant is proven.  singular marks a
    singular F, whose pseudoinverse treats an unidentifiable coordinate as
    known: no upper bound applies.
    """

    V_H: float
    C: float
    opnorm_inv: float
    sigma_diag: np.ndarray
    rho_diag: np.ndarray
    rho_top: float
    envelope: dict
    provenance: str = "exact"
    singular: bool = False

    @property
    def d(self) -> int:
        """The parameter dimension, the length of sigma_diag."""
        return len(self.sigma_diag)

    @property
    def sigma(self) -> float:
        """The largest sqrt([F^-1]_aa)."""
        return float(np.max(self.sigma_diag))

    @property
    def sigma_top(self) -> float:
        """sqrt(lambda_max(F^-1)), the l2 analogue of sigma."""
        return math.sqrt(self.opnorm_inv)

    def finite(self, norm: str) -> bool:
        values = [*self.envelope[norm], self.V_H, self.opnorm_inv, self.rho_top]
        return bool(
            np.all(np.isfinite(values))
            and np.all(np.isfinite(self.sigma_diag))
            and np.all(np.isfinite(self.rho_diag))
        )


@dataclass
class BoundResult:
    """Outcome of one bound evaluation.

    value is a sample count (>= 1) when applicable, +inf otherwise.
    limiting_term names whichever bracket term produced the max.
    """

    value: float
    applicable: bool
    limiting_term: str
    reason: str = ""
    provenance: str = "exact"


def _inapplicable(coeffs: BoundCoefficients, reason: str) -> BoundResult:
    return BoundResult(value=math.inf, applicable=False, limiting_term="none",
                       reason=reason, provenance=coeffs.provenance)


def _check_criteria(eps: float, delta: float) -> None:
    if not eps > 0.0:
        raise ValueError(f"accuracy eps must be positive, got {eps!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability delta must be in (0, 1), got {delta!r}")


def idealized_coefficients(d: int, sigma: float = 1.0,
                           opnorm_inv: float = 1.0) -> BoundCoefficients:
    """Coefficients of an idealized Gaussian-score model.

    mu_R = V_H = V_R = rho = 0; only the inverse-Fisher scalars remain,
    which collapses every bracket to its Lambert-W Gaussian term.
    """
    return BoundCoefficients(
        V_H=0.0,
        C=BERRY_ESSEEN_CONSTANT,
        opnorm_inv=opnorm_inv,
        sigma_diag=np.full(d, sigma),
        rho_diag=np.zeros(d),
        rho_top=0.0,
        envelope={norm: (0.0, 0.0) for norm in NORMS},
        provenance="idealized",
    )


def estimate_coefficients(
    model,
    theta,
    eps: float,
    constant: float = BERRY_ESSEEN_CONSTANT,
    fisher: FisherMatrix | None = None,
) -> BoundCoefficients:
    """Bound coefficients of a model at an interior parameter point.

    The inverse-Fisher scalars come from `fisher` (built here when not
    given): sigma_diag = sqrt([F^-1]_aa) and opnorm_inv = lambda_max(F^-1).
    V_H, rho_diag, rho_top and, per norm, the envelope's mu_R and V_R over
    that norm's parameter ball (Euclidean radius sqrt(d)*eps for "linf", eps
    for "l2") come from one model.outcome_moments call over the distinct
    radii, at the p of one model.probs call, which raises DomainError
    outside the domain.
    The provenance is "unproven-constant" when C is below
    BERRY_ESSEEN_CONSTANT, the smallest proven value (Shevtsova 2011), else
    "exact": every model's envelope is a proven bound.

    sigma is the largest sqrt([F^-1]_aa) at this point; a supremum over
    the parameter space must be taken by the caller (e.g. over a
    documented grid).  singular is fisher.is_singular.
    """
    if not eps > 0.0:
        raise ValueError(f"accuracy eps must be positive, got {eps!r}")
    p = model.probs(theta)
    f = fisher if fisher is not None else fim(model, theta)
    radii = {"linf": math.sqrt(model.d) * eps, "l2": eps}
    # a moment beyond float64 comes out non-finite, and the bounds then
    # read non-finite coefficients
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v_h, rho_diag, rho_top, balls = model.outcome_moments(
            theta, p, f, dict.fromkeys(radii.values()))
    return BoundCoefficients(
        V_H=v_h,
        C=constant,
        opnorm_inv=f.opnorm_inverse,
        sigma_diag=np.sqrt(np.clip(f.inverse_diag, 0.0, None)),
        rho_diag=np.asarray(rho_diag, dtype=float),
        rho_top=rho_top,
        envelope={norm: balls[radii[norm]] for norm in NORMS},
        provenance="unproven-constant" if constant < BERRY_ESSEEN_CONSTANT else "exact",
        singular=f.is_singular,
    )


def _eta_mean(coeffs: BoundCoefficients) -> float:
    """(1/d) sum_a C rho_a / sigma_a^3; non-finite if a sigma_a = 0 (F singular)
    or sigma_a^3 overflows."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return float(np.mean(coeffs.C * coeffs.rho_diag / coeffs.sigma_diag ** 3))


def _upper_bracket(eps, delta, coeffs, norm, tau0, big_d):
    """max{(D/tau0)^2, (2 d eta / delta)^2, y*} shared by both upper bounds."""
    if coeffs.singular:
        return _inapplicable(coeffs, "singular Fisher matrix")
    d = coeffs.d
    eta = _eta_mean(coeffs)
    if not (coeffs.finite(norm) and math.isfinite(tau0) and math.isfinite(big_d)
            and math.isfinite(eta)):
        return _inapplicable(coeffs, "non-finite coefficients")
    if tau0 <= 0.0:
        return _inapplicable(coeffs, "tau0 <= 0")
    w0 = lambert_w0(8.0 / math.pi * delta**-2 * d**2)
    term_tau = (big_d / tau0) ** 2
    term_eta = (2.0 * d * eta / delta) ** 2
    half = 0.5 / tau0
    a = d * eta / delta + big_d * half + coeffs.sigma * math.sqrt(w0) * half
    # a >= u + v for u = d eta / delta and v = D / 2 tau0, so a^2 >= 4 u v and
    # the discriminant is >= 0 but for round-off
    disc = max(a * a - (2.0 * d * eta / delta) * (big_d / tau0), 0.0)
    y_star = (a + math.sqrt(disc)) ** 2
    terms = {"tau-regime": term_tau, "eta-regime": term_eta, "y-star": y_star}
    limiting = max(terms, key=terms.get)
    return BoundResult(
        value=max(terms[limiting], 1.0),
        applicable=True,
        limiting_term=limiting,
        provenance=coeffs.provenance,
    )


def upper_bound(eps: float, delta: float, coeffs: BoundCoefficients,
                norm: str) -> BoundResult:
    """Sample size guaranteeing the norm's criterion at one parameter point.

    For "linf",
    tau0 = (1 - eps * (d mu_R / 2) ||F^-1||) * eps and
    D = (sqrt(4 V_H / delta) sqrt(d) + 0.5 sqrt(4 V_R / delta) d eps)
        * ||F^-1|| * eps.
    "l2" reduces to the max-norm bound at accuracy eps/sqrt(d):
    tau0 = (1 - eps * (sqrt(d) mu_R / 2) ||F^-1||) * eps / sqrt(d) and
    D = (sqrt(4 V_H / delta) + 0.5 sqrt(4 V_R / delta) eps) * ||F^-1|| * eps.
    The norm enters only through its envelope (mu_R, V_R) and the four
    scales (k, a, b, s) below, and a factor of 1.0 is exact.  The
    parameter-space supremum is the caller's responsibility.
    """
    _check_criteria(eps, delta)
    _check_norm(norm)
    d = coeffs.d
    mu_r, v_r = coeffs.envelope[norm]
    sqrt_d = math.sqrt(d)
    k, a, b, s = (d, sqrt_d, d, 1.0) if norm == "linf" else (sqrt_d, 1.0, 1.0, sqrt_d)
    tau0 = (1.0 - eps * (k * mu_r / 2.0) * coeffs.opnorm_inv) * eps / s
    big_d = (
        math.sqrt(4.0 * coeffs.V_H / delta) * a
        + 0.5 * math.sqrt(4.0 * v_r / delta) * b * eps
    ) * coeffs.opnorm_inv * eps
    return _upper_bracket(eps, delta, coeffs, norm, tau0, big_d)


def _lower_terms(delta, tau0, big_d, eta, sigma, w0):
    """(z*, fourth-power term) of the lower-bound bracket for one direction."""
    beta = (
        -big_d / tau0
        - eta / (2.0 * delta)
        + math.sqrt(w0) * sigma / (2.0 * tau0)
    )
    disc = beta * beta - 2.0 * eta * big_d / (delta * tau0)
    if beta > 0.0 and disc >= 0.0:
        z_star = (beta + math.sqrt(disc)) ** 2
    else:
        z_star = 0.0  # the quadratic imposes no constraint in this regime
    fourth = (2.0 * sigma / (math.sqrt(big_d**2 + 4.0 * tau0 * sigma) + big_d)) ** 4
    return z_star, fourth


def lower_bound(
    eps: float, delta: float, coeffs: BoundCoefficients, norm: str, a: int | None = None
) -> BoundResult:
    """Sample size any guarantee in the norm's criterion must exceed.

    For "linf" it is valid for any single coordinate a at any parameter
    point, with sigma_a = sqrt([F^-1]_aa), eta = 2 C rho_a / sigma_a^3,
    tau0 = (1 + eps * (d mu_R / 2) ||F^-1||) * eps, and
    D = (sqrt(2 V_H / delta) sqrt(d) + 0.5 sqrt(2 V_R / delta) d eps)
        * ||F^-1|| * eps;
    with a=None the bound is maximised over coordinates.  "l2" is the same
    bracket for the one-parameter problem along the top eigenvector of
    F^-1: d = 1, sigma = sqrt(lambda_max(F^-1)) and rho = rho_top.
    """
    _check_criteria(eps, delta)
    _check_norm(norm)
    if norm == "linf":
        d, sigmas, rhos = coeffs.d, coeffs.sigma_diag, coeffs.rho_diag
        if a is not None and not 0 <= a < d:
            raise ValueError(f"coordinate a={a!r} outside [0, {d})")
    elif a is not None:
        raise ValueError(f"a single coordinate a={a!r} applies only to the 'linf' bound")
    else:
        d, sigmas, rhos = 1, [coeffs.sigma_top], [coeffs.rho_top]
    if not coeffs.finite(norm):
        return _inapplicable(coeffs, "non-finite coefficients")
    mu_r, v_r = coeffs.envelope[norm]
    tau0 = (1.0 + eps * (d * mu_r / 2.0) * coeffs.opnorm_inv) * eps
    big_d = (
        math.sqrt(2.0 * coeffs.V_H / delta) * math.sqrt(d)
        + 0.5 * math.sqrt(2.0 * v_r / delta) * d * eps
    ) * coeffs.opnorm_inv * eps
    w0 = lambert_w0(delta**-2 / (2.0 * math.pi))

    coords = range(d) if a is None else [a]
    best_value, best_term = 0.0, "vacuous"
    for idx in coords:
        sigma_a = float(sigmas[idx])
        if sigma_a <= 0.0:
            continue  # deterministic coordinate: no requirement
        eta = 2.0 * coeffs.C * float(rhos[idx]) / sigma_a**3
        z_star, fourth = _lower_terms(delta, tau0, big_d, eta, sigma_a, w0)
        if z_star >= fourth and z_star > best_value:
            best_value, best_term = z_star, "z-star"
        elif fourth > z_star and fourth > best_value:
            best_value, best_term = fourth, "fourth-power"
    return BoundResult(
        value=max(best_value, 1.0),
        applicable=True,
        limiting_term=best_term,
        provenance=coeffs.provenance,
    )


def _check_norm(norm: str) -> None:
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")


# ---------------------------------------------------------------------------
# small-eps limits and Pauli-scheme specialisations


def asymptotic_upper_linf(eps: float, delta: float, d: int, sup_inv_diag: float) -> float:
    """Small-eps upper limit W0(8 pi^-1 delta^-2 d^2) * sup [F^-1]_aa / eps^2."""
    _check_criteria(eps, delta)
    return lambert_w0(8.0 / math.pi * delta**-2 * d**2) * sup_inv_diag / eps**2


def asymptotic_lower_linf(eps: float, delta: float, inv_diag_aa: float) -> float:
    """Small-eps lower limit W0(delta^-2 / 2 pi) * [F^-1]_aa / eps^2.

    It is also the Euclidean limit, with lambda_max(F^-1) for [F^-1]_aa.
    """
    _check_criteria(eps, delta)
    return lambert_w0(delta**-2 / (2.0 * math.pi)) * inv_diag_aa / eps**2


def asymptotic_upper_l2(eps: float, delta: float, d: int, sup_inv_diag: float) -> float:
    """Small-eps Euclidean upper limit, d times the max-norm one."""
    return d * asymptotic_upper_linf(eps, delta, d, sup_inv_diag)


def entangled_pauli_upper(n: int, eps: float, delta: float) -> float:
    """Entanglement-assisted Pauli eigenvalue learning, small-eps upper bound.

    The generic limit at d = 4^n: the supremum of the largest
    inverse-Fisher diagonal equals 1 for the Bell-measurement scheme.
    """
    return asymptotic_upper_linf(eps, delta, 4**n, 1.0)


def separable_pauli_lower(n: int, eps: float, delta: float) -> float:
    """Single-use unentangled Pauli eigenvalue learning, small-eps lower bound.

    The generic limit at [F^-1]_aa = 2^n: purity forces some probe
    component below 2^(-n/2), which inflates the matching inverse-Fisher
    diagonal to at least 2^n - 1.
    """
    return asymptotic_lower_linf(eps, delta, 2.0**n)


def entangled_pauli_l2_lower(n: int, rates, eps: float, delta: float) -> float:
    """Euclidean-criterion lower bound for the entangled scheme.

    Eigenvalue interlacing of the Bell Fisher matrix against its rank-one
    completion gives lambda_max(F^-1) >= 4^n * p_(2) with p_(2) the
    second-largest error rate, and the generic limit at that value.
    """
    rates = validate_rates(rates)
    return asymptotic_lower_linf(eps, delta, 4.0**n * float(np.sort(rates)[-2]))
