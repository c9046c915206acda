"""Cross-check the bound evaluators against independent transcriptions.

The oracles below recompute every bracket term step by step with scalar
math and the bisection Lambert solver, sharing no code with the package.
Agreement on random coefficient sets pins the algebra of the evaluators.
The per-norm evaluators in oracles.py pin the norm argument bit for bit,
and the last tests check the two reductions between the norms.  Only the
envelope (mu_R, V_R) depends on the norm, so each coefficient set draws
one envelope per norm.
"""

import dataclasses
import math

import numpy as np
import pytest

from fisherbound.bounds import NORMS, BoundCoefficients, lower_bound, upper_bound

import oracles
from oracles import lambert_bisect


def upper_oracle(eps, delta, d, mu_r, v_h, v_r, c, rho_diag, sigma_diag,
                 sigma, opnorm, norm):
    if norm == "linf":
        tau0 = (1.0 - eps * (d * mu_r / 2.0) * opnorm) * eps
        big_d = (
            math.sqrt(4.0 * v_h / delta) * math.sqrt(d)
            + 0.5 * math.sqrt(4.0 * v_r / delta) * d * eps
        ) * opnorm * eps
    else:
        tau0 = (1.0 - eps * (math.sqrt(d) * mu_r / 2.0) * opnorm) * eps / math.sqrt(d)
        big_d = (
            math.sqrt(4.0 * v_h / delta)
            + 0.5 * math.sqrt(4.0 * v_r / delta) * eps
        ) * opnorm * eps
    if tau0 <= 0.0:
        return None
    eta = sum(c * r / s**3 for r, s in zip(rho_diag, sigma_diag)) / d
    w0 = lambert_bisect(8.0 / math.pi / delta**2 * d**2)
    term_tau = (big_d / tau0) ** 2
    term_eta = (2.0 * d * eta / delta) ** 2
    a = d * eta / delta + big_d / (2.0 * tau0) + sigma * math.sqrt(w0) / (2.0 * tau0)
    y_star = (a + math.sqrt(a * a - (2.0 * d * eta / delta) * (big_d / tau0))) ** 2
    return max(term_tau, term_eta, y_star, 1.0)


def lower_oracle(eps, delta, d, mu_r, v_h, v_r, c, rho, sigma, opnorm, norm):
    if norm == "linf":
        tau0 = (1.0 + eps * (d * mu_r / 2.0) * opnorm) * eps
        big_d = (
            math.sqrt(2.0 * v_h / delta) * math.sqrt(d)
            + 0.5 * math.sqrt(2.0 * v_r / delta) * d * eps
        ) * opnorm * eps
    else:
        tau0 = (1.0 + eps * (mu_r / 2.0) * opnorm) * eps
        big_d = (
            math.sqrt(2.0 * v_h / delta)
            + 0.5 * math.sqrt(2.0 * v_r / delta) * eps
        ) * opnorm * eps
    eta = 2.0 * c * rho / sigma**3
    w0 = lambert_bisect(1.0 / delta**2 / (2.0 * math.pi))
    beta = -big_d / tau0 - eta / (2.0 * delta) + math.sqrt(w0) * sigma / (2.0 * tau0)
    disc = beta * beta - 2.0 * eta * big_d / (delta * tau0)
    z_star = (beta + math.sqrt(disc)) ** 2 if beta > 0.0 and disc >= 0.0 else 0.0
    fourth = (2.0 * sigma / (math.sqrt(big_d**2 + 4.0 * tau0 * sigma) + big_d)) ** 4
    return max(z_star, fourth, 1.0)


def random_coefficients(rng):
    # lambda_max(F^-1) >= max_a [F^-1]_aa, so sigma_top = sqrt(opnorm_inv) >= sigma
    d = int(rng.integers(1, 9))
    sigma_diag = rng.uniform(0.2, 2.0, size=d)
    rho_diag = rng.uniform(0.0, 3.0, size=d)
    sigma = float(sigma_diag.max())
    return BoundCoefficients(
        V_H=float(rng.uniform(0.0, 10.0)),
        C=0.4748,
        opnorm_inv=float(rng.uniform(sigma, 2.0 * sigma)) ** 2,
        sigma_diag=sigma_diag,
        rho_diag=rho_diag,
        rho_top=float(rng.uniform(0.0, 3.0)),
        envelope={norm: (float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 5.0)))
                  for norm in NORMS},
    )


@pytest.mark.parametrize("norm", ["linf", "l2"])
def test_upper_bound_matches_oracle(norm):
    rng = np.random.default_rng(2718)
    checked = 0
    for _ in range(200):
        coeffs = random_coefficients(rng)
        eps = float(rng.uniform(1e-4, 0.2))
        delta = float(rng.uniform(0.01, 0.4))
        mu_r, v_r = coeffs.envelope[norm]
        expected = upper_oracle(
            eps, delta, coeffs.d, mu_r, coeffs.V_H, v_r, coeffs.C,
            coeffs.rho_diag, coeffs.sigma_diag, coeffs.sigma, coeffs.opnorm_inv,
            norm,
        )
        result = upper_bound(eps, delta, coeffs, norm)
        if expected is None:
            assert not result.applicable
            assert result.reason == "tau0 <= 0"
        else:
            assert result.applicable
            assert result.value == pytest.approx(expected, rel=1e-9)
            checked += 1
    assert checked > 50


def test_lower_bound_linf_matches_oracle_per_coordinate():
    rng = np.random.default_rng(3141)
    for _ in range(200):
        coeffs = random_coefficients(rng)
        eps = float(rng.uniform(1e-4, 0.2))
        delta = float(rng.uniform(0.01, 0.4))
        mu_r, v_r = coeffs.envelope["linf"]
        per_coordinate = [
            lower_oracle(eps, delta, coeffs.d, mu_r, coeffs.V_H,
                         v_r, coeffs.C, float(coeffs.rho_diag[a]),
                         float(coeffs.sigma_diag[a]), coeffs.opnorm_inv, "linf")
            for a in range(coeffs.d)
        ]
        result = lower_bound(eps, delta, coeffs, "linf")
        assert result.applicable
        assert result.value == pytest.approx(max(per_coordinate), rel=1e-9)
        single = lower_bound(eps, delta, coeffs, "linf", a=0)
        assert single.value == pytest.approx(per_coordinate[0], rel=1e-9)


def test_lower_bound_l2_matches_oracle():
    rng = np.random.default_rng(1618)
    for _ in range(200):
        coeffs = random_coefficients(rng)
        eps = float(rng.uniform(1e-4, 0.2))
        delta = float(rng.uniform(0.01, 0.4))
        mu_r, v_r = coeffs.envelope["l2"]
        expected = lower_oracle(eps, delta, coeffs.d, mu_r, coeffs.V_H,
                                v_r, coeffs.C, coeffs.rho_top,
                                coeffs.sigma_top, coeffs.opnorm_inv, "l2")
        result = lower_bound(eps, delta, coeffs, "l2")
        assert result.applicable
        assert result.value == pytest.approx(expected, rel=1e-9)


def edge_coefficients(rng):
    """Coefficients over the evaluators' edge cases.

    d runs from 1 to 300, log-uniform above 8; mu_R and V_R may be 0, sigma_diag may hold zeros,
    opnorm_inv (so sigma_top) may be 0, F may be singular, and a field may be NaN or inf.
    mu_R spans seven decades, so tau0 <= 0 is common at the larger eps.
    """
    d = int(rng.integers(1, 9)) if rng.random() < 0.5 else round(300.0 ** rng.random())
    sigma_diag = rng.uniform(0.05, 3.0, size=d)
    sigma_diag[rng.random(d) < 0.1] = 0.0
    rho_diag = rng.uniform(0.0, 3.0, size=d)
    envelope = {
        norm: [0.0 if rng.random() < 0.15 else float(10.0 ** rng.uniform(-3.0, 4.0)),
               0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 5.0))]
        for norm in NORMS
    }
    fields = dict(
        V_H=float(rng.uniform(0.0, 10.0)),
        C=0.4748,
        opnorm_inv=0.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 6.0)) ** 2,
        sigma_diag=sigma_diag,
        rho_diag=rho_diag,
        rho_top=float(rng.uniform(0.0, 3.0)),
        envelope=envelope,
        singular=bool(rng.random() < 0.1),
    )
    if rng.random() < 0.1:
        bad = float(rng.choice([math.nan, math.inf]))
        name = str(rng.choice(["mu_R", "V_H", "V_R", "opnorm_inv", "rho_top",
                               "sigma_diag", "rho_diag"]))
        if name in ("sigma_diag", "rho_diag"):
            fields[name][int(rng.integers(d))] = bad
        elif name in ("mu_R", "V_R"):
            envelope[str(rng.choice(NORMS))][name == "V_R"] = bad
        else:
            fields[name] = bad
    fields["envelope"] = {norm: tuple(pair) for norm, pair in envelope.items()}
    return BoundCoefficients(**fields)


def outcome(evaluate, *args, **kwargs):
    """repr of the BoundResult (exact for floats, NaN and -0.0), or of the error."""
    try:
        return repr(evaluate(*args, **kwargs))
    except (ValueError, OverflowError) as exc:
        return repr((type(exc), str(exc)))


def test_norm_argument_equals_the_per_norm_evaluators_bit_for_bit():
    rng = np.random.default_rng(20261019)
    tau_inapplicable = single_coordinates = 0
    for _ in range(10_000):
        coeffs = edge_coefficients(rng)
        eps = float(10.0 ** rng.uniform(-5.0, -0.3))
        delta = float(rng.uniform(0.01, 0.6))
        for norm, upper, lower in (("linf", oracles.upper_bound_linf, oracles.lower_bound_linf),
                                   ("l2", oracles.upper_bound_l2, oracles.lower_bound_l2)):
            got = outcome(upper_bound, eps, delta, coeffs, norm)
            assert got == outcome(upper, eps, delta, coeffs)
            tau_inapplicable += "tau0 <= 0" in got
            assert outcome(lower_bound, eps, delta, coeffs, norm) == outcome(
                lower, eps, delta, coeffs)
        if coeffs.d <= 8:
            for a in range(coeffs.d):
                assert outcome(lower_bound, eps, delta, coeffs, "linf", a=a) == outcome(
                    oracles.lower_bound_linf, eps, delta, coeffs, a=a)
                single_coordinates += 1
    assert tau_inapplicable > 1000 and single_coordinates > 10_000


def test_unknown_norm_and_a_coordinate_with_l2_are_rejected():
    coeffs = random_coefficients(np.random.default_rng(1))
    for evaluate in (upper_bound, lower_bound):
        with pytest.raises(ValueError, match="norm must be one of"):
            evaluate(0.01, 0.1, coeffs, "l1")
    with pytest.raises(ValueError, match="only to the 'linf' bound"):
        lower_bound(0.01, 0.1, coeffs, "l2", a=0)


def test_l2_upper_bound_is_the_linf_bound_at_eps_over_sqrt_d():
    # tau0 and D of the l2 bound are those of the linf bound at eps/sqrt(d),
    # on the same coefficients: equal up to the rounding of the rescaling
    rng = np.random.default_rng(8)
    applicable = 0
    for _ in range(10_000):
        coeffs = edge_coefficients(rng)
        eps = float(10.0 ** rng.uniform(-5.0, -0.3))
        delta = float(rng.uniform(0.01, 0.6))
        l2 = upper_bound(eps, delta, coeffs, "l2")
        linf = upper_bound(eps / math.sqrt(coeffs.d), delta,
                           dataclasses.replace(coeffs, envelope={"linf": coeffs.envelope["l2"]}),
                           "linf")
        assert (l2.applicable, l2.reason) == (linf.applicable, linf.reason)
        if l2.applicable:
            assert l2.value == pytest.approx(linf.value, rel=1e-11, abs=0.0)
            applicable += 1
    assert applicable > 2000


def test_l2_lower_bound_is_the_one_parameter_linf_bound_bit_for_bit():
    # the l2 lower bound is the linf one with d = 1 along the top eigenvector
    rng = np.random.default_rng(9)
    for _ in range(10_000):
        coeffs = edge_coefficients(rng)
        if not coeffs.finite("l2"):
            continue  # the one-parameter copy drops the non-finite diagonal entries
        eps = float(10.0 ** rng.uniform(-5.0, -0.3))
        delta = float(rng.uniform(0.01, 0.6))
        one = dataclasses.replace(coeffs, sigma_diag=np.array([coeffs.sigma_top]),
                                  rho_diag=np.array([coeffs.rho_top]),
                                  envelope={"linf": coeffs.envelope["l2"]})
        assert outcome(lower_bound, eps, delta, coeffs, "l2") == outcome(
            lower_bound, eps, delta, one, "linf")
