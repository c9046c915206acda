import math

import numpy as np
import pytest

from fisherbound import models, special_functions, verify

# seeds whose 64-point grid puts two points near x = -8 whose tails round
# to the same double (at seed 21: x = -7.80997 and -7.80793 both give
# 0.9999999999999971)
TIED_SEEDS = (21, 35, 43, 114, 247, 250, 251, 287, 304)


def check_tail(seed):
    return verify._check_gaussian_tail_monotone(
        np.random.default_rng(np.random.SeedSequence(seed))
    )


class TestGaussianTailMonotone:
    @pytest.mark.parametrize("seed", TIED_SEEDS)
    def test_rounding_ties_pass(self, seed):
        assert check_tail(seed) == "strictly decreasing on a random 64-point grid"

    def test_seed_21_has_a_tie(self):
        grid = np.sort(np.random.default_rng(np.random.SeedSequence(21)).uniform(-8, 8, 64))
        values = [special_functions.gaussian_tail(float(x)) for x in grid]
        assert any(a == b for a, b in zip(values, values[1:]))

    def test_injected_bump_fails(self, monkeypatch):
        true_tail = special_functions.gaussian_tail

        def bumped(x):
            return true_tail(x) + (0.2 if 0.0 < x < 0.5 else 0.0)

        monkeypatch.setattr(special_functions, "gaussian_tail", bumped)
        with pytest.raises(AssertionError, match="tail not decreasing"):
            check_tail(2024)

    def test_flat_stretch_fails(self, monkeypatch):
        # ties whose mirrored tails are flat too: no true gap to excuse them
        true_tail = special_functions.gaussian_tail

        def flat(x):
            return 0.5 if -1.0 < x < 1.0 else true_tail(x)

        monkeypatch.setattr(special_functions, "gaussian_tail", flat)
        with pytest.raises(AssertionError, match="tail not decreasing"):
            check_tail(2024)

    def test_tie_needs_a_positive_mirrored_gap(self, monkeypatch):
        # values tie at 1.0 everywhere below 0, but the mirrored tails rise
        true_tail = special_functions.gaussian_tail

        def broken(x):
            return 1.0 if x < 0.0 else 1.0 - 1e-3 * math.exp(-x)

        monkeypatch.setattr(special_functions, "gaussian_tail", broken)
        with pytest.raises(AssertionError, match="tail not decreasing"):
            check_tail(21)

    def test_suite_passes_at_a_tied_seed(self):
        results = verify.run_checks(seed=21)
        row = {r.name: r for r in results}["special-functions/gaussian-tail-monotone"]
        assert row.passed


def _scaled(method, factor):
    def scaled(self, *args, **kwargs):
        return factor * method(self, *args, **kwargs)

    return scaled


# One production quantity of one zoo model corrupted at a time, each beyond
# its check's tolerance.  The poisson model is the one zoo model that no other
# check reads, so every other row keeps passing.  Its score scaled by
# 1 + 1e-5 scales E[g g^T] and analytic_fisher alike, so only the central
# differences of log p see it.
CORRUPTIONS = {
    "analytic-fisher": ("analytic_fisher", 1.0 + 1e-5, "models/identities",
                        "poisson: E[score score^T] != analytic_fisher"),
    "dlogp": ("dlogp", 1.0 + 1e-5, "models/derivatives", "poisson: dlogp mismatch"),
    "envelope": ("third_derivative_envelope", 0.5, "models/derivatives",
                 "poisson: third_derivative_envelope"),
}


class TestModelChecksCatchCorruption:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_only_the_matching_check_fails(self, corruption, monkeypatch):
        method, factor, check, message = CORRUPTIONS[corruption]
        monkeypatch.setattr(models.PoissonTruncatedModel, method,
                            _scaled(getattr(models.PoissonTruncatedModel, method), factor))
        failed = [r for r in verify.run_checks() if not r.passed]
        assert [r.name for r in failed] == [check]
        assert failed[0].detail.startswith(message), failed[0].detail


# A check that raises anything but AssertionError: (exception, recorded detail)
CRASHES = {
    "runtime-error": (RuntimeError("boom"), "RuntimeError: boom"),
    "value-error": (ValueError("bad input"), "ValueError: bad input"),
    "zero-division": (ZeroDivisionError("division by zero"),
                      "ZeroDivisionError: division by zero"),
}


@pytest.mark.parametrize("case", sorted(CRASHES))
def test_a_crashing_check_fails_and_the_run_goes_on(case, monkeypatch):
    exc, detail = CRASHES[case]

    def crash(rng):
        raise exc

    monkeypatch.setattr(verify, "_CHECKS", [("crash", crash), ("after", lambda rng: "ran")])
    results = verify.run_checks()
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("crash", False, detail), ("after", True, "ran")]
