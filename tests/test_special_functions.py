import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherbound.special_functions import (
    TailBoundPair,
    gaussian_pdf,
    gaussian_tail,
    lambert_w0,
    mills_bounds,
)

from oracles import gauss_tail_quad, lambert_bisect

BRANCH_POINT = -math.exp(-1.0)

# Frozen from the bisection oracle (Omega constant).
W0_OF_ONE = 0.5671432904097835
# Frozen from composite-Simpson quadrature of the normal density.
TAIL_AT_ONE = 0.15865525393145516
PHI_AT_ONE = 0.24197072451914337


class TestLambertW0:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(BRANCH_POINT) == -1.0

    def test_unit_value_against_bisection_oracle(self):
        assert lambert_w0(1.0) == pytest.approx(W0_OF_ONE, rel=1e-12)
        assert lambert_w0(1.0) == pytest.approx(lambert_bisect(1.0), rel=1e-12)

    def test_w0_of_e_is_one(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(BRANCH_POINT - 1e-6)
        with pytest.raises(ValueError):
            lambert_w0(float("nan"))

    def test_residual_on_log_grid(self):
        xs = np.concatenate([
            [BRANCH_POINT + 1e-9, -0.3, -1e-8, 1e-8],
            np.logspace(-8, 12, 80),
        ])
        for x in xs:
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=BRANCH_POINT + 1e-9, max_value=1e12))
    def test_residual_property(self, x):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_log_upper_bound(self):
        for x in np.logspace(math.log10(math.e), 12, 50):
            assert lambert_w0(float(x)) <= math.log(x) + 1e-12

    def test_concavity_probe(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x, y = rng.uniform(1e-6, 1e6, size=2)
            t = rng.uniform()
            mid = lambert_w0(t * x + (1 - t) * y)
            chord = t * lambert_w0(x) + (1 - t) * lambert_w0(y)
            assert mid >= chord - 1e-10


class TestGaussianTail:
    def test_half_at_zero(self):
        assert gaussian_tail(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_reflection_identity(self):
        for x in (-3.0, -0.7, 0.2, 1.5, 4.0):
            assert gaussian_tail(x) == pytest.approx(1.0 - gaussian_tail(-x), abs=1e-15)

    def test_value_at_one_against_quadrature(self):
        assert gaussian_tail(1.0) == pytest.approx(TAIL_AT_ONE, abs=1e-12)
        assert gaussian_tail(0.5) == pytest.approx(gauss_tail_quad(0.5), abs=1e-12)

    def test_strictly_decreasing(self):
        grid = np.linspace(-6.0, 6.0, 101)
        values = [gaussian_tail(float(x)) for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestMillsBounds:
    def test_value_at_one(self):
        pair = mills_bounds(1.0)
        assert pair.lower == pytest.approx(PHI_AT_ONE / 2.0, rel=1e-12)
        assert pair.upper == pytest.approx(PHI_AT_ONE, rel=1e-12)

    def test_brackets_tail_on_grid(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            pair = mills_bounds(x)
            tail = gaussian_tail(x) if x < 8 else gauss_tail_quad(x)
            assert pair.lower < tail < pair.upper

    def test_bracket_at_ten_against_quadrature(self):
        pair = mills_bounds(10.0)
        tail = gauss_tail_quad(10.0)
        assert pair.lower < tail < pair.upper

    def test_ratio_tightens_at_infinity(self):
        # stay below x ~ 38.6 where the density underflows double precision
        for x in (10.0, 20.0, 35.0):
            pair = mills_bounds(x)
            assert pair.upper / pair.lower == pytest.approx(1.0 + 1.0 / x**2, rel=1e-12)

    def test_domain_error(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                mills_bounds(bad)

    def test_pair_invariant(self):
        with pytest.raises(ValueError):
            TailBoundPair(lower=0.3, upper=0.2)
        with pytest.raises(ValueError):
            TailBoundPair(lower=-0.1, upper=0.2)


def test_pdf_matches_tail_derivative():
    h = 1e-6
    for x in (-2.0, 0.3, 1.7):
        fd = (gaussian_tail(x + h) - gaussian_tail(x - h)) / (2 * h)
        assert fd == pytest.approx(-gaussian_pdf(x), rel=1e-8)
