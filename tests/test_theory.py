import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdistort import (
    DegenerateModelError,
    DomainError,
    LinearModel,
    brute_force_max_distortion,
    ellipse_geometry,
    epsilon_mu,
    extremal_bisectors,
    image_angle_axis,
    image_angle_general,
    max_distortion_for_angle,
    max_half_angle_deviation,
    principal_stretch,
)
from qcdistort.theory import (
    deviation_suite,
    extremal_bisector_suite,
    run_all_checks,
    tangent_ratio_suite,
)

models = st.builds(
    lambda mod, arg_a, ratio, arg_b: LinearModel(
        A=mod * cmath.exp(1j * arg_a), B=mod * ratio * cmath.exp(1j * arg_b)
    ),
    mod=st.floats(0.5, 2.0),
    arg_a=st.floats(-math.pi, math.pi),
    ratio=st.floats(0.0, 0.8),
    arg_b=st.floats(-math.pi, math.pi),
)


class TestPrincipalStretch:
    def test_conformal(self):
        ps = principal_stretch(LinearModel(1, 0))
        assert (ps.lambda_x, ps.lambda_y, ps.dilatation) == (1, 1, 1)

    def test_real_coefficients(self):
        ps = principal_stretch(LinearModel(1.5, 0.5))
        assert (ps.lambda_x, ps.lambda_y) == (2.0, 1.0)
        assert ps.dilatation == 2.0
        assert ps.max_direction == 0.0

    def test_imaginary_b_direction_via_grid(self):
        model = LinearModel(1.0, 0.5j)
        ps = principal_stretch(model)
        assert ps.max_direction == pytest.approx(math.pi / 4)
        # oracle: maximize |w(e^{i t})| over a dense grid
        t = np.linspace(-math.pi, math.pi, 400_001)
        mags = np.abs(model.A * np.exp(1j * t) + model.B * np.exp(-1j * t))
        best = t[int(np.argmax(mags))]
        assert abs(best % math.pi - ps.max_direction % math.pi) < 1e-4
        assert mags.max() == pytest.approx(ps.lambda_x, abs=1e-9)

    def test_degenerate_model(self):
        with pytest.raises(DegenerateModelError):
            principal_stretch(LinearModel(1.0, 1.0))
        for model in [LinearModel(complex(math.nan, 0), 0.5), LinearModel(1.0, math.nan)]:
            for func in (principal_stretch, ellipse_geometry):
                with pytest.raises(DegenerateModelError):
                    func(model)

    @settings(max_examples=60, deadline=None)
    @given(model=models)
    def test_dilatation_identity(self, model):
        ps = principal_stretch(model)
        mu = abs(model.mu())
        assert ps.dilatation == pytest.approx((1 + mu) / (1 - mu), abs=1e-12)
        assert ps.lambda_x >= ps.lambda_y > 0


class TestEllipseGeometry:
    def test_conformal_circle(self):
        geo = ellipse_geometry(LinearModel(1.0, 0.0))
        assert geo.mag_factor == geo.shrink_factor == 1.0

    def test_real_mu(self):
        geo = ellipse_geometry(LinearModel(1.0, 1.0 / 3.0))
        assert geo.mag_factor == pytest.approx(4 / 3)
        assert geo.shrink_factor == pytest.approx(2 / 3)
        assert geo.mag_direction == 0.0
        assert geo.shrink_direction == pytest.approx(math.pi / 2)

    @settings(max_examples=30, deadline=None)
    @given(model=models)
    def test_factors_match_grid_extrema(self, model):
        geo = ellipse_geometry(model)
        t = np.linspace(-math.pi, math.pi, 200_001)
        mags = np.abs(model.A * np.exp(1j * t) + model.B * np.exp(-1j * t))
        assert abs(mags.max() - geo.mag_factor) < 1e-6
        assert abs(mags.min() - geo.shrink_factor) < 1e-6


class TestImageAngles:
    def test_axis_formula_values(self):
        assert image_angle_axis(math.pi / 4, 3.0) == pytest.approx(0.321751, abs=1e-6)
        assert image_angle_axis(math.pi / 4, 1.0) == pytest.approx(math.pi / 4)

    def test_axis_against_direct_image(self):
        theta, k = math.pi / 4, 2.0
        expected = image_angle_axis(theta, k)
        assert expected == pytest.approx(0.463648, abs=1e-6)
        vec = np.array([math.cos(theta), math.sin(theta) / k])
        assert math.atan2(vec[1], vec[0]) == pytest.approx(expected, abs=1e-12)

    def test_axis_domain(self):
        with pytest.raises(DomainError):
            image_angle_axis(0.0, 2.0)
        with pytest.raises(DomainError):
            image_angle_axis(0.5, 0.9)

    def test_general_reduces_to_axis(self):
        for alpha in (0.2, 0.7, 1.3):
            assert image_angle_general(alpha, 0.0, 2.5) == pytest.approx(
                image_angle_axis(alpha, 2.5), abs=1e-12
            )

    def test_general_conformal_case(self):
        assert image_angle_general(1.1, 0.3, 1.0) == pytest.approx(0.8, abs=1e-12)

    def test_general_derived_value_and_oracle(self):
        alpha, beta, k = math.pi / 3, math.pi / 6, 2.0
        phi = image_angle_general(alpha, beta, k)
        # tan(phi) = 2 (sqrt(3) - 1/sqrt(3)) / 5, so phi = arctan(0.461880...)
        assert math.tan(phi) == pytest.approx(0.461880, abs=1e-6)
        assert phi == pytest.approx(0.432689, abs=1e-6)
        u = np.array([math.cos(alpha), math.sin(alpha) / k])
        w = np.array([math.cos(beta), math.sin(beta) / k])
        measured = math.atan2(abs(u[0] * w[1] - u[1] * w[0]), float(u @ w))
        assert phi == pytest.approx(measured, abs=1e-12)

    def test_general_rejects_straddling(self):
        with pytest.raises(DomainError):
            image_angle_general(0.4, -0.2, 2.0)
        with pytest.raises(DomainError):
            image_angle_general(0.2, 0.4, 2.0)


class TestExtremalBisectors:
    def test_sixty_degrees(self):
        b1, b2 = extremal_bisectors(math.pi / 3)
        assert b1 == pytest.approx(-1 / math.sqrt(3), abs=1e-12)
        assert b2 == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_small_angle_series(self):
        theta = 1e-4
        b1, b2 = extremal_bisectors(theta)
        assert b1 == pytest.approx(-theta / 2, rel=1e-6)
        assert b2 == pytest.approx(2 / theta, rel=1e-6)

    def test_right_angle_limit(self):
        assert extremal_bisectors(math.pi / 2) == pytest.approx((-1.0, 1.0))

    @pytest.mark.parametrize("theta", [0.3, 1.0, 1.5, 1.7, 2.5, 3.0])
    def test_agrees_with_quadratic_roots(self, theta):
        n = math.tan(theta)
        roots = sorted([(1 - math.sqrt(1 + n * n)) / n, (1 + math.sqrt(1 + n * n)) / n])
        ours = sorted(extremal_bisectors(theta))
        for r, o in zip(roots, ours):
            assert abs(r - o) <= 1e-10 * max(1.0, abs(r))


class TestMaxDistortion:
    def test_conformal_zero(self):
        for theta in (0.3, 1.2, 2.9):
            assert max_distortion_for_angle(theta, 1.0)[0] == 0.0

    def test_optimal_wedge_equals_full_bound(self):
        theta = 2 * math.atan(math.sqrt(2))
        delta, argmax_b = max_distortion_for_angle(theta, 2.0)
        assert delta == pytest.approx(2 * math.asin(1 / 3), abs=1e-6)
        assert argmax_b == pytest.approx(-math.tan(theta / 2), abs=1e-12)

    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 3, math.pi / 2, 2.4])
    @pytest.mark.parametrize("k", [1.3, 2.0, 5.0])
    def test_matches_grid_oracle(self, theta, k):
        formula, _ = max_distortion_for_angle(theta, k)
        grid, _ = brute_force_max_distortion(theta, k, 50_000)
        assert formula == pytest.approx(grid, abs=1e-5)

    def test_grid_argmax_bisects_on_axis(self):
        grid = 50_000
        _, alpha = brute_force_max_distortion(math.pi / 3, 2.0, grid)
        bisector = alpha + math.pi / 6
        r = bisector % (math.pi / 2)
        assert min(r, math.pi / 2 - r) <= 2 * math.pi / grid

    def test_grid_refinement_monotone(self):
        coarse, _ = brute_force_max_distortion(1.1, 3.0, 50_000)
        fine, _ = brute_force_max_distortion(1.1, 3.0, 100_000)
        assert fine >= coarse - 1e-6

    def test_randomized_wedges_agree_with_grid(self):
        rng = np.random.default_rng(17)
        grid = 20_000
        for _ in range(25):
            theta = rng.uniform(0.1, math.pi - 0.1)
            k = rng.uniform(1.05, 6.0)
            formula, _ = max_distortion_for_angle(theta, k)
            swept, alpha = brute_force_max_distortion(theta, k, grid)
            assert abs(formula - swept) <= 1e-5
            bisector = (alpha + theta / 2) % (math.pi / 2)
            assert min(bisector, math.pi / 2 - bisector) <= 2 * math.pi / grid

    def test_minimum_grid_enforced(self):
        with pytest.raises(DomainError):
            brute_force_max_distortion(1.0, 2.0, 10)


class TestMaxHalfAngleDeviation:
    def test_conformal(self):
        assert max_half_angle_deviation(1.0) == (0.0, math.pi / 4)

    def test_exact_values_k3(self):
        delta, theta_star = max_half_angle_deviation(3.0)
        assert delta == pytest.approx(math.pi / 6, abs=1e-15)
        assert theta_star == pytest.approx(math.pi / 3, abs=1e-15)

    def test_k2_against_grid(self):
        delta, _ = max_half_angle_deviation(2.0)
        assert delta == pytest.approx(0.339837, abs=1e-6)
        thetas = np.linspace(1e-8, math.pi / 2 - 1e-8, 1_000_000)
        grid = (thetas - np.arctan(np.tan(thetas) / 2.0)).max()
        assert delta == pytest.approx(grid, abs=1e-6)

    @pytest.mark.parametrize("k", [1.1, 1.5, 2.0, 3.0, 10.0])
    def test_tangent_identity(self, k):
        delta, _ = max_half_angle_deviation(k)
        assert math.tan(delta) == pytest.approx((k - 1) / (2 * math.sqrt(k)), abs=1e-12)

    @pytest.mark.parametrize("k", [1.01, 1.7, 6.0])
    def test_doubling_gives_full_angle_bound(self, k):
        delta, _ = max_half_angle_deviation(k)
        assert 2 * delta == epsilon_mu((k - 1) / (k + 1))


class TestSuites:
    def test_tangent_ratio_suite_passes(self):
        check = tangent_ratio_suite(n_models=300, seed=123)
        assert check.passed
        assert check.observed < 1e-8

    def test_tangent_ratio_randomized_directly(self):
        # measure the image of a ray through a random model and check
        # tan(phi) * K = tan(theta) after rotating to principal axes
        rng = np.random.default_rng(99)
        for _ in range(200):
            mod_a = rng.uniform(0.5, 2)
            model = LinearModel(
                A=mod_a * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
                B=mod_a * rng.uniform(0, 0.8)
                * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
            )
            ps = principal_stretch(model)
            theta = rng.uniform(0.01, math.pi / 2 - 0.01)
            z = cmath.exp(1j * (ps.max_direction + theta))
            w = model.apply(z)
            phi = abs(cmath.phase(w * cmath.exp(-1j * ps.image_rotation)))
            assert abs(math.tan(phi) * ps.dilatation - math.tan(theta)) < 1e-8

    def test_bisector_suite_passes(self):
        checks = extremal_bisector_suite(grid_size=20_000)
        assert all(c.passed for c in checks)

    def test_deviation_suite_passes(self):
        checks = deviation_suite(samples=200_000)
        assert all(c.passed for c in checks)

    def test_run_all(self):
        checks = run_all_checks(seed=7, grid_size=2000)
        assert all(c.passed for c in checks)
        assert {type(c.observed) for c in checks} == {float}


@pytest.mark.parametrize("k", [math.nan, math.inf, 0.5])
@pytest.mark.parametrize("call", [
    lambda k: image_angle_axis(0.5, k),
    lambda k: image_angle_general(0.5, 0.2, k),
    lambda k: max_distortion_for_angle(1.0, k),
    lambda k: brute_force_max_distortion(1.0, k, 1000),
    lambda k: max_half_angle_deviation(k),
], ids=["image_angle_axis", "image_angle_general", "max_distortion_for_angle",
        "brute_force_max_distortion", "max_half_angle_deviation"])
def test_dilatation_outside_one_to_inf_rejected(call, k):
    # K = inf is |mu| = 1, and NaN fails the "reject unless inside" guard
    with pytest.raises(DomainError, match="dilatation must be >= 1 and finite"):
        call(k)
