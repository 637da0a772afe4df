import cmath
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcdistort.mesh
import qcdistort.theory
from qcdistort import (
    DegenerateModelError,
    DomainError,
    LinearModel,
    MeshMap,
    brute_force_max_distortion,
    corner_angles,
    corner_distortion,
    extremal_bisectors,
    face_beltrami,
    max_distortion_for_angle,
    max_half_angle_deviation,
    principal_stretch,
)
from qcdistort.synth import bumpy_disk, irregular_disk, perturbed_target
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
            with pytest.raises(DegenerateModelError):
                principal_stretch(model)
        # an array model fails on any element, named in the message
        with pytest.raises(DegenerateModelError, match=r"\|A\|=2.000e\+00 <= \|B\|=3.000e\+00"):
            principal_stretch(LinearModel(np.array([1.0, 2.0, 1.0]), np.array([0.5, 3.0, 1.0])))

    def test_mu_of_an_array_model_is_the_elementwise_quotient(self):
        mu = LinearModel(np.array([1.0, 2.0]), np.array([0.5, 0.1j])).mu()
        assert mu.shape == (2,)
        assert mu.tolist() == [LinearModel(1.0, 0.5).mu(), LinearModel(2.0, 0.1j).mu()]
        assert repr(LinearModel(-2.0, 1.0).mu()) == "(-0.5-0j)"  # a scalar keeps its bits

    @settings(max_examples=60, deadline=None)
    @given(model=models)
    def test_dilatation_identity(self, model):
        ps = principal_stretch(model)
        mu = abs(model.mu())
        assert ps.dilatation == pytest.approx((1 + mu) / (1 - mu), abs=1e-12)
        assert ps.lambda_x >= ps.lambda_y > 0


class TestEllipseGeometry:
    # an infinitesimal circle maps to an ellipse with semi-axes lambda_x
    # along max_direction and lambda_y perpendicular to it
    def test_conformal_circle(self):
        ps = principal_stretch(LinearModel(1.0, 0.0))
        assert ps.lambda_x == ps.lambda_y == 1.0

    def test_real_mu(self):
        ps = principal_stretch(LinearModel(1.0, 1.0 / 3.0))
        assert ps.lambda_x == pytest.approx(4 / 3)
        assert ps.lambda_y == pytest.approx(2 / 3)
        assert ps.max_direction == 0.0

    @settings(max_examples=30, deadline=None)
    @given(model=models)
    def test_factors_match_grid_extrema(self, model):
        ps = principal_stretch(model)
        t = np.linspace(-math.pi, math.pi, 200_001)
        mags = np.abs(model.A * np.exp(1j * t) + model.B * np.exp(-1j * t))
        assert abs(mags.max() - ps.lambda_x) < 1e-6
        assert abs(mags.min() - ps.lambda_y) < 1e-6


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


    @pytest.mark.parametrize("theta", [0.0, math.pi, math.nan, np.array([1.0, 0.0])],
                             ids=["0", "pi", "nan", "0-in-array"])
    def test_theta_outside_zero_to_pi_rejected(self, theta):
        for call in (extremal_bisectors, lambda t: max_distortion_for_angle(t, 2.0)):
            with pytest.raises(DomainError, match=r"theta must lie in \(0, pi\)"):
                call(theta)


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

    @pytest.mark.parametrize("theta", [0.3, math.pi / 2, 2.9])
    def test_conformal_returns_first_placement(self, theta):
        assert max_distortion_for_angle(theta, 1.0) == (0.0, -math.tan(theta / 2))

    # max(theta - 2 atan(t/3), 2 atan(3 t) - theta), t = tan(theta/2), for the
    # doubles nearest pi/2 -+ 1e-13, evaluated offline with 50 digits
    @pytest.mark.parametrize("theta, exact", [
        (math.pi / 2 - 1e-13, 0.92729521800165222495),
        (math.pi / 2 + 1e-13, 0.92729521800165217596),
    ], ids=["below", "above"])
    def test_next_to_the_right_angle_within_4_ulp(self, theta, exact):
        delta, _ = max_distortion_for_angle(theta, 3.0)
        assert abs(delta - exact) <= 4 * math.ulp(exact)

    @settings(max_examples=200, deadline=None)
    @given(theta=st.floats(0.01, math.pi - 0.01), k=st.floats(1.0, 1e4))
    def test_returned_wedge_attains_delta(self, theta, k):
        # map the wedge (atan b, atan b + theta) by (x, y/K) and measure its
        # image with atan2, as the grid oracle does
        delta, b = max_distortion_for_angle(theta, k)
        alpha = math.atan(b)
        u = (math.cos(alpha), math.sin(alpha) / k)
        w = (math.cos(alpha + theta), math.sin(alpha + theta) / k)
        phi = math.atan2(abs(u[0] * w[1] - u[1] * w[0]), u[0] * w[0] + u[1] * w[1])
        assert abs(abs(phi - theta) - delta) <= 1e-12
        assert abs(max_distortion_for_angle(math.pi - theta, k)[0] - delta) <= 1e-12


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
        assert 2 * delta == 2.0 * np.arcsin((k - 1) / (k + 1))

    # asin((K-1)/(K+1)) for the double K, evaluated offline with 50 digits;
    # that form's argument rounds next to 1 and is 7.8 ulp off at K = 1e4,
    # 733 at 1e8 and 9.0e7 at 1e16
    @pytest.mark.parametrize("k, exact", [
        (1.1, 0.047637062624403171032),
        (2.0, 0.3398369094541219371),
        (3.0, 0.52359877559829887308),
        (10.0, 0.95824158845555770707),
        (1e4, 1.5507969934215661428),
        (1e8, 1.5705963267955632859),
        (1e12, 1.5707943267948966199),
        (1e16, 1.5707963067948966192),
        (1e100, 1.5707963267948966192),
        (1e308, 1.5707963267948966192),
    ])
    def test_within_an_ulp_of_the_reference(self, k, exact):
        delta, _ = max_half_angle_deviation(k)
        assert abs(delta - exact) <= math.ulp(exact)


class TestArrayForms:
    @settings(max_examples=60, deadline=None)
    @given(cases=st.lists(st.tuples(
        st.floats(1e-3, math.pi - 1e-3), st.floats(0.0, math.log(1e12)).map(math.exp),
        st.floats(0.5, 2.0), st.floats(-math.pi, math.pi), st.floats(0.0, 0.8),
        st.floats(-math.pi, math.pi)), min_size=1, max_size=40))
    def test_array_call_is_the_elementwise_scalar_call(self, cases):
        thetas, ks, mod, arg_a, ratio, arg_b = (np.array(c) for c in zip(*cases))
        a, b = mod * np.exp(1j * arg_a), mod * ratio * np.exp(1j * arg_b)
        calls = [
            (extremal_bisectors, (thetas,)),
            (max_distortion_for_angle, (thetas, ks)),
            (max_half_angle_deviation, (ks,)),
            (lambda a, b: astuple(principal_stretch(LinearModel(a, b))), (a, b)),
        ]
        for func, args in calls:
            scalar = [func(*row) for row in zip(*(arg.tolist() for arg in args))]
            assert {type(x) for row in scalar for x in row} == {float}
            for column, values in zip(func(*args), zip(*scalar)):
                assert column.shape == thetas.shape
                assert column.tobytes() == np.array(values).tobytes()

    # the angle-aware bound on the pipeline's own corners: a corner of
    # source angle theta on a face of dilatation K is distorted by at most
    # max_distortion_for_angle(theta, K), which is at most 2 arcsin|mu|
    @pytest.mark.parametrize("make, n", [(irregular_disk, 3000), (bumpy_disk, 3000),
                                         (irregular_disk, 1100)],
                             ids=["irregular_disk-3000", "bumpy_disk-3000",
                                  "irregular_disk-1100"])
    def test_corners_within_the_angle_aware_bound(self, make, n):
        mesh = make(n)
        mapping = MeshMap(mesh, perturbed_target(mesh, np.random.default_rng(16)))
        field = face_beltrami(mapping)
        ok = ~field.folded
        assert ok.any()
        bound, _ = max_distortion_for_angle(corner_angles(mesh)[ok],
                                            field.dilatation[ok, None])
        assert (corner_distortion(mapping).corner[ok] <= bound + 1e-12).all()
        assert (bound <= field.eps_mu[ok, None] + 1e-12).all()


class TestSuites:
    def test_tangent_ratio_suite_passes(self):
        check = tangent_ratio_suite(seed=123)
        assert check.passed
        assert check.observed < 1e-8
        assert check.params == {"n_models": 1000, "seed": 123}

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
        checks = deviation_suite(grid_size=20_000)
        assert all(c.passed for c in checks)

    # K log-uniform over [1, 1e6], or one of the extremes: next to 1, where
    # the sweep is flat, and huge, where (K-1)/(K+1) rounds to 1
    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(1e-3, math.pi - 1e-3), k=st.one_of(
        st.floats(0.0, math.log(1e6)).map(math.exp),
        st.sampled_from([1.0, 1.0 + 1e-15, 1.0 + 1e-10, 1e12, 1e100, 1e308])))
    def test_grid_suites_pass_at_grid_2000(self, theta, k):
        checks = (extremal_bisector_suite((k,), (theta,), 2000)
                  + deviation_suite((k,), 100_000))
        assert all(c.passed for c in checks), checks

    def test_passed_is_observed_within_tolerance(self):
        checks = run_all_checks(seed=7, grid_size=2000)
        checks += extremal_bisector_suite((1.0000000001, 1e308), (1.0,), 2000)
        assert all(c.passed == (c.observed <= c.tolerance) for c in checks)

    def test_run_all(self):
        checks = run_all_checks(seed=7, grid_size=2000)
        assert all(c.passed for c in checks)
        assert {type(c.observed) for c in checks} == {float}


class TestReportKernel:
    """The battery measures its wedges with the corner kernel of the report, so an
    error in that kernel fails the battery instead of passing it unseen."""

    def test_battery_uses_the_report_kernel(self):
        assert qcdistort.theory._dot is qcdistort.mesh._dot
        assert qcdistort.theory._cross_norm is qcdistort.mesh._cross_norm

    def test_a_skewed_cross_norm_fails_the_battery(self, monkeypatch):
        assert all(c.passed for c in run_all_checks(grid_size=2000))
        real = qcdistort.mesh._cross_norm
        monkeypatch.setattr(qcdistort.theory, "_cross_norm",
                            lambda u, w: real(u, w) * (1.0 + 1e-4))
        assert not all(c.passed for c in run_all_checks(grid_size=2000))


@pytest.mark.parametrize("k", [math.nan, math.inf, 0.5])
@pytest.mark.parametrize("call", [
    lambda k: max_distortion_for_angle(1.0, k),
    lambda k: brute_force_max_distortion(1.0, k, 1000),
    lambda k: max_half_angle_deviation(k),
], ids=["max_distortion_for_angle", "brute_force_max_distortion", "max_half_angle_deviation"])
def test_dilatation_outside_one_to_inf_rejected(call, k):
    # K = inf is |mu| = 1, and NaN fails the "reject unless inside" guard;
    # an array is rejected when any element is
    for arg in (k, np.array([2.0, k])):
        with pytest.raises(DomainError, match="dilatation must be >= 1 and finite"):
            call(arg)
