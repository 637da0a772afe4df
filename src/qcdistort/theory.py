"""Angle transformation laws of orientation-preserving linear maps.

A linear model w = A z + B conj(z) with |A| > |B| stretches by |A| + |B|
along one direction and |A| - |B| along the perpendicular one.  This module
evaluates the closed-form consequences (how angles transform, where the
distortion of a wedge is extremal, the maximal half-angle deviation), each
paired with a deterministic brute-force grid oracle so the formulas can be
verified numerically rather than trusted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateModelError, DomainError

# relative margin below which |A| and |B| are considered equal
MODEL_GUARD = 1e-12
MIN_GRID = 1000


@dataclass(frozen=True)
class LinearModel:
    """w = A z + B conj(z) with complex coefficients."""

    A: complex
    B: complex

    def mu(self) -> complex:
        """Beltrami coefficient: f_z = A, f_zbar = B, so mu = B / A."""
        return complex(self.B) / complex(self.A)

    def apply(self, z: complex) -> complex:
        return self.A * z + self.B * z.conjugate()


@dataclass(frozen=True)
class PrincipalStretch:
    """Stretch decomposition of a linear model.

    lambda_x        maximal stretch factor, |A| + |B|
    lambda_y        minimal stretch factor, |A| - |B|
    max_direction   direction of maximal stretch in the source plane
                    (= arg(mu)/2), radians
    image_rotation  direction the maximal-stretch axis maps to, radians
    dilatation      lambda_x / lambda_y = (1 + |mu|) / (1 - |mu|)
    """

    lambda_x: float
    lambda_y: float
    max_direction: float
    image_rotation: float
    dilatation: float


@dataclass(frozen=True)
class EllipseGeometry:
    """Image of an infinitesimal circle: principal directions and factors."""

    mag_direction: float
    mag_factor: float
    shrink_direction: float
    shrink_factor: float


def _check_dilatation(dilatation: float) -> None:
    if not 1.0 <= dilatation < math.inf:  # NaN fails too; K = inf is |mu| = 1
        raise DomainError("dilatation must be >= 1 and finite")


def principal_stretch(model: LinearModel) -> PrincipalStretch:
    """Principal stretch factors and directions of a linear model.

    Writing arg A = t_A and arg B = t_B, rotating the source plane by
    (t_B - t_A)/2 and the image plane by (t_A + t_B)/2 diagonalizes the
    model to (x, y) -> ((|A|+|B|) x, (|A|-|B|) y).

    Raises
    ------
    DegenerateModelError
        If |A| <= |B| (orientation not preserved).
    """
    mag_a, mag_b = abs(model.A), abs(model.B)
    if not mag_a - mag_b > MODEL_GUARD * (mag_a + mag_b):  # NaN fails too
        raise DegenerateModelError(
            f"model is not orientation-preserving: |A|={mag_a:.3e} <= |B|={mag_b:.3e}"
        )
    t_a, t_b = cmath.phase(model.A), cmath.phase(model.B)
    lam_x, lam_y = mag_a + mag_b, mag_a - mag_b
    return PrincipalStretch(
        lambda_x=lam_x,
        lambda_y=lam_y,
        max_direction=0.5 * (t_b - t_a),
        image_rotation=0.5 * (t_a + t_b),
        dilatation=lam_x / lam_y,
    )


def ellipse_geometry(model: LinearModel) -> EllipseGeometry:
    """Directions and factors of maximal magnification and shrinkage.

    An infinitesimal circle maps to an ellipse whose long axis lies along
    arg(mu)/2 and whose short axis is perpendicular, with the factors
    |A| + |B| and |A| - |B| of :func:`principal_stretch`.
    """
    stretch = principal_stretch(model)
    mag_dir = 0.5 * cmath.phase(model.mu())
    return EllipseGeometry(
        mag_direction=mag_dir,
        mag_factor=stretch.lambda_x,
        shrink_direction=mag_dir + math.pi / 2.0,
        shrink_factor=stretch.lambda_y,
    )


def image_angle_axis(theta: float, dilatation: float) -> float:
    """Image of an angle with one side on the maximal-stretch axis.

    A ray at angle theta in (0, pi/2) from the maximal-stretch direction
    maps to a ray at phi = arctan(tan(theta) / K); phi <= theta.

    Raises
    ------
    DomainError
    """
    if not 0.0 < theta < math.pi / 2.0:
        raise DomainError("theta must lie in (0, pi/2)")
    return image_angle_general(theta, 0.0, dilatation)


def image_angle_general(alpha: float, beta: float, dilatation: float) -> float:
    """Image of the angle between two rays on one side of the stretch axis.

    The rays make angles alpha > beta with the maximal-stretch direction,
    both within (-pi/2, pi/2) and on the same side of the axis (the
    straddling case has no closed form here and is rejected).  The image
    angle satisfies

        tan(phi) = (tan a - tan b) / (K + tan a tan b / K),

    divided through by K so that nothing overflows for K up to the largest
    double, and reduces to :func:`image_angle_axis` when beta = 0.

    Raises
    ------
    DomainError
    """
    _check_dilatation(dilatation)
    half = math.pi / 2.0
    if not (-half < beta < alpha < half):
        raise DomainError("need -pi/2 < beta < alpha < pi/2")
    if alpha * beta < 0.0:
        raise DomainError("the two rays must lie on the same side of the stretch axis")
    ta, tb = math.tan(alpha), math.tan(beta)
    return math.atan((ta - tb) / (dilatation + ta * tb / dilatation))


def extremal_bisectors(theta: float) -> tuple[float, float]:
    """Tangents of the wedge orientations extremizing the image angle.

    For a wedge of opening theta with one side at angle arctan(b) from the
    maximal-stretch axis, the image angle as a function of b has exactly two
    critical points, the roots of n b^2 - 2 b - n = 0 with n = tan(theta):

        b1 = -tan(theta/2)   (bisector on the maximal-stretch axis)
        b2 =  cot(theta/2)   (bisector on the minimal-stretch axis)

    Evaluated through the half-angle identities, which stay finite at
    theta = pi/2 where n blows up (there b1, b2 = -1, 1).

    Raises
    ------
    DomainError
    """
    if not 0.0 < theta < math.pi:
        raise DomainError("theta must lie in (0, pi)")
    t_half = math.tan(theta / 2.0)
    return -t_half, 1.0 / t_half


def max_distortion_for_angle(theta: float, dilatation: float) -> tuple[float, float]:
    """Largest distortion of an angle theta over all wedge orientations.

    With t = tan(theta/2), the wedge bisected by the maximal-stretch axis
    (b = -t) maps under (x, y) -> (x, y/K) to 2 arctan(t/K), and the one
    bisected by the minimal-stretch axis (b = 1/t) to 2 arctan(K t).  By
    the tangent subtraction formula, which does not cancel near K = 1,
    their distortions are

        2 arctan((K-1) t / (K + t^2))   and   2 arctan((K-1) t / (1 + K t^2)).

    Returns the larger (the first on a tie, so K = 1 gives (0.0, -t)) with
    its b, the tangent of the wedge's first side.  Swapping t and 1/t swaps
    the two, so delta(theta) = delta(pi - theta); the maximum over theta is
    2 arcsin((K-1)/(K+1)) = 2 arcsin|mu|, at theta = 2 arctan(sqrt(K)).

    Raises
    ------
    DomainError
    """
    b_max, b_min = extremal_bisectors(theta)
    _check_dilatation(dilatation)
    t = -b_max
    # (K-1)/K and 1/K rather than K-1 and K, whose products with t overflow
    # near the largest double
    shrink = (dilatation - 1.0) / dilatation
    delta_max = 2.0 * math.atan(t * shrink / (1.0 + t * t / dilatation))
    delta_min = 2.0 * math.atan(t * shrink / (1.0 / dilatation + t * t))
    if delta_max >= delta_min:
        return delta_max, b_max
    return delta_min, b_min


def _wedge_distortion(alphas, theta: float, dilatation: float):
    """|image - theta| of the wedges (alpha, alpha + theta) mapped by
    (x, y) -> (x, y/K), the image measured with atan2; array or scalar."""
    betas = alphas + theta
    inv_k = 1.0 / dilatation
    ux, uy = np.cos(alphas), np.sin(alphas) * inv_k
    vx, vy = np.cos(betas), np.sin(betas) * inv_k
    cross = np.abs(ux * vy - uy * vx)
    dot = ux * vx + uy * vy
    return np.abs(np.arctan2(cross, dot) - theta)


def brute_force_max_distortion(
    theta: float, dilatation: float, grid_size: int = 100_000
) -> tuple[float, float]:
    """Grid oracle for :func:`max_distortion_for_angle`.

    Sweeps the orientation of the wedge's first side over ``grid_size``
    uniformly spaced angles in (-pi/2, pi/2) and returns the largest
    distortion the wedge kernel measures with the achieving orientation.
    Doubling the grid never decreases the result by more than the grid
    resolution allows.

    Raises
    ------
    DomainError
        If ``grid_size`` is below the minimum (1000) or theta/K are out of
        range.
    """
    if not 0.0 < theta < math.pi:
        raise DomainError("theta must lie in (0, pi)")
    _check_dilatation(dilatation)
    if grid_size < MIN_GRID:
        raise DomainError(f"grid_size must be >= {MIN_GRID}")
    alphas = -math.pi / 2.0 + (np.arange(grid_size) + 0.5) * (math.pi / grid_size)
    delta = _wedge_distortion(alphas, theta, dilatation)
    i = int(np.argmax(delta))
    return float(delta[i]), float(alphas[i])


def max_half_angle_deviation(dilatation: float) -> tuple[float, float]:
    """Largest shrink of a half-angle under (x, y) -> (x, y/K).

    For a wedge bisected by the maximal-stretch axis with half-angle theta,
    the deviation theta - arctan(tan(theta)/K) is maximized at
    tan(theta) = sqrt(K), where it equals arcsin((K-1)/(K+1)).  Returns
    (deviation, maximizing half-angle).  Doubling the deviation gives the
    full-angle bound 2*arcsin(|mu|).

    Raises
    ------
    DomainError
    """
    _check_dilatation(dilatation)
    k = dilatation
    return math.asin((k - 1.0) / (k + 1.0)), math.atan(math.sqrt(k))


# ---------------------------------------------------------------------------
# verification suites (used by the CLI "theory" subcommand and the tests)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryCheck:
    """Outcome of one numerical verification."""

    name: str
    passed: bool
    observed: float
    tolerance: float
    params: dict

    def as_dict(self) -> dict:
        return asdict(self)


def tangent_ratio_suite(n_models: int = 1000, seed: int = 42) -> TheoryCheck:
    """Check tan(phi) * K = tan(theta) on random linear models.

    Builds ``n_models`` random orientation-preserving models, shoots a ray
    at a random angle theta from each maximal-stretch direction, measures
    the image angle from the image of that axis, and records the largest
    |tan(phi) * K - tan(theta)|.  A negative seed raises DomainError.
    """
    if not seed >= 0:
        raise DomainError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    mag_a = rng.uniform(0.5, 2.0, n_models)
    arg_a = rng.uniform(-math.pi, math.pi, n_models)
    ratio = rng.uniform(0.0, 0.8, n_models)
    arg_b = rng.uniform(-math.pi, math.pi, n_models)
    theta = rng.uniform(0.01, math.pi / 2.0 - 0.01, n_models)

    A = mag_a * np.exp(1j * arg_a)
    B = mag_a * ratio * np.exp(1j * arg_b)
    t_a = np.angle(A)
    t_b = np.angle(B)
    alpha = 0.5 * (t_b - t_a)
    beta = 0.5 * (t_a + t_b)
    z = np.exp(1j * (alpha + theta))
    w = A * z + B * np.conj(z)
    phi = np.abs(np.angle(w * np.exp(-1j * beta)))
    k = (np.abs(A) + np.abs(B)) / (np.abs(A) - np.abs(B))
    residual = float(np.abs(np.tan(phi) * k - np.tan(theta)).max())
    tol = 1e-8
    return TheoryCheck(
        name="tangent-ratio law (random models)",
        passed=residual <= tol,
        observed=residual,
        tolerance=tol,
        params={"n_models": n_models, "seed": seed},
    )


def extremal_bisector_suite(
    dilatations=(1.5, 2.0, 5.0),
    thetas=(math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3),
    grid_size: int = 100_000,
) -> list[TheoryCheck]:
    """Check the closed-form extremal distortion as a maximum.

    For each (K, theta), the wedge kernel of the grid oracle evaluates the
    wedge whose first side has the tangent b that
    :func:`max_distortion_for_angle` returns (param ``attained``), and the
    oracle sweeps ``grid_size`` orientations (param ``grid``).  The formula
    is a maximum when its own wedge attains it and no grid wedge exceeds
    it: ``observed = max(|formula - attained|, grid - formula)``, and the
    check passes when that is at most 1e-5.
    """
    tol = 1e-5
    checks = []
    for k in dilatations:
        for theta in thetas:
            formula, b = max_distortion_for_angle(theta, k)
            attained = float(_wedge_distortion(math.atan(b), theta, k))
            grid_val, _ = brute_force_max_distortion(theta, k, grid_size)
            # np.maximum keeps a NaN, which fails the tolerance
            observed = float(np.maximum(abs(formula - attained), grid_val - formula))
            checks.append(
                TheoryCheck(
                    name=f"extremal bisector K={k:g} theta={theta:.6g}",
                    passed=observed <= tol,
                    observed=observed,
                    tolerance=tol,
                    params={
                        "dilatation": k,
                        "theta": theta,
                        "grid_size": grid_size,
                        "formula": formula,
                        "attained": attained,
                        "grid": grid_val,
                    },
                )
            )
    return checks


def deviation_suite(
    dilatations=(1.1, 1.5, 2.0, 3.0, 10.0), samples: int = 1_000_000
) -> list[TheoryCheck]:
    """Check the maximal half-angle deviation formula as a maximum.

    For each K, evaluates theta - arctan(tan(theta)/K) at the maximizing
    half-angle that :func:`max_half_angle_deviation` returns (param
    ``attained``) and at ``samples`` half-angles spread over (0, pi/2)
    (param ``grid``, their largest).  The check passes when
    ``observed = max(|formula - attained|, grid - formula)`` is at most 1e-6.
    """
    tol = 1e-6
    checks = []
    thetas = (np.arange(samples) + 0.5) * (math.pi / 2.0) / samples
    tan_thetas = np.tan(thetas)
    for k in dilatations:
        formula, theta_star = max_half_angle_deviation(k)  # checks K before the grid divides by it
        attained = float(theta_star - np.arctan(np.tan(theta_star) / k))
        grid_max = float((thetas - np.arctan(tan_thetas / k)).max())
        observed = float(np.maximum(abs(formula - attained), grid_max - formula))
        checks.append(
            TheoryCheck(
                name=f"max half-angle deviation K={k:g}",
                passed=observed <= tol,
                observed=observed,
                tolerance=tol,
                params={
                    "dilatation": k,
                    "samples": samples,
                    "grid": grid_max,
                    "formula": formula,
                    "attained": attained,
                },
            )
        )
    return checks


def run_all_checks(seed: int = 42, grid_size: int = 100_000) -> list[TheoryCheck]:
    """The full verification battery at the given seed and grid size."""
    checks = [tangent_ratio_suite(seed=seed)]
    checks.extend(extremal_bisector_suite(grid_size=grid_size))
    checks.extend(deviation_suite(samples=max(10 * grid_size, 1_000_000)))
    return checks
