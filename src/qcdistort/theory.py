"""Angle transformation laws of orientation-preserving linear maps.

A linear model w = A z + B conj(z) with |A| > |B| stretches by |A| + |B|
along one direction and |A| - |B| along the perpendicular one.  This module
evaluates the closed-form consequences (how angles transform, where the
distortion of a wedge is extremal, the maximal half-angle deviation), each
paired with a deterministic brute-force grid oracle so the formulas can be
verified numerically rather than trusted.  The four closed forms take
arrays as well as scalars: a scalar call is the 0-d case of the same numpy
code and returns floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, DomainError, _sized_by
from .mesh import _cross_norm, _dot

# relative margin below which |A| and |B| are considered equal
MODEL_GUARD = 1e-12
MIN_GRID = 1000
TANGENT_RATIO_MODELS = 1000


def _float_if_0d(out):
    """``out`` as a float if it is 0-d: a scalar call of an array formula returns a float."""
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class LinearModel:
    """w = A z + B conj(z), with complex A and B or complex arrays (a model per element)."""

    A: complex
    B: complex

    def mu(self) -> complex:
        """Beltrami coefficient, f_z = A and f_zbar = B so mu = B / A (an array for arrays)."""
        scalar = np.ndim(self.A) == np.ndim(self.B) == 0  # then Python's complex quotient
        return complex(self.B) / complex(self.A) if scalar else self.B / self.A

    def apply(self, z: complex) -> complex:
        return self.A * z + self.B * z.conjugate()


@dataclass(frozen=True)
class PrincipalStretch:
    """Stretch decomposition of a linear model (floats, or arrays for an array model).

    lambda_x        maximal stretch factor, |A| + |B|
    lambda_y        minimal stretch factor, |A| - |B|
    max_direction   direction of maximal stretch in the source plane
                    (= arg(mu)/2 modulo pi), radians
    image_rotation  direction the maximal-stretch axis maps to, radians
    dilatation      lambda_x / lambda_y = (1 + |mu|) / (1 - |mu|)

    A small circle maps to an ellipse with these semi-axes and directions.
    """

    lambda_x: float
    lambda_y: float
    max_direction: float
    image_rotation: float
    dilatation: float


def _check_dilatation(dilatation) -> np.ndarray:
    """``dilatation`` as an array, if every element lies in [1, inf)."""
    k = np.asarray(dilatation, dtype=np.float64)
    if not ((1.0 <= k) & (k < math.inf)).all():  # NaN fails too; K = inf is |mu| = 1
        raise DomainError("dilatation must be >= 1 and finite")
    return k


def _check_theta(theta) -> np.ndarray:
    """``theta`` as an array, if every element lies in (0, pi)."""
    t = np.asarray(theta, dtype=np.float64)
    if not ((0.0 < t) & (t < math.pi)).all():  # NaN fails too
        raise DomainError("theta must lie in (0, pi)")
    return t


def principal_stretch(model: LinearModel) -> PrincipalStretch:
    """Principal stretch factors and directions of a linear model.

    Writing arg A = t_A and arg B = t_B, rotating the source plane by
    (t_B - t_A)/2 and the image plane by (t_A + t_B)/2 diagonalizes the
    model to (x, y) -> ((|A|+|B|) x, (|A|-|B|) y).  A model whose A and B
    are arrays gives one decomposition per element, as arrays.

    Raises
    ------
    DegenerateModelError
        If |A| <= |B| (orientation not preserved) for any element; the
        message names the first such model's |A| and |B|.
    """
    mag_a, mag_b = np.broadcast_arrays(np.abs(model.A), np.abs(model.B))
    bad = ~(mag_a - mag_b > MODEL_GUARD * (mag_a + mag_b))  # NaN fails too
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise DegenerateModelError("model is not orientation-preserving: "
                                   f"|A|={mag_a.flat[i]:.3e} <= |B|={mag_b.flat[i]:.3e}")
    t_a, t_b = np.angle(model.A), np.angle(model.B)
    lam_x, lam_y = mag_a + mag_b, mag_a - mag_b
    return PrincipalStretch(*map(_float_if_0d, (
        lam_x, lam_y, 0.5 * (t_b - t_a), 0.5 * (t_a + t_b), lam_x / lam_y)))


def extremal_bisectors(theta) -> tuple[float, float]:
    """Tangents of the wedge orientations extremizing the image angle.

    For a wedge of opening theta with one side at angle arctan(b) from the
    maximal-stretch axis, the image angle as a function of b has exactly two
    critical points, the roots of n b^2 - 2 b - n = 0 with n = tan(theta):

        b1 = -tan(theta/2)   (bisector on the maximal-stretch axis)
        b2 =  cot(theta/2)   (bisector on the minimal-stretch axis)

    Evaluated through the half-angle identities, which stay finite at
    theta = pi/2 where n blows up (there b1, b2 = -1, 1).  An array theta
    gives two arrays; a scalar, two floats.

    Raises
    ------
    DomainError
        If any theta lies outside (0, pi).
    """
    t_half = np.tan(_check_theta(theta) / 2.0)
    return _float_if_0d(-t_half), _float_if_0d(1.0 / t_half)


def max_distortion_for_angle(theta, dilatation) -> tuple[float, float]:
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
    Array theta and K broadcast and give two arrays; scalars, two floats.

    Raises
    ------
    DomainError
        If any theta lies outside (0, pi) or any K outside [1, inf).
    """
    b_max, b_min = extremal_bisectors(theta)
    k = _check_dilatation(dilatation)
    t = -b_max
    # (K-1)/K and 1/K rather than K-1 and K, whose products with t overflow
    # near the largest double
    shrink = (k - 1.0) / k
    delta_max = 2.0 * np.arctan(t * shrink / (1.0 + t * t / k))
    delta_min = 2.0 * np.arctan(t * shrink / (1.0 / k + t * t))
    first = delta_max >= delta_min
    return (_float_if_0d(np.where(first, delta_max, delta_min)),
            _float_if_0d(np.where(first, b_max, b_min)))


def _wedge_distortion(alphas, theta: float, dilatation: float):
    """|image - theta| of the wedges (alpha, alpha + theta) mapped by (x, y) -> (x, y/K),
    the image measured with the report's corner kernel; array or scalar."""
    betas = alphas + theta
    inv_k = 1.0 / dilatation
    u = [np.cos(alphas), np.sin(alphas) * inv_k]
    w = [np.cos(betas), np.sin(betas) * inv_k]
    return np.abs(np.arctan2(_cross_norm(u, w), _dot(u, w)) - theta)


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
        If ``grid_size`` is below the minimum (1000) or too large to
        allocate, or theta/K are out of range.
    """
    _check_theta(theta)
    _check_dilatation(dilatation)
    if grid_size < MIN_GRID:
        raise DomainError(f"grid_size must be >= {MIN_GRID}")
    with _sized_by(f"grid_size {grid_size}"):
        alphas = -math.pi / 2.0 + (np.arange(grid_size) + 0.5) * (math.pi / grid_size)
        delta = _wedge_distortion(alphas, theta, dilatation)
        i = int(np.argmax(delta))
    return float(delta[i]), float(alphas[i])


def max_half_angle_deviation(dilatation) -> tuple[float, float]:
    """Largest shrink of a half-angle under (x, y) -> (x, y/K).

    For a wedge bisected by the maximal-stretch axis with half-angle theta,
    the deviation theta - arctan(tan(theta)/K) is maximized at
    tan(theta) = sqrt(K), where it equals arcsin((K-1)/(K+1)), evaluated as
    arctan((K-1)/(2 sqrt(K))) since the arcsin's argument rounds next to 1
    for large K.  Returns (deviation, maximizing half-angle): floats for a
    scalar K, arrays for an array.  Doubling the deviation gives the
    full-angle bound 2*arcsin(|mu|).

    Raises
    ------
    DomainError
        If any K lies outside [1, inf).
    """
    k = _check_dilatation(dilatation)
    root = np.sqrt(k)
    return _float_if_0d(np.arctan((k - 1.0) / (2.0 * root))), _float_if_0d(np.arctan(root))


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


def tangent_ratio_suite(seed: int = 42) -> TheoryCheck:
    """Check tan(phi) * K = tan(theta) on random linear models.

    Builds ``TANGENT_RATIO_MODELS`` random orientation-preserving models, shoots
    a ray at a random angle theta from each maximal-stretch direction, measures
    the image angle from the image of that axis, and records the largest
    |tan(phi) * K - tan(theta)|.  A negative seed raises DomainError.
    """
    if not seed >= 0:
        raise DomainError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    mag_a = rng.uniform(0.5, 2.0, TANGENT_RATIO_MODELS)
    arg_a = rng.uniform(-math.pi, math.pi, TANGENT_RATIO_MODELS)
    ratio = rng.uniform(0.0, 0.8, TANGENT_RATIO_MODELS)
    arg_b = rng.uniform(-math.pi, math.pi, TANGENT_RATIO_MODELS)
    theta = rng.uniform(0.01, math.pi / 2.0 - 0.01, TANGENT_RATIO_MODELS)

    model = LinearModel(mag_a * np.exp(1j * arg_a), mag_a * ratio * np.exp(1j * arg_b))
    ps = principal_stretch(model)
    w = model.apply(np.exp(1j * (ps.max_direction + theta)))
    phi = np.abs(np.angle(w * np.exp(-1j * ps.image_rotation)))
    residual = float(np.abs(np.tan(phi) * ps.dilatation - np.tan(theta)).max())
    tol = 1e-8
    return TheoryCheck("tangent-ratio law (random models)", residual <= tol, residual, tol,
                       {"n_models": TANGENT_RATIO_MODELS, "seed": seed})


def _maximum_check(name: str, tol: float, formula, attained, grid, **params) -> TheoryCheck:
    """The check that ``formula`` is a maximum: its argmax attains it (``attained``) and no
    grid point exceeds it (``grid``), ``observed = max(|formula - attained|, grid - formula)``;
    its params are ``params`` followed by the three values."""
    formula, attained, grid = float(formula), float(attained), float(grid)
    # np.maximum keeps a NaN, which fails the tolerance
    observed = float(np.maximum(abs(formula - attained), grid - formula))
    return TheoryCheck(name=name, passed=observed <= tol, observed=observed, tolerance=tol,
                       params={**params, "formula": formula, "attained": attained, "grid": grid})


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
    pairs = [(k, theta) for k in dilatations for theta in thetas]
    ks, ths = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    formulas, bs = max_distortion_for_angle(ths, ks)
    attained = _wedge_distortion(np.arctan(bs), ths, ks)
    return [_maximum_check(f"extremal bisector K={k:g} theta={theta:.6g}", 1e-5, formula,
                           att, brute_force_max_distortion(theta, k, grid_size)[0],
                           dilatation=k, theta=theta, grid_size=grid_size)
            for (k, theta), formula, att in zip(pairs, formulas, attained)]


def deviation_suite(
    dilatations=(1.1, 1.5, 2.0, 3.0, 10.0), grid_size: int = 100_000
) -> list[TheoryCheck]:
    """Check the maximal half-angle deviation formula as a maximum.

    For each K, evaluates theta - arctan(tan(theta)/K) at the maximizing
    half-angle that :func:`max_half_angle_deviation` returns (param
    ``attained``) and at ``samples = max(10 * grid_size, 1_000_000)``
    half-angles spread over (0, pi/2) (param ``grid``, their largest).  The
    check passes when ``observed = max(|formula - attained|, grid - formula)``
    is at most 1e-6.
    """
    formulas, theta_stars = max_half_angle_deviation(dilatations)  # checks K before any division
    attained = theta_stars - np.arctan(np.tan(theta_stars) / dilatations)
    samples = max(10 * grid_size, 1_000_000)
    with _sized_by(f"grid_size {grid_size}"):
        thetas = (np.arange(samples) + 0.5) * (math.pi / 2.0) / samples
        tan_thetas = np.tan(thetas)
        return [_maximum_check(f"max half-angle deviation K={k:g}", 1e-6, formula, att,
                               (thetas - np.arctan(tan_thetas / k)).max(),
                               dilatation=k, samples=samples)
                for k, formula, att in zip(dilatations, formulas, attained)]


def run_all_checks(seed: int = 42, grid_size: int = 100_000) -> list[TheoryCheck]:
    """The full verification battery at the given seed and grid size."""
    checks = [tangent_ratio_suite(seed=seed)]
    checks.extend(extremal_bisector_suite(grid_size=grid_size))
    checks.extend(deviation_suite(grid_size=grid_size))
    return checks
