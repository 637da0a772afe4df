"""Synthetic meshes for tests, demos, and benchmarks.

All generators are deterministic for fixed arguments.  Planar point sets
are triangulated with Delaunay and every face is oriented counterclockwise.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import TriMesh, _cross_2d, _face_terms, _half_edges

try:
    from scipy.spatial import Delaunay
except ImportError as exc:
    raise ImportError("qcdistort.synth needs scipy: pip install 'qcdistort[synth]'") from exc

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def sunflower_points(n: int) -> np.ndarray:
    """n quasi-uniform points in the unit disk (sunflower spiral)."""
    i = np.arange(n)
    r = np.sqrt((i + 0.5) / n)
    a = i * GOLDEN_ANGLE
    return np.column_stack([r * np.cos(a), r * np.sin(a)])


def ring_points(n_rings: int) -> np.ndarray:
    """Concentric rings of points; the outermost ring lies exactly on the
    unit circle (6k points on ring k, staggered between rings)."""
    pts = [np.zeros((1, 2))]
    for k in range(1, n_rings + 1):
        count = 6 * k
        a = 2.0 * np.pi * (np.arange(count) + 0.5 * (k % 2)) / count
        r = k / n_rings
        pts.append(np.column_stack([r * np.cos(a), r * np.sin(a)]))
    return np.concatenate(pts, axis=0)


def triangulate(points: np.ndarray) -> np.ndarray:
    """Delaunay faces of a planar point set, oriented counterclockwise.

    Hull slivers with near-zero area (relative to the extent) are dropped.
    """
    faces = Delaunay(points).simplices.astype(np.int64)
    det = _cross_2d(*next(_face_terms(TriMesh(points, faces)))[:2])  # twice the signed area
    flip = det < 0
    faces[flip] = faces[flip][:, [0, 2, 1]]
    extent = float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
    keep = np.abs(det) > 2.0 * 1e-10 * extent**2
    return faces[keep]


def flat_disk(n_rings: int = 18) -> TriMesh:
    """Planar disk mesh with an exactly circular boundary."""
    pts = ring_points(n_rings)
    return TriMesh(pts, triangulate(pts))


def irregular_disk(n_vertices: int = 1100) -> TriMesh:
    """Planar disk-shaped mesh from a sunflower point set."""
    pts = sunflower_points(n_vertices)
    return TriMesh(pts, triangulate(pts))


def _lift(pts: np.ndarray, z: np.ndarray) -> TriMesh:
    faces = triangulate(pts)
    return TriMesh(np.column_stack([pts, z]), faces)


def wavy_disk(n_vertices: int = 1100, amplitude: float = 0.08, frequency: float = 4.0) -> TriMesh:
    """Disk with a gentle sinusoidal height field."""
    pts = sunflower_points(n_vertices)
    z = amplitude * np.sin(frequency * pts[:, 0]) * np.sin(frequency * pts[:, 1])
    return _lift(pts, z)


def hemisphere(n_rings: int = 28) -> TriMesh:
    """Unit hemisphere with the equator as its (exactly circular) boundary."""
    pts = ring_points(n_rings)
    r2 = (pts**2).sum(axis=1)
    z = np.sqrt(np.clip(1.0 - r2, 0.0, None))
    return _lift(pts, z)


def bumpy_disk(n_vertices: int = 4200, amplitude: float = 0.35, sigma: float = 0.35) -> TriMesh:
    """Disk with a central Gaussian bump."""
    pts = sunflower_points(n_vertices)
    r2 = (pts**2).sum(axis=1)
    z = amplitude * np.exp(-r2 / (2.0 * sigma * sigma))
    return _lift(pts, z)


def grid_rectangle(nx: int = 32, ny: int = 32, width: float = 1.0, height: float = 1.0) -> TriMesh:
    """Planar structured rectangle grid, 2 (nx-1) (ny-1) faces."""
    xs = np.linspace(0.0, width, nx)
    ys = np.linspace(0.0, height, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([gx.ravel(), gy.ravel()])
    faces = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            v00 = i * ny + j
            v10 = (i + 1) * ny + j
            v01 = i * ny + j + 1
            v11 = (i + 1) * ny + j + 1
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return TriMesh(verts, np.asarray(faces, dtype=np.int64))


def tetrahedron() -> TriMesh:
    """Closed tetrahedron with consistent outward orientation."""
    verts = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]], dtype=np.int64)
    return TriMesh(verts, faces)


def scaled_map_target(mesh: TriMesh, x_scale: float = 1.0, y_scale: float = 0.5) -> TriMesh:
    """Target mesh for the global map (x, y) -> (x_scale x, y_scale y)."""
    verts = mesh.vertices.copy()
    verts[:, 0] *= x_scale
    verts[:, 1] *= y_scale
    return TriMesh(verts, mesh.faces)


def perturbed_target(mesh: TriMesh, rng: np.random.Generator, scale: float = 0.25) -> TriMesh:
    """Random fold-free piecewise-linear perturbation of a planar mesh.

    Displaces every vertex by iid Gaussian offsets scaled to a fraction of
    the shortest edge; the scale is halved until no face flips orientation,
    which terminates because the identity is fold-free.
    """
    verts2 = mesh.vertices[:, :2]
    tails, heads = _half_edges(mesh.faces)
    min_edge = float(np.linalg.norm(verts2[tails] - verts2[heads], axis=1).min())
    disp = rng.standard_normal(verts2.shape)
    disp /= max(np.linalg.norm(disp, axis=1).max(), 1e-30)
    step = scale * min_edge
    for _ in range(60):
        target = TriMesh(verts2 + step * disp, mesh.faces)
        if _cross_2d(*next(_face_terms(target))[:2]).min() > 1e-12:
            return target
        step *= 0.5
    raise RuntimeError("could not build a fold-free perturbation")
