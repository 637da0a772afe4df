"""Disk parameterization by convex-combination (Tutte) embedding.

Maps a disk-topology mesh onto the unit disk: the boundary loop goes to the
unit circle with arc-length-proportional spacing, and each interior vertex
solves a sparse linear system placing it at a weighted average of its
neighbors.  Uniform weights guarantee a fold-free embedding; cotangent
weights give the discrete harmonic (near-conformal) map but may fold, which
is reported by the distortion analysis rather than treated as an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beltrami import MeshMap
from .errors import SolverError, TopologyError
from .mesh import (TriMesh, _corner, _cross_2d, _cross_norm, _dot, _face_columns, boundary_loops,
                   validate_mesh)

WEIGHT_CHOICES = ("uniform", "cotangent")
# max allowed infinity-norm residual of the linear system
SOLVER_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ParamConfig:
    """Options for :func:`tutte_disk`.

    weights  "uniform" (fold-free by construction) or "cotangent"
             (discrete harmonic; folds possible and reported)
    """

    weights: str = "uniform"

    def __post_init__(self):
        if self.weights not in WEIGHT_CHOICES:
            raise ValueError(f"weights must be one of {WEIGHT_CHOICES}")


def _weight_matrix(mesh: TriMesh, kind: str):
    """Symmetric (n, n) edge-weight matrix (scipy CSR).

    Each face corner k contributes its opposite edge (i, j) in both
    directions.  Cotangent weights are half the corner's cotangent, summed
    over the two faces of an interior edge; the raw value is kept even when
    negative so the analyzed map is the honest harmonic one.  Uniform
    weights are 1 on every edge.
    """
    from scipy import sparse

    faces = mesh.faces
    cols = _face_columns(mesh)
    rows_list, cols_list, vals_list = [], [], []
    for k in range(3):
        i = faces[:, (k + 1) % 3]
        j = faces[:, (k + 2) % 3]
        rows_list += [i, j]
        cols_list += [j, i]
        if kind == "cotangent":
            u, w = _corner(cols, k)
            half_cot = 0.5 * (_dot(u, w) / _cross_norm(u, w))
            vals_list += [half_cot, half_cot]
        else:
            vals_list += [np.ones(faces.shape[0])] * 2
    n = mesh.n_vertices
    weight = sparse.coo_matrix(
        (np.concatenate(vals_list),
         (np.concatenate(rows_list), np.concatenate(cols_list))),
        shape=(n, n),
    ).tocsr()  # sums the two entries of each interior edge
    if kind == "uniform":
        weight.data[:] = 1.0
    return weight


def _boundary_circle_positions(mesh: TriMesh, loop: list[int]) -> np.ndarray:
    """Unit-circle positions with arc-length-proportional spacing."""
    pts = mesh.vertices[np.asarray(loop, dtype=np.int64)]
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    total = seg.sum()  # positive: the boundary edges are edges of valid faces
    t = 2.0 * np.pi * np.concatenate([[0.0], np.cumsum(seg[:-1])]) / total
    return np.column_stack([np.cos(t), np.sin(t)])


def tutte_disk(mesh: TriMesh, config: ParamConfig = ParamConfig()) -> MeshMap:
    """Embed a disk-topology mesh in the unit disk.

    Parameters
    ----------
    mesh : TriMesh
        Simply-connected mesh with exactly one boundary loop (checked via
        the boundary extraction and the Euler characteristic V - E + F = 1).
    config : ParamConfig

    Returns
    -------
    MeshMap
        ``source`` is the input, ``target`` the planar embedding.  The
        embedding's global orientation is normalized (total signed area
        positive) so a reversed boundary loop cannot reflect the result.

    Raises
    ------
    TopologyError
        Wrong boundary-loop count or Euler characteristic.
    SolverError
        Linear-system residual above ``SOLVER_TOLERANCE``.
    """
    # scipy is imported here, not at module level, so that importing the
    # package for analysis alone does not pay for scipy.sparse
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    validate_mesh(mesh)
    loops = boundary_loops(mesh)
    if len(loops) != 1:
        raise TopologyError(f"expected exactly one boundary loop, found {len(loops)}")
    loop = loops[0]
    n = mesh.n_vertices
    # every edge lies on two faces except the len(loop) boundary edges, since
    # boundary_loops rejects edges on more than two faces
    n_edges = (3 * mesh.n_faces + len(loop)) // 2
    euler = n - n_edges + mesh.n_faces
    if euler != 1:
        raise TopologyError(f"Euler characteristic is {euler}, expected 1 for a disk")

    boundary_uv = _boundary_circle_positions(mesh, loop)
    uv = np.zeros((n, 2), dtype=np.float64)
    b_idx = np.asarray(loop, dtype=np.int64)
    uv[b_idx] = boundary_uv

    on_boundary = np.zeros(n, dtype=bool)
    on_boundary[b_idx] = True
    interior = np.flatnonzero(~on_boundary)
    if interior.size:
        weight = _weight_matrix(mesh, config.weights)
        lap = sparse.diags(np.asarray(weight.sum(axis=1)).ravel()) - weight
        lap = lap.tocsr()
        a_ii = lap[interior][:, interior].tocsc()
        rhs = -lap[interior][:, b_idx] @ boundary_uv
        # a_ii is the Dirichlet block of a graph Laplacian (uniform) or of the
        # P1 stiffness matrix (cotangent), so it is nonsingular on a valid
        # disk; the NaN-safe residual check is the only failure detector
        solution = spsolve(a_ii, rhs).reshape(rhs.shape)
        residual = float(np.abs(a_ii @ solution - rhs).max())
        if not residual <= SOLVER_TOLERANCE:
            raise SolverError(
                f"linear-system residual {residual:.3e} exceeds tolerance {SOLVER_TOLERANCE:.3e}"
            )
        uv[interior] = solution

    # normalize global orientation: a boundary loop walked the "wrong" way
    # would reflect the whole embedding
    if _cross_2d(*_corner(uv.T[:, mesh.faces], 0)).sum() < 0:
        uv[:, 1] = -uv[:, 1]

    return MeshMap(source=mesh, target=TriMesh(uv, mesh.faces))
