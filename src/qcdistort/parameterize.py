"""Disk parameterization by convex-combination (Tutte) embedding.

Maps a disk-topology mesh onto the unit disk: the boundary loop goes to the
unit circle with arc-length-proportional spacing, and each interior vertex
solves a sparse linear system placing it at a weighted average of its
neighbors.  Uniform weights guarantee a fold-free embedding; cotangent
weights give the discrete harmonic (near-conformal) map but may fold, which
is reported by the distortion analysis rather than treated as an error.

The system, the SPD Dirichlet block of the weighted Laplacian, is solved in
numpy alone: geometric nested dissection (George 1973) orders it, each leaf
and separator is one dense front of the multifrontal method (Duff & Reid
1983), and a NaN-safe normwise backward-error check (Rigal & Gaches 1967) is
the failure detector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beltrami import MeshMap
from .errors import SolverError, TopologyError
from .mesh import TriMesh, _face_terms, _half_edges, boundary_loops, validate_mesh

WEIGHT_CHOICES = ("uniform", "cotangent")
# max allowed normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||), infinity norms
# (Rigal & Gaches 1967): about 900 unit roundoffs, whatever the scale of the weights
SOLVER_TOLERANCE = 1e-13
# most vertices a nested-dissection leaf holds; each leaf is one dense front
LEAF_SIZE = 128


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


def _edge_weights(mesh: TriMesh, kind: str) -> np.ndarray:
    """The weight of each undirected edge of ``mesh._edges``: 1 (uniform), or
    half the cotangents of the face corners opposite it, summed and kept even
    when negative so the analyzed map is the honest harmonic one."""
    inverse, counts = mesh._edges
    if kind == "uniform":
        return np.ones(counts.size)
    (_, _, cross), *dots = _face_terms(mesh)
    c0, c1, c2 = (0.5 * (dot / cross) for dot in dots)
    half_cot = np.concatenate([c2, c0, c1])  # half-edges (f0, f1), (f1, f2), (f2, f0)
    weights = np.bincount(inverse, half_cot, counts.size)
    # bincount adds from +0.0: an edge whose every term is -0.0 sums to -0.0
    negative_zero = inverse[(half_cot == 0) & np.signbit(half_cot)]
    weights[np.bincount(negative_zero, minlength=counts.size) == counts] = -0.0
    return weights


def _dissect(points: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, bounds)``: a nested-dissection order, front t eliminating
    ``perm[bounds[t]:bounds[t + 1]]``.  Vertices are split at the median of
    their longest bounding-box axis down to leaves of at most ``LEAF_SIZE``,
    a vertex's path holding one bit per split (1: right half).  An edge
    between leaves crosses the deepest split their paths share, and its left
    end joins that split's separator (the shallowest, if several).  The
    fronts are the leaves and the separators, each after both its halves.
    """
    coords = np.ascontiguousarray(points.T)
    n = coords.shape[1]
    path, depth = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)

    def split(ids, level, prefix):
        if ids.size <= LEAF_SIZE:
            path[ids], depth[ids] = prefix, level
            return
        pts = coords.take(ids, axis=1)  # C-contiguous, unlike coords[:, ids]
        ids = ids[np.argpartition(pts[np.argmax(np.ptp(pts, axis=1))], ids.size // 2)]
        split(ids[:ids.size // 2], level + 1, 2 * prefix)
        split(ids[ids.size // 2:], level + 1, 2 * prefix + 1)

    split(np.arange(n), 0, 0)
    top = int(depth.max())
    path <<= top - depth  # every path `top` bits long
    a, b = edges[:, np.flatnonzero(path[edges[0]] != path[edges[1]])]
    bits = np.frexp((path[a] ^ path[b]).astype(np.float64))[1]  # split at level top - bits
    np.minimum.at(depth, np.where((path[a] >> (bits - 1)) & 1, b, a), top - bits)
    # postorder: a vertex's path bits down to its level, then 2s, in base 3
    key = np.zeros(n, dtype=np.int64)
    for level in range(top):
        key = 3 * key + np.where(level < depth, (path >> (top - 1 - level)) & 1, 2)
    perm = np.argsort(key, kind="stable")
    return perm, np.concatenate([[0], np.flatnonzero(np.diff(key[perm])) + 1, [n]])


def _multifrontal_solve(rows, cols, vals, rhs, points) -> np.ndarray:
    """Solve ``A x = rhs`` for the SPD matrix ``A`` with entries ``(rows,
    cols, vals)``, row i belonging to the vertex at ``points[i]``.  In
    :func:`_dissect` order, front t eliminates its vertices E: its boundary
    B is the later vertices joined to E by ``A`` or by a front handed to it,
    whose Schur complement the dense front over ``[E, B]`` adds to rows E of
    ``A``.  ``X = F_EE^-1 [F_EB | r_E]`` is kept for back-substitution and
    ``F_BB - F_BE X`` handed to the front holding B's first vertex.
    """
    n, width = rhs.shape
    perm, bounds = _dissect(points, np.stack([rows, cols])[:, rows < cols])
    position = np.argsort(perm)
    # front numbers in the smallest integer type, which numpy sorts by radix
    owner = np.repeat(np.arange(bounds.size - 1, dtype=np.min_scalar_type(bounds.size)),
                      np.diff(bounds))
    # the entries of rows E at or after E, grouped by front: one slice each
    row, col = position[rows], position[cols]
    keep = np.flatnonzero(col >= bounds[owner[row]])
    keep = keep[np.argsort(owner[row[keep]], kind="stable")]
    row, col, val, b = row[keep], col[keep], vals[keep], rhs[perm]
    start = np.searchsorted(owner[row], np.arange(bounds.size))
    slot, handed, factors = np.empty(n, dtype=np.int64), [[] for _ in bounds[1:]], []
    marked = np.zeros(n, dtype=bool)  # the current front's boundary, cleared after use
    for t, (s, e) in enumerate(zip(bounds[:-1], bounds[1:])):
        k, lo, hi = e - s, start[t], start[t + 1]
        later = np.concatenate([col[lo:hi]] + [boundary for boundary, _ in handed[t]])
        marked[later[later >= e]] = True
        boundary = np.flatnonzero(marked[e:]) + e  # ascending, each vertex once
        marked[boundary] = False
        m = k + boundary.size
        slot[s:e], slot[boundary] = np.arange(k), np.arange(k, m)  # places in the front
        front = np.zeros((m, m + width))
        i, j = row[lo:hi] - s, slot[col[lo:hi]]
        front[i, j] = front[j, i] = val[lo:hi]
        front[:k, m:] = b[s:e]
        for child, update in handed[t]:
            at = slot[child]
            to = np.concatenate([at, np.arange(m, m + width)])
            np.add.at(front.reshape(-1), (at[:, None] * (m + width) + to).ravel(), update.ravel())
        handed[t] = None
        x = np.linalg.solve(front[:k, :k], front[:k, k:])
        factors.append((boundary, x))
        if boundary.size:
            handed[owner[boundary[0]]].append((boundary, front[k:, k:] - front[k:, :k] @ x))
    solution = np.empty((n, width))
    for (boundary, x), s, e in reversed(list(zip(factors, bounds[:-1], bounds[1:]))):
        solution[s:e] = x[:, -width:] - x[:, :-width] @ solution[boundary]
    return solution[position]


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
        ``source`` is the input, ``target`` the planar embedding.  Its
        total signed area is positive: the boundary loop, walked the way
        its faces induce, goes counter-clockwise round the unit circle.

    Raises
    ------
    TopologyError
        Wrong boundary-loop count or Euler characteristic.
    SolverError
        A singular front, or a solve whose normwise backward error is above
        ``SOLVER_TOLERANCE`` (NaN included).
    """
    validate_mesh(mesh)
    loops = boundary_loops(mesh)
    if len(loops) != 1:
        raise TopologyError(f"expected exactly one boundary loop, found {len(loops)}")
    loop = loops[0]
    n = mesh.n_vertices
    euler = n - mesh._edges[1].size + mesh.n_faces
    if euler != 1:
        raise TopologyError(f"Euler characteristic is {euler}, expected 1 for a disk")

    uv = np.zeros((n, 2))
    uv[loop] = _boundary_circle_positions(mesh, loop)
    on_boundary = np.zeros(n, dtype=bool)
    on_boundary[loop] = True
    index = np.cumsum(~on_boundary) - 1  # interior vertex numbers
    interior = np.flatnonzero(~on_boundary)
    if interior.size:
        # A x = b: A holds each interior vertex's weighted degree and minus its
        # weights to interior neighbours, b its weights to boundary ones times
        # their uv; a half-edge from an interior vertex has a twin, so each
        # entry comes once.  A is SPD on a valid disk (Pinkall & Polthier 1993)
        src, dst = _half_edges(mesh.faces)
        w = _edge_weights(mesh, config.weights)[mesh._edges[0]]
        inner = np.flatnonzero(~on_boundary[src])
        src, dst, w = index[src[inner]], dst[inner], w[inner]
        fixed = on_boundary[dst]
        rhs = np.column_stack([np.bincount(src[fixed], w[fixed] * uv[dst[fixed], c],
                                           interior.size) for c in range(2)])
        rows = np.concatenate([np.arange(interior.size), src[~fixed]])
        cols = np.concatenate([np.arange(interior.size), index[dst[~fixed]]])
        vals = np.concatenate([np.bincount(src, w, interior.size), -w[~fixed]])
        try:
            solution = _multifrontal_solve(rows, cols, vals, rhs, mesh.vertices[interior])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"linear solve failed: {exc}") from None
        product = np.column_stack([np.bincount(rows, vals * solution[cols, c], interior.size)
                                   for c in range(2)])
        residual = float(np.abs(product - rhs).max())
        norm_a = np.bincount(rows, np.abs(vals), interior.size).max()
        error = residual / (norm_a * np.abs(solution).max() + np.abs(rhs).max())
        if not error <= SOLVER_TOLERANCE:
            raise SolverError(f"linear-system backward error {error:.3e} exceeds threshold "
                              f"{SOLVER_TOLERANCE:.3e} (residual {residual:.3e})")
        uv[interior] = solution
    return MeshMap(source=mesh, target=TriMesh(uv, mesh.faces))
