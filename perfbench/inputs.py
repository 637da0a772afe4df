"""Seeded workload inputs, built with ``qcdistort.synth``.

The seed moves coordinates only: the vertex sets and the connectivity of
every input are fixed per workload, so face counts, and with them
``faces_per_s``, stay comparable across seeds.
"""

from __future__ import annotations

import numpy as np

from qcdistort import ParamConfig, TriMesh, synth, tutte_disk

# 25k vertices give 49,909 faces per map.  The CLI ops stay near 2 s, so a
# run holds enough ops for a steady median on a noisy 2-core host.
N_VERTICES = 25_000
# z-jitter of the bumpy surfaces, about 2% of the vertex spacing
Z_JITTER = 2e-4
# interior vertices (sunflower order, far apart) pushed past a neighbour;
# each push folds the two faces on that edge, about 50 folds in all
FOLD_VERTICES = np.arange(500, 20_000, 780)


def bumpy_surface(rng: np.random.Generator) -> TriMesh:
    """``bumpy_disk`` with a seeded small z-jitter."""
    base = synth.bumpy_disk(N_VERTICES)
    verts = base.vertices.copy()
    verts[:, 2] += Z_JITTER * rng.standard_normal(len(verts))
    return TriMesh(verts, base.faces)


def analyze_export_pair(seed: int) -> tuple[TriMesh, TriMesh]:
    """``irregular_disk`` and its seeded ``perturbed_target``."""
    src = synth.irregular_disk(N_VERTICES)
    return src, synth.perturbed_target(src, np.random.default_rng(seed))


def param_flatten_surface(seed: int) -> TriMesh:
    return bumpy_surface(np.random.default_rng(seed))


def _fold(src: TriMesh, dst: TriMesh, rng: np.random.Generator) -> TriMesh:
    """Push each of FOLD_VERTICES past its lowest-numbered neighbour."""
    xy = dst.vertices.copy()
    faces = src.faces
    for v in FOLD_VERTICES:
        ring = np.unique(faces[(faces == v).any(axis=1)])
        u = ring[ring != v].min()
        xy[v] = xy[u] + (0.3 + 0.4 * rng.random()) * (xy[u] - xy[v])
    return TriMesh(xy, faces)


def analyze_lib_maps(seed: int) -> list[tuple[str, TriMesh, TriMesh]]:
    """The in-memory map set, as (name, source, target) triples."""
    rng = np.random.default_rng(seed)
    disk = synth.irregular_disk(N_VERTICES)
    perturbed = synth.perturbed_target(disk, rng)
    bumpy = bumpy_surface(rng)
    uniform = tutte_disk(bumpy, ParamConfig(weights="uniform"))
    cotangent = tutte_disk(bumpy, ParamConfig(weights="cotangent"))
    # wavy_disk and bumpy_disk triangulate the same sunflower points
    wavy = synth.wavy_disk(N_VERTICES)
    folded = _fold(disk, synth.perturbed_target(disk, rng), rng)
    return [
        ("perturbed_2d", disk, perturbed),
        ("tutte_uniform", bumpy, uniform.target),
        ("tutte_cotangent", bumpy, cotangent.target),
        ("wavy_to_bumpy_3d", wavy, bumpy),
        ("folded_2d", disk, folded),
    ]
