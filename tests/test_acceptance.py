"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); the
assertions carry the stated tolerances.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qcdistort import (
    MeshMap,
    ParamConfig,
    TriMesh,
    boundary_loops,
    corner_distortion,
    face_beltrami,
    summarize,
    tutte_disk,
)
from qcdistort.cli import main
from qcdistort.mesh import save_mesh
from qcdistort.synth import (
    bumpy_disk,
    flat_disk,
    grid_rectangle,
    hemisphere,
    perturbed_target,
    scaled_map_target,
    sunflower_points,
    triangulate,
)
from qcdistort.theory import (
    brute_force_max_distortion,
    max_distortion_for_angle,
    max_half_angle_deviation,
    tangent_ratio_suite,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num:2d} ({name}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {num:2d} ({name}): PASS")


@pytest.fixture(scope="module")
def big_mesh_path(tmp_path_factory):
    pts = sunflower_points(25_600)
    mesh = TriMesh(pts, triangulate(pts))
    assert mesh.n_faces > 45_000
    path = tmp_path_factory.mktemp("big") / "big.obj"
    save_mesh(mesh, path)
    return path, mesh.n_faces


def test_criterion_1_identity_map_zero(big_mesh_path, tmp_path):
    with criterion(1, "identity-map zero"):
        for mesh in (flat_disk(10), hemisphere(10), bumpy_disk(800)):
            rep = summarize(MeshMap(mesh, mesh))
            assert rep.stats["abs_mu"].max < 1e-12
            assert rep.stats["eps_angle_t"].max < 1e-9
            assert rep.folded_count == 0
        path, n_faces = big_mesh_path
        out = tmp_path / "big_report.json"
        start = time.perf_counter()
        code = main(["--quiet", "analyze", str(path), str(path), "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 0
        data = json.loads(out.read_text())
        assert data["face_count"] == n_faces
        assert data["stats"]["abs_mu"]["max"] < 1e-12
        assert data["stats"]["eps_angle_t"]["max"] < 1e-9
        assert elapsed < 5.0, f"50k-face analyze took {elapsed:.2f}s"


def test_criterion_2_constant_affine_golden_case():
    with criterion(2, "constant-affine golden case"):
        bound = 2 * math.asin(1 / 3)
        for mesh in (grid_rectangle(25, 25), flat_disk(12)):
            mapping = MeshMap(mesh, scaled_map_target(mesh, 1.0, 0.5))
            field = face_beltrami(mapping)
            assert np.abs(field.abs_mu - 1 / 3).max() <= 1e-10
            assert np.abs(field.eps_mu - 0.679674).max() <= 1e-6
            ang = corner_distortion(mapping)
            assert ang.corner.max() <= bound + 1e-9


def test_criterion_3_tangent_ratio_random_suite():
    with criterion(3, "random-model tangent-ratio law"):
        start = time.perf_counter()
        check = tangent_ratio_suite(seed=42)
        elapsed = time.perf_counter() - start
        assert check.passed and check.observed <= 1e-8
        assert elapsed < 1.0, f"suite took {elapsed:.2f}s"


def test_criterion_4_extremal_oracle_agreement():
    with criterion(4, "extremal-bisector oracle agreement"):
        grid = 100_000
        for k in (1.5, 2.0, 5.0):
            for theta in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3):
                formula, _ = max_distortion_for_angle(theta, k)
                swept, alpha = brute_force_max_distortion(theta, k, grid)
                assert abs(formula - swept) <= 1e-5, (k, theta)
                bisector = (alpha + theta / 2) % (math.pi / 2)
                axis_distance = min(bisector, math.pi / 2 - bisector)
                assert axis_distance <= 2 * math.pi / grid, (k, theta)


def test_criterion_5_max_deviation_formula():
    with criterion(5, "max half-angle deviation formula"):
        samples = 1_000_000
        thetas = (np.arange(samples) + 0.5) * (math.pi / 2) / samples
        tans = np.tan(thetas)
        for k in (1.1, 1.5, 2.0, 3.0, 10.0):
            grid_max = float((thetas - np.arctan(tans / k)).max())
            formula = math.asin((k - 1) / (k + 1))
            assert abs(grid_max - formula) <= 1e-6, k
            delta, _ = max_half_angle_deviation(k)
            assert abs(2 * delta - 2.0 * np.arcsin((k - 1) / (k + 1))) <= 1e-12, k


def test_criterion_6_discrete_bound_sweep():
    with criterion(6, "discrete per-face bound sweep"):
        mesh = grid_rectangle(33, 33)  # 2048 faces
        assert mesh.n_faces == 2048
        rng = np.random.default_rng(2024)
        for trial in range(100):
            mapping = MeshMap(mesh, perturbed_target(mesh, rng))
            field = face_beltrami(mapping)
            assert field.folded_count == 0, trial
            ang = corner_distortion(mapping)
            over = ang.corner > (field.eps_mu + 1e-9)[:, None]
            assert not over.any(), trial


@pytest.fixture(scope="module")
def tutte_rows():
    rows = {}
    for name, mesh in (
        ("flat_disk", flat_disk(19)),
        ("hemisphere", hemisphere(28)),
        ("bumpy_disk", bumpy_disk(4200)),
    ):
        assert 2000 <= mesh.n_faces <= 20000, (name, mesh.n_faces)
        for weights in ("uniform", "cotangent"):
            mapping = tutte_disk(mesh, ParamConfig(weights=weights))
            rows[(name, weights)] = summarize(mapping)
    return rows


def test_criterion_7_table_shape_ordering(tutte_rows):
    with criterion(7, "table-shape ordering"):
        small_mu_rows = 0
        for key, rep in tutte_rows.items():
            stats = rep.stats
            assert stats["eps_angle_t"].max <= stats["eps_mu_t"].max + 1e-9, key
            assert stats["eps_angle_t"].mean <= stats["eps_mu_t"].mean + 1e-9, key
            mu_mean, mu_max = stats["abs_mu"].mean, stats["abs_mu"].max
            if mu_max <= 0.1:
                small_mu_rows += 1
                assert 2 * mu_mean <= stats["eps_mu_t"].mean, key
                assert stats["eps_mu_t"].mean <= 2 * mu_mean * (1 + mu_max**2), key
        assert small_mu_rows >= 1  # the linearization branch is exercised


def test_criterion_8_composition_invariance(tutte_rows):
    with criterion(8, "conformal-composition invariance"):
        rep = tutte_rows[("hemisphere", "cotangent")]
        base_abs_mu = rep.beltrami.abs_mu
        base_corner = rep.angular.corner
        # rebuild the mapping the report came from (tutte_disk is deterministic)
        mapping = tutte_disk(hemisphere(28), ParamConfig(weights="cotangent"))
        assert np.array_equal(face_beltrami(mapping).abs_mu, base_abs_mu)
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = rng.uniform(0.5, 2.0)
            phi = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-5.0, 5.0, size=2)
            rot = s * np.array(
                [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
            )
            moved = TriMesh(mapping.target.vertices @ rot.T + t, mapping.faces)
            composed = MeshMap(mapping.source, moved)
            field = face_beltrami(composed)
            assert np.abs(field.abs_mu - base_abs_mu).max() <= 1e-10
            ang = corner_distortion(composed)
            assert np.abs(ang.corner - base_corner).max() <= 1e-9


def test_criterion_9_tutte_soundness(tutte_rows):
    with criterion(9, "Tutte embedding soundness"):
        for (name, weights), rep in tutte_rows.items():
            if weights == "uniform":
                assert rep.folded_count == 0, name
        mesh = hemisphere(28)
        mapping = tutte_disk(mesh, ParamConfig(weights="uniform"))
        field = face_beltrami(mapping)
        assert field.folded_count == 0
        # independent residual check of the uniform-weight system
        uv = mapping.target.vertices
        boundary = set(boundary_loops(mesh)[0])
        neighbors = {}
        for f in mesh.faces:
            for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                neighbors.setdefault(int(a), set()).add(int(b))
                neighbors.setdefault(int(b), set()).add(int(a))
        worst = 0.0
        for v, nbrs in neighbors.items():
            if v in boundary:
                continue
            resid = len(nbrs) * uv[v] - sum(uv[list(nbrs)])
            worst = max(worst, float(np.abs(resid).max()))
        assert worst <= 1e-10
        uniform_mean = tutte_rows[("hemisphere", "uniform")].stats["abs_mu"].mean
        cot_mean = tutte_rows[("hemisphere", "cotangent")].stats["abs_mu"].mean
        assert cot_mean < uniform_mean


def test_criterion_10_determinism_across_runs(tmp_path):
    with criterion(10, "byte-identical reports across runs"):
        mesh = hemisphere(14)
        src = tmp_path / "src.obj"
        save_mesh(mesh, src)
        flat = tutte_disk(mesh, ParamConfig(weights="cotangent"))
        dst = tmp_path / "dst.obj"
        save_mesh(flat.target, dst)
        texts = []
        for i in range(2):
            out = tmp_path / f"rep{i}.json"
            code = main(["--quiet", "analyze", str(src), str(dst), "--out", str(out)])
            assert code == 0
            lines = [
                ln for ln in out.read_text().splitlines()
                if '"timestamp"' not in ln
            ]
            texts.append("\n".join(lines))
        assert texts[0] == texts[1]
        assert len(texts[0]) > 100
