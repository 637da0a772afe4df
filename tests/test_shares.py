"""The per-face CSV and the PLY written in shares keep every byte.

``mesh._write_text`` splits the rows of a text export into one contiguous
share per usable CPU; this process formats the first share and worker
processes (``python -S -I _rowtext.py``) the others.  Small shares are
forced here by patching the CPU count and the minimum share size.  The
bytes must equal the per-row references and the one-share output for 1, 2
and 3 shares, with folded rows on both sides of every share edge, and when
a worker cannot start, exits non-zero or returns too few rows.  No worker
may outlive a write, whether it ends normally or by an exception.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import qcdistort.mesh
from qcdistort import (
    MeshMap,
    TriMesh,
    export_colored_mesh,
    export_report,
    save_mesh,
    summarize,
    synth,
)
from qcdistort._rowtext import CSV
from test_mesh import reference_mesh_text
from test_report import reference_csv

N_FACES = 12
# faces on both sides of the share edges at 6 (2 shares) and 4 and 8 (3 shares)
FOLDED = [3, 4, 5, 6, 7, 8]


def fold_soup(dim):
    """A map of ``N_FACES`` faces, no two sharing a vertex, from a ``dim``-D
    source to a planar target whose ``FOLDED`` faces reverse orientation."""
    rng = np.random.default_rng(dim)
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.3], [0.3, 1.0, -0.2]])[:, :dim]
    offsets = np.zeros((N_FACES, 1, dim))
    offsets[:, 0, 0] = 2.0 * np.arange(N_FACES)
    src = (corners + offsets + 0.1 * rng.standard_normal((N_FACES, 3, dim))).reshape(-1, dim)
    dst = src[:, :2] + 0.05 * rng.standard_normal((3 * N_FACES, 2))
    faces = np.arange(3 * N_FACES).reshape(-1, 3)
    dst[faces[FOLDED]] = dst[faces[FOLDED][:, [0, 2, 1]]]  # corners 1 and 2 swapped
    return MeshMap(TriMesh(src, faces), TriMesh(dst, faces))


def surface_map():
    """A 3D source and a 3D target; a 3D target face is brought to a
    canonical pose, so it never folds."""
    source = synth.wavy_disk(30)
    target = source.vertices * [1.0, 0.7, 1.3]
    return MeshMap(source, TriMesh(target, source.faces))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def shares(monkeypatch):
    """``shares(n)`` makes the writers split every export into ``n`` shares
    of at least one row; each call returns the list of worker results, None
    for a share formatted here."""
    results = []
    real = qcdistort.mesh._worker_text

    def spy(proc, n_rows):
        text = real(proc, n_rows)
        results.append(text)
        return text

    def use(n_shares):
        monkeypatch.setattr(qcdistort.mesh, "_usable_cpus", lambda: n_shares)
        monkeypatch.setattr(qcdistort.mesh, "_SHARE_MIN_ROWS", 1)
        monkeypatch.setattr(qcdistort.mesh, "_worker_text", spy)
        results.clear()
        return results

    return use


def csv_section(report):
    """The per-face CSV rows of ``report`` as ``_write_text`` takes them."""
    bf, ang = report.beltrami, report.angular
    columns = (np.arange(report.face_count), bf.abs_mu, bf.dilatation, bf.eps_mu,
               ang.face_avg, *ang.corner.T, bf.folded)
    return [(CSV, columns, report.face_count)]


def ply_bytes(mapping, report, path):
    export_colored_mesh(mapping, "abs_mu", path, beltrami=report.beltrami,
                        angular=report.angular)
    return path.read_bytes()


@pytest.mark.parametrize("n_shares", [1, 2, 3])
@pytest.mark.parametrize("dim", [2, 3])
def test_csv_keeps_every_byte_in_shares(tmp_path, shares, n_shares, dim):
    report = summarize(fold_soup(dim))
    assert np.flatnonzero(report.beltrami.folded).tolist() == FOLDED
    workers = shares(n_shares)
    export_report(report, tmp_path / "f.csv", "csv")
    assert (tmp_path / "f.csv").read_bytes() == reference_csv(report)
    assert len(workers) == n_shares - 1 and None not in workers
    assert_no_child_left()


@pytest.mark.parametrize("n_shares", [2, 3])
@pytest.mark.parametrize("kind", ["2d-target", "3d-target"])
def test_ply_keeps_every_byte_in_shares(tmp_path, shares, n_shares, kind):
    mapping = fold_soup(3) if kind == "2d-target" else surface_map()
    report = summarize(mapping)
    assert report.folded_count == (len(FOLDED) if kind == "2d-target" else 0)
    shares(1)
    one = ply_bytes(mapping, report, tmp_path / "one.ply")
    save_mesh(mapping.target, tmp_path / "one_plain.ply")
    workers = shares(n_shares)
    assert ply_bytes(mapping, report, tmp_path / "c.ply") == one
    save_mesh(mapping.target, tmp_path / "plain.ply")
    assert (tmp_path / "plain.ply").read_bytes() == (tmp_path / "one_plain.ply").read_bytes()
    assert len(workers) == 2 * (n_shares - 1) and None not in workers
    assert (tmp_path / "plain.ply").read_bytes() == reference_mesh_text(
        mapping.target.vertices, mapping.faces, "ply").encode("ascii")
    assert_no_child_left()


def fake_worker(code):
    """``subprocess.Popen`` running ``code`` in place of the worker script,
    with the script's functions in ``rowtext``."""
    real = subprocess.Popen
    script = qcdistort.mesh._rowtext.__file__
    prelude = (f"import io, sys\nrowtext = {{'__name__': 'rowtext'}}\n"
               f"exec(compile(open({script!r}).read(), {script!r}, 'exec'), rowtext)\n")

    def popen(argv, **kwargs):
        return real([sys.executable, "-S", "-I", "-c", prelude + code], **kwargs)

    return popen


def failing_popen(argv, **kwargs):
    raise OSError("cannot start")


FAULTS = {
    "popen-raises": failing_popen,
    "exits-1-after-its-rows": fake_worker(
        "rowtext['_serve'](sys.stdin.buffer, sys.stdout.buffer)\nsys.exit(1)"),
    "one-row-short": fake_worker(
        "out = io.BytesIO()\nrowtext['_serve'](sys.stdin.buffer, out)\n"
        "sys.stdout.buffer.write(out.getvalue().rsplit(b'\\n', 2)[0] + b'\\n')"),
    "exits-without-reading": fake_worker("sys.exit(0)"),
}


@pytest.mark.parametrize("fault", [*FAULTS, "no-executable"])
def test_a_failed_worker_costs_no_bytes(tmp_path, monkeypatch, shares, fault):
    mapping = fold_soup(2)
    report = summarize(mapping)
    shares(1)
    one = ply_bytes(mapping, report, tmp_path / "one.ply")
    if fault == "no-executable":
        monkeypatch.setattr(sys, "executable", "")
    else:
        monkeypatch.setattr(subprocess, "Popen", FAULTS[fault])
    workers = shares(3)
    export_report(report, tmp_path / "f.csv", "csv")
    assert (tmp_path / "f.csv").read_bytes() == reference_csv(report)
    assert ply_bytes(mapping, report, tmp_path / "c.ply") == one
    assert workers == [None] * 4
    assert_no_child_left()


class FailingFile:
    """A text file whose writes raise ``error`` once ``fail_at`` calls came."""

    def __init__(self, error, fail_at):
        self.error, self.calls = error, 0
        self.fail_at = fail_at

    def write(self, text):
        self.calls += 1
        if self.calls >= self.fail_at:
            raise self.error


@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                         ids=["oserror", "interrupt"])
@pytest.mark.parametrize("fail_at", [1, 2])
def test_workers_are_reaped_when_the_write_fails(shares, error, fail_at):
    """A write that fails on the first share (1) or on a worker's (2) raises,
    and every worker is stopped and reaped first."""
    report = summarize(fold_soup(2))
    shares(3)
    with pytest.raises(type(error)):
        qcdistort.mesh._write_text(FailingFile(error, fail_at), csv_section(report))
    assert_no_child_left()


def test_a_running_worker_is_killed_when_the_write_fails(monkeypatch, shares):
    """A worker that would run for a minute does not hold up a failed write."""
    report = summarize(fold_soup(2))
    monkeypatch.setattr(subprocess, "Popen", fake_worker("import time\ntime.sleep(60)"))
    shares(2)
    start = time.perf_counter()
    with pytest.raises(OSError):
        qcdistort.mesh._write_text(FailingFile(OSError("disk full"), 1), csv_section(report))
    assert time.perf_counter() - start < 20
    assert_no_child_left()
