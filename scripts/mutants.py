#!/usr/bin/env python3
"""Run tier-1 against a fixed list of semantic mutants of the package.

Each mutant replaces one piece of text in one file with a wrong version of
the same formula, constant or rule.  For each, the script copies ``src``,
``tests``, ``perfbench``, ``pyproject.toml`` and ``README.md`` (whose
library examples tier-1 runs) into a temporary directory, applies the
mutant there, and runs

    PYTHONPATH=src python -m pytest -q -x --continue-on-collection-errors

without ``tests/test_mutants.py``, which checks the list itself against
the unmutated files.  It prints ``killed`` and the first failing test, or
``survived``, per mutant, and exits 1 if any mutant survived (or its text
is not found exactly once).  It first runs the same command on an
unmutated copy, and exits 2 if that fails, since a kill would then mean
nothing.  The working tree is never modified.

    python scripts/mutants.py              # every mutant, about 3 s to 45 s each
    python scripts/mutants.py --list       # the names only
    python scripts/mutants.py conj-mu k-abs-mu-form
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")

BELTRAMI = "src/qcdistort/beltrami.py"
MESH = "src/qcdistort/mesh.py"

# (name, file, old text, new text): each old text occurs exactly once in its file
MUTANTS = [
    ("conj-mu", BELTRAMI,
     "        mu = fzb / fz\n",
     "        mu = np.conj(fzb / fz)\n"),
    ("bound-check-face-average", "src/qcdistort/report.py",
     "np.count_nonzero(np.maximum.reduce(ang.corner[rows].T) > bf.eps_mu[rows] + BOUND_TOL)",
     "np.count_nonzero(ang.face_avg[rows] > bf.eps_mu[rows] + BOUND_TOL)"),
    ("pose-negated-y2", MESH,
     "return l1, 0.0, x2, np.sqrt(_dot(perp, perp))",
     "return l1, 0.0, x2, -np.sqrt(_dot(perp, perp))"),
    # the source's kept angles read one block behind (wrapping round from the last block)
    ("source-angles-previous-block", BELTRAMI,
     "signed[:, rows] -= angles[:, rows]",
     "signed[:, rows] -= np.roll(angles, rows.stop - rows.start, axis=1)[:, rows]"),
    ("signed-corner-negated", BELTRAMI,
     "AngularDistortionField(corner.T, signed.T,",
     "AngularDistortionField(corner.T, -signed.T,"),
    ("area-eps-factor-1e-9", MESH,
     "AREA_EPS_FACTOR = 1e-12",
     "AREA_EPS_FACTOR = 1e-9"),
    ("tutte-uniform-boundary-spacing", "src/qcdistort/parameterize.py",
     "t = 2.0 * np.pi * np.concatenate([[0.0], np.cumsum(seg[:-1])]) / total",
     "t = 2.0 * np.pi * np.arange(seg.size) / seg.size"),
    # the first round's ends with no room for the error of the residuals' float sum
    ("exact-sum-no-slack", "src/qcdistort/report.py",
     "slack += math.ceil(terms.size ** 2 * 2 ** (top - 105 + 1074))",
     "slack += 0"),
    ("exact-sum-drops-residual", "src/qcdistort/report.py",
     "for part in q.sum(), res.sum():",
     "for part in (q.sum(),):"),
    # the first round's total returned even where its slack leaves the rounding open
    ("exact-sum-no-fallback", "src/qcdistort/report.py",
     "if abs(total) + slack < unit << 1023 and (total - slack) / unit == (total + slack) / unit:",
     "if True:"),
    ("mean-by-np-sum", "src/qcdistort/report.py",
     "mean = _exact_sum(values, folded=folded) / n",
     "mean = float(sum(np.sum(block) for _, block in _terms(values, folded))) / n"),
    ("bound-tol-1e-3", "src/qcdistort/report.py",
     "BOUND_TOL = 1e-9",
     "BOUND_TOL = 1e-3"),
    # the |mu| forms the Jacobian forms replaced; `+ 0.0 * det` keeps a folded face's NaN
    ("eps-mu-arcsin-form", BELTRAMI,
     "2.0 * np.arctan2(abs_fzb, np.sqrt(det))",
     "2.0 * np.arcsin(np.abs(mu)) + 0.0 * det"),
    ("k-abs-mu-form", BELTRAMI,
     "1.0 + 2.0 * abs_fzb * (abs_fz + abs_fzb) / det",
     "(1.0 + np.abs(mu)) / (1.0 - np.abs(mu)) + 0.0 * det"),
    ("k-squared-form", BELTRAMI,
     "1.0 + 2.0 * abs_fzb * (abs_fz + abs_fzb) / det",
     "(abs_fz + abs_fzb) ** 2 / det"),
    ("eps-mu-without-sqrt", BELTRAMI,
     "np.arctan2(abs_fzb, np.sqrt(det))",
     "np.arctan2(abs_fzb, det)"),
    ("solver-threshold-times-1e6", "src/qcdistort/parameterize.py",
     "SOLVER_TOLERANCE = 1e-13",
     "SOLVER_TOLERANCE = 1e-7"),
    # a zero or NaN determinant left unfolded
    ("fold-rule-strict", BELTRAMI,
     "    folded = ~(det > 0) | collapsed\n",
     "    folded = (det < 0) | collapsed\n"),
    # a collapsed target face folded only where rounding leaves ad - bc <= 0
    ("collapsed-target-unfolded", BELTRAMI,
     "    folded = ~(det > 0) | collapsed\n",
     "    folded = ~(det > 0)\n"),
    # planar faces brought to the canonical pose too, which loses their orientation
    ("planar-frame-posed", MESH,
     "yield (*u, *w) if mesh.dimension == 2 else _pose(u, w, dots[0])",
     "yield _pose(u, w, dots[0])"),
    # reading a file validates it again, so a map's collapsed target is refused
    ("load-mesh-validates", MESH,
     "    return _path_first(path, TriMesh, verts, faces)\n",
     "    mesh = _path_first(path, TriMesh, verts, faces)\n"
     "    _path_first(path, validate_mesh, mesh)\n    return mesh\n"),
    # a validation message without the file's path in front (a CLI source's, a loaded mesh's)
    ("source-path-dropped", MESH,
     'exc.args = (f"{path}: {exc}",)',
     "exc.args = (str(exc),)"),
    # a degenerate source face named by its index within its block of faces
    ("degenerate-face-index-in-block", MESH,
     "f = rows.start + i",
     "f = i"),
]

_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def mutated_text(file: str, old: str, new: str, root: Path = ROOT) -> str:
    """The text of ``root / file`` with its one occurrence of ``old`` replaced by ``new``."""
    text = (root / file).read_text()
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{file}: the mutated text occurs {count} times, not once: {old!r}")
    return text.replace(old, new)


def run_mutant(file: str, old: str, new: str) -> str | None:
    """The first failing test of tier-1 on a copy with ``old`` replaced by ``new`` in
    ``file``, or None when tier-1 passes."""
    with tempfile.TemporaryDirectory(prefix="qcdistort-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, work / name)
        (work / file).write_text(mutated_text(file, old, new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", "-rfE", "--ignore=tests/test_mutants.py"],
            cwd=work, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    match = _FIRST_FAILURE.search(done.stdout)
    return match.group(1) if match else f"pytest exit {done.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    known = [name for name, *_ in MUTANTS]
    if args.list:
        print("\n".join(known))
        return 0
    unknown = sorted(set(args.names) - set(known))
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    _, file, old, _ = MUTANTS[0]
    baseline = run_mutant(file, old, old)  # the unmutated copy
    if baseline is not None:
        print(f"unmutated copy fails tier-1 at {baseline}", file=sys.stderr)
        return 2
    survived = 0
    for name, file, old, new in MUTANTS:
        if args.names and name not in args.names:
            continue
        try:
            failure = run_mutant(file, old, new)
        except ValueError as exc:
            print(f"{name}: not applied ({exc})", flush=True)
            survived += 1
            continue
        survived += failure is None
        print(f"{name}: " + ("survived" if failure is None else f"killed by {failure}"),
              flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
