#!/usr/bin/env python3
"""One SHA-256 per output of the package on the seeded benchmark inputs.

The inputs are those of ``perfbench/inputs.py`` for the given seed.  The
outputs digested are:

* ``analyze`` JSON report, per-face CSV and colored PLY of the
  ``analyze_export`` pair (OBJ source, OFF target), colored by each of
  ``abs_mu``, ``eps_angle_t`` and ``eps_mu_t``, with the pair read in four
  layouts: as ``save_mesh`` writes it (``analyze/``), as common exporters
  write it (``analyze-exporter/``), with indented OBJ lines and a
  lower-case ``off`` header (``analyze-indented/``), and with the OBJ
  tokens separated in turn by tab, vertical tab, form feed and ``\\x1c``
  and the OFF face indices written with a leading ``+``
  (``analyze-separators/``);
* ``analyze --bins 7`` report of that pair (``bins7/``), and the report,
  CSV and PLY of its source against the target mirrored in y
  (``mirrored/``), where every face is folded and the stats and histograms
  are null, and the report and CSV of that source against itself moved by
  a seeded relative jitter of 1e-9 (``near-identity/``), whose ``|mu|`` and
  distortions sit many binades below those of the other maps, and the exit
  code with the report and CSV of that source against the target with face
  0's third vertex moved to the midpoint of the opposite edge
  (``collapsed/``; a file the run did not write digests as its exit code
  alone, so trees that reject the map and trees that fold the face compare);
* ``param --analyze`` flat OBJ and report of the ``param_flatten`` surface,
  with uniform and with cotangent weights;
* ``report_json`` of each of the five ``analyze_lib`` maps;
* ``theory --json --grid 2000`` exit code and stdout: the default battery
  and the single cases ``--k 2``, ``--k 2 --theta 1.0472``, ``--k 3 --theta
  1.5707963267947966`` (the double just below pi/2), ``--k 1.0000000001
  --theta 1`` and ``--k 1e308 --theta 1`` (orientation sweeps flat to double
  precision), ``--k 1e12`` (where the arcsin form of the maximal deviation
  is 63,000 ulp off) and ``--k 1e16`` (where (K-1)/(K+1) rounds to 1).  A
  theory case may exit non-zero; its digest covers ``exit <code>`` and the
  stdout;
* ``theory --json`` exit code and stdout at the CLI's default grid of
  100,000 orientations (``theory/default-grid100000.json``).

Before hashing, ``meta.timestamp`` is blanked and the temporary directory
the CLI runs write into is replaced by a fixed name, so two runs of the same
code print the same lines.  ``--root`` takes the package and the inputs from
another checkout, which makes a comparison with an earlier commit two runs:

    python scripts/output_digest.py --seed 201 --root ../parent > parent.txt
    python scripts/output_digest.py --seed 201 --against parent.txt

With ``--against`` the digests are compared with those saved in the file;
every differing, missing or extra output is named and the exit code is 1.
The four layouts hold the same meshes, so their outputs must be identical
too: one that is not is named and the exit code is 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
_WORK = b"<work>"


def _exporter_layout(text: str, fmt: str) -> str:
    """``save_mesh`` text as common exporters write it: OBJ with comments,
    ``mtllib``/``o``/``usemtl``/``s`` directives, ``vt`` and ``vn`` lines and
    ``v/vt/vn`` face tokens; OFF with comment lines."""
    lines = text.splitlines()
    if fmt == "off":
        lines = ["# exported mesh", lines[0], "# counts"] + lines[1:] + ["# end"]
    else:
        verts = [line for line in lines if line.startswith("v ")]
        faces = ["f " + " ".join(f"{t}/{t}/1" for t in line.split()[1:])
                 for line in lines if line.startswith("f ")]
        lines = (["# exported mesh", "mtllib m.mtl", "o Surface"] + verts
                 + [f"vt {k % 3} {k % 2}" for k in range(len(verts))]
                 + ["vn 0 0 1", "usemtl Material", "s off"] + faces)
    return "\n".join(lines) + "\n"


def _indented_layout(text: str, fmt: str) -> str:
    """``save_mesh`` text with every OBJ line indented, or a lower-case OFF header."""
    if fmt == "off":
        return "off" + text[3:]
    return "".join(" " + line for line in text.splitlines(keepends=True))


def _separators_layout(text: str, fmt: str) -> str:
    """``save_mesh`` text with the OBJ tokens separated in turn by tab, vertical tab,
    form feed and ``\\x1c`` (whitespace to ``str.split``), or the OFF face indices
    written with a leading ``+``."""
    if fmt == "off":
        return re.sub(r"^3 (\d+) (\d+) (\d+)$", r"3 +\1 +\2 +\3", text, flags=re.M)
    separators = iter("\t\x0b\x0c\x1c" * text.count(" "))
    return re.sub(" ", lambda _: next(separators), text)


# the input layouts of the analyze_export pair: the directory each is read
# from, and how it is made from save_mesh output
LAYOUTS = [("analyze", None), ("analyze-exporter", _exporter_layout),
           ("analyze-indented", _indented_layout), ("analyze-separators", _separators_layout)]


def _outputs(seed: int):
    """Yield ``(name, normalized bytes)`` for every output."""
    import inputs
    from qcdistort import MeshMap, TriMesh, report_json, save_mesh, summarize
    from qcdistort.cli import main

    def run(args) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(args)
        return code, out.getvalue()

    def cli(args) -> str:
        code, out = run(args)
        if code != 0:
            raise SystemExit(f"qcdistort {' '.join(args)} exited {code}")
        return out

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def read(path: Path, root: Path = work) -> bytes:
            data = path.read_bytes().replace(str(root).encode(), _WORK)
            return _TIMESTAMP.sub(b'"timestamp": ""', data)

        src, dst = inputs.analyze_export_pair(seed)
        save_mesh(src, work / "src.obj")
        save_mesh(dst, work / "dst.off")
        for layout, rewrite in LAYOUTS:
            # the same file names in every layout's directory, which is
            # normalised like the work directory
            root = work / layout
            root.mkdir()
            for name in ("src.obj", "dst.off"):
                text = (work / name).read_text()
                (root / name).write_text(text if rewrite is None else rewrite(text, name[-3:]))
            for field in ("abs_mu", "eps_angle_t", "eps_mu_t"):
                outs = [f"r_{field}.json", f"f_{field}.csv", f"c_{field}.ply"]
                cli(["analyze", str(root / "src.obj"), str(root / "dst.off"),
                     "--out", str(root / outs[0]), "--csv", str(root / outs[1]),
                     "--ply-out", str(root / outs[2]), "--field", field])
                for name in outs:
                    yield f"{layout}/{name}", read(root / name, root)

        cli(["analyze", str(work / "src.obj"), str(work / "dst.off"),
             "--out", str(work / "r.json"), "--bins", "7"])
        yield "bins7/r.json", read(work / "r.json")
        mirrored = dst.vertices * [1.0, -1.0]
        save_mesh(TriMesh(mirrored, dst.faces), work / "mirrored.off")
        outs = ["r.json", "f.csv", "c.ply"]
        cli(["analyze", str(work / "src.obj"), str(work / "mirrored.off"), "--out",
             str(work / outs[0]), "--csv", str(work / outs[1]), "--ply-out", str(work / outs[2])])
        if json.loads((work / outs[0]).read_text())["stats"]["abs_mu"] is not None:
            raise SystemExit("the mirrored target left a face unfolded")
        for name in outs:
            yield f"mirrored/{name}", read(work / name)
        jitter = np.random.default_rng(seed).standard_normal(src.vertices.shape)
        save_mesh(TriMesh(src.vertices * (1.0 + 1e-9 * jitter), src.faces), work / "near.off")
        outs = ["r.json", "f.csv"]
        cli(["analyze", str(work / "src.obj"), str(work / "near.off"),
             "--out", str(work / outs[0]), "--csv", str(work / outs[1])])
        abs_mu = json.loads((work / outs[0]).read_text())["stats"]["abs_mu"]
        if abs_mu is None or not 0.0 < abs_mu["max"] < 1e-4:
            raise SystemExit("the near-identity target is not near the identity")
        for name in outs:
            yield f"near-identity/{name}", read(work / name)
        verts = dst.vertices.copy()
        a, b, c = dst.faces[0]
        verts[c] = 0.5 * (verts[a] + verts[b])  # face 0 collapses onto its first edge
        save_mesh(TriMesh(verts, dst.faces), work / "collapsed.off")
        outs = [work / "collapsed.json", work / "collapsed.csv"]
        code, _ = run(["analyze", str(work / "src.obj"), str(work / "collapsed.off"),
                       "--out", str(outs[0]), "--csv", str(outs[1])])
        for name, path in zip(("r.json", "f.csv"), outs):
            data = read(path) if path.exists() else b""
            yield f"collapsed/{name}", f"exit {code}\n".encode() + data

        save_mesh(inputs.param_flatten_surface(seed), work / "surf.obj")
        for weights in ("uniform", "cotangent"):
            flat = f"flat_{weights}.obj"
            cli(["param", str(work / "surf.obj"), "-o", str(work / flat),
                 "--weights", weights, "--analyze"])
            for name in (flat, f"{flat}.report.json"):
                yield f"param/{name}", read(work / name)

    for name, src, dst in inputs.analyze_lib_maps(seed):
        report = summarize(MeshMap(src, dst), source_path=name, target_path=name)
        text = report_json(report).encode()
        yield f"analyze_lib/{name}.json", _TIMESTAMP.sub(b'"timestamp": ""', text)

    for case in [[], ["--k", "2"], ["--k", "2", "--theta", "1.0472"],
                 ["--k", "3", "--theta", "1.5707963267947966"],
                 ["--k", "1.0000000001", "--theta", "1"], ["--k", "1e308", "--theta", "1"],
                 ["--k", "1e12"], ["--k", "1e16"]]:
        name = "-".join(f"{a[2:]}{b}" for a, b in zip(case[::2], case[1::2])) or "default"
        code, out = run(["theory", "--json", "--grid", "2000", *case])
        yield f"theory/{name}.json", f"exit {code}\n{out}".encode()
    code, out = run(["theory", "--json"])
    yield "theory/default-grid100000.json", f"exit {code}\n{out}".encode()


def _read_digests(path: str) -> dict[str, str]:
    digests = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            digest, name = line.split(maxsplit=1)
            digests[name] = digest
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=201, help="input seed")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and perfbench/ are used "
                             "(default: this one)")
    parser.add_argument("--against", metavar="FILE",
                        help="compare with digests saved from an earlier run")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    digests = {}
    for name, data in _outputs(args.seed):
        digests[name] = hashlib.sha256(data).hexdigest()
        print(f"{digests[name]}  {name}")
    differing = [f"{name}: differs from analyze/{name.split('/')[1]}" for name in digests
                 if name.startswith("analyze-")
                 and digests[name] != digests[f"analyze/{name.split('/')[1]}"]]
    if args.against is not None:
        saved = _read_digests(args.against)
        differing += [f"{name}: differs" for name in digests
                      if name in saved and saved[name] != digests[name]]
        differing += [f"{name}: missing here" for name in saved if name not in digests]
        differing += [f"{name}: not in {args.against}" for name in digests
                      if name not in saved]
    for line in differing:
        print(line, file=sys.stderr)
    if differing:
        return 1
    if args.against is not None:
        print(f"all {len(digests)} outputs identical to {args.against}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
