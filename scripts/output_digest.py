#!/usr/bin/env python3
"""One SHA-256 per output of the package on the seeded benchmark inputs.

The inputs are those of ``perfbench/inputs.py`` for the given seed.  The
outputs digested are:

* ``analyze`` JSON report, per-face CSV and colored PLY of the
  ``analyze_export`` pair (OBJ source, OFF target), colored by each of
  ``abs_mu``, ``eps_angle_t`` and ``eps_mu_t``, with the pair read in three
  layouts: as ``save_mesh`` writes it (``analyze/``), as common exporters
  write it (``analyze-exporter/``), and with indented OBJ lines and a
  lower-case ``off`` header (``analyze-indented/``);
* ``analyze --bins 7`` report of that pair (``bins7/``), and the report,
  CSV and PLY of its source against the target mirrored in y
  (``mirrored/``), where every face is folded and the stats and histograms
  are null;
* ``param --analyze`` flat OBJ and report of the ``param_flatten`` surface,
  with uniform and with cotangent weights;
* ``report_json`` of each of the five ``analyze_lib`` maps;
* ``theory --json --grid 2000`` stdout: the default battery, the single
  case ``--k 2`` and the single case ``--k 2 --theta 1.0472``.

Before hashing, ``meta.timestamp`` is blanked and the temporary directory
the CLI runs write into is replaced by a fixed name, so two runs of the same
code print the same lines.  ``--root`` takes the package and the inputs from
another checkout, which makes a comparison with an earlier commit two runs:

    python scripts/output_digest.py --seed 201 --root ../parent > parent.txt
    python scripts/output_digest.py --seed 201 --against parent.txt

With ``--against`` the digests are compared with those saved in the file;
every differing, missing or extra output is named and the exit code is 1.
The three layouts hold the same meshes, so their outputs must be identical
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


# the input layouts of the analyze_export pair: the directory each is read
# from, and how it is made from save_mesh output
LAYOUTS = [("analyze", None), ("analyze-exporter", _exporter_layout),
           ("analyze-indented", _indented_layout)]


def _outputs(seed: int):
    """Yield ``(name, normalized bytes)`` for every output."""
    import inputs
    from qcdistort import MeshMap, TriMesh, report_json, save_mesh, summarize
    from qcdistort.cli import main

    def cli(args) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(args)
        if code != 0:
            raise SystemExit(f"qcdistort {' '.join(args)} exited {code}")
        return out.getvalue()

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

    for name, case in [("default", []), ("k2", ["--k", "2"]),
                       ("k2-theta1.0472", ["--k", "2", "--theta", "1.0472"])]:
        yield f"theory/{name}.json", cli(["theory", "--json", "--grid", "2000", *case]).encode()


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
