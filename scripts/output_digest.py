#!/usr/bin/env python3
"""One SHA-256 per output of the package on the seeded benchmark inputs.

The inputs are those of ``perfbench/inputs.py`` for the given seed.  The
outputs digested are:

* ``analyze`` JSON report, per-face CSV and colored PLY of the
  ``analyze_export`` pair (OBJ source, OFF target), colored by ``abs_mu``
  and again by ``eps_angle_t``;
* ``param --analyze`` flat OBJ and report of the ``param_flatten`` surface,
  with uniform and with cotangent weights;
* ``report_json`` of each of the five ``analyze_lib`` maps.

Before hashing, ``meta.timestamp`` is blanked and the temporary directory
the CLI runs write into is replaced by a fixed name, so two runs of the same
code print the same lines.  ``--root`` takes the package and the inputs from
another checkout, which makes a comparison with an earlier commit two runs:

    python scripts/output_digest.py --seed 201 --root ../parent > parent.txt
    python scripts/output_digest.py --seed 201 --against parent.txt

With ``--against`` the digests are compared with those saved in the file;
every differing, missing or extra output is named and the exit code is 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
_WORK = b"<work>"


def _outputs(seed: int):
    """Yield ``(name, normalized bytes)`` for every output."""
    import inputs
    from qcdistort import MeshMap, report_json, save_mesh, summarize
    from qcdistort.cli import main

    def cli(args):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(args)
        if code != 0:
            raise SystemExit(f"qcdistort {' '.join(args)} exited {code}")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def read(name: str) -> bytes:
            data = (work / name).read_bytes().replace(str(work).encode(), _WORK)
            return _TIMESTAMP.sub(b'"timestamp": ""', data)

        src, dst = inputs.analyze_export_pair(seed)
        save_mesh(src, work / "src.obj")
        save_mesh(dst, work / "dst.off")
        for field in ("abs_mu", "eps_angle_t"):
            outs = [f"r_{field}.json", f"f_{field}.csv", f"c_{field}.ply"]
            cli(["analyze", str(work / "src.obj"), str(work / "dst.off"),
                 "--out", str(work / outs[0]), "--csv", str(work / outs[1]),
                 "--ply-out", str(work / outs[2]), "--field", field])
            for name in outs:
                yield f"analyze/{name}", read(name)

        save_mesh(inputs.param_flatten_surface(seed), work / "surf.obj")
        for weights in ("uniform", "cotangent"):
            flat = f"flat_{weights}.obj"
            cli(["param", str(work / "surf.obj"), "-o", str(work / flat),
                 "--weights", weights, "--analyze"])
            for name in (flat, f"{flat}.report.json"):
                yield f"param/{name}", read(name)

    for name, src, dst in inputs.analyze_lib_maps(seed):
        report = summarize(MeshMap(src, dst), source_path=name, target_path=name)
        text = report_json(report).encode()
        yield f"analyze_lib/{name}.json", _TIMESTAMP.sub(b'"timestamp": ""', text)


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
    if args.against is None:
        return 0

    saved = _read_digests(args.against)
    differing = [f"{name}: differs" for name in digests
                 if name in saved and saved[name] != digests[name]]
    differing += [f"{name}: missing here" for name in saved if name not in digests]
    differing += [f"{name}: not in {args.against}" for name in digests if name not in saved]
    for line in differing:
        print(line, file=sys.stderr)
    if differing:
        return 1
    print(f"all {len(digests)} outputs identical to {args.against}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
