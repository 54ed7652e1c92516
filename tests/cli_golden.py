"""Golden sha256 hashes of the files that fixed CLI runs write.

``tests/golden/cli_hashes.json`` holds, per named run of ``RUNS``, the
sha256 of every output file, with the numpy and scipy versions that wrote
them. Tests run these argument lists and call ``check``. Only running this
file rewrites the manifest:

    PYTHONPATH=src python tests/cli_golden.py

Give the reason for every rewrite in CHANGES.md.
"""

import hashlib
import json
import os
import tempfile

import numpy as np
import scipy

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden", "cli_hashes.json")
RIGID = '{"kind":"rigid","offset":[0.6180339887,0.4142135624]}'
SUSPENSION = ('{"kind":"suspension","base":{"kind":"rigid","alpha":0.6180339887},'
              '"fiber":{"kind":"rigid","alpha":0.4142135624}}')
BACKSTEP = ('{"kind":"composed","maps":[{"kind":"disk-push","center0":[0.3,0.5],'
            '"center1":[0.31,0.5],"radius":0.05},{"kind":"suspension","base":'
            '{"kind":"piecewise-affine","breaks":[[0,-1.3],[0.5,-0.9]]},'
            '"fiber":{"kind":"denjoy-truncated","alpha":"golden","N":6}}]}')

# every run but the last eight is a CLI test's own run
RUNS = {
    "rotnum-rigid": ["rotnum", "--rigid", "0.25", "--n", "1000"],
    "rotnum-identity": ["rotnum", "--rigid", "0", "--n", "10"],
    "rotnum-denjoy": ["rotnum", "--denjoy", "golden", "--n", "30000",
                      "--denjoy-order", "30"],
    "deviations-rigid": ["deviations", "--map", RIGID, "--rho", "0.4142135624",
                         "--nmax", "200", "--samples", "8"],
    "deviations-rigid-100": ["deviations", "--map", RIGID, "--rho",
                             "0.4142135624", "--nmax", "100", "--samples", "8"],
    "skeworbit-state": ["skeworbit", "--map", RIGID, "--rho", "0.4142135624",
                        "--state", "0.1,0.2,0.3", "--nmax", "0"],
    "skeworbit-rigid": ["skeworbit", "--map", RIGID, "--rho", "0.4142135624",
                        "--state", "0,0,0.25", "--nmax", "40"],
    "factor-rigid": ["factor", "--map", RIGID, "--rho", "0.4142135624",
                     "--seed-point", "0.5,0", "--resolution", "32,32,64",
                     "--sladder", "16", "--max-iters", "60", "--grid", "12"],
    "double-factor-rigid": ["double-factor", "--map", RIGID, "--resolution",
                            "64,64,128", "--grid", "16", "--max-iters", "120"],
    "gallery-surgery": ["gallery", "3.4-geometry"],
    "gallery-suspension": ["gallery", "3.1", "--nmax", "500"],
    "factor-suspension": ["factor", "--map", SUSPENSION, "--rho",
                          repr(0.6180339887 * 0.4142135624), "--seed-point",
                          "0.5,0", "--resolution", "32,32,64"],
    "gallery-unbounded-inessential": ["gallery", "unbounded-inessential",
                                      "--nmax", "500"],
    "gallery-fully-essential": ["gallery", "fully-essential", "--nmax", "500"],
    # odd n_t: the phase-bucket edges of the envelope rounds fall on
    # odd multiples of 1/(2*n_t)
    "factor-rigid-odd": ["factor", "--map", RIGID, "--rho", "0.4142135624",
                         "--seed-point", "0.5,0", "--resolution", "31,32,64",
                         "--sladder", "16", "--max-iters", "60", "--grid", "12"],
    # a base with floor(base(u)) in {-2, -1}: every suspension step applies
    # the inverse fiber once to all points and once more to some
    "deviations-suspension-backstep": ["deviations", "--map", BACKSTEP, "--v",
                                       "0,1", "--rho", "0.1", "--nmax", "300",
                                       "--samples", "8"],
    # a window one unit high: the region reaches rows 1 and n_y - 2, so the
    # fills of most shifts are clipped by a window edge
    "factor-rigid-tight-window": ["factor", "--map", RIGID, "--rho",
                                  "0.4142135624", "--seed-point", "0.5,0",
                                  "--resolution", "32,32,64", "--window", "1",
                                  "--ball-radius", "0.47", "--sladder", "16",
                                  "--max-iters", "60", "--grid", "12"],
    # short obstruction scans: one recurrence step (9 // 5) and none (4 // 5)
    "gallery-fully-essential-9": ["gallery", "fully-essential", "--nmax", "9",
                                  "--seed", "3"],
    "gallery-unbounded-inessential-4": ["gallery", "unbounded-inessential",
                                        "--nmax", "4"],
}


def versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def tree_hashes(out):
    """sha256 of every file below ``out``, keyed by its relative path."""
    hashes = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            hashes[os.path.relpath(path, out).replace(os.sep, "/")] = digest
    return hashes


def check(name, out):
    """Assert that the tree a run wrote to ``out`` has its golden hashes."""
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    want, got = manifest["runs"][name], tree_hashes(out)
    differ = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    made = {k: manifest[k] for k in ("numpy", "scipy")}
    assert not differ, (f"run {name!r}: files {differ} differ from the golden "
                        f"hashes, made with {made}; this run has {versions()}")


def main():
    from torusdyn.cli import main as cli_main

    runs = {}
    for name, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as out:
            code = cli_main(argv + ["--out", out])
            if code != 0:
                raise SystemExit(f"run {name!r} exited with code {code}")
            runs[name] = tree_hashes(out)
    with open(MANIFEST, "w") as fh:
        json.dump(dict(versions(), runs=runs), fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
