"""Map-definition schema, provenance-carrying CSV/JSON emitters, mask dumps.

Outputs are deterministic: JSON uses sorted keys, floats are written with
repr (shortest round-trip form), and every file starts with '#'-prefixed
provenance lines embedding the resolved configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np

from . import __version__
from .circle import CircleLift, build_denjoy, geometric_gap_schedule
from .torus import (ComposedMap, DehnTwist, DiskPush, RigidTranslation,
                    SuspensionMap, TorusMapSpec)

NAMED_ANGLES = {
    "golden": (5 ** 0.5 - 1) / 2,
    "sqrt2": 2 ** 0.5 - 1,
}


def _kind(d, what):
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f'a {what} definition must be a JSON object with a "kind"')
    return d["kind"]


def circle_lift_from_definition(d):
    kind = _kind(d, "circle lift")
    if kind == "rigid":
        return CircleLift.rigid(_angle(d["alpha"]))
    if kind == "piecewise-affine":
        return CircleLift.piecewise_affine(d["breaks"])
    if kind == "denjoy-truncated":
        N = int(d.get("N", 40))
        schedule = None
        if "lengths" in d:
            lengths = [float(v) for v in d["lengths"]]
            if len(lengths) != 2 * N + 1:
                raise ValueError("lengths must have 2N+1 entries")
            schedule = lambda n: lengths[n + N] if abs(n) <= N else 0.0
        elif "total_mass" in d:
            schedule = geometric_gap_schedule(d["total_mass"])
        lift = build_denjoy(_angle(d["alpha"]), gap_schedule=schedule, N=N)
        if "truncation_tol" in d:
            lift.gap_table = replace(lift.gap_table,
                                     truncation_tol=float(d["truncation_tol"]))
        return lift
    raise ValueError(f"unknown circle lift kind: {kind}")


def _angle(v):
    if isinstance(v, str):
        if v not in NAMED_ANGLES:
            raise ValueError(f"unknown named angle: {v}")
        return NAMED_ANGLES[v]
    return float(v)


def torus_map_from_definition(d):
    kind = _kind(d, "torus map")
    if kind == "rigid":
        a, b = d["offset"]
        return RigidTranslation(_angle(a), _angle(b))
    if kind == "twist":
        return DehnTwist(d["k"])
    if kind == "suspension":
        return SuspensionMap(circle_lift_from_definition(d["base"]),
                             circle_lift_from_definition(d["fiber"]))
    if kind == "disk-push":
        return DiskPush(d["center0"], d["center1"], d["radius"])
    if kind == "composed":
        return ComposedMap([torus_map_from_definition(c) for c in d["maps"]])
    raise ValueError(f"unknown torus map kind: {kind}")


def stable_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj):
    return hashlib.sha256(stable_json(obj).encode()).hexdigest()[:16]


def manifest_hash():
    from .gallery import GALLERY_MANIFEST

    return config_hash(GALLERY_MANIFEST)


def provenance_lines(config):
    resolved = dict(config)
    resolved["library_version"] = __version__
    return [
        f"# config={stable_json(resolved)}",
        f"# config_hash={config_hash(resolved)}",
        f"# gallery_manifest_hash={manifest_hash()}",
    ]


def write_csv(path, header, rows, config):
    """CSV with '#' provenance lines, comma separator, '.' decimals."""
    with open(path, "w") as fh:
        for line in provenance_lines(config):
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_json(path, payload, config):
    doc = {"config": dict(config), "library_version": __version__,
           "config_hash": config_hash(dict(config) | {"library_version": __version__}),
           "gallery_manifest_hash": manifest_hash(),
           "result": payload}
    with open(path, "w") as fh:
        json.dump(_plain(doc), fh, sort_keys=True, indent=1)
        fh.write("\n")


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def write_deviation_csv(path, profile, config):
    write_csv(path, ["n", "D"],
              zip(profile.n.tolist(), profile.value.tolist()),
              dict(config, verdict=profile.verdict, c_est=profile.c_est,
                   seed=profile.seed))


def write_spread_csv(path, table, config):
    write_csv(path, ["n", "spread_forward", "spread_backward"],
              zip(table.n.tolist(), table.forward.tolist(),
                  table.backward.tolist()),
              dict(config, consistent=table.consistent, seed=table.seed))


def write_cloud_csv(path, cloud, config):
    """Deepest-level cloud points with a hull membership flag column."""
    pts = cloud.deepest()
    hull = {tuple(p) for p in cloud.hull.tolist()}
    rows = [(p[0], p[1], tuple(p) in hull) for p in pts.tolist()]
    write_csv(path, ["rx", "ry", "on_hull"], rows,
              dict(config, n=cloud.n_ladder[-1], samples=cloud.samples,
                   seed=cloud.seed))


def rle_encode(bits):
    """Run lengths of a flattened boolean array, starting with a zero run."""
    flat = np.asarray(bits, dtype=bool).ravel()
    if flat.size == 0:
        return []
    changes = np.nonzero(np.diff(flat))[0] + 1
    bounds = np.concatenate([[0], changes, [flat.size]])
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs = [0] + runs
    return [int(r) for r in runs]


def rle_decode(runs, size):
    out = np.zeros(size, dtype=bool)
    pos = 0
    val = False
    for r in runs:
        if val:
            out[pos:pos + r] = True
        pos += r
        val = not val
    if pos != size:
        raise ValueError("run lengths do not match the size")
    return out


def dump_mask(path, mask, config):
    geom = mask.geom
    payload = {
        "resolution": [geom.n_t, geom.n_x, geom.n_y],
        "window": [geom.y_min, geom.y_max],
        "provenance": mask.provenance,
        "rle": rle_encode(mask.occ),
    }
    write_json(path, payload, config)


def load_mask(path):
    from .skew import GridGeometry, GridMask

    with open(path) as fh:
        doc = json.load(fh)
    res = doc["result"]
    n_t, n_x, n_y = res["resolution"]
    geom = GridGeometry(n_t=n_t, n_x=n_x, n_y=n_y, y_min=res["window"][0],
                        y_max=res["window"][1])
    occ = rle_decode(res["rle"], n_t * n_x * n_y).reshape(n_t, n_x, n_y)
    return GridMask(geom, occ, res.get("provenance", {}))
