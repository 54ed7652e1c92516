"""Map-definition schema, provenance-carrying CSV/JSON emitters, mask dumps.

Outputs are deterministic: JSON uses sorted keys, floats are written with
repr (shortest round-trip form), and every file starts with '#'-prefixed
provenance lines embedding the resolved configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace

import numpy as np

from . import __version__
from .circle import CircleLift, build_denjoy, geometric_gap_schedule
from .torus import (ComposedMap, DehnTwist, DiskPush, RigidTranslation,
                    SuspensionMap)
from .util import GOLDEN_MEAN, SQRT2_MINUS_1

NAMED_ANGLES = {"golden": GOLDEN_MEAN, "sqrt2": SQRT2_MINUS_1}


def parse_number(v):
    """A finite real given as a number, a numeric string or a named angle."""
    if isinstance(v, str) and v in NAMED_ANGLES:
        return NAMED_ANGLES[v]
    if not isinstance(v, bool):
        try:
            x = float(v)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(x):
                return x
    raise ValueError(f"not a finite number or named angle: {v!r}")


def _kind(d, what):
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f'a {what} definition must be a JSON object with a "kind"')
    return d["kind"]


def _field(d, key):
    if key not in d:
        raise ValueError(f'a "{d["kind"]}" definition needs "{key}"')
    return d[key]


def _list(v, what):
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{what} must be a list, not {v!r}")
    return v


def _pair(v, what):
    if len(_list(v, what)) != 2:
        raise ValueError(f"{what} must be a pair of numbers, not {v!r}")
    return parse_number(v[0]), parse_number(v[1])


def _integer(v, what):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{what} must be an integer, not {v!r}")
    return v


def circle_lift_from_definition(d):
    kind = _kind(d, "circle lift")
    if kind == "rigid":
        return CircleLift.rigid(parse_number(_field(d, "alpha")))
    if kind == "piecewise-affine":
        return CircleLift.piecewise_affine(
            [_pair(p, "a breakpoint") for p in _list(_field(d, "breaks"), "breaks")])
    if kind == "denjoy-truncated":
        N = _integer(d.get("N", 40), "N")
        schedule = None
        if "lengths" in d:
            lengths = [parse_number(v) for v in _list(d["lengths"], "lengths")]
            if len(lengths) != 2 * N + 1:
                raise ValueError("lengths must have 2N+1 entries")
            schedule = lambda n: lengths[n + N] if abs(n) <= N else 0.0
        elif "total_mass" in d:
            schedule = geometric_gap_schedule(parse_number(d["total_mass"]))
        lift = build_denjoy(parse_number(_field(d, "alpha")),
                            gap_schedule=schedule, N=N)
        if "truncation_tol" in d:
            lift.gap_table = replace(lift.gap_table,
                                     truncation_tol=parse_number(d["truncation_tol"]))
        return lift
    raise ValueError(f"unknown circle lift kind: {kind}")


def torus_map_from_definition(d):
    kind = _kind(d, "torus map")
    if kind == "rigid":
        return RigidTranslation(*_pair(_field(d, "offset"), "offset"))
    if kind == "twist":
        return DehnTwist(_integer(_field(d, "k"), "k"))
    if kind == "suspension":
        return SuspensionMap(circle_lift_from_definition(_field(d, "base")),
                             circle_lift_from_definition(_field(d, "fiber")))
    if kind == "disk-push":
        return DiskPush(_pair(_field(d, "center0"), "center0"),
                        _pair(_field(d, "center1"), "center1"),
                        parse_number(_field(d, "radius")))
    if kind == "composed":
        return ComposedMap([torus_map_from_definition(c)
                            for c in _list(_field(d, "maps"), "maps")])
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
        json.dump(doc, fh, sort_keys=True, indent=1, default=_plain)
        fh.write("\n")


def _plain(obj):
    """The JSON form of a value json cannot write: a numpy array or scalar
    as its ``tolist()`` (np.float64 is a float, and written as one)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def rle_encode(bits):
    """Run lengths of a flattened boolean array, starting with a zero run.

    The array is read one slice of its first axis at a time (one t fiber of
    a mask), so a strided array, such as a mask's view into its padded grid,
    is copied one slice at a time and not whole. A run that crosses a slice
    edge is one run.
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.size == 0:
        return []
    changes, pos, last = [], 0, bits.flat[0]
    for part in bits if bits.ndim > 1 else bits.reshape(1, -1):
        flat = part.ravel()
        if flat[0] != last:
            changes.append([pos])
        changes.append(np.flatnonzero(flat[1:] != flat[:-1]) + (pos + 1))
        pos, last = pos + flat.size, flat[-1]
    runs = np.diff(np.concatenate([[0], *changes, [pos]])).tolist()
    return [0] + runs if bits.flat[0] else runs


def dump_mask(path, mask, config):
    geom = mask.geom
    payload = {
        "resolution": [geom.n_t, geom.n_x, geom.n_y],
        "window": [geom.y_min, geom.y_max],
        "provenance": mask.provenance,
        "rle": rle_encode(mask.occ),
    }
    write_json(path, payload, config)
