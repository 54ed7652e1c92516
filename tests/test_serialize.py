import json

import numpy as np
import pytest

from torusdyn.serialize import (circle_lift_from_definition, load_mask,
                                dump_mask, rle_decode, rle_encode,
                                torus_map_from_definition, write_csv,
                                write_json)
from torusdyn.skew import GridGeometry, GridMask
from torusdyn.util import GOLDEN_MEAN


def test_rle_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        bits = rng.uniform(0, 1, rng.integers(1, 200)) < 0.4
        assert np.array_equal(rle_decode(rle_encode(bits), bits.size), bits)
    assert rle_encode(np.zeros(0, dtype=bool)) == []
    assert rle_encode(np.array([True])) == [0, 1]


def test_mask_dump_bit_exact(tmp_path):
    geom = GridGeometry(n_t=8, n_x=8, n_y=16, y_min=-1.0, y_max=1.0)
    rng = np.random.default_rng(1)
    occ = rng.uniform(0, 1, (8, 8, 16)) < 0.3
    mask = GridMask(geom, occ, {"status": "fixed-point"})
    path = tmp_path / "mask.json"
    dump_mask(path, mask, {"command": "test"})
    loaded = load_mask(path)
    assert np.array_equal(loaded.occ, occ)
    assert loaded.geom == geom
    assert loaded.provenance["status"] == "fixed-point"


def test_map_definition_roundtrip():
    defs = [
        {"kind": "rigid", "offset": [0.1, 0.2]},
        {"kind": "twist", "k": 2},
        {"kind": "suspension",
         "base": {"kind": "rigid", "alpha": "golden"},
         "fiber": {"kind": "denjoy-truncated", "alpha": "sqrt2", "N": 6}},
        {"kind": "disk-push", "center0": [0.3, 0.5], "center1": [0.35, 0.5],
         "radius": 0.2},
    ]
    defs.append({"kind": "composed", "maps": [defs[0], defs[1]]})
    rng = np.random.default_rng(2)
    z = rng.uniform(0, 1, (20, 2))
    for d in defs:
        spec = torus_map_from_definition(d)
        spec2 = torus_map_from_definition(spec.to_definition())
        assert np.max(np.abs(spec.eval_lift(z) - spec2.eval_lift(z))) <= 1e-12
    with pytest.raises(ValueError):
        torus_map_from_definition({"kind": "nope"})


def test_circle_definition_roundtrip():
    d = {"kind": "denjoy-truncated", "alpha": GOLDEN_MEAN, "N": 5}
    lift = circle_lift_from_definition(d)
    lift2 = circle_lift_from_definition(lift.to_definition())
    xs = np.linspace(0, 1, 50, endpoint=False)
    assert np.max(np.abs(lift(xs) - lift2(xs))) <= 1e-14


def test_write_csv_provenance(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, 2.5), (3, 4.0)], {"command": "t", "n": 7})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1].startswith("# config_hash=")
    assert lines[2].startswith("# gallery_manifest_hash=")
    assert lines[3] == "a,b"
    assert lines[4] == "1,2.5"


def test_write_json_sorted_and_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"z": 1, "a": [2.0, np.float64(3.5)], "flag": np.bool_(True)}
    write_json(p1, payload, {"command": "t"})
    write_json(p2, payload, {"command": "t"})
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["result"]["flag"] is True

