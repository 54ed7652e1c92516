import json

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from torusdyn.serialize import (circle_lift_from_definition, dump_mask,
                                rle_encode, torus_map_from_definition,
                                write_csv, write_json)
from torusdyn.skew import GridGeometry, GridMask
from torusdyn.util import GOLDEN_MEAN


def rle_decode(runs, size):
    """The flat boolean array of size cells whose runs ``rle_encode`` gave."""
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


def load_mask(path):
    """The mask a ``dump_mask`` file holds."""
    with open(path) as fh:
        res = json.load(fh)["result"]
    n_t, n_x, n_y = res["resolution"]
    geom = GridGeometry(n_t=n_t, n_x=n_x, n_y=n_y, y_min=res["window"][0],
                        y_max=res["window"][1])
    occ = rle_decode(res["rle"], n_t * n_x * n_y).reshape(n_t, n_x, n_y)
    return GridMask(geom, occ, res.get("provenance", {}))


def flat_rle(bits):
    """Run lengths of the whole flattened array at once, starting with a
    zero run (the encoder before it read one slice at a time)."""
    flat = np.asarray(bits, dtype=bool).ravel()
    if flat.size == 0:
        return []
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(flat)) + 1, [flat.size]])
    runs = np.diff(bounds).tolist()
    return [0] + runs if flat[0] else runs


def test_rle_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        bits = rng.uniform(0, 1, rng.integers(1, 200)) < 0.4
        assert np.array_equal(rle_decode(rle_encode(bits), bits.size), bits)
    assert rle_encode(np.zeros(0, dtype=bool)) == []
    assert rle_encode(np.array([True])) == [0, 1]


@given(grid=arrays(bool, st.tuples(st.integers(1, 5), st.integers(1, 4),
                                   st.integers(1, 6))),
       fill=st.sampled_from(["drawn", "empty", "full", "slab"]))
@settings(max_examples=200, deadline=None)
def test_rle_of_a_strided_mask_matches_the_flat_runs(grid, fill):
    # a mask's occ is rows 1 to n_y of a padded grid: runs are found one t
    # fiber at a time and joined across the fiber edges
    if fill == "empty":
        grid[...] = False
    elif fill == "full":
        grid[...] = True
    elif fill == "slab":
        grid[...] = False
        grid[:, :, grid.shape[2] // 2:] = True
    padded = np.zeros(grid.shape[:2] + (grid.shape[2] + 2,), dtype=bool)
    padded[:, :, 1:-1] = grid
    occ = padded[:, :, 1:-1]
    want = flat_rle(grid)
    assert rle_encode(occ) == want
    assert rle_encode(grid) == want
    assert rle_encode(grid.ravel()) == want
    assert rle_decode(want, grid.size).tobytes() == grid.tobytes()


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

