"""Bit identity of the orbit diagnostics against hand-stepped reference loops.

The golden CLI hashes pin ``deviation_profile``, ``rotation_number``, the
block orbit of the region build and the gallery's two probes on its two
obstruction examples. The diagnostics below are pinned here instead, on
every map: each reference is the diagnostic written as its own explicit
loop, and the library's result must match it byte for byte.
"""

import numpy as np
import pytest

from torusdyn.gallery import (example_fully_essential,
                              example_unbounded_inessential, manifest_suspension)
from torusdyn.rotation import (estimate_rotation_set, horizontal_spread,
                               proximality_scan, recurrence_probe,
                               vertical_rotation_number)
from torusdyn.skew import build_centralized, vertical_orbit_bound
from torusdyn.torus import DehnTwist, RigidTranslation
from torusdyn.util import (GOLDEN_MEAN, SQRT2_MINUS_1, iterates,
                           lattice_points_2d, torus_dist, wrap01)

N = 40
SAMPLES = 8
SEED = 3


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


# -- reference loops -----------------------------------------------------------


def ref_rotation_set(spec, n_ladder, samples, seed):
    z0 = lattice_points_2d(samples, seed=seed)
    cur = z0.copy()
    points = {}
    for n in range(1, max(n_ladder) + 1):
        cur = spec.eval_lift(cur)
        if n in n_ladder:
            points[n] = (cur - z0) / n
    return points


def ref_vertical_rotation_number(spec, n, samples, seed):
    z0 = lattice_points_2d(samples, seed=seed)
    cur = z0.copy()
    for _ in range(n):
        cur = spec.eval_lift(cur)
    avg = (cur[:, 1] - z0[:, 1]) / n
    return float(avg.mean()), float(avg.max() - avg.min())


def ref_horizontal_spread(spec, n_max, samples, seed):
    base = lattice_points_2d(samples, seed=seed)
    z0 = np.vstack([base, base + np.array([0.0, 1.0])])
    fwd = z0.copy()
    bwd = z0.copy()
    sf = np.zeros(n_max + 1)
    sb = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        fwd = spec.eval_lift(fwd)
        bwd = spec.eval_inverse(bwd)
        d1 = fwd[:, 0] - z0[:, 0]
        d2 = bwd[:, 0] - z0[:, 0]
        sf[n] = d1.max() - d1.min()
        sb[n] = d2.max() - d2.min()
    return sf, sb


def ref_proximality(spec, x, partners, n_max):
    fwd = bwd = np.array([x, *partners], dtype=float)
    best_f = best_b = np.full(len(fwd) - 1, np.inf)
    for _ in range(n_max):
        fwd = spec.eval_torus(fwd)
        bwd = spec.eval_torus_inverse(bwd)
        best_f = np.minimum(best_f, torus_dist(fwd[0], fwd[1:]))
        best_b = np.minimum(best_b, torus_dist(bwd[0], bwd[1:]))
    return best_f, best_b


def ref_recurrence(spec, center, radius, n_max, seed):
    center = np.asarray(center, dtype=float)
    raw = lattice_points_2d(4 * 64, seed=seed)
    box = center + radius * (2.0 * raw - 1.0)
    keep = torus_dist(box, center) < radius
    cur = wrap01(np.vstack([center[None, :], box[keep][:63]]))
    times = []
    for n in range(1, n_max + 1):
        cur = spec.eval_torus(cur)
        if np.any(torus_dist(cur, center) < radius):
            times.append(n)
    return times


def ref_orbit_bound(skew, s0, n_max):
    lo = hi = float(s0[2])
    for inverse in (False, True):
        cur = s0[None, :].copy()
        for _ in range(n_max):
            cur = skew.step(cur, inverse=inverse)
            y = float(cur[0, 2])
            lo = min(lo, y)
            hi = max(hi, y)
    return hi - lo


def ref_iterate(skew, states, n):
    out = states.copy()
    for _ in range(abs(n)):
        out = skew.step(out, inverse=n < 0)
    return out


def ref_closed_form(skew, states, n):
    t, x, ytil = states[:, 0], states[:, 1], states[:, 2]
    w = np.stack([x, ytil + t], axis=-1)
    for _ in range(abs(n)):
        w = skew.spec.annulus_map(w, inverse=n < 0)
    return np.stack([wrap01(t + n * skew.rho), wrap01(w[:, 0]),
                     w[:, 1] - n * skew.rho - t], axis=-1)


# -- maps ----------------------------------------------------------------------

MAPS = {
    "rigid": lambda: RigidTranslation(GOLDEN_MEAN, SQRT2_MINUS_1),
    "twist": lambda: DehnTwist(1),
    **{f"suspension-{name}": (lambda name=name: manifest_suspension(name).torus_map)
       for name in ("suspension", "unbounded-inessential", "fully-essential")},
    "obstruction-unbounded-inessential":
        lambda: example_unbounded_inessential().torus_map,
    "obstruction-fully-essential": lambda: example_fully_essential().torus_map,
}


@pytest.fixture(scope="module", params=sorted(MAPS))
def spec(request):
    return MAPS[request.param]()


def test_rotation_diagnostics_match_reference_loops(spec):
    if spec.k == 0:
        cloud = estimate_rotation_set(spec, n_ladder=(N, N // 4), samples=SAMPLES,
                                      seed=SEED)
        ref = ref_rotation_set(spec, (N // 4, N), SAMPLES, SEED)
        assert cloud.n_ladder == [N // 4, N]
        assert {n: _bits(p) for n, p in cloud.points.items()} == \
            {n: _bits(p) for n, p in ref.items()}
    assert _bits(vertical_rotation_number(spec, n=N, samples=SAMPLES, seed=SEED)) \
        == _bits(ref_vertical_rotation_number(spec, N, SAMPLES, SEED))
    table = horizontal_spread(spec, n_max=N, samples=SAMPLES, seed=SEED)
    sf, sb = ref_horizontal_spread(spec, N, SAMPLES, SEED)
    assert _bits(table.forward) == _bits(sf)
    assert _bits(table.backward) == _bits(sb)


def test_orbit_probes_match_reference_loops(spec):
    x, partners = (0.31, 0.52), [(0.33, 0.5), (0.7, 0.12)]
    for n_max in (1, 2, 5, N):  # short scans: a minimum over one step more differs
        results = proximality_scan(spec, x, partners, n_max=n_max)
        best_f, best_b = ref_proximality(spec, x, partners, n_max)
        assert _bits([r.forward_min for r in results]) == _bits(best_f)
        assert _bits([r.backward_min for r in results]) == _bits(best_b)
    assert recurrence_probe(spec, (0.5, 0.5), 0.2, n_max=N, seed=SEED) == \
        ref_recurrence(spec, (0.5, 0.5), 0.2, N, SEED)


def test_torus_steps_match_eval_torus_iterates(spec):
    # the probes reduce once and step with the lift and one wrap01: wrap01
    # returns values in [0, 1), never -0.0, and is the identity on them
    z = np.random.default_rng(SEED).uniform(-3.0, 3.0, (SAMPLES, 2))
    z[:2] = [[-0.0, 1.0], [-1e-300, 0.9999999999999999]]
    reduced = wrap01(z)
    for inverse, eval_torus in ((False, spec.eval_torus),
                                (True, spec.eval_torus_inverse)):
        steps = iterates(lambda w: spec._torus_step(w, inverse=inverse),
                         reduced, N)
        for got, want in zip(steps, iterates(eval_torus, z, N)):
            assert got.tobytes() == want.tobytes()


def test_skew_orbits_match_reference_loops(spec):
    skew = build_centralized(spec, SQRT2_MINUS_1)
    states = np.random.default_rng(SEED).uniform(-1, 1, (SAMPLES, 3))
    for n in (0, 1, 9, -9):
        assert _bits(skew.iterate(states, n)) == _bits(ref_iterate(skew, states, n))
        assert _bits(skew.closed_form(states, n)) == \
            _bits(ref_closed_form(skew, states, n))
    s0 = np.array([0.2, 0.3, 0.1])
    assert _bits(vertical_orbit_bound(skew, s0, n_max=N)) == \
        _bits(ref_orbit_bound(skew, s0, N))
