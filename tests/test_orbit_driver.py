"""Bit identity of the orbit diagnostics against hand-stepped reference loops.

The golden CLI hashes pin ``deviation_profile``, ``rotation_number``, the
block orbit of the region build and the gallery's three probes on its two
obstruction examples. The diagnostics below are pinned here instead, on
every map: each reference is the diagnostic written as its own explicit
loop, and the library's result must match it byte for byte, also when
``walk_probes`` steps several probes in one stack.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from torusdyn.cli import main as cli_main
from torusdyn.gallery import (example_fully_essential,
                              example_unbounded_inessential, manifest_suspension)
from torusdyn.rotation import (_BLOCK_BYTES, _BLOCK_STEPS, DeviationProbe,
                               ProximalityProbe, RecurrenceProbe, SpreadProbe,
                               deviation_profile, estimate_rotation_set,
                               horizontal_spread, proximality_scan,
                               recurrence_probe, vertical_rotation_number,
                               walk_probes, _stack_step)
from torusdyn.skew import build_centralized, vertical_orbit_bound
from torusdyn.torus import DehnTwist, RigidTranslation
from torusdyn.util import (GOLDEN_MEAN, SQRT2_MINUS_1, iterates,
                           lattice_points_2d, torus_dist, wrap01)

N = 40
SAMPLES = 8
SEED = 3


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def eval_torus_inverse(spec, z):
    """The induced inverse on T^2, as ``eval_torus`` is the induced map:
    reduce, the inverse lift, reduce."""
    return wrap01(spec.eval_inverse(wrap01(z)))


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


def ref_deviation(spec, v, rho, n_max, samples, seed):
    base = lattice_points_2d(samples, seed=seed)
    z0 = np.vstack([base, base + np.array([0.0, 1.0])])
    v = np.asarray(v, dtype=float)
    fwd = bwd = z0
    value = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        fwd = spec.eval_lift(fwd)
        bwd = spec.eval_inverse(bwd)
        value[n] = np.maximum(np.abs((fwd - z0) @ v - n * rho).max(),
                              np.abs((bwd - z0) @ v + n * rho).max())
    return value


def ref_proximality(spec, x, partners, n_max):
    fwd = bwd = np.array([x, *partners], dtype=float)
    best_f = best_b = np.full(len(fwd) - 1, np.inf)
    for _ in range(n_max):
        fwd = spec.eval_torus(fwd)
        bwd = eval_torus_inverse(spec, bwd)
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
    # the probes reduce once and step with the lift and one wrap01 of the
    # torus rows (``_stack_step``): wrap01 returns values in [0, 1), never
    # -0.0, and is the identity on them
    z = np.random.default_rng(SEED).uniform(-3.0, 3.0, (SAMPLES, 2))
    z[:2] = [[-0.0, 1.0], [-1e-300, 0.9999999999999999]]
    reduced = wrap01(z)
    for lift, eval_torus in ((spec.eval_lift, spec.eval_torus),
                             (spec.eval_inverse, lambda w: eval_torus_inverse(spec, w))):
        steps = iterates(_stack_step(lift, 0), reduced, N)
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


# -- the gallery's three probes on one shared walk -----------------------------


def gallery_bundle(n_max, rho, x, partners, center, radius):
    """The probes of ``torusdyn gallery`` for an obstruction example, with
    its sample count and its recurrence ladder of n_max // 5 steps."""
    return (DeviationProbe((0, 1), rho, n_max=n_max, samples=32, seed=SEED),
            ProximalityProbe(x, partners, n_max=n_max),
            RecurrenceProbe(center, radius, n_max=n_max // 5, seed=SEED))


def _probe_cases():
    """(map, bundle arguments but n_max) for every map, and for the two
    obstruction examples their own probe points."""
    for name in sorted(MAPS):
        yield name, MAPS[name](), (0.25, (0.31, 0.52), [(0.33, 0.5), (0.7, 0.12)],
                                   (0.5, 0.5), 0.2)
    for name, make in (("unbounded-inessential", example_unbounded_inessential),
                       ("fully-essential", example_fully_essential)):
        ex = make()
        yield name, ex.torus_map, (ex.rho_vertical, ex.w0,
                                   [ex.w1_edge, ex.w0_edge],
                                   ex.wandering_center, 0.8 * ex.wandering_radius)


PROBE_CASES = list(_probe_cases())


@pytest.mark.parametrize("name, spec, args", PROBE_CASES,
                         ids=[case[0] for case in PROBE_CASES])
def test_shared_walk_matches_reference_loops(name, spec, args):
    rho, x, partners, center, radius = args
    for n_max in (1, 4, 5, 9, N):  # 0, 0, 1, 1 and 8 recurrence steps
        prof, scan, times = walk_probes(spec, *gallery_bundle(n_max, *args))
        assert _bits(prof.value) == _bits(ref_deviation(spec, (0, 1), rho, n_max,
                                                        32, SEED))
        best_f, best_b = ref_proximality(spec, x, partners, n_max)
        assert _bits([r.forward_min for r in scan]) == _bits(best_f)
        assert _bits([r.backward_min for r in scan]) == _bits(best_b)
        assert times == ref_recurrence(spec, center, radius, n_max // 5, SEED)


# -- block edges ---------------------------------------------------------------

B = _BLOCK_STEPS
# a walk of one step, one step short of a block, one block, one step past
# it, and two blocks and three steps
BLOCK_EDGES = (1, B - 1, B, B + 1, 2 * B + 3)


@pytest.mark.parametrize("name, spec, args", PROBE_CASES,
                         ids=[case[0] for case in PROBE_CASES])
def test_block_edges_match_reference_loops(name, spec, args):
    rho, x, partners, center, radius = args
    top = max(BLOCK_EDGES)
    # the tables and return times of a longer walk begin with those of a
    # shorter one, so one reference walk serves every length
    dev = {v: ref_deviation(spec, v, rho, top, SAMPLES, SEED)
           for v in ((0, 1), (0.6, 0.8))}
    sf, sb = ref_horizontal_spread(spec, top, SAMPLES, SEED)
    returns = ref_recurrence(spec, center, radius, top, SEED)
    for n_max in BLOCK_EDGES:
        # the spread probe leaves the stack two steps early, so the block
        # that holds its last step is cut there
        cut = max(n_max - 2, 1)
        vert, tilted, spread, scan, times = walk_probes(
            spec,
            DeviationProbe((0, 1), rho, n_max=n_max, samples=SAMPLES, seed=SEED),
            DeviationProbe((0.6, 0.8), rho, n_max=n_max, samples=SAMPLES,
                           seed=SEED),
            SpreadProbe(cut, SAMPLES, SEED),
            ProximalityProbe(x, partners, n_max=n_max),
            RecurrenceProbe(center, radius, n_max=n_max, seed=SEED))
        assert _bits(vert.value) == _bits(dev[(0, 1)][:n_max + 1])
        assert _bits(tilted.value) == _bits(dev[(0.6, 0.8)][:n_max + 1])
        assert _bits(spread.forward) == _bits(sf[:cut + 1])
        assert _bits(spread.backward) == _bits(sb[:cut + 1])
        best_f, best_b = ref_proximality(spec, x, partners, n_max)
        assert _bits([r.forward_min for r in scan]) == _bits(best_f)
        assert _bits([r.backward_min for r in scan]) == _bits(best_b)
        assert times == [n for n in returns if n <= n_max]
        assert all(type(n) is int for n in times)


def test_block_memory_stays_near_one_block():
    # 2**14 samples and their (0, 1) translates: 2**15 rows, 512 KiB a step,
    # so a block is capped at two steps, 1 MiB; B steps would be 32 MiB
    step_bytes = 2 * 2**14 * 2 * 8
    spec = RigidTranslation(GOLDEN_MEAN, SQRT2_MINUS_1)
    tracemalloc.start()
    try:
        deviation_profile(spec, (0, 1), SQRT2_MINUS_1, n_max=3 * B,
                          samples=2**14, seed=SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the block, the record's difference of the block from the starting
    # rows, and three projections of the difference of half a block each;
    # the starting rows, the stack, the current iterate and its image; and
    # 2 MiB for the sampler's set-up and numpy's own buffers
    assert peak < 3.5 * _BLOCK_BYTES + 4 * step_bytes + 2**21


def test_shared_walk_keeps_the_probe_errors(tmp_path, capsys):
    ex = example_fully_essential()
    args = (ex.rho_vertical, ex.w0, [ex.w1_edge, ex.w0_edge],
            ex.wandering_center, ex.wandering_radius)
    for n_max in (0, -3):
        with pytest.raises(ValueError, match=r"^n_max must be >= 1$"):
            gallery_bundle(n_max, *args)
        assert cli_main(["gallery", "fully-essential", "--nmax", str(n_max),
                         "--out", str(tmp_path)]) == 1
        # the CLI refuses the count before any work, with its flag's name
        assert capsys.readouterr().err == \
            f"usage error: --nmax must be at least 1, not {n_max}\n"
    with pytest.raises(ValueError, match=r"^rho inf times 5 steps is not finite$"):
        gallery_bundle(5, float("inf"), *args[1:])
    # an overflowing deviation table is refused after the shared walk, with
    # no warning, as when the deviation probe walks alone
    bundle = (DeviationProbe((1e308, 1e308), ex.rho_vertical, n_max=5,
                             samples=32, seed=SEED), *gallery_bundle(5, *args)[1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the deviation profile along "
                                             r"v = \[1e\+308, 1e\+308\] "
                                             r"is not finite$"):
            walk_probes(ex.torus_map, *bundle)


# -- the two halves in two processes -------------------------------------------


def walk_bits(spec, args, n_max):
    prof, scan, times = walk_probes(spec, *gallery_bundle(n_max, *args))
    return (_bits(prof.value), _bits([r.forward_min for r in scan]),
            _bits([r.backward_min for r in scan]), times)


@pytest.mark.parametrize("name, spec, args",
                         [c for c in PROBE_CASES if c[0] in ("fully-essential",
                                                             "unbounded-inessential")],
                         ids=["fully-essential", "unbounded-inessential"])
def test_walk_schedules_agree(name, spec, args, both_schedules):
    # the backward records sent back by a child are those of the walk here,
    # the recurrence probe walking forwards alone in either schedule
    for n_max in (1, 5, 3 * B + 7):
        forked, here = both_schedules(lambda: walk_bits(spec, args, n_max))
        assert forked == here


def test_overflow_is_refused_alike_on_both_schedules(both_schedules):
    # the child walks under the caller's errstate and warning filters: the
    # overflow it hides is refused after the walk, and no RuntimeWarning,
    # raised as an error in the child, comes back in its place
    ex = example_fully_essential()

    def refusal():
        with pytest.raises(ValueError) as err:
            deviation_profile(ex.torus_map, (1e308, 1e308), ex.rho_vertical,
                              n_max=5, samples=32, seed=SEED)
        return str(err.value)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forked, here = both_schedules(refusal)
    assert forked == here == ("the deviation profile along v = [1e+308, 1e+308] "
                              "is not finite")
