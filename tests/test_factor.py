import contextlib
import itertools
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import torusdyn.factor
import torusdyn.skew
from labels_reference import component_names, ndimage_components_meeting
from torusdyn.circle import CircleLift
from torusdyn.factor import (FactorMap, FiberFill, TauRegion, build_tau, continuum_Cs,
                             evaluate_h, heights, lower_component,
                             project_to_torus_factor, verify_equivariance,
                             _band_table)
from torusdyn.skew import GridGeometry, GridMask, build_centralized
from torusdyn.torus import (ComposedMap, DiskPush, RigidTranslation, SuspensionMap,
                            TorusMapSpec)
from torusdyn.util import (GOLDEN_MEAN, SQRT2_MINUS_1, circle_dist, lattice_points_2d,
                           wrap01)

A, B = GOLDEN_MEAN, SQRT2_MINUS_1


def bounded(tau):
    """Whether the region stays off the window's top and bottom rows."""
    occ = tau.mask.occ
    return not (occ[:, :, 0].any() or occ[:, :, -1].any())


def build_tau_walking(rounds, *args, **kwargs):
    """build_tau with its envelope walk capped at the given rounds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torusdyn.skew, "_ENVELOPE_ROUNDS", rounds)
        return build_tau(*args, **kwargs)


@pytest.fixture(scope="module")
def tau_rigid_small():
    skew = build_centralized(RigidTranslation(A, B), B, c_est=0.0)
    return build_tau_walking(4000, skew, (0.5, 0.0), ball_radius=0.15, n_t=64,
                             n_x=64, n_y=128, max_iters=150)


@pytest.fixture(scope="module")
def tau_susp_small():
    susp = SuspensionMap(CircleLift.rigid(A), CircleLift.rigid(B))
    skew = build_centralized(susp, A * B, c_est=B)
    return build_tau_walking(4000, skew, (0.5, 0.0), ball_radius=0.15, n_t=64,
                             n_x=64, n_y=128, max_iters=150)


def test_build_tau_rigid(tau_rigid_small):
    tau = tau_rigid_small
    assert bounded(tau)
    assert tau.status in ("fixed-point", "max-iters")
    assert tau.recurrence_times
    total = tau.mask.count
    assert tau.invariance["forward"] <= 1e-4 * total
    assert tau.invariance["backward"] <= 1e-4 * total
    # analytic vertical extent: ball radius plus the block half-width
    geom = tau.geom
    ys = geom.y_min + (np.arange(geom.n_y) + 0.5) * geom.h_y
    rows = tau.mask.occ.any(axis=(0, 1))
    assert ys[rows].min() == pytest.approx(-0.65, abs=3 * geom.h_y)
    assert ys[rows].max() == pytest.approx(0.65, abs=3 * geom.h_y)


def test_build_tau_identity_like_is_seed_block():
    skew = build_centralized(RigidTranslation(0, 0), 0.0, c_est=0.0)
    tau = build_tau(skew, (0.5, 0.0), ball_radius=0.2, n_t=32, n_x=32, n_y=64,
                    max_iters=20)
    geom = tau.geom
    # every fiber holds the ball shifted by its flow offset: same cell count
    counts = tau.mask.occ.sum(axis=(1, 2))
    assert counts.min() > 0
    assert counts.max() - counts.min() <= 0.1 * counts.max()
    assert tau.mask.count <= 1.5 * 32 * np.pi * (0.2 * 32) * (0.2 * 32)


def test_build_tau_rejects_bad_radius():
    skew = build_centralized(RigidTranslation(A, B), B, c_est=0.0)
    with pytest.raises(ValueError):
        build_tau(skew, (0.5, 0.0), ball_radius=1.5, n_t=16, n_x=16, n_y=32)


def test_build_tau_rejects_an_empty_seed_ball():
    # a half height of 1e300 gives y cells of height 1: no center is within
    # 0.15 of the seed
    skew = build_centralized(RigidTranslation(A, B), B)
    with pytest.raises(ValueError, match="the seed ball of radius 0.15 covers "
                                         "no cell center"):
        build_tau(skew, (0.5, 0.0), n_t=8, n_x=8, n_y=16, half_height=1e300)


def test_build_tau_rejects_rho_overflowing_over_the_run():
    # the check covers the envelope walk's cap, whatever rounds it walks
    skew = build_centralized(RigidTranslation(A, B), 1e305)
    build_tau_walking(0, skew, (0.5, 0.0), n_t=8, n_x=8, n_y=16, max_iters=2)
    with pytest.raises(ValueError, match="times 20000 steps is not finite"):
        build_tau(skew, (0.5, 0.0), n_t=8, n_x=8, n_y=16, max_iters=2)


def test_build_tau_window_exhaustion_propagates():
    skew = build_centralized(RigidTranslation(0.1, 0.3), 0.0, c_est=0.0)
    tau = build_tau(skew, (0.5, 0.0), ball_radius=0.2, n_t=16, n_x=16, n_y=32,
                    half_height=1.0, max_iters=60)
    assert tau.status == "window-exhausted"


def test_lower_component_unit_shift(tau_rigid_small):
    tau = tau_rigid_small
    m = round(1.0 / tau.geom.h_y)
    f0 = lower_component(tau, 0.31)
    f1 = lower_component(tau, 1.31)
    assert f1.shift_cells - f0.shift_cells == m
    assert f0.separating and f1.separating
    shifted = np.zeros_like(f0.fill)
    shifted[:, m:] = f0.fill[:, :-m]
    shifted[:, :m] = True  # rows scrolled in from below the window are filled
    assert np.array_equal(f1.fill, shifted)


def _identity_region():
    skew = build_centralized(RigidTranslation(0, 0), 0.0, c_est=0.0)
    return build_tau(skew, (0.5, 0.0), ball_radius=0.1, n_t=16, n_x=16, n_y=64,
                     max_iters=5)


def test_lower_component_not_separating_when_shifted_out_of_window():
    tau = _identity_region()
    # shift the obstruction entirely out of the window
    fl = lower_component(tau, 12.0)
    assert not fl.separating
    assert fl.fill.all()


def test_lower_component_not_separating_on_empty_fiber():
    tau = _identity_region()
    occ = tau.mask.occ
    occ[int(tau.geom.t_cell(0.0))] = False
    assert (~occ.any(axis=(1, 2))).any()
    fl = lower_component(tau, 0.0)
    assert not fl.separating
    assert fl.fill.all()
    # the occupied fiber of the next t cell blocks part of its fill
    assert not lower_component(tau, tau.geom.h_t).fill.all()


# -- fills by vertical translation ---------------------------------------------


def reference_lower_component(tau, s):
    """The fill of one key by a full label of the translated fiber (the
    evaluator before fills were translated bands)."""
    geom = tau.geom
    it = int(geom.t_cell(s))
    shift = int(np.round(s / geom.h_y))
    fiber = tau.mask.occ[it]
    obstruction = np.zeros_like(fiber)
    lo, hi = max(shift, 0), min(geom.n_y + shift, geom.n_y)
    if lo < hi:
        obstruction[:, lo:hi] = fiber[:, lo - shift:hi - shift]
    lab = component_names(~obstruction)
    member = np.zeros(int(lab.max(initial=0)) + 1, dtype=bool)
    member[lab[:, 0]] = True
    member[0] = False
    fill = member[lab]
    return FiberFill(fill=fill, separating=not fill[:, -1].any(),
                     shift_cells=shift)


def key_kind(tau, it, shift):
    """Where the obstruction of key (it, shift) lies: wholly inside the window
    with a free row on each side, clipped by it, or outside it."""
    rows = np.flatnonzero(tau.mask.occ[it].any(axis=0)) + shift
    if not rows.size or rows[-1] < 0 or rows[0] >= tau.geom.n_y:
        return "outside"
    if rows[0] >= 1 and rows[-1] <= tau.geom.n_y - 2:
        return "interior"
    return "clipped"


def cached_bands(tau):
    """The bands of the region's band table by fiber row range (it, r0, r1),
    each as ``(band, top)``, read from its key table: every key entered
    there names the band of its own row range, and every band is entered."""
    table = tau._fills["bands"]
    n_y = tau.geom.n_y
    found = {}
    for it, col in zip(*np.nonzero(table.band_of >= 0)):
        b, shift = int(table.band_of[it, col]), int(col) - n_y
        rows = np.flatnonzero(tau.mask.occ[it].any(axis=0))
        key = int(it), int(max(rows[0] - 1, -shift)), int(min(rows[-1] + 1, n_y - 1 - shift))
        assert key[1:] == (table.bottom[b], table.bottom[b] + table.height[b] - 1)
        assert found.setdefault(key, b) == b
    assert sorted(found.values()) == list(range(table.offset.size))
    return {key: (table.band((table.offset[b], table.height[b])), bool(table.top[b]))
            for key, b in found.items()}


def swept_keys(tau):
    """One s per (t cell, shift) key met by a sweep of s at h_y / 7 over
    [-2 span - 1, 2 span + 1]."""
    geom = tau.geom
    span = geom.y_max - geom.y_min
    keys = {}
    for s in np.arange(-2.0 * span - 1.0, 2.0 * span + 1.0, geom.h_y / 7):
        keys.setdefault((int(geom.t_cell(s)), int(np.round(s / geom.h_y))), s)
    return keys


@pytest.fixture(scope="module")
def fill_regions(tau_susp_small):
    rigid = build_centralized(RigidTranslation(A, B), B)
    drift = build_centralized(RigidTranslation(0.1, 0.3), 0.0, c_est=0.0)
    # envelopes of the seed image alone: extended to the drift's walked
    # envelopes the region leaves no fill key interior
    exhausted = build_tau_walking(0, drift, (0.5, 0.0), ball_radius=0.2, n_t=16,
                                  n_x=16, n_y=32, half_height=1.0, max_iters=60)
    small = build_tau(rigid, (0.5, 0.0), n_t=32, n_x=32, n_y=64)
    occ = small.mask.occ.copy()
    occ[[0, 5, 6]] = False
    # fiber 9 lets the fill through at x = 0 and has a pocket on its top row
    # that opens only upwards: it is filled from above
    top = np.flatnonzero(occ[9].any(axis=0))[-1]
    occ[9, 0] = False
    occ[9, 10, top] = False
    edited = TauRegion(mask=GridMask(small.geom, occ), skew=small.skew,
                       status=small.status, invariance={}, recurrence_times=[])
    return {"rigid-32": small, "suspension-64": tau_susp_small,
            "window-exhausted": exhausted, "edited-fibers": edited}


def test_fills_match_full_labels(fill_regions):
    exhausted = fill_regions["window-exhausted"].mask.occ
    assert exhausted[:, :, 0].any() and exhausted[:, :, -1].any()
    assert not fill_regions["edited-fibers"].mask.occ[5].any()
    for name, tau in fill_regions.items():
        tau._fills.clear()
        keys = swept_keys(tau)
        kinds = {key_kind(tau, *key) for key in keys}
        assert kinds == {"interior", "clipped", "outside"}, name
        for key, s in keys.items():
            got, want = lower_component(tau, s), reference_lower_component(tau, s)
            assert (got.fill.tobytes(), got.separating, got.shift_cells) == \
                (want.fill.tobytes(), want.separating, want.shift_cells), (name, key)
        tau._fills.clear()


def test_heights_independent_of_order_and_cache(tau_susp_small, monkeypatch):
    tau = tau_susp_small
    geom = tau.geom
    rng = np.random.default_rng(7)
    z = np.column_stack([rng.uniform(0.0, 1.0, 40),
                         rng.uniform(geom.y_min - 0.2, geom.y_max + 0.2, 40)])
    tau._fills.clear()
    cold = heights(tau, z)
    assert cached_bands(tau)
    warm = heights(tau, z)
    tau._fills.clear()
    back = [a[::-1] for a in heights(tau, z[::-1])]
    for values, ok in (warm, back):
        assert values.tobytes() == cold[0].tobytes()
        assert ok.tobytes() == cold[1].tobytes()
    assert cold[1][(z[:, 1] > geom.y_min) & (z[:, 1] < geom.y_max)].all()
    # a band is kept only in the fill cache: two interior keys of one t cell
    # share one label, and a cleared cache labels it again
    by_cell = {}
    for (it, shift), s in swept_keys(tau).items():
        if key_kind(tau, it, shift) == "interior":
            by_cell.setdefault(it, []).append(s)
    pair = next(v[:2] for v in by_cell.values() if len(v) >= 2)
    labels = []
    real = torusdyn.skew._label_x_wrapped
    monkeypatch.setattr(torusdyn.skew, "_label_x_wrapped",
                        lambda *a: labels.append(1) or real(*a))
    for _ in range(2):
        tau._fills.clear()
        for s in pair:
            lower_component(tau, s)
    assert len(labels) == 2
    tau._fills.clear()


def test_heights_keep_no_fill(tau_susp_small):
    # the bisection reads bands: it neither asks for a fill nor keeps one
    tau = tau_susp_small
    geom = tau.geom
    rng = np.random.default_rng(3)
    z = np.column_stack([rng.uniform(0.0, 1.0, 64),
                         rng.uniform(geom.y_min - 0.2, geom.y_max + 0.2, 64)])
    tau._fills.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torusdyn.factor, "lower_component", None)
        heights(tau, z)
    assert cached_bands(tau)
    assert not any(isinstance(v, FiberFill) for v in tau._fills.values())
    tau._fills.clear()


def test_equivariance_labels_one_band_per_t_cell(tau_susp_small, monkeypatch):
    tau = tau_susp_small
    tau._fills.clear()
    # the bands a call labels are the layers of its stack
    layers = []
    real = torusdyn.skew._label_x_wrapped
    monkeypatch.setattr(torusdyn.skew, "_label_x_wrapped",
                        lambda occ, *a: layers.append(occ.shape[0]) or real(occ, *a))
    verify_equivariance(tau, samples=24, s_ladder=32)
    # bands are cached by fiber row range: the interior range of a t cell is
    # its occupied rows and a guard row each side, any other range is clipped
    bands = list(cached_bands(tau))
    rows = {it: np.flatnonzero(tau.mask.occ[it].any(axis=0)) for it, _, _ in bands}
    interior = sum((r0, r1) == (rows[it][0] - 1, rows[it][-1] + 1)
                   for it, r0, r1 in bands)
    assert sum(layers) == len(bands)
    # a step, and the whole ladder, labels its missing bands in one call
    assert len(layers) < len(bands)
    assert interior <= tau.geom.n_t
    # with a full label per key this call made 333 labels
    assert (interior, len(bands) - interior) == (64, 73)
    tau._fills.clear()


def test_continuum_rigid_is_flat_circle(tau_rigid_small):
    tau = tau_rigid_small
    cs = continuum_Cs(tau, 0.23)
    assert cs.separating
    heights = cs.points[:, 1]
    assert heights.max() - heights.min() <= 2 * tau.geom.h_y
    # analytic height: lower slab edge (-0.65) + s
    assert np.median(heights) == pytest.approx(-0.65 + 0.23,
                                               abs=3 * tau.geom.h_y)


def boundary_by_rolls(fill):
    """Cells 4-adjacent to the fill and off it, from rolled copies: x rolls
    round the circle, y rolls are cut at the window edges."""
    grown = fill.copy()
    for axis in (0, 1):
        for d in (-1, 1):
            r = np.roll(fill, d, axis=axis)
            if axis == 1:
                r[:, 0 if d == 1 else -1] = False
            grown |= r
    return grown & ~fill


@given(fill=arrays(bool, st.tuples(st.integers(1, 10), st.integers(1, 10))))
@settings(max_examples=200, deadline=None)
def test_continuum_is_the_fill_boundary(fill):
    geom = GridGeometry(1, *fill.shape, -1.0, 1.0)
    tau = TauRegion(mask=GridMask(geom, fill[None]), skew=None, status="",
                    invariance={}, recurrence_times=[])
    fill.flags.writeable = False  # a memoized fill must not be written
    fl = FiberFill(fill=fill, separating=True, shift_cells=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torusdyn.factor, "lower_component", lambda tau, s: fl)
        cs = continuum_Cs(tau, 0.0)
    _, xs, ys = geom.centers(0, *np.nonzero(boundary_by_rolls(fill)))
    assert cs.points.tobytes() == np.column_stack([xs, ys]).tobytes()


def test_continuum_ladder_disjoint(tau_rigid_small):
    tau = tau_rigid_small
    h = tau.geom.h_y
    c1 = continuum_Cs(tau, 0.2)
    c2 = continuum_Cs(tau, 0.2 + 3 * h)
    cells1 = {(round(p[0] / tau.geom.h_x), round(p[1] / h)) for p in c1.points}
    cells2 = {(round(p[0] / tau.geom.h_x), round(p[1] / h)) for p in c2.points}
    assert cells1.isdisjoint(cells2)


def test_evaluate_h_matches_height(tau_rigid_small):
    tau = tau_rigid_small
    vals = []
    for x in np.linspace(0.1, 0.9, 5):
        for y in np.linspace(-0.3, 0.3, 5):
            r = evaluate_h(tau, (x, y))
            assert r.ordering_ok
            vals.append(r.value - y)
    spread = max(vals) - min(vals)
    assert spread <= 2 * tau.geom.h_y + 1e-12


def test_evaluate_h_monotone_in_y(tau_rigid_small):
    tau = tau_rigid_small
    ys = np.linspace(-0.4, 0.4, 17)
    hs = [evaluate_h(tau_rigid_small, (0.37, y)).value for y in ys]
    assert np.all(np.diff(hs) >= -1e-12)


def test_evaluate_h_unit_translate(tau_rigid_small):
    tau = tau_rigid_small
    h0 = evaluate_h(tau, (0.4, -0.2)).value
    h1 = evaluate_h(tau, (0.4, 0.8)).value
    assert h1 - h0 == pytest.approx(1.0, abs=tau.geom.h_y + 1e-12)


def test_verify_equivariance_rigid(tau_rigid_small):
    eq = verify_equivariance(tau_rigid_small, samples=24, s_ladder=32)
    h = tau_rigid_small.geom.h_y
    assert eq.unit_translate_defect <= 2 * h
    assert eq.map_defect <= 2 * h
    assert eq.ordering_violations == 0
    assert eq.pairs_checked > 0


def test_project_rigid_factor(tau_rigid_small):
    fm = project_to_torus_factor(tau_rigid_small, grid=(24, 12))
    h = tau_rigid_small.geom.h_y
    assert fm.defect_max <= 2 * h
    assert fm.monotone_in_y
    const = np.median(fm.values - fm.y_grid[None, :])
    dev = np.max(np.abs(fm.values - fm.y_grid[None, :] - const))
    assert dev <= 2 * h


def test_factor_pipeline_suspension_small(tau_susp_small):
    tau = tau_susp_small
    hy = tau.geom.h_y
    # analytic height function: y plus the sawtooth coboundary in x
    errs = []
    for x in np.linspace(0.03, 0.97, 7):
        for y in (-0.3, 0.0, 0.3):
            errs.append(evaluate_h(tau, (x, y)).value - (y + B * x))
    assert max(errs) - min(errs) <= 4 * hy
    eq = verify_equivariance(tau, samples=24, s_ladder=32)
    assert eq.map_defect <= 4 * hy
    assert eq.ordering_violations == 0


def test_h_span_on_region_cells(tau_rigid_small):
    # heights of the region's own cells span at most its vertical extent
    tau = tau_rigid_small
    geom = tau.geom
    it, ix, iy = np.nonzero(tau.mask.occ[:1])
    pick = np.linspace(0, ix.size - 1, 12).astype(int)
    hs = []
    for i in pick:
        x = (ix[i] + 0.5) * geom.h_x
        y = geom.y_min + (iy[i] + 0.5) * geom.h_y
        hs.append(evaluate_h(tau, (x, y)).value)
    rows = np.nonzero(tau.mask.occ.any(axis=(0, 1)))[0]
    extent = (rows.max() - rows.min() + 1) * geom.h_y
    assert max(hs) - min(hs) <= extent + 2 * geom.h_y


def _reference_height(tau, z, tol, fill_of=lower_component):
    """One point's height by scalar bisection, with the stop rule of heights,
    membership read from the fill ``fill_of(tau, s)``."""
    geom = tau.geom
    tol = 0.5 * geom.h_y if tol is None else tol
    x, y = float(z[0]), float(z[1])
    ix, iy = int(geom.x_cell(x)), int(geom.y_cell(y))

    def member(s):
        if iy < 0:
            return True
        if iy >= geom.n_y:
            return False
        fl = fill_of(tau, s)
        if not fl.separating:
            return fl.shift_cells >= 0
        return bool(fl.fill[ix, iy])

    span = geom.y_max - geom.y_min
    lo, hi = y - span, y + span
    ok = not member(lo) and member(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        stuck = mid in (lo, hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
        if stuck:
            break
    return 0.5 * (lo + hi), ok


# y as a fraction of the window: below it, inside it and above it
POINTS = st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-0.5, 1.5)),
                  min_size=1, max_size=6)


@given(pts=POINTS, tol=st.sampled_from([None, 0.02, 1e-6, 1e-300]))
@settings(max_examples=30, deadline=None)
def test_heights_match_scalar_bisection(tau_rigid_small, tau_susp_small, pts, tol):
    for tau in (tau_rigid_small, tau_susp_small):
        geom = tau.geom
        z = np.array([(x, geom.y_min + v * (geom.y_max - geom.y_min))
                      for x, v in pts])
        values, ok = heights(tau, z, tol=tol)
        ref = [_reference_height(tau, p, tol) for p in z]
        assert values.tolist() == [v for v, _ in ref]
        assert ok.tolist() == [o for _, o in ref]


def test_heights_match_full_label_bisection(fill_regions):
    # the bands the bisection reads give the memberships of full labels
    rng = np.random.default_rng(5)
    for name, tau in fill_regions.items():
        geom = tau.geom
        # random points, and points on the window's two bottom and two top
        # rows, where bands are clipped
        edge = geom.y_min + (np.array([0, 1, geom.n_y - 2, geom.n_y - 1]) + 0.5) * geom.h_y
        z = np.vstack([np.column_stack([rng.uniform(0.0, 1.0, 48),
                                        rng.uniform(geom.y_min - 0.3, geom.y_max + 0.3, 48)]),
                       np.column_stack([np.repeat((np.arange(8) + 0.5) / 8, 4),
                                        np.tile(edge, 8)])])
        tau._fills.clear()
        values, ok = heights(tau, z)
        tau._fills.clear()
        ref = [_reference_height(tau, p, None, reference_lower_component) for p in z]
        assert values.tobytes() == np.array([v for v, _ in ref]).tobytes(), name
        assert ok.tobytes() == np.array([o for _, o in ref]).tobytes(), name


def test_heights_end_below_float_spacing(tau_rigid_small):
    # a tol below the spacing of floats near h used to bisect forever
    def expire(signum, frame):
        raise TimeoutError("the bisection did not end")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        fine = evaluate_h(tau_rigid_small, (0.3, 0.7), tol=1e-300)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    coarse = evaluate_h(tau_rigid_small, (0.3, 0.7))
    assert fine.ordering_ok
    assert abs(fine.value - coarse.value) <= tau_rigid_small.geom.h_y


def test_heights_reject_nonpositive_tol(tau_rigid_small):
    # NaN too: it compares false with every width, so nothing would bisect
    for tol in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            heights(tau_rigid_small, [[0.3, 0.1]], tol=tol)


# -- packed ladder check and slice-grouped bisection ---------------------------


def reference_ladder_check(tau, s_ladder):
    """``(ordering_violations, pairs_checked)`` of the ladder check on the
    stacked boolean fills (the check before it packed them to bits)."""
    geom = tau.geom
    ladder = np.arange(s_ladder) / s_ladder
    fills = np.array([lower_component(tau, s).fill for s in ladder])
    violations = pairs = 0
    for i in range(ladder.size - 1):
        f, later = fills[i], fills[i + 1:]
        far = ladder[i + 1:] - ladder[i] >= 2.0 * geom.h_y
        subset = ~(f & ~later).any(axis=(1, 2))
        strict = (later & ~f).any(axis=(1, 2))
        pairs += int(far.sum())
        violations += int((far & ~(subset & strict)).sum())
    return violations, pairs


def reference_heights(tau, z, tol=None):
    """``heights`` with the membership of its bisection before the groups
    were slices of the key-sorted points and the window tests were hoisted
    out of the step: groups by ``np.split`` and a per-group row test, each
    group's band labeled alone (``reference_band``)."""
    geom = tau.geom
    tol = 0.5 * geom.h_y if tol is None else tol
    z = np.asarray(z, dtype=float).reshape(-1, 2)
    ix, iy = geom.x_cell(z[:, 0]), geom.y_cell(z[:, 1])

    def member(s, p):
        out = iy[p] < 0
        q = np.flatnonzero(~out & (iy[p] < geom.n_y))
        if not q.size:
            return out
        it, shift = geom.t_cell(s[q]), np.round(s[q] / geom.h_y)
        key = geom.n_t * shift.astype(np.int64) + it
        order = np.argsort(key, kind="stable")
        cut = np.flatnonzero(np.diff(key[order])) + 1
        for g, j in zip(np.split(q[order], cut), order[np.r_[0, cut]]):
            got = reference_band(tau, int(it[j]), int(shift[j]))
            if got is None or got[2]:
                out[g] = shift[j] >= 0
                continue
            lo, band = got[:2]
            x, y = ix[p[g]], iy[p[g]] - lo
            hit, inside = y < 0, (y >= 0) & (y < band.shape[1])
            hit[inside] = band[x[inside], y[inside]]
            out[g] = hit
        return out

    span = geom.y_max - geom.y_min
    lo, hi = z[:, 1] - span, z[:, 1] + span
    every = np.arange(len(z))
    ok = ~member(lo, every)
    ok[ok] = member(hi[ok], every[ok])
    active = every[hi - lo > tol]
    while active.size:
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        inside = member(mid, active)
        hi[active[inside]] = mid[inside]
        lo[active[~inside]] = mid[~inside]
        active = active[(hi[active] - lo[active] > tol) & (mid != a) & (mid != b)]
    return 0.5 * (lo + hi), ok


@pytest.fixture(scope="module")
def rigid_skew():
    return build_centralized(RigidTranslation(A, B), B, c_est=0.0)


@st.composite
def fibers(draw):
    """Occupancy of a small region: per t cell a slab of rows, some of them
    against or past a window edge, with drawn cells flipped. n_x * n_y is
    often not a multiple of 8."""
    n_t, n_x, n_y = (draw(st.integers(1, 4)), draw(st.integers(1, 6)),
                     draw(st.integers(3, 13)))
    occ = np.zeros((n_t, n_x, n_y), dtype=bool)
    for it in range(n_t):
        r0 = draw(st.integers(0, n_y - 1))
        occ[it, :, r0:r0 + draw(st.integers(0, 4))] = True
    return occ ^ draw(arrays(bool, occ.shape,
                             elements=st.booleans() if draw(st.booleans())
                             else st.just(False)))


def region_of(occ, skew):
    """A region on the window [-0.5, 0.5] with the given cells."""
    geom = GridGeometry(*occ.shape, -0.5, 0.5)
    return TauRegion(mask=GridMask(geom, occ), skew=skew, status="",
                     invariance={}, recurrence_times=[])


# a fiber whose fill is separating at every shift that keeps it in the window
SLAB = np.zeros((2, 3, 5), dtype=bool)
SLAB[:, :, 2] = True


@example(occ=SLAB, s_ladder=2, samples=3)
@example(occ=SLAB, s_ladder=1, samples=1)
@example(occ=SLAB, s_ladder=0, samples=1)
@given(occ=fibers(), s_ladder=st.sampled_from([0, 1, 2, 3, 5, 8, 17]),
       samples=st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_packed_ladder_check_matches_boolean(rigid_skew, occ, s_ladder, samples):
    tau = region_of(occ, rigid_skew)
    eq = verify_equivariance(tau, samples=samples, s_ladder=s_ladder)
    assert (eq.ordering_violations, eq.pairs_checked) == \
        reference_ladder_check(tau, s_ladder)


# points as (x, y as a fraction of the window), below, inside and above it
QUERIES = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-0.7, 1.7)),
                   min_size=1, max_size=40)


@example(occ=SLAB, pts=[(0.5, -0.5), (0.1, 0.5), (0.9, 1.5)], tol=None)
@given(occ=fibers(), pts=QUERIES,
       tol=st.sampled_from([None, 0.03, 1e-6, 1e-300]))
@settings(max_examples=150, deadline=None)
def test_sliced_groups_match_split_groups(rigid_skew, occ, pts, tol):
    tau = region_of(occ, rigid_skew)
    z = np.array([(x, -0.5 + v) for x, v in pts])
    values, ok = heights(tau, z, tol=tol)
    want_values, want_ok = reference_heights(tau, z, tol=tol)
    assert values.tobytes() == want_values.tobytes()
    assert ok.tobytes() == want_ok.tobytes()
    # one-point queries: every step holds one group
    for i in range(min(len(z), 4)):
        one = heights(tau, z[i], tol=tol)
        assert (one[0].tobytes(), one[1].tobytes()) == \
            (want_values[i:i + 1].tobytes(), want_ok[i:i + 1].tobytes())


def test_packed_check_and_sliced_groups_on_built_regions(fill_regions):
    # realistic regions, with keys that a window edge clips
    rng = np.random.default_rng(11)
    for name, tau in fill_regions.items():
        geom = tau.geom
        tau._fills.clear()
        for s_ladder in (0, 1, 2, 32):
            eq = verify_equivariance(tau, samples=16, s_ladder=s_ladder)
            assert (eq.ordering_violations, eq.pairs_checked) == \
                reference_ladder_check(tau, s_ladder), (name, s_ladder)
        edge = geom.y_min + (np.array([0, 1, geom.n_y - 2, geom.n_y - 1]) + 0.5) * geom.h_y
        z = np.vstack([np.column_stack([rng.uniform(0.0, 1.0, 64),
                                        rng.uniform(geom.y_min - 0.3, geom.y_max + 0.3, 64)]),
                       np.column_stack([np.repeat((np.arange(8) + 0.5) / 8, 4),
                                        np.tile(edge, 8)])])
        want = reference_heights(tau, z)
        got = heights(tau, z)
        assert (got[0].tobytes(), got[1].tobytes()) == \
            (want[0].tobytes(), want[1].tobytes()), name
        for i in range(0, len(z), 7):
            one = evaluate_h(tau, z[i])
            assert (one.value, one.ordering_ok) == (want[0][i], want[1][i]), name
        tau._fills.clear()


# -- one-point heights in floats and batched band labels -----------------------


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body after the given seconds (SIGALRM)."""
    def expire(signum, frame):
        raise TimeoutError(f"not done in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def tau_pushed_small():
    # a disk push that the region meets: the map is not column-wise
    push = DiskPush((0.45, 0.1), (0.5, 0.12), 0.2)
    skew = build_centralized(ComposedMap([RigidTranslation(A, B), push]), B)
    return build_tau_walking(64, skew, (0.5, 0.0), ball_radius=0.15, n_t=16,
                             n_x=16, n_y=32, max_iters=40)


@pytest.fixture(scope="module")
def built_regions(tau_rigid_small, tau_susp_small, tau_pushed_small):
    return {"rigid": tau_rigid_small, "suspension": tau_susp_small,
            "pushed": tau_pushed_small}


# y as a fraction of the window: below, inside and above it, and dyadic
# heights, whose bisection midpoints land on half y cells, where the shift
# rounds half to even
HEIGHT_FRACTIONS = st.one_of(st.floats(-0.7, 1.7),
                             st.sampled_from([-0.5, 0.0, 0.25, 0.5, 0.625, 1.0, 1.5]))
XS = st.one_of(st.floats(-2.0, 3.0), st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5]))


@example(name="rigid", pts=[(-0.0, 0.5), (1.0, 0.25), (0.3, -0.5), (0.7, 1.5)],
         tol="h_y/7", warm=False, occ=SLAB)
# on a three-row window the first midpoint, s = -1/2, is a shift of -1.5 rows:
# half to even rounds it to -2, half up to -1
@example(name="fibers", pts=[(0.0, 0.0)], tol=None, warm=False,
         occ=np.array([[[False, False, True]]]))
@given(name=st.sampled_from(["rigid", "suspension", "pushed", "fibers"]),
       pts=st.lists(st.tuples(XS, HEIGHT_FRACTIONS), min_size=1, max_size=4),
       tol=st.sampled_from([None, 1e-300, 0.3, 1e3, "h_y/7"]), warm=st.booleans(),
       occ=fibers())
@settings(max_examples=120, deadline=None)
def test_evaluate_h_matches_heights(built_regions, rigid_skew, name, pts, tol, warm,
                                    occ):
    tau = built_regions.get(name) or region_of(occ, rigid_skew)
    geom = tau.geom
    tol = geom.h_y / 7 if tol == "h_y/7" else tol
    for x, v in pts:
        z = (x, geom.y_min + v * (geom.y_max - geom.y_min))
        if not warm:
            tau._fills.clear()
        with deadline(10):
            got = evaluate_h(tau, z, tol=tol)
        if not warm:
            tau._fills.clear()
        values, ok = heights(tau, [z], tol=tol)
        assert type(got.value) is float and type(got.ordering_ok) is bool
        assert np.float64(got.value).tobytes() == values.tobytes(), z
        assert got.ordering_ok == bool(ok[0]), z
        # a (1, 2) point is the same point
        assert evaluate_h(tau, np.array([z]), tol=tol) == got
    tau._fills.clear()


def test_height_queries_refuse_non_finite_points(tau_rigid_small):
    # a NaN or infinite coordinate has no cell: one such point refuses the
    # call, with the same ValueError from both functions
    tau = tau_rigid_small
    for bad in (np.nan, np.inf, -np.inf):
        for z in ((bad, 0.1), (0.3, bad)):
            with pytest.raises(ValueError, match="finite"):
                heights(tau, [z])
            with pytest.raises(ValueError, match="finite"):
                heights(tau, [(0.3, 0.1), z])
            with pytest.raises(ValueError, match="finite"):
                evaluate_h(tau, z)
    # a huge finite x still answers, at its cell
    got = evaluate_h(tau, (1e300, 0.1))
    values, ok = heights(tau, [(1e300, 0.1)])
    assert np.float64(got.value).tobytes() == values.tobytes()
    assert got == evaluate_h(tau, (wrap01(1e300), 0.1))


def test_evaluate_h_takes_exactly_one_point(tau_rigid_small):
    # four numbers used to be read as two points, the first one's height
    # returned
    tau = tau_rigid_small
    for z in ([0.3, 0.1, 0.5, 0.2], [[0.3, 0.1], [0.5, 0.2]], [0.3], 0.3,
              [[[0.3, 0.1]]], [0.3, 0.1, 0.5]):
        with pytest.raises(ValueError, match="one point"):
            evaluate_h(tau, z)
    assert evaluate_h(tau, [[0.3, 0.1]]) == evaluate_h(tau, (0.3, 0.1))


def reference_band(tau, it, shift):
    """``(lo, band, top, cache key)`` of one key's band, labeled alone on
    ndimage, or None: the band cache's one-key body. The key is
    ``("band", it, r0, r1)``, the band's fiber row range."""
    n_y, fiber = tau.geom.n_y, tau.mask.occ[it]
    occupied = np.flatnonzero(fiber.any(axis=0))
    if not occupied.size or occupied[-1] + shift < 0 or occupied[0] + shift >= n_y:
        return None
    r0 = int(max(occupied[0] - 1, -shift))
    r1 = int(min(occupied[-1] + 1, n_y - 1 - shift))
    free = np.ones((fiber.shape[0], r1 - r0 + 1), dtype=bool)
    c0, c1 = max(r0, 0), min(r1 + 1, n_y)
    free[:, c0 - r0:c1 - r0] = ~fiber[:, c0:c1]
    band = ndimage_components_meeting(free, np.s_[:, 0])
    return r0 + shift, band, bool(band[:, -1].any()), ("band", it, r0, r1)


@st.composite
def band_keys(draw):
    """A small region and keys (it, shift) of it, duplicates among them,
    with shifts that clip the band at either window edge or leave it, and
    how many of the keys to fetch first. Each fiber is a slab of rows with
    cells flipped, densely or sparsely, so that some fills get through and
    some rows hold pockets."""
    n_t, n_x, n_y = (draw(st.integers(1, 4)), draw(st.integers(1, 6)),
                     draw(st.integers(3, 13)))
    occ = np.zeros((n_t, n_x, n_y), dtype=bool)
    for it in range(n_t):
        r0 = draw(st.integers(0, n_y - 1))
        occ[it, :, r0:r0 + draw(st.integers(0, 5))] = True
    flips = draw(st.sampled_from([[False], [False] * 5 + [True], [False, True]]))
    occ ^= draw(arrays(bool, occ.shape, elements=st.sampled_from(flips)))
    key = st.tuples(st.integers(0, n_t - 1), st.integers(-n_y - 2, n_y + 2))
    keys = draw(st.lists(key, min_size=1, max_size=12))
    keys += draw(st.lists(st.sampled_from(keys), max_size=4))
    return occ, keys, draw(st.integers(0, len(keys)))


# fiber 1 lets the fill through at x = 0 and has a pocket at x = 2 on row 5,
# the window's top row at shift 2: its band is shorter than fiber 0's, so
# the stack pads it, and the pocket is not filled
POCKET = np.zeros((2, 4, 8), dtype=bool)
POCKET[0, :, 1:7] = True
POCKET[1, 1:, 3:6] = True
POCKET[1, 2, 5] = False


@example(drawn=(POCKET, [(0, 0), (1, 2)], 0))
@given(drawn=band_keys())
@settings(max_examples=200, deadline=None)
def test_batched_bands_match_one_key_labels(rigid_skew, drawn):
    occ, keys, warm = drawn
    tau = region_of(occ, rigid_skew)
    it, shift = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    # the first keys warm the table, so the second call labels only the rest
    table = _band_table(tau)
    table.find(it[:warm], shift[:warm])
    got = table.find(it, shift)
    want = [reference_band(tau, *key) for key in keys]
    for b, sh, w in zip(got, shift.tolist(), want):
        assert (b < 0) == (w is None)
        if w is not None:
            band = table.band((table.offset[b], table.height[b]))
            assert (table.bottom[b] + sh, band.shape, band.tobytes(), table.top[b]) == \
                (w[0], w[1].shape, w[1].tobytes(), w[2])
    # the table holds exactly the bands one-key labels make, each stored once,
    # back to back and unpadded, in a buffer of its own: no padded stack
    # stays alive
    cached = cached_bands(tau)
    assert set(cached) == {w[3][1:] for w in want if w is not None}
    for w in filter(None, want):
        band, top = cached[w[3][1:]]
        assert (band.tobytes(), band.shape, top) == (w[1].tobytes(), w[1].shape, w[2])
    sizes = occ.shape[1] * table.height
    assert np.array_equal(table.offset, np.cumsum(sizes) - sizes)
    assert table.cells.size == sizes.sum()
    assert table.cells.base is None


FAR = (-2**63, -2**62, 2**62, 2**63 - 1)


@example(drawn=(POCKET, [(0, 0), (1, 2)], 0))
@given(drawn=band_keys())
@settings(max_examples=200, deadline=None)
def test_key_table_enters_each_band_under_its_keys(rigid_skew, drawn):
    occ, keys, _ = drawn
    tau = region_of(occ, rigid_skew)
    n_t, n_y = occ.shape[0], occ.shape[2]
    table = _band_table(tau)

    def check():
        # an interior band under every shift of [1 - f, n_y - 2 - l], a
        # clipped band under one key only; no band exactly where a key has
        # none, the columns of shifts +-n_y and every shift of an empty fiber
        shifts = np.arange(-n_y, n_y + 1)
        for it in range(n_t):
            rows = np.flatnonzero(occ[it].any(axis=0))
            none = (np.ones_like(shifts, dtype=bool) if not rows.size else
                    (rows[-1] + shifts < 0) | (rows[0] + shifts >= n_y))
            assert np.array_equal(table.band_of[it] == -2, none), it
        for b in range(table.offset.size):
            entered = np.argwhere(table.band_of == b)
            assert entered.size, b
            it = entered[0, 0]
            assert (entered[:, 0] == it).all()
            rows = np.flatnonzero(occ[it].any(axis=0))
            f, l = int(rows[0]), int(rows[-1])
            got = (entered[:, 1] - n_y).tolist()
            if (table.bottom[b], table.height[b]) == (f - 1, l - f + 3):
                assert got == list(range(1 - f, n_y - 1 - l)), b
            else:
                assert len(got) == 1, b

    it, shift = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    table.find(it, shift)
    assert (table.band_of[it, np.clip(shift + n_y, 0, 2 * n_y)] != -1).all()
    check()
    # every key of the drawn shifts, -n_y - 2 to n_y + 2, and far beyond
    every = [(t, sh) for t in range(n_t) for sh in range(-n_y - 2, n_y + 3)]
    it, shift = np.array(every, dtype=np.int64).T
    got = table.find(it, shift)
    assert np.array_equal(got == -2, [reference_band(tau, *key) is None for key in every])
    check()
    it, shift = np.repeat(np.arange(n_t), len(FAR)), np.tile(np.array(FAR), n_t)
    assert (table.find(it, shift) == -2).all()
    assert all(table.entry(t, sh) is None for t in range(n_t) for sh in FAR)


def reference_member(tau, it, shift, x, y):
    """Membership of window cells (x, y) in the lower fill of one key, read
    from its band labeled alone, by the rule of the per-group band reading
    that the table read replaced: no band, or one whose top row meets the
    fill, reads the translation sign; other rows clamp to the band's."""
    got = reference_band(tau, it, shift)
    if got is None or got[2]:
        return np.full(len(x), shift >= 0)
    lo, band = got[:2]
    return band[x, np.minimum(np.maximum(y - lo, 0), band.shape[1] - 1)]


@st.composite
def band_reads(draw):
    """``band_keys`` with cells to read under them, (key, x, y) with rows
    below, inside and above the window."""
    occ, keys, warm = draw(band_keys())
    n_x, n_y = occ.shape[1:]
    cell = st.tuples(st.sampled_from(keys), st.integers(0, n_x - 1),
                     st.integers(-2, n_y + 1))
    return occ, draw(st.lists(cell, min_size=1, max_size=24)), keys[:warm]


# the pocket fiber at shift 2 reaches the window's top row, so its band is
# clipped there; shift -9 leaves the window
@example(drawn=(POCKET, [((0, 0), 1, 0), ((0, 0), 3, 7), ((0, 1), 0, 9),
                         ((1, 2), 2, 5), ((1, 2), 2, 7), ((1, -9), 0, 3)], []))
@given(drawn=band_reads())
@settings(max_examples=200, deadline=None)
def test_table_read_matches_per_group_reference(rigid_skew, drawn):
    occ, reads, warm = drawn
    tau = region_of(occ, rigid_skew)
    table = _band_table(tau)
    table.find(*np.array(warm, dtype=np.int64).reshape(-1, 2).T)
    keys, x, y = zip(*reads)
    it, shift = np.array(keys, dtype=np.int64).T
    x, y = np.array(x), np.array(y)
    want = np.concatenate([reference_member(tau, *key, x[i:i + 1], y[i:i + 1])
                           for i, key in enumerate(keys)])
    got = table.read(it, shift, x, y)
    assert got.dtype == bool and got.tobytes() == want.tobytes()


@example(drawn=(POCKET, [(1, 2)], 1), pts=[(0.6, 0.5), (0.1, 0.25)], tol=None)
@given(drawn=band_keys(),
       pts=st.lists(st.tuples(XS, HEIGHT_FRACTIONS), min_size=1, max_size=4),
       tol=st.sampled_from([None, 1e-300, 0.3, "h_y/7"]))
@settings(max_examples=150, deadline=None)
def test_one_point_memo_matches_heights(rigid_skew, drawn, pts, tol):
    occ, keys, warm = drawn
    tau = region_of(occ, rigid_skew)
    geom = tau.geom
    tol = geom.h_y / 7 if tol == "h_y/7" else tol
    other = np.array(keys[:warm], dtype=np.int64).reshape(-1, 2).T
    zs = [(x, geom.y_min + v * (geom.y_max - geom.y_min)) for x, v in pts]
    want = []
    for z in zs:
        tau._fills.clear()
        values, ok = heights(tau, [z], tol=tol)
        want.append((values.tobytes(), bool(ok[0])))
        runs = []
        # a cold cache; then its own keys' bands labeled; then a cleared cache
        # whose table holds other keys' bands
        tau._fills.clear()
        runs.append(evaluate_h(tau, z, tol=tol))
        runs.append(evaluate_h(tau, z, tol=tol))
        tau._fills.clear()
        _band_table(tau).find(*other)
        runs.append(evaluate_h(tau, z, tol=tol))
        for got in runs:
            assert (np.float64(got.value).tobytes(), got.ordering_ok) == want[-1], z
    # every point again on the bands of all of them
    for z, w in zip(zs, want):
        got = evaluate_h(tau, z, tol=tol)
        assert (np.float64(got.value).tobytes(), got.ordering_ok) == w, z
    tau._fills.clear()


@example(drawn=(POCKET, [], 0), ss=[0.25, 0.125, -0.25, 0.0])
@given(drawn=band_keys(),
       ss=st.lists(st.one_of(st.floats(-1.5, 1.5),
                             st.sampled_from([-1.0, -0.5, 0.0, 0.125, 0.5, 1.0])),
                   min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_continua_match_the_full_fill_boundary(rigid_skew, drawn, ss):
    tau = region_of(drawn[0], rigid_skew)
    for s in ss:
        cs = continuum_Cs(tau, s)
        assert cs.fill is lower_component(tau, s)
        _, xs, ys = tau.geom.centers(0, *np.nonzero(boundary_by_rolls(cs.fill.fill)))
        assert cs.points.tobytes() == np.column_stack([xs, ys]).tobytes(), s


def test_ladder_check_memory(rigid_128):
    # the benchmark's ladder: 128 rungs at 128x128x256. The stacked boolean
    # fills and their temporaries peaked at 12.5 MB traced, the packed ones
    # at 1.6 MB
    tau = rigid_128[0.0]
    tau._fills.clear()
    verify_equivariance(tau, samples=128, s_ladder=128)  # fills and bands cached
    tracemalloc.start()
    try:
        eq = verify_equivariance(tau, samples=128, s_ladder=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        tau._fills.clear()
    assert eq.pairs_checked > 0 and eq.ordering_violations == 0
    assert peak <= 4 * 2**20, peak


# -- metamorphic oracles of the region build -----------------------------------


@pytest.fixture(scope="module")
def rigid_128():
    """Rigid regions at 128x128x256 with the default rounds, seeded at
    heights 0 and 1."""
    skew = build_centralized(RigidTranslation(A, B), B)
    return {y0: build_tau(skew, (0.5, y0), n_t=128, n_x=128, n_y=256)
            for y0 in (0.0, 1.0)}


def test_rigid_region_is_the_slab(rigid_128):
    # (n * alpha, n * rho) is dense in T^2, so the region's limit is the slab
    # |y - y0| <= r + 1/2 over every (t, x): the cells whose centers lie in it
    tau = rigid_128[0.0]
    ys = tau.geom.centers(0, 0, np.arange(tau.geom.n_y))[2]
    slab = np.abs(ys) <= 0.15 + 0.5
    assert tau.status == "max-iters" and tau.invariance == {"forward": 0,
                                                            "backward": 0}
    assert np.array_equal(tau.mask.occ, np.broadcast_to(slab, tau.mask.occ.shape))
    # the benchmark's geometry: the extended rows still change after 16,384
    # rounds, so the envelope walk runs to its cap
    assert tau.mask.provenance["refine_rounds"] == 20_000


@pytest.mark.parametrize("radius, missing", [(0.09375, 2048), (0.1, 0)])
def test_rigid_region_misses_a_slab_edge_on_a_row_of_centers(radius, missing):
    # the envelopes reach the slab's edge |y| = r + 1/2 only in the limit: when
    # it is a row of cell centers (r + 1/2 = 9.5 cells of 1/16), the closed
    # slab's top and bottom rows, 2 x 32 x 32 cells, are missing; else none
    skew = build_centralized(RigidTranslation(A, B), B)
    tau = build_tau(skew, (0.5, 0.0), ball_radius=radius, n_t=32, n_x=32, n_y=64)
    ys = tau.geom.centers(0, 0, np.arange(tau.geom.n_y))[2]
    slab = np.broadcast_to(np.abs(ys) <= radius + 0.5, tau.mask.occ.shape)
    assert int((slab & ~tau.mask.occ).sum()) == missing
    assert not (tau.mask.occ & ~slab).any()


def test_unit_vertical_translation_moves_the_window(rigid_128):
    # the y cells are 1/M high, so y -> y + 1 is exactly M cells: the seed one
    # unit up gives the same cells in a window one unit up
    low, high = rigid_128[0.0], rigid_128[1.0]
    assert high.geom.y_min == low.geom.y_min + 1.0
    assert high.geom.y_max == low.geom.y_max + 1.0
    assert np.array_equal(high.mask.occ, low.mask.occ)
    assert high.invariance == low.invariance and high.status == low.status


def test_suspension_unit_vertical_translation_moves_the_window(tau_susp_small):
    # the suspension commutes with y -> y + 1 as well: the seed one unit up
    # gives the same cells in a window M cells up. Measured exact, with no
    # float tie moving a cell, at 32, 64 and 128 cells and 0, 4000 and
    # 20000 envelope rounds
    low = tau_susp_small
    susp = SuspensionMap(CircleLift.rigid(A), CircleLift.rigid(B))
    skew = build_centralized(susp, A * B, c_est=B)
    high = build_tau_walking(4000, skew, (0.5, 1.0), ball_radius=0.15, n_t=64,
                             n_x=64, n_y=128, max_iters=150)
    m = round(1.0 / low.geom.h_y)
    assert high.geom.y_min == low.geom.y_min + m * low.geom.h_y
    assert high.geom.y_max == low.geom.y_max + m * low.geom.h_y
    assert np.array_equal(high.mask.occ, low.mask.occ)
    assert high.invariance == low.invariance and high.status == low.status


def test_rigid_x_translation_rolls_the_mask():
    # the rigid map commutes with x -> x + k/n_x, so a seed moved by k/n_x
    # gives the mask rolled by k along x. With the envelope walk capped at 0
    # rounds (the seed image's envelopes alone) the region falls short of the
    # slab and is not invariant under a roll, so the symmetry is tested,
    # exactly: no float tie moves a cell
    skew = build_centralized(RigidTranslation(A, B), B)

    def build(x0):
        return build_tau_walking(0, skew, (x0, 0.0), n_t=64, n_x=64, n_y=128)

    base = build(0.5)
    assert not np.array_equal(np.roll(base.mask.occ, 1, axis=1), base.mask.occ)
    for k in (1, 23, 63):
        moved = build(0.5 + k / 64)
        assert np.array_equal(moved.mask.occ, np.roll(base.mask.occ, k, axis=1))
        assert moved.invariance == base.invariance
        assert moved.status == base.status


class InversePush(TorusMapSpec):
    """The inverse of a disk push: its two evaluators swapped."""

    kind = "inverse-push"

    def __init__(self, push):
        self.push = push

    def eval_lift(self, z):
        return self.push.eval_inverse(z)

    def eval_inverse(self, z):
        return self.push.eval_lift(z)


def conjugate_heights(push, t, x, y):
    """Heights of P^-1(t, x, y), where P^(t, x, y) = (t, P(x, y + t) - (0, t))
    lifts the push P to the skew-product."""
    return push.eval_inverse(np.stack([x, y + t], axis=-1))[..., 1] - t


@pytest.mark.parametrize("push_vector", [(0.06, 0.0), (0.0, 0.06),
                                         (0.06 / np.sqrt(2), 0.06 / np.sqrt(2))],
                         ids=["horizontal", "vertical", "diagonal"])
def test_conjugated_rigid_region_lies_between_its_oracles(push_vector):
    # f = P R P^-1 has the skew-product P^ F_R P^-1, and P^ commutes with the
    # flow, so f's region from the seed ball B is P^ of R's region from
    # P^-1(B): the slab [m - 1/2, M + 1/2] of heights, m and M the extremes
    # of P^-1 over B, which lie on the image of its boundary circle
    rigid = RigidTranslation(0.6180339887, 0.4142135624)
    center = np.array([0.5, 0.2])
    # pushed from (0.5, 0.2): the vertical push centered there, from
    # (0.5, 0.17) to (0.5, 0.23), moves the ball's top to M = 0.09375
    # exactly, and M + 1/2 falls on a row of cell centers, which the walk's
    # envelopes approach only from inside
    push = DiskPush(center, center + push_vector, 0.2)
    skew = build_centralized(ComposedMap([InversePush(push), rigid, push]),
                             0.4142135624)
    seed, radius = (0.5, 0.0), 0.15
    tau = build_tau(skew, seed, ball_radius=radius, n_t=32, n_x=32, n_y=64)
    theta = 2.0 * np.pi * np.arange(100_000) / 100_000
    circle = np.column_stack([seed[0] + radius * np.cos(theta),
                              seed[1] + radius * np.sin(theta)])
    h = push.eval_inverse(circle)[:, 1]
    lo, hi = h.min() - 0.5, h.max() + 0.5
    geom = tau.geom
    cells = np.indices((geom.n_t, geom.n_x, geom.n_y))
    # the inner oracle: the cells whose centers lie in P^(slab)
    v = conjugate_heights(push, *geom.centers(*cells))
    inner = (v >= lo) & (v <= hi)
    # the outer one: the cells that meet it, by 5 x 5 x 5 samples per cell
    # from face to face
    outer = np.zeros_like(inner)
    for dt, dx, dy in itertools.product(np.linspace(-0.5, 0.5, 5), repeat=3):
        v = conjugate_heights(push, *geom.centers(cells[0] + dt, cells[1] + dx,
                                                  cells[2] + dy))
        outer |= (v >= lo) & (v <= hi)
    occ = tau.mask.occ
    missing = int((inner & ~occ).sum())
    beyond = int((occ & ~outer).sum())
    over = int((occ & ~inner).sum())
    assert missing == beyond == 0, (
        f"{missing} cells of the inner oracle missing, {beyond} beyond the "
        f"outer oracle, {over} over the inner oracle; status {tau.status}")


# -- one heights call per report -----------------------------------------------


HEIGHT_POINTS = st.lists(st.tuples(XS, HEIGHT_FRACTIONS), max_size=6)


@given(name=st.sampled_from(["rigid", "suspension", "pushed", "fibers"]),
       first=HEIGHT_POINTS, second=HEIGHT_POINTS,
       tol=st.sampled_from([None, 1e-300, 0.03, "h_y/7"]), occ=fibers())
@settings(max_examples=80, deadline=None)
def test_heights_treat_each_point_alone(built_regions, rigid_skew, name, first,
                                        second, tol, occ):
    # the contract the stacked reports rest on: the heights of two stacked
    # batches are those of each batch alone, bit for bit, with the fill cache
    # cleared before every call and with it warm
    tau = built_regions.get(name) or region_of(occ, rigid_skew)
    geom = tau.geom
    tol = geom.h_y / 7 if tol == "h_y/7" else tol
    a, b = (np.array([(x, geom.y_min + v * (geom.y_max - geom.y_min))
                      for x, v in pts]).reshape(-1, 2) for pts in (first, second))
    for warm in (False, True):
        got = []
        for z in (np.vstack([a, b]), a, b):
            if not warm:
                tau._fills.clear()
            with deadline(10):
                got.append(heights(tau, z, tol=tol))
        both, alone = got[0], [np.concatenate(p) for p in zip(*got[1:])]
        assert both[0].tobytes() == alone[0].tobytes(), warm
        assert both[1].tobytes() == alone[1].tobytes(), warm
    tau._fills.clear()


def reference_equivariance_defects(tau, samples=128, tol=None, seed=0):
    """The two height defects of ``verify_equivariance``, from its three
    ``heights`` calls before it stacked their queries."""
    geom = tau.geom
    skew = tau.skew
    pts = lattice_points_2d(samples, seed=seed)
    y_c = 0.5 * (geom.y_min + geom.y_max)
    z = np.column_stack([pts[:, 0], y_c - 0.75 + 1.5 * pts[:, 1]])
    h0, _ = heights(tau, z, tol=tol)
    h1, _ = heights(tau, z + [0.0, 1.0], tol=tol)
    h2, _ = heights(tau, skew.spec.annulus_map(z), tol=tol)
    return (float(np.max(np.abs(h1 - h0 - 1.0), initial=0.0)),
            float(np.max(np.abs(h2 - h0 - skew.rho), initial=0.0)))


def reference_torus_factor(tau, grid=(64, 32), tol=None):
    """``project_to_torus_factor`` with its two ``heights`` calls before it
    stacked their queries."""
    geom = tau.geom
    n_gx, n_gy = grid
    y_c = 0.5 * (geom.y_min + geom.y_max)
    xs = (np.arange(n_gx) + 0.5) / n_gx
    ys = y_c - 0.5 + (np.arange(n_gy) + 0.5) / n_gy
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    z = np.column_stack([X.ravel(), Y.ravel()])
    skew = tau.skew
    vals = heights(tau, z, tol=tol)[0].reshape(X.shape)
    imgs = heights(tau, skew.spec.annulus_map(z), tol=tol)[0].reshape(X.shape)
    defects = circle_dist(wrap01(imgs), wrap01(vals + skew.rho))
    monotone = bool(np.all(np.diff(vals, axis=1) >= -2.0 * geom.h_y))
    return FactorMap(x_grid=xs, y_grid=ys, values=vals,
                     defect_max=float(np.max(defects)),
                     defect_mean=float(np.mean(defects)), monotone_in_y=monotone)


@pytest.mark.parametrize("name", ["rigid", "suspension", "pushed"])
def test_reports_match_separate_height_calls(built_regions, name):
    tau = built_regions[name]
    for tol, seed in ((None, 0), (1e-300, 5)):
        tau._fills.clear()
        eq = verify_equivariance(tau, samples=24, tol=tol, s_ladder=4, seed=seed)
        tau._fills.clear()
        assert (eq.unit_translate_defect, eq.map_defect) == \
            reference_equivariance_defects(tau, samples=24, tol=tol, seed=seed)
        tau._fills.clear()
        fm = project_to_torus_factor(tau, grid=(12, 6), tol=tol)
        tau._fills.clear()
        want = reference_torus_factor(tau, grid=(12, 6), tol=tol)
        assert fm.values.tobytes() == want.values.tobytes()
        assert (fm.defect_max, fm.defect_mean, fm.monotone_in_y) == \
            (want.defect_max, want.defect_mean, want.monotone_in_y)
    tau._fills.clear()
