import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import torusdyn.factor
import torusdyn.skew
from conftest import assert_reaped
from labels_reference import (component_names, ndimage_components_meeting,
                              ndimage_label_x_wrapped)
from torusdyn.circle import CircleLift, build_denjoy
from torusdyn.factor import build_tau
from torusdyn.gallery import suspension_map
from torusdyn.skew import (GridGeometry, GridMask, SkewState, _components_meeting,
                           ball_fiber, build_centralized,
                           check_closed_form,
                           check_commutation, close_fibers, component_of,
                           _dilated_fiber, extend_to_envelopes,
                           fiber_complement_components, gamma_flow, geometry_for,
                           invariance_defect, refine_envelopes,
                           saturate_block_orbit, vertical_orbit_bound)
from torusdyn.torus import (ComposedMap, DehnTwist, DiskPush, RigidTranslation,
                            SuspensionMap)
from torusdyn.util import GOLDEN_MEAN, SQRT2_MINUS_1, skew_dist, wrap01

A, B = GOLDEN_MEAN, SQRT2_MINUS_1


@pytest.fixture(scope="module")
def rigid_skew():
    return build_centralized(RigidTranslation(A, B), B, c_est=0.0)


@pytest.fixture(scope="module")
def susp_skew():
    susp = SuspensionMap(CircleLift.rigid(A), CircleLift.rigid(B))
    return build_centralized(susp, A * B, c_est=B)


def test_build_rigid_freezes_vertical(rigid_skew):
    out = rigid_skew.step(np.array([[0.2, 0.3, 0.7]]))
    assert out[0] == pytest.approx([wrap01(0.2 + B), wrap01(0.3 + A), 0.7],
                                   abs=1e-12)


def test_build_identity():
    skew = build_centralized(RigidTranslation(0, 0), 0.0)
    s = np.array([[0.2, 0.3, 0.7]])
    assert np.array_equal(skew.step(s), s)


def test_build_twist_formula():
    skew = build_centralized(DehnTwist(1), 0.0)
    out = skew.step(np.array([[0.2, 0.3, 0.7]]))
    assert out[0] == pytest.approx([0.2, wrap01(0.3 + 0.7 + 0.2), 0.7], abs=1e-12)


def test_iterate_zero_and_roundtrip(rigid_skew, susp_skew):
    s = SkewState(0.1, 0.2, 0.3).as_array()
    assert np.array_equal(rigid_skew.iterate(s, 0), s)
    for skew in (rigid_skew, susp_skew):
        arr = np.array([[0.1, 0.2, 0.3], [0.9, 0.4, -1.1]])
        back = skew.iterate(skew.iterate(arr, 7), -7)
        assert np.max(np.abs(back - arr)) <= 1e-8


def test_rigid_closed_orbit(rigid_skew):
    n = 13
    t, x, ytil = rigid_skew.iterate(np.array([0.1, 0.2, 0.3]), n)
    assert t == pytest.approx(wrap01(0.1 + n * B), abs=1e-10)
    assert x == pytest.approx(wrap01(0.2 + n * A), abs=1e-10)
    assert ytil == pytest.approx(0.3, abs=1e-10)


def test_gamma_flow_properties():
    s = np.array([0.2, 0.4, 1.5])
    assert np.array_equal(gamma_flow(s, 0.0), s)
    # integer period acts only on the fiber height
    out = gamma_flow(s, 1.0)
    assert out == pytest.approx([0.2, 0.4, 0.5], abs=1e-15)


@given(u=st.floats(-3, 3), v=st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_gamma_flow_law(u, v):
    s = np.array([0.37, 0.81, -0.25])
    a = gamma_flow(gamma_flow(s, u), v)
    b = gamma_flow(s, u + v)
    assert skew_dist(a, b) <= 1e-12


def test_gamma_isometry():
    rng = np.random.default_rng(0)
    p = rng.uniform(-1, 1, (200, 3))
    q = rng.uniform(-1, 1, (200, 3))
    d0 = skew_dist(p, q)
    d1 = skew_dist(gamma_flow(p, 0.73), gamma_flow(q, 0.73))
    assert np.max(np.abs(d1 - d0)) <= 1e-12


def test_commutation_thresholds(rigid_skew, susp_skew):
    assert check_commutation(rigid_skew, samples=300).defect <= 1e-12
    assert check_commutation(susp_skew, samples=300).defect <= 1e-10
    tw = build_centralized(DehnTwist(1), 0.0)
    assert check_commutation(tw, samples=300).defect <= 1e-10


def test_closed_form_oracle(rigid_skew, susp_skew):
    assert check_closed_form(rigid_skew, samples=100).defect <= 1e-7
    assert check_closed_form(susp_skew, samples=100).defect <= 1e-7


def test_vertical_orbit_bound(rigid_skew, susp_skew):
    assert vertical_orbit_bound(rigid_skew, SkewState(0.1, 0.2, 0.0),
                                n_max=300) <= 1e-12
    osc = vertical_orbit_bound(susp_skew, SkewState(0.1, 0.2, 0.0), n_max=2000)
    assert osc <= 2.0 * B + 1e-9


@pytest.mark.parametrize("n_max", [0, -5])
def test_vertical_orbit_bound_rejects_empty_ladder(n_max):
    # an orbit of no steps has oscillation 0, which read as bounded even on
    # the twist, whose oscillation over 50 steps is 30
    twist = build_centralized(DehnTwist(1), 0.3)
    state = SkewState(0.1, 0.2, 0.0)
    assert vertical_orbit_bound(twist, state, n_max=50) == pytest.approx(30.0)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        vertical_orbit_bound(twist, state, n_max=n_max)


# -- grids ---------------------------------------------------------------------


def padded_dilation(occ):
    """One-cell box dilation between two guard rows, fiber by fiber."""
    return np.stack([_dilated_fiber(occ, j) for j in range(occ.shape[0])])


def dilate_mask(occ):
    """One-cell box dilation; t and x wrap, y clamps."""
    return padded_dilation(occ)[:, :, 1:-1]


def small_geom(skew, n=48):
    return geometry_for(skew, center_y=0.0, n_t=n, n_x=n, n_y=2 * n)


def test_geometry_unit_is_exact_cells(rigid_skew):
    geom = small_geom(rigid_skew)
    m = round(1.0 / geom.h_y)
    assert m * geom.h_y == pytest.approx(1.0, abs=1e-12)
    assert geom.y_max - geom.y_min == pytest.approx(geom.n_y * geom.h_y)


def test_geometry_rejects_small_window(rigid_skew):
    with pytest.raises(ValueError):
        geometry_for(rigid_skew, half_height=0.5)


def test_geometry_rejects_negative_c_est_and_empty_window():
    # either would collapse the window to 1/M = 1 cells, which the seed ball
    # of a build then misses
    for c_est in (-5.0, -1e-300, float("nan")):
        with pytest.raises(ValueError, match="c_est must be at least 0"):
            geometry_for(build_centralized(RigidTranslation(A, B), B, c_est=c_est))
    skew = build_centralized(RigidTranslation(A, B), B)
    for half in (0.0, -3.0, float("nan")):
        with pytest.raises(ValueError, match="half height must be positive"):
            geometry_for(skew, half_height=half)


def ball_cloud(geom, center, radius):
    """Cell centers of the fiber grid inside an annulus ball."""
    xc = (np.arange(geom.n_x) + 0.5) * geom.h_x
    yc = geom.y_min + (np.arange(geom.n_y) + 0.5) * geom.h_y
    X, Y = np.meshgrid(xc, yc, indexing="ij")
    inside = ball_fiber(center, radius)(X, Y)
    return np.column_stack([X[inside], Y[inside]])


def raster(geom, states):
    occ = np.zeros((geom.n_t, geom.n_x, geom.n_y), dtype=bool)
    occ[geom.t_cell(states[:, 0]), geom.x_cell(states[:, 1]),
        geom.y_cell(states[:, 2])] = True
    return occ


def block_states(geom, occ):
    return np.stack(geom.centers(*np.nonzero(occ)), axis=-1)


def test_block_image_is_block(rigid_skew):
    # F(block(W)) = Gamma^rho(block(f W)): the image of the half-width seed
    # block is the flow-transported block of the mapped fiber cloud
    geom = small_geom(rigid_skew)
    cloud = ball_cloud(geom, (0.5, 0.0), 0.12)
    _, blk, _, _ = saturate_block_orbit(rigid_skew, cloud, geom, max_iters=0)
    img_mask = raster(geom, rigid_skew.step(block_states(geom, blk)))
    _, blk2, _, _ = saturate_block_orbit(
        rigid_skew, rigid_skew.spec.annulus_map(cloud), geom, max_iters=0)
    moved = raster(geom, gamma_flow(block_states(geom, blk2), rigid_skew.rho))
    # Hausdorff slack of one cell: dilate each and require mutual cover
    assert not (img_mask & ~dilate_mask(moved)).any()
    assert not (moved & ~dilate_mask(img_mask)).any()


def test_saturate_identity_returns_seed():
    skew = build_centralized(RigidTranslation(0, 0), 0.0)
    geom = geometry_for(skew, n_t=16, n_x=16, n_y=32)
    occ, seed, status, _ = saturate_block_orbit(
        skew, ball_cloud(geom, (0.5, 0.0), 0.12), geom, max_iters=40)
    assert np.array_equal(occ, seed)
    assert status == "fixed-point"


def test_saturate_rigid_fills_slab(rigid_skew):
    geom = small_geom(rigid_skew, n=64)
    r = 0.15
    occ, _, status, _ = saturate_block_orbit(
        rigid_skew, ball_cloud(geom, (0.5, 0.0), r), geom, max_iters=400)
    assert status in ("fixed-point", "max-iters")
    # analytic slab: |y| <= r + 1/2; the t and x marginals cover everything
    assert occ.any(axis=(1, 2)).all()
    assert occ.any(axis=(0, 2)).all()
    ys = geom.y_min + (np.arange(geom.n_y) + 0.5) * geom.h_y
    covered = ys[occ.any(axis=(0, 1))]
    assert covered.min() == pytest.approx(-(r + 0.5), abs=3 * geom.h_y)
    assert covered.max() == pytest.approx(r + 0.5, abs=3 * geom.h_y)
    # invariant within a one-cell dilation
    assert invariance_defect(rigid_skew, GridMask(geom, occ)) == {
        "forward": 0, "backward": 0}


def test_saturate_monotone_in_iterations(rigid_skew):
    geom = small_geom(rigid_skew, n=32)
    cloud = ball_cloud(geom, (0.5, 0.0), 0.15)
    prev = None
    for iters in (2, 5, 9):
        occ, _, _, _ = saturate_block_orbit(rigid_skew, cloud, geom,
                                            max_iters=iters)
        if prev is not None:
            assert not (prev & ~occ).any()
        prev = occ


def test_saturate_window_exhaustion():
    # constant vertical drift with rho = 0 escapes any window
    skew = build_centralized(RigidTranslation(0.1, 0.3), 0.0, c_est=0.0)
    geom = geometry_for(skew, n_t=16, n_x=16, n_y=32, half_height=1.0)
    occ, _, status, _ = saturate_block_orbit(
        skew, ball_cloud(geom, (0.5, 0.0), 0.2), geom, max_iters=100)
    assert status == "window-exhausted"
    assert occ.any()  # partial mask carried


def test_saturate_block_past_window_is_exhausted():
    # each image jumps 3.5 up or down, past the window of height 4 without
    # touching its edge rows: a hit beyond the window reaches its edge
    skew = build_centralized(RigidTranslation(0.618, 3.5), 0.0)
    geom = geometry_for(skew, n_t=16, n_x=16, n_y=32)
    occ, seed, status, rounds = saturate_block_orbit(
        skew, ball_cloud(geom, (0.5, 0.0), 0.15), geom, max_iters=240)
    assert (status, rounds) == ("window-exhausted", 1)
    assert np.array_equal(occ, seed)
    tau = build_tau(skew, (0.5, 0.0), n_t=16, n_x=16, n_y=32)
    assert tau.status == "window-exhausted"


def reference_saturate(skew, pts, geom, max_iters, patience=30):
    """saturate_block_orbit with a per-image allocating raster and its own
    orbit loop through annulus_map."""
    occ = np.zeros((geom.n_t, geom.n_x, geom.n_y), dtype=bool)
    flat = occ.reshape(-1)
    t_centers = geom.centers(np.arange(geom.n_t), 0, 0)[0]

    def raster_block(w, c):
        u = t_centers - c
        u -= np.round(u)
        jx = geom.x_cell(w[:, 0])
        yy = w[None, :, 1] - u[:, None]
        column = (np.arange(geom.n_t)[:, None] * geom.n_x + jx[None, :]) * geom.n_y
        jy = geom.y_cell(yy)
        keep = (jy >= 0) & (jy < geom.n_y)
        cells = (column + jy)[keep]
        grew = not flat[cells].all()
        flat[cells] = True
        return bool(np.any((jy <= 0) | (jy >= geom.n_y - 1))), grew

    raster_block(pts, 0.0)
    seed_occ = occ.copy()
    status, stale, rounds = "max-iters", 0, 0
    fwd = bwd = pts
    for n in range(1, max_iters + 1):
        fwd = skew.spec.annulus_map(fwd)
        bwd = skew.spec.annulus_map(bwd, inverse=True)
        shift = np.array([0.0, n * skew.rho])
        edge_f, grew_f = raster_block(fwd - shift, wrap01(n * skew.rho))
        edge_b, grew_b = raster_block(bwd + shift, wrap01(-n * skew.rho))
        rounds = n
        if edge_f or edge_b:
            status = "window-exhausted"
            break
        stale = 0 if grew_f or grew_b else stale + 1
        if stale >= patience:
            status = "fixed-point"
            break
    return occ, seed_occ, status, rounds


SATURATE_CASES = {
    "rigid": (lambda: build_centralized(RigidTranslation(A, B), B, c_est=0.0),
              (32, 32, 64), {}, 60),
    "suspension": (lambda: build_centralized(
        SuspensionMap(CircleLift.rigid(A), CircleLift.rigid(B)), A * B, c_est=B),
        (32, 32, 64), {}, 60),
    "rational": (lambda: build_centralized(RigidTranslation(A, 0.25), 0.25,
                                           c_est=0.0), (16, 16, 32), {}, 40),
    "window-exhausted": (lambda: build_centralized(RigidTranslation(0.1, 0.3), 0.0,
                                                   c_est=0.0),
                         (16, 16, 32), {"half_height": 1.0}, 100),
    "past-window": (lambda: build_centralized(RigidTranslation(0.618, 3.5), 0.0),
                    (16, 16, 32), {}, 240),
    "identity": (lambda: build_centralized(RigidTranslation(0, 0), 0.0),
                 (16, 16, 32), {}, 40),
    "odd-grid": (lambda: build_centralized(RigidTranslation(A, B), B, c_est=0.0),
                 (31, 32, 64), {}, 60),
}


@pytest.mark.parametrize("name", sorted(SATURATE_CASES))
def test_saturate_matches_allocating_reference(name):
    make, (n_t, n_x, n_y), window, max_iters = SATURATE_CASES[name]
    skew = make()
    geom = geometry_for(skew, n_t=n_t, n_x=n_x, n_y=n_y, **window)
    pts = ball_cloud(geom, (0.5, 0.0), 0.15)
    occ, seed, status, rounds = reference_saturate(skew, pts, geom, max_iters)
    assert status == {"window-exhausted": "window-exhausted",
                      "past-window": "window-exhausted",
                      "identity": "fixed-point"}.get(name, "max-iters")
    got = saturate_block_orbit(skew, pts, geom, max_iters=max_iters)
    assert got[0].shape == got[1].shape == (n_t, n_x, n_y)
    assert got[0].tobytes() == occ.tobytes()
    assert got[1].tobytes() == seed.tobytes()
    assert got[2:] == (status, rounds)


# -- envelope refinement -------------------------------------------------------


def dense_envelopes(skew, clouds, rounds):
    """The per-image envelope update that the phase buckets replaced: each
    image lowers (raises) the whole (n_t, n_x) table by its column extremes
    minus every fiber's flow offset. ``clouds`` lists (pts, geom) pairs;
    their orbits are walked together, one map evaluation per direction and
    round, and the images are taken 64 at a time. Min and max are exact, so
    neither changes a bit. Returns one (env_min, env_max) per cloud."""
    bounds = np.cumsum([0] + [len(pts) for pts, _ in clouds])
    tables = [(geom, geom.centers(np.arange(geom.n_t), 0, 0)[0],
               np.full((geom.n_t, geom.n_x), np.inf),
               np.full((geom.n_t, geom.n_x), -np.inf)) for _, geom in clouds]

    def update(w, c):
        # w holds the images of the stacked clouds, c their block phases
        for (geom, t_centers, env_min, env_max), a, b in zip(tables, bounds,
                                                             bounds[1:]):
            u = t_centers[None, :] - c[:, None]
            u -= np.round(u)
            jx = geom.x_cell(w[:, a:b, 0]) + geom.n_x * np.arange(len(c))[:, None]
            colmin = np.full((len(c), geom.n_x), np.inf)
            colmax = np.full((len(c), geom.n_x), -np.inf)
            np.minimum.at(colmin.reshape(-1), jx.ravel(), w[:, a:b, 1].ravel())
            np.maximum.at(colmax.reshape(-1), jx.ravel(), w[:, a:b, 1].ravel())
            np.minimum(env_min, (colmin[:, None, :] - u[:, :, None]).min(axis=0),
                       out=env_min)
            np.maximum(env_max, (colmax[:, None, :] - u[:, :, None]).max(axis=0),
                       out=env_max)

    pts = np.vstack([pts for pts, _ in clouds])
    update(pts[None], np.zeros(1))
    w = np.empty((64,) + pts.shape)
    c = np.empty(64)
    fwd = bwd = pts
    k = 0
    for n in range(1, rounds + 1):
        fwd = skew.spec.annulus_map(fwd)
        bwd = skew.spec.annulus_map(bwd, inverse=True)
        w[k], w[k + 1] = fwd, bwd
        w[k, :, 1] -= n * skew.rho
        w[k + 1, :, 1] += n * skew.rho
        c[k], c[k + 1] = wrap01(n * skew.rho), wrap01(-n * skew.rho)
        k += 2
        if k == len(c) or n == rounds:
            update(w[:k], c[:k])
            k = 0
    return [(env_min, env_max) for *_, env_min, env_max in tables]


def _denjoy_suspension():
    susp = suspension_map(CircleLift.rigid(A), build_denjoy(B, N=20))
    return build_centralized(susp.torus_map, susp.rho_base * susp.rho_fiber)


ENVELOPE_SKEWS = {
    "rigid": lambda: build_centralized(RigidTranslation(A, B), B),
    # block phases on the bucket edges: the odd multiples of 5/64 fall on
    # the edges of n_t = 32, the multiples of 1/3 on those of n_t = 15
    "rigid-5/64": lambda: build_centralized(RigidTranslation(A, 5 / 64), 5 / 64),
    "rigid-1/3": lambda: build_centralized(RigidTranslation(A, 1 / 3), 1 / 3),
    "suspension": lambda: build_centralized(
        SuspensionMap(CircleLift.rigid(A), CircleLift.rigid(B)), A * B),
    "denjoy-suspension": _denjoy_suspension,
}


def seed_ring(center, radius, n_ring=1024):
    """n_ring points of a ball's boundary circle, spaced as the region build
    spaces the 1,024 of its ring."""
    theta = 2.0 * np.pi * (np.arange(n_ring) + 0.5) / n_ring
    return np.column_stack([center[0] + radius * np.cos(theta),
                            center[1] + radius * np.sin(theta)])


def envelope_cloud(geom, x0, radius, n_ring):
    """A ball cloud at (x0, 0) and n_ring points of its boundary circle, in
    one cloud: a walk of every point, interior and boundary alike."""
    return np.vstack([ball_cloud(geom, (x0, 0.0), radius),
                      seed_ring((x0, 0.0), radius, n_ring)])


def extended_rows(geom, env_min, env_max):
    """The cells extend_to_envelopes adds to an empty grid."""
    occ = np.zeros((geom.n_t, geom.n_x, geom.n_y), dtype=bool)
    return extend_to_envelopes(occ, geom, env_min, env_max)


@pytest.mark.parametrize("cap", [0, 1, 7, 300])
@pytest.mark.parametrize("n_t,n_x", [(15, 16), (32, 32)])
@pytest.mark.parametrize("name", sorted(ENVELOPE_SKEWS))
def test_refine_envelopes_matches_dense_update(name, n_t, n_x, cap, monkeypatch):
    monkeypatch.setattr(torusdyn.skew, "_ENVELOPE_ROUNDS", cap)
    skew = ENVELOPE_SKEWS[name]()
    geom = geometry_for(skew, center_y=0.0, n_t=n_t, n_x=n_x, n_y=2 * n_x,
                        half_height=2.0)
    # the ring around x0 = 0.05 crosses the x seam, so its x starts outside
    # [0, 1)
    for x0, radius in ((0.5, 0.12), (0.05, 0.15)):
        check_refined_envelopes(skew, geom, cap, x0, radius)


def check_refined_envelopes(skew, geom, cap, x0, radius):
    n_t, n_x = geom.n_t, geom.n_x
    pts = envelope_cloud(geom, x0, radius, 64)
    *got, rounds = refine_envelopes(skew, pts, geom)
    # checkpoints fall at 16, 32, 64, ... rounds and at the cap; the first
    # has no earlier rows to match
    assert rounds == cap or (rounds < cap and rounds in (32, 64, 128, 256))
    want, = dense_envelopes(skew, [(pts, geom)], rounds)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (n_t, n_x)
        finite = np.isfinite(w)
        assert np.array_equal(np.isfinite(g), finite)
        assert np.array_equal(g[~finite], w[~finite])
        assert np.max(np.abs(g[finite] - w[finite]), initial=0.0) <= 1e-15
    if rounds == 0:  # the seed's columns alone
        assert not np.isfinite(got[0]).all()
    assert np.array_equal(extended_rows(geom, *got), extended_rows(geom, *want))


def pushed_skew(a, b, center, push, radius):
    """The rigid map (a, b) followed by a disk push, at rho = b."""
    center = np.asarray(center)
    return build_centralized(ComposedMap([
        RigidTranslation(a, b), DiskPush(center, center + push, radius)]), b)


envelope_skews = st.one_of(
    st.sampled_from(sorted(ENVELOPE_SKEWS)).map(lambda name: ENVELOPE_SKEWS[name]()),
    st.builds(pushed_skew, st.floats(0, 1), st.floats(-0.5, 0.5),
              st.tuples(st.floats(0, 1), st.floats(-0.5, 0.5)),
              st.tuples(st.floats(-0.03, 0.03), st.floats(-0.03, 0.03)),
              st.floats(0.13, 0.24)))


@given(skew=envelope_skews, n_t=st.integers(3, 16), n_x=st.integers(4, 24),
       center=st.tuples(st.floats(0, 1), st.floats(-0.5, 0.5)),
       radius=st.floats(0.05, 0.3), max_iters=st.integers(0, 12),
       rounds=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_ring_walk_lies_inside_the_full_cloud_walk(skew, n_t, n_x, center, radius,
                                                   max_iters, rounds):
    # the ring is a subset of the ball cloud and ring that the walk once
    # followed, so after as many rounds its envelopes lie inside theirs, and
    # so does the region extended to them, closed and cut to the seed's
    # component: every stage after the walk is monotone
    geom = geometry_for(skew, center_y=center[1], n_t=n_t, n_x=n_x, n_y=2 * n_x,
                        half_height=2.0)
    pts = ball_cloud(geom, center, radius)
    assume(len(pts))
    occ, seed_occ, *_ = saturate_block_orbit(skew, pts, geom, max_iters=max_iters)
    ring = seed_ring(center, radius)
    with pytest.MonkeyPatch.context() as mp:
        # the first checkpoint is the cap: both walks take exactly `rounds`
        mp.setattr(torusdyn.skew, "_ENVELOPE_CHUNK", rounds)
        mp.setattr(torusdyn.skew, "_ENVELOPE_ROUNDS", rounds)
        *inner, walked = refine_envelopes(skew, ring, geom)
        *outer, full_walked = refine_envelopes(skew, np.vstack([pts, ring]), geom)
    assert walked == full_walked == rounds
    assert (inner[0] >= outer[0]).all() and (inner[1] <= outer[1]).all()
    regions = []
    for env_min, env_max in (inner, outer):
        mask = GridMask(geom, close_fibers(
            extend_to_envelopes(occ.copy(), geom, env_min, env_max)))
        component_of(mask, seed_occ)
        regions.append(mask.occ)
    assert not (regions[0] & ~regions[1]).any()


def test_ring_walk_keeps_two_cells_fewer_on_one_pushed_map(monkeypatch):
    # the one input known to differ: the ring's sampled image misses a column
    # extreme that an interior cell center reaches. Both builds exhaust the
    # window, so the CLI exits 3 on either
    rho = 0.6227839023579725
    skew = build_centralized(ComposedMap([
        RigidTranslation(0.49628800860494526, rho),
        DiskPush((0.29999992916061924, 0.008125675218756623),
                 (0.3349949361382909, 0.02530850284911494), 0.1771678857392966)]),
        rho, c_est=0.3)
    seed, radius = (0.716506189798748, -0.22548369614428185), 0.10947965499128279

    def build():
        return build_tau(skew, seed, ball_radius=radius, n_t=24, n_x=24, n_y=48)

    by_ring = build()

    def full_cloud_walk(skew, ring, geom):
        cloud = np.vstack([ball_cloud(geom, seed, radius), ring])
        return refine_envelopes(skew, cloud, geom)

    monkeypatch.setattr(torusdyn.factor, "refine_envelopes", full_cloud_walk)
    by_cloud = build()
    assert (by_ring.mask.count, by_cloud.mask.count) == (11_555, 11_557)
    assert not (by_ring.mask.occ & ~by_cloud.mask.occ).any()
    lost = np.argwhere(by_cloud.mask.occ & ~by_ring.mask.occ).tolist()
    assert lost == [[16, 8, 35], [16, 8, 36]]
    for tau in (by_ring, by_cloud):
        assert tau.status == "window-exhausted"
        assert tau.mask.provenance["refine_rounds"] == 4096
        assert tau.invariance == {"forward": 0, "backward": 0}


def envelope_bits(result):
    env_min, env_max, rounds = result
    return env_min.tobytes(), env_max.tobytes(), rounds


@pytest.mark.parametrize("cap", [0, 1, 7, 300, 20_000])
@pytest.mark.parametrize("name", [*sorted(ENVELOPE_SKEWS), "pushed"])
def test_envelope_schedules_agree(name, cap, monkeypatch, both_schedules):
    # the two directions' tables are merged by exact min and max, so the
    # walk in two processes gives every bit of the walk in one
    monkeypatch.setattr(torusdyn.skew, "_ENVELOPE_ROUNDS", cap)
    skew = (pushed_skew(A, B, (0.4, 0.1), (0.02, -0.01), 0.2) if name == "pushed"
            else ENVELOPE_SKEWS[name]())
    geom = geometry_for(skew, center_y=0.0, n_t=15, n_x=16, n_y=32,
                        half_height=2.0)
    pts = envelope_cloud(geom, 0.05, 0.15, 64)
    forked, here = both_schedules(lambda: envelope_bits(
        refine_envelopes(skew, pts, geom)))
    assert forked == here
    assert here[2] <= cap


def test_envelope_schedules_agree_on_an_early_stop(both_schedules):
    # rigid 32x32x64 stops at a checkpoint, 512 rounds, long before the cap
    skew = ENVELOPE_SKEWS["rigid"]()
    geom = geometry_for(skew, n_t=32, n_x=32, n_y=64)
    pts = envelope_cloud(geom, 0.5, 0.15, 256)
    forked, here = both_schedules(lambda: envelope_bits(
        refine_envelopes(skew, pts, geom)))
    assert forked == here
    assert here[2] == 512


def test_envelope_walk_leaves_no_child(fork_pids, monkeypatch):
    skew = ENVELOPE_SKEWS["rigid"]()
    geom = geometry_for(skew, n_t=32, n_x=32, n_y=64)
    pts = envelope_cloud(geom, 0.5, 0.15, 256)
    # a stop at a checkpoint, while the backward half may still be walking
    assert refine_envelopes(skew, pts, geom)[2] == 512
    # a return at the cap
    monkeypatch.setattr(torusdyn.skew, "_ENVELOPE_ROUNDS", 40)
    assert refine_envelopes(skew, pts, geom)[2] == 40
    # an exception in the backward half
    calls = itertools.count()
    inverse = skew.spec.eval_inverse

    def failing_inverse(w):
        if next(calls) == 20:
            raise ValueError("no inverse after 20 steps")
        return inverse(w)

    monkeypatch.setattr(skew.spec, "eval_inverse", failing_inverse)
    with pytest.raises(ValueError, match=r"^no inverse after 20 steps$"):
        refine_envelopes(skew, pts, geom)
    assert len(fork_pids) == 3
    assert_reaped(fork_pids)


# geometries of the region build, as the CLI's golden runs and the tests
# build them: (skew, resolution, half height, ball radius, rounds walked).
# Suspension 3.1 still changes a row after 16,384 rounds. The clouds are
# each ball's cell centers and 256 points of its boundary circle, where the
# build walks its 1,024-point ring alone: that quarters the reference walk,
# and both walk the rounds below
ENVELOPE_WALKS = {
    "rigid-32": ("rigid", (32, 32, 64), None, 0.15, 512),
    "rigid-31": ("rigid", (31, 32, 64), None, 0.15, 512),
    "rigid-tight-window": ("rigid", (32, 32, 64), 1.0, 0.47, 1024),
    "rigid-8": ("rigid", (8, 8, 16), None, 0.15, 512),
    "suspension-32": ("suspension", (32, 32, 64), None, 0.15, 20_000),
}


@pytest.mark.parametrize("key", ["rigid", "suspension"])
def test_refine_envelopes_stops_with_the_rows_of_the_cap(key):
    # the walk stops once the extended rows have not changed over its last
    # half; the rows it stops at are those of the full 20,000 rounds
    skew = ENVELOPE_SKEWS[key]()
    walked, clouds, got = {}, [], []
    for name, (k, (n_t, n_x, n_y), half_height, radius, _) in ENVELOPE_WALKS.items():
        if k == key:
            geom = geometry_for(skew, n_t=n_t, n_x=n_x, n_y=n_y,
                                half_height=half_height)
            pts = envelope_cloud(geom, 0.5, radius, 256)
            *envelopes, walked[name] = refine_envelopes(skew, pts, geom)
            clouds.append((pts, geom))
            got.append(envelopes)
    assert walked == {name: walk[-1] for name, walk in ENVELOPE_WALKS.items()
                      if walk[0] == key}
    want = dense_envelopes(skew, clouds, 20_000)
    for name, (_, geom), g, w in zip(walked, clouds, got, want):
        assert np.array_equal(extended_rows(geom, *g), extended_rows(geom, *w)), name


def test_fiber_complement_components(rigid_skew):
    geom = small_geom(rigid_skew, n=32)
    occ = np.zeros((geom.n_t, geom.n_x, geom.n_y), dtype=bool)
    occ[:, :, 20:30] = True  # horizontal band
    comps, _ = fiber_complement_components(GridMask(geom, occ), 0.4)
    unbounded = [c for c in comps if c.unbounded]
    assert len(comps) == 2 and len(unbounded) == 2
    assert {c.touches_top for c in unbounded} == {True, False}

    empty, _ = fiber_complement_components(GridMask(geom, np.zeros_like(occ)), 0.0)
    assert len(empty) == 1
    assert empty[0].touches_bottom and empty[0].touches_top


def flood_fill_labels(occ, shifts=()):
    """Reference labeling of a (n_t, n_x, n_y) stack by breadth-first search.

    Neighbors: x +-1 (wrapping) and y +-1 inside a fiber, and for each shift
    sh the cell (t + 1, x, y - sh) of the next fiber (t wrapping), both ways.
    """
    n_t, n_x, n_y = occ.shape
    labels = np.zeros(occ.shape, dtype=np.int64)
    count = 0
    for start in zip(*np.nonzero(occ)):
        if labels[start]:
            continue
        count += 1
        labels[start] = count
        queue = [start]
        while queue:
            t, x, y = queue.pop()
            nbrs = [(t, (x + 1) % n_x, y), (t, (x - 1) % n_x, y),
                    (t, x, y + 1), (t, x, y - 1)]
            for sh in shifts:
                nbrs += [((t + 1) % n_t, x, y - sh), ((t - 1) % n_t, x, y + sh)]
            for c in nbrs:
                if 0 <= c[2] < n_y and occ[c] and not labels[c]:
                    labels[c] = count
                    queue.append(c)
    return labels


def assert_same_partition(got, ref, occ):
    assert np.array_equal(got > 0, occ)
    pairs = set(zip(got[occ].tolist(), ref[occ].tolist()))
    assert len(pairs) == len(set(got[occ].tolist())) == len(set(ref[occ].tolist()))


def bits(shape):
    """Boolean arrays with every cell drawn independently."""
    return arrays(bool, shape, elements=st.booleans(), fill=st.nothing())


@given(occ=bits(st.tuples(st.integers(1, 6), st.integers(1, 6))))
@settings(max_examples=200, deadline=None)
def test_label_x_wrapped_matches_flood_fill(occ):
    assert_same_partition(component_names(occ), flood_fill_labels(occ[None])[0], occ)


def spiral(n_x, n_y):
    """One path of cells winding inwards from the corner, a free cell
    between its turns: its runs join in a long chain."""
    occ = np.zeros((n_x, n_y), dtype=bool)
    x, y, dx, dy = 0, 0, 0, 1
    occ[x, y] = True
    while True:
        for _ in range(2):
            nx, ny = x + dx, y + dy
            ax, ay = nx + dx, ny + dy
            if (0 <= nx < n_x and 0 <= ny < n_y and not occ[nx, ny]
                    and not (0 <= ax < n_x and 0 <= ay < n_y and occ[ax, ay])):
                break
            dx, dy = dy, -dx  # turn
        else:
            return occ
        x, y = nx, ny
        occ[x, y] = True


def dense_names(names):
    """Names renumbered 0, 1, ... in increasing order."""
    return np.unique(names, return_inverse=True)[1].reshape(names.shape)


@st.composite
def label_cases(draw):
    """(occ, links, seed): fibers, and stacks with link shifts from 0 to
    past n_y; n_x of 1 included, where the x seam joins a line to itself."""
    n_x, n_y = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        shape, links = (n_x, n_y), ()
    else:
        shape = (draw(st.integers(1, 5)), n_x, n_y)
        links = draw(st.sets(st.integers(0, n_y + 2), max_size=2))
    return draw(bits(shape)), links, draw(bits(shape))


_SPIRAL = spiral(9, 12)
_STACK = np.stack([_SPIRAL, ~_SPIRAL, _SPIRAL[::-1]])


@given(case=label_cases())
@example(case=(np.zeros((3, 4, 5), dtype=bool), {1}, np.ones((3, 4, 5), dtype=bool)))
@example(case=(np.ones((3, 4, 5), dtype=bool), {0, 5}, np.arange(60).reshape(3, 4, 5) == 7))
@example(case=(np.array([[True, False, True, True]]), (), np.zeros((1, 4), dtype=bool)))
@example(case=(np.array([[[1, 0, 1, 1]], [[0, 1, 1, 0]]], dtype=bool), {0, 1},
               np.array([[[0, 0, 0, 1]], [[0, 0, 0, 0]]], dtype=bool)))
@example(case=(_SPIRAL, (), np.eye(9, 12, dtype=bool)))
@example(case=(~_SPIRAL, (), _SPIRAL))
@example(case=(_STACK, {0}, np.arange(_STACK.size).reshape(_STACK.shape) == 200))
@settings(max_examples=300, deadline=None)
def test_run_labels_match_ndimage(case):
    occ, links, seed = case
    lab, root = ndimage_label_x_wrapped(occ, links)
    # the same partition, named in the raster order of the first cells
    assert np.array_equal(dense_names(component_names(occ, links)), dense_names(root[lab]))
    for s in (seed, np.s_[..., 0]):
        assert np.array_equal(_components_meeting(occ, s, links),
                              ndimage_components_meeting(occ, s, links))


@given(data=st.data(), n_t=st.integers(1, 4), n_x=st.integers(1, 5),
       n_y=st.sampled_from((1, 2, 3, 4, 6)),
       sigma=st.sampled_from((1.0, 2.0, 0.5, 1.5)))
@settings(max_examples=200, deadline=None)
def test_component_of_matches_flood_fill(data, n_t, n_x, n_y, sigma):
    # these heights give exact cell sizes: an integer sigma links each fiber
    # to the next by one shift, a non-integer sigma by two
    geom = GridGeometry(n_t, n_x, n_y, 0.0, n_y / (n_t * sigma))
    assert geom.fiber_shift_cells() == sigma
    occ = data.draw(bits((n_t, n_x, n_y)))
    seed = data.draw(bits((n_t, n_x, n_y)))
    ref = flood_fill_labels(occ, {int(np.floor(sigma)), int(np.ceil(sigma))})
    want = np.isin(ref, ref[seed & occ]) & occ
    assert np.array_equal(component_of(GridMask(geom, occ), seed), want)


def test_snapped_windows_link_by_the_exact_shift(rigid_skew):
    # geometry_for snaps the cells to height 1/m, so a t cell shifts the
    # fibers by m / n_t cells. Every window of half height 2 up to 1024 rows
    # whose m a t count n_t >= 2 divides shifts by the integer m // n_t (the
    # ratio h_t / h_y rounds off it in 487 of these 4,840, 10.999999999999998
    # at n_t = 3 and n_y = 132), and component_of links by it alone: a cell
    # one row above or below the linked one stays apart
    for n_y in range(3, 1025):
        m = -(-n_y // 4)
        for n_t in range(2, m + 1):
            if m % n_t:
                continue
            for center_y in (0.0, 0.37, -5.2):
                geom = geometry_for(rigid_skew, center_y=center_y, n_t=n_t, n_x=1,
                                    n_y=n_y, half_height=2.0)
                assert geom.fiber_shift_cells() == m // n_t
            sh = m // n_t
            occ = np.zeros((n_t, 1, n_y), dtype=bool)
            occ[0, 0, n_y - 1] = True
            below = [r for r in (n_y - sh, n_y - 2 - sh) if 0 <= r]
            occ[1, 0, below] = True
            seed = np.zeros_like(occ)
            seed[0, 0, n_y - 1] = True
            assert component_of(GridMask(geom, occ.copy()), seed).sum() == 1
            if n_y - 1 - sh >= 0:
                occ[1, 0, n_y - 1 - sh] = True
                assert component_of(GridMask(geom, occ), seed).sum() == len(below) + 2


@given(fiber=bits(st.tuples(st.integers(1, 6), st.integers(1, 6))))
@settings(max_examples=200, deadline=None)
def test_fiber_complement_components_match_flood_fill(fiber):
    geom = GridGeometry(1, *fiber.shape, 0.0, 1.0)
    comps, it = fiber_complement_components(GridMask(geom, fiber[None]), 0.0)
    # flood fill numbers components in the raster order of their first cells
    ref = flood_fill_labels(~fiber[None])[0]
    want = [(bool((ref[:, 0] == k).any()), bool((ref[:, -1] == k).any()))
            for k in range(1, ref.max(initial=0) + 1)]
    assert it == 0
    assert [(c.touches_bottom, c.touches_top) for c in comps] == want


def test_grid_geometry_rejects_empty_sizes_and_window():
    for sizes in ((0, 4, 4), (4, -8, 4), (4, 4, 0)):
        with pytest.raises(ValueError):
            GridGeometry(*sizes, 0.0, 1.0)
    with pytest.raises(ValueError):
        GridGeometry(4, 4, 4, 1.0, 1.0)


def test_invariance_defect_exact_counts():
    # a 5x4 block of cells moved 2 columns leaves the one-cell dilation with
    # its last column (4 rows in each of 4 fibers), both ways; moved 1 it
    # stays. Moved 1.25 columns or rows, only the inset corner samples of
    # the leading column or row leave it, and only forwards.
    geom = GridGeometry(4, 16, 8, -1.0, 1.0)
    occ = np.zeros((4, 16, 8), dtype=bool)
    occ[:, 3:8, 2:6] = True
    mask = GridMask(geom, occ)
    for offset, fwd, bwd in (((2 / 16, 0), 16, 16), ((1 / 16, 0), 0, 0),
                             ((1.25 / 16, 0), 16, 0), ((0, 1.25 * geom.h_y), 20, 0)):
        skew = build_centralized(RigidTranslation(*offset), 0.0)
        assert invariance_defect(skew, mask) == {"forward": fwd, "backward": bwd}


def invariance_per_sample(skew, mask):
    """invariance_defect with the image fiber of every sample looked up, as
    first written."""
    geom = mask.geom
    dil = ndimage.maximum_filter(mask.occ, size=3,
                                 mode=("wrap", "wrap", "constant"))
    insets = np.array([(0.0, 0.0), (-0.25, -0.25), (-0.25, 0.25),
                       (0.25, -0.25), (0.25, 0.25)])
    bad = {"forward": 0, "backward": 0}
    for it in range(geom.n_t):
        ix, iy = np.nonzero(mask.occ[it])
        if not ix.size:
            continue
        t, x, y = geom.centers(it, ix, iy)
        pts = np.empty((len(insets), ix.size, 3))
        pts[..., 0] = t
        pts[..., 1] = x + insets[:, :1] * geom.h_x
        pts[..., 2] = y + insets[:, 1:] * geom.h_y
        for inverse, key in ((False, "forward"), (True, "backward")):
            img = skew.step(pts.reshape(-1, 3), inverse=inverse)
            jy = geom.y_cell(img[:, 2])
            inside = (jy >= 0) & (jy < geom.n_y)
            ok = np.zeros(jy.shape, dtype=bool)
            ok[inside] = dil[geom.t_cell(img[inside, 0]),
                             geom.x_cell(img[inside, 1]), jy[inside]]
            bad[key] += int((~ok.reshape(len(insets), -1).all(axis=0)).sum())
    return bad


# a small push whose support the coarse grids below meet, so that counts
# are nonzero
PUSH = DiskPush((0.3, 0.3), (0.32, 0.31), 0.1)


def _gapped_image_column():
    """A solid column x = 1, rows 1-6, in fiber 0, and only its end rows in
    fibers 2-4. With offset (0, 1/2) and rho = 1/2, F moves fiber 0 to fiber 3
    and keeps each cell, both ways: the two end cells land in the dilation,
    whose column x = 1 has a gap at rows 3-4, so those two cells leave it."""
    occ = np.zeros((6, 3, 8), dtype=bool)
    occ[0, 1, 1:7] = True
    occ[2:5, 1, [1, 6]] = True
    return occ


def _twisted_one_run_column():
    """One fiber of a (1, 6, 4) grid on [-1, 1] whose column x = 1 is one run
    over all four rows. The twist moves each sample along x by its height,
    so the column's images spread over several columns: forwards both end
    cells land in the dilation, but row 1 reaches column 3, whose rows 0-1
    the dilation misses. Only the per-cell check sees that cell leave."""
    occ = np.zeros((1, 6, 4), dtype=bool)
    occ[0, 0, 0] = occ[0, 1] = occ[0, 2:4, 3] = True
    occ[0, 5, [0, 1, 3]] = True
    return occ


@example(occ=_gapped_image_column(), offset=(0.0, 0.5), rho=0.5, edge_rows=False)
@example(occ=_twisted_one_run_column(), offset=(0.0, 0.0), rho=0.0, edge_rows=False)
@given(occ=arrays(bool, st.tuples(st.integers(1, 6), st.integers(1, 6),
                                  st.integers(1, 8))),
       offset=st.tuples(st.floats(-1, 1), st.floats(-0.5, 0.5)),
       rho=st.sampled_from(["edge", "-edge", B, 0.5, 0.0]),
       edge_rows=st.booleans())
@settings(max_examples=200, deadline=None)
def test_invariance_defect_matches_per_sample_fibers(occ, offset, rho, edge_rows):
    geom = GridGeometry(*occ.shape, -1.0, 1.0)
    # "edge": t + rho lands on a t cell edge, where rounding picks the cell
    rho = {"edge": 1.5 / geom.n_t, "-edge": -2.5 / geom.n_t}.get(rho, rho)
    if edge_rows:
        # images beyond the window, above and below
        occ[:, :, [0, -1]] = True
    mask = GridMask(geom, occ)
    for spec in (RigidTranslation(*offset), DehnTwist(1),
                 ComposedMap([RigidTranslation(*offset), PUSH])):
        skew = build_centralized(spec, rho)
        assert invariance_defect(skew, mask) == invariance_per_sample(skew, mask)


@st.composite
def column_masks(draw):
    """Masks of one run of rows or none per (t, x) column, a few cells
    flipped: so some columns are not one run, neighbouring runs leave gaps
    in the dilation's columns, and images of end cells leave it."""
    n_t, n_x, n_y = (draw(st.integers(1, 5)), draw(st.integers(1, 6)),
                     draw(st.integers(1, 10)))
    lo = draw(arrays(np.int64, (n_t, n_x), elements=st.integers(0, n_y)))
    size = draw(arrays(np.int64, (n_t, n_x), elements=st.integers(0, n_y)))
    rows = np.arange(n_y)
    occ = (rows >= lo[..., None]) & (rows < (lo + size)[..., None])
    return occ ^ draw(arrays(bool, occ.shape,
                             elements=st.sampled_from([False] * 9 + [True])))


column_wise_specs = st.one_of(
    st.builds(RigidTranslation, st.floats(-1, 1), st.floats(-0.5, 0.5)),
    st.builds(lambda a, b: SuspensionMap(CircleLift.rigid(a), CircleLift.rigid(b)),
              st.floats(-1, 1), st.floats(-0.5, 0.5)),
    st.builds(lambda a, b, c: ComposedMap([
        SuspensionMap(CircleLift.piecewise_affine([(0.0, a), (0.5, a + 0.3)]),
                      CircleLift.rigid(b)), RigidTranslation(0.0, c)]),
        st.floats(-1, 1), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))


@given(occ=column_masks(), spec=column_wise_specs,
       rho=st.sampled_from(["edge", "-edge", B, 0.5, 0.0]))
@settings(max_examples=300, deadline=None)
def test_invariance_end_cells_match_the_full_check(occ, spec, rho):
    assert spec.column_wise
    geom = GridGeometry(*occ.shape, -1.0, 1.0)
    rho = {"edge": 1.5 / geom.n_t, "-edge": -2.5 / geom.n_t}.get(rho, rho)
    skew = build_centralized(spec, rho)
    mask = GridMask(geom, occ)
    ends = invariance_defect(skew, mask)
    spec.column_wise = False  # every cell through the per-cell check
    assert ends == invariance_defect(skew, mask)


def test_invariance_defect_of_a_pushed_region(monkeypatch):
    # the rigid region pushed by a small disk is invariant up to a few cells:
    # the per-direction counts are nonzero and equal the per-sample body's.
    # With no envelope rounds the region is the 240 saturation rounds' alone
    monkeypatch.setattr(torusdyn.skew, "_ENVELOPE_ROUNDS", 0)
    skew = build_centralized(ComposedMap([RigidTranslation(A, B), PUSH]), B)
    tau = build_tau(skew, (0.5, 0.0), n_t=64, n_x=64, n_y=128, max_iters=240)
    assert tau.invariance == {"forward": 1, "backward": 4}
    assert invariance_per_sample(skew, tau.mask) == tau.invariance


def dilate_by_rolls(occ):
    """Box dilation axis by axis with np.roll, y rolls cut at the edge."""
    out = occ.copy()
    for axis in (0, 1, 2):
        cur = out.copy()
        for d in (-1, 1):
            r = np.roll(cur, d, axis=axis)
            if axis == 2:
                r[:, :, 0 if d == 1 else -1] = False
            out |= r
    return out


def close_each_fiber(occ):
    """Closing of each fiber by a 5x3 box from its definition: a dilation and
    then an erosion by rolled copies, x rolling round the circle and y
    between two empty rows on each side, enough for the closing's reach."""
    shifts = [(dx, dy) for dx in range(-2, 3) for dy in (-1, 0, 1)]
    out = np.empty_like(occ)
    for it in range(occ.shape[0]):
        f = np.pad(occ[it], ((0, 0), (2, 2)))
        grown = np.logical_or.reduce([np.roll(f, s, axis=(0, 1)) for s in shifts])
        shrunk = np.logical_and.reduce([np.roll(grown, s, axis=(0, 1))
                                        for s in shifts])
        out[it] = shrunk[:, 2:-2]
    return out


# x spans up to 10 cells, more than the closing's reach of 4 each way
@given(occ=arrays(bool, st.tuples(*[st.integers(1, 10)] * 3),
                  elements=st.sampled_from([False] * 4 + [True])))
@settings(max_examples=300, deadline=None)
def test_morphology_matches_references(occ):
    assert np.array_equal(dilate_mask(occ), dilate_by_rolls(occ))
    assert not padded_dilation(occ)[:, :, [0, -1]].any()
    closed = occ.copy()
    assert close_fibers(closed) is closed  # in place
    assert np.array_equal(closed, close_each_fiber(occ))


@st.composite
def banded_grids(draw):
    """Grids whose occupied rows lie in a random band [lo, hi): often one
    row, or rows reaching the window's first or last row, sometimes none."""
    n_t, n_x, n_y = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 12))
    lo = draw(st.sampled_from((0, n_y - 1)) | st.integers(0, n_y - 1))
    hi = draw(st.sampled_from((lo, lo + 1, n_y)) | st.integers(lo, n_y))
    occ = np.zeros((n_t, n_x, n_y), dtype=bool)
    occ[:, :, lo:hi] = draw(arrays(bool, (n_t, n_x, hi - lo),
                                   elements=st.sampled_from((False, True, True))))
    return occ


def extend_by_comparison(occ, geom, env_min, env_max):
    """The envelope extension as one full-grid comparison."""
    y_centers = geom.centers(0, 0, np.arange(geom.n_y))[2]
    solid = ((y_centers[None, None, :] >= env_min[:, :, None])
             & (y_centers[None, None, :] <= env_max[:, :, None]))
    return occ | solid


@given(data=st.data(), occ=banded_grids(), sigma=st.sampled_from((1.0, 2.0, 0.5, 1.5)))
@settings(max_examples=300, deadline=None)
def test_band_stages_match_full_grid_references(data, occ, sigma):
    n_t, n_x, n_y = occ.shape
    geom = GridGeometry(n_t, n_x, n_y, 0.0, n_y / (n_t * sigma))
    assert np.array_equal(close_fibers(occ.copy()), close_each_fiber(occ))

    seed = data.draw(bits(occ.shape))
    # the links the full grid uses: h_t / h_y can round below the nominal
    # sigma (0.9999999999999999 at n_t = 3, n_y = 7, sigma = 1)
    shift = geom.fiber_shift_cells()
    ref = flood_fill_labels(occ, {int(np.floor(shift)), int(np.ceil(shift))})
    mask = GridMask(geom, occ.copy())
    assert component_of(mask, seed) is mask.occ
    assert np.array_equal(mask.occ, np.isin(ref, ref[seed & occ]) & occ)

    # envelopes on cell centers, a quarter cell off them, beyond the window
    # and untouched (+-inf)
    y_centers = geom.centers(0, 0, np.arange(n_y))[2]
    quarter = geom.h_y / 4
    values = np.concatenate([y_centers, y_centers - quarter, y_centers + quarter,
                             [-1.0, geom.y_max + 1.0, -np.inf, np.inf]])
    env_min, env_max = (data.draw(arrays(float, (n_t, n_x), elements=st.sampled_from(values)))
                        for _ in range(2))
    out = occ.copy()
    assert extend_to_envelopes(out, geom, env_min, env_max) is out
    assert np.array_equal(out, extend_by_comparison(occ, geom, env_min, env_max))


def test_component_of_labels_only_the_band():
    # 64 occupied rows of 1024: the whole grid's int32 labels would take 4 MiB
    n_t, n_x, n_y = 16, 64, 1024
    occ = np.zeros((n_t, n_x, n_y), dtype=bool)
    occ[:, :, 480:544] = np.random.default_rng(0).random((n_t, n_x, 64)) < 0.6
    seed = np.zeros_like(occ)
    seed[:, :, 500] = True
    mask = GridMask(GridGeometry(n_t, n_x, n_y, 0.0, n_y / (n_t * 2.0)), occ)
    tracemalloc.start()
    try:
        component_of(mask, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.occ[:, :, 500].any()
    assert peak < 4 * occ.size / 4


# -- the default region: the seed raster extended to the envelopes ------------


@pytest.mark.parametrize("n", [32, 64])
def test_default_rigid_build_is_the_saturated_build(n):
    # with no saturation round the rigid region is already the slab
    # |y| <= r + 1/2, and 240 rounds add no cell to it
    skew = build_centralized(RigidTranslation(A, B), B)
    default, saturated = (build_tau(skew, (0.5, 0.0), n_t=n, n_x=n, n_y=2 * n,
                                    max_iters=k) for k in (0, 240))
    ys = default.geom.centers(0, 0, np.arange(2 * n))[2]
    slab = np.broadcast_to(np.abs(ys) <= 0.15 + 0.5, default.mask.occ.shape)
    assert np.array_equal(default.mask.occ, slab)
    assert np.array_equal(saturated.mask.occ, slab)
    assert default.mask.provenance["iterations"] == 0
    assert default.status == "max-iters"
    assert default.invariance == saturated.invariance == {"forward": 0, "backward": 0}


SATURATED_SKEWS = {
    "suspension": lambda: build_centralized(
        SuspensionMap(CircleLift.rigid(A), CircleLift.rigid(B)), A * B, c_est=B),
    # a push that moves the rigid region's fibers: not column-wise
    "pushed-rigid": lambda: build_centralized(
        ComposedMap([DiskPush((0.47, 0.2), (0.53, 0.2), 0.2), RigidTranslation(A, B)]),
        B, c_est=0.0),
}


# the cells that 240 rounds add, as measured: none for the pushed map below
# 128, so that size is checked too
@pytest.mark.parametrize("name, n, added", [
    ("suspension", 32, 316), ("suspension", 64, 56), ("pushed-rigid", 32, 0),
    ("pushed-rigid", 64, 0), ("pushed-rigid", 128, 1771)])
def test_saturation_adds_only_rows_next_to_the_envelope_rows(name, n, added,
                                                             monkeypatch):
    # every cell that 240 saturation rounds add to the default region lies
    # one row below or above the rows [lo, hi) its column gains from the
    # envelopes, in a column that has envelopes. The envelope walk does not
    # depend on the rounds, so both builds take the first's; the invariance
    # check, asserted elsewhere, is skipped
    walks = []
    walk = torusdyn.factor.refine_envelopes

    def walk_once(*args):
        if not walks:
            walks.append(walk(*args))
        return walks[0]

    monkeypatch.setattr(torusdyn.factor, "refine_envelopes", walk_once)
    monkeypatch.setattr(torusdyn.factor, "invariance_defect", lambda *args: {})
    skew = SATURATED_SKEWS[name]()
    default, saturated = (build_tau(skew, (0.5, 0.0), n_t=n, n_x=n, n_y=2 * n,
                                    max_iters=k) for k in (0, 240))
    env_min, env_max, _ = walks[0]
    y_centers = default.geom.centers(0, 0, np.arange(2 * n))[2]
    lo = y_centers.searchsorted(env_min, "left")
    hi = y_centers.searchsorted(env_max, "right")
    assert not (default.mask.occ & ~saturated.mask.occ).any()
    it, ix, iy = np.nonzero(saturated.mask.occ & ~default.mask.occ)
    assert ((iy == lo[it, ix] - 1) | (iy == hi[it, ix])).all()
    assert np.isfinite(env_min[it, ix]).all()
    assert it.size == added
