import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from torusdyn.circle import CircleLift, build_denjoy
from torusdyn.factor import build_tau
from torusdyn.gallery import suspension_map
from torusdyn.skew import (GridGeometry, GridMask, SkewState, _label_x_wrapped,
                           ball_fiber, build_centralized, check_closed_form,
                           check_commutation, close_fibers, dilate_mask,
                           extend_to_envelopes, fiber_complement_components,
                           gamma_flow, geometry_for, invariance_defect,
                           label_mask, refine_envelopes, saturate_block_orbit,
                           vertical_orbit_bound)
from torusdyn.torus import DehnTwist, RigidTranslation, SuspensionMap
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
                                            max_iters=iters, patience=10**9,
                                            sweep_cells=1.0)
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
    tau = build_tau(skew, (0.5, 0.0), n_t=16, n_x=16, n_y=32, refine_rounds=0)
    assert tau.status == "window-exhausted"


def reference_saturate(skew, pts, geom, max_iters, patience=30):
    """saturate_block_orbit with a per-image allocating raster and its own
    orbit loop through annulus_map; also returns the sweep half-width."""
    occ = np.zeros((geom.n_t, geom.n_x, geom.n_y), dtype=bool)
    flat = occ.reshape(-1)
    t_centers = geom.centers(np.arange(geom.n_t), 0, 0)[0]
    ts = np.sort(wrap01(skew.rho * np.arange(-max_iters, max_iters + 1)))
    gap = float(np.diff(np.concatenate([ts, [ts[0] + 1.0]])).max())
    x_frac = max(len(np.unique(geom.x_cell(pts[:, 0]))) / geom.n_x, 1e-3)
    sweep_cells = max(gap, 1.0 / (max(max_iters, 1) * x_frac)) / geom.h_y
    sweep = 0.5 * sweep_cells * geom.h_y if gap < 0.05 else 0.0

    def raster_block(w, c):
        u = t_centers - c
        u -= np.round(u)
        jx = geom.x_cell(w[:, 0])
        yy = w[None, :, 1] - u[:, None]
        column = (np.arange(geom.n_t)[:, None] * geom.n_x + jx[None, :]) * geom.n_y
        edge = grew = False
        for dy in ((0.0,) if sweep == 0.0 else (-sweep, sweep)):
            jy = geom.y_cell(yy + dy)
            keep = (jy >= 0) & (jy < geom.n_y)
            cells = (column + jy)[keep]
            grew |= not flat[cells].all()
            flat[cells] = True
            edge |= bool(np.any((jy <= 0) | (jy >= geom.n_y - 1)))
        return edge, grew

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
    return (occ, seed_occ, status, rounds), sweep


SATURATE_CASES = {
    "rigid": (lambda: build_centralized(RigidTranslation(A, B), B, c_est=0.0),
              (32, 32, 64), {}, 60),
    "suspension": (lambda: build_centralized(
        SuspensionMap(CircleLift.rigid(A), CircleLift.rigid(B)), A * B, c_est=B),
        (32, 32, 64), {}, 60),
    # the offsets of rho = 1/4 leave gaps of 1/4: no sweep
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
    (occ, seed, status, rounds), sweep = reference_saturate(skew, pts, geom,
                                                            max_iters)
    # rho = 0 and rho = 1/4 leave gaps too wide to sweep
    assert (sweep > 0.0) == (name in ("rigid", "suspension", "odd-grid"))
    assert status == {"window-exhausted": "window-exhausted",
                      "past-window": "window-exhausted",
                      "identity": "fixed-point"}.get(name, "max-iters")
    got = saturate_block_orbit(skew, pts, geom, max_iters=max_iters)
    assert got[0].shape == got[1].shape == (n_t, n_x, n_y)
    assert got[0].tobytes() == occ.tobytes()
    assert got[1].tobytes() == seed.tobytes()
    assert got[2:] == (status, rounds)


# -- envelope refinement -------------------------------------------------------


def dense_envelopes(skew, pts, geom, rounds):
    """The per-image envelope update that the phase buckets replaced: each
    image lowers (raises) the whole (n_t, n_x) table by its column extremes
    minus every fiber's flow offset."""
    t_centers = geom.centers(np.arange(geom.n_t), 0, 0)[0]
    env_min = np.full((geom.n_t, geom.n_x), np.inf)
    env_max = np.full((geom.n_t, geom.n_x), -np.inf)

    def update(w, t_center):
        u = t_centers - t_center
        u -= np.round(u)
        jx = geom.x_cell(w[:, 0])
        colmin = np.full(geom.n_x, np.inf)
        colmax = np.full(geom.n_x, -np.inf)
        np.minimum.at(colmin, jx, w[:, 1])
        np.maximum.at(colmax, jx, w[:, 1])
        np.minimum(env_min, colmin[None, :] - u[:, None], out=env_min)
        np.maximum(env_max, colmax[None, :] - u[:, None], out=env_max)

    update(pts, 0.0)
    fwd = bwd = pts
    for n in range(1, rounds + 1):
        fwd = skew.spec.annulus_map(fwd)
        bwd = skew.spec.annulus_map(bwd, inverse=True)
        shift = np.array([0.0, n * skew.rho])
        update(fwd - shift, wrap01(n * skew.rho))
        update(bwd + shift, wrap01(-n * skew.rho))
    return env_min, env_max


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


@pytest.mark.parametrize("rounds", [0, 1, 7, 300])
@pytest.mark.parametrize("n_t,n_x", [(15, 16), (32, 32)])
@pytest.mark.parametrize("name", sorted(ENVELOPE_SKEWS))
def test_refine_envelopes_matches_dense_update(name, n_t, n_x, rounds):
    skew = ENVELOPE_SKEWS[name]()
    geom = geometry_for(skew, center_y=0.0, n_t=n_t, n_x=n_x, n_y=2 * n_x,
                        half_height=2.0)
    # a ball cloud and its boundary ring, as the region build takes them; the
    # ring around x0 = 0.05 crosses the x seam, so its x starts outside [0, 1)
    for x0, radius in ((0.5, 0.12), (0.05, 0.15)):
        check_refined_envelopes(skew, geom, rounds, x0, radius)


def check_refined_envelopes(skew, geom, rounds, x0, radius):
    n_t, n_x = geom.n_t, geom.n_x
    theta = 2.0 * np.pi * (np.arange(64) + 0.5) / 64
    ring = np.column_stack([x0 + radius * np.cos(theta), radius * np.sin(theta)])
    pts = np.vstack([ball_cloud(geom, (x0, 0.0), radius), ring])
    got = refine_envelopes(skew, pts, geom, rounds=rounds)
    want = dense_envelopes(skew, pts, geom, rounds)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (n_t, n_x)
        finite = np.isfinite(w)
        assert np.array_equal(np.isfinite(g), finite)
        assert np.array_equal(g[~finite], w[~finite])
        assert np.max(np.abs(g[finite] - w[finite]), initial=0.0) <= 1e-15
    if rounds == 0:  # the seed's columns alone
        assert not np.isfinite(got[0]).all()
    occ = np.zeros((n_t, n_x, geom.n_y), dtype=bool)
    assert np.array_equal(extend_to_envelopes(occ, geom, *got),
                          extend_to_envelopes(occ, geom, *want))


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
    assert_same_partition(_label_x_wrapped(occ), flood_fill_labels(occ[None])[0],
                          occ)


@given(data=st.data(), n_t=st.integers(1, 4), n_x=st.integers(1, 5),
       n_y=st.sampled_from((1, 2, 3, 4, 6)),
       sigma=st.sampled_from((1.0, 2.0, 0.5, 1.5)))
@settings(max_examples=200, deadline=None)
def test_label_mask_matches_flood_fill(data, n_t, n_x, n_y, sigma):
    # these heights give exact cell sizes: an integer sigma links each fiber
    # to the next by one shift, a non-integer sigma by two
    geom = GridGeometry(n_t, n_x, n_y, 0.0, n_y / (n_t * sigma))
    assert geom.fiber_shift_cells() == sigma
    occ = data.draw(bits((n_t, n_x, n_y)))
    shifts = {int(np.floor(sigma)), int(np.ceil(sigma))}
    assert_same_partition(label_mask(GridMask(geom, occ)),
                          flood_fill_labels(occ, shifts), occ)


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
    dil = dilate_mask(mask.occ)
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


@given(occ=arrays(bool, st.tuples(st.integers(1, 6), st.integers(1, 6),
                                  st.integers(1, 8))),
       offset=st.tuples(st.floats(-1, 1), st.floats(-0.5, 0.5)),
       rho=st.sampled_from(["edge", "-edge", B, 0.5, 0.0]))
@settings(max_examples=200, deadline=None)
def test_invariance_defect_matches_per_sample_fibers(occ, offset, rho):
    geom = GridGeometry(*occ.shape, -1.0, 1.0)
    # "edge": t + rho lands on a t cell edge, where rounding picks the cell
    rho = {"edge": 1.5 / geom.n_t, "-edge": -2.5 / geom.n_t}.get(rho, rho)
    mask = GridMask(geom, occ)
    for spec in (RigidTranslation(*offset), DehnTwist(1)):
        skew = build_centralized(spec, rho)
        assert invariance_defect(skew, mask) == invariance_per_sample(skew, mask)


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
    """Closing of each fiber by a 5x3 box, x padded by wrapping, y empty."""
    out = np.empty_like(occ)
    for it in range(occ.shape[0]):
        f = np.pad(occ[it], ((2, 2), (1, 1)), mode="wrap")
        f[:, [0, -1]] = False
        out[it] = ndimage.binary_closing(
            f, structure=np.ones((5, 3), dtype=bool))[2:-2, 1:-1]
    return out


@given(occ=arrays(bool, st.tuples(*[st.integers(1, 6)] * 3),
                  elements=st.sampled_from([False] * 4 + [True])))
@settings(max_examples=300, deadline=None)
def test_morphology_matches_references(occ):
    assert np.array_equal(dilate_mask(occ), dilate_by_rolls(occ))
    assert np.array_equal(close_fibers(occ), close_each_fiber(occ))
