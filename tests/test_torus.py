import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from hypothesis.extra.numpy import arrays

from torusdyn.circle import CircleLift, build_denjoy
from torusdyn.serialize import circle_lift_from_definition, torus_map_from_definition
from torusdyn.torus import (ComposedMap, DehnTwist, DiskPush, RigidTranslation,
                            SuspensionMap, apply_twist, normalize_isotopy_class)
from torusdyn.util import GOLDEN_MEAN, SQRT2_MINUS_1, wrap01

from test_circle import TINY_NEGATIVES, open_table_eval


def sample_maps():
    return [
        RigidTranslation(GOLDEN_MEAN, SQRT2_MINUS_1),
        DehnTwist(1),
        DehnTwist(-2),
        SuspensionMap(CircleLift.rigid(GOLDEN_MEAN),
                      CircleLift.rigid(SQRT2_MINUS_1)),
        SuspensionMap(CircleLift.rigid(GOLDEN_MEAN), build_denjoy(SQRT2_MINUS_1, N=8)),
        DiskPush((0.3, 0.5), (0.35, 0.5), 0.2),
    ]


def test_rigid_eval():
    r = RigidTranslation(0.61, 0.41)
    assert r.eval_lift(np.array([0.0, 0.0])) == pytest.approx([0.61, 0.41])


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(z=st.one_of(arrays(float, (2,), elements=finite),
                   arrays(float, st.tuples(st.integers(0, 5), st.just(2)),
                          elements=finite),
                   arrays(float, st.tuples(st.integers(0, 3), st.integers(0, 4),
                                           st.just(2)), elements=finite)),
       a=finite, b=finite)
@settings(max_examples=300, deadline=None)
def test_rigid_evaluators_add_the_offset_exactly(z, a, b):
    # the column-wise adds equal the broadcast z +- offset bit for bit
    r = RigidTranslation(a, b)
    offset = np.array([a, b])
    with np.errstate(over="ignore", invalid="ignore"):
        for got, want in ((r.eval_lift(z), z + offset), (r.eval_inverse(z), z - offset)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_twist_eval():
    tw = DehnTwist(1)
    assert tw.eval_lift(np.array([0.0, 1.0])) == pytest.approx([1.0, 1.0])


def test_equivariance_all_kinds():
    rng = np.random.default_rng(0)
    z = rng.uniform(-2, 2, (1000, 2))
    for spec in sample_maps():
        out = spec.eval_lift(z)
        for p in ((1.0, 0.0), (0.0, 1.0)):
            shifted = spec.eval_lift(z + np.array(p))
            expect = out + apply_twist(spec.k, p)
            assert np.max(np.abs(shifted - expect)) <= 1e-10, spec.kind


def test_twist_translate_identity():
    # iterating the lift moves the unit vertical translate linearly
    tw = DehnTwist(1)
    z = np.array([0.2, 0.3])
    zn, wn = z.copy(), z + np.array([0.0, 1.0])
    for n in range(1, 6):
        zn = tw.eval_lift(zn)
        wn = tw.eval_lift(wn)
        assert wn - zn == pytest.approx([n, 1.0], abs=1e-12)


def test_inverse_roundtrip_all_kinds():
    rng = np.random.default_rng(1)
    z = rng.uniform(-1, 2, (500, 2))
    for spec in sample_maps():
        fwd = spec.eval_lift(spec.eval_inverse(z))
        bwd = spec.eval_inverse(spec.eval_lift(z))
        assert np.max(np.abs(fwd - z)) <= 1e-8, spec.kind
        assert np.max(np.abs(bwd - z)) <= 1e-8, spec.kind


def test_composed_matches_sequential():
    rng = np.random.default_rng(2)
    z = rng.uniform(0, 1, (1000, 2))
    dp = DiskPush((0.3, 0.5), (0.35, 0.5), 0.2)
    susp = SuspensionMap(CircleLift.rigid(GOLDEN_MEAN),
                         CircleLift.rigid(SQRT2_MINUS_1))
    comp = ComposedMap([dp, susp])
    seq = susp.eval_lift(dp.eval_lift(z))
    assert np.max(np.abs(comp.eval_lift(z) - seq)) <= 1e-10
    assert comp.k == 0


def test_disk_push_moves_center_exactly():
    dp = DiskPush((0.3, 0.5), (0.35, 0.5), 0.2)
    out = dp.eval_lift(np.array([0.3, 0.5]))
    assert np.max(np.abs(out - [0.35, 0.5])) <= 1e-12


def test_disk_push_identity_outside_support():
    dp = DiskPush((0.3, 0.5), (0.35, 0.5), 0.2)
    rng = np.random.default_rng(3)
    z = rng.uniform(0, 1, (2000, 2))
    w = z - np.array([0.325, 0.5])
    far = np.hypot(*(w - np.round(w)).T) >= 0.2
    assert np.array_equal(dp.eval_lift(z[far]), z[far])


def test_disk_push_inverse_in_disk():
    dp = DiskPush((0.3, 0.5), (0.35, 0.5), 0.2)
    rng = np.random.default_rng(4)
    z = np.array([0.325, 0.5]) + 0.19 * (rng.uniform(-1, 1, (1000, 2)))
    back = dp.eval_inverse(dp.eval_lift(z))
    assert np.max(np.abs(back - z)) <= 1e-10


def test_disk_push_degenerate_is_identity():
    dp = DiskPush((0.3, 0.5), (0.3, 0.5), 0.2)
    z = np.random.default_rng(5).uniform(0, 1, (100, 2))
    assert np.array_equal(dp.eval_lift(z), z)


def test_unbounded_twist_and_suspension_rejected():
    DehnTwist(2**53)
    with pytest.raises(ValueError):
        DehnTwist(-2**53 - 1)
    SuspensionMap(CircleLift.rigid(1000.5), CircleLift.rigid(0.3))
    with pytest.raises(ValueError):
        SuspensionMap(CircleLift.rigid(-1001.5), CircleLift.rigid(0.3))


def test_disk_push_rejections():
    with pytest.raises(ValueError):
        DiskPush((0.1, 0.1), (0.3, 0.1), 0.2)  # too far for the radius
    with pytest.raises(ValueError):
        DiskPush((0.1, 0.1), (0.11, 0.1), 0.3)  # radius >= 1/4
    with pytest.raises(ValueError):
        DiskPush((0.3, np.nan), (0.35, 0.5), 0.2)  # every image would be NaN
    with pytest.raises(ValueError):
        DiskPush((0.3, 0.5), (np.inf, 0.5), 0.2)


def test_normalize_examples():
    B, k = normalize_isotopy_class([[1, 3], [0, 1]])
    assert (B, k) == (((1, 0), (0, 1)), 3)
    B, k = normalize_isotopy_class([[-1, 2], [-2, 3]])
    assert k == 2
    assert B == ((1, 0), (1, 1))
    with pytest.raises(ValueError):
        normalize_isotopy_class([[2, 1], [1, 1]])  # trace 3
    with pytest.raises(ValueError):
        normalize_isotopy_class([[1, 0], [0, -1]])  # det -1


def _mat_mul(P, Q):
    return ((P[0][0] * Q[0][0] + P[0][1] * Q[1][0],
             P[0][0] * Q[0][1] + P[0][1] * Q[1][1]),
            (P[1][0] * Q[0][0] + P[1][1] * Q[1][0],
             P[1][0] * Q[0][1] + P[1][1] * Q[1][1]))


def random_unimodular(rng, cap=10**6):
    """Random word in the elementary generators, entries kept below cap."""
    B = ((1, 0), (0, 1))
    for _ in range(rng.integers(1, 12)):
        a = int(rng.integers(-4, 5))
        E = ((1, a), (0, 1)) if rng.integers(2) else ((1, 0), (a, 1))
        C = _mat_mul(B, E)
        if max(abs(v) for row in C for v in row) >= cap:
            break
        B = C
    return B


@given(j=st.integers(-6, 6), seed=st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_normalize_random_conjugates(j, seed):
    rng = np.random.default_rng(seed)
    B = random_unimodular(rng)
    Binv = ((B[1][1], -B[0][1]), (-B[1][0], B[0][0]))
    A = _mat_mul(_mat_mul(B, ((1, j), (0, 1))), Binv)
    C, k = normalize_isotopy_class(A)
    assert k == j
    # verify the conjugation identity in exact integers
    Cinv = ((C[1][1], -C[0][1]), (-C[1][0], C[0][0]))
    assert _mat_mul(Cinv, _mat_mul(A, C)) == ((1, k), (0, 1))


# -- properties of every map kind, built from random definitions ----------------

EQUIVARIANCE_TOL = 1e-10
ROUNDTRIP_TOL = 1e-8

reals = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def pwa_definitions(draw):
    """Piecewise-affine lifts: positive x and y steps, winding one."""
    size = draw(st.integers(1, 5))
    gx = np.array(draw(st.lists(st.floats(1.0, 10.0), min_size=size, max_size=size)))
    gy = np.array(draw(st.lists(st.floats(1.0, 10.0), min_size=size, max_size=size)))
    bx = np.concatenate([[0.0], np.cumsum(gx)[:-1]]) / gx.sum()
    by = draw(reals) + np.concatenate([[0.0], np.cumsum(gy)[:-1]]) / gy.sum()
    return {"kind": "piecewise-affine", "breaks": np.column_stack([bx, by]).tolist()}


@st.composite
def denjoy_definitions(draw):
    d = {"kind": "denjoy-truncated",
         "alpha": draw(st.sampled_from(["golden", "sqrt2"]) | st.floats(0.05, 0.95)),
         "N": draw(st.integers(1, 8)), "total_mass": draw(st.floats(0.05, 0.5))}
    try:  # alphas too close to a small-denominator rational are refused
        circle_lift_from_definition(d)
    except ValueError:
        reject()
    return d


circle_definitions = (st.builds(lambda a: {"kind": "rigid", "alpha": a}, reals)
                      | pwa_definitions() | denjoy_definitions())


@st.composite
def disk_push_definitions(draw):
    c0 = np.array([draw(st.floats(0.0, 1.0, exclude_max=True)) for _ in range(2)])
    radius = draw(st.floats(0.01, 0.249))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    push = draw(st.floats(0.0, 0.48)) * radius * np.array([np.cos(angle), np.sin(angle)])
    return {"kind": "disk-push", "center0": c0.tolist(),
            "center1": (c0 + push).tolist(), "radius": radius}


simple_definitions = st.one_of(
    st.builds(lambda a, b: {"kind": "rigid", "offset": [a, b]}, reals, reals),
    st.builds(lambda k: {"kind": "twist", "k": k}, st.integers(-3, 3)),
    st.builds(lambda b, f: {"kind": "suspension", "base": b, "fiber": f},
              circle_definitions, circle_definitions),
    disk_push_definitions(),
)
map_definitions = simple_definitions | st.builds(
    lambda maps: {"kind": "composed", "maps": maps},
    st.lists(simple_definitions, min_size=1, max_size=3))


@given(d=circle_definitions, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_circle_lifts_degree_one(d, seed):
    lift = circle_lift_from_definition(d)
    x = np.sort(np.random.default_rng(seed).uniform(-2.0, 2.0, 200))
    gx = lift(x)
    assert np.max(np.abs(lift(x + 1.0) - gx - 1.0)) <= EQUIVARIANCE_TOL
    assert np.all(np.diff(gx) > 0.0)


@given(d=map_definitions, seed=st.integers(0, 2**32 - 1))
@example(d={"kind": "suspension", "base": {"kind": "rigid", "alpha": 0.3},
            "fiber": {"kind": "piecewise-affine",
                      "breaks": [[0.0, -2.220446049250313e-16],
                                 [0.3333333333333333, 0.6666666666666664]]}},
         seed=0)
@settings(max_examples=300, deadline=None)
def test_every_kind_equivariant_and_invertible(d, seed):
    spec = torus_map_from_definition(d)
    z = np.random.default_rng(seed).uniform(-1.0, 2.0, (200, 2))
    out = spec.eval_lift(z)
    for p in ((1.0, 0.0), (0.0, 1.0)):
        shifted = spec.eval_lift(z + np.array(p))
        assert np.max(np.abs(shifted - out - apply_twist(spec.k, p))) <= EQUIVARIANCE_TOL
    assert np.max(np.abs(spec.eval_lift(spec.eval_inverse(z)) - z)) <= ROUNDTRIP_TOL
    assert np.max(np.abs(spec.eval_inverse(out) - z)) <= ROUNDTRIP_TOL


# -- the map evaluators against the per-call references they replaced ----------

def ref_lift(lift, x):
    """A circle lift through the open-table reference of test_circle."""
    if lift.kind == "rigid":
        return np.asarray(x, dtype=float) + lift.alpha
    return open_table_eval(lift.bx, lift.by, x)


def ref_fiber_power(spec, x, m):
    """Sign and count masks per step, each step over the points it moves."""
    x = np.array(x, dtype=float)
    m = np.asarray(m)
    sign = np.sign(m)
    count = np.abs(m)
    kmax = int(count.max()) if count.size else 0
    for step in range(kmax):
        fwd = (sign > 0) & (count > step)
        bwd = (sign < 0) & (count > step)
        if np.any(fwd):
            x[fwd] = ref_lift(spec.fiber, x[fwd])
        if np.any(bwd):
            x[bwd] = ref_lift(spec._fiber_inv, x[bwd])
    return x


def ref_suspension(spec, z, inverse):
    """Base values looked up twice, columns stacked and reshaped."""
    shape = np.shape(np.asarray(z, dtype=float))
    z2 = np.atleast_2d(np.asarray(z, dtype=float))
    u, x = z2[..., 0], z2[..., 1]
    if inverse:
        u = ref_lift(spec._base_inv, u)
        base_u = u
    else:
        base_u = ref_lift(spec.base, u)
    m = np.floor(ref_lift(spec.base, wrap01(u))).astype(np.int64)
    out = np.stack([base_u, ref_fiber_power(spec, x, -m if inverse else m)], axis=-1)
    return out.reshape(shape)


def ref_disk_push(dp, z, inverse):
    """np.linalg.norm over the last axis; the inverse's plateau and affine
    branches each under their own mask, every other row left as it is."""
    z = np.asarray(z, dtype=float)
    w = z - dp.midpoint
    w = w - np.round(w)
    d, rr = dp.push, dp.radius * dp.radius
    if not inverse:
        r = np.linalg.norm(w, axis=-1) / dp.radius
        return z + np.clip(2.0 * (1.0 - r), 0.0, 1.0)[..., None] * d
    out = z.copy()
    c = np.asarray(rr - (w * w).sum(axis=-1))
    plateau = (c > 0.0) & (np.linalg.norm(w - d, axis=-1) <= 0.5 * dp.radius)
    affine = (c > 0.0) & ~plateau
    out[plateau] = z[plateau] - d
    wa, ca = w[affine], c[affine]
    a = 0.25 * rr - (d * d).sum()
    b = 2.0 * (wa * d).sum(axis=-1) - rr
    s = 2.0 * ca / (np.sqrt(b * b - 4.0 * a * ca) - b)
    out[affine] = z[affine] - s[..., None] * d
    return out


def bisect_disk_push_inverse(dp, z):
    """The push's inverse by 60 rounds of bisection for s = eta(|w - s*d| / R)
    on every point within R + |d| of the midpoint: an accuracy reference."""
    z = np.asarray(z, dtype=float)
    w = z - dp.midpoint
    w = w - np.round(w)
    active = np.linalg.norm(w, axis=-1) <= dp.radius + np.linalg.norm(dp.push)
    out = z.copy()
    wa = w[active]
    lo = np.zeros(wa.shape[:-1])
    hi = np.ones(wa.shape[:-1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        r = np.linalg.norm(wa - mid[..., None] * dp.push, axis=-1) / dp.radius
        up = np.clip(2.0 * (1.0 - r), 0.0, 1.0) - mid > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    out[active] = z[active] - (0.5 * (lo + hi))[..., None] * dp.push
    return out


def ref_eval(spec, z, inverse=False):
    if isinstance(spec, ComposedMap):
        for m in (reversed(spec.chain) if inverse else spec.chain):
            z = ref_eval(m, z, inverse)
        return np.asarray(z, dtype=float)
    if isinstance(spec, SuspensionMap):
        return ref_suspension(spec, z, inverse)
    if isinstance(spec, DiskPush):
        return ref_disk_push(spec, z, inverse)
    return spec.eval_inverse(z) if inverse else spec.eval_lift(z)


# bases whose floor(base(u)) takes {-2, -1}, {-1, 0}, {0, 1} and {2, 3} over
# [0, 1), one whose by[0] is an integer, and one whose wrap end by[0] + 1
# rounds up to 3.0, so that floor(base(u)) takes {1, 2, 3}
STEP_BASES = [
    {"kind": "piecewise-affine", "breaks": [[0.0, -1.3], [0.5, -0.9]]},
    {"kind": "rigid", "alpha": -0.3},
    {"kind": "piecewise-affine", "breaks": [[0.0, 0.6], [0.3, 0.7], [0.8, 1.2]]},
    {"kind": "rigid", "alpha": 2.6},
    {"kind": "piecewise-affine", "breaks": [[0.0, -1.0], [0.4, -0.2]]},
    {"kind": "piecewise-affine", "breaks": [[0.0, 2.0 - 2.0 ** -52]]},
]
step_suspensions = st.builds(
    lambda b, f: {"kind": "suspension", "base": b, "fiber": f},
    st.sampled_from(STEP_BASES) | circle_definitions, circle_definitions)


def _lifts_of(spec):
    if isinstance(spec, ComposedMap):
        return [lift for m in spec.chain for lift in _lifts_of(m)]
    if isinstance(spec, SuspensionMap):
        return [spec.base, spec.fiber, spec._base_inv, spec._fiber_inv]
    return []


def _probe_points(spec, coords):
    """Breakpoints of every table lift (their integer translates and the
    floats just below them and below their unit translates), the tiny
    negatives, disk-push midpoints and drawn values."""
    vals = [np.asarray(coords, dtype=float), np.array(TINY_NEGATIVES)]
    for lift in _lifts_of(spec):
        if lift.bx is not None:
            for tab in (lift.bx, lift.by):
                vals += [tab, tab - 1.0, tab + 2.0, np.nextafter(tab, -np.inf),
                         np.nextafter(tab + 1.0, -np.inf)]
    chain = spec.chain if isinstance(spec, ComposedMap) else [spec]
    vals += [m.midpoint for m in chain if isinstance(m, DiskPush)]
    return np.unique(np.concatenate(vals))


@given(d=map_definitions | step_suspensions
       | st.builds(lambda p, s: {"kind": "composed", "maps": [p, s]},
                   disk_push_definitions(), step_suspensions),
       coords=st.lists(st.floats(-3.0, 3.0), max_size=12),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_map_evaluators_match_per_call_references(d, coords, seed):
    spec = torus_map_from_definition(d)
    pts = _probe_points(spec, coords)
    rng = np.random.default_rng(seed)
    pairs = np.column_stack([pts, rng.permutation(pts)])  # each value as u and x
    grid = np.stack(np.meshgrid(rng.choice(pts, 5), rng.choice(pts, 4)), axis=-1)
    for z in (pairs, grid, pairs[0], np.empty((0, 2)),
              rng.uniform(-1.0, 2.0, (64, 2))):
        for inverse in (False, True):
            got = spec.eval_inverse(z) if inverse else spec.eval_lift(z)
            want = ref_eval(spec, z, inverse)
            assert got.shape == want.shape == z.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (d, inverse, z.shape)
            # and on the images, where the inverse meets its own breakpoints
            img = want
            back = spec.eval_lift(img) if inverse else spec.eval_inverse(img)
            assert back.tobytes() == ref_eval(spec, img, not inverse).tobytes()


def _push_probe_points(dp, rng):
    """Preimages at r*R from the midpoint, for r = 0, one ulp either side of
    1/2 and of 1, and spread over [0, 1.2]; their images; a grid over signed
    zeros, the midpoint's coordinates and the disk's edges along the axes;
    and spread points."""
    r = np.concatenate([[0.0]] + [[np.nextafter(e, 0.0), e, np.nextafter(e, 2.0)]
                                  for e in (0.5, 1.0)] + [rng.uniform(0.0, 1.2, 16)])
    angle = rng.uniform(0.0, 2.0 * np.pi, r.size)
    pre = dp.midpoint + (r * dp.radius)[:, None] * np.column_stack(
        [np.cos(angle), np.sin(angle)])
    vals = np.concatenate([[-0.0, 0.0], dp.midpoint, dp.midpoint - dp.radius,
                           dp.midpoint + dp.radius])
    grid = np.stack(np.meshgrid(vals, vals), axis=-1).reshape(-1, 2)
    return np.concatenate([pre, dp.eval_lift(pre), grid, rng.uniform(-1.0, 2.0, (16, 2))])


@given(d=disk_push_definitions(), seed=st.integers(0, 2**32 - 1))
@example(d={"kind": "disk-push", "center0": [0.3, 0.5], "center1": [0.3, 0.5],
            "radius": 0.2}, seed=0)  # |d| = 0
@example(d={"kind": "disk-push", "center0": [0.3, 0.5], "center1": [0.396, 0.5],
            "radius": 0.2}, seed=0)  # |d| = 0.48 R
# midpoint (1/8, 1/2) and R = 1/8: the row (-0.0, 0.5) lies exactly on the
# disk's edge, and pushing it by 0 * d would turn its -0.0 into 0.0
@example(d={"kind": "disk-push", "center0": [0.140625, 0.5],
            "center1": [0.109375, 0.5], "radius": 0.125}, seed=0)
@settings(max_examples=300, deadline=None)
def test_disk_push_inverse_closed_form_matches_bisection(d, seed):
    dp = torus_map_from_definition(d)
    z = _push_probe_points(dp, np.random.default_rng(seed))
    got = dp.eval_inverse(z)
    want = bisect_disk_push_inverse(dp, z)
    tol = 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(z))
    assert np.all(np.abs(got - want) <= tol), np.max(np.abs(got - want))
    assert np.max(np.abs(dp.eval_lift(got) - z)) <= ROUNDTRIP_TOL
    assert np.max(np.abs(dp.eval_inverse(dp.eval_lift(z)) - z)) <= ROUNDTRIP_TOL
    # rows outside the open disk come back bit for bit
    w = dp._rel(z)
    outside = dp.radius * dp.radius - (w * w).sum(axis=-1) <= 0.0
    assert got[outside].tobytes() == z[outside].tobytes()


# -- row independence: a stacked batch evaluates as its parts ------------------


def assert_rows_independent(spec, a, b):
    """eval_lift and eval_inverse of a and b stacked are, row for row and
    bit for bit, those of a and of b evaluated apart."""
    both = np.concatenate([a, b])
    for evaluate in (spec.eval_lift, spec.eval_inverse):
        got = evaluate(both)
        assert got[:len(a)].tobytes() == evaluate(a).tobytes()
        assert got[len(a):].tobytes() == evaluate(b).tobytes()


def _row_splits(spec, z):
    """Splits of z's rows: by u mod 1, so that the halves of a suspension
    can take different step counts, and by the distance to each disk push's
    midpoint, so that only one half meets the push's support."""
    chain = spec.chain if isinstance(spec, ComposedMap) else [spec]
    keys = [wrap01(z[:, 0])]
    for m in chain:
        if isinstance(m, DiskPush):
            w = m._rel(z)
            keys.append(m._norm(w[:, 0], w[:, 1]))
    for key in keys:
        order = np.argsort(key, kind="stable")
        for cut in (0, 1, len(z) // 2, len(z)):
            yield z[order[:cut]], z[order[cut:]]


@given(d=map_definitions | step_suspensions
       | st.builds(lambda p, s: {"kind": "composed", "maps": [p, s]},
                   disk_push_definitions(), step_suspensions),
       coords=st.lists(st.floats(-3.0, 3.0), max_size=12),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_evaluators_are_row_independent(d, coords, seed):
    spec = torus_map_from_definition(d)
    rng = np.random.default_rng(seed)
    pts = _probe_points(spec, coords)
    chain = spec.chain if isinstance(spec, ComposedMap) else [spec]
    # points inside each push's disk, with the breakpoint pairs and spread points
    near = [m.midpoint + m.radius * rng.uniform(-1.0, 1.0, (8, 2))
            for m in chain if isinstance(m, DiskPush)]
    z = np.concatenate([np.column_stack([pts, rng.permutation(pts)]),
                        rng.uniform(-1.0, 2.0, (24, 2)), *near])
    for a, b in _row_splits(spec, z):
        assert_rows_independent(spec, a, b)


def test_rows_independent_across_step_counts_and_push_support():
    # floor(base(u)) is -2 for u in [0, 0.3) and -1 for u in [0.5, 1): the
    # halves take different fiber-power passes apart and one shared pass
    # plus a subset step together
    susp = SuspensionMap(circle_lift_from_definition(
        {"kind": "piecewise-affine", "breaks": [[0.0, -1.3], [0.5, -0.9]]}),
        build_denjoy(GOLDEN_MEAN, N=6))
    rng = np.random.default_rng(5)
    a = np.column_stack([rng.uniform(0.0, 0.3, 32), rng.uniform(-1.0, 2.0, 32)])
    b = np.column_stack([rng.uniform(0.5, 1.0, 32), rng.uniform(-1.0, 2.0, 32)])
    m = [set(np.floor(susp.base(h[:, 0])).astype(int).tolist()) for h in (a, b)]
    assert m == [{-2}, {-1}]
    assert_rows_independent(susp, a, b)
    # only the first half lies inside the push's disk, so only it moves
    dp = DiskPush((0.3, 0.5), (0.31, 0.5), 0.05)
    near = dp.midpoint + 0.03 * rng.uniform(-1.0, 1.0, (32, 2))
    far = dp.midpoint + np.column_stack([rng.uniform(0.2, 0.8, 32),
                                         rng.uniform(-1.0, 1.0, 32)])
    inside = [np.linalg.norm(dp._rel(h), axis=-1) < dp.radius for h in (near, far)]
    assert inside[0].all() and not inside[1].any()
    for spec in (dp, ComposedMap([dp, susp]), ComposedMap([susp, dp])):
        assert_rows_independent(spec, near, far)
        assert_rows_independent(spec, far, near)


# -- the column-wise declaration -----------------------------------------------


def declared_column_wise(d):
    """Rigid translations, suspensions with a rigid fiber and compositions of
    these declare column_wise; twists, disk pushes and table fibers do not."""
    if d["kind"] == "composed":
        return all(declared_column_wise(m) for m in d["maps"])
    if d["kind"] == "suspension":
        return d["fiber"]["kind"] == "rigid"
    return d["kind"] == "rigid"


rigid_definitions = st.builds(lambda a, b: {"kind": "rigid", "offset": [a, b]},
                              reals, reals)
rigid_fiber_suspensions = st.builds(
    lambda b, a: {"kind": "suspension", "base": b,
                  "fiber": {"kind": "rigid", "alpha": a}},
    st.sampled_from(STEP_BASES) | circle_definitions, reals)
column_wise_definitions = st.builds(
    lambda maps: {"kind": "composed", "maps": maps},
    st.lists(rigid_definitions | rigid_fiber_suspensions, min_size=1, max_size=3))


@given(d=(map_definitions | step_suspensions | rigid_fiber_suspensions
          | column_wise_definitions),
       coords=st.lists(st.floats(-3.0, 3.0), max_size=12),
       heights=st.lists(st.floats(-3.0, 3.0), max_size=12),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_column_wise_declaration(d, coords, heights, seed):
    # a column-wise annulus step keeps the image x of a column bit for bit
    # and the order of its heights, both ways
    spec = torus_map_from_definition(d)
    assert spec.column_wise == declared_column_wise(d)
    if not spec.column_wise:
        return
    rng = np.random.default_rng(seed)
    xs = np.unique(wrap01(_probe_points(spec, coords)))  # reduced, as stepped
    ys = np.sort(np.concatenate([heights, TINY_NEGATIVES, [0.0, 1.0],
                                 rng.uniform(-3.0, 3.0, 16)]))
    z = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    for inverse in (False, True):
        img = spec._annulus_step(z.reshape(-1, 2), inverse).reshape(z.shape)
        bits = img[..., 0].view(np.int64)
        assert (bits == bits[:, :1]).all(), (d, inverse)
        assert (np.diff(img[..., 1], axis=1) >= 0.0).all(), (d, inverse)
