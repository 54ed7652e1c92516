import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from hypothesis.extra.numpy import arrays

from torusdyn.circle import CircleLift, build_denjoy
from torusdyn.serialize import circle_lift_from_definition, torus_map_from_definition
from torusdyn.torus import (ComposedMap, DehnTwist, DiskPush, RigidTranslation,
                            SuspensionMap, apply_twist, normalize_isotopy_class)
from torusdyn.util import GOLDEN_MEAN, SQRT2_MINUS_1


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
