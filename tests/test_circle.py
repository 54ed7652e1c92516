import bisect
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torusdyn.circle import (KIND_DENJOY, CircleLift, DenjoyGapTable,
                             _pwa_from_pairs, build_denjoy,
                             denjoy_semiconjugacy, geometric_gap_schedule,
                             rotation_number)
from torusdyn.util import GOLDEN_MEAN, SQRT2_MINUS_1, circle_dist, wrap01

GOLDEN = GOLDEN_MEAN


def gap_endpoints_oracle(alpha, lengths_by_index):
    """Independent endpoint computation: insert gaps at frac(n*alpha) by
    accumulating the inserted mass below each base angle."""
    items = sorted((wrap01(n * alpha), n, l) for n, l in lengths_by_index.items())
    total = sum(l for _, _, l in items)
    out = {}
    acc = 0.0
    for theta, n, l in items:
        a = (theta + acc) / (1.0 + total)
        out[n] = (a, a + l / (1.0 + total))
        acc += l
    return out


def test_rigid_eval_translation():
    lift = CircleLift.rigid(0.25)
    assert lift(0.5) == pytest.approx(0.75, abs=1e-15)
    assert lift(1.5) == pytest.approx(1.75, abs=1e-15)


@given(x=st.floats(-10, 10))
@settings(max_examples=60, deadline=None)
def test_degree_one_rigid_and_denjoy(x):
    for lift in (CircleLift.rigid(0.3), shared_denjoy()):
        assert abs(lift(x + 1.0) - lift(x) - 1.0) <= 1e-12


@functools.cache
def shared_denjoy():
    """The golden-mean Denjoy lift with 12 gaps, built on first use, so that
    a table the validator refuses fails the tests that use it rather than
    the collection of this module."""
    return build_denjoy(GOLDEN, N=12)


def test_degree_one_bulk():
    rng = np.random.default_rng(1)
    xs = rng.uniform(-5, 5, 1000)
    for lift in (CircleLift.rigid(0.123), shared_denjoy(),
                 build_denjoy(SQRT2_MINUS_1, N=5)):
        assert np.max(np.abs(lift(xs + 1) - lift(xs) - 1)) <= 1e-12


def test_strict_monotonicity():
    rng = np.random.default_rng(2)
    for lift in (shared_denjoy(), build_denjoy(SQRT2_MINUS_1, N=1)):
        a = rng.uniform(0, 1, 1000)
        b = a + rng.uniform(1e-9, 1.0 - a)
        assert np.all(lift(b) > lift(a))


def test_malformed_table_rejected():
    with pytest.raises(ValueError):
        CircleLift.piecewise_affine([(0.0, 0.1), (0.5, 0.05)])  # non-monotone
    with pytest.raises(ValueError):
        CircleLift.piecewise_affine([(0.0, 0.0), (0.0, 0.5)])  # duplicate


def test_denjoy_gap_midpoint_transport():
    lift = build_denjoy(GOLDEN, N=20)
    table = {int(n): float(l) for n, l in
             zip(lift.gap_table.indices, lift.gap_table.length)}
    oracle = gap_endpoints_oracle(GOLDEN, table)
    a0, b0 = oracle[0]
    a1, b1 = oracle[1]
    assert lift.gap_table.gap(0) == pytest.approx((a0, b0), abs=1e-14)
    mid_img = wrap01(lift((a0 + b0) / 2))
    assert mid_img == pytest.approx((a1 + b1) / 2, abs=1e-10)


def test_denjoy_gap_transport_all_endpoints():
    lift = build_denjoy(GOLDEN, N=10)
    gt = lift.gap_table
    for j, n in enumerate(gt.indices):
        if n < gt.indices.max():
            assert wrap01(lift(gt.a[j])) == pytest.approx(gt.a[j + 1], abs=1e-10)
            assert wrap01(lift(gt.b[j])) == pytest.approx(gt.b[j + 1], abs=1e-10)


def test_build_denjoy_schedule_sum():
    lift = build_denjoy(GOLDEN, gap_schedule=lambda n: 0.1 * 2.0 ** (-abs(n)),
                        N=20)
    gt = lift.gap_table
    assert gt.indices.size == 41
    assert gt.length.sum() == pytest.approx(0.1 * (3.0 - 2.0 ** (1 - 20)), abs=1e-15)
    assert gt.length.sum() == pytest.approx(0.3, abs=1e-4)


def test_build_denjoy_three_gaps():
    lift = build_denjoy(GOLDEN, gap_schedule=lambda n: 0.05, N=1)
    gt = lift.gap_table
    assert gt.indices.size == 3
    # each constrained gap maps affinely onto the next: check midpoints too
    for j, n in enumerate(gt.indices):
        if n < 1:
            mid = 0.5 * (gt.a[j] + gt.b[j])
            assert wrap01(lift(mid)) == pytest.approx(
                0.5 * (gt.a[j + 1] + gt.b[j + 1]), abs=1e-10)


def test_gaps_disjoint():
    gt = build_denjoy(GOLDEN, N=25).gap_table
    order = np.argsort(gt.a)
    assert np.all(gt.b[order][:-1] <= gt.a[order][1:] + 1e-15)
    assert gt.length.sum() < 1.0


def test_zero_gap_limit_is_rotation():
    xs = np.linspace(0, 1, 37, endpoint=False)
    for scale in (1e-3, 1e-6):
        lift = build_denjoy(GOLDEN, gap_schedule=lambda n: scale * 2.0 ** (-abs(n)),
                            N=8)
        assert np.max(np.abs(lift(xs) - (xs + GOLDEN))) <= 4 * scale


def test_build_rejections():
    with pytest.raises(ValueError):
        build_denjoy(GOLDEN, gap_schedule=lambda n: 0.2, N=3)  # mass >= 1
    with pytest.raises(ValueError):
        build_denjoy(GOLDEN, N=0)
    with pytest.raises(ValueError):
        geometric_gap_schedule(total_mass=1.2)


def test_build_denjoy_rejects_underflowing_schedule_before_allocating():
    # the geometric schedule is 0.0 at |n| = 2000; N = 10**12 would need
    # terabytes of gaps
    for N in (2000, 10**12):
        with pytest.raises(ValueError, match="positive"):
            build_denjoy(GOLDEN, N=N)


def build_denjoy_reference(alpha, gap_schedule, N):
    """The breakpoint table built one gap at a time: a dict from each
    constrained endpoint to its image, a scalar unwrap loop and a per-gap
    transport check. Returns (bx, by, gap table)."""
    idx = np.arange(-N, N + 1)
    lengths = np.array([float(gap_schedule(int(n))) for n in idx])
    if np.any(lengths <= 0.0):
        raise ValueError("gap lengths must be positive")
    S = float(lengths.sum())
    if S >= 1.0:
        raise ValueError("gap schedule mass must be < 1")
    theta = wrap01(idx * float(alpha))
    if np.min(np.diff(np.sort(theta))) <= 1e-9:
        raise ValueError("orbit points too close; reduce N or change alpha")
    order = np.argsort(theta)
    rank = np.empty_like(order)
    rank[order] = np.arange(idx.size)
    csum = np.concatenate([[0.0], np.cumsum(lengths[order])])
    a = (theta + csum[rank]) / (1.0 + S)
    b = a + lengths / (1.0 + S)
    tail = sum(float(gap_schedule(int(n))) + float(gap_schedule(int(-n)))
               for n in range(N + 1, N + 200))
    table = DenjoyGapTable(indices=idx, length=lengths, a=a, b=b,
                           normalizer=1.0 + S, truncation_tol=tail)
    pos = {}
    for j in range(idx.size - 1):
        pos[a[j]] = a[j + 1]
        pos[b[j]] = b[j + 1]
    xs = np.array(sorted(pos))
    vals = np.array([pos[x] for x in xs])
    lifted = vals.copy()
    wind = 0.0
    for k in range(1, lifted.size):
        if vals[k] <= vals[k - 1]:
            wind += 1.0
        lifted[k] = vals[k] + wind
    try:
        bx, by = _pwa_from_pairs(zip(xs, lifted))
        lift = CircleLift(KIND_DENJOY, bx=bx, by=by)
    except ValueError:
        # a gap of positive width onto one whose endpoints coincide, on the
        # circle or unwrapped: the library names that gap before the table
        image = {}
        for j in range(idx.size - 1):
            image[a[j]] = image[b[j]] = int(idx[j + 1])
        flat = [image[xs[k]] for k in range(1, xs.size)
                if vals[k] == vals[k - 1] or lifted[k] == lifted[k - 1]]
        if not flat:
            raise
        n = min(flat, key=abs)
        raise ValueError(f"gap {n} of length {lengths[n + N]:.3g} is below "
                         f"rounding at its position, and gap {n - 1} maps onto "
                         f"it; lower N or raise the gap lengths") from None
    for j in range(idx.size - 1):
        if (abs(wrap01(lift(a[j])) - a[j + 1]) > 1e-10
                or abs(wrap01(lift(b[j])) - b[j + 1]) > 1e-10):
            raise AssertionError("gap transport endpoints inconsistent")
    return bx, by, table


def _outcome(build):
    try:
        return build()
    except (ValueError, AssertionError) as e:
        return type(e), str(e)


@st.composite
def denjoy_inputs(draw):
    # rational angles put orbit points on top of each other
    alpha = draw(st.floats(-2.0, 2.0)
                 | st.sampled_from([0.0, 0.25, 1 / 3, 0.5 + 1e-12, GOLDEN]))
    N = draw(st.integers(1, 60))
    if draw(st.booleans()):
        return alpha, geometric_gap_schedule(draw(st.floats(1e-6, 0.99))), N
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=2 * N + 1,
                            max_size=2 * N + 1))
    mass = draw(st.floats(1e-6, 1.2))
    lengths = [mass * w / sum(weights) for w in weights]
    return alpha, (lambda n: lengths[n + N] if abs(n) <= N else 0.0), N


@given(case=denjoy_inputs())
# gap -33 is narrower than rounding (a == b): its endpoint is one breakpoint;
# at N = 50 both sides refuse gap 34, below rounding, as the image of gap 33
@example(case=(2 ** -7, geometric_gap_schedule(1e-6), 33))
@example(case=(2 ** -7, geometric_gap_schedule(1e-6), 50))
@settings(max_examples=150, deadline=None)
def test_build_denjoy_matches_per_gap_reference(case):
    alpha, schedule, N = case
    got = _outcome(lambda: build_denjoy(alpha, schedule, N))
    want = _outcome(lambda: build_denjoy_reference(alpha, schedule, N))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    bx, by, table = want
    assert isinstance(got, CircleLift), got
    assert got.bx.tobytes() == bx.tobytes() and got.by.tobytes() == by.tobytes()
    gt = got.gap_table
    for name in ("indices", "length", "a", "b"):
        assert getattr(gt, name).tobytes() == getattr(table, name).tobytes(), name
    assert (gt.normalizer, gt.truncation_tol) == (table.normalizer,
                                                  table.truncation_tol)


def test_rotation_number_rigid_exact():
    est, bound = rotation_number(CircleLift.rigid(0.25), 0.0, 1000)
    assert abs(est - 0.25) <= 1e-12
    assert bound == pytest.approx(1e-3, rel=1e-2)
    est, _ = rotation_number(CircleLift.rigid(0.0), 0.3, 10)
    assert est == 0.0


def test_rotation_number_denjoy_tracks_target():
    lift = build_denjoy(GOLDEN, N=30)
    est, bound = rotation_number(lift, 0.1, 20_000)
    assert abs(est - GOLDEN) <= 1.0 / 20_000 + lift.truncation_tol + 1e-9


def test_rotation_number_cauchy_consistency():
    lift = build_denjoy(SQRT2_MINUS_1, N=15)
    n = 2000
    e1, _ = rotation_number(lift, 0.3, n)
    e2, _ = rotation_number(lift, 0.3, 2 * n)
    assert abs(e1 - e2) <= 1.0 / n + 1.0 / (2 * n) + 1e-12


def test_rotation_number_rejects_bad_n():
    with pytest.raises(ValueError):
        rotation_number(CircleLift.rigid(0.1), 0.0, 0)


def test_semiconjugacy_collapses_gaps():
    lift = build_denjoy(GOLDEN, N=12)
    h = denjoy_semiconjugacy(lift)
    gt = lift.gap_table
    for j, n in enumerate(gt.indices):
        mid = 0.5 * (gt.a[j] + gt.b[j])
        assert h(mid) == pytest.approx(wrap01(int(n) * GOLDEN), abs=1e-12)


def test_semiconjugacy_defect_below_tolerance():
    lift = build_denjoy(GOLDEN, N=20)
    h = denjoy_semiconjugacy(lift)
    ys = np.random.default_rng(5).uniform(0, 1, 10_000)
    defect = np.max(circle_dist(h(lift(ys)), wrap01(h(ys) + GOLDEN)))
    assert defect <= h.truncation_tol + 1e-12


def test_semiconjugacy_zero_gap_limit_identity():
    lift = build_denjoy(GOLDEN, gap_schedule=lambda n: 1e-9 * 2.0 ** (-abs(n)), N=5)
    h = denjoy_semiconjugacy(lift)
    ys = np.linspace(0, 1, 101, endpoint=False)
    assert np.max(circle_dist(h(ys), ys)) <= 1e-8


def test_semiconjugacy_requires_denjoy_kind():
    with pytest.raises(ValueError):
        denjoy_semiconjugacy(CircleLift.rigid(0.5))


def test_inverse_roundtrip():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-3, 3, 500)
    for lift in (CircleLift.rigid(0.77), build_denjoy(GOLDEN, N=9)):
        inv = lift.inverse()
        assert np.max(np.abs(inv(lift(xs)) - xs)) <= 1e-10
        assert np.max(np.abs(lift(inv(xs)) - xs)) <= 1e-10


def test_inverse_of_a_table_starting_a_rounding_below_zero():
    # the inverse's start value at 0 plus 1 rounds onto its last value, 1.0,
    # so its end breakpoint is moved onto 0 and the table validates
    lift = CircleLift.piecewise_affine([[0.0, -2.220446049250313e-16],
                                        [0.3333333333333333, 0.6666666666666664]])
    inv = lift.inverse()
    assert inv.bx.tolist() == [0.0, 0.6666666666666664]
    assert inv.by.tolist() == [0.0, 0.3333333333333333]
    xs = np.random.default_rng(7).uniform(-3, 3, 500)
    assert np.max(np.abs(inv(lift(xs)) - xs)) <= 1e-10
    assert np.max(np.abs(lift(inv(xs)) - xs)) <= 1e-10


# -- the closed breakpoint table against an open-table reference --------------

def open_table_eval(bx, by, x):
    """Vectorized evaluation that derives the wrap segment per point."""
    xa = np.asarray(x, dtype=float)
    n = np.floor(xa)
    u = xa - n
    bump = u >= 1.0  # x - floor(x) can round up to 1.0 for tiny negatives
    u = np.where(bump, 0.0, u)
    n = n + bump
    j = np.searchsorted(bx, u, side="right") - 1
    last = j + 1 >= bx.size
    x1 = np.where(last, bx[0] + 1.0, bx[np.minimum(j + 1, bx.size - 1)])
    y1 = np.where(last, by[0] + 1.0, by[np.minimum(j + 1, bx.size - 1)])
    return n + by[j] + (u - bx[j]) * (y1 - by[j]) / (x1 - bx[j])


def open_table_scalar(bx, by, x):
    """Scalar evaluation that derives the wrap segment per point."""
    n = math.floor(x)
    u = x - n
    if u >= 1.0:
        u = 0.0
        n += 1
    j = bisect.bisect_right(bx.tolist(), u) - 1
    if j + 1 < len(bx):
        x1, y1 = bx[j + 1], by[j + 1]
    else:
        x1, y1 = bx[0] + 1.0, by[0] + 1.0
    return n + by[j] + (u - bx[j]) * (y1 - by[j]) / (x1 - bx[j])


@functools.cache
def table_lifts():
    """Five table lifts, built on first use."""
    pwa = CircleLift.piecewise_affine([(0.0, -0.1), (0.2, 0.3), (0.5, 0.35),
                                       (0.9, 0.8)])
    one = CircleLift.piecewise_affine([(0.0, 0.25)])
    return [pwa, pwa.inverse(), one, shared_denjoy(), shared_denjoy().inverse()]


TINY_NEGATIVES = [-5e-324, -1e-300, -2.0 ** -60, -2.0 ** -53, -1e-17, -0.0]


@given(xs=st.lists(st.floats(-50.0, 50.0), max_size=20),
       which=st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_closed_table_matches_open_table(xs, which):
    lift = table_lifts()[which]
    bx, by = lift.bx, lift.by
    pts = np.concatenate([bx, bx - 1.0, bx + 2.0, np.nextafter(bx, -np.inf),
                          TINY_NEGATIVES, xs])
    assert lift(pts).tobytes() == open_table_eval(bx, by, pts).tobytes()
    for x in pts.tolist():
        for got, want in ((lift(x), open_table_eval(bx, by, x)),
                          (lift.eval_scalar(x), open_table_scalar(bx, by, x))):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
