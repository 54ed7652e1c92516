from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusdyn.circle import CircleLift, build_denjoy
from torusdyn.gallery import (crossing_times, example_fully_essential,
                              example_unbounded_inessential, no_gap_window,
                              obstruction_evidence, surgery_geometry,
                              suspension_map)
from torusdyn.rotation import (ProximalityResult, deviation_profile,
                               estimate_rotation_set, proximality_scan,
                               recurrence_probe)
from torusdyn.util import GOLDEN_MEAN, SQRT2_MINUS_1, circle_dist, wrap01

from conftest import diameter_table

A, B = GOLDEN_MEAN, SQRT2_MINUS_1


def suspension_reference_eval(susp, z):
    """Independent route: unwind the gluing relation step by step.

    Descends the time coordinate to its fundamental representative one unit
    at a time, applying the fiber map once per unit, instead of using the
    floor formula directly.
    """
    u, x = float(z[0]), float(z[1])
    s = susp.base(wrap01(u))
    x_cur = x
    while s >= 1.0:
        s -= 1.0
        x_cur = float(susp.fiber(x_cur))
    while s < 0.0:
        s += 1.0
        x_cur = float(susp.fiber.inverse()(x_cur))
    return np.array([s, wrap01(x_cur)])


def test_suspension_quotient_consistency():
    specs = [
        suspension_map(CircleLift.rigid(A), CircleLift.rigid(B)),
        suspension_map(CircleLift.rigid(A), build_denjoy(B, N=6)),
        suspension_map(build_denjoy(A, N=6), CircleLift.rigid(B)),
    ]
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, (300, 2))
    for susp in specs:
        for z in pts:
            direct = wrap01(susp.torus_map.eval_lift(z))
            unwound = suspension_reference_eval(susp, z)
            assert np.max(circle_dist(direct, unwound)) <= 1e-10


def test_suspension_floor_formula():
    susp = suspension_map(CircleLift.rigid(A), CircleLift.rigid(B))
    for u in (0.1, 0.5, 0.9):
        out = susp.torus_map.eval_lift(np.array([u, 0.25]))
        expect = np.array([u + A, 0.25 + B * np.floor(u + A)])
        assert np.max(np.abs(out - expect)) <= 1e-14


def test_suspension_identity_fiber():
    susp = suspension_map(CircleLift.rigid(A), CircleLift.rigid(0.0))
    z = np.random.default_rng(1).uniform(0, 1, (50, 2))
    out = susp.torus_map.eval_lift(z)
    assert np.max(np.abs(out[:, 1] - z[:, 1])) == 0.0


def test_suspension_zero_base_fixes_fibers():
    susp = suspension_map(CircleLift.rigid(0.0), CircleLift.rigid(B))
    z = np.random.default_rng(2).uniform(0, 1, (50, 2))
    out = susp.torus_map.eval_lift(z)
    assert np.array_equal(out, z)  # floor(u) = 0 on [0,1)


def test_suspension_rotation_target():
    susp = suspension_map(CircleLift.rigid(A), build_denjoy(B, N=20))
    n = 4000
    cloud = estimate_rotation_set(susp.torus_map, n_ladder=(n,), samples=16)
    target = np.array(susp.rotation_target)
    slack = susp.fiber.truncation_tol
    assert np.max(np.abs(cloud.deepest() - target)) <= 2.0 / n + slack + 1e-6


def test_suspension_deviations_plateau_both_directions(susp31):
    rho1, rho12 = susp31.rotation_target
    for v, rho in (((0, 1), rho12), ((1, 0), rho1)):
        prof = deviation_profile(susp31.torus_map, v, rho, n_max=3000,
                                 samples=32)
        assert prof.verdict == "bounded"
        assert prof.c_est < 2.0


def test_example_unbounded_inessential_probes(ex32):
    a0, b0 = ex32.notes["gap0"]
    assert a0 < ex32.w0[1] < b0
    assert ex32.w0[0] != ex32.w1[0]
    times = recurrence_probe(ex32.torus_map, ex32.wandering_center,
                             0.8 * ex32.wandering_radius, n_max=1500)
    assert times == []
    ev = obstruction_evidence(ex32, n_max=4000)
    assert ev["forward_pair"].forward_min <= 1e-2
    assert ev["backward_pair"].backward_min <= 1e-2
    assert ev["obstruction_evidence"]


def test_proximality_partners_batched(ex32):
    # one batch of partners gives the same minima as one scan per partner
    partners = [ex32.w1_edge, ex32.w0_edge, ex32.w0]
    batched = proximality_scan(ex32.torus_map, ex32.w0, partners, n_max=300)
    assert len(batched) == 3
    for p, res in zip(partners, batched):
        assert [res] == proximality_scan(ex32.torus_map, ex32.w0, [p], n_max=300)
    assert batched[2] == ProximalityResult(forward_min=0.0, backward_min=0.0)


def test_example_fully_essential(ex33):
    assert ex33.notes["crossing_count"] > 0
    lo, hi = ex33.notes["base_gap"]
    times = recurrence_probe(ex33.torus_map, (0.5 * (lo + hi), 0.37),
                             0.25 * (hi - lo), n_max=400)
    assert times == []
    ev = obstruction_evidence(ex33, n_max=4000)
    assert ev["obstruction_evidence"]


def test_crossing_times_scan():
    g1 = build_denjoy(A, N=8)
    gt = g1.gap_table
    a0, b0 = gt.gap(0)
    ts = crossing_times(g1, a0 - 0.01, b0 + 0.01)
    assert ts  # flanking arcs belong to the recurrent set


def test_surgery_schedule_values():
    geo = surgery_geometry((A, B), gamma=0.7374747, delta=0.01, n_scan=50)
    for n in (-50, -7, 0, 7, 50):
        width = geo.fiber_halfwidth(n, geo.center(n))
        assert width == 2.0 ** (-abs(n) - 10) * geo.delta
    u = np.array([1.0, geo.gamma]) / np.hypot(1.0, geo.gamma)
    seg = wrap01(np.linspace(-geo.delta, geo.delta, 128)[:, None] * u)
    assert geo.fiber_halfwidth(3, seg[0]) == 0.0
    assert geo.fiber_halfwidth(3, seg[-1]) == 0.0
    sampled = geo.fiber_halfwidth(5, seg)
    assert np.all(sampled >= 0.0)
    assert np.all(sampled <= 2.0 ** (-5 - 10) * geo.delta + 1e-18)
    diam = diameter_table(geo, 50)
    assert set(diam.values()) == {2 * geo.delta}
    assert len(diam) == 101


def test_surgery_rejects_overlapping_segments():
    # a translation along the segment direction makes iterates collinear,
    # so a long enough segment meets its first iterate
    gamma = 0.7374747
    with pytest.raises(ValueError, match="delta too large"):
        surgery_geometry((0.2, 0.2 * gamma), gamma=gamma, delta=0.15, n_scan=50)
    with pytest.raises(ValueError):
        surgery_geometry((A, B), gamma=gamma, delta=-1.0)


def test_no_gap_window_examples():
    w = no_gap_window({0}, 5)
    assert w.m0 == 5
    assert w.anchor(3) == 3
    assert w.check_interval_property(3)
    # singleton set: the image covers the run exactly, for every assignment
    assert w.check_assignment(3, [0] * 6)

    w = no_gap_window({1, 3}, 2)
    assert w.m0 == 4

    with pytest.raises(ValueError):
        no_gap_window(set(), 2)


def test_no_gap_window_exhaustive_small():
    rng = np.random.default_rng(11)
    for _ in range(20):
        size = rng.integers(1, 5)
        A_set = tuple(sorted(rng.choice(np.arange(-5, 6), size=size,
                                        replace=False).tolist()))
        n0 = int(rng.integers(0, 5))
        w = no_gap_window(A_set, n0)
        assert w.m0 >= n0
        for m_prime in (0, 3):
            assert w.check_interval_property(m_prime)
            if len(w.values) ** (w.m0 + 1) <= 20_000:
                for xi in product(w.values, repeat=w.m0 + 1):
                    assert w.check_assignment(m_prime, xi)


def check_assignment_reference(w, m_prime, xi):
    """NoGapWindow.check_assignment as first written: the window rebuilt as
    a list on every call and max(A) - min(A) + 1 taken anew."""
    window = list(range(int(m_prime), int(m_prime) + w.m0 + 1))
    if len(xi) != len(window):
        raise ValueError("assignment length must be the window length")
    img = sorted({j - x for j, x in zip(window, xi)})
    span = img[-1] - img[0]
    max_jump = max(w.values) - min(w.values) + 1
    gaps_ok = all(b - a <= max_jump for a, b in zip(img, img[1:]))
    return span >= w.n0 and gaps_ok


@given(data=st.data(), A=st.sets(st.integers(-6, 6), min_size=1, max_size=4),
       n0=st.integers(0, 5), m_prime=st.integers(-20, 20))
@settings(max_examples=300, deadline=None)
def test_check_assignment_matches_reference(data, A, n0, m_prime):
    w = no_gap_window(A, n0)
    # values of A give mostly passing assignments, other integers failing ones
    entry = st.one_of(st.sampled_from(w.values), st.integers(-9, 9))
    xi = data.draw(st.lists(entry, min_size=w.m0 + 1, max_size=w.m0 + 1))
    assert w.check_assignment(m_prime, xi) == check_assignment_reference(
        w, m_prime, xi)
    assert w.check_assignment(m_prime, tuple(xi)) == check_assignment_reference(
        w, m_prime, tuple(xi))
    bad = data.draw(st.lists(entry, max_size=w.m0 + 4).filter(
        lambda l: len(l) != w.m0 + 1))
    for check in (w.check_assignment,
                  lambda m, x: check_assignment_reference(w, m, x)):
        with pytest.raises(ValueError, match="window length"):
            check(m_prime, bad)


@given(data=st.data(), A=st.sets(st.integers(-6, 6), min_size=1, max_size=4),
       n0=st.integers(0, 5), m_prime=st.integers(-20, 20), k=st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_check_assignment_batch_matches_reference(data, A, n0, m_prime, k):
    w = no_gap_window(A, n0)
    entry = st.one_of(st.sampled_from(w.values), st.integers(-9, 9))
    rows = data.draw(st.lists(st.lists(entry, min_size=w.m0 + 1,
                                       max_size=w.m0 + 1),
                              min_size=k, max_size=k))
    xis = np.array(rows, dtype=np.int64).reshape(k, w.m0 + 1)
    got = w.check_assignment(m_prime, xis)
    assert got.dtype == bool and got.shape == (k,)
    assert got.tolist() == [check_assignment_reference(w, m_prime, xi)
                            for xi in rows]
    # the scalar call is the batch's one-row case
    for xi in rows:
        assert w.check_assignment(m_prime, xi) is bool(
            w.check_assignment(m_prime, [xi])[0])
    with pytest.raises(ValueError, match="window length"):
        w.check_assignment(m_prime, np.zeros((k, w.m0 + 2), dtype=np.int64))


def test_manifest_matches_constructor_defaults(ex32, ex33):
    from torusdyn.gallery import GALLERY_MANIFEST

    m32 = GALLERY_MANIFEST["unbounded-inessential"]
    assert ex32.notes["denjoy_N"] == m32["fiber"]["N"]
    assert ex32.w1[0] - ex32.w0[0] == pytest.approx(m32["push_dt"])
    assert ex32.w0[0] == pytest.approx(m32["seed_time"])
    m33 = GALLERY_MANIFEST["fully-essential"]
    assert ex33.notes["denjoy_N"] == m33["fiber"]["N"]


def first_fit_reference(gt, margin):
    """Index, in order of a, of the first base gap shorter than 2e-3 whose
    flanking arcs both exceed 2 * margin, scanned gap by gap; None if none."""
    order = np.argsort(gt.a)
    a_s, b_s = gt.a[order], gt.b[order]
    for j in range(len(order)):
        prev_end = b_s[j - 1] if j > 0 else b_s[-1] - 1.0
        next_start = a_s[(j + 1) % len(order)] if j + 1 < len(order) else a_s[0] + 1.0
        if (b_s[j] - a_s[j] < 2e-3 and a_s[j] - prev_end > 2 * margin
                and next_start - b_s[j] > 2 * margin):
            return j
    return None


@pytest.mark.parametrize("margin,sorted_gap", [
    (0.0005, 1), (0.001, 1), (0.002, 1), (0.003, 1), (0.004, 3), (0.008, None)])
def test_fully_essential_takes_the_first_fitting_gap(margin, sorted_gap,
                                                     monkeypatch):
    from torusdyn.gallery import GALLERY_MANIFEST, manifest_suspension

    monkeypatch.setitem(GALLERY_MANIFEST["fully-essential"], "margin", margin)
    gt = manifest_suspension("fully-essential").base.gap_table
    assert first_fit_reference(gt, margin) == sorted_gap
    if sorted_gap is None:
        with pytest.raises(RuntimeError, match="flanking arcs"):
            example_fully_essential()
        return
    order = np.argsort(gt.a)
    a_s, b_s = gt.a[order], gt.b[order]
    ex = example_fully_essential()
    assert ex.notes["base_gap"] == (a_s[sorted_gap], b_s[sorted_gap])
    assert ex.notes["s0"] == a_s[sorted_gap] - margin
