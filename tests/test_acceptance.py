"""Acceptance criteria, one test per criterion with a printed verdict line.

Heavy invariant-region builds are shared between the criteria that need the
same map (the full-size suspension region serves both the two-component
count and the nontrivial factor pipeline).
"""

import time
from itertools import combinations

import numpy as np
import pytest

from torusdyn.circle import CircleLift, build_denjoy, rotation_number
from torusdyn.factor import (build_tau, project_to_torus_factor,
                             verify_equivariance)
from torusdyn.gallery import (no_gap_window, obstruction_evidence,
                              surgery_geometry)
from torusdyn.rotation import (deviation_profile, horizontal_spread,
                               recurrence_probe)
from torusdyn.skew import (SkewState, build_centralized, check_closed_form,
                           check_commutation, fiber_complement_components,
                           vertical_orbit_bound)
from torusdyn.torus import DehnTwist, RigidTranslation, normalize_isotopy_class
from torusdyn.util import GOLDEN_MEAN, SQRT2_MINUS_1, lattice_points_2d

from conftest import ALPHA, BETA, diameter_table


def verdict(num, name, ok, detail):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tau_susp(skew31):
    return build_tau(skew31, (0.5, 0.0), ball_radius=0.15,
                     n_t=256, n_x=256, n_y=512, max_iters=240, seed=0)


@pytest.fixture(scope="module")
def tau_rigid(skew_rigid):
    return build_tau(skew_rigid, (0.5, 0.0), ball_radius=0.15,
                     n_t=256, n_x=256, n_y=512, max_iters=240, seed=0)


def test_criterion_1_rotation_number_bound():
    t0 = time.time()
    est, _ = rotation_number(CircleLift.rigid(ALPHA), 0.0, 100_000)
    rigid_err = abs(est - ALPHA)
    lift = build_denjoy(ALPHA, N=40)
    est_d, _ = rotation_number(lift, 0.0, 100_000)
    denjoy_err = abs(est_d - ALPHA)
    elapsed = time.time() - t0
    ok = rigid_err <= 1e-12 and denjoy_err <= 1e-5 + 1e-6 and elapsed <= 1.0
    verdict(1, "rotation-number bound", ok,
            f"rigid err {rigid_err:.2e}, truncated err {denjoy_err:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_2_flow_algebra(susp31, ex32, ex33, skew_rigid, skew31):
    t0 = time.time()
    skews = {
        "rigid": skew_rigid,
        "suspension": skew31,
        "unbounded-inessential": build_centralized(ex32.torus_map,
                                                   ex32.rho_vertical),
        "fully-essential": build_centralized(ex33.torus_map,
                                             ex33.rho_vertical),
    }
    worst_comm = 0.0
    worst_closed = 0.0
    for skew in skews.values():
        worst_comm = max(worst_comm,
                         check_commutation(skew, samples=1000, seed=0).defect)
        worst_closed = max(worst_closed,
                           check_closed_form(skew, samples=143, seed=0).defect)
    elapsed = time.time() - t0
    ok = worst_comm <= 1e-9 and worst_closed <= 1e-7 and elapsed <= 5.0
    verdict(2, "flow algebra", ok,
            f"commutation {worst_comm:.2e}, closed form {worst_closed:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_3_vertical_boundedness(ex32, ex33, profile32, profile33):
    start = lattice_points_2d(32, seed=0)[0]
    ok = True
    details = []
    for name, ex, prof in (("unbounded-inessential", ex32, profile32),
                           ("fully-essential", ex33, profile33)):
        t0 = time.time()
        skew = build_centralized(ex.torus_map, ex.rho_vertical,
                                 c_est=prof.c_est)
        osc = vertical_orbit_bound(
            skew, SkewState(0.0, float(start[0]), float(start[1])),
            n_max=10_000)
        elapsed = time.time() - t0
        good = osc <= 2.0 * prof.c_est + 0.05 and elapsed <= 30.0
        ok &= good
        details.append(f"{name}: osc {osc:.4f} <= {2 * prof.c_est + 0.05:.4f} "
                       f"({elapsed:.0f}s)")
    verdict(3, "vertical boundedness", ok, "; ".join(details))


def test_criterion_4_deviation_dichotomy(profile31, profile32, profile33):
    t0 = time.time()
    rigid_prof = deviation_profile(RigidTranslation(ALPHA, BETA), (0, 1), BETA,
                                   n_max=10_000, samples=32, seed=0)
    spread = horizontal_spread(DehnTwist(1), n_max=1000, samples=32, seed=0)
    twist_ok = bool(np.all(spread.forward[1:] >= np.arange(1, 1001) - 1.0))
    plateaus = [p.verdict == "bounded" for p in (profile31, profile32,
                                                 profile33)]
    elapsed = time.time() - t0
    ok = (rigid_prof.c_est <= 1e-9 and twist_ok and all(plateaus)
          and elapsed <= 60.0)
    verdict(4, "deviation dichotomy", ok,
            f"rigid D {rigid_prof.c_est:.1e}, twist spread >= n-1: {twist_ok}, "
            f"plateaus {plateaus}, {elapsed:.0f}s")


def test_criterion_5_two_unbounded_components(tau_susp):
    t0 = time.time()
    bad = []
    for j in range(64):
        comps, _ = fiber_complement_components(tau_susp.mask, j / 64)
        n_unb = sum(1 for c in comps if c.unbounded)
        tops = sum(1 for c in comps if c.unbounded and c.touches_top)
        bots = sum(1 for c in comps if c.unbounded and c.touches_bottom)
        if not (n_unb == 2 and tops == 1 and bots == 1):
            bad.append(j)
    elapsed = time.time() - t0
    ok = not bad and elapsed <= 300.0
    verdict(5, "two unbounded components", ok,
            f"64 fibers checked, exceptions {bad}, {elapsed:.0f}s "
            f"(region status {tau_susp.status}, {tau_susp.mask.count} cells)")


def test_criterion_6_factor_rigid(tau_rigid):
    t0 = time.time()
    fm = project_to_torus_factor(tau_rigid, grid=(48, 16))
    cell = tau_rigid.geom.h_y
    const = np.median(fm.values - fm.y_grid[None, :])
    dev = float(np.max(np.abs(fm.values - fm.y_grid[None, :] - const)))
    elapsed = time.time() - t0
    # (n * alpha, n * rho) is dense in T^2, so the region's limit is the slab
    # |y| <= r + 1/2 over every (t, x): the cells whose centers lie in it
    ys = tau_rigid.geom.centers(0, 0, np.arange(tau_rigid.geom.n_y))[2]
    slab = np.abs(ys) <= 0.15 + 0.5
    occ = tau_rigid.mask.occ
    over, missing = int((occ & ~slab).sum()), int((slab & ~occ).sum())
    ok = (fm.defect_max <= 2 * cell and dev <= 2 * cell and over == 0
          and missing == 0 and elapsed <= 300.0)
    verdict(6, "factor pipeline, rigid", ok,
            f"semi-conjugacy defect {fm.defect_max / cell:.2f} cells, "
            f"|h - (pr2 + c)| {dev / cell:.2f} cells, {elapsed:.0f}s; "
            f"{over} cells over the slab, {missing} slab cells missing")


def test_criterion_7_factor_suspension(tau_susp):
    t0 = time.time()
    fm = project_to_torus_factor(tau_susp, grid=(48, 16))
    eq = verify_equivariance(tau_susp, samples=64, s_ladder=64, seed=0)
    cell = tau_susp.geom.h_y
    elapsed = time.time() - t0
    ok = (fm.defect_max <= 4 * cell and eq.unit_translate_defect <= 4 * cell
          and eq.map_defect <= 4 * cell and eq.ordering_violations == 0
          and elapsed <= 600.0)
    verdict(7, "factor pipeline, suspension", ok,
            f"semi-conjugacy {fm.defect_max / cell:.2f} cells, unit translate "
            f"{eq.unit_translate_defect / cell:.2f}, map equivariance "
            f"{eq.map_defect / cell:.2f}, ordering violations "
            f"{eq.ordering_violations}/{eq.pairs_checked}, {elapsed:.0f}s")


def test_criterion_8_window_combinatorics():
    t0 = time.time()
    checked = 0
    assignments = 0
    failures = []
    values = list(range(-5, 6))
    for size in (1, 2, 3):
        for A in combinations(values, size):
            for n0 in range(4):
                w = no_gap_window(A, n0)
                if w.m0 < n0:
                    failures.append((A, n0, "M0 below N0"))
                for m_prime in (0, 7):
                    if not w.check_interval_property(m_prime):
                        failures.append((A, n0, m_prime, "interval"))
                    # per-assignment consequences: enumerate outright when
                    # feasible, otherwise drive the extremal adversaries
                    count = size ** (w.m0 + 1)
                    if count <= 20_000:
                        # every assignment, one a row, in product's order
                        xis = np.array(A)[np.indices((size,) * (w.m0 + 1))
                                          .reshape(w.m0 + 1, -1).T]
                    else:
                        lohi = [min(A), max(A)]
                        xis = [tuple(lohi[j % 2] for j in range(w.m0 + 1)),
                               tuple(lohi[(j + 1) % 2] for j in range(w.m0 + 1)),
                               (min(A),) * (w.m0 + 1), (max(A),) * (w.m0 + 1)]
                        rng = np.random.default_rng(hash((A, n0)) % 2**32)
                        xis += [tuple(rng.choice(A, w.m0 + 1))
                                for _ in range(200)]
                        xis = np.array(xis)
                    ok = w.check_assignment(0, xis)
                    assignments += len(xis)
                    failures += [(A, n0, tuple(xi)) for xi in xis[~ok].tolist()]
                checked += 1
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 60.0
    verdict(8, "window combinatorics", ok,
            f"{checked} (A, N0) instances, {assignments} assignments, "
            f"counterexamples {failures[:3]}, {elapsed:.0f}s")


def test_criterion_9_isotopy_normalization():
    t0 = time.time()
    rng = np.random.default_rng(0)

    def mat_mul(P, Q):
        return ((P[0][0] * Q[0][0] + P[0][1] * Q[1][0],
                 P[0][0] * Q[0][1] + P[0][1] * Q[1][1]),
                (P[1][0] * Q[0][0] + P[1][1] * Q[1][0],
                 P[1][0] * Q[0][1] + P[1][1] * Q[1][1]))

    bad = 0
    for _ in range(1000):
        j = int(rng.integers(-8, 9))
        B = ((1, 0), (0, 1))
        for _ in range(rng.integers(1, 14)):
            a = int(rng.integers(-5, 6))
            E = ((1, a), (0, 1)) if rng.integers(2) else ((1, 0), (a, 1))
            C = mat_mul(B, E)
            if max(abs(v) for row in C for v in row) >= 10**6:
                break
            B = C
        Binv = ((B[1][1], -B[0][1]), (-B[1][0], B[0][0]))
        A = mat_mul(mat_mul(B, ((1, j), (0, 1))), Binv)
        C, k = normalize_isotopy_class(A)
        Cinv = ((C[1][1], -C[0][1]), (-C[1][0], C[0][0]))
        if k != j or mat_mul(Cinv, mat_mul(A, C)) != ((1, k), (0, 1)):
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed <= 1.0
    verdict(9, "isotopy normalization", ok,
            f"1000 conjugates, {bad} mismatches, {elapsed:.2f}s")


def test_criterion_10_obstruction_evidence(ex32):
    t0 = time.time()
    ev = obstruction_evidence(ex32, n_max=10_000, threshold=1e-2)
    times = recurrence_probe(ex32.torus_map, ex32.wandering_center,
                             0.8 * ex32.wandering_radius, n_max=2000, seed=0)
    geo = surgery_geometry((GOLDEN_MEAN, SQRT2_MINUS_1), gamma=0.7374747,
                           delta=0.01, n_scan=50)
    schedule_exact = all(
        geo.fiber_halfwidth(n, geo.center(n)) == 2.0 ** (-abs(n) - 10) * geo.delta
        for n in range(-50, 51))
    diameters = set(diameter_table(geo, 50).values())
    elapsed = time.time() - t0
    ok = (ev["forward_pair"].forward_min < 1e-2
          and ev["backward_pair"].backward_min < 1e-2
          and ev["obstruction_evidence"] and times == []
          and schedule_exact and diameters == {2 * geo.delta}
          and elapsed <= 120.0)
    verdict(10, "obstruction evidence", ok,
            f"minima {ev['forward_pair'].forward_min:.1e}/"
            f"{ev['backward_pair'].backward_min:.1e}, recurrence {len(times)}, "
            f"size schedule exact {schedule_exact}, diameters {diameters}, "
            f"{elapsed:.0f}s")
