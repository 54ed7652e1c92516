import warnings

import numpy as np
import pytest

from torusdyn.circle import CircleLift
from torusdyn.rotation import (deviation_profile, estimate_rotation_set,
                               horizontal_spread, proximality_scan,
                               recurrence_probe, vertical_rotation_number)
from torusdyn.torus import DehnTwist, RigidTranslation, SuspensionMap
from torusdyn.util import GOLDEN_MEAN, SQRT2_MINUS_1


def test_rotation_set_rigid_is_point():
    cloud = estimate_rotation_set(RigidTranslation(GOLDEN_MEAN, SQRT2_MINUS_1),
                                  n_ladder=(10, 50), samples=16)
    target = np.array([GOLDEN_MEAN, SQRT2_MINUS_1])
    assert np.max(np.abs(cloud.deepest() - target)) <= 1e-12


def test_rotation_set_identity():
    cloud = estimate_rotation_set(RigidTranslation(0, 0), n_ladder=(5,), samples=8)
    assert np.max(np.abs(cloud.deepest())) == 0.0


def test_rotation_set_rejects_twist():
    with pytest.raises(ValueError, match="vertical_rotation_number"):
        estimate_rotation_set(DehnTwist(1))


def test_suspension_birkhoff_target():
    susp = SuspensionMap(CircleLift.rigid(GOLDEN_MEAN),
                         CircleLift.rigid(SQRT2_MINUS_1))
    n = 10_000
    cloud = estimate_rotation_set(susp, n_ladder=(n,), samples=32)
    target = np.array([GOLDEN_MEAN, GOLDEN_MEAN * SQRT2_MINUS_1])
    assert np.max(np.abs(cloud.deepest() - target)) <= 2.0 / n


def test_vertical_rotation_number_cases():
    est, spread = vertical_rotation_number(
        RigidTranslation(GOLDEN_MEAN, SQRT2_MINUS_1), n=100, samples=8)
    assert est == pytest.approx(SQRT2_MINUS_1, abs=1e-12)
    assert spread <= 1e-12
    est, spread = vertical_rotation_number(DehnTwist(1), n=50, samples=8)
    assert est == 0.0 and spread == 0.0
    susp = SuspensionMap(CircleLift.rigid(GOLDEN_MEAN),
                         CircleLift.rigid(SQRT2_MINUS_1))
    n = 5000
    est, spread = vertical_rotation_number(susp, n=n, samples=16)
    assert abs(est - GOLDEN_MEAN * SQRT2_MINUS_1) <= 2.0 / n


def test_deviation_profile_rigid_zero():
    prof = deviation_profile(RigidTranslation(GOLDEN_MEAN, SQRT2_MINUS_1),
                             (0, 1), SQRT2_MINUS_1, n_max=500, samples=16)
    assert prof.c_est <= 1e-10
    assert prof.verdict == "bounded"
    assert prof.value[0] == 0.0


def test_deviation_profile_refuses_an_overflowing_table():
    # <f^n(z) - z, v> overflows to inf for v = (1e308, 1e308) and to
    # inf - inf = nan for v = (1e308, -1e308): refused, with no warning
    rigid = RigidTranslation(0.6, 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in ((1e308, 1e308), (1e308, -1e308)):
            with pytest.raises(ValueError, match=r"the deviation profile along "
                                                 r"v = \[1e\+308, -?1e\+308\] "
                                                 r"is not finite"):
                deviation_profile(rigid, v, 0.4, n_max=10, samples=2)
        assert deviation_profile(rigid, (1e300, 1e300), 0.4, n_max=10,
                                 samples=2).c_est > 0.0


def test_deviation_profile_twist_grows():
    prof = deviation_profile(DehnTwist(1), (1, 0), 0.0, n_max=300, samples=16)
    # the unit vertical translate alone contributes n
    assert prof.value[300] >= 299.0
    assert prof.verdict == "growing"


def test_deviation_profile_monotone_in_samples():
    susp = SuspensionMap(CircleLift.rigid(GOLDEN_MEAN),
                         CircleLift.rigid(SQRT2_MINUS_1))
    rho = GOLDEN_MEAN * SQRT2_MINUS_1
    small = deviation_profile(susp, (0, 1), rho, n_max=200, samples=8, seed=0)
    # a superset of samples dominates pointwise; emulate by comparing maxima
    big = deviation_profile(susp, (0, 1), rho, n_max=200, samples=64, seed=0)
    assert big.c_est >= small.c_est - 1e-12


def test_vertical_spread_bounded_by_plateau():
    susp = SuspensionMap(CircleLift.rigid(GOLDEN_MEAN),
                         CircleLift.rigid(SQRT2_MINUS_1))
    rho = GOLDEN_MEAN * SQRT2_MINUS_1
    prof = deviation_profile(susp, (0, 1), rho, n_max=2000, samples=32)
    n = 2000
    _, spread = vertical_rotation_number(susp, n=n, samples=32)
    assert spread <= 2.0 * prof.c_est / n + 1e-12


def test_horizontal_spread_cases():
    sp = horizontal_spread(RigidTranslation(GOLDEN_MEAN, SQRT2_MINUS_1),
                           n_max=100, samples=16)
    assert np.max(sp.forward) <= 1e-10 and np.max(sp.backward) <= 1e-10
    assert sp.consistent

    sp = horizontal_spread(DehnTwist(1), n_max=100, samples=16)
    assert np.all(sp.forward[1:] >= np.arange(1, 101) - 1e-9)
    assert np.all(sp.backward[1:] >= np.arange(1, 101) - 1e-9)
    assert sp.consistent

    susp = SuspensionMap(CircleLift.rigid(GOLDEN_MEAN),
                         CircleLift.rigid(SQRT2_MINUS_1))
    sp = horizontal_spread(susp, n_max=200, samples=16)
    assert np.max(sp.forward) <= 2.0 and np.max(sp.backward) <= 2.0


def test_proximality_trivial_and_isometry():
    r = RigidTranslation(GOLDEN_MEAN, SQRT2_MINUS_1)
    [res] = proximality_scan(r, (0.2, 0.2), [(0.2, 0.2)], n_max=10)
    assert res.forward_min == 0.0 and res.backward_min == 0.0
    [res] = proximality_scan(r, (0.1, 0.1), [(0.3, 0.3)], n_max=50)
    d0 = np.hypot(0.2, 0.2)
    assert res.forward_min == pytest.approx(d0, abs=1e-12)
    assert res.backward_min == pytest.approx(d0, abs=1e-12)


def test_orbit_diagnostics_reject_empty_ladder():
    r = RigidTranslation(GOLDEN_MEAN, SQRT2_MINUS_1)
    for scan in (lambda: deviation_profile(r, (0, 1), 0.0, n_max=0),
                 lambda: horizontal_spread(r, n_max=0),
                 lambda: proximality_scan(r, (0.1, 0.1), [(0.3, 0.3)], n_max=0),
                 lambda: estimate_rotation_set(r, n_ladder=()),
                 lambda: estimate_rotation_set(r, n_ladder=(0,)),
                 lambda: estimate_rotation_set(r, n_ladder=(-3, 5)),
                 lambda: vertical_rotation_number(r, n=0)):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            scan()
    assert recurrence_probe(r, (0.5, 0.5), 0.1, n_max=0) == []


def test_recurrence_irrational_rotation():
    r = RigidTranslation(GOLDEN_MEAN, SQRT2_MINUS_1)
    radius = 0.15
    n_max = int(np.ceil(1.0 / radius)) ** 2
    times = recurrence_probe(r, (0.5, 0.5), radius, n_max=n_max)
    assert times  # nonempty within the heuristic bound


def test_recurrence_identity_every_time():
    times = recurrence_probe(RigidTranslation(0, 0), (0.5, 0.5), 0.1, n_max=20)
    assert times == list(range(1, 21))


def test_rotation_cloud_hull_shrinks():
    # pseudo-rotation: the cloud tightens around its point as n grows
    susp = SuspensionMap(CircleLift.rigid(GOLDEN_MEAN),
                         CircleLift.rigid(SQRT2_MINUS_1))
    cloud = estimate_rotation_set(susp, n_ladder=(100, 3000), samples=32)

    def radius(pts):
        c = pts.mean(axis=0)
        return float(np.max(np.hypot(*(pts - c).T)))

    assert radius(cloud.points[3000]) < radius(cloud.points[100])
