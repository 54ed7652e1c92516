import os

import pytest

import torusdyn.util
from torusdyn.circle import CircleLift
from torusdyn.gallery import (example_fully_essential,
                              example_unbounded_inessential, suspension_map)
from torusdyn.rotation import deviation_profile
from torusdyn.skew import build_centralized
from torusdyn.torus import RigidTranslation

# acceptance constants (quoted double literals, used verbatim)
ALPHA = 0.6180339887
BETA = 0.4142135624


def diameter_table(geo, n_range=50):
    """Diameters of the blown-up domains n = -n_range..n_range of a surgery
    geometry, by n."""
    return {n: geo.domain_diameter(n) for n in range(-n_range, n_range + 1)}


@pytest.fixture
def both_schedules():
    """A function that calls ``run()`` twice, with ``util._both_ways``
    forced to fork its backward half into a child and forced to keep it in
    this process, and returns the two results, forked first."""
    def call(run):
        out = []
        for forks in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(torusdyn.util, "_can_fork", lambda work: forks)
                out.append(run())
        return out
    return call


@pytest.fixture
def fork_pids(monkeypatch):
    """Force ``util._both_ways`` to fork, and list the pid of every child
    it makes, as a wrapped os.fork sees it."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(torusdyn.util, "_can_fork", lambda work: True)
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    """Every pid is of a child that has been waited for: none is left
    running, nor as a zombie."""
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture(scope="session")
def susp31():
    return suspension_map(CircleLift.rigid(ALPHA), CircleLift.rigid(BETA))


@pytest.fixture(scope="session")
def ex32():
    return example_unbounded_inessential()


@pytest.fixture(scope="session")
def ex33():
    return example_fully_essential()


@pytest.fixture(scope="session")
def profile31(susp31):
    return deviation_profile(susp31.torus_map, (0, 1),
                             susp31.rho_base * susp31.rho_fiber,
                             n_max=10_000, samples=64, seed=0)


@pytest.fixture(scope="session")
def profile32(ex32):
    return deviation_profile(ex32.torus_map, (0, 1), ex32.rho_vertical,
                             n_max=10_000, samples=32, seed=0)


@pytest.fixture(scope="session")
def profile33(ex33):
    return deviation_profile(ex33.torus_map, (0, 1), ex33.rho_vertical,
                             n_max=10_000, samples=32, seed=0)


@pytest.fixture(scope="session")
def skew_rigid():
    return build_centralized(RigidTranslation(ALPHA, BETA), BETA, c_est=0.0)


@pytest.fixture(scope="session")
def skew31(susp31, profile31):
    return build_centralized(susp31.torus_map,
                             susp31.rho_base * susp31.rho_fiber,
                             c_est=profile31.c_est)
