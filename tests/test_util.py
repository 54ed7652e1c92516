import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import torusdyn.util
from conftest import assert_reaped
from torusdyn.rotation import deviation_profile
from torusdyn.torus import RigidTranslation
from torusdyn.util import (_both_ways, circle_dist, iterate_blocks, iterates,
                           torus_dist, wrap01)

TINY = 2.0 ** -60
EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
        -TINY, -2.0 ** -53, -1.0, 1.0, 2.0 ** 53, -2.0 ** 53, 2.0 ** 53 + 2.0,
        -(2.0 ** 53) - 2.0, 0.5, -0.5, 1e300, -1e300]
FLOATS = st.one_of(st.sampled_from(EDGE),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-4.0, 4.0))
# differences stay finite
BOUNDED = st.one_of(st.sampled_from(EDGE[:-2]), st.floats(-1e150, 1e150),
                    st.floats(-4.0, 4.0))


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def wrap01_remainder(x):
    """The `% 1.0` form of the reduction, tiny negatives sent to 0.0."""
    r = np.asarray(x, dtype=float) % 1.0
    return np.where(r >= 1.0, 0.0, r)


def wrap01_where(x):
    """wrap01 as first written: the difference, then np.where for the 1.0."""
    xa = np.asarray(x, dtype=float)
    r = xa - np.floor(xa)
    return np.where(r >= 1.0, 0.0, r)


def circle_dist_remainder(a, b):
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    return np.minimum(d, 1.0 - d)


def torus_dist_remainder(z, w):
    d = np.abs(np.asarray(z, dtype=float) - np.asarray(w, dtype=float)) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.sqrt(np.sum(d * d, axis=-1))


@given(xs=arrays(float, st.integers(0, 16), elements=FLOATS))
@example(xs=np.array(EDGE))
@settings(max_examples=300, deadline=None)
def test_wrap01_is_the_remainder_form(xs):
    out = wrap01(xs)
    assert bits(out) == bits(wrap01_remainder(xs))
    assert np.all((out >= 0.0) & (out < 1.0))
    assert not np.any(np.signbit(out))
    for x in xs.tolist():
        r = wrap01(x)
        assert type(r) is float
        assert bits(r) == bits(wrap01_remainder(x))


@given(ab=arrays(float, st.tuples(st.integers(0, 8), st.just(4)), elements=BOUNDED))
@settings(max_examples=200, deadline=None)
def test_distances_match_the_remainder_form(ab):
    z, w = ab[:, :2], ab[:, 2:]
    assert bits(circle_dist(z, w)) == bits(circle_dist_remainder(z, w))
    assert bits(torus_dist(z, w)) == bits(torus_dist_remainder(z, w))
    for a, b in ab[:, :2].tolist():
        d = circle_dist(a, b)
        assert type(d) is float and bits(d) == bits(circle_dist_remainder(a, b))
    if len(ab):
        d = torus_dist(z[0], w[0])
        assert type(d) is float and bits(d) == bits(torus_dist_remainder(z[0], w[0]))


ONE_MINUS_ULP = np.nextafter(1.0, 0.0)
SPECIAL = [-0.0, -5e-324, -TINY, -ONE_MINUS_ULP, ONE_MINUS_ULP, 3.0, -7.0,
           2.0 ** 60, np.nan, np.inf, -np.inf]
ANY = st.one_of(st.sampled_from(EDGE + SPECIAL), st.floats(), st.floats(-4.0, 4.0))


@given(xs=arrays(float, st.tuples(st.integers(0, 6), st.integers(1, 3)),
                 elements=ANY))
@example(xs=np.array([EDGE + SPECIAL]))
@settings(max_examples=300, deadline=None)
def test_wrap01_is_the_where_form(xs):
    before = xs.copy()
    # whole arrays, strided columns and 0-d arrays, numpy and Python scalars
    inputs = [xs, xs[:, 0], xs.T] + [np.asarray(x) for x in xs.ravel()]
    inputs += [np.float64(x) for x in xs.ravel()] + xs.ravel().tolist()
    with np.errstate(invalid="ignore"):
        for x in inputs:
            out = wrap01(x)
            assert bits(out) == bits(wrap01_where(x))
            if np.ndim(x):
                assert isinstance(out, np.ndarray) and out.shape == np.shape(x)
                assert not np.shares_memory(out, xs)
            else:
                assert type(out) is float
    assert bits(xs) == bits(before)


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               -TINY, -1e-300, -2.0 ** -53, -1.0, 2.0 ** 53 + 2.0,
                               -(2.0 ** 53) - 2.0, 0.7, -0.3, 1e300, -1e300,
                               math.inf, -math.inf, math.nan])
def test_wrap01_python_floats_match_the_numpy_path(x, monkeypatch):
    with np.errstate(invalid="ignore"):
        want = wrap01(np.float64(x))  # a numpy scalar takes the numpy path
    if math.isfinite(x):
        # a finite Python float takes no numpy call
        monkeypatch.setattr(torusdyn.util, "np", None)
    with np.errstate(invalid="ignore"):
        got = wrap01(x)
    assert type(got) is float and bits(got) == bits(want)
    if math.isfinite(x):
        assert 0.0 <= got < 1.0 and math.copysign(1.0, got) == 1.0


# -- the block form of the orbit driver -----------------------------------------


def odd_step(z):
    """A row-wise map whose iterates carry full-width mantissas."""
    return np.sin(3.0 * z) + 0.7 * z[::-1]


@pytest.mark.parametrize("width", [1, 3, 64])
def test_iterate_blocks_stack_to_the_iterates(width):
    z = np.array([[0.1, -0.2], [0.7, 0.3], [-0.0, 5e-324]])
    for n in (0, 1, width - 1, width, width + 1, 2 * width + 3):
        # each block is read before the next is asked for
        blocks = [(n0, block.copy())
                  for n0, block in iterate_blocks(odd_step, z, n, width)]
        full, rest = divmod(n, width)
        starts = [1 + j * width for j in range(full + (rest > 0))]
        assert [n0 for n0, _ in blocks] == starts
        assert [len(b) for _, b in blocks] == [width] * full + [rest] * (rest > 0)
        want = np.array(list(iterates(odd_step, z, n))).reshape(n, *z.shape)
        got = np.concatenate([b for _, b in blocks] or [want[:0]])
        assert got.tobytes() == want.tobytes()
    assert list(iterate_blocks(odd_step, z, 0, width)) == []


# -- the two halves of a walk ----------------------------------------------------
# fork_pids forces the fork whatever work a test passes


def counting(stop, fail_at=None):
    for i in range(stop):
        if i == fail_at:
            raise ValueError(f"the half failed at item {i}")
        yield i


def odd_floats(n):
    """Arrays whose bits a lossy transfer would change: signed zeros, a
    subnormal, a NaN payload and the infinities."""
    for i in range(n):
        a = np.array([-0.0, 5e-324, np.inf, -np.inf, 0.1 * i])
        a = np.concatenate([a, np.frombuffer(b"\x01\x00\x00\x00\x00\x00\xf8\x7f")])
        yield a


@pytest.mark.parametrize("n_forward, n_backward", [(5, 5), (3, 6), (6, 3), (0, 4),
                                                   (4, 0)])
def test_both_ways_pairs_items_as_zip_does(n_forward, n_backward, fork_pids):
    got = list(_both_ways(counting(n_forward), odd_floats(n_backward), 0))
    want = list(zip(range(n_forward), odd_floats(n_backward)))
    assert [(i, a.tobytes()) for i, a in got] == [(i, a.tobytes()) for i, a in want]
    assert_reaped(fork_pids)


def test_both_ways_raises_the_backward_exception(fork_pids):
    pairs = _both_ways(counting(5), counting(5, fail_at=2), 0)
    assert [next(pairs), next(pairs)] == [(0, 0), (1, 1)]
    with pytest.raises(ValueError, match=r"^the half failed at item 2$"):
        next(pairs)
    assert_reaped(fork_pids)


def test_both_ways_names_an_exception_that_cannot_be_pickled(fork_pids):
    class LocalError(Exception):
        pass

    def fails():
        yield 0
        raise LocalError("a class pickle cannot find")

    with pytest.raises(RuntimeError, match=r"^LocalError: a class pickle cannot find$"):
        list(_both_ways(counting(5), fails(), 0))
    assert_reaped(fork_pids)


def test_both_ways_names_the_exit_code_of_a_silent_child(fork_pids):
    def dies():
        yield 0
        os._exit(3)

    with pytest.raises(RuntimeError, match=r"exit code 3 "):
        list(_both_ways(counting(5), dies(), 0))
    assert_reaped(fork_pids)


def test_short_walks_stay_in_this_process(monkeypatch):
    # with _can_fork as it is, a walk below the work floor makes no child,
    # and one above it makes one where the platform can fork
    pids = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(1) or fork())
    rigid = RigidTranslation(0.3, 0.7)
    short = deviation_profile(rigid, (0, 1), 0.7, n_max=100, samples=64)
    assert 100 * 64 < torusdyn.util._FORK_WORK and pids == []
    long = deviation_profile(rigid, (0, 1), 0.7, n_max=2000, samples=64)
    assert 2000 * 64 >= torusdyn.util._FORK_WORK
    assert len(pids) == torusdyn.util._can_fork(2000 * 64)
    assert short.c_est <= long.c_est


def test_both_ways_stopped_early_leaves_no_child(fork_pids):
    # the child runs ahead until the pipe is full; closing the pairs kills it
    pairs = _both_ways(itertools.count(), itertools.count(), 0)
    assert list(itertools.islice(pairs, 3)) == [(0, 0), (1, 1), (2, 2)]
    pairs.close()
    # and a forward half that raises ends the child too
    with pytest.raises(ValueError, match=r"^the half failed at item 1$"):
        list(_both_ways(counting(5, fail_at=1), itertools.count(), 0))
    assert len(fork_pids) == 2
    assert_reaped(fork_pids)
