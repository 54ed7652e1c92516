import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from torusdyn.util import circle_dist, torus_dist, wrap01

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
