"""Centralized skew-product on T x T x R, its flow symmetry, and grid saturation.

The skew-product advances a circle time coordinate rigidly and acts on an
annulus fiber by the underlying torus map with the mean vertical drift
subtracted, so bounded fiber orbits correspond to bounded vertical
deviations of the torus map. The diagonal flow (t, x, ytil) ->
(t + u, x, ytil - u) commutes with it and is an isometry; orbits of fiber
sets under both generate the invariant regions the factor construction
needs. Saturation transports the fiber cloud of a half-width block seed
forwards and backwards and rasterizes each image block into a boolean
occupancy grid.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .rotation import _positive_n_max
from .util import (_both_ways, circle_dist, finite_multiples, iterate_blocks,
                   iterates, nth_iterate, skew_dist, wrap01)

# block-orbit rounds per chunk of refine_envelopes, and its first checkpoint
_ENVELOPE_CHUNK = 16
# most block-orbit rounds refine_envelopes walks
_ENVELOPE_ROUNDS = 20_000
# saturation rounds without a new cell before it reports a fixed point
_PATIENCE = 30
# (x, y) offsets of the invariance samples in cells: the center and four
# corners inset to +-1/4 so exact gridline hits stay in their cell
_INSET = np.array([(0.0, 0.0), (-0.25, -0.25), (-0.25, 0.25), (0.25, -0.25),
                   (0.25, 0.25)])


@dataclass(frozen=True)
class SkewState:
    t: float
    x: float
    ytil: float

    def as_array(self):
        return np.array([self.t, self.x, self.ytil])


class CentralizedSkew:
    """Skew-product induced by a torus lift and a base angle rho.

    Immutable and shareable; all evaluators take (N, 3) state arrays with
    columns (t, x, ytil), t and x reduced to [0, 1).
    """

    def __init__(self, spec, rho, c_est=None):
        self.spec = spec
        self.rho = float(rho)
        self.c_est = None if c_est is None else float(c_est)

    def step(self, states, inverse=False):
        s = np.atleast_2d(np.asarray(states, dtype=float))
        t, x, ytil = s[:, 0], s[:, 1], s[:, 2]
        w = np.stack([x, ytil + t], axis=-1)
        img = self.spec.eval_inverse(w) if inverse else self.spec.eval_lift(w)
        rho = -self.rho if inverse else self.rho
        out = np.stack([wrap01(t + rho), wrap01(img[:, 0]), img[:, 1] - t - rho],
                       axis=-1)
        return out.reshape(np.shape(np.asarray(states, dtype=float)))

    def iterate(self, states, n):
        """n-fold composition; the inverse map is used for n < 0."""
        n = int(n)
        return nth_iterate(functools.partial(self.step, inverse=n < 0),
                           np.asarray(states, dtype=float).copy(), abs(n))

    def closed_form(self, states, n):
        """Independent route: conjugate the n-th power of the annulus map.

        The time coordinate advances rigidly by n*rho while the fiber is
        shifted up by the time lift, mapped n times, and shifted back down
        by the accumulated drift.
        """
        s = np.atleast_2d(np.asarray(states, dtype=float))
        t, x, ytil = s[:, 0], s[:, 1], s[:, 2]
        n = int(n)
        w = nth_iterate(functools.partial(self.spec.annulus_map, inverse=n < 0),
                        np.stack([x, ytil + t], axis=-1), abs(n))
        out = np.stack([
            wrap01(t + n * self.rho),
            wrap01(w[:, 0]),
            w[:, 1] - n * self.rho - t,
        ], axis=-1)
        return out.reshape(np.shape(np.asarray(states, dtype=float)))


def build_centralized(spec, rho, c_est=None):
    return CentralizedSkew(spec, rho, c_est=c_est)


def gamma_flow(states, u):
    """The commuting isometric flow (t, x, ytil) -> (t + u, x, ytil - u)."""
    s = np.asarray(states, dtype=float).copy()
    s2 = np.atleast_2d(s)
    s2[:, 0] = wrap01(s2[:, 0] + u)
    s2[:, 2] = s2[:, 2] - u
    return s2.reshape(np.shape(np.asarray(states, dtype=float)))


@dataclass
class CheckResult:
    defect: float
    threshold: float

    @property
    def passed(self):
        return self.defect <= self.threshold


def _sample_states(rng, samples):
    """Random states: t and x uniform in [0, 1), ytil uniform in [-2, 2)."""
    return np.column_stack([rng.uniform(0, 1, samples), rng.uniform(0, 1, samples),
                            rng.uniform(-2, 2, samples)])


def check_commutation(skew, samples=1000, seed=0, threshold=1e-9):
    """Max defect of F(Gamma^u s) vs Gamma^u(F s) over random states and u."""
    rng = np.random.default_rng(seed)
    s = _sample_states(rng, samples)
    u = rng.uniform(-2, 2, samples)
    a = skew.step(gamma_flow(s, u))
    b = gamma_flow(skew.step(s), u)
    return CheckResult(defect=float(np.max(skew_dist(a, b))), threshold=threshold)


def check_closed_form(skew, samples=150, seed=0, threshold=1e-7):
    """Max defect of the iterated map against the conjugation closed form."""
    s = _sample_states(np.random.default_rng(seed), samples)
    worst = 0.0
    for n in (1, -1, 7, -7, 25, 50, -50):
        a = skew.iterate(s, n)
        b = skew.closed_form(s, n)
        worst = max(worst, float(np.max(skew_dist(a, b))))
    return CheckResult(defect=worst, threshold=threshold)


def vertical_orbit_bound(skew, state, n_max=10_000):
    """Sampled oscillation sup |ytil_m - ytil_n| over |m|, |n| <= n_max."""
    n_max = _positive_n_max(n_max)
    finite_multiples(skew.rho, n_max)
    s0 = state.as_array() if isinstance(state, SkewState) else np.asarray(state, dtype=float)
    lo = hi = float(s0[2])
    for inverse in (False, True):
        for cur in iterates(functools.partial(skew.step, inverse=inverse),
                            s0[None, :], n_max):
            y = float(cur[0, 2])
            lo = min(lo, y)
            hi = max(hi, y)
    return hi - lo


# -- occupancy grids -----------------------------------------------------------


@dataclass(frozen=True)
class GridGeometry:
    """Regular cell grid over T x T x [y_min, y_max]; t and x wrap, y does not."""

    n_t: int
    n_x: int
    n_y: int
    y_min: float
    y_max: float

    def __post_init__(self):
        if min(self.n_t, self.n_x, self.n_y) < 1:
            raise ValueError("grid sizes must be at least 1")
        if not self.y_max > self.y_min:
            raise ValueError("the height window needs y_max > y_min")

    @property
    def h_t(self):
        return 1.0 / self.n_t

    @property
    def h_x(self):
        return 1.0 / self.n_x

    @property
    def h_y(self):
        return (self.y_max - self.y_min) / self.n_y

    def t_cell(self, t):
        return _wrapped_cell(t, self.n_t)

    def x_cell(self, x):
        return _wrapped_cell(x, self.n_x)

    def y_cell(self, y):
        """Cell index of a height; may fall outside [0, n_y)."""
        return np.floor((np.asarray(y, dtype=float) - self.y_min) / self.h_y).astype(np.int64)

    def centers(self, it, ix, iy):
        t = (np.asarray(it) + 0.5) * self.h_t
        x = (np.asarray(ix) + 0.5) * self.h_x
        y = self.y_min + (np.asarray(iy) + 0.5) * self.h_y
        return t, x, y

    def fiber_shift_cells(self):
        """Gamma transport over one t cell, measured in y cells.

        A window snapped to cells of height 1/m (``geometry_for``) shifts by
        exactly m / n_t, an integer whenever n_t divides m; the float ratio
        h_t / h_y can round to either side of it.
        """
        m = float(np.round(self.n_y / (self.y_max - self.y_min)))
        if m >= 1.0 and self.y_max == self.y_min + self.n_y * (1.0 / m):
            return m / self.n_t
        return self.h_t / self.h_y


def _wrapped_cell(v, n):
    """Cell index in [0, n) of a circle coordinate; a Python int for a 0-d
    one, which one-point height queries ask for at every step."""
    c = wrap01(v) * n
    if isinstance(c, float):
        return min(math.floor(c), n - 1)
    return np.minimum(np.floor(c).astype(np.int64), n - 1)


def geometry_for(skew, center_y=0.0, n_t=256, n_x=256, n_y=512, half_height=None):
    """Window sized from the cached deviation bound, cells snapped to 1/M.

    The half height defaults to 2*c_est + 2 and the y cell height is snapped
    to an exact integer fraction of 1 so that the unit vertical translation
    is an exact cell count.
    """
    c = skew.c_est if skew.c_est is not None else 0.0
    if not c >= 0.0:
        raise ValueError(f"c_est must be at least 0, not {c!r}")
    if half_height is None:
        half_height = 2.0 * c + 2.0
    if not half_height > 0.0:
        raise ValueError(f"the window half height must be positive, "
                         f"not {half_height!r}")
    if half_height < 2.0 * c + 1.0:
        raise ValueError("window height must be at least 2*c_est + 1")
    m = max(int(np.ceil(n_y / (2.0 * half_height))), 1)  # GridGeometry checks n_y
    h_y = 1.0 / m
    y_min = (np.floor(center_y * m) - n_y // 2) * h_y
    return GridGeometry(n_t=n_t, n_x=n_x, n_y=n_y, y_min=float(y_min),
                        y_max=float(y_min + n_y * h_y))


@dataclass
class GridMask:
    geom: GridGeometry
    occ: np.ndarray  # bool, shape (n_t, n_x, n_y)
    provenance: dict = field(default_factory=dict)

    @property
    def count(self):
        return int(self.occ.sum())


def ball_fiber(center, radius):
    """Predicate for an open annulus ball, usable as a block fiber set."""
    cx, cy = float(center[0]), float(center[1])
    r2 = float(radius) ** 2

    def pred(x, y):
        dx = circle_dist(x, cx)
        return dx * dx + (np.asarray(y) - cy) ** 2 < r2

    return pred


def _guard_rows(h, geom):
    """geom.y_cell of the heights h, in place in h and clipped into the rows
    -1 and n_y that guard the window."""
    np.subtract(h, geom.y_min, out=h)
    np.divide(h, geom.h_y, out=h)
    np.floor(h, out=h)
    np.clip(h, -1, geom.n_y, out=h)


def _padded_cells(geom, x, rows, out):
    """Write to out the flat index x cell * (n_y + 2) + 1 + row of each point
    in a fiber padded with one guard row at each end, x broadcasting against
    rows. x must already be in [0, 1) (``geom.x_cell`` without its wrap01)
    and rows clipped into the guard rows (``_guard_rows``). The sums are
    integers well inside the exact range of a double."""
    col = np.floor(x * geom.n_x)
    np.minimum(col, geom.n_x - 1, out=col)
    col *= geom.n_y + 2
    col += 1.0
    np.add(col, rows, out=out, casting="unsafe")


def saturate_block_orbit(skew, fiber_points, geom, max_iters=300):
    """Saturate a half-width block seed by transporting its fiber cloud.

    The image of an r-block under the skew-product is again an r-block, so
    the orbit union is assembled by iterating the two-dimensional fiber
    cloud exactly under the annulus map and moving each iterate across all
    fibers with the flow (a pure shear, rasterized per fiber). Each block
    image marks the cells of its own transported points and nothing else.
    Growth stops once no round has added a cell for ``_PATIENCE`` (30)
    consecutive rounds ("fixed-point"), at max_iters ("max-iters"), or when
    an image reaches the window's top or bottom row or lies beyond it
    ("window-exhausted").
    Returns (occ, seed_occ, status, rounds), seed_occ being the seed block.

    The n-th image of the half-width block of a cloud W at time 0 is the
    half-width block of f^n(W) shifted down by n*rho, centered at the block
    phase c = n*rho mod 1; backwards the shift is -(n*rho), so that the
    heights y + n*rho are y - shift, bit for bit. Every x the raster reads
    is in [0, 1): the cloud is reduced once, and each step is the lean
    annulus step, which only reduces its output. The two directions are
    zipped here, since the stale-streak rule needs the union of each round.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    pts = np.array(fiber_points, dtype=float)
    pts[:, 0] = wrap01(pts[:, 0])
    n_t, n_x, n_y = geom.n_t, geom.n_x, geom.n_y
    # rows 0 and n_y + 1 guard the window: heights beyond it are clipped
    # into them, and being marked from the start they never count as growth
    padded = np.zeros((n_t, n_x, n_y + 2), dtype=bool)
    padded[:, :, [0, -1]] = True
    flat = padded.reshape(-1)  # a view: marking flat cells marks padded
    t_centers = geom.centers(np.arange(n_t), 0, 0)[0]
    fiber_base = np.arange(n_t)[:, None] * (n_x * (n_y + 2))

    # (n_t, len(pts)) work arrays, allocated once for every image
    ys = np.empty(len(pts))
    yy = np.empty((n_t, len(pts)))
    cells = np.empty(yy.shape, dtype=np.int64)
    hit = np.empty(yy.shape, dtype=bool)

    def raster_block(img, shift, c, grew):
        """Mark the half-width block at phase c of the image img, its
        heights shifted down by shift. Returns (edge, grew): whether a
        height reached the top or bottom row of the window or beyond it,
        and whether a cell was new or ``grew`` was already set."""
        # signed flow offsets in [-1/2, 1/2] of the fiber centers from the
        # block's center
        u = t_centers - c
        u -= np.round(u)
        # fiber i holds the shifted cloud shifted down by its flow offset
        np.subtract(img[:, 1], shift, out=ys)
        np.subtract(ys[None, :], u[:, None], out=yy)
        _guard_rows(yy, geom)
        lo, hi = yy.min(), yy.max()
        # padded flat index (fiber, x, 1 + y) of each point
        _padded_cells(geom, img[:, 0], yy, cells)
        np.add(cells, fiber_base, out=cells)
        if not grew:
            np.take(flat, cells, out=hit)
            grew = not hit.all()
        flat[cells] = True
        return bool(lo <= 0 or hi >= n_y - 1), grew

    raster_block(pts, 0.0, 0.0, False)  # n = 0 in both directions
    seed_occ = padded[:, :, 1:-1].copy()
    status = "max-iters"
    stale = rounds = 0
    orbit = zip(*(iterates(functools.partial(skew.spec._annulus_step,
                                             inverse=inverse), pts, max_iters)
                  for inverse in (False, True)))
    for rounds, (fwd, bwd) in enumerate(orbit, 1):
        shift = rounds * skew.rho
        edge, grew = raster_block(fwd, shift, wrap01(shift), False)
        at_edge, grew = raster_block(bwd, -shift, wrap01(-shift), grew)
        if edge or at_edge:
            status = "window-exhausted"
            break
        stale = 0 if grew else stale + 1
        if stale >= _PATIENCE:
            status = "fixed-point"
            break
    return padded[:, :, 1:-1], seed_occ, status, rounds


def refine_envelopes(skew, fiber_points, geom):
    """Per-fiber, per-column vertical extremes of the block orbit union.

    Tracks min/max of the transported fiber cloud per x column in exact
    real arithmetic, which closes the slow record tails that finite 3D
    rasterization leaves at the region's top and bottom edges. Every point
    of the cloud is walked and read by both scatters; the region build
    passes its seed ball's boundary ring (``factor.build_tau``). Returns
    (env_min, env_max, rounds): (n_t, n_x) arrays, +inf/-inf in columns
    never touched, and the rounds walked. After 16, 32, 64, ... rounds the
    walk takes the rows ``extend_to_envelopes`` fills per column and stops
    once they equal the previous checkpoint's, none having changed over the
    last half of the walk, or else at ``_ENVELOPE_ROUNDS``. On the measured
    maps no row changed later than twice the round of the change before it.

    The forward and the backward walk keep bucket tables of their own
    (`_envelope_buckets`) and run as the two halves of `util._both_ways`,
    in two processes where it forks. At each checkpoint the two halves'
    tables are merged by np.minimum and np.maximum, which are exact, so the
    envelopes and the rounds are those of one walk here, bit for bit.
    """
    n_t, n_x = geom.n_t, geom.n_x
    t_centers = geom.centers(np.arange(n_t), 0, 0)[0]
    y_centers = geom.centers(0, 0, np.arange(geom.n_y))[2]
    # the results come first in the heap: the bucket tables and chunks freed
    # above them do not stay resident under the later region stages
    env_min = np.empty((n_t, n_x))
    env_max = np.empty((n_t, n_x))
    # the walk's length is known only as it runs: its cap bounds the work
    halves = _both_ways(*(_envelope_buckets(skew, fiber_points, geom, inverse)
                          for inverse in (False, True)),
                        _ENVELOPE_ROUNDS * len(fiber_points))
    rows = None
    with contextlib.closing(halves):
        for (walked, low, high), (_, b_low, b_high) in halves:
            _unfold_buckets(np.minimum(low, b_low), np.minimum, t_centers, env_min)
            _unfold_buckets(np.maximum(high, b_high), np.maximum, t_centers,
                            env_max)
            new = np.stack([y_centers.searchsorted(env_min, "left"),
                            y_centers.searchsorted(env_max, "right")])
            if walked == _ENVELOPE_ROUNDS or np.array_equal(new, rows):
                return env_min, env_max, walked
            rows = new


def _envelope_buckets(skew, fiber_points, geom, inverse):
    """One direction of `refine_envelopes`: yields (rounds, low, high) after
    16, 32, 64, ... rounds and at ``_ENVELOPE_ROUNDS``, low and high its
    bucket tables of the seed image and the images of those rounds, to be
    read before the next item is asked for. The seed image, its x reduced
    once, is read first and alone; the images of rounds 1, 2, ... follow in
    chunks of ``_ENVELOPE_CHUNK`` from `util.iterate_blocks`, each at the
    shift and phase of ``saturate_block_orbit``.

    Phase buckets spare each image an (n_t, n_x) update. An image at block
    phase c puts a column extreme v at v - u in fiber t, where
    u = t_c - c - k is the fiber center's flow offset and k = round(t_c - c)
    is -1, 0 or 1. So v - u = (v + c) - t_c + k, and t enters only through
    t_c and k. Across the fibers k steps up once, so its sum P names the
    whole pattern. Each image's v + c is folded into row P + n_t of a
    (2*n_t, n_x) table, a chunk of images per scatter. P is summed from k
    as the per-fiber offsets round it, so a phase within an ulp of a step
    edge falls on the same side as in the per-image update. Prefix and
    suffix extremes over the rows then give each fiber its envelope
    (``_unfold_buckets``). The entries equal the per-image extremes of
    v - u up to a few ulps.
    """
    n_t, n_x = geom.n_t, geom.n_x
    t_centers = geom.centers(np.arange(n_t), 0, 0)[0]
    low = np.full((2 * n_t, n_x), np.inf)
    high = np.full((2 * n_t, n_x), -np.inf)
    # work arrays, allocated once: (len(fiber_points), chunk) tables with a
    # point's images side by side, so that each scatter reads one block of
    # rows. min and max are exact, so the order in which images reach the
    # bucket tables does not matter
    jx = np.empty((len(fiber_points), _ENVELOPE_CHUNK))
    lifted = np.empty_like(jx)
    cells = np.empty(jx.shape, dtype=np.int64)
    seed = np.array(fiber_points, dtype=float)
    seed[:, 0] = wrap01(seed[:, 0])
    step = functools.partial(skew.spec._annulus_step, inverse=inverse)
    orbit = iterate_blocks(step, seed, _ENVELOPE_ROUNDS, _ENVELOPE_CHUNK)
    check = _ENVELOPE_CHUNK
    for n0, images in itertools.chain([(0, seed[None])], orbit):
        k = len(images)
        shift = np.arange(n0, n0 + k) * skew.rho
        if inverse:
            shift = -shift
        c = wrap01(shift)
        x, y = images[:, :, 0].T, images[:, :, 1].T
        fx, v, fcells = jx[:, :k], lifted[:, :k], cells[:, :k]
        pattern = np.round(t_centers[None, :] - c[:, None]).sum(axis=1)
        # geom.x_cell without its wrap01: the orbit's x is already in [0, 1)
        np.multiply(x, n_x, out=fx)
        np.floor(fx, out=fx)
        np.minimum(fx, n_x - 1, out=fx)
        np.add(fx, (pattern + n_t) * n_x, out=fx)
        fcells[...] = fx
        # the shifted height plus the phase, (y - shift) + c
        np.subtract(y, shift, out=v)
        np.add(v, c, out=v)
        np.minimum.at(low.reshape(-1), fcells.ravel(), v.ravel())
        np.maximum.at(high.reshape(-1), fcells.ravel(), v.ravel())
        walked = n0 + k - 1
        if walked in (check, _ENVELOPE_ROUNDS):
            yield walked, low, high
            check *= 2


def _unfold_buckets(table, best, t_centers, out):
    """Write the envelope (n_t, n_x) of a refine_envelopes bucket table to out.

    Row r of the lower half holds the pattern P = r - n_t, row r of the
    upper half P = r, and fiber t has k = floor((t + P) / n_t) in bucket P:
    -1 in the lower and 0 in the upper half below row n_t - t, 0 and 1 from
    it on. ``best`` is np.minimum or np.maximum.
    """
    n_t = len(t_centers)
    lower, upper = table[:n_t], table[n_t:]
    # before[t] spans the rows r < n_t - t, after[t - 1] the rows r >= n_t - t
    before = best.accumulate(best(lower - 1.0, upper), axis=0)[::-1]
    after = best.accumulate(best(lower, upper + 1.0)[::-1], axis=0)
    out[0] = before[0]
    best(before[1:], after[:-1], out=out[1:])
    out -= t_centers[:, None]


def extend_to_envelopes(occ, geom, env_min, env_max):
    """Or the rows between the tracked envelopes into occ, in place, and
    return it.

    A (t, x) column gains the cells whose centers lie in
    [env_min, env_max]: the rows [lo, hi) that the cell centers'
    ``searchsorted`` of the two envelopes gives, the rows
    ``refine_envelopes`` checks. Every column's rows lie in the band
    [min lo, max hi), so only the band is compared, one fiber at a time,
    and no full-grid temporary is built. This restores the extreme rows
    that finite rasterization missed.
    """
    y_centers = geom.centers(0, 0, np.arange(geom.n_y))[2]
    a = y_centers.searchsorted(env_min, "left").min()
    b = y_centers.searchsorted(env_max, "right").max()
    y_band = y_centers[a:b]
    for fiber, lo, hi in zip(occ[:, :, a:b], env_min, env_max):
        fiber |= (y_band >= lo[:, None]) & (y_band <= hi[:, None])
    return occ


def _or_shifted(out, src, axis, wrap):
    """out |= src shifted one cell either way along axis, the cells shifted
    past its ends wrapping round or dropped; out and src must not overlap."""
    a, b = np.moveaxis(out, axis, 0), np.moveaxis(src, axis, 0)
    a[1:] |= b[:-1]
    a[:-1] |= b[1:]
    if wrap:
        a[[0, -1]] |= b[[-1, 0]]


def close_fibers(occ):
    """Morphological closing of each fiber by a 5x3 box, x wrapping exactly,
    in place in occ, which is returned.

    Regularizes the rasterized region at grid scale: single-column notches
    and pinholes left by finite orbit sampling are filled while flat edges
    stay put. Each fiber is closed only on its occupied rows [lo, hi),
    between two empty guard rows; the erosion, the complement's dilation
    complemented, reads past them as occupied, which changes only the guard
    rows. That is the closing of the whole fiber: the rows inside read the
    same dilation, and a row outside stays empty, because its erosion
    reads the next row away from [lo, hi), where the dilation is empty.
    The closing only adds cells, so each fiber's closed rows are written
    back over its own.
    """
    for src in occ:  # a fiber at a time: the copies stay one band small
        rows = np.flatnonzero(src.any(axis=0))
        if not len(rows):
            continue
        lo, hi = rows[0], rows[-1] + 1
        fiber = np.pad(src[:, lo:hi], ((0, 0), (1, 1)))
        for _ in range(2):
            for axis, wrap in ((0, True), (0, True), (1, False)):
                _or_shifted(fiber, fiber.copy(), axis, wrap)
            np.logical_not(fiber, out=fiber)
        src[:, lo:hi] = fiber[:, 1:-1]
    return occ


def _label_x_wrapped(occ, links=()):
    """Connected components of one fiber (n_x, n_y) or a stack (n_t, n_x, n_y),
    labeled by runs.

    Cells are 4-adjacent inside each fiber, with x wrap. Each link shift
    sh >= 0 also joins cell (t, x, y) to cell (t + 1, x, y - sh), t
    wrapping. A run is a maximal stretch of occ along y in one (t, x) line.
    Runs of lines x and x + 1 join when their rows overlap, and for each
    shift sh a run [s, e) of line (t, x) joins the runs of line (t + 1, x)
    that overlap [s - sh, e - sh). Each run looks up only its first partner
    in each direction (``_first_partners``), and ``_union`` merges them.

    Returns (runs, root): runs is an (R, 2) array of flat indices into occ,
    the first cell of each run and one past its last, in raster order;
    root[k] is the smallest run index of run k's component, its first run,
    which holds the component's first cell in raster order. The indices are
    int32 below 2**31 cells. occ may be a view whose last axis is a slice.
    """
    n_x, n_y = occ.shape[-2:]
    lines = occ.reshape(-1, n_y)
    # a run [s, e) of line l starts at position l * width + s of the marks
    # and stops at l * width + e; the two marks after the last line are a
    # sentinel run, which starts after every position that is looked up
    width = n_y + 1
    size = len(lines) * width
    marks = np.empty(size + 2, dtype=bool)
    marks[size:] = True
    grid = marks[:size].reshape(-1, width)
    grid[:, 0] = lines[:, 0]
    grid[:, -1] = lines[:, -1]
    np.not_equal(lines[:, 1:], lines[:, :-1], out=grid[:, 1:-1])
    pos = np.flatnonzero(marks).astype(np.int32 if size < 2**31 - 2 else np.int64)
    del marks, grid  # freed before the pairs are looked up
    start, stop = pos[0::2], pos[1::2]
    root = np.arange(len(start) - 1, dtype=pos.dtype)
    n_t = len(lines) // n_x
    moves = [(1, 0, 0), (-1, 0, 0)]
    moves += [move for sh in links for move in ((0, 1, sh), (0, -1, -sh))]
    for move in moves:
        root = _union(root, *_first_partners(start, stop, n_t, n_x, width, move))
    ends = pos[:-2]
    return (ends - ends // width).reshape(-1, 2), root


def _first_partners(start, stop, n_t, n_x, width, move):
    """Pairs (k, j) of runs that one line move joins, as two index arrays.

    For move (dx, dt, sh), run k of line (t, x) joins the runs of line
    (t + dt, x + dx), both wrapping, that overlap its rows shifted by -sh;
    j is the first of them, the first run that stops after the shifted
    start, kept when it starts before the shifted stop. That finds every
    overlapping pair, from one side or the other: when k meets several
    runs, each one after the first starts inside k, so k is their first
    partner in the opposite move. start and stop are the runs' mark
    positions (``_label_x_wrapped``), the sentinel run last.
    """
    dx, dt, sh = move
    starts, stops = start[:-1], stop[:-1]
    line = starts // width
    if dt:
        t = line // n_x
        step = ((t + dt) % n_t - t) * n_x
    else:
        x = line % n_x
        step = (x + dx) % n_x - x
    step *= width
    if sh:
        line *= width  # the line's first position: shifted rows stay in it
        lo = np.clip(starts - sh, line, line + width - 1) + step
        hi = np.clip(stops - sh, line, line + width - 1) + step
    else:
        lo, hi = starts + step, stops + step
    j = stop.searchsorted(lo, side="right")
    joined = start.take(j) < hi
    return np.flatnonzero(joined).astype(start.dtype), j[joined].astype(start.dtype)


def _union(root, a, b):
    """Merge the trees of root over the pairs (a, b) and return the table.

    root must point every index at its tree's root, and so does the table
    returned. Each round hooks the larger root of every pair still split to
    the smallest root it is paired with, then jumps pointers until every
    index points at a root again. A round hooks h <= min(len(a),
    len(root) - 1) roots, never a component's smallest, so an index is at
    most h + 1 pointers from its root, and h.bit_length() jumps reach it.
    A tree's root stays its smallest index.
    """
    while True:
        a, b = root.take(a), root.take(b)
        split = a != b
        if not split.any():
            return root
        a, b = a[split], b[split]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        for _ in range(min(len(a), len(root) - 1).bit_length()):
            root = root.take(root)


def _components_meeting(occ, seed, links=()):
    """Cells of occ whose component (``_label_x_wrapped``) meets occ[seed];
    ``seed`` is any index of occ. The runs met are expanded straight into
    the boolean result."""
    runs, root = _label_x_wrapped(occ, links)
    picked = np.zeros(occ.shape, dtype=bool)
    picked[seed] = occ[seed]
    first = runs[:, 0].searchsorted(np.flatnonzero(picked), side="right") - 1
    del picked  # freed before the result is made
    hit = np.zeros(len(root), dtype=bool)
    hit[root.take(first)] = True
    # the result alternates between the gaps and the runs, a run set when
    # its component is hit
    bounds = np.empty(2 * len(runs) + 2, dtype=runs.dtype)
    bounds[0], bounds[1:-1], bounds[-1] = 0, runs.ravel(), occ.size
    cells = np.zeros(len(bounds) - 1, dtype=bool)
    cells[1::2] = hit.take(root)
    return np.repeat(cells, np.diff(bounds)).reshape(occ.shape)


def component_of(mask, seed_occ):
    """Cells of the connected component(s) meeting the seed set. Cells of
    neighboring fibers (t wraps) are adjacent when their y intervals overlap
    after flow transport over one t cell width: the link shifts are the
    floor and the ceiling of ``GridGeometry.fiber_shift_cells``, one shift
    when it is an integer.

    Only the occupied rows, the band, are labeled, and the cells of other
    components are cleared in ``mask.occ`` itself, which is returned. The
    band's components are the whole grid's: the cells off it are empty, and
    flow links join rows of the band only.
    """
    occ = mask.occ
    rows = np.flatnonzero(occ.any(axis=(0, 1)))
    if not len(rows):
        return occ
    band = np.s_[:, :, rows[0]:rows[-1] + 1]
    sigma = mask.geom.fiber_shift_cells()
    occ[band] = _components_meeting(occ[band], seed_occ[band],
                                    links={int(np.floor(sigma)), int(np.ceil(sigma))})
    return occ


def _dilated_fiber(occ, j):
    """Fiber j of the one-cell box dilation of occ, between two False guard
    rows: shape (n_x, n_y + 2).

    t and x wrap, y clamps. The box is dilated one axis at a time: t by an
    or of the three fibers, then y and x by ``_or_shifted``.
    """
    n_t, n_x, n_y = occ.shape
    out = np.zeros((n_x, n_y + 2), dtype=bool)
    inner = out[:, 1:-1]
    for dt in (-1, 0, 1):
        inner |= occ[(j + dt) % n_t]
    cur = inner.copy()
    _or_shifted(inner, cur, 1, wrap=False)  # the guard rows stay False
    cur[...] = inner
    _or_shifted(inner, cur, 0, wrap=True)
    return out


def _runs(a):
    """(first, last, solid) per row of a 2-D bool array: the first and last
    True column and whether the Trues are one run (False when none)."""
    first = a.argmax(axis=1)
    last = a.shape[1] - 1 - a[:, ::-1].argmax(axis=1)
    return first, last, np.count_nonzero(a, axis=1) == last - first + 1


def invariance_defect(skew, mask):
    """One-sided check: F(mask) and F^-1(mask) inside mask dilated by a cell.

    Returns the number of source cells whose sampled image leaves the
    dilated mask, per direction. Each cell is sampled at its center and four
    inset corners; t advances rigidly, so one fiber is checked at a time
    and its samples share one image fiber per direction. The samples are
    the annulus points (x, ytil + t) that ``CentralizedSkew.step`` forms,
    stepped by the lean annulus step; an image height is (y - t) - rho, as
    in the step, and one beyond the window counts as outside. A cell is
    inside when the padded cells (``_padded_cells``) of all its samples'
    images are set in the padded dilation of its image fiber.

    One pass serves every map. A column-wise map (``TorusMapSpec.column_wise``)
    admits each source column of one run to the end-cell test: the images
    of one sample offset over it lie in one image column, in height order,
    so it passes when its two end cells are inside the dilation with its
    columns that are not one run cleared. Every cell of each other occupied
    column is tested against the whole dilation, so the counts are exact.
    """
    geom = mask.geom
    occ = mask.occ
    n_t, n_x = geom.n_t, geom.n_x
    t_centers = geom.centers(np.arange(n_t), 0, 0)[0]
    dx = _INSET[:, 0] * geom.h_x
    dy = _INSET[:, 1] * geom.h_y
    # (5 * k_max) work arrays, allocated once from the largest fiber or the
    # end cells of every column; a batch of k cells uses their first 5 * k
    # entries
    size = len(_INSET) * max(int(occ.sum(axis=(1, 2)).max(initial=0)), 2 * n_x)
    samples = np.empty((size, 2))
    rows = np.empty(size)
    cells = np.empty(size, dtype=np.int64)
    hit = np.empty(size, dtype=bool)
    step = skew.spec._annulus_step

    def inside(it, ix, iy, dil, inverse, rho):
        """Whether the images of all five samples of each cell (it, ix, iy)
        lie in the padded image fiber dil: k bools."""
        t, x, y = geom.centers(it, ix, iy)
        k = len(_INSET) * ix.size
        pts = samples[:k].reshape(len(_INSET), ix.size, 2)
        np.add(x, dx[:, None], out=pts[..., 0])
        np.add(y, dy[:, None], out=pts[..., 1])
        pts[..., 1] += t
        img = step(samples[:k], inverse)  # its x is in [0, 1)
        # the guard-clipped y cell of the image height (y - t) - rho
        fy = rows[:k]
        np.subtract(img[:, 1], t, out=fy)
        np.subtract(fy, rho, out=fy)
        _guard_rows(fy, geom)
        _padded_cells(geom, img[:, 0], fy, cells[:k])
        np.take(dil.reshape(-1), cells[:k], out=hit[:k])
        return hit[:k].reshape(len(_INSET), -1).all(axis=0)

    directions = []
    for key, inverse in (("forward", False), ("backward", True)):
        rho = -skew.rho if inverse else skew.rho
        directions.append((key, inverse, rho, geom.t_cell(t_centers + rho)))
    bad = {"forward": 0, "backward": 0}
    for it in range(n_t):
        fiber = occ[it]
        first, last, solid = _runs(fiber)
        cols = np.flatnonzero(solid & skew.spec.column_wise)  # end-cell test
        occupied = fiber[np.arange(n_x), first]
        ends = (np.concatenate([cols, cols]),
                np.concatenate([first[cols], last[cols]]))
        for key, inverse, rho, image_fiber in directions:
            dil = _dilated_fiber(occ, image_fiber[it])
            passed = np.zeros(n_x, dtype=bool)
            if cols.size:
                ok = inside(it, *ends, dil & _runs(dil)[2][:, None], inverse, rho)
                passed[cols] = ok.reshape(2, cols.size).all(axis=0)
            # every cell of the other occupied columns is checked
            redo = np.flatnonzero(occupied & ~passed)
            ix, iy = np.nonzero(fiber[redo])
            if ix.size:
                bad[key] += int(np.count_nonzero(
                    ~inside(it, redo[ix], iy, dil, inverse, rho)))
    return bad


@dataclass
class FiberComponent:
    touches_bottom: bool
    touches_top: bool

    @property
    def unbounded(self):
        return self.touches_bottom or self.touches_top


def fiber_complement_components(mask, t):
    """Connected components of the fiber complement, with edge classification.

    Components are unbounded exactly when they touch the top or bottom
    window row. An empty fiber yields a single degenerate component flagged
    as touching both edges; a full fiber yields none.
    """
    geom = mask.geom
    it = int(geom.t_cell(t))
    comp = ~mask.occ[it]
    if not comp.any():
        return [], it
    runs, root = _label_x_wrapped(comp)
    # a run starts on the bottom row, or stops past the top row, at a
    # multiple of the line length
    bottom, top = (set(root[runs[:, i] % comp.shape[1] == 0].tolist()) for i in (0, 1))
    # the roots, in the raster order of their components' first cells
    names = np.flatnonzero(root == np.arange(len(root))).tolist()
    return [FiberComponent(touches_bottom=r in bottom, touches_top=r in top)
            for r in names], it
