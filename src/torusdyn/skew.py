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

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .rotation import _positive_n_max
from .util import (circle_dist, finite_multiples, iterates, nth_iterate,
                   skew_dist, wrap01)

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
        """Gamma transport over one t cell, measured in y cells."""
        return self.h_t / self.h_y


def _wrapped_cell(v, n):
    """Cell index in [0, n) of a circle coordinate."""
    return np.minimum(np.floor(wrap01(v) * n).astype(np.int64), n - 1)


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


def _block_orbit(skew, pts, rounds):
    """Transported fiber clouds of the block orbit, round by round.

    The n-th image of the half-width block of a cloud W at time 0 is the
    half-width block of f^n(W) shifted down by n*rho, centered at n*rho.
    Yields (n, w, c) for n = 0, then +n and -n for each round: the shifted
    cloud w and the block phase c = n*rho mod 1, the time of the block's
    center. Every yielded x is in [0, 1): the cloud is reduced once, and
    each step is the lean annulus step, which only reduces its output.
    """
    pts = np.array(pts, dtype=float)
    pts[:, 0] = wrap01(pts[:, 0])
    yield 0, pts, 0.0
    step = skew.spec._annulus_step
    walk = zip(iterates(step, pts, rounds),
               iterates(functools.partial(step, inverse=True), pts, rounds))
    shifts = np.arange(1, rounds + 1) * skew.rho
    phases = zip(shifts, wrap01(shifts), wrap01(-shifts))
    for n, (fwd, bwd), (shift, c_fwd, c_bwd) in zip(itertools.count(1), walk, phases):
        w = fwd.copy()
        w[:, 1] -= shift
        yield n, w, c_fwd
        w = bwd.copy()
        w[:, 1] += shift
        yield -n, w, c_bwd


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
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    pts = np.asarray(fiber_points, dtype=float)
    n_t, n_x, n_y = geom.n_t, geom.n_x, geom.n_y
    # rows 0 and n_y + 1 guard the window: heights beyond it are clipped
    # into them, and being marked from the start they never count as growth
    padded = np.zeros((n_t, n_x, n_y + 2), dtype=bool)
    padded[:, :, [0, -1]] = True
    flat = padded.reshape(-1)  # a view: marking flat cells marks padded
    t_centers = geom.centers(np.arange(n_t), 0, 0)[0]
    # cell indices are kept as floats: every index sum below is an integer
    # well inside the exact range of a double
    fiber_base = np.arange(n_t, dtype=float) * n_x

    # (n_t, len(pts)) work arrays, allocated once for every image
    yy = np.empty((n_t, len(pts)))
    column = np.empty_like(yy)
    cells = np.empty(yy.shape, dtype=np.int64)
    hit = np.empty(yy.shape, dtype=bool)

    def raster_block(w, c, grew):
        """Mark the half-width block of the cloud w at phase c. Returns
        (edge, grew): whether a height reached the top or bottom row of the
        window or beyond it, and whether a cell was new or ``grew`` was
        already set."""
        # signed flow offsets in [-1/2, 1/2] of the fiber centers from the
        # block's center
        u = t_centers - c
        u -= np.round(u)
        # fiber i holds the cloud shifted down by its flow offset
        np.subtract(w[None, :, 1], u[:, None], out=yy)
        _guard_rows(yy, geom)
        lo, hi = yy.min(), yy.max()
        # padded flat index (fiber, x, 1 + y) of each point
        np.add(fiber_base[:, None], geom.x_cell(w[:, 0])[None, :], out=column)
        np.multiply(column, n_y + 2, out=column)
        np.add(column, 1.0, out=column)
        np.add(column, yy, out=column)
        cells[...] = column
        if not grew:
            np.take(flat, cells, out=hit)
            grew = not hit.all()
        flat[cells] = True
        return bool(lo <= 0 or hi >= n_y - 1), grew

    orbit = _block_orbit(skew, pts, max_iters)
    _, w, c = next(orbit)
    raster_block(w, c, False)
    seed_occ = padded[:, :, 1:-1].copy()
    status = "max-iters"
    stale = 0
    rounds = 0
    edge = grew = False
    for n, w, c in orbit:
        at_edge, grew = raster_block(w, c, grew)
        edge |= at_edge
        if n > 0:
            continue  # a round ends with its backward image
        rounds = -n
        if edge:
            status = "window-exhausted"
            break
        stale = 0 if grew else stale + 1
        if stale >= _PATIENCE:
            status = "fixed-point"
            break
        grew = False
    return padded[:, :, 1:-1], seed_occ, status, rounds


def refine_envelopes(skew, fiber_points, geom):
    """Per-fiber, per-column vertical extremes of the block orbit union.

    Tracks min/max of the transported fiber cloud per x column in exact
    real arithmetic, which closes the slow record tails that finite 3D
    rasterization leaves at the region's top and bottom edges. Returns
    (env_min, env_max, rounds): (n_t, n_x) arrays, +inf/-inf in columns
    never touched, and the rounds walked. After 16, 32, 64, ... rounds the
    walk takes the rows ``extend_to_envelopes`` fills per column and stops
    once they equal the previous checkpoint's, none having changed over the
    last half of the walk, or else at ``_ENVELOPE_ROUNDS``. On the measured
    maps no row changed later than twice the round of the change before it.

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
    y_centers = geom.centers(0, 0, np.arange(geom.n_y))[2]
    # the results come first in the heap: the bucket tables and chunks freed
    # above them do not stay resident under the later region stages
    env_min = np.empty((n_t, n_x))
    env_max = np.empty((n_t, n_x))
    low = np.full((2 * n_t, n_x), np.inf)
    high = np.full((2 * n_t, n_x), -np.inf)
    pts = np.asarray(fiber_points, dtype=float)
    # (2 * chunk, len(pts)) work arrays, allocated once; min and max are
    # exact, so the order in which images reach the tables does not matter
    jx = np.empty((2 * _ENVELOPE_CHUNK, len(pts)))
    lifted = np.empty_like(jx)
    cells = np.empty(jx.shape, dtype=np.int64)
    c = np.empty(2 * _ENVELOPE_CHUNK)
    orbit = _block_orbit(skew, pts, _ENVELOPE_ROUNDS)
    # the seed image is a chunk of its own, so that chunks end on whole rounds
    k, walked, check, rows = 1, 0, _ENVELOPE_CHUNK, None
    while True:
        for i, (_, w, phase) in enumerate(itertools.islice(orbit, k)):
            c[i] = phase
            np.multiply(w[:, 0], n_x, out=jx[i])
            np.add(w[:, 1], phase, out=lifted[i])
        pattern = np.round(t_centers[None, :] - c[:k, None]).sum(axis=1)
        # geom.x_cell without its wrap01: the orbit's x is already in [0, 1)
        np.floor(jx[:k], out=jx[:k])
        np.minimum(jx[:k], n_x - 1, out=jx[:k])
        np.add(jx[:k], ((pattern + n_t) * n_x)[:, None], out=jx[:k])
        cells[:k] = jx[:k]
        np.minimum.at(low.reshape(-1), cells[:k].ravel(), lifted[:k].ravel())
        np.maximum.at(high.reshape(-1), cells[:k].ravel(), lifted[:k].ravel())
        walked += k // 2
        if walked in (check, _ENVELOPE_ROUNDS):
            _unfold_buckets(low, np.minimum, t_centers, env_min)
            _unfold_buckets(high, np.maximum, t_centers, env_max)
            new = np.stack([y_centers.searchsorted(env_min, "left"),
                            y_centers.searchsorted(env_max, "right")])
            if walked == _ENVELOPE_ROUNDS or np.array_equal(new, rows):
                return env_min, env_max, walked
            rows, check = new, 2 * check
        k = 2 * min(_ENVELOPE_CHUNK, _ENVELOPE_ROUNDS - walked)


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
    """Add the rows between the tracked envelopes to the occupancy.

    Valid when the region's fibers are vertically solid per column, which
    holds for maps acting column-wise on the annulus (rigid translations
    and circle-over-circle suspensions); the extension only restores the
    extreme rows that finite rasterization missed.
    """
    y_centers = geom.centers(0, 0, np.arange(geom.n_y))[2]
    solid = ((y_centers[None, None, :] >= env_min[:, :, None])
             & (y_centers[None, None, :] <= env_max[:, :, None]))
    return occ | solid


def _or_shifted(out, src, axis, wrap):
    """out |= src shifted one cell either way along axis, the cells shifted
    past its ends wrapping round or dropped; out and src must not overlap."""
    a, b = np.moveaxis(out, axis, 0), np.moveaxis(src, axis, 0)
    a[1:] |= b[:-1]
    a[:-1] |= b[1:]
    if wrap:
        a[[0, -1]] |= b[[-1, 0]]


def close_fibers(occ):
    """Morphological closing of each fiber by a 5x3 box, x wrapping exactly.

    Regularizes the rasterized region at grid scale: single-column notches
    and pinholes left by finite orbit sampling are filled while flat edges
    stay put. y lies between two empty guard rows; the erosion, the
    complement's dilation complemented, reads past them as occupied, which
    changes only the guard rows. Returns a new C-contiguous array without
    them, so ndimage.label reads it without a copy.
    """
    out = np.empty(occ.shape, dtype=bool)
    for t, src in enumerate(occ):  # a fiber at a time: the copies stay one fiber small
        fiber = np.pad(src, ((0, 0), (1, 1)))
        for _ in range(2):
            for axis, wrap in ((0, True), (0, True), (1, False)):
                _or_shifted(fiber, fiber.copy(), axis, wrap)
            np.logical_not(fiber, out=fiber)
        out[t] = fiber[:, 1:-1]
    return out


def _label_x_wrapped(occ, links=()):
    """Connected components of one fiber (n_x, n_y) or a stack (n_t, n_x, n_y).

    Cells are 4-adjacent inside each fiber, with x wrap. Each link shift
    sh >= 0 also joins cell (t, x, y) to cell (t + 1, x, y - sh), t
    wrapping. One ndimage.label call labels every fiber; the x seam and the
    links then merge labels through a union-find over the unique label
    pairs. Returns the raw labels, 0 off occ, and the root table: root[lab]
    names a cell's component by its smallest label, its first cell's.
    """
    structure = np.zeros((3,) * occ.ndim, dtype=bool)
    structure[(1,) * (occ.ndim - 2)] = [[0, 1, 0], [1, 1, 1], [0, 1, 0]]  # in a fiber
    lab, num = ndimage.label(occ, structure=structure)
    pairs = [(lab[..., 0, :], lab[..., -1, :])]
    n_t, n_y = occ.shape[0], occ.shape[-1]
    for sh in links:
        # one fiber pair at a time keeps the pair keys small
        cut = max(n_y - sh, 0)
        pairs += [(lab[t, :, sh:], lab[(t + 1) % n_t, :, :cut]) for t in range(n_t)]
    m = num + 1
    keys = []
    for a, b in pairs:
        both = (a > 0) & (b > 0) & (a != b)
        keys.append(np.unique(a[both].astype(np.int64) * m + b[both]))
    keys = np.unique(np.concatenate(keys))
    root = np.arange(m, dtype=lab.dtype)

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, j in zip((keys // m).tolist(), (keys % m).tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            root[max(ri, rj)] = min(ri, rj)
    for i in np.unique(np.concatenate([keys // m, keys % m])).tolist():
        root[i] = find(i)
    return lab, root


def _components_meeting(occ, seed, links=()):
    """Cells of occ whose component (``_label_x_wrapped``) meets occ[seed];
    ``seed`` is any index of occ."""
    lab, root = _label_x_wrapped(occ, links)
    hit = np.zeros(len(root), dtype=bool)
    hit[root[lab[seed]]] = True
    hit[0] = False  # cells off occ
    return hit[root][lab]


def component_of(mask, seed_occ):
    """Cells of the connected component(s) meeting the seed set. Cells of
    neighboring fibers (t wraps) are adjacent when their y intervals overlap
    after flow transport over one t cell width."""
    sigma = mask.geom.fiber_shift_cells()
    return _components_meeting(mask.occ, seed_occ,
                               links={int(np.floor(sigma)), int(np.ceil(sigma))})


def _padded_dilation(occ):
    """One-cell box dilation of occ between two False guard rows.

    t and x wrap, y clamps; the result has shape (n_t, n_x, n_y + 2). The
    box is dilated one axis at a time, y first, by ``_or_shifted``.
    """
    padded = np.pad(occ, ((0, 0), (0, 0), (1, 1)))
    out = padded[:, :, 1:-1]
    _or_shifted(out, occ, 2, wrap=False)  # the guard rows stay False
    cur = np.empty_like(out)
    for axis in (1, 0):  # x, then t: both wrap
        cur[...] = out
        _or_shifted(out, cur, axis, wrap=True)
    return padded


def invariance_defect(skew, mask):
    """One-sided check: F(mask) and F^-1(mask) inside mask dilated by a cell.

    Returns the number of source cells whose sampled image leaves the
    dilated mask, per direction. Each cell is sampled at its center and four
    inset corners; t advances rigidly, so one fiber is checked at a time
    and its samples share one image fiber per direction. The samples are
    the annulus points (x, ytil + t) that ``CentralizedSkew.step`` forms,
    stepped by the lean annulus step; an image height is (y - t) - rho, as
    in the step, and one beyond the window counts as outside.
    """
    geom = mask.geom
    n_t, n_x, n_y = geom.n_t, geom.n_x, geom.n_y
    # rows 0 and n_y + 1 of the dilation guard the window and are False:
    # image heights beyond it are clipped into them
    flat = _padded_dilation(mask.occ).reshape(-1)
    t_centers = geom.centers(np.arange(n_t), 0, 0)[0]
    dx = _INSET[:, 0] * geom.h_x
    dy = _INSET[:, 1] * geom.h_y
    # (5 * k_max) work arrays, allocated once from the largest fiber; a
    # fiber of k cells uses their first 5 * k entries
    size = len(_INSET) * int(mask.occ.sum(axis=(1, 2)).max(initial=0))
    samples = np.empty(2 * size)
    jx = np.empty(size)
    jy = np.empty(size)
    cells = np.empty(size, dtype=np.int64)
    hit = np.empty(size, dtype=bool)
    step = skew.spec._annulus_step
    directions = []
    for key, inverse in (("forward", False), ("backward", True)):
        rho = -skew.rho if inverse else skew.rho
        # per source fiber, the padded flat index of window row 0 in column
        # 0 of its image fiber
        base = geom.t_cell(t_centers + rho) * (n_x * (n_y + 2)) + 1.0
        directions.append((key, inverse, rho, base))
    bad = {"forward": 0, "backward": 0}
    for it in range(n_t):
        ix, iy = np.nonzero(mask.occ[it])
        k = len(_INSET) * ix.size
        if not k:
            continue
        t, x, y = geom.centers(it, ix, iy)
        pts = samples[:2 * k].reshape(len(_INSET), -1, 2)
        np.add(x, dx[:, None], out=pts[..., 0])
        np.add(y, dy[:, None], out=pts[..., 1])
        pts[..., 1] += t
        fx, fy, fcells, fhit = jx[:k], jy[:k], cells[:k], hit[:k]
        for key, inverse, rho, base in directions:
            img = step(pts.reshape(-1, 2), inverse)
            # geom.x_cell without its wrap01: the step's x is in [0, 1)
            np.multiply(img[:, 0], n_x, out=fx)
            np.floor(fx, out=fx)
            np.minimum(fx, n_x - 1, out=fx)
            # the guard-clipped y cell of the image height (y - t) - rho
            np.subtract(img[:, 1], t, out=fy)
            np.subtract(fy, rho, out=fy)
            _guard_rows(fy, geom)
            # padded flat index (fiber, x, 1 + y) of each image
            np.multiply(fx, n_y + 2, out=fx)
            np.add(fx, fy, out=fx)
            np.add(fx, base[it], out=fx)
            fcells[...] = fx
            np.take(flat, fcells, out=fhit)
            inside = np.count_nonzero(fhit.reshape(len(_INSET), -1).all(axis=0))
            bad[key] += ix.size - int(inside)
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
    lab, root = _label_x_wrapped(comp)
    bottom, top = set(root[lab[:, 0]].tolist()), set(root[lab[:, -1]].tolist())
    # the roots, in the raster order of their components' first cells
    names = np.flatnonzero(root == np.arange(len(root)))[1:].tolist()
    return [FiberComponent(touches_bottom=r in bottom, touches_top=r in top)
            for r in names], it
