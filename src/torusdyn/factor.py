"""Constructive circle-factor pipeline.

From a saturated bounded invariant region of the skew-product, extract the
family of separating continua in the time-zero fiber, evaluate the height
function h(z) = inf{s : z below the s-th continuum} by bisection, verify its
equivariances, and project to a torus-to-circle factor map with measured
semi-conjugacy defect. Each s value of the ladder is independent. The fill
at time s translates a band label of its t cell. The region's band table
stores each labeled band once, back to back in one flat array, and finds
the band of a fill key (t cell, shift) in one key table. Both bisections
read membership from it: ``heights`` with one gather per step, after
labeling the bands the step misses together, and ``evaluate_h`` with one
read of the key table per step. The continua read their boundaries from
the band's cells. Only the ladder pastes whole fills, afresh at each call:
the band table is the region's one cache.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from . import skew as skew_layer
from .rotation import recurrence_probe
from .skew import (GridMask, ball_fiber, close_fibers, component_of,
                   extend_to_envelopes, geometry_for, invariance_defect,
                   refine_envelopes, saturate_block_orbit, _components_meeting,
                   _or_shifted)
from .util import circle_dist, finite_multiples, lattice_points_2d, wrap01


@dataclass
class TauRegion:
    """Bounded connected invariant region with its build provenance."""

    mask: GridMask
    skew: object
    status: str
    invariance: dict
    recurrence_times: list
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        self._fills = {}

    @property
    def geom(self):
        return self.mask.geom


def build_tau(skew, seed_point, ball_radius=0.15, n_t=256, n_x=256, n_y=512,
              half_height=None, max_iters=0, seed=0):
    """The invariant region of the half-width block over a ball at the
    given annulus point: the seed block's raster (the n = 0 image, also
    ``component_of``'s seed) extended to the region's vertical envelopes,
    closed, and cut to the seed's component.

    The envelopes are tracked in real arithmetic until the extended rows
    stop changing over the last half of the walk (checked at 16, 32, 64,
    ... rounds, capped at 20,000); the provenance key ``refine_rounds``
    records the rounds walked. The walk follows the seed ball's 1,024-point
    boundary ring alone: each block image is the closed disk bounded by the
    image of the ball's boundary circle, so its extremes over any vertical
    strip lie on that curve. ``max_iters`` saturation rounds (none by
    default) first add the rasters of as many block images each way, cells
    one row below or above a column's envelope rows. Window exhaustion is
    propagated in the status and leaves the region available. The seed
    point should come with recurrence evidence; an empty probe result is
    attached as a warning, not a rejection.
    """
    if not (0.0 < ball_radius <= 1.0):
        raise ValueError("ball radius must be in (0, 1]")
    finite_multiples(skew.rho, max(max_iters, skew_layer._ENVELOPE_ROUNDS))
    x0, y0 = float(seed_point[0]), float(seed_point[1])
    geom = geometry_for(skew, center_y=y0, n_t=n_t, n_x=n_x, n_y=n_y,
                        half_height=half_height)
    times = recurrence_probe(skew.spec, (x0, wrap01(y0)), max(ball_radius, 0.05),
                             n_max=2000, seed=seed)
    warnings = []
    if not times:
        warnings.append("no recurrence evidence for the seed point")
    # the seed block's fiber cloud: cell centers of the rasterized seed ball,
    # from the rows it can reach, |y_c - y0| < r, and one more on each side
    rows = np.floor((np.array([y0 - ball_radius, y0 + ball_radius]) - geom.y_min)
                    / geom.h_y) + [-1, 2]
    lo, hi = np.clip(rows, 0, geom.n_y).astype(int)
    ix, iy = np.indices((geom.n_x, hi - lo))
    _, X, Y = geom.centers(0, ix, iy + lo)
    inside = ball_fiber((x0, y0), ball_radius)(X, Y)
    pts = np.column_stack([X[inside], Y[inside]])
    if not len(pts):
        raise ValueError(f"the seed ball of radius {ball_radius!r} covers no "
                         f"cell center (y cells are {geom.h_y!r} high)")
    occ, seed_cells, status, rounds = saturate_block_orbit(
        skew, pts, geom, max_iters=max_iters)
    # boundary circle samples: every block image's vertical extremes lie on
    # the image of this circle
    theta = 2.0 * np.pi * (np.arange(1024) + 0.5) / 1024
    ring = np.column_stack([x0 + ball_radius * np.cos(theta),
                            y0 + ball_radius * np.sin(theta)])
    *envelopes, refine_rounds = refine_envelopes(skew, ring, geom)
    occ = extend_to_envelopes(occ, geom, *envelopes)
    if occ[:, :, 0].any() or occ[:, :, -1].any():
        status = "window-exhausted"
    occ = close_fibers(occ)
    mask = GridMask(geom, occ, provenance={
        "seed": {"point": (x0, y0), "radius": ball_radius, "block_halfwidth": 0.5},
        "iterations": rounds, "refine_rounds": refine_rounds, "status": status})
    component_of(mask, seed_cells)  # clears the other components in mask.occ
    inv = invariance_defect(skew, mask)
    return TauRegion(mask=mask, skew=skew, status=status, invariance=inv,
                     recurrence_times=times, warnings=warnings)


@dataclass
class FiberFill:
    """Flood fill of a time-zero fiber complement from the bottom edge."""

    fill: np.ndarray  # bool (n_x, n_y): the lower complement component
    separating: bool


def _fill_key(geom, s):
    """Rasterization key of the fills at times s: the t cell, and the shift
    in whole y cells, rounded half to even. Arrays give an int64 shift, a
    Python float s two Python ints."""
    shift = s / geom.h_y
    return geom.t_cell(s), (round(shift) if isinstance(shift, float)
                            else np.rint(shift).astype(np.int64))


class _BandTable:
    """The labeled bands of one region, each stored once, and the key table
    ``band_of`` that finds the band of a fill key (it, shift).

    The key's obstruction is fiber ``it`` translated up ``shift`` rows. Its
    band is fiber rows [r0, r1]: the occupied rows f to l and the free guard
    row on each side that the window holds, so window rows [r0 + shift,
    r1 + shift]. The free rows below and above the obstruction each form
    one component with its edge row, so the rows below the band are filled,
    and the rows above it when ``top``, its top row meeting the fill. Every
    shift in [1 - f, n_y - 2 - l] keeps the obstruction inside the window
    with a free row on each side, and these keys share one band, the t
    cell's interior band. At any other shift a window edge clips the band,
    r0 = -shift or r1 = n_y - 1 - shift, so a clipped band has one key.
    There is no band when the obstruction leaves the window (l + shift < 0
    or f + shift >= n_y, so at every shift beyond +-n_y) or the fiber is
    empty.

    ``band_of[it, shift + n_y]`` (int32, shape (n_t, 2 n_y + 1)) is the
    key's band id, -1 while it is not labeled and -2 where the key has none;
    a shift beyond +-n_y is read at +-n_y, which holds no band. Its
    4 n_t (2 n_y + 1) bytes, 263 KB at 128x128x256 and 1.05 MB at
    256x256x512, are fewer than the grid's n_t n_x n_y when n_x >= 8.

    Band b is ``cells[offset[b]:offset[b] + n_x * height[b]]``, its
    (n_x, height[b]) cells in raster order, of fiber rows from ``bottom[b]``
    on; the bands lie back to back in the first ``used`` cells of
    ``cells``, a buffer replaced by a longer one when they outgrow it, and
    ``entries[b]`` holds the four fields as Python ints. The table lives in
    the region's cache ``tau._fills``, so clearing it clears the table.
    """

    def __init__(self, occ):
        self.occ = occ
        _, self.n_x, self.n_y = occ.shape
        occupied = occ.any(axis=1)
        some = occupied.any(axis=1)
        self.first = np.where(some, occupied.argmax(axis=1), self.n_y)
        self.last = np.where(some, self.n_y - 1 - occupied[:, ::-1].argmax(axis=1), -1)
        # l + shift >= 0 and f + shift < n_y, at column shift + n_y
        col = np.arange(2 * self.n_y + 1)
        inside = ((col >= (self.n_y - self.last)[:, None])
                  & (col < (2 * self.n_y - self.first)[:, None]))
        self.band_of = np.where(inside, np.int32(-1), np.int32(-2))
        self.cells = np.empty(0, dtype=bool)
        self.used = 0
        self.offset, self.height, self.bottom = (np.empty(0, dtype=np.int64)
                                                 for _ in range(3))
        self.top = np.empty(0, dtype=bool)
        self.entries = []

    def find(self, it, shift):
        """Band ids of the keys of the int64 arrays it and shift, -2 where a
        key has none: one gather from ``band_of``, after labeling the
        missing bands together (``_label``)."""
        col = np.clip(shift + self.n_y, 0, 2 * self.n_y)
        b = self.band_of[it, col]
        missing = b == -1
        if missing.any():
            it, col = it[missing], col[missing]
            self._label(it, col - self.n_y)
            b[missing] = self.band_of[it, col]
        return b

    def _label(self, it, shift):
        """Label the bands of keys (it, shift), duplicates among them, in one
        ``_components_meeting`` call, store them and enter them in
        ``band_of``. The stack holds each band once, padded with occupied
        rows above its top row; layers have no links, so each is labeled
        alone, and only the band's own rows are stored."""
        n_y = self.n_y
        f, l = self.first[it], self.last[it]
        interior = (shift >= 1 - f) & (shift <= n_y - 2 - l)
        # one band per t cell's interior shifts and per clipped key, in
        # descending shift, so in the order of their fiber row ranges
        _, first = np.unique(it * (2 * n_y + 1) - np.where(interior, 1 - f, shift),
                             return_index=True)
        it, shift, f, l, interior = (a[first] for a in (it, shift, f, l, interior))
        r0 = np.maximum(f - 1, -shift)
        height = np.minimum(l + 1, n_y - 1 - shift) - r0 + 1
        sizes = self.n_x * height
        offset = self.used + sizes.cumsum() - sizes
        self.used += int(sizes.sum())
        if self.used > self.cells.size:
            # a fresh buffer at least four times as long, made before the
            # stack: views of the old one stay valid, and each table copies
            # O(final size) in all. An anonymous map holds only the pages
            # written, and is unmapped with its last view
            grown = np.frombuffer(mmap.mmap(-1, max(self.used, 4 * self.cells.size)),
                                  dtype=bool)
            grown[:offset[0]] = self.cells[:offset[0]]
            self.cells = grown
        free = np.zeros((it.size, self.n_x, int(height.max())), dtype=bool)
        for layer, t, r, h in zip(free, it.tolist(), r0.tolist(), height.tolist()):
            layer[:, :h] = True
            c0, c1 = max(r, 0), min(r + h, n_y)  # rows off the fiber are free
            layer[:, c0 - r:c1 - r] = ~self.occ[t, :, c0:c1]
        # seeded by each layer's bottom row
        labeled = _components_meeting(free, np.arange(it.size * self.n_x) * free.shape[2])
        del free
        top = labeled[np.arange(it.size), :, height - 1].any(axis=1)
        for layer, o, h in zip(labeled, offset.tolist(), height.tolist()):
            self.cells[o:o + self.n_x * h].reshape(self.n_x, h)[...] = layer[:, :h]
        del labeled
        ids = self.offset.size + np.arange(it.size)
        self.offset = np.concatenate([self.offset, offset])
        self.height = np.concatenate([self.height, height])
        self.bottom = np.concatenate([self.bottom, r0])
        self.top = np.concatenate([self.top, top])
        self.entries += zip(offset.tolist(), height.tolist(), r0.tolist(), top.tolist())
        self.band_of[it[~interior], shift[~interior] + n_y] = ids[~interior]
        for t, f, l, b in zip(*(a[interior].tolist() for a in (it, f, l, ids))):
            self.band_of[t, n_y + 1 - f:2 * n_y - 1 - l] = b

    def read(self, it, shift, x, y):
        """Membership of window cells (x, y) in the lower fills of keys (it,
        shift), arrays of one length: one gather from ``cells``. With no
        band, or one whose top row meets the fill, the fill does not
        separate: the cell is on one side of the continuum, decided by the
        translation sign. Rows below the band read its free bottom guard
        row, all filled; rows above it its free top guard row, empty as the
        fill separates. A band clipped by a window edge has no rows beyond
        it."""
        b = self.find(it, shift)
        out = shift >= 0
        band = b >= 0
        band[band] = ~self.top[b[band]]
        if band.any():
            b = b[band]
            height = self.height[b]
            row = y[band] - shift[band]
            row -= self.bottom[b]
            np.clip(row, 0, height - 1, out=row)
            row += x[band] * height
            row += self.offset[b]
            out[band] = self.cells[row]
        return out

    def entry(self, it, shift):
        """``(offset, height, lo, top)`` of the band of the key (it, shift),
        Python ints, lo its first window row, or None: one read of
        ``band_of``, and ``find`` only for a band not labeled yet."""
        col = shift + self.n_y
        b = self.band_of.item(it, col if 0 <= col <= 2 * self.n_y else 0)
        if b == -1:
            b = int(self.find(np.array([it]), np.array([shift]))[0])
        if b < 0:
            return None
        offset, height, bottom, top = self.entries[b]
        return offset, height, bottom + shift, top

    def band(self, got):
        """The (n_x, height) cells of an ``entry``."""
        offset, height = got[:2]
        return self.cells[offset:offset + self.n_x * height].reshape(self.n_x, height)


def _band_table(tau):
    """The region's band table, made on first use in ``tau._fills``."""
    table = tau._fills.get("bands")
    if table is None:
        table = tau._fills["bands"] = _BandTable(tau.mask.occ)
    return table


def lower_component(tau, s):
    """Lower unbounded complement component of the flow-translated fiber.

    The obstruction is the time-s-mod-1 fiber of the region translated up by
    exactly s (rasterized once); the fill grows from the bottom window row
    through 4-adjacency with x wrap. A fill touching the top row is returned
    flagged not separating. The fill is pasted afresh from the key's band
    (``_BandTable``), every row filled when there is none; only the band
    table is kept.
    """
    table = _band_table(tau)
    fill = np.ones((tau.geom.n_x, tau.geom.n_y), dtype=bool)
    got = table.entry(*map(int, _fill_key(tau.geom, s)))
    top = got is None or got[3]
    if got is not None:
        lo, height = got[2], got[1]
        fill[:, lo:lo + height] = table.band(got)
        fill[:, lo + height:] = top
    return FiberFill(fill=fill, separating=not top)


@dataclass
class ContinuumApprox:
    """Boundary point cloud of the lower component: the separating continuum."""

    points: np.ndarray  # (m, 2) cell centers (x, ytil)
    separating: bool


def continuum_Cs(tau, s):
    """Boundary cells of the lower fill: obstruction cells 4-adjacent to it.

    They lie within the rows of the key's band (``_BandTable``). The rows
    below the band are all filled, and so is its bottom row, a free guard
    row, unless the window's bottom edge clips the band there. The rows
    above it, if any, are all filled when its top row meets the fill, and
    that top row, a free guard row, is then all filled too; otherwise they
    are all empty. So the boundary is computed on the band's own cells, and
    a key with no band has none. ``separating`` is that of
    ``lower_component``.
    """
    table = _band_table(tau)
    got = table.entry(*map(int, _fill_key(tau.geom, s)))
    if got is None:
        return ContinuumApprox(points=np.empty((0, 2)), separating=False)
    rows = table.band(got)
    grown = rows.copy()
    _or_shifted(grown, rows, 0, wrap=True)
    _or_shifted(grown, rows, 1, wrap=False)
    ix, iy = np.nonzero(grown & ~rows)
    iy += got[2]
    _, xs, ys = tau.geom.centers(0, ix, iy)
    return ContinuumApprox(points=np.column_stack([xs, ys]), separating=not got[3])


@dataclass
class HeightValue:
    value: float
    ordering_ok: bool


def _resolve_tol(geom, tol):
    """The bisection tolerance: half a y cell by default, checked positive."""
    if tol is None:
        tol = 0.5 * geom.h_y
    if not tol > 0.0:  # NaN too
        raise ValueError(f"tol must be positive, not {tol!r}")
    return tol


def _finite_points(z):
    """Query points as a float array, refused when a coordinate is NaN or
    infinite: no cell holds such a point."""
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("height query points must be finite")
    return z


def evaluate_h(tau, z, tol=None):
    """Height of one annulus point z, of shape (2,) or (1, 2).

    The value and ``ordering_ok`` are those of ``heights(tau, [z], tol)``,
    bit for bit: the point is bisected in Python floats with the same steps,
    the same fill keys (``_fill_key``) and the same bands, read by the same
    rule (``_BandTable.read``). A step resolves its key in Python floats and
    finds its band with one read of the key table (``_BandTable.entry``),
    which spares the array bookkeeping of a step for one point. A point with
    a NaN or infinite coordinate is refused with ``ValueError``, as by
    ``heights``.
    """
    geom = tau.geom
    tol = _resolve_tol(geom, tol)
    z = _finite_points(z)
    if z.shape not in ((2,), (1, 2)):
        raise ValueError(f"evaluate_h takes one point of shape (2,) or (1, 2), "
                         f"not {z.shape}")
    z = z.reshape(1, 2)
    ix, iy = int(geom.x_cell(z[:, 0])[0]), int(geom.y_cell(z[:, 1])[0])
    below = iy < 0
    within = not below and iy < geom.n_y
    table = _band_table(tau)

    def member(s):
        if not within:
            return below
        it, shift = _fill_key(geom, s)
        got = table.entry(it, shift)
        if got is None or got[3]:
            return shift >= 0
        offset, height, lo, _ = got
        return bool(table.cells[offset + ix * height + min(max(iy - lo, 0), height - 1)])

    y = float(z[0, 1])
    span = geom.y_max - geom.y_min
    a, b = y - span, y + span
    ok = not member(a) and member(b)
    bisect = b - a > tol
    while bisect:
        mid = 0.5 * (a + b)
        moved = mid != a and mid != b
        if member(mid):
            b = mid
        else:
            a = mid
        bisect = b - a > tol and moved
    return HeightValue(value=0.5 * (a + b), ordering_ok=bool(ok))


def heights(tau, z, tol=None):
    """Heights of annulus points: bisect s on lower-component membership.

    All points of the (m, 2) array ``z`` are bisected together. Points
    below the window are always members and points above never are, tested
    once per call. Each step reads the other active points from the
    region's band table (``_BandTable.read``) with one gather; the bands its
    keys miss are labeled together first. A point stops at ``tol``
    (half a y cell by default) or when its midpoint equals an end of its
    bracket, so a ``tol`` below the float spacing ends too. Membership is
    monotone in s up to rasterization jitter; a violated initial bracket is
    reported in ``ordering_ok`` instead of raising. A point with a NaN or
    infinite coordinate is refused with ``ValueError``. ``evaluate_h``
    bisects one point with the same steps in Python floats.
    """
    geom = tau.geom
    tol = _resolve_tol(geom, tol)
    z = _finite_points(z).reshape(-1, 2)
    ix, iy = geom.x_cell(z[:, 0]), geom.y_cell(z[:, 1])
    # a point's window test is the same at every s: points below the window
    # are always members, points above never are, only the rest read bands
    below = iy < 0
    within = ~below & (iy < geom.n_y)
    table = _band_table(tau)

    def member(s, p):
        """Membership of points ``p`` in the lower components at times ``s``."""
        out = below[p]
        q = within[p].nonzero()[0]
        if q.size:
            it, shift = _fill_key(geom, s[q])
            pq = p[q]
            out[q] = table.read(it, shift, ix[pq], iy[pq])
        return out

    span = geom.y_max - geom.y_min
    lo, hi = z[:, 1] - span, z[:, 1] + span
    every = np.arange(len(z))
    ok = ~member(lo, every)
    ok[ok] = member(hi[ok], every[ok])
    keep = hi - lo > tol
    active, a, b = every[keep], lo[keep], hi[keep]
    while active.size:
        mid = 0.5 * (a + b)
        inside = member(mid, active)
        moved = (mid != a) & (mid != b)
        a, b = np.where(inside, a, mid), np.where(inside, mid, b)
        lo[active], hi[active] = a, b
        keep = (b - a > tol) & moved
        active, a, b = active[keep], a[keep], b[keep]
    return 0.5 * (lo + hi), ok


@dataclass
class EquivarianceReport:
    unit_translate_defect: float
    map_defect: float
    ordering_violations: int
    pairs_checked: int
    tol: float


def verify_equivariance(tau, samples=128, tol=None, s_ladder=64, seed=0):
    """Defects of the two height equivariances plus ladder ordering check.

    Reports max |h(z + (0,1)) - h(z) - 1| and |h(f z) - h(z) - rho| over
    samples, and counts ladder pairs s < s' (at least two y cells apart)
    whose lower components fail strict inclusion. The bands of all rungs
    are found with one ``_BandTable.find`` call, which labels the missing
    ones together, before the rungs' fills are pasted; the fills are compared
    packed to bits, which counts the same pairs as the boolean fills.
    """
    geom = tau.geom
    skew = tau.skew
    pts = lattice_points_2d(samples, seed=seed)
    y_c = 0.5 * (geom.y_min + geom.y_max)
    z = np.column_stack([pts[:, 0], y_c - 0.75 + 1.5 * pts[:, 1]])
    # each point bisects alone: one call for z, z + (0, 1) and f z
    h0, h1, h2 = heights(tau, np.vstack([z, z + [0.0, 1.0], skew.spec.annulus_map(z)]),
                         tol=tol)[0].reshape(3, -1)
    ladder = np.arange(s_ladder) / s_ladder
    it, shift = _fill_key(geom, ladder)
    _band_table(tau).find(it, shift)
    # each rung's fill packed to bits; the zero padding bits of the last byte
    # are the same on both sides, so they add to neither test
    fills = np.empty((ladder.size, (geom.n_x * geom.n_y + 7) // 8), dtype=np.uint8)
    for k, s in enumerate(ladder):
        fills[k] = np.packbits(lower_component(tau, s).fill)
    violations = pairs = 0
    for i in range(ladder.size - 1):
        # rung i against every later rung at least two y cells above it
        f, later = fills[i], fills[i + 1:]
        far = ladder[i + 1:] - ladder[i] >= 2.0 * geom.h_y
        subset = ~(f & ~later).any(axis=1)
        strict = (later & ~f).any(axis=1)
        pairs += int(far.sum())
        violations += int((far & ~(subset & strict)).sum())
    return EquivarianceReport(
        unit_translate_defect=float(np.max(np.abs(h1 - h0 - 1.0), initial=0.0)),
        map_defect=float(np.max(np.abs(h2 - h0 - skew.rho), initial=0.0)),
        ordering_violations=violations, pairs_checked=pairs,
        tol=_resolve_tol(geom, tol))


@dataclass
class FactorMap:
    """Sampled torus-to-circle factor with per-sample defect statistics."""

    x_grid: np.ndarray
    y_grid: np.ndarray
    values: np.ndarray  # lifted heights, shape (n_x, n_y)
    defect_max: float
    defect_mean: float
    monotone_in_y: bool


def project_to_torus_factor(tau, grid=(64, 32), tol=None):
    """Sample the height on a unit-height window and measure the defect.

    The torus-level defect is the circle distance between h(f z) and
    h(z) + rho over all samples; the height is also checked to be
    nondecreasing along each sampled vertical line.
    """
    geom = tau.geom
    n_gx, n_gy = grid
    y_c = 0.5 * (geom.y_min + geom.y_max)
    xs = (np.arange(n_gx) + 0.5) / n_gx
    ys = y_c - 0.5 + (np.arange(n_gy) + 0.5) / n_gy
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    z = np.column_stack([X.ravel(), Y.ravel()])
    skew = tau.skew
    # each point bisects alone: one call for z and f z
    vals, imgs = heights(tau, np.vstack([z, skew.spec.annulus_map(z)]),
                         tol=tol)[0].reshape(2, *X.shape)
    defects = circle_dist(wrap01(imgs), wrap01(vals + skew.rho))
    monotone = bool(np.all(np.diff(vals, axis=1) >= -2.0 * geom.h_y))
    return FactorMap(x_grid=xs, y_grid=ys, values=vals,
                     defect_max=float(np.max(defects)),
                     defect_mean=float(np.mean(defects)), monotone_in_y=monotone)


def combine_transverse_factors(fm_vertical, fm_horizontal, spec, rho_pair, seed=0):
    """Pair a vertical and a (coordinate-swapped) horizontal factor.

    Returns the joint defect of (h1(swap z), h2(z)) against the target torus
    translation, per coordinate, over lattice samples. A factor map is read
    at the sample of its grid at or below the point, per coordinate.
    """
    samples = 256
    pts = lattice_points_2d(samples, seed=seed)
    fz = wrap01(spec.eval_lift(pts))

    def lookup(fm, x, y):
        xs, ys = fm.x_grid, fm.y_grid
        y_lift = ys[0] + wrap01(y - ys[0])  # representative in the window
        i = np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 1)
        j = np.clip(np.searchsorted(ys, y_lift) - 1, 0, ys.size - 1)
        return fm.values[i, j]

    (x, y), (fx, fy) = pts.T, fz.T
    d2 = circle_dist(wrap01(lookup(fm_vertical, fx, fy)),
                     wrap01(lookup(fm_vertical, x, y) + rho_pair[1]))
    d1 = circle_dist(wrap01(lookup(fm_horizontal, fy, fx)),
                     wrap01(lookup(fm_horizontal, y, x) + rho_pair[0]))
    return {"horizontal_defect": float(np.max(d1)),
            "vertical_defect": float(np.max(d2)),
            "samples": samples, "seed": seed}
