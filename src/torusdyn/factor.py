"""Constructive circle-factor pipeline.

From a saturated bounded invariant region of the skew-product, extract the
family of separating continua in the time-zero fiber, evaluate the height
function h(z) = inf{s : z below the s-th continuum} by bisection, verify its
equivariances, and project to a torus-to-circle factor map with measured
semi-conjugacy defect. Each s value of the ladder is independent. The fill
at time s translates a band label of its t cell; the bisection reads
membership straight from the bands, labeled together per step and cached in
the region's fill cache, and only the continua and the ladder paste fills,
memoized on their key.
"""

from __future__ import annotations

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
              half_height=None, max_iters=240, seed=0):
    """Saturate the half-width block over a ball at the given annulus point.

    The seed point should come with recurrence evidence; an empty probe
    result is attached as a warning, not a rejection. Window exhaustion is
    propagated in the status and leaves the partial mask available. The
    mask is extended to the region's vertical envelopes, tracked in real
    arithmetic until the extended rows stop changing over the last half of
    the walk (checked at 16, 32, 64, ... rounds, capped at 20,000); the
    provenance key ``refine_rounds`` records the rounds walked. The walk
    follows the seed ball's 1,024-point boundary ring alone: each block
    image is the closed disk bounded by the image of the ball's boundary
    circle, so its extremes over any vertical strip lie on that curve.
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
    # saturation's fiber cloud: cell centers of the rasterized seed ball
    pred = ball_fiber((x0, y0), ball_radius)
    _, X, Y = geom.centers(0, *np.indices((geom.n_x, geom.n_y)))
    inside = pred(X, Y)
    pts = np.column_stack([X[inside], Y[inside]])
    if not len(pts):
        raise ValueError(f"the seed ball of radius {ball_radius!r} covers no "
                         f"cell center (y cells are {geom.h_y!r} high)")
    occ, seed_occ, status, rounds = saturate_block_orbit(
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
    component_of(mask, seed_occ)  # clears the other components in mask.occ
    inv = invariance_defect(skew, mask)
    return TauRegion(mask=mask, skew=skew, status=status, invariance=inv,
                     recurrence_times=times, warnings=warnings)


@dataclass
class FiberFill:
    """Flood fill of a time-zero fiber complement from the bottom edge."""

    fill: np.ndarray  # bool (n_x, n_y): the lower complement component
    separating: bool
    shift_cells: int


def _fill_key(geom, s):
    """Rasterization key of the fills at times s: the t cell, and the shift
    in whole y cells, rounded half to even. Arrays give a float shift, a
    Python float s two Python ints."""
    shift = s / geom.h_y
    return geom.t_cell(s), (round(shift) if isinstance(shift, float)
                            else np.rint(shift))


def _bands(tau, keys):
    """Lower fills of the bands of keys (it, shift), each as ``(lo, band,
    top)``, or None when the translated obstruction leaves the window or the
    fiber is empty. The band is window rows [lo, lo + band.shape[1]): the
    obstruction's rows and one free guard row on each side that the window
    holds. The free rows below and above it each form one component with its
    edge row, so the rows below are filled, and the rows above when ``top``,
    its top row meeting the fill. Bands are cached in ``tau._fills`` by
    fiber row range: an obstruction inside the window is one band per t
    cell at every shift; one clipped by a window edge, one per clipped range.

    The bands missing from the cache are labeled in one call: stacked, each
    padded with occupied rows above its top guard row. Layers have no links,
    so each is labeled alone, and each is kept as a compact copy.
    """
    fills, n_y, occ = tau._fills, tau.geom.n_y, tau.mask.occ
    found, missing = [], {}
    for it, shift in keys:
        rows = fills.get(("rows", it))
        if rows is None:
            # the first and last occupied rows; those of an empty fiber,
            # (n_y, -1), leave the window at every shift
            occupied = np.flatnonzero(occ[it].any(axis=0))
            rows = fills["rows", it] = ((int(occupied[0]), int(occupied[-1]))
                                        if occupied.size else (n_y, -1))
        if rows[1] + shift < 0 or rows[0] + shift >= n_y:
            found.append(None)
            continue
        # fiber rows [r0, r1]: the occupied rows and the guard rows in the window
        r0, r1 = max(rows[0] - 1, -shift), min(rows[1] + 1, n_y - 1 - shift)
        key = "band", it, r0, r1
        if key not in fills:
            missing[key] = r1 - r0 + 1
        found.append((r0 + shift, key))
    if missing:
        free = np.zeros((len(missing), occ.shape[1], max(missing.values())), dtype=bool)
        for layer, (_, it, r0, r1) in zip(free, missing):
            layer[:, :r1 - r0 + 1] = True
            c0, c1 = max(r0, 0), min(r1 + 1, n_y)  # rows off the fiber are free
            layer[:, c0 - r0:c1 - r0] = ~occ[it, :, c0:c1]
        labeled = _components_meeting(free, np.s_[:, :, 0])
        for layer, (key, height) in zip(labeled, missing.items()):
            band = layer[:, :height].copy()
            fills[key] = band, bool(band[:, -1].any())
    return [None if got is None else (got[0], *fills[got[1]]) for got in found]


def _band_member(got, shift, x, y):
    """Membership of window cells (x, y) in the lower fill of a key of the
    given shift, from its band ``got`` (``_bands``). With no band, or one
    whose top row meets the fill, the fill does not separate: every cell is
    on one side of the continuum, decided by the translation sign. Rows below
    the band read its free bottom guard row, all filled; rows above it its
    free top guard row, empty as the fill separates. A band clipped by a
    window edge has no rows beyond it.
    """
    if got is None or got[2]:
        return shift >= 0
    lo, band, _ = got
    return band[x, np.minimum(np.maximum(y - lo, 0), band.shape[1] - 1)]


def lower_component(tau, s):
    """Lower unbounded complement component of the flow-translated fiber.

    The obstruction is the time-s-mod-1 fiber of the region translated up by
    exactly s (rasterized once); the fill grows from the bottom window row
    through 4-adjacency with x wrap. A fill touching the top row is returned
    flagged not separating. The fill is pasted from the key's band
    (``_bands``), every row filled when there is none, and memoized per key.
    """
    it, shift = map(int, _fill_key(tau.geom, s))
    out = tau._fills.get((it, shift))
    if out is None:
        fill = np.ones((tau.geom.n_x, tau.geom.n_y), dtype=bool)
        # no band: every row is filled, and the fill is not separating
        lo, band, top = _bands(tau, [(it, shift)])[0] or (0, fill[:, :0], True)
        fill[:, lo:lo + band.shape[1]] = band
        fill[:, lo + band.shape[1]:] = top
        out = tau._fills[it, shift] = FiberFill(fill=fill, separating=not top,
                                                shift_cells=shift)
    return out


@dataclass
class ContinuumApprox:
    """Boundary point cloud of the lower component: the separating continuum."""

    points: np.ndarray  # (m, 2) cell centers (x, ytil)
    fill: FiberFill

    @property
    def separating(self):
        return self.fill.separating


def continuum_Cs(tau, s):
    """Boundary cells of the lower fill: obstruction cells 4-adjacent to it."""
    fl = lower_component(tau, s)
    grown = fl.fill.copy()
    _or_shifted(grown, fl.fill, 0, wrap=True)
    _or_shifted(grown, fl.fill, 1, wrap=False)
    ix, iy = np.nonzero(grown & ~fl.fill)
    _, xs, ys = tau.geom.centers(0, ix, iy)
    return ContinuumApprox(points=np.column_stack([xs, ys]), fill=fl)


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


def evaluate_h(tau, z, tol=None):
    """Height of one annulus point z, of shape (2,) or (1, 2).

    The value and ``ordering_ok`` are those of ``heights(tau, [z], tol)``,
    bit for bit: the point is bisected in Python floats with the same steps,
    the same fill keys (``_fill_key``), the same band cache (``_bands``) and
    the same reading of a band (``_band_member``), which spares the array
    bookkeeping of a step for one point.
    """
    geom = tau.geom
    tol = _resolve_tol(geom, tol)
    z = np.asarray(z, dtype=float)
    if z.shape not in ((2,), (1, 2)):
        raise ValueError(f"evaluate_h takes one point of shape (2,) or (1, 2), "
                         f"not {z.shape}")
    z = z.reshape(1, 2)
    ix, iy = int(geom.x_cell(z[:, 0])[0]), int(geom.y_cell(z[:, 1])[0])
    below = iy < 0
    within = not below and iy < geom.n_y

    def member(s):
        if not within:
            return below
        it, shift = _fill_key(geom, s)
        return _band_member(_bands(tau, [(it, shift)])[0], shift, ix, iy)

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
    once per call. Each step sorts the other active points by rasterization
    key, fetches the bands of all its keys with one ``_bands`` call, which
    labels the missing ones together, and reads each band
    (``_band_member``) for a slice of that order. A point stops at ``tol``
    (half a y cell by default) or when its midpoint equals an end of its
    bracket, so a ``tol`` below the float spacing ends too. Membership is
    monotone in s up to rasterization jitter; a violated initial bracket is
    reported in ``ordering_ok`` instead of raising. ``evaluate_h`` bisects
    one point with the same steps in Python floats.
    """
    geom = tau.geom
    tol = _resolve_tol(geom, tol)
    z = np.asarray(z, dtype=float).reshape(-1, 2)
    ix, iy = geom.x_cell(z[:, 0]), geom.y_cell(z[:, 1])
    # a point's window test is the same at every s: points below the window
    # are always members, points above never are, only the rest read bands
    below = iy < 0
    within = ~below & (iy < geom.n_y)
    n_t = geom.n_t

    def member(s, p):
        """Membership of points ``p`` in the lower components at times ``s``."""
        out = below[p]
        q = within[p].nonzero()[0]
        if not q.size:
            return out
        # one group per fill key: a slice of the points sorted by key
        it, shift = _fill_key(geom, s[q])
        key = n_t * shift.astype(np.int64) + it
        order = key.argsort(kind="stable")
        q, key = q[order], key[order]
        x, y = ix[p[q]], iy[p[q]]
        starts = [0, *((key[1:] != key[:-1]).nonzero()[0] + 1).tolist()]
        keys = [divmod(k, n_t)[::-1] for k in key[starts].tolist()]  # (it, shift)
        for g0, g1, (_, shift), got in zip(starts, [*starts[1:], q.size], keys,
                                           _bands(tau, keys)):
            out[q[g0:g1]] = _band_member(got, shift, x[g0:g1], y[g0:g1])
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
    are fetched with one ``_bands`` call, which labels the missing ones
    together, before the rungs' fills are pasted; the fills are compared
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
    _bands(tau, [_fill_key(geom, s) for s in ladder.tolist()])
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
