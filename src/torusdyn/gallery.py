"""Example constructions: suspensions, obstruction examples, surgery geometry.

Everything here is deterministic with parameters frozen in the manifest; the
probe points attached to the obstruction examples are the concrete
coordinates the separation arguments need.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .circle import CircleLift, rotation_number
from .rotation import ProximalityProbe, walk_probes
from .serialize import circle_lift_from_definition
from .torus import ComposedMap, DiskPush, SuspensionMap, TorusMapSpec
from .util import GOLDEN_MEAN, SQRT2_MINUS_1, torus_dist, wrap01


# Frozen parameters and evidence thresholds for every example, hashed into
# output provenance so reports are traceable to the construction version.
GALLERY_MANIFEST = {
    "suspension": {
        "base": {"kind": "rigid", "alpha": GOLDEN_MEAN},
        "fiber": {"kind": "rigid", "alpha": SQRT2_MINUS_1},
        "thresholds": {"commutation": 1e-9, "closed_form": 1e-7},
    },
    "unbounded-inessential": {
        "base": {"kind": "rigid", "alpha": GOLDEN_MEAN},
        "fiber": {"kind": "denjoy-truncated", "alpha": SQRT2_MINUS_1, "N": 40,
                  "total_mass": 0.3},
        "seed_time": 0.32, "push_dt": 0.012, "push_radius": 0.03,
        "thresholds": {"proximality": 1e-2, "n_max": 10_000},
    },
    "fully-essential": {
        "base": {"kind": "denjoy-truncated", "alpha": GOLDEN_MEAN, "N": 40,
                 "total_mass": 0.3},
        "fiber": {"kind": "denjoy-truncated", "alpha": SQRT2_MINUS_1, "N": 40,
                  "total_mass": 0.3},
        "margin": 0.004,
        "thresholds": {"proximality": 1e-2, "n_max": 10_000},
    },
    "surgery-geometry": {
        "alpha": [GOLDEN_MEAN, SQRT2_MINUS_1], "gamma": 0.7374747,
        "delta": 0.01, "n_scan": 50,
        "thresholds": {"diameter": 0.02},
    },
}


@dataclass
class SuspensionSpec:
    """Suspension data: base and fiber lifts plus the derived torus map."""

    base: CircleLift
    fiber: CircleLift
    torus_map: SuspensionMap
    rho_base: float
    rho_fiber: float

    @property
    def rotation_target(self):
        return (self.rho_base, self.rho_base * self.rho_fiber)


def _lift_rho(lift):
    if lift.kind == "rigid":
        return lift.alpha
    if lift.target_alpha is not None:
        return float(lift.target_alpha)
    return rotation_number(lift, 0.0, 20_000)[0]


def suspension_map(base_lift, fiber_lift):
    """Suspension of the fiber circle map driven by the base lift."""
    spec = SuspensionMap(base_lift, fiber_lift)
    return SuspensionSpec(base=base_lift, fiber=fiber_lift, torus_map=spec,
                          rho_base=_lift_rho(base_lift),
                          rho_fiber=_lift_rho(fiber_lift))


def manifest_suspension(name):
    """The suspension of a gallery example, built from its manifest entry."""
    entry = GALLERY_MANIFEST[name]
    return suspension_map(circle_lift_from_definition(entry["base"]),
                          circle_lift_from_definition(entry["fiber"]))


@dataclass
class ObstructionExample:
    """A composed map with designated probe points and wandering data."""

    torus_map: TorusMapSpec
    w0: tuple
    w1: tuple
    w0_edge: tuple  # same time coordinate as w0, on the gap boundary
    w1_edge: tuple
    wandering_center: tuple
    wandering_radius: float
    rho_vertical: float
    notes: dict = field(default_factory=dict)


def _pushed_example(susp, w0, w1, radius, edge, **probe):
    """The suspension composed with a push from w0 to w1, its edge points
    at height ``edge`` over w0 and w1, and its vertical rotation number."""
    return ObstructionExample(
        torus_map=ComposedMap([DiskPush(w0, w1, radius), susp.torus_map]),
        w0=w0, w1=w1, w0_edge=(w0[0], edge), w1_edge=(w1[0], edge),
        rho_vertical=susp.rho_base * susp.rho_fiber, **probe)


def example_unbounded_inessential():
    """Rigid-over-Denjoy suspension composed with a push in a wandering block.

    The fiber map has a single orbit of gaps; the push moves the center of
    the time-zero gap block to a nearby time, which is what separates the
    designated probe points while keeping them proximal to gap-edge points.
    """
    m = GALLERY_MANIFEST["unbounded-inessential"]
    seed_time, push_dt, push_radius = m["seed_time"], m["push_dt"], m["push_radius"]
    susp = manifest_suspension("unbounded-inessential")
    g2 = susp.fiber
    a0, b0 = g2.gap_table.gap(0)
    mid = 0.5 * (a0 + b0)
    half = 0.5 * (b0 - a0)
    if push_radius >= 0.95 * half:
        raise ValueError("push radius does not fit inside the gap block")
    return _pushed_example(
        susp, (seed_time, mid), (seed_time + push_dt, mid), push_radius, b0,
        wandering_center=(seed_time + 0.5 * push_dt, mid),
        wandering_radius=min(half * 0.95, push_radius + push_dt),
        notes={"gap0": (a0, b0), "denjoy_N": m["fiber"]["N"],
               "truncation_tol": g2.truncation_tol})


def example_fully_essential():
    """Denjoy-over-Denjoy suspension with a push between two recurrent times.

    The push endpoints sit at times flanking a small materialized base gap,
    so the flow arc between them crosses the base's recurrent set; the
    crossing times within the truncated model are counted and attached.
    """
    m = GALLERY_MANIFEST["fully-essential"]
    margin = m["margin"]
    susp = manifest_suspension("fully-essential")
    g1, g2 = susp.base, susp.fiber
    gt = g1.gap_table
    # the first short base gap flanked by arcs wide enough for the margins;
    # the arcs around the ends wrap through one turn
    a_s, b_s = gt.a[gt.order], gt.b[gt.order]
    prev_end, next_start = np.roll(b_s, 1), np.roll(a_s, -1)
    prev_end[0] -= 1.0
    next_start[-1] += 1.0
    fits = ((b_s - a_s < 2e-3) & (a_s - prev_end > 2 * margin)
            & (next_start - b_s > 2 * margin))
    choice = int(np.argmax(fits))
    if not fits[choice]:
        raise RuntimeError("no base gap with wide enough flanking arcs")
    s0 = float(a_s[choice] - margin)
    s1 = float(b_s[choice] + margin)
    a0, b0 = g2.gap_table.gap(0)
    y0 = 0.5 * (a0 + b0)
    radius = min(0.045, 0.9 * 0.5 * (b0 - a0))
    if (s1 - s0) > 0.45 * radius:
        radius = min(0.24, max(radius, (s1 - s0) / 0.45 + 1e-3))
    crossings = crossing_times(g1, s0, s1)
    return _pushed_example(
        susp, (wrap01(s0), y0), (wrap01(s1), y0), radius, b0,
        wandering_center=(wrap01(0.5 * (s0 + s1)), y0),
        wandering_radius=radius,
        notes={"s0": s0, "s1": s1, "crossing_count": len(crossings),
               "base_gap": (float(a_s[choice]), float(b_s[choice])),
               "denjoy_N": m["fiber"]["N"]})


def crossing_times(base_lift, s0, s1):
    """Sampled times in (0,1) at which the arc from s1 to s0 meets the
    base's non-gap set (the recurrent set of the truncated model)."""
    gt = base_lift.gap_table
    a_s, b_s = gt.a[gt.order], gt.b[gt.order]
    t = np.linspace(0.0, 1.0, 10_000, endpoint=False)[1:]
    v = wrap01(t * s0 + (1.0 - t) * s1)
    j = np.searchsorted(a_s, v, side="right") - 1
    in_gap = (j >= 0) & (v < b_s[np.maximum(j, 0)])
    return t[~in_gap].tolist()


# -- surgery geometry ---------------------------------------------------------


@dataclass
class SurgeryGeometry:
    """Segment blow-up data: translation vector, slope, size schedule."""

    alpha: tuple
    gamma: float
    delta: float
    n_scan: int

    def center(self, n):
        return wrap01(np.asarray(self.alpha, dtype=float) * n)

    def fiber_halfwidth(self, n, z):
        """Transversal half-size 2^(-|n|-10) * (delta - distance to center)."""
        d = torus_dist(np.asarray(z, dtype=float), self.center(n))
        return 2.0 ** (-abs(int(n)) - 10) * np.maximum(0.0, self.delta - d)

    def domain_diameter(self, n):
        """Diameter of the n-th blown-up domain; the transversal bulge never
        beats the chord between the segment endpoints."""
        return 2.0 * self.delta


def _segment_min_dist(p0, p1, q0, q1):
    """Min distance between two plane segments."""

    def seg_point(a, b, p):
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
        return float(np.linalg.norm(a + t * ab - p))

    def cross2(a, b):
        return a[0] * b[1] - a[1] * b[0]

    best = min(seg_point(p0, p1, q0), seg_point(p0, p1, q1),
               seg_point(q0, q1, p0), seg_point(q0, q1, p1))
    d1 = cross2(p1 - p0, q0 - p0) * cross2(p1 - p0, q1 - p0)
    d2 = cross2(q1 - q0, p0 - q0) * cross2(q1 - q0, p1 - q0)
    if d1 < 0.0 and d2 < 0.0:
        return 0.0
    return best


def surgery_geometry(alpha, gamma, delta, n_scan=50):
    """Validated segment geometry for the blow-up example.

    Rejects sizes for which some iterate of the segment under the torus
    translation meets the segment itself within the scan range.
    """
    alpha = (float(alpha[0]), float(alpha[1]))
    gamma = float(gamma)
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    u = np.array([1.0, gamma])
    u /= np.linalg.norm(u)
    p0, p1 = -delta * u, delta * u
    for n in range(1, int(n_scan) + 1):
        c = np.asarray(alpha) * n
        best = np.inf
        for px in (-1, 0, 1):
            for py in (-1, 0, 1):
                shift = c - np.round(c) + np.array([px, py])
                best = min(best, _segment_min_dist(p0, p1, q0=p0 + shift,
                                                   q1=p1 + shift))
        if best <= 0.0:
            raise ValueError(f"delta too large: iterate {n} meets the segment")
    return SurgeryGeometry(alpha=alpha, gamma=gamma, delta=delta,
                           n_scan=int(n_scan))


# -- combinatorial window lemma ------------------------------------------------


@dataclass
class NoGapWindow:
    """Window length and anchor for the shifted-interval intersection."""

    values: tuple  # sorted distinct elements of A
    n0: int
    m0: int

    def anchor(self, m_prime):
        return int(m_prime) - self.values[0]

    def check_interval_property(self, m_prime):
        """Every v in the anchored run has v + n inside the window for all
        n in A (the content the construction actually provides)."""
        m = self.anchor(m_prime)
        window = range(int(m_prime), int(m_prime) + self.m0 + 1)
        for v in range(m, m + self.n0 + 1):
            for n in self.values:
                if v + n not in window:
                    return False
        return True

    def check_assignment(self, m_prime, xi):
        """Per-assignment consequence: the image {j - xi(j)}, j over the
        window from m_prime, spans at least n0 and its sorted gaps never
        exceed max(A) - min(A) + 1.

        ``xi`` is one assignment of the window's length, or a (k, m0 + 1)
        array of k assignments, one a row; the result is one bool, or an
        array of k. A repeated image value is a gap of 0, so each row's
        image is sorted with its repeats.
        """
        xi = np.asarray(xi)
        if xi.ndim not in (1, 2) or xi.shape[-1] != self.m0 + 1:
            raise ValueError("assignment length must be the window length")
        img = np.sort(np.arange(int(m_prime), int(m_prime) + self.m0 + 1)
                      - np.atleast_2d(xi), axis=1)
        ok = ((img[:, -1] - img[:, 0] >= self.n0)
              & (np.diff(img, axis=1) <= self._max_jump).all(axis=1))
        return bool(ok[0]) if xi.ndim == 1 else ok

    @functools.cached_property
    def _max_jump(self):
        return max(self.values) - min(self.values) + 1


def no_gap_window(A, n0):
    """Window size M0 = N0 + max(A) - min(A) with its verification helpers."""
    values = tuple(sorted(set(int(a) for a in A)))
    if not values:
        raise ValueError("A must be nonempty")
    n0 = int(n0)
    if n0 < 0:
        raise ValueError("N0 must be >= 0")
    return NoGapWindow(values=values, n0=n0,
                       m0=n0 + values[-1] - values[0])


# -- obstruction evidence -------------------------------------------------------


def obstruction_probe(example, n_max=10_000):
    """The proximality probe of the designated quadruple.

    The probe pair (w0, w1) is separated by construction; w0 is checked
    proximal (forward) to the edge point over w1 and proximal (backward)
    to the edge point over w0. One probe iterates w0 with both edge points;
    its results are those for the w1 and the w0 edge point.
    """
    return ProximalityProbe(example.w0, [example.w1_edge, example.w0_edge],
                            n_max=n_max)


def obstruction_verdict(scan, threshold=1e-2):
    """The evidence dict from the results of `obstruction_probe`:
    "forward_pair" and "backward_pair" are those for the w1 and the w0
    edge point."""
    fwd, bwd = scan
    obstruction = (fwd.forward_min < threshold) and (bwd.backward_min < threshold)
    return {"forward_pair": fwd, "backward_pair": bwd,
            "obstruction_evidence": obstruction}


def obstruction_evidence(example, n_max=10_000, threshold=1e-2):
    """The designated-quadruple evidence for an obstruction example: the
    verdict of its `obstruction_probe` walked alone."""
    [scan] = walk_probes(example.torus_map, obstruction_probe(example, n_max))
    return obstruction_verdict(scan, threshold)
