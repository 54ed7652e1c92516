"""Numerical rotation data: rotation sets, deviations, spreads, orbit probes.

All routines are sampled evidence, never certificates. Sampling is a
deterministic low-discrepancy lattice plus seeded jitter and every sampler
takes its seed, so maxima are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import lattice_points_2d, torus_dist, wrap01


@dataclass
class RotationCloud:
    """Displacement averages (f^n(z) - z)/n over samples and an n-ladder."""

    n_ladder: list
    points: dict  # n -> (samples, 2) array

    def deepest(self):
        return self.points[self.n_ladder[-1]]


@dataclass
class DeviationProfile:
    """Sampled directional deviation table D(n) with a boundedness verdict."""

    n: np.ndarray
    value: np.ndarray  # D(n), max over samples and both iteration signs
    c_est: float
    verdict: str  # "bounded" | "growing"
    caveat: str


def _positive_n_max(n_max):
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return n_max


def _sample_window(samples, seed):
    """Lattice points in [0,1)^2 together with their (0,1) integer translates.

    The translates matter for twisted maps: the displacement of z + (0,1)
    differs from that of z by the linear twist term, which is exactly what
    unbounded horizontal spread measures. For k = 0 they are redundant but
    harmless.
    """
    base = lattice_points_2d(samples, seed=seed)
    return np.vstack([base, base + np.array([0.0, 1.0])])


def estimate_rotation_set(spec, n_ladder=(100, 1000, 10_000), samples=64, seed=0):
    """Cloud of Birkhoff displacement averages for a map homotopic to identity."""
    if spec.k != 0:
        raise ValueError("rotation set undefined; use vertical_rotation_number")
    n_ladder = sorted(int(n) for n in n_ladder)
    z0 = lattice_points_2d(samples, seed=seed)
    cur = z0.copy()
    points = {}
    marks = set(n_ladder)
    for n in range(1, n_ladder[-1] + 1):
        cur = spec.eval_lift(cur)
        if n in marks:
            points[n] = (cur - z0) / n
    return RotationCloud(n_ladder=list(n_ladder), points=points)


def vertical_rotation_number(spec, n=10_000, samples=64, seed=0):
    """Mean and spread of the second displacement coordinate over samples."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    z0 = lattice_points_2d(samples, seed=seed)
    cur = z0.copy()
    for _ in range(n):
        cur = spec.eval_lift(cur)
    avg = (cur[:, 1] - z0[:, 1]) / n
    return float(avg.mean()), float(avg.max() - avg.min())


def deviation_profile(spec, v, rho, n_max=10_000, samples=64, seed=0):
    """Tabulate D(n) = max_z |<f^n(z) - z, v> - n rho| over both signs of n.

    The verdict is "bounded" when D attains no new maximum over the final 20%
    of the ladder; it is sampled evidence, not a certificate.
    """
    v = np.asarray(v, dtype=float)
    n_max = _positive_n_max(n_max)
    z0 = _sample_window(samples, seed)
    fwd = z0.copy()
    bwd = z0.copy()
    value = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        fwd = spec.eval_lift(fwd)
        bwd = spec.eval_inverse(bwd)
        df = np.abs((fwd - z0) @ v - n * rho).max()
        db = np.abs((bwd - z0) @ v + n * rho).max()
        value[n] = max(df, db)
    c_est = float(value.max())
    cut = int(np.floor(0.8 * n_max))
    # bounded: no new maximum over the final 20% (up to iteration roundoff)
    verdict = "bounded" if value[: cut + 1].max() >= c_est - 1e-9 else "growing"
    return DeviationProfile(n=np.arange(n_max + 1), value=value, c_est=c_est,
                            verdict=verdict, caveat="sampled evidence only")


@dataclass
class SpreadTable:
    forward: np.ndarray
    backward: np.ndarray
    consistent: bool  # forward/backward growth agrees at sample level


def horizontal_spread(spec, n_max=1000, samples=64, seed=0):
    """spread(n) = max over sample pairs of the first-coordinate displacement gap."""
    n_max = _positive_n_max(n_max)
    z0 = _sample_window(samples, seed)
    fwd = z0.copy()
    bwd = z0.copy()
    sf = np.zeros(n_max + 1)
    sb = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        fwd = spec.eval_lift(fwd)
        bwd = spec.eval_inverse(bwd)
        d1 = fwd[:, 0] - z0[:, 0]
        d2 = bwd[:, 0] - z0[:, 0]
        sf[n] = d1.max() - d1.min()
        sb[n] = d2.max() - d2.min()
    consistent = bool(sb.max() <= sf.max() + 2.0 and sf.max() <= sb.max() + 2.0)
    return SpreadTable(forward=sf, backward=sb, consistent=consistent)


@dataclass
class ProximalityResult:
    forward_min: float
    backward_min: float


def proximality_scan(spec, x, partners, n_max=10_000):
    """min over 1 <= n <= n_max of the torus distance of the orbit of x to
    the orbit of each partner, for both signs of n; one result per partner.

    x and the partners are iterated together as one array, once forwards
    and once backwards.
    """
    n_max = _positive_n_max(n_max)
    fwd = bwd = np.array([x, *partners], dtype=float)
    best_f = best_b = np.full(len(fwd) - 1, np.inf)
    for _ in range(n_max):
        fwd = spec.eval_torus(fwd)
        bwd = spec.eval_torus_inverse(bwd)
        best_f = np.minimum(best_f, torus_dist(fwd[0], fwd[1:]))
        best_b = np.minimum(best_b, torus_dist(bwd[0], bwd[1:]))
    return [ProximalityResult(forward_min=float(f), backward_min=float(b))
            for f, b in zip(best_f, best_b)]


def recurrence_probe(spec, center, radius, n_max=1000, seed=0):
    """Return times n <= n_max at which some sampled ball point re-enters the ball."""
    n_max = int(n_max)
    samples = 64  # the center and up to 63 lattice points of the ball
    center = np.asarray(center, dtype=float)
    # lattice sample of the ball (rejection from the bounding square), plus center
    raw = lattice_points_2d(4 * samples, seed=seed)
    box = center + radius * (2.0 * raw - 1.0)
    keep = torus_dist(box, center) < radius
    pts = np.vstack([center[None, :], box[keep][: samples - 1]])
    cur = wrap01(pts)
    times = []
    for n in range(1, n_max + 1):
        cur = spec.eval_torus(cur)
        if np.any(torus_dist(cur, center) < radius):
            times.append(n)
    return times
