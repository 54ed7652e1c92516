"""Numerical rotation data: rotation sets, deviations, spreads, orbit probes.

All routines are sampled evidence, never certificates. Sampling is a
deterministic low-discrepancy lattice plus seeded jitter and every sampler
takes its seed, so maxima are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .util import (finite_multiples, iterates, lattice_points_2d, torus_dist,
                   wrap01)


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


def _rotation_cloud(spec, n_ladder, samples, seed):
    """(f^n(z) - z)/n over lattice samples z, at each rung n of the ladder."""
    n_ladder = sorted(int(n) for n in n_ladder)
    _positive_n_max(min(n_ladder, default=0))
    z0 = lattice_points_2d(samples, seed=seed)
    marks = set(n_ladder)
    orbit = enumerate(iterates(spec.eval_lift, z0, n_ladder[-1]), 1)
    return RotationCloud(n_ladder=n_ladder,
                         points={n: (z - z0) / n for n, z in orbit if n in marks})


def _two_sided_displacements(spec, n_max, samples, seed):
    """(n, f^n(z) - z, f^-n(z) - z) for n = 1..n_max, z over the sample window:
    lattice points in [0,1)^2 together with their (0,1) integer translates.

    The translates matter for twisted maps: the displacement of z + (0,1)
    differs from that of z by the linear twist term, which is exactly what
    unbounded horizontal spread measures. For k = 0 they are redundant but
    harmless.
    """
    base = lattice_points_2d(samples, seed=seed)
    z0 = np.vstack([base, base + np.array([0.0, 1.0])])
    walk = zip(iterates(spec.eval_lift, z0, n_max),
               iterates(spec.eval_inverse, z0, n_max))
    for n, (fwd, bwd) in enumerate(walk, 1):
        yield n, fwd - z0, bwd - z0


def estimate_rotation_set(spec, n_ladder=(100, 1000, 10_000), samples=64, seed=0):
    """Cloud of Birkhoff displacement averages for a map homotopic to identity."""
    if spec.k != 0:
        raise ValueError("rotation set undefined; use vertical_rotation_number")
    return _rotation_cloud(spec, n_ladder, samples, seed)


def vertical_rotation_number(spec, n=10_000, samples=64, seed=0):
    """Mean and spread of the second displacement coordinate over samples."""
    avg = _rotation_cloud(spec, (n,), samples, seed).deepest()[:, 1]
    return float(avg.mean()), float(avg.max() - avg.min())


def deviation_profile(spec, v, rho, n_max=10_000, samples=64, seed=0):
    """Tabulate D(n) = max_z |<f^n(z) - z, v> - n rho| over both signs of n.

    The verdict is "bounded" when D attains no new maximum over the final 20%
    of the ladder; it is sampled evidence, not a certificate.
    """
    v = np.asarray(v, dtype=float)
    n_max = _positive_n_max(n_max)
    rho = finite_multiples(rho, n_max)
    value = np.zeros(n_max + 1)
    # an overflow shows as a table entry that is not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for n, df, db in _two_sided_displacements(spec, n_max, samples, seed):
            value[n] = np.maximum(np.abs(df @ v - n * rho).max(),
                                  np.abs(db @ v + n * rho).max())
    if not np.isfinite(value).all():
        raise ValueError(f"the deviation profile along v = {v.tolist()} is "
                         f"not finite")
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
    sf = np.zeros(n_max + 1)
    sb = np.zeros(n_max + 1)
    for n, df, db in _two_sided_displacements(spec, n_max, samples, seed):
        sf[n] = df[:, 0].max() - df[:, 0].min()
        sb[n] = db[:, 0].max() - db[:, 0].min()
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
    and once backwards; they are reduced mod 1 once, before the first step.
    """
    n_max = _positive_n_max(n_max)
    z = wrap01(np.array([x, *partners], dtype=float))
    best_f = best_b = np.full(len(z) - 1, np.inf)
    for fwd, bwd in zip(iterates(spec._torus_step, z, n_max),
                        iterates(partial(spec._torus_step, inverse=True), z, n_max)):
        best_f = np.minimum(best_f, torus_dist(fwd[0], fwd[1:]))
        best_b = np.minimum(best_b, torus_dist(bwd[0], bwd[1:]))
    return [ProximalityResult(forward_min=float(f), backward_min=float(b))
            for f, b in zip(best_f, best_b)]


def recurrence_probe(spec, center, radius, n_max=1000, seed=0):
    """Return times n <= n_max at which some sampled ball point re-enters the ball."""
    samples = 64  # the center and up to 63 lattice points of the ball
    center = np.asarray(center, dtype=float)
    # lattice sample of the ball (rejection from the bounding square), plus center
    raw = lattice_points_2d(4 * samples, seed=seed)
    box = center + radius * (2.0 * raw - 1.0)
    keep = torus_dist(box, center) < radius
    pts = np.vstack([center[None, :], box[keep][: samples - 1]])
    return [n for n, z in enumerate(iterates(spec._torus_step, wrap01(pts), n_max), 1)
            if np.any(torus_dist(z, center) < radius)]
