"""Numerical rotation data: rotation sets, deviations, spreads, orbit probes.

All routines are sampled evidence, never certificates. Sampling is a
deterministic low-discrepancy lattice plus seeded jitter and every sampler
takes its seed, so maxima are reproducible bit for bit.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .util import (_both_ways, finite_multiples, iterates, lattice_points_2d,
                   torus_dist, wrap01)


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


def estimate_rotation_set(spec, n_ladder=(100, 1000, 10_000), samples=64, seed=0):
    """Cloud of Birkhoff displacement averages for a map homotopic to identity."""
    if spec.k != 0:
        raise ValueError("rotation set undefined; use vertical_rotation_number")
    return _rotation_cloud(spec, n_ladder, samples, seed)


def vertical_rotation_number(spec, n=10_000, samples=64, seed=0):
    """Mean and spread of the second displacement coordinate over samples."""
    avg = _rotation_cloud(spec, (n,), samples, seed).deepest()[:, 1]
    return float(avg.mean()), float(avg.max() - avg.min())


# -- orbit probes ----------------------------------------------------------------


@dataclass
class SpreadTable:
    forward: np.ndarray
    backward: np.ndarray
    consistent: bool  # forward/backward growth agrees at sample level


@dataclass
class ProximalityResult:
    forward_min: float
    backward_min: float


class _Probe:
    """The rows of one orbit diagnostic, stepped by `walk_probes`.

    ``z0`` holds the starting rows and ``steps`` the number of steps taken
    forwards and, when ``backward``, as many backwards. A ``torus`` probe's
    rows are reduced mod 1 and step by the induced torus map; the others
    are unreduced lift points. ``_record(n0, z, inverse)`` sees a block of
    consecutive steps: ``z[i]`` holds the probe's rows after step n0 + i,
    and a block never runs past the probe's last step. A probe that walks
    ``backward`` keeps what it records of each direction in
    ``records[inverse]``, replaced as a whole by `walk_probes` when the
    backward walk ran in another process. ``_result()`` gives the
    diagnostic. The walk runs under the union of the probes' numpy
    ``errstate`` settings.
    """

    torus = False
    backward = True
    errstate = {}


class _TwoSidedTable(_Probe):
    """A table over n = 0..n_max of f^n(z) - z and f^-n(z) - z, z over the
    sample window: lattice points in [0,1)^2 together with their (0,1)
    integer translates.

    The translates matter for twisted maps: the displacement of z + (0,1)
    differs from that of z by the linear twist term, which is exactly what
    unbounded horizontal spread measures. For k = 0 they are redundant but
    harmless.
    """

    def __init__(self, n_max, samples, seed):
        self.steps = _positive_n_max(n_max)
        base = lattice_points_2d(samples, seed=seed)
        self.z0 = np.vstack([base, base + np.array([0.0, 1.0])])
        self.records = [np.zeros(self.steps + 1), np.zeros(self.steps + 1)]

    def _record(self, n0, z, inverse):
        n = np.arange(n0, n0 + len(z))
        self.records[inverse][n0:n0 + len(z)] = self._entry(n, z - self.z0, inverse)


class DeviationProbe(_TwoSidedTable):
    """D(n) = max_z |<f^n(z) - z, v> - n rho| over both signs of n; see
    `deviation_profile`."""

    # an overflow shows as a table entry that is not finite, refused below
    errstate = {"over": "ignore", "invalid": "ignore"}

    def __init__(self, v, rho, n_max=10_000, samples=64, seed=0):
        self.v = np.asarray(v, dtype=float)
        super().__init__(n_max, samples, seed)
        self.rho = finite_multiples(rho, self.steps)

    def _entry(self, n, d, inverse):
        # a stack of matrix-vector products, each bit for bit one step's d @ v
        dv = d @ self.v
        drift = (n * self.rho)[:, None]
        return np.abs(dv + drift if inverse else dv - drift).max(axis=1)

    def _result(self):
        value = np.maximum(*self.records)
        if not np.isfinite(value).all():
            raise ValueError(f"the deviation profile along v = {self.v.tolist()} "
                             f"is not finite")
        c_est = float(value.max())
        cut = int(np.floor(0.8 * self.steps))
        # bounded: no new maximum over the final 20% (up to iteration roundoff)
        verdict = "bounded" if value[: cut + 1].max() >= c_est - 1e-9 else "growing"
        return DeviationProfile(n=np.arange(self.steps + 1), value=value,
                                c_est=c_est, verdict=verdict,
                                caveat="sampled evidence only")


class SpreadProbe(_TwoSidedTable):
    """spread(n) over both signs of n; see `horizontal_spread`."""

    def _entry(self, n, d, inverse):
        return d[..., 0].max(axis=1) - d[..., 0].min(axis=1)

    def _result(self):
        sf, sb = self.records
        consistent = bool(sb.max() <= sf.max() + 2.0 and sf.max() <= sb.max() + 2.0)
        return SpreadTable(forward=sf, backward=sb, consistent=consistent)


class ProximalityProbe(_Probe):
    """Orbit distances of x to each partner; see `proximality_scan`."""

    torus = True

    def __init__(self, x, partners, n_max=10_000):
        self.steps = _positive_n_max(n_max)
        self.z0 = wrap01(np.array([x, *partners], dtype=float))
        self.records = [np.full(len(self.z0) - 1, np.inf)] * 2

    def _record(self, n0, z, inverse):
        near = torus_dist(z[:, :1], z[:, 1:]).min(axis=0)
        self.records[inverse] = np.minimum(self.records[inverse], near)

    def _result(self):
        return [ProximalityResult(forward_min=float(f), backward_min=float(b))
                for f, b in zip(*self.records)]


class RecurrenceProbe(_Probe):
    """Return times into a ball, forwards only; see `recurrence_probe`."""

    torus = True
    backward = False

    def __init__(self, center, radius, n_max=1000, seed=0):
        samples = 64  # the center and up to 63 lattice points of the ball
        self.center = np.asarray(center, dtype=float)
        self.radius = radius
        # lattice sample of the ball (rejection from the bounding square), plus center
        raw = lattice_points_2d(4 * samples, seed=seed)
        box = self.center + radius * (2.0 * raw - 1.0)
        keep = torus_dist(box, self.center) < radius
        self.z0 = wrap01(np.vstack([self.center[None, :], box[keep][: samples - 1]]))
        self.steps = max(int(n_max), 0)
        self.times = []

    def _record(self, n0, z, inverse):
        hit = (torus_dist(z, self.center) < self.radius).any(axis=1)
        self.times.extend((n0 + np.flatnonzero(hit)).tolist())

    def _result(self):
        return self.times


def walk_probes(spec, *probes):
    """Step the rows of every probe as one stacked array and return the
    probes' results, in order.

    There is one walk forwards and one backwards, so one map evaluation per
    step whatever the number of probes. Every map kind evaluates row by
    row, so each result is bit for bit that of its probe walked alone. Lift
    rows step by ``eval_lift`` or ``eval_inverse``; after each step the
    torus rows get one ``wrap01``, which is ``_torus_step``. The iterates
    are gathered in blocks of consecutive steps, and each probe records a
    block in one call, ``_record(n0, z, inverse)`` with ``z[i]`` its rows
    after step n0 + i. A probe leaves the stack after its last step; one
    that does not walk backwards takes no backward step.

    The two walks are independent, so they are the two halves of
    `util._both_ways`: where it forks, the backward walk runs in a child
    process and sends back each backward-walking probe's backward record,
    which replaces the probe's own. The records are those of the walk here,
    bit for bit. With no probe walking backwards nothing forks.
    """
    back = [p for p in probes if p.backward]
    with np.errstate(**{k: v for p in probes for k, v in p.errstate.items()}):
        forward = _walk(spec, probes, False)
        if not back:
            next(forward)
        else:
            halves = _both_ways(forward, _walk(spec, back, True))
            with contextlib.closing(halves):
                for _, records in halves:
                    for p, record in zip(back, records):
                        p.records[1] = record
        return [p._result() for p in probes]


# steps per block of `_walk`, fewer for a stack so wide that a block of this
# many steps would pass _BLOCK_BYTES; a block holds at least one step
_BLOCK_STEPS = 64
_BLOCK_BYTES = 2**20


def _walk(spec, probes, inverse):
    """One direction of `walk_probes`, a generator that yields once, when
    the walk is done: the probes' backward records, or None forwards. The
    stack is cut at each probe's last step and walked on with the rows of
    the probes that remain. Each stage fills one buffer with a block of
    steps at a time, and blocks end at the stage's cut."""
    lift = spec.eval_inverse if inverse else spec.eval_lift
    # lift rows first: the torus rows are one tail, reduced by one wrap01
    live = sorted((p for p in probes if p.steps > 0), key=lambda p: p.torus)
    rows = [p.z0 for p in live]
    done = 0
    while live:
        ends = np.cumsum([len(r) for r in rows]).tolist()
        spans = list(zip(live, [0, *ends], ends))
        stop = min(p.steps for p in live)
        step = _stack_step(lift, sum(len(p.z0) for p in live if not p.torus))
        z = np.concatenate(rows)
        orbit = iterates(step, z, stop - done)
        width = max(1, min(_BLOCK_STEPS, _BLOCK_BYTES // max(z.nbytes, 1)))
        block = np.empty((min(width, stop - done), *z.shape))
        for n0 in range(done + 1, stop + 1, len(block)):
            filled = block[:min(len(block), stop + 1 - n0)]
            for i, w in enumerate(islice(orbit, len(filled))):
                filled[i] = w
            for p, a, b in spans:
                p._record(n0, filled[:, a:b], inverse)
        rows = [filled[-1, a:b] for p, a, b in spans if p.steps > stop]
        live = [p for p in live if p.steps > stop]
        done = stop
    yield [p.records[1] for p in probes] if inverse else None


def _stack_step(lift, tail):
    """The lift, then one wrap01 of the rows from ``tail`` on."""
    def step(w):
        out = lift(w)
        if tail < len(out):
            out[tail:] = wrap01(out[tail:])
        return out
    return step


def deviation_profile(spec, v, rho, n_max=10_000, samples=64, seed=0):
    """Tabulate D(n) = max_z |<f^n(z) - z, v> - n rho| over both signs of n.

    The verdict is "bounded" when D attains no new maximum over the final 20%
    of the ladder; it is sampled evidence, not a certificate.
    """
    return walk_probes(spec, DeviationProbe(v, rho, n_max, samples, seed))[0]


def horizontal_spread(spec, n_max=1000, samples=64, seed=0):
    """spread(n) = max over sample pairs of the first-coordinate displacement gap."""
    return walk_probes(spec, SpreadProbe(n_max, samples, seed))[0]


def proximality_scan(spec, x, partners, n_max=10_000):
    """min over 1 <= n <= n_max of the torus distance of the orbit of x to
    the orbit of each partner, for both signs of n; one result per partner.

    x and the partners are iterated together as one array, once forwards
    and once backwards; they are reduced mod 1 once, before the first step.
    """
    return walk_probes(spec, ProximalityProbe(x, partners, n_max))[0]


def recurrence_probe(spec, center, radius, n_max=1000, seed=0):
    """Return times n <= n_max at which some sampled ball point re-enters the ball."""
    return walk_probes(spec, RecurrenceProbe(center, radius, n_max, seed))[0]
