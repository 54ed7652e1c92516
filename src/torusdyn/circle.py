"""Evaluable lifts of orientation-preserving circle homeomorphisms.

A lift is a strictly increasing real function commuting with x -> x + 1.
Three kinds are supported: rigid translations, piecewise-affine lifts given
by a breakpoint table on [0, 1), and truncated Denjoy-type constructions
obtained by blowing up finitely many orbit points of a rigid rotation into
gaps that are transported affinely one onto the next.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .util import nth_iterate, wrap01

KIND_RIGID = "rigid"
KIND_PWA = "piecewise-affine"
KIND_DENJOY = "denjoy-truncated"


@dataclass(frozen=True)
class DenjoyGapTable:
    """Blow-up data: one gap per orbit index n in [-N, N].

    Positions are on the renormalized circle (total length 1). ``a``/``b`` are
    the left/right gap endpoints, ``length`` the raw inserted length before
    renormalizing by ``normalizer`` = 1 + sum(lengths).
    """

    indices: np.ndarray
    length: np.ndarray
    a: np.ndarray
    b: np.ndarray
    normalizer: float
    truncation_tol: float

    @functools.cached_property
    def order(self):
        """The gaps' slots in circle order, by left endpoint a."""
        return np.argsort(self.a)

    def gap(self, n):
        """Endpoints (a_n, b_n) of the gap with orbit index n."""
        j = int(np.nonzero(self.indices == n)[0][0])
        return float(self.a[j]), float(self.b[j])


class CircleLift:
    """Monotone degree-1 lift, evaluable at real arguments (vectorized).

    Immutable after construction; safe for concurrent evaluation.
    """

    def __init__(self, kind, *, alpha=0.0, bx=None, by=None, gap_table=None,
                 target_alpha=None):
        self.kind = kind
        self.alpha = float(alpha)
        self.gap_table = gap_table
        self.target_alpha = target_alpha
        if kind == KIND_RIGID:
            self.bx = None
            self.by = None
        else:
            bx = np.asarray(bx, dtype=float)
            by = np.asarray(by, dtype=float)
            _validate_pwa(bx, by)
            self.bx = bx
            self.by = by
            # the table closed once with the wrap segment's end, so segment j
            # runs from breakpoint j to breakpoint j + 1 for every j, with
            # width x1 - x0 and rise y1 - y0; column j of _packed holds
            # segment j's (y0, x0, rise, width), read with one gather; lists
            # for the scalar path
            closed_x = np.append(bx, bx[0] + 1.0)
            self._ends = closed_x[1:]
            width = np.diff(closed_x)
            rise = np.diff(np.append(by, by[0] + 1.0))
            self._packed = np.stack([by, bx, rise, width])
            self._lists = tuple(a.tolist() for a in (bx, by, width, rise))

    # -- constructors ------------------------------------------------------

    @classmethod
    def rigid(cls, alpha):
        return cls(KIND_RIGID, alpha=float(alpha))

    @classmethod
    def piecewise_affine(cls, pairs):
        """From (x, value) pairs on [0,1); the table is sorted and closed at 0."""
        bx, by = _pwa_from_pairs(pairs)
        return cls(KIND_PWA, bx=bx, by=by)

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        xa = np.asarray(x, dtype=float)
        if self.kind == KIND_RIGID:
            out = xa + self.alpha
        else:
            u = wrap01(xa)
            y0, t = self._segment(u)
            out = np.rint(xa - u) + y0 + t
        return float(out) if xa.ndim == 0 else out

    def _segment(self, u):
        """(y0, t) with lift(u) = y0 + t for u in [0, 1): y0 the value at the
        start of u's segment, t the rise over it up to u."""
        seg = self._packed.take(self._ends.searchsorted(u, side="right"), axis=1)
        return seg[0], (u - seg[1]) * seg[2] / seg[3]

    def _lift_pair(self, x):
        """lift(x) and lift(wrap01(x)) from one reduction and one lookup.

        wrap01 is the identity on [0, 1), where the integer part is 0, so
        the second value is y0 + t, the first n + y0 + t.
        """
        xa = np.asarray(x, dtype=float)
        u = wrap01(xa)
        if self.kind == KIND_RIGID:
            return xa + self.alpha, u + self.alpha
        y0, t = self._segment(u)
        return np.rint(xa - u) + y0 + t, y0 + t

    def _lift_unit(self, u):
        """lift(u) for u already in [0, 1): the second value of
        `_lift_pair`, with no integer part to restore."""
        if self.kind == KIND_RIGID:
            return u + self.alpha
        y0, t = self._segment(u)
        return y0 + t

    def eval_scalar(self, x):
        """Scalar fast path used by long orbit loops."""
        if self.kind == KIND_RIGID:
            return x + self.alpha
        n = math.floor(x)
        u = x - n
        if u >= 1.0:  # x - floor(x) can round up to 1.0 for tiny negatives
            u = 0.0
            n += 1
        bx, by, width, rise = self._lists
        j = bisect.bisect_right(bx, u) - 1
        return n + by[j] + (u - bx[j]) * rise[j] / width[j]

    def inverse(self):
        """Lift of the inverse homeomorphism (analytic, no root finding)."""
        if self.kind == KIND_RIGID:
            return CircleLift.rigid(-self.alpha)
        frac = wrap01(self.by)
        # not floor(by): a tiny negative value reduces to 0.0, not to 1 - eps
        shift = np.round(self.by - frac)
        return CircleLift.piecewise_affine(list(zip(frac, self.bx - shift)))

    def to_definition(self):
        if self.kind == KIND_RIGID:
            return {"kind": KIND_RIGID, "alpha": self.alpha}
        if self.kind == KIND_DENJOY:
            gt = self.gap_table
            return {
                "kind": KIND_DENJOY,
                "alpha": self.target_alpha,
                "N": int(gt.indices.max()),
                "lengths": gt.length.tolist(),  # indexed by n + N
                "truncation_tol": gt.truncation_tol,
            }
        return {"kind": KIND_PWA,
                "breaks": [[float(x), float(v)] for x, v in zip(self.bx, self.by)]}

    @property
    def truncation_tol(self):
        if self.gap_table is not None:
            return self.gap_table.truncation_tol
        return 0.0


def _validate_pwa(bx, by):
    if bx.ndim != 1 or bx.shape != by.shape or bx.size < 1:
        raise ValueError("breakpoint table must be two equal-length 1D arrays")
    if bx[0] != 0.0:
        raise ValueError("breakpoint table must start at x = 0")
    if np.any(bx < 0.0) or np.any(bx >= 1.0):
        raise ValueError("breakpoints must lie in [0, 1)")
    if np.any(np.diff(bx) <= 0.0):
        raise ValueError("breakpoints must be strictly increasing")
    if np.any(np.diff(by) <= 0.0) or not (by[-1] < by[0] + 1.0):
        raise ValueError("breakpoint values must be strictly increasing with winding 1")


def _pwa_from_pairs(pairs):
    pts = sorted((float(x), float(v)) for x, v in pairs)
    bx = np.array([p[0] for p in pts])
    by = np.array([p[1] for p in pts])
    if bx.size == 0:
        raise ValueError("empty breakpoint table")
    if np.any(np.diff(bx) <= 0.0):
        raise ValueError("duplicate breakpoints")
    if bx[0] != 0.0:
        # close the table at 0 using the wrap segment from (bx[-1]-1, by[-1]-1);
        # an end breakpoint within rounding of 0 or 1 is moved onto 0 instead,
        # also when the start value plus 1 rounds onto the last value
        x0, y0 = bx[-1] - 1.0, by[-1] - 1.0
        t = (0.0 - x0) / (bx[0] - x0)
        v0 = y0 + t * (by[0] - y0)
        if v0 >= by[0]:
            bx[0] = 0.0
        elif v0 <= y0 or v0 + 1.0 <= by[-1]:
            bx, by = np.roll(bx, 1), np.roll(by, 1)
            bx[0], by[0] = 0.0, y0
        else:
            bx = np.concatenate([[0.0], bx])
            by = np.concatenate([[v0], by])
    return bx, by


# -- rotation number ---------------------------------------------------------

def rotation_number(lift, x0=0.0, n=10_000):
    """Estimate the rotation number from a length-n orbit segment.

    Returns (estimate, error_bound) with estimate = (g^n(x0) - x0)/n. The
    classical displacement bound puts the true rotation number within 1/n of
    the estimate; the bound adds the accumulated evaluation roundoff.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if lift.kind == KIND_RIGID:
        # closed form: the orbit displacement is exactly n*alpha
        est = lift.alpha
        return est, 1.0 / n + 1e-15
    x = nth_iterate(lift.eval_scalar, float(x0), n)
    est = (x - float(x0)) / n
    return float(est), 1.0 / n + n * 1e-15


# -- truncated Denjoy construction -------------------------------------------

def geometric_gap_schedule(total_mass=0.3):
    """Schedule l_n = c * 2^-|n| with c fixed by the total inserted mass.

    The mass is the untruncated sum over all n, c * (1 + 1/2)/(1 - 1/2) = 3c.
    """
    if not (0.0 < total_mass < 1.0):
        raise ValueError("total mass must be in (0, 1)")
    c = total_mass * 0.5 / 1.5
    return lambda n: c * 0.5 ** abs(n)


def build_denjoy(alpha, gap_schedule=None, N=40):
    """Blow up the orbit points frac(n*alpha), |n| <= N, into gaps.

    The returned lift transports gap n affinely onto gap n+1 for n < N; on
    the arcs between materialized gaps it is the affine order completion of
    the blown-up rotation, within the documented truncation tolerance
    (the untruncated schedule mass beyond |N|) of the ideal construction.

    A gap narrower than rounding at its position has a_n == b_n. As the
    source of a transport it is one breakpoint carrying b_n's image, so
    alpha 2^-7 with geometric mass 1e-6 and N = 33 is accepted with gap -33
    of width 0. A gap of positive width cannot map onto a gap whose
    endpoints coincide, on the circle or once unwrapped onto the lift's
    branch, and the refusal names such a gap of smallest |n|.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    if gap_schedule is None:
        gap_schedule = geometric_gap_schedule()
    # before allocating 2N+1 gaps: a geometric schedule underflows to 0
    # beyond N of about 1074
    if not (gap_schedule(N) > 0.0 and gap_schedule(-N) > 0.0):
        raise ValueError("gap lengths must be positive")
    idx = np.arange(-N, N + 1)
    lengths = np.array([float(gap_schedule(int(n))) for n in idx])
    if np.any(lengths <= 0.0):
        raise ValueError("gap lengths must be positive")
    S = float(lengths.sum())
    if S >= 1.0:
        raise ValueError("gap schedule mass must be < 1")
    theta = wrap01(idx * float(alpha))
    if np.min(np.diff(np.sort(theta))) <= 1e-9:
        raise ValueError("orbit points too close; reduce N or change alpha")

    # left endpoints: base angle plus the mass inserted strictly below it
    order = np.argsort(theta)
    rank = np.empty_like(order)
    rank[order] = np.arange(idx.size)
    csum = np.concatenate([[0.0], np.cumsum(lengths[order])])
    a = (theta + csum[rank]) / (1.0 + S)
    b = a + lengths / (1.0 + S)

    # truncation tolerance: untruncated tail of the same schedule, estimated
    # by continuing the supplied schedule for a long stretch
    tail = sum(float(gap_schedule(int(n))) + float(gap_schedule(int(-n)))
               for n in range(N + 1, N + 200))
    table = DenjoyGapTable(indices=idx, length=lengths,
                           a=a, b=b, normalizer=1.0 + S, truncation_tol=tail)

    # breakpoint table: endpoints a_n, b_n of gaps -N..N-1 mapped onto gaps
    # -N+1..N (idx is sorted by n, so gap n+1 is at the next slot); gap N
    # carries no constraint and is absorbed by its free arc
    src = np.stack([a[:-1], b[:-1]], axis=1).ravel()
    dst = np.stack([a[1:], b[1:]], axis=1).ravel()
    order = np.argsort(src, kind="stable")
    # a gap narrower than rounding has a_n == b_n: one breakpoint, b_n's image
    order = order[np.append(np.diff(src[order]) != 0.0, True)]
    vals = dst[order]
    # unwrap image positions onto a single increasing lift branch
    wind = np.concatenate([[0], np.cumsum(vals[1:] <= vals[:-1])])
    lifted = vals + wind
    # a gap of positive width cannot map onto one whose endpoints coincide,
    # on the circle (a_n == b_n) or once unwrapped onto the lift's branch
    image = np.repeat(idx[1:], 2)[order]  # the gap each breakpoint maps into
    flat = image[1:][(vals[1:] == vals[:-1]) | (lifted[1:] == lifted[:-1])]
    if flat.size:
        n = int(flat[np.argmin(np.abs(flat))])
        raise ValueError(f"gap {n} of length {lengths[n + N]:.3g} is below "
                         f"rounding at its position, and gap {n - 1} maps onto "
                         f"it; lower N or raise the gap lengths")
    bx, by = _pwa_from_pairs(zip(src[order], lifted))
    lift = CircleLift(KIND_DENJOY, bx=bx, by=by, gap_table=table,
                      target_alpha=float(alpha))

    # construction-time check: affine transport of every constrained gap
    if np.any(np.abs(wrap01(lift(src)) - dst) > 1e-10):
        raise AssertionError("gap transport endpoints inconsistent")
    return lift


class DenjoySemiconjugacy:
    """Monotone circle map collapsing each materialized gap to its base angle."""

    def __init__(self, gap_table):
        self.table = gap_table
        self._a_un = gap_table.a[gap_table.order] * gap_table.normalizer
        self._len = gap_table.length[gap_table.order]
        self._cum = np.concatenate([[0.0], np.cumsum(self._len)])

    def __call__(self, y):
        u = np.asarray(wrap01(y), dtype=float) * self.table.normalizer
        j = np.searchsorted(self._a_un, u, side="right")
        j0 = np.maximum(j - 1, 0)
        # inserted mass strictly below u: all gaps before j-1, plus the part
        # of gap j-1 below u (the full length once u has passed it)
        partial = np.minimum(np.maximum(u - self._a_un[j0], 0.0), self._len[j0])
        mass = self._cum[j0] + np.where(j > 0, partial, 0.0)
        out = wrap01(u - mass)
        if np.ndim(y) == 0:
            return float(out)
        return out

    @property
    def truncation_tol(self):
        return self.table.truncation_tol


def denjoy_semiconjugacy(lift):
    """Factor map onto the target rotation for a denjoy-truncated lift."""
    if lift.kind != KIND_DENJOY:
        raise ValueError("semiconjugacy is defined for denjoy-truncated lifts")
    return DenjoySemiconjugacy(lift.gap_table)
