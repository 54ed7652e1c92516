"""Evaluable lifts of 2-torus homeomorphisms with explicit inverses.

Every map is a lift f = twist + displacement where the twist part is the
unimodular matrix [[1, k], [0, 1]] and the displacement is Z^2-periodic.
All evaluators are vectorized over a trailing axis of size 2 and every kind
ships an analytic inverse evaluator at construction.
"""

from __future__ import annotations

import math

import numpy as np

from .circle import KIND_RIGID, CircleLift
from .util import wrap01


def apply_twist(k, z):
    """Apply [[1, k], [0, 1]] to points with trailing axis (x, y)."""
    z = np.asarray(z, dtype=float)
    out = z.copy()
    out[..., 0] = z[..., 0] + k * z[..., 1]
    return out


class TorusMapSpec:
    """Base class: a lift with twist k, a kind tag and analytic inverse.

    Every evaluator is row-independent: the image of each point of a batch
    depends on that point alone, bit for bit, whatever else the batch
    holds. So the rows of several orbits may be stacked and stepped by one
    evaluation, as `rotation.walk_probes` does.

    ``column_wise`` declares that both evaluators act column by column: the
    image x is a function of x alone, bit for bit, and the image height is
    nondecreasing in y. So the annulus step keeps each column in one column
    and the order of heights, and the flag admits a column of one run to
    the end-cell test of `skew.invariance_defect` (no count changes). A
    kind declares it only where float evaluation keeps both exactly.
    """

    kind = "abstract"
    k = 0
    column_wise = False

    def eval_lift(self, z):
        raise NotImplementedError

    def eval_inverse(self, z):
        raise NotImplementedError

    def eval_torus(self, z):
        """Induced map on T^2 (representatives in [0,1))."""
        return self._torus_step(wrap01(z))

    def _torus_step(self, w, inverse=False):
        """eval_torus of points already in [0, 1), where the input reduction
        is the identity: the lift, then one wrap01."""
        return wrap01(self.eval_inverse(w) if inverse else self.eval_lift(w))

    def annulus_map(self, z, inverse=False):
        """Induced map on the annulus T x R (second coordinate unrolled)."""
        w = np.array(z, dtype=float)
        w[..., 0] = wrap01(w[..., 0])
        return self._annulus_step(w, inverse)

    def _annulus_step(self, w, inverse=False):
        """annulus_map of points whose x is already in [0, 1), where the
        input reduction is the identity: the lift, then one wrap01 of x."""
        out = self.eval_inverse(w) if inverse else self.eval_lift(w)
        out[..., 0] = wrap01(out[..., 0])
        return out

    def to_definition(self):
        raise NotImplementedError


class RigidTranslation(TorusMapSpec):
    kind = "rigid"
    k = 0
    column_wise = True

    def __init__(self, a, b):
        self.offset = np.array([float(a), float(b)])

    def _shift(self, z, op):
        # per column: a broadcast over the trailing axis of size 2 is slower
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        op(z[..., 0], self.offset[0], out=out[..., 0])
        op(z[..., 1], self.offset[1], out=out[..., 1])
        return out

    def eval_lift(self, z):
        return self._shift(z, np.add)

    def eval_inverse(self, z):
        return self._shift(z, np.subtract)

    def to_definition(self):
        return {"kind": self.kind, "offset": self.offset.tolist()}


class DehnTwist(TorusMapSpec):
    """Pure twist z -> [[1, k], [0, 1]] z, zero displacement."""

    kind = "twist"

    def __init__(self, k):
        if abs(int(k)) > 2**53:  # k * y must stay an exact float product
            raise ValueError("the twist k must satisfy |k| <= 2**53")
        self.k = int(k)

    def eval_lift(self, z):
        return apply_twist(self.k, z)

    def eval_inverse(self, z):
        return apply_twist(-self.k, z)

    def to_definition(self):
        return {"kind": self.kind, "k": self.k}


class SuspensionMap(TorusMapSpec):
    """Discrete suspension of a circle homeomorphism over a circle base.

    In fundamental-domain coordinates (u, x) with u the base and x the fiber:
    (u, x) -> (base_lift(u) mod 1, fiber^m(x)) with m = floor(base_lift(u')),
    u' the representative of u in [0, 1). The lift commutes with Z^2 because
    m depends only on u mod 1.
    """

    kind = "suspension"
    k = 0

    def __init__(self, base_lift: CircleLift, fiber_lift: CircleLift):
        # each evaluation applies the fiber lift |floor(base(u))| times
        if abs(math.floor(base_lift(0.0))) > 1000:
            raise ValueError("a suspension base must translate by at most 1000")
        self.base = base_lift
        self.fiber = fiber_lift
        self._base_inv = base_lift.inverse()
        self._fiber_inv = fiber_lift.inverse()
        # fl(y + c) is monotone in y; a piecewise-affine fiber may step back
        # an ulp at a breakpoint, so only a rigid fiber is declared
        self.column_wise = fiber_lift.kind == KIND_RIGID

    @staticmethod
    def _fiber_power(x, m, lift, lift_inv):
        """Apply lift m times to each point of x, in place (lift_inv -m
        times), m an integer array.

        A degree-one base gives floor(base(u)) at most two consecutive values
        over u in [0, 1), so every point takes the steps they all share, and
        one more step goes to the subset that needs it; a value further off,
        from rounding at the table's wrap, takes a further subset step.
        Points whose m is the integer a NaN casts to take no step.
        """
        if not m.size:
            return
        lo, hi = int(m.min()), int(m.max())
        passes = []
        if hi > 0:
            passes.append((lift, m, max(lo, 0), hi))
        if lo < 0:
            n = -m
            passes.append((lift_inv, n, max(int(n.min()), 0), int(n.max())))
        for f, n, shared, top in passes:
            for _ in range(shared):
                x[...] = f(x)
            for step in range(shared + 1, top + 1):
                need = n >= step
                x[need] = f(x[need])

    def eval_lift(self, z):
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        base_u, base_frac = self.base._lift_pair(z[..., 0])
        out[..., 0] = base_u
        out[..., 1] = z[..., 1]
        m = np.floor(base_frac).astype(np.int64)
        self._fiber_power(out[..., 1], m, self.fiber, self._fiber_inv)
        return out

    def eval_inverse(self, z):
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        u = self._base_inv(z[..., 0])
        out[..., 0] = u
        out[..., 1] = z[..., 1]
        m = np.floor(self.base._lift_unit(wrap01(u))).astype(np.int64)
        self._fiber_power(out[..., 1], m, self._fiber_inv, self.fiber)
        return out

    def to_definition(self):
        return {
            "kind": self.kind,
            "base": self.base.to_definition(),
            "fiber": self.fiber.to_definition(),
        }


class DiskPush(TorusMapSpec):
    """Homeomorphism supported in a disk, translating center0 to center1.

    Realized as z + d * eta(|z - c| / R) with c the midpoint of the centers,
    d = center1 - center0 and eta a plateau bump (1 on [0, 1/2], affine to 0
    at 1). The map is the identity exactly outside the disk of radius R.
    The inverse is z - s * d with s = eta(|w - s * d| / R), w = z - c: s = 1
    where |w - d| <= R/2, s = 0 outside the disk, and in between the root
    in (0, 1) of the quadratic that eta's affine part gives.
    """

    kind = "disk-push"
    k = 0

    def __init__(self, center0, center1, radius):
        c0 = np.asarray(center0, dtype=float)
        c1 = np.asarray(center1, dtype=float)
        radius = float(radius)
        if not (0.0 < radius < 0.25):
            raise ValueError("radius must be in (0, 1/4)")
        if not (np.isfinite(c0).all() and np.isfinite(c1).all()):
            raise ValueError("centers must be finite")
        d = c1 - c0
        d = d - np.round(d)  # nearest torus representative of the push vector
        if np.linalg.norm(d) > 0.49 * radius:
            raise ValueError("centers too far apart for the radius")
        self.center0 = wrap01(c0)
        self.center1 = wrap01(c0 + d)
        self.push = d
        self.radius = radius
        self.midpoint = wrap01(c0 + 0.5 * d)

    def _eta(self, r):
        return np.minimum(np.maximum(2.0 * (1.0 - r), 0.0), 1.0)

    def _rel(self, z):
        w = np.asarray(z, dtype=float) - self.midpoint
        return w - np.rint(w)

    @staticmethod
    def _norm(w0, w1):
        # what np.linalg.norm(..., axis=-1) computes for real input
        return np.sqrt(w0 * w0 + w1 * w1)

    def eval_lift(self, z):
        z = np.asarray(z, dtype=float)
        w = self._rel(z)
        r = self._norm(w[..., 0], w[..., 1]) / self.radius
        return z + self._eta(r)[..., None] * self.push

    def eval_inverse(self, z):
        z = np.asarray(z, dtype=float)
        w = self._rel(z)
        w0, w1 = w[..., 0], w[..., 1]
        p0, p1 = self.push
        rr = self.radius * self.radius
        # on eta's affine part a*s^2 + b*s + c = 0, a > 0 since |d| <= 0.49 R
        c = rr - (w0 * w0 + w1 * w1)
        inside = c > 0.0
        if not inside.any():
            return z.copy()
        a = 0.25 * rr - (p0 * p0 + p1 * p1)
        b = 2.0 * (w0 * p0 + w1 * p1) - rr
        # the smaller root without cancellation; the discriminant dips below 0
        # only by rounding, near the double root w = 2d on the plateau
        s = 2.0 * c / (np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)) - b)
        s = np.where(self._norm(w0 - p0, w1 - p1) <= 0.5 * self.radius, 1.0, s)
        return np.where(inside[..., None], z - s[..., None] * self.push, z)

    def to_definition(self):
        return {
            "kind": self.kind,
            "center0": self.center0.tolist(),
            "center1": self.center1.tolist(),
            "radius": self.radius,
        }


class ComposedMap(TorusMapSpec):
    """Composition chain, first element applied first."""

    kind = "composed"

    def __init__(self, chain):
        self.chain = list(chain)
        if not self.chain:
            raise ValueError("empty composition chain")
        self.k = sum(m.k for m in self.chain)
        self.column_wise = all(m.column_wise for m in self.chain)

    def eval_lift(self, z):
        out = np.asarray(z, dtype=float)
        for m in self.chain:
            out = m.eval_lift(out)
        return out

    def eval_inverse(self, z):
        out = np.asarray(z, dtype=float)
        for m in reversed(self.chain):
            out = m.eval_inverse(out)
        return out

    def to_definition(self):
        return {"kind": self.kind, "maps": [m.to_definition() for m in self.chain]}


# -- isotopy-class normalization ----------------------------------------------

def normalize_isotopy_class(A):
    """Conjugate a unipotent unimodular matrix into twist form.

    Returns (B, k) with B unimodular and B^-1 A B = [[1, k], [0, 1]], all in
    exact integer arithmetic. Rejects matrices that are not unipotent with
    determinant one.
    """
    M = [[int(A[0][0]), int(A[0][1])], [int(A[1][0]), int(A[1][1])]]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    tr = M[0][0] + M[1][1]
    if det != 1 or tr != 2:
        raise ValueError("not unipotent: need det 1 and trace 2")
    if M[1][0] == 0:  # already a twist, the identity when k = 0
        return ((1, 0), (0, 1)), M[0][1]
    # kernel of A - I is spanned by a primitive integer vector (a, c)
    p, q = M[0][0] - 1, M[0][1]
    if p == 0 and q == 0:
        p, q = M[1][0], M[1][1] - 1
    # row (p, q) annihilates (a, c): take (a, c) = (q, -p) made primitive
    a, c = q, -p
    g = math.gcd(abs(a), abs(c))
    a //= g
    c //= g
    if c < 0 or (c == 0 and a < 0):
        a, c = -a, -c
    # Bezout completion: (b, d) with a*d - b*c = 1, minimizing |b| + |d|
    g, x, y = _ext_gcd(a, c)
    assert g == 1
    b0, d0 = -y, x
    best = None
    t0 = 0
    if a * a + c * c > 0:
        t0 = round((-(b0 * a + d0 * c)) / (a * a + c * c))
    for t in range(t0 - 2, t0 + 3):
        b, d = b0 + t * a, d0 + t * c
        key = (abs(b) + abs(d), abs(b))
        if best is None or key < best[0]:
            best = (key, b, d)
    _, b, d = best
    B = ((a, b), (c, d))
    k = _conjugated_twist(M, B)
    return B, k


def _ext_gcd(a, b):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def _conjugated_twist(M, B):
    (a, b), (c, d) = B
    inv = ((d, -b), (-c, a))  # det B = 1
    AB = _mat_mul(M, B)
    C = _mat_mul(inv, AB)
    if C[0][0] != 1 or C[1][1] != 1 or C[1][0] != 0:
        raise AssertionError("conjugation did not reach twist form")
    return C[0][1]


def _mat_mul(P, Q):
    return (
        (P[0][0] * Q[0][0] + P[0][1] * Q[1][0], P[0][0] * Q[0][1] + P[0][1] * Q[1][1]),
        (P[1][0] * Q[0][0] + P[1][1] * Q[1][0], P[1][0] * Q[0][1] + P[1][1] * Q[1][1]),
    )
