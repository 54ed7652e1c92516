"""Shared numeric helpers: the orbit driver, the two-process walk, circle
arithmetic, metrics, sampling."""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from itertools import islice

import numpy as np

# Fixed double-precision irrational constants, recorded verbatim in config output.
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.6180339887498949
SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0  # 0.41421356237309515

# R2 low-discrepancy sequence generator (plastic constant).
_PLASTIC = 1.324717957244746


def _float_if_scalar(a):
    """A 0-d result as a Python float; an array result as it is."""
    return float(a) if np.ndim(a) == 0 else a


def wrap01(x):
    """Reduce mod 1 with representatives in [0, 1), ties toward 0.

    The one mod-1 reduction of the package: ``x - floor(x)``, with the float
    artifact where a tiny negative reduces to 1.0 sent to 0.0. An array
    result is one fresh array, the floor overwritten by the difference. A
    finite Python float takes no numpy call: math.floor(-0.0) is 0, so -0.0
    reduces to -0.0 there and is sent to 0.0, the numpy difference.
    """
    if type(x) is float and math.isfinite(x):
        r = x - math.floor(x)
        return 0.0 if r >= 1.0 or r == 0.0 else r
    xa = np.asarray(x, dtype=float)
    if xa.ndim == 0:
        r = float(xa - np.floor(xa))
        return 0.0 if r >= 1.0 else r
    r = np.floor(xa)
    np.subtract(xa, r, out=r)
    r[r >= 1.0] = 0.0
    return r


def finite_multiples(rho, n):
    """rho as a float, checked so that every multiple k * rho with
    |k| <= n, the drift of a run of n steps, is finite."""
    rho = float(rho)
    if not math.isfinite(rho * max(int(n), 1)):
        raise ValueError(f"rho {rho!r} times {n} steps is not finite")
    return rho


def iterates(step, z, n):
    """The n iterates step(z), step(step(z)), ... of z, one at a time: the
    package's one orbit driver, which holds only the current iterate."""
    for _ in range(int(n)):
        z = step(z)
        yield z


def iterate_blocks(step, z, n, width):
    """The n iterates of z under step in blocks of up to width steps: yields
    (n0, block) for n0 = 1, 1 + width, ..., block[i] being iterate n0 + i.
    Every block is a view of one buffer, refilled for the next, so it is to
    be read before the next is asked for."""
    n = int(n)
    orbit = iterates(step, z, n)
    buffer = np.empty((min(width, n), *np.shape(z)))
    for n0 in range(1, n + 1, width):
        block = buffer[:n + 1 - n0]
        for i, w in enumerate(islice(orbit, len(block))):
            block[i] = w
        yield n0, block


def nth_iterate(step, z, n):
    """The last of the n iterates of z under step; z itself when n is 0."""
    for z in iterates(step, z, n):
        pass
    return z


# A fork, one pickled item and the reap take about 2 ms (50 trivial pairs:
# 1.9 ms at 42 MB RSS, 2.1 ms at 274 MB). The cheapest backward walk
# measured, a rigid translation of 1,024 to 4,096 rows, takes 34 to 37 ns
# per row and step, and walks of fewer rows cost more per row, since each
# step has a fixed cost (52 ns at 64 rows). So a walk of at least 2**16
# row-steps walks its backward half for at least 2.2 ms, longer than a
# fork takes, and running that half beside the forward one saves more
# than the fork costs. A shorter walk stays in this process.
_FORK_WORK = 2**16


def _can_fork(work):
    """Whether `_both_ways` runs its backward half in a child process: its
    work, estimated by the caller as steps times rows, is at least
    ``_FORK_WORK``, the platform has os.fork, at least two cores are ours,
    and this process runs one Python thread, since forking a threaded
    process is unsafe. Threads started outside Python are not counted:
    numpy's OpenBLAS pool is stopped around a fork by OpenBLAS itself."""
    return (work >= _FORK_WORK and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _both_ways(forward, backward, work):
    """The items of two generators in pairs, as ``zip`` gives them.

    ``work`` estimates the backward half's work as steps times rows. Where
    `_can_fork(work)`, the backward generator runs in a child made by
    os.fork, which sends each item back pickled over a pipe, while the
    forward one runs here; otherwise both run here. The child computes what
    this process would, under the same numpy errstate and warning filters,
    so the pairs are the same bit for bit. The child ends by os._exit on
    every path. When the pairs end, run out, closed early or broken by an
    exception, the child is killed and reaped. An exception raised in the
    child is raised here again with its type and message, or as a
    RuntimeError naming its type when it cannot be pickled; a child that
    ends without a word raises RuntimeError with its exit code.
    """
    if not _can_fork(work):
        yield from zip(forward, backward)
        return
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        _send_all(backward, read, write)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as pipe:
            for item in forward:
                try:
                    kind, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    pid = None
                    raise RuntimeError(f"the backward half's process ended with "
                                       f"exit code {code} and no result") from None
                if kind == "raise":
                    raise value
                if kind == "end":
                    return
                yield item, value
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send_all(backward, read, write):
    """The child of `_both_ways`: send each item of backward, then its end
    or the exception it raised, and exit without returning."""
    code = 1
    try:
        os.close(read)
        with os.fdopen(write, "wb") as pipe:
            try:
                for item in backward:
                    pipe.write(pickle.dumps(("item", item), pickle.HIGHEST_PROTOCOL))
                    pipe.flush()
                message = ("end", None)
            except BaseException as exc:
                message = ("raise", exc)
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    message = ("raise", RuntimeError(f"{type(exc).__name__}: {exc}"))
            pipe.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def circle_dist(a, b):
    """Distance on T = R/Z."""
    d = wrap01(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
    return _float_if_scalar(np.minimum(d, 1.0 - d))


def torus_dist(z, w):
    """Euclidean distance on T^2; z, w arrays with trailing axis of size 2."""
    d = circle_dist(z, w)
    return _float_if_scalar(np.sqrt(np.sum(d * d, axis=-1)))


def annulus_dist(z, w):
    """Distance on the open annulus T x R; trailing axis (x, ytil)."""
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    dx = circle_dist(z[..., 0], w[..., 0])
    dy = z[..., 1] - w[..., 1]
    return _float_if_scalar(np.hypot(dx, dy))


def skew_dist(s, r):
    """Distance on T x A, the sum d_T(t,t') + d_A(z,z'); trailing axis (t, x, ytil)."""
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    return _float_if_scalar(circle_dist(s[..., 0], r[..., 0])
                            + annulus_dist(s[..., 1:], r[..., 1:]))


def lattice_points_2d(count, seed=0):
    """Deterministic low-discrepancy points on [0,1)^2 (R2 sequence + seeded jitter)."""
    i = np.arange(count, dtype=float)[:, None]
    alphas = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC**2])
    base = wrap01(0.5 + i * alphas)
    rng = np.random.default_rng(seed)
    return wrap01(base + 0.25 * rng.uniform(-1.0, 1.0, (count, 2)) / max(count, 1))

