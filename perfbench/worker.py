"""One fresh benchmark process: time a workload's set-up and measured phase.

Started by ``run.py`` from the root of a checkout; torusdyn is imported from
``src/`` there. Writes one JSON report to ``--result``. Modes:

* ``setup``: import torusdyn and run the workload's ``setup``, then stop.
  The time from process start is one ``setup_s`` sample.
* ``run``: the same, then repeat the measured phase until ``--seconds``
  have passed, at least once. With ``--trace 1`` the set-up and a single
  repetition run with the layer spans installed instead, and the spans are
  saved next to the outputs.

The process reads its own ``ru_maxrss``, so peak RSS is this workload's.
"""

import time

T0 = time.perf_counter()  # before numpy and torusdyn are imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _measure(wl, state, seed, outdir):
    gc.collect()
    c0, t0 = _cpu(), time.perf_counter()
    raw = wl.run(state, seed, outdir)
    wall = time.perf_counter() - t0
    return raw, wall, _cpu() - c0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    from workloads import WORKLOADS

    import torusdyn.cli  # noqa: F401  (part of the timed import)

    wl = WORKLOADS[args.workload]
    report = {}
    if not args.trace:
        state = wl.setup()
        report["setup_s"] = time.perf_counter() - T0
    if args.mode == "setup":
        with open(args.result, "w") as fh:
            json.dump(report, fh)
        return 0

    os.makedirs(args.out, exist_ok=True)
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
        tracer.install()
        with tracer.root("bench.setup"):
            state = wl.setup()
        gc.collect()
        with tracer.root("bench.measured") as root:
            raw = wl.run(state, args.seed, args.out)
        tracer.uninstall()
        checks, hashes = wl.verify(state, raw, args.out)
        raw = None
        metrics, trace_checks = layer_metrics(tracer, root)
        tracer.save(os.path.join(args.out, "spans.npz"))
        report["traced"] = {"checks": checks + trace_checks, "hashes": hashes,
                            "metrics": metrics}
    else:
        reps = report["reps"] = []
        start = time.perf_counter()
        while True:
            outdir = os.path.join(args.out, f"rep{len(reps)}")
            raw, wall, cpu = _measure(wl, state, args.seed, outdir)
            checks, hashes = wl.verify(state, raw, outdir)
            raw = None
            reps.append({"wall_s": wall, "cpu_s": cpu, "checks": checks,
                         "hashes": hashes})
            if time.perf_counter() - start >= args.seconds:
                break

    import numpy
    import scipy

    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    report["platform"] = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "torusdyn": torusdyn.__version__,
        "cores": len(os.sched_getaffinity(0)), "machine": platform.machine()}
    with open(args.result, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
